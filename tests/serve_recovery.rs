//! Crash/recovery property test for the serving pipeline, pinned to the
//! shared differential harness (`tests/common/oracle.rs`): for ANY mutation
//! script, ANY batch split, a checkpoint at ANY batch index and a crash at
//! ANY later one, restoring the store and replaying the surviving batches
//! must land on states **bit-identical** to an uninterrupted run — and to a
//! from-scratch rebuild over the surviving edge set. The WAL tail replayed
//! at boot must be exactly the batches persisted after the checkpoint,
//! never the whole history.

mod common;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use amcca::prelude::*;
use amcca_serve::server::IngestCore;
use common::oracle::{surviving_edges, N};
use proptest::prelude::*;

fn tmp_dir() -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "amcca-serve-prop-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn builder(k: usize) -> sdgp_core::GraphBuilder<BfsAlgo> {
    let base = RpvoConfig::basic(3, 2);
    StreamingGraph::builder(BfsAlgo::new(0))
        .vertices(N)
        .chip(ChipConfig::small_test())
        .rpvo(if k <= 1 { base } else { base.with_rhizomes(6, k) })
        // Tracing stays on through every crash/recovery script: the
        // observability layer is pure observation and must not perturb
        // the bit-identical-fixpoint guarantees this test pins.
        .obs(Obs::enabled())
}

/// Raw steps: `(u, v, w, op, pick)` with `op % 3` selecting add / delete /
/// re-weight; deletes and updates pick a live target by rotating `pick`, so
/// every script is valid by construction.
fn arb_script() -> impl Strategy<Value = Vec<(u32, u32, u32, u8, u8)>> {
    prop::collection::vec((0..N, 0..N, 1u32..10, any::<u8>(), any::<u8>()), 1..120)
}

fn materialize(script: &[(u32, u32, u32, u8, u8)]) -> Vec<GraphMutation> {
    let mut muts = Vec::with_capacity(script.len());
    let mut live: Vec<StreamEdge> = Vec::new();
    for &(u, v, w, op, pick) in script {
        match op % 3 {
            // The log deletes the oldest live copy of the named weight and
            // re-weights the pair's oldest: in `live`, kept in arrival
            // order, the first match.
            1 if !live.is_empty() => {
                let e = live[pick as usize % live.len()];
                let oldest = live.iter().position(|&x| x == e).expect("the picked copy is live");
                live.remove(oldest);
                muts.push(GraphMutation::DelEdge(e));
            }
            2 if !live.is_empty() => {
                let (lu, lv, _) = live[pick as usize % live.len()];
                let oldest = live.iter().position(|&(a, b, _)| (a, b) == (lu, lv));
                live[oldest.expect("the picked pair is live")].2 = w;
                muts.push(GraphMutation::UpdateWeight { u: lu, v: lv, w });
            }
            _ if u != v => {
                live.push((u, v, w));
                muts.push(GraphMutation::AddEdge((u, v, w)));
            }
            _ => {}
        }
    }
    muts
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn crash_recovery_is_bit_identical_to_an_uninterrupted_run(
        script in arb_script(),
        chunks in 1usize..6,
        ck_pick in any::<u8>(),
        crash_pick in any::<u8>(),
        k in 1usize..3,
    ) {
        let muts = materialize(&script);
        prop_assume!(!muts.is_empty());
        let batches: Vec<&[GraphMutation]> =
            muts.chunks(muts.len().div_ceil(chunks).max(1)).collect();
        // Checkpoint after batch `ck`, crash after batch `crash` >= ck.
        let ck = ck_pick as usize % batches.len();
        let crash = ck + crash_pick as usize % (batches.len() - ck);

        let dir = tmp_dir();

        // Phase 1: serve until the crash point. Every applied batch is in
        // the WAL before its increment runs, so dropping the core cold
        // loses nothing that was acknowledged.
        let mut persisted_after_ck = 0usize;
        {
            let (mut core, boot) = IngestCore::boot(builder(k), &dir, 0).unwrap();
            prop_assert!(!boot.recovered);
            for (i, batch) in batches.iter().take(crash + 1).enumerate() {
                core.submit(batch).unwrap();
                if core.flush().unwrap() && i > ck {
                    persisted_after_ck += 1;
                }
                if i == ck {
                    core.checkpoint().unwrap();
                    persisted_after_ck = 0;
                }
            }
            // Crash: the core is dropped with no shutdown flush.
        }

        // Phase 2: recover — tail-only replay — and finish the stream.
        let (mut core, boot) = IngestCore::boot(builder(k), &dir, 0).unwrap();
        prop_assert!(boot.recovered);
        prop_assert_eq!(
            boot.tail_batches, persisted_after_ck,
            "boot must replay exactly the post-checkpoint tail"
        );
        for batch in batches.iter().skip(crash + 1) {
            core.submit(batch).unwrap();
            core.flush().unwrap();
        }

        // Uninterrupted run over the same batches, same shape.
        let mut un = builder(k).build().unwrap();
        for batch in &batches {
            un.stream_increment(batch).unwrap();
        }
        prop_assert_eq!(core.sync_values(), un.sync_values(), "recovered vs uninterrupted");

        // And both equal a from-scratch rebuild over the survivors.
        let mut rebuilt = builder(k).build().unwrap();
        rebuilt.stream_edges(&surviving_edges(&muts)).unwrap();
        prop_assert_eq!(core.sync_values(), rebuilt.sync_values(), "recovered vs rebuild");

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
