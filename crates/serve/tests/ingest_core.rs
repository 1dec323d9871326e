//! `IngestCore` driven directly (no sockets): submissions are parked in the
//! graph's own mutation log, so these pin what that move must keep —
//! all-or-nothing refusal, the log as the only validator after a restore,
//! no checkpoint with parked submissions unapplied, a WAL replay that
//! rebuilds the very copies a round acknowledged, and no round logged that
//! failed to apply.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use amcca_serve::{IngestCore, ServeError, Store, WalRecord};
use amcca_sim::{ChipConfig, SimError};
use sdgp_core::graph::GraphMutation::{self, AddEdge, DelEdge, UpdateWeight};
use sdgp_core::rpvo::RpvoConfig;
use sdgp_core::{BfsAlgo, SsspAlgo, StreamingGraph};

fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "amcca-serve-core-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn builder() -> sdgp_core::GraphBuilder<BfsAlgo> {
    StreamingGraph::builder(BfsAlgo::new(0))
        .vertices(8)
        .chip(ChipConfig::small_test())
        .rpvo(RpvoConfig::basic(4, 2))
}

/// The single-writer oracle: the same batches streamed into a fresh graph.
fn oracle(batches: &[&[GraphMutation]]) -> Vec<Option<u64>> {
    let mut g = builder().build().unwrap();
    for b in batches {
        g.stream_increment(b).unwrap();
    }
    g.sync_values()
}

#[test]
fn refused_submission_leaves_the_flush_exactly_the_accepted_one() {
    let dir = tmp_dir("refused");
    let (mut core, _) = IngestCore::boot(builder(), &dir, 0).unwrap();
    let a = [AddEdge((0, 1, 1)), AddEdge((1, 2, 4)), AddEdge((0, 3, 1))];
    core.submit(&a).unwrap();
    // The valid prefix annihilates and rewrites A's pending inserts before
    // the last delete fails; all of it must be undone.
    let b = [DelEdge((0, 1, 1)), UpdateWeight { u: 1, v: 2, w: 9 }, DelEdge((5, 6, 1))];
    let err = core.submit(&b).unwrap_err();
    assert_eq!(err.to_string(), "DelEdge(5 -> 6, w 1): no live copy to delete");
    assert_eq!(core.pending_ops(), 3);
    assert!(core.flush().unwrap());
    assert_eq!(Store::open(&dir).unwrap().load_tail().unwrap(), [WalRecord::Batch(a.to_vec())]);
    assert_eq!(core.sync_values(), oracle(&[&a]));
    assert_eq!(core.stats().mutations, 3);
}

#[test]
fn after_recovery_the_graphs_own_log_validates_checkpoint_and_tail_edges() {
    let dir = tmp_dir("recovered");
    let from_checkpoint = [AddEdge((0, 1, 1)), AddEdge((1, 2, 1)), AddEdge((0, 2, 7))];
    let from_tail = [AddEdge((2, 3, 2)), AddEdge((3, 4, 1))];
    {
        let (mut core, _) = IngestCore::boot(builder(), &dir, 0).unwrap();
        core.submit(&from_checkpoint).unwrap();
        core.flush().unwrap();
        core.checkpoint().unwrap();
        core.submit(&from_tail).unwrap();
        core.flush().unwrap();
    }
    let (mut core, boot) = IngestCore::boot(builder(), &dir, 0).unwrap();
    assert!(boot.recovered);
    assert_eq!((boot.checkpoint_edges, boot.tail_batches), (3, 1));
    core.submit(&[DelEdge((1, 2, 1))]).unwrap();
    let err = core.submit(&[DelEdge((1, 2, 1))]).unwrap_err();
    assert_eq!(err.to_string(), "DelEdge(1 -> 2, w 1): no live copy to delete");
    core.submit(&[UpdateWeight { u: 2, v: 3, w: 5 }]).unwrap();
    assert!(core.flush().unwrap());
    let last = [DelEdge((1, 2, 1)), UpdateWeight { u: 2, v: 3, w: 5 }];
    assert_eq!(core.sync_values(), oracle(&[&from_checkpoint, &from_tail, &last]));
    assert_eq!(core.stats().live_edges, 4);
}

#[test]
fn checkpoint_applies_parked_submissions_first() {
    // Cadence 2 makes the parked submission's own flush write the snapshot.
    for checkpoint_every in [0, 2] {
        let dir = tmp_dir("parked");
        let (mut core, _) = IngestCore::boot(builder(), &dir, checkpoint_every).unwrap();
        core.submit(&[AddEdge((0, 1, 1))]).unwrap();
        core.flush().unwrap();
        let parked = [AddEdge((1, 2, 1)), AddEdge((2, 3, 1))];
        core.submit(&parked).unwrap();
        assert!(core.checkpoint().unwrap() > 0);
        assert_eq!(core.pending_ops(), 0);
        let stats = core.stats();
        assert_eq!((stats.batches, stats.checkpoints), (2, 1), "parked ran as its own increment");

        let store = Store::open(&dir).unwrap();
        assert_eq!(store.load_tail().unwrap(), [], "the checkpoint absorbed the whole WAL");
        let ck = store.load_checkpoint().unwrap().expect("checkpoint written");
        assert_eq!(ck.edges, [(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        let restored = ck.restore(builder()).expect("snapshot passes its own fixpoint check");
        assert_eq!(restored.sync_values(), core.sync_values());
    }
}

/// Rounds whose drained batch, re-coalesced on the pre-round log, would
/// address other copies than the round did: in the first the re-weight
/// folded past the delete re-matches the delete to the patched copy, in
/// the second the surviving copies come back in the other order. The WAL
/// holds the round's submissions, so a reboot without a checkpoint
/// rebuilds the acknowledged copies, order included — and a later
/// re-weight then patches the copy it would have patched before the crash.
#[test]
fn replay_rebuilds_the_copies_a_round_acknowledged() {
    let sssp = || {
        StreamingGraph::builder(SsspAlgo::new(0))
            .vertices(4)
            .chip(ChipConfig::small_test())
            .rpvo(RpvoConfig::basic(4, 2))
    };
    let upd = |w| UpdateWeight { u: 0, v: 1, w };
    let rounds: [(&[u32], [GraphMutation; 3]); 2] = [
        (&[3, 9], [upd(5), DelEdge((0, 1, 9)), upd(9)]),
        (&[1, 1, 2], [upd(1), DelEdge((0, 1, 2)), upd(2)]),
    ];
    for (settled, round) in rounds {
        let dir = tmp_dir("replay");
        let before = {
            let (mut core, _) = IngestCore::boot(sssp(), &dir, 0).unwrap();
            let adds: Vec<GraphMutation> = settled.iter().map(|&w| AddEdge((0, 1, w))).collect();
            core.submit(&adds).unwrap();
            assert!(core.flush().unwrap());
            for m in round {
                core.submit(&[m]).unwrap();
            }
            assert!(core.flush().unwrap());
            (core.graph().live_edges(), core.sync_values())
        };
        let (mut core, boot) = IngestCore::boot(sssp(), &dir, 0).unwrap();
        assert_eq!((boot.recovered, boot.tail_batches), (false, 2));
        let after = (core.graph().live_edges(), core.sync_values());
        assert_eq!(after, before, "settled {settled:?}, round {round:?}");
        // The oldest copy takes the next re-weight.
        core.submit(&[upd(7)]).unwrap();
        assert!(core.flush().unwrap());
        let mut want = before.0.clone();
        want[0].2 = 7;
        assert_eq!(core.graph().live_edges(), want, "settled {settled:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A round that cannot apply is never logged, so it cannot make every later
/// boot fail: after an out-of-memory flush the store still boots, to exactly
/// the acknowledged round before it.
#[test]
fn a_round_that_fails_to_apply_never_reaches_the_log() {
    let dir = tmp_dir("oom");
    let tiny = || {
        StreamingGraph::builder(BfsAlgo::new(0))
            .vertices(8)
            .chip(ChipConfig {
                arena_capacity: 2,
                max_alloc_retries: 4,
                ..ChipConfig::small_test()
            })
            .rpvo(RpvoConfig::basic(2, 2))
    };
    let (mut core, _) = IngestCore::boot(tiny(), &dir, 0).unwrap();
    let first = [AddEdge((0, 1, 1))];
    core.submit(&first).unwrap();
    assert!(core.flush().unwrap());
    let values = core.sync_values();

    let hub: Vec<GraphMutation> = (0..400).map(|i| AddEdge((0, 1 + i % 7, 1 + i / 7))).collect();
    core.submit(&hub).unwrap();
    let err = core.flush().unwrap_err();
    assert!(matches!(err, ServeError::Sim(SimError::OutOfMemory { .. })), "{err}");
    drop(core);

    let (core, report) = IngestCore::boot(tiny(), &dir, 0).unwrap();
    assert_eq!(report.tail_batches, 1);
    assert_eq!(core.sync_values(), values);
    assert_eq!(core.graph().live_edges(), [(0, 1, 1)]);
    let _ = std::fs::remove_dir_all(&dir);
}
