//! `IngestCore` driven directly (no sockets): submissions are parked in the
//! graph's own mutation log, so these pin what that move must keep —
//! all-or-nothing refusal, the log as the only validator after a restore,
//! and no checkpoint with parked submissions unapplied.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use amcca_serve::{IngestCore, Store, WalRecord};
use amcca_sim::ChipConfig;
use sdgp_core::graph::GraphMutation::{self, AddEdge, DelEdge, UpdateWeight};
use sdgp_core::rpvo::RpvoConfig;
use sdgp_core::{BfsAlgo, StreamingGraph};

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
