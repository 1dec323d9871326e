//! Regression tests of per-copy tag addressing: the tag the mutation log
//! hands an inserted copy is the only thing a later retraction or patch
//! names it by on the fabric, so it must stay unique among the pair's live
//! copies however long the pair churns, and a delete must address the copy
//! the log matched it to. Pinned to the shared harness oracle
//! (`tests/common/oracle.rs`) after every increment.

mod common;

use amcca::prelude::*;
use amcca::refgraph::{dijkstra, DiGraph};
use common::oracle::{surviving_edges, surviving_labeled_edges};
use GraphMutation::{AddEdge, AddLabeledEdge, DelEdge, UpdateWeight};

const N: u32 = 8;

fn sssp() -> StreamingGraph<SsspAlgo> {
    StreamingGraph::builder(SsspAlgo::new(0))
        .vertices(N)
        .chip(ChipConfig::small_test())
        .rpvo(RpvoConfig::basic(3, 2))
        .build()
        .expect("graph construction")
}

/// Stream `batch`, then hold the graph to the oracle over everything
/// streamed so far: the source's stored copies, stored == live, fixpoint.
fn stream_and_check(
    g: &mut StreamingGraph<SsspAlgo>,
    history: &mut Vec<GraphMutation>,
    batch: &[GraphMutation],
    cycle: usize,
) {
    g.stream_increment(batch).expect("increment runs to quiescence");
    history.extend_from_slice(batch);
    let live = surviving_edges(history);
    let mut got = g.logical_edges(0);
    got.sort_unstable();
    let mut want: Vec<(u32, u32)> =
        live.iter().filter(|&&(u, _, _)| u == 0).map(|&(_, v, w)| (v, w)).collect();
    want.sort_unstable();
    assert_eq!(got, want, "cycle {cycle}: vertex 0's stored copies");
    assert_eq!(g.total_edges_stored(), g.live_edge_count(), "cycle {cycle}: stored == live");
    let oracle = dijkstra(&DiGraph::from_edges(N, live.iter().copied()), 0);
    assert_eq!(g.states(), oracle, "cycle {cycle}: SSSP fixpoint vs rebuild over survivors");
}

/// One long-lived copy of `0 → 1` (weight 1, tag 0) beside a parallel copy
/// of weight 2 that is added and deleted more than 256 times: the wrapping
/// tag counter must step past the tag the long-lived copy still holds, or
/// the next retraction removes the wrong copy.
#[test]
fn a_churning_parallel_copy_never_takes_a_live_copys_tag() {
    let mut g = sssp();
    let mut history = Vec::new();
    stream_and_check(&mut g, &mut history, &[AddEdge((0, 1, 1)), AddEdge((1, 2, 1))], 0);
    for cycle in 1..=300 {
        stream_and_check(&mut g, &mut history, &[AddEdge((0, 1, 2))], cycle);
        stream_and_check(&mut g, &mut history, &[DelEdge((0, 1, 2))], cycle);
    }
    assert_eq!(g.logical_edges(0), vec![(1, 1)]);
}

/// The same churn with the delete and the re-add inside one increment: the
/// new copy's tag must differ from the one its wave retracts *and* from the
/// long-lived copy's.
#[test]
fn a_copy_replaced_within_one_increment_never_takes_a_live_copys_tag() {
    let mut g = sssp();
    let mut history = Vec::new();
    let seed = [AddEdge((0, 1, 1)), AddEdge((1, 2, 1)), AddEdge((0, 1, 2))];
    stream_and_check(&mut g, &mut history, &seed, 0);
    for cycle in 1..=300 {
        stream_and_check(&mut g, &mut history, &[DelEdge((0, 1, 2)), AddEdge((0, 1, 2))], cycle);
    }
    let mut stored = g.logical_edges(0);
    stored.sort_unstable();
    assert_eq!(stored, vec![(1, 1), (1, 2)]);
}

/// A delete that matches a copy *behind* a re-weighted older one, followed
/// by a re-weight of the older copy to the deleted weight: the fabric must
/// lose the younger copy (the one the host dropped), not whichever copy
/// weighs the named weight once the folded patch has landed.
#[test]
fn a_delete_past_a_patched_copy_retracts_the_copy_the_host_dropped() {
    let mut g = StreamingGraph::builder(BfsAlgo::new(0))
        .vertices(N)
        .chip(ChipConfig::small_test())
        .rpvo(RpvoConfig::basic(3, 2))
        .build()
        .expect("graph construction");
    g.register_query("a", 0).expect("pattern compiles");
    let mut history = vec![AddLabeledEdge((0, 1, 5), 1), AddLabeledEdge((0, 1, 3), 2)];
    g.stream_increment(&history).unwrap();
    let epoch =
        [UpdateWeight { u: 0, v: 1, w: 7 }, DelEdge((0, 1, 3)), UpdateWeight { u: 0, v: 1, w: 3 }];
    g.stream_increment(&epoch).unwrap();
    history.extend_from_slice(&epoch);
    let live = surviving_labeled_edges(&history);
    assert_eq!(live, vec![((0, 1, 3), 1)], "the `a`-labelled older copy survives");
    assert_eq!(g.live_labeled_edges(), live);
    assert_eq!(g.logical_edges(0), vec![(1, 3)]);
    assert_eq!(g.query_results(0), vec![1], "the fabric kept the `a` edge");
}
