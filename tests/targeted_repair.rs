//! Tests of frontier-scoped (targeted) deletion repair.
//!
//! The claims pinned here, per the repair contract in `sdgp_core::graph`:
//!
//! 1. **Fixpoint equivalence** — full-wave and targeted reseed reach
//!    bit-identical fixpoints (states, stored edges, mirrors) on
//!    sliding-window churn streams, arrival- and Snowball-ordered, with and
//!    without weight updates, batch after batch.
//! 2. **Scoping** — the targeted reseed's trigger count (the new
//!    `RunReport::reseed_triggers`) is bounded by the invalidated region:
//!    the recall-reachable closure of the deleted edges' endpoints plus its
//!    one-hop neighbourhood and the batch's own mutation sources — and is
//!    strictly below `n` on a small-batch/large-graph case where the full
//!    wave pays `n` every batch.

mod common;

use amcca::gc_datasets::{generate_churn, ChurnParams, Sampling};
use amcca::prelude::*;
use common::oracle::surviving_edges;
use refgraph::{bfs_levels, DiGraph};

/// Build one churn batch's mutation list in the generator's canonical order
/// (deletes → inserts → updates).
fn batch_muts(b: &amcca::gc_datasets::MutationBatch) -> Vec<GraphMutation> {
    let mut muts = Vec::with_capacity(b.dels.len() + b.adds.len() + b.updates.len());
    muts.extend(b.dels.iter().copied().map(GraphMutation::DelEdge));
    muts.extend(b.adds.iter().copied().map(GraphMutation::AddEdge));
    muts.extend(b.updates.iter().map(|&(u, v, w)| GraphMutation::UpdateWeight { u, v, w }));
    muts
}

fn graph(n: u32, mode: RepairMode) -> StreamingGraph<BfsAlgo> {
    StreamingGraph::builder(BfsAlgo::new(0))
        .vertices(n)
        .chip(ChipConfig::small_test())
        .rpvo(RpvoConfig::basic(3, 2).with_rhizomes(8, 3))
        .repair(mode)
        .build()
        .unwrap()
}

/// Full vs targeted on a churn schedule: bit-identical states, stored
/// edges, and oracle agreement after EVERY batch; targeted triggers never
/// exceed full's (which pays `n` whenever any repair runs).
fn assert_modes_agree(p: &ChurnParams) {
    let c = generate_churn(p);
    let mut full = graph(c.n_vertices, RepairMode::Full);
    let mut targeted = graph(c.n_vertices, RepairMode::Targeted);
    let mut repair_batches = 0u32;
    for i in 0..c.len() {
        let muts = batch_muts(c.batch(i));
        let rf = full.stream_increment(&muts).unwrap();
        let rt = targeted.stream_increment(&muts).unwrap();
        assert_eq!(full.states(), targeted.states(), "batch {i}: states bit-identical");
        assert_eq!(full.total_edges_stored(), targeted.total_edges_stored(), "batch {i}");
        let oracle =
            bfs_levels(&DiGraph::from_edges(c.n_vertices, c.live_after(i).iter().copied()), 0);
        assert_eq!(targeted.states(), oracle, "batch {i}: rebuild oracle");
        if rf.reseed_triggers > 0 {
            repair_batches += 1;
            assert_eq!(rf.reseed_triggers, c.n_vertices as u64, "full wave pays n");
            assert!(rt.reseed_triggers <= rf.reseed_triggers, "targeted never exceeds full");
        } else {
            assert_eq!(rt.reseed_triggers, 0, "batch {i}: both modes agree repair is needed");
        }
    }
    assert!(repair_batches > 0, "schedule must exercise the repair path");
    full.check_mirror_consistency().unwrap();
    targeted.check_mirror_consistency().unwrap();
}

#[test]
fn full_and_targeted_reach_identical_fixpoints_on_churn() {
    assert_modes_agree(&ChurnParams {
        n_vertices: 48,
        batches: 5,
        adds_per_batch: 90,
        window: 2,
        drain: true,
        updates_per_batch: 0,
        order: Sampling::Edge,
        labels: 0,
        seed: 7,
    });
}

#[test]
fn full_and_targeted_reach_identical_fixpoints_on_snowball_churn() {
    assert_modes_agree(&ChurnParams {
        n_vertices: 48,
        batches: 5,
        adds_per_batch: 90,
        window: 2,
        drain: true,
        updates_per_batch: 0,
        order: Sampling::Snowball,
        labels: 0,
        seed: 8,
    });
}

#[test]
fn full_and_targeted_reach_identical_fixpoints_with_weight_updates() {
    assert_modes_agree(&ChurnParams {
        n_vertices: 48,
        batches: 5,
        adds_per_batch: 90,
        window: 2,
        drain: true,
        updates_per_batch: 12,
        order: Sampling::Edge,
        labels: 0,
        seed: 9,
    });
}

/// An independent upper bound on the repair frontier of a delete-only
/// batch: every invalidated vertex lies in the recall-reachable closure `R`
/// of the deleted edges' destinations (recalls cascade only along the out-
/// edges of invalidated vertices), every rejector is in `R` or one out-hop
/// from it, every ledger in-neighbour is one in-hop from `R`, and the only
/// other triggers are the batch's own insert sources. Computed over the
/// union of pre-batch survivors and the batch's adds.
fn region_bound(pre: &[StreamEdge], batch: &[GraphMutation], n: u32) -> u64 {
    let mut edges: Vec<StreamEdge> = pre.to_vec();
    let mut seeds: Vec<u32> = Vec::new();
    let mut sources: Vec<u32> = Vec::new();
    for m in batch {
        match *m {
            GraphMutation::AddEdge(e) | GraphMutation::AddLabeledEdge(e, _) => {
                edges.push(e);
                sources.push(e.0);
            }
            GraphMutation::DelEdge((_, v, _)) => seeds.push(v),
            GraphMutation::UpdateWeight { u, v, .. } => {
                seeds.push(v);
                sources.push(u);
            }
        }
    }
    // Forward closure of the seeds.
    let mut in_region = vec![false; n as usize];
    let mut stack = seeds;
    while let Some(v) = stack.pop() {
        if std::mem::replace(&mut in_region[v as usize], true) {
            continue;
        }
        for &(a, b, _) in &edges {
            if a == v && !in_region[b as usize] {
                stack.push(b);
            }
        }
    }
    // One hop out (rejectors) and one hop in (ledger in-neighbours).
    let mut member = in_region.clone();
    for &(a, b, _) in &edges {
        if in_region[a as usize] {
            member[b as usize] = true;
        }
        if in_region[b as usize] {
            member[a as usize] = true;
        }
    }
    for s in sources {
        member[s as usize] = true;
    }
    member.iter().filter(|&&m| m).count() as u64
}

/// Small deletion batches on a large graph: the targeted trigger count is
/// bounded by the invalidated region's size — strictly below `n` — while
/// the full wave pays `n` per batch. Fixpoints stay bit-identical.
#[test]
fn targeted_triggers_are_bounded_by_the_invalidated_region() {
    let n: u32 = 200;
    // A long weave of chains plus cross links: deep BFS trees, so a single
    // deleted edge invalidates a bounded downstream region.
    let mut base: Vec<StreamEdge> = (0..n - 1).map(|v| (v, v + 1, 1)).collect();
    base.extend((0..n - 20).step_by(7).map(|v| (v, v + 20, 1)));
    let mut full = graph(n, RepairMode::Full);
    let mut targeted = graph(n, RepairMode::Targeted);
    full.stream_edges(&base).unwrap();
    targeted.stream_edges(&base).unwrap();
    // Five small delete batches, each retracting 3 edges from the middle.
    let mut applied: Vec<GraphMutation> = GraphMutation::adds(&base);
    for round in 0..5u32 {
        let at = 30 + round * 25;
        let batch: Vec<GraphMutation> =
            (0..3).map(|i| GraphMutation::DelEdge((at + i, at + i + 1, 1))).collect();
        let pre = surviving_edges(&applied);
        let rf = full.stream_increment(&batch).unwrap();
        let rt = targeted.stream_increment(&batch).unwrap();
        applied.extend_from_slice(&batch);
        assert_eq!(full.states(), targeted.states(), "round {round}: bit-identical fixpoints");
        assert_eq!(rf.reseed_triggers, n as u64, "full repair pays n every batch");
        let bound = region_bound(&pre, &batch, n);
        assert!(
            rt.reseed_triggers <= bound,
            "round {round}: {} triggers exceed the invalidated-region bound {bound}",
            rt.reseed_triggers
        );
        assert!(
            rt.reseed_triggers < n as u64,
            "round {round}: targeted repair must not touch every vertex"
        );
        assert!(rt.reseed_triggers > 0, "round {round}: something must reseed");
        // The host's own accounting is consistent with the wave it sent.
        let stats = targeted.last_repair();
        assert_eq!(stats.triggers, rt.reseed_triggers);
        assert!(
            stats.triggers
                <= stats.invalidated + stats.rejected + stats.in_neighbors + stats.touched,
            "triggers are a deduped union of the recorded frontier parts: {stats:?}"
        );
    }
    // End state still matches a from-scratch rebuild over the survivors.
    let live = surviving_edges(&applied);
    let oracle = bfs_levels(&DiGraph::from_edges(n, live.iter().copied()), 0);
    assert_eq!(targeted.states(), oracle);
    targeted.check_mirror_consistency().unwrap();
    full.check_mirror_consistency().unwrap();
}

/// Repair cycles follow the trigger scoping: on the small-batch workload
/// the targeted reseed phase is strictly cheaper than the full wave.
#[test]
fn targeted_repair_cycles_undercut_full_wave() {
    let n: u32 = 200;
    let base: Vec<StreamEdge> = (0..n - 1).map(|v| (v, v + 1, 1)).collect();
    let run = |mode: RepairMode| {
        let mut g = graph(n, mode);
        g.stream_edges(&base).unwrap();
        let r = g.stream_increment(&[GraphMutation::DelEdge((150, 151, 1))]).unwrap();
        (g.states(), r.reseed_triggers, r.repair_cycles)
    };
    let (fs, ft, fc) = run(RepairMode::Full);
    let (ts, tt, tc) = run(RepairMode::Targeted);
    assert_eq!(fs, ts, "bit-identical fixpoints");
    assert_eq!(ft, n as u64);
    assert!(tt < ft, "targeted triggers {tt} < full {ft}");
    assert!(tc < fc, "targeted repair cycles {tc} < full {fc}");
    assert!(tc > 0);
}
