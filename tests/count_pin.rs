//! Exact simulated counts, pinned. Every other test compares two runs of
//! the same binary with each other; this one compares a fixed script against
//! constants, so a refactor that reorders one handler's `propagate` calls or
//! waiter pushes — and with them the schedule — fails here even when both
//! runs of the changed binary agree.
//!
//! The script covers every on-fabric action on an `edge_cap` 2 RPVO (objects
//! spill into ghosts) whose hubs are promoted into rhizomes: SSSP inserts,
//! weight lowers and raises, deletes; a labelled standing query registered
//! and then repaired by a delete; a triangle count and a Jaccard pass over a
//! symmetrized wheel. Each step's `cycles`, `instrs`, `msgs_delivered`,
//! `hops` and `allocs` must match at one band and, with every cycle stepped
//! on two threads, at two.

use amcca::prelude::*;
use sdgp_core::apps::{JaccardAlgo, VertexAlgo, ACT_JC_GEN, ACT_TRI_GEN};

/// `[cycles, instrs, msgs_delivered, hops, allocs]` of one step.
type Counts = [u64; 5];

/// The pinned counts, one row per step in script order.
const PINS: &[(&str, Counts)] = &[
    ("sssp-insert", [97, 186, 64, 240, 2]),
    ("sssp-insert-hub", [55, 124, 42, 124, 4]),
    ("query-register", [63, 79, 27, 88, 0]),
    ("sssp-lower", [65, 57, 17, 49, 0]),
    ("sssp-raise", [71, 98, 38, 128, 0]),
    ("sssp-delete", [154, 351, 122, 441, 0]),
    ("sssp-mixed", [87, 156, 57, 203, 0]),
    ("tri-ingest", [76, 213, 67, 344, 6]),
    ("tri-count", [91, 285, 115, 808, 0]),
    ("jc-ingest", [76, 213, 67, 344, 6]),
    ("jc-pass", [192, 770, 306, 1497, 0]),
];

/// Vertex count of the SSSP graph.
const N: u32 = 16;
/// Vertex count of the wheel (hub 0, rim 1..WHEEL).
const WHEEL: u32 = 12;

fn chip(shards: usize) -> ChipConfig {
    ChipConfig { shard_break_even: 0, ..ChipConfig::small_test() }.with_shards(shards)
}

/// Two edges per object, and any vertex past 4 streamed edges becomes a
/// 2-root rhizome.
fn rpvo() -> RpvoConfig {
    RpvoConfig::basic(2, 2).with_rhizomes(4, 2)
}

/// Run `f` on `g` and record the chip's counter deltas under `name`.
fn step<G: VertexAlgo>(
    g: &mut StreamingGraph<G>,
    out: &mut Vec<(&'static str, Counts)>,
    name: &'static str,
    f: impl FnOnce(&mut StreamingGraph<G>),
) {
    let (cy0, c0) = g.device().chip().snapshot();
    f(g);
    let (cy1, c1) = g.device().chip().snapshot();
    let d = c1.delta(&c0);
    out.push((name, [cy1 - cy0, d.instrs, d.msgs_delivered, d.hops, d.allocs]));
}

/// `a`, `b`, `c` by vertex id.
fn label(v: u32) -> u8 {
    1 + (v % 3) as u8
}

fn sssp_script(shards: usize, out: &mut Vec<(&'static str, Counts)>) {
    use GraphMutation::{AddLabeledEdge, DelEdge, UpdateWeight};
    let mut g = StreamingGraph::builder(SsspAlgo::new(0))
        .vertices(N)
        .chip(chip(shards))
        .rpvo(rpvo())
        .build()
        .unwrap();
    let first: Vec<GraphMutation> = (1..7)
        .map(|v| AddLabeledEdge((0, v, v), label(v)))
        .chain((1..N - 1).map(|v| AddLabeledEdge((v, v + 1, 2), 2)))
        .chain([AddLabeledEdge((5, 0, 1), 1)])
        .collect();
    step(&mut g, out, "sssp-insert", |g| {
        g.stream_increment(&first).unwrap();
    });
    // Vertex 0 is a rhizome by now: these land on both root slices.
    let second: Vec<GraphMutation> = (7..13).map(|v| AddLabeledEdge((0, v, v), label(v))).collect();
    step(&mut g, out, "sssp-insert-hub", |g| {
        g.stream_increment(&second).unwrap();
    });
    step(&mut g, out, "query-register", |g| {
        g.register_query("a.b*", 0).unwrap();
    });
    let lower = [UpdateWeight { u: 0, v: 9, w: 1 }, UpdateWeight { u: 3, v: 4, w: 1 }];
    step(&mut g, out, "sssp-lower", |g| {
        g.stream_increment(&lower).unwrap();
    });
    let raise = [UpdateWeight { u: 0, v: 1, w: 20 }, UpdateWeight { u: 1, v: 2, w: 9 }];
    step(&mut g, out, "sssp-raise", |g| {
        g.stream_increment(&raise).unwrap();
    });
    // 0 → 3 is an `a` edge the query's results derive through.
    let delete = [DelEdge((0, 3, 3)), DelEdge((6, 7, 2))];
    step(&mut g, out, "sssp-delete", |g| {
        g.stream_increment(&delete).unwrap();
    });
    let mixed =
        [AddLabeledEdge((2, 9, 1), 1), DelEdge((0, 4, 4)), UpdateWeight { u: 0, v: 12, w: 2 }];
    step(&mut g, out, "sssp-mixed", |g| {
        g.stream_increment(&mixed).unwrap();
    });
    assert!(g.rhizome_stats().0 >= 1, "the hub must have been promoted");
    g.check_mirror_consistency().unwrap();
}

/// Hub 0 joined to the rim cycle `1..WHEEL`, both directions of every edge.
fn wheel() -> Vec<StreamEdge> {
    let mut und: Vec<StreamEdge> = (1..WHEEL).map(|v| (0, v, 1)).collect();
    und.extend((1..WHEEL - 1).map(|v| (v, v + 1, 1)));
    und.push((WHEEL - 1, 1, 1));
    symmetrize(&und)
}

fn triangle_script(shards: usize, out: &mut Vec<(&'static str, Counts)>) {
    let cfg = chip(shards);
    let cells = cfg.cell_count();
    let mut g = StreamingGraph::builder(TriangleAlgo::new(cells))
        .vertices(WHEEL)
        .chip(cfg)
        .rpvo(rpvo())
        .build()
        .unwrap();
    step(&mut g, out, "tri-ingest", |g| {
        g.stream_edges(&wheel()).unwrap();
    });
    let gens: Vec<Operon> =
        (0..WHEEL).map(|v| Operon::new(g.addr_of(v), ACT_TRI_GEN, [0, 0])).collect();
    step(&mut g, out, "tri-count", |g| {
        g.run_query(gens).unwrap();
    });
    assert_eq!(g.device().app().algo.total(), (WHEEL - 1) as u64, "one triangle per rim edge");
    assert!(g.rhizome_stats().0 >= 1, "the hub must have been promoted");
}

fn jaccard_script(shards: usize, out: &mut Vec<(&'static str, Counts)>) {
    let mut g = StreamingGraph::builder(JaccardAlgo::new())
        .vertices(WHEEL)
        .chip(chip(shards))
        .rpvo(rpvo())
        .build()
        .unwrap();
    step(&mut g, out, "jc-ingest", |g| {
        g.stream_edges(&wheel()).unwrap();
    });
    let gens: Vec<Operon> =
        (0..WHEEL).map(|v| Operon::new(g.addr_of(v), ACT_JC_GEN, [0, 0])).collect();
    step(&mut g, out, "jc-pass", |g| {
        g.run_query(gens).unwrap();
    });
    // Spoke pair (0, 1) shares rim neighbours 2 and WHEEL - 1.
    assert_eq!(g.device().app().algo.intersection(0, 1), 2);
}

#[test]
fn simulated_counts_match_the_pinned_constants() {
    for shards in [1usize, 2] {
        let mut got = Vec::new();
        sssp_script(shards, &mut got);
        triangle_script(shards, &mut got);
        jaccard_script(shards, &mut got);
        assert_eq!(got.as_slice(), PINS, "shards={shards}");
    }
}
