//! End-to-end streaming under the distributed terminator: the full paper
//! workflow (increments of an SBM stream driving dynamic BFS) must produce
//! identical results whether termination is detected by global quiescence
//! (the paper's simulator-level check) or by Safra's token ring — the token
//! merely costs extra cycles.

use amcca::prelude::*;
use gc_datasets::{edge_sampling, generate_sbm, SbmParams};
use refgraph::{bfs_levels, DiGraph};

fn stream_all(mode: TerminationMode) -> (Vec<u64>, u64) {
    let n = 300u32;
    let edges = generate_sbm(&SbmParams::scaled(n, 3000, 64));
    let d = edge_sampling(n, edges, 5, 2);
    let mut g = StreamingGraph::builder(BfsAlgo::new(0))
        .vertices(n)
        .chip(ChipConfig { termination: mode, ..ChipConfig::default() })
        .rpvo(RpvoConfig::basic(8, 2))
        .build()
        .unwrap();
    let mut cycles = 0;
    for i in 0..d.increments() {
        cycles += g.stream_edges(d.increment(i)).unwrap().cycles;
    }
    (g.states(), cycles)
}

#[test]
fn safra_streaming_matches_quiescence_and_reference() {
    let (sq, cq) = stream_all(TerminationMode::Quiescence);
    let (ss, cs) = stream_all(TerminationMode::SafraToken);
    assert_eq!(sq, ss, "identical BFS levels under both terminators");
    assert!(cs > cq, "token detection lags quiescence: {cs} <= {cq}");
    // And both match the oracle.
    let edges = generate_sbm(&SbmParams::scaled(300, 3000, 64));
    let reference = bfs_levels(&DiGraph::from_edges(300, edges.iter().copied()), 0);
    assert_eq!(sq, reference);
}

#[test]
fn safra_detection_overhead_is_bounded() {
    // The token needs O(ring length) cycles per probe round; with 1024
    // cells and 5 increments the total overhead must stay within a small
    // multiple of 5 × 2 rounds × ~3 cycles/position.
    let (_, cq) = stream_all(TerminationMode::Quiescence);
    let (_, cs) = stream_all(TerminationMode::SafraToken);
    let overhead = cs - cq;
    let bound = 5 * 4 * 3 * 1024 + 5 * 4096; // generous: ≤4 rounds/increment
    assert!(
        overhead < bound as u64,
        "token overhead {overhead} cycles exceeds plausible bound {bound}"
    );
}
