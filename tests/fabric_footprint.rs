//! The streaming graph's heap footprint, counted: what building a graph and
//! streaming a seeded SBM graph into it leave live on the heap, per edge.
//! The graph is the mutation log, the fabric's vertex objects (arena slots,
//! edge lists, ghost slots) and the chip. A counting global allocator
//! (`common/counting.rs`) measures it, so a change to the edge record or the
//! object layout shows here as bytes per edge, not as a peak-RSS drift in a
//! benchmark run.

use amcca::gc_datasets::generate_sbm;
use amcca::prelude::*;
use amcca::sdgp_core::rpvo::{Edge, VertexObj};

#[path = "common/counting.rs"]
mod counting;
use counting::{calls, live, metered, serial};

// The fabric's per-edge and per-object records (an operon's flit bound is
// asserted beside `Operon`).
const _: () = assert!(std::mem::size_of::<Edge>() == 16);
const _: () = assert!(std::mem::size_of::<VertexObj<u32>>() <= 64);

/// `ingest_bulk`'s shape at a tenth of its size: 20 edges per vertex,
/// streamed in ten increments on the small test chip.
///
/// The graph holds 80.2 B and 0.217 live heap blocks per edge here. The
/// bounds sit between that and the 94.2 B and 0.302 blocks it held with
/// 20-byte edges, 96-byte objects and ghost slots boxed at every object's
/// birth, so a return to that layout fails.
const VERTICES: u32 = 5_000;
const EDGES: usize = 100_000;

#[test]
fn an_sbm_graph_costs_at_most_87_bytes_and_a_quarter_block_per_edge() {
    let _serial = serial();
    let edges = generate_sbm(&SbmParams::scaled(VERTICES, EDGES, 91));
    let (start, calls0) = (live(), calls());
    let mut g = metered(|| {
        StreamingGraph::builder(BfsAlgo::new(0))
            .vertices(VERTICES)
            .chip(ChipConfig::small_test())
            .build()
            .unwrap()
    });
    let (built, calls1) = (live(), calls());
    for batch in edges.chunks(EDGES / 10) {
        metered(|| g.stream_edges(batch).unwrap());
    }
    let (end, calls2) = (live(), calls());
    assert_eq!(g.total_edges_stored(), EDGES as u64);
    let n = EDGES as f64;
    let bytes_per_edge = (end.0 - start.0) as f64 / n;
    let blocks_per_edge = (end.1 - start.1) as f64 / n;
    println!(
        "build: {} B in {} live blocks ({} allocations); streamed: {} B in {} live blocks ({} allocations)",
        built.0 - start.0,
        built.1 - start.1,
        calls1 - calls0,
        end.0 - built.0,
        end.1 - built.1,
        calls2 - calls1
    );
    println!("graph: {bytes_per_edge:.1} B, {blocks_per_edge:.3} live heap blocks per edge");
    assert!(bytes_per_edge <= 87.0, "{bytes_per_edge:.1} B of live heap per edge");
    assert!(blocks_per_edge <= 0.25, "{blocks_per_edge:.3} live heap blocks per edge");
    metered(|| drop(g));
    assert_eq!(live(), start, "the dropped graph frees all it held");
}
