//! End-to-end verification of streaming dynamic BFS against the reference
//! oracle, mirroring the paper's methodology: "We verify the results for
//! correctness against known results found using NetworkX" (§4).
//!
//! After *every* streaming increment the chip quiesces and the BFS level of
//! every vertex must equal a fresh sequential BFS over the accumulated edge
//! set — the defining property of incremental recomputation.

use amcca::prelude::*;
use gc_datasets::{edge_sampling, generate_sbm, snowball_sampling};
use refgraph::{bfs_levels, DiGraph};

fn verify_schedule(dataset: &StreamingDataset, cfg: ChipConfig) {
    let n = dataset.n_vertices;
    let mut g = StreamingGraph::builder(BfsAlgo::new(0))
        .vertices(n)
        .chip(cfg)
        .rpvo(RpvoConfig::default())
        .build()
        .unwrap();
    let mut accumulated: Vec<StreamEdge> = Vec::new();
    for i in 0..dataset.increments() {
        let inc = dataset.increment(i);
        let report = g.stream_edges(inc).unwrap();
        assert!(report.cycles > 0, "increment {i} must consume cycles");
        accumulated.extend_from_slice(inc);
        let reference = bfs_levels(&DiGraph::from_edges(n, accumulated.iter().copied()), 0);
        let got = g.states();
        for v in 0..n as usize {
            assert_eq!(
                got[v], reference[v],
                "vertex {v} level mismatch after increment {i}: chip={} ref={}",
                got[v], reference[v]
            );
        }
    }
    assert_eq!(g.total_edges_stored(), accumulated.len() as u64, "every edge stored once");
    g.check_mirror_consistency().unwrap();
}

#[test]
fn edge_sampled_sbm_matches_reference_every_increment() {
    let edges = generate_sbm(&SbmParams::scaled(800, 8000, 21));
    let d = edge_sampling(800, edges, 10, 3);
    verify_schedule(&d, ChipConfig::default());
}

#[test]
fn snowball_sampled_sbm_matches_reference_every_increment() {
    let edges = generate_sbm(&SbmParams::scaled(800, 8000, 22));
    let d = snowball_sampling(800, edges, 10, 0);
    verify_schedule(&d, ChipConfig::default());
}

#[test]
fn heavy_hub_spills_deep_and_stays_correct() {
    // A hub with degree ≫ edge_cap exercises recursive ghost spills under
    // BFS traffic; tight capacity stresses the future queues.
    let n = 200u32;
    let cfg = ChipConfig::small_test();
    let rcfg = RpvoConfig::basic(2, 2);
    let mut g =
        StreamingGraph::builder(BfsAlgo::new(0)).vertices(n).chip(cfg).rpvo(rcfg).build().unwrap();
    let mut edges: Vec<StreamEdge> = (1..n).map(|v| (0, v, 1)).collect();
    // And a back-path so relaxes flow through the spilled structure.
    edges.extend((1..n - 1).map(|v| (v, v + 1, 1)));
    g.stream_edges(&edges).unwrap();
    let reference = bfs_levels(&DiGraph::from_edges(n, edges.iter().copied()), 0);
    assert_eq!(g.states(), reference);
    assert!(g.rpvo_objects(0).len() >= (n as usize - 1) / 2, "hub must have spilled");
    g.check_mirror_consistency().unwrap();
}

#[test]
fn edges_into_the_root_update_it_live() {
    // Edges pointing AT the BFS root must never change its level; edges out
    // of unreached vertices stay silent until the vertex is reached.
    let mut g = StreamingGraph::builder(BfsAlgo::new(0))
        .vertices(8)
        .chip(ChipConfig::small_test())
        .rpvo(RpvoConfig::default())
        .build()
        .unwrap();
    g.stream_edges(&[(3, 0, 1), (3, 4, 1)]).unwrap();
    assert_eq!(g.state_of(0), 0);
    assert_eq!(g.state_of(3), MAX_LEVEL);
    assert_eq!(g.state_of(4), MAX_LEVEL);
    // Now reach 3: its previously inserted out-edges must fire.
    g.stream_edges(&[(0, 3, 1)]).unwrap();
    assert_eq!(g.state_of(3), 1);
    assert_eq!(g.state_of(4), 2);
}

#[test]
fn duplicate_and_cyclic_edges_converge() {
    let mut g = StreamingGraph::builder(BfsAlgo::new(0))
        .vertices(6)
        .chip(ChipConfig::small_test())
        .rpvo(RpvoConfig::default())
        .build()
        .unwrap();
    // Parallel edges, a 2-cycle, and a self-reinforcing triangle.
    let edges = vec![
        (0, 1, 1),
        (0, 1, 1),
        (1, 0, 1),
        (1, 2, 1),
        (2, 1, 1),
        (2, 3, 1),
        (3, 2, 1),
        (3, 0, 1),
    ];
    g.stream_edges(&edges).unwrap();
    let reference = bfs_levels(&DiGraph::from_edges(6, edges.iter().copied()), 0);
    assert_eq!(g.states(), reference);
}

#[test]
fn ingestion_only_mode_inserts_without_bfs() {
    let edges = generate_sbm(&SbmParams::scaled(400, 4000, 9));
    let mut g = StreamingGraph::builder(BfsAlgo::new(0))
        .vertices(400)
        .chip(ChipConfig::default())
        .rpvo(RpvoConfig::default())
        .propagate(false)
        .build()
        .unwrap();
    g.stream_edges(&edges).unwrap();
    assert_eq!(g.total_edges_stored(), 4000);
    // No BFS action ever ran: every non-root level is still MAX.
    for v in 1..400 {
        assert_eq!(g.state_of(v), MAX_LEVEL);
    }
}
