//! Property tests of the rhizome subsystem, pinned to the shared
//! differential harness (`tests/common/oracle.rs`): splitting a hub vertex
//! into K co-equal roots is a pure performance transformation. Every harness
//! call checks algorithm equivalence against the sequential oracles (and so,
//! transitively, against the single-root reference), edge conservation
//! across the disjoint root slices, mirror convergence over all roots and
//! ghosts, and the demotion invariant. This file adds the skewed-stream
//! generators, the promotion assertions, determinism / shard-independence,
//! and the query-fanning (triangle / Jaccard) regressions the harness does
//! not own.

mod common;

use amcca::prelude::*;
use common::oracle::{Rebuild, N};
use proptest::prelude::*;

fn arb_edges() -> impl Strategy<Value = Vec<StreamEdge>> {
    prop::collection::vec((0..N, 0..N, 1u32..10), 1..120)
        .prop_map(|es| es.into_iter().filter(|&(u, v, _)| u != v).collect())
}

/// The largest promotion threshold [`arb_rhizome_cfg`] draws.
const MAX_THRESHOLD: usize = 11;

/// A hub-heavy stream: at least [`MAX_THRESHOLD`] extra edges touch vertex
/// 0, so it promotes mid-stream whatever threshold is drawn (promotion fires
/// at exactly `threshold` touches).
fn arb_skewed_edges() -> impl Strategy<Value = Vec<StreamEdge>> {
    let hub = prop::collection::vec((1..N, 1u32..10), MAX_THRESHOLD..60);
    (arb_edges(), hub).prop_map(|(mut es, hub)| {
        for (i, (v, w)) in hub.into_iter().enumerate() {
            if i % 2 == 0 {
                es.push((0, v, w));
            } else {
                es.push((v, 0, w));
            }
        }
        es
    })
}

fn arb_rhizome_cfg() -> impl Strategy<Value = RpvoConfig> {
    (1usize..6, 1usize..4, 2usize..MAX_THRESHOLD + 1, 2usize..6).prop_map(
        |(cap, fanout, threshold, k)| RpvoConfig::basic(cap, fanout).with_rhizomes(threshold, k),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Rhizome BFS reaches the exact rebuild-oracle fixpoint on any skewed
    /// stream, RPVO shape, and chip seed — with conservation and mirror
    /// convergence across the root slices checked by the harness — and
    /// promotion actually happens.
    #[test]
    fn rhizome_bfs_matches_oracle_and_promotes(
        edges in arb_skewed_edges(),
        rcfg in arb_rhizome_cfg(),
        seed in 0u64..1000,
    ) {
        let g = Rebuild::new(1, 1).rcfg(rcfg).seed(seed)
            .check_bfs(&GraphMutation::adds(&edges));
        // The skewed stream hammers vertex 0 hard enough to promote it.
        prop_assert!(g.rhizome_stats().0 >= 1, "hub must have been promoted");
        prop_assert_eq!(g.roots_of(0).len(), rcfg.rhizome_roots);
    }

    /// Rhizome SSSP equals Dijkstra on the same stream.
    #[test]
    fn rhizome_sssp_matches_dijkstra(
        edges in arb_skewed_edges(),
        rcfg in arb_rhizome_cfg(),
    ) {
        Rebuild::new(1, 1).rcfg(rcfg).check_sssp(&GraphMutation::adds(&edges));
    }

    /// Rhizome connected components equal the min-label oracle over the
    /// symmetrized stream (the harness symmetrizes).
    #[test]
    fn rhizome_cc_matches_min_labels(
        edges in arb_skewed_edges(),
        rcfg in arb_rhizome_cfg(),
    ) {
        Rebuild::new(1, 1).rcfg(rcfg).check_cc(&GraphMutation::adds(&edges));
    }

    /// Promotion and routing are deterministic, and the whole rhizome
    /// workflow is shard-count-independent (the adaptive engine included).
    #[test]
    fn rhizome_streaming_is_deterministic_and_shard_independent(
        edges in arb_skewed_edges(),
        split in 0usize..120,
    ) {
        let rcfg = RpvoConfig::basic(3, 2).with_rhizomes(5, 3);
        let cut = split.min(edges.len());
        let run = |shards: usize| {
            let mut g = StreamingGraph::builder(BfsAlgo::new(0)).vertices(N).chip(ChipConfig::small_test().with_shards(shards)).rpvo(rcfg).build().unwrap();
            let mut cycles = 0u64;
            for inc in [&edges[..cut], &edges[cut..]] {
                cycles += g.stream_edges(inc).unwrap().cycles;
            }
            (g.states(), cycles, *g.device().chip().counters(), g.rhizome_stats())
        };
        let reference = run(1);
        prop_assert_eq!(&reference, &run(1), "reproducible");
        prop_assert_eq!(&reference, &run(3), "shard-count independent");
    }
}

/// Triangle counting fans across the co-equal roots of a promoted hub
/// (QUERY_FANNED_BIT protocol): the count on a simple wheel graph matches
/// both the single-root run and the sequential reference.
#[test]
fn rhizome_triangle_count_matches_single_root_and_reference() {
    use refgraph::count_triangles;
    use sdgp_core::apps::{TriangleAlgo, ACT_TRI_GEN};

    // Wheel: hub 0 joined to a rim cycle 1..=14 — every triangle passes
    // through the hub, the worst case for a split adjacency.
    let n = 15u32;
    let mut und: Vec<(u32, u32)> = (1..n).map(|v| (0, v)).collect();
    und.extend((1..n - 1).map(|v| (v, v + 1)));
    und.push((n - 1, 1));

    let run = |rcfg: RpvoConfig| -> (u64, u64) {
        let cfg = ChipConfig::small_test();
        let ncc = cfg.cell_count();
        let mut g = StreamingGraph::builder(TriangleAlgo::new(ncc))
            .vertices(n)
            .chip(cfg)
            .rpvo(rcfg)
            .build()
            .unwrap();
        let stream: Vec<StreamEdge> = und.iter().map(|&(u, v)| (u, v, 1)).collect();
        g.stream_edges(&symmetrize(&stream)).unwrap();
        let gens: Vec<Operon> =
            (0..n).map(|v| Operon::new(g.addr_of(v), ACT_TRI_GEN, [0, 0])).collect();
        g.run_query(gens).unwrap();
        (g.device().app().algo.total(), g.rhizome_stats().0)
    };
    let expect = count_triangles(n, und.iter().copied());
    assert_eq!(expect, 14, "wheel on 14 rim vertices has 14 triangles");
    let (single, promoted_single) = run(RpvoConfig::basic(2, 2));
    let (rhizome, promoted_rz) = run(RpvoConfig::basic(2, 2).with_rhizomes(8, 3));
    assert_eq!(promoted_single, 0);
    assert!(promoted_rz >= 1, "the hub must have been promoted");
    assert_eq!(single, expect);
    assert_eq!(rhizome, expect, "triangle count invariant under rhizome promotion");
}

/// Jaccard intersection hits are likewise invariant under promotion.
#[test]
fn rhizome_jaccard_matches_single_root() {
    use sdgp_core::apps::{JaccardAlgo, ACT_JC_GEN};

    let n = 12u32;
    let mut und: Vec<(u32, u32)> = (1..n).map(|v| (0, v)).collect();
    und.extend((1..n - 1).map(|v| (v, v + 1)));

    let run = |rcfg: RpvoConfig| -> (Vec<u64>, u64) {
        let mut g = StreamingGraph::builder(JaccardAlgo::new())
            .vertices(n)
            .chip(ChipConfig::small_test())
            .rpvo(rcfg)
            .build()
            .unwrap();
        let stream: Vec<StreamEdge> = und.iter().map(|&(u, v)| (u, v, 1)).collect();
        g.stream_edges(&symmetrize(&stream)).unwrap();
        let wave: Vec<Operon> =
            (0..n).map(|v| Operon::new(g.addr_of(v), ACT_JC_GEN, [0, 0])).collect();
        g.run_query(wave).unwrap();
        let hits: Vec<u64> = und
            .iter()
            .map(|&(a, b)| g.device().app().algo.intersection(a.min(b), a.max(b)))
            .collect();
        (hits, g.rhizome_stats().0)
    };
    let (single, _) = run(RpvoConfig::basic(2, 2));
    let (rhizome, promoted) = run(RpvoConfig::basic(2, 2).with_rhizomes(8, 4));
    assert!(promoted >= 1, "the hub must have been promoted");
    assert_eq!(single, rhizome, "pairwise intersections invariant under rhizome promotion");
    assert!(single.iter().any(|&h| h > 0), "wheel spokes share common neighbours");
}

/// Splitting the stream into increments does not change what gets promoted
/// or the final fixpoint (promotion counters persist across increments; the
/// harness re-verifies the full invariant set at every split).
#[test]
fn increment_split_does_not_change_promotion() {
    let rcfg = RpvoConfig::basic(4, 2).with_rhizomes(6, 4);
    let edges: Vec<StreamEdge> =
        (1..20).map(|v| (0, v, 1)).chain((1..19).map(|v| (v, v + 1, 1))).collect();
    let muts = GraphMutation::adds(&edges);
    let harness = Rebuild::new(1, 1).rcfg(rcfg).n(20);
    let whole = harness.chunks(1).check_bfs(&muts);
    let split = harness.chunks(4).check_bfs(&muts);
    assert_eq!(whole.states(), split.states());
    assert_eq!(whole.rhizome_stats(), split.rhizome_stats());
    assert_eq!(whole.rhizome_stats().0, 1, "exactly the hub promoted");
}
