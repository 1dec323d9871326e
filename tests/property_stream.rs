//! Property-based tests of the core invariants:
//!
//! 1. **Order independence** — streamed dynamic BFS converges to the exact
//!    static BFS levels for ANY edge set, ANY stream order, ANY increment
//!    split (monotone relaxation fixpoint).
//! 2. **Conservation** — every streamed edge is stored exactly once, no
//!    matter how the RPVO spills.
//! 3. **Mirror convergence** — at quiescence every ghost's state equals its
//!    root's state.
//! 4. **Capacity** — no object ever exceeds the configured edge capacity.

use amcca::prelude::*;
use proptest::prelude::*;
use refgraph::{bfs_levels, dijkstra, DiGraph};
use sdgp_core::rpvo::walk;

const N: u32 = 24;

fn arb_edges() -> impl Strategy<Value = Vec<StreamEdge>> {
    prop::collection::vec((0..N, 0..N, 1u32..10), 1..120)
        .prop_map(|es| es.into_iter().filter(|&(u, v, _)| u != v).collect())
}

fn arb_rpvo() -> impl Strategy<Value = RpvoConfig> {
    (1usize..6, 1usize..4)
        .prop_map(|(edge_cap, ghost_fanout)| RpvoConfig::basic(edge_cap, ghost_fanout))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn bfs_matches_reference_for_any_stream(
        edges in arb_edges(),
        rcfg in arb_rpvo(),
        seed in 0u64..1000,
    ) {
        let cfg = ChipConfig { seed, ..ChipConfig::small_test() };
        let mut g = StreamingGraph::builder(BfsAlgo::new(0)).vertices(N).chip(cfg).rpvo(rcfg).build().unwrap();
        g.stream_edges(&edges).unwrap();
        let reference = bfs_levels(&DiGraph::from_edges(N, edges.iter().copied()), 0);
        prop_assert_eq!(g.states(), reference);
    }

    #[test]
    fn increment_split_is_immaterial(
        edges in arb_edges(),
        split in 0usize..120,
    ) {
        let cut = split.min(edges.len());
        let mut g1 = StreamingGraph::builder(BfsAlgo::new(0)).vertices(N).chip(ChipConfig::small_test()).rpvo(RpvoConfig::default()).build().unwrap();
        g1.stream_edges(&edges).unwrap();
        let mut g2 = StreamingGraph::builder(BfsAlgo::new(0)).vertices(N).chip(ChipConfig::small_test()).rpvo(RpvoConfig::default()).build().unwrap();
        g2.stream_edges(&edges[..cut]).unwrap();
        g2.stream_edges(&edges[cut..]).unwrap();
        prop_assert_eq!(g1.states(), g2.states());
    }

    #[test]
    fn every_edge_stored_exactly_once(
        edges in arb_edges(),
        rcfg in arb_rpvo(),
    ) {
        let mut g = StreamingGraph::builder(BfsAlgo::new(0)).vertices(N).chip(ChipConfig::small_test()).rpvo(rcfg).build().unwrap();
        g.stream_edges(&edges).unwrap();
        prop_assert_eq!(g.total_edges_stored(), edges.len() as u64);
        // Per-vertex multiset check.
        for u in 0..N {
            let mut got = g.logical_edges(u);
            got.sort_unstable();
            let mut want: Vec<(u32, u32)> = edges.iter()
                .filter(|&&(s, _, _)| s == u)
                .map(|&(_, d, w)| (d, w))
                .collect();
            want.sort_unstable();
            prop_assert_eq!(got, want, "vertex {} edge multiset", u);
        }
    }

    #[test]
    fn mirrors_converge_and_capacity_holds(
        edges in arb_edges(),
        rcfg in arb_rpvo(),
    ) {
        let mut g = StreamingGraph::builder(BfsAlgo::new(0)).vertices(N).chip(ChipConfig::small_test()).rpvo(rcfg).build().unwrap();
        g.stream_edges(&edges).unwrap();
        prop_assert!(g.check_mirror_consistency().is_ok());
        for v in 0..N {
            for (i, a) in g.rpvo_objects(v).into_iter().enumerate() {
                let obj = g.device().object(a).unwrap();
                prop_assert!(obj.edges.len() <= rcfg.edge_cap,
                    "object {} holds {} edges, cap {}", a, obj.edges.len(), rcfg.edge_cap);
                prop_assert_eq!(obj.vid, v, "ghost belongs to its logical vertex");
                prop_assert_eq!(obj.is_root(), i == 0, "exactly the first walked object is the root");
                // Insert-only streams leave no slot Pending, so an object
                // spilled iff it has a Ready ghost: no slots before the first
                // spill, exactly `ghost_fanout` after it.
                let spilled = obj.ready_ghosts().next().is_some();
                prop_assert_eq!(obj.ghosts.len(), if spilled { rcfg.ghost_fanout } else { 0 },
                    "object {} holds {} ghost slots (spilled: {})", a, obj.ghosts.len(), spilled);
            }
        }
    }

    #[test]
    fn sssp_matches_dijkstra_for_any_stream(
        edges in arb_edges(),
        rcfg in arb_rpvo(),
    ) {
        let mut g = StreamingGraph::builder(SsspAlgo::new(0)).vertices(N).chip(ChipConfig::small_test()).rpvo(rcfg).build().unwrap();
        g.stream_edges(&edges).unwrap();
        let reference = dijkstra(&DiGraph::from_edges(N, edges.iter().copied()), 0);
        prop_assert_eq!(g.states(), reference);
    }

    #[test]
    fn future_lco_never_loses_waiters(
        edges in arb_edges(),
    ) {
        // Tight capacity maximizes pending-future churn; conservation of
        // edges (checked here end-to-end) implies no waiter was dropped.
        let rcfg = RpvoConfig::basic(1, 1);
        let mut g = StreamingGraph::builder(BfsAlgo::new(0)).vertices(N).chip(ChipConfig::small_test()).rpvo(rcfg).build().unwrap();
        g.stream_edges(&edges).unwrap();
        prop_assert_eq!(g.total_edges_stored(), edges.len() as u64);
        // With fanout 1 and cap 1 the RPVO degenerates to a chain whose
        // length equals the vertex's degree: the worst case for futures.
        for u in 0..N {
            let deg = edges.iter().filter(|&&(s, _, _)| s == u).count();
            let objs = g.rpvo_objects(u);
            prop_assert!(objs.len() >= deg, "chain of {} for degree {}", objs.len(), deg);
        }
    }
}

/// Host-side invariant: the RPVO walk sees exactly the objects the chip has.
#[test]
fn walk_covers_all_allocated_objects() {
    let edges: Vec<StreamEdge> = (1..20).map(|v| (0, v, 1)).collect();
    let rcfg = RpvoConfig::basic(2, 2);
    let mut g = StreamingGraph::builder(BfsAlgo::new(0))
        .vertices(20)
        .chip(ChipConfig::small_test())
        .rpvo(rcfg)
        .build()
        .unwrap();
    g.stream_edges(&edges).unwrap();
    let mut walked = 0usize;
    for v in 0..20 {
        walked += walk::collect_objects(g.addr_of(v), |a| g.device().object(a)).len();
    }
    let mut on_chip = 0usize;
    g.device().chip().for_each_object(|_, _| on_chip += 1);
    assert_eq!(walked, on_chip, "no orphaned objects");
}
