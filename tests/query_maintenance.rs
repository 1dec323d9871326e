//! Differential property tests of standing label-constrained path queries
//! (`sdgp_core::query`), pinned to the shared harness oracle
//! (`tests/common/oracle.rs::surviving_labeled_edges`): after ANY
//! interleaving of labelled inserts, deletes, and weight updates — any
//! batch split, rhizome root count K ∈ {1, 2, 4}, any shard count, either
//! repair mode, with the algorithm's own propagation on or off — every
//! registered query's result set equals a from-scratch product-automaton
//! recompute over the surviving labelled edge set ([`oracle_results`]) after
//! EVERY batch, not just at the end, and every mirror holds its primary's
//! automaton states. A query registered mid-stream must converge to the same
//! results as one registered before any edge arrived.

mod common;

use amcca::prelude::*;
use amcca::sdgp_core::{oracle_results_multi, GraphBuilder};
use common::oracle::{surviving_labeled_edges, N};
use proptest::prelude::*;

/// The standing queries every differential run registers: star/plus/option
/// closures over the 4-letter alphabet the scripts draw labels from, with
/// sources spread across the vertex range.
const PATTERNS: [(&str, u32); 4] = [("a.b*.c", 0), ("d+", 0), ("a?.b.c*", 3), ("b", 5)];

/// Raw steps `(u, v, w, op, pick, label)`: `op % 4` selects the kind (adds
/// twice as likely), deletes and updates pick a live target by rotating
/// `pick`, labels are drawn from `a`–`d` (1..=4) so the closure patterns
/// above genuinely match and miss.
fn arb_labeled_script() -> impl Strategy<Value = Vec<(u32, u32, u32, u8, u8, u8)>> {
    prop::collection::vec((0..N, 0..N, 1u32..10, any::<u8>(), any::<u8>(), 1u8..=4), 1..140)
}

/// Materialize a script under ledger semantics so every delete names a live
/// `(u, v, w)` copy and every update a live pair (updates re-weight the
/// oldest copy and keep its label, like the host ledger).
fn materialize(script: &[(u32, u32, u32, u8, u8, u8)]) -> Vec<GraphMutation> {
    let mut muts = Vec::with_capacity(script.len());
    let mut live: Vec<StreamEdge> = Vec::new();
    for &(u, v, w, op, pick, label) in script {
        match op % 4 {
            2 if !live.is_empty() => {
                // Name the picked copy's triple; the ledger (and this
                // tracking) retracts the OLDEST live copy of it.
                let e = live[pick as usize % live.len()];
                let i = live.iter().position(|&x| x == e).expect("picked copy is live");
                live.remove(i);
                muts.push(GraphMutation::DelEdge(e));
            }
            3 if !live.is_empty() => {
                let (pu, pv, _) = live[pick as usize % live.len()];
                let oldest =
                    live.iter_mut().find(|&&mut (a, b, _)| (a, b) == (pu, pv)).expect("pair live");
                oldest.2 = w;
                muts.push(GraphMutation::UpdateWeight { u: pu, v: pv, w });
            }
            _ if u != v => {
                live.push((u, v, w));
                muts.push(GraphMutation::AddLabeledEdge((u, v, w), label));
            }
            _ => {}
        }
    }
    muts
}

fn builder(k: usize, shards: usize, mode: RepairMode) -> GraphBuilder<BfsAlgo> {
    let base = RpvoConfig::basic(3, 2);
    StreamingGraph::builder(BfsAlgo::new(0))
        .vertices(N)
        .chip(ChipConfig::small_test().with_shards(shards))
        .rpvo(if k <= 1 { base } else { base.with_rhizomes(6, k) })
        .repair(mode)
}

fn graph(k: usize, shards: usize, mode: RepairMode) -> StreamingGraph<BfsAlgo> {
    builder(k, shards, mode).build().unwrap()
}

/// Assert every registered query's maintained result set equals the
/// from-scratch recompute over the survivors of `applied`.
fn assert_queries_match_oracle(g: &StreamingGraph<BfsAlgo>, applied: &[GraphMutation], at: &str) {
    let live: Vec<(u32, u32, u8)> =
        surviving_labeled_edges(applied).iter().map(|&((u, v, _), l)| (u, v, l)).collect();
    for (qid, q) in g.registered_queries().iter().enumerate() {
        let want = oracle_results_multi(g.n_vertices(), &live, &q.dfa, &q.sources);
        assert_eq!(
            g.query_results(qid as u32),
            want,
            "{at}: query {qid} ({:?} @ {:?}) vs from-scratch recompute",
            q.pattern,
            q.sources
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// Random labelled churn, checked against the oracle and for mirror
    /// consistency after EVERY batch, across rhizome root counts, shard
    /// counts, batch splits, and with the algorithm's propagation on or off
    /// (ingestion-only mode must still repair queries after a delete).
    #[test]
    fn standing_queries_match_oracle_after_every_batch(
        script in arb_labeled_script(),
        chunks in 1usize..5,
        ki in 0usize..3,
        shards in 1usize..3,
        propagate in any::<bool>(),
    ) {
        let k = [1usize, 2, 4][ki];
        let muts = materialize(&script);
        prop_assume!(!muts.is_empty());
        let mut g = builder(k, shards, RepairMode::Targeted).propagate(propagate).build().unwrap();
        for (pattern, source) in PATTERNS {
            g.register_query(pattern, source).unwrap();
        }
        let mut applied: Vec<GraphMutation> = Vec::new();
        for (i, c) in muts.chunks(muts.len().div_ceil(chunks).max(1)).enumerate() {
            g.stream_increment(c).unwrap();
            applied.extend_from_slice(c);
            let at = format!("batch {i} (propagate {propagate})");
            assert_queries_match_oracle(&g, &applied, &at);
            if let Err(e) = g.check_mirror_consistency() {
                panic!("{at}: {e}");
            }
        }
    }

    /// Full-wave and targeted repair maintain identical query results at
    /// every batch boundary (query clears record on the same repair frontier
    /// the algorithm's invalidation does, and one reseed wave serves both).
    #[test]
    fn full_and_targeted_query_maintenance_agree(
        script in arb_labeled_script(),
        chunks in 1usize..5,
    ) {
        let muts = materialize(&script);
        prop_assume!(!muts.is_empty());
        let mut full = graph(2, 1, RepairMode::Full);
        let mut targeted = graph(2, 1, RepairMode::Targeted);
        for (pattern, source) in PATTERNS {
            full.register_query(pattern, source).unwrap();
            targeted.register_query(pattern, source).unwrap();
        }
        let mut applied: Vec<GraphMutation> = Vec::new();
        for (i, c) in muts.chunks(muts.len().div_ceil(chunks).max(1)).enumerate() {
            full.stream_increment(c).unwrap();
            targeted.stream_increment(c).unwrap();
            applied.extend_from_slice(c);
            for qid in 0..PATTERNS.len() as u32 {
                prop_assert_eq!(
                    full.query_results(qid),
                    targeted.query_results(qid),
                    "batch {}: query {} full vs targeted", i, qid
                );
            }
            assert_queries_match_oracle(&targeted, &applied, &format!("batch {i}"));
        }
    }

    /// The incrementally tracked result deltas are bit-identical to diffing
    /// the polled result sets before and after EVERY batch — the invariant
    /// the serve layer's push subscriptions ride on — under labelled churn,
    /// across rhizome root counts K ∈ {1, 2, 4}, shard counts ∈ {1, 2}, and
    /// batch splits. Multi-source queries included, and their maintained
    /// results must match the multi-source oracle throughout.
    #[test]
    fn query_deltas_match_polled_result_diffs(
        script in arb_labeled_script(),
        chunks in 1usize..5,
        ki in 0usize..3,
        shards in 1usize..3,
    ) {
        let k = [1usize, 2, 4][ki];
        let muts = materialize(&script);
        prop_assume!(!muts.is_empty());
        let mut g = graph(k, shards, RepairMode::Targeted);
        for (pattern, source) in PATTERNS {
            g.register_query(pattern, source).unwrap();
        }
        // A multi-source query rides along: same alphabet, anchors spread out.
        let multi = g.register_query_multi("a.b*.c", &[0, 3, 5]).unwrap();
        let n_queries = PATTERNS.len() as u32 + 1;
        let mut applied: Vec<GraphMutation> = Vec::new();
        for (i, c) in muts.chunks(muts.len().div_ceil(chunks).max(1)).enumerate() {
            let before: Vec<Vec<u32>> =
                (0..n_queries).map(|q| g.query_results(q)).collect();
            g.stream_increment(c).unwrap();
            applied.extend_from_slice(c);
            let deltas = g.take_query_deltas();
            prop_assert_eq!(deltas.len() as u32, n_queries, "one delta per query");
            for d in &deltas {
                let after = g.query_results(d.qid);
                let prev = &before[d.qid as usize];
                let want_added: Vec<u32> =
                    after.iter().copied().filter(|v| !prev.contains(v)).collect();
                let want_removed: Vec<u32> =
                    prev.iter().copied().filter(|v| !after.contains(v)).collect();
                prop_assert_eq!(
                    (&d.added, &d.removed),
                    (&want_added, &want_removed),
                    "batch {}: query {} delta vs polled diff", i, d.qid
                );
            }
            // Drained: a second take yields nothing until the next increment.
            prop_assert!(g.take_query_deltas().is_empty());
            assert_queries_match_oracle(&g, &applied, &format!("batch {i}"));
        }
        let _ = multi;
        g.check_mirror_consistency().unwrap();
    }

    /// Registering a query against an already-populated graph seeds and
    /// converges to exactly the results a cold registration reaches — the
    /// registration-time diffusion replays history it never saw.
    #[test]
    fn mid_stream_registration_matches_cold_registration(
        script in arb_labeled_script(),
        split_pick in any::<u8>(),
    ) {
        let muts = materialize(&script);
        prop_assume!(muts.len() >= 2);
        let split = 1 + split_pick as usize % (muts.len() - 1);

        let mut cold = graph(2, 1, RepairMode::Targeted);
        for (pattern, source) in PATTERNS {
            cold.register_query(pattern, source).unwrap();
        }
        cold.stream_increment(&muts).unwrap();

        let mut late = graph(2, 1, RepairMode::Targeted);
        late.stream_increment(&muts[..split]).unwrap();
        for (pattern, source) in PATTERNS {
            late.register_query(pattern, source).unwrap();
        }
        late.stream_increment(&muts[split..]).unwrap();

        for qid in 0..PATTERNS.len() as u32 {
            prop_assert_eq!(
                cold.query_results(qid),
                late.query_results(qid),
                "query {} cold vs mid-stream registration", qid
            );
        }
        assert_queries_match_oracle(&late, &muts, "final");
    }
}
