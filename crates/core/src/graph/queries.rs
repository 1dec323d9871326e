//! The standing-query half of [`StreamingGraph`]: registration, result
//! reads, and the query-maintenance stage every increment ends with
//! (deletion repair of automaton state, then the result-set deltas).

use std::collections::HashSet;

use amcca_obs::Obs;
use amcca_sim::{Operon, SimError};
use diffusive::{query_operon, query_reseed_operon, RunReport, QUERY_ALL};

use super::{sort_dedup, CoalescedBatch, GraphMutation, StreamingGraph};
use crate::apps::algo::VertexAlgo;
use crate::query::{compile, QueryDelta, QueryError, StandingQuery};
use crate::rpvo::walk;

impl<G: VertexAlgo> StreamingGraph<G> {
    /// Register a standing label-constrained path query anchored at a single
    /// source vertex: sugar for [`Self::register_query_multi`] with one
    /// source.
    pub fn register_query(&mut self, pattern: &str, source: u32) -> Result<u32, QueryError> {
        self.register_query_multi(pattern, &[source])
    }

    /// Register a standing label-constrained path query anchored at several
    /// source vertices at once: compile `pattern` (see
    /// [`crate::query::compile`] for the grammar), assign the next query id,
    /// mirror the automaton into the fabric app **once** (one compiled DFA,
    /// one qbits plane regardless of source count), and seed the closed
    /// start-state set at every source's primary root — a timed diffusion
    /// run to quiescence that computes the union-over-sources result set.
    /// From then on every [`Self::stream_increment`] maintains the result
    /// incrementally and reports its per-increment delta
    /// ([`Self::take_query_deltas`]).
    ///
    /// `sources` is deduplicated and sorted at registration; it must be
    /// non-empty ([`QueryError::NoSources`]) and in range
    /// ([`QueryError::SourceOutOfRange`]).
    pub fn register_query_multi(
        &mut self,
        pattern: &str,
        sources: &[u32],
    ) -> Result<u32, QueryError> {
        let dfa = compile(pattern)?;
        if sources.is_empty() {
            return Err(QueryError::NoSources);
        }
        let sources = sort_dedup(sources.to_vec());
        for &s in &sources {
            if s >= self.n_vertices() {
                return Err(QueryError::SourceOutOfRange { source: s, n: self.n_vertices() });
            }
        }
        let qid = self.queries.len() as u32;
        self.dev.app_mut().queries.push(dfa.clone());
        let start = dfa.start_bits();
        let wave: Vec<Operon> =
            sources.iter().map(|&s| query_operon(self.rz.primary(s), qid, start)).collect();
        self.queries.push(StandingQuery { pattern: pattern.to_string(), sources, dfa });
        self.dev.register_data_transfer(wave);
        let obs = self.obs.clone();
        obs.counter_add("query.registered", 1);
        let report = {
            let _s = obs.span("query_seed", self.seq, 1);
            self.dev.run().expect("query registration diffusion")
        };
        obs.counter_add("query.repair_cycles", report.cycles);
        // The registration diffusion is the query's baseline, not a delta:
        // discard its transition records and snapshot the accepting set.
        let _ = self.dev.app_mut().take_query_touched();
        let words = (self.n_vertices() as usize).div_ceil(64);
        let mut plane = vec![0u64; words];
        for v in self.query_results(qid) {
            plane[(v / 64) as usize] |= 1 << (v % 64);
        }
        self.qaccept.push(plane);
        Ok(qid)
    }

    /// The registered standing queries, indexed by query id (checkpoints
    /// persist this list so restore re-registers and re-derives each one).
    pub fn registered_queries(&self) -> &[StandingQuery] {
        &self.queries
    }

    /// Current result set of registered query `qid`: the sorted vertex ids
    /// whose automaton-state bitset contains an accepting state — i.e. the
    /// vertices reachable from any of the query's sources along a path whose
    /// label word matches the pattern. Empty for an unknown id.
    pub fn query_results(&self, qid: u32) -> Vec<u32> {
        let Some(q) = self.queries.get(qid as usize) else { return Vec::new() };
        let accepting = q.dfa.accepting_bits();
        (0..self.n_vertices())
            .filter(|&v| {
                let obj = self.dev.object(self.rz.primary(v)).expect("root object live");
                obj.qbits_get(qid) & accepting != 0
            })
            .collect()
    }

    /// Drain the result-set deltas of the most recent increment: one
    /// [`QueryDelta`] per registered query (empty `added`/`removed` when
    /// that query's results did not change), pinned bit-identical to diffing
    /// [`Self::query_results`] before and after the increment. Computed
    /// incrementally from the transitions the batch actually caused, not by
    /// rescanning the vertex set. Empty if no increment ran since the last
    /// drain (or no queries are registered).
    pub fn take_query_deltas(&mut self) -> Vec<QueryDelta> {
        std::mem::take(&mut self.last_deltas)
    }

    /// Standing-query maintenance, the last fabric stage of an increment: a
    /// deletion may have stranded automaton states whose every derivation
    /// ran through the removed edge, and a structural phase (`suppressed`)
    /// held back the insert-time query announcements. Either way the repair
    /// is independent of the algorithm's repair mode and of
    /// `propagate_algo` — query state must stay exact even when the
    /// algorithm's own propagation is disabled. Returns the repair wave's
    /// report, if one ran.
    pub(super) fn maintain_queries(
        &mut self,
        batch: &CoalescedBatch,
        suppressed: bool,
        obs: &Obs,
        n_muts: u64,
    ) -> Result<Option<RunReport>, SimError> {
        if self.queries.is_empty() {
            return Ok(None);
        }
        let deletes = batch.muts.iter().any(|m| matches!(m, GraphMutation::DelEdge(_)));
        let mut repair = None;
        let mut cleared: Vec<u32> = Vec::new();
        if deletes || suppressed {
            let (rq, region) = {
                let _s = obs.span("query_repair", self.seq, n_muts);
                self.repair_queries(batch)?
            };
            obs.counter_add("query.repair_cycles", rq.cycles);
            repair = Some(rq);
            cleared = region;
        }
        // Result deltas: diff each query's current accepting set against
        // the stored baseline, restricted to the candidate vertices this
        // increment could have changed — the on-fabric recorded accepting
        // transitions plus the repair-cleared region. No full rescan.
        self.compute_query_deltas(&cleared);
        Ok(repair)
    }

    /// Host-orchestrated deletion repair for standing-query state, the
    /// query-layer analogue of the invalidate+reseed cascade: compute the
    /// coarse invalidation region — the forward closure over the *surviving*
    /// directed adjacency (any label) from the heads of this batch's deleted
    /// edges — clear every automaton-state bitset stored anywhere in it
    /// (host-side, untimed, like promotion bookkeeping), and inject a timed
    /// repair wave that re-derives exactly the surviving states: each query
    /// re-seeds its closed start set at its source, and each frontier vertex
    /// (surviving in-neighbours of the region, the region itself, and the
    /// batch's touched sources) re-announces all its surviving states along
    /// its out-edges.
    ///
    /// Soundness: a state that survives the clearing has a derivation whose
    /// suffix after any deleted edge is intact, because every vertex forward
    /// of a deleted edge's head was cleared. Completeness: the first missing
    /// state on any surviving derivation path is re-fed either by its
    /// query's source seed or by a frontier in-neighbour's re-announcement,
    /// and monotone propagation rebuilds everything downstream.
    /// Returns the run report and the cleared region (sorted vertex ids) so
    /// the caller can fold the region into the result-delta candidate set —
    /// host-side clearing is the one accepting-bit removal path the on-fabric
    /// transition recorder cannot see.
    fn repair_queries(
        &mut self,
        batch: &CoalescedBatch,
    ) -> Result<(RunReport, Vec<u32>), SimError> {
        // One pass over the region's own objects clears them and finds the
        // closure: the fabric is quiescent, so the edges they store *are*
        // the surviving adjacency, and the work is proportional to the
        // cleared region, not to the live edge set. (The closure is a set,
        // so traversal order cannot perturb the sorted result.)
        let del_heads = batch.muts.iter().filter_map(|m| match *m {
            GraphMutation::DelEdge((_, v, _)) => Some(v),
            _ => None,
        });
        let mut seen: HashSet<u32> = del_heads.collect();
        let mut work: Vec<u32> = seen.iter().copied().collect();
        let mut region: Vec<u32> = Vec::new();
        while let Some(v) = work.pop() {
            region.push(v);
            for a in walk::collect_logical_objects(self.rz.primary(v), |x| self.dev.object(x)) {
                let obj = self.dev.object_mut(a).expect("object live");
                obj.qbits.clear();
                for e in &obj.edges {
                    if seen.insert(e.dst_id) {
                        work.push(e.dst_id);
                    }
                }
            }
        }
        region.sort_unstable();
        let mut frontier: Vec<u32> = region.iter().flat_map(|&v| self.log.sources_of(v)).collect();
        frontier.extend_from_slice(&region);
        frontier.extend_from_slice(&batch.touched);
        let frontier = sort_dedup(frontier);
        let mut wave: Vec<Operon> = Vec::with_capacity(self.queries.len() + frontier.len());
        for (qid, q) in self.queries.iter().enumerate() {
            for &s in &q.sources {
                wave.push(query_operon(self.rz.primary(s), qid as u32, q.dfa.start_bits()));
            }
        }
        for &v in &frontier {
            wave.push(query_reseed_operon(self.rz.primary(v), QUERY_ALL));
        }
        self.dev.register_data_transfer(wave);
        Ok((self.dev.run()?, region))
    }

    /// Diff each query's current accepting set against the stored baseline
    /// over the candidate vertices only (recorded accepting transitions ∪
    /// `cleared`), update the baseline, and store the deltas for
    /// [`Self::take_query_deltas`]. Candidates may over-approximate — every
    /// candidate is re-checked against the primary root — but must cover:
    /// an accepting bit can only turn **on** through `absorb_query_bits`
    /// (recorded on-fabric; mirror replication cannot create a transition
    /// the primary never saw) and can only turn **off** through the
    /// repair-time host clear (`cleared`).
    fn compute_query_deltas(&mut self, cleared: &[u32]) {
        let touched = self.dev.app_mut().take_query_touched();
        let mut deltas = Vec::with_capacity(self.queries.len());
        for qid in 0..self.queries.len() {
            let accepting = self.queries[qid].dfa.accepting_bits();
            let cands: Vec<u32> = touched
                .iter()
                .filter(|&&(tq, _)| tq == qid as u32)
                .map(|&(_, v)| v)
                .chain(cleared.iter().copied())
                .collect();
            let cands = sort_dedup(cands);
            let mut added = Vec::new();
            let mut removed = Vec::new();
            for v in cands {
                let obj = self.dev.object(self.rz.primary(v)).expect("root object live");
                let now = obj.qbits_get(qid as u32) & accepting != 0;
                let (w, b) = ((v / 64) as usize, v % 64);
                let before = self.qaccept[qid][w] >> b & 1 != 0;
                if now && !before {
                    self.qaccept[qid][w] |= 1 << b;
                    added.push(v);
                } else if !now && before {
                    self.qaccept[qid][w] &= !(1 << b);
                    removed.push(v);
                }
            }
            deltas.push(QueryDelta { qid: qid as u32, added, removed });
        }
        self.last_deltas = deltas;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::bfs::BfsAlgo;
    use crate::graph::tests::small;
    use crate::graph::RepairMode;
    use crate::rpvo::RpvoConfig;
    use amcca_sim::ChipConfig;

    /// The from-scratch reference: run the query DFA over the live labeled
    /// edge set and compare with the incrementally maintained result.
    fn assert_query_matches_oracle(g: &StreamingGraph<BfsAlgo>, qid: u32) {
        let q = &g.registered_queries()[qid as usize];
        let edges: Vec<(u32, u32, u8)> =
            g.live_labeled_edges().iter().map(|&((u, v, _), l)| (u, v, l)).collect();
        let want = crate::query::oracle_results_multi(g.n_vertices(), &edges, &q.dfa, &q.sources);
        assert_eq!(g.query_results(qid), want, "query {qid} ({})", q.pattern);
    }

    #[test]
    fn standing_query_tracks_inserts() {
        use GraphMutation::AddLabeledEdge;
        let mut g = small();
        let q = g.register_query("a.b*.c", 0).unwrap();
        assert_eq!(g.query_results(q), Vec::<u32>::new());
        // 0 -a-> 1 -b-> 2 -b-> 3 -c-> 4, plus a distractor edge.
        g.stream_increment(&[
            AddLabeledEdge((0, 1, 1), 1),
            AddLabeledEdge((1, 2, 1), 2),
            AddLabeledEdge((5, 6, 1), 3),
        ])
        .unwrap();
        assert_query_matches_oracle(&g, q);
        g.stream_increment(&[AddLabeledEdge((2, 3, 1), 2), AddLabeledEdge((3, 4, 1), 3)]).unwrap();
        assert_eq!(g.query_results(q), vec![4], "a.b.b.c reaches vertex 4");
        // A shortcut c-edge straight off the a-frontier matches too (b*).
        g.stream_increment(&[AddLabeledEdge((1, 7, 1), 3)]).unwrap();
        assert_eq!(g.query_results(q), vec![4, 7]);
        assert_query_matches_oracle(&g, q);
    }

    #[test]
    fn standing_query_repairs_after_deletions() {
        use GraphMutation::AddLabeledEdge;
        let mut g = small();
        // Two disjoint witnesses for vertex 4: through 2 and through 3.
        g.stream_increment(&[
            AddLabeledEdge((0, 1, 1), 1),
            AddLabeledEdge((1, 2, 1), 2),
            AddLabeledEdge((1, 3, 1), 2),
            AddLabeledEdge((2, 4, 1), 3),
            AddLabeledEdge((3, 4, 1), 3),
        ])
        .unwrap();
        let q = g.register_query("a.b.c", 0).unwrap();
        assert_eq!(g.query_results(q), vec![4]);
        // Killing one witness keeps the match alive through the other.
        g.stream_increment(&[GraphMutation::DelEdge((2, 4, 1))]).unwrap();
        assert_eq!(g.query_results(q), vec![4]);
        assert_query_matches_oracle(&g, q);
        // Killing the last witness retracts the match.
        g.stream_increment(&[GraphMutation::DelEdge((1, 3, 1))]).unwrap();
        assert_eq!(g.query_results(q), Vec::<u32>::new());
        assert_query_matches_oracle(&g, q);
        // Re-inserting restores it through the monotone path.
        g.stream_increment(&[AddLabeledEdge((1, 3, 1), 2)]).unwrap();
        assert_eq!(g.query_results(q), vec![4]);
    }

    #[test]
    fn standing_query_full_and_targeted_repair_agree() {
        use GraphMutation::{AddLabeledEdge, DelEdge};
        let run = |mode: RepairMode| {
            let mut g = StreamingGraph::builder(BfsAlgo::new(0))
                .vertices(16)
                .chip(ChipConfig::small_test())
                .rpvo(RpvoConfig::basic(4, 2))
                .repair(mode)
                .build()
                .unwrap();
            let q = g.register_query("a.b+.c", 0).unwrap();
            g.stream_increment(&[
                AddLabeledEdge((0, 1, 1), 1),
                AddLabeledEdge((1, 2, 1), 2),
                AddLabeledEdge((2, 3, 1), 2),
                AddLabeledEdge((3, 4, 1), 3),
                AddLabeledEdge((2, 5, 1), 3),
            ])
            .unwrap();
            g.stream_increment(&[DelEdge((1, 2, 1)), AddLabeledEdge((0, 2, 1), 1)]).unwrap();
            g.stream_increment(&[DelEdge((2, 3, 1))]).unwrap();
            assert_query_matches_oracle(&g, q);
            g.query_results(q)
        };
        assert_eq!(run(RepairMode::Full), run(RepairMode::Targeted));
    }

    #[test]
    fn standing_queries_are_shard_count_independent() {
        use GraphMutation::{AddLabeledEdge, DelEdge};
        let run = |shards: usize| {
            let mut g = StreamingGraph::builder(BfsAlgo::new(0))
                .vertices(24)
                .chip(ChipConfig::small_test().with_shards(shards))
                .rpvo(RpvoConfig::basic(4, 2).with_rhizomes(5, 4))
                .build()
                .unwrap();
            let qa = g.register_query("a.b*.c", 0).unwrap();
            let qb = g.register_query("c+", 2).unwrap();
            // A labeled star off 0 (forces promotion under the query), then a
            // labeled path, then churn.
            let star: Vec<GraphMutation> =
                (1..20).map(|v| AddLabeledEdge((0, v, 1), (v % 3 + 1) as u8)).collect();
            let path: Vec<GraphMutation> =
                (0..19).map(|v| AddLabeledEdge((v, v + 1, 1), (v % 3 + 1) as u8)).collect();
            g.stream_increment(&star).unwrap();
            g.stream_increment(&path).unwrap();
            g.stream_increment(&[DelEdge((0, 4, 1)), DelEdge((4, 5, 1))]).unwrap();
            assert_query_matches_oracle(&g, qa);
            assert_query_matches_oracle(&g, qb);
            (g.query_results(qa), g.query_results(qb), g.states())
        };
        assert_eq!(run(1), run(3));
    }

    #[test]
    fn query_registration_rejects_bad_input() {
        let mut g = small();
        assert!(g.register_query("", 0).is_err(), "empty pattern");
        assert!(g.register_query("a.!", 0).is_err(), "bad atom");
        assert!(
            matches!(
                g.register_query("a", 99),
                Err(crate::query::QueryError::SourceOutOfRange { source: 99, n: 16 })
            ),
            "source beyond vertex range"
        );
        assert!(g.registered_queries().is_empty(), "failed registrations leave no residue");
    }
}
