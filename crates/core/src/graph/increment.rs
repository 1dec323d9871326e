//! The increment pipeline: [`StreamingGraph::apply`] drives one function per
//! stage of docs/ARCHITECTURE.md's "Life of a mutation batch", each taking
//! the drained batch (or its wave) and returning what it ran on the fabric.

use std::collections::HashMap;

use amcca_obs::Obs;
use amcca_sim::{max_mean_ratio, rhizome_cells, Address, Operon, SimError};
use diffusive::RunReport;

use super::{
    sort_dedup, CoalescedBatch, GraphMutation, RepairMode, RepairStats, StreamEdge, StreamingGraph,
};
use crate::apps::algo::{
    delete_operon, insert_operon, update_weight_operon, VertexAlgo, ACT_RESEED,
};
use crate::rpvo::rhizome::peer_sets;
use crate::rpvo::{walk, Edge, VertexObj};

impl<G: VertexAlgo> StreamingGraph<G> {
    /// Drain the log and run the canonical batch to quiescence. `n_muts` is
    /// the mutation count spans and obs counters report, beside the batch id
    /// `self.seq`.
    pub(super) fn apply(&mut self, n_muts: u64) -> Result<RunReport, SimError> {
        // Clone the handle so span guards borrow the local, not `self`.
        let obs = &self.obs.clone();
        self.seq += 1;
        // Same-batch merges (annihilation, insert rewrites, patch folds,
        // moot-patch drops) happened in the log, and the drained batch is
        // canonical: surviving mutations in arrival order, each beside the
        // tag (and, for a re-weight, the stored weight) of the copy the log
        // matched it to.
        let batch = self.log.drain();
        // Nothing is staged while an increment runs, so what the log holds
        // now is exactly what this increment applies.
        self.applied_live = self.log.live_count();
        let two_phase = batch.needs_repair && self.dev.app().propagate_algo;
        let wave = self.build_wave(&batch)?;
        let mut report = self.run_wave(wave, &batch.touched, two_phase, obs, n_muts)?;
        if let Some(merge) = self.demotion_sweep(obs, n_muts)? {
            report.absorb(merge);
        }
        if let Some(repair) = self.maintain_queries(&batch, two_phase, obs, n_muts)? {
            report.absorb(repair);
        }
        self.fold_obs(&report, n_muts);
        Ok(report)
    }

    /// Build the operon wave from the canonical batch, nothing re-resolved:
    /// each mutation travels under the address the log drained it with.
    /// Annihilated pairs never reach this loop, so they neither advance the
    /// rhizome router nor count toward streamed degrees.
    fn build_wave(&mut self, batch: &CoalescedBatch) -> Result<Vec<Operon>, SimError> {
        let mut wave: Vec<Operon> = Vec::with_capacity(batch.muts.len());
        for (m, at) in batch.muts.iter().zip(&batch.addrs) {
            wave.push(match *m {
                GraphMutation::AddEdge(e) => self.insert_op(e, 0, at.tag)?,
                GraphMutation::AddLabeledEdge(e, label) => self.insert_op(e, label, at.tag)?,
                GraphMutation::DelEdge((u, v, w)) => {
                    self.rz.note_del(u);
                    self.rz.note_del(v);
                    delete_operon(self.rz.primary(u), v, w, at.tag)
                }
                GraphMutation::UpdateWeight { u, v, w } => {
                    update_weight_operon(self.rz.primary(u), v, at.w_fabric, w, at.tag)
                }
            });
        }
        Ok(wave)
    }

    /// Count one insert's endpoints toward their streamed degrees (promoting
    /// a vertex that crosses the rhizome threshold) and return its insert
    /// operon, routed to a co-equal root of each endpoint.
    fn insert_op(&mut self, (u, v, w): StreamEdge, label: u8, tag: u8) -> Result<Operon, SimError> {
        let threshold = self.rcfg.rhizome_threshold;
        if self.rz.note_add(u, threshold) {
            self.promote(u)?;
        }
        if self.rz.note_add(v, threshold) {
            self.promote(v)?;
        }
        let src = self.rz.route(u);
        let dst = self.rz.route(v);
        Ok(insert_operon(src, &Edge::labeled(dst, v, w, tag, label)))
    }

    /// Promote vertex `v` from a single root to a rhizome of
    /// `rcfg.rhizome_roots` co-equal roots: allocate the extra roots on the
    /// cells [`amcca_sim::rhizome_cells`] picks (untimed, like
    /// graph construction), seed them with the primary's current converged
    /// state, and fully cross-link all roots. Subsequent edges for `v` are
    /// round-robined across the root set.
    fn promote(&mut self, v: u32) -> Result<(), SimError> {
        let k = self.rcfg.rhizome_roots;
        let primary = self.rz.primary(v);
        let cells = rhizome_cells(primary.cc, k, self.dev.chip().cfg().dims);
        let (state, qbits) = {
            let obj = self.dev.object(primary).expect("primary root live");
            (obj.state, obj.qbits.clone())
        };
        let fanout = self.rcfg.ghost_fanout;
        let mut roots = Vec::with_capacity(k);
        roots.push(primary);
        for cc in cells {
            let mut root = VertexObj::root(v, state, fanout);
            // Co-equal roots mirror the primary's converged standing-query
            // state exactly like its algorithm state.
            root.qbits = qbits.clone();
            roots.push(self.dev.host_alloc(cc, root)?);
        }
        for (addr, peers) in roots.iter().zip(peer_sets(&roots)) {
            self.dev.object_mut(*addr).expect("root live").peers = peers;
        }
        self.rz.install(v, roots[1..].to_vec());
        Ok(())
    }

    /// Run the wave to quiescence: in one phase, or (`two_phase`) structural
    /// then repair — [`super`]'s module docs say when and why.
    fn run_wave(
        &mut self,
        wave: Vec<Operon>,
        touched: &[u32],
        two_phase: bool,
        obs: &Obs,
        n_muts: u64,
    ) -> Result<RunReport, SimError> {
        self.last_repair = RepairStats::default();
        self.dev.register_data_transfer(wave);
        if !two_phase {
            let _s = obs.span("structural", self.seq, n_muts);
            return self.dev.run();
        }
        // Phase A — structural: edges move and re-weigh, improvements
        // are suppressed, invalidation cascades recall state derived
        // through deletions and weight increases while recording the
        // repair frontier on-fabric.
        self.dev.app_mut().notify_inserts = false;
        let structural = {
            let _s = obs.span("structural", self.seq, n_muts);
            self.dev.run()
        };
        self.dev.app_mut().notify_inserts = true;
        let mut report = structural?;
        // Phase B — repair: trigger the reseed wave (scoped per the
        // repair mode); surviving announceable state re-announces and
        // relaxation rebuilds the exact fixpoint.
        let frontier = self.repair_frontier(touched);
        let reseeds = frontier.iter().map(|&v| Operon::new(self.rz.primary(v), ACT_RESEED, [0, 0]));
        self.dev.register_data_transfer(reseeds);
        let mut repair = {
            let _s = obs.span("repair", self.seq, n_muts);
            self.dev.run()?
        };
        repair.reseed_triggers = frontier.len() as u64;
        repair.repair_cycles = repair.cycles;
        repair.repair_instrs = repair.counters.instrs;
        report.absorb(repair);
        Ok(report)
    }

    /// Assemble phase B's reseed trigger set after a structural phase:
    /// drain the frontier the invalidation cascade recorded on-fabric
    /// (invalidated vertices + recall-rejecting survivors), join the
    /// surviving in-neighbours of the invalidated set from the mutation
    /// log and the batch's suppressed insert/update sources, and
    /// dedup. Per-shard accumulation order and hash-map iteration order
    /// never reach the output: every constituent is sorted first, so the
    /// wave is deterministic and shard-count-independent. In
    /// [`RepairMode::Full`] the stats are still recorded but the trigger set
    /// is every vertex.
    fn repair_frontier(&mut self, touched: &[u32]) -> Vec<u32> {
        let (invalidated, rejected) = self.dev.app_mut().take_repair_sets();
        let (invalidated, rejected) = (sort_dedup(invalidated), sort_dedup(rejected));
        let in_nbrs =
            sort_dedup(invalidated.iter().flat_map(|&v| self.log.sources_of(v)).collect());
        let touched = sort_dedup(touched.to_vec());
        self.last_repair = RepairStats {
            invalidated: invalidated.len() as u64,
            rejected: rejected.len() as u64,
            in_neighbors: in_nbrs.len() as u64,
            touched: touched.len() as u64,
            triggers: 0,
        };
        let frontier = match self.repair {
            RepairMode::Full => (0..self.n_vertices()).collect::<Vec<u32>>(),
            RepairMode::Targeted => {
                let mut f = invalidated;
                f.extend(rejected);
                f.extend(in_nbrs);
                f.extend(touched);
                sort_dedup(f)
            }
        };
        self.last_repair.triggers = frontier.len() as u64;
        frontier
    }

    /// Demotion sweep: collapse rhizomes whose live degree fell back below
    /// the threshold, then re-ingest their merged edge slices.
    fn demotion_sweep(&mut self, obs: &Obs, n_muts: u64) -> Result<Option<RunReport>, SimError> {
        let due = self.rz.take_demotions(self.rcfg.rhizome_threshold);
        if due.is_empty() {
            return Ok(None);
        }
        let merge = self.demote_collapse(&due);
        if merge.is_empty() {
            return Ok(None);
        }
        self.dev.register_data_transfer(merge);
        let _s = obs.span("demote_merge", self.seq, n_muts);
        self.dev.run().map(Some)
    }

    /// Demote every vertex in `due` back to a single root: collect the
    /// edges stored across each extra root's ghost subtree, free those
    /// objects (untimed, like promotion's allocation), clear the primary's
    /// rhizome links, patch any stored edge that pointed at a freed root to
    /// the vertex's primary, and return the re-ingest wave that merges the
    /// collected edges into the primary (timed — demotion pays real insert
    /// cycles in the increment that triggered it).
    fn demote_collapse(&mut self, due: &[u32]) -> Vec<Operon> {
        let mut merged: Vec<(Address, Edge)> = Vec::new();
        let mut remap: HashMap<Address, Address> = HashMap::new();
        for &v in due {
            let extras = self.rz.demote(v);
            let primary = self.rz.primary(v);
            for &r in &extras {
                remap.insert(r, primary);
                for a in walk::collect_objects(r, |x| self.dev.object(x)) {
                    let obj = self.dev.host_free(a).expect("demoted object live");
                    merged.extend(obj.edges.into_iter().map(|e| (primary, e)));
                }
            }
            self.dev.object_mut(primary).expect("primary live").peers = Box::new([]);
        }
        // Patch dangling destinations: stored edges (and the edges being
        // merged) that pointed at a freed co-equal root now point at that
        // vertex's primary. Only root addresses ever appear as edge
        // destinations, so the remap over freed extras is complete.
        self.dev.chip_mut().for_each_object_mut(|_, obj| {
            for e in obj.edges.iter_mut() {
                if let Some(&p) = remap.get(&e.dst) {
                    e.dst = p;
                }
            }
        });
        merged
            .iter_mut()
            .map(|(primary, e)| {
                if let Some(&p) = remap.get(&e.dst) {
                    e.dst = p;
                }
                insert_operon(*primary, e)
            })
            .collect()
    }

    /// Fold the increment's RunReport deltas into the registry so the
    /// live Stats snapshot carries simulated-time totals next to the
    /// wall-clock span histograms.
    fn fold_obs(&mut self, report: &RunReport, n_muts: u64) {
        let obs = &self.obs;
        if !obs.is_enabled() {
            return;
        }
        obs.counter_add("graph.increments", 1);
        obs.counter_add("graph.mutations", n_muts);
        obs.counter_add("graph.cycles", report.cycles);
        obs.counter_add("graph.repair_cycles", report.repair_cycles);
        obs.counter_add("graph.reseed_triggers", report.reseed_triggers);
        obs.observe("graph.increment_cycles", report.cycles);
        let chip = self.dev.chip();
        let (sc, cv) = (chip.sharded_cycles(), chip.cell_visits());
        obs.counter_add("shard.busy_cycles", sc - self.chip_marks.0);
        obs.counter_add("fabric.cell_visits", cv - self.chip_marks.1);
        self.chip_marks = (sc, cv);
        let pv = self.log.pair_visits();
        obs.counter_add("host.pair_visits", pv - self.pair_mark);
        self.pair_mark = pv;
        obs.gauge_set("graph.live_edges", self.applied_live as i64);
        obs.gauge_set("graph.ledger_pairs", self.log.pair_records() as i64);
        // Run-to-date max/mean imbalance of the sharded engine's per-band
        // work, in milli-units (1000 = perfectly level).
        let imb = max_mean_ratio(chip.band_active());
        obs.gauge_set("shard.imbalance_milli", (imb * 1000.0) as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::bfs::{BfsAlgo, MAX_LEVEL};
    use crate::apps::concomp::CcAlgo;
    use crate::apps::sssp::{SsspAlgo, INF};
    use crate::graph::symmetrize_mutations;
    use crate::graph::tests::small;
    use crate::rpvo::RpvoConfig;
    use amcca_sim::ChipConfig;
    use GraphMutation::{AddEdge, DelEdge};

    #[test]
    fn deleting_a_shortcut_restores_the_long_path() {
        let mut g = small();
        let path: Vec<StreamEdge> = (0..7).map(|i| (i, i + 1, 1)).collect();
        g.stream_edges(&path).unwrap();
        g.stream_edges(&[(0, 6, 1)]).unwrap();
        assert_eq!(g.state_of(7), 2, "shortcut in effect");
        // Retract the shortcut: invalidation recalls the derived levels and
        // the reseed wave re-relaxes along the surviving path.
        g.stream_increment(&[DelEdge((0, 6, 1))]).unwrap();
        assert_eq!(g.state_of(6), 6, "level re-derived along the path");
        assert_eq!(g.state_of(7), 7);
        assert_eq!(g.total_edges_stored(), 7);
        assert_eq!(g.live_edge_count(), 7);
        g.check_mirror_consistency().unwrap();
    }

    #[test]
    fn deleting_the_only_reaching_edge_unreaches_downstream() {
        let mut g = small();
        g.stream_edges(&[(0, 1, 1), (1, 2, 1), (2, 3, 1)]).unwrap();
        assert_eq!(g.state_of(3), 3);
        g.stream_increment(&[DelEdge((0, 1, 1))]).unwrap();
        for v in 1..4 {
            assert_eq!(g.state_of(v), MAX_LEVEL, "vertex {v} unreachable after the cut");
        }
        assert_eq!(g.state_of(0), 0, "the source is self-supported");
        assert_eq!(g.total_edges_stored(), 2);
    }

    #[test]
    fn delete_one_of_two_parallel_edges_keeps_the_level() {
        let mut g = small();
        g.stream_edges(&[(0, 1, 1), (0, 1, 1)]).unwrap();
        assert_eq!(g.state_of(1), 1);
        assert_eq!(g.total_edges_stored(), 2);
        g.stream_increment(&[DelEdge((0, 1, 1))]).unwrap();
        assert_eq!(g.total_edges_stored(), 1, "exactly one copy retracted");
        assert_eq!(g.state_of(1), 1, "the surviving copy re-supports the level");
        g.stream_increment(&[DelEdge((0, 1, 1))]).unwrap();
        assert_eq!(g.total_edges_stored(), 0);
        assert_eq!(g.state_of(1), MAX_LEVEL);
    }

    #[test]
    fn same_batch_add_delete_annihilates_on_host() {
        let mut g = small();
        let r = g
            .stream_increment(&[AddEdge((0, 1, 1)), AddEdge((1, 2, 1)), DelEdge((1, 2, 1))])
            .unwrap();
        assert_eq!(g.total_edges_stored(), 1, "the add/delete pair never hit the fabric");
        assert_eq!(g.state_of(1), 1);
        assert_eq!(g.state_of(2), MAX_LEVEL);
        // Annihilation means no deletion reached the fabric, so the batch
        // takes the single-phase fast path: counters show one insert only.
        assert_eq!(r.counters.msgs_delivered, 2, "one insert + its relax");
    }

    #[test]
    fn sssp_repair_after_deleting_the_cheap_road() {
        let mut g = StreamingGraph::builder(SsspAlgo::new(0))
            .vertices(8)
            .chip(ChipConfig::small_test())
            .rpvo(RpvoConfig::basic(4, 2))
            .build()
            .unwrap();
        g.stream_edges(&[(0, 1, 10), (1, 2, 10), (0, 2, 3)]).unwrap();
        assert_eq!(g.state_of(2), 3);
        g.stream_increment(&[DelEdge((0, 2, 3))]).unwrap();
        assert_eq!(g.state_of(2), 20, "distance re-derived through the long road");
        g.stream_increment(&[DelEdge((1, 2, 10))]).unwrap();
        assert_eq!(g.state_of(2), INF);
        assert_eq!(g.state_of(1), 10);
    }

    #[test]
    fn cc_split_after_deleting_a_symmetrized_bridge() {
        let mut g = StreamingGraph::builder(CcAlgo)
            .vertices(6)
            .chip(ChipConfig::small_test())
            .rpvo(RpvoConfig::basic(4, 2))
            .build()
            .unwrap();
        let und = [(0u32, 1u32, 1u32), (1, 2, 1), (3, 4, 1), (2, 3, 1)];
        g.stream_increment(&symmetrize_mutations(&GraphMutation::adds(&und))).unwrap();
        for v in 0..5 {
            assert_eq!(g.state_of(v), 0, "single component");
        }
        // Cut the bridge 2–3 in both directions: the far side must fall back
        // to its own minimum label. No stale reverse edge may keep label 0
        // alive on the 3–4 side.
        g.stream_increment(&symmetrize_mutations(&[DelEdge((2, 3, 1))])).unwrap();
        assert_eq!(g.state_of(0), 0);
        assert_eq!(g.state_of(2), 0);
        assert_eq!(g.state_of(3), 3, "split component re-labels from its min id");
        assert_eq!(g.state_of(4), 3);
        assert_eq!(g.state_of(5), 5);
        g.check_mirror_consistency().unwrap();
    }

    #[test]
    fn deletion_without_propagation_only_edits_structure() {
        let mut g = small();
        g.set_algo_propagation(false);
        g.stream_edges(&[(0, 1, 1), (1, 2, 1)]).unwrap();
        let r = g.stream_increment(&[DelEdge((0, 1, 1))]).unwrap();
        assert_eq!(g.total_edges_stored(), 1);
        // No relax, retract-repair, or reseed traffic: structural only.
        assert_eq!(r.counters.msgs_delivered, 1, "just the delete operon");
        for v in 1..16 {
            assert_eq!(g.state_of(v), MAX_LEVEL);
        }
    }

    #[test]
    fn deletion_reaches_edges_spilled_into_ghosts() {
        let mut g = small();
        let edges: Vec<StreamEdge> = (1..16).map(|v| (0, v, 1)).collect();
        g.stream_edges(&edges).unwrap();
        assert!(g.rpvo_depth(0) >= 2, "cap 4 with 15 edges must spill");
        // Delete edges that certainly live in ghost objects (only 4 fit in
        // the root) — the retraction broadcast must find every one.
        let dels: Vec<GraphMutation> = (1..16).map(|v| DelEdge((0, v, 1))).collect();
        g.stream_increment(&dels).unwrap();
        assert_eq!(g.total_edges_stored(), 0);
        assert_eq!(g.degree(0), 0);
        for v in 1..16 {
            assert_eq!(g.state_of(v), MAX_LEVEL, "vertex {v} unreached after full cut");
        }
    }

    #[test]
    fn hub_promotes_to_rhizome_and_stays_correct() {
        let rcfg = RpvoConfig::basic(4, 2).with_rhizomes(6, 3);
        let mut g = StreamingGraph::builder(BfsAlgo::new(0))
            .vertices(24)
            .chip(ChipConfig::small_test())
            .rpvo(rcfg)
            .build()
            .unwrap();
        // A star around vertex 0: crosses the threshold mid-increment.
        let edges: Vec<StreamEdge> = (1..24).map(|v| (0, v, 1)).collect();
        g.stream_edges(&edges).unwrap();
        let (promoted, extra) = g.rhizome_stats();
        assert_eq!(promoted, 1, "only the hub crossed the threshold");
        assert_eq!(extra, 2, "K=3 adds two extra roots");
        assert_eq!(g.roots_of(0).len(), 3);
        assert_eq!(g.roots_of(1).len(), 1);
        // Every root is cross-linked to the other two.
        for a in g.roots_of(0) {
            let obj = g.device().object(a).unwrap();
            assert!(obj.is_root() && obj.is_rhizome());
            assert_eq!(obj.peers.len(), 2);
        }
        // All 23 edges stored exactly once across the root slices.
        assert_eq!(g.degree(0), 23);
        assert_eq!(g.total_edges_stored(), 23);
        // The edge slices are genuinely split across roots.
        let with_edges = g
            .roots_of(0)
            .iter()
            .filter(|&&a| !walk::collect_edges(a, |x| g.device().object(x)).is_empty())
            .count();
        assert!(with_edges >= 2, "edge list split across co-equal roots");
        // BFS results unchanged: every leaf at level 1, mirrors consistent.
        for v in 1..24 {
            assert_eq!(g.state_of(v), 1);
        }
        g.check_mirror_consistency().unwrap();
    }

    #[test]
    fn cold_rhizome_demotes_to_a_single_root() {
        let rcfg = RpvoConfig::basic(4, 2).with_rhizomes(6, 3);
        let mut g = StreamingGraph::builder(BfsAlgo::new(0))
            .vertices(24)
            .chip(ChipConfig::small_test())
            .rpvo(rcfg)
            .build()
            .unwrap();
        let star: Vec<StreamEdge> = (1..24).map(|v| (0, v, 1)).collect();
        g.stream_edges(&star).unwrap();
        assert_eq!(g.roots_of(0).len(), 3, "hub promoted");
        let objects_before = {
            let mut n = 0;
            g.device().chip().for_each_object(|_, _| n += 1);
            n
        };
        // Cool the hub: delete all but two of its edges in one batch. The
        // live degree falls far below the threshold, so the sweep at the end
        // of the increment must collapse the rhizome.
        let dels: Vec<GraphMutation> = (3..24).map(|v| DelEdge((0, v, 1))).collect();
        g.stream_increment(&dels).unwrap();
        assert_eq!(g.roots_of(0).len(), 1, "demoted vertex has exactly one root");
        assert_eq!(g.demotion_count(), 1);
        let primary = g.addr_of(0);
        let obj = g.device().object(primary).unwrap();
        assert!(!obj.is_rhizome(), "rhizome links cleared");
        // The two surviving edges merged into the primary's subtree.
        let mut ids: Vec<u32> = g.logical_edges(0).iter().map(|&(d, _)| d).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(g.total_edges_stored(), 2);
        // The freed extra roots and their ghosts are genuinely gone.
        let objects_after = {
            let mut n = 0;
            g.device().chip().for_each_object(|_, _| n += 1);
            n
        };
        assert!(objects_after < objects_before, "extra roots were freed");
        // BFS is still exact: 1 and 2 at level 1, the rest unreached.
        assert_eq!(g.state_of(1), 1);
        assert_eq!(g.state_of(2), 1);
        for v in 3..24 {
            assert_eq!(g.state_of(v), MAX_LEVEL);
        }
        g.check_mirror_consistency().unwrap();
    }

    #[test]
    fn demoted_hub_can_promote_again() {
        let rcfg = RpvoConfig::basic(4, 2).with_rhizomes(6, 3);
        let mut g = StreamingGraph::builder(BfsAlgo::new(0))
            .vertices(32)
            .chip(ChipConfig::small_test())
            .rpvo(rcfg)
            .build()
            .unwrap();
        let star: Vec<StreamEdge> = (1..8).map(|v| (0, v, 1)).collect();
        g.stream_edges(&star).unwrap();
        assert!(g.rz.is_promoted(0));
        let dels: Vec<GraphMutation> = (1..8).map(|v| DelEdge((0, v, 1))).collect();
        g.stream_increment(&dels).unwrap();
        assert_eq!(g.roots_of(0).len(), 1);
        // Heat the hub back up: it must promote a second time.
        let star2: Vec<StreamEdge> = (8..20).map(|v| (0, v, 1)).collect();
        g.stream_edges(&star2).unwrap();
        assert_eq!(g.roots_of(0).len(), 3, "re-promoted after re-heating");
        assert_eq!(g.rhizome_stats().0, 2, "promotions accumulate");
        assert_eq!(g.demotion_count(), 1);
        for v in 8..20 {
            assert_eq!(g.state_of(v), 1);
        }
        g.check_mirror_consistency().unwrap();
    }

    #[test]
    fn demotion_patches_edges_pointing_at_freed_roots() {
        // Vertex 1 promotes; OTHER vertices' edges were routed to its extra
        // roots. After demotion those destinations are freed, so every
        // stored edge must have been re-pointed at the primary — a relax
        // along such an edge must not fault and must still reach vertex 1.
        let rcfg = RpvoConfig::basic(4, 2).with_rhizomes(4, 3);
        let mut g = StreamingGraph::builder(BfsAlgo::new(0))
            .vertices(16)
            .chip(ChipConfig::small_test())
            .rpvo(rcfg)
            .build()
            .unwrap();
        // Many in-edges to 1 from distinct sources: 1 promotes, and the
        // sources' stored edges point at 1's various co-equal roots.
        let ins: Vec<StreamEdge> = (2..12).map(|u| (u, 1, 1)).collect();
        g.stream_edges(&ins).unwrap();
        assert!(g.rz.is_promoted(1));
        // Cool vertex 1 below the threshold.
        let dels: Vec<GraphMutation> = (5..12).map(|u| DelEdge((u, 1, 1))).collect();
        g.stream_increment(&dels).unwrap();
        assert_eq!(g.roots_of(1).len(), 1, "demoted");
        // Reach one of the surviving sources: the relax must traverse its
        // stored edge to vertex 1 without hitting a freed address.
        g.stream_edges(&[(0, 2, 1)]).unwrap();
        assert_eq!(g.state_of(2), 1);
        assert_eq!(g.state_of(1), 2, "edge into the demoted vertex still works");
        g.check_mirror_consistency().unwrap();
    }

    #[test]
    fn rhizome_states_match_single_root_reference() {
        // Same stream, with and without rhizomes: identical BFS fixpoints.
        let run = |rcfg: RpvoConfig| {
            let mut g = StreamingGraph::builder(BfsAlgo::new(0))
                .vertices(16)
                .chip(ChipConfig::small_test())
                .rpvo(rcfg)
                .build()
                .unwrap();
            let star: Vec<StreamEdge> = (1..16).map(|v| (0, v, 1)).collect();
            let path: Vec<StreamEdge> = (0..15).map(|v| (v, v + 1, 1)).collect();
            g.stream_edges(&star).unwrap();
            g.stream_edges(&path).unwrap();
            g.check_mirror_consistency().unwrap();
            (g.states(), g.total_edges_stored())
        };
        let single = run(RpvoConfig::basic(4, 2));
        let rhizome = run(RpvoConfig::basic(4, 2).with_rhizomes(4, 4));
        assert_eq!(single, rhizome);
    }

    #[test]
    fn promotion_mid_stream_preserves_reached_state() {
        // Reach vertex 5 first, then promote it in a later increment: the
        // extra roots must inherit the converged level so edges landing on
        // them still announce values.
        let rcfg = RpvoConfig::basic(4, 2).with_rhizomes(8, 2);
        let mut g = StreamingGraph::builder(BfsAlgo::new(0))
            .vertices(32)
            .chip(ChipConfig::small_test())
            .rpvo(rcfg)
            .build()
            .unwrap();
        g.stream_edges(&[(0, 5, 1)]).unwrap();
        assert_eq!(g.state_of(5), 1);
        // Now hammer vertex 5 until it promotes, fanning edges to vertices
        // reached only through the post-promotion slices.
        let burst: Vec<StreamEdge> = (6..31).map(|v| (5, v, 1)).collect();
        g.stream_edges(&burst).unwrap();
        assert!(g.rhizome_stats().0 >= 1, "vertex 5 promoted");
        for v in 6..31 {
            assert_eq!(g.state_of(v), 2, "leaf {v} reached through a rhizome slice");
        }
        g.check_mirror_consistency().unwrap();
    }

    #[test]
    fn sharded_rhizome_streaming_matches_sequential() {
        let run = |shards: usize| {
            let mut g = StreamingGraph::builder(BfsAlgo::new(0))
                .vertices(24)
                .chip(ChipConfig::small_test().with_shards(shards))
                .rpvo(RpvoConfig::basic(4, 2).with_rhizomes(5, 4))
                .build()
                .unwrap();
            let mut cycles = 0u64;
            let star: Vec<StreamEdge> = (1..24).map(|v| (0, v, 1)).collect();
            let path: Vec<StreamEdge> = (0..23).map(|v| (v, v + 1, 1)).collect();
            for inc in [star, path] {
                cycles += g.stream_edges(&inc).unwrap().cycles;
            }
            g.check_mirror_consistency().unwrap();
            (g.states(), cycles, *g.device().chip().counters(), g.rhizome_stats())
        };
        let sequential = run(1);
        assert!(sequential.3 .0 > 0, "workload must exercise promotion");
        assert_eq!(sequential, run(3));
    }

    #[test]
    fn sharded_churn_matches_sequential() {
        // The full mutation pipeline — deletions, repair, demotion — is
        // shard-count-independent like the insert-only path.
        let run = |shards: usize| {
            let mut g = StreamingGraph::builder(BfsAlgo::new(0))
                .vertices(24)
                .chip(ChipConfig::small_test().with_shards(shards))
                .rpvo(RpvoConfig::basic(3, 2).with_rhizomes(5, 3))
                .build()
                .unwrap();
            let mut cycles = 0u64;
            let star: Vec<StreamEdge> = (1..20).map(|v| (0, v, 1)).collect();
            let path: Vec<StreamEdge> = (0..19).map(|v| (v, v + 1, 1)).collect();
            cycles += g.stream_edges(&star).unwrap().cycles;
            cycles += g.stream_edges(&path).unwrap().cycles;
            let dels: Vec<GraphMutation> = (4..20).map(|v| DelEdge((0, v, 1))).collect();
            cycles += g.stream_increment(&dels).unwrap().cycles;
            g.check_mirror_consistency().unwrap();
            (
                g.states(),
                cycles,
                *g.device().chip().counters(),
                g.rhizome_stats(),
                g.demotion_count(),
            )
        };
        let sequential = run(1);
        assert!(sequential.4 > 0, "workload must exercise demotion");
        assert_eq!(sequential, run(3));
    }

    #[test]
    fn update_weight_decrease_is_a_single_phase_relax() {
        let mut g = StreamingGraph::builder(SsspAlgo::new(0))
            .vertices(8)
            .chip(ChipConfig::small_test())
            .rpvo(RpvoConfig::basic(4, 2))
            .build()
            .unwrap();
        g.stream_edges(&[(0, 1, 10), (1, 2, 10)]).unwrap();
        assert_eq!(g.state_of(2), 20);
        // Cheaper road: plain relax, no repair phase at all.
        let r = g.stream_increment(&[GraphMutation::UpdateWeight { u: 1, v: 2, w: 3 }]).unwrap();
        assert_eq!(g.state_of(2), 13, "decrease relaxes the downstream distance");
        assert_eq!(r.reseed_triggers, 0, "no repair wave for a weight decrease");
        assert_eq!(r.repair_cycles, 0);
        assert_eq!(g.logical_edges(1), vec![(2, 3)], "weight patched in place");
        g.check_mirror_consistency().unwrap();
    }

    #[test]
    fn update_weight_increase_repairs_paths_through_the_edge() {
        let mut g = StreamingGraph::builder(SsspAlgo::new(0))
            .vertices(8)
            .chip(ChipConfig::small_test())
            .rpvo(RpvoConfig::basic(4, 2))
            .build()
            .unwrap();
        g.stream_edges(&[(0, 1, 10), (1, 2, 10), (0, 2, 3)]).unwrap();
        assert_eq!(g.state_of(2), 3, "shortcut in effect");
        // Raise the shortcut above the long road: the distance derived
        // through it must invalidate and re-derive.
        let r = g.stream_increment(&[GraphMutation::UpdateWeight { u: 0, v: 2, w: 30 }]).unwrap();
        assert_eq!(g.state_of(2), 20, "distance re-derived through the long road");
        assert!(r.reseed_triggers > 0, "increase runs a repair wave");
        assert!(r.repair_cycles > 0);
        let stats = g.last_repair();
        assert_eq!(stats.invalidated, 1, "only vertex 2 relied on the cheap shortcut");
        assert!(stats.triggers < 8, "targeted reseed does not trigger every vertex");
        // Raising it further, but still above the alternative: no change.
        g.stream_increment(&[GraphMutation::UpdateWeight { u: 0, v: 2, w: 40 }]).unwrap();
        assert_eq!(g.state_of(2), 20);
        g.check_mirror_consistency().unwrap();
    }

    #[test]
    fn update_weight_same_batch_as_add_coalesces_on_host() {
        let mut g = StreamingGraph::builder(SsspAlgo::new(0))
            .vertices(8)
            .chip(ChipConfig::small_test())
            .rpvo(RpvoConfig::basic(4, 2))
            .build()
            .unwrap();
        // The add and its re-weight travel as ONE insert: no repair phase
        // even though the weight "increased".
        let r = g
            .stream_increment(&[
                AddEdge((0, 1, 2)),
                GraphMutation::UpdateWeight { u: 0, v: 1, w: 9 },
            ])
            .unwrap();
        assert_eq!(g.state_of(1), 9, "the coalesced insert carries the final weight");
        assert_eq!(r.reseed_triggers, 0, "nothing was announced under the old weight");
        assert_eq!(g.logical_edges(0), vec![(1, 9)]);
    }

    #[test]
    fn update_weight_then_delete_in_one_batch_drops_the_patch() {
        let mut g = StreamingGraph::builder(SsspAlgo::new(0))
            .vertices(8)
            .chip(ChipConfig::small_test())
            .rpvo(RpvoConfig::basic(4, 2))
            .build()
            .unwrap();
        g.stream_edges(&[(0, 1, 10), (0, 1, 5)]).unwrap();
        assert_eq!(g.state_of(1), 5);
        // Re-weight the oldest copy (w 10) then delete it (by its current
        // weight, 7) in the same batch: the patch is moot and must not race
        // the retraction.
        g.stream_increment(&[GraphMutation::UpdateWeight { u: 0, v: 1, w: 7 }, DelEdge((0, 1, 7))])
            .unwrap();
        assert_eq!(g.logical_edges(0), vec![(1, 5)], "only the younger copy survives");
        assert_eq!(g.state_of(1), 5);
        assert_eq!(g.live_edge_count(), 1);
        g.check_mirror_consistency().unwrap();
    }

    #[test]
    fn update_weight_picks_the_oldest_live_copy_of_the_pair() {
        let mut g = small();
        g.stream_edges(&[(0, 1, 5), (0, 1, 9)]).unwrap();
        g.stream_increment(&[GraphMutation::UpdateWeight { u: 0, v: 1, w: 2 }]).unwrap();
        let mut ws: Vec<u32> = g.logical_edges(0).iter().map(|&(_, w)| w).collect();
        ws.sort_unstable();
        assert_eq!(ws, vec![2, 9], "the oldest copy (w 5) was re-weighted");
    }

    #[test]
    fn full_and_targeted_repair_reach_identical_fixpoints() {
        let run = |mode: RepairMode| {
            let mut g = StreamingGraph::builder(BfsAlgo::new(0))
                .vertices(16)
                .chip(ChipConfig::small_test())
                .rpvo(RpvoConfig::basic(3, 2))
                .repair(mode)
                .build()
                .unwrap();
            let path: Vec<StreamEdge> = (0..15).map(|i| (i, i + 1, 1)).collect();
            g.stream_edges(&path).unwrap();
            g.stream_edges(&[(0, 6, 1)]).unwrap();
            let r = g.stream_increment(&[DelEdge((0, 6, 1))]).unwrap();
            g.check_mirror_consistency().unwrap();
            (g.states(), g.total_edges_stored(), r.reseed_triggers)
        };
        let full = run(RepairMode::Full);
        let targeted = run(RepairMode::Targeted);
        assert_eq!(full.0, targeted.0, "bit-identical fixpoints");
        assert_eq!(full.1, targeted.1);
        assert_eq!(full.2, 16, "full wave triggers every vertex");
        assert!(targeted.2 < 16, "targeted wave is scoped: {} triggers", targeted.2);
        assert!(targeted.2 > 0);
    }

    #[test]
    fn sharded_streaming_matches_sequential() {
        // The full streaming-BFS workflow (ingestion spills, ghost
        // allocation, relax diffusion) is shard-count-independent: identical
        // states, cycles, and counters on 1 vs 3 shards.
        let run = |shards: usize| {
            let mut g = StreamingGraph::builder(BfsAlgo::new(0))
                .vertices(24)
                .chip(ChipConfig::small_test().with_shards(shards))
                .rpvo(RpvoConfig::basic(4, 2))
                .build()
                .unwrap();
            let mut cycles = 0u64;
            // A star (forces RPVO spills) plus a path (multi-hop BFS).
            let star: Vec<StreamEdge> = (1..24).map(|v| (0, v, 1)).collect();
            let path: Vec<StreamEdge> = (0..23).map(|v| (v, v + 1, 1)).collect();
            for inc in [star, path] {
                cycles += g.stream_edges(&inc).unwrap().cycles;
            }
            g.check_mirror_consistency().unwrap();
            (g.states(), cycles, *g.device().chip().counters())
        };
        let sequential = run(1);
        assert_eq!(sequential, run(3));
    }
}
