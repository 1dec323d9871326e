//! Host-side streaming graph façade.
//!
//! Wraps a [`diffusive::Device`] running a [`GraphApp`] and provides the
//! workflow of the paper's experiments: allocate root RPVOs for all vertices
//! (untimed construction, §4), then stream batches of **mutations** — edge
//! insertions *and* deletions — through the IO channels and run each to
//! quiescence, collecting a [`RunReport`] per increment (the data behind
//! Figures 8–9 and Table 2, extended to the dynamic half of the workload
//! space that Besta et al.'s streaming-framework taxonomy treats as the
//! defining capability: deletions and sliding-window churn).
//!
//! # Mutation semantics
//!
//! A batch is an ordered multiset edit of the directed edge multiset. The
//! host keeps one record of the live edge set, the [`MutationLog`], which
//! assigns each inserted copy of a directed pair `(src, dst)` a small copy
//! tag (unique among the pair's live copies), so a `DelEdge` retracts
//! exactly one copy — the oldest live one of the named weight — and an
//! `UpdateWeight` re-weights exactly one copy — the pair's oldest — no
//! matter how copies spread across rhizome root slices and ghost spills. A
//! delete that matches an insert of the *same batch* annihilates it on the
//! host before anything reaches the fabric, and same-batch updates of one
//! copy coalesce into a single patch. The wave of an increment is built from
//! the log's drained batch alone: each surviving mutation arrives with the
//! tag of the copy the log matched it to.
//!
//! Batches containing on-fabric deletions (or weight increases) run in two
//! phases when the algorithm propagates: a **structural** phase (inserts,
//! retractions, and weight patches apply, improvements are suppressed,
//! invalidation cascades recall state derived through deleted or re-weighted
//! edges — see [`diffusive::retract`]) and a **reseed** phase in which
//! surviving valid state re-announces and monotone relaxation rebuilds the
//! exact fixpoint over the surviving edge set. The reseed wave is scoped by
//! [`RepairMode`]: `Targeted` (default) triggers only the repair frontier
//! recorded during the cascade — invalidated vertices, recall-rejecting
//! survivors, surviving in-neighbours of the invalidated set, and the
//! batch's suppressed insert/update sources — while `Full` re-announces from
//! every vertex (the O(n) ablation baseline). Both reach bit-identical
//! fixpoints; pure-insert batches take the original single-phase fast path.
//!
//! This file holds the types, the builder, the entry points and the read
//! accessors; `graph/increment.rs` runs an increment stage by stage and
//! `graph/queries.rs` keeps the standing queries.

use amcca_obs::Obs;
use amcca_sim::{root_cell, Address, ChipConfig, Operon, SimError};
use diffusive::{Device, RunReport};

use crate::apps::algo::{
    GraphApp, VertexAlgo, ACT_DELETE, ACT_INSERT, ACT_RELAX, ACT_RESEED, ACT_UPDATE,
};
use crate::query::{QueryDelta, StandingQuery};
use crate::rpvo::rhizome::RhizomeDirectory;
use crate::rpvo::{walk, RpvoConfig, VertexObj};

mod increment;
mod mutlog;
mod queries;

pub use mutlog::{CoalescedBatch, CopyAddr, MutationError, MutationLog};

/// A streamed edge: `(src, dst, weight)` with vertex ids.
pub type StreamEdge = (u32, u32, u32);

/// One element of a mutation stream: the typed unit the ingestion pipeline
/// is built around. `AddEdge` grows the directed edge multiset; `DelEdge`
/// removes one live copy of the named identity (the oldest); `UpdateWeight`
/// re-weights one live copy of a directed pair (the oldest).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphMutation {
    /// Insert one copy of the directed edge.
    AddEdge(StreamEdge),
    /// Insert one copy of the directed edge carrying an edge label (1–26 in
    /// practice — the `a`–`z` atoms of [`crate::query`] patterns). Label 0
    /// canonicalizes to a plain [`GraphMutation::AddEdge`]. Labels are
    /// immutable for a copy's lifetime and are not part of the
    /// delete/update addressing identity.
    AddLabeledEdge(StreamEdge, u8),
    /// Delete one live copy of the directed edge (panics at stream time if
    /// no copy is live — deleting a non-existent edge is a host bug).
    DelEdge(StreamEdge),
    /// Re-weight the *oldest* live copy of the directed pair `u → v` to `w`
    /// (panics at stream time if no copy is live). For monotone algorithms a
    /// weight decrease is a plain relax along the edge; an increase runs a
    /// scoped invalidate+reseed of exactly the paths through the edge.
    UpdateWeight {
        /// Source vertex of the re-weighted pair.
        u: u32,
        /// Destination vertex of the re-weighted pair.
        v: u32,
        /// New weight of the copy.
        w: u32,
    },
}

impl GraphMutation {
    /// The `(src, dst, weight)` triple this mutation refers to (for
    /// `UpdateWeight`, the weight is the *new* weight).
    pub fn edge(&self) -> StreamEdge {
        match *self {
            GraphMutation::AddEdge(e)
            | GraphMutation::AddLabeledEdge(e, _)
            | GraphMutation::DelEdge(e) => e,
            GraphMutation::UpdateWeight { u, v, w } => (u, v, w),
        }
    }

    /// Wrap a plain edge slice into an insert-only mutation batch.
    pub fn adds(edges: &[StreamEdge]) -> Vec<GraphMutation> {
        edges.iter().copied().map(GraphMutation::AddEdge).collect()
    }
}

/// How the repair phase of a delete-bearing increment triggers its reseed
/// wave (see the module docs; both modes reach bit-identical fixpoints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepairMode {
    /// Re-announce from every vertex: an O(n) trigger wave per repair batch,
    /// kept as the ablation baseline (`paper churn --repair full`).
    Full,
    /// Re-announce only from the recorded repair frontier, so trigger work
    /// is proportional to the invalidated region instead of the graph.
    #[default]
    Targeted,
}

/// Bookkeeping of the most recent increment's repair phase (all zero when no
/// repair ran). Distinct-vertex counts; `triggers` is what the reseed wave
/// actually injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Distinct vertices whose state the invalidation cascade reset.
    pub invalidated: u64,
    /// Distinct vertices that rejected a recall while holding announceable
    /// state (survivors bordering the invalidated region).
    pub rejected: u64,
    /// Distinct surviving in-neighbours of the invalidated set (from the
    /// mutation log).
    pub in_neighbors: u64,
    /// Distinct sources of this batch's inserts and weight updates (their
    /// announcements were suppressed during the structural phase).
    pub touched: u64,
    /// Reseed triggers injected: the deduped frontier union in `Targeted`
    /// mode, `n` in `Full` mode.
    pub triggers: u64,
}

/// `vs` as an ascending set. Everything a hash map or a shard's arrival order
/// hands the pipeline passes through here before it can drive output.
fn sort_dedup(mut vs: Vec<u32>) -> Vec<u32> {
    vs.sort_unstable();
    vs.dedup();
    vs
}

/// StreamingGraph.
pub struct StreamingGraph<G: VertexAlgo> {
    dev: Device<GraphApp<G>>,
    /// Per-vertex root sets, streamed-degree counters, and the deterministic
    /// per-edge root router (single-root vertices route to their primary).
    rz: RhizomeDirectory,
    /// The one record of the live edge set and the coalescing stage: every
    /// increment's mutations are staged here first, so same-batch merges and
    /// per-copy tag addressing happen in exactly one place (see
    /// [`MutationLog`]), the live multiset is queryable for checkpoints, and
    /// targeted repair reads a vertex's surviving in-neighbours off it.
    log: MutationLog,
    /// The log's live-copy count as of the last applied increment (the log
    /// itself also counts whatever is staged).
    applied_live: u64,
    rcfg: RpvoConfig,
    /// Reseed-wave scoping policy for delete-bearing batches.
    repair: RepairMode,
    /// Bookkeeping of the most recent increment's repair phase.
    last_repair: RepairStats,
    /// Registered standing queries, indexed by query id: the host-side half
    /// of the query registry (pattern text, sources, compiled automaton) —
    /// checkpointed and re-registered on restore. The automata are mirrored
    /// into the fabric app, which maintains the per-object state bitsets.
    queries: Vec<StandingQuery>,
    /// Per-query accepting-set snapshot as of the end of the previous
    /// increment: one bitset over vertex ids per registered query, the
    /// baseline [`StreamingGraph::stream_increment`] diffs against when
    /// computing result deltas. Kept exactly in sync with what
    /// [`StreamingGraph::query_results`] would have returned then.
    qaccept: Vec<Vec<u64>>,
    /// Result deltas of the most recent increment, one per registered query,
    /// drained by [`StreamingGraph::take_query_deltas`].
    last_deltas: Vec<QueryDelta>,
    /// Wall-clock observability handle (disabled by default). Pure
    /// observation: spans and counters never feed back into control flow,
    /// so enabling it cannot perturb the fixpoint (pinned by the
    /// `obs_equivalence` proptest).
    obs: Obs,
    /// Monotonic increment sequence number — the batch id carried by this
    /// graph's trace spans. Advances whether or not obs is enabled.
    seq: u64,
    /// Chip diagnostics (`sharded_cycles`, `cell_visits`) as of the previous
    /// obs flush, so the obs counters record per-increment deltas.
    chip_marks: (u64, u64),
    /// The log's `pair_visits` as of the previous obs flush.
    pair_mark: u64,
}

/// Builder for [`StreamingGraph`]: owns the chip shape, RPVO shape, and
/// repair-mode defaults so construction reads as one fluent chain,
///
/// ```
/// use sdgp_core::apps::BfsAlgo;
/// use sdgp_core::graph::StreamingGraph;
///
/// let g = StreamingGraph::builder(BfsAlgo::new(0)).vertices(8).build().unwrap();
/// assert_eq!(g.n_vertices(), 8);
/// ```
///
/// with every knob overridable before [`GraphBuilder::build`]:
/// [`GraphBuilder::chip`] (default [`ChipConfig::default`]),
/// [`GraphBuilder::rpvo`] (default [`RpvoConfig::default`]),
/// [`GraphBuilder::repair`] (default [`RepairMode::Targeted`]).
#[derive(Debug, Clone)]
pub struct GraphBuilder<G: VertexAlgo> {
    algo: G,
    n_vertices: u32,
    chip: ChipConfig,
    rpvo: RpvoConfig,
    repair: RepairMode,
    obs: Obs,
}

impl<G: VertexAlgo> GraphBuilder<G> {
    /// Number of vertices to allocate root objects for (default 0).
    pub fn vertices(mut self, n: u32) -> Self {
        self.n_vertices = n;
        self
    }

    /// Chip configuration (mesh dims, ghost placement, shard count).
    pub fn chip(mut self, cfg: ChipConfig) -> Self {
        self.chip = cfg;
        self
    }

    /// RPVO shape (edge cap, ghost fanout, rhizome knobs).
    pub fn rpvo(mut self, rcfg: RpvoConfig) -> Self {
        self.rpvo = rcfg;
        self
    }

    /// Reseed-wave scoping of delete-bearing increments.
    pub fn repair(mut self, mode: RepairMode) -> Self {
        self.repair = mode;
        self
    }

    /// Observability handle recording increment-phase spans and cycle
    /// counters (default [`Obs::disabled`], a no-op).
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Create the device, register the actions (Listing 1), and allocate the
    /// root vertex objects across the chip.
    pub fn build(self) -> Result<StreamingGraph<G>, SimError> {
        let GraphBuilder { algo, n_vertices, chip: cfg, rpvo: rcfg, repair, obs } = self;
        let dims = cfg.dims;
        let fanout = rcfg.ghost_fanout;
        let mut dev = Device::new(cfg, GraphApp::new(algo, rcfg, true));
        dev.register_action_at(ACT_INSERT, "insert-edge-action");
        dev.register_action_at(ACT_RELAX, G::NAME);
        dev.register_action_at(ACT_DELETE, "delete-edge-action");
        dev.register_action_at(ACT_RESEED, "reseed-action");
        dev.register_action_at(ACT_UPDATE, "update-weight-action");
        let mut addrs = Vec::with_capacity(n_vertices as usize);
        for vid in 0..n_vertices {
            let cc = root_cell(vid, dims);
            let state = dev.app().algo.root_state(vid);
            addrs.push(dev.host_alloc(cc, VertexObj::root(vid, state, fanout))?);
        }
        Ok(StreamingGraph {
            dev,
            rz: RhizomeDirectory::new(addrs),
            log: MutationLog::new(),
            applied_live: 0,
            rcfg,
            repair,
            last_repair: RepairStats::default(),
            queries: Vec::new(),
            qaccept: Vec::new(),
            last_deltas: Vec::new(),
            obs,
            seq: 0,
            chip_marks: (0, 0),
            pair_mark: 0,
        })
    }
}

impl<G: VertexAlgo> StreamingGraph<G> {
    /// Start a [`GraphBuilder`] chain for the given vertex algorithm (the
    /// chip defaults to [`ChipConfig::default`], the RPVO shape to
    /// [`RpvoConfig::default`], repair to [`RepairMode::Targeted`]).
    pub fn builder(algo: G) -> GraphBuilder<G> {
        GraphBuilder {
            algo,
            n_vertices: 0,
            chip: ChipConfig::default(),
            rpvo: RpvoConfig::default(),
            repair: RepairMode::default(),
            obs: Obs::disabled(),
        }
    }

    /// Enable/disable the algorithm's propagation on insert (the paper's
    /// ingestion-only experiments disable it).
    pub fn set_algo_propagation(&mut self, on: bool) {
        self.dev.app_mut().propagate_algo = on;
    }

    /// Select the termination detector used by subsequent increments
    /// (global quiescence by default; Safra's token for the distributed
    /// variant — see `paper ablate-terminator`).
    pub fn set_termination_mode(&mut self, mode: diffusive::TerminationMode) {
        self.dev.set_termination_mode(mode);
    }

    /// Bookkeeping of the most recent increment's repair phase (all zero if
    /// the last increment ran no repair).
    pub fn last_repair(&self) -> RepairStats {
        self.last_repair
    }

    /// Number of vertices the graph was constructed with.
    pub fn n_vertices(&self) -> u32 {
        self.rz.len() as u32
    }

    /// Primary root-object address of a vertex (any co-equal rhizome roots
    /// are reachable through its links).
    pub fn addr_of(&self, vid: u32) -> Address {
        self.rz.primary(vid)
    }

    /// All co-equal root addresses of a vertex, primary first (one entry for
    /// ordinary vertices).
    pub fn roots_of(&self, vid: u32) -> Vec<Address> {
        self.rz.roots(vid)
    }

    /// Stream one increment of mutations through the IO channels and run the
    /// diffusion to quiescence.
    ///
    /// While building the wave the host counts each mutation endpoint toward
    /// its vertex's streamed degree; a vertex whose live degree crosses
    /// [`RpvoConfig::rhizome_threshold`] is promoted to a rhizome on the
    /// spot (untimed, like construction), and every edge is then routed to a
    /// deterministically chosen co-equal root of its source — with the
    /// destination address likewise picking one of the destination's roots —
    /// so a hub's ingest and frontier traffic fans out across cells.
    ///
    /// Deletions and weight increases run the two-phase repair described in
    /// the module docs (with the reseed wave scoped per
    /// [`GraphBuilder::repair`]), and after the batch quiesces, promoted
    /// vertices whose live degree fell back below the threshold are demoted:
    /// their extra roots collapse into the primary and the merged edges
    /// re-ingest (timed) within this call. The returned report spans all
    /// phases; its `reseed_triggers` / `repair_cycles` fields record the
    /// repair wave's size and cost.
    ///
    /// Anything parked by [`Self::stage`] is applied too, ahead of `muts`.
    ///
    /// # Panics
    ///
    /// Panics if a [`GraphMutation::DelEdge`] or
    /// [`GraphMutation::UpdateWeight`] names an identity with no live copy.
    pub fn stream_increment(&mut self, muts: &[GraphMutation]) -> Result<RunReport, SimError> {
        // Validation panics fire here, before any graph state mutates.
        for m in muts {
            self.log.push(*m);
        }
        self.apply(muts.len() as u64)
    }

    /// Validate one submission against the live multiset and park it for
    /// the next increment, all-or-nothing ([`MutationLog::try_push_all`]).
    /// Until [`Self::apply_staged`] runs, states, [`Self::live_edge_count`]
    /// and query results do not see it; later submissions validate against
    /// it and [`Self::live_edges`] lists it.
    pub fn stage(&mut self, muts: &[GraphMutation]) -> Result<(), MutationError> {
        self.log.try_push_all(muts)
    }

    /// The canonical batch [`Self::apply_staged`] would apply.
    pub fn staged(&self) -> impl Iterator<Item = GraphMutation> + '_ {
        self.log.pending()
    }

    /// Apply what is staged as one increment, like
    /// [`Self::stream_increment`]. `None`, and no increment, when nothing
    /// survived coalescing.
    pub fn apply_staged(&mut self) -> Result<Option<RunReport>, SimError> {
        let n_muts = self.log.pending_ops() as u64;
        if n_muts == 0 {
            // Forget annihilated inserts: they must neither pile up nor
            // widen a later increment's repair.
            self.log.drain();
            return Ok(None);
        }
        self.apply(n_muts).map(Some)
    }

    /// Stream an insert-only increment (the source paper's workload shape):
    /// sugar for [`Self::stream_increment`] over [`GraphMutation::AddEdge`]s.
    pub fn stream_edges(&mut self, edges: &[StreamEdge]) -> Result<RunReport, SimError> {
        self.stream_increment(&GraphMutation::adds(edges))
    }

    /// Inject an arbitrary operon wave through the IO channels and run it to
    /// quiescence (used by snapshot queries such as triangle counting).
    pub fn run_query(
        &mut self,
        ops: impl IntoIterator<Item = Operon>,
    ) -> Result<RunReport, SimError> {
        self.dev.register_data_transfer(ops);
        self.dev.run()
    }
}

/// Read accessors: states, stored structure, and the host's counts.
impl<G: VertexAlgo> StreamingGraph<G> {
    /// The algorithm state stored at a vertex's primary root object (all
    /// co-equal roots agree at quiescence; see
    /// [`Self::check_mirror_consistency`]).
    pub fn state_of(&self, vid: u32) -> G::State {
        self.dev.object(self.rz.primary(vid)).expect("root object live").state
    }

    /// All root states, indexed by vertex id.
    pub fn states(&self) -> Vec<G::State> {
        (0..self.n_vertices()).map(|v| self.state_of(v)).collect()
    }

    /// All edges stored anywhere in a vertex's logical adjacency — every
    /// co-equal root and its ghost subtree — as `(dst_id, w)` pairs.
    pub fn logical_edges(&self, vid: u32) -> Vec<(u32, u32)> {
        walk::collect_logical_edges(self.rz.primary(vid), |a| self.dev.object(a))
            .into_iter()
            .map(|e| (e.dst_id, e.w))
            .collect()
    }

    /// Out-degree of a vertex: edges stored across all roots and ghosts.
    pub fn degree(&self, vid: u32) -> usize {
        walk::collect_logical_objects(self.rz.primary(vid), |a| self.dev.object(a))
            .into_iter()
            .map(|a| self.dev.object(a).expect("object live").edges.len())
            .sum()
    }

    /// Depth of a vertex's primary-root RPVO subtree (1 = root only).
    pub fn rpvo_depth(&self, vid: u32) -> usize {
        walk::depth(self.rz.primary(vid), |a| self.dev.object(a))
    }

    /// Addresses of every object of a vertex's *primary* RPVO subtree (root
    /// first). Use [`Self::rhizome_objects`] to span co-equal roots too.
    pub fn rpvo_objects(&self, vid: u32) -> Vec<Address> {
        walk::collect_objects(self.rz.primary(vid), |a| self.dev.object(a))
    }

    /// Addresses of every object of the whole logical vertex: all co-equal
    /// roots and each root's ghost subtree.
    pub fn rhizome_objects(&self, vid: u32) -> Vec<Address> {
        walk::collect_logical_objects(self.rz.primary(vid), |a| self.dev.object(a))
    }

    /// `(cumulative promotions, extra roots currently allocated)` so far.
    pub fn rhizome_stats(&self) -> (u64, u64) {
        (self.rz.promoted_count(), self.rz.extra_root_count())
    }

    /// Number of rhizome demotions performed so far.
    pub fn demotion_count(&self) -> u64 {
        self.rz.demoted_count()
    }

    /// Live streamed degree of a vertex (add-endpoint touches minus
    /// del-endpoint touches) — the promotion/demotion decision quantity.
    pub fn live_degree(&self, vid: u32) -> u32 {
        self.rz.live_degree(vid)
    }

    /// Number of live edges the host has applied (equals
    /// [`Self::total_edges_stored`] at quiescence; mutations parked by
    /// [`Self::stage`] do not count yet).
    pub fn live_edge_count(&self) -> u64 {
        self.applied_live
    }

    /// The live edge multiset at current weights, in insertion order — the
    /// serialization hook checkpoints are built from: streaming this list
    /// into a freshly built graph reproduces the same per-pair copy order
    /// (oldest first), so a replayed mutation tail resolves deletes and
    /// re-weights to the same copies. Mutations parked by [`Self::stage`]
    /// already count.
    pub fn live_edges(&self) -> Vec<StreamEdge> {
        self.log.live_edges()
    }

    /// [`Self::live_edges`] with each copy's label — the edge set standing
    /// queries run over, and what label-aware checkpoints serialize.
    pub fn live_labeled_edges(&self) -> Vec<(StreamEdge, u8)> {
        self.log.live_labeled_edges()
    }

    /// Per-vertex converged states as algorithm-defined wire values
    /// ([`VertexAlgo::sync_value`]; `None` where the algorithm has no
    /// announceable state, e.g. unreached BFS vertices). Checkpoints store
    /// these for the restore-time fixpoint integrity check.
    pub fn sync_values(&self) -> Vec<Option<u64>> {
        (0..self.n_vertices()).map(|v| self.dev.app().algo.sync_value(&self.state_of(v))).collect()
    }

    /// Currently promoted (multi-root) vertices, in ascending id order.
    pub fn promoted_vertices(&self) -> Vec<u32> {
        (0..self.n_vertices()).filter(|&v| self.rz.is_promoted(v)).collect()
    }

    /// Verify that every object of every vertex — co-equal roots and ghost
    /// mirrors alike — equals the primary root's state (must hold at
    /// quiescence). Returns the first violation.
    pub fn check_mirror_consistency(&self) -> Result<(), String> {
        for vid in 0..self.n_vertices() {
            let root = self.rz.primary(vid);
            let want = self.dev.object(root).expect("root live").state;
            for a in walk::collect_logical_objects(root, |x| self.dev.object(x)) {
                let got = self.dev.object(a).expect("object live").state;
                if got != want {
                    return Err(format!(
                        "vertex {vid}: mirror at {a} has {got:?}, root has {want:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Total edges stored on the chip (each live streamed edge stored once).
    pub fn total_edges_stored(&self) -> u64 {
        let mut n = 0u64;
        self.dev.chip().for_each_object(|_, obj| n += obj.edges.len() as u64);
        n
    }

    /// `(ghost_count, average parent→ghost hop distance)` across all RPVOs —
    /// the quantity the Vicinity vs Random ablation compares (Fig. 5).
    pub fn ghost_distance_stats(&self) -> (u64, f64) {
        let dims = self.dev.chip().cfg().dims;
        let mut count = 0u64;
        let mut hops = 0u64;
        self.dev.chip().for_each_object(|addr, obj| {
            for g in obj.ready_ghosts() {
                count += 1;
                hops += dims.distance(addr.cc, g.cc) as u64;
            }
        });
        (count, if count == 0 { 0.0 } else { hops as f64 / count as f64 })
    }

    /// The observability handle this graph records into (the serving layer
    /// clones it so graph and server share one registry).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The underlying diffusive device (read access).
    pub fn device(&self) -> &Device<GraphApp<G>> {
        &self.dev
    }

    /// The underlying diffusive device (mutable access).
    pub fn device_mut(&mut self) -> &mut Device<GraphApp<G>> {
        &mut self.dev
    }
}

/// Symmetrize an undirected edge list into a directed stream (both
/// directions, interleaved so the two copies of an edge travel together).
pub fn symmetrize(edges: &[StreamEdge]) -> Vec<StreamEdge> {
    let mut out = Vec::with_capacity(edges.len() * 2);
    for &(u, v, w) in edges {
        out.push((u, v, w));
        out.push((v, u, w));
    }
    out
}

/// Symmetrize a mutation batch: every `AddEdge` inserts both directions,
/// every `UpdateWeight` re-weights both directions, and — crucially for
/// decremental correctness — every `DelEdge` retracts both directions, so an
/// undirected workload never leaves a stale or mis-weighted reverse edge
/// behind.
pub fn symmetrize_mutations(muts: &[GraphMutation]) -> Vec<GraphMutation> {
    let mut out = Vec::with_capacity(muts.len() * 2);
    for m in muts {
        match *m {
            GraphMutation::AddEdge((u, v, w)) => {
                out.push(GraphMutation::AddEdge((u, v, w)));
                out.push(GraphMutation::AddEdge((v, u, w)));
            }
            GraphMutation::AddLabeledEdge((u, v, w), l) => {
                out.push(GraphMutation::AddLabeledEdge((u, v, w), l));
                out.push(GraphMutation::AddLabeledEdge((v, u, w), l));
            }
            GraphMutation::DelEdge((u, v, w)) => {
                out.push(GraphMutation::DelEdge((u, v, w)));
                out.push(GraphMutation::DelEdge((v, u, w)));
            }
            GraphMutation::UpdateWeight { u, v, w } => {
                out.push(GraphMutation::UpdateWeight { u, v, w });
                out.push(GraphMutation::UpdateWeight { u: v, v: u, w });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::bfs::{BfsAlgo, MAX_LEVEL};
    use amcca_sim::ChipConfig;
    use GraphMutation::{AddEdge, DelEdge};

    pub(super) fn small() -> StreamingGraph<BfsAlgo> {
        StreamingGraph::builder(BfsAlgo::new(0))
            .vertices(16)
            .chip(ChipConfig::small_test())
            .rpvo(RpvoConfig::basic(4, 2))
            .build()
            .unwrap()
    }

    #[test]
    fn construction_allocates_all_roots() {
        let g = small();
        assert_eq!(g.n_vertices(), 16);
        assert_eq!(g.state_of(0), 0, "BFS root at level 0");
        for v in 1..16 {
            assert_eq!(g.state_of(v), MAX_LEVEL);
        }
        assert_eq!(g.total_edges_stored(), 0);
    }

    #[test]
    fn stream_path_graph_levels() {
        let mut g = small();
        // 0 -> 1 -> 2 -> ... -> 15
        let edges: Vec<StreamEdge> = (0..15).map(|i| (i, i + 1, 1)).collect();
        g.stream_edges(&edges).unwrap();
        for v in 0..16 {
            assert_eq!(g.state_of(v), v as u64, "level along the path");
        }
        assert_eq!(g.total_edges_stored(), 15);
        assert_eq!(g.live_edge_count(), 15);
    }

    #[test]
    fn reversed_stream_order_converges_identically() {
        let mut g = small();
        let mut edges: Vec<StreamEdge> = (0..15).map(|i| (i, i + 1, 1)).collect();
        edges.reverse();
        g.stream_edges(&edges).unwrap();
        for v in 0..16 {
            assert_eq!(g.state_of(v), v as u64);
        }
    }

    #[test]
    fn increments_update_previous_results() {
        let mut g = small();
        // Increment 1: a long path 0->1->...->7.
        let edges: Vec<StreamEdge> = (0..7).map(|i| (i, i + 1, 1)).collect();
        g.stream_edges(&edges).unwrap();
        assert_eq!(g.state_of(7), 7);
        // Increment 2: shortcut 0 -> 6 lowers downstream levels without
        // recomputation from scratch.
        g.stream_edges(&[(0, 6, 1)]).unwrap();
        assert_eq!(g.state_of(6), 1);
        assert_eq!(g.state_of(7), 2);
        assert_eq!(g.state_of(3), 3, "untouched prefix keeps its level");
    }

    #[test]
    #[should_panic(expected = "no live copy to delete")]
    fn deleting_a_nonexistent_edge_is_a_host_bug() {
        let mut g = small();
        g.stream_increment(&[DelEdge((0, 1, 1))]).unwrap();
    }

    #[test]
    fn mirror_consistency_after_spills() {
        let mut g = small();
        // A star around vertex 0 forces RPVO spills (cap 4).
        let edges: Vec<StreamEdge> = (1..16).map(|v| (0, v, 1)).collect();
        g.stream_edges(&edges).unwrap();
        g.check_mirror_consistency().unwrap();
        assert!(g.rpvo_objects(0).len() > 1, "vertex 0 must have spilled");
        assert_eq!(g.total_edges_stored(), 15);
        // All leaves at level 1.
        for v in 1..16 {
            assert_eq!(g.state_of(v), 1);
        }
    }

    #[test]
    fn degree_and_depth_track_spills() {
        let mut g = small();
        let edges: Vec<StreamEdge> = (1..13).map(|v| (0, v, 1)).collect();
        g.stream_edges(&edges).unwrap();
        assert_eq!(g.degree(0), 12);
        assert_eq!(g.degree(1), 0);
        assert!(g.rpvo_depth(0) >= 2, "cap 4 with 12 edges must spill");
        assert_eq!(g.rpvo_depth(1), 1);
    }

    #[test]
    #[should_panic(expected = "no live copy to update")]
    fn updating_a_nonexistent_edge_is_a_host_bug() {
        let mut g = small();
        g.stream_increment(&[GraphMutation::UpdateWeight { u: 0, v: 1, w: 2 }]).unwrap();
    }

    #[test]
    fn symmetrize_doubles_edges() {
        let s = symmetrize(&[(1, 2, 9), (3, 4, 1)]);
        assert_eq!(s, vec![(1, 2, 9), (2, 1, 9), (3, 4, 1), (4, 3, 1)]);
    }

    #[test]
    fn symmetrize_mutations_mirrors_all_kinds() {
        use GraphMutation::UpdateWeight;
        let s = symmetrize_mutations(&[
            AddEdge((1, 2, 9)),
            DelEdge((3, 4, 1)),
            UpdateWeight { u: 5, v: 6, w: 2 },
        ]);
        assert_eq!(
            s,
            vec![
                AddEdge((1, 2, 9)),
                AddEdge((2, 1, 9)),
                DelEdge((3, 4, 1)),
                DelEdge((4, 3, 1)),
                UpdateWeight { u: 5, v: 6, w: 2 },
                UpdateWeight { u: 6, v: 5, w: 2 },
            ]
        );
    }

    #[test]
    fn staged_submissions_apply_exactly_like_one_streamed_batch() {
        use GraphMutation::UpdateWeight;
        let (mut g, mut twin) = (small(), small());
        let base = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 5)];
        g.stream_edges(&base).unwrap();
        twin.stream_edges(&base).unwrap();
        let (before, live) = (g.sync_values(), g.live_edge_count());

        let a = [AddEdge((3, 4, 1)), DelEdge((1, 2, 1))];
        let b = [UpdateWeight { u: 0, v: 3, w: 2 }, DelEdge((3, 4, 1)), AddEdge((3, 5, 1))];
        g.stage(&a).unwrap();
        assert_eq!(
            g.stage(&[DelEdge((3, 4, 1)), DelEdge((9, 9, 9))]).unwrap_err().to_string(),
            "DelEdge(9 -> 9, w 9): no live copy to delete"
        );
        g.stage(&b).unwrap();
        // Parked, not applied: only the log (and what is built on it) moved.
        assert_eq!((g.sync_values(), g.live_edge_count()), (before, live));
        let canonical: Vec<GraphMutation> = g.staged().collect();
        assert_eq!(canonical, [DelEdge((1, 2, 1)), b[0], b[2]], "3 -> 4 annihilated on the host");

        let key = |r: RunReport| (r.cycles, r.counters.instrs, r.reseed_triggers, r.repair_cycles);
        let report = g.apply_staged().unwrap().expect("something survived");
        let both: Vec<GraphMutation> = a.iter().chain(&b).copied().collect();
        assert_eq!(key(report), key(twin.stream_increment(&both).unwrap()));
        assert_eq!(g.sync_values(), twin.sync_values());
        assert_eq!(g.live_edges(), twin.live_edges());
        assert_eq!(g.live_edge_count(), 4);

        // A round that annihilates to nothing runs no increment and leaves
        // nothing behind for the next one.
        g.stage(&[AddEdge((7, 8, 1)), DelEdge((7, 8, 1))]).unwrap();
        assert!(g.apply_staged().unwrap().is_none());
        let next = [DelEdge((0, 1, 1))];
        assert_eq!(
            key(g.stream_increment(&next).unwrap()),
            key(twin.stream_increment(&next).unwrap())
        );
        assert_eq!(g.last_repair(), twin.last_repair());
    }

    /// The applied live count is read off the log once an epoch is drained: it
    /// tracks the fabric through every kind of increment and ignores whatever
    /// is only staged.
    #[test]
    fn live_edge_count_follows_applied_increments_not_staged_ones() {
        use GraphMutation::UpdateWeight;
        let mut g = small();
        let script: [&[GraphMutation]; 4] = [
            &[AddEdge((0, 1, 1)), AddEdge((1, 2, 1)), AddEdge((1, 2, 4)), AddEdge((2, 3, 1))],
            &[DelEdge((1, 2, 1)), DelEdge((2, 3, 1))],
            &[UpdateWeight { u: 1, v: 2, w: 9 }],
            &[AddEdge((5, 6, 1)), DelEdge((5, 6, 1)), AddEdge((3, 4, 1))],
        ];
        for (batch, want) in script.into_iter().zip([4, 2, 2, 3]) {
            g.stream_increment(batch).unwrap();
            assert_eq!(g.live_edge_count(), want, "after {batch:?}");
            assert_eq!(g.live_edge_count(), g.total_edges_stored());
        }
        g.stage(&[AddEdge((4, 5, 1)), DelEdge((0, 1, 1)), AddEdge((6, 7, 1))]).unwrap();
        assert_eq!(g.live_edge_count(), 3, "staged, not applied");
        g.apply_staged().unwrap().expect("an increment ran");
        assert_eq!((g.live_edge_count(), g.total_edges_stored()), (4, 4));
        // A staged round that annihilates to nothing applies nothing.
        g.stage(&[AddEdge((7, 8, 1)), DelEdge((7, 8, 1))]).unwrap();
        assert!(g.apply_staged().unwrap().is_none());
        assert_eq!((g.live_edge_count(), g.total_edges_stored()), (4, 4));
    }

    /// One increment's host bookkeeping looks at the pairs its batch names,
    /// not at the resident edge set (which it used to sweep twice).
    #[test]
    fn host_pair_visits_follow_the_batch_not_the_resident_edges() {
        let obs = Obs::enabled();
        let mut g = StreamingGraph::builder(BfsAlgo::new(0))
            .vertices(512)
            .rpvo(RpvoConfig::basic(8, 2))
            .obs(obs.clone())
            .build()
            .unwrap();
        let resident: Vec<StreamEdge> =
            (0..5_000).map(|i| (i % 512, (i * 37 + 11) % 512, 1)).collect();
        g.stream_edges(&resident).unwrap();
        let visits = || obs.snapshot().counter("host.pair_visits");

        let mark = visits();
        g.stage(&GraphMutation::adds(&[(1, 2, 1), (3, 4, 1), (5, 6, 1), (7, 8, 1)])).unwrap();
        g.apply_staged().unwrap();
        assert!(visits() - mark <= 16, "4 inserts: {} pair visits", visits() - mark);

        // A refused submission's visits show up with the next increment.
        let mark = visits();
        let (u, v, w) = resident[0];
        let refused =
            [DelEdge((u, v, w)), AddEdge((9, 9, 1)), AddEdge((9, 10, 1)), DelEdge((9, 11, 7))];
        assert!(g.stage(&refused).is_err());
        g.stream_increment(&[]).unwrap();
        assert!(visits() - mark <= 16, "refused: {} pair visits", visits() - mark);

        let snap = obs.snapshot();
        assert_eq!(snap.gauge("graph.live_edges"), Some(5_004));
        let pairs: std::collections::HashSet<(u32, u32)> =
            g.live_edges().iter().map(|&(u, v, _)| (u, v)).collect();
        assert_eq!(snap.gauge("graph.ledger_pairs"), Some(pairs.len() as i64));
    }
}
