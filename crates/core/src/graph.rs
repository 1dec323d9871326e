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

use std::collections::HashMap;

use amcca_obs::Obs;
use amcca_sim::{max_mean_ratio, rhizome_cells, root_cell, Address, ChipConfig, Operon, SimError};
use diffusive::{Device, RunReport};

use crate::apps::algo::{
    delete_operon, insert_operon, update_weight_operon, GraphApp, VertexAlgo, ACT_DELETE,
    ACT_INSERT, ACT_RELAX, ACT_RESEED, ACT_UPDATE,
};
use crate::query::{compile, QueryDelta, QueryError, StandingQuery};
use crate::rpvo::rhizome::{peer_sets, RhizomeDirectory};
use crate::rpvo::{walk, Edge, RpvoConfig, VertexObj};
use diffusive::{query_operon, query_reseed_operon, QUERY_ALL};

mod mutlog;

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

    /// The edge plus label of an insert (`AddEdge` inserts carry label 0);
    /// `None` for deletes and re-weights.
    pub fn as_add(&self) -> Option<(StreamEdge, u8)> {
        match *self {
            GraphMutation::AddEdge(e) => Some((e, 0)),
            GraphMutation::AddLabeledEdge(e, label) => Some((e, label)),
            _ => None,
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
    /// host's reverse index).
    pub in_neighbors: u64,
    /// Distinct sources of this batch's inserts and weight updates (their
    /// announcements were suppressed during the structural phase).
    pub touched: u64,
    /// Reseed triggers injected: the deduped frontier union in `Targeted`
    /// mode, `n` in `Full` mode.
    pub triggers: u64,
}

/// What the host keeps about the *applied* edge set beside the mutation log
/// (which also holds whatever is staged): a reverse index of surviving
/// in-neighbours per destination vertex — the host-side half of the
/// targeted-repair frontier (an invalidated vertex can only be re-fed through
/// its surviving in-edges) — and the applied live-copy count. Lookup-only
/// except for [`ReverseIndex::sources_into`], whose consumers sort before
/// driving output, so the hash maps cannot perturb determinism.
#[derive(Debug, Clone, Default)]
struct ReverseIndex {
    /// `dst → src → live copy count` over all weights of the pair.
    sources: HashMap<u32, HashMap<u32, u32>>,
    /// Live copies across all pairs.
    live: u64,
}

impl ReverseIndex {
    /// Count one applied copy of the pair `(u, v)`.
    fn add(&mut self, u: u32, v: u32) {
        *self.sources.entry(v).or_default().entry(u).or_insert(0) += 1;
        self.live += 1;
    }

    /// Uncount one retracted copy of the pair `(u, v)`.
    fn remove(&mut self, u: u32, v: u32) {
        self.live -= 1;
        let srcs = self.sources.get_mut(&v).expect("reverse index tracks live copies");
        let n = srcs.get_mut(&u).expect("reverse index tracks live copies");
        *n -= 1;
        if *n == 0 {
            srcs.remove(&u);
            if srcs.is_empty() {
                self.sources.remove(&v);
            }
        }
    }

    /// Sources of the surviving in-edges of vertex `v`, in arbitrary hash
    /// order — callers must sort before the result can drive output.
    fn sources_into(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        self.sources.get(&v).into_iter().flat_map(|m| m.keys().copied())
    }
}

/// StreamingGraph.
pub struct StreamingGraph<G: VertexAlgo> {
    dev: Device<GraphApp<G>>,
    /// Per-vertex root sets, streamed-degree counters, and the deterministic
    /// per-edge root router (single-root vertices route to their primary).
    rz: RhizomeDirectory,
    /// The surviving-in-neighbour reverse index for targeted repair, plus
    /// the applied live-edge count.
    rev: ReverseIndex,
    /// The one record of the live edge set and the coalescing stage: every
    /// increment's mutations are staged here first, so same-batch merges and
    /// per-copy tag addressing happen in exactly one place (see
    /// [`MutationLog`]) and the live multiset is queryable for checkpoints.
    log: MutationLog,
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
    /// Chip diagnostics (`sharded_cycles`, `steal_rows`, `cell_visits`) as of
    /// the previous obs flush, so the obs counters record per-increment
    /// deltas.
    chip_marks: (u64, u64, u64),
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
            rev: ReverseIndex::default(),
            log: MutationLog::new(),
            rcfg,
            repair,
            last_repair: RepairStats::default(),
            queries: Vec::new(),
            qaccept: Vec::new(),
            last_deltas: Vec::new(),
            obs,
            seq: 0,
            chip_marks: (0, 0, 0),
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

    /// Demote every vertex in `due` back to a single root: collect the
    /// edges stored across each extra root's ghost subtree, free those
    /// objects (untimed, like promotion's allocation), clear the primary's
    /// rhizome links, patch any stored edge that pointed at a freed root to
    /// the vertex's primary, and return the re-ingest wave that merges the
    /// collected edges into the primary (timed — demotion pays real insert
    /// cycles in the increment that triggered it).
    fn demote_collapse(&mut self, due: &[u32]) -> Vec<Operon> {
        let mut merged: Vec<Edge> = Vec::new();
        let mut merge_primary: Vec<Address> = Vec::new();
        let mut remap: HashMap<Address, Address> = HashMap::new();
        for &v in due {
            let extras = self.rz.demote(v);
            let primary = self.rz.primary(v);
            for &r in &extras {
                remap.insert(r, primary);
                for a in walk::collect_objects(r, |x| self.dev.object(x)) {
                    let obj = self.dev.host_free(a).expect("demoted object live");
                    for e in obj.edges {
                        merged.push(e);
                        merge_primary.push(primary);
                    }
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
            .zip(merge_primary)
            .map(|(e, primary)| {
                if let Some(&p) = remap.get(&e.dst) {
                    e.dst = p;
                }
                insert_operon(primary, e)
            })
            .collect()
    }

    /// Assemble phase B's reseed trigger set after a structural phase:
    /// drain the frontier the invalidation cascade recorded on-fabric
    /// (invalidated vertices + recall-rejecting survivors), join the
    /// surviving in-neighbours of the invalidated set from the reverse
    /// index and the batch's suppressed insert/update sources, and
    /// dedup. Per-shard accumulation order and hash-map iteration order
    /// never reach the output: every constituent is sorted first, so the
    /// wave is deterministic and shard-count-independent. In
    /// [`RepairMode::Full`] the stats are still recorded but the trigger set
    /// is every vertex.
    fn repair_frontier(&mut self, touched: &[u32]) -> Vec<u32> {
        let (mut invalidated, mut rejected) = self.dev.app_mut().take_repair_sets();
        invalidated.sort_unstable();
        invalidated.dedup();
        rejected.sort_unstable();
        rejected.dedup();
        let mut in_nbrs: Vec<u32> =
            invalidated.iter().flat_map(|&v| self.rev.sources_into(v)).collect();
        in_nbrs.sort_unstable();
        in_nbrs.dedup();
        let mut touched = touched.to_vec();
        touched.sort_unstable();
        touched.dedup();
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
                f.sort_unstable();
                f.dedup();
                f
            }
        };
        self.last_repair.triggers = frontier.len() as u64;
        frontier
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

    /// Count one insert's endpoints toward their streamed degrees (promoting
    /// a vertex that crosses the rhizome threshold), index the copy, and
    /// return its insert operon, routed to a co-equal root of each endpoint.
    fn insert_op(&mut self, (u, v, w): StreamEdge, label: u8, tag: u8) -> Result<Operon, SimError> {
        let threshold = self.rcfg.rhizome_threshold;
        if self.rz.note_add(u, threshold) {
            self.promote(u)?;
        }
        if self.rz.note_add(v, threshold) {
            self.promote(v)?;
        }
        self.rev.add(u, v);
        let src = self.rz.route(u);
        let dst = self.rz.route(v);
        Ok(insert_operon(src, &Edge::labeled(dst, v, w, tag, label)))
    }

    /// Drain the log and run the canonical batch to quiescence. `n_muts` is
    /// the mutation count spans and obs counters report.
    fn apply(&mut self, n_muts: u64) -> Result<RunReport, SimError> {
        // Clone the handle so span guards borrow the local, not `self`.
        let obs = self.obs.clone();
        self.seq += 1;
        let bid = self.seq;
        // Same-batch merges (annihilation, insert rewrites, patch folds,
        // moot-patch drops) happened in the log, and the drained batch is
        // canonical: surviving mutations in arrival order, each beside the
        // tag (and, for a re-weight, the stored weight) of the copy the log
        // matched it to.
        let batch = self.log.drain();
        let needs_repair = batch.needs_repair;
        // Build the operon wave from the canonical batch. Annihilated pairs
        // never reach this loop, so they neither advance the rhizome router
        // nor count toward streamed degrees.
        let mut wave: Vec<Operon> = Vec::with_capacity(batch.muts.len());
        for (m, at) in batch.muts.iter().zip(&batch.addrs) {
            match *m {
                GraphMutation::AddEdge(e) => wave.push(self.insert_op(e, 0, at.tag)?),
                GraphMutation::AddLabeledEdge(e, label) => {
                    wave.push(self.insert_op(e, label, at.tag)?)
                }
                GraphMutation::DelEdge((u, v, w)) => {
                    self.rev.remove(u, v);
                    self.rz.note_del(u);
                    self.rz.note_del(v);
                    wave.push(delete_operon(self.rz.primary(u), v, w, at.tag));
                }
                GraphMutation::UpdateWeight { u, v, w } => {
                    wave.push(update_weight_operon(self.rz.primary(u), v, at.w_fabric, w, at.tag));
                }
            }
        }
        let touched = batch.touched;
        self.last_repair = RepairStats::default();
        let mut report = if needs_repair && self.dev.app().propagate_algo {
            // Phase A — structural: edges move and re-weigh, improvements
            // are suppressed, invalidation cascades recall state derived
            // through deletions and weight increases while recording the
            // repair frontier on-fabric.
            self.dev.app_mut().notify_inserts = false;
            self.dev.register_data_transfer(wave);
            let structural = {
                let _s = obs.span("structural", bid, n_muts);
                self.dev.run()
            };
            self.dev.app_mut().notify_inserts = true;
            let mut report = structural?;
            // Phase B — repair: trigger the reseed wave (scoped per the
            // repair mode); surviving announceable state re-announces and
            // relaxation rebuilds the exact fixpoint.
            let frontier = self.repair_frontier(&touched);
            let reseeds =
                frontier.iter().map(|&v| Operon::new(self.rz.primary(v), ACT_RESEED, [0, 0]));
            self.dev.register_data_transfer(reseeds);
            let mut repair = {
                let _s = obs.span("repair", bid, n_muts);
                self.dev.run()?
            };
            repair.reseed_triggers = frontier.len() as u64;
            repair.repair_cycles = repair.cycles;
            repair.repair_instrs = repair.counters.instrs;
            report.absorb(repair);
            report
        } else {
            self.dev.register_data_transfer(wave);
            let _s = obs.span("structural", bid, n_muts);
            self.dev.run()?
        };
        // Demotion sweep: collapse rhizomes whose live degree fell back
        // below the threshold, then re-ingest their merged edge slices.
        let due = self.rz.take_demotions(self.rcfg.rhizome_threshold);
        if !due.is_empty() {
            let merge = self.demote_collapse(&due);
            if !merge.is_empty() {
                self.dev.register_data_transfer(merge);
                let _s = obs.span("demote_merge", bid, n_muts);
                report.absorb(self.dev.run()?);
            }
        }
        // Standing-query maintenance: a deletion may have stranded automaton
        // states whose every derivation ran through the removed edge, and a
        // structural phase suppressed the insert-time query announcements.
        // Either way the repair is independent of the algorithm's repair mode
        // and of `propagate_algo` — query state must stay exact even when
        // the algorithm's own propagation is disabled.
        if !self.queries.is_empty() {
            let del_heads: Vec<u32> = batch
                .muts
                .iter()
                .filter_map(|m| match *m {
                    GraphMutation::DelEdge((_, v, _)) => Some(v),
                    _ => None,
                })
                .collect();
            let suppressed = needs_repair && self.dev.app().propagate_algo;
            let mut cleared: Vec<u32> = Vec::new();
            if !del_heads.is_empty() || suppressed {
                let (rq, region) = {
                    let _s = obs.span("query_repair", bid, n_muts);
                    self.repair_queries(&del_heads, &touched)?
                };
                obs.counter_add("query.repair_cycles", rq.cycles);
                report.absorb(rq);
                cleared = region;
            }
            // Result deltas: diff each query's current accepting set against
            // the stored baseline, restricted to the candidate vertices this
            // increment could have changed — the on-fabric recorded accepting
            // transitions plus the repair-cleared region. No full rescan.
            self.compute_query_deltas(&cleared);
        }
        // Fold the increment's RunReport deltas into the registry so the
        // live Stats snapshot carries simulated-time totals next to the
        // wall-clock span histograms.
        if obs.is_enabled() {
            obs.counter_add("graph.increments", 1);
            obs.counter_add("graph.mutations", n_muts);
            obs.counter_add("graph.cycles", report.cycles);
            obs.counter_add("graph.repair_cycles", report.repair_cycles);
            obs.counter_add("graph.reseed_triggers", report.reseed_triggers);
            obs.observe("graph.increment_cycles", report.cycles);
            let chip = self.dev.chip();
            let (sc, sr, cv) = (chip.sharded_cycles(), chip.steal_rows(), chip.cell_visits());
            obs.counter_add("shard.busy_cycles", sc - self.chip_marks.0);
            obs.counter_add("shard.steal_rows", sr - self.chip_marks.1);
            obs.counter_add("fabric.cell_visits", cv - self.chip_marks.2);
            self.chip_marks = (sc, sr, cv);
            let pv = self.log.pair_visits();
            obs.counter_add("host.pair_visits", pv - self.pair_mark);
            self.pair_mark = pv;
            obs.gauge_set("graph.live_edges", self.rev.live as i64);
            obs.gauge_set("graph.ledger_pairs", self.log.pair_records() as i64);
            // Run-to-date max/mean executor imbalance across the sharded
            // engine's workers, in milli-units (1000 = perfectly level).
            let imb = max_mean_ratio(chip.exec_active());
            obs.gauge_set("shard.imbalance_milli", (imb * 1000.0) as i64);
        }
        Ok(report)
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
        del_heads: &[u32],
        touched: &[u32],
    ) -> Result<(RunReport, Vec<u32>), SimError> {
        // Forward closure over surviving out-edges (the closure is a set, so
        // hash-order traversal cannot perturb the sorted result).
        let mut adj: HashMap<u32, Vec<u32>> = HashMap::new();
        for (u, v) in self.log.live_pairs() {
            adj.entry(u).or_default().push(v);
        }
        let mut seen: std::collections::HashSet<u32> = del_heads.iter().copied().collect();
        let mut work: Vec<u32> = seen.iter().copied().collect();
        let mut region: Vec<u32> = Vec::new();
        while let Some(v) = work.pop() {
            region.push(v);
            if let Some(ns) = adj.get(&v) {
                for &n in ns {
                    if seen.insert(n) {
                        work.push(n);
                    }
                }
            }
        }
        region.sort_unstable();
        for &v in &region {
            for a in walk::collect_logical_objects(self.rz.primary(v), |x| self.dev.object(x)) {
                self.dev.object_mut(a).expect("object live").qbits.clear();
            }
        }
        let mut frontier: Vec<u32> =
            region.iter().flat_map(|&v| self.rev.sources_into(v)).collect();
        frontier.extend_from_slice(&region);
        frontier.extend_from_slice(touched);
        frontier.sort_unstable();
        frontier.dedup();
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
        let mut sources = sources.to_vec();
        sources.sort_unstable();
        sources.dedup();
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
            let mut cands: Vec<u32> = touched
                .iter()
                .filter(|&&(tq, _)| tq == qid as u32)
                .map(|&(_, v)| v)
                .chain(cleared.iter().copied())
                .collect();
            cands.sort_unstable();
            cands.dedup();
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

    /// The registered standing queries, indexed by query id (checkpoints
    /// persist this list so restore re-registers and re-derives each one).
    pub fn registered_queries(&self) -> &[StandingQuery] {
        &self.queries
    }

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
        self.rev.live
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
    use crate::apps::concomp::CcAlgo;
    use crate::apps::sssp::{SsspAlgo, INF};
    use amcca_sim::ChipConfig;
    use GraphMutation::{AddEdge, DelEdge};

    fn small() -> StreamingGraph<BfsAlgo> {
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
    #[should_panic(expected = "no live copy to delete")]
    fn deleting_a_nonexistent_edge_is_a_host_bug() {
        let mut g = small();
        g.stream_increment(&[DelEdge((0, 1, 1))]).unwrap();
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
    #[should_panic(expected = "no live copy to update")]
    fn updating_a_nonexistent_edge_is_a_host_bug() {
        let mut g = small();
        g.stream_increment(&[GraphMutation::UpdateWeight { u: 0, v: 1, w: 2 }]).unwrap();
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
