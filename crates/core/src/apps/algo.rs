//! Streaming graph application machinery.
//!
//! [`GraphApp`] is the diffusive application all streaming algorithms share,
//! and it owns every graph action: the runtime underneath intercepts only
//! the continuation pair (`allocate`, `set-future`) and hands everything
//! else to [`GraphApp`]'s `on_action`. It implements:
//!
//! * **`insert-edge-action`** (paper Listing 6): append the edge to the
//!   target object's inline list; on overflow, spill to a ghost slot —
//!   allocating the ghost through a continuation if the slot is Null,
//!   enqueueing on the future if Pending, or forwarding if Ready. After a
//!   successful insert the object announces its value along the new edge
//!   if it has one (Listing 4's "inform the dst vertex ... only if this src
//!   vertex has a valid BFS level").
//! * **the relax action** (paper Listing 5, generalized): monotonically
//!   improve the object's state with the incoming value and, if improved,
//!   diffuse a per-edge value along every local edge and forward the value
//!   itself to the object's ghosts and co-equal rhizome roots so mirrors
//!   converge. A peer root's announcement *is* a relax (Rhizomes,
//!   arXiv:2402.06086): a root re-announces only when it improved, so the
//!   all-peer exchange ends after at most K × (value-chain length) messages.
//! * **`delete-edge-action`**: the decremental counterpart of insert. The
//!   retraction broadcast walks the logical vertex (co-equal rhizome roots
//!   and ghost subtrees); the one object holding the tagged copy removes it
//!   and, if the algorithm propagates, recalls the value it last announced
//!   along that edge with **`retract-action`** — *invalidate, then
//!   re-relax*. A receiver whose state could only have been derived through
//!   the recalled value (conservatively: equal to it) resets and cascades
//!   the recall along its edges, mirrors and peers; over-invalidation is
//!   safe, under-invalidation is not. An object resets at most once per
//!   repair round (a reset state never matches a recalled value again), so
//!   the cascade is bounded by the invalidated region. It records the reset
//!   vertices on-fabric — the one part of the repair frontier only the
//!   fabric can know — so the host can scope the **reseed** wave that
//!   re-announces surviving state to the invalidated region instead of
//!   triggering every vertex.
//! * **`update-weight-action`**: patch one tagged edge copy's weight in
//!   place wherever it is stored. A decrease is announced as a plain relax;
//!   an increase recalls the contribution made under the old weight, so only
//!   paths through the now-costlier edge invalidate and repair.
//! * **`query-action`**: maintain per-object automaton-state bitsets of
//!   registered standing label-constrained path queries. Delivered states
//!   are OR-ed in; only genuinely new ones are stepped along each local
//!   edge's label and forwarded unstepped to mirrors, so a delivery that
//!   adds nothing dies — monotonicity is the termination argument, as for
//!   relax. Deletion repair rides the algorithm's two phases: in the
//!   structural phase the retracting object also sends a **clear**-flagged
//!   query operon to the edge's head, and an object holding query bits
//!   drops them all, records its vertex on the repair frontier and passes
//!   the clear along its edges and to its mirrors (an object with no bits
//!   stops, so the cascade is bounded by the region derived through the
//!   edge); in the repair phase the **reseed** wave re-announces surviving
//!   query bits beside the algorithm value, the host re-seeds each query's
//!   sources, and monotone propagation rebuilds the fixpoint over the
//!   surviving labelled edges.
//!
//! Individual algorithms (BFS, SSSP, connected components, triangles,
//! Jaccard) plug in through the [`VertexAlgo`] trait, which holds only what
//! differs between them. Every leg above announces one value per object,
//! [`VertexAlgo::sync_value`]: along a new edge, in the reseed wave, as a
//! retraction's recall, and to a freshly attached ghost.

use amcca_sim::{ActionId, Address, ExecCtx, Operon, SimError};
use diffusive::{
    allocate_operon, AllocRequest, App, Continuation, FutureLco, PendingOperon, FIRST_USER_ACTION,
};

use crate::query::QueryDfa;
use crate::rpvo::{decode_edge, encode_edge, Edge, RpvoConfig, VertexObj};

/// Action id of `insert-edge-action`.
pub const ACT_INSERT: ActionId = FIRST_USER_ACTION;
/// Action id of the algorithm's relax/diffuse action (`bfs-action` & co).
pub const ACT_RELAX: ActionId = FIRST_USER_ACTION + 1;
/// Action id of `delete-edge-action`: retract one tagged edge copy from the
/// logical vertex's storage and start the deletion-repair diffusion.
pub const ACT_DELETE: ActionId = FIRST_USER_ACTION + 2;
/// Action id of `reseed-action`: after a deletion batch's invalidation wave
/// quiesced, objects with surviving announceable state re-announce it along
/// their local edges so monotone relaxation rebuilds the exact fixpoint over
/// the surviving edge set. The host triggers it either from every vertex
/// (full wave) or only from the recorded repair frontier (targeted).
pub const ACT_RESEED: ActionId = FIRST_USER_ACTION + 3;
/// Action id of `update-weight-action`: patch the weight of one tagged edge
/// copy in place wherever it is stored (root slice, rhizome peer, or ghost
/// spill). A weight decrease announces the improved contribution like an
/// insert; an increase recalls the contribution announced under the old
/// weight, seeding a scoped invalidate+reseed repair.
pub const ACT_UPDATE: ActionId = FIRST_USER_ACTION + 4;
/// Action id of `retract-action`, the deletion-repair recall: a value that
/// previously flowed along a now-retracted edge (or out of a now-invalidated
/// vertex) is recalled, and the receiver resets and cascades if its state
/// was derived through it.
pub const ACT_RETRACT: ActionId = FIRST_USER_ACTION + 5;
/// Action id of `query-action`, the standing-query state diffusion: a set
/// of automaton states (a small bitset) flows along an edge to extend a
/// registered query's product-state frontier — or, flagged as a clear, wipes
/// every query's states from the region derived through a retracted edge.
pub const ACT_QUERY: ActionId = FIRST_USER_ACTION + 6;
/// First action id available to algorithm-specific extras (triangle probes).
pub const ACT_ALGO_BASE: ActionId = FIRST_USER_ACTION + 7;

/// Bit 63 of a walking operon's `payload[0]` (deletes, updates, reseeds,
/// triangle / Jaccard probes and checks) marking that the operon was already
/// fanned across a rhizome's co-equal roots. The first root reached fans a
/// marked copy to each peer so the whole logical vertex is visited exactly
/// once; the fields it carries sit in lower bits, so the flag never collides
/// with them.
pub const QUERY_FANNED_BIT: u64 = 1 << 63;

/// Fan an unmarked walking arrival across a rhizome's co-equal roots: one
/// marked copy of `op` per peer (marked copies never re-fan; `payload[1]` —
/// e.g. Jaccard's pair key — travels along unchanged). No-op on already
/// fanned operons and on objects without peers (ghosts, single roots).
pub(crate) fn fan_query_to_peers<T>(ctx: &mut ExecCtx<'_, T>, op: &Operon, peers: &[Address]) {
    if op.payload[0] & QUERY_FANNED_BIT != 0 {
        return;
    }
    for &p in peers {
        ctx.propagate(Operon::new(p, op.action, [op.payload[0] | QUERY_FANNED_BIT, op.payload[1]]));
    }
}

/// One object's diffusion targets, copied out of cell memory so a handler
/// can propagate while the object is no longer borrowed: its local edges,
/// its Ready ghosts and its co-equal peer roots.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    pub(crate) edges: Vec<Edge>,
    pub(crate) ghosts: Vec<Address>,
    pub(crate) peers: Vec<Address>,
}

impl Scratch {
    /// Copy `obj`'s edges, Ready ghosts and peers. A `waiter` is queued on
    /// every Pending ghost, which receives it once attached; without one,
    /// Pending slots are skipped.
    pub(crate) fn load<S>(&mut self, obj: &mut VertexObj<S>, waiter: Option<PendingOperon>) {
        self.edges.clear();
        self.edges.extend_from_slice(&obj.edges);
        self.peers.clear();
        self.peers.extend_from_slice(obj.peers());
        self.ghosts.clear();
        for g in obj.ghosts.iter_mut() {
            match g {
                FutureLco::Ready(a) => self.ghosts.push(*a),
                FutureLco::Pending(q) => q.extend(waiter),
                FutureLco::Null => {}
            }
        }
    }

    /// One step of a snapshot walk (triangle and Jaccard): load the object
    /// at `op.target`, queueing `op` itself on Pending ghosts, and fan `op`
    /// across co-equal peer roots. Returns the vertex id, or `None` after
    /// reporting a bad address.
    pub(crate) fn visit<S>(
        &mut self,
        ctx: &mut ExecCtx<'_, VertexObj<S>>,
        op: &Operon,
    ) -> Option<u32> {
        let Some(obj) = ctx.obj_mut(op.target.slot) else {
            ctx.fail(SimError::BadAddress { addr: op.target, action: op.action });
            return None;
        };
        self.load(obj, Some(PendingOperon { action: op.action, payload: op.payload }));
        let vid = obj.vid;
        fan_query_to_peers(ctx, op, &self.peers);
        Some(vid)
    }

    /// Pass `op` on unchanged into every Ready ghost subtree.
    pub(crate) fn forward<T>(&self, ctx: &mut ExecCtx<'_, T>, op: &Operon) {
        for &g in &self.ghosts {
            ctx.propagate(Operon::new(g, op.action, op.payload));
        }
    }

    /// The object's mirrors — Ready ghosts, then peer roots — which take a
    /// value unchanged, being parts of the same logical vertex.
    pub(crate) fn mirrors(&self) -> impl Iterator<Item = Address> + '_ {
        self.ghosts.iter().chain(&self.peers).copied()
    }
}

/// A streaming vertex algorithm: per-vertex state plus the semantic hooks of
/// the monotone relax pattern. Values on the wire are `u64` (one payload
/// word); `State` is the per-object representation, and
/// [`Self::sync_value`] the one value an object announces — along a new
/// edge (paper Listing 4), in the reseed wave, as a deletion's recall, and
/// to a fresh ghost.
///
/// Algorithms are `Send` (with `Send` state) so the chip's sharded parallel
/// engine can run one forked instance per mesh shard; any accumulator state
/// an algorithm keeps (e.g. triangle hit counters) must merge commutatively
/// through [`VertexAlgo::merge`] — see `amcca_sim::Program` for the full
/// contract.
pub trait VertexAlgo: Send {
    /// Per-object algorithm state. `Copy` so handlers can snapshot it while
    /// juggling borrows of cell memory.
    type State: Copy + PartialEq + std::fmt::Debug + Send;

    /// `const` variant.
    const NAME: &'static str;

    /// Initial state of root vertex `vid` at graph construction.
    fn root_state(&self, vid: u32) -> Self::State;

    /// Initial state of a freshly allocated ghost of vertex `vid` (mirrors
    /// are synced from the parent right after attachment).
    fn ghost_state(&self, vid: u32) -> Self::State;

    /// Try to improve `s` with an incoming relax value. Must be monotone
    /// (improvements only); return whether `s` changed.
    fn improve(&self, s: &mut Self::State, incoming: u64) -> bool;

    /// Value to diffuse along edge `e` from an object announcing `v`
    /// (BFS: `v + 1`; SSSP: `v + w`; CC: `v`).
    fn along_edge(&self, v: u64, e: &Edge) -> u64;

    /// The value an object in state `s` announces, or `None` if it has
    /// nothing to announce (an unreached BFS vertex, or any object of a
    /// snapshot query). A new edge carries `along_edge` of it.
    fn sync_value(&self, s: &Self::State) -> Option<u64>;

    /// Handle algorithm-specific actions beyond the graph actions.
    fn on_other_action(&mut self, _ctx: &mut ExecCtx<'_, VertexObj<Self::State>>, op: &Operon) {
        panic!("{}: unknown action {}", Self::NAME, op.action);
    }

    /// Create an independent instance for one shard of a parallel run
    /// (configuration copied, accumulators empty).
    fn fork(&self) -> Self
    where
        Self: Sized;

    /// Fold a shard instance's accumulated state back after a parallel run.
    /// The default drops the worker — correct only for algorithms whose
    /// forks accumulate nothing.
    fn merge(&mut self, worker: Self)
    where
        Self: Sized,
    {
        let _ = worker;
    }
}

/// The diffusive application driving any [`VertexAlgo`] over RPVO storage.
pub struct GraphApp<G: VertexAlgo> {
    /// The plugged-in algorithm.
    pub algo: G,
    /// RPVO shape shared by every vertex object.
    pub rcfg: RpvoConfig,
    /// When false, successful inserts do not announce values — the paper's
    /// "disabling the subsequent propagation of bfs-action when an edge is
    /// inserted" used to isolate ingestion time (§5). Fixed when the graph
    /// is built ([`crate::graph::GraphBuilder::propagate`]).
    pub(crate) propagate_algo: bool,
    /// Internal phase gate: during the structural phase of a deletion batch
    /// the host suppresses every improvement source — insert notifications
    /// *and* ghost attach-syncs — because an improvement racing the
    /// invalidation cascade can slip a stale value past the equality test
    /// (the cascade recalls only the *latest* announced value). The phase
    /// is then purely structural: edges move, states only reset. The
    /// subsequent reseed wave re-announces all surviving state, which both
    /// relaxes the new edges and restores mirrors.
    pub(crate) notify_inserts: bool,
    /// Repair-frontier bookkeeping recorded on-fabric during a deletion
    /// batch's structural phase: vertex ids whose algorithm state the
    /// invalidation cascade reset or whose query bits a clear wiped.
    /// Drained by the host after the structural phase to scope the reseed
    /// wave ([`Self::take_invalidated`]). Per-shard instances accumulate
    /// independently and fold back through [`App::merge`] like any other
    /// commutative accumulator; the host sorts + dedups before use, so the
    /// shard-dependent accumulation order never drives output.
    invalidated: Vec<u32>,
    /// Compiled automata of the registered standing queries, indexed by
    /// query id. Registration happens host-side between increments (the
    /// registry lives on the master app; per-shard forks clone it), so the
    /// vector is read-only during a run.
    pub(crate) queries: Vec<QueryDfa>,
    /// `(qid, vid)` pairs recorded whenever a query-bit absorption turned on
    /// an *accepting* automaton state at some object of the vertex — the
    /// candidate set for the host's per-increment result-delta diff.
    /// Duplicates possible (root, peers, and ghosts record independently);
    /// the host dedups and re-checks the primary, so over-recording is
    /// harmless. Commutative accumulator, folded back through [`App::merge`].
    qaccept_touched: Vec<(u32, u32)>,
    scratch: Scratch,
    scratch_queries: Vec<(u32, u32)>,
}

impl<G: VertexAlgo> GraphApp<G> {
    /// Create the application from an algorithm and an RPVO shape, with
    /// the algorithm propagating.
    pub fn new(algo: G, rcfg: RpvoConfig) -> Self {
        rcfg.validate().expect("invalid RPVO configuration");
        GraphApp {
            algo,
            rcfg,
            propagate_algo: true,
            notify_inserts: true,
            invalidated: Vec::new(),
            queries: Vec::new(),
            qaccept_touched: Vec::new(),
            scratch: Scratch::default(),
            scratch_queries: Vec::new(),
        }
    }

    /// Drain the vertex ids invalidated or query-cleared since the last
    /// call, possibly with duplicates (a vertex's root, peers, and ghosts
    /// record independently). The host dedups.
    pub fn take_invalidated(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.invalidated)
    }

    /// Drain the `(qid, vid)` pairs whose accepting automaton bits turned on
    /// since the last call — the candidate half of the host's incremental
    /// result-delta computation (the other half is the query-cleared part
    /// of [`Self::take_invalidated`]). Duplicates possible; the host dedups.
    pub fn take_query_touched(&mut self) -> Vec<(u32, u32)> {
        std::mem::take(&mut self.qaccept_touched)
    }

    /// Listing 6: insert an edge, spilling through ghost futures on overflow.
    fn ingest(&mut self, ctx: &mut ExecCtx<'_, VertexObj<G::State>>, op: &Operon) {
        let target = op.target;
        let edge = decode_edge(op.payload);
        ctx.charge(ctx.cost().insert_edge);
        enum Outcome {
            Inserted(Option<u64>),
            Deferred,
            NeedAlloc { slot: u8, vid: u32 },
            Forward(Address),
        }
        let outcome = {
            let Some(obj) = ctx.obj_mut(target.slot) else {
                ctx.fail(SimError::BadAddress { addr: target, action: ACT_INSERT });
                return;
            };
            if obj.has_room(self.rcfg.edge_cap) {
                obj.edges.push(edge);
                let notify = if self.propagate_algo && self.notify_inserts {
                    self.algo.sync_value(&obj.state).map(|v| self.algo.along_edge(v, &edge))
                } else {
                    None
                };
                // Standing queries: the new edge may extend result paths, so
                // announce this object's stepped automaton states along it
                // (suppressed during structural phases — the reseed wave
                // re-announces from the batch's insert sources).
                self.scratch_queries.clear();
                if self.notify_inserts {
                    load_qbits(obj, self.queries.len(), &mut self.scratch_queries);
                }
                Outcome::Inserted(notify)
            } else {
                // Edge list full: send the edge to a ghost (Listing 6 else-branch).
                let slot = obj.pick_ghost_slot(self.rcfg.ghost_fanout);
                let waiter = PendingOperon { action: ACT_INSERT, payload: op.payload };
                match &mut obj.ghosts[slot] {
                    g @ FutureLco::Null => {
                        // Ghost not allocated yet: set the future to pending
                        // and allocate through a continuation.
                        g.make_pending().expect("Null -> Pending");
                        g.enqueue(waiter).expect("pending enqueue");
                        Outcome::NeedAlloc { slot: slot as u8, vid: obj.vid }
                    }
                    FutureLco::Pending(q) => {
                        // Being fulfilled by a previous continuation:
                        // enqueue the task in the future.
                        q.push(waiter);
                        Outcome::Deferred
                    }
                    FutureLco::Ready(a) => {
                        // Ghost exists: recursively propagate the edge to it.
                        Outcome::Forward(*a)
                    }
                }
            }
        };
        match outcome {
            Outcome::Inserted(notify) => {
                if let Some(v) = notify {
                    ctx.propagate(Operon::new(edge.dst, ACT_RELAX, [v, 0]));
                }
                for &(qid, bits) in &self.scratch_queries {
                    let stepped = self.queries[qid as usize].step(bits, edge.label);
                    if stepped != 0 {
                        ctx.propagate(query_operon(edge.dst, qid, stepped));
                    }
                }
            }
            Outcome::Deferred => {}
            Outcome::Forward(a) => {
                ctx.propagate(Operon::new(a, ACT_INSERT, op.payload));
            }
            Outcome::NeedAlloc { slot, vid } => {
                ctx.charge(ctx.cost().future_op);
                let target_cc = ctx.choose_alloc_target(0);
                let cont = Continuation { return_to: target, slot };
                ctx.propagate(allocate_operon(target_cc, cont, 0, vid as u64));
            }
        }
    }

    /// Listing 5 (generalized): relax the object's state and, if it
    /// improved, diffuse — the per-edge value along every local edge, the
    /// value itself to ghosts and peer roots (queued on Pending ghosts).
    fn relax(&mut self, ctx: &mut ExecCtx<'_, VertexObj<G::State>>, op: &Operon) {
        let incoming = op.payload[0];
        ctx.charge(ctx.cost().state_update);
        let Some(obj) = ctx.obj_mut(op.target.slot) else {
            ctx.fail(SimError::BadAddress { addr: op.target, action: ACT_RELAX });
            return;
        };
        if !self.algo.improve(&mut obj.state, incoming) {
            return;
        }
        self.scratch.load(obj, Some(PendingOperon { action: ACT_RELAX, payload: [incoming, 0] }));
        ctx.charge(ctx.cost().scan_per_edge * self.scratch.edges.len() as u32);
        for e in &self.scratch.edges {
            ctx.propagate(Operon::new(e.dst, ACT_RELAX, [self.algo.along_edge(incoming, e), 0]));
        }
        for a in self.scratch.mirrors() {
            ctx.propagate(Operon::new(a, ACT_RELAX, [incoming, 0]));
        }
    }

    /// The walk `delete-edge-action` and `update-weight-action` share: look
    /// for the `(dst, tag)` copy on this object. On a hit, `edit` changes the
    /// edge list at the copy's index and returns the copy, which comes back
    /// paired with the value this object would announce along it (if the
    /// algorithm propagates). On a miss the operon walks on — a marked copy
    /// to every peer on first arrival at a rhizome root, and into the ready
    /// ghost subtrees — and the result is `None`. Tags are unique among a
    /// pair's live copies, so exactly one object hits.
    ///
    /// Pending ghost slots are skipped: deletions and updates only ever
    /// target edges settled in a previous increment (same-batch adds are
    /// annihilated host-side), and a Pending slot's subtree did not exist
    /// then.
    fn find_copy(
        &mut self,
        ctx: &mut ExecCtx<'_, VertexObj<G::State>>,
        op: &Operon,
        edit: impl FnOnce(&mut Vec<Edge>, usize) -> Edge,
    ) -> Option<(Edge, Option<u64>)> {
        // Both codecs carry the tag in the low byte and the id like an insert.
        let (tag, dst_id, _) = decode_delete(op.payload);
        ctx.charge(ctx.cost().dispatch);
        let Some(obj) = ctx.obj_mut(op.target.slot) else {
            ctx.fail(SimError::BadAddress { addr: op.target, action: op.action });
            return None;
        };
        let scanned = obj.edges.len() as u32;
        let hit = match obj.edges.iter().position(|e| e.dst_id == dst_id && e.tag == tag) {
            Some(i) => {
                let e = edit(&mut obj.edges, i);
                let value =
                    if self.propagate_algo { self.algo.sync_value(&obj.state) } else { None };
                Some((e, value))
            }
            None => {
                self.scratch.load(obj, None);
                None
            }
        };
        ctx.charge(ctx.cost().scan_per_edge * scanned);
        if hit.is_none() {
            fan_query_to_peers(ctx, op, &self.scratch.peers);
            self.scratch.forward(ctx, op);
        }
        hit
    }

    /// `delete-edge-action`: retract one tagged edge copy (see
    /// [`Self::find_copy`]; the payload weight is advisory — a host-coalesced
    /// same-batch re-weight can leave the stored weight behind the host's).
    /// Order-preserving removal keeps the surviving edge list deterministic
    /// for later scans and walks. The remover recalls the best value it ever
    /// announced along the edge — at the *stored* weight — seeding the
    /// invalidation cascade: the destination invalidates iff its state could
    /// only have come from it. With standing queries registered it also
    /// sends the destination a query clear: any query state there may have
    /// been derived along the edge.
    fn retract_edge(&mut self, ctx: &mut ExecCtx<'_, VertexObj<G::State>>, op: &Operon) {
        let Some((e, recall)) = self.find_copy(ctx, op, |edges, i| edges.remove(i)) else {
            return;
        };
        ctx.charge(ctx.cost().delete_edge);
        if let Some(v) = recall {
            ctx.propagate(retract_operon(e.dst, self.algo.along_edge(v, &e)));
        }
        if !self.queries.is_empty() {
            ctx.propagate(query_clear_operon(e.dst));
        }
    }

    /// `retract-action`, the deletion-repair invalidation: if the object's
    /// state could only have been derived through the recalled value — its
    /// announced value equals the recall; monotone relaxation keeps a state
    /// at most as good as any announcement it absorbed, so a strictly
    /// better one had independent support — reset it and cascade, along
    /// local edges with the value this object would have announced, and to
    /// mirrors and peers with the old value itself. Over-invalidation is
    /// safe (the reseed wave restores it).
    /// A reset object records its vertex on the repair frontier
    /// ([`Self::take_invalidated`]); an object that rejects the recall
    /// records nothing — it can re-feed the invalidated region only along
    /// an edge into it, which makes it an in-neighbour the host joins from
    /// its log.
    fn invalidate(&mut self, ctx: &mut ExecCtx<'_, VertexObj<G::State>>, op: &Operon) {
        let suspect = op.payload[0];
        ctx.charge(ctx.cost().invalidate);
        let Some(obj) = ctx.obj_mut(op.target.slot) else {
            ctx.fail(SimError::BadAddress { addr: op.target, action: ACT_RETRACT });
            return;
        };
        if self.algo.sync_value(&obj.state) != Some(suspect) {
            // Rejected recall: this object's state has independent support.
            return;
        }
        let reset = self.algo.root_state(obj.vid);
        if reset == obj.state {
            // Self-supported state (e.g. the BFS source, a CC vertex at its
            // own label): nothing to invalidate.
            return;
        }
        obj.state = reset;
        self.invalidated.push(obj.vid);
        // The object announced `suspect`, so its mirrors — Pending ghosts
        // too — take the same recall.
        self.scratch.load(obj, Some(PendingOperon { action: ACT_RETRACT, payload: [suspect, 0] }));
        ctx.charge(ctx.cost().frontier_mark);
        ctx.charge(ctx.cost().scan_per_edge * self.scratch.edges.len() as u32);
        for e in &self.scratch.edges {
            ctx.propagate(retract_operon(e.dst, self.algo.along_edge(suspect, e)));
        }
        for a in self.scratch.mirrors() {
            ctx.propagate(retract_operon(a, suspect));
        }
    }

    /// `update-weight-action`: patch one tagged edge copy's weight in place
    /// (see [`Self::find_copy`]).
    ///
    /// If the algorithm propagates, a weight **decrease** in a single-phase
    /// batch announces the improved contribution along the edge like an
    /// insert would; an **increase** recalls the contribution this object
    /// announced under the *old* weight, seeding the invalidation cascade
    /// for exactly the paths that relied on the cheaper edge. During a
    /// *structural* phase every patch — decrease included — recalls the old
    /// contribution instead: the patch rewrites the weight any concurrent
    /// invalidation cascade will scan, so downstream state derived under
    /// the old weight would no longer match the cascade's recall values and
    /// survive stale (under-invalidation). Recalling at patch time — while
    /// this object still holds its settled state — invalidates it
    /// conservatively; the reseed wave re-derives everything at the new
    /// weight.
    fn update_edge_weight(&mut self, ctx: &mut ExecCtx<'_, VertexObj<G::State>>, op: &Operon) {
        let (_, _, w_old, w_new, raised) = decode_update_weight(op.payload);
        let patch = |edges: &mut Vec<Edge>, i: usize| {
            debug_assert_eq!(edges[i].w, w_old, "host and fabric agree on weight");
            edges[i].w = w_new;
            edges[i]
        };
        let Some((e, value)) = self.find_copy(ctx, op, patch) else { return };
        ctx.charge(ctx.cost().update_weight);
        let Some(v) = value else { return };
        if raised || !self.notify_inserts {
            // Recall the best value announced under the old weight;
            // destinations that relied on it invalidate.
            let old_e = Edge { w: w_old, ..e };
            ctx.propagate(retract_operon(e.dst, self.algo.along_edge(v, &old_e)));
        } else {
            // Cheaper edge, single-phase batch: a plain monotone relax
            // suffices.
            ctx.propagate(Operon::new(e.dst, ACT_RELAX, [self.algo.along_edge(v, &e), 0]));
        }
    }

    /// `reseed-action`: after the structural phase quiesced, re-announce
    /// this object's surviving state along its local edges — the algorithm
    /// value if the algorithm propagates, and every held query bitset
    /// stepped through each edge's label — push the value to mirrors
    /// (restoring ghosts that were reset or freshly attached un-synced), and
    /// walk the rest of the logical vertex — ghost subtrees re-announce
    /// their own edge slices, and on first arrival at a rhizome root a
    /// marked copy fans to every peer. Objects with nothing to announce stay
    /// silent; ordinary monotone relaxation and query absorption rebuild the
    /// exact fixpoints. (Query mirrors need no sync here: a clear wipes a
    /// whole logical vertex, and re-derived bits reach its mirrors through
    /// [`Self::absorb_query_bits`].)
    fn reseed(&mut self, ctx: &mut ExecCtx<'_, VertexObj<G::State>>, op: &Operon) {
        ctx.charge(ctx.cost().reseed);
        let Some(obj) = ctx.obj_mut(op.target.slot) else {
            ctx.fail(SimError::BadAddress { addr: op.target, action: ACT_RESEED });
            return;
        };
        let value = if self.propagate_algo { self.algo.sync_value(&obj.state) } else { None };
        load_qbits(obj, self.queries.len(), &mut self.scratch_queries);
        if value.is_none() && self.scratch_queries.is_empty() {
            return;
        }
        self.scratch.load(obj, None);
        fan_query_to_peers(ctx, op, &self.scratch.peers);
        ctx.charge(ctx.cost().scan_per_edge * self.scratch.edges.len() as u32);
        for e in &self.scratch.edges {
            if let Some(v) = value {
                ctx.propagate(Operon::new(e.dst, ACT_RELAX, [self.algo.along_edge(v, e), 0]));
            }
            for &(qid, bits) in &self.scratch_queries {
                let stepped = self.queries[qid as usize].step(bits, e.label);
                if stepped != 0 {
                    ctx.propagate(query_operon(e.dst, qid, stepped));
                }
            }
        }
        for &g in &self.scratch.ghosts {
            // Mirror sync first (relax the ghost to this object's value),
            // then let the ghost re-announce its own slice.
            if let Some(v) = value {
                ctx.propagate(Operon::new(g, ACT_RELAX, [v, 0]));
            }
            ctx.propagate(Operon::new(g, ACT_RESEED, op.payload));
        }
    }

    /// Monotone leg of `query-action`: OR the delivered automaton states
    /// into the object's bitset and, if any are genuinely new, step them
    /// through the query's automaton along every local edge's label, forward
    /// them *unstepped* to mirrors (ghosts are part of the same logical
    /// vertex) and co-equal peer roots, and enqueue them on pending ghost
    /// futures. States only ever accumulate, so the diffusion reaches the
    /// reachability fixpoint and quiesces.
    fn absorb_query_bits(&mut self, ctx: &mut ExecCtx<'_, VertexObj<G::State>>, op: &Operon) {
        let (qid, bits) = (op.payload[0] as u32, op.payload[1] as u32);
        ctx.charge(ctx.cost().state_update);
        let Some(obj) = ctx.obj_mut(op.target.slot) else {
            ctx.fail(SimError::BadAddress { addr: op.target, action: ACT_QUERY });
            return;
        };
        let new = obj.qbits_or(qid, bits);
        if new == 0 {
            return;
        }
        let vid = obj.vid;
        self.scratch.load(
            obj,
            Some(PendingOperon { action: ACT_QUERY, payload: [qid as u64, new as u64] }),
        );
        let Some(dfa) = self.queries.get(qid as usize) else { return };
        if new & dfa.accepting_bits() != 0 {
            // An accepting state just turned on somewhere in this vertex's
            // object tree: flag the vertex as a result-delta candidate. Bits
            // are monotone within a run, so the candidate set is exactly the
            // end-minus-start accepting transition set — deterministic and
            // shard-independent.
            self.qaccept_touched.push((qid, vid));
        }
        ctx.charge(ctx.cost().scan_per_edge * self.scratch.edges.len() as u32);
        for e in &self.scratch.edges {
            let stepped = dfa.step(new, e.label);
            if stepped != 0 {
                ctx.propagate(query_operon(e.dst, qid, stepped));
            }
        }
        for a in self.scratch.mirrors() {
            ctx.propagate(query_operon(a, qid, new));
        }
    }

    /// Clear leg of `query-action`, the query plane's invalidation: an
    /// object holding any query bits drops them all, records its vertex on
    /// the repair frontier ([`Self::take_invalidated`]), and passes the
    /// clear along every stored edge, to its mirrors and peers, and onto
    /// Pending ghost futures. An object with no bits stops it: no state
    /// could have been derived through it. Over-clearing is safe — the
    /// reseed wave re-derives whatever survives — and an object clears at
    /// most once per structural phase (no bits arrive there but a fresh
    /// ghost's copy of its parent's, ahead of any clear), so the cascade is
    /// bounded by the cleared region.
    ///
    /// Soundness: a state derived through a deleted edge was carried from
    /// the edge's head by a chain of objects that all held bits, so the
    /// clear the retraction sends follows that chain and wipes it.
    /// Completeness: the reseed frontier holds every cleared vertex, its
    /// surviving in-neighbours and the batch's insert and re-weight
    /// sources, and the host re-seeds each query's sources, so the first
    /// missing state on any surviving derivation path is re-fed and
    /// monotone absorption rebuilds the rest.
    fn clear_queries(&mut self, ctx: &mut ExecCtx<'_, VertexObj<G::State>>, op: &Operon) {
        ctx.charge(ctx.cost().invalidate);
        let Some(obj) = ctx.obj_mut(op.target.slot) else {
            ctx.fail(SimError::BadAddress { addr: op.target, action: ACT_QUERY });
            return;
        };
        if !obj.clear_qbits() {
            return;
        }
        self.invalidated.push(obj.vid);
        self.scratch.load(obj, Some(PendingOperon { action: ACT_QUERY, payload: op.payload }));
        ctx.charge(ctx.cost().frontier_mark);
        ctx.charge(ctx.cost().scan_per_edge * self.scratch.edges.len() as u32);
        for e in &self.scratch.edges {
            ctx.propagate(query_clear_operon(e.dst));
        }
        for a in self.scratch.mirrors() {
            ctx.propagate(query_clear_operon(a));
        }
    }
}

impl<G: VertexAlgo> App for GraphApp<G> {
    type Object = VertexObj<G::State>;

    fn fork(&self) -> Self {
        GraphApp {
            algo: self.algo.fork(),
            rcfg: self.rcfg,
            propagate_algo: self.propagate_algo,
            notify_inserts: self.notify_inserts,
            invalidated: Vec::new(),
            queries: self.queries.clone(),
            qaccept_touched: Vec::new(),
            scratch: Scratch::default(),
            scratch_queries: Vec::new(),
        }
    }

    fn merge(&mut self, worker: Self) {
        self.algo.merge(worker.algo);
        self.invalidated.extend(worker.invalidated);
        self.qaccept_touched.extend(worker.qaccept_touched);
    }

    fn construct(&mut self, req: &AllocRequest) -> Self::Object {
        let vid = req.tag as u32;
        VertexObj::ghost(vid, self.algo.ghost_state(vid))
    }

    fn fulfill(
        &mut self,
        ctx: &mut ExecCtx<'_, Self::Object>,
        target: Address,
        slot: u8,
        value: Address,
    ) {
        let (waiters, sync) = {
            let Some(obj) = ctx.obj_mut(target.slot) else {
                ctx.fail(SimError::BadAddress { addr: target, action: diffusive::ACT_SET_FUTURE });
                return;
            };
            let waiters = match obj.ghosts[slot as usize].fulfill(value) {
                Ok(w) => w,
                Err(_) => {
                    ctx.fail(SimError::BadAddress {
                        addr: target,
                        action: diffusive::ACT_SET_FUTURE,
                    });
                    return;
                }
            };
            // Replicate standing-query state to the fresh mirror. Unlike the
            // algorithm sync below this is *not* phase-gated, although query
            // clears race the structural phase: operons between one pair of
            // cells arrive in order, and the fresh ghost hears only from
            // this parent (edges name roots). If a clear passed the parent
            // first, there is nothing left to copy and the clear itself is
            // among the waiters; if it comes later, the parent forwards it
            // to the now-Ready ghost behind these bits. Either way a clear
            // always follows the bits it chases, so replication cannot
            // resurrect a cleared state.
            load_qbits(obj, self.queries.len(), &mut self.scratch_queries);
            (waiters, self.algo.sync_value(&obj.state))
        };
        for &(qid, bits) in &self.scratch_queries {
            ctx.propagate(query_operon(value, qid, bits));
        }
        // Sync the fresh mirror with the parent's current state first, so a
        // ghost created after the vertex was reached still diffuses. (The
        // structural phase of a deletion batch suppresses this too — see
        // `notify_inserts`; the reseed wave restores the mirror instead.)
        if self.propagate_algo && self.notify_inserts {
            if let Some(v) = sync {
                ctx.propagate(Operon::new(value, ACT_RELAX, [v, 0]));
            }
        }
        for w in waiters {
            ctx.propagate(w.into_operon(value));
        }
    }

    fn on_action(&mut self, ctx: &mut ExecCtx<'_, Self::Object>, op: &Operon) {
        match op.action {
            ACT_INSERT => self.ingest(ctx, op),
            ACT_RELAX => self.relax(ctx, op),
            ACT_DELETE => self.retract_edge(ctx, op),
            ACT_RESEED => self.reseed(ctx, op),
            ACT_UPDATE => self.update_edge_weight(ctx, op),
            ACT_RETRACT => self.invalidate(ctx, op),
            ACT_QUERY if op.payload[0] & QUERY_CLEAR != 0 => self.clear_queries(ctx, op),
            ACT_QUERY => self.absorb_query_bits(ctx, op),
            _ => self.algo.on_other_action(ctx, op),
        }
    }
}

/// Build an insert-edge operon targeting `src_root` carrying `edge`.
pub fn insert_operon(src_root: Address, edge: &Edge) -> Operon {
    Operon::new(src_root, ACT_INSERT, encode_edge(edge))
}

/// Build a delete-edge operon: retract the copy of `src → dst_id` with
/// weight `w` and copy tag `tag` from the logical vertex whose (primary)
/// root is `src_root`. `payload[0]` carries the tag (low byte) and the
/// rhizome fan marker ([`QUERY_FANNED_BIT`]); `payload[1]` = id ‖ weight,
/// exactly like an insert.
pub fn delete_operon(src_root: Address, dst_id: u32, w: u32, tag: u8) -> Operon {
    Operon::new(src_root, ACT_DELETE, [tag as u64, ((dst_id as u64) << 32) | w as u64])
}

/// Decode a delete-edge operon payload into `(tag, dst_id, w)`.
pub fn decode_delete(payload: [u64; 2]) -> (u8, u32, u32) {
    (payload[0] as u8, (payload[1] >> 32) as u32, payload[1] as u32)
}

/// Build a recall of `suspect` — the value that previously flowed to the
/// object at `target` and is no longer supported (`payload[0]`).
pub fn retract_operon(target: Address, suspect: u64) -> Operon {
    Operon::new(target, ACT_RETRACT, [suspect, 0])
}

/// Bit 32 of a query operon's `payload[0]`: a deletion-repair clear (wipe
/// every query's states, cascading) rather than a monotone state delivery.
/// Sits above the query id (bits 0..32).
const QUERY_CLEAR: u64 = 1 << 32;

/// Build a monotone query-state delivery: automaton states `bits` of query
/// `qid` flow to the vertex object at `target` (`payload` = qid, bits).
pub fn query_operon(target: Address, qid: u32, bits: u32) -> Operon {
    Operon::new(target, ACT_QUERY, [qid as u64, bits as u64])
}

/// Build a deletion-repair query clear for the vertex object at `target`.
fn query_clear_operon(target: Address) -> Operon {
    Operon::new(target, ACT_QUERY, [QUERY_CLEAR, 0])
}

/// Copy `obj`'s non-empty query bitsets, as `(qid, bits)`, into `out`.
pub(crate) fn load_qbits<S>(obj: &VertexObj<S>, n_queries: usize, out: &mut Vec<(u32, u32)>) {
    out.clear();
    out.extend((0..n_queries as u32).map(|q| (q, obj.qbits_get(q))).filter(|&(_, b)| b != 0));
}

/// Bit 62 of an update-weight operon's `payload[0]`: set when the update is
/// a weight *increase* (invalidate+reseed repair path) rather than a
/// decrease (plain relax). Sits below the rhizome fan marker
/// ([`QUERY_FANNED_BIT`], bit 63) and above the old weight (bits 16..48).
const UPDATE_RAISED_BIT: u64 = 1 << 62;

/// Build an update-weight operon: patch the copy of `src → dst_id` carrying
/// copy tag `tag` from weight `w_old` to `w_new` on the logical vertex whose
/// (primary) root is `src_root`. `payload[0]` carries the tag (low byte),
/// the old weight (bits 16..48), the increase flag (bit 62),
/// and the rhizome fan marker; `payload[1]` = id ‖ new weight, exactly like
/// an insert.
pub fn update_weight_operon(
    src_root: Address,
    dst_id: u32,
    w_old: u32,
    w_new: u32,
    tag: u8,
) -> Operon {
    let raised = if w_new > w_old { UPDATE_RAISED_BIT } else { 0 };
    Operon::new(
        src_root,
        ACT_UPDATE,
        [(tag as u64) | ((w_old as u64) << 16) | raised, ((dst_id as u64) << 32) | w_new as u64],
    )
}

/// Decode an update-weight operon payload into
/// `(tag, dst_id, w_old, w_new, raised)`.
pub fn decode_update_weight(payload: [u64; 2]) -> (u8, u32, u32, u32, bool) {
    (
        payload[0] as u8,
        (payload[1] >> 32) as u32,
        (payload[0] >> 16) as u32,
        payload[1] as u32,
        payload[0] & UPDATE_RAISED_BIT != 0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpvo::walk;
    use amcca_sim::{Chip, ChipConfig};
    use diffusive::Runtime;

    /// A no-op algorithm: ingestion only, no relax traffic.
    pub struct NullAlgo;

    impl VertexAlgo for NullAlgo {
        type State = ();
        const NAME: &'static str = "null";
        fn fork(&self) -> Self {
            NullAlgo
        }
        fn root_state(&self, _vid: u32) {}
        fn ghost_state(&self, _vid: u32) {}
        fn improve(&self, _s: &mut (), _incoming: u64) -> bool {
            false
        }
        fn along_edge(&self, _v: u64, _e: &Edge) -> u64 {
            0
        }
        fn sync_value(&self, _s: &()) -> Option<u64> {
            None
        }
    }

    type NullChip = Chip<Runtime<GraphApp<NullAlgo>>>;

    fn chip(rcfg: RpvoConfig) -> NullChip {
        let cfg = ChipConfig::small_test();
        let retries = cfg.max_alloc_retries;
        Chip::new(cfg, Runtime::new(GraphApp::new(NullAlgo, rcfg), retries))
    }

    fn stream_edges(chip: &mut NullChip, src: Address, n: u32) {
        let ops: Vec<Operon> =
            (0..n).map(|i| insert_operon(src, &Edge::new(Address::new(0, 999), 999, i))).collect();
        chip.io_load(ops);
        chip.run_until_quiescent().unwrap();
    }

    #[test]
    fn edges_within_capacity_stay_in_root() {
        let mut c = chip(RpvoConfig::basic(8, 2));
        let root = c.host_alloc(20, VertexObj::root(0, ())).unwrap();
        stream_edges(&mut c, root, 8);
        let obj = c.object(root).unwrap();
        assert_eq!(obj.edges.len(), 8);
        assert_eq!(obj.ready_ghosts().count(), 0);
        assert_eq!(c.counters().allocs, 0);
    }

    #[test]
    fn overflow_spills_to_ghosts_without_losing_edges() {
        let mut c = chip(RpvoConfig::basic(4, 2));
        let root = c.host_alloc(20, VertexObj::root(0, ())).unwrap();
        let n = 50;
        stream_edges(&mut c, root, n);
        let mut ws: Vec<u32> =
            walk::collect_edges(root, |a| c.object(a)).iter().map(|e| e.w).collect();
        ws.sort_unstable();
        assert_eq!(ws, (0..n).collect::<Vec<u32>>(), "every edge exactly once");
        let objs = walk::collect_objects(root, |a| c.object(a));
        assert!(objs.len() >= (n as usize).div_ceil(4), "enough objects for all edges");
        for a in &objs {
            assert!(c.object(*a).unwrap().edges.len() <= 4, "capacity respected everywhere");
        }
        assert!(c.counters().allocs as usize == objs.len() - 1);
    }

    #[test]
    fn ghosts_obey_vicinity_placement() {
        let mut c = chip(RpvoConfig::basic(2, 2));
        let root_cc = 36u16; // interior cell of the 8x8 mesh
        let root = c.host_alloc(root_cc, VertexObj::root(0, ())).unwrap();
        stream_edges(&mut c, root, 30);
        let dims = c.cfg().dims;
        // Every parent->ghost link must span at most 2 hops.
        for a in walk::collect_objects(root, |x| c.object(x)) {
            for g in c.object(a).unwrap().ready_ghosts() {
                assert!(dims.distance(a.cc, g.cc) <= 2, "vicinity violated {a} -> {g}");
            }
        }
    }

    #[test]
    fn ghost_fanout_spreads_spill_subtrees() {
        let mut c = chip(RpvoConfig::basic(2, 2));
        let root = c.host_alloc(10, VertexObj::root(0, ())).unwrap();
        stream_edges(&mut c, root, 40);
        let obj = c.object(root).unwrap();
        assert_eq!(obj.ready_ghosts().count(), 2, "both ghost slots engaged");
    }

    #[test]
    fn rpvo_depth_grows_logarithmically_with_fanout_two() {
        let mut c = chip(RpvoConfig::basic(2, 2));
        let root = c.host_alloc(10, VertexObj::root(0, ())).unwrap();
        stream_edges(&mut c, root, 62); // 31 objects needed
        let d = walk::depth(root, |a| c.object(a));
        // A balanced binary spill tree of 31 nodes has depth 5; allow slack
        // for arbitration skew but reject a degenerate chain.
        assert!(d <= 10, "depth {d} suggests a chain, not a tree");
    }

    #[test]
    fn deterministic_ingestion() {
        let run = || {
            let mut c = chip(RpvoConfig::basic(4, 2));
            let root = c.host_alloc(20, VertexObj::root(0, ())).unwrap();
            stream_edges(&mut c, root, 40);
            (c.cycle(), *c.counters())
        };
        assert_eq!(run(), run());
    }
}
