//! Streaming graph application machinery.
//!
//! [`GraphApp`] is the diffusive application all streaming algorithms share.
//! It implements:
//!
//! * **`insert-edge-action`** (paper Listing 6): append the edge to the
//!   target object's inline list; on overflow, spill to a ghost slot —
//!   allocating the ghost through a continuation if the slot is Null,
//!   enqueueing on the future if Pending, or forwarding if Ready. After a
//!   successful insert the algorithm may announce a value along the new edge
//!   (Listing 4's "inform the dst vertex ... only if this src vertex has a
//!   valid BFS level").
//! * **the relax action** (paper Listing 5, generalized): monotonically
//!   improve the object's state with the incoming value and, if improved,
//!   diffuse a per-edge value along every local edge and forward the value to
//!   the object's ghosts so mirrors converge.
//! * **`delete-edge-action`**: the decremental counterpart of insert. The
//!   retraction broadcast walks the logical vertex (co-equal rhizome roots
//!   and ghost subtrees); the one object holding the tagged copy removes it
//!   and, if the algorithm propagates, recalls the value it last announced
//!   along that edge with the `retract` system diffusion
//!   ([`diffusive::retract`]) — derived downstream state invalidates and is
//!   later rebuilt by a **reseed** wave re-announcing surviving state. The
//!   cascade records the repair frontier on-fabric (reset objects plus
//!   recall-rejecting survivors) so the host can scope the reseed to the
//!   invalidated region instead of triggering every vertex.
//! * **`update-weight-action`**: patch one tagged edge copy's weight in
//!   place wherever it is stored. A decrease is announced as a plain relax;
//!   an increase recalls the contribution made under the old weight, so only
//!   paths through the now-costlier edge invalidate and repair.
//! * **the query system action** ([`diffusive::query`]): maintain per-object
//!   automaton-state bitsets of registered standing label-constrained path
//!   queries — a monotone OR-and-step diffusion on inserts plus a reseed
//!   walk re-announcing surviving states during deletion repair.
//!
//! Individual algorithms (BFS, SSSP, connected components, triangles) plug in
//! through the [`VertexAlgo`] trait.

use amcca_sim::{ActionId, Address, ExecCtx, Operon, SimError};
use diffusive::{
    allocate_operon, query_operon, query_reseed_operon, AllocRequest, App, Continuation, FutureLco,
    PendingOperon, QUERY_ALL, QUERY_RESEED_FANNED,
};

use crate::query::QueryDfa;
use crate::rpvo::{decode_edge, encode_edge, Edge, RpvoConfig, VertexObj};

/// Action id of `insert-edge-action`.
pub const ACT_INSERT: ActionId = diffusive::FIRST_USER_ACTION;
/// Action id of the algorithm's relax/diffuse action (`bfs-action` & co).
pub const ACT_RELAX: ActionId = diffusive::FIRST_USER_ACTION + 1;
/// Action id of `delete-edge-action`: retract one tagged edge copy from the
/// logical vertex's storage and start the deletion-repair diffusion.
pub const ACT_DELETE: ActionId = diffusive::FIRST_USER_ACTION + 2;
/// Action id of `reseed-action`: after a deletion batch's invalidation wave
/// quiesced, objects with surviving announceable state re-announce it along
/// their local edges so monotone relaxation rebuilds the exact fixpoint over
/// the surviving edge set. The host triggers it either from every vertex
/// (full wave) or only from the recorded repair frontier (targeted).
pub const ACT_RESEED: ActionId = diffusive::FIRST_USER_ACTION + 3;
/// Action id of `update-weight-action`: patch the weight of one tagged edge
/// copy in place wherever it is stored (root slice, rhizome peer, or ghost
/// spill). A weight decrease announces the improved contribution like an
/// insert; an increase recalls the contribution announced under the old
/// weight, seeding a scoped invalidate+reseed repair.
pub const ACT_UPDATE: ActionId = diffusive::FIRST_USER_ACTION + 4;
/// First action id available to algorithm-specific extras (triangle probes).
pub const ACT_ALGO_BASE: ActionId = diffusive::FIRST_USER_ACTION + 5;

/// Bit 63 of a *query* operon's `payload[0]` (triangle / Jaccard probes and
/// checks) marking that the operon was already fanned across a rhizome's
/// co-equal roots. The first root reached fans a marked copy to each peer so
/// the whole logical adjacency is visited exactly once; vertex ids are 32-bit,
/// so the flag never collides with the carried id.
pub const QUERY_FANNED_BIT: u64 = 1 << 63;

/// Fan an unmarked query arrival across a rhizome's co-equal roots: one
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

/// A streaming vertex algorithm: per-vertex state plus the semantic hooks of
/// the monotone relax pattern. Values on the wire are `u64` (one payload
/// word); `State` is the per-object representation.
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

    /// Value to diffuse along edge `e` after this object improved to `v`
    /// (BFS: `v + 1`; SSSP: `v + w`; CC: `v`).
    fn along_edge(&self, v: u64, e: &Edge) -> u64;

    /// Value to announce along a *newly inserted* edge given the inserting
    /// object's state, or `None` to stay silent (BFS: `level + 1` if the
    /// level is valid).
    fn notify_on_insert(&self, s: &Self::State, e: &Edge) -> Option<u64>;

    /// Current state as a sync value for a freshly attached ghost (`None`
    /// if there is nothing to sync, e.g. an unreached BFS vertex).
    fn sync_value(&self, s: &Self::State) -> Option<u64>;

    /// Deletion-repair suspicion test: could state `s` only have been
    /// derived through a retracted announcement of `suspect`? Monotone
    /// relaxation guarantees `s`'s wire value is at most as good as any
    /// announcement it absorbed, so the conservative default — equality with
    /// the *best* (latest) value the retracted source announced — never
    /// under-invalidates: a strictly better state had independent support.
    /// Over-invalidation is safe (the reseed wave restores it).
    fn retract_match(&self, s: &Self::State, suspect: u64) -> bool {
        self.sync_value(s) == Some(suspect)
    }

    /// Handle algorithm-specific actions beyond insert/relax.
    fn on_other_action(
        &mut self,
        ctx: &mut ExecCtx<'_, VertexObj<Self::State>>,
        op: &Operon,
        rcfg: &RpvoConfig,
    ) {
        let _ = (ctx, rcfg);
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
    /// inserted" used to isolate ingestion time (§5).
    pub propagate_algo: bool,
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
    /// batch's invalidation cascade: vertex ids whose state was reset.
    /// Drained by the host after the structural phase to scope the reseed
    /// wave ([`Self::take_repair_sets`]). Per-shard instances accumulate
    /// independently and fold back through [`App::merge`] like any other
    /// commutative accumulator; the host sorts + dedups before use, so the
    /// shard-dependent accumulation order never drives output.
    invalidated: Vec<u32>,
    /// Vertex ids that *rejected* a recall while holding announceable state —
    /// survivors adjacent to the invalidated region, the other half of the
    /// recorded repair frontier.
    rejected: Vec<u32>,
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
    scratch_edges: Vec<Edge>,
    scratch_ghosts: Vec<Address>,
    scratch_peers: Vec<Address>,
    scratch_queries: Vec<(u32, u32)>,
}

impl<G: VertexAlgo> GraphApp<G> {
    /// Create the application from an algorithm, an RPVO shape, and the propagate-on-insert flag.
    pub fn new(algo: G, rcfg: RpvoConfig, propagate_algo: bool) -> Self {
        rcfg.validate().expect("invalid RPVO configuration");
        GraphApp {
            algo,
            rcfg,
            propagate_algo,
            notify_inserts: true,
            invalidated: Vec::new(),
            rejected: Vec::new(),
            queries: Vec::new(),
            qaccept_touched: Vec::new(),
            scratch_edges: Vec::new(),
            scratch_ghosts: Vec::new(),
            scratch_peers: Vec::new(),
            scratch_queries: Vec::new(),
        }
    }

    /// Drain the repair frontier recorded since the last call:
    /// `(invalidated vertex ids, recall-rejecting vertex ids)`, each possibly
    /// containing duplicates (a vertex's root, peers, and ghosts record
    /// independently). The host dedups.
    pub fn take_repair_sets(&mut self) -> (Vec<u32>, Vec<u32>) {
        (std::mem::take(&mut self.invalidated), std::mem::take(&mut self.rejected))
    }

    /// Drain the `(qid, vid)` pairs whose accepting automaton bits turned on
    /// since the last call — the candidate half of the host's incremental
    /// result-delta computation (the other half is the repair-cleared
    /// region). Duplicates possible; the host dedups.
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
                    self.algo.notify_on_insert(&obj.state, &edge)
                } else {
                    None
                };
                // Standing queries: the new edge may extend result paths, so
                // announce this object's stepped automaton states along it
                // (suppressed during structural phases — the query repair
                // pass re-announces from the batch's touched sources).
                self.scratch_queries.clear();
                if self.notify_inserts {
                    for (qid, dfa) in self.queries.iter().enumerate() {
                        let bits = obj.qbits_get(qid as u32);
                        if bits != 0 {
                            let stepped = dfa.step(bits, edge.label);
                            if stepped != 0 {
                                self.scratch_queries.push((qid as u32, stepped));
                            }
                        }
                    }
                }
                Outcome::Inserted(notify)
            } else {
                // Edge list full: send the edge to a ghost (Listing 6 else-branch).
                let slot = obj.pick_ghost_slot();
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
                for i in 0..self.scratch_queries.len() {
                    let (qid, stepped) = self.scratch_queries[i];
                    ctx.propagate(query_operon(edge.dst, qid, stepped));
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

    /// Listing 5 (generalized): relax the object's state and diffuse. Shared
    /// by the relax action proper and the cross-rhizome sync action (a peer
    /// root's announcement is semantically a relax; `action` only labels
    /// errors).
    fn relax_value(
        &mut self,
        ctx: &mut ExecCtx<'_, VertexObj<G::State>>,
        target: Address,
        incoming: u64,
        action: ActionId,
    ) {
        ctx.charge(ctx.cost().state_update);
        let improved = {
            let Some(obj) = ctx.obj_mut(target.slot) else {
                ctx.fail(SimError::BadAddress { addr: target, action });
                return;
            };
            if self.algo.improve(&mut obj.state, incoming) {
                // Snapshot diffusion targets while the object is borrowed.
                self.scratch_edges.clear();
                self.scratch_edges.extend_from_slice(&obj.edges);
                self.scratch_peers.clear();
                self.scratch_peers.extend_from_slice(&obj.peers);
                self.scratch_ghosts.clear();
                for g in obj.ghosts.iter_mut() {
                    match g {
                        FutureLco::Ready(a) => self.scratch_ghosts.push(*a),
                        FutureLco::Pending(q) => {
                            // Mirror sync will reach the ghost once attached.
                            q.push(PendingOperon { action: ACT_RELAX, payload: [incoming, 0] });
                        }
                        FutureLco::Null => {}
                    }
                }
                true
            } else {
                false
            }
        };
        if improved {
            ctx.charge(ctx.cost().scan_per_edge * self.scratch_edges.len() as u32);
            for i in 0..self.scratch_edges.len() {
                let e = self.scratch_edges[i];
                let v = self.algo.along_edge(incoming, &e);
                ctx.propagate(Operon::new(e.dst, ACT_RELAX, [v, 0]));
            }
            // Forward the improved value to ghost mirrors (same level, not
            // level+1: ghosts are part of the same logical vertex).
            for i in 0..self.scratch_ghosts.len() {
                let g = self.scratch_ghosts[i];
                ctx.propagate(Operon::new(g, ACT_RELAX, [incoming, 0]));
            }
            // Announce the improvement to co-equal rhizome roots so every
            // root (and through it, every edge slice) converges. Monotone
            // improvement bounds the exchange: a root only re-announces when
            // it actually improved, so the peer traffic terminates.
            for i in 0..self.scratch_peers.len() {
                let p = self.scratch_peers[i];
                ctx.propagate(diffusive::sync_operon(p, incoming));
            }
        }
    }

    /// `delete-edge-action`: retract one tagged edge copy. The broadcast
    /// visits the logical vertex's objects — on first arrival at a rhizome
    /// root a marked copy fans to every peer, and misses forward into the
    /// ready ghost subtrees. Exactly one object holds the `(dst, tag)` copy
    /// (tags are unique among a pair's live copies — the payload weight is
    /// advisory: a host-coalesced same-batch re-weight can leave the stored
    /// weight behind the host's), so exactly one removal happens; every
    /// other arrival dies silently. The remover recalls the value it last
    /// announced along the edge — at the *stored* weight — seeding the
    /// invalidation cascade ([`diffusive::retract`]).
    ///
    /// Pending ghost slots are skipped: deletions only ever target edges
    /// settled in a previous increment (same-batch adds are annihilated
    /// host-side), and a Pending slot's subtree did not exist then.
    fn retract_edge(&mut self, ctx: &mut ExecCtx<'_, VertexObj<G::State>>, op: &Operon) {
        let target = op.target;
        let (tag, dst_id, _w) = decode_delete(op.payload);
        ctx.charge(ctx.cost().dispatch);
        let (removed, scanned) = {
            let Some(obj) = ctx.obj_mut(target.slot) else {
                ctx.fail(SimError::BadAddress { addr: target, action: ACT_DELETE });
                return;
            };
            let scanned = obj.edges.len() as u32;
            let removed = match obj.edges.iter().position(|e| e.dst_id == dst_id && e.tag == tag) {
                Some(i) => {
                    // Order-preserving removal keeps the surviving edge list
                    // deterministic for later scans and walks.
                    let e = obj.edges.remove(i);
                    let recall =
                        if self.propagate_algo { self.algo.sync_value(&obj.state) } else { None };
                    Some((e, recall))
                }
                None => {
                    // Miss: snapshot the forwarding sets while borrowed.
                    self.scratch_peers.clear();
                    self.scratch_peers.extend_from_slice(&obj.peers);
                    self.scratch_ghosts.clear();
                    self.scratch_ghosts.extend(obj.ready_ghosts());
                    None
                }
            };
            (removed, scanned)
        };
        ctx.charge(ctx.cost().scan_per_edge * scanned);
        match removed {
            Some((e, recall)) => {
                ctx.charge(ctx.cost().delete_edge);
                if let Some(v) = recall {
                    // Recall the best value this object ever announced along
                    // the retracted edge; the destination invalidates iff
                    // its state could only have come from it.
                    ctx.propagate(diffusive::retract_operon(e.dst, self.algo.along_edge(v, &e)));
                }
            }
            None => {
                fan_query_to_peers(ctx, op, &self.scratch_peers);
                for i in 0..self.scratch_ghosts.len() {
                    let g = self.scratch_ghosts[i];
                    ctx.propagate(Operon::new(g, ACT_DELETE, op.payload));
                }
            }
        }
    }

    /// The deletion-repair invalidation ([`diffusive::ACT_RETRACT`]): if the
    /// object's state could only have been derived through the recalled
    /// value, reset it and cascade — along local edges with the value this
    /// object would have announced, and to mirrors and peers with the old
    /// value itself. States move to their reset value at most once per
    /// repair round, so the cascade terminates.
    ///
    /// Either way the cascade records the repair frontier on-fabric: a reset
    /// object joins [`Self::take_repair_sets`]'s *invalidated* set, while an
    /// object that rejects the recall with announceable state (independent
    /// support, or a self-supported reset value) joins the *rejected* set —
    /// together the survivors the targeted reseed wave re-announces from.
    fn invalidate(
        &mut self,
        ctx: &mut ExecCtx<'_, VertexObj<G::State>>,
        target: Address,
        suspect: u64,
    ) {
        ctx.charge(ctx.cost().invalidate);
        enum Verdict {
            /// Recall rejected without announceable state: nothing to record.
            Silent,
            /// Recall rejected (or matched a self-supported reset value) with
            /// announceable state: record on the frontier, no cascade.
            Survivor,
            /// State reset: record and cascade the given old value.
            Reset(u64),
        }
        let verdict = {
            let Some(obj) = ctx.obj_mut(target.slot) else {
                ctx.fail(SimError::BadAddress { addr: target, action: diffusive::ACT_RETRACT });
                return;
            };
            if !self.algo.retract_match(&obj.state, suspect) {
                // Rejected recall: this object's state has independent
                // support. If it is announceable, the object borders the
                // invalidated region and its re-announcement can re-feed
                // invalidated neighbours.
                if self.algo.sync_value(&obj.state).is_some() {
                    self.rejected.push(obj.vid);
                    Verdict::Survivor
                } else {
                    Verdict::Silent
                }
            } else {
                let old = obj.state;
                let reset = self.algo.root_state(obj.vid);
                if reset == old {
                    // Self-supported state (e.g. the BFS source, a CC vertex
                    // at its own label): nothing to invalidate, but the
                    // survivor is announceable (it matched the recall) and
                    // belongs on the frontier.
                    self.rejected.push(obj.vid);
                    Verdict::Survivor
                } else {
                    obj.state = reset;
                    self.invalidated.push(obj.vid);
                    // `old` passed retract_match, so it is announceable.
                    // Mirrors are recalled with the value THIS object
                    // announced (not the incoming `suspect`) — the two
                    // coincide for the default equality match but may differ
                    // under an overridden retract_match, and Pending ghosts
                    // must see the same recall as Ready ones.
                    let old_value = self.algo.sync_value(&old).expect("matched state announceable");
                    self.scratch_edges.clear();
                    self.scratch_edges.extend_from_slice(&obj.edges);
                    self.scratch_peers.clear();
                    self.scratch_peers.extend_from_slice(&obj.peers);
                    self.scratch_ghosts.clear();
                    for g in obj.ghosts.iter_mut() {
                        match g {
                            FutureLco::Ready(a) => self.scratch_ghosts.push(*a),
                            FutureLco::Pending(q) => q.push(PendingOperon {
                                action: diffusive::ACT_RETRACT,
                                payload: [old_value, 0],
                            }),
                            FutureLco::Null => {}
                        }
                    }
                    Verdict::Reset(old_value)
                }
            }
        };
        let old_value = match verdict {
            Verdict::Silent => return,
            Verdict::Survivor => {
                ctx.charge(ctx.cost().frontier_mark);
                return;
            }
            Verdict::Reset(v) => {
                ctx.charge(ctx.cost().frontier_mark);
                v
            }
        };
        ctx.charge(ctx.cost().scan_per_edge * self.scratch_edges.len() as u32);
        for i in 0..self.scratch_edges.len() {
            let e = self.scratch_edges[i];
            let v = self.algo.along_edge(old_value, &e);
            ctx.propagate(diffusive::retract_operon(e.dst, v));
        }
        for i in 0..self.scratch_ghosts.len() {
            let g = self.scratch_ghosts[i];
            ctx.propagate(diffusive::retract_operon(g, old_value));
        }
        for i in 0..self.scratch_peers.len() {
            let p = self.scratch_peers[i];
            ctx.propagate(diffusive::retract_operon(p, old_value));
        }
    }

    /// `update-weight-action`: patch one tagged edge copy's weight in place.
    /// The broadcast walks the logical vertex exactly like
    /// [`Self::retract_edge`] — peers fanned once, misses forwarded into
    /// ready ghost subtrees — and the one object holding the `(dst, tag)`
    /// copy (tags are unique among a pair's live copies) rewrites its weight.
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
        let target = op.target;
        let (tag, dst_id, w_old, w_new, raised) = decode_update_weight(op.payload);
        ctx.charge(ctx.cost().dispatch);
        let (patched, scanned) = {
            let Some(obj) = ctx.obj_mut(target.slot) else {
                ctx.fail(SimError::BadAddress { addr: target, action: ACT_UPDATE });
                return;
            };
            let scanned = obj.edges.len() as u32;
            let patched = match obj.edges.iter().position(|e| e.dst_id == dst_id && e.tag == tag) {
                Some(i) => {
                    debug_assert_eq!(obj.edges[i].w, w_old, "host and fabric agree on weight");
                    obj.edges[i].w = w_new;
                    let e = obj.edges[i];
                    let value =
                        if self.propagate_algo { self.algo.sync_value(&obj.state) } else { None };
                    Some((e, value))
                }
                None => {
                    self.scratch_peers.clear();
                    self.scratch_peers.extend_from_slice(&obj.peers);
                    self.scratch_ghosts.clear();
                    self.scratch_ghosts.extend(obj.ready_ghosts());
                    None
                }
            };
            (patched, scanned)
        };
        ctx.charge(ctx.cost().scan_per_edge * scanned);
        match patched {
            Some((e, value)) => {
                ctx.charge(ctx.cost().update_weight);
                if let Some(v) = value {
                    if raised || !self.notify_inserts {
                        // Recall the best value announced under the old
                        // weight; destinations that relied on it invalidate
                        // (see the doc comment for why structural-phase
                        // decreases must recall too).
                        let old_e = Edge { w: w_old, ..e };
                        ctx.propagate(diffusive::retract_operon(
                            e.dst,
                            self.algo.along_edge(v, &old_e),
                        ));
                    } else {
                        // Cheaper edge, single-phase batch: a plain monotone
                        // relax suffices.
                        ctx.propagate(Operon::new(
                            e.dst,
                            ACT_RELAX,
                            [self.algo.along_edge(v, &e), 0],
                        ));
                    }
                }
            }
            None => {
                fan_query_to_peers(ctx, op, &self.scratch_peers);
                for i in 0..self.scratch_ghosts.len() {
                    let g = self.scratch_ghosts[i];
                    ctx.propagate(Operon::new(g, ACT_UPDATE, op.payload));
                }
            }
        }
    }

    /// `reseed-action`: after the invalidation quiesced, re-announce this
    /// object's surviving state along its local edges, push it to mirrors
    /// (restoring ghosts that were reset or freshly attached un-synced), and
    /// walk the rest of the logical vertex — ghost subtrees re-announce
    /// their own edge slices, and on first arrival at a rhizome root a
    /// marked copy fans to every peer. Objects with nothing to announce stay
    /// silent; ordinary monotone relaxation rebuilds the exact fixpoint.
    fn reseed(&mut self, ctx: &mut ExecCtx<'_, VertexObj<G::State>>, op: &Operon) {
        ctx.charge(ctx.cost().reseed);
        let value = {
            let Some(obj) = ctx.obj_mut(op.target.slot) else {
                ctx.fail(SimError::BadAddress { addr: op.target, action: ACT_RESEED });
                return;
            };
            let Some(v) = self.algo.sync_value(&obj.state) else { return };
            self.scratch_edges.clear();
            self.scratch_edges.extend_from_slice(&obj.edges);
            self.scratch_peers.clear();
            self.scratch_peers.extend_from_slice(&obj.peers);
            self.scratch_ghosts.clear();
            self.scratch_ghosts.extend(obj.ready_ghosts());
            v
        };
        fan_query_to_peers(ctx, op, &self.scratch_peers);
        ctx.charge(ctx.cost().scan_per_edge * self.scratch_edges.len() as u32);
        for i in 0..self.scratch_edges.len() {
            let e = self.scratch_edges[i];
            let v = self.algo.along_edge(value, &e);
            ctx.propagate(Operon::new(e.dst, ACT_RELAX, [v, 0]));
        }
        for i in 0..self.scratch_ghosts.len() {
            let g = self.scratch_ghosts[i];
            // Mirror sync first (relax the ghost to this object's value),
            // then let the ghost re-announce its own slice.
            ctx.propagate(Operon::new(g, ACT_RELAX, [value, 0]));
            ctx.propagate(Operon::new(g, ACT_RESEED, op.payload));
        }
    }

    /// Monotone leg of the standing-query diffusion ([`diffusive::ACT_QUERY`]):
    /// OR the delivered automaton states into the object's bitset and, if any
    /// are genuinely new, step them through the query's automaton along every
    /// local edge's label, forward them *unstepped* to mirrors (ghosts are
    /// part of the same logical vertex) and co-equal peer roots, and enqueue
    /// them on pending ghost futures. States only ever accumulate, so the
    /// diffusion reaches the reachability fixpoint and quiesces.
    fn absorb_query_bits(
        &mut self,
        ctx: &mut ExecCtx<'_, VertexObj<G::State>>,
        target: Address,
        qid: u32,
        bits: u32,
    ) {
        ctx.charge(ctx.cost().state_update);
        let (new, vid) = {
            let Some(obj) = ctx.obj_mut(target.slot) else {
                ctx.fail(SimError::BadAddress { addr: target, action: diffusive::ACT_QUERY });
                return;
            };
            let new = obj.qbits_or(qid, bits);
            if new != 0 {
                self.scratch_edges.clear();
                self.scratch_edges.extend_from_slice(&obj.edges);
                self.scratch_peers.clear();
                self.scratch_peers.extend_from_slice(&obj.peers);
                self.scratch_ghosts.clear();
                for g in obj.ghosts.iter_mut() {
                    match g {
                        FutureLco::Ready(a) => self.scratch_ghosts.push(*a),
                        FutureLco::Pending(q) => q.push(PendingOperon {
                            action: diffusive::ACT_QUERY,
                            payload: [qid as u64, new as u64],
                        }),
                        FutureLco::Null => {}
                    }
                }
            }
            (new, obj.vid)
        };
        if new == 0 {
            return;
        }
        let Some(dfa) = self.queries.get(qid as usize) else { return };
        if new & dfa.accepting_bits() != 0 {
            // An accepting state just turned on somewhere in this vertex's
            // object tree: flag the vertex as a result-delta candidate. Bits
            // are monotone within a run, so the candidate set is exactly the
            // end-minus-start accepting transition set — deterministic and
            // shard-independent.
            self.qaccept_touched.push((qid, vid));
        }
        ctx.charge(ctx.cost().scan_per_edge * self.scratch_edges.len() as u32);
        for i in 0..self.scratch_edges.len() {
            let e = self.scratch_edges[i];
            let stepped = dfa.step(new, e.label);
            if stepped != 0 {
                ctx.propagate(query_operon(e.dst, qid, stepped));
            }
        }
        for i in 0..self.scratch_ghosts.len() {
            ctx.propagate(query_operon(self.scratch_ghosts[i], qid, new));
        }
        for i in 0..self.scratch_peers.len() {
            ctx.propagate(query_operon(self.scratch_peers[i], qid, new));
        }
    }

    /// Reseed leg of the standing-query diffusion: re-announce this object's
    /// *current* automaton states along its local edges regardless of
    /// novelty — the deletion-repair counterpart of [`Self::reseed`] for
    /// query state. `qid` selects one query, or every registered query when
    /// it is [`diffusive::QUERY_ALL`]. The walk covers the logical vertex:
    /// ghost subtrees re-announce their own edge slices (forwarding is a
    /// tree, so it terminates) and the first root reached fans one marked
    /// copy to each co-equal peer.
    fn reseed_queries(
        &mut self,
        ctx: &mut ExecCtx<'_, VertexObj<G::State>>,
        target: Address,
        qid: u32,
        fanned: bool,
    ) {
        ctx.charge(ctx.cost().reseed);
        {
            let Some(obj) = ctx.obj_mut(target.slot) else {
                ctx.fail(SimError::BadAddress { addr: target, action: diffusive::ACT_QUERY });
                return;
            };
            self.scratch_edges.clear();
            self.scratch_edges.extend_from_slice(&obj.edges);
            self.scratch_peers.clear();
            self.scratch_peers.extend_from_slice(&obj.peers);
            self.scratch_ghosts.clear();
            self.scratch_ghosts.extend(obj.ready_ghosts());
            self.scratch_queries.clear();
            for q in 0..self.queries.len() as u32 {
                if qid != QUERY_ALL && q != qid {
                    continue;
                }
                let bits = obj.qbits_get(q);
                if bits != 0 {
                    self.scratch_queries.push((q, bits));
                }
            }
        }
        if !fanned {
            for i in 0..self.scratch_peers.len() {
                let mut fan = query_reseed_operon(self.scratch_peers[i], qid);
                fan.payload[0] |= QUERY_RESEED_FANNED;
                ctx.propagate(fan);
            }
        }
        for i in 0..self.scratch_ghosts.len() {
            ctx.propagate(query_reseed_operon(self.scratch_ghosts[i], qid));
        }
        ctx.charge(ctx.cost().scan_per_edge * self.scratch_edges.len() as u32);
        for i in 0..self.scratch_queries.len() {
            let (q, bits) = self.scratch_queries[i];
            let dfa = &self.queries[q as usize];
            for j in 0..self.scratch_edges.len() {
                let e = self.scratch_edges[j];
                let stepped = dfa.step(bits, e.label);
                if stepped != 0 {
                    ctx.propagate(query_operon(e.dst, q, stepped));
                }
            }
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
            rejected: Vec::new(),
            queries: self.queries.clone(),
            qaccept_touched: Vec::new(),
            scratch_edges: Vec::new(),
            scratch_ghosts: Vec::new(),
            scratch_peers: Vec::new(),
            scratch_queries: Vec::new(),
        }
    }

    fn merge(&mut self, worker: Self) {
        self.algo.merge(worker.algo);
        self.invalidated.extend(worker.invalidated);
        self.rejected.extend(worker.rejected);
        self.qaccept_touched.extend(worker.qaccept_touched);
    }

    fn construct(&mut self, req: &AllocRequest) -> Self::Object {
        let vid = req.tag as u32;
        VertexObj::ghost(vid, self.algo.ghost_state(vid), self.rcfg.ghost_fanout)
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
            // algorithm sync below this is *not* phase-gated: query bits have
            // no racing invalidation cascade (deletion repair clears and
            // re-derives them host-orchestrated after the structural phase,
            // wiping every object of an affected vertex uniformly), so plain
            // replication is always safe.
            self.scratch_queries.clear();
            for qid in 0..self.queries.len() as u32 {
                let bits = obj.qbits_get(qid);
                if bits != 0 {
                    self.scratch_queries.push((qid, bits));
                }
            }
            (waiters, self.algo.sync_value(&obj.state))
        };
        for i in 0..self.scratch_queries.len() {
            let (qid, bits) = self.scratch_queries[i];
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

    fn rhizome_sync(&mut self, ctx: &mut ExecCtx<'_, Self::Object>, target: Address, value: u64) {
        self.relax_value(ctx, target, value, diffusive::ACT_RHIZOME_SYNC);
    }

    fn retract(&mut self, ctx: &mut ExecCtx<'_, Self::Object>, target: Address, suspect: u64) {
        self.invalidate(ctx, target, suspect);
    }

    fn query(
        &mut self,
        ctx: &mut ExecCtx<'_, Self::Object>,
        target: Address,
        qid: u32,
        bits: u32,
        reseed: bool,
        fanned: bool,
    ) {
        if reseed {
            self.reseed_queries(ctx, target, qid, fanned);
        } else {
            self.absorb_query_bits(ctx, target, qid, bits);
        }
    }

    fn on_action(&mut self, ctx: &mut ExecCtx<'_, Self::Object>, op: &Operon) {
        match op.action {
            ACT_INSERT => self.ingest(ctx, op),
            ACT_RELAX => self.relax_value(ctx, op.target, op.payload[0], ACT_RELAX),
            ACT_DELETE => self.retract_edge(ctx, op),
            ACT_RESEED => self.reseed(ctx, op),
            ACT_UPDATE => self.update_edge_weight(ctx, op),
            _ => {
                // Split borrow: hand the algorithm the context plus config.
                let rcfg = self.rcfg;
                self.algo.on_other_action(ctx, op, &rcfg);
            }
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
        fn notify_on_insert(&self, _s: &(), _e: &Edge) -> Option<u64> {
            None
        }
        fn sync_value(&self, _s: &()) -> Option<u64> {
            None
        }
    }

    type NullChip = Chip<Runtime<GraphApp<NullAlgo>>>;

    fn chip(rcfg: RpvoConfig) -> NullChip {
        let cfg = ChipConfig::small_test();
        let retries = cfg.max_alloc_retries;
        Chip::new(cfg, Runtime::new(GraphApp::new(NullAlgo, rcfg, true), retries))
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
        let root = c.host_alloc(20, VertexObj::root(0, (), 2)).unwrap();
        stream_edges(&mut c, root, 8);
        let obj = c.object(root).unwrap();
        assert_eq!(obj.edges.len(), 8);
        assert_eq!(obj.ready_ghosts().count(), 0);
        assert_eq!(c.counters().allocs, 0);
    }

    #[test]
    fn overflow_spills_to_ghosts_without_losing_edges() {
        let mut c = chip(RpvoConfig::basic(4, 2));
        let root = c.host_alloc(20, VertexObj::root(0, (), 2)).unwrap();
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
        let root = c.host_alloc(root_cc, VertexObj::root(0, (), 2)).unwrap();
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
        let root = c.host_alloc(10, VertexObj::root(0, (), 2)).unwrap();
        stream_edges(&mut c, root, 40);
        let obj = c.object(root).unwrap();
        assert_eq!(obj.ready_ghosts().count(), 2, "both ghost slots engaged");
    }

    #[test]
    fn rpvo_depth_grows_logarithmically_with_fanout_two() {
        let mut c = chip(RpvoConfig::basic(2, 2));
        let root = c.host_alloc(10, VertexObj::root(0, (), 2)).unwrap();
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
            let root = c.host_alloc(20, VertexObj::root(0, (), 2)).unwrap();
            stream_edges(&mut c, root, 40);
            (c.cycle(), *c.counters())
        };
        assert_eq!(run(), run());
    }
}
