//! The Recursively-Parallel Vertex Object (paper Fig. 1b, Listing 2).
//!
//! A logical vertex is stored as a hierarchy: a **root** object on its home
//! compute cell plus zero or more **ghost** objects on (usually nearby)
//! cells, linked through ghost slots of type *future of pointer*. Every
//! object — root or ghost — has the same shape: an edge list bounded by
//! `edge_cap` and `ghost_fanout` ghost slots, so spilling recurses and the
//! structure parallelizes a high-degree vertex across many cells while a
//! single address (the root) remains the programming abstraction.
//!
//! The shape is a bound, not a fixed-size block. An object owns heap
//! storage beside its arena slot: the `edges` `Vec` (its length bounded by
//! `edge_cap`), the boxed ghost slots (a `Pending` slot's future owns a
//! `Vec` of waiting operons), the boxed rhizome `peers` and the `qbits`
//! `Vec`. Fixed slots in the cell arena are planned in ROADMAP.md, item
//! 3(a).

use amcca_sim::Address;
use diffusive::FutureLco;

use super::edge::Edge;

/// Whether an object is the root of its RPVO or a ghost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjKind {
    /// `Root` variant.
    Root,
    /// `Ghost` variant.
    Ghost,
}

/// One object of an RPVO, generic over the application's per-vertex state
/// (BFS carries a level, SSSP a distance, …). Ghost objects mirror the
/// application state of their root, kept consistent by the diffusion.
#[derive(Debug, Clone)]
pub struct VertexObj<S> {
    /// Id of the logical vertex this object belongs to.
    pub vid: u32,
    /// Root or ghost.
    pub kind: ObjKind,
    /// Application state (paper Listing 2's `level` field, generalized).
    pub state: S,
    /// Edge list (heap storage); the ingestion logic bounds its length by
    /// [`super::config::RpvoConfig::edge_cap`].
    pub edges: Vec<Edge>,
    /// Ghost links: futures of pointers (paper Listing 2's `ghosts` field).
    pub ghosts: Box<[FutureLco<Address>]>,
    /// Round-robin cursor arbitrating spills among ghost slots.
    pub ghost_rr: u8,
    /// Rhizome links: the addresses of this root's co-equal peer roots
    /// (empty for ordinary single-root vertices and for ghosts). Peers are
    /// fully cross-linked so any root can answer or forward actions for the
    /// logical vertex, and a root that improves relaxes its peers like it
    /// relaxes its ghosts.
    pub peers: Box<[Address]>,
    /// Standing-query automaton states: `qbits[qid]` is the bitset of DFA
    /// states of registered query `qid` reachable at this vertex along some
    /// labelled path from the query's source (empty = no states, lazily
    /// grown as queries register). Mirrored across ghosts and peers by
    /// `query-action` (see [`crate::query`]).
    pub qbits: Vec<u32>,
}

impl<S> VertexObj<S> {
    /// Create a root object for vertex `vid`.
    pub fn root(vid: u32, state: S, ghost_fanout: usize) -> Self {
        Self::with_kind(vid, state, ghost_fanout, ObjKind::Root)
    }

    /// Create a ghost object mirroring vertex `vid`.
    pub fn ghost(vid: u32, state: S, ghost_fanout: usize) -> Self {
        Self::with_kind(vid, state, ghost_fanout, ObjKind::Ghost)
    }

    fn with_kind(vid: u32, state: S, ghost_fanout: usize, kind: ObjKind) -> Self {
        let ghosts = (0..ghost_fanout).map(|_| FutureLco::Null).collect();
        VertexObj {
            vid,
            kind,
            state,
            edges: Vec::new(),
            ghosts,
            ghost_rr: 0,
            peers: Box::new([]),
            qbits: Vec::new(),
        }
    }

    /// Current automaton-state bitset of query `qid` (0 if never reached).
    pub fn qbits_get(&self, qid: u32) -> u32 {
        self.qbits.get(qid as usize).copied().unwrap_or(0)
    }

    /// OR `bits` into query `qid`'s bitset, returning the genuinely new
    /// states (`bits & !previous`) — 0 means the delivery was redundant.
    pub fn qbits_or(&mut self, qid: u32, bits: u32) -> u32 {
        let i = qid as usize;
        if self.qbits.len() <= i {
            self.qbits.resize(i + 1, 0);
        }
        let new = bits & !self.qbits[i];
        self.qbits[i] |= new;
        new
    }

    /// Does the edge list still have room (paper's `vertex-has-room`)?
    pub fn has_room(&self, edge_cap: usize) -> bool {
        self.edges.len() < edge_cap
    }

    /// Pick the ghost slot for the next spill (round-robin arbitration).
    pub fn pick_ghost_slot(&mut self) -> usize {
        let n = self.ghosts.len();
        let slot = self.ghost_rr as usize % n;
        self.ghost_rr = ((slot + 1) % n) as u8;
        slot
    }

    /// Addresses of all attached (Ready) ghosts.
    pub fn ready_ghosts(&self) -> impl Iterator<Item = Address> + '_ {
        self.ghosts.iter().filter_map(|g| g.value().copied())
    }

    /// True for the root object of an RPVO.
    pub fn is_root(&self) -> bool {
        matches!(self.kind, ObjKind::Root)
    }

    /// True for a root that is part of a rhizome (has co-equal peer roots).
    pub fn is_rhizome(&self) -> bool {
        !self.peers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_starts_empty_with_null_ghosts() {
        let v: VertexObj<u64> = VertexObj::root(7, u64::MAX, 2);
        assert!(v.is_root());
        assert!(v.has_room(4));
        assert_eq!(v.ghosts.len(), 2);
        assert!(v.ghosts.iter().all(|g| g.is_null()));
        assert_eq!(v.ready_ghosts().count(), 0);
        assert!(!v.is_rhizome(), "fresh roots are single-root until promoted");
    }

    #[test]
    fn cross_linked_root_reports_rhizome() {
        let mut v: VertexObj<u64> = VertexObj::root(7, 0, 2);
        v.peers = vec![Address::new(1, 0), Address::new(2, 0)].into_boxed_slice();
        assert!(v.is_rhizome());
        assert!(v.is_root(), "rhizome links do not change the object kind");
    }

    #[test]
    fn room_respects_capacity() {
        let mut v: VertexObj<u64> = VertexObj::root(0, 0, 1);
        for i in 0..3 {
            v.edges.push(Edge::new(Address::new(0, i), i, 1));
        }
        assert!(v.has_room(4));
        assert!(!v.has_room(3));
    }

    #[test]
    fn ghost_slot_arbitration_round_robins() {
        let mut v: VertexObj<u64> = VertexObj::root(0, 0, 3);
        let picks: Vec<usize> = (0..7).map(|_| v.pick_ghost_slot()).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn single_slot_always_zero() {
        let mut v: VertexObj<u64> = VertexObj::root(0, 0, 1);
        assert_eq!(v.pick_ghost_slot(), 0);
        assert_eq!(v.pick_ghost_slot(), 0);
    }

    #[test]
    fn qbits_track_new_states_per_query() {
        let mut v: VertexObj<u64> = VertexObj::root(0, 0, 1);
        assert_eq!(v.qbits_get(3), 0, "unregistered queries read as empty");
        assert_eq!(v.qbits_or(3, 0b0110), 0b0110, "all states new on first delivery");
        assert_eq!(v.qbits_or(3, 0b0010), 0, "redundant delivery yields no new states");
        assert_eq!(v.qbits_or(3, 0b1010), 0b1000, "only the genuinely new state survives");
        assert_eq!(v.qbits_get(3), 0b1110);
        assert_eq!(v.qbits_get(0), 0, "other slots untouched");
    }

    #[test]
    fn ready_ghosts_lists_fulfilled_slots() {
        let mut v: VertexObj<u64> = VertexObj::root(0, 0, 2);
        v.ghosts[1].fulfill(Address::new(3, 9)).unwrap();
        let ready: Vec<Address> = v.ready_ghosts().collect();
        assert_eq!(ready, vec![Address::new(3, 9)]);
    }
}
