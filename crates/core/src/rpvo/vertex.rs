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
//! The shape is a bound, not a fixed-size block. An object is 64 bytes in
//! its arena slot and owns heap storage beside it, each part allocated only
//! when it is used:
//! - the `edges` `Vec` of 16-byte [`Edge`]s, its length bounded by
//!   `edge_cap`;
//! - the ghost slots, empty until the object first spills and then
//!   `ghost_fanout` of them (a `Pending` slot's future owns a `Vec` of
//!   waiting operons);
//! - one box of cold fields, the rhizome `peers` and the standing-query
//!   bits, allocated for a rhizome root or for an object a query reached.
//!
//! Fixed per-object strides in the cell arena would cost more than they
//! save (ROADMAP.md, item 3(a)).

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
    /// Empty until the object first spills, then `ghost_fanout` slots (see
    /// [`Self::pick_ghost_slot`]).
    pub ghosts: Box<[FutureLco<Address>]>,
    /// Round-robin cursor arbitrating spills among ghost slots.
    pub ghost_rr: u8,
    /// Fields most objects never use, boxed so they cost one pointer until
    /// they do.
    cold: Option<Box<Cold>>,
}

/// The cold half of a [`VertexObj`].
#[derive(Debug, Clone, Default)]
struct Cold {
    /// Rhizome links: the addresses of this root's co-equal peer roots
    /// (empty for ordinary single-root vertices and for ghosts). Peers are
    /// fully cross-linked so any root can answer or forward actions for the
    /// logical vertex, and a root that improves relaxes its peers like it
    /// relaxes its ghosts.
    peers: Box<[Address]>,
    /// Standing-query automaton states: `qbits[qid]` is the bitset of DFA
    /// states of registered query `qid` reachable at this vertex along some
    /// labelled path from the query's source (missing = no states, lazily
    /// grown as queries reach the object). Mirrored across ghosts and peers
    /// by `query-action` (see [`crate::query`]).
    qbits: Vec<u32>,
}

// The object is the fabric's fixed cost per vertex and per ghost: 64 bytes.
const _: () = assert!(std::mem::size_of::<VertexObj<u64>>() <= 64);

impl<S> VertexObj<S> {
    /// Create a root object for vertex `vid`.
    pub fn root(vid: u32, state: S) -> Self {
        Self::with_kind(vid, state, ObjKind::Root)
    }

    /// Create a ghost object mirroring vertex `vid`.
    pub fn ghost(vid: u32, state: S) -> Self {
        Self::with_kind(vid, state, ObjKind::Ghost)
    }

    fn with_kind(vid: u32, state: S, kind: ObjKind) -> Self {
        VertexObj {
            vid,
            kind,
            state,
            edges: Vec::new(),
            ghosts: Box::new([]),
            ghost_rr: 0,
            cold: None,
        }
    }

    /// This root's co-equal peer roots (empty unless it is a rhizome root).
    pub fn peers(&self) -> &[Address] {
        self.cold.as_ref().map_or(&[], |c| &c.peers)
    }

    /// Replace the rhizome links (empty to demote the root to a single one).
    pub fn set_peers(&mut self, peers: Box<[Address]>) {
        self.cold.get_or_insert_with(Default::default).peers = peers;
    }

    /// Current automaton-state bitset of query `qid` (0 if never reached).
    pub fn qbits_get(&self, qid: u32) -> u32 {
        self.cold.as_ref().and_then(|c| c.qbits.get(qid as usize).copied()).unwrap_or(0)
    }

    /// OR `bits` into query `qid`'s bitset, returning the genuinely new
    /// states (`bits & !previous`) — 0 means the delivery was redundant.
    pub fn qbits_or(&mut self, qid: u32, bits: u32) -> u32 {
        let new = bits & !self.qbits_get(qid);
        if new != 0 {
            let qbits = &mut self.cold.get_or_insert_with(Default::default).qbits;
            let i = qid as usize;
            if qbits.len() <= i {
                qbits.resize(i + 1, 0);
            }
            qbits[i] |= new;
        }
        new
    }

    /// Drop every query's bits, returning whether the object held any. The
    /// storage stays for the bits the repair wave re-derives.
    pub fn clear_qbits(&mut self) -> bool {
        let Some(cold) = &mut self.cold else { return false };
        let held = cold.qbits.iter().any(|&b| b != 0);
        cold.qbits.clear();
        held
    }

    /// Does the edge list still have room (paper's `vertex-has-room`)?
    pub fn has_room(&self, edge_cap: usize) -> bool {
        self.edges.len() < edge_cap
    }

    /// Pick the ghost slot for the next spill (round-robin arbitration).
    /// The first spill allocates the object's `ghost_fanout` `Null` slots.
    pub fn pick_ghost_slot(&mut self, ghost_fanout: usize) -> usize {
        if self.ghosts.is_empty() {
            self.ghosts = (0..ghost_fanout).map(|_| FutureLco::Null).collect();
        }
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
        !self.peers().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_starts_empty_with_no_ghost_slots() {
        let v: VertexObj<u64> = VertexObj::root(7, u64::MAX);
        assert!(v.is_root());
        assert!(v.has_room(4));
        assert!(v.ghosts.is_empty(), "no slots before the first spill");
        assert_eq!(v.ready_ghosts().count(), 0);
        assert!(!v.is_rhizome(), "fresh roots are single-root until promoted");
        assert!(v.cold.is_none(), "no cold box until a peer or a query bit arrives");
    }

    #[test]
    fn the_first_spill_allocates_exactly_the_fanout() {
        for mut v in [VertexObj::root(0, 0u64), VertexObj::ghost(0, 0u64)] {
            assert!(v.ghosts.is_empty());
            assert_eq!(v.pick_ghost_slot(3), 0);
            assert_eq!(v.ghosts.len(), 3, "the first spill allocates ghost_fanout slots");
            assert!(v.ghosts.iter().all(|g| g.is_null()));
            v.pick_ghost_slot(3);
            assert_eq!(v.ghosts.len(), 3, "later spills reuse them");
        }
    }

    #[test]
    fn ready_ghosts_hang_off_a_full_fanout() {
        let mut v: VertexObj<u64> = VertexObj::root(0, 0);
        let slot = v.pick_ghost_slot(2);
        v.ghosts[slot].fulfill(Address::new(3, 9)).unwrap();
        assert_eq!(v.ready_ghosts().count(), 1);
        assert_eq!(v.ghosts.len(), 2, "a Ready ghost's parent holds ghost_fanout slots");
    }

    #[test]
    fn cross_linked_root_reports_rhizome() {
        let mut v: VertexObj<u64> = VertexObj::root(7, 0);
        v.set_peers(vec![Address::new(1, 0), Address::new(2, 0)].into_boxed_slice());
        assert_eq!(v.peers(), [Address::new(1, 0), Address::new(2, 0)]);
        assert!(v.is_rhizome());
        assert!(v.is_root(), "rhizome links do not change the object kind");
        v.set_peers(Box::new([]));
        assert!(!v.is_rhizome(), "a demoted root has no peers");
    }

    #[test]
    fn room_respects_capacity() {
        let mut v: VertexObj<u64> = VertexObj::root(0, 0);
        for i in 0..3 {
            v.edges.push(Edge::new(Address::new(0, i), i, 1));
        }
        assert!(v.has_room(4));
        assert!(!v.has_room(3));
    }

    #[test]
    fn ghost_slot_arbitration_round_robins() {
        let mut v: VertexObj<u64> = VertexObj::root(0, 0);
        let picks: Vec<usize> = (0..7).map(|_| v.pick_ghost_slot(3)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn single_slot_always_zero() {
        let mut v: VertexObj<u64> = VertexObj::root(0, 0);
        assert_eq!(v.pick_ghost_slot(1), 0);
        assert_eq!(v.pick_ghost_slot(1), 0);
    }

    #[test]
    fn qbits_track_new_states_per_query() {
        let mut v: VertexObj<u64> = VertexObj::root(0, 0);
        assert_eq!(v.qbits_get(3), 0, "unregistered queries read as empty");
        assert_eq!(v.qbits_or(3, 0), 0);
        assert!(v.cold.is_none(), "a redundant delivery allocates nothing");
        assert_eq!(v.qbits_or(3, 0b0110), 0b0110, "all states new on first delivery");
        assert_eq!(v.qbits_or(3, 0b0010), 0, "redundant delivery yields no new states");
        assert_eq!(v.qbits_or(3, 0b1010), 0b1000, "only the genuinely new state survives");
        assert_eq!(v.qbits_get(3), 0b1110);
        assert_eq!(v.qbits_get(0), 0, "other slots untouched");
    }

    #[test]
    fn clearing_query_bits_reports_whether_any_were_held() {
        let mut v: VertexObj<u64> = VertexObj::root(0, 0);
        assert!(!v.clear_qbits(), "nothing to clear on a fresh object");
        v.qbits_or(1, 0b10);
        assert!(v.clear_qbits());
        assert_eq!(v.qbits_get(1), 0);
        assert!(!v.clear_qbits(), "nothing left after a clear");
        v.set_peers(vec![Address::new(1, 0)].into_boxed_slice());
        v.qbits_or(0, 1);
        assert!(v.clear_qbits());
        assert_eq!(v.peers(), [Address::new(1, 0)], "a clear keeps the rhizome links");
    }

    #[test]
    fn ready_ghosts_lists_fulfilled_slots() {
        let mut v: VertexObj<u64> = VertexObj::root(0, 0);
        v.pick_ghost_slot(2);
        v.ghosts[1].fulfill(Address::new(3, 9)).unwrap();
        let ready: Vec<Address> = v.ready_ghosts().collect();
        assert_eq!(ready, vec![Address::new(3, 9)]);
    }
}
