//! The edge type (paper Listing 3): destination address plus weight. We also
//! carry the destination's numeric vertex id so algorithms that compare ids
//! (triangle counting's canonical orientation) need no reverse lookup, a
//! small host-assigned **copy tag** so streamed deletions can retract exactly
//! one copy of a duplicated edge, and an edge **label** driving standing
//! label-constrained path queries (see [`crate::query`]).
//!
//! The tag disambiguates copies of the *same* directed pair `(src, dst)`:
//! the host's mutation log hands each inserted copy the next value of the
//! pair's wrapping 8-bit counter, **skipping any tag a live copy of the pair
//! still holds**, and a `DelEdge` or `UpdateWeight` names its copy by that
//! tag, so an on-fabric retraction broadcast over a vertex's objects removes
//! exactly one edge no matter how the copies were spread across rhizome root
//! slices and ghost spills. Tags are unique among the *live* copies of one
//! directed pair however long the pair churns; the bound is 256
//! simultaneously live copies of a single directed pair, far beyond any real
//! stream (past it tags repeat and a retraction may meet either holder).
//! (The tag narrowed from 16 to 8 bits when the label claimed the payload's
//! top byte.)

use amcca_sim::Address;

/// A directed edge stored in a vertex object's local edge list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Address of the destination vertex's *root* object.
    pub dst: Address,
    /// Numeric id of the destination vertex.
    pub dst_id: u32,
    /// Edge weight (ignored by BFS, used by SSSP).
    pub w: u32,
    /// Host-assigned copy tag (see module docs). 0 for untagged edges.
    pub tag: u8,
    /// Edge label (0 = unlabelled) stepping standing-query automata.
    pub label: u8,
}

impl Edge {
    /// Create an edge record with copy tag 0 and label 0.
    pub fn new(dst: Address, dst_id: u32, w: u32) -> Self {
        Edge { dst, dst_id, w, tag: 0, label: 0 }
    }

    /// Create an edge record carrying an explicit copy tag (label 0).
    pub fn tagged(dst: Address, dst_id: u32, w: u32, tag: u8) -> Self {
        Edge { dst, dst_id, w, tag, label: 0 }
    }

    /// Create an edge record carrying an explicit copy tag and label.
    pub fn labeled(dst: Address, dst_id: u32, w: u32, tag: u8, label: u8) -> Self {
        Edge { dst, dst_id, w, tag, label }
    }
}

/// Encode an edge into an insert-operon payload: `payload[0]` = packed
/// destination address (48 bits) with the copy tag in bits 48–55 and the
/// label in the top byte, `payload[1]` = id ‖ weight.
pub fn encode_edge(e: &Edge) -> [u64; 2] {
    [
        e.dst.pack() | ((e.tag as u64) << 48) | ((e.label as u64) << 56),
        ((e.dst_id as u64) << 32) | e.w as u64,
    ]
}

/// Decode an insert-operon payload back into an edge.
pub fn decode_edge(payload: [u64; 2]) -> Edge {
    Edge {
        dst: Address::unpack(payload[0] & 0x0000_FFFF_FFFF_FFFF),
        dst_id: (payload[1] >> 32) as u32,
        w: payload[1] as u32,
        tag: (payload[0] >> 48) as u8,
        label: (payload[0] >> 56) as u8,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_roundtrip() {
        let e = Edge::new(Address::new(513, 77), 123_456, 42);
        assert_eq!(decode_edge(encode_edge(&e)), e);
    }

    #[test]
    fn tagged_payload_roundtrip() {
        let e = Edge::tagged(Address::new(99, 3), 7, 2, 0xBE);
        assert_eq!(decode_edge(encode_edge(&e)), e);
        assert_eq!(e.tag, 0xBE);
        assert_eq!(e.label, 0);
    }

    #[test]
    fn labeled_payload_roundtrip() {
        let e = Edge::labeled(Address::new(14, 9), 11, 5, 3, 26);
        assert_eq!(decode_edge(encode_edge(&e)), e);
        assert_eq!(e.label, 26);
    }

    #[test]
    fn extreme_values_roundtrip() {
        let e =
            Edge::labeled(Address::new(u16::MAX, u32::MAX), u32::MAX, u32::MAX, u8::MAX, u8::MAX);
        assert_eq!(decode_edge(encode_edge(&e)), e);
        let z = Edge::new(Address::new(0, 0), 0, 0);
        assert_eq!(decode_edge(encode_edge(&z)), z);
    }
}
