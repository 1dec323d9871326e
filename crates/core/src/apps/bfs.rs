//! Streaming dynamic Breadth-First Search (paper Listings 4–5).
//!
//! Every vertex object carries a `level`; `max-level` (here `u64::MAX`)
//! means unreached. When an edge is inserted at a vertex with a valid level,
//! the destination is informed with `level + 1` (Listing 4). The relax
//! action (`bfs-action`, Listing 5) monotonically lowers the level and
//! re-diffuses `level + 1` along all edges — so results of previous
//! computations are updated "without recomputing from scratch".

use crate::rpvo::Edge;

use super::algo::VertexAlgo;

/// The paper's `max-level` sentinel: vertex not yet reached.
pub const MAX_LEVEL: u64 = u64::MAX;

/// Breadth-first search from a designated root vertex.
#[derive(Debug, Clone, Copy)]
pub struct BfsAlgo {
    /// The BFS source vertex (level 0 from construction).
    pub root: u32,
}

impl BfsAlgo {
    /// BFS rooted at `root`.
    pub fn new(root: u32) -> Self {
        BfsAlgo { root }
    }
}

impl VertexAlgo for BfsAlgo {
    type State = u64;

    const NAME: &'static str = "bfs";

    fn fork(&self) -> Self {
        *self
    }

    fn root_state(&self, vid: u32) -> u64 {
        if vid == self.root {
            0
        } else {
            MAX_LEVEL
        }
    }

    fn ghost_state(&self, _vid: u32) -> u64 {
        MAX_LEVEL
    }

    fn improve(&self, s: &mut u64, incoming: u64) -> bool {
        // Listing 5: (if (> (vertex-level v) lvl) ...)
        if incoming < *s {
            *s = incoming;
            true
        } else {
            false
        }
    }

    fn along_edge(&self, v: u64, _e: &Edge) -> u64 {
        v + 1
    }

    fn sync_value(&self, s: &u64) -> Option<u64> {
        // Listing 4: inform the dst vertex only if this src vertex has a
        // valid BFS level.
        (*s != MAX_LEVEL).then_some(*s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amcca_sim::Address;

    #[test]
    fn root_gets_level_zero() {
        let a = BfsAlgo::new(5);
        assert_eq!(a.root_state(5), 0);
        assert_eq!(a.root_state(6), MAX_LEVEL);
        assert_eq!(a.ghost_state(5), MAX_LEVEL, "even the root's ghosts sync via diffusion");
    }

    #[test]
    fn improve_is_strictly_monotone() {
        let a = BfsAlgo::new(0);
        let mut s = 5u64;
        assert!(!a.improve(&mut s, 5), "equal level does not improve");
        assert!(!a.improve(&mut s, 7));
        assert!(a.improve(&mut s, 3));
        assert_eq!(s, 3);
    }

    #[test]
    fn announce_only_with_valid_level() {
        let a = BfsAlgo::new(0);
        assert_eq!(a.sync_value(&MAX_LEVEL), None);
        assert_eq!(a.sync_value(&4), Some(4));
    }

    #[test]
    fn edge_value_is_level_plus_one() {
        let a = BfsAlgo::new(0);
        let e = Edge::new(Address::new(0, 0), 1, 99);
        assert_eq!(a.along_edge(7, &e), 8, "weight ignored by BFS");
    }
}
