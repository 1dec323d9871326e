//! Streaming dynamic Single-Source Shortest Paths.
//!
//! A direct generalization of the paper's streaming BFS (one of the "more
//! complex message-driven streaming dynamic algorithms" of §6): state is a
//! tentative distance, relax values add edge weights instead of 1. With
//! non-negative weights the relaxation is monotone and converges to exact
//! shortest distances at quiescence.

use crate::rpvo::Edge;

use super::algo::VertexAlgo;

/// Distance sentinel: vertex not yet reached.
pub const INF: u64 = u64::MAX;

/// Incremental SSSP from a designated source vertex.
#[derive(Debug, Clone, Copy)]
pub struct SsspAlgo {
    /// The SSSP source vertex (distance 0 from construction).
    pub source: u32,
}

impl SsspAlgo {
    /// SSSP from `source`.
    pub fn new(source: u32) -> Self {
        SsspAlgo { source }
    }
}

impl VertexAlgo for SsspAlgo {
    type State = u64;

    const NAME: &'static str = "sssp";

    fn fork(&self) -> Self {
        *self
    }

    fn root_state(&self, vid: u32) -> u64 {
        if vid == self.source {
            0
        } else {
            INF
        }
    }

    fn ghost_state(&self, _vid: u32) -> u64 {
        INF
    }

    fn improve(&self, s: &mut u64, incoming: u64) -> bool {
        if incoming < *s {
            *s = incoming;
            true
        } else {
            false
        }
    }

    fn along_edge(&self, v: u64, e: &Edge) -> u64 {
        v.saturating_add(e.w as u64)
    }

    fn sync_value(&self, s: &u64) -> Option<u64> {
        (*s != INF).then_some(*s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amcca_sim::Address;

    #[test]
    fn distances_accumulate_weights() {
        let a = SsspAlgo::new(0);
        let e = Edge::new(Address::new(0, 0), 1, 7);
        assert_eq!(a.along_edge(10, &e), 17);
        assert_eq!(a.sync_value(&3), Some(3));
        assert_eq!(a.sync_value(&INF), None);
    }

    #[test]
    fn saturating_add_avoids_overflow() {
        let a = SsspAlgo::new(0);
        let e = Edge::new(Address::new(0, 0), 1, u32::MAX);
        assert_eq!(a.along_edge(u64::MAX - 1, &e), u64::MAX);
    }

    #[test]
    fn improve_keeps_minimum() {
        let a = SsspAlgo::new(0);
        let mut s = INF;
        assert!(a.improve(&mut s, 40));
        assert!(a.improve(&mut s, 12));
        assert!(!a.improve(&mut s, 12));
        assert!(!a.improve(&mut s, 100));
        assert_eq!(s, 12);
    }
}
