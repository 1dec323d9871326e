//! Streaming connected components by minimum-label propagation.
//!
//! Each vertex starts with its own id as label; every new edge announces the
//! inserting object's current label to the destination, and relaxes keep the
//! minimum. Over a *symmetrized* edge stream (each undirected edge inserted
//! in both directions) labels converge to the minimum vertex id of each
//! weakly connected component — incrementally, as components merge when
//! streamed edges join them.

use crate::rpvo::Edge;

use super::algo::VertexAlgo;

/// Incremental connected components (min-label propagation).
#[derive(Debug, Clone, Copy, Default)]
pub struct CcAlgo;

impl VertexAlgo for CcAlgo {
    type State = u64;

    const NAME: &'static str = "concomp";

    fn fork(&self) -> Self {
        *self
    }

    fn root_state(&self, vid: u32) -> u64 {
        vid as u64
    }

    fn ghost_state(&self, vid: u32) -> u64 {
        vid as u64
    }

    fn improve(&self, s: &mut u64, incoming: u64) -> bool {
        if incoming < *s {
            *s = incoming;
            true
        } else {
            false
        }
    }

    fn along_edge(&self, v: u64, _e: &Edge) -> u64 {
        v
    }

    fn sync_value(&self, s: &u64) -> Option<u64> {
        // A label is always valid: always announce it.
        Some(*s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amcca_sim::Address;

    #[test]
    fn labels_start_as_own_id() {
        assert_eq!(CcAlgo.root_state(42), 42);
    }

    #[test]
    fn labels_flow_unchanged_along_edges() {
        let e = Edge::new(Address::new(0, 0), 1, 5);
        assert_eq!(CcAlgo.along_edge(7, &e), 7);
        assert_eq!(CcAlgo.sync_value(&7), Some(7));
    }

    #[test]
    fn min_label_wins() {
        let mut s = 9u64;
        assert!(CcAlgo.improve(&mut s, 3));
        assert!(!CcAlgo.improve(&mut s, 4));
        assert_eq!(s, 3);
    }
}
