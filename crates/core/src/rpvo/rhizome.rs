//! Multi-root (rhizome) vertex objects.
//!
//! The source paper's RPVO parallelizes a vertex's *storage* across ghost
//! objects but keeps a single root, so every ingest and frontier action for
//! a hub vertex still serializes at one compute cell. The follow-up work
//! (Chandio et al., "Rhizomes and Diffusions for Processing Highly Skewed
//! Graphs on Fine-Grain Message-Driven Systems", arXiv:2402.06086) breaks
//! that bottleneck with **rhizomes**: K co-equal root objects per hub
//! vertex, cross-linked through rhizome links, each owning a disjoint slice
//! of the edge list and its own ghost subtree.
//!
//! This module holds the host-side bookkeeping: the [`RhizomeDirectory`]
//! tracks every vertex's root set and **live streamed degree** (endpoint
//! touches from `AddEdge` minus touches from `DelEdge`), decides
//! *when* a vertex is promoted (live degree crosses the configured threshold
//! during streaming ingestion) or **demoted** (a promoted vertex's live
//! degree falls back below the threshold once deletions land), and answers
//! *which* root an edge is routed to — a deterministic per-vertex
//! round-robin, so results are reproducible and independent of host
//! parallelism. The on-chip side (cross-linked [`super::VertexObj::peers`],
//! the `rhizome-sync` diffusion) lives in the vertex object and the
//! application layer.

use std::collections::BTreeSet;

use amcca_sim::Address;

/// Host-side registry of every logical vertex's root set.
///
/// Most vertices keep exactly one root; vertices promoted to rhizomes carry
/// `K - 1` extra roots. Routing state (the per-vertex round-robin cursor)
/// lives here too, so the host façade can pick a target root per edge in
/// O(1) deterministically.
#[derive(Debug, Clone)]
pub struct RhizomeDirectory {
    /// Primary root of each vertex (allocated at graph construction).
    primary: Vec<Address>,
    /// Extra co-equal roots of promoted vertices (empty otherwise).
    extra: Vec<Vec<Address>>,
    /// Live streamed degree per vertex: endpoint touches from additions
    /// minus endpoint touches from deletions — the quantity promotion and
    /// demotion decisions compare against the threshold.
    live: Vec<u32>,
    /// Round-robin cursor per vertex, advanced on every routed pick.
    rr: Vec<u32>,
    /// Promoted vertices whose live degree dropped since the last demotion
    /// sweep (BTreeSet for deterministic sweep order).
    watch: BTreeSet<u32>,
    /// Number of promotions performed so far (cumulative; a vertex demoted
    /// and re-promoted counts twice).
    promoted: u64,
    /// Number of demotions performed so far.
    demoted: u64,
}

impl RhizomeDirectory {
    /// Build the directory from the primary roots allocated at construction.
    pub fn new(primary: Vec<Address>) -> Self {
        let n = primary.len();
        RhizomeDirectory {
            primary,
            extra: vec![Vec::new(); n],
            live: vec![0; n],
            rr: vec![0; n],
            watch: BTreeSet::new(),
            promoted: 0,
            demoted: 0,
        }
    }

    /// Number of vertices tracked.
    pub fn len(&self) -> usize {
        self.primary.len()
    }

    /// True when no vertices are tracked.
    pub fn is_empty(&self) -> bool {
        self.primary.is_empty()
    }

    /// The primary root of vertex `v` (the address the host hands out for
    /// seeding queries; co-equal peers are reachable through its links).
    pub fn primary(&self, v: u32) -> Address {
        self.primary[v as usize]
    }

    /// All roots of vertex `v`, primary first.
    pub fn roots(&self, v: u32) -> Vec<Address> {
        let mut out = Vec::with_capacity(1 + self.extra[v as usize].len());
        out.push(self.primary[v as usize]);
        out.extend_from_slice(&self.extra[v as usize]);
        out
    }

    /// True if vertex `v` currently is a rhizome (more than one root).
    pub fn is_promoted(&self, v: u32) -> bool {
        !self.extra[v as usize].is_empty()
    }

    /// Record one `AddEdge` endpoint touch on `v`; returns `true` exactly
    /// when the touch lifts the live degree onto `threshold` for a vertex
    /// that is not currently promoted (i.e. the caller must promote now).
    /// A `threshold` of 0 disables promotion.
    pub fn note_add(&mut self, v: u32, threshold: usize) -> bool {
        let i = v as usize;
        self.live[i] = self.live[i].saturating_add(1);
        threshold > 0 && self.live[i] as usize == threshold && self.extra[i].is_empty()
    }

    /// Record one `DelEdge` endpoint touch on `v`: the live degree drops and
    /// a currently promoted vertex is queued for the next demotion sweep.
    pub fn note_del(&mut self, v: u32) {
        let i = v as usize;
        self.live[i] = self.live[i].saturating_sub(1);
        if !self.extra[i].is_empty() {
            self.watch.insert(v);
        }
    }

    /// Live streamed degree of vertex `v` (add touches minus del touches).
    pub fn live_degree(&self, v: u32) -> u32 {
        self.live[v as usize]
    }

    /// Install the extra roots of a freshly promoted vertex.
    pub fn install(&mut self, v: u32, extras: Vec<Address>) {
        assert!(self.extra[v as usize].is_empty(), "vertex {v} promoted twice");
        assert!(!extras.is_empty(), "a rhizome adds at least one root");
        self.extra[v as usize] = extras;
        self.promoted += 1;
    }

    /// Drain the vertices due for demotion: promoted vertices whose live
    /// degree fell below `threshold` since the last sweep, in ascending
    /// vertex order (deterministic). The caller performs the actual collapse
    /// and must then call [`Self::demote`] per vertex.
    pub fn take_demotions(&mut self, threshold: usize) -> Vec<u32> {
        let due: Vec<u32> = self
            .watch
            .iter()
            .copied()
            .filter(|&v| {
                !self.extra[v as usize].is_empty() && (self.live[v as usize] as usize) < threshold
            })
            .collect();
        self.watch.clear();
        due
    }

    /// Collapse vertex `v` back to a single root, returning the extra root
    /// addresses the caller must merge and free. Routing falls back to the
    /// primary; the vertex may be promoted again if its live degree rises.
    pub fn demote(&mut self, v: u32) -> Vec<Address> {
        let extras = std::mem::take(&mut self.extra[v as usize]);
        assert!(!extras.is_empty(), "vertex {v} demoted while not promoted");
        self.rr[v as usize] = 0;
        self.demoted += 1;
        extras
    }

    /// Pick the root that handles the next action routed to `v`
    /// (deterministic per-vertex round-robin over the co-equal roots).
    pub fn route(&mut self, v: u32) -> Address {
        let extra = &self.extra[v as usize];
        if extra.is_empty() {
            return self.primary[v as usize];
        }
        let k = extra.len() + 1;
        let cursor = &mut self.rr[v as usize];
        let pick = *cursor as usize % k;
        *cursor = cursor.wrapping_add(1);
        if pick == 0 {
            self.primary[v as usize]
        } else {
            extra[pick - 1]
        }
    }

    /// Promotions performed so far (cumulative over re-promotions).
    pub fn promoted_count(&self) -> u64 {
        self.promoted
    }

    /// Demotions performed so far.
    pub fn demoted_count(&self) -> u64 {
        self.demoted
    }

    /// Total extra roots currently allocated across all promoted vertices.
    pub fn extra_root_count(&self) -> u64 {
        self.extra.iter().map(|e| e.len() as u64).sum()
    }
}

/// The fully cross-linked peer sets of a rhizome: for root `i` of `roots`,
/// entry `i` lists every *other* root (in root order). This is what gets
/// written into each root object's [`super::VertexObj::peers`].
pub fn peer_sets(roots: &[Address]) -> Vec<Box<[Address]>> {
    roots
        .iter()
        .enumerate()
        .map(|(i, _)| {
            roots
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &a)| a)
                .collect::<Vec<_>>()
                .into_boxed_slice()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(n: u32) -> RhizomeDirectory {
        RhizomeDirectory::new((0..n).map(|i| Address::new(i as u16, 0)).collect())
    }

    #[test]
    fn unpromoted_vertices_route_to_their_primary() {
        let mut d = dir(4);
        for v in 0..4 {
            assert_eq!(d.route(v), Address::new(v as u16, 0));
            assert_eq!(d.roots(v), vec![Address::new(v as u16, 0)]);
        }
        assert_eq!(d.promoted_count(), 0);
        assert_eq!(d.demoted_count(), 0);
    }

    #[test]
    fn add_touch_crosses_threshold_exactly_once() {
        let mut d = dir(2);
        assert!(!d.note_add(0, 3));
        assert!(!d.note_add(0, 3));
        assert!(d.note_add(0, 3), "third touch crosses the threshold");
        d.install(0, vec![Address::new(9, 0)]);
        assert!(!d.note_add(0, 3), "already promoted: never again");
        assert_eq!(d.live_degree(0), 4);
        assert!(!d.note_add(1, 0), "threshold 0 disables promotion");
    }

    #[test]
    fn del_touches_lower_live_degree() {
        let mut d = dir(1);
        for _ in 0..3 {
            d.note_add(0, 0);
        }
        d.note_del(0);
        d.note_del(0);
        assert_eq!(d.live_degree(0), 1, "live degree nets adds against dels");
    }

    #[test]
    fn demotion_sweep_flags_cold_promoted_vertices_only() {
        let mut d = dir(3);
        for _ in 0..4 {
            d.note_add(1, 4);
            d.note_add(2, 4);
        }
        d.install(1, vec![Address::new(10, 0)]);
        d.install(2, vec![Address::new(11, 0)]);
        // Vertex 1 cools below the threshold; vertex 2 stays warm.
        d.note_del(1);
        d.note_del(2);
        d.note_add(2, 4);
        assert_eq!(d.take_demotions(4), vec![1]);
        assert!(d.take_demotions(4).is_empty(), "sweep drains the watch set");
        let freed = d.demote(1);
        assert_eq!(freed, vec![Address::new(10, 0)]);
        assert_eq!(d.roots(1).len(), 1);
        assert!(!d.is_promoted(1));
        assert_eq!(d.demoted_count(), 1);
        assert_eq!(d.route(1), Address::new(1, 0), "routing falls back to the primary");
    }

    #[test]
    fn demoted_vertex_can_promote_again() {
        let mut d = dir(1);
        for _ in 0..3 {
            d.note_add(0, 3);
        }
        d.install(0, vec![Address::new(5, 0)]);
        d.note_del(0);
        assert_eq!(d.take_demotions(3), vec![0]);
        d.demote(0);
        // Live degree is 2; one more add re-crosses the threshold.
        assert!(d.note_add(0, 3), "re-promotion fires on re-crossing");
        d.install(0, vec![Address::new(6, 0)]);
        assert_eq!(d.promoted_count(), 2, "promotions are cumulative");
        assert_eq!(d.demoted_count(), 1);
    }

    #[test]
    fn promoted_vertex_round_robins_across_all_roots() {
        let mut d = dir(2);
        let extras = vec![Address::new(10, 0), Address::new(11, 0), Address::new(12, 0)];
        d.install(1, extras.clone());
        assert_eq!(d.roots(1).len(), 4);
        assert_eq!(d.promoted_count(), 1);
        assert_eq!(d.extra_root_count(), 3);
        let picks: Vec<Address> = (0..8).map(|_| d.route(1)).collect();
        assert_eq!(picks[0], Address::new(1, 0), "primary first");
        assert_eq!(&picks[1..4], &extras[..]);
        assert_eq!(&picks[0..4], &picks[4..8], "cycle repeats deterministically");
        // The other vertex is untouched.
        assert_eq!(d.route(0), Address::new(0, 0));
    }

    #[test]
    fn routing_is_reproducible() {
        let run = || {
            let mut d = dir(3);
            d.install(2, vec![Address::new(20, 0), Address::new(21, 0)]);
            (0..10).map(|i| d.route(i % 3)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "promoted twice")]
    fn double_promotion_is_a_bug() {
        let mut d = dir(1);
        d.install(0, vec![Address::new(5, 0)]);
        d.install(0, vec![Address::new(6, 0)]);
    }

    #[test]
    #[should_panic(expected = "demoted while not promoted")]
    fn demoting_a_single_root_vertex_is_a_bug() {
        let mut d = dir(1);
        d.demote(0);
    }

    #[test]
    fn peer_sets_cross_link_fully() {
        let roots = [Address::new(0, 0), Address::new(1, 0), Address::new(2, 0)];
        let sets = peer_sets(&roots);
        assert_eq!(sets.len(), 3);
        for (i, set) in sets.iter().enumerate() {
            assert_eq!(set.len(), 2, "each root links every other root");
            assert!(!set.contains(&roots[i]), "no self link");
            for r in set.iter() {
                assert!(roots.contains(r));
            }
        }
    }
}
