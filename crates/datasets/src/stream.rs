//! Streaming dynamic graph workload types.
//!
//! A dataset is a static graph plus a *schedule*: an ordering of its edges
//! into `k` streaming increments (GraphChallenge provides ten). The schedule
//! is what the paper's experiments measure, so increments are first-class
//! here: a [`StreamingDataset`] owns the edge array once and exposes
//! increment slices by offset.
//!
//! Insert-only schedules cover the paper's original experiments; the
//! **sliding-window churn** generator ([`generate_churn`]) adds the dynamic
//! half of the workload space — batches that insert fresh edges *and*
//! delete the edges that fell out of a window of `W` batches, the canonical
//! streaming-framework stress pattern (Besta et al., arXiv:1912.12740).
//! Two knobs extend it: [`ChurnParams::order`] replays the edge source in
//! Snowball discovery order, so deletes correlate with the BFS frontier
//! instead of arriving uniformly, and [`ChurnParams::updates_per_batch`]
//! mixes in weight re-assignments of live edges (the `UpdateWeight` mutation
//! kind), exercising both the relax (decrease) and the scoped
//! invalidate+reseed (increase) repair paths.
//!
//! A churn schedule is also its own oracle: [`ChurnStream::live_after`]
//! lists the edges live after any batch from the copies the generator made
//! — the trailing window's adds, each at its last re-weight — so a graph is
//! checked against a set that no mutation log computed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sdgp_core::graph::GraphMutation;

use crate::powerlaw::{generate_rmat, RmatParams};
use crate::sampling::snowball_ranks;

/// A streamed edge `(src, dst, weight)`.
pub type StreamEdge = (u32, u32, u32);

/// How the edge stream was ordered (paper §4, citing Kao et al.):
/// "In edge sampling, the edges are inserted as if they were formed or
/// observed in the real world, while in Snowball sampling, the edges are
/// inserted as they are discovered from a starting point."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sampling {
    /// `Edge` variant.
    Edge,
    /// `Snowball` variant.
    Snowball,
}

impl std::fmt::Display for Sampling {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Sampling::Edge => write!(f, "Edge"),
            Sampling::Snowball => write!(f, "Snowball"),
        }
    }
}

/// A graph whose edges are scheduled into streaming increments.
#[derive(Debug, Clone)]
pub struct StreamingDataset {
    /// Vertex count of the static graph.
    pub n_vertices: u32,
    /// Which schedule produced this stream order.
    pub sampling: Sampling,
    /// All edges, in stream order.
    edges: Vec<StreamEdge>,
    /// Increment boundaries: `offsets[i]..offsets[i+1]` is increment `i`.
    offsets: Vec<usize>,
}

impl StreamingDataset {
    /// Assemble a dataset from scheduled edges and increment offsets.
    pub fn new(
        n_vertices: u32,
        sampling: Sampling,
        edges: Vec<StreamEdge>,
        offsets: Vec<usize>,
    ) -> Self {
        assert!(offsets.len() >= 2, "at least one increment");
        assert_eq!(*offsets.first().unwrap(), 0);
        assert_eq!(*offsets.last().unwrap(), edges.len());
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offsets must be sorted");
        StreamingDataset { n_vertices, sampling, edges, offsets }
    }

    /// Number of streaming increments.
    pub fn increments(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The edges of increment `i`, in stream order.
    pub fn increment(&self, i: usize) -> &[StreamEdge] {
        &self.edges[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Edges per increment (the columns of the paper's Table 1).
    pub fn increment_sizes(&self) -> Vec<usize> {
        (0..self.increments()).map(|i| self.increment(i).len()).collect()
    }

    /// All edges in stream order.
    pub fn all_edges(&self) -> &[StreamEdge] {
        &self.edges
    }

    /// Total edges across all increments.
    pub fn total_edges(&self) -> usize {
        self.edges.len()
    }
}

// ---------------------------------------------------------------------
// Sliding-window churn.
// ---------------------------------------------------------------------

/// One batch of a mutation schedule: edges inserted this batch, edges
/// (inserted exactly `window` batches ago) deleted this batch, and live
/// edges re-weighted this batch. The consumer applies a batch as one
/// increment, in the canonical order deletes → inserts → updates (the order
/// the generator's window accounting assumes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MutationBatch {
    /// Edges inserted by this batch, in stream order.
    pub adds: Vec<StreamEdge>,
    /// Edge labels parallel to `adds` (empty for an unlabeled schedule —
    /// every insert then carries label 0, the unlabeled default).
    pub add_labels: Vec<u8>,
    /// Edges deleted by this batch (one live copy each, named by its
    /// *current* weight — a prior update may have re-weighted it), in stream
    /// order.
    pub dels: Vec<StreamEdge>,
    /// Weight updates applied by this batch: `(u, v, new_weight)` re-weights
    /// the oldest live copy of the pair `u → v` (the `UpdateWeight` mutation
    /// semantics), in stream order.
    pub updates: Vec<StreamEdge>,
}

impl MutationBatch {
    /// The batch as a typed mutation list in the generator's canonical order
    /// (deletes → inserts → updates), ready for
    /// [`StreamingGraph::stream_increment`] or a server submission.
    ///
    /// [`StreamingGraph::stream_increment`]: sdgp_core::StreamingGraph::stream_increment
    pub fn to_mutations(&self) -> Vec<GraphMutation> {
        let mut muts = Vec::with_capacity(self.dels.len() + self.adds.len() + self.updates.len());
        muts.extend(self.dels.iter().copied().map(GraphMutation::DelEdge));
        muts.extend(self.adds.iter().enumerate().map(|(i, &e)| {
            match self.add_labels.get(i).copied().unwrap_or(0) {
                0 => GraphMutation::AddEdge(e),
                l => GraphMutation::AddLabeledEdge(e, l),
            }
        }));
        muts.extend(self.updates.iter().map(|&(u, v, w)| GraphMutation::UpdateWeight { u, v, w }));
        muts
    }

    /// The batch with every vertex id shifted by `base`, mapping a schedule
    /// generated over `0..n` onto the slice `base..base + n`. Serving-mode
    /// drivers use this to hand each client a disjoint vertex slice so
    /// concurrent submissions commute.
    pub fn shifted(&self, base: u32) -> MutationBatch {
        let shift =
            |es: &[StreamEdge]| es.iter().map(|&(u, v, w)| (u + base, v + base, w)).collect();
        MutationBatch {
            adds: shift(&self.adds),
            add_labels: self.add_labels.clone(),
            dels: shift(&self.dels),
            updates: shift(&self.updates),
        }
    }
}

/// Parameters of the seeded sliding-window churn generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnParams {
    /// Vertex count of the underlying (heavy-tailed RMAT) edge source.
    pub n_vertices: u32,
    /// Number of insert-bearing batches.
    pub batches: usize,
    /// Edges inserted per batch.
    pub adds_per_batch: usize,
    /// Window size in batches: batch `i` deletes the edges inserted by batch
    /// `i - window`, so at most `window` batches of edges are ever live.
    pub window: usize,
    /// Append `window` delete-only batches at the end so the window drains
    /// and the graph empties (cools every hub back below any promotion
    /// threshold — the rhizome-demotion stress).
    pub drain: bool,
    /// Weight updates per insert-bearing batch, each re-weighting the oldest
    /// live copy of a uniformly chosen live pair to a fresh uniform weight
    /// (`0` reproduces the pure add/delete schedule exactly).
    pub updates_per_batch: usize,
    /// How the edge source is ordered before batching:
    /// [`Sampling::Edge`] keeps the RMAT arrival order (edges as formed);
    /// [`Sampling::Snowball`] replays them in BFS discovery order from
    /// vertex 0, so each batch's inserts — and, a window later, its deletes
    /// — concentrate on the discovery frontier.
    pub order: Sampling,
    /// Distinct edge labels for standing path queries: `0` or `1` leaves the
    /// schedule unlabeled (bit-identical to the pre-label generator — labels
    /// are hash-derived, not drawn from the RNG stream), `k > 1` assigns each
    /// insert a deterministic label in `1..=k` hashed from its endpoints, so
    /// every copy of a pair carries the same label and deletes (which name
    /// edges by `(u, v, w)` only) stay label-agnostic.
    pub labels: u8,
    /// Generator seed (defines the whole schedule deterministically).
    pub seed: u64,
}

/// A generated churn schedule: per-batch mutations, plus the copy each
/// re-weight landed on.
#[derive(Debug, Clone)]
pub struct ChurnStream {
    /// Vertex count of the workload.
    pub n_vertices: u32,
    /// Window size in batches.
    pub window: usize,
    adds_per_batch: usize,
    batches: Vec<MutationBatch>,
    /// Per batch, parallel to its `updates`: the copy each re-weight landed
    /// on, numbered in insertion order across the schedule (copy `c` is add
    /// `c % adds_per_batch` of batch `c / adds_per_batch`).
    updated_copies: Vec<Vec<usize>>,
}

impl ChurnStream {
    /// Number of batches (including any drain tail).
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// True if the schedule has no batches.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// The mutations of batch `i`.
    pub fn batch(&self, i: usize) -> &MutationBatch {
        &self.batches[i]
    }

    /// The edge multiset live after batch `i` completed, at current weights,
    /// by destination, then source, then copy age — the order
    /// [`MutationLog::live_edges`] lists the same multiset in, which a
    /// consumer replaying batches `0..=i` holds. [`Self::live_labeled_after`]
    /// without the labels.
    ///
    /// [`MutationLog::live_edges`]: sdgp_core::MutationLog::live_edges
    pub fn live_after(&self, i: usize) -> Vec<StreamEdge> {
        self.live_labeled_after(i).into_iter().map(|(e, _)| e).collect()
    }

    /// The live multiset after batch `i` with per-copy labels (all 0 on an
    /// unlabeled schedule), in [`Self::live_after`]'s order — the ground
    /// truth a standing-query oracle runs over.
    ///
    /// It is read off the copies the generator made, with no replay: deletes
    /// expire whole batches, so the live copies are the adds of the trailing
    /// window, and each is at the weight of the last re-weight that landed on
    /// it. A re-weight from before the window landed on a copy that has
    /// expired since, so only the window's own re-weights are looked at.
    /// Each call costs one sort of the window's copies, whatever `i` and
    /// whatever was asked before.
    pub fn live_labeled_after(&self, i: usize) -> Vec<(StreamEdge, u8)> {
        let first = (i + 1).saturating_sub(self.window);
        let window = first..=i;
        let mut live: Vec<(StreamEdge, u8)> = self.batches[window.clone()]
            .iter()
            .flat_map(|b| {
                let label = |k| b.add_labels.get(k).copied().unwrap_or(0);
                b.adds.iter().enumerate().map(move |(k, &e)| (e, label(k)))
            })
            .collect();
        let base = first * self.adds_per_batch;
        for b in window {
            let updates = self.batches[b].updates.iter();
            for (&c, &(_, _, w)) in self.updated_copies[b].iter().zip(updates) {
                if c >= base {
                    live[c - base].0 .2 = w;
                }
            }
        }
        // Stable: a pair's copies keep their insertion order, oldest first.
        live.sort_by_key(|&((u, v, _), _)| (v, u));
        live
    }

    /// Total edges inserted across all batches.
    pub fn total_adds(&self) -> usize {
        self.batches.iter().map(|b| b.adds.len()).sum()
    }

    /// Total edges deleted across all batches.
    pub fn total_dels(&self) -> usize {
        self.batches.iter().map(|b| b.dels.len()).sum()
    }

    /// Total weight updates across all batches.
    pub fn total_updates(&self) -> usize {
        self.batches.iter().map(|b| b.updates.len()).sum()
    }
}

/// Deterministic label in `1..=k` for the pair `u → v` (splitmix-style
/// endpoint hash — independent of the RNG stream, so turning labels on never
/// perturbs the edge/weight/update schedule).
fn edge_label(u: u32, v: u32, k: u8) -> u8 {
    let mut x = ((u as u64) << 32 | v as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (x ^ (x >> 31)) as u8 % k + 1
}

/// Generate a seeded sliding-window churn schedule over a heavy-tailed
/// (RMAT) edge source: batch `i` inserts `adds_per_batch` fresh edges —
/// in arrival order, or in Snowball discovery order when
/// [`ChurnParams::order`] asks for frontier-correlated churn — deletes the
/// edges inserted by batch `i - window` (in their insertion order, at their
/// *current* weights), and re-weights `updates_per_batch` uniformly chosen
/// live edges. [`ChurnParams::labels`] optionally stamps every insert with a
/// deterministic endpoint-hashed label for standing path queries.
/// Deterministic per parameter set; every delete and update names an edge
/// that is live at that point.
pub fn generate_churn(p: &ChurnParams) -> ChurnStream {
    assert!(p.window >= 1, "window must span at least one batch");
    assert!(p.batches >= 1, "need at least one insert batch");
    assert!(p.labels <= 26, "labels map to query atoms a-z (max 26)");
    let rp = RmatParams::scaled(
        p.n_vertices,
        p.batches * p.adds_per_batch,
        p.seed ^ 0x4348_5552_4e00, // "CHURN"
    );
    let mut edges = generate_rmat(&rp);
    if p.order == Sampling::Snowball {
        // Frontier-correlated schedule: replay the same edge multiset in
        // BFS discovery order, so a batch's inserts cluster on the current
        // frontier — and so, a window later, do its deletes.
        let rank = snowball_ranks(p.n_vertices, &edges, 0);
        edges.sort_by_key(|e| rank[e.0 as usize].max(rank[e.1 as usize]));
    }
    let mut rng = StdRng::seed_from_u64(p.seed ^ 0x5550_4454_u64.rotate_left(13)); // "UPDT"
    let total = if p.drain { p.batches + p.window } else { p.batches };
    let mut batches = Vec::with_capacity(total);
    // Live-window model mirroring the consumer's edge ledger: per-copy
    // current weights (batch `b`'s adds occupy the index range
    // `b*adds_per_batch..(b+1)*adds_per_batch`) plus per-pair queues of live
    // copies, oldest first — updates hit the *oldest* copy of a pair.
    let mut weights: Vec<u32> = Vec::with_capacity(edges.len());
    let mut by_pair: std::collections::HashMap<(u32, u32), std::collections::VecDeque<usize>> =
        std::collections::HashMap::new();
    let mut updated_copies = Vec::with_capacity(total);
    for i in 0..total {
        let dels = match i.checked_sub(p.window) {
            Some(expired) if expired < p.batches => (expired * p.adds_per_batch
                ..(expired + 1) * p.adds_per_batch)
                .map(|idx| {
                    let (u, v, _) = edges[idx];
                    let q = by_pair.get_mut(&(u, v)).expect("expired copy is live");
                    let front = q.pop_front().expect("expired copy is live");
                    debug_assert_eq!(front, idx, "whole batches expire oldest-first");
                    (u, v, weights[idx])
                })
                .collect(),
            _ => Vec::new(),
        };
        let adds = if i < p.batches {
            let slice = &edges[i * p.adds_per_batch..(i + 1) * p.adds_per_batch];
            for &(u, v, w) in slice {
                by_pair.entry((u, v)).or_default().push_back(weights.len());
                weights.push(w);
            }
            slice.to_vec()
        } else {
            Vec::new()
        };
        let add_labels = if p.labels > 1 {
            adds.iter().map(|&(u, v, _)| edge_label(u, v, p.labels)).collect()
        } else {
            Vec::new()
        };
        let live = (i.saturating_sub(p.window - 1).min(p.batches) * p.adds_per_batch)
            ..((i + 1).min(p.batches) * p.adds_per_batch);
        let mut copies = Vec::new();
        let updates = if i < p.batches && !live.is_empty() {
            (0..p.updates_per_batch)
                .map(|_| {
                    // Pick a live copy uniformly; the update lands on the
                    // oldest live copy of its pair (ledger semantics).
                    let (u, v, _) = edges[rng.gen_range(live.clone())];
                    let oldest = *by_pair[&(u, v)].front().expect("picked copy is live");
                    let w = rng.gen_range(1..=rp.max_weight);
                    weights[oldest] = w;
                    copies.push(oldest);
                    (u, v, w)
                })
                .collect()
        } else {
            Vec::new()
        };
        batches.push(MutationBatch { adds, add_labels, dels, updates });
        updated_copies.push(copies);
    }
    ChurnStream {
        n_vertices: p.n_vertices,
        window: p.window,
        adds_per_batch: p.adds_per_batch,
        batches,
        updated_copies,
    }
}

/// A churn workload preset, the decremental counterpart of
/// [`crate::SkewPreset`]: heavy-tailed inserts so hubs promote to rhizomes,
/// a sliding window so settled edges retract, and a drain tail so cooled
/// hubs demote.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnPreset {
    /// Vertex count.
    pub n_vertices: u32,
    /// Edges inserted per batch.
    pub adds_per_batch: usize,
    /// Insert-bearing batches.
    pub batches: usize,
    /// Window size in batches.
    pub window: usize,
    /// Generator seed.
    pub seed: u64,
}

impl ChurnPreset {
    /// The default churn workload: 50 K vertices, ten batches of 100 K edges
    /// with a four-batch window (peak 400 K live edges), plus the drain.
    pub fn v50k() -> Self {
        ChurnPreset {
            n_vertices: 50_000,
            adds_per_batch: 100_000,
            batches: 10,
            window: 4,
            seed: 91,
        }
    }

    /// Shrink by `factor` on both axes (keeps schedule shape).
    pub fn scaled_down(self, factor: u32) -> Self {
        assert!(factor >= 1);
        ChurnPreset {
            n_vertices: (self.n_vertices / factor).max(64),
            adds_per_batch: (self.adds_per_batch / factor as usize).max(64),
            ..self
        }
    }

    /// Generate the schedule (drain tail included, arrival order, no weight
    /// updates — the pure add/delete workload `paper churn` measures).
    pub fn build(&self) -> ChurnStream {
        generate_churn(&ChurnParams {
            n_vertices: self.n_vertices,
            batches: self.batches,
            adds_per_batch: self.adds_per_batch,
            window: self.window,
            drain: true,
            updates_per_batch: 0,
            order: Sampling::Edge,
            labels: 0,
            seed: self.seed,
        })
    }

    /// A short label like `50K/churn-W4` for tables.
    pub fn label(&self) -> String {
        let v = if self.n_vertices >= 1000 {
            format!("{}K", self.n_vertices / 1000)
        } else {
            format!("{}", self.n_vertices)
        };
        format!("{v}/churn-W{}", self.window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::{any, prop_assert_eq, proptest, ProptestConfig, TestCaseError};

    fn ds() -> StreamingDataset {
        let edges = vec![(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (0, 2, 1)];
        StreamingDataset::new(4, Sampling::Edge, edges, vec![0, 2, 4, 5])
    }

    #[test]
    fn increments_slice_correctly() {
        let d = ds();
        assert_eq!(d.increments(), 3);
        assert_eq!(d.increment(0), &[(0, 1, 1), (1, 2, 1)]);
        assert_eq!(d.increment(2), &[(0, 2, 1)]);
        assert_eq!(d.increment_sizes(), vec![2, 2, 1]);
        assert_eq!(d.total_edges(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one increment")]
    fn rejects_empty_offsets() {
        StreamingDataset::new(4, Sampling::Edge, vec![], vec![0]);
    }

    #[test]
    #[should_panic]
    fn rejects_mismatched_offsets() {
        StreamingDataset::new(4, Sampling::Edge, vec![(0, 1, 1)], vec![0, 2]);
    }

    fn churn_params() -> ChurnParams {
        ChurnParams {
            n_vertices: 128,
            batches: 6,
            adds_per_batch: 200,
            window: 3,
            drain: true,
            updates_per_batch: 0,
            order: Sampling::Edge,
            labels: 0,
            seed: 11,
        }
    }

    #[test]
    fn churn_is_deterministic_per_seed() {
        let p = churn_params();
        let (a, b) = (generate_churn(&p), generate_churn(&p));
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(a.batch(i), b.batch(i));
        }
        let other = generate_churn(&ChurnParams { seed: 12, ..p });
        assert_ne!(a.batch(0), other.batch(0), "different seed, different schedule");
    }

    #[test]
    fn churn_window_invariant_holds_batch_by_batch() {
        use std::collections::HashMap;
        let c = generate_churn(&churn_params());
        // Simulate a live-edge multiset; every delete must name a live edge.
        let mut live: HashMap<StreamEdge, i64> = HashMap::new();
        for i in 0..c.len() {
            let b = c.batch(i);
            for &e in &b.dels {
                let n = live.get_mut(&e).expect("delete names a live edge");
                *n -= 1;
                assert!(*n >= 0, "deleted more copies than live: {e:?}");
            }
            for &e in &b.adds {
                *live.entry(e).or_insert(0) += 1;
            }
            // The simulated multiset equals the window arithmetic.
            let mut want: HashMap<StreamEdge, i64> = HashMap::new();
            for e in c.live_after(i) {
                *want.entry(e).or_insert(0) += 1;
            }
            live.retain(|_, n| *n > 0);
            assert_eq!(live, want, "window invariant after batch {i}");
        }
    }

    #[test]
    fn churn_shape_and_drain() {
        let p = churn_params();
        let c = generate_churn(&p);
        assert_eq!(c.len(), p.batches + p.window, "drain appends window batches");
        assert_eq!(c.total_adds(), p.batches * p.adds_per_batch);
        assert_eq!(c.total_dels(), c.total_adds(), "the drain deletes everything");
        assert!(c.live_after(c.len() - 1).is_empty(), "fully drained");
        // Peak live size equals a full window.
        assert_eq!(c.live_after(p.batches - 1).len(), p.window * p.adds_per_batch);
        // First batches delete nothing; drain batches insert nothing.
        assert!(c.batch(0).dels.is_empty());
        assert!(c.batch(p.window - 1).dels.is_empty());
        assert!(!c.batch(p.window).dels.is_empty());
        assert!(c.batch(c.len() - 1).adds.is_empty());
        // Without the drain the window stays full at the end.
        let nodrain = generate_churn(&ChurnParams { drain: false, ..p });
        assert_eq!(nodrain.len(), p.batches);
        assert_eq!(nodrain.live_after(p.batches - 1).len(), p.window * p.adds_per_batch);
    }

    #[test]
    fn churn_deletes_in_insertion_order() {
        let c = generate_churn(&churn_params());
        let w = c.window;
        for i in w..c.len() {
            assert_eq!(
                c.batch(i).dels,
                c.batch(i - w).adds,
                "batch {i} deletes batch {}'s adds verbatim",
                i - w
            );
        }
    }

    #[test]
    fn snowball_churn_is_deterministic_and_preserves_the_multiset() {
        let p = ChurnParams { order: Sampling::Snowball, ..churn_params() };
        let (a, b) = (generate_churn(&p), generate_churn(&p));
        for i in 0..a.len() {
            assert_eq!(a.batch(i), b.batch(i), "deterministic per seed");
        }
        // Same edge multiset as the arrival-order schedule, reordered.
        let arrival = generate_churn(&churn_params());
        let collect = |c: &ChurnStream| {
            let mut all: Vec<StreamEdge> =
                (0..c.len()).flat_map(|i| c.batch(i).adds.iter().copied()).collect();
            all.sort_unstable();
            all
        };
        assert_eq!(collect(&a), collect(&arrival), "reordering preserves the multiset");
        let flat_a: Vec<StreamEdge> =
            (0..a.len()).flat_map(|i| a.batch(i).adds.iter().copied()).collect();
        let flat_arrival: Vec<StreamEdge> =
            (0..arrival.len()).flat_map(|i| arrival.batch(i).adds.iter().copied()).collect();
        assert_ne!(flat_a, flat_arrival, "snowball genuinely reorders the stream");
    }

    #[test]
    fn snowball_churn_window_invariant_and_discovery_order() {
        let p = ChurnParams { order: Sampling::Snowball, ..churn_params() };
        let c = generate_churn(&p);
        // Window invariant: dels still expire whole batches in order.
        for i in p.window..c.len() {
            assert_eq!(c.batch(i).dels, c.batch(i - p.window).adds, "batch {i} expires i-W");
        }
        assert!(c.live_after(c.len() - 1).is_empty(), "fully drained");
        // Discovery order: an insert never arrives before either endpoint is
        // discoverable (vertex 0, a previously seen vertex, or the smallest
        // undiscovered vertex with any edge — a new component's seed).
        let mut has_edge = vec![false; p.n_vertices as usize];
        for i in 0..c.len() {
            for &(u, v, _) in &c.batch(i).adds {
                has_edge[u as usize] = true;
                has_edge[v as usize] = true;
            }
        }
        let mut seen = vec![false; p.n_vertices as usize];
        seen[0] = true;
        for i in 0..c.len() {
            for &(u, v, _) in &c.batch(i).adds {
                if !(seen[u as usize] || seen[v as usize]) {
                    let next_seed = (0..p.n_vertices)
                        .find(|&x| !seen[x as usize] && has_edge[x as usize])
                        .unwrap();
                    assert!(
                        u == next_seed || v == next_seed,
                        "edge ({u},{v}) streamed before discovery (seed {next_seed})"
                    );
                }
                seen[u as usize] = true;
                seen[v as usize] = true;
            }
        }
    }

    #[test]
    fn snowball_churn_concentrates_early_batches_on_the_frontier() {
        let p = churn_params();
        let distinct_first = |c: &ChurnStream| {
            let mut vs: Vec<u32> = c.batch(0).adds.iter().flat_map(|&(u, v, _)| [u, v]).collect();
            vs.sort_unstable();
            vs.dedup();
            vs.len()
        };
        let arrival = distinct_first(&generate_churn(&p));
        let snowball =
            distinct_first(&generate_churn(&ChurnParams { order: Sampling::Snowball, ..p }));
        assert!(
            snowball < arrival,
            "snowball batch 0 touches fewer distinct vertices ({snowball} vs {arrival})"
        );
    }

    #[test]
    fn churn_with_updates_is_deterministic() {
        let p = ChurnParams { updates_per_batch: 17, ..churn_params() };
        let (a, b) = (generate_churn(&p), generate_churn(&p));
        for i in 0..a.len() {
            assert_eq!(a.batch(i), b.batch(i));
        }
        assert_eq!(a.total_updates(), p.batches * 17, "insert-bearing batches carry updates");
        assert!(a.batch(a.len() - 1).updates.is_empty(), "drain batches are delete-only");
        let other = generate_churn(&ChurnParams { seed: 12, ..p });
        assert_ne!(a.batch(0).updates, other.batch(0).updates, "seed changes the updates");
        // updates_per_batch = 0 reproduces the pure schedule exactly.
        let pure = generate_churn(&churn_params());
        let mixed = generate_churn(&p);
        for i in 0..pure.len() {
            assert_eq!(pure.batch(i).adds, mixed.batch(i).adds);
        }
    }

    #[test]
    fn churn_with_updates_window_invariant_holds_batch_by_batch() {
        use std::collections::{HashMap, VecDeque};
        let p = ChurnParams { updates_per_batch: 23, ..churn_params() };
        let c = generate_churn(&p);
        assert!(c.total_updates() > 0);
        // Independent ledger model: per-pair queues of live copy weights,
        // oldest first. Deletes must name a live weight, updates a live
        // pair; the multiset must always match live_after.
        let mut live: HashMap<(u32, u32), VecDeque<u32>> = HashMap::new();
        let mut touched_weight = false;
        for i in 0..c.len() {
            let b = c.batch(i);
            for &(u, v, w) in &b.dels {
                let q = live.get_mut(&(u, v)).expect("delete names a live pair");
                let at = q.iter().position(|&cw| cw == w).expect("delete names a live weight");
                q.remove(at);
                if q.is_empty() {
                    live.remove(&(u, v));
                }
            }
            for &(u, v, w) in &b.adds {
                live.entry((u, v)).or_default().push_back(w);
            }
            for &(u, v, w) in &b.updates {
                let q = live.get_mut(&(u, v)).expect("update names a live pair");
                let front = q.front_mut().expect("update names a live pair");
                if *front != w {
                    touched_weight = true;
                }
                *front = w;
            }
            let mut want: Vec<StreamEdge> =
                live.iter().flat_map(|(&(u, v), q)| q.iter().map(move |&w| (u, v, w))).collect();
            want.sort_unstable();
            let mut got = c.live_after(i);
            got.sort_unstable();
            assert_eq!(got, want, "live multiset (with current weights) after batch {i}");
        }
        assert!(touched_weight, "schedule must actually change some weight");
        assert!(c.live_after(c.len() - 1).is_empty(), "updates never change liveness");
    }

    #[test]
    fn live_after_is_incremental_and_rewindable() {
        let p = ChurnParams { updates_per_batch: 23, ..churn_params() };
        let c = generate_churn(&p);
        // A fresh clone has answered nothing; comparing a forward scan on one
        // stream against first queries on another pins every answer to the
        // schedule alone, not to what was asked before.
        for i in 0..c.len() {
            assert_eq!(c.live_after(i), c.clone().live_after(i), "forward scan, batch {i}");
        }
        // Rewinding (asking for an earlier batch) gives the same answer.
        let mid = c.len() / 2;
        assert_eq!(c.live_after(mid), c.clone().live_after(mid), "rewind to batch {mid}");
        assert_eq!(c.live_after(c.len() - 1), Vec::new(), "re-advance after rewind");
        // Repeated queries of the same batch are stable.
        assert_eq!(c.live_after(mid), c.live_after(mid));
    }

    #[test]
    fn labels_never_perturb_the_schedule() {
        let plain = generate_churn(&churn_params());
        let labeled = generate_churn(&ChurnParams { labels: 4, ..churn_params() });
        assert_eq!(plain.len(), labeled.len());
        for i in 0..plain.len() {
            let (p, l) = (plain.batch(i), labeled.batch(i));
            assert_eq!(p.adds, l.adds, "labels are a pure annotation (batch {i})");
            assert_eq!(p.dels, l.dels);
            assert_eq!(p.updates, l.updates);
            assert!(p.add_labels.is_empty(), "labels=0 leaves batches unlabeled");
            assert_eq!(l.add_labels.len(), l.adds.len());
            assert!(l.add_labels.iter().all(|&x| (1..=4).contains(&x)));
        }
        // Same pair, same label — everywhere in the schedule.
        use std::collections::HashMap;
        let mut seen: HashMap<(u32, u32), u8> = HashMap::new();
        for i in 0..labeled.len() {
            let b = labeled.batch(i);
            for (&(u, v, _), &l) in b.adds.iter().zip(&b.add_labels) {
                assert_eq!(*seen.entry((u, v)).or_insert(l), l, "pair ({u},{v}) relabeled");
            }
        }
    }

    #[test]
    fn live_labeled_after_tracks_the_labeled_multiset() {
        let p = ChurnParams { labels: 3, updates_per_batch: 9, ..churn_params() };
        let c = generate_churn(&p);
        for i in 0..c.len() {
            let labeled = c.live_labeled_after(i);
            let plain: Vec<StreamEdge> = labeled.iter().map(|&(e, _)| e).collect();
            assert_eq!(plain, c.live_after(i), "labeled view projects to the plain view");
            for &((u, v, _), l) in &labeled {
                assert_eq!(l, super::edge_label(u, v, 3), "label is the endpoint hash");
            }
        }
        // Unlabeled schedules report label 0 everywhere.
        let plain = generate_churn(&churn_params());
        let mid = plain.len() / 2;
        assert!(plain.live_labeled_after(mid).iter().all(|&(_, l)| l == 0));
        assert_eq!(
            plain.live_labeled_after(mid).len(),
            plain.live_after(mid).len(),
            "both views agree on the multiset size"
        );
    }

    #[test]
    fn live_after_is_rewind_safe_under_non_monotonic_interleaving() {
        // Answers depend on the batch asked for and nothing else. Pin an
        // adversarial interleaving (forward jumps, rewinds, repeats,
        // alternating plain/labeled views) against fresh clones.
        let p = ChurnParams { labels: 3, updates_per_batch: 9, ..churn_params() };
        let c = generate_churn(&p);
        let last = c.len() - 1;
        for &i in &[5, 2, 7, 0, 7, 3, 3, last, 1, last] {
            assert_eq!(c.live_after(i), c.clone().live_after(i), "plain view at batch {i}");
            assert_eq!(
                c.live_labeled_after(i),
                c.clone().live_labeled_after(i),
                "labeled view at batch {i}"
            );
        }
    }

    /// Labels and no re-weights: the case the proptest below reaches only
    /// by chance, run on every test run.
    #[test]
    fn both_views_agree_on_a_labeled_update_free_schedule() {
        let c = generate_churn(&ChurnParams { labels: 3, ..churn_params() });
        assert_eq!(c.total_updates(), 0);
        assert!((0..c.len()).filter(|&i| !c.live_after(i).is_empty()).count() > 1);
        assert_a_log_replay_agrees(&c).unwrap();
    }

    /// Replays `c` through a [`MutationLog`], one epoch per batch, the way
    /// a consumer stages it, and checks after every batch that both views
    /// list exactly what the log lists, order included.
    ///
    /// [`MutationLog`]: sdgp_core::MutationLog
    fn assert_a_log_replay_agrees(c: &ChurnStream) -> Result<(), TestCaseError> {
        let mut log = sdgp_core::MutationLog::new();
        for i in 0..c.len() {
            for m in c.batch(i).to_mutations() {
                log.push(m);
            }
            log.drain();
            prop_assert_eq!(c.live_labeled_after(i), log.live_labeled_edges(), "batch {}", i);
            prop_assert_eq!(c.live_after(i), log.live_edges(), "batch {}", i);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..Default::default() })]

        /// Few vertices and four weights make multigraph pairs, repeated
        /// re-weights of one copy and equal weights within a pair common:
        /// the cases where a re-weight read onto the wrong copy, or a pair's
        /// copies out of age order, would show.
        #[test]
        fn any_schedule_lists_what_a_mutation_log_replay_lists(
            n_vertices in 2u32..128,
            batches in 1usize..8,
            adds_per_batch in 1usize..200,
            window in 1usize..5,
            drain in any::<bool>(),
            updates_per_batch in 0usize..24,
            snowball in any::<bool>(),
            labels in 0u8..4,
            seed in any::<u64>(),
        ) {
            let order = if snowball { Sampling::Snowball } else { Sampling::Edge };
            let c = generate_churn(&ChurnParams {
                n_vertices,
                batches,
                adds_per_batch,
                window,
                drain,
                updates_per_batch,
                order,
                labels,
                seed,
            });
            assert_a_log_replay_agrees(&c)?;
        }
    }

    #[test]
    fn batch_to_mutations_is_canonically_ordered() {
        use sdgp_core::graph::GraphMutation;
        let b = MutationBatch {
            adds: vec![(0, 1, 5)],
            add_labels: vec![4],
            dels: vec![(2, 3, 7)],
            updates: vec![(4, 5, 9)],
        };
        assert_eq!(
            b.to_mutations(),
            vec![
                GraphMutation::DelEdge((2, 3, 7)),
                GraphMutation::AddLabeledEdge((0, 1, 5), 4),
                GraphMutation::UpdateWeight { u: 4, v: 5, w: 9 },
            ]
        );
        let s = b.shifted(100);
        assert_eq!(s.adds, vec![(100, 101, 5)]);
        assert_eq!(s.add_labels, vec![4], "labels ride the shift unchanged");
        assert_eq!(s.dels, vec![(102, 103, 7)]);
        assert_eq!(s.updates, vec![(104, 105, 9)]);
        // An unlabeled batch (empty add_labels) emits plain adds.
        let plain = MutationBatch { add_labels: vec![], ..b };
        assert_eq!(plain.to_mutations()[1], GraphMutation::AddEdge((0, 1, 5)));
    }

    #[test]
    fn churn_preset_builds_and_scales() {
        let p = ChurnPreset::v50k().scaled_down(50);
        assert_eq!(p.n_vertices, 1000);
        assert_eq!(p.adds_per_batch, 2000);
        let c = p.build();
        assert_eq!(c.len(), p.batches + p.window);
        assert_eq!(c.total_adds(), 20_000);
        assert_eq!(ChurnPreset::v50k().label(), "50K/churn-W4");
        for i in 0..c.len() {
            for &(u, v, _) in &c.batch(i).adds {
                assert!(u < p.n_vertices && v < p.n_vertices && u != v);
            }
        }
    }
}
