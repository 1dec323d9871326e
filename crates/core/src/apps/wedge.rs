//! Message-driven triangle counting and Jaccard coefficients — the first two
//! of the paper's named future-work algorithms (§6: "Triangle Counting,
//! Jaccard Coefficient, and Stochastic Block Partition").
//!
//! Both run one three-stage diffusion over a *quiescent, symmetrized* graph
//! (each undirected edge {a,b} stored in both directions):
//!
//! 1. **gen** visits every object of a vertex `u` and, for each local edge
//!    `(u,v)` with `v > u` (canonical orientation), probes `v`.
//! 2. **probe** at `v` (walking v's whole RPVO) emits, for each local edge
//!    `(v,w)` — only `w > v` if the algorithm is oriented — a membership
//!    check `CHECK(w; u)`.
//! 3. **check** at `w` scans for an edge back to `u`; a hit lands in the
//!    algorithm's sink, a miss forwards the check into w's ghosts (the edge,
//!    if present, is stored in exactly one object, so at most one hit).
//!
//! The two algorithms differ only where they must ([`WedgeSink`]):
//!
//! * **Triangles** check `w > v` and count hits per cell. For the triangle
//!   {a<b<c} only the probe from edge (a,b) finds w = c > b, and only the
//!   check CHECK(c; a) can hit — one count per triangle.
//! * **Jaccard** checks every `w` and counts hits per pair: a hit means
//!   `w ∈ N(u) ∩ N(v)`. The union `|N(u) ∪ N(v)| = d(u) + d(v) − inter`
//!   follows from degrees the host reads off the RPVOs, and `J(u,v)` is
//!   their ratio.
//!
//! Either query is re-run per streaming increment (a snapshot query; a fully
//! incremental variant remains future work, as in the paper). The host sums
//! the hits after quiescence, where hardware would gather per-cell partials
//! with a reduction diffusion.
//!
//! The graph must be **simple** (no duplicate directed edges): the
//! exactness argument rests on each edge being stored in exactly one
//! object, and a duplicate split across two ghost subtrees — or, on a
//! promoted rhizome vertex, across two root slices — would be counted once
//! per copy.

use std::collections::HashMap;

use amcca_sim::{ActionId, ExecCtx, Operon};

use crate::rpvo::{Edge, VertexObj};

use super::algo::{Scratch, VertexAlgo, ACT_ALGO_BASE, QUERY_FANNED_BIT};

/// Start the gen walk at a vertex object.
const ACT_GEN: ActionId = ACT_ALGO_BASE;
/// Probe a neighbour `v` of `u = payload[0]` for wedges `u–v–w`.
const ACT_PROBE: ActionId = ACT_ALGO_BASE + 1;
/// Membership check: does the target vertex have an edge to `payload[0]`?
/// `payload[1]` carries the sink's check word.
const ACT_CHECK: ActionId = ACT_ALGO_BASE + 2;

/// Start a triangle count at a vertex object.
pub const ACT_TRI_GEN: ActionId = ACT_GEN;
/// Start a Jaccard pass at a vertex object.
pub const ACT_JC_GEN: ActionId = ACT_GEN;

/// What tells one wedge query from the other: which wedges a probe checks
/// and where a check's hit lands.
pub trait WedgeSink: Send {
    /// The algorithm's [`VertexAlgo::NAME`].
    const NAME: &'static str;

    /// Whether a probe at `v` checks only the wedges through neighbours
    /// `w > v` (triangles) rather than every neighbour (Jaccard).
    const ORIENTED: bool;

    /// The check's `payload[1]` for the canonical pair `(u, v)`.
    fn check_word(u: u32, v: u32) -> u64;

    /// Record a check hit on cell `cc` carrying check word `word`.
    fn hit(&mut self, cc: u16, word: u64);

    /// An empty sink of the same shape.
    fn fork(&self) -> Self;

    /// Fold a shard's hits back. Both sinks sum, so the merge reproduces
    /// the sequential hits exactly.
    fn merge(&mut self, worker: Self);
}

/// Per-compute-cell triangle counters.
pub struct Triangles(Vec<u64>);

impl WedgeSink for Triangles {
    const NAME: &'static str = "triangle";
    const ORIENTED: bool = true;

    fn check_word(_u: u32, _v: u32) -> u64 {
        0
    }

    fn hit(&mut self, cc: u16, _word: u64) {
        self.0[cc as usize] += 1;
    }

    fn fork(&self) -> Self {
        Triangles(vec![0; self.0.len()])
    }

    fn merge(&mut self, worker: Self) {
        for (total, shard) in self.0.iter_mut().zip(&worker.0) {
            *total += shard;
        }
    }
}

/// Jaccard intersection hits per canonical pair, keyed `(u << 32) | v`.
#[derive(Default)]
pub struct Jaccard(HashMap<u64, u64>);

impl WedgeSink for Jaccard {
    const NAME: &'static str = "jaccard";
    const ORIENTED: bool = false;

    fn check_word(u: u32, v: u32) -> u64 {
        ((u as u64) << 32) | v as u64
    }

    fn hit(&mut self, _cc: u16, pair: u64) {
        *self.0.entry(pair).or_insert(0) += 1;
    }

    fn fork(&self) -> Self {
        Jaccard::default()
    }

    fn merge(&mut self, worker: Self) {
        for (pair, hits) in worker.0 {
            *self.0.entry(pair).or_insert(0) += hits;
        }
    }
}

/// A gen → probe → check snapshot query whose hits land in `K`.
#[derive(Default)]
pub struct WedgeAlgo<K> {
    sink: K,
    scratch: Scratch,
}

/// Exact triangle counting via oriented probe/check diffusion.
pub type TriangleAlgo = WedgeAlgo<Triangles>;
/// Exact Jaccard-coefficient intersections via probe/check diffusion.
pub type JaccardAlgo = WedgeAlgo<Jaccard>;

impl<K: WedgeSink> WedgeAlgo<K> {
    /// Clear every recorded hit (before a new query).
    pub fn reset(&mut self) {
        self.sink = self.sink.fork();
    }
}

impl TriangleAlgo {
    /// Counter state for a chip with `cell_count` cells.
    pub fn new(cell_count: u32) -> Self {
        WedgeAlgo { sink: Triangles(vec![0; cell_count as usize]), scratch: Scratch::default() }
    }

    /// Total triangles found since the last [`Self::reset`].
    pub fn total(&self) -> u64 {
        self.sink.0.iter().sum()
    }
}

impl JaccardAlgo {
    /// Fresh accumulator state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intersection size recorded for the canonical pair `(u, v)`, `u < v`.
    pub fn intersection(&self, u: u32, v: u32) -> u64 {
        debug_assert!(u < v);
        self.sink.0.get(&Jaccard::check_word(u, v)).copied().unwrap_or(0)
    }
}

impl<K: WedgeSink> VertexAlgo for WedgeAlgo<K> {
    type State = ();

    const NAME: &'static str = K::NAME;

    fn fork(&self) -> Self {
        WedgeAlgo { sink: self.sink.fork(), scratch: Scratch::default() }
    }

    fn merge(&mut self, worker: Self) {
        self.sink.merge(worker.sink);
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

    fn on_other_action(&mut self, ctx: &mut ExecCtx<'_, VertexObj<()>>, op: &Operon) {
        let u = (op.payload[0] & !QUERY_FANNED_BIT) as u32;
        let Some(vid) = self.scratch.visit(ctx, op) else { return };
        ctx.charge(ctx.cost().scan_per_edge * self.scratch.edges.len() as u32);
        let edges = &self.scratch.edges;
        match op.action {
            ACT_GEN => {
                for e in edges.iter().filter(|e| e.dst_id > vid) {
                    ctx.propagate(Operon::new(e.dst, ACT_PROBE, [vid as u64, 0]));
                }
            }
            ACT_PROBE => {
                let word = K::check_word(u, vid);
                for e in edges.iter().filter(|e| !K::ORIENTED || e.dst_id > vid) {
                    ctx.propagate(Operon::new(e.dst, ACT_CHECK, [u as u64, word]));
                }
            }
            ACT_CHECK if edges.iter().any(|e| e.dst_id == u) => {
                // The edge lives in exactly one object of this RPVO: a hit
                // ends the check.
                self.sink.hit(ctx.cc, op.payload[1]);
                return;
            }
            ACT_CHECK => {}
            other => panic!("{}: unknown action {other}", K::NAME),
        }
        self.scratch.forward(ctx, op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_and_reset() {
        let mut t = TriangleAlgo::new(4);
        t.sink.0[0] = 3;
        t.sink.0[3] = 2;
        assert_eq!(t.total(), 5);
        t.reset();
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn intersection_lookup_defaults_to_zero() {
        let mut j = JaccardAlgo::new();
        assert_eq!(j.intersection(1, 2), 0);
        j.sink.0.insert((1u64 << 32) | 2, 5);
        assert_eq!(j.intersection(1, 2), 5);
        j.reset();
        assert_eq!(j.intersection(1, 2), 0);
    }

    #[test]
    fn algo_is_silent_during_ingestion() {
        let t = TriangleAlgo::new(1);
        assert_eq!(t.sync_value(&()), None);
        let mut s = ();
        assert!(!t.improve(&mut s, 0));
        assert_eq!(JaccardAlgo::new().sync_value(&()), None);
    }
}
