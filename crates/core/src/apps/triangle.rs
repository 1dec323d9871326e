//! Message-driven triangle counting over RPVO storage — the first of the
//! paper's named future-work algorithms (§6: "Triangle Counting, Jaccard
//! Coefficient, and Stochastic Block Partition").
//!
//! The query runs as a diffusion over a *quiescent, symmetrized* graph (each
//! undirected edge {a,b} stored in both directions). Orientation makes the
//! count exact, with each triangle {a<b<c} counted exactly once:
//!
//! 1. **tri-gen** visits every object of a vertex `u` and, for each local
//!    edge `(u,v)` with `v > u`, probes `v`.
//! 2. **tri-probe** at `v` (walking v's whole RPVO) emits, for each local
//!    edge `(v,w)` with `w > v`, a membership check `CHECK(w; u)`.
//! 3. **tri-check** at `w` scans for an edge back to `u`; a hit increments a
//!    per-cell counter; a miss forwards the check into w's ghosts (the edge,
//!    if present, is stored in exactly one object, so at most one hit).
//!
//! For the triangle {a<b<c} only the probe from edge (a,b) finds w = c > b,
//! and only the check CHECK(c; a) can hit — one count per triangle.
//!
//! Counting is re-run per streaming increment (a snapshot query); a fully
//! incremental variant remains future work, as in the paper.
//!
//! The graph must be **simple** (no duplicate directed edges): the
//! exactness argument rests on each edge being stored in exactly one
//! object, and a duplicate split across two ghost subtrees — or, on a
//! promoted rhizome vertex, across two root slices — would be counted once
//! per copy. The same assumption applies to the Jaccard query.

use amcca_sim::{ActionId, ExecCtx, Operon};

use crate::rpvo::{Edge, RpvoConfig, VertexObj};

use super::algo::{Scratch, VertexAlgo, ACT_ALGO_BASE, QUERY_FANNED_BIT};

/// Start the pair-generation walk at a vertex object.
pub const ACT_TRI_GEN: ActionId = ACT_ALGO_BASE;
/// Probe a neighbour `v` of `u` for wedges `u–v–w` with `w > v`.
pub const ACT_TRI_PROBE: ActionId = ACT_ALGO_BASE + 1;
/// Membership check: does the target vertex have an edge to `payload[0]`?
pub const ACT_TRI_CHECK: ActionId = ACT_ALGO_BASE + 2;

/// Exact triangle counting via oriented probe/check diffusion.
pub struct TriangleAlgo {
    /// Per-compute-cell hit counters (summed by the host after quiescence;
    /// a decentralized reduction LCO would gather them on-chip).
    pub counts: Vec<u64>,
    scratch: Scratch,
}

impl TriangleAlgo {
    /// Counter state for a chip with `cell_count` cells.
    pub fn new(cell_count: u32) -> Self {
        TriangleAlgo { counts: vec![0; cell_count as usize], scratch: Scratch::default() }
    }

    /// Total triangles found since the last [`Self::reset`].
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Clear all per-cell counters (before a new query).
    pub fn reset(&mut self) {
        self.counts.fill(0);
    }
}

impl VertexAlgo for TriangleAlgo {
    type State = ();

    const NAME: &'static str = "triangle";

    fn fork(&self) -> Self {
        TriangleAlgo::new(self.counts.len() as u32)
    }

    fn merge(&mut self, worker: Self) {
        // Per-cell hit counters: each cell belongs to exactly one shard, so
        // the element-wise sum reproduces the sequential counts exactly.
        for (total, shard) in self.counts.iter_mut().zip(&worker.counts) {
            *total += shard;
        }
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

    fn on_other_action(
        &mut self,
        ctx: &mut ExecCtx<'_, VertexObj<()>>,
        op: &Operon,
        _rcfg: &RpvoConfig,
    ) {
        match op.action {
            ACT_TRI_GEN => {
                let Some(vid) = self.scratch.visit(ctx, op) else { return };
                ctx.charge(ctx.cost().scan_per_edge * self.scratch.edges.len() as u32);
                for e in self.scratch.edges.iter().filter(|e| e.dst_id > vid) {
                    ctx.propagate(Operon::new(e.dst, ACT_TRI_PROBE, [vid as u64, 0]));
                }
                self.scratch.forward(ctx, op);
            }
            ACT_TRI_PROBE => {
                let u = op.payload[0] & !QUERY_FANNED_BIT;
                let Some(vid) = self.scratch.visit(ctx, op) else { return };
                ctx.charge(ctx.cost().scan_per_edge * self.scratch.edges.len() as u32);
                for e in self.scratch.edges.iter().filter(|e| e.dst_id > vid) {
                    ctx.propagate(Operon::new(e.dst, ACT_TRI_CHECK, [u, 0]));
                }
                self.scratch.forward(ctx, op);
            }
            ACT_TRI_CHECK => {
                let u = (op.payload[0] & !QUERY_FANNED_BIT) as u32;
                let Some(_) = self.scratch.visit(ctx, op) else { return };
                ctx.charge(ctx.cost().scan_per_edge * self.scratch.edges.len() as u32);
                if self.scratch.edges.iter().any(|e| e.dst_id == u) {
                    self.counts[ctx.cc as usize] += 1;
                } else {
                    // The edge, if it exists, lives in exactly one object of
                    // this RPVO: fan the check into the ghost subtrees.
                    self.scratch.forward(ctx, op);
                }
            }
            other => panic!("triangle: unknown action {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amcca_sim::Address;

    #[test]
    fn counters_sum_and_reset() {
        let mut t = TriangleAlgo::new(4);
        t.counts[0] = 3;
        t.counts[3] = 2;
        assert_eq!(t.total(), 5);
        t.reset();
        assert_eq!(t.total(), 0);
    }

    #[test]
    fn algo_is_silent_on_inserts() {
        let t = TriangleAlgo::new(1);
        let e = Edge::new(Address::new(0, 0), 1, 1);
        assert_eq!(t.notify_on_insert(&(), &e), None);
        assert_eq!(t.sync_value(&()), None);
        let mut s = ();
        assert!(!t.improve(&mut s, 0));
    }
}
