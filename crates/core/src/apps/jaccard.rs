//! Message-driven Jaccard coefficients — the second of the paper's named
//! future-work algorithms (§6: "Triangle Counting, **Jaccard Coefficient**,
//! and Stochastic Block Partition").
//!
//! For every undirected edge {u,v} the Jaccard coefficient is
//! `J(u,v) = |N(u) ∩ N(v)| / |N(u) ∪ N(v)|`. Over a quiescent, symmetrized
//! graph the intersection counts are computed as a three-stage diffusion:
//!
//! 1. **jc-gen** walks every object of vertex `u`; each local edge `(u,v)`
//!    with `v > u` (canonical orientation — each pair computed once) sends a
//!    probe to `v`.
//! 2. **jc-probe** at `v` walks v's RPVO; each local edge `(v,w)` emits a
//!    membership check `CHECK(w; u, v)`.
//! 3. **jc-check** at `w` scans for an edge back to `u`; a hit means
//!    `w ∈ N(u) ∩ N(v)` and increments the accumulator for the pair `(u,v)`
//!    (misses fan into w's ghosts; the edge lives in exactly one object, so
//!    a pair is counted at most once per common neighbour).
//!
//! The union follows from degrees, `|N(u)∪N(v)| = d(u) + d(v) − inter`,
//! which the host reads off the RPVOs. Hit accumulators live per pair in the
//! application (a hardware run would keep per-cell partial maps and reduce
//! them with a gather diffusion; the host-side sum is equivalent).

use std::collections::HashMap;

use amcca_sim::{ActionId, ExecCtx, Operon};

use crate::rpvo::{Edge, RpvoConfig, VertexObj};

use super::algo::{Scratch, VertexAlgo, ACT_ALGO_BASE, QUERY_FANNED_BIT};

/// Start the canonical-pair generation walk at a vertex object.
pub const ACT_JC_GEN: ActionId = ACT_ALGO_BASE;
/// Probe `v` for its neighbourhood, on behalf of pair `(u, v)`.
pub const ACT_JC_PROBE: ActionId = ACT_ALGO_BASE + 1;
/// Membership check at `w`: `u ∈ N(w)`? Payload carries the pair `(u, v)`.
pub const ACT_JC_CHECK: ActionId = ACT_ALGO_BASE + 2;

/// Exact Jaccard-coefficient computation via probe/check diffusion.
pub struct JaccardAlgo {
    /// Intersection hits per canonical pair, keyed `(u << 32) | v`.
    pub hits: HashMap<u64, u64>,
    scratch: Scratch,
}

impl JaccardAlgo {
    /// Fresh accumulator state.
    pub fn new() -> Self {
        JaccardAlgo { hits: HashMap::new(), scratch: Scratch::default() }
    }

    /// Clear all recorded intersection hits (before a new query).
    pub fn reset(&mut self) {
        self.hits.clear();
    }

    /// Intersection size recorded for the canonical pair `(u, v)`, `u < v`.
    pub fn intersection(&self, u: u32, v: u32) -> u64 {
        debug_assert!(u < v);
        self.hits.get(&(((u as u64) << 32) | v as u64)).copied().unwrap_or(0)
    }
}

impl Default for JaccardAlgo {
    fn default() -> Self {
        Self::new()
    }
}

impl VertexAlgo for JaccardAlgo {
    type State = ();

    const NAME: &'static str = "jaccard";

    fn fork(&self) -> Self {
        JaccardAlgo::new()
    }

    fn merge(&mut self, worker: Self) {
        // A pair's hits may be recorded on cells of different shards (one
        // common neighbour each); summing per key merges them exactly.
        for (pair, hits) in worker.hits {
            *self.hits.entry(pair).or_insert(0) += hits;
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
            ACT_JC_GEN => {
                let Some(vid) = self.scratch.visit(ctx, op) else { return };
                ctx.charge(ctx.cost().scan_per_edge * self.scratch.edges.len() as u32);
                for e in self.scratch.edges.iter().filter(|e| e.dst_id > vid) {
                    // Canonical pair (u=vid, v=e.dst_id): probe v.
                    ctx.propagate(Operon::new(e.dst, ACT_JC_PROBE, [vid as u64, 0]));
                }
                self.scratch.forward(ctx, op);
            }
            ACT_JC_PROBE => {
                let u = (op.payload[0] & !QUERY_FANNED_BIT) as u32;
                let Some(vid) = self.scratch.visit(ctx, op) else { return };
                ctx.charge(ctx.cost().scan_per_edge * self.scratch.edges.len() as u32);
                let pair = ((u as u64) << 32) | vid as u64;
                for e in &self.scratch.edges {
                    // w = e.dst_id ∈ N(v); ask w whether u ∈ N(w).
                    ctx.propagate(Operon::new(e.dst, ACT_JC_CHECK, [u as u64, pair]));
                }
                self.scratch.forward(ctx, op);
            }
            ACT_JC_CHECK => {
                let u = (op.payload[0] & !QUERY_FANNED_BIT) as u32;
                let Some(_) = self.scratch.visit(ctx, op) else { return };
                ctx.charge(ctx.cost().scan_per_edge * self.scratch.edges.len() as u32);
                if self.scratch.edges.iter().any(|e| e.dst_id == u) {
                    *self.hits.entry(op.payload[1]).or_insert(0) += 1;
                } else {
                    self.scratch.forward(ctx, op);
                }
            }
            other => panic!("jaccard: unknown action {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amcca_sim::Address;

    #[test]
    fn intersection_lookup_defaults_to_zero() {
        let mut j = JaccardAlgo::new();
        assert_eq!(j.intersection(1, 2), 0);
        j.hits.insert((1u64 << 32) | 2, 5);
        assert_eq!(j.intersection(1, 2), 5);
        j.reset();
        assert_eq!(j.intersection(1, 2), 0);
    }

    #[test]
    fn algo_is_silent_during_ingestion() {
        let j = JaccardAlgo::new();
        let e = Edge::new(Address::new(0, 0), 1, 1);
        assert_eq!(j.notify_on_insert(&(), &e), None);
        assert_eq!(j.sync_value(&()), None);
    }
}
