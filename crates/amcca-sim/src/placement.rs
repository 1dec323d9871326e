//! Object placement policies.
//!
//! Three concerns are covered: where *root* vertex objects go when the host
//! constructs the graph ([`root_cell`]), where a promoted hub's extra
//! rhizome roots go ([`rhizome_cells`]), and where *ghost* vertices are
//! allocated when an RPVO spills. The paper contrasts the **Vicinity
//! Allocator** (ghosts land within 2 hops of the requesting cell, keeping
//! intra-vertex latency low) with the **Random Allocator** (no locality;
//! Fig. 5). Both are implemented; `paper ablate-alloc` quantifies the
//! difference.

use crate::geom::Dims;
use crate::rng::SplitMix64;

/// Placement policy for ghost-vertex allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GhostPlacement {
    /// Allocate within `max_hops` of the requesting cell (paper default: 2).
    /// `Vicinity` variant.
    Vicinity {
        /// Maximum Manhattan distance from the requesting cell.
        max_hops: u32,
    },
    /// Allocate on a uniformly random cell anywhere on the chip.
    Random,
}

impl Default for GhostPlacement {
    fn default() -> Self {
        GhostPlacement::Vicinity { max_hops: 2 }
    }
}

/// Precomputed candidate tables for ghost placement. Vicinity rings are
/// computed once per chip so the per-allocation choice is O(1).
#[derive(Debug, Clone)]
pub struct PlacementTable {
    policy: GhostPlacement,
    dims: Dims,
    /// For Vicinity: candidate cells per origin, ordered by distance.
    rings: Vec<Vec<u16>>,
}

impl PlacementTable {
    /// Precompute the candidate tables for `policy` on a `dims` mesh.
    pub fn new(policy: GhostPlacement, dims: Dims) -> Self {
        let rings = match policy {
            GhostPlacement::Vicinity { max_hops } => {
                dims.iter_ids().map(|id| dims.vicinity(id, max_hops)).collect()
            }
            GhostPlacement::Random => Vec::new(),
        };
        PlacementTable { policy, dims, rings }
    }

    /// The policy this table was built for.
    pub fn policy(&self) -> GhostPlacement {
        self.policy
    }

    /// Choose the target cell for an allocation requested by `origin`.
    /// `retry` > 0 walks further candidates after a failed attempt, so a full
    /// neighbour does not wedge the allocation.
    pub fn choose(&self, origin: u16, retry: u32, rng: &mut SplitMix64) -> u16 {
        match self.policy {
            GhostPlacement::Vicinity { .. } => {
                let ring = &self.rings[origin as usize];
                debug_assert!(!ring.is_empty(), "vicinity ring empty");
                if retry == 0 {
                    ring[rng.gen_range(ring.len() as u64) as usize]
                } else {
                    // Deterministically sweep the ring outward on retries;
                    // beyond the ring, spiral over the whole chip.
                    let idx = retry as usize - 1;
                    if idx < ring.len() {
                        ring[idx]
                    } else {
                        let all = self.dims.cell_count() as u64;
                        ((origin as u64 + retry as u64 * 131) % all) as u16
                    }
                }
            }
            GhostPlacement::Random => {
                if retry == 0 {
                    rng.gen_range(self.dims.cell_count() as u64) as u16
                } else {
                    let all = self.dims.cell_count() as u64;
                    ((origin as u64 + retry as u64 * 131 + rng.gen_range(all)) % all) as u16
                }
            }
        }
    }
}

/// Cells for the `k - 1` *extra* co-equal roots of a rhizome (a vertex
/// promoted from one root to `k` roots once its streamed degree crosses a
/// threshold; Chandio et al., "Rhizomes and Diffusions for Processing Highly
/// Skewed Graphs", arXiv:2402.06086) whose primary root lives on `primary`.
/// The point of a rhizome is to break the hub-vertex serialization at one
/// compute cell, so the roots are spread across evenly spaced columns (and
/// rows) — each lands in a different band of the sharded engine where
/// possible. Deterministic in `(primary, k, dims)`; the returned cells are
/// distinct from each other and from `primary`. `k` is clamped to the cell
/// count, so a rhizome larger than the mesh degrades to one root per cell
/// instead of looping.
pub fn rhizome_cells(primary: u16, k: usize, dims: Dims) -> Vec<u16> {
    assert!(k >= 1, "a rhizome has at least one root");
    let n = dims.cell_count();
    let k = k.min(n as usize);
    let mut out = Vec::with_capacity(k - 1);
    let px = primary % dims.x;
    let py = primary / dims.x;
    for r in 1..k as u32 {
        // Walk columns (and rows) in equal strides from the primary.
        let x = (px as u32 + r * dims.x as u32 / k as u32) % dims.x as u32;
        let y = (py as u32 + r * dims.y as u32 / k as u32) % dims.y as u32;
        // Collision fallback: deterministic linear probe, skipping the
        // primary and already-picked cells. Terminates because `k <= n`
        // guarantees a free cell exists.
        let mut cell = (y * dims.x as u32 + x) as u16;
        while cell == primary || out.contains(&cell) {
            cell = ((cell as u32 + 1) % n) as u16;
        }
        out.push(cell);
    }
    out
}

/// Home cell of root vertex `vertex_id` at graph-construction time: vertex
/// `i` lands on cell `i mod n_cells` (uniform round-robin spread).
pub fn root_cell(vertex_id: u32, dims: Dims) -> u16 {
    (vertex_id % dims.cell_count()) as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Dims;

    #[test]
    fn vicinity_choices_stay_within_radius() {
        let dims = Dims::new(16, 16);
        let t = PlacementTable::new(GhostPlacement::Vicinity { max_hops: 2 }, dims);
        let mut rng = SplitMix64::new(1);
        for origin in dims.iter_ids() {
            for _ in 0..8 {
                let c = t.choose(origin, 0, &mut rng);
                assert!(dims.distance(origin, c) <= 2);
                assert_ne!(c, origin);
            }
        }
    }

    #[test]
    fn vicinity_retries_walk_the_ring_then_spiral() {
        let dims = Dims::new(8, 8);
        let t = PlacementTable::new(GhostPlacement::Vicinity { max_hops: 1 }, dims);
        let mut rng = SplitMix64::new(2);
        let origin = dims.id_of(crate::geom::Coord::new(4, 4));
        let ring = dims.vicinity(origin, 1);
        let c1 = t.choose(origin, 1, &mut rng);
        let c2 = t.choose(origin, 2, &mut rng);
        assert_eq!(c1, ring[0]);
        assert_eq!(c2, ring[1]);
        // Retries beyond the ring still return valid, distinct cells.
        let far = t.choose(origin, 10, &mut rng);
        assert!((far as u32) < dims.cell_count());
    }

    #[test]
    fn random_policy_disperses() {
        let dims = Dims::new(32, 32);
        let t = PlacementTable::new(GhostPlacement::Random, dims);
        let mut rng = SplitMix64::new(3);
        let origin = 0u16;
        let far = (0..256)
            .map(|_| t.choose(origin, 0, &mut rng))
            .filter(|&c| dims.distance(origin, c) > 2)
            .count();
        assert!(far > 200, "random placement should usually leave the vicinity: {far}");
    }

    #[test]
    fn random_policy_is_deterministic_for_a_given_rng_state() {
        let dims = Dims::new(16, 16);
        let t = PlacementTable::new(GhostPlacement::Random, dims);
        let picks = |seed: u64| -> Vec<u16> {
            let mut rng = SplitMix64::new(seed);
            (0..32).map(|r| t.choose(100, r % 4, &mut rng)).collect()
        };
        assert_eq!(picks(9), picks(9), "same rng stream, same placement");
        assert_ne!(picks(9), picks(10), "placement follows the seeded stream");
    }

    #[test]
    fn random_policy_retries_stay_in_range_and_move() {
        let dims = Dims::new(8, 8);
        let t = PlacementTable::new(GhostPlacement::Random, dims);
        let mut rng = SplitMix64::new(4);
        for origin in [0u16, 27, 63] {
            for retry in 0..20 {
                let c = t.choose(origin, retry, &mut rng);
                assert!((c as u32) < dims.cell_count(), "cell {c} out of range");
            }
        }
        // Retried picks are not stuck on a single candidate.
        let all: std::collections::HashSet<u16> =
            (1..30).map(|r| t.choose(5, r, &mut rng)).collect();
        assert!(all.len() > 10, "retries explore the chip: {}", all.len());
    }

    #[test]
    fn rhizome_cells_spread_roots_over_columns_and_row_bands() {
        let dims = Dims::new(32, 32);
        // The distinct `k`-way bands of coordinates `of(cell)` along an axis
        // of length `len`, the primary's included.
        let bands = |cells: &[u16], k: usize, len: u16, of: &dyn Fn(u16) -> u16| {
            let mut bands: Vec<usize> =
                (cells.iter().chain([&5])).map(|&c| of(c) as usize * k / len as usize).collect();
            bands.sort_unstable();
            bands.dedup();
            bands.len()
        };
        for k in [2usize, 4, 8] {
            let cells = rhizome_cells(5, k, dims);
            assert_eq!(cells.len(), k - 1);
            let mut cols: Vec<u16> = cells.iter().map(|c| c % dims.x).collect();
            cols.push(5 % dims.x);
            cols.sort_unstable();
            cols.dedup();
            assert_eq!(cols.len(), k, "every root lands in its own column (k={k})");
            // Roots are spread along both axes: they sit in different bands
            // of a k-way column partition and of the k-way row partition the
            // threaded driver cuts.
            assert_eq!(bands(&cells, k, dims.x, &|c| c % dims.x), k, "columns (k={k})");
            assert_eq!(
                bands(&cells, k, dims.y, &|c| c / dims.x),
                k,
                "one root per row band (k={k})"
            );
        }
    }

    #[test]
    fn rhizome_larger_than_mesh_clamps_instead_of_looping() {
        let dims = Dims::new(3, 3); // 9 cells
        let cells = rhizome_cells(4, 16, dims);
        assert_eq!(cells.len(), 8, "clamped to one root per cell");
        let mut uniq = cells.clone();
        uniq.push(4);
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), 9, "every cell used exactly once");
    }

    #[test]
    fn root_cells_cover_the_mesh_round_robin() {
        let dims = Dims::new(4, 4);
        let mut seen = [false; 16];
        for v in 0..16u32 {
            seen[root_cell(v, dims) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(root_cell(16, dims), 0, "wraps past the last cell");
    }
}
