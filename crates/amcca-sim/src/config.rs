//! Chip configuration. Defaults reproduce the paper's experimental platform:
//! a 32 × 32 mesh clocked at 1 GHz with IO channels on the north and south
//! borders, YX routing, the Vicinity ghost allocator, and the calibrated
//! energy model.

use crate::cost::CostModel;
use crate::energy::EnergyModel;
use crate::geom::Dims;
use crate::placement::GhostPlacement;
use crate::stats::ActivityRecording;

/// Full configuration of a simulated AM-CCA chip.
#[derive(Debug, Clone)]
pub struct ChipConfig {
    /// Mesh dimensions (paper: 32 × 32).
    pub dims: Dims,
    /// Capacity of each router input FIFO, in flits: `1 ..= 65 535`
    /// ([`crate::router::MAX_LINK_BUFFER`]; `Chip::new` panics outside it).
    /// Every router preallocates `6 × link_buffer` flit slots.
    pub link_buffer: usize,
    /// Capacity of each cell's delivered-task queue. Full queues exert
    /// backpressure on the network rather than dropping operons.
    pub task_queue_cap: usize,
    /// Objects each cell's arena can hold (models finite scratchpad memory).
    pub arena_capacity: u32,
    /// Instruction-cost constants for action bodies.
    pub cost: CostModel,
    /// Energy coefficients.
    pub energy: EnergyModel,
    /// Ghost allocation policy (Vicinity vs Random, paper Fig. 5).
    pub ghost_placement: GhostPlacement,
    /// Per-cycle activity recording mode.
    pub record_activity: ActivityRecording,
    /// Hard cycle budget for `run_until_quiescent`.
    pub max_cycles: u64,
    /// Allocation retries before declaring the chip out of memory.
    pub max_alloc_retries: u32,
    /// Master seed for all simulator randomness.
    pub seed: u64,
    /// Number of column bands the mesh is cut into (clamped to the number of
    /// mesh columns). Each band keeps the live sets of its own cells; with
    /// more than one, `run_until_quiescent` / `run_until_terminated` can step
    /// one band per worker thread, with results **bit-identical** to one
    /// band. Defaults to `available_parallelism()`.
    pub shards: usize,
    /// Active-cell count below which a simulated cycle does not amortize the
    /// threaded driver's barriers ("tens of active cells"): with more than
    /// one band, a run steps its bands on the calling thread until that many
    /// cells were active for a window of cycles, and drops back after a
    /// window below it. `0` threads every cycle.
    pub shard_break_even: u32,
}

/// Default shard count: one worker per available hardware thread.
pub fn default_shards() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

impl Default for ChipConfig {
    fn default() -> Self {
        ChipConfig {
            dims: Dims::new(32, 32),
            link_buffer: 4,
            task_queue_cap: 1 << 16,
            arena_capacity: 1 << 14,
            cost: CostModel::default(),
            energy: EnergyModel::default(),
            ghost_placement: GhostPlacement::default(),
            record_activity: ActivityRecording::Off,
            max_cycles: 200_000_000,
            max_alloc_retries: 4096,
            seed: 0xC0FFEE,
            shards: default_shards(),
            shard_break_even: 24,
        }
    }
}

impl ChipConfig {
    /// A small chip for unit tests: 8 × 8, a smaller arena, one band (unit
    /// tests pin the one-band chip; shard equivalence has its own dedicated
    /// tests).
    pub fn small_test() -> Self {
        ChipConfig {
            dims: Dims::new(8, 8),
            arena_capacity: 1 << 12,
            max_cycles: 20_000_000,
            shards: 1,
            ..Default::default()
        }
    }

    /// Builder-style override of the shard count.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Number of compute cells.
    pub fn cell_count(&self) -> u32 {
        self.dims.cell_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        let c = ChipConfig::default();
        assert_eq!(c.cell_count(), 1024);
        assert_eq!(c.ghost_placement, GhostPlacement::Vicinity { max_hops: 2 });
    }

    #[test]
    fn shard_defaults() {
        assert_eq!(ChipConfig::default().shards, default_shards());
        assert!(default_shards() >= 1);
        assert_eq!(ChipConfig::small_test().shards, 1, "unit tests pin the reference engine");
        assert_eq!(ChipConfig::small_test().with_shards(0).shards, 1, "0 clamps to sequential");
        assert_eq!(ChipConfig::small_test().with_shards(4).shards, 4);
    }
}
