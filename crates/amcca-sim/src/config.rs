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
    /// Allocation retries before declaring the chip out of memory: at most
    /// 4 095, the largest count an `allocate` operon can carry (the runtime
    /// panics above it).
    pub max_alloc_retries: u32,
    /// Master seed for all simulator randomness.
    pub seed: u64,
    /// Number of column bands the mesh is cut into (clamped to the number of
    /// mesh columns). Each band keeps the live sets of its own cells; with
    /// more than one, `run_until_quiescent` / `run_until_terminated` step one
    /// band per thread from a run's first cycle to its stop, with results
    /// **bit-identical** to one band. Defaults to 1: bands are something a
    /// caller asks for.
    pub shards: usize,
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
            max_alloc_retries: 4095,
            seed: 0xC0FFEE,
            shards: 1,
        }
    }
}

impl ChipConfig {
    /// A small chip for unit tests: 8 × 8, a smaller arena, one band.
    pub fn small_test() -> Self {
        ChipConfig {
            dims: Dims::new(8, 8),
            arena_capacity: 1 << 12,
            max_cycles: 20_000_000,
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
        assert_eq!(ChipConfig::default().shards, 1, "bands are something a caller asks for");
        assert_eq!(ChipConfig::small_test().with_shards(0).shards, 1, "0 clamps to sequential");
        assert_eq!(ChipConfig::small_test().with_shards(4).shards, 4);
    }
}
