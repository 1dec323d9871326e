//! The program interface: how application code (the diffusive runtime) plugs
//! into the chip.
//!
//! A [`Program`] is the registered action set of the chip. When a compute
//! cell picks up a delivered operon, the chip calls `Program::execute` with an
//! [`ExecCtx`] scoped to *that cell's local memory only* — actions can never
//! touch remote state directly, they must `propagate` further operons. This
//! enforces the message-driven PGAS discipline of the paper at the type level.

use std::collections::VecDeque;

use crate::arena::{Arena, ArenaFull};
use crate::cost::CostModel;
use crate::error::SimError;
use crate::geom::Coord;
use crate::operon::{Address, Operon};
use crate::placement::PlacementTable;
use crate::rng::SplitMix64;
use crate::stats::Counters;

/// Execution context handed to an action body. Borrows exactly the state an
/// action is architecturally allowed to see: the executing cell's memory, its
/// staging outbox, and chip-wide cost/placement configuration.
pub struct ExecCtx<'a, T> {
    /// Id of the executing compute cell.
    pub cc: u16,
    /// Mesh coordinate of the executing cell.
    pub coord: Coord,
    memory: &'a mut Arena<T>,
    outbox: &'a mut VecDeque<Operon>,
    charge: &'a mut u32,
    counters: &'a mut Counters,
    cost: &'a CostModel,
    placement: &'a PlacementTable,
    rng: &'a mut SplitMix64,
    error: &'a mut Option<SimError>,
}

impl<'a, T> ExecCtx<'a, T> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        cc: u16,
        coord: Coord,
        memory: &'a mut Arena<T>,
        outbox: &'a mut VecDeque<Operon>,
        charge: &'a mut u32,
        counters: &'a mut Counters,
        cost: &'a CostModel,
        placement: &'a PlacementTable,
        rng: &'a mut SplitMix64,
        error: &'a mut Option<SimError>,
    ) -> Self {
        ExecCtx { cc, coord, memory, outbox, charge, counters, cost, placement, rng, error }
    }

    /// Charge `n` compute instructions to this action (one cycle each).
    #[inline]
    pub fn charge(&mut self, n: u32) {
        *self.charge += n;
    }

    /// Stage an operon for sending (the paper's `propagate`). Staging itself
    /// costs one cycle per operon, charged by the chip's compute phase.
    #[inline]
    pub fn propagate(&mut self, mut op: Operon) {
        op.origin = self.cc;
        self.outbox.push_back(op);
    }

    /// The instruction-cost constants.
    #[inline]
    pub fn cost(&self) -> &CostModel {
        self.cost
    }

    /// Borrow a local object.
    #[inline]
    pub fn obj(&self, slot: u32) -> Option<&T> {
        self.memory.get(slot)
    }

    /// Mutably borrow a local object.
    #[inline]
    pub fn obj_mut(&mut self, slot: u32) -> Option<&mut T> {
        self.memory.get_mut(slot)
    }

    /// Allocate an object in *this cell's* memory (the `allocate` system
    /// action runs on the target cell and calls this).
    pub fn alloc(&mut self, value: T) -> Result<Address, ArenaFull> {
        let slot = self.memory.alloc(value)?;
        self.counters.allocs += 1;
        Ok(Address::new(self.cc, slot))
    }

    /// Free a local object.
    pub fn free(&mut self, slot: u32) -> Option<T> {
        self.memory.free(slot)
    }

    /// Pick a target cell for a remote allocation according to the chip's
    /// ghost-placement policy. `retry` > 0 selects fallback candidates.
    pub fn choose_alloc_target(&mut self, retry: u32) -> u16 {
        self.placement.choose(self.cc, retry, self.rng)
    }

    /// As [`Self::choose_alloc_target`], but anchored at `origin` instead of
    /// the executing cell. Retried allocations use the *requesting* vertex's
    /// cell as the anchor so the Vicinity policy's locality is preserved even
    /// when a neighbour was full.
    pub fn choose_alloc_target_from(&mut self, origin: u16, retry: u32) -> u16 {
        self.placement.choose(origin, retry, self.rng)
    }

    /// Record a failed allocation attempt that will be retried elsewhere.
    pub fn note_alloc_retry(&mut self) {
        self.counters.alloc_retries += 1;
    }

    /// Report a fatal simulation error (first error wins; the run stops at
    /// the end of the current cycle).
    pub fn fail(&mut self, e: SimError) {
        if self.error.is_none() {
            *self.error = Some(e);
        }
    }
}

/// The action set executed by the chip's compute cells.
///
/// # Sharded execution contract
///
/// When [`crate::ChipConfig::shards`] > 1, the chip partitions the mesh into
/// column bands and runs one *forked* program instance per band on its own
/// worker thread (hence the `Send` bounds). For the parallel engine to stay
/// bit-identical to the sequential one, any mutable state a program keeps
/// outside cell memory must be either call-local scratch, or *per-cell
/// partitioned / commutatively mergeable* (e.g. per-cell hit counters), so
/// that [`Program::merge`] can fold the shard instances back losslessly.
/// State that couples cells within a cycle is outside the architecture's
/// message-driven discipline and unsupported.
pub trait Program: Send {
    /// The object type living in compute-cell memory (e.g. a vertex object).
    type Object: Send;

    /// Execute one delivered operon on the cell it targeted. Mutations are
    /// applied immediately; timing is charged via `ctx.charge` and the
    /// staging of each `ctx.propagate`d operon (one cycle apiece).
    fn execute(&mut self, ctx: &mut ExecCtx<'_, Self::Object>, op: &Operon);

    /// Create an independent instance for one shard of a parallel run.
    /// Configuration is copied; accumulator state starts empty (it is folded
    /// back by [`Program::merge`] when the run completes).
    fn fork(&self) -> Self
    where
        Self: Sized;

    /// Fold a shard instance's accumulated state back into `self` after a
    /// parallel run. Shards are merged in shard-id order, so a commutative,
    /// associative merge reproduces the sequential totals exactly. The
    /// default drops the worker — correct only for programs whose forks
    /// accumulate nothing.
    fn merge(&mut self, worker: Self)
    where
        Self: Sized,
    {
        let _ = worker;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ChipConfig;
    use crate::placement::PlacementTable;

    #[test]
    fn ctx_charges_and_stages() {
        let cfg = ChipConfig::small_test();
        let mut mem: Arena<u32> = Arena::new(8);
        let mut outbox = VecDeque::new();
        let mut charge = 0u32;
        let mut counters = Counters::default();
        let cost = CostModel::default();
        let placement = PlacementTable::new(cfg.ghost_placement, cfg.dims);
        let mut rng = SplitMix64::new(1);
        let mut err = None;
        let mut ctx = ExecCtx::new(
            3,
            cfg.dims.coord_of(3),
            &mut mem,
            &mut outbox,
            &mut charge,
            &mut counters,
            &cost,
            &placement,
            &mut rng,
            &mut err,
        );
        ctx.charge(5);
        let a = ctx.alloc(42).unwrap();
        assert_eq!(a.cc, 3);
        assert_eq!(*ctx.obj(a.slot).unwrap(), 42);
        ctx.propagate(Operon::new(Address::new(0, 0), 9, [1, 2]));
        assert_eq!(charge, 5);
        assert_eq!(outbox.len(), 1);
        assert_eq!(outbox[0].origin, 3, "propagate stamps the origin cell");
        assert_eq!(counters.allocs, 1);
    }

    #[test]
    fn ctx_first_error_wins() {
        let cfg = ChipConfig::small_test();
        let mut mem: Arena<u32> = Arena::new(1);
        let mut outbox = VecDeque::new();
        let (mut charge, mut counters) = (0u32, Counters::default());
        let cost = CostModel::default();
        let placement = PlacementTable::new(cfg.ghost_placement, cfg.dims);
        let mut rng = SplitMix64::new(1);
        let mut err = None;
        let mut ctx = ExecCtx::new(
            0,
            cfg.dims.coord_of(0),
            &mut mem,
            &mut outbox,
            &mut charge,
            &mut counters,
            &cost,
            &placement,
            &mut rng,
            &mut err,
        );
        ctx.fail(SimError::BadTargetCell { cc: 9 });
        ctx.fail(SimError::CycleLimitExceeded { limit: 1 });
        assert_eq!(err, Some(SimError::BadTargetCell { cc: 9 }));
    }
}
