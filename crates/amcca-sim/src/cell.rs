//! A Compute Cell (CC): local scratchpad memory, a task queue of delivered
//! operons, the execution state of the action currently running, and a mesh
//! router (paper Fig. 2: "Compute Cells containing local memory along with
//! computing logic are tessellated in a mesh network").

use std::collections::VecDeque;

use crate::arena::Arena;
use crate::geom::{Coord, MeshTable};
use crate::operon::Operon;
use crate::rng::SplitMix64;
use crate::router::Router;
use crate::safra::CellTd;
use crate::stats::CellLoad;

#[derive(Debug)]
/// A compute cell; see the module docs for the execution model.
pub struct Cell<T> {
    /// Row-major cell id.
    pub id: u16,
    /// Mesh coordinate of this cell.
    pub coord: Coord,
    /// Local object memory (the CC's scratchpad).
    pub memory: Arena<T>,
    /// Operons delivered by the network, waiting to execute.
    pub task_queue: VecDeque<Operon>,
    /// True while an action occupies the cell. An action body executes
    /// against local memory when picked up; the cell then stays busy for the
    /// body's instruction count (`remaining`) and stages its `propagate`s one
    /// per cycle (the paper's two per-cycle operation classes, §4).
    pub busy: bool,
    /// Compute instructions the current action still has to retire.
    pub remaining: u32,
    /// Outgoing operons of the current action, staged one per cycle. The
    /// buffer is persistent and reused across actions to avoid allocation in
    /// the cycle loop.
    pub outbox: VecDeque<Operon>,
    /// The cell's mesh router.
    pub router: Router,
    /// Per-cell deterministic RNG stream (used by placement decisions).
    pub rng: SplitMix64,
    /// Safra termination-detection state (message count + colour). Kept
    /// cell-local so the detector shards with the cells; meaningful only on
    /// a chip built with the Safra terminator.
    pub td: CellTd,
    /// Deliveries into this cell and its task-queue peak.
    pub load: CellLoad,
}

impl<T> Cell<T> {
    /// Create an idle cell with empty memory and queues.
    pub fn new(
        id: u16,
        coord: Coord,
        arena_capacity: u32,
        link_buffer: usize,
        rng: SplitMix64,
    ) -> Self {
        Cell {
            id,
            coord,
            memory: Arena::new(arena_capacity),
            task_queue: VecDeque::new(),
            busy: false,
            remaining: 0,
            outbox: VecDeque::new(),
            router: Router::new(link_buffer),
            rng,
            td: CellTd::start(),
            load: CellLoad::default(),
        }
    }

    /// True if the cell has nothing to do: no running action, no queued tasks.
    pub fn is_idle(&self) -> bool {
        !self.busy && self.task_queue.is_empty()
    }

    /// Queue a flit on router input `port`, routing it from here — the one
    /// time it is routed at this cell (see [`Router::push`]).
    #[inline]
    pub fn enqueue(&mut self, port: usize, op: Operon, mesh: &MeshTable) {
        self.router.push(port, op, mesh.route(self.coord, op.target.cc));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Coord;

    #[test]
    fn fresh_cell_is_idle() {
        let c: Cell<u32> = Cell::new(0, Coord::new(0, 0), 16, 4, SplitMix64::new(1));
        assert!(c.is_idle());
        assert_eq!(c.memory.len(), 0);
        assert_eq!(c.router.total(), 0);
    }
}
