//! IO channels and IO cells.
//!
//! The paper's chip has IO channels along the north and south borders, each
//! containing one IO cell per column. Edges stream in from the host: "every
//! cycle, each IO Cell reads an edge, creates the corresponding action
//! registered with INSERT_ACTION, and sends it to its connected CC" (§2, §4).
//! An IO cell injects at most one operon per cycle and is subject to
//! backpressure from its border cell's router.

use std::collections::VecDeque;

use crate::config::ChipConfig;
use crate::geom::Coord;
use crate::operon::Operon;

#[derive(Debug)]
/// IoCell.
pub struct IoCell {
    /// The border compute cell this IO cell feeds.
    pub cc: u16,
    /// Operons waiting to be injected, in stream order.
    pub queue: VecDeque<Operon>,
}

#[derive(Debug)]
/// IoSystem.
pub struct IoSystem {
    /// The IO cells, in channel order (north row first, then south).
    pub cells: Vec<IoCell>,
    /// Total operons not yet injected, across all IO cells.
    pub pending: u64,
    /// Cursor for round-robin distribution of newly loaded streams.
    next_rr: usize,
}

impl IoSystem {
    /// Lay out the IO cells: one per column on the north border, then one
    /// per column on the south border.
    pub fn new(cfg: &ChipConfig) -> Self {
        let dims = cfg.dims;
        let cells = [0, dims.y - 1]
            .into_iter()
            .flat_map(|y| (0..dims.x).map(move |x| Coord::new(x, y)))
            .map(|c| IoCell { cc: dims.id_of(c), queue: VecDeque::new() })
            .collect();
        IoSystem { cells, pending: 0, next_rr: 0 }
    }

    /// Distribute a stream of operons among the IO cells round-robin,
    /// preserving per-cell stream order ("the IO channels ... distribute them
    /// among their respective IO Cells").
    pub fn load(&mut self, ops: impl IntoIterator<Item = Operon>) {
        let n = self.cells.len();
        for op in ops {
            self.cells[self.next_rr].queue.push_back(op);
            self.pending += 1;
            self.next_rr = (self.next_rr + 1) % n;
        }
    }

    /// Load a stream into one specific IO cell (tests and targeted queries).
    pub fn load_to(&mut self, io_index: usize, ops: impl IntoIterator<Item = Operon>) {
        for op in ops {
            self.cells[io_index].queue.push_back(op);
            self.pending += 1;
        }
    }

    /// True once every loaded operon has been injected.
    pub fn is_drained(&self) -> bool {
        self.pending == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operon::{Address, Operon};

    fn op(n: u32) -> Operon {
        Operon::new(Address::new(0, n), 1, [0, 0])
    }

    #[test]
    fn io_cells_sit_on_borders() {
        let cfg = ChipConfig::default(); // 32x32, north + south
        let io = IoSystem::new(&cfg);
        assert_eq!(io.cells.len(), 64);
        for (i, cell) in io.cells.iter().enumerate() {
            let c = cfg.dims.coord_of(cell.cc);
            if i < 32 {
                assert_eq!(c.y, 0, "first channel on north border");
            } else {
                assert_eq!(c.y, 31, "second channel on south border");
            }
        }
    }

    #[test]
    fn round_robin_load_balances() {
        let cfg = ChipConfig::small_test();
        let mut io = IoSystem::new(&cfg);
        io.load((0..33).map(op));
        assert_eq!(io.pending, 33);
        let lens: Vec<usize> = io.cells.iter().map(|c| c.queue.len()).collect();
        assert_eq!(lens.iter().sum::<usize>(), 33);
        assert!(lens.iter().all(|&l| l == 2 || l == 3), "|max-min| <= 1: {lens:?}");
    }

    #[test]
    fn per_cell_order_is_preserved() {
        let cfg = ChipConfig::small_test();
        let mut io = IoSystem::new(&cfg);
        let n = io.cells.len() as u32;
        io.load((0..4 * n).map(op));
        for (i, cell) in io.cells.iter().enumerate() {
            let slots: Vec<u32> = cell.queue.iter().map(|o| o.target.slot).collect();
            let expect: Vec<u32> = (0..4).map(|k| k * n + i as u32).collect();
            assert_eq!(slots, expect);
        }
    }
}
