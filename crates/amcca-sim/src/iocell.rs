//! IO channels and IO cells.
//!
//! The paper's chip has IO channels along the north and south borders, each
//! containing one IO cell per column. Edges stream in from the host: "every
//! cycle, each IO Cell reads an edge, creates the corresponding action
//! registered with INSERT_ACTION, and sends it to its connected CC" (§2, §4).
//! An IO cell injects at most one operon per cycle and is subject to
//! backpressure from its border cell's router. Each column band of the chip
//! owns the IO cells of its columns; `Chip::io_load` deals a stream out to
//! all of them round-robin.

use std::collections::VecDeque;
use std::ops::Range;

use crate::geom::{Coord, Dims};
use crate::operon::Operon;

#[derive(Debug)]
/// IoCell.
pub struct IoCell {
    /// The border compute cell this IO cell feeds.
    pub cc: u16,
    /// Operons waiting to be injected, in stream order.
    pub queue: VecDeque<Operon>,
}

/// The IO cells of columns `cols`: the north channel's, then the south
/// channel's, each west to east.
pub(crate) fn io_cells(dims: Dims, cols: Range<u16>) -> Vec<IoCell> {
    [0, dims.y - 1]
        .into_iter()
        .flat_map(|y| cols.clone().map(move |x| Coord::new(x, y)))
        .map(|c| IoCell { cc: dims.id_of(c), queue: VecDeque::new() })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_cells_sit_on_borders() {
        let dims = Dims::new(32, 32); // the paper's chip, north + south
        let io = io_cells(dims, 0..32);
        assert_eq!(io.len(), 64);
        for (i, cell) in io.iter().enumerate() {
            let c = dims.coord_of(cell.cc);
            assert_eq!(c.x as usize, i % 32, "west to east");
            if i < 32 {
                assert_eq!(c.y, 0, "first channel on north border");
            } else {
                assert_eq!(c.y, 31, "second channel on south border");
            }
        }
        let band: Vec<u16> = io_cells(dims, 5..7).iter().map(|c| c.cc).collect();
        assert_eq!(band, [5, 6, 31 * 32 + 5, 31 * 32 + 6], "a band's columns of both channels");
    }
}
