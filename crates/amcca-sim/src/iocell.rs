//! IO channels and IO cells.
//!
//! The paper's chip has IO channels along the north and south borders, each
//! containing one IO cell per column. Edges stream in from the host: "every
//! cycle, each IO Cell reads an edge, creates the corresponding action
//! registered with INSERT_ACTION, and sends it to its connected CC" (§2, §4).
//! An IO cell injects at most one operon per cycle and is subject to
//! backpressure from its border cell's router. The row band that owns the
//! north border row owns the north channel, and the band that owns the south
//! border row the south one; `Chip::io_load` deals a stream out to all IO
//! cells round-robin.

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

/// The IO cells of the channels on the borders of rows `rows`: the north
/// channel's if `rows` holds row 0, then the south channel's if it holds the
/// last row, each west to east.
pub(crate) fn io_cells(dims: Dims, rows: Range<u16>) -> Vec<IoCell> {
    [0, dims.y - 1]
        .into_iter()
        .filter(|y| rows.contains(y))
        .flat_map(|y| (0..dims.x).map(move |x| Coord::new(x, y)))
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
        // A band holds the north channel iff it owns row 0, the south one
        // iff it owns the last row.
        let channels = |rows| {
            let ccs: Vec<u16> = io_cells(dims, rows).iter().map(|c| c.cc).collect();
            (ccs.len(), ccs.first().copied())
        };
        assert_eq!(channels(0..11), (32, Some(0)), "the first band: north only");
        assert_eq!(channels(11..21), (0, None), "a middle band: no channel");
        assert_eq!(channels(21..32), (32, Some(31 * 32)), "the last band: south only");
        let tiny = Dims::new(3, 1); // one row borders both
        let both: Vec<u16> = io_cells(tiny, 0..1).iter().map(|c| c.cc).collect();
        assert_eq!(both, [0, 1, 2, 0, 1, 2], "one row holds both channels");
    }
}
