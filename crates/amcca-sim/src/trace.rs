//! Trace export: ASCII renderings of chip activity.
//!
//! The paper plots "Percent of Cells Active" per cycle (Figures 6–7) and
//! links to animations generated from simulation traces. This module turns a
//! per-cycle active-cell count series (`ActivitySeries::counts`) into an
//! ASCII sparkline for terminal output and renders per-frame heat-map grids
//! for the animation example.

use crate::geom::Dims;

/// A terminal sparkline of per-cycle active-cell counts out of
/// `total_cells`, down-sampled to at most `width` columns by max-pooling
/// ceil-sized chunks (peaks preserved, like the paper's figures).
pub fn activity_sparkline(counts: &[u16], total_cells: u32, width: usize) -> String {
    const BARS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if counts.is_empty() {
        return String::new();
    }
    let chunk = counts.len().div_ceil(width.max(1));
    counts
        .chunks(chunk)
        .map(|c| {
            let peak = *c.iter().max().expect("chunks are non-empty");
            let frac = peak as f64 / total_cells.max(1) as f64;
            BARS[(frac * 8.0).ceil().min(8.0) as usize]
        })
        .collect()
}

/// Render one activity bitmap frame as an ASCII grid (`#` active, `.` idle).
pub fn frame_ascii(frame: &[u64], dims: Dims) -> String {
    let mut out = String::with_capacity((dims.x as usize + 1) * dims.y as usize);
    for y in 0..dims.y {
        for x in 0..dims.x {
            let i = dims.id_of(crate::geom::Coord::new(x, y)) as usize;
            let bit = frame[i / 64] >> (i % 64) & 1;
            out.push(if bit == 1 { '#' } else { '.' });
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_width_and_glyphs() {
        let sp = activity_sparkline(&[0, 256, 512, 1024, 512, 0, 0, 128], 1024, 4);
        assert_eq!(sp.chars().count(), 4);
        assert!(sp.contains('█'), "full activity renders a full bar: {sp}");
    }

    #[test]
    fn sparkline_max_pools_peaks() {
        assert_eq!(activity_sparkline(&[1, 9, 2, 3, 8, 1, 0, 0], 9, 4), "█▃█ ");
        assert_eq!(activity_sparkline(&[], 9, 4), "");
    }

    #[test]
    fn sparkline_has_requested_width() {
        let s: Vec<u16> = (0..1000).map(|i| (i % 100) as u16).collect();
        let sp = activity_sparkline(&s, 100, 40);
        assert!(sp.chars().count() <= 40);
        assert!(sp.chars().count() >= 38);
    }

    #[test]
    fn frame_ascii_grid() {
        let dims = Dims::new(8, 2);
        let mut frame = vec![0u64; 1];
        frame[0] |= 1 << 0; // (0,0)
        frame[0] |= 1 << 9; // (1,1)
        let art = frame_ascii(&frame, dims);
        let rows: Vec<&str> = art.lines().collect();
        assert_eq!(rows[0], "#.......");
        assert_eq!(rows[1], ".#......");
    }
}
