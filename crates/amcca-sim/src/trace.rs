//! Trace export: ASCII renderings of chip activity.
//!
//! The paper plots "Percent of Cells Active" per cycle (Figures 6–7) and
//! links to animations generated from simulation traces. This module turns an
//! [`ActivitySeries`] into an ASCII sparkline for terminal output and renders
//! per-frame heat-map grids for the animation example.

use crate::geom::Dims;
use crate::stats::ActivitySeries;

/// A terminal sparkline of the activity series, down-sampled to `width`
/// columns with max-pooling (peaks preserved, like the paper's figures).
pub fn activity_sparkline(series: &ActivitySeries, total_cells: u32, width: usize) -> String {
    const BARS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    series
        .downsample_max(width)
        .into_iter()
        .map(|c| {
            let frac = c as f64 / total_cells as f64;
            let idx = (frac * 8.0).ceil().min(8.0) as usize;
            BARS[idx]
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
        let s = ActivitySeries {
            counts: vec![0, 256, 512, 1024, 512, 0, 0, 128],
            ..Default::default()
        };
        let sp = activity_sparkline(&s, 1024, 4);
        assert_eq!(sp.chars().count(), 4);
        assert!(sp.contains('█'), "full activity renders a full bar: {sp}");
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
