//! Simulation statistics: event counters, per-cycle activity series, and
//! run reports. The activity series is the raw data behind the paper's
//! Figures 6 and 7 ("Percent of Cells Active" per cycle).

/// Monotonic event counters accumulated over a chip's lifetime. Reports for a
/// run segment are computed as deltas between two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Instructions retired by compute cells.
    pub instrs: u64,
    /// Link traversals (mesh hops plus IO-cell injection links).
    pub hops: u64,
    /// Operons staged by `propagate` (entered the network from a CC).
    pub msgs_staged: u64,
    /// Operons injected by IO cells.
    pub io_injected: u64,
    /// Operons delivered to their target cell's task queue.
    pub msgs_delivered: u64,
    /// Objects allocated by the `allocate` system action.
    pub allocs: u64,
    /// Allocation attempts that failed on a full cell and were re-routed.
    pub alloc_retries: u64,
    /// Compute-phase cycles wasted stalling on a full local injection port.
    pub stage_stalls: u64,
    /// Network moves blocked by downstream buffer backpressure.
    pub net_stalls: u64,
    /// Deliveries blocked by a full task queue.
    pub deliver_stalls: u64,
}

impl Counters {
    /// Element-wise sum `self += other`. Used to fold the per-shard counters
    /// of a parallel run back into the chip's totals; every field is an
    /// order-independent event count, so the merged result is bit-identical
    /// to a sequential run.
    ///
    /// The exhaustive destructuring is deliberate: adding a counter field
    /// without merging it here becomes a compile error, not a silent drop.
    pub fn merge(&mut self, other: &Counters) {
        let Counters {
            instrs,
            hops,
            msgs_staged,
            io_injected,
            msgs_delivered,
            allocs,
            alloc_retries,
            stage_stalls,
            net_stalls,
            deliver_stalls,
        } = *other;
        self.instrs += instrs;
        self.hops += hops;
        self.msgs_staged += msgs_staged;
        self.io_injected += io_injected;
        self.msgs_delivered += msgs_delivered;
        self.allocs += allocs;
        self.alloc_retries += alloc_retries;
        self.stage_stalls += stage_stalls;
        self.net_stalls += net_stalls;
        self.deliver_stalls += deliver_stalls;
    }

    /// Element-wise difference `self - earlier` (for run-segment reports).
    /// Exhaustively destructured like [`Counters::merge`], and for the same
    /// reason.
    pub fn delta(&self, earlier: &Counters) -> Counters {
        let Counters {
            instrs,
            hops,
            msgs_staged,
            io_injected,
            msgs_delivered,
            allocs,
            alloc_retries,
            stage_stalls,
            net_stalls,
            deliver_stalls,
        } = *earlier;
        Counters {
            instrs: self.instrs - instrs,
            hops: self.hops - hops,
            msgs_staged: self.msgs_staged - msgs_staged,
            io_injected: self.io_injected - io_injected,
            msgs_delivered: self.msgs_delivered - msgs_delivered,
            allocs: self.allocs - allocs,
            alloc_retries: self.alloc_retries - alloc_retries,
            stage_stalls: self.stage_stalls - stage_stalls,
            net_stalls: self.net_stalls - net_stalls,
            deliver_stalls: self.deliver_stalls - deliver_stalls,
        }
    }
}

/// Per-cell load counters, kept for every cell of the chip (cheap enough to
/// track unconditionally). The paper's §5 explains Snowball sampling's
/// longer ingestion by "congestion on a few compute cells that host [the
/// frontier] vertices" — these counters make that measurable
/// (`paper loadmap`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellLoad {
    /// Operons delivered to this cell's task queue.
    pub delivered: u64,
    /// Highest task-queue occupancy ever observed.
    pub peak_queue: u32,
}

/// Max/mean ratio of a load distribution (1.0 = perfectly balanced).
pub fn max_mean_ratio(loads: &[u64]) -> f64 {
    if loads.is_empty() {
        return 0.0;
    }
    let max = *loads.iter().max().unwrap() as f64;
    let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
    if mean == 0.0 {
        0.0
    } else {
        max / mean
    }
}

/// Gini coefficient of a load distribution (0 = equal, →1 = concentrated).
pub fn gini(loads: &[u64]) -> f64 {
    let n = loads.len();
    if n == 0 {
        return 0.0;
    }
    let mut sorted: Vec<u64> = loads.to_vec();
    sorted.sort_unstable();
    let total: u128 = sorted.iter().map(|&x| x as u128).sum();
    if total == 0 {
        return 0.0;
    }
    // G = (2 Σ_i i·x_i) / (n Σ x) − (n+1)/n, with i starting at 1.
    let weighted: u128 = sorted.iter().enumerate().map(|(i, &x)| (i as u128 + 1) * x as u128).sum();
    (2.0 * weighted as f64) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
}

/// Fraction of total load carried by the most-loaded `k` cells.
pub fn top_k_share(loads: &[u64], k: usize) -> f64 {
    let total: u128 = loads.iter().map(|&x| x as u128).sum();
    if total == 0 || k == 0 {
        return 0.0;
    }
    let mut sorted: Vec<u64> = loads.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let top: u128 = sorted.iter().take(k).map(|&x| x as u128).sum();
    top as f64 / total as f64
}

/// How (and whether) to record per-cycle activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActivityRecording {
    /// Record nothing (fastest; Table 2 / Fig 8–9 runs only need totals).
    Off,
    /// Record the number of active cells each cycle (Figures 6–7).
    Counts,
    /// Record full activity bitmaps every `stride` cycles (animations).
    Frames {
        /// Capture a bitmap every `stride` cycles.
        stride: u32,
    },
}

/// Per-cycle activity data. `counts[i]` is the number of compute cells that
/// performed compute-phase work in cycle `i` (relative to recording start).
#[derive(Debug, Clone, Default)]
pub struct ActivitySeries {
    /// Active-cell count per recorded cycle.
    pub counts: Vec<u16>,
    /// Activity bitmaps (one bit per cell, row-major), captured every
    /// `frame_stride` cycles when frame recording is enabled.
    pub frames: Vec<Vec<u64>>,
    /// Cycle stride between captured frames (0 = frames disabled).
    pub frame_stride: u32,
}

impl ActivitySeries {
    /// Percentage of active cells per recorded cycle.
    pub fn percent(&self, total_cells: u32) -> Vec<f32> {
        self.counts.iter().map(|&c| c as f32 * 100.0 / total_cells as f32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_mean_ratio_balanced_vs_skewed() {
        assert_eq!(max_mean_ratio(&[5, 5, 5, 5]), 1.0);
        assert_eq!(max_mean_ratio(&[0, 0, 0, 20]), 4.0);
        assert_eq!(max_mean_ratio(&[]), 0.0);
        assert_eq!(max_mean_ratio(&[0, 0]), 0.0);
    }

    #[test]
    fn gini_bounds() {
        assert!((gini(&[7, 7, 7, 7]) - 0.0).abs() < 1e-12, "equal loads: G = 0");
        let concentrated = gini(&[0, 0, 0, 0, 0, 0, 0, 100]);
        assert!(concentrated > 0.8, "all load on one cell: G = {concentrated}");
        let mild = gini(&[8, 10, 12, 10]);
        assert!(mild > 0.0 && mild < 0.2, "mild skew: G = {mild}");
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0, 0]), 0.0);
    }

    #[test]
    fn top_k_share_concentration() {
        assert_eq!(top_k_share(&[10, 10, 10, 10], 1), 0.25);
        assert_eq!(top_k_share(&[40, 0, 0, 0], 1), 1.0);
        assert_eq!(top_k_share(&[1, 2, 3, 4], 2), 0.7);
        assert_eq!(top_k_share(&[], 3), 0.0);
    }

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = Counters { instrs: 10, hops: 20, ..Default::default() };
        let b = Counters { instrs: 5, msgs_delivered: 3, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.instrs, 15);
        assert_eq!(a.hops, 20);
        assert_eq!(a.msgs_delivered, 3);
    }

    #[test]
    fn delta_subtracts_fieldwise() {
        let a = Counters { instrs: 10, hops: 20, ..Default::default() };
        let b = Counters { instrs: 25, hops: 21, msgs_staged: 5, ..Default::default() };
        let d = b.delta(&a);
        assert_eq!(d.instrs, 15);
        assert_eq!(d.hops, 1);
        assert_eq!(d.msgs_staged, 5);
    }

    #[test]
    fn percent_scales() {
        let s = ActivitySeries { counts: vec![0, 512, 1024], ..Default::default() };
        let p = s.percent(1024);
        assert_eq!(p, vec![0.0, 50.0, 100.0]);
    }
}
