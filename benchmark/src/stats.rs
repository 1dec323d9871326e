//! Order statistics for the benchmark's samples: medians, nearest-rank
//! percentiles, the percentile picker, and the quartile spread the
//! `compare` subcommand uses to tell "unchanged" from "unresolved".

/// Candidate tail percentiles, ascending. The picker never goes below the
/// median.
const TAIL_PERCENTILES: [f64; 5] = [50.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a percentile must leave beyond itself to be reported.
const MIN_BEYOND: f64 = 10.0;

/// The highest percentile of `TAIL_PERCENTILES` with at least ten of the `n`
/// samples beyond it (the median when even that has fewer).
pub fn pick_percentile(n: usize) -> f64 {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .rev()
        // The tolerance absorbs the rounding of e.g. 10 000 × 0.1 %.
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9)
        .unwrap_or(50.0)
}

/// Sort a sample vector ascending (all values are finite timings).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    v
}

/// Nearest-rank percentile `p` (0–100) of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Median of unsorted samples (mean of the two middle ones when even).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Element-wise minimum over repetitions of the same units of work: the
/// fastest each unit was seen to run. The box this runs on slows down in
/// bursts of seconds; a burst must hit the same unit in every repetition to
/// survive this.
pub fn fastest_per_unit(reps: &[Vec<f64>]) -> Vec<f64> {
    let units = reps.iter().map(Vec::len).min().unwrap_or(0);
    (0..units).map(|i| reps.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min)).collect()
}

/// Median over paired units of `b[i] / a[i]`: how two passes over the same
/// units compare, unit by unit, so a burst in either distorts few pairs.
pub fn median_ratio(a: &[f64], b: &[f64]) -> f64 {
    let ratios: Vec<f64> = a.iter().zip(b).filter(|(a, _)| **a > 0.0).map(|(a, b)| b / a).collect();
    median(&ratios)
}

/// Distance between the first and third quartile as a share of the median —
/// the quartiles as Python's `statistics.quantiles(v, n=4)` gives them
/// (exclusive method). With fewer than four values the full range stands in;
/// a single value has no spread.
pub fn quartile_spread(v: &[f64]) -> Option<f64> {
    let s = sorted(v.to_vec());
    let med = median(&s);
    if s.len() < 2 || med == 0.0 {
        return None;
    }
    if s.len() < 4 {
        return Some((s[s.len() - 1] - s[0]) / med.abs());
    }
    let q = |k: f64| {
        // Exclusive method: position k·(n+1)/4 in 1-based ranks, interpolated.
        let pos = (k * (s.len() as f64 + 1.0) / 4.0).clamp(1.0, s.len() as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(s.len());
        s[lo - 1] + frac * (s[hi - 1] - s[lo - 1])
    };
    Some((q(3.0) - q(1.0)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_needs_ten_samples_beyond() {
        assert_eq!(pick_percentile(0), 50.0);
        assert_eq!(pick_percentile(10), 50.0, "fewer than ten beyond even the median");
        assert_eq!(pick_percentile(20), 50.0);
        assert_eq!(pick_percentile(99), 50.0);
        assert_eq!(pick_percentile(100), 90.0);
        assert_eq!(pick_percentile(199), 90.0);
        assert_eq!(pick_percentile(200), 95.0);
        assert_eq!(pick_percentile(999), 95.0);
        assert_eq!(pick_percentile(1000), 99.0);
        assert_eq!(pick_percentile(2000), 99.0, "20 beyond p99, only 2 beyond p99.9");
        assert_eq!(pick_percentile(10_000), 99.9);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let s = sorted((1..=100).map(f64::from).collect());
        assert_eq!(percentile(&s, 50.0), 51.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn paired_estimators_ignore_a_burst_in_one_repetition() {
        let calm = vec![10.0, 20.0, 30.0];
        let burst = vec![10.5, 90.0, 29.0];
        assert_eq!(fastest_per_unit(&[calm.clone(), burst.clone()]), vec![10.0, 20.0, 29.0]);
        assert!(fastest_per_unit(&[]).is_empty());
        assert_eq!(median_ratio(&calm, &burst), 1.05);
        assert_eq!(median_ratio(&[], &[]), 0.0);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let got = quartile_spread(&v).unwrap();
        assert!((got - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{got}");
        assert_eq!(quartile_spread(&[7.0]), None);
        assert_eq!(quartile_spread(&[9.0, 11.0]), Some(0.2));
    }
}
