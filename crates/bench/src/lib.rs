//! Benchmark harness library: experiment drivers, table formatting, and CSV
//! artifact output for regenerating every table and figure of the paper.
//!
//! The binary `paper` (see `src/bin/paper.rs`) is the entry point; this
//! library holds the reusable machinery so the binaries and integration tests
//! can share it.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use amcca_sim::{ActivityRecording, ChipConfig, Counters, GhostPlacement};
use gc_datasets::{ChurnStream, GcPreset, StreamingDataset};
use sdgp_core::apps::BfsAlgo;
use sdgp_core::graph::{RepairMode, StreamingGraph};
use sdgp_core::rpvo::RpvoConfig;

/// Experiment scale: the paper's sizes or a proportional scale-down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper scale: 50 K / 500 K vertices, 1.0 M / 10.2 M edges.
    Full,
    /// 1/10 scale: 5 K / 50 K vertices.
    Mid,
    /// 1/50 scale: 1 K / 10 K vertices (default; seconds on a laptop).
    Small,
}

impl Scale {
    pub fn factor(self) -> u32 {
        match self {
            Scale::Full => 1,
            Scale::Mid => 10,
            Scale::Small => 50,
        }
    }

    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "mid" => Some(Scale::Mid),
            "small" => Some(Scale::Small),
            _ => None,
        }
    }

    pub fn apply(self, p: GcPreset) -> GcPreset {
        p.scaled_down(self.factor())
    }
}

/// One streaming-increment measurement (a point of Figures 8/9, a summand of
/// Table 2).
#[derive(Debug, Clone, Copy)]
pub struct IncrementRow {
    pub edges: usize,
    pub cycles: u64,
    pub energy_uj: f64,
    pub time_us: f64,
    pub counters: Counters,
    /// Cumulative rhizome stats at the end of this increment:
    /// `(vertices promoted, extra roots allocated)` — the promotion
    /// timeline, not just the end-of-stream total.
    pub rhizomes: (u64, u64),
}

/// A full streaming run over one dataset in one mode.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    pub label: String,
    pub with_algo: bool,
    pub rows: Vec<IncrementRow>,
    /// Concatenated per-cycle active-cell counts (when recorded).
    pub activity: Vec<u16>,
    pub cell_count: u32,
    /// Ghost statistics after the full stream: `(count, avg parent→ghost hops)`.
    pub ghosts: (u64, f64),
    /// Rhizome statistics after the full stream: `(vertices promoted to
    /// multi-root, extra co-equal roots allocated)`.
    pub rhizomes: (u64, u64),
}

impl ExperimentResult {
    pub fn total_cycles(&self) -> u64 {
        self.rows.iter().map(|r| r.cycles).sum()
    }

    pub fn total_energy_uj(&self) -> f64 {
        self.rows.iter().map(|r| r.energy_uj).sum()
    }

    pub fn total_time_us(&self) -> f64 {
        self.rows.iter().map(|r| r.time_us).sum()
    }

    pub fn total_edges(&self) -> usize {
        self.rows.iter().map(|r| r.edges).sum()
    }
}

/// Options for one streaming experiment.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub with_algo: bool,
    pub record_activity: bool,
    pub chip: ChipConfig,
    pub rcfg: RpvoConfig,
    pub termination: diffusive::TerminationMode,
    /// Reseed-wave scoping for delete-bearing batches (`Targeted` by
    /// default; `Full` is the O(n) ablation baseline).
    pub repair: RepairMode,
}

impl Default for RunOpts {
    fn default() -> Self {
        RunOpts {
            with_algo: true,
            record_activity: false,
            chip: ChipConfig::default(),
            rcfg: RpvoConfig::default(),
            termination: diffusive::TerminationMode::Quiescence,
            repair: RepairMode::default(),
        }
    }
}

/// Run the paper's streaming-BFS workflow over a dataset: allocate roots,
/// stream each increment to quiescence, record per-increment cycles/energy.
pub fn run_streaming_bfs(
    dataset: &StreamingDataset,
    opts: &RunOpts,
    label: &str,
) -> ExperimentResult {
    let mut chip = opts.chip.clone();
    if opts.record_activity {
        chip.record_activity = ActivityRecording::Counts;
    }
    let cell_count = chip.cell_count();
    let mut g = StreamingGraph::builder(BfsAlgo::new(0))
        .vertices(dataset.n_vertices)
        .chip(chip)
        .rpvo(opts.rcfg)
        .build()
        .expect("graph construction");
    g.set_algo_propagation(opts.with_algo);
    g.set_termination_mode(opts.termination);
    let mut rows = Vec::with_capacity(dataset.increments());
    let mut activity = Vec::new();
    for i in 0..dataset.increments() {
        let inc = dataset.increment(i);
        let report = g.stream_edges(inc).expect("increment run");
        rows.push(IncrementRow {
            edges: inc.len(),
            cycles: report.cycles,
            energy_uj: report.energy_uj,
            time_us: report.time_us,
            counters: report.counters,
            rhizomes: g.rhizome_stats(),
        });
        activity.extend_from_slice(&report.activity.counts);
    }
    // Single source of truth: the summary equals the last increment's
    // cumulative snapshot.
    let rhizomes = rows.last().map(|r| r.rhizomes).unwrap_or_default();
    ExperimentResult {
        label: label.to_string(),
        with_algo: opts.with_algo,
        rows,
        activity,
        cell_count,
        ghosts: g.ghost_distance_stats(),
        rhizomes,
    }
}

/// Build the default chip with a specific ghost-placement policy.
pub fn chip_with_placement(placement: GhostPlacement) -> ChipConfig {
    ChipConfig { ghost_placement: placement, ..ChipConfig::default() }
}

/// One churn-batch measurement (a row of the `paper churn` CSV).
#[derive(Debug, Clone, Copy)]
pub struct ChurnRow {
    /// Edges inserted by this batch.
    pub adds: usize,
    /// Edges deleted by this batch.
    pub dels: usize,
    /// Weight updates applied by this batch.
    pub updates: usize,
    /// Live edges after the batch (window accounting).
    pub live: usize,
    /// Cycles consumed by the batch (all phases: structural, repair, merge).
    pub cycles: u64,
    /// Cycles of the batch's reseed (repair) phase alone.
    pub repair_cycles: u64,
    /// Instructions retired by the reseed phase (its work, as opposed to
    /// its depth).
    pub repair_instrs: u64,
    /// Reseed triggers the repair phase injected (`n` under full repair, the
    /// frontier size under targeted; `0` when the batch needed no repair).
    pub reseed_triggers: u64,
    /// Energy consumed, microjoules.
    pub energy_uj: f64,
    /// Wall-clock time at 1 GHz, microseconds.
    pub time_us: f64,
    /// Cumulative rhizome promotions as of this batch.
    pub promoted: u64,
    /// Extra co-equal roots currently allocated.
    pub extra_roots: u64,
    /// Cumulative rhizome demotions as of this batch.
    pub demoted: u64,
}

/// A full sliding-window churn run (see [`run_streaming_churn`]).
#[derive(Debug, Clone)]
pub struct ChurnExperiment {
    /// Workload label.
    pub label: String,
    /// Per-batch measurements.
    pub rows: Vec<ChurnRow>,
}

impl ChurnExperiment {
    /// Total cycles across all batches.
    pub fn total_cycles(&self) -> u64 {
        self.rows.iter().map(|r| r.cycles).sum()
    }
}

/// Run streaming BFS over a sliding-window churn schedule: each batch
/// applies its deletions, insertions, and weight updates as one mutation
/// increment (deletes first — they retract edges settled in earlier batches
/// — then inserts, then updates, the generator's canonical order). When the
/// algorithm propagates (`opts.with_algo`), every batch's converged states
/// are checked against a from-scratch BFS over exactly the surviving edge
/// set, plus edge conservation and mirror consistency — the decremental
/// analogue of `paper verify`.
pub fn run_streaming_churn(churn: &ChurnStream, opts: &RunOpts, label: &str) -> ChurnExperiment {
    use refgraph::{bfs_levels, DiGraph};

    let mut g = StreamingGraph::builder(BfsAlgo::new(0))
        .vertices(churn.n_vertices)
        .chip(opts.chip.clone())
        .rpvo(opts.rcfg)
        .repair(opts.repair)
        .build()
        .expect("graph construction");
    g.set_algo_propagation(opts.with_algo);
    g.set_termination_mode(opts.termination);
    let mut rows = Vec::with_capacity(churn.len());
    for i in 0..churn.len() {
        let b = churn.batch(i);
        let muts = b.to_mutations();
        let report = g.stream_increment(&muts).expect("churn batch run");
        let live = churn.live_after(i);
        assert_eq!(
            g.total_edges_stored(),
            live.len() as u64,
            "batch {i}: stored edges must equal the surviving window"
        );
        if opts.with_algo {
            let reference =
                bfs_levels(&DiGraph::from_edges(churn.n_vertices, live.iter().copied()), 0);
            assert_eq!(g.states(), reference, "batch {i}: BFS mismatch vs rebuild oracle");
        }
        let (promoted, extra_roots) = g.rhizome_stats();
        rows.push(ChurnRow {
            adds: b.adds.len(),
            dels: b.dels.len(),
            updates: b.updates.len(),
            live: live.len(),
            cycles: report.cycles,
            repair_cycles: report.repair_cycles,
            repair_instrs: report.repair_instrs,
            reseed_triggers: report.reseed_triggers,
            energy_uj: report.energy_uj,
            time_us: report.time_us,
            promoted,
            extra_roots,
            demoted: g.demotion_count(),
        });
    }
    if opts.with_algo {
        // Ingestion-only runs never sync mirrors (propagation is off), so
        // the invariant only holds when the algorithm actually diffuses.
        g.check_mirror_consistency().expect("mirrors consistent after churn");
    }
    ChurnExperiment { label: label.to_string(), rows }
}

// ---------------------------------------------------------------------
// Formatting helpers.
// ---------------------------------------------------------------------

/// Render a table with aligned columns.
pub fn format_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        for (i, c) in cells.iter().enumerate() {
            let _ = write!(out, "{:>width$}  ", c, width = widths[i]);
        }
        out.push('\n');
    };
    line(&mut out, &header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

/// `12345678` → `12.3M`, `4321` → `4K` (Table 1 style).
pub fn human_count(n: u64) -> String {
    if n >= 10_000_000 {
        format!("{:.1}M", n as f64 / 1e6)
    } else if n >= 1_000_000 {
        format!("{:.2}M", n as f64 / 1e6)
    } else if n >= 1000 {
        format!("{}K", n / 1000)
    } else {
        n.to_string()
    }
}

/// A unicode sparkline for a series scaled to `max`.
pub fn sparkline(series: &[u16], max: u32, width: usize) -> String {
    const BARS: [char; 9] = [' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if series.is_empty() {
        return String::new();
    }
    let chunk = series.len().div_ceil(width.max(1));
    series
        .chunks(chunk)
        .map(|c| {
            let peak = *c.iter().max().unwrap() as f64 / max.max(1) as f64;
            BARS[(peak * 8.0).ceil().min(8.0) as usize]
        })
        .collect()
}

// ---------------------------------------------------------------------
// CSV artifacts.
// ---------------------------------------------------------------------

/// Output directory for CSV artifacts (created on demand).
pub fn out_dir(base: &str) -> PathBuf {
    let p = PathBuf::from(base);
    std::fs::create_dir_all(&p).expect("create output dir");
    p
}

pub fn write_csv(path: &Path, header: &str, rows: impl IntoIterator<Item = String>) {
    let mut s = String::from(header);
    s.push('\n');
    for r in rows {
        s.push_str(&r);
        s.push('\n');
    }
    std::fs::write(path, s).expect("write csv");
}

/// Write an activity series (down-sampled by max-pooling to at most
/// `max_points`) as `cycle,active,percent`.
pub fn write_activity(path: &Path, activity: &[u16], cells: u32, max_points: usize) {
    let chunk = activity.len().div_ceil(max_points.max(1)).max(1);
    let rows = activity.chunks(chunk).enumerate().map(|(i, c)| {
        let peak = *c.iter().max().unwrap();
        format!("{},{},{:.2}", i * chunk, peak, peak as f64 * 100.0 / cells as f64)
    });
    write_csv(path, "cycle,active,percent", rows);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gc_datasets::Sampling;

    #[test]
    fn scale_parse_and_factor() {
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("small").unwrap().factor(), 50);
        assert_eq!(Scale::parse("nope"), None);
    }

    #[test]
    fn experiment_runs_and_accumulates() {
        let d = Scale::Small.apply(GcPreset::v50k(Sampling::Edge)).build();
        let opts = RunOpts { record_activity: true, ..Default::default() };
        let r = run_streaming_bfs(&d, &opts, "test");
        assert_eq!(r.rows.len(), 10);
        assert_eq!(r.total_edges(), d.total_edges());
        assert!(r.total_cycles() > 0);
        assert_eq!(r.activity.len() as u64, r.total_cycles(), "activity spans all increments");
        assert!(r.total_energy_uj() > 0.0);
    }

    #[test]
    fn churn_runs_verified_and_drains() {
        let churn = gc_datasets::ChurnPreset::v50k().scaled_down(100).build();
        let opts = RunOpts::default();
        let r = run_streaming_churn(&churn, &opts, "churn-test");
        assert_eq!(r.rows.len(), churn.len());
        let last = r.rows.last().unwrap();
        assert_eq!(last.live, 0, "drain tail empties the window");
        assert!(r.rows.iter().all(|row| row.cycles > 0));
        assert_eq!(
            r.rows.iter().map(|row| row.adds).sum::<usize>(),
            r.rows.iter().map(|row| row.dels).sum::<usize>(),
        );
    }

    #[test]
    fn ingestion_only_is_cheaper_than_with_bfs() {
        let d = Scale::Small.apply(GcPreset::v50k(Sampling::Edge)).build();
        let with = run_streaming_bfs(&d, &RunOpts::default(), "bfs");
        let without =
            run_streaming_bfs(&d, &RunOpts { with_algo: false, ..Default::default() }, "ingest");
        assert!(with.total_cycles() > without.total_cycles());
        assert!(with.total_energy_uj() > without.total_energy_uj());
    }

    #[test]
    fn table_formatting_aligns() {
        let t = format_table(
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4, "header, separator, two rows");
        assert!(lines[0].contains("bb"));
        assert!(lines[2].contains('1') && lines[2].contains('2'));
        assert!(lines[3].contains("333"));
    }

    #[test]
    fn human_counts() {
        assert_eq!(human_count(102_000), "102K");
        assert_eq!(human_count(1_000_000), "1.00M");
        assert_eq!(human_count(10_200_000), "10.2M");
        assert_eq!(human_count(37), "37");
    }

    #[test]
    fn sparkline_has_requested_width() {
        let s: Vec<u16> = (0..1000).map(|i| (i % 100) as u16).collect();
        let sp = sparkline(&s, 100, 40);
        assert!(sp.chars().count() <= 40);
        assert!(sp.chars().count() >= 38);
    }
}
