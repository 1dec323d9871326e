//! Benchmark harness library: the streaming driver, table formatting, and
//! CSV artifact output for regenerating every table and figure of the paper.
//!
//! The binaries `paper` (see `src/bin/paper.rs`) and `amcca-run` are the
//! entry points; both run every increment through [`run_stream`], so they
//! differ only in what they stream and how they print it.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use diffusive::RunReport;
use gc_datasets::{ChurnStream, GcPreset, StreamingDataset};
use refgraph::{bfs_levels, DiGraph};
use sdgp_core::apps::{BfsAlgo, VertexAlgo};
use sdgp_core::graph::{GraphMutation, StreamEdge, StreamingGraph};

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

/// One increment's measurement: its [`RunReport`] and the host's tallies
/// read after it (a point of Figures 8/9, a summand of Table 2, a row of the
/// churn CSV).
#[derive(Debug, Clone)]
pub struct IncrementRow {
    /// Mutations in the batch (its edges, for an insert-only stream).
    pub muts: usize,
    /// The increment's report, spanning all its phases.
    pub report: RunReport,
    /// Live edges after the increment.
    pub live: u64,
    /// Rhizome promotions so far.
    pub promoted: u64,
    /// Extra co-equal roots currently allocated.
    pub extra_roots: u64,
    /// Rhizome demotions so far.
    pub demoted: u64,
}

/// A streamed run (see [`run_stream`]): one row per increment.
#[derive(Debug, Clone)]
pub struct Run {
    /// One row per increment, in stream order.
    pub rows: Vec<IncrementRow>,
    /// `(ghost count, average parent→ghost hops)` after the last increment.
    pub ghosts: (u64, f64),
}

impl Run {
    /// `f` of every increment's report, summed.
    pub fn sum(&self, f: impl Fn(&RunReport) -> u64) -> u64 {
        self.rows.iter().map(|r| f(&r.report)).sum()
    }

    pub fn total_cycles(&self) -> u64 {
        self.sum(|r| r.cycles)
    }

    pub fn total_energy_uj(&self) -> f64 {
        self.rows.iter().map(|r| r.report.energy_uj).sum()
    }

    pub fn total_time_us(&self) -> f64 {
        self.rows.iter().map(|r| r.report.time_us).sum()
    }

    /// The last increment's row: the end-of-stream tallies.
    pub fn last(&self) -> &IncrementRow {
        self.rows.last().expect("a run streams at least one increment")
    }

    /// Concatenated per-cycle active-cell counts (empty unless the chip
    /// records activity).
    pub fn activity(&self) -> Vec<u16> {
        self.rows.iter().flat_map(|r| r.report.activity.counts.iter().copied()).collect()
    }
}

/// The paper's streaming workflow over a built graph: apply each of
/// `batches` as one increment, run it to quiescence, and call `check(i, g)`
/// after increment `i`. Everything else — algorithm, chip, RPVO shape,
/// repair scoping, propagation on or off, termination detector — is what
/// `g` was built and configured with.
pub fn run_stream<G: VertexAlgo>(
    g: &mut StreamingGraph<G>,
    batches: impl IntoIterator<Item = Vec<GraphMutation>>,
    mut check: impl FnMut(usize, &StreamingGraph<G>),
) -> Result<Run, String> {
    let mut rows = Vec::new();
    for (i, muts) in batches.into_iter().enumerate() {
        let report = g.stream_increment(&muts).map_err(|e| format!("increment {i}: {e}"))?;
        check(i, g);
        let (promoted, extra_roots) = g.rhizome_stats();
        let (live, demoted) = (g.live_edge_count(), g.demotion_count());
        rows.push(IncrementRow { muts: muts.len(), report, live, promoted, extra_roots, demoted });
    }
    Ok(Run { rows, ghosts: g.ghost_distance_stats() })
}

/// A dataset's increments as insert-only batches, in stream order.
pub fn insert_batches(d: &StreamingDataset) -> impl Iterator<Item = Vec<GraphMutation>> + '_ {
    (0..d.increments()).map(|i| GraphMutation::adds(d.increment(i)))
}

/// A churn stream's batches as mutation increments, in stream order.
pub fn churn_batches(c: &ChurnStream) -> impl Iterator<Item = Vec<GraphMutation>> + '_ {
    (0..c.len()).map(|i| c.batch(i).to_mutations())
}

/// The BFS oracle after increment `i`: `g`'s levels equal a from-scratch
/// BFS from vertex 0 over exactly `edges`.
pub fn assert_bfs(g: &StreamingGraph<BfsAlgo>, edges: &[StreamEdge], i: usize) {
    let want = bfs_levels(&DiGraph::from_edges(g.n_vertices(), edges.iter().copied()), 0);
    assert_eq!(g.states(), want, "increment {i}: BFS mismatch vs rebuild oracle");
}

/// The churn check after batch `i`: `g` stores exactly the window's
/// surviving edges, its mirrors agree with their roots, and, while BFS
/// propagates, it passes [`assert_bfs`] over the window — the decremental
/// analogue of `paper verify`.
pub fn check_window(churn: &ChurnStream) -> impl FnMut(usize, &StreamingGraph<BfsAlgo>) + '_ {
    move |i, g| {
        let live = churn.live_after(i);
        assert_eq!(
            g.total_edges_stored(),
            live.len() as u64,
            "batch {i}: stored edges must equal the surviving window"
        );
        g.check_mirror_consistency().unwrap_or_else(|e| panic!("batch {i}: {e}"));
        if g.propagates() {
            assert_bfs(g, &live, i);
        }
    }
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
    use amcca_sim::{ActivityRecording, ChipConfig};
    use gc_datasets::Sampling;

    #[test]
    fn scale_parse_and_factor() {
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("small").unwrap().factor(), 50);
        assert_eq!(Scale::parse("nope"), None);
    }

    /// A BFS graph over `n` vertices on `chip`, propagating iff `with_bfs`.
    fn bfs_graph(n: u32, chip: ChipConfig, with_bfs: bool) -> StreamingGraph<BfsAlgo> {
        let b = StreamingGraph::builder(BfsAlgo::new(0)).vertices(n).chip(chip);
        b.propagate(with_bfs).build().unwrap()
    }

    fn stream(g: &mut StreamingGraph<BfsAlgo>, d: &StreamingDataset) -> Run {
        run_stream(g, insert_batches(d), |_, _| {}).unwrap()
    }

    #[test]
    fn experiment_runs_and_accumulates() {
        let d = Scale::Small.apply(GcPreset::v50k(Sampling::Edge)).build();
        let chip = ChipConfig { record_activity: ActivityRecording::Counts, ..Default::default() };
        let r = stream(&mut bfs_graph(d.n_vertices, chip, true), &d);
        assert_eq!(r.rows.len(), 10);
        assert_eq!(r.rows.iter().map(|x| x.muts).sum::<usize>(), d.total_edges());
        assert!(r.total_cycles() > 0);
        assert_eq!(r.activity().len() as u64, r.total_cycles(), "activity spans all increments");
        assert!(r.total_energy_uj() > 0.0);
    }

    #[test]
    fn churn_runs_verified_and_drains() {
        let churn = gc_datasets::ChurnPreset::v50k().scaled_down(100).build();
        let mut g = bfs_graph(churn.n_vertices, ChipConfig::default(), true);
        let r = run_stream(&mut g, churn_batches(&churn), check_window(&churn)).unwrap();
        assert_eq!(r.rows.len(), churn.len());
        assert_eq!(r.last().live, 0, "drain tail empties the window");
        assert!(r.rows.iter().all(|row| row.report.cycles > 0));
        assert_eq!(
            (0..churn.len()).map(|i| churn.batch(i).adds.len()).sum::<usize>(),
            (0..churn.len()).map(|i| churn.batch(i).dels.len()).sum::<usize>(),
        );
    }

    #[test]
    fn ingestion_only_is_cheaper_than_with_bfs() {
        let d = Scale::Small.apply(GcPreset::v50k(Sampling::Edge)).build();
        let with = stream(&mut bfs_graph(d.n_vertices, ChipConfig::default(), true), &d);
        let without = stream(&mut bfs_graph(d.n_vertices, ChipConfig::default(), false), &d);
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
}
