//! `paper` — regenerate every table and figure of the papers.
//!
//! One rule separates this binary from the repo benchmark: `paper` holds the
//! deterministic simulated-cycle reproductions of the source paper and the
//! rhizome follow-up (arXiv:2402.06086), written as CSV; everything
//! wall-clock and everything served is measured by `benchmark/`.
//!
//! ```text
//! paper <command> [--scale small|mid|full] [--out bench_out] [--jobs N]
//!
//! commands:
//!   table1           Edges per streaming increment (Table 1)
//!   table2           Energy and time, ingestion vs ingestion+BFS (Table 2)
//!   fig6             Ingestion-only activity per cycle, 500K graph (Figure 6)
//!   fig7             Ingestion+BFS activity per cycle, 500K graph (Figure 7)
//!   fig8             Cycles per increment, 50K graph (Figure 8)
//!   fig9             Cycles per increment, 500K graph (Figure 9)
//!   ablate-alloc     Vicinity vs Random ghost allocator (Figure 5, quantified)
//!   ablate-edgecap   RPVO inline edge-capacity sweep
//!   ablate-ghosts    RPVO ghost-fanout sweep
//!   ablate-terminator  Quiescence vs Safra-token termination detection
//!   ablate-rhizomes  Rhizome root-count sweep (K ∈ 1,2,4,8) on the RMAT graph
//!   loadmap          Per-cell load skew, Edge vs Snowball (§5 congestion)
//!   skew             Power-law (RMAT) streaming with rhizome promotion
//!   churn            Sliding-window mutation stream: deletions, repair
//!                    diffusions, rhizome demotion (oracle-checked per
//!                    batch), plus the full-vs-targeted repair ablation
//!   verify           Check streamed BFS against the reference oracle (§4)
//!   all              Everything above, in order
//!   list             Print the scenario names, one per line
//! ```
//!
//! `churn` takes `--repair {full,targeted}` (default `targeted`) selecting
//! the reseed scoping of the headline run; the ablation CSV
//! (`churn_repair.csv`) always measures both.
//!
//! Default scale is `small` (1/50 of the paper, seconds). `--scale full`
//! reproduces the paper's sizes (50K/1.0M and 500K/10.2M edges); expect
//! minutes and a few GB of RAM for the 500K runs. CSV artifacts land in
//! `--out` (default `bench_out/`).

use amcca_bench::{
    chip_with_placement, format_table, human_count, out_dir, run_streaming_bfs,
    run_streaming_churn, sparkline, write_activity, write_csv, ExperimentResult, RunOpts, Scale,
};
use amcca_sim::{run_tasks, ChipConfig, GhostPlacement};
use gc_datasets::{ChurnPreset, GcPreset, Sampling, SkewPreset, StreamingDataset};
use sdgp_core::graph::RepairMode;
use sdgp_core::rpvo::RpvoConfig;

/// A command name and the function that runs it.
type Scenario = (&'static str, fn(&Args));

/// Every scenario, in the order `all` runs them. `main`, `all`, `list` and
/// the usage string are all derived from this table.
const SCENARIOS: &[Scenario] = &[
    ("table1", table1),
    ("table2", table2),
    ("fig6", |a| fig67(a, false)),
    ("fig7", |a| fig67(a, true)),
    ("fig8", |a| fig89(a, false)),
    ("fig9", |a| fig89(a, true)),
    ("ablate-alloc", ablate_alloc),
    ("ablate-edgecap", ablate_edgecap),
    ("ablate-ghosts", ablate_ghosts),
    ("ablate-terminator", ablate_terminator),
    ("ablate-rhizomes", ablate_rhizomes),
    ("loadmap", loadmap),
    ("skew", skew),
    ("churn", churn),
    ("verify", verify),
];

struct Args {
    command: String,
    scale: Scale,
    out: String,
    /// Parallelism budget: every simulated chip runs with this many shards
    /// (chip-running scenarios then fan out one at a time, see
    /// [`CHIP_SCENARIO_WORKERS`]); dataset-only fan-outs use it as a plain
    /// worker cap. Simulation results are shard-count-independent (the CI
    /// determinism gate diffs the CSVs), so `--jobs` only changes
    /// wall-clock time and peak memory.
    jobs: usize,
    /// Reseed scoping of the headline `churn` run (the repair ablation
    /// always measures both modes).
    repair: RepairMode,
}

fn usage() -> String {
    let names: Vec<&str> = SCENARIOS.iter().map(|&(name, _)| name).collect();
    format!(
        "usage: paper <{}|all|list> [--scale small|mid|full] [--out DIR] [--jobs N] [--repair full|targeted]",
        names.join("|")
    )
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut command = String::new();
    let mut scale = Scale::Small;
    let mut out = "bench_out".to_string();
    let mut jobs = 0usize;
    let mut repair = RepairMode::Targeted;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--scale" => {
                i += 1;
                scale = Scale::parse(argv.get(i).map(String::as_str).unwrap_or(""))
                    .unwrap_or_else(|| die("invalid --scale (small|mid|full)"));
            }
            "--out" => {
                i += 1;
                out = argv.get(i).cloned().unwrap_or_else(|| die("missing --out value"));
            }
            "--jobs" => {
                i += 1;
                jobs = argv
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("invalid --jobs"));
            }
            "--repair" => {
                i += 1;
                repair = match argv.get(i).map(String::as_str) {
                    Some("full") => RepairMode::Full,
                    Some("targeted") => RepairMode::Targeted,
                    _ => die("invalid --repair (full|targeted)"),
                };
            }
            c if command.is_empty() && !c.starts_with('-') => command = c.to_string(),
            other => die(&format!("unknown argument {other}")),
        }
        i += 1;
    }
    if command.is_empty() {
        die(&usage());
    }
    if jobs == 0 {
        jobs = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    }
    Args { command, scale, out, jobs, repair }
}

fn die(msg: &str) -> ! {
    eprintln!("paper: {msg}");
    std::process::exit(2);
}

fn presets(scale: Scale) -> Vec<GcPreset> {
    GcPreset::table1().into_iter().map(|p| scale.apply(p)).collect()
}

/// The chip every experiment runs on: paper platform, sharded per `--jobs`.
fn chip_for(args: &Args) -> ChipConfig {
    ChipConfig::default().with_shards(args.jobs)
}

/// Worker cap for fanning out *chip-running* scenarios. Each chip already
/// consumes the whole `--jobs` budget as shards, so scenarios run one at a
/// time: `workers × shards` never exceeds the budget (no oversubscribed
/// spin barriers), and at `--scale full` at most one multi-GB dataset+chip
/// is resident at a time. Dataset-only fan-outs (table1) have no chip and
/// use the full budget as plain workers instead.
const CHIP_SCENARIO_WORKERS: usize = 1;

fn main() {
    let args = parse_args();
    match args.command.as_str() {
        "list" => SCENARIOS.iter().for_each(|(name, _)| println!("{name}")),
        "all" => SCENARIOS.iter().for_each(|(_, run)| run(&args)),
        name => match SCENARIOS.iter().find(|s| s.0 == name) {
            Some((_, run)) => run(&args),
            None => die(&format!("unknown command {name}\n{}", usage())),
        },
    }
}

// ---------------------------------------------------------------------
// Table 1 — dataset increments.
// ---------------------------------------------------------------------

fn table1(args: &Args) {
    eprintln!("[table1] building datasets at scale {:?}...", args.scale);
    let datasets: Vec<(GcPreset, StreamingDataset)> = run_tasks(
        presets(args.scale).into_iter().map(|p| move || (p, p.build())).collect(),
        args.jobs,
    );
    println!("\nTable 1: edges per streaming increment (scale {:?})", args.scale);
    let mut header = vec!["Vertices".to_string(), "Sampling".to_string()];
    header.extend((1..=10).map(|i| i.to_string()));
    header.push("Final".to_string());
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    let mut csv_rows = Vec::new();
    for (p, d) in &datasets {
        let mut row = vec![human_count(p.n_vertices as u64), p.sampling.to_string()];
        row.extend(d.increment_sizes().iter().map(|&s| human_count(s as u64)));
        row.push(human_count(d.total_edges() as u64));
        csv_rows.push(format!(
            "{},{},{}",
            p.label(),
            d.increment_sizes().iter().map(|s| s.to_string()).collect::<Vec<_>>().join(","),
            d.total_edges()
        ));
        rows.push(row);
    }
    println!("{}", format_table(&header_refs, &rows));
    let dir = out_dir(&args.out);
    write_csv(&dir.join("table1.csv"), "dataset,i1,i2,i3,i4,i5,i6,i7,i8,i9,i10,final", csv_rows);
    println!("(csv: {}/table1.csv)", args.out);
}

// ---------------------------------------------------------------------
// Table 2 — energy and time.
// ---------------------------------------------------------------------

/// The paper's Table 2 values (full scale), for side-by-side comparison:
/// (label, ingest_energy_uj, ingest_time_us, bfs_energy_uj, bfs_time_us).
const PAPER_TABLE2: [(&str, f64, f64, f64, f64); 4] = [
    ("50K/Edge", 1355.0, 22.0, 4669.0, 68.0),
    ("50K/Snowball", 1357.0, 25.0, 2929.0, 43.0),
    ("500K/Edge", 13480.0, 206.0, 50274.0, 694.0),
    ("500K/Snowball", 13498.0, 232.0, 32895.0, 448.0),
];

fn table2(args: &Args) {
    eprintln!("[table2] running 4 datasets x 2 modes at scale {:?}...", args.scale);
    let ps = presets(args.scale);
    let results: Vec<ExperimentResult> = run_tasks(
        ps.iter()
            .flat_map(|p| [(*p, false), (*p, true)])
            .map(|(p, with_algo)| {
                let chip = chip_for(args);
                move || {
                    let d = p.build();
                    let opts = RunOpts { with_algo, chip, ..Default::default() };
                    run_streaming_bfs(&d, &opts, &p.label())
                }
            })
            .collect(),
        CHIP_SCENARIO_WORKERS,
    );
    println!("\nTable 2: energy (µJ) and time (µs), 32x32 chip @ 1 GHz (scale {:?})", args.scale);
    let header = [
        "Dataset",
        "Ingest µJ",
        "Ingest µs",
        "Ing+BFS µJ",
        "Ing+BFS µs",
        "paper µJ/µs (ing)",
        "paper µJ/µs (+bfs)",
    ];
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (i, p) in ps.iter().enumerate() {
        let ing = &results[2 * i];
        let bfs = &results[2 * i + 1];
        assert!(!ing.with_algo && bfs.with_algo);
        let paper = PAPER_TABLE2[i];
        rows.push(vec![
            p.label(),
            format!("{:.0}", ing.total_energy_uj()),
            format!("{:.0}", ing.total_time_us()),
            format!("{:.0}", bfs.total_energy_uj()),
            format!("{:.0}", bfs.total_time_us()),
            format!("{:.0}/{:.0}", paper.1, paper.2),
            format!("{:.0}/{:.0}", paper.3, paper.4),
        ]);
        csv.push(format!(
            "{},{:.1},{:.1},{:.1},{:.1}",
            p.label(),
            ing.total_energy_uj(),
            ing.total_time_us(),
            bfs.total_energy_uj(),
            bfs.total_time_us()
        ));
    }
    println!("{}", format_table(&header, &rows));
    if args.scale != Scale::Full {
        println!(
            "note: paper columns are FULL scale; measured columns are 1/{} scale",
            args.scale.factor()
        );
    }
    let dir = out_dir(&args.out);
    write_csv(&dir.join("table2.csv"), "dataset,ingest_uj,ingest_us,bfs_uj,bfs_us", csv);
    println!("(csv: {}/table2.csv)", args.out);
}

// ---------------------------------------------------------------------
// Figures 6 & 7 — activity per cycle (500K graph).
// ---------------------------------------------------------------------

fn fig67(args: &Args, with_bfs: bool) {
    let (figno, mode) = if with_bfs { (7, "ingestion with BFS") } else { (6, "ingestion only") };
    eprintln!("[fig{figno}] {mode}, 500K graph, both samplings, scale {:?}...", args.scale);
    let ps: Vec<GcPreset> = [Sampling::Edge, Sampling::Snowball]
        .into_iter()
        .map(|s| args.scale.apply(GcPreset::v500k(s)))
        .collect();
    let results: Vec<ExperimentResult> = run_tasks(
        ps.iter()
            .map(|p| {
                let p = *p;
                let chip = chip_for(args);
                move || {
                    let d = p.build();
                    let opts = RunOpts {
                        with_algo: with_bfs,
                        record_activity: true,
                        chip,
                        ..Default::default()
                    };
                    run_streaming_bfs(&d, &opts, &p.label())
                }
            })
            .collect(),
        CHIP_SCENARIO_WORKERS,
    );
    println!(
        "\nFigure {figno}: percent of cells active per cycle — {mode} (scale {:?})",
        args.scale
    );
    let dir = out_dir(&args.out);
    for (p, r) in ps.iter().zip(&results) {
        let peak = r.activity.iter().copied().max().unwrap_or(0);
        let mean =
            r.activity.iter().map(|&a| a as f64).sum::<f64>() / r.activity.len().max(1) as f64;
        println!(
            "  ({}) {:10}  cycles={:8}  peak={:5.1}%  mean={:5.1}%",
            if p.sampling == Sampling::Edge { "a" } else { "b" },
            p.sampling.to_string(),
            r.total_cycles(),
            peak as f64 * 100.0 / r.cell_count as f64,
            mean * 100.0 / r.cell_count as f64,
        );
        println!("      |{}|", sparkline(&r.activity, r.cell_count, 72));
        let name = format!(
            "fig{figno}_{}.csv",
            if p.sampling == Sampling::Edge { "edge" } else { "snowball" }
        );
        write_activity(&dir.join(&name), &r.activity, r.cell_count, 4096);
        println!("      (csv: {}/{name})", args.out);
    }
}

// ---------------------------------------------------------------------
// Figures 8 & 9 — cycles per increment.
// ---------------------------------------------------------------------

fn fig89(args: &Args, big: bool) {
    let figno = if big { 9 } else { 8 };
    let base = if big { GcPreset::v500k } else { GcPreset::v50k };
    let size = if big { "500K" } else { "50K" };
    eprintln!("[fig{figno}] cycles per increment, {size} graph, scale {:?}...", args.scale);
    let tasks: Vec<(GcPreset, bool)> = [Sampling::Edge, Sampling::Snowball]
        .into_iter()
        .flat_map(|s| {
            let p = args.scale.apply(base(s));
            [(p, false), (p, true)]
        })
        .collect();
    let results: Vec<ExperimentResult> = run_tasks(
        tasks
            .iter()
            .map(|&(p, with_algo)| {
                let chip = chip_for(args);
                move || {
                    let d = p.build();
                    let opts = RunOpts { with_algo, chip, ..Default::default() };
                    run_streaming_bfs(&d, &opts, &p.label())
                }
            })
            .collect(),
        CHIP_SCENARIO_WORKERS,
    );
    println!("\nFigure {figno}: cycles per increment, {size} graph (scale {:?})", args.scale);
    let dir = out_dir(&args.out);
    for (si, sampling) in [Sampling::Edge, Sampling::Snowball].into_iter().enumerate() {
        let ing = &results[2 * si];
        let bfs = &results[2 * si + 1];
        println!("  ({}) {} sampling:", if si == 0 { "a" } else { "b" }, sampling);
        let header = ["Increment", "Streaming Edges", "Streaming Edges with BFS", "ratio"];
        let rows: Vec<Vec<String>> = (0..ing.rows.len())
            .map(|i| {
                vec![
                    (i + 1).to_string(),
                    ing.rows[i].cycles.to_string(),
                    bfs.rows[i].cycles.to_string(),
                    format!("{:.2}", bfs.rows[i].cycles as f64 / ing.rows[i].cycles.max(1) as f64),
                ]
            })
            .collect();
        println!("{}", indent(&format_table(&header, &rows), 4));
        println!(
            "    totals: ingestion {} cycles, with BFS {} cycles ({:.2}x)",
            ing.total_cycles(),
            bfs.total_cycles(),
            bfs.total_cycles() as f64 / ing.total_cycles().max(1) as f64
        );
        let name = format!(
            "fig{figno}_{}.csv",
            if sampling == Sampling::Edge { "edge" } else { "snowball" }
        );
        write_csv(
            &dir.join(&name),
            "increment,edges,ingest_cycles,bfs_cycles",
            (0..ing.rows.len()).map(|i| {
                format!(
                    "{},{},{},{}",
                    i + 1,
                    ing.rows[i].edges,
                    ing.rows[i].cycles,
                    bfs.rows[i].cycles
                )
            }),
        );
        println!("    (csv: {}/{name})", args.out);
    }
}

fn indent(s: &str, n: usize) -> String {
    let pad = " ".repeat(n);
    s.lines().map(|l| format!("{pad}{l}")).collect::<Vec<_>>().join("\n")
}

// ---------------------------------------------------------------------
// Ablations.
// ---------------------------------------------------------------------

fn ablate_alloc(args: &Args) {
    eprintln!("[ablate-alloc] vicinity vs random ghost placement, scale {:?}...", args.scale);
    let p = args.scale.apply(GcPreset::v50k(Sampling::Edge));
    let policies = [
        ("vicinity-1", GhostPlacement::Vicinity { max_hops: 1 }),
        ("vicinity-2", GhostPlacement::Vicinity { max_hops: 2 }),
        ("vicinity-4", GhostPlacement::Vicinity { max_hops: 4 }),
        ("random", GhostPlacement::Random),
    ];
    let results: Vec<ExperimentResult> = run_tasks(
        policies
            .iter()
            .map(|&(name, pol)| {
                let p: GcPreset = p;
                let shards = args.jobs;
                move || {
                    let d = p.build();
                    let opts = RunOpts {
                        chip: chip_with_placement(pol).with_shards(shards),
                        rcfg: RpvoConfig::basic(8, 2),
                        ..Default::default()
                    };
                    run_streaming_bfs(&d, &opts, name)
                }
            })
            .collect(),
        CHIP_SCENARIO_WORKERS,
    );
    println!("\nAblation: ghost allocation policy (Fig. 5), {} + BFS", p.label());
    let header = ["Policy", "Cycles", "Energy µJ", "Hops", "Ghosts", "Avg ghost hops"];
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let hops: u64 = r.rows.iter().map(|x| x.counters.hops).sum();
            vec![
                r.label.clone(),
                r.total_cycles().to_string(),
                format!("{:.0}", r.total_energy_uj()),
                hops.to_string(),
                r.ghosts.0.to_string(),
                format!("{:.2}", r.ghosts.1),
            ]
        })
        .collect();
    println!("{}", format_table(&header, &rows));
    let dir = out_dir(&args.out);
    write_csv(
        &dir.join("ablate_alloc.csv"),
        "policy,cycles,energy_uj,hops,ghosts,avg_ghost_hops",
        rows.iter().map(|r| r.join(",")),
    );
}

fn ablate_edgecap(args: &Args) {
    eprintln!("[ablate-edgecap] RPVO edge-capacity sweep, scale {:?}...", args.scale);
    let p = args.scale.apply(GcPreset::v50k(Sampling::Edge));
    let caps = [2usize, 4, 8, 16, 32];
    let results: Vec<ExperimentResult> = run_tasks(
        caps.iter()
            .map(|&cap| {
                let p: GcPreset = p;
                let chip = chip_for(args);
                move || {
                    let d = p.build();
                    let opts =
                        RunOpts { rcfg: RpvoConfig::basic(cap, 2), chip, ..Default::default() };
                    run_streaming_bfs(&d, &opts, &format!("cap={cap}"))
                }
            })
            .collect(),
        CHIP_SCENARIO_WORKERS,
    );
    println!("\nAblation: RPVO inline edge capacity, {} + BFS", p.label());
    let header = ["edge_cap", "Cycles", "Energy µJ", "Ghosts", "Msgs staged"];
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let staged: u64 = r.rows.iter().map(|x| x.counters.msgs_staged).sum();
            vec![
                r.label.clone(),
                r.total_cycles().to_string(),
                format!("{:.0}", r.total_energy_uj()),
                r.ghosts.0.to_string(),
                staged.to_string(),
            ]
        })
        .collect();
    println!("{}", format_table(&header, &rows));
    let dir = out_dir(&args.out);
    write_csv(
        &dir.join("ablate_edgecap.csv"),
        "edge_cap,cycles,energy_uj,ghosts,msgs_staged",
        rows.iter().map(|r| r.join(",")),
    );
}

fn ablate_ghosts(args: &Args) {
    eprintln!("[ablate-ghosts] RPVO ghost-fanout sweep, scale {:?}...", args.scale);
    let p = args.scale.apply(GcPreset::v50k(Sampling::Edge));
    let fanouts = [1usize, 2, 4, 8];
    let results: Vec<ExperimentResult> = run_tasks(
        fanouts
            .iter()
            .map(|&f| {
                let p: GcPreset = p;
                let chip = chip_for(args);
                move || {
                    let d = p.build();
                    let opts =
                        RunOpts { rcfg: RpvoConfig::basic(4, f), chip, ..Default::default() };
                    run_streaming_bfs(&d, &opts, &format!("fanout={f}"))
                }
            })
            .collect(),
        CHIP_SCENARIO_WORKERS,
    );
    println!("\nAblation: RPVO ghost fanout (spill-tree arity), {} + BFS", p.label());
    let header = ["ghost_fanout", "Cycles", "Energy µJ", "Ghosts", "Avg ghost hops"];
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                r.total_cycles().to_string(),
                format!("{:.0}", r.total_energy_uj()),
                r.ghosts.0.to_string(),
                format!("{:.2}", r.ghosts.1),
            ]
        })
        .collect();
    println!("{}", format_table(&header, &rows));
    let dir = out_dir(&args.out);
    write_csv(
        &dir.join("ablate_ghosts.csv"),
        "ghost_fanout,cycles,energy_uj,ghosts,avg_ghost_hops",
        rows.iter().map(|r| r.join(",")),
    );
}

fn ablate_terminator(args: &Args) {
    eprintln!("[ablate-terminator] quiescence vs Safra token, scale {:?}...", args.scale);
    let p = args.scale.apply(GcPreset::v50k(Sampling::Edge));
    let modes = [
        ("quiescence", diffusive::TerminationMode::Quiescence),
        ("safra-token", diffusive::TerminationMode::SafraToken),
    ];
    let results: Vec<ExperimentResult> = run_tasks(
        modes
            .iter()
            .map(|&(name, mode)| {
                let p: GcPreset = p;
                let chip = chip_for(args);
                move || {
                    let d = p.build();
                    let opts = RunOpts { termination: mode, chip, ..Default::default() };
                    run_streaming_bfs(&d, &opts, name)
                }
            })
            .collect(),
        CHIP_SCENARIO_WORKERS,
    );
    println!("\nAblation: termination detection, {} + BFS (10 increments)", p.label());
    let header = ["Detector", "Cycles", "Energy µJ", "Hops", "Detection overhead"];
    let base_cycles = results[0].total_cycles();
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            let hops: u64 = r.rows.iter().map(|x| x.counters.hops).sum();
            let overhead = r.total_cycles() as f64 / base_cycles as f64 - 1.0;
            vec![
                r.label.clone(),
                r.total_cycles().to_string(),
                format!("{:.0}", r.total_energy_uj()),
                hops.to_string(),
                format!("{:+.1}%", overhead * 100.0),
            ]
        })
        .collect();
    println!("{}", format_table(&header, &rows));
    println!(
        "(quiescence is the simulator-level detector the paper uses; Safra's token\n\
         pays real mesh hops and polling cycles to detect the same terminations)"
    );
    let dir = out_dir(&args.out);
    write_csv(
        &dir.join("ablate_terminator.csv"),
        "detector,cycles,energy_uj,hops,overhead",
        rows.iter().map(|r| r.join(",")),
    );
}

fn loadmap(args: &Args) {
    use amcca_sim::{gini, max_mean_ratio, top_k_share};
    use sdgp_core::apps::BfsAlgo;
    use sdgp_core::graph::StreamingGraph;

    eprintln!("[loadmap] per-cell load, Edge vs Snowball, scale {:?}...", args.scale);
    println!("\nLoad distribution across compute cells (ingestion-only, §5's congestion claim):");
    let dir = out_dir(&args.out);
    let mut summary = Vec::new();
    for sampling in [Sampling::Edge, Sampling::Snowball] {
        let p = args.scale.apply(GcPreset::v50k(sampling));
        let d = p.build();
        let mut g = StreamingGraph::builder(BfsAlgo::new(0))
            .vertices(d.n_vertices)
            .chip(chip_for(args))
            .rpvo(RpvoConfig::default())
            .build()
            .unwrap();
        g.set_algo_propagation(false);
        // Stream only the LAST increment after building the prefix, so the
        // measured loads reflect one increment's frontier behaviour.
        for i in 0..d.increments() - 1 {
            g.stream_edges(d.increment(i)).unwrap();
        }
        g.device_mut().chip_mut().reset_cell_loads();
        g.stream_edges(d.increment(d.increments() - 1)).unwrap();
        let loads: Vec<u64> = g.device().chip().cell_loads().iter().map(|l| l.delivered).collect();
        let peaks: Vec<u32> = g.device().chip().cell_loads().iter().map(|l| l.peak_queue).collect();
        // Per-cell storage skew: how many vertex objects and stored edges
        // each cell ended up hosting (degree concentration made visible).
        let mut objects = vec![0u32; loads.len()];
        let mut edges_stored = vec![0u64; loads.len()];
        g.device().chip().for_each_object(|a, o| {
            objects[a.cc as usize] += 1;
            edges_stored[a.cc as usize] += o.edges.len() as u64;
        });
        let peak_queue = *peaks.iter().max().unwrap();
        println!(
            "  {:9}: max/mean {:5.2}  gini {:5.3}  top-1% share {:5.1}%  peak queue {}  \
             max edges/cell {}",
            sampling.to_string(),
            max_mean_ratio(&loads),
            gini(&loads),
            top_k_share(&loads, loads.len().div_ceil(100)) * 100.0,
            peak_queue,
            edges_stored.iter().max().unwrap(),
        );
        summary.push(format!(
            "{},{:.4},{:.4},{:.4},{},{},{}",
            sampling,
            max_mean_ratio(&loads),
            gini(&loads),
            top_k_share(&loads, loads.len().div_ceil(100)),
            peak_queue,
            objects.iter().max().unwrap(),
            edges_stored.iter().max().unwrap(),
        ));
        let name =
            format!("loadmap_{}.csv", if sampling == Sampling::Edge { "edge" } else { "snowball" });
        write_csv(
            &dir.join(&name),
            "cell,delivered,peak_queue,objects,edges_stored",
            loads
                .iter()
                .zip(&peaks)
                .zip(objects.iter().zip(&edges_stored))
                .enumerate()
                .map(|(i, ((d, p), (o, e)))| format!("{i},{d},{p},{o},{e}")),
        );
        println!("    (csv: {}/{name})", args.out);
    }
    write_csv(
        &dir.join("loadmap.csv"),
        "sampling,max_mean,gini,top1_share,peak_queue,max_objects,max_edges_stored",
        summary,
    );
    println!("  (summary csv: {}/loadmap.csv)", args.out);
    println!(
        "  (Snowball's final increment concentrates inserts on frontier vertices,\n\
         raising skew vs the uniformly spread Edge sampling)"
    );
}

// ---------------------------------------------------------------------
// Skewed-graph scenario + rhizome ablation (arXiv:2402.06086).
// ---------------------------------------------------------------------

/// Promotion threshold for the skew workloads: a hub is any vertex whose
/// streamed degree (both endpoints counted) exceeds four mean degrees.
/// Derived from the dataset itself so every `--scale` promotes the same
/// *fraction* of the graph.
fn skew_threshold(stats: &gc_datasets::DegreeStats) -> usize {
    ((stats.mean * 4.0).ceil() as usize).max(16)
}

fn skew_preset(args: &Args) -> SkewPreset {
    SkewPreset::v50k().scaled_down(args.scale.factor())
}

fn skew(args: &Args) {
    eprintln!("[skew] RMAT power-law streaming + rhizome promotion, scale {:?}...", args.scale);
    let p = skew_preset(args);
    // Generate once; the schedule is a permutation of the edge list, so the
    // degree stats can be read off the built dataset directly.
    let d = p.build();
    let stats = gc_datasets::degree_stats(d.n_vertices, d.all_edges());
    let threshold = skew_threshold(&stats);
    let rcfg = RpvoConfig::default().with_rhizomes(threshold, 4);
    let results: Vec<ExperimentResult> = run_tasks(
        [false, true]
            .iter()
            .map(|&with_algo| {
                let chip = chip_for(args);
                let d = &d;
                let label = p.label();
                move || {
                    let opts = RunOpts { with_algo, rcfg, chip, ..Default::default() };
                    run_streaming_bfs(d, &opts, &label)
                }
            })
            .collect(),
        CHIP_SCENARIO_WORKERS,
    );
    let (ing, bfs) = (&results[0], &results[1]);
    println!(
        "\nSkewed-graph streaming: {} (degree max {}, mean {:.1}, gini {:.3}, top-1% {:.1}%)",
        p.label(),
        stats.max,
        stats.mean,
        stats.gini,
        stats.top1_share * 100.0
    );
    println!(
        "  rhizomes: threshold {} touches, K=4 → {} vertices promoted, {} extra roots",
        threshold, ing.rhizomes.0, ing.rhizomes.1
    );
    let header = ["Increment", "Edges", "Ingest cycles", "Ingest+BFS cycles", "ratio"];
    let rows: Vec<Vec<String>> = (0..ing.rows.len())
        .map(|i| {
            vec![
                (i + 1).to_string(),
                ing.rows[i].edges.to_string(),
                ing.rows[i].cycles.to_string(),
                bfs.rows[i].cycles.to_string(),
                format!("{:.2}", bfs.rows[i].cycles as f64 / ing.rows[i].cycles.max(1) as f64),
            ]
        })
        .collect();
    println!("{}", format_table(&header, &rows));
    println!(
        "  totals: ingestion {} cycles, with BFS {} cycles",
        ing.total_cycles(),
        bfs.total_cycles()
    );
    let dir = out_dir(&args.out);
    write_csv(
        &dir.join("skew.csv"),
        "increment,edges,ingest_cycles,bfs_cycles,promoted,extra_roots",
        (0..ing.rows.len()).map(|i| {
            // promoted/extra_roots are cumulative as of this increment —
            // the promotion timeline across the stream.
            format!(
                "{},{},{},{},{},{}",
                i + 1,
                ing.rows[i].edges,
                ing.rows[i].cycles,
                bfs.rows[i].cycles,
                ing.rows[i].rhizomes.0,
                ing.rows[i].rhizomes.1
            )
        }),
    );
    println!("  (csv: {}/skew.csv)", args.out);
}

fn ablate_rhizomes(args: &Args) {
    eprintln!("[ablate-rhizomes] rhizome root-count sweep, scale {:?}...", args.scale);
    let p = skew_preset(args);
    let d = p.build();
    let stats = gc_datasets::degree_stats(d.n_vertices, d.all_edges());
    let threshold = skew_threshold(&stats);
    let ks = [1usize, 2, 4, 8];
    let results: Vec<ExperimentResult> = run_tasks(
        ks.iter()
            .flat_map(|&k| [(k, false), (k, true)])
            .map(|(k, with_algo)| {
                let chip = chip_for(args);
                let d = &d;
                move || {
                    // K = 1 is the single-root reference (promotion off).
                    let rcfg = if k == 1 {
                        RpvoConfig::default()
                    } else {
                        RpvoConfig::default().with_rhizomes(threshold, k)
                    };
                    let opts = RunOpts { with_algo, rcfg, chip, ..Default::default() };
                    run_streaming_bfs(d, &opts, &format!("K={k}"))
                }
            })
            .collect(),
        CHIP_SCENARIO_WORKERS,
    );
    println!(
        "\nAblation: rhizome roots per hub (threshold {} touches), {} streaming",
        threshold,
        p.label()
    );
    let header =
        ["K", "Promoted", "Extra roots", "Ingest cycles", "Ingest µJ", "+BFS cycles", "+BFS µJ"];
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (i, &k) in ks.iter().enumerate() {
        let ing = &results[2 * i];
        let bfs = &results[2 * i + 1];
        assert!(!ing.with_algo && bfs.with_algo);
        rows.push(vec![
            k.to_string(),
            ing.rhizomes.0.to_string(),
            ing.rhizomes.1.to_string(),
            ing.total_cycles().to_string(),
            format!("{:.0}", ing.total_energy_uj()),
            bfs.total_cycles().to_string(),
            format!("{:.0}", bfs.total_energy_uj()),
        ]);
        csv.push(format!(
            "{},{},{},{},{:.1},{},{:.1}",
            k,
            ing.rhizomes.0,
            ing.rhizomes.1,
            ing.total_cycles(),
            ing.total_energy_uj(),
            bfs.total_cycles(),
            bfs.total_energy_uj()
        ));
    }
    println!("{}", format_table(&header, &rows));
    let k1 = results[0].total_cycles();
    let k4 = results[4].total_cycles();
    println!(
        "  ingestion cycles K=4 vs K=1: {k4} vs {k1} ({:+.1}%)",
        (k4 as f64 / k1.max(1) as f64 - 1.0) * 100.0
    );
    let dir = out_dir(&args.out);
    write_csv(
        &dir.join("ablate_rhizomes.csv"),
        "k,promoted,extra_roots,ingest_cycles,ingest_uj,bfs_cycles,bfs_uj",
        csv,
    );
    println!("  (csv: {}/ablate_rhizomes.csv)", args.out);
}

// ---------------------------------------------------------------------
// Sliding-window churn: deletions, repair diffusions, rhizome demotion.
// ---------------------------------------------------------------------

fn churn(args: &Args) {
    let mode_name = |m: RepairMode| match m {
        RepairMode::Full => "full",
        RepairMode::Targeted => "targeted",
    };
    eprintln!(
        "[churn] sliding-window mutation stream ({} repair), scale {:?}...",
        mode_name(args.repair),
        args.scale
    );
    let p = ChurnPreset::v50k().scaled_down(args.scale.factor());
    let c = p.build();
    // Thresholds are derived from the *peak window* (the live graph at its
    // largest), so hubs promote while the window is full and demote as the
    // drain cools them below the threshold.
    let peak = c.live_after(p.batches - 1);
    let stats = gc_datasets::degree_stats(c.n_vertices, &peak);
    let threshold = skew_threshold(&stats);
    let rcfg = RpvoConfig::default().with_rhizomes(threshold, 4);
    let results: Vec<amcca_bench::ChurnExperiment> = run_tasks(
        [false, true]
            .iter()
            .map(|&with_algo| {
                let chip = chip_for(args);
                let c = &c;
                let label = p.label();
                let repair = args.repair;
                move || {
                    let opts = RunOpts { with_algo, rcfg, chip, repair, ..Default::default() };
                    // The BFS run is oracle-checked against a from-scratch
                    // rebuild over the surviving edge set after EVERY batch.
                    run_streaming_churn(c, &opts, &label)
                }
            })
            .collect(),
        CHIP_SCENARIO_WORKERS,
    );
    let (ing, bfs) = (&results[0], &results[1]);
    println!(
        "\nSliding-window churn: {} ({} insert batches of {}, window {}, drained; \
         peak-window degree max {}, mean {:.1}; {} repair)",
        ing.label,
        p.batches,
        human_count(p.adds_per_batch as u64),
        p.window,
        stats.max,
        stats.mean,
        mode_name(args.repair)
    );
    println!(
        "  rhizomes: threshold {} touches, K=4; BFS states re-verified against a \
         from-scratch rebuild after every batch",
        threshold
    );
    let header = [
        "Batch",
        "Adds",
        "Dels",
        "Live",
        "Ingest cycles",
        "Ingest+BFS cycles",
        "Reseed trig",
        "Roots+",
        "Demoted",
    ];
    let rows: Vec<Vec<String>> = (0..ing.rows.len())
        .map(|i| {
            vec![
                (i + 1).to_string(),
                ing.rows[i].adds.to_string(),
                ing.rows[i].dels.to_string(),
                ing.rows[i].live.to_string(),
                ing.rows[i].cycles.to_string(),
                bfs.rows[i].cycles.to_string(),
                bfs.rows[i].reseed_triggers.to_string(),
                ing.rows[i].extra_roots.to_string(),
                ing.rows[i].demoted.to_string(),
            ]
        })
        .collect();
    println!("{}", format_table(&header, &rows));
    let last = ing.rows.last().unwrap();
    println!(
        "  end of stream: {} live edges, {} promotions, {} demotions, {} extra roots left",
        last.live, last.promoted, last.demoted, last.extra_roots
    );
    let dir = out_dir(&args.out);
    write_csv(
        &dir.join("churn.csv"),
        "batch,adds,dels,live,ingest_cycles,ingest_uj,bfs_cycles,bfs_uj,bfs_us,repair_cycles,reseed_triggers,promoted,extra_roots,demoted",
        (0..ing.rows.len()).map(|i| {
            format!(
                "{},{},{},{},{},{:.1},{},{:.1},{:.1},{},{},{},{},{}",
                i + 1,
                ing.rows[i].adds,
                ing.rows[i].dels,
                ing.rows[i].live,
                ing.rows[i].cycles,
                ing.rows[i].energy_uj,
                bfs.rows[i].cycles,
                bfs.rows[i].energy_uj,
                bfs.rows[i].time_us,
                bfs.rows[i].repair_cycles,
                bfs.rows[i].reseed_triggers,
                ing.rows[i].promoted,
                ing.rows[i].extra_roots,
                ing.rows[i].demoted
            )
        }),
    );
    println!("  (csv: {}/churn.csv)", args.out);
    // The headline BFS run already measured (window, args.repair) under the
    // ablation's exact options — reuse it instead of re-simulating.
    ablate_repair(args, &rcfg, &c, bfs);
}

/// Full-vs-targeted repair ablation: run the same churn schedule under both
/// reseed scopings (bit-identical fixpoints — `run_streaming_churn`
/// oracle-checks every batch), then a small-batch/large-graph schedule where
/// the invalidated region is tiny relative to the graph. Shows targeted
/// reseed trigger counts (and repair-phase work) tracking the batch size
/// while the full wave pays O(n) per delete-bearing batch. `headline` is
/// the window schedule's already-measured run under `args.repair` and the
/// same options; only the three missing experiments are simulated.
fn ablate_repair(
    args: &Args,
    rcfg: &RpvoConfig,
    window: &gc_datasets::ChurnStream,
    headline: &amcca_bench::ChurnExperiment,
) {
    eprintln!("[churn] full-vs-targeted repair ablation, scale {:?}...", args.scale);
    // Small batches on the same graph size: 1/32 of the preset's batch
    // volume, single-batch window, no drain — every batch deletes a sliver
    // of a graph that stays large.
    let p = ChurnPreset::v50k().scaled_down(args.scale.factor());
    let small = gc_datasets::generate_churn(&gc_datasets::ChurnParams {
        n_vertices: p.n_vertices,
        batches: 6,
        adds_per_batch: (p.adds_per_batch / 32).max(8),
        window: 1,
        drain: false,
        updates_per_batch: 0,
        order: Sampling::Edge,
        labels: 0,
        seed: p.seed,
    });
    let other_mode = match args.repair {
        RepairMode::Full => RepairMode::Targeted,
        RepairMode::Targeted => RepairMode::Full,
    };
    let jobs: Vec<(&str, &gc_datasets::ChurnStream, RepairMode)> = vec![
        ("window", window, other_mode),
        ("smallbatch", &small, RepairMode::Full),
        ("smallbatch", &small, RepairMode::Targeted),
    ];
    let runs: Vec<amcca_bench::ChurnExperiment> = run_tasks(
        jobs.into_iter()
            .map(|(name, c, repair)| {
                let chip = chip_for(args);
                let rcfg = *rcfg;
                move || {
                    let opts = RunOpts { rcfg, chip, repair, ..Default::default() };
                    run_streaming_churn(c, &opts, name)
                }
            })
            .collect(),
        CHIP_SCENARIO_WORKERS,
    );
    let (window_full, window_targeted) = match args.repair {
        RepairMode::Full => (headline, &runs[0]),
        RepairMode::Targeted => (&runs[0], headline),
    };
    let schedules: [(&str, &gc_datasets::ChurnStream); 2] =
        [("window", window), ("smallbatch", &small)];
    let pairs: [(&amcca_bench::ChurnExperiment, &amcca_bench::ChurnExperiment); 2] =
        [(window_full, window_targeted), (&runs[1], &runs[2])];
    println!(
        "\nAblation: repair scoping (reseed triggers / repair work, summed over batches;\n\
         instrs measure the wave's work — cycles only its depth)"
    );
    let header = [
        "Schedule",
        "n",
        "Full trig",
        "Targeted trig",
        "Full repair instrs",
        "Targeted repair instrs",
    ];
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (si, &(name, c)) in schedules.iter().enumerate() {
        let (full, targeted) = pairs[si];
        let sum = |e: &amcca_bench::ChurnExperiment, f: fn(&amcca_bench::ChurnRow) -> u64| {
            e.rows.iter().map(f).sum::<u64>()
        };
        rows.push(vec![
            name.to_string(),
            c.n_vertices.to_string(),
            sum(full, |r| r.reseed_triggers).to_string(),
            sum(targeted, |r| r.reseed_triggers).to_string(),
            sum(full, |r| r.repair_instrs).to_string(),
            sum(targeted, |r| r.repair_instrs).to_string(),
        ]);
        for i in 0..full.rows.len() {
            csv.push(format!(
                "{},{},{},{},{},{},{},{},{},{},{},{}",
                name,
                i + 1,
                c.n_vertices,
                full.rows[i].dels,
                full.rows[i].live,
                full.rows[i].reseed_triggers,
                targeted.rows[i].reseed_triggers,
                full.rows[i].repair_instrs,
                targeted.rows[i].repair_instrs,
                full.rows[i].repair_cycles,
                targeted.rows[i].repair_cycles,
                targeted.rows[i].cycles,
            ));
        }
    }
    println!("{}", format_table(&header, &rows));
    println!(
        "  (both modes rebuild bit-identical fixpoints — every batch above was\n\
         oracle-checked; targeted triggers track the invalidated region, full pays n)"
    );
    let dir = out_dir(&args.out);
    write_csv(
        &dir.join("churn_repair.csv"),
        "schedule,batch,n,dels,live,full_triggers,targeted_triggers,full_repair_instrs,targeted_repair_instrs,full_repair_cycles,targeted_repair_cycles,targeted_total_cycles",
        csv,
    );
    println!("  (csv: {}/churn_repair.csv)", args.out);
}

// ---------------------------------------------------------------------
// Verification (paper §4: results checked against NetworkX).
// ---------------------------------------------------------------------

fn verify(args: &Args) {
    use refgraph::{bfs_levels, DiGraph};
    use sdgp_core::apps::BfsAlgo;
    use sdgp_core::graph::{StreamEdge, StreamingGraph};

    eprintln!("[verify] streamed BFS vs reference oracle...");
    let p = args.scale.apply(GcPreset::v50k(Sampling::Edge)).scaled_down(4);
    let d = p.build();
    let mut g = StreamingGraph::builder(BfsAlgo::new(0))
        .vertices(d.n_vertices)
        .chip(chip_for(args))
        .rpvo(RpvoConfig::default())
        .build()
        .unwrap();
    let mut acc: Vec<StreamEdge> = Vec::new();
    for i in 0..d.increments() {
        g.stream_edges(d.increment(i)).unwrap();
        acc.extend_from_slice(d.increment(i));
        let reference = bfs_levels(&DiGraph::from_edges(d.n_vertices, acc.iter().copied()), 0);
        assert_eq!(g.states(), reference, "mismatch after increment {i}");
        println!("  increment {:2}: {:7} edges accumulated, levels verified OK", i + 1, acc.len());
    }
    g.check_mirror_consistency().unwrap();
    println!("verify: all increments match the reference oracle; mirrors consistent");
}
