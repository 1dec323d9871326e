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
//! `churn`'s headline run scopes its reseeds to the repair frontier
//! (targeted repair); its ablation CSV (`churn_repair.csv`) measures the
//! full wave beside it.
//!
//! Default scale is `small` (1/50 of the paper, seconds). `--scale full`
//! reproduces the paper's sizes (50K/1.0M and 500K/10.2M edges); expect
//! minutes and a few GB of RAM for the 500K runs. CSV artifacts land in
//! `--out` (default `bench_out/`).

use amcca_bench::{
    assert_bfs, check_window, churn_batches, format_table, human_count, insert_batches, out_dir,
    run_stream, write_activity, write_csv, Run, Scale,
};
use amcca_sim::trace::activity_sparkline;
use amcca_sim::{run_tasks, ActivityRecording, ChipConfig, GhostPlacement, TerminationMode};
use gc_datasets::{ChurnPreset, ChurnStream, GcPreset, Sampling, SkewPreset, StreamingDataset};
use sdgp_core::apps::BfsAlgo;
use sdgp_core::graph::{GraphBuilder, GraphMutation, RepairMode, StreamingGraph};
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
    /// Parallelism budget: every simulated chip runs with this many shards,
    /// so chip-running scenarios run one at a time on the calling thread
    /// (which steps band 0); `table1`'s dataset fan-out uses it as a plain
    /// worker cap. Simulation results are shard-count-independent (the CI
    /// determinism gate diffs the CSVs), so `--jobs` only changes
    /// wall-clock time and peak memory.
    jobs: usize,
}

fn usage() -> String {
    let names: Vec<&str> = SCENARIOS.iter().map(|&(name, _)| name).collect();
    format!(
        "usage: paper <{}|all|list> [--scale small|mid|full] [--out DIR] [--jobs N]",
        names.join("|")
    )
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut command = String::new();
    let mut scale = Scale::Small;
    let mut out = "bench_out".to_string();
    let mut jobs = 0usize;
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
    Args { command, scale, out, jobs }
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

/// The graph every chip-running scenario starts from: BFS from vertex 0
/// over `n` vertices on the `--jobs` chip, default RPVO shape.
fn graph(args: &Args, n: u32) -> GraphBuilder<BfsAlgo> {
    StreamingGraph::builder(BfsAlgo::new(0)).vertices(n).chip(chip_for(args))
}

fn build(b: GraphBuilder<BfsAlgo>) -> StreamingGraph<BfsAlgo> {
    b.build().expect("graph construction")
}

/// Stream `batches` through the graph `b` builds, with `check` after every
/// increment.
fn stream(
    b: GraphBuilder<BfsAlgo>,
    batches: impl IntoIterator<Item = Vec<GraphMutation>>,
    check: impl FnMut(usize, &StreamingGraph<BfsAlgo>),
) -> Run {
    run_stream(&mut build(b), batches, check).expect("streamed run")
}

/// `d` streamed through the graph `b` builds twice: ingestion only, then
/// ingestion with BFS.
fn ingest_and_bfs(b: GraphBuilder<BfsAlgo>, d: &StreamingDataset) -> [Run; 2] {
    [false, true]
        .map(|with_bfs| stream(b.clone().propagate(with_bfs), insert_batches(d), |_, _| {}))
}

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
    let results: Vec<[Run; 2]> = ps
        .iter()
        .map(|p| {
            let d = p.build();
            ingest_and_bfs(graph(args, d.n_vertices), &d)
        })
        .collect();
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
    for ((p, [ing, bfs]), paper) in ps.iter().zip(&results).zip(PAPER_TABLE2) {
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
    println!(
        "\nFigure {figno}: percent of cells active per cycle — {mode} (scale {:?})",
        args.scale
    );
    let dir = out_dir(&args.out);
    let chip = ChipConfig { record_activity: ActivityRecording::Counts, ..chip_for(args) };
    let cells = chip.cell_count();
    for (tag, sampling) in [("a", Sampling::Edge), ("b", Sampling::Snowball)] {
        let d = args.scale.apply(GcPreset::v500k(sampling)).build();
        let b = graph(args, d.n_vertices).chip(chip.clone());
        let r = stream(b.propagate(with_bfs), insert_batches(&d), |_, _| {});
        let activity = r.activity();
        let peak = activity.iter().copied().max().unwrap_or(0);
        let mean = activity.iter().map(|&a| a as f64).sum::<f64>() / activity.len().max(1) as f64;
        println!(
            "  ({tag}) {:10}  cycles={:8}  peak={:5.1}%  mean={:5.1}%",
            sampling.to_string(),
            r.total_cycles(),
            peak as f64 * 100.0 / cells as f64,
            mean * 100.0 / cells as f64,
        );
        println!("      |{}|", activity_sparkline(&activity, cells, 72));
        let name = format!("fig{figno}_{}.csv", sampling.to_string().to_lowercase());
        write_activity(&dir.join(&name), &activity, cells, 4096);
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
    println!("\nFigure {figno}: cycles per increment, {size} graph (scale {:?})", args.scale);
    let dir = out_dir(&args.out);
    for (tag, sampling) in [("a", Sampling::Edge), ("b", Sampling::Snowball)] {
        let d = args.scale.apply(base(sampling)).build();
        let [ing, bfs] = ingest_and_bfs(graph(args, d.n_vertices), &d);
        println!("  ({tag}) {sampling} sampling:");
        let header = ["Increment", "Streaming Edges", "Streaming Edges with BFS", "ratio"];
        let rows: Vec<Vec<String>> = cycle_pairs(&ing, &bfs)
            .map(|(i, _, a, b)| {
                let ratio = format!("{:.2}", b as f64 / a.max(1) as f64);
                vec![(i + 1).to_string(), a.to_string(), b.to_string(), ratio]
            })
            .collect();
        println!("{}", indent(&format_table(&header, &rows), 4));
        println!(
            "    totals: ingestion {} cycles, with BFS {} cycles ({:.2}x)",
            ing.total_cycles(),
            bfs.total_cycles(),
            bfs.total_cycles() as f64 / ing.total_cycles().max(1) as f64
        );
        let name = format!("fig{figno}_{}.csv", sampling.to_string().to_lowercase());
        write_csv(
            &dir.join(&name),
            "increment,edges,ingest_cycles,bfs_cycles",
            cycle_pairs(&ing, &bfs).map(|(i, edges, a, b)| format!("{},{edges},{a},{b}", i + 1)),
        );
        println!("    (csv: {}/{name})", args.out);
    }
}

/// Per increment of an ingestion-only run and its BFS twin: `(index,
/// edges, ingestion cycles, BFS cycles)`.
fn cycle_pairs<'a>(
    ing: &'a Run,
    bfs: &'a Run,
) -> impl Iterator<Item = (usize, usize, u64, u64)> + 'a {
    let pairs = ing.rows.iter().zip(&bfs.rows);
    pairs.enumerate().map(|(i, (a, b))| (i, a.muts, a.report.cycles, b.report.cycles))
}

fn indent(s: &str, n: usize) -> String {
    let pad = " ".repeat(n);
    s.lines().map(|l| format!("{pad}{l}")).collect::<Vec<_>>().join("\n")
}

// ---------------------------------------------------------------------
// Ablations.
// ---------------------------------------------------------------------

/// One ablation: a sweep over variants of the 50K/Edge streamed BFS run,
/// printed as a table whose rows the CSV repeats.
struct Ablation<V> {
    /// Scenario name; the CSV is named after it.
    name: &'static str,
    /// What the sweep varies (the progress line).
    what: &'static str,
    /// The table's title, given the dataset label.
    title: fn(&str) -> String,
    header: &'static [&'static str],
    csv_header: &'static str,
    /// Each variant's label and the setting it sweeps.
    variants: Vec<(String, V)>,
    /// A variant's graph, from the `--jobs` BFS graph over the dataset.
    graph: fn(GraphBuilder<BfsAlgo>, V) -> StreamingGraph<BfsAlgo>,
    /// A row's cells after label, cycles and energy, given the variant's run
    /// and the first variant's.
    cells: fn(&Run, &Run) -> Vec<String>,
}

fn ablate<V: Clone>(args: &Args, a: Ablation<V>) {
    eprintln!("[{}] {}, scale {:?}...", a.name, a.what, args.scale);
    let p = args.scale.apply(GcPreset::v50k(Sampling::Edge));
    let d = p.build();
    let runs: Vec<Run> = a
        .variants
        .iter()
        .map(|(_, v)| {
            let mut g = (a.graph)(graph(args, d.n_vertices), v.clone());
            run_stream(&mut g, insert_batches(&d), |_, _| {}).expect("streamed run")
        })
        .collect();
    println!("\nAblation: {}", (a.title)(&p.label()));
    let rows: Vec<Vec<String>> = a
        .variants
        .iter()
        .zip(&runs)
        .map(|((label, _), r)| {
            let energy = format!("{:.0}", r.total_energy_uj());
            let mut row = vec![label.clone(), r.total_cycles().to_string(), energy];
            row.extend((a.cells)(r, &runs[0]));
            row
        })
        .collect();
    println!("{}", format_table(a.header, &rows));
    let dir = out_dir(&args.out);
    let csv = format!("{}.csv", a.name.replace('-', "_"));
    write_csv(&dir.join(csv), a.csv_header, rows.iter().map(|r| r.join(",")));
}

fn ablate_alloc(args: &Args) {
    let policies = [
        ("vicinity-1", GhostPlacement::Vicinity { max_hops: 1 }),
        ("vicinity-2", GhostPlacement::Vicinity { max_hops: 2 }),
        ("vicinity-4", GhostPlacement::Vicinity { max_hops: 4 }),
        ("random", GhostPlacement::Random),
    ];
    ablate(
        args,
        Ablation {
            name: "ablate-alloc",
            what: "vicinity vs random ghost placement",
            title: |d| format!("ghost allocation policy (Fig. 5), {d} + BFS"),
            header: &["Policy", "Cycles", "Energy µJ", "Hops", "Ghosts", "Avg ghost hops"],
            csv_header: "policy,cycles,energy_uj,hops,ghosts,avg_ghost_hops",
            variants: policies
                .map(|(name, pol)| {
                    (name.into(), ChipConfig { ghost_placement: pol, ..chip_for(args) })
                })
                .into(),
            graph: |b, chip| build(b.chip(chip).rpvo(RpvoConfig::basic(8, 2))),
            cells: |r, _| {
                let hops = r.sum(|x| x.counters.hops);
                vec![hops.to_string(), r.ghosts.0.to_string(), format!("{:.2}", r.ghosts.1)]
            },
        },
    );
}

fn ablate_edgecap(args: &Args) {
    ablate(
        args,
        Ablation {
            name: "ablate-edgecap",
            what: "RPVO edge-capacity sweep",
            title: |d| format!("RPVO inline edge capacity, {d} + BFS"),
            header: &["edge_cap", "Cycles", "Energy µJ", "Ghosts", "Msgs staged"],
            csv_header: "edge_cap,cycles,energy_uj,ghosts,msgs_staged",
            variants: [2, 4, 8, 16, 32].map(|cap| (format!("cap={cap}"), cap)).into(),
            graph: |b, cap| build(b.rpvo(RpvoConfig::basic(cap, 2))),
            cells: |r, _| {
                let staged = r.sum(|x| x.counters.msgs_staged);
                vec![r.ghosts.0.to_string(), staged.to_string()]
            },
        },
    );
}

fn ablate_ghosts(args: &Args) {
    ablate(
        args,
        Ablation {
            name: "ablate-ghosts",
            what: "RPVO ghost-fanout sweep",
            title: |d| format!("RPVO ghost fanout (spill-tree arity), {d} + BFS"),
            header: &["ghost_fanout", "Cycles", "Energy µJ", "Ghosts", "Avg ghost hops"],
            csv_header: "ghost_fanout,cycles,energy_uj,ghosts,avg_ghost_hops",
            variants: [1, 2, 4, 8].map(|f| (format!("fanout={f}"), f)).into(),
            graph: |b, f| build(b.rpvo(RpvoConfig::basic(4, f))),
            cells: |r, _| vec![r.ghosts.0.to_string(), format!("{:.2}", r.ghosts.1)],
        },
    );
}

fn ablate_terminator(args: &Args) {
    ablate(
        args,
        Ablation {
            name: "ablate-terminator",
            what: "quiescence vs Safra token",
            title: |d| format!("termination detection, {d} + BFS (10 increments)"),
            header: &["Detector", "Cycles", "Energy µJ", "Hops", "Detection overhead"],
            csv_header: "detector,cycles,energy_uj,hops,overhead",
            variants: [
                ("quiescence", TerminationMode::Quiescence),
                ("safra-token", TerminationMode::SafraToken),
            ]
            .map(|(name, mode)| (name.into(), ChipConfig { termination: mode, ..chip_for(args) }))
            .into(),
            graph: |b, chip| build(b.chip(chip)),
            cells: |r, base| {
                let overhead = r.total_cycles() as f64 / base.total_cycles() as f64 - 1.0;
                vec![r.sum(|x| x.counters.hops).to_string(), format!("{:+.1}%", overhead * 100.0)]
            },
        },
    );
    println!(
        "(quiescence is the simulator-level detector the paper uses; Safra's token\n\
         pays real mesh hops and polling cycles to detect the same terminations)"
    );
}

fn loadmap(args: &Args) {
    use amcca_sim::{gini, max_mean_ratio, top_k_share};

    eprintln!("[loadmap] per-cell load, Edge vs Snowball, scale {:?}...", args.scale);
    println!("\nLoad distribution across compute cells (ingestion-only, §5's congestion claim):");
    let dir = out_dir(&args.out);
    let mut summary = Vec::new();
    for sampling in [Sampling::Edge, Sampling::Snowball] {
        let d = args.scale.apply(GcPreset::v50k(sampling)).build();
        let mut g = build(graph(args, d.n_vertices).propagate(false));
        // Stream only the LAST increment after building the prefix, so the
        // measured loads reflect one increment's frontier behaviour.
        let mut batches = insert_batches(&d);
        let prefix = batches.by_ref().take(d.increments() - 1);
        run_stream(&mut g, prefix, |_, _| {}).expect("streamed run");
        g.device_mut().chip_mut().reset_cell_loads();
        run_stream(&mut g, batches, |_, _| {}).expect("streamed run");
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
        let name = format!("loadmap_{}.csv", sampling.to_string().to_lowercase());
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
    let [ing, bfs] = ingest_and_bfs(graph(args, d.n_vertices).rpvo(rcfg), &d);
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
        threshold,
        ing.last().promoted,
        ing.last().extra_roots
    );
    let header = ["Increment", "Edges", "Ingest cycles", "Ingest+BFS cycles", "ratio"];
    let rows: Vec<Vec<String>> = cycle_pairs(&ing, &bfs)
        .map(|(i, edges, a, b)| {
            let ratio = format!("{:.2}", b as f64 / a.max(1) as f64);
            vec![(i + 1).to_string(), edges.to_string(), a.to_string(), b.to_string(), ratio]
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
        // promoted/extra_roots are cumulative as of this increment — the
        // promotion timeline across the stream.
        cycle_pairs(&ing, &bfs).map(|(i, edges, a, b)| {
            let r = &ing.rows[i];
            format!("{},{edges},{a},{b},{},{}", i + 1, r.promoted, r.extra_roots)
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
    let results: Vec<[Run; 2]> = ks
        .iter()
        .map(|&k| {
            // K = 1 is the single-root reference (promotion off).
            let rcfg = if k == 1 {
                RpvoConfig::default()
            } else {
                RpvoConfig::default().with_rhizomes(threshold, k)
            };
            ingest_and_bfs(graph(args, d.n_vertices).rpvo(rcfg), &d)
        })
        .collect();
    println!(
        "\nAblation: rhizome roots per hub (threshold {} touches), {} streaming",
        threshold,
        p.label()
    );
    let header =
        ["K", "Promoted", "Extra roots", "Ingest cycles", "Ingest µJ", "+BFS cycles", "+BFS µJ"];
    let mut rows = Vec::new();
    let mut csv = Vec::new();
    for (k, [ing, bfs]) in ks.iter().zip(&results) {
        let end = ing.last();
        rows.push(vec![
            k.to_string(),
            end.promoted.to_string(),
            end.extra_roots.to_string(),
            ing.total_cycles().to_string(),
            format!("{:.0}", ing.total_energy_uj()),
            bfs.total_cycles().to_string(),
            format!("{:.0}", bfs.total_energy_uj()),
        ]);
        csv.push(format!(
            "{},{},{},{},{:.1},{},{:.1}",
            k,
            end.promoted,
            end.extra_roots,
            ing.total_cycles(),
            ing.total_energy_uj(),
            bfs.total_cycles(),
            bfs.total_energy_uj()
        ));
    }
    println!("{}", format_table(&header, &rows));
    let k1 = results[0][0].total_cycles();
    let k4 = results[2][0].total_cycles();
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

/// `c` streamed through the `--jobs` graph with `rcfg` and `repair`, BFS
/// propagating iff `with_bfs`, under [`check_window`] after every batch.
fn churn_run(
    args: &Args,
    rcfg: RpvoConfig,
    repair: RepairMode,
    c: &ChurnStream,
    with_bfs: bool,
) -> Run {
    let b = graph(args, c.n_vertices).rpvo(rcfg).repair(repair).propagate(with_bfs);
    stream(b, churn_batches(c), check_window(c))
}

fn churn(args: &Args) {
    eprintln!(
        "[churn] sliding-window mutation stream (targeted repair), scale {:?}...",
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
    let [ing, bfs] =
        [false, true].map(|with_bfs| churn_run(args, rcfg, RepairMode::Targeted, &c, with_bfs));
    println!(
        "\nSliding-window churn: {} ({} insert batches of {}, window {}, drained; \
         peak-window degree max {}, mean {:.1}; targeted repair)",
        p.label(),
        p.batches,
        human_count(p.adds_per_batch as u64),
        p.window,
        stats.max,
        stats.mean
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
    let rows: Vec<Vec<String>> = (0..c.len())
        .map(|i| {
            let (b, ing, bfs) = (c.batch(i), &ing.rows[i], &bfs.rows[i]);
            vec![
                (i + 1).to_string(),
                b.adds.len().to_string(),
                b.dels.len().to_string(),
                ing.live.to_string(),
                ing.report.cycles.to_string(),
                bfs.report.cycles.to_string(),
                bfs.report.reseed_triggers.to_string(),
                ing.extra_roots.to_string(),
                ing.demoted.to_string(),
            ]
        })
        .collect();
    println!("{}", format_table(&header, &rows));
    let last = ing.last();
    println!(
        "  end of stream: {} live edges, {} promotions, {} demotions, {} extra roots left",
        last.live, last.promoted, last.demoted, last.extra_roots
    );
    let dir = out_dir(&args.out);
    write_csv(
        &dir.join("churn.csv"),
        "batch,adds,dels,live,ingest_cycles,ingest_uj,bfs_cycles,bfs_uj,bfs_us,repair_cycles,reseed_triggers,promoted,extra_roots,demoted",
        (0..c.len()).map(|i| {
            let (b, ing, bfs) = (c.batch(i), &ing.rows[i], &bfs.rows[i]);
            format!(
                "{},{},{},{},{},{:.1},{},{:.1},{:.1},{},{},{},{},{}",
                i + 1,
                b.adds.len(),
                b.dels.len(),
                ing.live,
                ing.report.cycles,
                ing.report.energy_uj,
                bfs.report.cycles,
                bfs.report.energy_uj,
                bfs.report.time_us,
                bfs.report.repair_cycles,
                bfs.report.reseed_triggers,
                ing.promoted,
                ing.extra_roots,
                ing.demoted
            )
        }),
    );
    println!("  (csv: {}/churn.csv)", args.out);
    // The headline BFS run already measured (window, targeted) under the
    // ablation's exact options — reuse it instead of re-simulating.
    ablate_repair(args, rcfg, &c, &bfs);
}

/// Full-vs-targeted repair ablation: run the same churn schedule under both
/// reseed scopings (bit-identical fixpoints — [`check_window`] oracle-checks
/// every batch), then a small-batch/large-graph schedule where the
/// invalidated region is tiny relative to the graph. Shows targeted reseed
/// trigger counts (and repair-phase work) tracking the batch size while the
/// full wave pays O(n) per delete-bearing batch. `headline` is the window
/// schedule's already-measured targeted BFS run under the same options;
/// only the three missing experiments are simulated.
fn ablate_repair(args: &Args, rcfg: RpvoConfig, window: &ChurnStream, headline: &Run) {
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
    let [window_full, small_full, small_targeted] =
        [(window, RepairMode::Full), (&small, RepairMode::Full), (&small, RepairMode::Targeted)]
            .map(|(c, repair)| churn_run(args, rcfg, repair, c, true));
    let schedules = [
        ("window", window, (&window_full, headline)),
        ("smallbatch", &small, (&small_full, &small_targeted)),
    ];
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
    for (name, c, (full, targeted)) in schedules {
        rows.push(vec![
            name.to_string(),
            c.n_vertices.to_string(),
            full.sum(|r| r.reseed_triggers).to_string(),
            targeted.sum(|r| r.reseed_triggers).to_string(),
            full.sum(|r| r.repair_instrs).to_string(),
            targeted.sum(|r| r.repair_instrs).to_string(),
        ]);
        for (i, (f, t)) in full.rows.iter().zip(&targeted.rows).enumerate() {
            let (f, t) = (&f.report, &t.report);
            csv.push(format!(
                "{},{},{},{},{},{},{},{},{},{},{},{}",
                name,
                i + 1,
                c.n_vertices,
                c.batch(i).dels.len(),
                full.rows[i].live,
                f.reseed_triggers,
                t.reseed_triggers,
                f.repair_instrs,
                t.repair_instrs,
                f.repair_cycles,
                t.repair_cycles,
                t.cycles,
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
    eprintln!("[verify] streamed BFS vs reference oracle...");
    let d = args.scale.apply(GcPreset::v50k(Sampling::Edge)).scaled_down(4).build();
    let mut g = build(graph(args, d.n_vertices));
    let mut streamed = 0;
    let check = |i, g: &StreamingGraph<BfsAlgo>| {
        streamed += d.increment(i).len();
        assert_bfs(g, &d.all_edges()[..streamed], i);
        println!("  increment {:2}: {:7} edges accumulated, levels verified OK", i + 1, streamed);
    };
    run_stream(&mut g, insert_batches(&d), check).expect("streamed run");
    g.check_mirror_consistency().unwrap();
    println!("verify: all increments match the reference oracle; mirrors consistent");
}
