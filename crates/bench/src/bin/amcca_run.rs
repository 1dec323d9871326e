//! `amcca-run` — run a streaming graph workload on a simulated AM-CCA chip.
//!
//! The general-purpose CLI for users with their own edge lists (including
//! real GraphChallenge part files):
//!
//! ```text
//! amcca-run --edges graph.tsv [--edges part2.tsv ...] [options]
//!
//!   --edges FILE       edge file (src dst [w]); repeat for increments
//!   --algo bfs|sssp|cc janitor algorithm to run while streaming (default bfs)
//!   --root N           BFS/SSSP source vertex (default 0)
//!   --zero-indexed     ids start at 0 (default: 1-indexed, GraphChallenge)
//!   --symmetrize       insert both directions of every edge (needed for cc)
//!   --chip WxH         mesh size (default 32x32)
//!   --shards N         column bands, one thread each (default 1; results
//!                      are identical for any N)
//!   --edge-cap N       RPVO inline edge capacity (default 16)
//!   --ghosts N         RPVO ghost fanout (default 2)
//!   --random-alloc     Random ghost placement instead of Vicinity
//!   --ingest-only      disable algorithm propagation
//!   --verify           check final result against the sequential oracle
//!   --states FILE      write final per-vertex states as CSV
//! ```

use std::path::PathBuf;

use amcca_sim::{ChipConfig, Dims, GhostPlacement};
use gc_datasets::{load_streaming_parts, Sampling};
use sdgp_core::apps::{BfsAlgo, CcAlgo, SsspAlgo, VertexAlgo};
use sdgp_core::graph::{symmetrize, StreamEdge, StreamingGraph};
use sdgp_core::rpvo::RpvoConfig;

#[derive(Debug)]
struct Args {
    edges: Vec<PathBuf>,
    algo: String,
    root: u32,
    one_indexed: bool,
    symmetrize: bool,
    dims: Dims,
    shards: usize,
    edge_cap: usize,
    ghosts: usize,
    random_alloc: bool,
    ingest_only: bool,
    verify: bool,
    states_out: Option<PathBuf>,
}

fn die(msg: &str) -> ! {
    eprintln!("amcca-run: {msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        edges: Vec::new(),
        algo: "bfs".into(),
        root: 0,
        one_indexed: true,
        symmetrize: false,
        dims: Dims::new(32, 32),
        shards: 1,
        edge_cap: 16,
        ghosts: 2,
        random_alloc: false,
        ingest_only: false,
        verify: false,
        states_out: None,
    };
    let mut i = 0;
    let value = |argv: &[String], i: &mut usize, flag: &str| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| die(&format!("missing value for {flag}")))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--edges" => a.edges.push(PathBuf::from(value(&argv, &mut i, "--edges"))),
            "--algo" => a.algo = value(&argv, &mut i, "--algo"),
            "--root" => {
                a.root =
                    value(&argv, &mut i, "--root").parse().unwrap_or_else(|_| die("bad --root"))
            }
            "--zero-indexed" => a.one_indexed = false,
            "--symmetrize" => a.symmetrize = true,
            "--chip" => {
                let v = value(&argv, &mut i, "--chip");
                let (w, h) = v.split_once('x').unwrap_or_else(|| die("--chip expects WxH"));
                let side = |s: &str| match s.parse::<u16>() {
                    Ok(n) if n > 0 => n,
                    _ => die(&format!("--chip {v}: width and height must be in 1..=65535")),
                };
                a.dims = Dims::new(side(w), side(h));
            }
            "--shards" => {
                a.shards =
                    value(&argv, &mut i, "--shards").parse().unwrap_or_else(|_| die("bad --shards"))
            }
            "--edge-cap" => {
                a.edge_cap = value(&argv, &mut i, "--edge-cap")
                    .parse()
                    .unwrap_or_else(|_| die("bad --edge-cap"))
            }
            "--ghosts" => {
                a.ghosts =
                    value(&argv, &mut i, "--ghosts").parse().unwrap_or_else(|_| die("bad --ghosts"))
            }
            "--random-alloc" => a.random_alloc = true,
            "--ingest-only" => a.ingest_only = true,
            "--verify" => a.verify = true,
            "--states" => a.states_out = Some(PathBuf::from(value(&argv, &mut i, "--states"))),
            other => die(&format!("unknown argument {other} (see module docs)")),
        }
        i += 1;
    }
    if a.edges.is_empty() {
        die("at least one --edges FILE is required");
    }
    if let Err(e) = RpvoConfig::basic(a.edge_cap, a.ghosts).validate() {
        die(&format!("--edge-cap {} --ghosts {}: {e}", a.edge_cap, a.ghosts));
    }
    Args { ..a }
}

fn main() {
    let args = parse_args();
    let dataset = load_streaming_parts(&args.edges, Sampling::Edge, args.one_indexed, None)
        .unwrap_or_else(|e| die(&format!("loading edges: {e}")));
    eprintln!(
        "loaded {} edges over {} increment(s), {} vertices",
        dataset.total_edges(),
        dataset.increments(),
        dataset.n_vertices
    );
    if args.algo != "cc" && args.root >= dataset.n_vertices {
        die(&format!(
            "--root {} is out of range: the loaded graph has {} vertices",
            args.root, dataset.n_vertices
        ));
    }
    let chip = ChipConfig {
        dims: args.dims,
        shards: args.shards.max(1),
        ghost_placement: if args.random_alloc {
            GhostPlacement::Random
        } else {
            GhostPlacement::default()
        },
        ..ChipConfig::default()
    };
    let rcfg = RpvoConfig::basic(args.edge_cap, args.ghosts);
    match args.algo.as_str() {
        "bfs" => run_algo(&args, &dataset, chip, rcfg, BfsAlgo::new(args.root)),
        "sssp" => run_algo(&args, &dataset, chip, rcfg, SsspAlgo::new(args.root)),
        "cc" => run_algo(&args, &dataset, chip, rcfg, CcAlgo),
        other => die(&format!("unknown --algo {other} (bfs|sssp|cc)")),
    }
}

fn run_algo<G: VertexAlgo<State = u64>>(
    args: &Args,
    dataset: &gc_datasets::StreamingDataset,
    chip: ChipConfig,
    rcfg: RpvoConfig,
    algo: G,
) {
    let cells = chip.cell_count();
    let mut g = StreamingGraph::builder(algo)
        .vertices(dataset.n_vertices)
        .chip(chip)
        .rpvo(rcfg)
        .build()
        .unwrap_or_else(|e| die(&format!("constructing graph: {e}")));
    g.set_algo_propagation(!args.ingest_only);
    let mut total_cycles = 0u64;
    let mut total_energy = 0.0f64;
    for i in 0..dataset.increments() {
        let mut inc: Vec<StreamEdge> = dataset.increment(i).to_vec();
        if args.symmetrize {
            inc = symmetrize(&inc);
        }
        let r = g.stream_edges(&inc).unwrap_or_else(|e| die(&format!("increment {i}: {e}")));
        total_cycles += r.cycles;
        total_energy += r.energy_uj;
        println!(
            "increment {:>3}: {:>8} edges  {:>9} cycles  {:>10.1} µJ",
            i + 1,
            inc.len(),
            r.cycles,
            r.energy_uj
        );
    }
    println!(
        "total: {} cycles ({:.1} µs @ 1 GHz), {:.1} µJ on {} cells; {} edges stored, {} ghosts",
        total_cycles,
        total_cycles as f64 / 1000.0,
        total_energy,
        cells,
        g.total_edges_stored(),
        g.ghost_distance_stats().0,
    );

    if args.verify && !args.ingest_only {
        verify(args, dataset, &g);
    }
    if let Some(path) = &args.states_out {
        let mut csv = String::from("vertex,state\n");
        for (v, s) in g.states().into_iter().enumerate() {
            csv.push_str(&format!("{v},{s}\n"));
        }
        std::fs::write(path, csv).unwrap_or_else(|e| die(&format!("writing states: {e}")));
        println!("states written to {}", path.display());
    }
}

fn verify<G: VertexAlgo<State = u64>>(
    args: &Args,
    dataset: &gc_datasets::StreamingDataset,
    g: &StreamingGraph<G>,
) {
    use refgraph::{bfs_levels, dijkstra, min_labels, DiGraph};
    let mut edges: Vec<StreamEdge> = dataset.all_edges().to_vec();
    if args.symmetrize {
        edges = symmetrize(&edges);
    }
    let reference = DiGraph::from_edges(dataset.n_vertices, edges.iter().copied());
    let want = match args.algo.as_str() {
        "bfs" => bfs_levels(&reference, args.root),
        "sssp" => dijkstra(&reference, args.root),
        "cc" => min_labels(&reference),
        _ => unreachable!(),
    };
    let got = g.states();
    let mismatches = got.iter().zip(&want).filter(|(a, b)| a != b).count();
    if mismatches == 0 {
        println!("verify: OK — all {} vertices match the sequential oracle", want.len());
    } else {
        die(&format!("verify FAILED: {mismatches} vertices differ from the oracle"));
    }
}
