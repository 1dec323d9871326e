//! The repo benchmark: five seeded workloads, end-to-end and per-layer
//! metrics, measured from outside the crates. See `benchmark/README.md`.
//!
//! ```text
//! amcca-benchmark run     [--seed N] [--workload W] [--traced]
//! amcca-benchmark compare <a.json> <b.json>
//! amcca-benchmark one     --workload W --seed N --seconds S --trace 0|1
//! ```
//!
//! `one` measures a single workload in this process and ends its output
//! with the one-line JSON result the benchmark driver reads; `run` spawns
//! one `one` child per workload and pass, so peak memory is per workload.

mod compare;
mod direct;
mod inputs;
mod layers;
mod metrics;
mod runner;
mod serve;
mod span;
mod stats;
mod workloads;

use std::process::ExitCode;

use metrics::{reported_on, traced_defs, MetricDef, GATED};
pub use workloads::WORKLOADS;
use workloads::{Outcome, RunArgs};

/// The default seed; the README names 1729 as the held-out one.
const DEFAULT_SEED: u64 = 91;
/// `run`'s measuring time (and `one`'s default): the workloads' full
/// schedules.
const FULL_SECONDS: f64 = 25.0;

const USAGE: &str = "usage:
  amcca-benchmark run [--seed N] [--workload W] [--traced]
  amcca-benchmark compare <a.json> <b.json>
  amcca-benchmark one --workload W --seed N --seconds S --trace 0|1";

/// `--flag value` pairs after the subcommand, plus bare flags.
struct Cli {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl Cli {
    fn parse(args: &[String], bare: &[&str]) -> Result<Cli, String> {
        let mut cli = Cli { pairs: Vec::new(), flags: Vec::new() };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if bare.contains(&a.as_str()) {
                cli.flags.push(a.clone());
            } else if let Some(name) = a.strip_prefix("--") {
                let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                cli.pairs.push((name.to_string(), v.clone()));
            } else {
                return Err(format!("unexpected argument {a:?}"));
            }
        }
        Ok(cli)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            Some(v) => v.parse().map_err(|_| format!("--{name}: cannot parse {v:?}")),
            None => Ok(default),
        }
    }
}

fn workload_arg(cli: &Cli) -> Result<Option<String>, String> {
    match cli.get("workload") {
        Some(w) if WORKLOADS.iter().any(|k| k.name == w) => Ok(Some(w.to_string())),
        Some(w) => {
            Err(format!("unknown workload {w:?}; one of {}", WORKLOADS.map(|k| k.name).join(", ")))
        }
        None => Ok(None),
    }
}

/// Print one `one` run: every measured metric as `workload metric value
/// unit`, then the driver's one-line JSON result with exactly the metrics
/// of the requested list. The driver wants every listed metric on every
/// workload, so one the workload does not report goes in as 0 — there and
/// nowhere else; one it does report and did not measure is an error.
fn print_outcome(args: &RunArgs, o: &Outcome) -> Result<(), String> {
    let w = &args.workload;
    let listed: Vec<&MetricDef> =
        if args.trace { traced_defs().collect() } else { GATED.iter().collect() };
    println!("# {w}: seed {} seconds {} trace {}", args.seed, args.seconds, args.trace as u8);
    println!("# {w}: nproc {}, shards {}", workloads::nproc(), o.shards);
    if matches!(w.as_str(), "serve_trickle" | "query_fanout") {
        println!(
            "# {w}: closed loop over loopback TCP, one request in flight per connection, \
             at most min(2, nproc) submitting connections"
        );
    }
    println!("{w} input_hash {:#018x} hash", o.input_hash);
    println!("{w} shards {} count", o.shards);
    println!("{w} attempted {} count", o.attempted);
    println!("{w} failed {} count", o.failed);
    // Everything measured, listed or not (a `--trace 0` run also measures
    // the end-to-end extras of its workload).
    for d in GATED.iter().chain(traced_defs()) {
        if let Some(v) = o.metrics.get(d.name) {
            println!("{w} {} {v} {}", d.name, d.unit);
        }
    }
    let metrics: Vec<String> = listed
        .iter()
        .map(|d| {
            let v = match o.metrics.get(d.name) {
                Some(v) => v,
                None if reported_on(d.name, w) => {
                    return Err(format!("{w} reports {} and did not measure it", d.name))
                }
                None => 0.0,
            };
            Ok(format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit))
        })
        .collect::<Result<_, String>>()?;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    );
    Ok(())
}

fn cmd_one(args: &[String]) -> Result<ExitCode, String> {
    let cli = Cli::parse(args, &[])?;
    let workload = workload_arg(&cli)?.ok_or("one: --workload is required")?;
    let run = RunArgs {
        workload,
        seed: cli.num("seed", DEFAULT_SEED)?,
        seconds: cli.num("seconds", FULL_SECONDS)?,
        trace: match cli.get("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
    };
    if run.seconds.is_nan() || run.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let outcome = workloads::run_one(&run).map_err(|e| format!("{}: {e}", run.workload))?;
    print_outcome(&run, &outcome)?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let cli = Cli::parse(args, &["--traced"])?;
    let plan = runner::Plan {
        seed: cli.num("seed", DEFAULT_SEED)?,
        workload: workload_arg(&cli)?,
        traced_only: cli.flags.iter().any(|f| f == "--traced"),
    };
    runner::run(&plan)
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    match args {
        [a, b] => compare::compare(a.as_ref(), b.as_ref()),
        _ => Err("compare takes two result files".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "one" => cmd_one(rest),
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|msg| {
        eprintln!("{msg}");
        ExitCode::from(2)
    })
}
