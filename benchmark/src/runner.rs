//! `run`: every workload in its own child process — so `peak_rss_mb` is per
//! workload — first untraced ([`CHILD_RUNS`] times), then once traced. The
//! parent only spawns, collects, prints and writes
//! `benchmark/out/results.json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};

use crate::metrics::def;
use crate::stats::{median, quartile_spread};
use crate::workloads::{nproc, out_dir, WORKLOADS};
use crate::FULL_SECONDS;

/// Untraced child runs per workload: the value is their median, and their
/// spread is what lets `compare` tell "unchanged" from "unresolved".
const CHILD_RUNS: usize = 3;

pub struct Plan {
    pub seed: u64,
    pub workload: Option<String>,
    /// Skip the untraced runs.
    pub traced_only: bool,
}

/// The `workload metric value unit` lines of one child run.
#[derive(Default)]
struct ChildRun {
    values: BTreeMap<String, f64>,
    input_hash: String,
    failed: bool,
}

fn spawn_one(plan: &Plan, workload: &str, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["one", "--workload", workload])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &FULL_SECONDS.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut run = ChildRun { failed: !out.status.success(), ..ChildRun::default() };
    for line in stdout.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        match f[..] {
            [w, "input_hash", hash, _] if w == workload => run.input_hash = hash.to_string(),
            [w, name, value, _] if w == workload => {
                let v: f64 = value.parse().map_err(|_| format!("{workload}: bad line {line:?}"))?;
                run.values.insert(name.to_string(), v);
            }
            _ => {}
        }
    }
    run.failed |= run.values.get("failed").is_none_or(|&f| f > 0.0);
    Ok(run)
}

/// One metric of one workload in `results.json`.
struct Cell {
    value: f64,
    /// Quartile spread of the child runs, when there was more than one.
    spread: Option<f64>,
    runs: Vec<f64>,
}

pub fn run(plan: &Plan) -> Result<ExitCode, String> {
    let selected: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|n| plan.workload.as_deref().is_none_or(|w| w == *n))
        .collect();
    println!(
        "# seed {} seconds {} runs {CHILD_RUNS} nproc {} (closed-loop serve clients; shards \
         pinned to 1 except skew_sharded)",
        plan.seed,
        FULL_SECONDS,
        nproc()
    );
    let mut any_failed = false;
    let mut json = String::new();
    for (wi, workload) in selected.iter().enumerate() {
        let mut cells: BTreeMap<String, Cell> = BTreeMap::new();
        let mut hashes: Vec<String> = Vec::new();
        let mut failed_runs = 0;
        // First come, first kept: the untraced runs go first, so the traced
        // run only adds what they did not measure.
        let mut collect = |runs: &[ChildRun]| {
            let names: Vec<&String> = runs.iter().flat_map(|r| r.values.keys()).collect();
            for name in names {
                if cells.contains_key(name) {
                    continue;
                }
                let vals: Vec<f64> =
                    runs.iter().filter_map(|r| r.values.get(name)).copied().collect();
                let cell =
                    Cell { value: median(&vals), spread: quartile_spread(&vals), runs: vals };
                cells.insert(name.clone(), cell);
            }
        };
        if !plan.traced_only {
            let runs: Vec<ChildRun> = (0..CHILD_RUNS)
                .map(|_| spawn_one(plan, workload, false))
                .collect::<Result<_, _>>()?;
            failed_runs += runs.iter().filter(|r| r.failed).count();
            hashes.extend(runs.iter().map(|r| r.input_hash.clone()));
            collect(&runs);
        }
        let traced = [spawn_one(plan, workload, true)?];
        failed_runs += traced.iter().filter(|r| r.failed).count();
        hashes.push(traced[0].input_hash.clone());
        collect(&traced);
        hashes.dedup();
        if hashes.len() != 1 {
            eprintln!("{workload}: input_hash differs between runs of one seed: {hashes:?}");
            failed_runs += 1;
        }
        any_failed |= failed_runs > 0;

        println!("{workload} input_hash {} hash", hashes[0]);
        for (name, cell) in &cells {
            let unit = def(name).map_or("count", |d| d.unit);
            let spread = cell.spread.map_or(String::new(), |s| format!(" spread={s:.4}"));
            println!("{workload} {name} {} {unit} n={}{spread}", cell.value, cell.runs.len());
        }
        if wi > 0 {
            json.push_str(",\n");
        }
        let _ = write!(
            json,
            "    \"{workload}\": {{\n      \"input_hash\": \"{}\",\n      \"failed_runs\": \
             {failed_runs},\n      \"metrics\": {{",
            hashes[0]
        );
        for (i, (name, cell)) in cells.iter().enumerate() {
            let unit = def(name).map_or("count", |d| d.unit);
            let spread = cell.spread.map_or("null".to_string(), |s| format!("{s}"));
            let runs: Vec<String> = cell.runs.iter().map(|v| format!("{v}")).collect();
            let _ = write!(
                json,
                "{}\n        \"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"spread\": \
                 {spread}, \"runs\": [{}]}}",
                if i > 0 { "," } else { "" },
                cell.value,
                runs.join(", ")
            );
        }
        json.push_str("\n      }\n    }");
    }
    let doc = format!(
        "{{\n  \"seed\": {},\n  \"seconds\": {},\n  \"runs\": {CHILD_RUNS},\n  \"nproc\": {},\n  \
         \"workloads\": {{\n{json}\n  }}\n}}\n",
        plan.seed,
        FULL_SECONDS,
        nproc()
    );
    let path = out_dir().join("results.json");
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    if any_failed {
        eprintln!("run: a correctness gate or a child run failed");
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}
