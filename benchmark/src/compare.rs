//! `compare <a.json> <b.json>`: apply each end-to-end metric's bound per
//! workload, check that exact counts repeat, and exit non-zero on any
//! regression. `a` is the baseline, `b` the candidate, both written by `run`
//! from the same seed.

use std::path::Path;
use std::process::ExitCode;

use amcca_obs::json::{parse, Json};

use crate::metrics::{Better, MetricDef, EXTRA, GATED, LAYER};
use crate::workloads::WORKLOADS;

/// One metric of one workload as a result file holds it.
struct Cell {
    value: f64,
    spread: Option<f64>,
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn cell(doc: &Json, workload: &str, metric: &str) -> Option<Cell> {
    let m = doc.get("workloads")?.get(workload)?.get("metrics")?.get(metric)?;
    Some(Cell { value: m.get("value")?.as_num()?, spread: m.get("spread").and_then(Json::as_num) })
}

fn input_hash<'a>(doc: &'a Json, workload: &str) -> Option<&'a str> {
    doc.get("workloads")?.get(workload)?.get("input_hash")?.as_str()
}

fn failed_runs(doc: &Json, workload: &str) -> f64 {
    let runs = doc.get("workloads").and_then(|w| w.get(workload)?.get("failed_runs")?.as_num());
    // A workload entry without the count did not come from a finished run.
    runs.unwrap_or(1.0)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Ok,
    Regressed,
    /// Within the bound, but a side's own repetitions spread wider than it.
    Unresolved,
}

/// Judge a bounded metric: how much worse is `b` than `a`, as a share of `a`?
fn judge(d: &MetricDef, bound: f64, a: &Cell, b: &Cell) -> (f64, Verdict) {
    let worse = match d.better {
        Better::Lower => b.value - a.value,
        Better::Higher => a.value - b.value,
    };
    // Against a zero baseline any worsening is a whole share.
    let share = match a.value {
        0.0 => f64::from(u8::from(worse > 0.0)),
        base => worse / base.abs(),
    };
    // What may pass, in the metric's unit: the bound's share of the
    // baseline, or the metric's absolute slack where that is more.
    let allowed = (bound * a.value.abs()).max(d.slack);
    let spread =
        (a.spread.unwrap_or(0.0) * a.value.abs()).max(b.spread.unwrap_or(0.0) * b.value.abs());
    let verdict = if worse > allowed {
        Verdict::Regressed
    } else if spread > allowed {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (share, verdict)
}

/// Judge candidate `b` against baseline `a`, printing one row per judged
/// metric; returns how many rows regressed and how many are unresolved.
/// Whatever `a` measured and `b` did not — a workload, a metric — counts as
/// regressed, and so does a failed run on either side: a candidate that
/// crashed before printing must not pass by having nothing to compare.
fn judge_docs(a: &Json, b: &Json) -> (usize, usize) {
    let (mut regressed, mut unresolved) = (0, 0);
    println!("{:<14} {:<26} {:>16} {:>16} {:>9}  verdict", "workload", "metric", "a", "b", "worse");
    for w in WORKLOADS.map(|w| w.name) {
        let (ha, hb) = match (input_hash(a, w), input_hash(b, w)) {
            (Some(ha), Some(hb)) => (ha, hb),
            (Some(_), None) => {
                println!(
                    "{w:<14} {:<26} {:>16} {:>16} {:>9}  regressed",
                    "(workload)", "", "missing", ""
                );
                regressed += 1;
                continue;
            }
            // Not in the baseline: nothing to judge against.
            (None, _) => continue,
        };
        // Timings of other inputs say nothing finer than the input spread,
        // and counts of other inputs nothing at all: only the same inputs
        // are judged.
        let same_inputs = ha == hb;
        println!(
            "{w:<14} {:<26} {ha:>16} {hb:>16} {:>9}  {}",
            "input_hash",
            "",
            if same_inputs { "same" } else { "differ: unresolved" }
        );
        for (side, doc) in [("a", a), ("b", b)] {
            let failed = failed_runs(doc, w);
            if failed > 0.0 {
                println!("{w:<14} {:<26} {failed} in {side}  regressed", "failed_runs");
                regressed += 1;
            }
        }
        for d in GATED.iter().chain(&EXTRA).chain(&LAYER) {
            // A layer timing has no bound and is not judged.
            if !d.exact && d.bound.is_none() {
                continue;
            }
            let Some(ca) = cell(a, w, d.name) else { continue };
            let cb = cell(b, w, d.name);
            let (share, verdict) = match (&cb, d.bound) {
                (None, _) => (0.0, Verdict::Regressed),
                (Some(_), _) if !same_inputs => (0.0, Verdict::Unresolved),
                (Some(cb), _) if d.exact => {
                    (0.0, if ca.value == cb.value { Verdict::Ok } else { Verdict::Regressed })
                }
                (Some(cb), Some(bound)) => judge(d, bound, &ca, cb),
                (Some(_), None) => unreachable!("unbounded inexact metrics were skipped"),
            };
            match verdict {
                Verdict::Ok => {}
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
            }
            let label = match (verdict, d.exact, &cb) {
                (Verdict::Regressed, _, None) => "regressed (missing in b)",
                (Verdict::Ok, true, _) => "ok (exact)",
                (Verdict::Ok, false, _) => "ok",
                (Verdict::Regressed, true, _) => "regressed (count differs)",
                (Verdict::Regressed, false, _) => "regressed",
                (Verdict::Unresolved, _, _) => "unresolved",
            };
            let shown = cb.map_or("missing".to_string(), |c| c.value.to_string());
            println!(
                "{w:<14} {:<26} {:>16} {shown:>16} {:>8.2}%  {label}",
                d.name,
                ca.value,
                share * 100.0
            );
        }
    }
    (regressed, unresolved)
}

pub fn compare(a_path: &Path, b_path: &Path) -> Result<ExitCode, String> {
    let (regressed, unresolved) = judge_docs(&load(a_path)?, &load(b_path)?);
    println!("# {regressed} regressed, {unresolved} unresolved");
    Ok(if regressed > 0 { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::def;

    fn c(value: f64, spread: Option<f64>) -> Cell {
        Cell { value, spread }
    }

    #[test]
    fn bounds_apply_in_the_metrics_direction() {
        let rate = def("muts_per_s").unwrap();
        // Higher is better: 8 % fewer is inside 10 %, 12 % fewer is not.
        assert_eq!(judge(rate, 0.10, &c(100.0, None), &c(92.0, None)).1, Verdict::Ok);
        assert_eq!(judge(rate, 0.10, &c(100.0, None), &c(88.0, None)).1, Verdict::Regressed);
        assert_eq!(judge(rate, 0.10, &c(100.0, None), &c(150.0, None)).1, Verdict::Ok);
        let lat = def("batch_p50_ms").unwrap();
        assert_eq!(judge(lat, 0.10, &c(10.0, None), &c(11.5, None)).1, Verdict::Regressed);
        assert_eq!(judge(lat, 0.10, &c(10.0, None), &c(5.0, None)).1, Verdict::Ok);
    }

    #[test]
    fn wide_repetition_spread_is_unresolved_not_ok() {
        let lat = def("batch_p50_ms").unwrap();
        let (share, v) = judge(lat, 0.10, &c(10.0, Some(0.02)), &c(10.5, Some(0.30)));
        assert!((share - 0.05).abs() < 1e-12);
        assert_eq!(v, Verdict::Unresolved);
        // A regression stays a regression however noisy the sides are.
        assert_eq!(judge(lat, 0.10, &c(10.0, Some(0.3)), &c(12.0, None)).1, Verdict::Regressed);
    }

    #[test]
    fn absolute_slack_covers_small_baselines() {
        let setup = def("setup_s").unwrap();
        // 80 ms -> 120 ms is +50 %, but inside "20 % or 0.25 s"...
        assert_eq!(judge(setup, 0.20, &c(0.08, Some(0.4)), &c(0.12, None)).1, Verdict::Ok);
        // ...and 2 s -> 2.5 s is outside both.
        assert_eq!(judge(setup, 0.20, &c(2.0, None), &c(2.5, None)).1, Verdict::Regressed);
    }

    /// A result file with one workload holding the given metrics.
    fn doc(failed_runs: u32, metrics: &[(&str, f64)]) -> Json {
        let cells: Vec<String> = metrics
            .iter()
            .map(|(n, v)| format!("\"{n}\": {{\"value\": {v}, \"spread\": null}}"))
            .collect();
        let text = format!(
            "{{\"workloads\": {{\"ingest_bulk\": {{\"input_hash\": \"0x1\", \"failed_runs\": \
             {failed_runs}, \"metrics\": {{{}}}}}}}}}",
            cells.join(", ")
        );
        parse(&text).expect("test document parses")
    }

    #[test]
    fn what_the_candidate_lacks_is_a_regression() {
        let full = [("muts_per_s", 100.0), ("sim_cycles", 7.0), ("fail_frac", 0.0)];
        let base = doc(0, &full);
        assert_eq!(judge_docs(&base, &doc(0, &full)), (0, 0));
        // A child that crashed before printing: no metrics, failed runs.
        assert_eq!(judge_docs(&base, &doc(3, &[])), (4, 0));
        // One metric dropped, the others unchanged.
        assert_eq!(judge_docs(&base, &doc(0, &full[..2])), (1, 0));
        // A failed run on the baseline side poisons the comparison too.
        assert_eq!(judge_docs(&doc(1, &full), &doc(0, &full)), (1, 0));
        // The whole workload missing from the candidate.
        let empty = parse("{\"workloads\": {}}").unwrap();
        assert_eq!(judge_docs(&base, &empty), (1, 0));
        // A changed count, and other inputs altogether.
        assert_eq!(judge_docs(&base, &doc(0, &[full[0], ("sim_cycles", 8.0), full[2]])), (1, 0));
        let other = parse(
            "{\"workloads\": {\"ingest_bulk\": {\"input_hash\": \"0x2\", \"failed_runs\": 0, \
             \"metrics\": {\"muts_per_s\": {\"value\": 50, \"spread\": null}}}}}",
        )
        .unwrap();
        assert_eq!(judge_docs(&base, &other), (2, 1), "two missing, one unresolved");
    }

    #[test]
    fn zero_bound_flags_any_worsening() {
        let fail = def("fail_frac").unwrap();
        assert_eq!(judge(fail, 0.0, &c(0.0, None), &c(0.0, None)).1, Verdict::Ok);
        assert_eq!(judge(fail, 0.0, &c(0.0, None), &c(0.01, None)).1, Verdict::Regressed);
    }
}
