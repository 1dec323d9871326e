//! The benchmark's metric catalogue: every name, unit, direction, bound and
//! exactness flag in one place. `BENCHMARK.json` is kept by hand to mirror
//! the two lists the driver reads (a unit test pins that), `compare` applies
//! the bounds, and [`Metrics::set`] refuses names that are not defined here.

use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline by which the metric may worsen before
    /// `compare` calls it a regression (end-to-end metrics only). `compare`
    /// judges two runs of the *same inputs*, so these are the issue's tight
    /// bounds, not the driver's.
    pub bound: Option<f64>,
    /// Worsening, in the metric's unit, that `compare` lets pass whatever
    /// share of the baseline it is (`setup_s`: "20 % or 0.25 s").
    pub slack: f64,
    /// A count that must repeat exactly between two runs of one seed.
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound), slack: 0.0, exact: false }
}

const fn timing(name: &'static str, unit: &'static str) -> MetricDef {
    ratio(name, unit, Better::Lower)
}

const fn count(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { exact: true, ..ratio(name, unit, Better::Lower) }
}

const fn ratio(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None, slack: 0.0, exact: false }
}

use Better::{Higher, Lower};

/// End-to-end metrics defined on every workload: `BENCHMARK.json`'s
/// `end_to_end` list, printed by `--trace 0`. The bounds `BENCHMARK.json`
/// gives the driver are looser than these (25 % on timings, 20 % on memory):
/// the driver judges runs of *different* seeds, so its bounds are sized for
/// what ten seeds on a shared 2-core sandbox spread (README, "How the
/// timings are made steady") — up to 11 % from the inputs alone on
/// `churn_window`, on top of a box that drifts by 10 %.
pub const GATED: [MetricDef; 4] = [
    MetricDef { slack: 0.25, ..e2e("setup_s", "s", Lower, 0.20) },
    e2e("muts_per_s", "1/s", Higher, 0.10),
    e2e("batch_p50_ms", "ms", Lower, 0.10),
    // Two sets of runs of one binary differ by 1–2 MB of allocator and
    // thread-stack residue, which is 5 % of the smallest workload.
    MetricDef { slack: 2.0, ..e2e("peak_rss_mb", "MB", Lower, 0.05) },
];

/// End-to-end metrics that exist on some workloads only (or, for
/// `fail_frac`, are zero when all is well). The driver's contract wants
/// every `end_to_end` metric on every workload and never zero, so these
/// ride in its `per_layer` list, measured in the traced run's *untraced*
/// pass; `run` and `compare` still treat them as end-to-end, with these
/// bounds.
pub const EXTRA: [MetricDef; 8] = [
    e2e("batch_p99_ms", "ms", Lower, 0.15),
    MetricDef { exact: true, ..e2e("sim_cycles", "cycles", Lower, 0.0) },
    e2e("checkpoint_ms", "ms", Lower, 0.15),
    e2e("recovery_s", "s", Lower, 0.10),
    e2e("delta_lag_p50_ms", "ms", Lower, 0.10),
    e2e("delta_lag_p99_ms", "ms", Lower, 0.15),
    e2e("fail_frac", "ratio", Lower, 0.0),
    ratio("unaccounted_frac", "ratio", Lower),
];

/// Per-layer metrics, named by crate/module.
pub const LAYER: [MetricDef; 79] = [
    // amcca-sim + diffusive
    count("chip.cycles", "cycles"),
    count("chip.instrs", "count"),
    count("chip.hops", "count"),
    count("chip.msgs_delivered", "count"),
    count("chip.allocs", "count"),
    count("chip.alloc_retries", "count"),
    count("chip.stage_stalls", "count"),
    count("chip.net_stalls", "count"),
    count("chip.deliver_stalls", "count"),
    count("chip.energy_uj", "uJ"),
    MetricDef { exact: true, ..ratio("chip.ipc", "instr/cycle", Higher) },
    timing("chip.fabric_s", "s"),
    timing("chip.host_ns_per_cycle", "ns/cycle"),
    timing("chip.host_ns_per_instr", "ns/instr"),
    count("chip.sharded_cycles", "cycles"),
    MetricDef { exact: true, ..ratio("chip.sharded_frac", "ratio", Higher) },
    count("chip.steal_rows", "count"),
    MetricDef { exact: true, ..ratio("chip.exec_imbalance", "ratio", Lower) },
    MetricDef { exact: true, ..ratio("chip.band_imbalance", "ratio", Lower) },
    ratio("chip.shard_speedup", "ratio", Higher),
    // sdgp_core
    timing("core.increment_s", "s"),
    timing("core.host_s", "s"),
    ratio("core.host_share", "ratio", Lower),
    ratio("core.repair_share", "ratio", Lower),
    count("core.reseed_triggers", "count"),
    count("core.repair_cycles", "cycles"),
    count("core.repair_instrs", "count"),
    count("core.promotions", "count"),
    count("core.demotions", "count"),
    count("core.live_edges", "count"),
    timing("mutlog.validate_us_p50", "us"),
    timing("mutlog.drain_us_p50", "us"),
    timing("codec.encode_ns_per_mut", "ns/mut"),
    timing("codec.decode_ns_per_mut", "ns/mut"),
    timing("checkpoint.capture_ms", "ms"),
    timing("checkpoint.encode_ms", "ms"),
    timing("checkpoint.decode_ms", "ms"),
    timing("checkpoint.restore_s", "s"),
    count("checkpoint.bytes_per_edge", "B/edge"),
    timing("query.repair_s", "s"),
    count("query.repair_cycles", "cycles"),
    count("query.delta_vertices", "count"),
    timing("query.results_us_p50", "us"),
    // amcca-serve
    timing("proto.encode_ns_per_mut", "ns/mut"),
    timing("proto.decode_ns_per_mut", "ns/mut"),
    count("proto.frame_bytes_per_mut", "B/mut"),
    timing("admission.decide_ns", "ns"),
    timing("wal.append_us_p50", "us"),
    timing("wal.append_us_p99", "us"),
    count("wal.bytes_per_mut", "B/mut"),
    count("wal.appends", "count"),
    timing("wal.load_tail_ms", "ms"),
    timing("wal.checkpoint_write_ms", "ms"),
    timing("serve.submit_us_p50", "us"),
    timing("serve.flush_us_p50", "us"),
    timing("serve.transport_us_p50", "us"),
    timing("serve.rtt_floor_us_p50", "us"),
    ratio("serve.increments", "count", Lower),
    ratio("serve.coalesce_ratio", "ratio", Higher),
    ratio("serve.admission_retries", "count", Lower),
    ratio("serve.rejected", "count", Lower),
    count("subs.delta_frames", "count"),
    count("subs.resyncs", "count"),
    timing("subs.push_after_ack_us_p50", "us"),
    // amcca-obs
    ratio("obs.overhead_frac", "ratio", Lower),
    // gc_datasets / refgraph
    timing("datasets.generate_s", "s"),
    timing("oracle.verify_s", "s"),
    // Sample counts behind the timings above (stated, not compared).
    ratio("samples.batch", "count", Higher),
    ratio("samples.delta_lag", "count", Higher),
    ratio("samples.checkpoint", "count", Higher),
    ratio("samples.mutlog", "count", Higher),
    ratio("samples.wal_append", "count", Higher),
    ratio("samples.serve_submit", "count", Higher),
    ratio("samples.rtt_floor", "count", Higher),
    ratio("samples.query_results", "count", Higher),
    // The percentile `batch_p99_ms` / `delta_lag_p99_ms` / `wal.append_us_p99`
    // actually report: the highest with ten samples beyond it, 99 at most.
    ratio("tail.batch_pct", "pct", Higher),
    ratio("tail.delta_lag_pct", "pct", Higher),
    ratio("tail.wal_append_pct", "pct", Higher),
    // Harness context every result depends on.
    ratio("env.nproc", "count", Higher),
];

/// The definition of `name` in any of the three lists.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    GATED.iter().chain(&EXTRA).chain(&LAYER).find(|d| d.name == name)
}

/// Everything `--trace 1` prints: per-layer metrics plus the end-to-end
/// extras, in `BENCHMARK.json` order.
pub fn traced_defs() -> impl Iterator<Item = &'static MetricDef> {
    EXTRA.iter().chain(&LAYER)
}

/// Whether `workload` reports `metric` at all — the issue's "reported on"
/// column. A traced run must measure every metric its workload reports;
/// the rest go into the driver's JSON as 0 (it wants every listed key on
/// every workload) and nowhere else.
pub fn reported_on(metric: &str, workload: &str) -> bool {
    let serve = matches!(workload, "serve_trickle" | "query_fanout");
    match metric {
        // Coalescing makes the server's increments timing-dependent there.
        "sim_cycles" => workload != "serve_trickle",
        "checkpoint_ms" | "recovery_s" | "samples.checkpoint" => workload == "serve_trickle",
        "delta_lag_p50_ms"
        | "delta_lag_p99_ms"
        | "tail.delta_lag_pct"
        | "samples.delta_lag"
        | "query.delta_vertices"
        | "query.results_us_p50"
        | "samples.query_results" => workload == "query_fanout",
        m if m.starts_with("subs.") => workload == "query_fanout",
        "samples.serve_submit" | "samples.rtt_floor" => serve,
        m if m.starts_with("serve.") => serve,
        // The server hands no `RunReport` out.
        "core.repair_instrs" => !serve,
        // One more full pass at 1 M live edges (`RESTORE_CAP`).
        "checkpoint.restore_s" => !matches!(workload, "ingest_bulk" | "skew_sharded"),
        // The drain leaves no edge to divide by.
        "checkpoint.bytes_per_edge" => workload != "churn_window",
        _ => true,
    }
}

/// Measured values by metric name.
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record a value; the name must be in the catalogue and the value a
    /// number (a NaN here is a harness bug, never a measurement).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(def(name).is_some(), "metric {name} is not in the catalogue");
        assert!(value.is_finite(), "metric {name} measured {value}");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amcca_obs::json::{parse, Json};

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in GATED.iter().chain(&EXTRA).chain(&LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
            assert!(d.name.chars().all(ok), "{}", d.name);
            let ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(d.unit.chars().all(ok), "{}: unit {}", d.name, d.unit);
        }
        assert!(1 + EXTRA.len() + LAYER.len() <= 128);
    }

    fn spec_list(spec: &Json, key: &str) -> Vec<(String, String, Better, Option<f64>)> {
        let Some(Json::Arr(items)) = spec.get(key) else { panic!("{key} missing") };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                let better = match s("better").as_str() {
                    "lower" => Lower,
                    "higher" => Higher,
                    other => panic!("better: {other}"),
                };
                (s("name"), s("unit"), better, m.get("bound").and_then(Json::as_num))
            })
            .collect()
    }

    /// `BENCHMARK.json` at the repo root lists exactly this catalogue, and
    /// gives the driver no bound tighter than `compare`'s own.
    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("json");
        let check = |key: &str, defs: Vec<&MetricDef>, bounded: bool| {
            let listed = spec_list(&spec, key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for ((name, unit, better, bound), d) in listed.into_iter().zip(defs) {
                assert_eq!((name.as_str(), unit.as_str(), better), (d.name, d.unit, d.better));
                match bound {
                    Some(b) => assert!(bounded && d.bound.unwrap() <= b && b <= 0.25, "{name}"),
                    None => assert!(!bounded, "{name} has no bound"),
                }
            }
        };
        check("end_to_end", GATED.iter().collect(), true);
        check("per_layer", traced_defs().collect(), false);
        let Some(Json::Arr(workloads)) = spec.get("workloads") else { panic!("workloads") };
        let names: Vec<&str> =
            workloads.iter().map(|w| w.get("name").and_then(Json::as_str).unwrap()).collect();
        assert_eq!(names, crate::WORKLOADS.map(|w| w.name));
    }
}
