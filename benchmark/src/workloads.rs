//! The five workloads: what each fixes, and how a `--trace 0` (end-to-end)
//! and a `--trace 1` (per-layer) run of each is put together from the
//! passes in [`crate::direct`], [`crate::serve`] and [`crate::layers`].

use std::io;
use std::path::PathBuf;
use std::time::Instant;

use amcca_obs::{MetricsSnapshot, Obs};
use amcca_sim::max_mean_ratio;
use sdgp_core::RpvoConfig;

use crate::direct::{self, DirectConfig, Graph, PassOut, Totals};
use crate::inputs::{self, scaled, Batch, DirectInputs};
use crate::layers;
use crate::metrics::{reported_on, Metrics};
use crate::serve::{self, DriveOut, Running, ServeOut};
use crate::span::{self, self_time_of, total_of, SpanRec, Tracer};
use crate::stats::{fastest_per_unit, median, median_ratio, percentile, pick_percentile, sorted};

pub struct Workload {
    pub name: &'static str,
    /// One line: which layers this workload is there to stress.
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "ingest_bulk",
        why: "the paper's experiment: 1M SBM inserts in 100K batches, so the chip cycle loop and \
              ACT_INSERT/ACT_RELAX do nearly all the work; no deletes, WAL or sockets",
    },
    Workload {
        name: "skew_sharded",
        why: "RMAT hubs on ChipConfig::default() shards with stealing and rhizomes: the only \
              workload running parallel.rs/shard.rs barriers, outboxes, steals and promote",
    },
    Workload {
        name: "churn_window",
        why: "sliding-window deletes and re-weights force the two-phase path: retract cascade, \
              repair frontier, reseed wave, ledger, promotion/demotion patch passes dominate",
    },
    Workload {
        name: "serve_trickle",
        why: "32-insert batches from 2 closed-loop clients on a 100K-edge resident graph: codec, \
              admission, validate-clone, WAL fsync and fixed per-increment cost dominate",
    },
    Workload {
        name: "query_fanout",
        why: "labelled churn under a 4-query panel with a push subscriber: the only workload \
              running ACT_QUERY, repair_queries, delta diffs, the pusher and server-side deletes",
    },
];

/// One invocation: a workload, a seed, a measuring time, traced or not.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one invocation produced.
pub struct Outcome {
    pub metrics: Metrics,
    /// Batches, submissions and oracle checks made...
    pub attempted: u64,
    /// ...and how many of them failed.
    pub failed: u64,
    pub input_hash: u64,
    pub shards: usize,
}

/// Fewest timed passes of a direct workload: each batch is taken at the
/// fastest it ran in any of them.
const PASSES: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The load generator may use at most `nproc` submitting connections.
fn assert_generators(connections: usize) {
    assert!(connections <= nproc(), "{connections} generator connections exceed nproc");
}

/// Where scratch stores, traces and `results.json` go: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn scratch(tag: &str) -> PathBuf {
    out_dir().join(format!("store_{tag}_{}", std::process::id()))
}

/// Peak resident set of this process, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one workload as the driver asks for it.
pub fn run_one(args: &RunArgs) -> io::Result<Outcome> {
    std::fs::create_dir_all(out_dir())?;
    let s = args.seconds;
    let rhizomes = RpvoConfig::default().with_rhizomes(64, 4);
    match args.workload.as_str() {
        "ingest_bulk" => {
            let cfg = DirectConfig { rpvo: RpvoConfig::default(), shards: 1 };
            run_direct(args, cfg, scaled(3, PASSES, s, 25.0), &|| inputs::ingest_bulk(args.seed))
        }
        "skew_sharded" => {
            let cfg = DirectConfig { rpvo: rhizomes, shards: nproc().min(4) };
            run_direct(args, cfg, PASSES, &|| inputs::skew_sharded(args.seed))
        }
        "churn_window" => {
            let cfg = DirectConfig { rpvo: rhizomes, shards: 1 };
            run_direct(args, cfg, PASSES, &|| inputs::churn_window(args.seed, s))
        }
        "serve_trickle" => run_trickle(args),
        "query_fanout" => run_fanout(args),
        other => Err(io::Error::other(format!("unknown workload {other}"))),
    }
}

fn new_outcome(input_hash: u64, shards: usize) -> Outcome {
    let mut metrics = Metrics::default();
    metrics.set("env.nproc", nproc() as f64);
    Outcome { metrics, attempted: 0, failed: 0, input_hash, shards }
}

/// The highest percentile the sample supports, 99 at most, and its value.
fn tail_of(samples: &[f64]) -> (f64, f64) {
    let s = sorted(samples.to_vec());
    let pct = pick_percentile(s.len()).min(99.0);
    (pct, percentile(&s, pct))
}

/// Throughput and per-batch latency of a timed region.
fn set_batch_metrics(m: &mut Metrics, muts_per_s: f64, batch_ms: &[f64]) {
    let (pct, tail) = tail_of(batch_ms);
    m.set("muts_per_s", muts_per_s);
    m.set("batch_p50_ms", median(batch_ms));
    m.set("batch_p99_ms", tail);
    m.set("tail.batch_pct", pct);
    m.set("samples.batch", batch_ms.len() as f64);
}

fn set_fail_frac(o: &mut Outcome) {
    o.metrics.set("fail_frac", o.failed as f64 / o.attempted.max(1) as f64);
}

// ---------------------------------------------------------------------
// Direct workloads
// ---------------------------------------------------------------------

fn build(inputs: &DirectInputs, cfg: DirectConfig, obs: &Obs) -> io::Result<Graph> {
    direct::builder(inputs.n_vertices, cfg, obs)
        .build()
        .map_err(|e| io::Error::other(format!("graph construction failed: {e:?}")))
}

fn run_direct(
    args: &RunArgs,
    cfg: DirectConfig,
    reps: usize,
    generate: &dyn Fn() -> DirectInputs,
) -> io::Result<Outcome> {
    if args.trace {
        return trace_direct(args, cfg, generate);
    }
    // Every repetition sets up from scratch — generate, build — and streams
    // into the fresh graph; set-ups beyond the repetitions are only timed.
    let (mut setups, mut per_rep, mut muts) = (Vec::new(), Vec::new(), 0);
    let mut outcome = None;
    let mut cycles: Option<u64> = None;
    for rep in 0..reps.max(SETUP_REPS) {
        let t = Instant::now();
        let inputs = generate();
        let mut g = build(&inputs, cfg, &Obs::disabled())?;
        setups.push(t.elapsed().as_secs_f64());
        if rep >= reps {
            continue;
        }
        let o = outcome.get_or_insert_with(|| new_outcome(inputs.hash, cfg.shards));
        let out = direct::pass(&mut g, &inputs, &Tracer::disabled());
        o.attempted += out.attempted;
        o.failed += out.failed;
        // One more check: the paper's currency must repeat exactly,
        // repetition to repetition.
        o.attempted += 1;
        if *cycles.get_or_insert(out.totals.cycles) != out.totals.cycles {
            eprintln!("sim_cycles differ between repetitions of one seed");
            o.failed += 1;
        }
        muts = out.muts;
        per_rep.push(out.batch_ms);
    }
    let mut o = outcome.expect("at least one repetition");
    o.metrics.set("setup_s", median(&setups));
    // Each batch at the fastest it ran in any repetition; the timed region
    // is their sum (the harness adds ~1e-5 of it, see `unaccounted_frac`).
    let batch_ms = fastest_per_unit(&per_rep);
    set_batch_metrics(
        &mut o.metrics,
        muts as f64 / (batch_ms.iter().sum::<f64>() / 1e3),
        &batch_ms,
    );
    o.metrics.set("sim_cycles", cycles.unwrap_or(0) as f64);
    o.metrics.set("peak_rss_mb", peak_rss_mb());
    set_fail_frac(&mut o);
    Ok(o)
}

fn hist_sum(snap: &MetricsSnapshot, name: &str) -> f64 {
    snap.hist(name).map_or(0.0, |h| h.sum as f64)
}

/// Seconds inside `Device::run`: the sum of the fabric-phase spans the core
/// already records.
fn fabric_s(snap: &MetricsSnapshot) -> f64 {
    ["structural", "repair", "demote_merge", "query_repair"]
        .iter()
        .map(|p| hist_sum(snap, &format!("span.{p}_ns")))
        .sum::<f64>()
        / 1e9
}

/// `chip.*` and `core.*` metrics of one traced pass: exact counts from the
/// summed reports, wall time split into fabric and host by the span sums.
fn set_chip_and_core(
    m: &mut Metrics,
    t: &Totals,
    increment_s: f64,
    snap: &MetricsSnapshot,
    g: &Graph,
) {
    let c = &t.counters;
    m.set("chip.cycles", t.cycles as f64);
    m.set("chip.instrs", c.instrs as f64);
    m.set("chip.hops", c.hops as f64);
    m.set("chip.msgs_delivered", c.msgs_delivered as f64);
    m.set("chip.allocs", c.allocs as f64);
    m.set("chip.alloc_retries", c.alloc_retries as f64);
    m.set("chip.stage_stalls", c.stage_stalls as f64);
    m.set("chip.net_stalls", c.net_stalls as f64);
    m.set("chip.deliver_stalls", c.deliver_stalls as f64);
    m.set("chip.energy_uj", t.energy_uj);
    m.set("chip.ipc", c.instrs as f64 / t.cycles.max(1) as f64);
    let fabric = fabric_s(snap);
    m.set("chip.fabric_s", fabric);
    m.set("chip.host_ns_per_cycle", fabric * 1e9 / t.cycles.max(1) as f64);
    m.set("chip.host_ns_per_instr", fabric * 1e9 / c.instrs.max(1) as f64);
    let chip = g.device().chip();
    m.set("chip.sharded_cycles", chip.sharded_cycles() as f64);
    m.set("chip.sharded_frac", chip.sharded_cycles() as f64 / chip.cycle().max(1) as f64);
    m.set("chip.steal_rows", chip.steal_rows() as f64);
    m.set("chip.exec_imbalance", max_mean_ratio(chip.exec_active()));
    m.set("chip.band_imbalance", max_mean_ratio(chip.band_active()));

    m.set("core.increment_s", increment_s);
    m.set("core.host_s", increment_s - fabric);
    m.set("core.host_share", (increment_s - fabric) / increment_s);
    m.set("core.repair_share", hist_sum(snap, "span.repair_ns") / 1e9 / increment_s);
    m.set("core.reseed_triggers", t.reseed_triggers as f64);
    m.set("core.repair_cycles", t.repair_cycles as f64);
    m.set("core.repair_instrs", t.repair_instrs as f64);
    m.set("core.promotions", g.rhizome_stats().0 as f64);
    m.set("core.demotions", g.demotion_count() as f64);
    m.set("core.live_edges", g.live_edge_count() as f64);
    m.set("query.repair_s", hist_sum(snap, "span.query_repair_ns") / 1e9);
    m.set("query.repair_cycles", snap.counter("query.repair_cycles") as f64);
}

fn write_trace(workload: &str, spans: &[SpanRec]) -> io::Result<()> {
    span::write_jsonl(&out_dir().join(format!("trace_{workload}.jsonl")), spans)
}

fn trace_direct(
    args: &RunArgs,
    cfg: DirectConfig,
    generate: &dyn Fn() -> DirectInputs,
) -> io::Result<Outcome> {
    let t = Instant::now();
    let inputs = generate();
    let generate_s = t.elapsed().as_secs_f64();
    let mut o = new_outcome(inputs.hash, cfg.shards);
    let run = |cfg: DirectConfig, obs: &Obs, tracer: &Tracer| -> io::Result<(Graph, PassOut)> {
        let mut g = build(&inputs, cfg, obs)?;
        let out = direct::pass(&mut g, &inputs, tracer);
        Ok((g, out))
    };

    // Untraced pass: the end-to-end extras and the overhead baseline.
    let (g, plain) = run(cfg, &Obs::disabled(), &Tracer::disabled())?;
    drop(g);
    set_batch_metrics(&mut o.metrics, plain.muts as f64 / plain.wall_s, &plain.batch_ms);
    o.metrics.set("sim_cycles", plain.totals.cycles as f64);
    o.attempted += plain.attempted;
    o.failed += plain.failed;

    // Traced pass: `Obs` on the builder, a harness span around every call.
    let (obs, tracer) = (Obs::enabled(), Tracer::enabled());
    let (g, traced) = run(cfg, &obs, &tracer)?;
    let snap = obs.snapshot();
    o.failed += traced.failed;
    o.attempted += traced.attempted + 1;
    if traced.totals != plain.totals {
        eprintln!("traced and untraced passes disagree on the exact counts");
        o.failed += 1;
    }
    let spans = tracer.spans();
    let m = &mut o.metrics;
    m.set("obs.overhead_frac", median_ratio(&plain.batch_ms, &traced.batch_ms) - 1.0);
    m.set("unaccounted_frac", self_time_of(&spans, "harness.pass") as f64 / 1e9 / traced.wall_s);
    m.set("datasets.generate_s", generate_s);
    m.set("oracle.verify_s", traced.verify_s);
    let increment_s = total_of(&spans, "core.stream_increment") as f64 / 1e9;
    set_chip_and_core(m, &traced.totals, increment_s, &snap, &g);

    // One extra pass on the sequential engine prices the shards.
    let speedup = if cfg.shards > 1 {
        let sequential = DirectConfig { shards: 1, ..cfg };
        let (_, seq) = run(sequential, &Obs::disabled(), &Tracer::disabled())?;
        median_ratio(&plain.batch_ms, &seq.batch_ms)
    } else {
        1.0
    };
    m.set("chip.shard_speedup", speedup);

    let store = scratch(&args.workload);
    layers::replay_pipeline(&tracer, &[], &inputs.batches, &store, m)?;
    // A restore re-streams every live edge: at 1 M edges, one more full pass.
    let restore = reported_on("checkpoint.restore_s", &args.workload)
        .then(|| direct::builder(inputs.n_vertices, cfg, &Obs::disabled()));
    layers::checkpoint_stages(&tracer, &g, restore, &store, m)?;
    set_fail_frac(&mut o);
    write_trace(&args.workload, &tracer.spans())?;
    Ok(o)
}

// ---------------------------------------------------------------------
// Serve workloads
// ---------------------------------------------------------------------

/// End-to-end metrics of a serve pass, common to both serve workloads.
fn set_serve_e2e(o: &mut Outcome, out: &ServeOut) {
    set_batch_metrics(&mut o.metrics, out.muts_per_s, &out.rtt_ms);
    o.attempted += out.attempted;
    o.failed += out.failed;
}

/// One timed set-up of a serve workload: generate, boot, prepare.
fn timed_setup<I>(
    generate: &impl Fn() -> I,
    setup: &impl Fn(&I) -> io::Result<Running>,
) -> io::Result<(f64, I, Running)> {
    let t = Instant::now();
    let inputs = generate();
    let running = setup(&inputs)?;
    Ok((t.elapsed().as_secs_f64(), inputs, running))
}

/// `setup_s` of a serve run: the median of the measured server's own set-up
/// and `SETUP_REPS - 1` more, made only to be timed and discarded. They come
/// after the pass and after `peak_rss_mb` is read: what discarded servers
/// leave behind in the allocator differs from run to run.
fn setup_median<I>(
    first: f64,
    generate: &impl Fn() -> I,
    setup: &impl Fn(&I) -> io::Result<Running>,
) -> io::Result<f64> {
    let mut setups = vec![first];
    for _ in 1..SETUP_REPS {
        let (s, _, running) = timed_setup(generate, setup)?;
        running.discard()?;
        setups.push(s);
    }
    Ok(median(&setups))
}

/// `serve.*` metrics: the untraced pass's round trips against the direct
/// drive's socket-free submit + flush.
fn set_serve_layers(m: &mut Metrics, out: &ServeOut, drive: &DriveOut, extra_increments: usize) {
    let (submit, flush) = (median(&drive.submit_us), median(&drive.flush_us));
    let rtt_p50_us = median(&out.rtt_ms) * 1e3;
    m.set("serve.submit_us_p50", submit);
    m.set("serve.flush_us_p50", flush);
    m.set("serve.transport_us_p50", rtt_p50_us - (submit + flush));
    m.set("serve.rtt_floor_us_p50", median(&out.rtt_floor_us));
    m.set("samples.serve_submit", drive.submit_us.len() as f64);
    m.set("samples.rtt_floor", out.rtt_floor_us.len() as f64);
    let increments = out.stats.batches.saturating_sub(extra_increments as u64);
    m.set("serve.increments", increments as f64);
    m.set("serve.coalesce_ratio", out.acked as f64 / increments.max(1) as f64);
    m.set("serve.admission_retries", out.retries as f64);
    m.set("serve.rejected", out.stats.rejected as f64);
}

/// Chip, core and isolated-layer metrics of a serve workload, all taken
/// from a deterministic in-process replay of the same batches.
fn set_drive_layers(
    o: &mut Outcome,
    tracer: &Tracer,
    n_vertices: u32,
    resident: &[Batch],
    batches: &[Batch],
    queries: bool,
) -> io::Result<DriveOut> {
    let workload_store = scratch("drive");
    let obs = Obs::enabled();
    let drive =
        serve::direct_drive(n_vertices, resident, batches, queries, &workload_store, &obs, tracer)?;
    let snap = obs.snapshot();
    let mut totals = drive.totals;
    // The core hands no `RunReport` out; the repair tallies come from the
    // counters the graph folds into `Obs` (set-up included: it repairs
    // nothing, inserts only).
    totals.reseed_triggers = snap.counter("graph.reseed_triggers");
    totals.repair_cycles = snap.counter("graph.repair_cycles");
    let spans = tracer.spans();
    // A flush is WAL append + increment; what is left after the append span
    // is `stream_increment` (set-up appends are in the histogram too, so
    // scale the sum to the driven batches).
    let appends = snap.hist("span.wal_append_ns").map_or(0, |h| h.count).max(1) as f64;
    let wal_s = hist_sum(&snap, "span.wal_append_ns") / 1e9 * batches.len() as f64 / appends;
    let increment_s = total_of(&spans, "serve.core_flush") as f64 / 1e9 - wal_s;
    let m = &mut o.metrics;
    set_chip_and_core(m, &totals, increment_s, &snap, drive.core.graph());
    if queries {
        m.set("query.delta_vertices", drive.delta_vertices as f64);
        m.set("query.results_us_p50", median(&drive.results_us));
        m.set("samples.query_results", drive.results_us.len() as f64);
    }
    m.set("chip.shard_speedup", 1.0);
    let store = scratch("layers");
    layers::replay_pipeline(tracer, resident, batches, &store, m)?;
    let restore = serve::builder(n_vertices, &Obs::disabled());
    layers::checkpoint_stages(tracer, drive.core.graph(), Some(restore), &store, m)?;
    std::fs::remove_dir_all(workload_store)?;
    Ok(drive)
}

/// Share of the clients' timed passes not inside a submit round trip.
fn client_unaccounted(spans: &[SpanRec]) -> f64 {
    self_time_of(spans, "harness.client_pass") as f64
        / total_of(spans, "harness.client_pass").max(1) as f64
}

fn run_trickle(args: &RunArgs) -> io::Result<Outcome> {
    let clients = nproc().min(2);
    assert_generators(clients);
    let store = scratch(&args.workload);
    let generate = || inputs::serve_trickle(args.seed, args.seconds, clients);
    let set_extras = |m: &mut Metrics, out: &ServeOut| {
        m.set("checkpoint_ms", median(&out.checkpoint_ms));
        m.set("samples.checkpoint", out.checkpoint_ms.len() as f64);
        m.set("recovery_s", out.recovery_s);
    };

    if !args.trace {
        let setup = |i: &_| serve::trickle_setup(i, &store, &Obs::disabled());
        let (first, inputs, running) = timed_setup(&generate, &setup)?;
        let out = serve::trickle_pass(running, &inputs, &Obs::disabled(), &Tracer::disabled())?;
        let mut o = new_outcome(inputs.hash, 1);
        o.metrics.set("peak_rss_mb", peak_rss_mb());
        o.metrics.set("setup_s", setup_median(first, &generate, &setup)?);
        set_serve_e2e(&mut o, &out);
        set_extras(&mut o.metrics, &out);
        set_fail_frac(&mut o);
        return Ok(o);
    }

    let t = Instant::now();
    let inputs = generate();
    let generate_s = t.elapsed().as_secs_f64();
    let mut o = new_outcome(inputs.hash, 1);
    let running = serve::trickle_setup(&inputs, &store, &Obs::disabled())?;
    let plain = serve::trickle_pass(running, &inputs, &Obs::disabled(), &Tracer::disabled())?;
    set_serve_e2e(&mut o, &plain);
    set_extras(&mut o.metrics, &plain);

    let (obs, tracer) = (Obs::enabled(), Tracer::enabled());
    let running = serve::trickle_setup(&inputs, &store, &obs)?;
    let traced = serve::trickle_pass(running, &inputs, &obs, &tracer)?;
    o.attempted += traced.attempted;
    o.failed += traced.failed;
    let m = &mut o.metrics;
    m.set("obs.overhead_frac", median_ratio(&plain.rtt_ms, &traced.rtt_ms) - 1.0);
    m.set("unaccounted_frac", client_unaccounted(&tracer.spans()));
    m.set("datasets.generate_s", generate_s);
    m.set("oracle.verify_s", traced.verify_s);

    // The clients' batches interleaved round-robin: one deterministic order
    // for the exact counts, whatever order the sockets delivered.
    let longest = inputs.clients.iter().map(Vec::len).max().unwrap_or(0);
    let interleaved: Vec<Batch> = (0..longest)
        .flat_map(|i| inputs.clients.iter().filter_map(move |c| c.get(i).cloned()))
        .collect();
    let drive =
        set_drive_layers(&mut o, &tracer, inputs.n_vertices, &inputs.preload, &interleaved, false)?;
    let extra = inputs.preload.len() + inputs.tail.len();
    set_serve_layers(&mut o.metrics, &plain, &drive, extra);
    set_fail_frac(&mut o);
    write_trace(&args.workload, &tracer.spans())?;
    Ok(o)
}

fn run_fanout(args: &RunArgs) -> io::Result<Outcome> {
    // One submitter generates the load; the subscriber only listens.
    assert_generators(1);
    let store = scratch(&args.workload);
    let generate = || inputs::query_fanout(args.seed, args.seconds);
    let set_extras = |m: &mut Metrics, out: &ServeOut| {
        let (pct, tail) = tail_of(&out.delta_lag_ms);
        m.set("delta_lag_p50_ms", median(&out.delta_lag_ms));
        m.set("delta_lag_p99_ms", tail);
        m.set("tail.delta_lag_pct", pct);
        m.set("samples.delta_lag", out.delta_lag_ms.len() as f64);
    };

    if !args.trace {
        let setup = |i: &_| serve::fanout_setup(i, &store, &Obs::disabled());
        let (first, inputs, running) = timed_setup(&generate, &setup)?;
        let out = serve::fanout_pass(running, &inputs, &Tracer::disabled())?;
        let mut o = new_outcome(inputs.hash, 1);
        o.metrics.set("peak_rss_mb", peak_rss_mb());
        o.metrics.set("setup_s", setup_median(first, &generate, &setup)?);
        set_serve_e2e(&mut o, &out);
        set_extras(&mut o.metrics, &out);
        set_fail_frac(&mut o);
        return Ok(o);
    }

    let t = Instant::now();
    let inputs = generate();
    let generate_s = t.elapsed().as_secs_f64();
    let mut o = new_outcome(inputs.hash, 1);
    let running = serve::fanout_setup(&inputs, &store, &Obs::disabled())?;
    let plain = serve::fanout_pass(running, &inputs, &Tracer::disabled())?;
    set_serve_e2e(&mut o, &plain);
    set_extras(&mut o.metrics, &plain);

    let (obs, tracer) = (Obs::enabled(), Tracer::enabled());
    let running = serve::fanout_setup(&inputs, &store, &obs)?;
    let traced = serve::fanout_pass(running, &inputs, &tracer)?;
    let snap = obs.snapshot();
    o.attempted += traced.attempted;
    o.failed += traced.failed;
    let m = &mut o.metrics;
    m.set("obs.overhead_frac", median_ratio(&plain.rtt_ms, &traced.rtt_ms) - 1.0);
    m.set("unaccounted_frac", client_unaccounted(&tracer.spans()));
    m.set("datasets.generate_s", generate_s);
    m.set("oracle.verify_s", traced.verify_s);
    m.set("subs.delta_frames", snap.counter("subscriptions.delta_frames") as f64);
    m.set("subs.resyncs", snap.counter("subscriptions.resyncs") as f64);
    m.set("subs.push_after_ack_us_p50", median(&plain.push_after_ack_us));
    o.attempted += 1;
    if plain.delta_frames != snap.counter("subscriptions.delta_frames") {
        eprintln!("subscriber frame count differs between the traced and untraced pass");
        o.failed += 1;
    }

    let mut batches = inputs.batches.clone();
    batches.push(inputs.sentinel_batch.clone());
    let drive = set_drive_layers(&mut o, &tracer, inputs.n_vertices, &[], &batches, true)?;
    // One submitter, so the server ran these same increments; with `Obs`
    // off it hands no cycle count out, the deterministic replay does (the
    // sentinel's one-edge increment included).
    o.metrics.set("sim_cycles", drive.totals.cycles as f64);
    // The sentinel's increment is outside the timed region.
    set_serve_layers(&mut o.metrics, &plain, &drive, 1);
    set_fail_frac(&mut o);
    write_trace(&args.workload, &tracer.spans())?;
    Ok(o)
}
