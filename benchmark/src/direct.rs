//! The three workloads that drive `StreamingGraph` directly: `ingest_bulk`,
//! `skew_sharded` and `churn_window`. No WAL, no sockets — one
//! `stream_increment` call per batch, timed from outside.

use std::time::{Duration, Instant};

use amcca_obs::Obs;
use amcca_sim::{ChipConfig, Counters};
use diffusive::RunReport;
use sdgp_core::apps::BfsAlgo;
use sdgp_core::graph::{GraphBuilder, RepairMode, StreamEdge, StreamingGraph};
use sdgp_core::RpvoConfig;

use crate::inputs::DirectInputs;
use crate::span::Tracer;

/// The graph type every workload runs: streaming BFS from vertex 0.
pub type Graph = StreamingGraph<BfsAlgo>;

/// The knobs a direct workload fixes.
#[derive(Debug, Clone, Copy)]
pub struct DirectConfig {
    pub rpvo: RpvoConfig,
    pub shards: usize,
}

/// A builder for this workload's graph shape (work stealing and every other
/// chip knob stay at `ChipConfig::default()`).
pub fn builder(n_vertices: u32, cfg: DirectConfig, obs: &Obs) -> GraphBuilder<BfsAlgo> {
    StreamingGraph::builder(BfsAlgo::new(0))
        .vertices(n_vertices)
        .chip(ChipConfig::default().with_shards(cfg.shards))
        .rpvo(cfg.rpvo)
        .repair(RepairMode::Targeted)
        .obs(obs.clone())
}

/// `RunReport` fields summed over a pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub cycles: u64,
    pub counters: Counters,
    pub energy_uj: f64,
    pub reseed_triggers: u64,
    pub repair_cycles: u64,
    pub repair_instrs: u64,
}

impl Totals {
    pub fn add(&mut self, r: &RunReport) {
        self.cycles += r.cycles;
        self.counters.merge(&r.counters);
        self.energy_uj += r.energy_uj;
        self.reseed_triggers += r.reseed_triggers;
        self.repair_cycles += r.repair_cycles;
        self.repair_instrs += r.repair_instrs;
    }
}

/// What one timed pass over the batches produced.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Timed-region wall, oracle checks excluded.
    pub wall_s: f64,
    /// Mutations applied.
    pub muts: u64,
    /// One `stream_increment` duration per batch.
    pub batch_ms: Vec<f64>,
    pub totals: Totals,
    /// Batches streamed plus oracle checks made.
    pub attempted: u64,
    /// Batches the simulator refused plus oracle checks that disagreed.
    pub failed: u64,
    pub verify_s: f64,
}

/// The correctness gate: the fixpoint equals reference BFS over the live
/// edges, the fabric stores exactly the live edges, and every mirror agrees
/// with its root. Returns the number of failed checks out of three.
pub fn verify(g: &Graph, n_vertices: u32, live: &[StreamEdge]) -> u64 {
    let oracle = refgraph::DiGraph::from_edges(n_vertices, live.iter().copied());
    let checks = [
        ("states() vs refgraph::bfs_levels", g.states() == refgraph::bfs_levels(&oracle, 0)),
        ("total_edges_stored() vs live count", g.total_edges_stored() == live.len() as u64),
        ("check_mirror_consistency()", g.check_mirror_consistency().is_ok()),
    ];
    for (what, ok) in checks {
        if !ok {
            eprintln!("correctness gate failed: {what}");
        }
    }
    checks.iter().filter(|(_, ok)| !ok).count() as u64
}

/// Stream every batch through `g`, timing each call; stop the clock at the
/// inputs' check points to run the correctness gate.
pub fn pass(g: &mut Graph, inputs: &DirectInputs, tracer: &Tracer) -> PassOut {
    let mut out = PassOut::default();
    let mut paused = Duration::ZERO;
    let span = tracer.open("harness.pass", None, 0);
    for (i, batch) in inputs.batches.iter().enumerate() {
        out.attempted += 1;
        let t0 = Instant::now();
        let report = g.stream_increment(batch);
        let t1 = Instant::now();
        tracer.record("core.stream_increment", Some(span.id), i as u64 + 1, t0, t1);
        match report {
            Ok(r) => {
                out.totals.add(&r);
                out.muts += batch.len() as u64;
                out.batch_ms.push((t1 - t0).as_secs_f64() * 1e3);
            }
            Err(e) => {
                eprintln!("batch {i}: stream_increment failed: {e:?}");
                // The graph is in an unknown state: the rest cannot run.
                out.failed += (inputs.batches.len() - i) as u64;
                out.attempted += (inputs.batches.len() - i - 1) as u64;
                break;
            }
        }
        if let Some((_, live)) = inputs.checks.iter().find(|(at, _)| *at == i) {
            let t = Instant::now();
            out.attempted += 3;
            out.failed += verify(g, inputs.n_vertices, live);
            let end = Instant::now();
            tracer.record("oracle.verify", Some(span.id), i as u64 + 1, t, end);
            paused += end - t;
        }
    }
    out.wall_s = (span.start.elapsed() - paused).as_secs_f64();
    tracer.close(span);
    out.verify_s = paused.as_secs_f64();
    out
}
