//! The two workloads that go through the serving tier over loopback TCP:
//! `serve_trickle` and `query_fanout`, plus the socket-free direct drive of
//! an `IngestCore` the traced run uses to split a round trip into layers.
//!
//! Both are closed-loop: `Client` is blocking and keeps one request in
//! flight per connection, so a slower server receives less load.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::{mpsc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use amcca_obs::Obs;
use amcca_serve::{Client, IngestCore, ServeConfig, Server, ServerStats, SubEvent, Submission};
use amcca_sim::SimError;
use sdgp_core::apps::BfsAlgo;
use sdgp_core::graph::{GraphBuilder, GraphMutation, StreamEdge};
use sdgp_core::query::{compile, oracle_results_multi};
use sdgp_core::RpvoConfig;

use crate::direct::{self, DirectConfig, Totals};
use crate::inputs::{Batch, FanoutInputs, TrickleInputs, QUERY_PANEL, TRICKLE_TAIL_BATCHES};
use crate::span::Tracer;

/// Submission attempts before a batch counts as failed (each refused
/// attempt sleeps out the server's retry hint first).
const MAX_ATTEMPTS: u32 = 200;
/// Explicit `Checkpoint` round trips timed after the trickle.
const CHECKPOINTS: usize = 5;
/// `Stats` round trips timed for the round-trip floor.
const FLOOR_PINGS: u64 = 200;
/// Consecutive submissions whose acknowledged-mutation rate is one sample
/// of a connection's throughput.
const RATE_WINDOW: usize = 25;
/// How long after the sentinel's acknowledgement the subscriber may take to
/// see it (deltas trail acks by well under a millisecond). `Client` has no
/// read timeout, so the wait is on the harness side.
const SUBSCRIBER_DEADLINE: Duration = Duration::from_secs(30);

fn sim_err(e: SimError) -> io::Error {
    io::Error::other(format!("simulator error: {e:?}"))
}

/// Serve workloads pin the sequential engine and the default RPVO shape;
/// `AdmissionConfig` stays at `Default` (for `ServeConfig` see [`boot`]).
pub fn builder(n_vertices: u32, obs: &Obs) -> GraphBuilder<BfsAlgo> {
    direct::builder(n_vertices, DirectConfig { rpvo: RpvoConfig::default(), shards: 1 }, obs)
}

/// A booted server with a control connection.
pub struct Running {
    server: Server,
    ctl: Client,
    store: PathBuf,
}

/// Boot an `IngestCore` on an empty store in `store` (checkpoints only on
/// request) and serve it on loopback.
///
/// `ServeConfig` is the default but for `max_coalesce`. With the default 32,
/// `serve_trickle`'s two closed-loop clients settle into one of two
/// self-sustaining regimes — lock-step (every increment coalesces both
/// submissions) or alternating (none does) — 40 % apart in latency and
/// throughput, and which one is the box's scheduling that hour, not the
/// code: the same binary ran six full runs alternating and, ninety minutes
/// later, ten runs lock-step. One submission per increment pins the
/// alternating regime, the one the issue's reference numbers describe
/// (round trip = two per-batch service times). `query_fanout` has one
/// submitter and never coalesces either way.
pub fn boot(n_vertices: u32, store: &Path, obs: &Obs) -> io::Result<Running> {
    let _ = std::fs::remove_dir_all(store);
    let (core, report) =
        IngestCore::boot(builder(n_vertices, obs), store, 0).map_err(io::Error::other)?;
    assert!(!report.recovered, "the scratch store was just wiped");
    let config = ServeConfig { max_coalesce: 1, ..ServeConfig::default() };
    let server = Server::start_loopback(core, config)?;
    let ctl = Client::connect(server.addr())?;
    Ok(Running { server, ctl, store: store.to_path_buf() })
}

impl Running {
    /// Stop the server (as a crash when `kill`), wait for its threads and
    /// return its final counters. The store stays on disk.
    fn stop(mut self, kill: bool) -> io::Result<ServerStats> {
        if kill {
            self.ctl.kill()?;
        } else {
            self.ctl.shutdown()?;
        }
        Ok(self.server.join().stats)
    }

    /// Stop the server and remove its store (a set-up made only to be timed).
    pub fn discard(self) -> io::Result<()> {
        let store = self.store.clone();
        self.stop(true)?;
        std::fs::remove_dir_all(store)
    }
}

/// Submit one batch, sleeping out admission refusals. `false` when the
/// server answered `Err` or kept refusing.
fn submit(c: &mut Client, muts: &[GraphMutation], retries: &mut u64) -> bool {
    for _ in 0..MAX_ATTEMPTS {
        match c.submit(muts) {
            Ok(Submission::Applied) => return true,
            Ok(Submission::RetryAfter(backoff)) => {
                *retries += 1;
                thread::sleep(backoff);
            }
            Err(e) => {
                eprintln!("submission answered Err: {e}");
                return false;
            }
        }
    }
    eprintln!("submission out of retries");
    false
}

/// What one submitting connection measured.
#[derive(Default)]
struct ClientOut {
    rtt_ms: Vec<f64>,
    /// Per batch: when it was first sent and, if acknowledged, when.
    sent_at: Vec<Instant>,
    acked_at: Vec<Option<Instant>>,
    retries: u64,
    /// Median over windows of `RATE_WINDOW` submissions of acknowledged
    /// mutations per second: the box slows down in bursts of seconds, which
    /// a median over windows sheds and a total over the region does not.
    muts_per_s: f64,
}

/// Closed-loop submitter: submit every batch in order over an established
/// connection, timing submit → `Submitted` including retry sleeps.
fn client_loop(mut c: Client, id: u64, batches: &[Batch], tracer: &Tracer) -> ClientOut {
    let mut out = ClientOut::default();
    let pass = tracer.open("harness.client_pass", None, id);
    for (i, b) in batches.iter().enumerate() {
        let t0 = Instant::now();
        let ok = submit(&mut c, b, &mut out.retries);
        let t1 = Instant::now();
        tracer.record("serve.submit_rtt", Some(pass.id), i as u64 + 1, t0, t1);
        out.sent_at.push(t0);
        out.acked_at.push(ok.then_some(t1));
        if ok {
            out.rtt_ms.push((t1 - t0).as_secs_f64() * 1e3);
        }
    }
    tracer.close(pass);
    let windows: Vec<f64> = (0..batches.len())
        .step_by(RATE_WINDOW)
        .filter_map(|lo| {
            let hi = (lo + RATE_WINDOW).min(batches.len());
            let acked: usize =
                (lo..hi).filter(|&i| out.acked_at[i].is_some()).map(|i| batches[i].len()).sum();
            let end = out.acked_at[lo..hi].iter().flatten().max()?;
            Some(acked as f64 / (*end - out.sent_at[lo]).as_secs_f64())
        })
        .collect();
    out.muts_per_s = crate::stats::median(&windows);
    out
}

/// What a serve pass measured, end to end.
#[derive(Default)]
pub struct ServeOut {
    /// Sum over the submitting connections of their windowed median rate.
    pub muts_per_s: f64,
    pub rtt_ms: Vec<f64>,
    /// Submissions made plus oracle checks.
    pub attempted: u64,
    /// Submissions answered `Err` or out of retries, plus failed checks.
    pub failed: u64,
    pub retries: u64,
    /// Submissions acknowledged in the timed region.
    pub acked: u64,
    /// Final server counters (increments, rejections).
    pub stats: ServerStats,
    pub rtt_floor_us: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    pub recovery_s: f64,
    pub verify_s: f64,
    pub delta_lag_ms: Vec<f64>,
    pub push_after_ack_us: Vec<f64>,
    pub delta_frames: u64,
    pub resyncs: u64,
}

impl ServeOut {
    fn absorb_client(&mut self, c: &ClientOut) {
        self.rtt_ms.extend(&c.rtt_ms);
        self.muts_per_s += c.muts_per_s;
        self.retries += c.retries;
        self.attempted += c.acked_at.len() as u64;
        self.acked += c.rtt_ms.len() as u64;
        self.failed += (c.acked_at.len() - c.rtt_ms.len()) as u64;
    }

    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            eprintln!("correctness gate failed: {what}");
            self.failed += 1;
        }
    }
}

/// Time `Stats` round trips: requests that touch neither graph nor disk.
fn rtt_floor(ctl: &mut Client, tracer: &Tracer, out: &mut ServeOut) -> io::Result<()> {
    for i in 0..FLOOR_PINGS {
        let t0 = Instant::now();
        ctl.stats()?;
        let t1 = Instant::now();
        tracer.record("serve.stats_rtt", None, i, t0, t1);
        out.rtt_floor_us.push((t1 - t0).as_secs_f64() * 1e6);
    }
    Ok(())
}

/// `serve_trickle` set-up: boot on an empty store and preload the resident
/// graph in 20 K-edge submissions.
pub fn trickle_setup(inputs: &TrickleInputs, store: &Path, obs: &Obs) -> io::Result<Running> {
    let mut running = boot(inputs.n_vertices, store, obs)?;
    for b in &inputs.preload {
        running.ctl.submit_retrying(b, MAX_ATTEMPTS)?;
    }
    Ok(running)
}

/// `serve_trickle` after set-up: the timed trickle, then checkpoints, the
/// tail, the kill, the timed recovery boot and the correctness gate.
pub fn trickle_pass(
    mut running: Running,
    inputs: &TrickleInputs,
    obs: &Obs,
    tracer: &Tracer,
) -> io::Result<ServeOut> {
    let addr = running.server.addr();
    let mut out = ServeOut::default();
    // Connect first: a refused connection is an error before any thread
    // waits at the start line for it.
    let connections: Vec<Client> =
        inputs.clients.iter().map(|_| Client::connect(addr)).collect::<io::Result<_>>()?;
    let start = Barrier::new(connections.len());
    let clients: Vec<ClientOut> = thread::scope(|s| {
        let handles: Vec<_> = connections
            .into_iter()
            .zip(&inputs.clients)
            .enumerate()
            .map(|(id, (c, batches))| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    client_loop(c, id as u64, batches, tracer)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    for c in &clients {
        out.absorb_client(c);
    }

    rtt_floor(&mut running.ctl, tracer, &mut out)?;
    // Explicit checkpoints at the resident size (ingest is stalled meanwhile).
    for i in 0..CHECKPOINTS {
        let t0 = Instant::now();
        running.ctl.checkpoint()?;
        let t1 = Instant::now();
        tracer.record("serve.checkpoint_rtt", None, i as u64, t0, t1);
        out.checkpoint_ms.push((t1 - t0).as_secs_f64() * 1e3);
    }
    for b in &inputs.tail {
        running.ctl.submit_retrying(b, MAX_ATTEMPTS)?;
    }
    let before = running.ctl.query()?;
    let store = running.store.clone();
    out.stats = running.stop(true)?;

    let t0 = Instant::now();
    let (recovered, report) =
        IngestCore::boot(builder(inputs.n_vertices, obs), &store, 0).map_err(io::Error::other)?;
    let t1 = Instant::now();
    tracer.record("serve.recovery_boot", None, 0, t0, t1);
    out.recovery_s = (t1 - t0).as_secs_f64();

    // Correctness gate: recovery replays exactly the tail and lands on the
    // pre-kill answer, and an offline single-writer replay of every
    // acknowledged edge reaches the same fixpoint.
    let t = Instant::now();
    let mut surviving: Vec<StreamEdge> = Vec::new();
    let acked = clients.iter().zip(&inputs.clients).flat_map(|(c, batches)| {
        batches.iter().zip(&c.acked_at).filter(|(_, at)| at.is_some()).map(|(b, _)| b)
    });
    for b in inputs.preload.iter().chain(acked).chain(&inputs.tail) {
        surviving.extend(b.iter().map(GraphMutation::edge));
    }
    let mut offline = builder(inputs.n_vertices, &Obs::disabled()).build().map_err(sim_err)?;
    offline.stream_edges(&surviving).map_err(sim_err)?;
    out.check("recovery restored a checkpoint", report.recovered);
    out.check("recovery replayed the 16-batch tail", report.tail_batches == TRICKLE_TAIL_BATCHES);
    out.check("recovered sync_values() vs pre-kill query", recovered.sync_values() == before);
    out.check("Client::query() vs offline replay", offline.sync_values() == before);
    out.verify_s = t.elapsed().as_secs_f64();
    std::fs::remove_dir_all(store)?;
    Ok(out)
}

/// `query_fanout` set-up: boot an empty server and register the panel.
pub fn fanout_setup(inputs: &FanoutInputs, store: &Path, obs: &Obs) -> io::Result<Running> {
    let mut running = boot(inputs.n_vertices, store, obs)?;
    for (qid, (pattern, sources)) in QUERY_PANEL.iter().enumerate() {
        assert_eq!(running.ctl.register_query_multi(pattern, sources)?, qid as u32);
    }
    Ok(running)
}

/// What the subscriber connection saw.
struct SubscriberOut {
    /// Running result set per query: baseline plus applied deltas.
    running: Vec<Vec<u32>>,
    /// Per increment after the baseline: when its first delta arrived.
    first_delta: Vec<Option<Instant>>,
    frames: u64,
    resyncs: u64,
}

/// Apply pushed deltas to the subscribed baselines until the sentinel vertex
/// shows up in the panel's last query — the server fans an increment's
/// deltas out in query-id order, so nothing is outstanding then.
fn follow_deltas(
    mut sub: Client,
    mut out: SubscriberOut,
    base_seq: u64,
    sentinel_vertex: u32,
) -> io::Result<SubscriberOut> {
    let last_qid = QUERY_PANEL.len() as u32 - 1;
    loop {
        let (qid, done) = match sub.next_event()? {
            SubEvent::Delta { qid, batch_seq, added, removed } => {
                let now = Instant::now();
                // One submitter: one submission is one increment, so the
                // sequence number indexes the submission that caused it.
                if let Some(slot) = out.first_delta.get_mut((batch_seq - base_seq - 1) as usize) {
                    slot.get_or_insert(now);
                }
                out.frames += 1;
                let set = &mut out.running[qid as usize];
                set.retain(|v| removed.binary_search(v).is_err());
                set.extend(&added);
                set.sort_unstable();
                (qid, added.contains(&sentinel_vertex))
            }
            SubEvent::Resync { qid, results, .. } => {
                out.resyncs += 1;
                let done = results.contains(&sentinel_vertex);
                out.running[qid as usize] = results;
                (qid, done)
            }
        };
        if qid == last_qid && done {
            return Ok(out);
        }
    }
}

/// `query_fanout` after set-up: one subscriber on the whole panel, one
/// closed-loop submitter streaming the labelled churn, then the gate.
pub fn fanout_pass(
    mut running: Running,
    inputs: &FanoutInputs,
    tracer: &Tracer,
) -> io::Result<ServeOut> {
    let addr = running.server.addr();
    let mut out = ServeOut::default();
    // Connections and baselines first, so every error that can precede the
    // timed region is returned before anything waits on anything.
    let mut sub = Client::connect(addr)?;
    let mut listened = SubscriberOut {
        running: Vec::new(),
        first_delta: vec![None; inputs.batches.len() + 1],
        frames: 0,
        resyncs: 0,
    };
    let mut base_seq = 0;
    for qid in 0..QUERY_PANEL.len() as u32 {
        let (seq, results) = sub.subscribe(qid)?;
        base_seq = seq;
        listened.running.push(results);
    }
    let submitter = Client::connect(addr)?;
    let mut sentinel_sender = Client::connect(addr)?;
    // The listener is detached, not scoped: `Client` cannot time a read out,
    // so if the delta stream never ends the thread is left behind blocked
    // and the pass records the failure instead of hanging with it.
    let (done_tx, done_rx) = mpsc::channel();
    let sentinel_vertex = inputs.sentinel_vertex;
    thread::spawn(move || {
        let _ = done_tx.send(follow_deltas(sub, listened, base_seq, sentinel_vertex));
    });

    let mut client = client_loop(submitter, 0, &inputs.batches, tracer);
    // Outside the timed region: the end-of-stream marker.
    let marked = submit(&mut sentinel_sender, &inputs.sentinel_batch, &mut client.retries);
    out.check("sentinel batch acknowledged", marked);
    let sub = match marked.then(|| done_rx.recv_timeout(SUBSCRIBER_DEADLINE)) {
        Some(Ok(Ok(sub))) => Some(sub),
        Some(Ok(Err(e))) => {
            eprintln!("subscriber connection failed: {e}");
            None
        }
        Some(Err(_)) => {
            eprintln!("subscriber did not see the sentinel within {SUBSCRIBER_DEADLINE:?}");
            None
        }
        None => None,
    };
    out.check("subscriber followed the delta stream to its end", sub.is_some());
    out.absorb_client(&client);
    let first_delta = sub.as_ref().map_or(&[][..], |s| &s.first_delta);
    for ((sent, acked), delta) in client.sent_at.iter().zip(&client.acked_at).zip(first_delta) {
        if let Some(delta) = delta {
            out.delta_lag_ms.push((*delta - *sent).as_secs_f64() * 1e3);
            if let Some(acked) = acked {
                // Signed: the subscriber may read its frame before the
                // submitter reads the acknowledgement.
                let us = if delta >= acked {
                    (*delta - *acked).as_secs_f64()
                } else {
                    -(*acked - *delta).as_secs_f64()
                } * 1e6;
                out.push_after_ack_us.push(us);
            }
        }
    }
    out.delta_frames = sub.as_ref().map_or(0, |s| s.frames);
    out.resyncs = sub.as_ref().map_or(0, |s| s.resyncs);
    rtt_floor(&mut running.ctl, tracer, &mut out)?;

    // Correctness gate: baseline + applied deltas == polled results ==
    // the from-scratch oracle over the surviving labelled edges, no Resync.
    let t = Instant::now();
    for (qid, (pattern, sources)) in QUERY_PANEL.iter().enumerate() {
        let polled = running.ctl.query_results(qid as u32)?;
        let dfa = compile(pattern).expect("panel pattern compiles");
        let oracle = oracle_results_multi(inputs.n_vertices, &inputs.live_labeled, &dfa, sources);
        let followed = sub.as_ref().is_some_and(|s| s.running[qid] == polled);
        out.check(&format!("query {qid}: deltas vs polled results"), followed);
        out.check(&format!("query {qid}: polled results vs oracle"), polled == oracle);
    }
    out.check("zero Resync", out.resyncs == 0);
    out.verify_s = t.elapsed().as_secs_f64();
    let store = running.store.clone();
    out.stats = running.stop(false)?;
    std::fs::remove_dir_all(store)?;
    Ok(out)
}

/// What driving an `IngestCore` directly — no TCP, no threads — measured.
pub struct DriveOut {
    pub submit_us: Vec<f64>,
    pub flush_us: Vec<f64>,
    pub results_us: Vec<f64>,
    /// Vertices entering or leaving any query's result set.
    pub delta_vertices: u64,
    /// Chip work of the driven batches (set-up excluded).
    pub totals: Totals,
    pub core: IngestCore<BfsAlgo>,
}

/// Drive `batches` through a fresh `IngestCore` in-process: `submit`, then
/// `flush`, per batch — the same calls the ingest thread makes, minus
/// sockets, admission and coalescing. `resident` is applied first, untimed;
/// with `queries`, the panel is registered and polled after every batch.
pub fn direct_drive(
    n_vertices: u32,
    resident: &[Batch],
    batches: &[Batch],
    queries: bool,
    store: &Path,
    obs: &Obs,
    tracer: &Tracer,
) -> io::Result<DriveOut> {
    let _ = std::fs::remove_dir_all(store);
    let (mut core, _) =
        IngestCore::boot(builder(n_vertices, obs), store, 0).map_err(io::Error::other)?;
    for b in resident {
        core.submit(b).map_err(io::Error::other)?;
        core.flush().map_err(io::Error::other)?;
    }
    if queries {
        for (pattern, sources) in QUERY_PANEL {
            core.register_query_multi(pattern, sources).map_err(io::Error::other)?;
        }
    }
    let chip_mark = |core: &IngestCore<BfsAlgo>| {
        let chip = core.graph().device().chip();
        (chip.snapshot(), chip.energy_uj())
    };
    let ((cycle0, counters0), energy0) = chip_mark(&core);
    let mut out = DriveOut {
        submit_us: Vec::new(),
        flush_us: Vec::new(),
        results_us: Vec::new(),
        delta_vertices: 0,
        totals: Totals::default(),
        core,
    };
    let pass = tracer.open("harness.drive_pass", None, 0);
    for (i, b) in batches.iter().enumerate() {
        let bid = i as u64 + 1;
        let t0 = Instant::now();
        out.core.submit(b).map_err(io::Error::other)?;
        let t1 = Instant::now();
        out.core.flush().map_err(io::Error::other)?;
        let t2 = Instant::now();
        tracer.record("serve.core_submit", Some(pass.id), bid, t0, t1);
        tracer.record("serve.core_flush", Some(pass.id), bid, t1, t2);
        out.submit_us.push((t1 - t0).as_secs_f64() * 1e6);
        out.flush_us.push((t2 - t1).as_secs_f64() * 1e6);
        if queries {
            for d in out.core.take_query_deltas() {
                out.delta_vertices += (d.added.len() + d.removed.len()) as u64;
            }
            let t0 = Instant::now();
            std::hint::black_box(out.core.query_results(i as u32 % QUERY_PANEL.len() as u32));
            let t1 = Instant::now();
            tracer.record("query.query_results", Some(pass.id), bid, t0, t1);
            out.results_us.push((t1 - t0).as_secs_f64() * 1e6);
        }
    }
    tracer.close(pass);
    let ((cycle1, counters1), energy1) = chip_mark(&out.core);
    out.totals.cycles = cycle1 - cycle0;
    out.totals.counters = counters1.delta(&counters0);
    out.totals.energy_uj = energy1 - energy0;
    Ok(out)
}
