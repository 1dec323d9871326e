//! The ingestion server: a single-writer ingest loop around one
//! [`StreamingGraph`], fronted by a threaded TCP accept loop.
//!
//! ## Single-writer ingest
//!
//! [`IngestCore`] owns the graph and the durability [`Store`]; there is no
//! separate coalescing stage. A submission is validated all-or-nothing
//! against the graph's own mutation log ([`StreamingGraph::stage`]) and
//! parked there, so one that names a missing live copy is refused at submit
//! time with the exact validation error instead of poisoning the fabric
//! mid-increment. [`IngestCore::flush`] appends the round's admitted
//! submissions, in arrival order, to the write-ahead log and syncs, and
//! only then applies the canonical batch they coalesce to — a failed append
//! leaves the graph unapplied. [`IngestCore::checkpoint`] applies parked
//! submissions first.
//!
//! ## Recovery
//!
//! [`IngestCore::boot`] restores the newest checkpoint (re-converging the
//! fixpoint and verifying it bit-for-bit against the snapshot), then
//! replays only the WAL tail — the rounds applied after that checkpoint —
//! through the same stage-and-apply path. Re-staged on the log it was
//! admitted against, a round's submissions coalesce to the very batch the
//! round applied, copies and tags included (the canonical batch alone would
//! not: re-coalesced, a delete can match another copy than it did), so the
//! recovered fixpoint and live copies are bit-identical to the pre-crash
//! ones; the recovery proptests in the umbrella crate pin exactly this.
//!
//! ## Threading
//!
//! [`Server`] runs a single ingest thread and, per connection, a reader
//! and a writer thread. The writer is the connection's sole socket writer:
//! it drains the connection's `Outbox`, through which every response goes —
//! request replies, pushed deltas and resyncs. The reader never waits on a
//! reply: it answers `Hello`, undecodable frames and admission refusals
//! ([`Admission`]'s `RetryAfter`) into the outbox itself and hands every
//! other request to the ingest thread, which answers into the same outbox.
//! The ingest thread coalesces every queued submission into the next
//! increment and acknowledges each one only after that increment converged
//! — a `Submitted` reply means the mutation is durable (WAL) *and* its
//! fixpoint is queryable.
//!
//! ## Subscriptions
//!
//! The ingest thread computes each increment's result-set deltas inside
//! `stream_increment` (incrementally, from the qbits transitions the batch
//! caused) and queues them in the subscribers' outboxes **after the batch
//! acks**, so push latency never delays durability acknowledgements.
//! Subscribe and unsubscribe run on the ingest thread and answer through
//! the outbox the deltas use, which makes the baseline snapshot atomic with
//! the delta stream: a subscriber sees `Subscribed` at increment `s`, then
//! every delta for `s+1, s+2, …` in order, and `Unsubscribe`'s `Done`
//! queues behind every delta already queued. A slow subscriber's outbox
//! never grows without bound — past `MAX_QUEUED_DELTAS` the queued deltas
//! are replaced by one [`Response::Resync`] snapshot per subscribed query.
//! When the ingest thread stops — by request or by a panic — it closes
//! every outbox; each writer sends what is queued and shuts its socket
//! down, so every client, subscribed or idle, reads EOF and every reader
//! returns.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use amcca_obs::{MetricsSnapshot, Obs};
use sdgp_core::apps::VertexAlgo;
use sdgp_core::graph::{GraphBuilder, GraphMutation, MutationError, StreamingGraph};
use sdgp_core::GraphCheckpoint;

use crate::admission::{Admission, AdmissionConfig, Decision};
use crate::proto::{read_frame, write_frame, Request, Response, ServerStats};
use crate::wal::{Store, WalRecord};
use crate::ServeError;

/// Configuration of the TCP serving loop.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Admission-control knobs.
    pub admission: AdmissionConfig,
    /// Most submissions merged into a single increment per service round.
    pub max_coalesce: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { admission: AdmissionConfig::default(), max_coalesce: 32 }
    }
}

/// What [`IngestCore::boot`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootReport {
    /// Whether a checkpoint was restored (false = fresh start).
    pub recovered: bool,
    /// Live edges inside the restored checkpoint.
    pub checkpoint_edges: usize,
    /// WAL batches replayed on top of the checkpoint.
    pub tail_batches: usize,
    /// Submitted mutations across the replayed tail, before coalescing.
    pub tail_mutations: usize,
    /// Standing queries re-registered from the WAL tail (queries inside the
    /// checkpoint are restored by the checkpoint codec and not counted
    /// here).
    pub tail_queries: usize,
}

/// The single-writer ingestion state machine (module docs).
pub struct IngestCore<G: VertexAlgo> {
    graph: StreamingGraph<G>,
    store: Store,
    /// Write a checkpoint after this many applied batches (0 = only on
    /// explicit request).
    checkpoint_every: u64,
    /// The submissions parked since the last flush, in arrival order: the
    /// next round's WAL record.
    admitted: Vec<GraphMutation>,
    stats: ServerStats,
    /// Wall-clock observability, cloned from the graph's handle so the
    /// server and the graph feed one shared registry (disabled unless the
    /// builder carried an enabled [`Obs`]).
    obs: Obs,
}

impl<G: VertexAlgo> IngestCore<G> {
    /// Boot from the store in `dir`: restore the checkpoint if present
    /// (else build fresh from `builder`), replay the WAL tail, and report
    /// what happened. `builder`'s vertex count is overridden by the
    /// checkpoint's when one is restored.
    pub fn boot(
        builder: GraphBuilder<G>,
        dir: &Path,
        checkpoint_every: u64,
    ) -> Result<(IngestCore<G>, BootReport), ServeError> {
        let store = Store::open(dir)?;
        let (graph, recovered, checkpoint_edges) = match store.load_checkpoint()? {
            Some(ck) => {
                let g = ck.restore(builder)?;
                (g, true, ck.edges.len())
            }
            None => (builder.build()?, false, 0),
        };
        let obs = graph.obs().clone();
        let mut core = IngestCore {
            graph,
            store,
            checkpoint_every,
            admitted: Vec::new(),
            stats: ServerStats::default(),
            obs,
        };
        let tail = core.store.load_tail()?;
        let (mut tail_batches, mut tail_mutations, mut tail_queries) = (0, 0, 0);
        for record in &tail {
            match record {
                WalRecord::Batch(batch) => {
                    tail_batches += 1;
                    tail_mutations += batch.len();
                    core.replay(batch)?;
                }
                WalRecord::Register { pattern, sources } => {
                    // Re-register without a WAL append (the record is
                    // already on disk); replay order reproduces the query
                    // id assignment.
                    tail_queries += 1;
                    core.graph.register_query_multi(pattern, sources).map_err(|e| {
                        ServeError::WalReplay(format!("query {pattern:?} no longer registers: {e}"))
                    })?;
                }
            }
        }
        // The replayed tail is still in the WAL: it counts against the
        // checkpoint cadence so a crash loop cannot grow the tail forever.
        core.stats.wal_tail_batches = tail_batches as u64;
        core.stats.live_edges = core.graph.live_edge_count();
        Ok((
            core,
            BootReport { recovered, checkpoint_edges, tail_batches, tail_mutations, tail_queries },
        ))
    }

    /// Re-apply one WAL round during boot (no WAL append — it is already
    /// on disk): re-stage its submissions, which coalesce to the batch the
    /// round applied.
    fn replay(&mut self, submitted: &[GraphMutation]) -> Result<(), ServeError> {
        self.graph
            .stage(submitted)
            .map_err(|e| ServeError::WalReplay(format!("{e} (store {:?})", self.store.dir())))?;
        self.stats.mutations += self.pending_ops() as u64;
        self.graph.apply_staged()?;
        self.stats.batches += 1;
        Ok(())
    }

    /// Validate one submission against the graph's log and park it there.
    /// All-or-nothing: on error the log is unchanged and nothing of the
    /// submission survives.
    pub fn submit(&mut self, muts: &[GraphMutation]) -> Result<(), MutationError> {
        self.graph.stage(muts)?;
        self.admitted.extend_from_slice(muts);
        Ok(())
    }

    /// Mutations the parked submissions currently coalesce to.
    pub fn pending_ops(&self) -> usize {
        self.graph.staged().count()
    }

    /// Apply the parked submissions as one increment: WAL them, *then*
    /// apply the canonical batch they coalesce to, then (on cadence) a
    /// checkpoint. Returns whether an increment actually ran — nothing
    /// parked, or a round that coalesced to nothing, is skipped entirely.
    /// On a WAL error the submissions stay parked and the graph unapplied.
    pub fn flush(&mut self) -> Result<bool, ServeError> {
        let n_muts = self.pending_ops() as u64;
        // A fully annihilated round (add+delete of the same copy) leaves the
        // log as it found it: it logs and runs nothing.
        if n_muts > 0 {
            // The span covers serialization, the write, and the fsync — the
            // `span.wal_append_ns` histogram is the durability latency.
            let span = self.obs.span("wal_append", self.stats.batches + 1, n_muts);
            let wal_bytes = self.store.append_batch(&self.admitted)?;
            drop(span);
            self.obs.counter_add("wal.appends", 1);
            self.obs.counter_add("wal.bytes", wal_bytes);
        }
        self.admitted.clear();
        if self.graph.apply_staged()?.is_none() {
            return Ok(false);
        }
        self.stats.batches += 1;
        self.stats.mutations += n_muts;
        self.stats.live_edges = self.graph.live_edge_count();
        self.stats.wal_tail_batches += 1;
        self.obs.gauge_set("serve.live_edges", self.stats.live_edges as i64);
        self.obs.gauge_set("serve.wal_tail_batches", self.stats.wal_tail_batches as i64);
        if self.checkpoint_every > 0 && self.stats.wal_tail_batches >= self.checkpoint_every {
            self.checkpoint()?;
        }
        Ok(true)
    }

    /// Snapshot the quiescent graph to disk now, truncating the WAL —
    /// after applying whatever is still parked, which a snapshot would
    /// otherwise list as live edges beside a fixpoint that never saw them.
    /// Returns the checkpoint size in bytes.
    pub fn checkpoint(&mut self) -> Result<u64, ServeError> {
        if self.flush()? && self.stats.wal_tail_batches == 0 {
            // That flush reached the cadence and already wrote this snapshot.
            return Ok(self.stats.last_checkpoint_bytes);
        }
        let obs = self.obs.clone();
        let bytes = {
            let _s = obs.span("checkpoint", self.stats.batches, 0);
            let ck = GraphCheckpoint::capture(&self.graph);
            self.store.write_checkpoint(&ck)?
        };
        obs.counter_add("checkpoint.count", 1);
        obs.counter_add("checkpoint.bytes", bytes);
        obs.gauge_set("serve.wal_tail_batches", 0);
        self.stats.checkpoints += 1;
        self.stats.wal_tail_batches = 0;
        self.stats.last_checkpoint_bytes = bytes;
        Ok(bytes)
    }

    /// Converged per-vertex sync values (applied state only; parked
    /// submissions are not visible until flushed).
    pub fn sync_values(&self) -> Vec<Option<u64>> {
        self.graph.sync_values()
    }

    /// Register a standing path query, durably: the WAL record is synced
    /// *before* the graph registration runs, so a crash at any point either
    /// recovers the query or never acknowledged it. Returns the query id.
    pub fn register_query(&mut self, pattern: &str, source: u32) -> Result<u32, ServeError> {
        self.register_query_multi(pattern, &[source])
    }

    /// Register a standing path query anchored at several sources (one
    /// compiled automaton, one state plane; results are the union over
    /// sources), with the same durability ordering as
    /// [`Self::register_query`].
    pub fn register_query_multi(
        &mut self,
        pattern: &str,
        sources: &[u32],
    ) -> Result<u32, ServeError> {
        // Validate first so a bad pattern or source list never hits the WAL.
        sdgp_core::query::compile(pattern).map_err(ServeError::Query)?;
        if sources.is_empty() {
            return Err(ServeError::Query(sdgp_core::query::QueryError::NoSources));
        }
        for &source in sources {
            if source >= self.graph.n_vertices() {
                return Err(ServeError::Query(sdgp_core::query::QueryError::SourceOutOfRange {
                    source,
                    n: self.graph.n_vertices(),
                }));
            }
        }
        let wal_bytes = self.store.append_register(pattern, sources)?;
        self.obs.counter_add("wal.appends", 1);
        self.obs.counter_add("wal.bytes", wal_bytes);
        self.graph.register_query_multi(pattern, sources).map_err(ServeError::Query)
    }

    /// Drain the result-set deltas of the most recent increment (see
    /// [`StreamingGraph::take_query_deltas`]).
    pub fn take_query_deltas(&mut self) -> Vec<sdgp_core::QueryDelta> {
        self.graph.take_query_deltas()
    }

    /// Current matches of a registered standing query (applied state only).
    pub fn query_results(&self, qid: u32) -> Vec<u32> {
        self.graph.query_results(qid)
    }

    /// Current counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// The observability handle the core (and its graph) record into.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Live observability snapshot — every counter, gauge, and latency
    /// histogram recorded so far (empty when observability is disabled).
    pub fn obs_snapshot(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }

    /// The graph being served (read-only).
    pub fn graph(&self) -> &StreamingGraph<G> {
        &self.graph
    }
}

/// How a serving run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerReport {
    /// Final counters.
    pub stats: ServerStats,
    /// True if the run ended via [`Request::Kill`] or an internal fault —
    /// pending work was dropped and no final flush ran.
    pub crashed: bool,
}

/// One request on its way to the ingest thread: who sent it and the outbox
/// its answer goes to.
struct Cmd {
    client_id: u32,
    req: Request,
    out: Arc<Outbox>,
}

/// Most pushed deltas a slow subscriber may have queued before the server
/// stops queueing deltas and degrades to a [`Response::Resync`] snapshot
/// per subscribed query (see [`Outbox::push`]).
const MAX_QUEUED_DELTAS: usize = 64;

/// A connection's outbox: the responses its writer thread encodes and
/// sends, in order. Responses come in two classes — request **replies**,
/// which are never dropped, and pushed **deltas** (`QueryDelta`, `Resync`),
/// which are bounded by [`MAX_QUEUED_DELTAS`] and degrade to a resync
/// snapshot on overflow — so a stalled subscriber can slow its own event
/// stream but can never grow server memory without bound or lose a reply.
#[derive(Default)]
struct Outbox {
    inner: Mutex<Queue>,
    cv: Condvar,
}

#[derive(Default)]
struct Queue {
    responses: VecDeque<Response>,
    /// Pushed deltas currently queued.
    deltas: usize,
    closed: bool,
}

/// Whether `resp` is a pushed delta, the class the overflow policy may
/// discard.
fn is_delta(resp: &Response) -> bool {
    matches!(resp, Response::QueryDelta { .. } | Response::Resync { .. })
}

impl Outbox {
    fn lock(&self) -> std::sync::MutexGuard<'_, Queue> {
        self.inner.lock().expect("outbox lock poisoned")
    }

    /// Queue `resp` for the writer. Returns false only for a delta refused
    /// at the bound (the caller degrades to a resync); once the outbox is
    /// closed, everything is dropped silently.
    fn push(&self, resp: Response) -> bool {
        let mut q = self.lock();
        if q.closed {
            return true;
        }
        if is_delta(&resp) {
            if q.deltas >= MAX_QUEUED_DELTAS {
                return false;
            }
            q.deltas += 1;
        }
        q.responses.push_back(resp);
        self.cv.notify_one();
        true
    }

    /// Overflow path: discard every queued delta and queue `resyncs` (one
    /// snapshot per subscribed query) in their place. Replies stay queued
    /// in order.
    fn replace_deltas(&self, resyncs: Vec<Response>) {
        let mut q = self.lock();
        if q.closed {
            return;
        }
        q.responses.retain(|r| !is_delta(r));
        q.deltas = resyncs.len();
        q.responses.extend(resyncs);
        self.cv.notify_one();
    }

    /// Close the outbox: the writer sends what is queued, then exits. Runs
    /// from the ingest thread's stop guard, so it must not panic: a
    /// poisoned lock still takes the flag.
    fn close(&self) {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).closed = true;
        self.cv.notify_all();
    }

    /// Blocking pop; `None` once closed and drained.
    fn pop(&self) -> Option<Response> {
        let mut q = self.lock();
        loop {
            if let Some(resp) = q.responses.pop_front() {
                q.deltas -= usize::from(is_delta(&resp));
                return Some(resp);
            }
            if q.closed {
                return None;
            }
            q = self.cv.wait(q).expect("outbox lock poisoned");
        }
    }
}

/// One open connection in the registry: the queries it follows and the
/// outbox every response to it goes through.
struct Conn {
    /// Subscribed query ids, sorted ascending.
    qids: Vec<u32>,
    out: Arc<Outbox>,
}

/// Set the `serve.subscribers` gauge: connections following at least one
/// query.
fn count_subscribers(obs: &Obs, conns: &HashMap<u32, Conn>) {
    let n = conns.values().filter(|c| !c.qids.is_empty()).count();
    obs.gauge_set("serve.subscribers", n as i64);
}

/// State shared between the reader threads and the ingest thread.
struct Shared {
    admission: Mutex<Admission>,
    /// Submissions admitted but not yet dequeued by the ingest thread —
    /// the global backpressure watermark input.
    queue_depth: AtomicUsize,
    rejected: AtomicU64,
    next_client: AtomicU32,
    /// Submission sequence — the batch id carried by reader-side spans
    /// (`submit`, `admission`).
    submit_seq: AtomicU64,
    stop: AtomicBool,
    epoch: Instant,
    /// Clone of the core's observability handle, for reader-side spans and
    /// the queue-depth gauge.
    obs: Obs,
    /// Every open connection by client id. Readers insert when they start
    /// and remove when they exit; the ingest thread edits `qids` and queues
    /// deltas after each flush.
    conns: Mutex<HashMap<u32, Conn>>,
}

impl Shared {
    fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    fn conns(&self) -> std::sync::MutexGuard<'_, HashMap<u32, Conn>> {
        self.conns.lock().expect("conns lock poisoned")
    }
}

/// A running ingestion server (module docs). Dropping the handle does not
/// stop it; send [`Request::Shutdown`] or [`Request::Kill`] and
/// [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    ingest: JoinHandle<ServerReport>,
    acceptor: JoinHandle<()>,
}

impl Server {
    /// Serve `core` on an OS-assigned loopback port.
    pub fn start_loopback<G: VertexAlgo + 'static>(
        core: IngestCore<G>,
        cfg: ServeConfig,
    ) -> io::Result<Server> {
        Server::start(core, cfg, TcpListener::bind("127.0.0.1:0")?)
    }

    /// Serve `core` on an already-bound listener.
    pub fn start<G: VertexAlgo + 'static>(
        mut core: IngestCore<G>,
        cfg: ServeConfig,
        listener: TcpListener,
    ) -> io::Result<Server> {
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            admission: Mutex::new(Admission::new(cfg.admission)),
            queue_depth: AtomicUsize::new(0),
            rejected: AtomicU64::new(0),
            next_client: AtomicU32::new(1),
            submit_seq: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            epoch: Instant::now(),
            obs: core.obs().clone(),
            conns: Mutex::new(HashMap::new()),
        });
        let (tx, rx) = mpsc::channel::<Cmd>();

        let ingest_shared = Arc::clone(&shared);
        let max_coalesce = cfg.max_coalesce.max(1);
        let ingest = thread::spawn(move || {
            let _stop = StopOnExit(&ingest_shared);
            ingest_loop(&mut core, &rx, &ingest_shared, max_coalesce)
        });

        let accept_shared = Arc::clone(&shared);
        listener.set_nonblocking(true)?;
        let acceptor = thread::spawn(move || {
            while !accept_shared.stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((sock, _)) => {
                        let tx = tx.clone();
                        let shared = Arc::clone(&accept_shared);
                        thread::spawn(move || connection_loop(sock, &tx, &shared));
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(2));
                    }
                    Err(_) => break,
                }
            }
        });

        Ok(Server { addr, ingest, acceptor })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for the serving run to end (a client sent `Shutdown` or
    /// `Kill`) and collect its report.
    pub fn join(self) -> ServerReport {
        let report = self.ingest.join().expect("ingest thread panicked");
        self.acceptor.join().expect("acceptor thread panicked");
        report
    }
}

/// The ingest thread's stop work, run when its loop returns and when it
/// unwinds alike: raise the stop flag (the acceptor exits) and close every
/// outbox. Each writer then sends what is queued — such as the `Done` to
/// the client that sent `Shutdown` — and shuts its socket down, so every
/// client reads EOF and every blocked reader returns.
struct StopOnExit<'a>(&'a Shared);

impl Drop for StopOnExit<'_> {
    fn drop(&mut self) {
        self.0.stop.store(true, Ordering::SeqCst);
        let conns = self.0.conns.lock().unwrap_or_else(PoisonError::into_inner);
        for conn in conns.values() {
            conn.out.close();
        }
    }
}

/// Whether the serving loop keeps going after a command.
enum Flow {
    Continue,
    Stop { crashed: bool },
}

fn ingest_loop<G: VertexAlgo>(
    core: &mut IngestCore<G>,
    rx: &mpsc::Receiver<Cmd>,
    shared: &Shared,
    max_coalesce: usize,
) -> ServerReport {
    let mut crashed = false;
    // `recv` fails once every sender is gone: nothing can arrive anymore.
    'serve: while let Ok(cmd) = rx.recv() {
        let mut deferred = None;
        let mut round = Vec::new();
        match cmd {
            Cmd { req: Request::Submit(muts), out, .. } => {
                round.push((muts, out));
                // Coalesce every submission already waiting into the same
                // increment (one fabric run amortized over all of them).
                while round.len() < max_coalesce {
                    match rx.try_recv() {
                        Ok(Cmd { req: Request::Submit(muts), out, .. }) => round.push((muts, out)),
                        Ok(other) => {
                            deferred = Some(other);
                            break;
                        }
                        Err(_) => break,
                    }
                }
            }
            other => deferred = Some(other),
        }

        if !round.is_empty() {
            let obs = core.obs().clone();
            let bid = core.stats().batches + 1;
            let round_muts: u64 = round.iter().map(|(m, _)| m.len() as u64).sum();
            // The `ack` span closes when this round's acknowledgements have
            // been queued in the senders' outboxes — dequeue-to-ack latency.
            let _ack_span = obs.span("ack", bid, round_muts);
            let mut acks = Vec::with_capacity(round.len());
            for (muts, out) in round {
                let depth = shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
                obs.gauge_set("serve.queue_depth", depth as i64 - 1);
                let validated = {
                    let _s = obs.span("validate", bid, muts.len() as u64);
                    core.submit(&muts)
                };
                match validated {
                    Ok(()) => acks.push(out),
                    Err(e) => _ = out.push(Response::Err(e.to_string())),
                }
            }
            match core.flush() {
                Ok(ran) => {
                    // Ack first — push fan-out must never delay durability
                    // acknowledgements — then fan the increment's result
                    // deltas out to subscribers.
                    for out in acks {
                        out.push(Response::Submitted);
                    }
                    if ran {
                        fanout_deltas(core, shared);
                    }
                }
                Err(e) => {
                    // Durability or fabric failure: the acknowledged state
                    // on disk is still consistent, but this process must
                    // not keep accepting work.
                    let msg = format!("ingest failed: {e}");
                    for out in acks {
                        out.push(Response::Err(msg.clone()));
                    }
                    crashed = true;
                    break 'serve;
                }
            }
        }

        if let Some(cmd) = deferred {
            match control(core, shared, cmd) {
                Flow::Continue => {}
                Flow::Stop { crashed: c } => {
                    crashed = c;
                    break 'serve;
                }
            }
        }
    }
    let mut stats = core.stats();
    stats.rejected = shared.rejected.load(Ordering::SeqCst);
    ServerReport { stats, crashed }
}

/// Fan the most recent increment's result deltas out to every subscriber:
/// one [`Response::QueryDelta`] per (subscriber, changed subscribed query).
/// A subscriber whose outbox is at its bound gets its queued deltas
/// replaced by one [`Response::Resync`] snapshot per subscribed query
/// instead — bounded memory, and the subscriber's running set stays
/// reconstructible.
fn fanout_deltas<G: VertexAlgo>(core: &mut IngestCore<G>, shared: &Shared) {
    let deltas = core.take_query_deltas();
    if deltas.is_empty() {
        return;
    }
    let batch_seq = core.stats().batches;
    let obs = core.obs().clone();
    for conn in shared.conns().values() {
        let mut overflowed = false;
        for &qid in &conn.qids {
            let Some(d) = deltas.get(qid as usize) else { continue };
            if d.is_empty() {
                continue;
            }
            let (added, removed) = (d.added.clone(), d.removed.clone());
            if !conn.out.push(Response::QueryDelta { qid, batch_seq, added, removed }) {
                overflowed = true;
                break;
            }
            obs.counter_add("subscriptions.delta_frames", 1);
        }
        if overflowed {
            let resyncs: Vec<Response> = conn
                .qids
                .iter()
                .map(|&qid| Response::Resync { qid, batch_seq, results: core.query_results(qid) })
                .collect();
            obs.counter_add("subscriptions.resyncs", resyncs.len() as u64);
            conn.out.replace_deltas(resyncs);
        }
    }
}

/// Serve one non-submission request between increments and queue its
/// answer in the sender's outbox.
fn control<G: VertexAlgo>(core: &mut IngestCore<G>, shared: &Shared, cmd: Cmd) -> Flow {
    let Cmd { client_id, req, out } = cmd;
    let mut flow = Flow::Continue;
    let resp = match req {
        Request::Submit(_) | Request::Hello => unreachable!("answered before the control path"),
        Request::Query => Response::States(core.sync_values()),
        Request::RegisterQueryMulti { pattern, sources } => {
            match core.register_query_multi(&pattern, &sources) {
                Ok(qid) => Response::QueryId { qid },
                Err(e) => Response::Err(e.to_string()),
            }
        }
        Request::QueryResults { qid } => Response::Matches(core.query_results(qid)),
        Request::Subscribe { qid } => {
            // Runs on the ingest thread between increments and answers
            // through the outbox the deltas use, so the baseline snapshot is
            // atomic with the delta stream: the subscriber sees this
            // snapshot, then every later increment's delta, in order.
            if (qid as usize) >= core.graph().registered_queries().len() {
                Response::Err(format!("unknown query id {qid}"))
            } else {
                let mut conns = shared.conns();
                if let Some(conn) = conns.get_mut(&client_id) {
                    if let Err(at) = conn.qids.binary_search(&qid) {
                        conn.qids.insert(at, qid);
                    }
                }
                count_subscribers(&shared.obs, &conns);
                shared.obs.counter_add("subscriptions.subscribes", 1);
                Response::Subscribed {
                    qid,
                    batch_seq: core.stats().batches,
                    results: core.query_results(qid),
                }
            }
        }
        Request::Unsubscribe { qid } => {
            // The `Done` queues behind any deltas already queued, so the
            // client knows no further frames for `qid` follow it.
            let mut conns = shared.conns();
            if let Some(conn) = conns.get_mut(&client_id) {
                conn.qids.retain(|&q| q != qid);
            }
            count_subscribers(&shared.obs, &conns);
            shared.obs.counter_add("subscriptions.unsubscribes", 1);
            Response::Done
        }
        Request::Checkpoint => match core.checkpoint() {
            Ok(_) => Response::Done,
            Err(e) => Response::Err(e.to_string()),
        },
        Request::Stats => {
            let mut stats = core.stats();
            stats.rejected = shared.rejected.load(Ordering::SeqCst);
            Response::Stats(stats)
        }
        Request::ObsStats => Response::ObsStats(core.obs_snapshot()),
        Request::Shutdown => {
            // Graceful: apply what was acknowledged as parked, then stop.
            // Deliberately no checkpoint — the WAL tail carries the last
            // batches so restart exercises the recovery path.
            flow = Flow::Stop { crashed: false };
            match core.flush() {
                Ok(_) => Response::Done,
                Err(e) => Response::Err(e.to_string()),
            }
        }
        Request::Kill => {
            // Simulated crash: no flush, no checkpoint.
            flow = Flow::Stop { crashed: true };
            Response::Done
        }
    };
    out.push(resp);
    flow
}

/// A connection's reader thread: register the connection, spawn its writer,
/// serve requests until the socket closes, then take the connection out of
/// the registry and close its outbox, which ends the writer.
fn connection_loop(sock: TcpStream, tx: &mpsc::Sender<Cmd>, shared: &Shared) {
    let _ = sock.set_nodelay(true);
    let client_id = shared.next_client.fetch_add(1, Ordering::SeqCst);
    let Ok(wsock) = sock.try_clone() else { return };
    let out = Arc::new(Outbox::default());
    {
        let mut conns = shared.conns();
        // Checked under the lock the stop work closes outboxes under: a
        // connection registered after that would never be closed. Dropping
        // the socket here is the client's EOF.
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        conns.insert(client_id, Conn { qids: Vec::new(), out: Arc::clone(&out) });
    }
    thread::spawn({
        let out = Arc::clone(&out);
        move || writer_loop(wsock, &out)
    });
    read_requests(sock, client_id, &out, tx, shared);
    {
        let mut conns = shared.conns();
        conns.remove(&client_id);
        count_subscribers(&shared.obs, &conns);
    }
    shared.admission.lock().expect("admission lock poisoned").forget(client_id);
    out.close();
}

/// Read and route one connection's requests until the socket closes or the
/// server stops. Never waits on a reply: `Hello`, undecodable frames and
/// admission refusals are answered into `out` here, and everything else is
/// handed to the ingest thread, which answers into `out` too.
fn read_requests(
    mut sock: TcpStream,
    client_id: u32,
    out: &Arc<Outbox>,
    tx: &mpsc::Sender<Cmd>,
    shared: &Shared,
) {
    let send = |req| tx.send(Cmd { client_id, req, out: Arc::clone(out) }).is_ok();
    while let Ok(frame) = read_frame(&mut sock) {
        let resp = match Request::decode(&frame) {
            Err(e) => Response::Err(e.to_string()),
            Ok(Request::Hello) => Response::Hello { client_id },
            Ok(Request::Submit(muts)) => {
                let sid = shared.submit_seq.fetch_add(1, Ordering::SeqCst) + 1;
                // Covers this Submit frame's reader-side handling: admission
                // and the hand-off to the ingest queue.
                let _submit_span = shared.obs.span("submit", sid, muts.len() as u64);
                // `decide` reserves the queue slot atomically on admission
                // (fetch_add-then-validate with rollback), so the watermark
                // is a hard bound even with many reader threads racing —
                // there is no check-then-enqueue window here.
                let decision = {
                    let _s = shared.obs.span("admission", sid, muts.len() as u64);
                    shared.admission.lock().expect("admission lock poisoned").decide(
                        client_id,
                        muts.len(),
                        &shared.queue_depth,
                        shared.now_micros(),
                    )
                };
                match decision {
                    Decision::RetryAfter(millis) => {
                        shared.rejected.fetch_add(1, Ordering::SeqCst);
                        shared.obs.counter_add("admission.rejected", 1);
                        Response::RetryAfter { millis }
                    }
                    Decision::Admit => {
                        shared.obs.counter_add("admission.admitted", 1);
                        let depth = shared.queue_depth.load(Ordering::SeqCst);
                        shared.obs.gauge_set("serve.queue_depth", depth as i64);
                        if !send(Request::Submit(muts)) {
                            return; // the ingest thread is gone: the server stopped
                        }
                        continue;
                    }
                }
            }
            Ok(req) => {
                if !send(req) {
                    return;
                }
                continue;
            }
        };
        out.push(resp);
    }
}

/// A connection's writer thread, its sole socket writer: encode and send
/// what the outbox yields until it closes or the socket dies, then shut the
/// socket down, so the client reads EOF and the reader's blocked read
/// returns.
fn writer_loop(mut sock: TcpStream, out: &Outbox) {
    while let Some(resp) = out.pop() {
        if write_frame(&mut sock, &resp.encode()).is_err() {
            break;
        }
    }
    let _ = sock.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// WAL-before-apply: when the append fails, `flush` reports it and the
    /// graph has applied nothing — the submission is still only parked.
    #[test]
    fn wal_failure_leaves_the_graph_unapplied() {
        let dir = std::env::temp_dir().join(format!("amcca-serve-walfail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let builder = StreamingGraph::builder(sdgp_core::BfsAlgo::new(0))
            .vertices(8)
            .chip(amcca_sim::ChipConfig::small_test());
        let (mut core, _) = IngestCore::boot(builder, &dir, 0).unwrap();
        core.submit(&[GraphMutation::AddEdge((0, 1, 1))]).unwrap();
        core.flush().unwrap();
        let (values, live) = (core.sync_values(), core.graph().live_edge_count());

        core.store.break_wal();
        core.submit(&[GraphMutation::AddEdge((1, 2, 1)), GraphMutation::DelEdge((0, 1, 1))])
            .unwrap();
        assert!(matches!(core.flush(), Err(ServeError::Io(_))));
        assert_eq!((core.sync_values(), core.graph().live_edge_count()), (values, live));
        assert_eq!((core.stats().batches, core.pending_ops()), (1, 2));
        assert_eq!(core.store.load_tail().unwrap().len(), 1, "nothing reached the log");
    }

    /// The WAL record `flush` writes for a round — its admitted
    /// submissions in arrival order — re-staged on the log the round was
    /// admitted against, drains to the batch the round drained (same
    /// mutations, same copy addresses) and leaves the same live copies in
    /// the same order. Checked on every epoch of at most five one-mutation
    /// submissions to pair `(0, 1)` with weights 1–3 that the log admits,
    /// over every settled list of at most three copies.
    #[test]
    fn a_wal_record_replays_to_the_round_it_logged() {
        use sdgp_core::graph::{CoalescedBatch, MutationLog};
        use GraphMutation::{AddEdge, DelEdge, UpdateWeight};

        let ops: Vec<GraphMutation> = (1..=3)
            .flat_map(|w| [AddEdge((0, 1, w)), DelEdge((0, 1, w)), UpdateWeight { u: 0, v: 1, w }])
            .collect();
        type Drained = (CoalescedBatch, Vec<((u32, u32, u32), u8)>);
        fn drained(mut log: MutationLog) -> Drained {
            let batch = log.drain();
            (batch, log.live_labeled_edges())
        }
        fn same(a: &Drained, b: &Drained) -> bool {
            a.0.muts == b.0.muts && a.0.addrs == b.0.addrs && a.1 == b.1
        }
        // Depth-first over the admitted epochs extending `round` on `log`.
        fn walk(
            base: &MutationLog,
            log: &MutationLog,
            round: &mut Vec<GraphMutation>,
            ops: &[GraphMutation],
            checked: &mut u64,
        ) {
            if round.len() == 5 {
                return;
            }
            // A refused push leaves `next` as it was, so only an admitted
            // one costs a fresh clone.
            let mut next = log.clone();
            for &m in ops {
                if next.try_push_all(&[m]).is_err() {
                    continue;
                }
                round.push(m);
                walk(base, &next, round, ops, checked);
                let mut replay = base.clone();
                replay.try_push_all(round).expect("an admitted round re-stages");
                let want = drained(std::mem::replace(&mut next, log.clone()));
                assert!(
                    same(&drained(replay), &want),
                    "round {round:?} on {:?}",
                    base.live_edges()
                );
                *checked += 1;
                round.pop();
            }
        }
        let mut settled: Vec<Vec<u32>> = vec![vec![]];
        for len in 1..=3 {
            let longer: Vec<Vec<u32>> = settled
                .iter()
                .filter(|ws| ws.len() == len - 1)
                .flat_map(|ws| (1..=3).map(move |w| [ws.clone(), vec![w]].concat()))
                .collect();
            settled.extend(longer);
        }
        // The settled lists are independent: deal them out over the cores.
        let threads = thread::available_parallelism().map_or(1, |n| n.get());
        let checked: u64 = thread::scope(|scope| {
            let workers: Vec<_> = (0..threads)
                .map(|i| {
                    let (settled, ops) = (&settled, &ops);
                    scope.spawn(move || {
                        let mut checked = 0;
                        for ws in settled.iter().skip(i).step_by(threads) {
                            let mut base = MutationLog::new();
                            let adds: Vec<GraphMutation> =
                                ws.iter().map(|&w| AddEdge((0, 1, w))).collect();
                            base.try_push_all(&adds).unwrap();
                            base.drain();
                            walk(&base, &base, &mut Vec::new(), ops, &mut checked);
                        }
                        checked
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("a worker's rounds replay")).sum()
        });
        assert_eq!((settled.len(), checked), (40, 1_440_522));
    }

    fn delta(qid: u32) -> Response {
        Response::QueryDelta { qid, batch_seq: 1, added: vec![qid], removed: vec![] }
    }

    fn resync(qid: u32) -> Response {
        Response::Resync { qid, batch_seq: 2, results: vec![qid] }
    }

    /// The outbox never drops replies, bounds deltas at
    /// [`MAX_QUEUED_DELTAS`], and the overflow path swaps every queued
    /// delta for the supplied resyncs while keeping replies queued.
    #[test]
    fn outbox_bounds_deltas_and_preserves_replies() {
        let out = Outbox::default();
        assert!(out.push(Response::Submitted));
        for i in 0..MAX_QUEUED_DELTAS {
            assert!(out.push(delta(i as u32)));
        }
        assert!(!out.push(delta(99)), "delta past the bound is refused");
        assert!(out.push(Response::Done), "a reply is never refused");

        out.replace_deltas(vec![resync(9), resync(10)]);
        // Replies survive in order; the 64 queued deltas became 2 resyncs.
        assert_eq!(out.pop(), Some(Response::Submitted));
        assert_eq!(out.pop(), Some(Response::Done));
        assert_eq!(out.pop(), Some(resync(9)));
        assert_eq!(out.pop(), Some(resync(10)));
        // Popping made room again under the bound.
        assert!(out.push(delta(4)));
        assert_eq!(out.pop(), Some(delta(4)));

        out.close();
        assert_eq!(out.pop(), None, "closed and drained");
        // Post-close pushes are silently dropped, not queued.
        assert!(out.push(Response::Done));
        assert!(out.push(delta(6)));
        assert_eq!(out.pop(), None);
    }

    /// A blocked pop wakes on close and returns `None`.
    #[test]
    fn outbox_pop_unblocks_on_close() {
        let out = Arc::new(Outbox::default());
        let waiter = {
            let out = Arc::clone(&out);
            thread::spawn(move || out.pop())
        };
        thread::sleep(std::time::Duration::from_millis(20));
        out.close();
        assert_eq!(waiter.join().unwrap(), None);
    }
}
