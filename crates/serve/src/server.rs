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
//! mid-increment. [`IngestCore::flush`] *reads* the canonical batch the
//! parked submissions coalesce to, appends it to the write-ahead log and
//! syncs, and only then applies it — a failed append leaves the graph
//! unapplied. [`IngestCore::checkpoint`] applies parked submissions first.
//!
//! ## Recovery
//!
//! [`IngestCore::boot`] restores the newest checkpoint (re-converging the
//! fixpoint and verifying it bit-for-bit against the snapshot), then
//! replays only the WAL tail — the canonical batches applied after that
//! checkpoint — through the same stage-and-apply path. Replay of a
//! canonical batch is deterministic, so the recovered fixpoint is
//! bit-identical to the pre-crash one; the recovery proptests in the
//! umbrella crate pin exactly this.
//!
//! ## Threading
//!
//! [`Server`] spawns one reader thread per connection and a single ingest
//! thread. Readers run admission control ([`Admission`]) and either answer
//! `RetryAfter` directly or enqueue the submission to the ingest thread,
//! which coalesces every queued submission into the next increment and
//! acknowledges each one only after that increment converged — a
//! `Submitted` reply means the mutation is durable (WAL) *and* its
//! fixpoint is queryable.
//!
//! ## Subscriptions
//!
//! A connection that sends [`Request::Subscribe`] turns into a **push
//! subscriber**: a dedicated pusher thread becomes the connection's sole
//! socket writer, draining a per-subscriber bounded outbox
//! (`PushChannel`). The ingest thread computes each increment's
//! result-set deltas inside `stream_increment` (incrementally, from the
//! qbits transitions the batch caused) and fans them out **after the batch
//! acks**, so push latency never delays durability acknowledgements.
//! Subscribe and unsubscribe are routed through the ingest thread, which
//! makes the baseline snapshot atomic with the delta stream: a subscriber
//! sees `Subscribed` at increment `s`, then every delta for `s+1, s+2, …`
//! in order. A slow subscriber's outbox never grows without bound —
//! past `MAX_QUEUED_DELTAS` the queued deltas are replaced by one
//! [`Response::Resync`] snapshot per subscribed query.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
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
    /// Mutations across the replayed tail.
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
    since_checkpoint: u64,
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
            since_checkpoint: 0,
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
        core.since_checkpoint = tail_batches as u64;
        core.stats.wal_tail_batches = tail_batches as u64;
        core.stats.live_edges = core.graph.live_edge_count();
        Ok((
            core,
            BootReport { recovered, checkpoint_edges, tail_batches, tail_mutations, tail_queries },
        ))
    }

    /// Re-apply one WAL batch during boot (no WAL append — it is already
    /// on disk).
    fn replay(&mut self, batch: &[GraphMutation]) -> Result<(), ServeError> {
        self.graph
            .stage(batch)
            .map_err(|e| ServeError::WalReplay(format!("{e} (store {:?})", self.store.dir())))?;
        // A WAL batch is already canonical for the state it was logged
        // against, so re-coalescing it is the identity.
        debug_assert!(
            self.graph.staged().eq(batch.iter().copied()),
            "WAL batch must replay verbatim"
        );
        self.graph.apply_staged()?;
        self.stats.batches += 1;
        self.stats.mutations += batch.len() as u64;
        Ok(())
    }

    /// Validate one submission against the graph's log and park it there.
    /// All-or-nothing: on error the log is unchanged and nothing of the
    /// submission survives.
    pub fn submit(&mut self, muts: &[GraphMutation]) -> Result<(), MutationError> {
        self.graph.stage(muts)
    }

    /// Mutations the parked submissions currently coalesce to.
    pub fn pending_ops(&self) -> usize {
        self.graph.staged().count()
    }

    /// Apply the parked submissions as one increment: read their canonical
    /// batch, WAL it, *then* apply, then (on cadence) a checkpoint. Returns
    /// whether an increment actually ran — nothing parked, or a round that
    /// coalesced to nothing, is skipped entirely. On a WAL error the
    /// submissions stay parked and the graph unapplied.
    pub fn flush(&mut self) -> Result<bool, ServeError> {
        let batch: Vec<GraphMutation> = self.graph.staged().collect();
        if !batch.is_empty() {
            // The span covers serialization, the write, and the fsync — the
            // `span.wal_append_ns` histogram is the durability latency.
            let span = self.obs.span("wal_append", self.stats.batches + 1, batch.len() as u64);
            let wal_bytes = self.store.append_batch(&batch)?;
            drop(span);
            self.obs.counter_add("wal.appends", 1);
            self.obs.counter_add("wal.bytes", wal_bytes);
        }
        // A fully annihilated round (add+delete of the same copy) logs and
        // runs nothing; the graph just forgets it.
        if self.graph.apply_staged()?.is_none() {
            return Ok(false);
        }
        self.since_checkpoint += 1;
        self.stats.batches += 1;
        self.stats.mutations += batch.len() as u64;
        self.stats.live_edges = self.graph.live_edge_count();
        self.stats.wal_tail_batches = self.since_checkpoint;
        self.obs.gauge_set("serve.live_edges", self.stats.live_edges as i64);
        self.obs.gauge_set("serve.wal_tail_batches", self.since_checkpoint as i64);
        if self.checkpoint_every > 0 && self.since_checkpoint >= self.checkpoint_every {
            self.checkpoint()?;
        }
        Ok(true)
    }

    /// Snapshot the quiescent graph to disk now, truncating the WAL —
    /// after applying whatever is still parked, which a snapshot would
    /// otherwise list as live edges beside a fixpoint that never saw them.
    /// Returns the checkpoint size in bytes.
    pub fn checkpoint(&mut self) -> Result<u64, ServeError> {
        if self.flush()? && self.since_checkpoint == 0 {
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
        self.since_checkpoint = 0;
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

/// One request on its way to the ingest thread: who sent it and where the
/// answer goes. The reader answers `Hello`, undecodable frames and admission
/// refusals itself; everything else travels as the [`Request`] it decoded to.
struct Cmd {
    client_id: u32,
    req: Request,
    reply: mpsc::SyncSender<Response>,
}

/// Most delta frames a slow subscriber may have queued before the server
/// stops queueing deltas and degrades to a [`Response::Resync`] snapshot
/// per subscribed query (see `PushChannel::push_delta`).
const MAX_QUEUED_DELTAS: usize = 64;

/// A subscriber connection's bounded outbox: encoded response frames
/// drained to the socket by the connection's pusher thread (the sole
/// socket writer once a connection subscribes). Frames come in two
/// classes — request **replies**, which are never dropped, and pushed
/// **deltas**, which are bounded by [`MAX_QUEUED_DELTAS`] and degrade to a
/// resync snapshot on overflow — so a stalled subscriber can slow its own
/// event stream but can never grow server memory without bound or lose a
/// request reply.
struct PushChannel {
    inner: Mutex<Outbox>,
    cv: Condvar,
}

#[derive(Default)]
struct Outbox {
    /// `(droppable, encoded frame)` in send order; `droppable` marks delta
    /// frames, the class the overflow policy may discard.
    frames: VecDeque<(bool, Vec<u8>)>,
    /// Count of droppable frames currently queued.
    deltas: usize,
    closed: bool,
}

impl PushChannel {
    fn new() -> Arc<PushChannel> {
        Arc::new(PushChannel { inner: Mutex::new(Outbox::default()), cv: Condvar::new() })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Outbox> {
        self.inner.lock().expect("outbox lock poisoned")
    }

    /// Enqueue a request reply (never dropped).
    fn push_reply(&self, frame: Vec<u8>) {
        let mut o = self.lock();
        if !o.closed {
            o.frames.push_back((false, frame));
            self.cv.notify_one();
        }
    }

    /// Enqueue a pushed delta; `Err` when the subscriber is at the bound
    /// (the caller degrades to a resync).
    fn push_delta(&self, frame: Vec<u8>) -> Result<(), ()> {
        let mut o = self.lock();
        if o.closed {
            return Ok(()); // disconnecting subscriber: drop silently
        }
        if o.deltas >= MAX_QUEUED_DELTAS {
            return Err(());
        }
        o.deltas += 1;
        o.frames.push_back((true, frame));
        self.cv.notify_one();
        Ok(())
    }

    /// Overflow path: discard every queued delta frame and enqueue `frames`
    /// (one resync snapshot per subscribed query) in their place. Replies
    /// stay queued in order.
    fn replace_deltas(&self, frames: Vec<Vec<u8>>) {
        let mut o = self.lock();
        if o.closed {
            return;
        }
        o.frames.retain(|&(droppable, _)| !droppable);
        o.deltas = frames.len();
        for f in frames {
            o.frames.push_back((true, f));
        }
        self.cv.notify_one();
    }

    /// Close the channel: the pusher drains what is queued, then exits.
    fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }

    /// Blocking pop; `None` once closed and drained.
    fn pop(&self) -> Option<Vec<u8>> {
        let mut o = self.lock();
        loop {
            if let Some((droppable, f)) = o.frames.pop_front() {
                if droppable {
                    o.deltas -= 1;
                }
                return Some(f);
            }
            if o.closed {
                return None;
            }
            o = self.cv.wait(o).expect("outbox lock poisoned");
        }
    }
}

/// One subscriber connection in the registry: which queries it follows and
/// the outbox its frames go through.
struct SubEntry {
    /// Subscribed query ids, sorted ascending.
    qids: Vec<u32>,
    chan: Arc<PushChannel>,
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
    /// Push subscribers by client id. Readers insert on first subscribe and
    /// remove on disconnect; the ingest thread mutates `qids` and fans out
    /// deltas after each flush.
    subs: Mutex<HashMap<u32, SubEntry>>,
}

impl Shared {
    fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// A running ingestion server (module docs). Dropping the handle does not
/// stop it; send [`Request::Shutdown`] or [`Request::Kill`] and
/// [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    ingest: JoinHandle<ServerReport>,
    acceptor: JoinHandle<()>,
    shared: Arc<Shared>,
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
            subs: Mutex::new(HashMap::new()),
        });
        let (tx, rx) = mpsc::channel::<Cmd>();

        let ingest_shared = Arc::clone(&shared);
        let max_coalesce = cfg.max_coalesce.max(1);
        let ingest = thread::spawn(move || {
            let report = ingest_loop(&mut core, &rx, &ingest_shared, max_coalesce);
            ingest_shared.stop.store(true, Ordering::SeqCst);
            // Release the pusher threads: drain what is queued, then exit.
            for (_, entry) in ingest_shared.subs.lock().expect("subs lock poisoned").drain() {
                entry.chan.close();
            }
            report
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

        Ok(Server { addr, ingest, acceptor, shared })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for the serving run to end (a client sent `Shutdown` or
    /// `Kill`) and collect its report.
    pub fn join(self) -> ServerReport {
        let report = self.ingest.join().expect("ingest thread panicked");
        self.shared.stop.store(true, Ordering::SeqCst);
        self.acceptor.join().expect("acceptor thread panicked");
        report
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
    'serve: loop {
        let cmd = match rx.recv() {
            Ok(cmd) => cmd,
            Err(_) => break, // every sender gone: nothing can arrive anymore
        };
        let mut deferred = None;
        let mut round = Vec::new();
        match cmd {
            Cmd { req: Request::Submit(muts), reply, .. } => {
                round.push((muts, reply));
                // Coalesce every submission already waiting into the same
                // increment (one fabric run amortized over all of them).
                while round.len() < max_coalesce {
                    match rx.try_recv() {
                        Ok(Cmd { req: Request::Submit(muts), reply, .. }) => {
                            round.push((muts, reply))
                        }
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
            // been handed to the reply channels — dequeue-to-ack latency.
            let _ack_span = obs.span("ack", bid, round_muts);
            let mut acks = Vec::with_capacity(round.len());
            for (muts, reply) in round {
                let depth = shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
                obs.gauge_set("serve.queue_depth", depth as i64 - 1);
                let validated = {
                    let _s = obs.span("validate", bid, muts.len() as u64);
                    core.submit(&muts)
                };
                match validated {
                    Ok(()) => acks.push(reply),
                    Err(e) => {
                        let _ = reply.send(Response::Err(e.to_string()));
                    }
                }
            }
            match core.flush() {
                Ok(ran) => {
                    // Ack first — push fan-out must never delay durability
                    // acknowledgements — then fan the increment's result
                    // deltas out to subscribers.
                    for reply in acks {
                        let _ = reply.send(Response::Submitted);
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
                    for reply in acks {
                        let _ = reply.send(Response::Err(msg.clone()));
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
/// one [`Response::QueryDelta`] frame per (subscriber, changed subscribed
/// query). A subscriber whose outbox is at its bound gets its queued deltas
/// replaced by one [`Response::Resync`] snapshot per subscribed query
/// instead — bounded memory, and the subscriber's running set stays
/// reconstructible.
fn fanout_deltas<G: VertexAlgo>(core: &mut IngestCore<G>, shared: &Shared) {
    let deltas = core.take_query_deltas();
    if deltas.is_empty() {
        return;
    }
    let batch_seq = core.stats().batches;
    let subs = shared.subs.lock().expect("subs lock poisoned");
    if subs.is_empty() {
        return;
    }
    let obs = core.obs().clone();
    for entry in subs.values() {
        let mut overflowed = false;
        for &qid in &entry.qids {
            let Some(d) = deltas.get(qid as usize) else { continue };
            if d.is_empty() {
                continue;
            }
            let frame = Response::QueryDelta {
                qid,
                batch_seq,
                added: d.added.clone(),
                removed: d.removed.clone(),
            }
            .encode();
            if entry.chan.push_delta(frame).is_err() {
                overflowed = true;
                break;
            }
            obs.counter_add("subscriptions.delta_frames", 1);
        }
        if overflowed {
            let resyncs: Vec<Vec<u8>> = entry
                .qids
                .iter()
                .map(|&qid| {
                    Response::Resync { qid, batch_seq, results: core.query_results(qid) }.encode()
                })
                .collect();
            obs.counter_add("subscriptions.resyncs", resyncs.len() as u64);
            entry.chan.replace_deltas(resyncs);
        }
    }
}

/// Serve one non-submission request between increments and answer it.
fn control<G: VertexAlgo>(core: &mut IngestCore<G>, shared: &Shared, cmd: Cmd) -> Flow {
    let Cmd { client_id, req, reply } = cmd;
    let mut flow = Flow::Continue;
    let resp = match req {
        Request::Submit(_) => unreachable!("submissions are handled in the coalescing round"),
        Request::Hello => Response::Hello { client_id },
        Request::Query => Response::States(core.sync_values()),
        Request::RegisterQueryMulti { pattern, sources } => {
            match core.register_query_multi(&pattern, &sources) {
                Ok(qid) => Response::QueryId { qid },
                Err(e) => Response::Err(e.to_string()),
            }
        }
        Request::QueryResults { qid } => Response::Matches(core.query_results(qid)),
        Request::Subscribe { qid } => {
            // Runs on the ingest thread between increments, so the baseline
            // snapshot is atomic with the delta stream: the subscriber sees
            // this snapshot, then every later increment's delta, in order.
            // The real ack travels through the push channel (enqueued here,
            // in increment order); the reply channel only carries a marker
            // (`Done` = pushed) or an error for the reader to deliver.
            if (qid as usize) >= core.graph().registered_queries().len() {
                Response::Err(format!("unknown query id {qid}"))
            } else {
                let mut subs = shared.subs.lock().expect("subs lock poisoned");
                match subs.get_mut(&client_id) {
                    Some(entry) => {
                        if !entry.qids.contains(&qid) {
                            entry.qids.push(qid);
                            entry.qids.sort_unstable();
                        }
                        let ack = Response::Subscribed {
                            qid,
                            batch_seq: core.stats().batches,
                            results: core.query_results(qid),
                        };
                        entry.chan.push_reply(ack.encode());
                        shared.obs.counter_add("subscriptions.subscribes", 1);
                        Response::Done
                    }
                    None => Response::Err("subscriber disconnected".into()),
                }
            }
        }
        Request::Unsubscribe { qid } => {
            // Same marker protocol as Subscribe: the `Done` ack is enqueued
            // on the push channel *behind* any deltas already queued, so the
            // client knows no further frames for `qid` follow the ack.
            let mut subs = shared.subs.lock().expect("subs lock poisoned");
            match subs.get_mut(&client_id) {
                Some(entry) => {
                    entry.qids.retain(|&q| q != qid);
                    entry.chan.push_reply(Response::Done.encode());
                    shared.obs.counter_add("subscriptions.unsubscribes", 1);
                    Response::Done
                }
                None => Response::Err("not a subscriber".into()),
            }
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
    let _ = reply.send(resp);
    flow
}

fn connection_loop(mut sock: TcpStream, tx: &mpsc::Sender<Cmd>, shared: &Shared) {
    let _ = sock.set_nodelay(true);
    let client_id = shared.next_client.fetch_add(1, Ordering::SeqCst);
    // Once the connection subscribes, its pusher thread is the sole socket
    // writer and every reply below goes through the outbox instead.
    let mut push: Option<Arc<PushChannel>> = None;
    let cleanup = |shared: &Shared, push: &Option<Arc<PushChannel>>| {
        if let Some(chan) = push {
            let mut subs = shared.subs.lock().expect("subs lock poisoned");
            subs.remove(&client_id);
            shared.obs.gauge_set("serve.subscribers", subs.len() as i64);
            chan.close();
        }
    };
    loop {
        let frame = match read_frame(&mut sock) {
            Ok(f) => f,
            Err(_) => {
                cleanup(shared, &push);
                return; // disconnect
            }
        };
        let req = Request::decode(&frame);
        // Entering push mode happens *before* the Subscribe command is sent,
        // so the ingest thread always finds the registry entry and outbox.
        if let Ok(Request::Subscribe { .. }) = req {
            if push.is_none() {
                let Ok(wsock) = sock.try_clone() else {
                    cleanup(shared, &push);
                    return;
                };
                let chan = PushChannel::new();
                {
                    let mut subs = shared.subs.lock().expect("subs lock poisoned");
                    subs.insert(client_id, SubEntry { qids: Vec::new(), chan: Arc::clone(&chan) });
                    shared.obs.gauge_set("serve.subscribers", subs.len() as i64);
                }
                thread::spawn({
                    let chan = Arc::clone(&chan);
                    move || pusher_loop(wsock, &chan)
                });
                push = Some(chan);
            }
        }
        let stopped = || Response::Err("server stopped".into());
        let resp = match req {
            Err(e) => Some(Response::Err(e.to_string())),
            Ok(Request::Hello) => Some(Response::Hello { client_id }),
            Ok(Request::Submit(muts)) => Some({
                let sid = shared.submit_seq.fetch_add(1, Ordering::SeqCst) + 1;
                // Covers the whole server-side handling of this Submit
                // frame: admission, queue wait, validation, WAL, increment,
                // and the reply arriving back from the ingest thread.
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
                        roundtrip(tx, client_id, Request::Submit(muts)).unwrap_or_else(|| {
                            // Never dequeued: release the reserved slot.
                            shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
                            stopped()
                        })
                    }
                }
            }),
            Ok(req) => {
                // For Subscribe / Unsubscribe `Done` is the pushed-ack
                // marker: the real frame went through the outbox, in
                // increment order, and nothing more is owed here.
                let pushed = matches!(req, Request::Subscribe { .. } | Request::Unsubscribe { .. });
                let resp = roundtrip(tx, client_id, req).unwrap_or_else(stopped);
                (!(pushed && resp == Response::Done)).then_some(resp)
            }
        };
        if let Some(resp) = resp {
            let sent = match &push {
                Some(chan) => {
                    chan.push_reply(resp.encode());
                    Ok(())
                }
                None => write_frame(&mut sock, &resp.encode()),
            };
            if sent.is_err() {
                cleanup(shared, &push);
                return;
            }
        }
    }
}

/// Drain a subscriber's outbox to its socket until the channel closes or
/// the socket dies. The sole writer for its connection from the first
/// Subscribe on.
fn pusher_loop(mut sock: TcpStream, chan: &PushChannel) {
    while let Some(frame) = chan.pop() {
        if write_frame(&mut sock, &frame).is_err() {
            return;
        }
    }
}

/// Send a request to the ingest thread and wait for its reply; `None` if
/// the server already stopped.
fn roundtrip(tx: &mpsc::Sender<Cmd>, client_id: u32, req: Request) -> Option<Response> {
    let (reply, reply_rx) = mpsc::sync_channel(1);
    tx.send(Cmd { client_id, req, reply }).ok()?;
    reply_rx.recv().ok()
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

    /// The outbox never drops replies, bounds deltas at
    /// [`MAX_QUEUED_DELTAS`], and the overflow path swaps every queued
    /// delta for the supplied resync frames while keeping replies queued.
    #[test]
    fn outbox_bounds_deltas_and_preserves_replies() {
        let chan = PushChannel::new();
        chan.push_reply(vec![0]);
        for i in 0..MAX_QUEUED_DELTAS {
            chan.push_delta(vec![1, i as u8]).unwrap();
        }
        assert!(chan.push_delta(vec![2]).is_err(), "delta past the bound is refused");
        chan.push_reply(vec![3]);

        chan.replace_deltas(vec![vec![9], vec![10]]);
        // Replies survive in order; the 64 queued deltas became 2 resyncs.
        assert_eq!(chan.pop(), Some(vec![0]));
        assert_eq!(chan.pop(), Some(vec![3]));
        assert_eq!(chan.pop(), Some(vec![9]));
        assert_eq!(chan.pop(), Some(vec![10]));
        // Popping made room again under the bound.
        chan.push_delta(vec![4]).unwrap();
        assert_eq!(chan.pop(), Some(vec![4]));

        chan.close();
        assert_eq!(chan.pop(), None, "closed and drained");
        // Post-close pushes are silently dropped, not queued.
        chan.push_reply(vec![5]);
        assert_eq!(chan.push_delta(vec![6]), Ok(()));
        assert_eq!(chan.pop(), None);
    }

    /// A blocked pop wakes on close and returns `None`.
    #[test]
    fn outbox_pop_unblocks_on_close() {
        let chan = PushChannel::new();
        let waiter = {
            let chan = Arc::clone(&chan);
            thread::spawn(move || chan.pop())
        };
        thread::sleep(std::time::Duration::from_millis(20));
        chan.close();
        assert_eq!(waiter.join().unwrap(), None);
    }
}
