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
//! mid-increment. [`IngestCore::flush`] applies the canonical batch the
//! round's submissions coalesce to, then appends the submissions, in
//! arrival order, to the write-ahead log and syncs; the round is
//! acknowledged after both. A round that fails to apply is never logged, so
//! no boot replays it into the same failure. [`IngestCore::checkpoint`]
//! applies parked submissions first.
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
//! [`Server`] runs an acceptor thread, an ingest thread and, per
//! connection, a reader and a writer thread. A single-threaded `Dispatcher`
//! owns the [`IngestCore`] and the connection registry; the ingest thread
//! only feeds it, in channel order, the events the readers send — a
//! connection's `Open` (its registry entry), its requests, its `Close` —
//! and a round boundary whenever the channel runs empty. The writer is the
//! connection's sole socket writer: it drains the connection's `Outbox`,
//! through which every response goes — request replies, pushed deltas and
//! resyncs. The reader never waits on a reply: it answers `Hello`,
//! undecodable frames and admission refusals ([`Admission`]'s `RetryAfter`)
//! into the outbox itself and hands every other request to the dispatcher,
//! which answers into the same outbox. The dispatcher coalesces every
//! queued submission into the next increment and acknowledges each one
//! only after that increment converged — a `Submitted` reply means the
//! mutation is durable (WAL) *and* its fixpoint is queryable.
//!
//! ## Subscriptions
//!
//! The graph computes each increment's result-set deltas inside
//! `stream_increment` (incrementally, from the qbits transitions the batch
//! caused) and the dispatcher queues them in the subscribers' outboxes
//! **after the batch acks**, so push latency never delays durability
//! acknowledgements. Subscribe and unsubscribe edit the registry between
//! increments and answer through the outbox the deltas use, which makes the
//! baseline snapshot atomic with the delta stream: a subscriber sees
//! `Subscribed` at increment `s`, then every delta for `s+1, s+2, …` in
//! order, and `Unsubscribe`'s `Done` queues behind every delta already
//! queued. A slow subscriber's outbox never grows without bound — past
//! `MAX_QUEUED_DELTAS` the queued deltas are replaced by one
//! [`Response::Resync`] snapshot per subscribed query. A registry entry
//! closes its outbox when dropped: on the connection's `Close`, when the
//! dispatcher stops — by request or by a panic — and, for an `Open` still
//! queued when the channel goes, with the channel. Each writer then sends
//! what is queued and shuts its socket down, so every client, subscribed or
//! idle, reads EOF and every reader returns.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use amcca_obs::Obs;
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

    /// Apply the parked submissions as one increment, *then* WAL them, then
    /// (on cadence) a checkpoint. Returns whether an increment ran —
    /// nothing parked, or a round that coalesced to nothing, logs and runs
    /// nothing. A round that fails to apply is never logged; after a WAL
    /// error the graph is ahead of the log and the caller must stop (the
    /// server does), so a boot recovers exactly the earlier rounds.
    pub fn flush(&mut self) -> Result<bool, ServeError> {
        let n_muts = self.pending_ops() as u64;
        let admitted = std::mem::take(&mut self.admitted);
        if self.graph.apply_staged()?.is_none() {
            return Ok(false);
        }
        // The span covers serialization, the write, and the fsync — the
        // `span.wal_append_ns` histogram is the durability latency.
        let span = self.obs.span("wal_append", self.stats.batches + 1, n_muts);
        let wal_bytes = self.store.append_batch(&admitted)?;
        drop(span);
        self.obs.counter_add("wal.appends", 1);
        self.obs.counter_add("wal.bytes", wal_bytes);
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

    /// Register a standing path query anchored at several sources (one
    /// compiled automaton, one state plane; results are the union over
    /// sources) on the graph, *then* WAL it, so a refused query never
    /// reaches the log and an acknowledged one is recovered. A WAL error
    /// leaves the graph ahead of the log, as in [`Self::flush`]. Returns the
    /// query id.
    pub fn register_query_multi(
        &mut self,
        pattern: &str,
        sources: &[u32],
    ) -> Result<u32, ServeError> {
        let qid = self.graph.register_query_multi(pattern, sources).map_err(ServeError::Query)?;
        let wal_bytes = self.store.append_register(pattern, sources)?;
        self.obs.counter_add("wal.appends", 1);
        self.obs.counter_add("wal.bytes", wal_bytes);
        Ok(qid)
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

/// What a connection's reader sends the dispatcher, in this order: the
/// connection's `Open`, its requests, then its `Close`.
enum Event {
    /// The connection opened: its client id and registry entry.
    Open(u32, Conn),
    /// A request from the connection, answered into its outbox.
    Request(u32, Request),
    /// The connection's socket closed.
    Close(u32),
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
    /// when a registry entry drops, also while the dispatcher unwinds, so it
    /// must not panic: a poisoned lock still takes the flag.
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

/// One open connection's registry entry: the queries it follows and the
/// outbox every response to it goes through. Dropping the entry closes the
/// outbox, which ends the connection's writer.
struct Conn {
    /// Subscribed query ids, sorted ascending.
    qids: Vec<u32>,
    out: Arc<Outbox>,
}

impl Drop for Conn {
    fn drop(&mut self) {
        self.out.close();
    }
}

/// State shared between the reader threads and the dispatcher.
struct Shared {
    admission: Mutex<Admission>,
    /// Submissions admitted but not yet dequeued by the dispatcher — the
    /// global backpressure watermark input.
    queue_depth: AtomicUsize,
    rejected: AtomicU64,
    /// Submission sequence — the batch id carried by reader-side spans
    /// (`submit`, `admission`).
    submit_seq: AtomicU64,
    epoch: Instant,
    /// Clone of the core's observability handle, for reader-side spans.
    obs: Obs,
}

impl Shared {
    fn new(admission: AdmissionConfig, obs: Obs) -> Shared {
        Shared {
            admission: Mutex::new(Admission::new(admission)),
            queue_depth: AtomicUsize::new(0),
            rejected: AtomicU64::new(0),
            submit_seq: AtomicU64::new(0),
            epoch: Instant::now(),
            obs,
        }
    }

    fn now_micros(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

/// A running ingestion server (module docs). Dropping the handle does not
/// stop it; send [`Request::Shutdown`] or [`Request::Kill`] and
/// [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    /// The acceptor thread, which joins the ingest thread once that has
    /// finished and returns what the join returned.
    acceptor: JoinHandle<thread::Result<ServerReport>>,
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
        core: IngestCore<G>,
        cfg: ServeConfig,
        listener: TcpListener,
    ) -> io::Result<Server> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared::new(cfg.admission, core.obs().clone()));
        let (tx, rx) = mpsc::channel::<Event>();
        let mut dispatcher = Dispatcher::new(core, Arc::clone(&shared), cfg.max_coalesce);
        let ingest = thread::spawn(move || {
            let crashed = feed(&mut dispatcher, &rx).break_value().unwrap_or(false);
            ServerReport { stats: dispatcher.stats(), crashed }
        });
        // The acceptor numbers the connections and starts each one's reader
        // until the ingest thread has finished, then joins it. An accept
        // error — none pending, or no descriptor left for a new socket —
        // only backs off: the listener serves on once it clears.
        let acceptor = thread::spawn(move || {
            let mut client_id = 0u32;
            while !ingest.is_finished() {
                match listener.accept() {
                    Ok((sock, _)) => {
                        client_id = client_id.wrapping_add(1);
                        let (tx, shared) = (tx.clone(), Arc::clone(&shared));
                        thread::spawn(move || connection_loop(sock, client_id, &tx, &shared));
                    }
                    Err(_) => thread::sleep(Duration::from_millis(2)),
                }
            }
            // With the acceptor's sender gone, the ingest thread also stops
            // once every reader has.
            drop(tx);
            ingest.join()
        });
        Ok(Server { addr, acceptor })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for the serving run to end (a client sent `Shutdown` or
    /// `Kill`) and collect its report.
    pub fn join(self) -> ServerReport {
        self.acceptor.join().expect("acceptor thread panicked").expect("ingest thread panicked")
    }
}

/// The ingest thread's loop: feed `dispatcher` every event in channel
/// order, with a round boundary whenever the channel is empty, until it
/// stops (`Break(crashed)`) or every sender is gone.
fn feed<G: VertexAlgo>(
    dispatcher: &mut Dispatcher<G>,
    rx: &mpsc::Receiver<Event>,
) -> ControlFlow<bool> {
    loop {
        let event = match rx.try_recv() {
            Ok(event) => event,
            Err(_) => {
                dispatcher.end_round()?;
                // `recv` fails once every sender is gone: nothing can
                // arrive anymore.
                let Ok(event) = rx.recv() else { return ControlFlow::Continue(()) };
                event
            }
        };
        dispatcher.dispatch(event)?;
    }
}

/// The serving state machine (module docs): the [`IngestCore`], the
/// connection registry, and the round being coalesced. It takes one event
/// at a time and has no lock, channel, thread or socket of its own; every
/// response leaves through a registered connection's outbox, and a
/// `Break(crashed)` from any of its methods stops the server.
struct Dispatcher<G: VertexAlgo> {
    core: IngestCore<G>,
    /// Every open connection by client id.
    conns: HashMap<u32, Conn>,
    /// The submissions of the round being coalesced, with their senders, in
    /// arrival order.
    round: Vec<(u32, Vec<GraphMutation>)>,
    max_coalesce: usize,
    shared: Arc<Shared>,
}

impl<G: VertexAlgo> Dispatcher<G> {
    fn new(core: IngestCore<G>, shared: Arc<Shared>, max_coalesce: usize) -> Self {
        let max_coalesce = max_coalesce.max(1);
        Dispatcher { core, conns: HashMap::new(), round: Vec::new(), max_coalesce, shared }
    }

    /// Take one event. A submission joins the round (one fabric run is
    /// amortized over every submission already waiting), which ends once it
    /// holds `max_coalesce` submissions; any other request ends the round
    /// first, so it runs between increments.
    fn dispatch(&mut self, event: Event) -> ControlFlow<bool> {
        match event {
            Event::Open(client_id, conn) => {
                self.conns.insert(client_id, conn);
            }
            Event::Request(client_id, Request::Submit(muts)) => {
                self.round.push((client_id, muts));
                if self.round.len() >= self.max_coalesce {
                    return self.end_round();
                }
            }
            Event::Request(client_id, req) => {
                self.end_round()?;
                return self.control(client_id, req);
            }
            Event::Close(client_id) => {
                self.conns.remove(&client_id);
                self.count_subscribers();
            }
        }
        ControlFlow::Continue(())
    }

    /// Queue `resp` for `client_id`, unless that connection has closed.
    fn reply(&self, client_id: u32, resp: Response) {
        if let Some(conn) = self.conns.get(&client_id) {
            conn.out.push(resp);
        }
    }

    /// The round boundary: validate the round's submissions, apply them as
    /// one increment, acknowledge each, then fan the increment's result
    /// deltas out to subscribers.
    fn end_round(&mut self) -> ControlFlow<bool> {
        if self.round.is_empty() {
            return ControlFlow::Continue(());
        }
        let round = std::mem::take(&mut self.round);
        let obs = self.core.obs().clone();
        let bid = self.core.stats().batches + 1;
        let round_muts: u64 = round.iter().map(|(_, m)| m.len() as u64).sum();
        // The `ack` span closes when this round's acknowledgements have
        // been queued in the senders' outboxes — dequeue-to-ack latency.
        let _ack_span = obs.span("ack", bid, round_muts);
        let mut acks = Vec::with_capacity(round.len());
        for (client_id, muts) in round {
            let depth = self.shared.queue_depth.fetch_sub(1, Ordering::SeqCst);
            obs.gauge_set("serve.queue_depth", depth as i64 - 1);
            let validated = {
                let _s = obs.span("validate", bid, muts.len() as u64);
                self.core.submit(&muts)
            };
            match validated {
                Ok(()) => acks.push(client_id),
                Err(e) => self.reply(client_id, Response::Err(e.to_string())),
            }
        }
        match self.core.flush() {
            Ok(ran) => {
                // Ack first — push fan-out must never delay durability
                // acknowledgements — then fan the deltas out.
                for client_id in acks {
                    self.reply(client_id, Response::Submitted);
                }
                if ran {
                    self.fanout_deltas();
                }
                ControlFlow::Continue(())
            }
            Err(e) => {
                // Fabric or durability failure: the acknowledged state on
                // disk is still consistent, but the graph may be ahead of
                // it, so this process must not keep accepting work.
                let msg = format!("ingest failed: {e}");
                for client_id in acks {
                    self.reply(client_id, Response::Err(msg.clone()));
                }
                ControlFlow::Break(true)
            }
        }
    }

    /// Fan the most recent increment's result deltas out to every
    /// subscriber: one [`Response::QueryDelta`] per (subscriber, changed
    /// subscribed query). A subscriber whose outbox is at its bound gets its
    /// queued deltas replaced by one [`Response::Resync`] snapshot per
    /// subscribed query instead — bounded memory, and the subscriber's
    /// running set stays reconstructible.
    fn fanout_deltas(&mut self) {
        let deltas = self.core.take_query_deltas();
        if deltas.is_empty() {
            return;
        }
        let batch_seq = self.core.stats().batches;
        let obs = self.core.obs();
        for conn in self.conns.values() {
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
                    .map(|&qid| Response::Resync {
                        qid,
                        batch_seq,
                        results: self.core.query_results(qid),
                    })
                    .collect();
                obs.counter_add("subscriptions.resyncs", resyncs.len() as u64);
                conn.out.replace_deltas(resyncs);
            }
        }
    }

    /// Serve one non-submission request between increments and queue its
    /// answer in the sender's outbox.
    fn control(&mut self, client_id: u32, req: Request) -> ControlFlow<bool> {
        let mut flow = ControlFlow::Continue(());
        let resp = match req {
            Request::Submit(_) | Request::Hello => unreachable!("answered before the control path"),
            Request::Query => Response::States(self.core.sync_values()),
            Request::RegisterQueryMulti { pattern, sources } => {
                match self.core.register_query_multi(&pattern, &sources) {
                    Ok(qid) => Response::QueryId { qid },
                    Err(e @ ServeError::Query(_)) => Response::Err(e.to_string()),
                    Err(e) => {
                        // A failed append leaves the graph ahead of the log.
                        flow = ControlFlow::Break(true);
                        Response::Err(e.to_string())
                    }
                }
            }
            Request::QueryResults { qid } | Request::Subscribe { qid }
                if (qid as usize) >= self.core.graph().registered_queries().len() =>
            {
                Response::Err(format!("unknown query id {qid}"))
            }
            Request::QueryResults { qid } => Response::Matches(self.core.query_results(qid)),
            Request::Subscribe { qid } => {
                // Answered between increments through the outbox the deltas
                // use, so the baseline snapshot is atomic with the delta
                // stream: the subscriber sees this snapshot, then every
                // later increment's delta, in order.
                if let Some(conn) = self.conns.get_mut(&client_id) {
                    if let Err(at) = conn.qids.binary_search(&qid) {
                        conn.qids.insert(at, qid);
                    }
                }
                self.count_subscribers();
                self.core.obs().counter_add("subscriptions.subscribes", 1);
                Response::Subscribed {
                    qid,
                    batch_seq: self.core.stats().batches,
                    results: self.core.query_results(qid),
                }
            }
            Request::Unsubscribe { qid } => {
                // The `Done` queues behind any deltas already queued, so the
                // client knows no further frames for `qid` follow it.
                if let Some(conn) = self.conns.get_mut(&client_id) {
                    conn.qids.retain(|&q| q != qid);
                }
                self.count_subscribers();
                self.core.obs().counter_add("subscriptions.unsubscribes", 1);
                Response::Done
            }
            Request::Checkpoint => match self.core.checkpoint() {
                Ok(_) => Response::Done,
                Err(e) => Response::Err(e.to_string()),
            },
            Request::Stats => Response::Stats(self.stats()),
            Request::ObsStats => Response::ObsStats(self.core.obs().snapshot()),
            Request::Shutdown => {
                // Graceful: every round is applied before a control request
                // runs, so nothing is parked. Deliberately no checkpoint —
                // the WAL tail carries the last batches so restart
                // exercises the recovery path.
                debug_assert!(self.core.pending_ops() == 0);
                flow = ControlFlow::Break(false);
                Response::Done
            }
            Request::Kill => {
                // Simulated crash: no flush, no checkpoint.
                flow = ControlFlow::Break(true);
                Response::Done
            }
        };
        self.reply(client_id, resp);
        flow
    }

    /// Set the `serve.subscribers` gauge: connections following at least
    /// one query.
    fn count_subscribers(&self) {
        let n = self.conns.values().filter(|c| !c.qids.is_empty()).count();
        self.core.obs().gauge_set("serve.subscribers", n as i64);
    }

    /// Current counters, with the readers' admission refusals.
    fn stats(&self) -> ServerStats {
        ServerStats { rejected: self.shared.rejected.load(Ordering::SeqCst), ..self.core.stats() }
    }
}

/// A connection's reader thread: open the connection with the dispatcher,
/// spawn its writer, serve requests until the socket closes, then close
/// the connection.
fn connection_loop(sock: TcpStream, client_id: u32, tx: &mpsc::Sender<Event>, shared: &Shared) {
    let _ = sock.set_nodelay(true);
    let Ok(wsock) = sock.try_clone() else { return };
    let out = Arc::new(Outbox::default());
    let conn = Conn { qids: Vec::new(), out: Arc::clone(&out) };
    if tx.send(Event::Open(client_id, conn)).is_err() {
        // The server stopped: dropping the socket is the client's EOF.
        return;
    }
    thread::spawn({
        let out = Arc::clone(&out);
        move || writer_loop(wsock, &out)
    });
    read_requests(sock, client_id, &out, tx, shared);
    let _ = tx.send(Event::Close(client_id));
    shared.admission.lock().expect("admission lock poisoned").forget(client_id);
}

/// Read and route one connection's requests until the socket closes or the
/// server stops. Never waits on a reply: `Hello`, undecodable frames and
/// admission refusals are answered into `out` here, and everything else is
/// handed to the dispatcher, which answers into `out` too.
fn read_requests(
    mut sock: TcpStream,
    client_id: u32,
    out: &Outbox,
    tx: &mpsc::Sender<Event>,
    shared: &Shared,
) {
    let send = |req| tx.send(Event::Request(client_id, req)).is_ok();
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
                        if !send(Request::Submit(muts)) {
                            return; // the dispatcher is gone: the server stopped
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

    fn builder() -> GraphBuilder<sdgp_core::BfsAlgo> {
        StreamingGraph::builder(sdgp_core::BfsAlgo::new(0))
            .vertices(8)
            .chip(amcca_sim::ChipConfig::small_test())
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("amcca-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Apply, then log: when the append fails, `flush` reports it and the
    /// round is not durable — a boot of the same store recovers exactly the
    /// earlier round's fixpoint and live edges, and nothing of the failed
    /// one.
    #[test]
    fn a_failed_append_is_never_recovered() {
        let dir = tmp_dir("walfail");
        let (mut core, _) = IngestCore::boot(builder(), &dir, 0).unwrap();
        core.submit(&[GraphMutation::AddEdge((0, 1, 1))]).unwrap();
        core.flush().unwrap();
        let values = core.sync_values();
        let live = core.graph().live_labeled_edges();

        core.store.break_wal();
        core.submit(&[GraphMutation::AddEdge((1, 2, 1)), GraphMutation::DelEdge((0, 1, 1))])
            .unwrap();
        assert!(matches!(core.flush(), Err(ServeError::Io(_))));
        assert_eq!(core.stats().batches, 1, "the failed round is not counted");
        assert_eq!(core.store.load_tail().unwrap().len(), 1, "nothing reached the log");
        drop(core);

        let (core, report) = IngestCore::boot(builder(), &dir, 0).unwrap();
        assert_eq!(report.tail_batches, 1);
        assert_eq!(core.sync_values(), values);
        assert_eq!(core.graph().live_labeled_edges(), live);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A dispatcher over a fresh store in `dir`, observability on.
    fn dispatcher<G: VertexAlgo>(builder: GraphBuilder<G>, dir: &Path) -> Dispatcher<G> {
        let (core, _) = IngestCore::boot(builder.obs(Obs::enabled()), dir, 0).unwrap();
        let shared = Arc::new(Shared::new(AdmissionConfig::default(), core.obs().clone()));
        Dispatcher::new(core, shared, ServeConfig::default().max_coalesce)
    }

    /// A registry entry and the outbox it closes.
    fn entry() -> (Conn, Arc<Outbox>) {
        let out = Arc::new(Outbox::default());
        (Conn { qids: Vec::new(), out: Arc::clone(&out) }, out)
    }

    /// Open connection `client_id` on `d`; its outbox.
    fn open<G: VertexAlgo>(d: &mut Dispatcher<G>, client_id: u32) -> Arc<Outbox> {
        let (conn, out) = entry();
        assert!(d.dispatch(Event::Open(client_id, conn)).is_continue());
        out
    }

    /// `req` from `client_id`, as its reader sends it: an admitted
    /// submission holds a queue slot.
    fn request<G: VertexAlgo>(d: &mut Dispatcher<G>, client_id: u32, req: Request) -> Event {
        if matches!(req, Request::Submit(_)) {
            d.shared.queue_depth.fetch_add(1, Ordering::SeqCst);
        }
        Event::Request(client_id, req)
    }

    /// Everything queued in `out`, taken without blocking, and whether it
    /// is closed.
    fn take(out: &Outbox) -> (Vec<Response>, bool) {
        let mut q = out.lock();
        q.deltas = 0;
        (q.responses.drain(..).collect(), q.closed)
    }

    /// A registration whose WAL append fails answers `Err` and stops the
    /// server as crashed; a refused pattern answers `Err` and keeps it
    /// serving.
    #[test]
    fn a_failed_registration_append_stops_the_server() {
        let dir = tmp_dir("regfail");
        let mut d = dispatcher(builder(), &dir);
        let out = open(&mut d, 1);
        let register = |d: &mut Dispatcher<_>, pattern: &str| {
            let req = Request::RegisterQueryMulti { pattern: pattern.into(), sources: vec![0] };
            d.dispatch(Event::Request(1, req))
        };
        assert!(register(&mut d, "a(").is_continue(), "a refused pattern keeps serving");
        d.core.store.break_wal();
        assert_eq!(register(&mut d, "a*"), ControlFlow::Break(true));
        let (resps, _) = take(&out);
        assert!(matches!(resps[..], [Response::Err(_), Response::Err(_)]), "{resps:?}");
        assert!(d.core.store.load_tail().unwrap().is_empty(), "nothing reached the log");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A query id no registration gave answers `Err` to a poll and to a
    /// subscription alike, so a client can tell it from a registered query
    /// with no results.
    #[test]
    fn an_unknown_query_id_answers_err() {
        let dir = tmp_dir("unknownqid");
        let mut d = dispatcher(builder(), &dir);
        let out = open(&mut d, 1);
        let register = Request::RegisterQueryMulti { pattern: "a".into(), sources: vec![0] };
        for req in [
            register,
            Request::QueryResults { qid: 0 },
            Request::QueryResults { qid: 1 },
            Request::Subscribe { qid: 1 },
        ] {
            assert!(d.dispatch(Event::Request(1, req)).is_continue());
        }
        let unknown = Response::Err("unknown query id 1".into());
        let want =
            [Response::QueryId { qid: 0 }, Response::Matches(vec![]), unknown.clone(), unknown];
        assert_eq!(take(&out), (want.to_vec(), false));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A subscriber that never reads keeps every reply, in order, while its
    /// queued deltas degrade to one `Resync` per subscribed query whenever
    /// they reach the bound: the result sets it can rebuild from what it was
    /// sent still equal the polled ones, and `subscriptions.resyncs` counts
    /// every resync sent.
    #[test]
    fn a_stalled_subscriber_gets_resyncs_and_every_reply() {
        use GraphMutation::{AddLabeledEdge, DelEdge};
        let dir = tmp_dir("overflow");
        let mut d = dispatcher(builder(), &dir);
        let out = open(&mut d, 1);
        let mut want = Vec::new();
        for (qid, pattern) in [(0, "a"), (1, "b")] {
            let reg = Request::RegisterQueryMulti { pattern: pattern.into(), sources: vec![0] };
            for req in [reg, Request::Subscribe { qid }] {
                assert!(d.dispatch(Event::Request(1, req)).is_continue());
            }
            want.push(Response::QueryId { qid });
            want.push(Response::Subscribed { qid, batch_seq: 0, results: vec![] });
        }
        // Each round toggles both queries' results, so it pushes two
        // deltas: rounds 33 and 65 find the 64-delta bound reached.
        let rounds = 71;
        for round in 0..rounds {
            let muts = if round % 2 == 0 {
                vec![AddLabeledEdge((0, 1, 1), 1), AddLabeledEdge((0, 2, 1), 2)]
            } else {
                vec![DelEdge((0, 1, 1)), DelEdge((0, 2, 1))]
            };
            let submit = request(&mut d, 1, Request::Submit(muts));
            assert!(d.dispatch(submit).is_continue());
            assert!(d.end_round().is_continue());
            want.push(Response::Submitted);
        }

        let (queued, closed) = take(&out);
        assert!(!closed);
        let (deltas, replies): (Vec<Response>, Vec<Response>) =
            queued.into_iter().partition(is_delta);
        assert_eq!(replies, want, "every reply, in order");
        let resynced: Vec<u32> = deltas
            .iter()
            .map_while(|r| match r {
                Response::Resync { qid, .. } => Some(*qid),
                _ => None,
            })
            .collect();
        assert_eq!(resynced, [0, 1], "the queued deltas became one resync per query");
        let mut sets = [Vec::new(), Vec::new()];
        for resp in deltas {
            match resp {
                Response::Resync { qid, results, .. } => sets[qid as usize] = results,
                Response::QueryDelta { qid, added, removed, .. } => {
                    let set = &mut sets[qid as usize];
                    set.retain(|v| !removed.contains(v));
                    set.extend(added);
                    set.sort_unstable();
                }
                other => panic!("not a delta: {other:?}"),
            }
        }
        assert_eq!(sets, [vec![1], vec![2]]);
        assert_eq!(sets, [d.core.query_results(0), d.core.query_results(1)]);
        let snap = d.core.obs().snapshot();
        assert_eq!(snap.counter("subscriptions.resyncs"), 4, "two overflows, two queries");
        assert_eq!(snap.gauge("serve.queue_depth"), Some(0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Inserting an edge of this weight panics [`PanickyBfs`].
    const POISON_W: u32 = 99;

    /// BFS whose insert handler panics on an edge of weight [`POISON_W`].
    #[derive(Clone, Copy)]
    struct PanickyBfs(sdgp_core::BfsAlgo);

    impl VertexAlgo for PanickyBfs {
        type State = u64;

        const NAME: &'static str = "panicky-bfs";

        fn fork(&self) -> Self {
            *self
        }

        fn root_state(&self, vid: u32) -> u64 {
            self.0.root_state(vid)
        }

        fn ghost_state(&self, vid: u32) -> u64 {
            self.0.ghost_state(vid)
        }

        fn improve(&self, s: &mut u64, incoming: u64) -> bool {
            self.0.improve(s, incoming)
        }

        fn along_edge(&self, v: u64, e: &sdgp_core::rpvo::Edge) -> u64 {
            assert_ne!(e.w, POISON_W, "marked insert");
            self.0.along_edge(v, e)
        }

        fn sync_value(&self, s: &u64) -> Option<u64> {
            self.0.sync_value(s)
        }
    }

    /// Whatever stops the dispatcher — `Kill`, `Shutdown`, or a round whose
    /// increment panics — closes every registered outbox, subscribed and
    /// idle alike, and an `Open` still queued in the channel then is closed
    /// with the channel.
    #[test]
    fn every_stop_closes_every_outbox() {
        let poison = Request::Submit(vec![GraphMutation::AddEdge((0, 1, POISON_W))]);
        let stops = [
            ("kill", vec![Request::Kill], Some(ControlFlow::Break(true))),
            ("shutdown", vec![Request::Shutdown], Some(ControlFlow::Break(false))),
            ("panic", vec![poison, Request::Query], None),
        ];
        for (tag, stop, stopped) in stops {
            let dir = tmp_dir(tag);
            let builder = StreamingGraph::builder(PanickyBfs(sdgp_core::BfsAlgo::new(0)))
                .vertices(8)
                .chip(amcca_sim::ChipConfig::small_test());
            let mut d = dispatcher(builder, &dir);
            let (sub, idle) = (open(&mut d, 1), open(&mut d, 2));
            let reg = Request::RegisterQueryMulti { pattern: "a".into(), sources: vec![0] };
            for req in [reg, Request::Subscribe { qid: 0 }] {
                assert!(d.dispatch(Event::Request(1, req)).is_continue());
            }
            let (tx, rx) = mpsc::channel();
            for req in stop {
                tx.send(request(&mut d, 2, req)).unwrap();
            }
            let (late, queued) = entry();
            tx.send(Event::Open(3, late)).unwrap();

            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut d = d;
                feed(&mut d, &rx)
            }));
            assert_eq!(run.ok(), stopped, "{tag}");
            let (replies, closed) = take(&sub);
            assert_eq!((replies.len(), closed), (2, true), "{tag}: the subscriber's outbox");
            let (replies, closed) = take(&idle);
            let done = if tag == "panic" { vec![] } else { vec![Response::Done] };
            assert_eq!((replies, closed), (done, true), "{tag}: the idle outbox");
            drop(rx);
            assert!(take(&queued).1, "{tag}: the Open left in the channel");
            let _ = std::fs::remove_dir_all(&dir);
        }
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
