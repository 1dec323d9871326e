//! End-to-end tests of the TCP serving loop: concurrent clients, admission
//! backpressure, checkpoint/kill/restore, and acknowledgement semantics.

use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use amcca_serve::server::{IngestCore, ServeConfig, Server};
use amcca_serve::{AdmissionConfig, Client, SubEvent, Submission};
use amcca_sim::ChipConfig;
use sdgp_core::graph::GraphMutation;
use sdgp_core::rpvo::{Edge, RpvoConfig};
use sdgp_core::{BfsAlgo, StreamingGraph, VertexAlgo};

fn tmp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "amcca-serve-e2e-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn builder(n: u32) -> sdgp_core::GraphBuilder<BfsAlgo> {
    StreamingGraph::builder(BfsAlgo::new(0))
        .vertices(n)
        .chip(ChipConfig::small_test())
        .rpvo(RpvoConfig::basic(4, 2))
}

fn adds(edges: &[(u32, u32, u32)]) -> Vec<GraphMutation> {
    edges.iter().copied().map(GraphMutation::AddEdge).collect()
}

fn labeled(edges: &[(u32, u32, u32, u8)]) -> Vec<GraphMutation> {
    edges.iter().map(|&(u, v, w, l)| GraphMutation::AddLabeledEdge((u, v, w), l)).collect()
}

/// Reference BFS fixpoint over the same edges, via a fresh offline graph.
fn oracle(n: u32, edges: &[(u32, u32, u32)]) -> Vec<Option<u64>> {
    let mut g = builder(n).build().unwrap();
    g.stream_edges(edges).unwrap();
    g.sync_values()
}

#[test]
fn serves_concurrent_clients_and_acknowledges_after_convergence() {
    let dir = tmp_dir("concurrent");
    let (core, boot) = IngestCore::boot(builder(16), &dir, 0).unwrap();
    assert!(!boot.recovered);
    let server = Server::start_loopback(core, ServeConfig::default()).unwrap();
    let addr = server.addr();

    // Two clients over disjoint vertex slices submit concurrently; slices
    // keep their mutations commutative, so any interleaving converges to
    // the same fixpoint.
    let lo = [(0, 1, 1), (1, 2, 1), (2, 3, 1)];
    let hi = [(0, 8, 1), (8, 9, 1), (9, 10, 1)];
    std::thread::scope(|s| {
        for batch in [&lo[..], &hi[..]] {
            s.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for e in batch {
                    c.submit_retrying(&adds(&[*e]), 100).unwrap();
                }
            });
        }
    });

    let mut c = Client::connect(addr).unwrap();
    let want: Vec<(u32, u32, u32)> = lo.iter().chain(hi.iter()).copied().collect();
    assert_eq!(c.query().unwrap(), oracle(16, &want));
    let stats = c.stats().unwrap();
    assert_eq!(stats.live_edges, 6);
    assert!(stats.batches >= 1);
    c.shutdown().unwrap();
    let report = server.join();
    assert!(!report.crashed);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn admission_rejects_with_retry_after_and_retry_succeeds() {
    let dir = tmp_dir("admission");
    let (core, _) = IngestCore::boot(builder(8), &dir, 0).unwrap();
    // A budget of 2 mutations/sec with burst 3: the second 3-edge batch in
    // the same instant must be refused with a retry hint.
    let cfg = ServeConfig {
        admission: AdmissionConfig {
            rate_per_client: 2,
            burst_per_client: 3,
            ..AdmissionConfig::default()
        },
        ..ServeConfig::default()
    };
    let server = Server::start_loopback(core, cfg).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.submit(&adds(&[(0, 1, 1), (1, 2, 1), (2, 3, 1)])).unwrap(), Submission::Applied);
    let refused = c.submit(&adds(&[(3, 4, 1), (4, 5, 1), (5, 6, 1)])).unwrap();
    let Submission::RetryAfter(backoff) = refused else {
        panic!("over-budget batch admitted: {refused:?}");
    };
    assert!(backoff.as_millis() > 0);
    // Sleeping out the hint makes the same batch land.
    c.submit_retrying(&adds(&[(3, 4, 1), (4, 5, 1), (5, 6, 1)]), 20).unwrap();
    assert!(c.stats().unwrap().rejected >= 1);
    c.shutdown().unwrap();
    server.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_submission_is_refused_without_poisoning_the_server() {
    let dir = tmp_dir("refuse");
    let (core, _) = IngestCore::boot(builder(8), &dir, 0).unwrap();
    let server = Server::start_loopback(core, ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    c.submit_retrying(&adds(&[(0, 1, 1)]), 10).unwrap();
    // Deleting a copy that does not exist, or naming a vertex the graph
    // does not have, is refused at validation...
    let err = c.submit(&[GraphMutation::DelEdge((0, 1, 9))]).unwrap_err();
    assert!(err.to_string().contains("no live copy"), "got: {err}");
    let err = c.submit(&adds(&[(0, 100, 1)])).unwrap_err();
    assert!(err.to_string().contains("vertex 100 out of range"), "got: {err}");
    // ...and the server keeps serving correct work afterwards.
    c.submit_retrying(&adds(&[(1, 2, 1)]), 10).unwrap();
    c.submit_retrying(&[GraphMutation::DelEdge((0, 1, 1))], 10).unwrap();
    assert_eq!(c.stats().unwrap().live_edges, 1);
    c.shutdown().unwrap();
    server.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn kill_then_boot_replays_only_the_tail_bit_identically() {
    let dir = tmp_dir("recover");
    let pre = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1)];
    let tail = [(4, 5, 2), (0, 6, 1)];

    // Serve: apply `pre`, checkpoint, apply `tail`, then crash.
    let states_before = {
        let (core, _) = IngestCore::boot(builder(8), &dir, 0).unwrap();
        let server = Server::start_loopback(core, ServeConfig::default()).unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        for e in pre {
            c.submit_retrying(&adds(&[e]), 10).unwrap();
        }
        c.checkpoint().unwrap();
        for e in tail {
            c.submit_retrying(&adds(&[e]), 10).unwrap();
        }
        let states = c.query().unwrap();
        c.kill().unwrap();
        let report = server.join();
        assert!(report.crashed);
        states
    };

    // Recover: the checkpoint carries `pre`, the WAL tail exactly `tail`.
    let (core, boot) = IngestCore::boot(builder(8), &dir, 0).unwrap();
    assert!(boot.recovered);
    assert_eq!(boot.checkpoint_edges, pre.len());
    assert_eq!(boot.tail_batches, tail.len(), "replay only the tail");
    assert_eq!(boot.tail_mutations, tail.len());
    assert_eq!(core.sync_values(), states_before, "recovered fixpoint is bit-identical");

    // The recovered server keeps ingesting.
    let server = Server::start_loopback(core, ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    c.submit_retrying(&adds(&[(6, 7, 1)]), 10).unwrap();
    let want: Vec<(u32, u32, u32)> =
        pre.iter().chain(tail.iter()).copied().chain([(6, 7, 1)]).collect();
    assert_eq!(c.query().unwrap(), oracle(8, &want));
    c.shutdown().unwrap();
    server.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Standing queries survive a crash through BOTH durability paths: one
/// registered before the checkpoint travels inside it, one registered after
/// rides the WAL tail as a register record. Recovery preserves the id
/// assignment, recomputes the same result sets, and the recovered server
/// keeps maintaining them through further churn.
#[test]
fn standing_queries_survive_kill_and_restart() {
    let dir = tmp_dir("queries");

    // Build the labelled chain 0 -a-> 1 -b-> 2 -b-> 3 -c-> 4 across a
    // checkpoint boundary, registering one query on each side of it.
    let (q0_results, q1_results) = {
        let (core, _) = IngestCore::boot(builder(8), &dir, 0).unwrap();
        let server = Server::start_loopback(core, ServeConfig::default()).unwrap();
        let mut c = Client::connect(server.addr()).unwrap();
        c.submit_retrying(&labeled(&[(0, 1, 1, 1), (1, 2, 1, 2)]), 10).unwrap();
        assert_eq!(c.register_query("a.b*.c", 0).unwrap(), 0);
        c.checkpoint().unwrap(); // query 0 travels inside the checkpoint
        assert_eq!(c.register_query("b+", 1).unwrap(), 1); // query 1 rides the WAL tail
        c.submit_retrying(&labeled(&[(2, 3, 1, 2), (3, 4, 1, 3)]), 10).unwrap();
        let r = (c.query_results(0).unwrap(), c.query_results(1).unwrap());
        assert_eq!(r.0, vec![4], "a.b*.c reaches the chain's end");
        assert_eq!(r.1, vec![2, 3], "b+ from 1 covers the b-segment");
        c.kill().unwrap();
        assert!(server.join().crashed);
        r
    };

    // Recovery re-registers query 0 from the checkpoint and query 1 from
    // the tail, in id order, and recomputes identical result sets.
    let (core, boot) = IngestCore::boot(builder(8), &dir, 0).unwrap();
    assert!(boot.recovered);
    assert_eq!(boot.tail_queries, 1, "only the post-checkpoint registration replays");
    let server = Server::start_loopback(core, ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    assert_eq!(c.query_results(0).unwrap(), q0_results);
    assert_eq!(c.query_results(1).unwrap(), q1_results);

    // The recovered queries stay live: deleting the b-edge 1→2 breaks every
    // match, and a fresh registration takes the next id.
    c.submit_retrying(&[GraphMutation::DelEdge((1, 2, 1))], 10).unwrap();
    assert_eq!(c.query_results(0).unwrap(), Vec::<u32>::new());
    assert_eq!(c.query_results(1).unwrap(), Vec::<u32>::new());
    assert_eq!(c.register_query("c", 3).unwrap(), 2);
    assert_eq!(c.query_results(2).unwrap(), vec![4]);
    // A bad pattern is refused without poisoning the session.
    assert!(c.register_query("a.!", 0).is_err());
    assert_eq!(c.query_results(2).unwrap(), vec![4]);
    c.shutdown().unwrap();
    server.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The ObsStats frame returns the live observability snapshot over TCP:
/// the graph and the server feed one registry, so WAL, checkpoint,
/// admission, and increment-phase metrics all surface in a single reply.
#[test]
fn obs_stats_frame_returns_live_snapshot_over_tcp() {
    let dir = tmp_dir("obs");
    let (core, _) = IngestCore::boot(builder(8).obs(amcca_obs::Obs::enabled()), &dir, 0).unwrap();
    let server = Server::start_loopback(core, ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    c.submit_retrying(&adds(&[(0, 1, 1), (1, 2, 1)]), 10).unwrap();
    c.submit_retrying(&adds(&[(2, 3, 1)]), 10).unwrap();
    c.checkpoint().unwrap();

    let snap = c.obs_stats().unwrap();
    assert_eq!(snap.counter("wal.appends"), 2, "one WAL record per applied batch");
    assert!(snap.counter("wal.bytes") > 0);
    assert_eq!(snap.counter("checkpoint.count"), 1);
    assert_eq!(snap.counter("graph.increments"), 2);
    assert_eq!(snap.counter("graph.mutations"), 3);
    assert_eq!(snap.counter("admission.admitted"), 2);
    assert_eq!(snap.gauge("serve.live_edges"), Some(3));
    for h in ["span.wal_append_ns", "span.structural_ns", "span.checkpoint_ns"] {
        let hist = snap.hist(h).unwrap_or_else(|| panic!("missing histogram {h}"));
        assert!(hist.count > 0, "{h} is empty");
        assert!(hist.max >= hist.min, "{h} bounds");
    }
    // The snapshot is live: more work moves the counters.
    c.submit_retrying(&adds(&[(3, 4, 1)]), 10).unwrap();
    let later = c.obs_stats().unwrap();
    assert_eq!(later.counter("wal.appends"), 3);
    assert!(later.hist("span.wal_append_ns").unwrap().count > snap_wal_count(&snap));

    // `serve.subscribers` counts the connections following a query now.
    let qid = c.register_query("a", 0).unwrap();
    let mut sub = Client::connect(server.addr()).unwrap();
    sub.unsubscribe(qid).unwrap(); // never subscribed: still `Done`
    sub.subscribe(qid).unwrap();
    assert_eq!(c.obs_stats().unwrap().gauge("serve.subscribers"), Some(1));
    sub.unsubscribe(qid).unwrap();
    assert_eq!(c.obs_stats().unwrap().gauge("serve.subscribers"), Some(0));
    c.shutdown().unwrap();
    server.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

fn snap_wal_count(snap: &amcca_obs::MetricsSnapshot) -> u64 {
    snap.hist("span.wal_append_ns").map(|h| h.count).unwrap_or(0)
}

/// With observability off (the default), the frame still answers — with an
/// empty snapshot — and results are unchanged (tracing is pure observation).
#[test]
fn obs_stats_frame_is_empty_when_disabled() {
    let dir = tmp_dir("obs-off");
    let (core, _) = IngestCore::boot(builder(8), &dir, 0).unwrap();
    let server = Server::start_loopback(core, ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    c.submit_retrying(&adds(&[(0, 1, 1)]), 10).unwrap();
    let snap = c.obs_stats().unwrap();
    assert_eq!(snap.counter("wal.appends"), 0);
    assert!(snap.hist("span.wal_append_ns").is_none());
    c.shutdown().unwrap();
    server.join();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Subscriptions push one delta per subscribed query per applied increment
/// that changed its result set — and each delta is exactly the set
/// difference of the polled results before and after. Unchanged queries
/// push nothing, and an unsubscribe stops the stream for that query only.
#[test]
fn subscriptions_push_deltas_that_mirror_polled_results() {
    let dir = tmp_dir("subs");
    let (core, _) = IngestCore::boot(builder(8), &dir, 0).unwrap();
    let server = Server::start_loopback(core, ServeConfig::default()).unwrap();
    let mut sub = Client::connect(server.addr()).unwrap();
    let mut writer = Client::connect(server.addr()).unwrap();

    // Labelled chain grows under the subscriptions: 0 -a-> 1 -b-> 2 -c-> 3.
    writer.submit_retrying(&labeled(&[(0, 1, 1, 1)]), 10).unwrap();
    let qid = sub.register_query("a.b*.c", 0).unwrap();
    let qm = sub.register_query_multi("b", &[0, 1]).unwrap();
    let (seq0, base) = sub.subscribe(qid).unwrap();
    assert_eq!(base, Vec::<u32>::new());
    let (seqm, base_m) = sub.subscribe(qm).unwrap();
    assert_eq!((seqm, base_m), (seq0, Vec::new()), "snapshots of the same increment");

    // The b-edge changes only the multi-source query: exactly one delta.
    writer.submit_retrying(&labeled(&[(1, 2, 1, 2)]), 10).unwrap();
    assert_eq!(
        sub.next_event().unwrap(),
        SubEvent::Delta { qid: qm, batch_seq: seq0 + 1, added: vec![2], removed: vec![] }
    );
    // The c-edge completes a.b*.c — again one delta, for the other query.
    writer.submit_retrying(&labeled(&[(2, 3, 1, 3)]), 10).unwrap();
    assert_eq!(
        sub.next_event().unwrap(),
        SubEvent::Delta { qid, batch_seq: seq0 + 2, added: vec![3], removed: vec![] }
    );

    // Deleting the shared b-edge empties both queries. Polling first parks
    // the in-flight pushes in the client's pending queue — they must still
    // come out of next_event in qid order, and match the polled diffs.
    writer.submit_retrying(&[GraphMutation::DelEdge((1, 2, 1))], 10).unwrap();
    assert_eq!(sub.query_results(qid).unwrap(), Vec::<u32>::new());
    assert_eq!(sub.query_results(qm).unwrap(), Vec::<u32>::new());
    assert_eq!(
        sub.next_event().unwrap(),
        SubEvent::Delta { qid, batch_seq: seq0 + 3, added: vec![], removed: vec![3] }
    );
    assert_eq!(
        sub.next_event().unwrap(),
        SubEvent::Delta { qid: qm, batch_seq: seq0 + 3, added: vec![], removed: vec![2] }
    );

    // After unsubscribing qm, restoring the b-edge pushes only the a.b*.c
    // delta — qm changes too ([] back to [2]) but is no longer streamed.
    sub.unsubscribe(qm).unwrap();
    writer.submit_retrying(&labeled(&[(1, 2, 1, 2)]), 10).unwrap();
    assert_eq!(
        sub.next_event().unwrap(),
        SubEvent::Delta { qid, batch_seq: seq0 + 4, added: vec![3], removed: vec![] }
    );
    assert_eq!(sub.query_results(qm).unwrap(), vec![2], "qm still answers polls");

    writer.shutdown().unwrap();
    assert!(!server.join().crashed);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A subscriber survives a server crash: after kill + re-boot the client
/// reconnects and re-subscribes, and the fresh snapshot equals the running
/// set it had accumulated before the crash (checkpoint + WAL tail rebuild
/// the query state exactly). Deltas keep flowing afterwards.
#[test]
fn subscriber_resyncs_after_kill_and_restart() {
    let dir = tmp_dir("subs-recover");
    let running = {
        let (core, _) = IngestCore::boot(builder(8), &dir, 0).unwrap();
        let server = Server::start_loopback(core, ServeConfig::default()).unwrap();
        let mut sub = Client::connect(server.addr()).unwrap();
        let mut writer = Client::connect(server.addr()).unwrap();
        writer.submit_retrying(&labeled(&[(0, 1, 1, 1), (1, 2, 1, 2)]), 10).unwrap();
        let qid = sub.register_query("a.b*.c", 0).unwrap();
        let (seq, base) = sub.subscribe(qid).unwrap();
        assert_eq!(base, Vec::<u32>::new(), "no c-edge yet");
        writer.checkpoint().unwrap(); // registration travels in the checkpoint

        // Two matches accumulate through pushed deltas; the second rides
        // the WAL tail into recovery.
        let mut running: Vec<u32> = base;
        writer.submit_retrying(&labeled(&[(2, 3, 1, 3)]), 10).unwrap();
        writer.submit_retrying(&labeled(&[(1, 5, 1, 3)]), 10).unwrap();
        for want_seq in [seq + 1, seq + 2] {
            match sub.next_event().unwrap() {
                SubEvent::Delta { qid: q, batch_seq, added, removed } => {
                    assert_eq!((q, batch_seq), (qid, want_seq));
                    running.retain(|v| !removed.contains(v));
                    running.extend(added);
                    running.sort_unstable();
                }
                other => panic!("expected delta, got {other:?}"),
            }
        }
        assert_eq!(running, vec![3, 5]);
        writer.kill().unwrap();
        assert!(server.join().crashed);
        running
    };

    // Re-boot: the query state is rebuilt, and a fresh subscribe hands the
    // reconnecting subscriber exactly the set it had before the crash.
    let (core, boot) = IngestCore::boot(builder(8), &dir, 0).unwrap();
    assert!(boot.recovered);
    let server = Server::start_loopback(core, ServeConfig::default()).unwrap();
    let mut sub = Client::connect(server.addr()).unwrap();
    let (seq, base) = sub.subscribe(0).unwrap();
    assert_eq!(base, running, "resynced snapshot equals the pre-crash running set");

    // The stream continues from the recovered state.
    let mut writer = Client::connect(server.addr()).unwrap();
    writer.submit_retrying(&[GraphMutation::DelEdge((2, 3, 1))], 10).unwrap();
    assert_eq!(
        sub.next_event().unwrap(),
        SubEvent::Delta { qid: 0, batch_seq: seq + 1, added: vec![], removed: vec![3] }
    );
    assert_eq!(sub.query_results(0).unwrap(), vec![5]);
    writer.shutdown().unwrap();
    assert!(!server.join().crashed);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_cadence_bounds_the_tail() {
    let dir = tmp_dir("cadence");
    // checkpoint_every = 2: after 5 applied batches at most 1 remains in
    // the tail.
    let (core, _) = IngestCore::boot(builder(16), &dir, 2).unwrap();
    let server = Server::start_loopback(core, ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.addr()).unwrap();
    for i in 0..5u32 {
        c.submit_retrying(&adds(&[(i, i + 1, 1)]), 10).unwrap();
    }
    let stats = c.stats().unwrap();
    assert!(stats.checkpoints >= 2, "cadence fired: {stats:?}");
    assert!(stats.wal_tail_batches < 2, "tail bounded by cadence: {stats:?}");
    assert!(stats.last_checkpoint_bytes > 0);
    c.kill().unwrap();
    server.join();
    // Boot replays at most one batch — never the whole history.
    let (_, boot) = IngestCore::boot(builder(16), &dir, 2).unwrap();
    assert!(boot.recovered);
    assert!(boot.tail_batches < 2, "{boot:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Block `sub` in [`Client::next_event`] on its own thread; the receiver
/// yields what that call returned.
fn await_event(mut sub: Client) -> mpsc::Receiver<io::Result<SubEvent>> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(sub.next_event());
    });
    rx
}

/// The subscriber's read ends in an error within 5 s of the server stopping.
fn assert_stream_ends(event: &mpsc::Receiver<io::Result<SubEvent>>) {
    let got = event
        .recv_timeout(Duration::from_secs(5))
        .expect("subscriber still blocked 5 s after the server stopped");
    assert!(got.is_err(), "the stream must end, not deliver: {got:?}");
}

/// A client blocked in `next_event` — a subscriber, or with `subscribe`
/// off a client that only connected — learns that another client stopped
/// the server: its stream ends with EOF, its cue to reconnect.
fn subscriber_sees_the_stop(
    stop: fn(&mut Client) -> io::Result<()>,
    crashed: bool,
    subscribe: bool,
) {
    let dir = tmp_dir("subs-stop");
    let (core, _) = IngestCore::boot(builder(8), &dir, 0).unwrap();
    let server = Server::start_loopback(core, ServeConfig::default()).unwrap();
    let mut sub = Client::connect(server.addr()).unwrap();
    if subscribe {
        let qid = sub.register_query("a", 0).unwrap();
        sub.subscribe(qid).unwrap();
    }
    let event = await_event(sub);
    stop(&mut Client::connect(server.addr()).unwrap()).unwrap();
    assert_eq!(server.join().crashed, crashed);
    assert_stream_ends(&event);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_blocked_subscriber_reads_eof_after_another_clients_kill() {
    subscriber_sees_the_stop(Client::kill, true, true);
}

#[test]
fn a_blocked_subscriber_reads_eof_after_another_clients_shutdown() {
    subscriber_sees_the_stop(Client::shutdown, false, true);
}

#[test]
fn an_idle_client_reads_eof_after_another_clients_kill() {
    subscriber_sees_the_stop(Client::kill, true, false);
}

#[test]
fn an_idle_client_reads_eof_after_another_clients_shutdown() {
    subscriber_sees_the_stop(Client::shutdown, false, false);
}

/// Inserting an edge of this weight panics [`PanickyBfs`].
const POISON_W: u32 = 99;

/// BFS whose insert handler panics on an edge of weight [`POISON_W`].
#[derive(Clone, Copy)]
struct PanickyBfs(BfsAlgo);

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

    fn along_edge(&self, v: u64, e: &Edge) -> u64 {
        // The first place the poisoned insert's edge reaches the algorithm:
        // the inserting object announces its level along it.
        assert_ne!(e.w, POISON_W, "marked insert");
        self.0.along_edge(v, e)
    }

    fn sync_value(&self, s: &u64) -> Option<u64> {
        self.0.sync_value(s)
    }
}

/// A panic on the ingest thread still ends every subscriber's stream, and
/// `Server::join` still reports the panic.
#[test]
fn an_ingest_panic_ends_the_subscriber_stream_and_reaches_join() {
    let dir = tmp_dir("subs-panic");
    let builder = StreamingGraph::builder(PanickyBfs(BfsAlgo::new(0)))
        .vertices(8)
        .chip(ChipConfig::small_test())
        .rpvo(RpvoConfig::basic(4, 2));
    let (core, _) = IngestCore::boot(builder, &dir, 0).unwrap();
    let server = Server::start_loopback(core, ServeConfig::default()).unwrap();
    let mut sub = Client::connect(server.addr()).unwrap();
    let qid = sub.register_query("a", 0).unwrap();
    sub.subscribe(qid).unwrap();
    let event = await_event(sub);
    let mut writer = Client::connect(server.addr()).unwrap();
    writer.submit_retrying(&adds(&[(0, 1, 1)]), 10).unwrap();
    assert!(writer.submit(&adds(&[(1, 2, POISON_W)])).is_err(), "the increment never acks");
    assert_stream_ends(&event);
    let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| server.join()));
    assert!(joined.is_err(), "join reports the ingest thread's panic");
    std::fs::remove_dir_all(&dir).unwrap();
}
