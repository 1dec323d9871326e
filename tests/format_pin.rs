//! The byte formats, pinned. Every codec test elsewhere round-trips: it
//! encodes, decodes and compares, so a layout change made the same way on
//! both sides — two fields swapped in a writer and in its reader — passes
//! there. This test compares the bytes of a fixed corpus against constants
//! instead: a checkpoint, a write-ahead log, every request and response op
//! and a metrics snapshot. Each entry pins its length and its FNV-1a hash.
//!
//! A failure prints the whole table as measured, in the `PINS` layout; only
//! paste it in for a format change that bumps the format's version.

use std::fs;

use amcca::amcca_obs::Registry;
use amcca::prelude::*;
use amcca::sdgp_core::checkpoint::{encode_mutations, fnv1a, GraphCheckpoint};
use amcca_serve::proto::{Request, Response, ServerStats};
use amcca_serve::wal::WAL_FILE;
use amcca_serve::Store;

/// `(entry, length in bytes, FNV-1a hash)`, in corpus order.
const PINS: &[(&str, usize, u64)] = &[
    ("mutations", 57, 0x34bfb992ecf4a113),
    ("checkpoint", 304, 0x1502545fdf2a4989),
    ("wal", 109, 0x6a54347429bcec5b),
    ("metrics", 180, 0xfbadc9054c205752),
    ("request.hello", 1, 0xaf63bd4c8601b7df),
    ("request.submit", 58, 0x12c5de028a0cb268),
    ("request.query", 1, 0xaf63bf4c8601bb45),
    ("request.checkpoint", 1, 0xaf63be4c8601b992),
    ("request.stats", 1, 0xaf63b94c8601b113),
    ("request.shutdown", 1, 0xaf63b84c8601af60),
    ("request.kill", 1, 0xaf63bb4c8601b479),
    ("request.query_results", 5, 0xd2eb690bbbb2842f),
    ("request.obs_stats", 1, 0xaf63c44c8601c3c4),
    ("request.subscribe", 5, 0x83a12b6907a4db7a),
    ("request.unsubscribe", 5, 0x570cec14db48c242),
    ("request.register_query_multi", 23, 0xf182253c7ad726f4),
    ("response.hello", 5, 0x04cc4bc0228ab39c),
    ("response.submitted", 1, 0xaf63bc4c8601b62c),
    ("response.retry_after", 9, 0xd05c074483cf699f),
    ("response.states", 33, 0x9306dd48f90867be),
    ("response.stats", 57, 0x716ee1b74d5a344c),
    ("response.done", 1, 0xaf63b84c8601af60),
    ("response.err", 13, 0xff65d6da3478c6ed),
    ("response.query_id", 5, 0x5e7fb2a4b5214b3f),
    ("response.matches", 17, 0x324209754085fa08),
    ("response.obs_stats", 181, 0x8abb6600ceb53c2f),
    ("response.subscribed", 21, 0x5a37a588bd52a6a4),
    ("response.query_delta", 33, 0xef6ed711ed719435),
    ("response.resync", 25, 0x41af7bcd3f538643),
];

/// Every mutation op, the labeled insert included.
fn mutations() -> Vec<GraphMutation> {
    vec![
        GraphMutation::AddEdge((1, 2, 3)),
        GraphMutation::DelEdge((4, 5, 6)),
        GraphMutation::UpdateWeight { u: 7, v: 8, w: 9 },
        GraphMutation::AddLabeledEdge((0x0102_0304, 0xfffe_fdfc, 11), 26),
    ]
}

/// A checkpoint of a BFS graph whose hub 3 is promoted into a rhizome,
/// with labeled and unlabeled edges, a multigraph pair, an unreached vertex
/// 7 and two standing queries, one of them multi-source.
fn checkpoint() -> Vec<u8> {
    let mut g = StreamingGraph::builder(BfsAlgo::new(0))
        .vertices(8)
        .chip(ChipConfig::small_test())
        .rpvo(RpvoConfig::basic(2, 2).with_rhizomes(4, 2))
        .build()
        .unwrap();
    let mut muts = vec![
        GraphMutation::AddLabeledEdge((0, 1, 1), 1),
        GraphMutation::AddLabeledEdge((0, 2, 1), 2),
        GraphMutation::AddEdge((0, 2, 4)),
    ];
    for u in [0, 1, 2, 4, 5, 6] {
        muts.push(GraphMutation::AddLabeledEdge((u, 3, 1), 3));
    }
    muts.extend([4, 5, 6].map(|v| GraphMutation::AddEdge((3, v, 1))));
    g.stream_increment(&muts).unwrap();
    g.register_query("a.c", 0).unwrap();
    g.register_query_multi("b?.c+", &[2, 0]).unwrap();
    let ck = GraphCheckpoint::capture(&g);
    assert!(!ck.promoted.is_empty(), "the hub is promoted");
    assert!(ck.sync_states.contains(&None) && ck.sync_states.contains(&Some(2)));
    assert_eq!(ck.queries.len(), 2);
    assert_eq!(ck.edges.len(), muts.len());
    ck.encode()
}

/// `wal.bin` after one batch record and one registration record.
fn wal() -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("amcca-format-pin-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let mut store = Store::open(&dir).unwrap();
    store.append_batch(&mutations()).unwrap();
    store.append_register("a.b*.c", &[0, 5, 9]).unwrap();
    drop(store);
    let bytes = fs::read(dir.join(WAL_FILE)).unwrap();
    fs::remove_dir_all(&dir).unwrap();
    bytes
}

/// A counter, a negative gauge and a histogram with samples in several
/// buckets.
fn metrics() -> MetricsSnapshot {
    let r = Registry::default();
    r.counter_add("wal.bytes", 4096);
    r.counter_add("serve.increments", 3);
    r.gauge_set("serve.queue_depth", -2);
    for v in [5, 900, 120_000, 1 << 30] {
        r.observe("span.wal_append_ns", v);
    }
    r.snapshot()
}

fn corpus() -> Vec<(&'static str, Vec<u8>)> {
    let requests = [
        ("request.hello", Request::Hello),
        ("request.submit", Request::Submit(mutations())),
        ("request.query", Request::Query),
        ("request.checkpoint", Request::Checkpoint),
        ("request.stats", Request::Stats),
        ("request.shutdown", Request::Shutdown),
        ("request.kill", Request::Kill),
        ("request.query_results", Request::QueryResults { qid: 0x0102_0304 }),
        ("request.obs_stats", Request::ObsStats),
        ("request.subscribe", Request::Subscribe { qid: 7 }),
        ("request.unsubscribe", Request::Unsubscribe { qid: 8 }),
        (
            "request.register_query_multi",
            Request::RegisterQueryMulti { pattern: "a.b*.c".into(), sources: vec![0, 5, 9] },
        ),
    ];
    let stats = ServerStats {
        batches: 1,
        mutations: 2,
        live_edges: 3,
        checkpoints: 4,
        rejected: 5,
        wal_tail_batches: 6,
        last_checkpoint_bytes: 0x0102_0304_0506_0708,
    };
    let responses = [
        ("response.hello", Response::Hello { client_id: 3 }),
        ("response.submitted", Response::Submitted),
        ("response.retry_after", Response::RetryAfter { millis: 250 }),
        ("response.states", Response::States(vec![Some(0), None, Some(u64::MAX), Some(7)])),
        ("response.stats", Response::Stats(stats)),
        ("response.done", Response::Done),
        ("response.err", Response::Err("no live copy".into())),
        ("response.query_id", Response::QueryId { qid: 9 }),
        ("response.matches", Response::Matches(vec![1, 4, 1000])),
        ("response.obs_stats", Response::ObsStats(metrics())),
        ("response.subscribed", Response::Subscribed { qid: 1, batch_seq: 42, results: vec![3] }),
        (
            "response.query_delta",
            Response::QueryDelta { qid: 1, batch_seq: 43, added: vec![2], removed: vec![3, 7] },
        ),
        ("response.resync", Response::Resync { qid: 1, batch_seq: 50, results: vec![2, 11] }),
    ];
    let mut out = vec![
        ("mutations", encode_mutations(&mutations())),
        ("checkpoint", checkpoint()),
        ("wal", wal()),
        ("metrics", metrics().encode()),
    ];
    out.extend(requests.into_iter().map(|(name, r)| (name, r.encode())));
    out.extend(responses.into_iter().map(|(name, r)| (name, r.encode())));
    out
}

#[test]
fn every_format_encodes_to_the_pinned_bytes() {
    let got: Vec<(&str, usize, u64)> =
        corpus().iter().map(|(name, bytes)| (*name, bytes.len(), fnv1a(bytes))).collect();
    let table: String = got
        .iter()
        .map(|(name, len, hash)| format!("    ({name:?}, {len}, {hash:#018x}),\n"))
        .collect();
    assert!(got == PINS, "measured:\n{table}");
}
