//! Per-layer measurements made in isolation: the workload's own generated
//! batches replayed through each layer's public functions, outside any
//! server or graph, each call wrapped in a harness span.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use amcca_serve::proto::Request;
use amcca_serve::{Admission, AdmissionConfig, Decision, Store};
use sdgp_core::apps::BfsAlgo;
use sdgp_core::checkpoint::{decode_mutations, encode_mutations};
use sdgp_core::graph::{GraphBuilder, MutationLog};
use sdgp_core::GraphCheckpoint;

use crate::direct::Graph;
use crate::inputs::Batch;
use crate::metrics::Metrics;
use crate::span::{durations_us, Tracer};
use crate::stats::{median, percentile, pick_percentile, sorted};

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Replay `batches` through the host-side pipeline a submission crosses —
/// frame codec, admission, validate/coalesce, WAL append — on a replica
/// `MutationLog` seeded with `resident` (the live set the workload starts
/// from). `store_dir` is a scratch store, removed afterwards.
pub fn replay_pipeline(
    tracer: &Tracer,
    resident: &[Batch],
    batches: &[Batch],
    store_dir: &Path,
    m: &mut Metrics,
) -> std::io::Result<()> {
    let n_muts: usize = batches.iter().map(Vec::len).sum();
    let per_mut = |ns: u128| ns as f64 / n_muts as f64;

    // sdgp_core codec and amcca-serve frame codec, whole-schedule totals.
    let (mut enc_ns, mut dec_ns, mut penc_ns, mut pdec_ns, mut frame_bytes) = (0, 0, 0, 0, 0);
    for (i, b) in batches.iter().enumerate() {
        let bid = i as u64 + 1;
        let t0 = Instant::now();
        let bytes = std::hint::black_box(encode_mutations(std::hint::black_box(b)));
        let t1 = Instant::now();
        let decoded = decode_mutations(std::hint::black_box(&bytes));
        let t2 = Instant::now();
        assert_eq!(decoded.as_deref(), Ok(b.as_slice()), "mutation codec round trip");
        tracer.record("codec.encode_mutations", None, bid, t0, t1);
        tracer.record("codec.decode_mutations", None, bid, t1, t2);
        enc_ns += (t1 - t0).as_nanos();
        dec_ns += (t2 - t1).as_nanos();

        // `Client::submit` copies the slice into the request before encoding.
        let t0 = Instant::now();
        let frame = std::hint::black_box(Request::Submit(b.to_vec()).encode());
        let t1 = Instant::now();
        let req = Request::decode(std::hint::black_box(&frame));
        let t2 = Instant::now();
        assert!(matches!(req, Ok(Request::Submit(ref got)) if got == b), "frame round trip");
        tracer.record("proto.encode", None, bid, t0, t1);
        tracer.record("proto.decode", None, bid, t1, t2);
        penc_ns += (t1 - t0).as_nanos();
        pdec_ns += (t2 - t1).as_nanos();
        frame_bytes += 4 + frame.len();
    }
    m.set("codec.encode_ns_per_mut", per_mut(enc_ns));
    m.set("codec.decode_ns_per_mut", per_mut(dec_ns));
    m.set("proto.encode_ns_per_mut", per_mut(penc_ns));
    m.set("proto.decode_ns_per_mut", per_mut(pdec_ns));
    m.set("proto.frame_bytes_per_mut", frame_bytes as f64 / n_muts as f64);

    // Admission: one decision per batch on a clock slow enough that the
    // default bucket never refuses; repeated so the clock read is amortised.
    let rounds = (20_000 / batches.len()).max(1);
    let mut admission = Admission::new(AdmissionConfig::default());
    let queue = AtomicUsize::new(0);
    let mut now_micros = 0u64;
    let t0 = Instant::now();
    for _ in 0..rounds {
        for b in batches {
            now_micros += b.len() as u64 * 10;
            let d = admission.decide(1, b.len(), &queue, now_micros);
            assert_eq!(std::hint::black_box(d), Decision::Admit, "replay stays inside the budget");
            queue.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let t1 = Instant::now();
    tracer.record("admission.decide", None, 0, t0, t1);
    m.set("admission.decide_ns", (t1 - t0).as_nanos() as f64 / (rounds * batches.len()) as f64);

    // Validate/coalesce exactly as `IngestCore::submit` does (clone the
    // stage, `try_push` the batch, swap), then drain as `flush` does.
    let mut stage = MutationLog::new();
    for b in resident {
        for &mu in b {
            stage.push(mu);
        }
        stage.drain();
    }
    let mut canonical: Vec<Batch> = Vec::with_capacity(batches.len());
    for (i, b) in batches.iter().enumerate() {
        let bid = i as u64 + 1;
        let t0 = Instant::now();
        let mut probe = stage.clone();
        for &mu in b {
            probe.try_push(mu).expect("generated batches name live copies only");
        }
        stage = probe;
        let t1 = Instant::now();
        let drained = stage.drain();
        let t2 = Instant::now();
        tracer.record("mutlog.validate", None, bid, t0, t1);
        tracer.record("mutlog.drain", None, bid, t1, t2);
        canonical.push(drained.muts);
    }
    let spans = tracer.spans();
    m.set("mutlog.validate_us_p50", median(&durations_us(&spans, "mutlog.validate")));
    m.set("mutlog.drain_us_p50", median(&durations_us(&spans, "mutlog.drain")));
    m.set("samples.mutlog", batches.len() as f64);

    // WAL: append + `sync_data` per canonical batch, then reload the tail.
    let _ = std::fs::remove_dir_all(store_dir);
    let mut store = Store::open(store_dir)?;
    let (mut wal_bytes, mut wal_muts) = (0u64, 0usize);
    for (i, b) in canonical.iter().enumerate() {
        let t0 = Instant::now();
        wal_bytes += store.append_batch(b)?;
        tracer.record("wal.append_batch", None, i as u64 + 1, t0, Instant::now());
        wal_muts += b.len();
    }
    let appends = sorted(durations_us(&tracer.spans(), "wal.append_batch"));
    let tail_pct = pick_percentile(appends.len()).min(99.0);
    m.set("wal.append_us_p50", percentile(&appends, 50.0));
    m.set("wal.append_us_p99", percentile(&appends, tail_pct));
    m.set("tail.wal_append_pct", tail_pct);
    m.set("samples.wal_append", appends.len() as f64);
    m.set("wal.appends", canonical.len() as f64);
    m.set("wal.bytes_per_mut", wal_bytes as f64 / wal_muts.max(1) as f64);
    let t0 = Instant::now();
    let tail = store.load_tail().map_err(std::io::Error::other)?;
    tracer.record("wal.load_tail", None, 0, t0, Instant::now());
    assert_eq!(tail.len(), canonical.len(), "every appended record reloads");
    m.set("wal.load_tail_ms", ms(t0));
    drop(store);
    std::fs::remove_dir_all(store_dir)
}

/// Checkpoint `g` through each stage of the checkpoint path in isolation:
/// capture, encode, atomic store write, decode and — when `restore` gives
/// the builder to restore into — the rebuild.
pub fn checkpoint_stages(
    tracer: &Tracer,
    g: &Graph,
    restore: Option<GraphBuilder<BfsAlgo>>,
    store_dir: &Path,
    m: &mut Metrics,
) -> std::io::Result<()> {
    let t0 = Instant::now();
    let ck = GraphCheckpoint::capture(g);
    let t1 = Instant::now();
    let bytes = ck.encode();
    let t2 = Instant::now();
    let decoded = GraphCheckpoint::decode(&bytes);
    let t3 = Instant::now();
    assert_eq!(decoded.as_ref(), Ok(&ck), "checkpoint codec round trip");
    tracer.record("checkpoint.capture", None, 0, t0, t1);
    tracer.record("checkpoint.encode", None, 0, t1, t2);
    tracer.record("checkpoint.decode", None, 0, t2, t3);
    m.set("checkpoint.capture_ms", (t1 - t0).as_secs_f64() * 1e3);
    m.set("checkpoint.encode_ms", (t2 - t1).as_secs_f64() * 1e3);
    m.set("checkpoint.decode_ms", (t3 - t2).as_secs_f64() * 1e3);
    if !ck.edges.is_empty() {
        m.set("checkpoint.bytes_per_edge", bytes.len() as f64 / ck.edges.len() as f64);
    }

    let _ = std::fs::remove_dir_all(store_dir);
    let mut store = Store::open(store_dir)?;
    let t0 = Instant::now();
    store.write_checkpoint(&ck)?;
    tracer.record("wal.write_checkpoint", None, 0, t0, Instant::now());
    m.set("wal.checkpoint_write_ms", ms(t0));
    drop(store);
    std::fs::remove_dir_all(store_dir)?;

    if let Some(builder) = restore {
        let t0 = Instant::now();
        let restored = ck.restore(builder).map_err(std::io::Error::other)?;
        tracer.record("checkpoint.restore", None, 0, t0, Instant::now());
        m.set("checkpoint.restore_s", t0.elapsed().as_secs_f64());
        assert_eq!(restored.sync_values(), ck.sync_states, "restored fixpoint");
    }
    Ok(())
}
