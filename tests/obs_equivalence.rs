//! Observability-equivalence property test: instrumentation must not
//! perturb results. For ANY mutation script and ANY batch split, a run
//! with tracing fully on (registry + JSONL span sink) and a run with the
//! disabled handle must land on **bit-identical** fixpoints, with equal
//! simulated cycle counts per batch — the observability layer only reads
//! clocks and bumps counters, it never touches the simulated machine.
//!
//! The enabled run's side of the bargain is checked too: the registry must
//! actually have seen every increment, and every trace line must carry the
//! span schema (`ts_us`, `span`, `batch`, `muts`, `dur_us`) that
//! `docs/OBSERVABILITY.md` promises.

use std::sync::{Arc, Mutex};

use amcca::prelude::*;
use amcca_obs::json;
use proptest::prelude::*;

const N: u32 = 24;

/// A `Write` sink that appends into a shared buffer the test can read back.
#[derive(Clone, Default)]
struct BufSink(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for BufSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn builder(obs: Obs) -> sdgp_core::GraphBuilder<BfsAlgo> {
    StreamingGraph::builder(BfsAlgo::new(0))
        .vertices(N)
        .chip(ChipConfig::small_test())
        .rpvo(RpvoConfig::basic(3, 2).with_rhizomes(6, 2))
        .obs(obs)
}

/// Raw steps: `(u, v, w, op, pick)` with `op % 3` selecting add / delete /
/// re-weight; deletes and updates pick a live target by rotating `pick`,
/// so every script is valid by construction.
fn arb_script() -> impl Strategy<Value = Vec<(u32, u32, u32, u8, u8)>> {
    prop::collection::vec((0..N, 0..N, 1u32..10, any::<u8>(), any::<u8>()), 1..100)
}

fn materialize(script: &[(u32, u32, u32, u8, u8)]) -> Vec<GraphMutation> {
    let mut muts = Vec::with_capacity(script.len());
    let mut live: Vec<StreamEdge> = Vec::new();
    for &(u, v, w, op, pick) in script {
        match op % 3 {
            1 if !live.is_empty() => {
                let e = live.remove(pick as usize % live.len());
                muts.push(GraphMutation::DelEdge(e));
            }
            2 if !live.is_empty() => {
                let i = pick as usize % live.len();
                let (lu, lv, _) = live[i];
                live[i].2 = w;
                muts.push(GraphMutation::UpdateWeight { u: lu, v: lv, w });
            }
            _ if u != v => {
                live.push((u, v, w));
                muts.push(GraphMutation::AddEdge((u, v, w)));
            }
            _ => {}
        }
    }
    muts
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn tracing_on_and_off_reach_bit_identical_fixpoints(
        script in arb_script(),
        chunks in 1usize..6,
    ) {
        let muts = materialize(&script);
        prop_assume!(!muts.is_empty());
        let batches: Vec<&[GraphMutation]> =
            muts.chunks(muts.len().div_ceil(chunks).max(1)).collect();

        let sink = BufSink::default();
        let obs = Obs::with_sink(Box::new(sink.clone()));
        let mut traced = builder(obs.clone()).build().unwrap();
        let mut plain = builder(Obs::disabled()).build().unwrap();

        for (i, batch) in batches.iter().enumerate() {
            let rt = traced.stream_increment(batch).unwrap();
            let rp = plain.stream_increment(batch).unwrap();
            prop_assert_eq!(
                rt.cycles, rp.cycles,
                "batch {}: simulated cycles must not depend on tracing", i
            );
            prop_assert_eq!(
                traced.sync_values(), plain.sync_values(),
                "batch {}: fixpoints diverged under tracing", i
            );
        }

        // The instrumented run really was instrumented...
        let snap = obs.snapshot();
        prop_assert_eq!(snap.counter("graph.increments"), batches.len() as u64);
        prop_assert_eq!(snap.counter("graph.mutations"), muts.len() as u64);
        let structural = snap.hist("span.structural_ns").expect("structural histogram");
        prop_assert!(structural.count >= batches.len() as u64);

        // ...and every trace line it emitted carries the span schema.
        obs.flush().unwrap();
        let raw = sink.0.lock().unwrap().clone();
        let text = String::from_utf8(raw).expect("trace is UTF-8");
        let mut lines = 0u64;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let v = json::parse(line).expect("trace line parses");
            for field in ["ts_us", "batch", "muts", "dur_us"] {
                prop_assert!(
                    v.get(field).and_then(json::Json::as_num).is_some(),
                    "span line missing {}: {}", field, line
                );
            }
            prop_assert!(
                v.get("span").and_then(json::Json::as_str).is_some_and(|s| !s.is_empty()),
                "span line missing name: {}", line
            );
            lines += 1;
        }
        prop_assert!(lines >= batches.len() as u64, "at least one span per batch");
    }
}
