//! Totality of the ingest path: whatever a client submits, `IngestCore`
//! never panics. Each submission is refused whole or accepted whole —
//! exactly when a plain multiset model says every mutation in it applies in
//! order — and after every flush the served graph's live copies and
//! fixpoint equal both the model and a graph rebuilt from the accepted
//! submissions alone. Ids span `0..2n`, so endpoints past the vertex count
//! are common; weights include 0 and `u32::MAX`; labels span 0–255; and
//! deletes and re-weights name absent copies as often as live ones. A
//! reboot from the store at the end replays the same rounds to the same
//! graph.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use amcca::prelude::*;
use amcca_serve::server::IngestCore;
use proptest::collection::vec;
use proptest::prelude::*;
use refgraph::{dijkstra, DiGraph};
use sdgp_core::GraphBuilder;

/// Vertices of the graph; ids are drawn from `0..2 * N`.
const N: u32 = 6;

fn tmp_dir() -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "amcca-ingest-totality-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn builder() -> GraphBuilder<SsspAlgo> {
    StreamingGraph::builder(SsspAlgo::new(0))
        .vertices(N)
        .chip(ChipConfig::small_test())
        .rpvo(RpvoConfig::basic(3, 2).with_rhizomes(4, 2))
}

/// The live multiset in arrival order, as `((u, v, w), label)` — deletes
/// take the oldest copy at the named weight, re-weights the pair's oldest.
#[derive(Debug, Clone, Default)]
struct Model {
    live: Vec<(StreamEdge, u8)>,
}

impl Model {
    /// Apply `m` if it is valid here; whether it was.
    fn apply(&mut self, m: GraphMutation) -> bool {
        let (u, v, w) = m.edge();
        if u >= N || v >= N {
            return false;
        }
        let find = |pred: &dyn Fn(&StreamEdge) -> bool| self.live.iter().position(|(e, _)| pred(e));
        match m {
            GraphMutation::AddEdge(e) => self.live.push((e, 0)),
            GraphMutation::AddLabeledEdge(e, label) => self.live.push((e, label)),
            GraphMutation::DelEdge(e) => {
                let Some(i) = find(&|&x| x == e) else { return false };
                self.live.remove(i);
            }
            GraphMutation::UpdateWeight { .. } => {
                let Some(i) = find(&|&(a, b, _)| (a, b) == (u, v)) else { return false };
                self.live[i].0 .2 = w;
            }
        }
        true
    }

    /// The live copies as `StreamingGraph::live_labeled_edges` lists them:
    /// by destination, then source, then age.
    fn listing(&self) -> Vec<(StreamEdge, u8)> {
        let mut out = self.live.clone();
        out.sort_by_key(|&((u, v, _), _)| (v, u));
        out
    }
}

/// One raw mutation: `(kind, u, v, weight, label, pick)`.
type Raw = (u8, u8, u8, u8, u8, u8);

/// An id in `0..2N`, in range seven times in eight.
fn id(x: u8) -> u32 {
    let base = if x % 8 == 7 { N } else { 0 };
    base + (x / 8) as u32 % N
}

/// A weight among 0, 1–4 and `u32::MAX`.
fn weight(x: u8) -> u32 {
    match x {
        0 => 0,
        5 => u32::MAX,
        k => k as u32,
    }
}

/// The mutation `raw` names against `model`: kinds 0, 6 and 7 insert,
/// 1 inserts with a label, 2 and 4 delete or re-weight whatever they name,
/// and 3 and 5 aim a delete or re-weight at a live copy, when there is one.
fn mutation(raw: Raw, model: &Model) -> GraphMutation {
    let (kind, u, v, w, label, pick) = raw;
    let (u, v, w) = (id(u), id(v), weight(w));
    let live = (!model.live.is_empty()).then(|| model.live[pick as usize % model.live.len()].0);
    match (kind, live) {
        (0 | 6 | 7, _) => GraphMutation::AddEdge((u, v, w)),
        (1, _) => GraphMutation::AddLabeledEdge((u, v, w), label),
        (3, Some(e)) => GraphMutation::DelEdge(e),
        (5, Some((a, b, _))) => GraphMutation::UpdateWeight { u: a, v: b, w },
        (2 | 3, _) => GraphMutation::DelEdge((u, v, w)),
        _ => GraphMutation::UpdateWeight { u, v, w },
    }
}

/// Rounds of submissions, each round flushed as one increment.
fn arb_rounds() -> impl Strategy<Value = Vec<Vec<Vec<Raw>>>> {
    let raw = (0u8..8, any::<u8>(), any::<u8>(), 0u8..6, any::<u8>(), any::<u8>());
    vec(vec(vec(raw, 1..5), 1..5), 1..6)
}

/// The SSSP fixpoint over `live` as sync values.
fn reference(live: &[(StreamEdge, u8)]) -> Vec<Option<u64>> {
    let g = DiGraph::from_edges(N, live.iter().map(|&(e, _)| e));
    dijkstra(&g, 0).into_iter().map(|d| (d != u64::MAX).then_some(d)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn every_submission_is_refused_or_applied_whole(rounds in arb_rounds()) {
        let dir = tmp_dir();
        let (mut core, _) = IngestCore::boot(builder(), &dir, 0).unwrap();
        let mut model = Model::default();
        let mut accepted: Vec<GraphMutation> = Vec::new();
        for (r, round) in rounds.iter().enumerate() {
            for raws in round {
                let mut after = model.clone();
                let mut sub = Vec::with_capacity(raws.len());
                let mut valid = true;
                for &raw in raws {
                    let m = mutation(raw, &after);
                    valid &= after.apply(m);
                    sub.push(m);
                }
                let staged: Vec<GraphMutation> = core.graph().staged().collect();
                let got = core.submit(&sub);
                prop_assert_eq!(got.is_ok(), valid, "round {}: {:?} gave {:?}", r, sub, got);
                if valid {
                    model = after;
                    accepted.extend_from_slice(&sub);
                } else {
                    let now: Vec<GraphMutation> = core.graph().staged().collect();
                    prop_assert_eq!(now, staged, "round {}: refused {:?} left a trace", r, sub);
                }
            }
            core.flush().unwrap();
            let mut rebuilt = builder().build().unwrap();
            rebuilt.stream_increment(&accepted).unwrap();
            let want = model.listing();
            prop_assert_eq!(core.graph().live_labeled_edges(), want.clone(), "round {}", r);
            prop_assert_eq!(rebuilt.live_labeled_edges(), want.clone(), "round {}", r);
            prop_assert_eq!(core.sync_values(), rebuilt.sync_values(), "round {}", r);
            prop_assert_eq!(core.sync_values(), reference(&want), "round {}", r);
            core.graph().check_mirror_consistency().unwrap();
        }
        let values = core.sync_values();
        drop(core);
        let (core, _) = IngestCore::boot(builder(), &dir, 0).unwrap();
        prop_assert_eq!(core.graph().live_labeled_edges(), model.listing());
        prop_assert_eq!(core.sync_values(), values);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
