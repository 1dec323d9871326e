//! Seeded input generation for the five workloads.
//!
//! Everything the programs under test receive is generated here from
//! `--seed`; the same seed (and the same `--seconds`, which sizes the batch
//! counts) gives the same inputs, which `input_hash` lets two result files
//! prove.

use amcca_sim::SplitMix64;
use gc_datasets::{
    generate_churn, generate_sbm, ChurnParams, GcPreset, Sampling, SbmParams, SkewPreset,
    StreamingDataset,
};
use sdgp_core::checkpoint::{encode_mutations, fnv1a};
use sdgp_core::graph::{GraphMutation, StreamEdge};

/// A mutation batch: one `stream_increment` call or one client submission.
pub type Batch = Vec<GraphMutation>;

/// Scale a workload's full batch (or repetition) count to the measuring
/// time: the full count takes about `full_seconds` on the 2-core reference
/// box, shorter runs get proportionally fewer, never fewer than `min`.
pub fn scaled(full: usize, min: usize, seconds: f64, full_seconds: f64) -> usize {
    let share = (seconds / full_seconds).clamp(0.0, 1.0);
    ((full as f64 * share).round() as usize).clamp(min, full)
}

/// FNV-1a over the wire encoding of the generated batches, chained batch
/// to batch: equal hashes mean two runs measured the same inputs.
pub fn input_hash<'a>(batches: impl IntoIterator<Item = &'a Batch>) -> u64 {
    batches
        .into_iter()
        .fold(0, |h, b| fnv1a(&[&h.to_le_bytes()[..], &encode_mutations(b)].concat()))
}

/// Inputs of a workload that drives `StreamingGraph` directly.
pub struct DirectInputs {
    pub n_vertices: u32,
    /// One `stream_increment` call each, in order.
    pub batches: Vec<Batch>,
    /// `(batch index, edges live after it)`: where the pass stops its clock
    /// and checks the fixpoint against the BFS oracle. The last entry is
    /// always the final batch.
    pub checks: Vec<(usize, Vec<StreamEdge>)>,
    pub hash: u64,
}

/// One insert batch per increment of a scheduled dataset.
fn from_dataset(ds: &StreamingDataset) -> DirectInputs {
    let batches: Vec<Batch> =
        (0..ds.increments()).map(|i| GraphMutation::adds(ds.increment(i))).collect();
    DirectInputs {
        n_vertices: ds.n_vertices,
        checks: vec![(batches.len() - 1, ds.all_edges().to_vec())],
        hash: input_hash(&batches),
        batches,
    }
}

/// `ingest_bulk`: the paper's 50 K-vertex / 1 M-edge SBM graph in ten
/// Edge-sampling increments.
pub fn ingest_bulk(seed: u64) -> DirectInputs {
    from_dataset(&GcPreset { seed, ..GcPreset::v50k(Sampling::Edge) }.build())
}

/// `skew_sharded`: the 50 K-vertex / 1 M-edge RMAT graph in ten increments.
pub fn skew_sharded(seed: u64) -> DirectInputs {
    from_dataset(&SkewPreset { seed, ..SkewPreset::v50k() }.build())
}

/// Insert-bearing batches of the full `churn_window` schedule.
pub const CHURN_BATCHES: usize = 40;
const CHURN_WINDOW: usize = 8;
const CHURN_ADDS: usize = 5_000;

/// `churn_window`: sliding-window churn with re-weights and a drain tail.
/// The fixpoint is checked at the window's peak (last insert batch) and
/// after the drain emptied the graph.
pub fn churn_window(seed: u64, seconds: f64) -> DirectInputs {
    let batches = scaled(CHURN_BATCHES, CHURN_WINDOW + 2, seconds, 18.0);
    let churn = generate_churn(&ChurnParams {
        n_vertices: 10_000,
        batches,
        adds_per_batch: CHURN_ADDS,
        window: CHURN_WINDOW,
        drain: true,
        updates_per_batch: CHURN_ADDS / 8,
        order: Sampling::Edge,
        labels: 0,
        seed,
    });
    let muts: Vec<Batch> = (0..churn.len()).map(|i| churn.batch(i).to_mutations()).collect();
    let last = churn.len() - 1;
    DirectInputs {
        n_vertices: churn.n_vertices,
        checks: vec![(batches - 1, churn.live_after(batches - 1)), (last, churn.live_after(last))],
        hash: input_hash(&muts),
        batches: muts,
    }
}

/// Inputs of `serve_trickle`.
pub struct TrickleInputs {
    /// Resident range plus the reserved ids the tail writes to.
    pub n_vertices: u32,
    /// The resident graph, in 20 K-edge submissions.
    pub preload: Vec<Batch>,
    /// Per client: its append-only batches over its own vertex slice.
    pub clients: Vec<Vec<Batch>>,
    /// Post-checkpoint batches the recovery boot must replay.
    pub tail: Vec<Batch>,
    pub hash: u64,
}

pub const TRICKLE_RESIDENT_VERTICES: u32 = 20_000;
const TRICKLE_RESIDENT_EDGES: usize = 100_000;
const TRICKLE_PRELOAD_SUBMIT: usize = 20_000;
/// Batches per client of the full `serve_trickle` schedule.
pub const TRICKLE_BATCHES: usize = 1_000;
const TRICKLE_BATCH_MUTS: usize = 32;
pub const TRICKLE_TAIL_BATCHES: usize = 16;

/// `serve_trickle`: a resident SBM graph plus `clients` streams of small
/// insert-only batches, each confined to its own slice of the resident
/// vertex range so concurrent submissions commute.
pub fn serve_trickle(seed: u64, seconds: f64, clients: usize) -> TrickleInputs {
    let resident =
        generate_sbm(&SbmParams::scaled(TRICKLE_RESIDENT_VERTICES, TRICKLE_RESIDENT_EDGES, seed));
    let preload: Vec<Batch> =
        resident.chunks(TRICKLE_PRELOAD_SUBMIT).map(GraphMutation::adds).collect();
    let per_client = scaled(TRICKLE_BATCHES, 100, seconds, 26.0);
    let slice = TRICKLE_RESIDENT_VERTICES / clients as u32;
    let root = SplitMix64::new(seed ^ 0x5452_4943_4b4c_4500); // "TRICKLE"
    let clients: Vec<Vec<Batch>> = (0..clients)
        .map(|c| {
            let mut rng = root.fork(c as u64);
            let base = c as u32 * slice;
            (0..per_client)
                .map(|_| {
                    (0..TRICKLE_BATCH_MUTS)
                        .map(|_| {
                            let u = rng.gen_range(slice as u64) as u32;
                            // A non-zero offset keeps v != u: no self loops.
                            let v = (u + 1 + rng.gen_range(slice as u64 - 1) as u32) % slice;
                            let w = 1 + rng.gen_range(4) as u32;
                            GraphMutation::AddEdge((base + u, base + v, w))
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let tail_base = TRICKLE_RESIDENT_VERTICES;
    let tail: Vec<Batch> = (0..TRICKLE_TAIL_BATCHES as u32)
        .map(|i| vec![GraphMutation::AddEdge((tail_base + i, tail_base + i + 1, 1))])
        .collect();
    TrickleInputs {
        n_vertices: tail_base + TRICKLE_TAIL_BATCHES as u32 + 1,
        hash: input_hash(preload.iter().chain(clients.iter().flatten()).chain(&tail)),
        preload,
        clients,
        tail,
    }
}

/// The standing-query panel of `paper subscriptions`, in registration order.
pub const QUERY_PANEL: [(&str, &[u32]); 4] =
    [("a.b*.c", &[0]), ("c+", &[0]), ("a?.b.c*", &[1]), ("b+", &[0, 1, 2])];

/// Inputs of `query_fanout`.
pub struct FanoutInputs {
    /// Churn range plus the sentinel vertex.
    pub n_vertices: u32,
    /// One submission — and so one increment — each.
    pub batches: Vec<Batch>,
    /// Submitted after the timed region: its edge makes the sentinel vertex
    /// match the panel's last query (`b+` from vertex 0), so the subscriber
    /// can tell the delta stream has ended.
    pub sentinel_batch: Batch,
    pub sentinel_vertex: u32,
    /// Labelled edges live after the last batch and the sentinel.
    pub live_labeled: Vec<(u32, u32, u8)>,
    pub hash: u64,
}

const FANOUT_VERTICES: u32 = 2_000;
/// Batches of the full `query_fanout` schedule.
pub const FANOUT_BATCHES: usize = 2_000;

/// `query_fanout`: labelled sliding-window churn under the query panel.
pub fn query_fanout(seed: u64, seconds: f64) -> FanoutInputs {
    let churn = generate_churn(&ChurnParams {
        n_vertices: FANOUT_VERTICES,
        batches: scaled(FANOUT_BATCHES, 100, seconds, 20.0),
        adds_per_batch: 64,
        window: 8,
        drain: false,
        updates_per_batch: 8,
        order: Sampling::Edge,
        labels: 3,
        seed,
    });
    let batches: Vec<Batch> = (0..churn.len()).map(|i| churn.batch(i).to_mutations()).collect();
    let sentinel_vertex = FANOUT_VERTICES;
    let label_b = sdgp_core::query::label_of('b').expect("'b' is an atom");
    let sentinel_batch = vec![GraphMutation::AddLabeledEdge((0, sentinel_vertex, 1), label_b)];
    let mut live_labeled: Vec<(u32, u32, u8)> = churn
        .live_labeled_after(churn.len() - 1)
        .into_iter()
        .map(|((u, v, _), l)| (u, v, l))
        .collect();
    live_labeled.push((0, sentinel_vertex, label_b));
    FanoutInputs {
        n_vertices: FANOUT_VERTICES + 1,
        hash: input_hash(batches.iter().chain([&sentinel_batch])),
        batches,
        sentinel_batch,
        sentinel_vertex,
        live_labeled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_counts_follow_the_measuring_time() {
        assert_eq!(scaled(40, 10, 25.0, 25.0), 40);
        assert_eq!(scaled(40, 10, 60.0, 25.0), 40, "never more than the full schedule");
        assert_eq!(scaled(40, 10, 10.0, 25.0), 16);
        assert_eq!(scaled(40, 10, 1.0, 25.0), 10, "never fewer than the minimum");
        assert_eq!(scaled(3, 1, 10.0, 25.0), 1);
    }

    #[test]
    fn input_hash_is_stable_per_seed_and_differs_across_seeds() {
        let a = churn_window(91, 1.0);
        let b = churn_window(91, 1.0);
        assert_eq!(a.hash, b.hash, "two generations of one seed hash alike");
        assert_eq!(a.batches, b.batches);
        assert_ne!(a.hash, churn_window(1729, 1.0).hash);

        let (t1, t2) = (serve_trickle(91, 1.0, 2), serve_trickle(91, 1.0, 2));
        assert_eq!(t1.hash, t2.hash);
        assert_ne!(t1.hash, serve_trickle(92, 1.0, 2).hash);

        let (f1, f2) = (query_fanout(91, 1.0), query_fanout(91, 1.0));
        assert_eq!(f1.hash, f2.hash);
        assert_ne!(f1.hash, query_fanout(92, 1.0).hash);
    }

    #[test]
    fn trickle_clients_stay_inside_their_slices() {
        let t = serve_trickle(7, 1.0, 2);
        assert_eq!(t.preload.iter().map(Vec::len).sum::<usize>(), TRICKLE_RESIDENT_EDGES);
        assert_eq!(t.tail.len(), TRICKLE_TAIL_BATCHES);
        for (c, batches) in t.clients.iter().enumerate() {
            let (lo, hi) = (c as u32 * 10_000, (c as u32 + 1) * 10_000);
            for m in batches.iter().flatten() {
                let (u, v, w) = m.edge();
                assert!((lo..hi).contains(&u) && (lo..hi).contains(&v), "client {c}: {m:?}");
                assert_ne!(u, v);
                assert!((1..=4).contains(&w));
            }
        }
    }

    #[test]
    fn fanout_sentinel_is_outside_the_churn_range() {
        let f = query_fanout(3, 1.0);
        for m in f.batches.iter().flatten() {
            let (u, v, _) = m.edge();
            assert!(u < f.sentinel_vertex && v < f.sentinel_vertex);
        }
        assert_eq!(f.live_labeled.last(), Some(&(0, f.sentinel_vertex, 2)));
    }
}
