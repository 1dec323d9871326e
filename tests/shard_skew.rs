//! Skewed churn on the sharded engine: hot vertices crowd the north rows of
//! the mesh, so one row band does most of the work, and the engine's
//! bit-identity contract must hold anyway. The converged
//! states and per-batch cycle counts are identical across shard counts
//! (K ∈ {1, 2, 4, 8}).

use amcca::prelude::*;

/// Vertex count (three hubs plus their fans).
const N: u32 = 24;

/// Chip for direct runs: with more than one band, every run threaded.
fn chip(shards: usize) -> ChipConfig {
    ChipConfig::small_test().with_shards(shards)
}

/// Skewed churn: hubs 0, 8, and 16 sit in mesh rows 0–2 of column 0 under
/// round-robin placement on the 8 × 8 test chip — all in the first band at
/// two shards — with a delete tail that shifts the load.
fn skewed_batches() -> Vec<Vec<GraphMutation>> {
    use GraphMutation::{AddEdge, DelEdge};
    let fan = |hub: u32, vs: std::ops::Range<u32>| -> Vec<GraphMutation> {
        vs.map(|v| AddEdge((hub, v, 1))).collect()
    };
    let mut b2 = fan(8, 9..14);
    b2.push(DelEdge((0, 1, 1)));
    let mut b3 = fan(16, 17..22);
    b3.extend([DelEdge((8, 9, 1)), AddEdge((0, 1, 2)), AddEdge((1, 8, 1))]);
    vec![fan(0, 1..6), b2, b3]
}

/// Stream the skewed batches and return the final states and the cycles
/// each batch took.
fn run(shards: usize) -> (Vec<u64>, Vec<u64>) {
    let mut g = StreamingGraph::builder(BfsAlgo::new(0))
        .vertices(N)
        .chip(chip(shards))
        .rpvo(RpvoConfig::basic(3, 2))
        .build()
        .unwrap();
    let cycles = skewed_batches().iter().map(|b| g.stream_increment(b).unwrap().cycles).collect();
    let chip = g.device().chip();
    let threaded = if shards > 1 { chip.cycle() } else { 0 };
    assert_eq!(chip.sharded_cycles(), threaded, "shards={shards}: every cycle threaded");
    (g.states(), cycles)
}

#[test]
fn skewed_churn_is_shard_count_independent() {
    let reference = run(1);
    for shards in [2usize, 4, 8] {
        assert_eq!(reference, run(shards), "shards={shards} diverged");
    }
}
