//! Load-balancing invariant: deterministic work stealing must be invisible
//! to every simulation result.
//!
//! The sharded engine's strict bit-identity contract extends to its
//! balancing mechanism: stealing only changes which worker executes a row,
//! so the converged states and per-batch cycle counts must be identical
//! across shard counts (K ∈ {1, 2, 4, 8}) with stealing on or off. What
//! stealing IS allowed to change (which worker burns the wall-clock) is
//! asserted positively: the skewed schedule below actually steals rows.

use amcca::prelude::*;

/// Vertex count (three hubs plus their fans).
const N: u32 = 24;

/// Chip for direct runs: every cycle on the sharded engine (adaptive off)
/// with a break-even low enough that the steal scheduler can clear it.
fn chip(shards: usize, steal: bool) -> ChipConfig {
    ChipConfig { adaptive_shards: false, shard_break_even: 4, ..ChipConfig::small_test() }
        .with_shards(shards)
        .with_work_stealing(steal)
}

/// Column-skewed churn: hubs 0, 8, and 16 all share mesh column 0 under
/// round-robin placement on the 8 × 8 test chip, with a delete tail that
/// shifts the load.
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

/// Stream the skewed batches and return (final states, per-batch cycles)
/// plus the rows the run stole.
fn run(shards: usize, steal: bool) -> ((Vec<u64>, Vec<u64>), u64) {
    let mut g = StreamingGraph::builder(BfsAlgo::new(0))
        .vertices(N)
        .chip(chip(shards, steal))
        .rpvo(RpvoConfig::basic(3, 2))
        .build()
        .unwrap();
    let cycles = skewed_batches().iter().map(|b| g.stream_increment(b).unwrap().cycles).collect();
    ((g.states(), cycles), g.device().chip().steal_rows())
}

/// The steal schedule is a pure function of merged per-row activity and
/// compute is cell-local, so runs at any shard count — with stealing on or
/// off — produce identical states and identical per-batch cycle counts.
/// The schedule is skewed enough that rows actually move.
#[test]
fn balancing_is_shard_count_independent() {
    let (reference, _) = run(1, false);
    let mut stolen = 0;
    for shards in [2usize, 4, 8] {
        for steal in [false, true] {
            let (got, rows) = run(shards, steal);
            assert_eq!(reference, got, "shards={shards} steal={steal} diverged");
            assert!(steal || rows == 0, "knob off: no rows move");
            stolen += rows;
        }
    }
    assert!(stolen > 0, "the skewed schedule must trigger steals");
}
