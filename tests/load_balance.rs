//! Load-balancing invariants: deterministic work stealing and hot-object
//! migration must be invisible to every simulation result.
//!
//! The sharded engine's strict bit-identity contract extends to both
//! balancing mechanisms: stealing only changes which worker executes a row,
//! and migration is untimed host-side placement, so for ANY mutation
//! sequence the converged states, cycle counts, and conservation invariants
//! must be identical across shard counts (K ∈ {1, 2, 4}), with stealing on
//! or off, and with migration on or off — pinned here through the shared
//! differential harness (`tests/common/oracle.rs`) plus direct cycle-count
//! comparisons. What balancing IS allowed to change (which column a hot
//! root lives in, wall-clock spread) is asserted positively: the skewed
//! schedules below actually trigger moves.

mod common;

use amcca::prelude::*;
use common::oracle::{Rebuild, ALL_ALGOS, N};
use proptest::prelude::*;

/// Chip for direct runs: every cycle on the sharded engine (adaptive off)
/// with a break-even low enough that the steal scheduler can clear it.
fn chip(shards: usize, steal: bool) -> ChipConfig {
    ChipConfig { adaptive_shards: false, shard_break_even: 4, ..ChipConfig::small_test() }
        .with_shards(shards)
        .with_work_stealing(steal)
}

/// Column-skewed churn: hubs 0, 8, and 16 all share mesh column 0 under
/// round-robin placement on the 8 × 8 test chip, each staying below the
/// harness promotion threshold, with a delete tail that shifts the load.
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

/// Stream the skewed batches and return (final states, per-batch cycles,
/// total migrations).
fn run(shards: usize, steal: bool, migrate: bool) -> (Vec<u64>, Vec<u64>, u64) {
    let mut g = StreamingGraph::builder(BfsAlgo::new(0))
        .vertices(N)
        .chip(chip(shards, steal))
        .rpvo(RpvoConfig::basic(3, 2))
        .migrate_hot(migrate)
        .build()
        .unwrap();
    let mut cycles = Vec::new();
    let mut moves = 0;
    for b in skewed_batches() {
        let r = g.stream_increment(&b).unwrap();
        cycles.push(r.cycles);
        moves += r.migrations;
    }
    (g.states(), cycles, moves)
}

/// Migration decisions are a pure function of the host directory, so runs
/// at any shard count — and with stealing on or off — produce identical
/// states, identical per-batch cycle counts, and identical move counts.
/// The schedule is skewed enough that moves actually happen.
#[test]
fn balancing_is_shard_count_independent() {
    let reference = run(1, false, true);
    assert!(reference.2 > 0, "the skewed schedule must trigger migrations");
    for shards in [2usize, 4, 8] {
        for steal in [false, true] {
            let got = run(shards, steal, true);
            assert_eq!(reference, got, "shards={shards} steal={steal} diverged");
        }
    }
}

/// Migration never changes the fixpoint — only where roots live and how
/// later increments' cycles are spent. States must match the migration-off
/// run; cycle counts may legitimately differ (placement is timed work).
#[test]
fn migration_preserves_fixpoints() {
    let with = run(4, true, true);
    let without = run(4, true, false);
    assert_eq!(with.0, without.0, "fixpoint must not depend on migration");
    assert_eq!(without.2, 0, "knob off: no moves");
}

/// A mutation script over hub-skewed endpoints, with every delete valid by
/// construction (same shape as `tests/mutation_equivalence.rs`).
fn materialize(script: &[(u32, u32, u32, bool, u8)]) -> Vec<GraphMutation> {
    let mut muts = Vec::with_capacity(script.len());
    let mut live: Vec<StreamEdge> = Vec::new();
    for &(u, v, w, del, pick) in script {
        if del && !live.is_empty() {
            let e = live.remove(pick as usize % live.len());
            muts.push(GraphMutation::DelEdge(e));
        } else if u != v {
            live.push((u, v, w));
            muts.push(GraphMutation::AddEdge((u, v, w)));
        }
    }
    muts
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// The full differential harness holds with migration enabled: for any
    /// hub-skewed mutation sequence, any shard count, single-root or
    /// rhizome RPVOs, the migrated run's fixpoints equal a from-scratch
    /// rebuild over the survivors, conservation and mirror invariants hold,
    /// and cold rhizomes are demoted.
    #[test]
    fn migrated_fixpoints_match_rebuild_oracle(
        script in prop::collection::vec((0..N, 0..N, 1u32..10, any::<bool>(), any::<u8>()), 1..80),
        si in 0usize..3,
        k in 1usize..3,
    ) {
        let shards = [1usize, 2, 4][si];
        let mut script = script;
        for (i, step) in script.iter_mut().enumerate() {
            if i % 3 == 0 {
                step.0 %= 3; // bias sources onto a few shared columns
            }
        }
        let muts = materialize(&script);
        let r = Rebuild::new(k, shards).chunks(3).migrate(true);
        for algo in ALL_ALGOS {
            r.check(algo, &muts);
        }
    }
}
