//! Property tests of the column bands and the threaded driver: for arbitrary
//! operon workloads, any shard count must produce results **bit-identical**
//! to one band — final object states, cycle counts, event counters, per-cell
//! loads, activity series, errors, and the Safra detector's statistics.
//!
//! Each band visits only its own net-live / work-live cells, on either
//! driver, so the visit count is pinned too: it is the same at every shard
//! count. A run of a multi-band chip is threaded from its first cycle to its
//! stop. `link_buffer ∈ {1, 2}` puts credit back-pressure — where a stale
//! router snapshot would show — on the path. The dense reference both
//! drivers are pinned against lives in `chip.rs`'s tests.

use amcca_sim::{
    ActivityRecording, Address, Chip, ChipConfig, Counters, Dims, ExecCtx, Operon, Program,
    SimError,
};
use proptest::prelude::*;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// Workload program exercising every engine surface: fan-out diffusion
/// (action 7), local allocation + placement-RNG routing (action 8), and
/// plain increments (action 9). Payload packs `value | ttl << 48`.
struct StressProgram;

const TTL_SHIFT: u32 = 48;

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

const DIMS: Dims = Dims::new(9, 5);
const N_CELLS: u64 = 45;

impl Program for StressProgram {
    type Object = u64;

    fn fork(&self) -> Self {
        StressProgram
    }

    fn execute(&mut self, ctx: &mut ExecCtx<'_, u64>, op: &Operon) {
        ctx.charge(1);
        let value = op.payload[0] & 0xFFFF;
        let ttl = (op.payload[0] >> TTL_SHIFT) & 0xFF;
        match op.action {
            // Fan-out: add, then forward two children to mixed cells.
            7 => {
                *ctx.obj_mut(op.target.slot).expect("live") += value;
                if ttl > 0 {
                    for k in 0..2u64 {
                        let h = mix(op.payload[1] ^ (ttl << 8) ^ k);
                        let cc = (h % N_CELLS) as u16;
                        ctx.propagate(Operon::new(
                            Address::new(cc, 0),
                            7,
                            [((ttl - 1) << TTL_SHIFT) | value, h],
                        ));
                    }
                }
            }
            // Allocate locally, then route an increment through the
            // placement policy's per-cell RNG (exercises RNG determinism).
            8 => {
                if let Ok(addr) = ctx.alloc(value) {
                    ctx.propagate(Operon::new(addr, 9, [1, 0]));
                }
                let tcc = ctx.choose_alloc_target(0);
                ctx.propagate(Operon::new(Address::new(tcc, 0), 9, [value, 0]));
            }
            9 => match ctx.obj_mut(op.target.slot) {
                Some(v) => *v += value,
                None => ctx.fail(SimError::BadAddress { addr: op.target, action: 9 }),
            },
            other => panic!("unknown action {other}"),
        }
    }
}

/// The action [`PanicAt`] panics on, at its chosen cell.
const ACT_MARK: u16 = 10;

/// [`StressProgram`], plus one marked action that panics on one chosen cell
/// and does nothing elsewhere.
struct PanicAt {
    cc: u16,
}

impl Program for PanicAt {
    type Object = u64;

    fn fork(&self) -> Self {
        PanicAt { cc: self.cc }
    }

    fn execute(&mut self, ctx: &mut ExecCtx<'_, u64>, op: &Operon) {
        match op.action {
            ACT_MARK => assert_ne!(ctx.cc, self.cc, "marked action on the chosen cell"),
            _ => StressProgram.execute(ctx, op),
        }
    }
}

#[derive(Debug, PartialEq)]
struct RunOutcome {
    result: Result<u64, SimError>,
    cycle: u64,
    counters: Counters,
    objects: Vec<(u16, u32, u64)>,
    loads: Vec<(u64, u32)>,
    activity: Vec<u16>,
    cell_visits: u64,
}

fn build(shards: usize, link_buffer: usize, queue_cap: usize, seed: u64) -> Chip<StressProgram> {
    let cfg = ChipConfig {
        dims: DIMS,
        link_buffer,
        task_queue_cap: queue_cap,
        record_activity: ActivityRecording::Counts,
        seed,
        shards,
        ..ChipConfig::small_test()
    };
    let mut chip = Chip::new(cfg, StressProgram);
    for cc in 0..N_CELLS as u16 {
        chip.host_alloc(cc, 0).unwrap();
    }
    chip
}

/// A multi-band run is threaded from its first cycle to its stop; a
/// one-band run never is.
fn assert_driver(chip: &Chip<impl Program>, shards: usize) {
    let threaded = if shards > 1 { chip.cycle() } else { 0 };
    assert_eq!(chip.sharded_cycles(), threaded, "shards={shards}");
}

fn run(
    shards: usize,
    link_buffer: usize,
    queue_cap: usize,
    seed: u64,
    ops: &[Operon],
) -> RunOutcome {
    let mut chip = build(shards, link_buffer, queue_cap, seed);
    assert_eq!(chip.is_sharded(), shards > 1, "plan engages for every tested shard count");
    chip.io_load(ops.iter().copied());
    let result = chip.run_until_quiescent();
    assert_driver(&chip, shards);
    let mut objects = Vec::new();
    chip.for_each_object(|a, &v| objects.push((a.cc, a.slot, v)));
    RunOutcome {
        result,
        cycle: chip.cycle(),
        counters: *chip.counters(),
        objects,
        loads: chip.cell_loads().iter().map(|l| (l.delivered, l.peak_queue)).collect(),
        activity: chip.activity().counts.clone(),
        cell_visits: chip.cell_visits(),
    }
}

fn workload(seeds: &[(u16, u64, u64, u64, u8)]) -> Vec<Operon> {
    seeds
        .iter()
        .map(|&(cc, v, ttl, h, action)| {
            let action = 7 + (action % 2) as u16; // 7 (fan-out) or 8 (alloc+rng)
            Operon::new(Address::new(cc % N_CELLS as u16, 0), action, [(ttl << TTL_SHIFT) | v, h])
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// One band and 2, 3 or 8 bands are bit-identical: same cycles,
    /// counters, objects, loads, activity series and cell visits — even
    /// under tight buffers where backpressure stalls dominate.
    #[test]
    fn sharded_runs_match_sequential(
        seeds in prop::collection::vec(
            (0u16..N_CELLS as u16, 1u64..8, 0u64..5, any::<u64>(), 0u8..2), 1..24),
        link_buffer in 1usize..3,
        queue_cap in 2usize..40,
        chip_seed in 0u64..1000,
    ) {
        let ops = workload(&seeds);
        let reference = run(1, link_buffer, queue_cap, chip_seed, &ops);
        prop_assert!(reference.result.is_ok());
        for shards in [2usize, 3, 8] {
            let sharded = run(shards, link_buffer, queue_cap, chip_seed, &ops);
            prop_assert_eq!(&reference, &sharded, "shards={} diverged", shards);
        }
    }

    /// Column-skewed workloads (seeds homed in the west third of the mesh,
    /// so one band saturates) are bit-identical to the sequential run at
    /// K ∈ {2, 4}.
    #[test]
    fn column_skewed_runs_match_sequential(
        seeds in prop::collection::vec(
            (0u16..N_CELLS as u16, 1u64..8, 2u64..6, any::<u64>(), 0u8..2), 4..20),
        chip_seed in 0u64..1000,
    ) {
        let skewed: Vec<(u16, u64, u64, u64, u8)> = seeds
            .iter()
            .map(|&(cc, v, ttl, h, a)| ((cc / DIMS.x) * DIMS.x + cc % 3, v, ttl, h, a))
            .collect();
        let ops = workload(&skewed);
        let reference = run(1, 4, 1 << 16, chip_seed, &ops);
        prop_assert!(reference.result.is_ok());
        for shards in [2usize, 4] {
            let sharded = run(shards, 4, 1 << 16, chip_seed, &ops);
            prop_assert_eq!(&reference, &sharded, "shards={} diverged", shards);
        }
    }

    /// The distributed Safra detector behaves identically under sharding:
    /// same detection cycle, same token statistics, same results, same
    /// visits.
    #[test]
    fn sharded_safra_matches_sequential(
        seeds in prop::collection::vec(
            (0u16..N_CELLS as u16, 1u64..8, 0u64..4, any::<u64>(), 0u8..2), 1..12),
        chip_seed in 0u64..1000,
    ) {
        let ops = workload(&seeds);
        let outcomes: Vec<_> = [1usize, 2, 3, 8]
            .into_iter()
            .map(|shards| {
                let mut chip = build(shards, 4, 1 << 16, chip_seed);
                chip.io_load(ops.iter().copied());
                chip.enable_safra_termination();
                chip.begin_safra_probe();
                chip.run_until_terminated().unwrap();
                assert_driver(&chip, shards);
                let s = chip.safra().unwrap();
                let mut objects = Vec::new();
                chip.for_each_object(|a, &v| objects.push((a.cc, a.slot, v)));
                (
                    chip.cycle(),
                    *chip.counters(),
                    objects,
                    s.rounds,
                    s.token_hops,
                    s.token_requeues,
                    s.detected_at,
                    chip.safra_balance(),
                    chip.cell_visits(),
                )
            })
            .collect();
        for o in &outcomes[1..] {
            prop_assert_eq!(&outcomes[0], o);
        }
        prop_assert_eq!(outcomes[0].7, 0, "closed-system accounting balances");
    }
}

/// Errors surface identically: same variant, at the same cycle — a compute
/// error (an operon for a dead slot) and a network one (an operon for a cell
/// the mesh does not have), on one band and on three.
#[test]
fn sharded_error_matches_sequential() {
    let mixed = workload(&[(3, 2, 3, 99, 0), (17, 1, 2, 7, 1), (40, 1, 4, 1234, 0)]);
    let dead_slot = Operon::new(Address::new(40, 7), 9, [1, 0]);
    let no_cell = Operon::new(Address::new(N_CELLS as u16 + 3, 0), 9, [1, 0]);
    for (bad, is_expected) in [
        (dead_slot, (|e| matches!(e, SimError::BadAddress { .. })) as fn(&SimError) -> bool),
        (no_cell, |e| matches!(e, SimError::BadTargetCell { .. })),
    ] {
        let mut outcomes = Vec::new();
        for shards in [1usize, 3] {
            let mut chip = build(shards, 4, 1 << 16, 42);
            chip.io_load(mixed.iter().copied().chain([bad]));
            let err = chip.run_until_quiescent().unwrap_err();
            assert_driver(&chip, shards);
            outcomes.push((err, chip.cycle()));
        }
        assert!(is_expected(&outcomes[0].0), "{:?}", outcomes[0]);
        assert!(outcomes.iter().all(|o| *o == outcomes[0]), "{outcomes:?}");
    }
}

/// A multi-band run is threaded from its first cycle to its stop — its
/// cold warm-up and tail included, and over consecutive runs of one chip —
/// with results bit-identical to one band.
#[test]
fn a_multi_band_run_is_threaded_start_to_finish() {
    let seeds: Vec<(u16, u64, u64, u64, u8)> =
        (0..24).map(|i| (i as u16 * 2 % N_CELLS as u16, 3, 7, mix(i), 0)).collect();
    let ops = workload(&seeds);
    let lonely = workload(&[(3, 2, 0, 5, 0), (11, 1, 0, 9, 0)]); // ttl 0: no fan-out
    let [reference, threaded] = [1usize, 4].map(|shards| {
        let mut chip = build(shards, 4, 1 << 16, 33);
        let mut runs = Vec::new();
        for batch in [&ops, &lonely] {
            chip.io_load(batch.iter().copied());
            runs.push(chip.run_until_quiescent().unwrap());
            assert_driver(&chip, shards);
        }
        let mut objects = Vec::new();
        chip.for_each_object(|a, &v| objects.push((a.cc, a.slot, v)));
        (runs, *chip.counters(), objects, chip.activity().counts.clone(), chip.cell_visits())
    });
    assert!(threaded.0.iter().all(|&cycles| cycles > 0));
    assert_eq!(reference, threaded, "the threaded driver must not change any result");
}

/// A hot column stays with the band that owns it: thirty fan-out seeds in
/// mesh column 0 at three shards match the sequential run bit for bit, no
/// row moves to another worker, and band 0 reports more work than band 2.
#[test]
fn hot_column_is_computed_by_its_own_band() {
    let seeds: Vec<(u16, u64, u64, u64, u8)> =
        (0..30).map(|i| ((i % 5) * DIMS.x, 3, 2, mix(i as u64), 0)).collect();
    let ops = workload(&seeds);
    let reference = run(1, 4, 1 << 16, 33, &ops);
    let mut chip = build(3, 4, 1 << 16, 33);
    chip.io_load(ops.iter().copied());
    chip.run_until_quiescent().unwrap();
    assert_driver(&chip, 3);
    assert_eq!(chip.cycle(), reference.cycle);
    assert_eq!(chip.counters(), &reference.counters);
    let mut objects = Vec::new();
    chip.for_each_object(|a, &v| objects.push((a.cc, a.slot, v)));
    assert_eq!(objects, reference.objects);
    assert_eq!(chip.steal_rows(), 0, "no row leaves its band");
    assert_eq!(chip.exec_active(), chip.band_active(), "each band's worker did its work");
    let band = chip.band_active();
    assert!(band[0] > band[2], "the hot column's band is the busiest: {band:?}");
}

/// Frame-mode activity bitmaps (the animation data) are identical too.
#[test]
fn sharded_frames_match_sequential() {
    let ops = workload(&[(1, 3, 4, 5, 0), (20, 2, 3, 11, 1), (44, 1, 4, 23, 0)]);
    let mut frames = Vec::new();
    for shards in [1usize, 4] {
        let mut chip = build(shards, 4, 1 << 16, 7);
        chip.set_activity_recording(ActivityRecording::Frames { stride: 2 });
        chip.io_load(ops.iter().copied());
        chip.run_until_quiescent().unwrap();
        assert_driver(&chip, shards);
        frames.push((chip.activity().counts.clone(), chip.activity().frames.clone()));
    }
    assert!(!frames[0].1.is_empty(), "frames were recorded");
    assert_eq!(frames[0], frames[1]);
}

/// A panic in any band's actions reaches the caller of the run instead of
/// leaving the other bands spinning on the barrier: in band 0, which the
/// calling thread steps, and in the last band, which a helper thread steps.
#[test]
fn a_panic_in_any_band_reaches_the_caller() {
    // Row 2's cells of mesh column 0 (band 0) and column 8 (the last band).
    for cc in [2 * DIMS.x, 2 * DIMS.x + 8] {
        for shards in [2usize, 3] {
            let (done, finished) = mpsc::channel::<()>();
            let run = std::thread::spawn(move || {
                let _done = done; // dropped when the run returns or unwinds
                let cfg = ChipConfig { dims: DIMS, shards, ..ChipConfig::small_test() };
                let mut chip = Chip::new(cfg, PanicAt { cc });
                for cell in 0..N_CELLS as u16 {
                    chip.host_alloc(cell, 0).unwrap();
                }
                chip.io_load(workload(&[(1, 3, 4, 5, 0), (40, 2, 3, 11, 1)]));
                chip.io_load([Operon::new(Address::new(cc, 0), ACT_MARK, [0, 0])]);
                chip.run_until_quiescent()
            });
            assert_eq!(
                finished.recv_timeout(Duration::from_secs(30)),
                Err(RecvTimeoutError::Disconnected),
                "cell {cc} at {shards} shards: the run still had not ended after 30 s"
            );
            assert!(run.join().is_err(), "cell {cc} at {shards} shards: the panic was lost");
        }
    }
}
