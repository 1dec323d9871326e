//! Property tests of the distributed termination detector: for arbitrary
//! diffusion workloads, Safra's token must (a) always detect, (b) never
//! detect before the diffusion's effects are complete, and (c) leave
//! results identical to a plain quiescence run.

use amcca_sim::{Address, Chip, ChipConfig, Dims, ExecCtx, Operon, Program, TerminationMode};
use proptest::prelude::*;

/// Action 9: add `value`, and while TTL > 0, forward two children to
/// pseudo-random cells derived from the payload — an exponential diffusion
/// whose total effect is predictable: each seed contributes
/// `value * (2^(ttl+1) - 1)`.
struct FanProgram;

const TTL_SHIFT: u32 = 48;

fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

impl Program for FanProgram {
    type Object = u64;

    fn fork(&self) -> Self {
        FanProgram
    }

    fn execute(&mut self, ctx: &mut ExecCtx<'_, u64>, op: &Operon) {
        ctx.charge(1);
        let value = op.payload[0] & 0xFFFF;
        let ttl = (op.payload[0] >> TTL_SHIFT) & 0xFF;
        *ctx.obj_mut(op.target.slot).expect("live") += value;
        if ttl > 0 {
            for k in 0..2u64 {
                let h = mix(op.payload[1] ^ (ttl << 8) ^ k);
                let cc = (h % 36) as u16;
                ctx.propagate(Operon::new(
                    Address::new(cc, 0),
                    9,
                    [((ttl - 1) << TTL_SHIFT) | value, h],
                ));
            }
        }
    }
}

fn build(seed: u64, termination: TerminationMode) -> Chip<FanProgram> {
    let cfg = ChipConfig { dims: Dims::new(6, 6), seed, termination, ..ChipConfig::small_test() };
    let mut chip = Chip::new(cfg, FanProgram);
    for cc in 0..36u16 {
        chip.host_alloc(cc, 0).unwrap();
    }
    chip
}

fn total(chip: &Chip<FanProgram>) -> u64 {
    let mut t = 0;
    chip.for_each_object(|_, &v| t += v);
    t
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Safra detects every terminating diffusion, at a point where all of
    /// its effects are already visible, and never corrupts results.
    #[test]
    fn safra_detects_exactly_like_quiescence(
        seeds in prop::collection::vec((0u16..36, 1u64..8, 0u64..5, any::<u64>()), 1..20),
        chip_seed in 0u64..100,
    ) {
        let load = |chip: &mut Chip<FanProgram>| {
            let expected: u64 = seeds
                .iter()
                .map(|&(_, v, ttl, _)| v * ((1u64 << (ttl + 1)) - 1))
                .sum();
            chip.io_load(seeds.iter().map(|&(cc, v, ttl, h)| {
                Operon::new(Address::new(cc, 0), 9, [(ttl << TTL_SHIFT) | v, h])
            }));
            expected
        };

        // Baseline: quiescence.
        let mut base = build(chip_seed, TerminationMode::Quiescence);
        let expected = load(&mut base);
        base.run_until_quiescent().unwrap();
        prop_assert_eq!(total(&base), expected);

        // Safra run on the identical workload.
        let mut chip = build(chip_seed, TerminationMode::SafraToken);
        load(&mut chip);
        chip.run_until_quiescent().unwrap();
        // (b) at detection, every effect is present — nothing in flight.
        prop_assert_eq!(total(&chip), expected, "no effect may be outstanding at detection");
        let s = chip.safra().unwrap();
        prop_assert!(s.terminated);
        // Global message balance: Σ mc over all cells is zero.
        prop_assert_eq!(chip.safra_balance(), 0, "closed-system accounting must balance");
        // (a) detection happened at or after true termination.
        prop_assert!(chip.cycle() >= base.cycle());
    }

    /// Re-probing across segments keeps detecting correctly.
    #[test]
    fn safra_multi_segment_detection(
        batches in prop::collection::vec(
            prop::collection::vec((0u16..36, 1u64..5), 1..8), 1..4),
    ) {
        let mut chip = build(7, TerminationMode::SafraToken);
        let mut expected = 0u64;
        for batch in &batches {
            expected += batch.iter().map(|&(_, v)| v).sum::<u64>();
            chip.io_load(batch.iter().map(|&(cc, v)| {
                Operon::new(Address::new(cc, 0), 9, [v, 0]) // ttl 0: no fan-out
            }));
            chip.run_until_quiescent().unwrap();
            prop_assert_eq!(total(&chip), expected, "per-segment effects complete");
        }
    }
}
