//! Termination detection for diffusions (the paper's `AMCCA_Terminator`,
//! Listing 1: "Create a terminator object that handles termination detection
//! for the diffusion ... Diffuse and wait on the terminator").
//!
//! The terminator is chosen once, when the chip is built, by
//! [`amcca_sim::ChipConfig::termination`]:
//!
//! * [`Quiescence`](amcca_sim::TerminationMode::Quiescence) — the
//!   chip-global check the paper's CCASimulator uses: the diffusion has
//!   terminated when no operon is in flight, no task is queued, no cell is
//!   busy, and the IO streams are drained. Free of message overhead; this is
//!   what all paper experiments run with.
//! * [`SafraToken`](amcca_sim::TerminationMode::SafraToken) — Safra's
//!   distributed token algorithm (Dijkstra EWD 998): message counters and
//!   colours per cell, a token circulating a serpentine ring over the mesh,
//!   detection at the initiator after a clean white round. It detects the
//!   same terminations but pays real token hops and polling cycles — the
//!   bookkeeping a real decentralized system cannot avoid.
//!   `paper ablate-terminator` quantifies the overhead. See
//!   [`amcca_sim::safra`].
//!
//! Either way `Device::run` waits on it and returns a [`RunReport`].

use amcca_sim::{ActivitySeries, Counters, EnergyModel};

/// Report of one `Device::run` segment (e.g. one streaming increment).
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Simulation cycles consumed by this segment.
    pub cycles: u64,
    /// Event-counter deltas for this segment.
    pub counters: Counters,
    /// Energy consumed by this segment, microjoules.
    pub energy_uj: f64,
    /// Wall-clock time of this segment at 1 GHz, microseconds.
    pub time_us: f64,
    /// Per-cycle activity recorded during this segment (if enabled).
    pub activity: ActivitySeries,
    /// Number of reseed triggers the host injected for this report's repair
    /// phase(s) — `n` for a full-wave reseed, the repair-frontier size for a
    /// targeted one, `0` when no repair ran. Set by the application layer
    /// (the chip does not know the trigger policy); accumulated by
    /// [`RunReport::absorb`].
    pub reseed_triggers: u64,
    /// Cycles spent in the repair (phase-B reseed) segment(s) of this
    /// report, out of [`RunReport::cycles`]. Set by the application layer;
    /// accumulated by [`RunReport::absorb`].
    pub repair_cycles: u64,
    /// Instructions retired during the repair segment(s) — the *work* of the
    /// reseed wave (cycles measure its depth; a wide wave hides its cost in
    /// parallelism). Set by the application layer; accumulated by
    /// [`RunReport::absorb`].
    pub repair_instrs: u64,
}

impl RunReport {
    /// Build a report from a segment's cycle count and counter deltas.
    pub fn from_delta(
        cycles: u64,
        counters: Counters,
        energy: &EnergyModel,
        cells: u64,
        activity: ActivitySeries,
    ) -> Self {
        let energy_uj = energy.total_uj(&counters, cells, cycles);
        let time_us = amcca_sim::cycles_to_us(cycles);
        RunReport {
            cycles,
            counters,
            energy_uj,
            time_us,
            activity,
            reseed_triggers: 0,
            repair_cycles: 0,
            repair_instrs: 0,
        }
    }

    /// Fold a follow-up segment into this report. Used when one logical
    /// streaming increment runs as several device segments (a deletion
    /// batch's structural phase, its repair re-relaxation, a rhizome
    /// demotion merge): cycles, counters, energy, and time accumulate and
    /// the activity series are concatenated in run order.
    /// The exhaustive destructuring is deliberate: adding a report field
    /// without absorbing it here becomes a compile error, not a silent
    /// drop in multi-segment increments.
    pub fn absorb(&mut self, other: RunReport) {
        let RunReport {
            cycles,
            counters,
            energy_uj,
            time_us,
            activity,
            reseed_triggers,
            repair_cycles,
            repair_instrs,
        } = other;
        self.cycles += cycles;
        self.counters.merge(&counters);
        self.energy_uj += energy_uj;
        self.time_us += time_us;
        self.activity.counts.extend_from_slice(&activity.counts);
        self.activity.frames.extend(activity.frames);
        if self.activity.frame_stride == 0 {
            self.activity.frame_stride = activity.frame_stride;
        }
        self.reseed_triggers += reseed_triggers;
        self.repair_cycles += repair_cycles;
        self.repair_instrs += repair_instrs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_converts_cycles_to_time() {
        let r = RunReport::from_delta(
            22_000,
            Counters::default(),
            &EnergyModel::default(),
            1024,
            ActivitySeries::default(),
        );
        assert_eq!(r.time_us, 22.0);
        assert!(r.energy_uj > 0.0, "leakage energy is nonzero");
    }

    #[test]
    fn absorb_accumulates_segments() {
        let mk = |cycles: u64, counts: Vec<u16>| {
            let mut r = RunReport::from_delta(
                cycles,
                Counters { msgs_delivered: cycles, ..Default::default() },
                &EnergyModel::default(),
                16,
                ActivitySeries::default(),
            );
            r.activity.counts = counts;
            r
        };
        let mut a = mk(100, vec![1, 2]);
        let mut b = mk(40, vec![3]);
        b.reseed_triggers = 7;
        b.repair_cycles = 40;
        let (ea, eb) = (a.energy_uj, b.energy_uj);
        a.absorb(b);
        assert_eq!(a.cycles, 140);
        assert_eq!(a.counters.msgs_delivered, 140);
        assert_eq!(a.time_us, 0.14);
        assert!((a.energy_uj - (ea + eb)).abs() < 1e-12);
        assert_eq!(a.activity.counts, vec![1, 2, 3]);
        assert_eq!(a.reseed_triggers, 7, "repair stats accumulate");
        assert_eq!(a.repair_cycles, 40);
    }
}
