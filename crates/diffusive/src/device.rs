//! The host-side device façade, mirroring the paper's Listing 1:
//!
//! ```text
//! AMCCA_Device dev = /* Initialize the device. */
//! AMCCA_REGISTER_ACTION(dev, INSERT_ACTION, "insert-edge-action");
//! dev.register_data_transfer(vertices, edges, INSERT_ACTION);
//! AMCCA_Terminator terminator = AMCCA_Terminator();
//! dev.run(terminator);
//! ```
//!
//! A [`Device`] owns a simulated chip running a diffusive [`App`], provides
//! action registration, host-side object allocation (graph construction),
//! IO-stream loading, and segment-wise runs that wait on the terminator.

use amcca_sim::{ActionId, ActivityRecording, Address, Chip, ChipConfig, Operon, SimError};

use crate::action::ActionRegistry;
use crate::app::{App, Runtime};
use crate::terminator::{RunReport, TerminationMode};

/// The host-side handle to a simulated AM-CCA device running app `A`.
pub struct Device<A: App> {
    chip: Chip<Runtime<A>>,
    registry: ActionRegistry,
    mode: TerminationMode,
}

impl<A: App> Device<A> {
    /// Initialize the device (Listing 1 line 2).
    pub fn new(cfg: ChipConfig, app: A) -> Self {
        let retries = cfg.max_alloc_retries;
        Device {
            chip: Chip::new(cfg, Runtime::new(app, retries)),
            registry: ActionRegistry::new(),
            mode: TerminationMode::Quiescence,
        }
    }

    /// Register an action by name (the paper's `AMCCA_REGISTER_ACTION`).
    pub fn register_action(&mut self, name: &str) -> ActionId {
        self.registry.register(name)
    }

    /// Register an action at a compile-time id the app's handlers expect.
    pub fn register_action_at(&mut self, id: ActionId, name: &str) -> ActionId {
        self.registry.register_at(id, name)
    }

    /// The action name ⇄ id registry.
    pub fn registry(&self) -> &ActionRegistry {
        &self.registry
    }

    /// Select the termination detector used by [`Self::run`].
    pub fn set_termination_mode(&mut self, mode: TerminationMode) {
        self.mode = mode;
    }

    /// Number of execution shards the underlying chip runs with (from
    /// `ChipConfig::shards`; results are shard-count-independent).
    pub fn shards(&self) -> usize {
        self.chip.cfg().shards
    }

    /// Host-side object allocation for graph construction (untimed; the
    /// paper allocates root RPVOs before streaming starts).
    pub fn host_alloc(&mut self, cc: u16, obj: A::Object) -> Result<Address, SimError> {
        self.chip.host_alloc(cc, obj)
    }

    /// Host-side object deallocation (untimed), returning the freed object.
    /// Used when host restructuring collapses objects between runs, e.g.
    /// merging a demoted rhizome's extra roots back into the primary.
    pub fn host_free(&mut self, addr: Address) -> Option<A::Object> {
        self.chip.host_free(addr)
    }

    /// Queue a stream of operons on the IO channels (the paper's
    /// `register_data_transfer`; operand resolution to addresses is done by
    /// the caller, as `main()` does with its `vertices` map).
    pub fn register_data_transfer(&mut self, ops: impl IntoIterator<Item = Operon>) {
        self.chip.io_load(ops);
    }

    /// Diffuse and wait on the terminator (Listing 1 line 25). Runs until the
    /// termination detector fires; returns the segment report.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        // Discard any activity recorded before this segment.
        let _ = self.chip.take_activity();
        let (cy0, ct0) = self.chip.snapshot();
        match self.mode {
            TerminationMode::Quiescence => {
                self.chip.run_until_quiescent()?;
            }
            TerminationMode::SafraToken => {
                if !self.chip.safra_enabled() {
                    self.chip.enable_safra_termination();
                }
                self.chip.begin_safra_probe();
                self.chip.run_until_terminated()?;
            }
        }
        let (cy1, ct1) = self.chip.snapshot();
        let activity = self.chip.take_activity();
        Ok(RunReport::from_delta(
            cy1 - cy0,
            ct1.delta(&ct0),
            &self.chip.cfg().energy,
            self.chip.cfg().cell_count() as u64,
            activity,
        ))
    }

    /// Enable/disable per-cycle activity recording for subsequent runs.
    pub fn set_activity_recording(&mut self, mode: ActivityRecording) {
        self.chip.set_activity_recording(mode);
    }

    /// The underlying simulated chip (read access).
    pub fn chip(&self) -> &Chip<Runtime<A>> {
        &self.chip
    }

    /// The underlying simulated chip (mutable access).
    pub fn chip_mut(&mut self) -> &mut Chip<Runtime<A>> {
        &mut self.chip
    }

    /// The application running on the device.
    pub fn app(&self) -> &A {
        &self.chip.program().app
    }

    /// Mutable access to the application (e.g. to toggle modes).
    pub fn app_mut(&mut self) -> &mut A {
        &mut self.chip.program_mut().app
    }

    /// Host-side read of an object (verification).
    pub fn object(&self, addr: Address) -> Option<&A::Object> {
        self.chip.object(addr)
    }

    /// Host-side write access to an object (seeding initial state).
    pub fn object_mut(&mut self, addr: Address) -> Option<&mut A::Object> {
        self.chip.object_mut(addr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuation::AllocRequest;
    use amcca_sim::ExecCtx;

    /// Trivial app: objects are `u64`, action 8 adds payload[0] to the target.
    struct AddApp;

    impl App for AddApp {
        type Object = u64;

        fn fork(&self) -> Self {
            AddApp
        }

        fn construct(&mut self, _req: &AllocRequest) -> u64 {
            0
        }

        fn fulfill(&mut self, _ctx: &mut ExecCtx<'_, u64>, _t: Address, _s: u8, _v: Address) {
            unreachable!("AddApp never allocates")
        }

        fn on_action(&mut self, ctx: &mut ExecCtx<'_, u64>, op: &Operon) {
            ctx.charge(1);
            *ctx.obj_mut(op.target.slot).unwrap() += op.payload[0];
        }
    }

    #[test]
    fn device_run_reports_segment_deltas() {
        let mut dev = Device::new(ChipConfig::small_test(), AddApp);
        let act = dev.register_action("add");
        let a = dev.host_alloc(10, 0).unwrap();
        dev.register_data_transfer((0..5).map(|_| Operon::new(a, act, [2, 0])));
        let r1 = dev.run().unwrap();
        assert_eq!(*dev.object(a).unwrap(), 10);
        assert!(r1.cycles > 0);
        assert_eq!(r1.counters.msgs_delivered, 5);
        assert_eq!(r1.time_us, r1.cycles as f64 / 1000.0);

        // Second segment: deltas, not totals.
        dev.register_data_transfer([Operon::new(a, act, [1, 0])]);
        let r2 = dev.run().unwrap();
        assert_eq!(*dev.object(a).unwrap(), 11);
        assert_eq!(r2.counters.msgs_delivered, 1);
        assert!(r2.cycles < r1.cycles);
    }

    #[test]
    fn run_on_idle_device_is_zero_cycles() {
        let mut dev = Device::new(ChipConfig::small_test(), AddApp);
        let r = dev.run().unwrap();
        assert_eq!(r.cycles, 0);
        assert_eq!(r.energy_uj, 0.0);
    }

    #[test]
    fn action_names_resolve() {
        let mut dev = Device::new(ChipConfig::small_test(), AddApp);
        let id = dev.register_action("insert-edge-action");
        assert_eq!(dev.registry().lookup("insert-edge-action"), Some(id));
        assert_eq!(dev.registry().lookup("allocate"), Some(crate::action::ACT_ALLOCATE));
    }

    #[test]
    fn safra_mode_runs_segments_and_matches_quiescence_results() {
        let run = |mode: TerminationMode| -> (u64, u64) {
            let mut dev = Device::new(ChipConfig::small_test(), AddApp);
            dev.set_termination_mode(mode);
            let act = dev.register_action("add");
            let a = dev.host_alloc(40, 0).unwrap();
            let mut cycles = 0;
            for _ in 0..3 {
                dev.register_data_transfer((0..8).map(|_| Operon::new(a, act, [1, 0])));
                cycles += dev.run().unwrap().cycles;
            }
            (*dev.object(a).unwrap(), cycles)
        };
        let (vq, cq) = run(TerminationMode::Quiescence);
        let (vs, cs) = run(TerminationMode::SafraToken);
        assert_eq!(vq, vs, "same results under both terminators");
        assert!(cs > cq, "token detection must cost extra cycles: {cs} vs {cq}");
    }

    #[test]
    fn sharded_device_matches_sequential() {
        let run = |shards: usize| {
            let mut dev = Device::new(ChipConfig::small_test().with_shards(shards), AddApp);
            assert_eq!(dev.shards(), shards);
            let act = dev.register_action("add");
            let a = dev.host_alloc(10, 0).unwrap();
            dev.register_data_transfer((0..16).map(|i| Operon::new(a, act, [i, 0])));
            let r = dev.run().unwrap();
            (*dev.object(a).unwrap(), r.cycles, r.counters, r.energy_uj)
        };
        let sequential = run(1);
        assert_eq!(sequential, run(4), "device runs are shard-count-independent");
    }

    #[test]
    fn activity_recording_scoped_to_segment() {
        let mut dev = Device::new(ChipConfig::small_test(), AddApp);
        let act = dev.register_action("add");
        let a = dev.host_alloc(20, 0).unwrap();
        dev.set_activity_recording(ActivityRecording::Counts);
        dev.register_data_transfer([Operon::new(a, act, [1, 0])]);
        let r1 = dev.run().unwrap();
        assert_eq!(r1.activity.counts.len() as u64, r1.cycles);
        dev.register_data_transfer([Operon::new(a, act, [1, 0])]);
        let r2 = dev.run().unwrap();
        assert_eq!(r2.activity.counts.len() as u64, r2.cycles, "fresh series per segment");
    }
}
