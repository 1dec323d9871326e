//! The diffusive application interface and the runtime that dispatches
//! system actions.
//!
//! An [`App`] supplies the object type living in compute-cell memory and the
//! handlers for its registered actions. The [`Runtime`] wraps an app into an
//! [`amcca_sim::Program`], intercepting the two system actions that implement
//! continuations (paper §3.1) and handing every other operon to
//! [`App::on_action`]:
//!
//! * **allocate** — runs on the chosen remote cell, constructs the object
//!   there, and propagates the return trigger. If the cell's memory is full,
//!   the request re-propagates to the next placement candidate (the paper's
//!   Vicinity Allocator keeps these within 2 hops of the requester).
//! * **set-future** — the anonymous return-trigger action: resumes the
//!   waiting state by fulfilling the future slot on the requesting object.

use amcca_sim::{Address, SimError};
use amcca_sim::{ExecCtx, Operon, Program};

use crate::action::{ACT_ALLOCATE, ACT_SET_FUTURE};
use crate::continuation::{
    allocate_operon, decode_allocate, decode_set_future, set_future_operon, MAX_ENCODABLE_RETRY,
};

/// A diffusive application: object layout plus action handlers.
///
/// Apps are `Send` (with `Send` objects) so a chip configured with
/// `ChipConfig::shards > 1` can run one forked app instance per mesh shard;
/// see [`amcca_sim::Program`] for the sharded-state contract ([`App::fork`] /
/// [`App::merge`] mirror it one level up).
pub trait App: Send {
    /// The object type stored in compute-cell memory (e.g. a vertex object).
    type Object: Send;

    /// Construct a fresh object for an `allocate` request (e.g. a ghost
    /// vertex for logical vertex `req.tag`).
    fn construct(&mut self, req: &crate::continuation::AllocRequest) -> Self::Object;

    /// A continuation returned: set future `slot` of the object at `target`
    /// (which lives on the executing cell) to `value`, and re-propagate any
    /// waiters. Implementations use [`crate::future::FutureLco::fulfill`].
    fn fulfill(
        &mut self,
        ctx: &mut ExecCtx<'_, Self::Object>,
        target: Address,
        slot: u8,
        value: Address,
    );

    /// Dispatch an application action (every id but the two system
    /// actions).
    fn on_action(&mut self, ctx: &mut ExecCtx<'_, Self::Object>, op: &Operon);

    /// Create an independent instance for one shard of a parallel run
    /// (configuration copied, accumulators empty).
    fn fork(&self) -> Self
    where
        Self: Sized;

    /// Fold a shard instance's accumulated state back after a parallel run.
    /// The default drops the worker — correct only for apps whose forks
    /// accumulate nothing.
    fn merge(&mut self, worker: Self)
    where
        Self: Sized,
    {
        let _ = worker;
    }
}

/// Adapter that runs an [`App`] on an [`amcca_sim::Chip`].
pub struct Runtime<A: App> {
    /// The wrapped application.
    pub app: A,
    max_alloc_retries: u32,
}

impl<A: App> Runtime<A> {
    /// Wrap an app; `max_alloc_retries` bounds allocation fallback.
    ///
    /// # Panics
    ///
    /// Panics if `max_alloc_retries` exceeds [`MAX_ENCODABLE_RETRY`], the
    /// largest retry count an `allocate` operon can carry.
    pub fn new(app: A, max_alloc_retries: u32) -> Self {
        assert!(
            max_alloc_retries <= MAX_ENCODABLE_RETRY,
            "max_alloc_retries {max_alloc_retries} exceeds the allocate operon's retry field \
             (at most {MAX_ENCODABLE_RETRY})"
        );
        Runtime { app, max_alloc_retries }
    }
}

impl<A: App> Program for Runtime<A> {
    type Object = A::Object;

    fn fork(&self) -> Self {
        Runtime { app: self.app.fork(), max_alloc_retries: self.max_alloc_retries }
    }

    fn merge(&mut self, worker: Self) {
        self.app.merge(worker.app);
    }

    fn execute(&mut self, ctx: &mut ExecCtx<'_, A::Object>, op: &Operon) {
        match op.action {
            ACT_ALLOCATE => {
                let req = decode_allocate(op);
                ctx.charge(ctx.cost().alloc);
                let obj = self.app.construct(&req);
                match ctx.alloc(obj) {
                    Ok(addr) => {
                        // Fig. 3 step 2: send the address back as the trigger.
                        ctx.propagate(set_future_operon(req.cont, addr));
                    }
                    Err(_) => {
                        if req.retry >= self.max_alloc_retries {
                            ctx.fail(SimError::OutOfMemory {
                                origin_cc: req.cont.return_to.cc,
                                retries: req.retry,
                            });
                        } else {
                            // This cell is full: bounce the request to the
                            // next candidate, anchored at the requester so
                            // vicinity locality is preserved.
                            ctx.note_alloc_retry();
                            let retry = req.retry + 1;
                            let next = ctx.choose_alloc_target_from(req.cont.return_to.cc, retry);
                            ctx.propagate(allocate_operon(next, req.cont, retry, req.tag));
                        }
                    }
                }
            }
            ACT_SET_FUTURE => {
                // Fig. 3 step 3: set the future LCO; the runtime resumes the
                // prior action state (the app re-propagates the waiters).
                ctx.charge(ctx.cost().future_op);
                let (slot, value) = decode_set_future(op);
                self.app.fulfill(ctx, op.target, slot, value);
            }
            _ => self.app.on_action(ctx, op),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuation::Continuation;
    use crate::future::{FutureLco, PendingOperon};
    use amcca_sim::{Chip, ChipConfig, Operon};

    /// A miniature RPVO-like app used to exercise the continuation + future
    /// machinery end to end: each object stores up to 2 values and chains to
    /// an overflow node through a `FutureLco<Address>`.
    struct ChainNode {
        values: Vec<u64>,
        next: FutureLco<Address>,
    }

    struct ChainApp;

    const ACT_APPEND: u16 = 8;
    const NODE_CAP: usize = 2;

    impl App for ChainApp {
        type Object = ChainNode;

        fn fork(&self) -> Self {
            ChainApp
        }

        fn construct(&mut self, _req: &crate::continuation::AllocRequest) -> ChainNode {
            ChainNode { values: Vec::with_capacity(NODE_CAP), next: FutureLco::Null }
        }

        fn fulfill(
            &mut self,
            ctx: &mut ExecCtx<'_, ChainNode>,
            target: Address,
            slot: u8,
            value: Address,
        ) {
            assert_eq!(slot, 0);
            let waiters = {
                let node = ctx.obj_mut(target.slot).expect("live target");
                node.next.fulfill(value).expect("single fulfill")
            };
            for w in waiters {
                ctx.propagate(w.into_operon(value));
            }
        }

        fn on_action(&mut self, ctx: &mut ExecCtx<'_, ChainNode>, op: &Operon) {
            assert_eq!(op.action, ACT_APPEND);
            ctx.charge(ctx.cost().insert_edge);
            let target = op.target;
            enum Next {
                Stored,
                Defer,
                DeferAndAllocate,
                Forward(Address),
            }
            let what = {
                let node = ctx.obj_mut(target.slot).expect("live node");
                if node.values.len() < NODE_CAP {
                    node.values.push(op.payload[0]);
                    Next::Stored
                } else {
                    match &node.next {
                        FutureLco::Null => {
                            node.next.make_pending().unwrap();
                            Next::DeferAndAllocate
                        }
                        FutureLco::Pending(_) => Next::Defer,
                        FutureLco::Ready(a) => Next::Forward(*a),
                    }
                }
            };
            match what {
                Next::Stored => {}
                Next::Forward(a) => {
                    ctx.propagate(Operon::new(a, ACT_APPEND, op.payload));
                }
                Next::Defer | Next::DeferAndAllocate => {
                    let waiter = PendingOperon { action: ACT_APPEND, payload: op.payload };
                    if matches!(what, Next::DeferAndAllocate) {
                        ctx.charge(ctx.cost().future_op);
                        let tcc = ctx.choose_alloc_target(0);
                        let cont = Continuation { return_to: target, slot: 0 };
                        ctx.propagate(allocate_operon(tcc, cont, 0, 0));
                    }
                    let node = ctx.obj_mut(target.slot).unwrap();
                    node.next.enqueue(waiter).unwrap();
                }
            }
        }
    }

    fn collect_chain(chip: &Chip<Runtime<ChainApp>>, root: Address) -> (Vec<u64>, usize) {
        let mut values = Vec::new();
        let mut nodes = 0;
        let mut at = Some(root);
        while let Some(a) = at {
            let node = chip.object(a).expect("chain node");
            values.extend_from_slice(&node.values);
            nodes += 1;
            at = node.next.value().copied();
            assert!(nodes < 1000, "chain must be finite");
        }
        (values, nodes)
    }

    #[test]
    fn continuation_grows_a_chain_across_cells() {
        let mut chip = Chip::new(ChipConfig::small_test(), Runtime::new(ChainApp, 64));
        let root =
            chip.host_alloc(27, ChainNode { values: Vec::new(), next: FutureLco::Null }).unwrap();
        let n = 20u64;
        chip.io_load((0..n).map(|i| Operon::new(root, ACT_APPEND, [i, 0])));
        chip.run_until_quiescent().unwrap();
        let (mut values, nodes) = collect_chain(&chip, root);
        values.sort_unstable();
        assert_eq!(values, (0..n).collect::<Vec<_>>(), "no value lost or duplicated");
        assert_eq!(nodes, (n as usize).div_ceil(NODE_CAP));
        assert!(chip.counters().allocs >= nodes as u64 - 1);
    }

    #[test]
    fn ghost_nodes_allocated_within_vicinity() {
        let mut chip = Chip::new(ChipConfig::small_test(), Runtime::new(ChainApp, 64));
        let root_cc = 27u16;
        let root = chip
            .host_alloc(root_cc, ChainNode { values: Vec::new(), next: FutureLco::Null })
            .unwrap();
        chip.io_load((0..6u64).map(|i| Operon::new(root, ACT_APPEND, [i, 0])));
        chip.run_until_quiescent().unwrap();
        // Walk the chain: every overflow node must be ≤ 2 hops from ITS
        // requester (the previous node), per the Vicinity Allocator.
        let dims = chip.cfg().dims;
        let mut at = root;
        while let Some(&next) = chip.object(at).unwrap().next.value() {
            assert!(dims.distance(at.cc, next.cc) <= 2, "vicinity violated: {at} -> {next}");
            at = next;
        }
    }

    #[test]
    fn allocation_retries_when_cells_are_full() {
        // Capacity 1 per cell, root occupies cc 27; its whole 2-hop vicinity
        // is pre-filled so the first allocate attempts must bounce.
        let mut cfg = ChipConfig::small_test();
        cfg.arena_capacity = 1;
        cfg.max_alloc_retries = 64;
        let mut chip = Chip::new(cfg, Runtime::new(ChainApp, 64));
        let root =
            chip.host_alloc(27, ChainNode { values: Vec::new(), next: FutureLco::Null }).unwrap();
        let dims = chip.cfg().dims;
        for cc in dims.vicinity(27, 2) {
            chip.host_alloc(cc, ChainNode { values: Vec::new(), next: FutureLco::Null }).unwrap();
        }
        chip.io_load((0..4u64).map(|i| Operon::new(root, ACT_APPEND, [i, 0])));
        chip.run_until_quiescent().unwrap();
        let (mut values, _) = collect_chain(&chip, root);
        values.sort_unstable();
        assert_eq!(values, vec![0, 1, 2, 3]);
        assert!(chip.counters().alloc_retries > 0, "retries must have happened");
    }

    #[test]
    fn exhausted_memory_surfaces_out_of_memory() {
        let mut cfg = ChipConfig::small_test();
        cfg.arena_capacity = 1;
        cfg.max_alloc_retries = 8;
        let mut chip = Chip::new(cfg, Runtime::new(ChainApp, 8));
        // Fill every cell so no allocation can ever succeed.
        let dims = chip.cfg().dims;
        let mut root = None;
        for cc in dims.iter_ids() {
            let a = chip
                .host_alloc(cc, ChainNode { values: Vec::new(), next: FutureLco::Null })
                .unwrap();
            if cc == 0 {
                root = Some(a);
            }
        }
        chip.io_load((0..4u64).map(|i| Operon::new(root.unwrap(), ACT_APPEND, [i, 0])));
        let err = chip.run_until_quiescent().unwrap_err();
        assert!(matches!(err, SimError::OutOfMemory { .. }), "got {err:?}");
    }

    #[test]
    #[should_panic(expected = "max_alloc_retries 4096 exceeds")]
    fn unencodable_retry_bound_is_rejected() {
        Runtime::new(ChainApp, 4096);
    }
}
