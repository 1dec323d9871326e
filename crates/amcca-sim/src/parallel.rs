//! The sharded parallel execution engine.
//!
//! [`crate::ChipConfig::shards`] > 1 runs `run_until_quiescent` /
//! `run_until_terminated` on this engine: the mesh is split into contiguous
//! column bands ([`ShardPlan`]), each band's cells (and its slice of the
//! north/south IO cells) are owned by one worker on a `std::thread::scope`
//! thread, and workers advance in lock-step cycles. The contract is strict
//! **bit-identity with the sequential engine** for any shard count; the
//! determinism CI gate and `tests/shard_equivalence.rs` enforce it.
//!
//! # Why this is deterministic
//!
//! Each simulated cycle has two worker phases separated by a barrier:
//!
//! 1. **Route** — every worker decides its own cells' network moves against
//!    the *start-of-cycle* router snapshot (cross-band credits are read from
//!    frames published at the previous cycle's end), then applies them:
//!    intra-band hops move directly, cross-band hops are popped locally and
//!    posted to a per-pair outbox. Under YX routing only east/west boundary
//!    hops cross bands, and flow control admits at most one flit per input
//!    FIFO per cycle, so outbox drain order cannot affect any FIFO's final
//!    order.
//! 2. **Drain + compute + IO** — every worker drains its inboxes in shard-id
//!    order, runs the shared per-cell compute ([`crate::chip::compute_cell`])
//!    and IO steps over its cells (all cell-local by the architecture's
//!    message-driven discipline), snapshots its routers for the next cycle,
//!    and publishes boundary credit frames plus a cycle report.
//!
//! Per-cycle reports fold up a **binary merge tree**: each worker waits for
//! its children (`2s+1`, `2s+2`) to publish, merges their reports into its
//! own slot, and publishes in turn, so the coordinator (the calling thread)
//! reads a single pre-merged root report per cycle and the barrier cost
//! stays flat as the shard count grows. The folded quantities — active-cell
//! counts, queue/occupancy deltas, Safra token events, and the first error
//! in (phase, cell-id) order — are exactly what the sequential loop would
//! have produced, and the coordinator decides whether another cycle runs.
//! Event counters and per-cell load stats accumulate in worker-local storage
//! with **no locks or atomics on the hot path** and merge once at run end;
//! program state runs on per-shard forks merged in shard order
//! ([`crate::Program::fork`]).
//!
//! Every band computes only its own rows. Skew is levelled in the data
//! structure — hub vertices spread over rhizome roots in other columns —
//! not by moving rows between workers. Cycle-barrier work stealing used to
//! do that and lost wall-clock on the benchmark's `skew_sharded` in every
//! measured pair: its two extra barriers cost more than the levelling saved.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::cell::Cell;
use crate::chip::{
    apply_token_step, compute_cell, decide_cell_moves, io_cell_step, Chip, ComputeFx, Move,
    TokenStep,
};
use crate::config::ChipConfig;
use crate::error::SimError;
use crate::geom::{Coord, MeshTable};
use crate::iocell::{IoCell, IoSystem};
use crate::operon::Operon;
use crate::placement::PlacementTable;
use crate::program::Program;
use crate::router::{PORT_EAST, PORT_WEST};
use crate::safra::ACT_TOKEN;
use crate::shard::{backoff, ShardPlan, SpinBarrier};
use crate::stats::{ActivityRecording, CellLoad, Counters};

/// What a sharded run waits for (mirrors the two sequential run loops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RunGoal {
    /// Stop at global quiescence (`Chip::is_quiescent`).
    Quiescence,
    /// Stop when the Safra detector declares termination.
    SafraTermination,
}

/// How a sharded segment ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SegmentEnd {
    /// The run goal was reached (quiescence / Safra termination).
    Done,
    /// Activity stayed below the break-even for a full adaptive window; the
    /// caller should continue on the sequential engine.
    Yielded,
}

/// A shard worker's run-long accumulators, folded back into the chip once
/// the run stops (in shard-id order): program fork, event counters, per-cell
/// loads, and the band's active-cell total.
type ShardOutcome<P> = (usize, P, Counters, Vec<CellLoad>, u64);

/// A cross-band hop in flight between two shards.
struct Mail {
    dst: u16,
    in_port: u8,
    op: Operon,
}

/// One shard's non-cell-local effects for one cycle, handed up the merge
/// tree at the cycle barrier.
#[derive(Default)]
struct CycleReport {
    active: u32,
    d_in_network: i64,
    d_queued: i64,
    d_busy: i64,
    io_injected: u64,
    token: Option<TokenStep>,
    token_hops: u64,
    /// First network-phase error, with the deciding cell id.
    net_err: Option<(u16, SimError)>,
    /// First compute-phase error, with the executing cell id.
    comp_err: Option<(u16, SimError)>,
    /// Activity bitmap words (whole-chip indexing); used only in Frames mode.
    frame: Vec<u64>,
}

impl CycleReport {
    /// Fold a child's flushed report into this one: sums for the scalar
    /// aggregates, min-cell-id for the per-phase first errors (each worker's
    /// first error is its minimum-id one, so the fold reproduces the
    /// sequential first-error order), OR for frames.
    fn merge(&mut self, other: &mut CycleReport) {
        self.active += other.active;
        self.d_in_network += other.d_in_network;
        self.d_queued += other.d_queued;
        self.d_busy += other.d_busy;
        self.io_injected += other.io_injected;
        if let Some(step) = other.token.take() {
            debug_assert!(self.token.is_none(), "one token per chip");
            self.token = Some(step);
        }
        self.token_hops += other.token_hops;
        if let Some((cc, e)) = other.net_err.take() {
            if self.net_err.as_ref().is_none_or(|(c0, _)| cc < *c0) {
                self.net_err = Some((cc, e));
            }
        }
        if let Some((cc, e)) = other.comp_err.take() {
            if self.comp_err.as_ref().is_none_or(|(c0, _)| cc < *c0) {
                self.comp_err = Some((cc, e));
            }
        }
        for (acc, w) in self.frame.iter_mut().zip(&other.frame) {
            *acc |= *w;
        }
    }
}

/// Start-of-cycle acceptance of a band's boundary columns, published for the
/// neighbouring shards' route decisions.
struct CreditFrame {
    /// `west[y]`: does cell `(x0, y)` accept on its west port (an eastbound
    /// hop from the left neighbour)?
    west: Vec<bool>,
    /// `east[y]`: does cell `(x1-1, y)` accept on its east port (a westbound
    /// hop from the right neighbour)?
    east: Vec<bool>,
}

/// Coordinator ⇄ worker rendezvous: workers report arrival, the coordinator
/// merges reports and releases the next cycle by bumping the epoch.
struct Gate {
    epoch: AtomicUsize,
    arrived: AtomicUsize,
    stop: AtomicBool,
    poisoned: AtomicBool,
}

impl Gate {
    fn new() -> Self {
        Gate {
            epoch: AtomicUsize::new(0),
            arrived: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
        }
    }

    fn arrive(&self) {
        self.arrived.fetch_add(1, Ordering::AcqRel);
    }

    fn wait_epoch(&self, target: usize) {
        let mut spins = 0u32;
        while self.epoch.load(Ordering::Acquire) < target {
            if self.poisoned.load(Ordering::Relaxed) {
                panic!("shard engine poisoned: a sibling worker panicked");
            }
            backoff(&mut spins);
        }
    }

    fn wait_arrivals(&self, n: usize) {
        let mut spins = 0u32;
        while self.arrived.load(Ordering::Acquire) < n {
            if self.poisoned.load(Ordering::Relaxed) {
                panic!("shard engine poisoned: a worker panicked");
            }
            backoff(&mut spins);
        }
        self.arrived.store(0, Ordering::Relaxed);
    }

    fn release(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
    }
}

/// Everything shared (read-only or lock-protected) between the workers and
/// the coordinator for one run.
struct Shared<'a> {
    cfg: &'a ChipConfig,
    placement: &'a PlacementTable,
    mesh: &'a MeshTable,
    plan: &'a ShardPlan,
    /// `mailboxes[src][dst]`: cross-band hops posted by `src` for `dst`.
    mailboxes: Vec<Vec<Mutex<Vec<Mail>>>>,
    credits: Vec<Mutex<CreditFrame>>,
    reports: Vec<Mutex<CycleReport>>,
    gate: Gate,
    mid: SpinBarrier,
    safra_on: bool,
    frames_on: bool,
    start_cycle: u64,
    /// Merge-tree publication: `ready[s]` is the last epoch whose merged
    /// subtree report worker `s` has published into `reports[s]`.
    ready: Vec<AtomicUsize>,
}

impl Shared<'_> {
    /// Spin until worker `sid` has published its merged report for `epoch`.
    fn wait_ready(&self, sid: usize, epoch: usize) {
        let mut spins = 0u32;
        while self.ready[sid].load(Ordering::Acquire) < epoch {
            if self.gate.poisoned.load(Ordering::Relaxed) {
                panic!("shard engine poisoned: a sibling worker panicked");
            }
            backoff(&mut spins);
        }
    }
}

/// One shard worker: exclusive owner of a column band's cells, IO cells,
/// program fork, and statistics.
struct Worker<'a, P: Program> {
    sid: usize,
    x0: usize,
    width: usize,
    /// One row-segment per mesh row: `rows[y][x - x0]` is cell `(x, y)`.
    rows: Vec<&'a mut [Cell<P::Object>]>,
    /// This band's IO-cell segments (one per active channel).
    io_segs: Vec<&'a mut [IoCell]>,
    program: P,
    counters: Counters,
    loads: Vec<CellLoad>,
    moves: Vec<Move>,
    /// Pending cross-band mail per destination shard.
    outbufs: Vec<Vec<Mail>>,
    /// Copies of the neighbours' published credit frames.
    left_credit: Vec<bool>,
    right_credit: Vec<bool>,
    frame: Vec<u64>,
    rep: CycleReport,
    /// Run-long active-cell total of this band.
    band_active: u64,
}

impl<P: Program> Worker<'_, P> {
    fn cell_at(&mut self, c: Coord) -> &mut Cell<P::Object> {
        &mut self.rows[c.y as usize][c.x as usize - self.x0]
    }

    fn run(&mut self, shared: &Shared<'_>) {
        // P0: snapshot routers and publish credits for the first cycle.
        self.begin_cycle_and_publish(shared);
        shared.gate.arrive();
        let mut cur = shared.start_cycle;
        let mut epoch = 0usize;
        loop {
            epoch += 1;
            shared.gate.wait_epoch(epoch);
            if shared.gate.stop.load(Ordering::Acquire) {
                break;
            }
            self.phase_route(shared, cur);
            shared.mid.wait();
            self.phase_drain(shared);
            self.phase_compute(shared);
            self.phase_io(shared);
            self.begin_cycle_and_publish(shared);
            self.flush_report(shared);
            self.merge_children(shared, epoch);
            cur += 1;
            shared.gate.arrive();
        }
    }

    /// Decide this band's moves against the start-of-cycle snapshot, then
    /// apply them (cross-band hops go to the outboxes).
    fn phase_route(&mut self, shared: &Shared<'_>, cur: u64) {
        let n_shards = shared.plan.shard_count();
        if self.sid > 0 {
            let c = shared.credits[self.sid - 1].lock().unwrap();
            self.left_credit.clone_from(&c.east);
        }
        if self.sid + 1 < n_shards {
            let c = shared.credits[self.sid + 1].lock().unwrap();
            self.right_credit.clone_from(&c.west);
        }
        let Worker { rows, left_credit, right_credit, moves, counters, x0, width, rep, .. } = self;
        let (x0, width) = (*x0, *width);
        let (mesh, dims_x) = (shared.mesh, shared.cfg.dims.x as usize);
        moves.clear();
        let mut err: Option<SimError> = None;
        for (gy, row) in rows.iter().enumerate() {
            for (lx, cell) in row.iter().enumerate() {
                let src = (gy * dims_x + x0 + lx) as u16;
                let accepts = |nb: u16, in_port: usize| -> bool {
                    let at = mesh.coord(nb);
                    let (nx, ny) = (at.x as usize, at.y as usize);
                    if nx >= x0 && nx < x0 + width {
                        rows[ny][nx - x0].router.accepts(in_port)
                    } else if nx < x0 {
                        debug_assert_eq!(in_port, PORT_EAST, "westbound hop arrives east");
                        left_credit[ny]
                    } else {
                        debug_assert_eq!(in_port, PORT_WEST, "eastbound hop arrives west");
                        right_credit[ny]
                    }
                };
                let before = err.is_some();
                decide_cell_moves(
                    cell,
                    src,
                    cur,
                    mesh,
                    shared.cfg.task_queue_cap,
                    accepts,
                    moves,
                    counters,
                    &mut err,
                );
                if !before {
                    if let Some(e) = err.clone() {
                        rep.net_err = Some((src, e));
                    }
                }
            }
        }
        // Apply: pops are always band-local; pushes may cross the boundary.
        for i in 0..self.moves.len() {
            let mv = self.moves[i];
            match mv {
                Move::Hop { src, port, dst, in_port } => {
                    let op = self.cell_at(mesh.coord(src)).router.pop(port as usize);
                    if op.action == ACT_TOKEN {
                        self.rep.token_hops += 1;
                    }
                    self.counters.hops += 1;
                    let at = mesh.coord(dst);
                    let dx = at.x as usize;
                    if dx >= self.x0 && dx < self.x0 + self.width {
                        self.cell_at(at).enqueue(in_port as usize, op, mesh);
                    } else {
                        let t = if dx < self.x0 { self.sid - 1 } else { self.sid + 1 };
                        self.outbufs[t].push(Mail { dst, in_port, op });
                    }
                }
                Move::Deliver { cell, port } => {
                    let c = self.cell_at(mesh.coord(cell));
                    let op = c.router.pop(port as usize);
                    c.task_queue.push_back(op);
                    let queue_len = c.task_queue.len() as u32;
                    self.rep.d_in_network -= 1;
                    self.rep.d_queued += 1;
                    self.counters.msgs_delivered += 1;
                    let load = &mut self.loads[cell as usize];
                    load.delivered += 1;
                    load.peak_queue = load.peak_queue.max(queue_len);
                }
            }
        }
        for t in [self.sid.wrapping_sub(1), self.sid + 1] {
            if t < n_shards && !self.outbufs[t].is_empty() {
                shared.mailboxes[self.sid][t].lock().unwrap().append(&mut self.outbufs[t]);
            }
        }
    }

    /// Drain cross-band arrivals into this band's routers.
    fn phase_drain(&mut self, shared: &Shared<'_>) {
        let n_shards = shared.plan.shard_count();
        // Drain inboxes in shard-id order (deterministic; and each input
        // FIFO receives at most one flit per cycle regardless).
        for src in [self.sid.wrapping_sub(1), self.sid + 1] {
            if src >= n_shards {
                continue;
            }
            let mut mb = shared.mailboxes[src][self.sid].lock().unwrap();
            for m in mb.drain(..) {
                let cell = self.cell_at(shared.mesh.coord(m.dst));
                cell.enqueue(m.in_port as usize, m.op, shared.mesh);
            }
        }
    }

    /// Compute phase over this band's cells, in cell-id order. Only the
    /// first compute error is kept, and iteration is in id order, so it is
    /// the band's minimum-id one and the merge tree reproduces the
    /// sequential first-error-wins semantics.
    fn phase_compute(&mut self, shared: &Shared<'_>) {
        if shared.frames_on {
            self.frame.fill(0);
        }
        let dims_x = shared.cfg.dims.x as usize;
        let mut active = 0u32;
        let mut err: Option<SimError> = None;
        let Worker { rows, program, counters, x0, rep, frame, .. } = self;
        for (gy, row) in rows.iter_mut().enumerate() {
            for (lx, cell) in row.iter_mut().enumerate() {
                let i = gy * dims_x + *x0 + lx;
                let mut fx = ComputeFx::default();
                let before = err.is_some();
                let did_work = compute_cell(
                    cell,
                    i,
                    shared.safra_on,
                    program,
                    counters,
                    shared.cfg,
                    shared.placement,
                    shared.mesh,
                    &mut err,
                    &mut fx,
                );
                if !before {
                    if let Some(e) = err.clone() {
                        rep.comp_err = Some((i as u16, e));
                    }
                }
                rep.d_queued += fx.d_queued;
                rep.d_busy += fx.d_busy;
                rep.d_in_network += fx.d_in_network;
                if fx.token.is_some() {
                    debug_assert!(rep.token.is_none(), "one token per chip");
                    rep.token = fx.token;
                }
                if did_work {
                    active += 1;
                    if shared.frames_on {
                        frame[i / 64] |= 1u64 << (i % 64);
                    }
                }
            }
        }
        self.rep.active = active;
        self.band_active += active as u64;
    }

    /// IO phase over this band's IO cells.
    fn phase_io(&mut self, shared: &Shared<'_>) {
        let Worker { rows, io_segs, counters, x0, rep, .. } = self;
        for seg in io_segs.iter_mut() {
            for io_cell in seg.iter_mut() {
                let c = shared.mesh.coord(io_cell.cc);
                let border = &mut rows[c.y as usize][c.x as usize - *x0];
                if io_cell_step(io_cell, border, shared.mesh, shared.safra_on, counters) {
                    rep.io_injected += 1;
                    rep.d_in_network += 1;
                }
            }
        }
    }

    /// Snapshot this band's routers for the next cycle's credits and publish
    /// the boundary acceptance frames.
    fn begin_cycle_and_publish(&mut self, shared: &Shared<'_>) {
        for row in self.rows.iter_mut() {
            for cell in row.iter_mut() {
                cell.router.begin_cycle();
            }
        }
        let mut cf = shared.credits[self.sid].lock().unwrap();
        for (y, row) in self.rows.iter().enumerate() {
            cf.west[y] = row[0].router.accepts(PORT_WEST);
            cf.east[y] = row[self.width - 1].router.accepts(PORT_EAST);
        }
    }

    /// Hand this cycle's report to this worker's merge-tree slot.
    fn flush_report(&mut self, shared: &Shared<'_>) {
        let mut slot = shared.reports[self.sid].lock().unwrap();
        if shared.frames_on {
            std::mem::swap(&mut slot.frame, &mut self.frame);
        }
        slot.active = self.rep.active;
        slot.d_in_network = self.rep.d_in_network;
        slot.d_queued = self.rep.d_queued;
        slot.d_busy = self.rep.d_busy;
        slot.io_injected = self.rep.io_injected;
        slot.token = self.rep.token.take();
        slot.token_hops = self.rep.token_hops;
        slot.net_err = self.rep.net_err.take();
        slot.comp_err = self.rep.comp_err.take();
        self.rep = CycleReport::default();
    }

    /// Binary merge tree: fold the children's published reports into this
    /// worker's slot, then publish it for the parent. The coordinator only
    /// reads the root slot, so the per-cycle merge cost is O(log shards) on
    /// the critical path instead of O(shards) on the coordinator.
    fn merge_children(&mut self, shared: &Shared<'_>, epoch: usize) {
        let n = shared.plan.shard_count();
        for child in [2 * self.sid + 1, 2 * self.sid + 2] {
            if child >= n {
                continue;
            }
            shared.wait_ready(child, epoch);
            let mut mine = shared.reports[self.sid].lock().unwrap();
            let mut theirs = shared.reports[child].lock().unwrap();
            mine.merge(&mut theirs);
        }
        shared.ready[self.sid].store(epoch, Ordering::Release);
    }
}

/// Split the row-major cell array into per-shard row segments.
fn split_cells<'a, T>(cells: &'a mut [Cell<T>], plan: &ShardPlan) -> Vec<Vec<&'a mut [Cell<T>]>> {
    let x = plan.dims().x as usize;
    let n = plan.shard_count();
    let mut out: Vec<Vec<&'a mut [Cell<T>]>> =
        (0..n).map(|_| Vec::with_capacity(plan.dims().y as usize)).collect();
    for row in cells.chunks_mut(x) {
        let mut rest = row;
        for (s, slot) in out.iter_mut().enumerate() {
            let (a, b) = plan.band(s);
            let (seg, r) = rest.split_at_mut((b - a) as usize);
            slot.push(seg);
            rest = r;
        }
    }
    out
}

/// Split the IO cells (one contiguous run of `dims.x` per channel) into
/// per-shard column segments.
fn split_io<'a>(io_cells: &'a mut [IoCell], plan: &ShardPlan) -> Vec<Vec<&'a mut [IoCell]>> {
    let x = plan.dims().x as usize;
    let n = plan.shard_count();
    debug_assert_eq!(io_cells.len() % x, 0, "one IO cell per column per channel");
    let mut out: Vec<Vec<&'a mut [IoCell]>> = (0..n).map(|_| Vec::new()).collect();
    for channel in io_cells.chunks_mut(x) {
        let mut rest = channel;
        for (s, slot) in out.iter_mut().enumerate() {
            let (a, b) = plan.band(s);
            let (seg, r) = rest.split_at_mut((b - a) as usize);
            slot.push(seg);
            rest = r;
        }
    }
    out
}

#[inline]
fn add_delta(v: u64, d: i64) -> u64 {
    (v as i64 + d) as u64
}

/// Run the chip to `goal` on the sharded engine. Semantics (including error
/// precedence and the cycle budget, measured from `run_start`) mirror the
/// sequential run loops exactly. With `yield_when_cold`, the segment stops
/// early — workers released, state at an ordinary cycle boundary — once the
/// measured active-cell count stays below `ChipConfig::shard_break_even` for
/// [`crate::chip::ADAPT_WINDOW`] consecutive cycles, so the caller can finish
/// the cold tail on the sequential engine.
pub(crate) fn run_sharded<P: Program>(
    chip: &mut Chip<P>,
    goal: RunGoal,
    run_start: u64,
    yield_when_cold: bool,
) -> Result<SegmentEnd, SimError> {
    let plan = ShardPlan::new(chip.cfg.dims, chip.cfg.shards);
    let n_shards = plan.shard_count();
    debug_assert!(n_shards >= 2, "caller dispatches single-shard runs sequentially");
    if goal == RunGoal::Quiescence && chip.is_quiescent() {
        // Nothing to run: mirror the sequential loop's exit (error wins).
        return match chip.error.take() {
            Some(e) => Err(e),
            None => Ok(SegmentEnd::Done),
        };
    }
    let seg_start = chip.cycle;
    let safra_on = chip.safra.is_some();
    let frames_on = matches!(chip.cfg.record_activity, ActivityRecording::Frames { .. });
    let dims = chip.cfg.dims;
    let n_cells = chip.cfg.cell_count() as usize;
    let words = n_cells.div_ceil(64);

    let Chip {
        cfg,
        placement,
        mesh,
        cells,
        io,
        program,
        cycle,
        counters,
        activity,
        in_network,
        queued_tasks,
        busy,
        error,
        frame_scratch,
        safra,
        token_alive,
        loads,
        last_active,
        sharded_cycles,
        band_active,
        ..
    } = chip;
    let IoSystem { cells: io_cells, pending: io_pending, .. } = io;
    if band_active.len() < n_shards {
        band_active.resize(n_shards, 0);
    }

    let forks: Vec<P> = (0..n_shards).map(|_| program.fork()).collect();
    let cell_views = split_cells(cells, &plan);
    let io_views = split_io(io_cells, &plan);

    let shared = Shared {
        cfg,
        placement,
        mesh,
        plan: &plan,
        mailboxes: (0..n_shards)
            .map(|_| (0..n_shards).map(|_| Mutex::new(Vec::new())).collect())
            .collect(),
        credits: (0..n_shards)
            .map(|_| {
                Mutex::new(CreditFrame {
                    west: vec![false; dims.y as usize],
                    east: vec![false; dims.y as usize],
                })
            })
            .collect(),
        reports: (0..n_shards)
            .map(|_| {
                Mutex::new(CycleReport {
                    // Sized up front: `flush_report` ping-pongs these
                    // buffers with the worker's, so both must span the
                    // whole chip.
                    frame: vec![0u64; if frames_on { words } else { 0 }],
                    ..Default::default()
                })
            })
            .collect(),
        gate: Gate::new(),
        mid: SpinBarrier::new(n_shards),
        safra_on,
        frames_on,
        start_cycle: seg_start,
        ready: (0..n_shards).map(|_| AtomicUsize::new(0)).collect(),
    };
    let outcomes: Mutex<Vec<ShardOutcome<P>>> = Mutex::new(Vec::with_capacity(n_shards));

    let mut result: Result<SegmentEnd, SimError> = Ok(SegmentEnd::Done);
    let mut cold_streak = 0u32;

    std::thread::scope(|scope| {
        for (sid, ((rows, io_segs), prog)) in
            cell_views.into_iter().zip(io_views).zip(forks).enumerate()
        {
            let shared = &shared;
            let outcomes = &outcomes;
            let (x0, _) = plan.band(sid);
            scope.spawn(move || {
                let mut w = Worker {
                    sid,
                    x0: x0 as usize,
                    width: rows[0].len(),
                    rows,
                    io_segs,
                    program: prog,
                    counters: Counters::default(),
                    loads: vec![CellLoad::default(); n_cells],
                    moves: Vec::new(),
                    outbufs: (0..n_shards).map(|_| Vec::new()).collect(),
                    left_credit: vec![false; dims.y as usize],
                    right_credit: vec![false; dims.y as usize],
                    frame: vec![0u64; words],
                    rep: CycleReport::default(),
                    band_active: 0,
                };
                let run = catch_unwind(AssertUnwindSafe(|| w.run(shared)));
                if let Err(panic) = run {
                    shared.gate.poisoned.store(true, Ordering::Release);
                    shared.mid.poison();
                    resume_unwind(panic);
                }
                outcomes.lock().unwrap().push((
                    w.sid,
                    w.program,
                    w.counters,
                    w.loads,
                    w.band_active,
                ));
            });
        }

        // Coordinator: read the merge tree's root report each cycle, fold it
        // into the chip scalars, and drive the stop conditions.
        shared.gate.wait_arrivals(n_shards); // initial snapshots published
        loop {
            let stop = match goal {
                RunGoal::Quiescence
                    if *in_network == 0 && *queued_tasks == 0 && *busy == 0 && *io_pending == 0 =>
                {
                    Some(match error.take() {
                        Some(e) => Err(e),
                        None => Ok(SegmentEnd::Done),
                    })
                }
                RunGoal::SafraTermination if safra.as_ref().is_some_and(|s| s.terminated) => {
                    Some(Ok(SegmentEnd::Done))
                }
                _ => {
                    if let Some(e) = error.take() {
                        Some(Err(e))
                    } else if *cycle - run_start >= cfg.max_cycles {
                        Some(Err(SimError::CycleLimitExceeded { limit: cfg.max_cycles }))
                    } else if yield_when_cold && cold_streak >= crate::chip::ADAPT_WINDOW {
                        Some(Ok(SegmentEnd::Yielded))
                    } else {
                        None
                    }
                }
            };
            if let Some(res) = stop {
                result = res;
                shared.gate.stop.store(true, Ordering::Release);
                shared.gate.release();
                break;
            }
            shared.gate.release();
            shared.gate.wait_arrivals(n_shards);

            let mut r = shared.reports[0].lock().unwrap();
            let active = r.active;
            *in_network = add_delta(*in_network, r.d_in_network);
            *queued_tasks = add_delta(*queued_tasks, r.d_queued);
            *busy = (*busy as i64 + r.d_busy) as u32;
            *io_pending -= r.io_injected;
            // First error in (network, then compute) × cell-id order — the
            // same precedence the sequential phases produce; the merge tree
            // has already folded each phase to its minimum cell id.
            let net_err = r.net_err.take();
            let comp_err = r.comp_err.take();
            if error.is_none() {
                *error = net_err.map(|(_, e)| e).or(comp_err.map(|(_, e)| e));
            }
            if let Some(step) = r.token.take() {
                apply_token_step(
                    step,
                    safra.as_mut().expect("token without detector"),
                    token_alive,
                    *cycle,
                );
            }
            if r.token_hops > 0 {
                if let Some(s) = safra.as_mut() {
                    s.token_hops += r.token_hops;
                }
            }
            if frames_on {
                frame_scratch.copy_from_slice(&r.frame);
            }
            drop(r);
            match cfg.record_activity {
                ActivityRecording::Off => {}
                ActivityRecording::Counts => {
                    activity.counts.push(active.min(u16::MAX as u32) as u16);
                }
                ActivityRecording::Frames { stride } => {
                    activity.counts.push(active.min(u16::MAX as u32) as u16);
                    if stride > 0 && cycle.is_multiple_of(stride as u64) {
                        activity.frames.push(frame_scratch.clone());
                    }
                }
            }
            *last_active = active;
            *sharded_cycles += 1;
            if active < cfg.shard_break_even {
                cold_streak += 1;
            } else {
                cold_streak = 0;
            }
            *cycle += 1;
        }
    });

    // Fold the per-shard accumulators back, in shard-id order.
    let mut outs = outcomes.into_inner().unwrap();
    outs.sort_by_key(|(sid, ..)| *sid);
    for (sid, fork, fork_counters, fork_loads, active) in outs {
        program.merge(fork);
        counters.merge(&fork_counters);
        for (total, shard) in loads.iter_mut().zip(&fork_loads) {
            total.delivered += shard.delivered;
            total.peak_queue = total.peak_queue.max(shard.peak_queue);
        }
        band_active[sid] += active;
    }
    chip.rebuild_live_sets(); // the band scan above does not maintain them
    result
}
