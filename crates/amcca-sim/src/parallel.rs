//! The threaded driver: one column band per worker thread.
//!
//! A chip's mesh is cut into the column bands of a [`crate::ShardPlan`], and
//! every band keeps the live sets of its own cells (see the `chip` module).
//! This driver steps each band on its own `std::thread::scope` worker, in
//! lock-step cycles, with exactly the band phases [`Chip::step`] runs on the
//! calling thread. The contract is strict **bit-identity with the one-band
//! chip** for any shard count; the determinism CI gate and
//! `tests/shard_equivalence.rs` enforce it.
//!
//! # Why this is deterministic
//!
//! Each simulated cycle has two worker phases separated by a barrier:
//!
//! 1. **Route** — every worker snapshots its band's routers and decides its
//!    moves against that *start-of-cycle* snapshot (cross-band credits are
//!    read from frames published at the previous cycle's end), then applies
//!    them:
//!    intra-band hops move directly, cross-band hops are popped locally and
//!    posted to a per-pair outbox. Under YX routing only east/west boundary
//!    hops cross bands, and flow control admits at most one flit per input
//!    FIFO per cycle, so outbox drain order cannot affect any FIFO's final
//!    order.
//! 2. **Drain + compute + IO + publish** — every worker drains its inboxes,
//!    marking each receiving cell net-live on its own thread, runs compute
//!    and IO over its live cells (all cell-local by the architecture's
//!    message-driven discipline), and publishes its boundary credit frame —
//!    the occupancy its next snapshot will hold — plus a cycle report.
//!
//! Per-cycle reports fold up a **binary merge tree**: each worker waits for
//! its children (`2s+1`, `2s+2`) to publish, merges their reports into its
//! own slot, and publishes in turn, so the coordinator (the calling thread)
//! reads a single pre-merged root report per cycle and the barrier cost
//! stays flat as the shard count grows. The folded quantities — active-cell
//! counts, event counters, queue/occupancy deltas, Safra token events, and
//! the first error in (phase, cell-id) order — are exactly what one band
//! would have produced, and the coordinator applies the same stop rule the
//! calling thread does. Program state runs on per-band forks merged in band
//! order ([`crate::Program::fork`]).
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
    frame_words, Band, Cells, Chip, CreditFrame, CycleReport, Env, Mail, Next, RunGoal,
    ADAPT_WINDOW,
};
use crate::error::SimError;
use crate::geom::MeshTable;
use crate::program::Program;
use crate::shard::{backoff, SpinBarrier};

/// A worker's view of its band's cells: one row segment per mesh row,
/// `rows[y][x - x0]` is cell `(x, y)`.
struct Rows<'a, T> {
    x0: usize,
    rows: Vec<&'a mut [Cell<T>]>,
    mesh: &'a MeshTable,
}

impl<T> Cells<T> for Rows<'_, T> {
    #[inline]
    fn cell(&self, id: u16) -> &Cell<T> {
        let c = self.mesh.coord(id);
        &self.rows[c.y as usize][c.x as usize - self.x0]
    }

    #[inline]
    fn cell_mut(&mut self, id: u16) -> &mut Cell<T> {
        let c = self.mesh.coord(id);
        &mut self.rows[c.y as usize][c.x as usize - self.x0]
    }
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
/// the coordinator for one segment.
struct Shared<'a> {
    env: Env<'a>,
    /// `mailboxes[src][dst]`: cross-band hops posted by `src` for `dst`.
    mailboxes: Vec<Vec<Mutex<Vec<Mail>>>>,
    credits: Vec<Mutex<CreditFrame>>,
    reports: Vec<Mutex<CycleReport>>,
    gate: Gate,
    mid: SpinBarrier,
    start_cycle: u64,
    frame_words: usize,
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

/// One worker: exclusive owner of a band, its cells, and a program fork.
struct Worker<'a, P: Program> {
    sid: usize,
    band: &'a mut Band,
    cells: Rows<'a, P::Object>,
    program: P,
    /// Copies of the neighbours' credit frames for this cycle's route phase.
    west: Vec<bool>,
    east: Vec<bool>,
    /// Segment-long active-cell total of this band.
    band_active: u64,
}

impl<P: Program> Worker<'_, P> {
    fn run(&mut self, shared: &Shared<'_>) {
        let (sid, n) = (self.sid, shared.reports.len());
        shared.gate.arrive();
        let mut cycle = shared.start_cycle;
        let mut epoch = 0usize;
        loop {
            epoch += 1;
            shared.gate.wait_epoch(epoch);
            if shared.gate.stop.load(Ordering::Acquire) {
                break;
            }
            if sid > 0 {
                self.west.clone_from(&shared.credits[sid - 1].lock().unwrap().east);
            }
            if sid + 1 < n {
                self.east.clone_from(&shared.credits[sid + 1].lock().unwrap().west);
            }
            let Worker { band, cells, program, west, east, .. } = self;
            let mut rep = CycleReport::new(shared.frame_words);
            band.route(cells, &shared.env, cycle, west, east, &mut rep);
            for (side, t) in [(0, sid.wrapping_sub(1)), (1, sid + 1)] {
                if t < n && !band.out[side].is_empty() {
                    shared.mailboxes[sid][t].lock().unwrap().append(&mut band.out[side]);
                }
            }
            shared.mid.wait();
            for src in [sid.wrapping_sub(1), sid + 1] {
                if src < n {
                    let mut inbox = shared.mailboxes[src][sid].lock().unwrap();
                    band.drain(cells, shared.env.mesh, &mut inbox);
                }
            }
            band.compute(cells, &shared.env, program, &mut rep);
            band.io(cells, &shared.env, &mut rep);
            band.publish(cells);
            debug_assert!(band.covers(cells), "a producer forgot to mark its target cell live");
            shared.credits[sid].lock().unwrap().clone_from(&band.credit);
            self.band_active += rep.active as u64;
            *shared.reports[sid].lock().unwrap() = rep;
            self.merge_children(shared, epoch);
            cycle += 1;
            shared.gate.arrive();
        }
    }

    /// Binary merge tree: fold the children's published reports into this
    /// worker's slot, then publish it for the parent. The coordinator only
    /// reads the root slot, so the per-cycle merge cost is O(log shards) on
    /// the critical path instead of O(shards) on the coordinator.
    fn merge_children(&mut self, shared: &Shared<'_>, epoch: usize) {
        for child in [2 * self.sid + 1, 2 * self.sid + 2] {
            if child >= shared.reports.len() {
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

/// Split the row-major cell array into one [`Rows`] view per band.
fn split_cells<'a, T>(
    cells: &'a mut [Cell<T>],
    bands: &[Band],
    mesh: &'a MeshTable,
) -> Vec<Rows<'a, T>> {
    let row_len: usize = bands.iter().map(|b| b.width).sum();
    let mut out: Vec<Rows<'a, T>> =
        bands.iter().map(|b| Rows { x0: b.x0, rows: Vec::new(), mesh }).collect();
    for row in cells.chunks_mut(row_len) {
        let mut rest = row;
        for (view, band) in out.iter_mut().zip(bands) {
            let (seg, r) = rest.split_at_mut(band.width);
            view.rows.push(seg);
            rest = r;
        }
    }
    out
}

/// Run the chip towards `goal` with one worker per band, until the shared
/// stop rule stops the run (`Some`, with its result) or the measured
/// active-cell count stays below `ChipConfig::shard_break_even` for
/// [`ADAPT_WINDOW`] consecutive cycles (`None`: the caller steps on). Either
/// way the workers are released at an ordinary cycle boundary.
pub(crate) fn run_threaded<P: Program>(
    chip: &mut Chip<P>,
    goal: RunGoal,
    start: u64,
) -> Option<Result<(), SimError>> {
    let Chip {
        cfg,
        placement,
        mesh,
        cells,
        bands,
        program,
        tally,
        sharded_cycles,
        band_active,
        ..
    } = chip;
    let n = bands.len();
    if band_active.len() < n {
        band_active.resize(n, 0);
    }
    let forks: Vec<P> = (0..n).map(|_| program.fork()).collect();
    let views = split_cells(cells, bands, mesh);
    let shared = Shared {
        env: Env { cfg, placement, mesh, safra_on: tally.safra.is_some() },
        mailboxes: (0..n).map(|_| (0..n).map(|_| Mutex::new(Vec::new())).collect()).collect(),
        credits: bands.iter().map(|b| Mutex::new(b.credit.clone())).collect(),
        reports: (0..n).map(|_| Mutex::new(CycleReport::default())).collect(),
        gate: Gate::new(),
        mid: SpinBarrier::new(n),
        start_cycle: tally.cycle,
        frame_words: frame_words(cfg),
        ready: (0..n).map(|_| AtomicUsize::new(0)).collect(),
    };
    let outcomes: Mutex<Vec<(usize, P, u64)>> = Mutex::new(Vec::with_capacity(n));
    let mut result = None;
    let mut cold_streak = 0u32;

    std::thread::scope(|scope| {
        for (sid, ((band, cells), program)) in bands.iter_mut().zip(views).zip(forks).enumerate() {
            let (shared, outcomes) = (&shared, &outcomes);
            scope.spawn(move || {
                let mut w = Worker {
                    sid,
                    band,
                    cells,
                    program,
                    west: Vec::new(),
                    east: Vec::new(),
                    band_active: 0,
                };
                if let Err(panic) = catch_unwind(AssertUnwindSafe(|| w.run(shared))) {
                    shared.gate.poisoned.store(true, Ordering::Release);
                    shared.mid.poison();
                    resume_unwind(panic);
                }
                outcomes.lock().unwrap().push((sid, w.program, w.band_active));
            });
        }

        // Coordinator: apply the stop rule, then fold the merge tree's root
        // report into the chip, once per cycle.
        shared.gate.wait_arrivals(n);
        loop {
            let cold = cold_streak >= ADAPT_WINDOW;
            match tally.next(goal, start, cfg.max_cycles, cold) {
                Next::Step => {}
                end => {
                    if let Next::Stop(r) = end {
                        result = Some(r);
                    }
                    shared.gate.stop.store(true, Ordering::Release);
                    shared.gate.release();
                    break;
                }
            }
            shared.gate.release();
            shared.gate.wait_arrivals(n);
            tally.fold(&mut shared.reports[0].lock().unwrap(), cfg.record_activity);
            *sharded_cycles += 1;
            let cold = tally.last_active < cfg.shard_break_even;
            cold_streak = if cold { cold_streak + 1 } else { 0 };
        }
    });

    // Fold the program forks back, in band order.
    let mut outs = outcomes.into_inner().unwrap();
    outs.sort_by_key(|(sid, ..)| *sid);
    for (sid, fork, active) in outs {
        program.merge(fork);
        band_active[sid] += active;
    }
    result
}
