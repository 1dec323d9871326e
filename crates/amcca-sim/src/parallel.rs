//! The threaded driver: one row band per thread, the calling thread
//! stepping band 0.
//!
//! A chip's mesh is cut into the row bands of a [`crate::ShardPlan`], and
//! every band keeps the live sets of its own cells (see the `chip` module).
//! A row band is one contiguous id range, so each thread holds one
//! `split_at_mut` slice of the row-major cell array and indexes it exactly
//! as a one-band chip indexes the whole array.
//! A run of a chip with more than one band is this driver's from its first
//! cycle to its stop. It steps band 0 on the calling thread and every other
//! band on a `std::thread::scope` helper, in lock-step cycles, with exactly
//! the band phases a one-band chip runs, plus the drain and publish steps
//! that carry hops and credits across band boundaries. No thread only
//! waits: `bands − 1` helpers are spawned, and the calling thread applies
//! the stop rule between its own band's cycles. The contract is strict **bit-identity with the
//! one-band chip** for any shard count; the determinism CI gate and
//! `tests/shard_equivalence.rs` enforce it.
//!
//! # Why this is deterministic
//!
//! Each simulated cycle waits three times on one [`SpinBarrier`]:
//!
//! 1. **Go** — the calling thread has folded the last cycle and published
//!    its go/stop verdict (the chip's one stop rule, `Tally::next`); every
//!    band reads it after the wait.
//! 2. **Route** — every band snapshots its routers and decides its moves
//!    against that *start-of-cycle* snapshot (cross-band credits are read
//!    from frames published at the previous cycle's end), then applies them:
//!    intra-band hops move directly, cross-band hops are popped locally and
//!    posted to the neighbour's inbox for that side. East/west hops stay in
//!    their row, so only north/south hops out of a band's first or last row
//!    cross bands, and flow control admits at most one flit per input FIFO
//!    per cycle, so inbox drain order cannot affect any FIFO's final order.
//!    Then the mid-cycle wait.
//! 3. **Drain + compute + IO + publish** — every band drains its two inboxes,
//!    marking each receiving cell net-live on its own thread, runs compute
//!    and IO over its live cells (all cell-local by the architecture's
//!    message-driven discipline), and publishes its boundary credit frame —
//!    the occupancy its next snapshot will hold — and its cycle report into
//!    its slot. Then the end-of-cycle wait.
//!
//! After the third wait the calling thread folds every slot in band order
//! ([`crate::chip::CycleReport::merge`]). The folded quantities —
//! active-cell counts, event counters, the `working` and Safra `detected`
//! flags, and the first error in (phase, cell-id) order — are exactly what
//! one band would have produced. Program state runs on per-band forks
//! merged in band order ([`crate::Program::fork`]).
//!
//! A panic in any band's actions poisons the barrier before it unwinds, so
//! every other band panics out of its next wait and the panic reaches the
//! caller instead of hanging the run.
//!
//! Every band computes only its own rows. Skew is levelled in the data
//! structure — hub vertices spread over rhizome roots in other rows —
//! not by moving rows between threads. Cycle-barrier work stealing used to
//! do that and lost wall-clock on the benchmark's `skew_sharded` in every
//! measured pair: its two extra barriers cost more than the levelling saved.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use crate::cell::Cell;
use crate::chip::{frame_words, Band, Chip, CreditFrame, CycleReport, Env, Mail};
use crate::error::SimError;
use crate::program::Program;
use crate::shard::SpinBarrier;

/// Everything the bands share for one segment: read-only, lock-protected,
/// or written only between two barrier waits.
struct Shared<'a> {
    env: Env<'a>,
    /// `inbox[s]`: cross-band hops posted to band `s` by its north
    /// neighbour (`[0]`) and by its south neighbour (`[1]`).
    inbox: Vec<[Mutex<Vec<Mail>>; 2]>,
    credits: Vec<Mutex<CreditFrame>>,
    reports: Vec<Mutex<CycleReport>>,
    barrier: SpinBarrier,
    /// The calling thread's verdict for the coming cycle.
    stop: AtomicBool,
    frame_words: usize,
}

/// One band's thread state: exclusive owner of the band, its cells, and a
/// program fork.
struct Lane<'a, P: Program> {
    sid: usize,
    band: &'a mut Band,
    /// The band's own slice of the cell array.
    cells: &'a mut [Cell<P::Object>],
    program: P,
    cycle: u64,
    /// Copies of the neighbours' credit frames for this cycle's route phase.
    north: Vec<bool>,
    south: Vec<bool>,
    /// Segment-long active-cell total of this band.
    band_active: u64,
}

impl<P: Program> Lane<'_, P> {
    /// Step this band through one cycle, or return `false` at the barrier if
    /// the calling thread's verdict is to stop.
    fn step(&mut self, shared: &Shared<'_>) -> bool {
        let (sid, n) = (self.sid, shared.reports.len());
        shared.barrier.wait();
        if shared.stop.load(Ordering::Acquire) {
            return false;
        }
        if sid > 0 {
            self.north.clone_from(&shared.credits[sid - 1].lock().unwrap().south);
        }
        if sid + 1 < n {
            self.south.clone_from(&shared.credits[sid + 1].lock().unwrap().north);
        }
        let Lane { band, cells, program, north, south, .. } = self;
        let mut rep = CycleReport::new(shared.frame_words);
        band.route(cells, &shared.env, self.cycle, north, south, &mut rep);
        if sid > 0 && !band.out[0].is_empty() {
            shared.inbox[sid - 1][1].lock().unwrap().append(&mut band.out[0]);
        }
        if sid + 1 < n && !band.out[1].is_empty() {
            shared.inbox[sid + 1][0].lock().unwrap().append(&mut band.out[1]);
        }
        shared.barrier.wait();
        for inbox in &shared.inbox[sid] {
            band.drain(cells, shared.env.mesh, &mut inbox.lock().unwrap());
        }
        band.compute(cells, &shared.env, program, &mut rep);
        band.io(cells, &shared.env, &mut rep);
        band.publish(cells);
        rep.working = !band.quiet(cells);
        shared.credits[sid].lock().unwrap().clone_from(&band.credit);
        self.band_active += rep.active as u64;
        *shared.reports[sid].lock().unwrap() = rep;
        self.cycle += 1;
        shared.barrier.wait();
        true
    }
}

/// Run `f`, poisoning the barrier before any panic unwinds past it, so no
/// band is left spinning on a wait its panicked sibling never reaches.
fn guarded<T>(barrier: &SpinBarrier, f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        barrier.poison();
        resume_unwind(panic)
    })
}

/// Run the chip with one thread per band until the shared stop rule stops
/// the run, and return the run's result. The helpers are released at an
/// ordinary cycle boundary.
pub(crate) fn run_threaded<P: Program>(chip: &mut Chip<P>, start: u64) -> Result<(), SimError> {
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
    let shared = Shared {
        env: Env { cfg, placement, mesh, safra_on: tally.safra.is_some() },
        inbox: (0..n).map(|_| [Mutex::default(), Mutex::default()]).collect(),
        credits: bands.iter().map(|b| Mutex::new(b.credit.clone())).collect(),
        reports: (0..n).map(|_| Mutex::default()).collect(),
        barrier: SpinBarrier::new(n),
        stop: AtomicBool::new(false),
        frame_words: frame_words(cfg),
    };
    let cycle = tally.cycle;
    // The bands tile the cell array in band order: each takes the next slice.
    let mut rest = &mut cells[..];
    let mut lanes = bands.iter_mut().enumerate().map(|(sid, band)| {
        let (cells, tail) = std::mem::take(&mut rest).split_at_mut(band.ids().len());
        rest = tail;
        Lane {
            sid,
            band,
            cells,
            program: program.fork(),
            cycle,
            north: Vec::new(),
            south: Vec::new(),
            band_active: 0,
        }
    });
    let mut lane0 = lanes.next().expect("a chip has at least one band");

    let (result, helpers) = std::thread::scope(|scope| {
        let helpers: Vec<_> = lanes
            .map(|mut lane| {
                let shared = &shared;
                scope.spawn(move || {
                    guarded(&shared.barrier, || while lane.step(shared) {});
                    (lane.program, lane.band_active)
                })
            })
            .collect();

        // Band 0 on the calling thread, which also folds the reports and
        // applies the stop rule between cycles.
        let result = guarded(&shared.barrier, || loop {
            let verdict = tally.next(cfg, start);
            shared.stop.store(verdict.is_some(), Ordering::Release);
            if !lane0.step(&shared) {
                break verdict.expect("the lanes stop only on a stop verdict");
            }
            let mut rep = shared.reports[0].lock().unwrap();
            for slot in &shared.reports[1..] {
                rep.merge(&mut slot.lock().unwrap());
            }
            tally.fold(&mut rep, cfg.record_activity);
            *sharded_cycles += 1;
        });
        let helpers: Vec<_> =
            helpers.into_iter().map(|h| h.join().unwrap_or_else(|p| resume_unwind(p))).collect();
        (result, helpers)
    });

    // Fold the program forks back, in band order.
    program.merge(lane0.program);
    band_active[0] += lane0.band_active;
    for (sid, (fork, active)) in helpers.into_iter().enumerate() {
        program.merge(fork);
        band_active[sid + 1] += active;
    }
    result
}
