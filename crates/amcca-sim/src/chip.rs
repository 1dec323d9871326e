//! The whole-chip cycle-level simulation loop.
//!
//! One simulation cycle comprises three phases, matching the paper's §4
//! timing rules:
//!
//! 1. **Network** — every router output forwards at most one operon one hop
//!    along its YX route; arrived operons eject into the target cell's task
//!    queue. "In a single simulation cycle, a message can traverse one hop."
//! 2. **Compute** — every CC performs at most one unit of work: retire one
//!    instruction of the running action, or stage one `propagate`d operon
//!    into its router ("a single CC can perform either of the two
//!    operations: a computing instruction, or the creation and staging of a
//!    new message").
//! 3. **IO** — every IO cell injects at most one pending operon into its
//!    border cell. "Every cycle, each IO Cell reads an edge ... and sends it
//!    to its connected CC."
//!
//! A cell that performed compute-phase work counts as *active* for the cycle
//! (the quantity plotted in the paper's Figures 6–7).
//!
//! The machine is message-driven, so in a typical cycle only a handful of
//! cells can do anything. The mesh is cut into the column bands of a
//! [`ShardPlan`] (one band at `shards = 1`), and each band keeps two live sets
//! of its own cells, *net-live* and *work-live*: every phase visits only their
//! members, in ascending cell id. The band phases (route, which starts by
//! snapshotting the routers → drain → compute → IO → publish the boundary
//! credits) are the only cycle code. [`Chip::step`] runs them for every
//! band in band order on the calling thread, and so does a run of a one-band
//! chip; a run of a multi-band chip is the threaded driver's, one band per
//! thread, band 0 on the calling one. What leaves a band — a hop into a
//! neighbour band, the first error, the Safra token — travels as mail or in a
//! cycle report folded at the end of the cycle, so both drivers build the
//! same chip. The per-cell helpers below are no-ops on non-members, which is
//! what makes skipping them invisible to every simulated statistic.

use crate::cell::Cell;
use crate::config::ChipConfig;
use crate::error::SimError;
use crate::geom::{Dims, MeshTable, OUT_BAD, OUT_EJECT};
use crate::iocell::{io_cells, IoCell};
use crate::operon::{Address, Operon};
use crate::placement::PlacementTable;
use crate::program::{ExecCtx, Program};
use crate::rng::SplitMix64;
use crate::router::{NUM_CODES, NUM_PORTS, PORT_EAST, PORT_IO, PORT_LOCAL, PORT_WEST};
use crate::safra::{decode_token, initiator_detects, token_operon, CellTd, SafraState, ACT_TOKEN};
use crate::shard::ShardPlan;
use crate::stats::{ActivityRecording, ActivitySeries, CellLoad, Counters};

/// One resolved network-phase move; decided for all cells first, then applied
/// (so every decision sees the same start-of-cycle state).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Move {
    /// Forward the head of `src`'s `port` FIFO one hop to `dst`'s `in_port`.
    Hop {
        /// Source cell id.
        src: u16,
        /// Source input-FIFO index holding the flit.
        port: u8,
        /// Destination (neighbouring) cell id.
        dst: u16,
        /// Destination input-FIFO index the flit arrives on.
        in_port: u8,
    },
    /// Eject the head of `cell`'s `port` FIFO into its local task queue.
    Deliver {
        /// The arriving flit's cell id.
        cell: u16,
        /// Input-FIFO index holding the arrived flit.
        port: u8,
    },
}

/// A set of cell ids, kept as a bitset (16 words on the default 32×32 chip)
/// so that membership updates are one OR and iteration is in ascending id.
#[derive(Debug)]
pub(crate) struct LiveSet {
    words: Vec<u64>,
}

impl LiveSet {
    fn new(n_cells: usize) -> Self {
        LiveSet { words: vec![0; n_cells.div_ceil(64)] }
    }

    #[inline]
    fn insert(&mut self, i: usize) {
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    fn contains(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Members in ascending order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| set_bits(word).map(move |b| w * 64 + b))
    }

    /// Visit members in ascending order, dropping those `keep` rejects.
    fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for (w, word) in self.words.iter_mut().enumerate() {
            for b in set_bits(*word) {
                if !keep(w * 64 + b) {
                    *word &= !(1u64 << b);
                }
            }
        }
    }
}

/// Positions of the set bits of `word`, ascending.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let b = word.trailing_zeros() as usize;
            word &= word - 1;
            b
        })
    })
}

/// A simulated AM-CCA chip running program `P`.
///
/// Fields are `pub(crate)` so the threaded driver (the crate's `parallel`
/// module) can split-borrow them across worker threads.
pub struct Chip<P: Program> {
    pub(crate) cfg: ChipConfig,
    pub(crate) placement: PlacementTable,
    /// Cell coordinates and the route function, tabulated once.
    pub(crate) mesh: MeshTable,
    pub(crate) cells: Vec<Cell<P::Object>>,
    /// The column bands of [`ChipConfig::shards`], fixed at construction.
    pub(crate) bands: Vec<Band>,
    pub(crate) program: P,
    pub(crate) tally: Tally,
    /// Round-robin cursor of [`Chip::io_load`] over the IO cells.
    next_io: usize,
    /// Cycles the threaded driver ran (diagnostics; deliberately not part
    /// of [`Counters`]).
    pub(crate) sharded_cycles: u64,
    /// Active-cell totals per column band, summed over all threaded cycles.
    /// Sized lazily by the threaded driver (empty until it runs).
    /// Diagnostics; not part of [`Counters`].
    pub(crate) band_active: Vec<u64>,
}

/// The chip-global quantities: what a cycle's [`CycleReport`] folds into,
/// and what the stop rule reads.
#[derive(Default)]
pub(crate) struct Tally {
    pub(crate) cycle: u64,
    pub(crate) counters: Counters,
    pub(crate) activity: ActivitySeries,
    /// Operons inside routers (staged or in flight).
    in_network: u64,
    /// Operons delivered but not yet picked up.
    queued_tasks: u64,
    /// Cells currently occupied by an action.
    busy: u32,
    /// Operons loaded on IO cells and not yet injected.
    io_pending: u64,
    pub(crate) error: Option<SimError>,
    /// Distributed termination detection (Safra token), when enabled.
    pub(crate) safra: Option<SafraState>,
    /// True while a termination token is circulating.
    token_alive: bool,
    /// Per-cell helper invocations (diagnostics; not part of [`Counters`]).
    cell_visits: u64,
}

/// What a run waits for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RunGoal {
    /// Stop at global quiescence ([`Chip::is_quiescent`]).
    Quiescence,
    /// Stop when the Safra detector declares termination.
    SafraTermination,
}

// ----------------------------------------------------------------------
// Shared per-cell phase logic.
//
// These free functions are the single source of truth for what one cell does
// in each phase of a cycle. The band phases call them on live cells; the
// test module's dense reference calls them on every cell. Every side effect
// that is not cell-local is surfaced through the explicit outputs (`Move`
// lists, `ComputeFx`, return values) so the caller can aggregate it
// deterministically.
// ----------------------------------------------------------------------

/// What the Safra token did at the cell that held it this cycle. The caller
/// owns the chip-global detector scalars and applies the matching update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokenStep {
    /// Cell was not passive: token re-queued behind pending work.
    Requeued,
    /// Non-initiator forwarded the token along the ring.
    Forwarded,
    /// Initiator's probe failed: a fresh white probe was launched.
    Restarted,
    /// Initiator detected termination; the token retires.
    Detected,
}

/// Non-cell-local side effects of one cell's compute phase, reported as
/// deltas so per-band sums merge into the chip totals exactly.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ComputeFx {
    /// Change in the number of delivered-but-unconsumed tasks.
    pub d_queued: i64,
    /// Change in the number of busy cells.
    pub d_busy: i64,
    /// Change in the number of operons inside routers.
    pub d_in_network: i64,
    /// Safra-token action performed by this cell, if it held the token.
    pub token: Option<TokenStep>,
}

/// Decide the network-phase moves of one cell: each output port grants at
/// most one flit, to the first input FIFO wanting it in the cycle's rotated
/// round-robin order, subject to start-of-cycle credits. `accepts(nb, in_port)`
/// answers whether neighbour `nb` had a free slot on `in_port` at cycle start
/// (a band answers probes across its boundary from the neighbour's credit
/// frame).
///
/// The six cached head codes become one port mask per output, so no branch
/// depends on where a flit is going. A refused output stalls every port
/// wanting it (the same credit refuses each in turn), a granted one none.
/// Moves come out grouped by output, not in port order; the order is
/// immaterial, because each `(dst, in_port)` FIFO and each task queue receives
/// at most one flit per cycle and each source port gives up at most its head.
#[allow(clippy::too_many_arguments)]
pub(crate) fn decide_cell_moves<T>(
    cell: &Cell<T>,
    src: u16,
    cycle: u64,
    mesh: &MeshTable,
    task_queue_cap: usize,
    mut accepts: impl FnMut(u16, usize) -> bool,
    moves: &mut Vec<Move>,
    counters: &mut Counters,
    error: &mut Option<SimError>,
) {
    if cell.router.total() == 0 {
        return;
    }
    let mut wants = [0u32; NUM_CODES];
    for (port, out) in cell.router.head_outs().into_iter().enumerate() {
        wants[out as usize] |= 1 << port;
    }
    // First wanting port at or after the rotation point, else the first.
    let rot = (cycle.wrapping_add(src as u64) % NUM_PORTS as u64) as u32;
    let winner = |mask: u32| {
        let ahead = mask >> rot << rot;
        (if ahead != 0 { ahead } else { mask }).trailing_zeros() as u8
    };
    let bad = wants[OUT_BAD as usize];
    if bad != 0 && error.is_none() {
        let head = cell.router.front(winner(bad) as usize).expect("port mask names a head");
        *error = Some(SimError::BadTargetCell { cc: head.target.cc });
    }
    let eject = wants[OUT_EJECT as usize];
    if eject != 0 {
        if cell.task_queue.len() < task_queue_cap {
            moves.push(Move::Deliver { cell: src, port: winner(eject) });
        } else {
            counters.deliver_stalls += eject.count_ones() as u64;
        }
    }
    for (out, &mask) in wants[..OUT_EJECT as usize].iter().enumerate() {
        if mask == 0 {
            continue;
        }
        let (dst, in_port) = (mesh.neighbor(src, out as u8), out ^ 1);
        if accepts(dst, in_port) {
            moves.push(Move::Hop { src, port: winner(mask), dst, in_port: in_port as u8 });
        } else {
            counters.net_stalls += mask.count_ones() as u64;
        }
    }
}

/// Run one cell's compute phase: pick up a task if idle (executing the action
/// body, or handling the Safra token), then retire one instruction or stage
/// one outgoing operon. Returns whether the cell did work (is *active*).
#[allow(clippy::too_many_arguments)]
pub(crate) fn compute_cell<P: Program>(
    cell: &mut Cell<P::Object>,
    i: usize,
    safra_on: bool,
    program: &mut P,
    counters: &mut Counters,
    cfg: &ChipConfig,
    placement: &PlacementTable,
    mesh: &MeshTable,
    error: &mut Option<SimError>,
    fx: &mut ComputeFx,
) -> bool {
    if !cell.busy {
        if let Some(op) = cell.task_queue.pop_front() {
            fx.d_queued -= 1;
            if op.action == ACT_TOKEN {
                // Safra Rule 1: hold the token until passive, then add our
                // count, colour it, whiten ourselves, and forward — or, at
                // the initiator, run the Rule-2 detection check. Global
                // detector scalars are the caller's via `fx.token`.
                debug_assert!(safra_on, "token without detector");
                cell.busy = true;
                cell.remaining = 1; // one bookkeeping instruction
                fx.d_busy += 1;
                if cell.task_queue.is_empty() {
                    let (q, colour) = decode_token(&op);
                    let td = cell.td;
                    if i == 0 {
                        if initiator_detects(q, colour, td) {
                            fx.token = Some(TokenStep::Detected);
                        } else {
                            // Unsuccessful probe: whiten, fresh round.
                            fx.token = Some(TokenStep::Restarted);
                            cell.td.black = false;
                            let next = cfg.dims.serpentine_next(0);
                            cell.outbox.push_back(token_operon(
                                next,
                                0,
                                crate::safra::Colour::White,
                            ));
                        }
                    } else {
                        let fwd_q = q + td.mc;
                        let fwd_colour = if td.black || colour == crate::safra::Colour::Black {
                            crate::safra::Colour::Black
                        } else {
                            crate::safra::Colour::White
                        };
                        cell.td.black = false;
                        let next = cfg.dims.serpentine_next(i as u16);
                        cell.outbox.push_back(token_operon(next, fwd_q, fwd_colour));
                        fx.token = Some(TokenStep::Forwarded);
                    }
                } else {
                    // Not passive: poll — requeue the token behind the
                    // pending work.
                    fx.token = Some(TokenStep::Requeued);
                    cell.task_queue.push_back(op);
                    fx.d_queued += 1;
                }
            } else {
                if safra_on {
                    cell.td.on_consume();
                }
                let mut charge = cfg.cost.dispatch;
                {
                    let mut ctx = ExecCtx::new(
                        cell.id,
                        cell.coord,
                        &mut cell.memory,
                        &mut cell.outbox,
                        &mut charge,
                        counters,
                        &cfg.cost,
                        placement,
                        &mut cell.rng,
                        error,
                    );
                    program.execute(&mut ctx, &op);
                }
                cell.busy = true;
                cell.remaining = charge.max(1);
                fx.d_busy += 1;
            }
        } else {
            return false;
        }
    }
    debug_assert!(cell.busy);
    let mut did_work = false;
    if cell.remaining > 0 {
        cell.remaining -= 1;
        counters.instrs += 1;
        did_work = true;
    } else if let Some(&op) = cell.outbox.front() {
        if cell.router.accepts_now(PORT_LOCAL) {
            cell.outbox.pop_front();
            cell.enqueue(PORT_LOCAL, op, mesh);
            fx.d_in_network += 1;
            counters.msgs_staged += 1;
            if op.action != ACT_TOKEN && safra_on {
                cell.td.on_send();
            }
            did_work = true;
        } else {
            counters.stage_stalls += 1;
        }
    }
    if cell.remaining == 0 && cell.outbox.is_empty() {
        cell.busy = false;
        fx.d_busy -= 1;
    }
    did_work
}

/// Apply a cell's [`TokenStep`] to the chip-global detector scalars.
fn apply_token_step(step: TokenStep, s: &mut SafraState, token_alive: &mut bool, cycle_now: u64) {
    match step {
        TokenStep::Requeued => s.token_requeues += 1,
        TokenStep::Forwarded => {}
        TokenStep::Restarted => s.rounds += 1,
        TokenStep::Detected => {
            s.terminated = true;
            s.detected_at = Some(cycle_now);
            *token_alive = false; // token retired
        }
    }
}

/// Run one IO cell's phase: inject its head operon into the attached border
/// cell's router if the IO port has a free slot. Returns whether an operon
/// was injected (the caller counts it out of the IO streams and into the
/// network).
pub(crate) fn io_cell_step<T>(
    io_cell: &mut IoCell,
    border: &mut Cell<T>,
    mesh: &MeshTable,
    safra_on: bool,
    counters: &mut Counters,
) -> bool {
    let Some(&op) = io_cell.queue.front() else { return false };
    if !border.router.accepts_now(PORT_IO) {
        return false;
    }
    io_cell.queue.pop_front();
    border.enqueue(PORT_IO, op, mesh);
    counters.io_injected += 1;
    // The IO-cell-to-CC link traversal is a hop like any other.
    counters.hops += 1;
    // Termination accounting: an IO injection is a send by the environment,
    // attributed to the border cell so the message count stays closed.
    if safra_on {
        border.td.on_send();
    }
    true
}

// ----------------------------------------------------------------------
// The band phases: the only cycle code.
// ----------------------------------------------------------------------

/// How a band step reaches cells by id: the whole row-major array on the
/// calling thread, the band's own row segments on a worker. A step only asks
/// for cells of its own band.
pub(crate) trait Cells<T> {
    fn cell(&self, id: u16) -> &Cell<T>;
    fn cell_mut(&mut self, id: u16) -> &mut Cell<T>;
}

impl<T> Cells<T> for [Cell<T>] {
    #[inline]
    fn cell(&self, id: u16) -> &Cell<T> {
        &self[id as usize]
    }

    #[inline]
    fn cell_mut(&mut self, id: u16) -> &mut Cell<T> {
        &mut self[id as usize]
    }
}

/// What every band step reads and no band writes during a cycle.
#[derive(Clone, Copy)]
pub(crate) struct Env<'a> {
    pub cfg: &'a ChipConfig,
    pub placement: &'a PlacementTable,
    pub mesh: &'a MeshTable,
    pub safra_on: bool,
}

/// A hop into a neighbour band, in flight until that band's drain phase.
pub(crate) struct Mail {
    dst: u16,
    in_port: u8,
    op: Operon,
}

/// Start-of-cycle acceptance of a band's boundary columns, read by the
/// neighbour bands' route phases. Empty on a chip with one band.
#[derive(Clone)]
pub(crate) struct CreditFrame {
    /// `west[y]`: does cell `(x0, y)` accept on its west port (an eastbound
    /// hop from the west neighbour)?
    pub west: Vec<bool>,
    /// `east[y]`: does the band's last cell of row `y` accept on its east
    /// port (a westbound hop from the east neighbour)?
    pub east: Vec<bool>,
}

/// One cycle's effects that are not local to a band's cells. Bands stepped
/// on one thread share one report; on the threaded driver each band fills
/// its own, and the calling thread folds them in band order
/// ([`CycleReport::merge`]). Either way the chip folds the result in with
/// [`Tally::fold`].
#[derive(Default)]
pub(crate) struct CycleReport {
    pub active: u32,
    d_in_network: i64,
    d_queued: i64,
    d_busy: i64,
    io_injected: u64,
    counters: Counters,
    visits: u64,
    token: Option<TokenStep>,
    token_hops: u64,
    /// First network-phase error, with the deciding cell id.
    net_err: Option<(u16, SimError)>,
    /// First compute-phase error, with the executing cell id.
    comp_err: Option<(u16, SimError)>,
    /// Activity bitmap words (whole-chip indexing); empty unless recording
    /// frames.
    frame: Vec<u64>,
}

/// Keep the error of the lowest cell id: folded this way, the per-phase first
/// error does not depend on the order in which bands ran.
fn keep_first(slot: &mut Option<(u16, SimError)>, cc: u16, e: SimError) {
    if slot.as_ref().is_none_or(|(c0, _)| cc < *c0) {
        *slot = Some((cc, e));
    }
}

impl CycleReport {
    pub(crate) fn new(frame_words: usize) -> Self {
        CycleReport { frame: vec![0; frame_words], ..Default::default() }
    }

    /// Fold another band's report into this one: sums for the scalar
    /// aggregates, min-cell-id for the per-phase first errors, OR for frames.
    pub(crate) fn merge(&mut self, other: &mut CycleReport) {
        self.active += other.active;
        self.d_in_network += other.d_in_network;
        self.d_queued += other.d_queued;
        self.d_busy += other.d_busy;
        self.io_injected += other.io_injected;
        self.counters.merge(&other.counters);
        self.visits += other.visits;
        if let Some(step) = other.token.take() {
            debug_assert!(self.token.is_none(), "one token per chip");
            self.token = Some(step);
        }
        self.token_hops += other.token_hops;
        if let Some((cc, e)) = other.net_err.take() {
            keep_first(&mut self.net_err, cc, e);
        }
        if let Some((cc, e)) = other.comp_err.take() {
            keep_first(&mut self.comp_err, cc, e);
        }
        for (acc, w) in self.frame.iter_mut().zip(&other.frame) {
            *acc |= *w;
        }
    }
}

/// Bitmap words of one activity frame, 0 unless the chip records frames.
pub(crate) fn frame_words(cfg: &ChipConfig) -> usize {
    match cfg.record_activity {
        ActivityRecording::Frames { .. } => cfg.cell_count().div_ceil(64) as usize,
        _ => 0,
    }
}

/// One column band of the mesh: the live sets of its cells, its IO cells,
/// and its phases' scratch. Bands live as long as the chip, so no driver
/// converts or rebuilds anything when it takes a run over.
///
/// The live sets are indexed by cell id: each spans the chip's ids but holds
/// only its band's cells. No phase converts an index, ascending index is
/// ascending cell id, and one band indexes exactly as a chip without bands.
pub(crate) struct Band {
    /// The band owns columns `x0 .. x0 + width` of a `dims` mesh.
    pub(crate) x0: usize,
    pub(crate) width: usize,
    dims: Dims,
    /// Cells whose router holds a flit or whose credit snapshot is not yet
    /// all-zero — the only cells the route phase has to look at. Every push
    /// into a router marks its cell; a cell leaves only in the snapshot that
    /// reads it **empty**, never when its last flit departs, so a non-member
    /// always reads as a freshly snapshotted empty router to its neighbours
    /// (see [`crate::router::Router::accepts`]).
    net_live: LiveSet,
    /// Cells that are `busy` or have a queued task — the only cells the
    /// compute phase has to look at. A delivery (or host injection) marks
    /// the cell; it leaves when it ends a compute phase idle.
    work_live: LiveSet,
    /// The band's IO cells: its columns of the north channel, then of the
    /// south one.
    io: Vec<IoCell>,
    moves: Vec<Move>,
    /// Hops the route phase posted to the west and to the east neighbour.
    pub(crate) out: [Vec<Mail>; 2],
    /// This band's boundary acceptance for the next cycle, published at the
    /// end of the last one.
    pub(crate) credit: CreditFrame,
}

impl Band {
    fn new(dims: Dims, (x0, x1): (u16, u16), neighbours: bool) -> Self {
        let n_cells = dims.cell_count() as usize;
        let frame = vec![true; if neighbours { dims.y as usize } else { 0 }];
        Band {
            x0: x0 as usize,
            width: (x1 - x0) as usize,
            dims,
            net_live: LiveSet::new(n_cells),
            work_live: LiveSet::new(n_cells),
            io: io_cells(dims, x0..x1),
            moves: Vec::new(),
            out: [Vec::new(), Vec::new()],
            credit: CreditFrame { west: frame.clone(), east: frame },
        }
    }

    fn owns(&self, x: u16) -> bool {
        (x as usize).wrapping_sub(self.x0) < self.width
    }

    /// Route phase: snapshot the net-live routers, decide this band's moves
    /// against the snapshot — across a boundary, against the neighbours'
    /// credit frames (`west` is the west neighbour's east column, `east` the
    /// east neighbour's west column) — then apply them. A hop into a
    /// neighbour band leaves its router here and is posted to [`Band::out`].
    ///
    /// A router that snapshots empty leaves net-live here, with an all-zero
    /// snapshot, and nowhere else: dropping it when its last flit departs
    /// would leave a stale non-zero snapshot for neighbours to read next
    /// cycle (`link_buffer = 1` back-pressure would then stall a hop a dense
    /// scan grants).
    pub(crate) fn route<T, C: Cells<T> + ?Sized>(
        &mut self,
        cells: &mut C,
        env: &Env<'_>,
        cycle: u64,
        west: &[bool],
        east: &[bool],
        rep: &mut CycleReport,
    ) {
        if west.is_empty() && east.is_empty() {
            // No neighbours, no boundary: the phase compiles without a test
            // it would make on every hop (about a tenth of a dense cycle).
            return self.route_across(cells, env, cycle, rep, |_, _| None);
        }
        let (x0, x_end) = (self.x0, self.x0 + self.width);
        // Under YX routing only east/west hops from a boundary column leave.
        let exit = |src: u16, in_port: usize| {
            let eastbound = match in_port {
                PORT_WEST => true,
                PORT_EAST => false,
                _ => return None,
            };
            let at = env.mesh.coord(src);
            let edge = if eastbound { x_end - 1 } else { x0 };
            let credit = if eastbound { east } else { west };
            (at.x as usize == edge).then(|| (eastbound as usize, credit[at.y as usize]))
        };
        self.route_across(cells, env, cycle, rep, exit);
    }

    /// The route phase under boundary rule `exit`: for a hop from `src` that
    /// arrives on `in_port`, the neighbour it crosses into (0 west, 1 east)
    /// and that neighbour's credit for it, or `None` while it stays in the
    /// band.
    fn route_across<T, C: Cells<T> + ?Sized>(
        &mut self,
        cells: &mut C,
        env: &Env<'_>,
        cycle: u64,
        rep: &mut CycleReport,
        exit: impl Fn(u16, usize) -> Option<(usize, bool)>,
    ) {
        let Band { net_live, moves, .. } = self;
        let (mesh, cap) = (env.mesh, env.cfg.task_queue_cap);
        net_live.retain(|id| {
            let router = &mut cells.cell_mut(id as u16).router;
            router.begin_cycle();
            router.total() > 0
        });
        moves.clear();
        let (mut err, mut visits) = (None, 0);
        for src in net_live.iter() {
            let src = src as u16;
            let cell = cells.cell(src);
            let accepts = |nb: u16, in_port: usize| match exit(src, in_port) {
                None => cells.cell(nb).router.accepts(in_port),
                Some((_, credit)) => credit,
            };
            let counters = &mut rep.counters;
            decide_cell_moves(cell, src, cycle, mesh, cap, accepts, moves, counters, &mut err);
            visits += 1;
        }
        rep.visits += visits;
        if let Some(e) = err {
            // Only a head bound for no cell errs here, and members run in id
            // order, so the error is the lowest such router's: found here
            // rather than tracked on every visit of the loop above.
            let holds_bad =
                |&id: &usize| cells.cell(id as u16).router.head_outs().contains(&OUT_BAD);
            let at = net_live.iter().find(holds_bad).expect("an error names its router");
            keep_first(&mut rep.net_err, at as u16, e);
        }
        for i in 0..self.moves.len() {
            match self.moves[i] {
                Move::Hop { src, port, dst, in_port } => {
                    let op = cells.cell_mut(src).router.pop(port as usize);
                    if op.action == ACT_TOKEN {
                        rep.token_hops += 1;
                    }
                    rep.counters.hops += 1;
                    match exit(src, in_port as usize) {
                        None => {
                            cells.cell_mut(dst).enqueue(in_port as usize, op, mesh);
                            self.net_live.insert(dst as usize);
                        }
                        Some((side, _)) => self.out[side].push(Mail { dst, in_port, op }),
                    }
                }
                Move::Deliver { cell, port } => {
                    let c = cells.cell_mut(cell);
                    let op = c.router.pop(port as usize);
                    c.task_queue.push_back(op);
                    c.load.delivered += 1;
                    c.load.peak_queue = c.load.peak_queue.max(c.task_queue.len() as u32);
                    self.work_live.insert(cell as usize);
                    rep.d_in_network -= 1;
                    rep.d_queued += 1;
                    rep.counters.msgs_delivered += 1;
                }
            }
        }
    }

    /// Drain phase: queue the hops a neighbour band posted here, marking each
    /// receiving cell net-live. Each input FIFO receives at most one flit a
    /// cycle, so the order mail is drained in cannot matter.
    pub(crate) fn drain<T, C: Cells<T> + ?Sized>(
        &mut self,
        cells: &mut C,
        mesh: &MeshTable,
        inbox: &mut Vec<Mail>,
    ) {
        for m in inbox.drain(..) {
            cells.cell_mut(m.dst).enqueue(m.in_port as usize, m.op, mesh);
            self.net_live.insert(m.dst as usize);
        }
    }

    /// Compute phase over the band's work-live cells, in cell-id order.
    pub(crate) fn compute<P: Program, C: Cells<P::Object> + ?Sized>(
        &mut self,
        cells: &mut C,
        env: &Env<'_>,
        program: &mut P,
        rep: &mut CycleReport,
    ) {
        let Band { net_live, work_live, .. } = self;
        let Env { cfg, placement, mesh, safra_on } = *env;
        // Tallied in locals and added to `rep` once: a dense cycle visits
        // hundreds of cells. The band's first error is its lowest cell's.
        let (mut sum, mut active, mut visits) = (ComputeFx::default(), 0, 0);
        let (mut err, mut err_at) = (None, 0);
        let (counters, frame) = (&mut rep.counters, &mut rep.frame);
        work_live.retain(|id| {
            let cell = cells.cell_mut(id as u16);
            let (mut fx, had_err) = (ComputeFx::default(), err.is_some());
            let did_work = compute_cell(
                cell, id, safra_on, program, counters, cfg, placement, mesh, &mut err, &mut fx,
            );
            visits += 1;
            if !had_err && err.is_some() {
                err_at = id as u16;
            }
            if fx.d_in_network > 0 {
                net_live.insert(id); // staged into its own router
            }
            sum.d_queued += fx.d_queued;
            sum.d_busy += fx.d_busy;
            sum.d_in_network += fx.d_in_network;
            sum.token = sum.token.or(fx.token);
            if did_work {
                active += 1;
                if let Some(word) = frame.get_mut(id / 64) {
                    *word |= 1u64 << (id % 64);
                }
            }
            !cell.is_idle()
        });
        if let Some(e) = err {
            keep_first(&mut rep.comp_err, err_at, e);
        }
        debug_assert!(rep.token.is_none() || sum.token.is_none(), "one token per chip");
        rep.token = rep.token.or(sum.token);
        rep.d_queued += sum.d_queued;
        rep.d_busy += sum.d_busy;
        rep.d_in_network += sum.d_in_network;
        rep.active += active;
        rep.visits += visits;
    }

    /// IO phase over the band's IO cells that hold a stream.
    pub(crate) fn io<T, C: Cells<T> + ?Sized>(
        &mut self,
        cells: &mut C,
        env: &Env<'_>,
        rep: &mut CycleReport,
    ) {
        for io_cell in self.io.iter_mut().filter(|c| !c.queue.is_empty()) {
            rep.visits += 1;
            let border = cells.cell_mut(io_cell.cc);
            if io_cell_step(io_cell, border, env.mesh, env.safra_on, &mut rep.counters) {
                self.net_live.insert(io_cell.cc as usize);
                rep.io_injected += 1;
                rep.d_in_network += 1;
            }
        }
    }

    /// Publish phase: refresh the boundary credit frame the neighbours'
    /// next route phase reads. At a cycle's end a router's occupancy is what
    /// the next cycle's snapshot will hold, so this reads it directly.
    pub(crate) fn publish<T, C: Cells<T> + ?Sized>(&mut self, cells: &C) {
        let (row, last) = (self.dims.x as usize, self.width - 1);
        for y in 0..self.credit.west.len() {
            let first = (y * row + self.x0) as u16;
            self.credit.west[y] = cells.cell(first).router.accepts_now(PORT_WEST);
            self.credit.east[y] = cells.cell(first + last as u16).router.accepts_now(PORT_EAST);
        }
    }

    /// The tracking invariant: every cell of the band a dense scan would act
    /// on is a member. Checked after every cycle in debug builds.
    pub(crate) fn covers<T, C: Cells<T> + ?Sized>(&self, cells: &C) -> bool {
        let (row, cols) = (self.dims.x as usize, self.x0..self.x0 + self.width);
        (0..self.dims.y as usize).flat_map(|y| cols.clone().map(move |x| y * row + x)).all(|id| {
            let cell = cells.cell(id as u16);
            (cell.router.is_drained() || self.net_live.contains(id))
                && (cell.is_idle() || self.work_live.contains(id))
        })
    }
}

impl Tally {
    fn is_quiescent(&self) -> bool {
        self.in_network == 0 && self.queued_tasks == 0 && self.busy == 0 && self.io_pending == 0
    }

    /// The one stop rule of both drivers, applied before every cycle: the
    /// Safra goal, a pending error, quiescence (so at quiescence a pending
    /// error still wins), and the cycle budget counted from `start`. `None`
    /// runs another cycle; `Some` ends the run with its result.
    pub(crate) fn next(
        &mut self,
        goal: RunGoal,
        start: u64,
        max_cycles: u64,
    ) -> Option<Result<(), SimError>> {
        if goal == RunGoal::SafraTermination && self.safra.as_ref().is_some_and(|s| s.terminated) {
            return Some(Ok(()));
        }
        if let Some(e) = self.error.take() {
            return Some(Err(e));
        }
        if goal == RunGoal::Quiescence && self.is_quiescent() {
            return Some(Ok(()));
        }
        if self.cycle - start >= max_cycles {
            return Some(Err(SimError::CycleLimitExceeded { limit: max_cycles }));
        }
        None
    }

    /// Fold one cycle's report in and end the cycle. Errors keep the
    /// sequential precedence: the network phase's first error, else the
    /// compute phase's, each already folded to its minimum cell id.
    pub(crate) fn fold(&mut self, r: &mut CycleReport, recording: ActivityRecording) {
        self.in_network = (self.in_network as i64 + r.d_in_network) as u64;
        self.queued_tasks = (self.queued_tasks as i64 + r.d_queued) as u64;
        self.busy = (self.busy as i64 + r.d_busy) as u32;
        self.io_pending -= r.io_injected;
        self.counters.merge(&r.counters);
        self.cell_visits += r.visits;
        let (net_err, comp_err) = (r.net_err.take(), r.comp_err.take());
        if self.error.is_none() {
            self.error = net_err.or(comp_err).map(|(_, e)| e);
        }
        if let Some(step) = r.token.take() {
            let s = self.safra.as_mut().expect("token without detector");
            apply_token_step(step, s, &mut self.token_alive, self.cycle);
        }
        if let Some(s) = self.safra.as_mut() {
            s.token_hops += r.token_hops;
        }
        if recording != ActivityRecording::Off {
            self.activity.counts.push(r.active.min(u16::MAX as u32) as u16);
        }
        if let ActivityRecording::Frames { stride } = recording {
            if stride > 0 && self.cycle.is_multiple_of(stride as u64) {
                self.activity.frames.push(r.frame.clone());
            }
        }
        self.cycle += 1;
    }
}

impl<P: Program> Chip<P> {
    /// Build a chip from its configuration and program (action set).
    pub fn new(cfg: ChipConfig, program: P) -> Self {
        let placement = PlacementTable::new(cfg.ghost_placement, cfg.dims);
        let root_rng = SplitMix64::new(cfg.seed);
        let cells = cfg
            .dims
            .iter_ids()
            .map(|id| {
                Cell::new(
                    id,
                    cfg.dims.coord_of(id),
                    cfg.arena_capacity,
                    cfg.link_buffer,
                    root_rng.fork(id as u64),
                )
            })
            .collect();
        let plan = ShardPlan::new(cfg.dims, cfg.shards);
        let n = plan.shard_count();
        let stride = match cfg.record_activity {
            ActivityRecording::Frames { stride } => stride,
            _ => 0,
        };
        Chip {
            placement,
            mesh: MeshTable::new(cfg.dims),
            cells,
            bands: (0..n).map(|s| Band::new(cfg.dims, plan.band(s), n > 1)).collect(),
            program,
            tally: Tally {
                activity: ActivitySeries { frame_stride: stride, ..Default::default() },
                ..Default::default()
            },
            next_io: 0,
            sharded_cycles: 0,
            band_active: Vec::new(),
            cfg,
        }
    }

    // ------------------------------------------------------------------
    // Host-side (untimed) interface: graph construction and inspection.
    // ------------------------------------------------------------------

    /// Allocate an object on cell `cc` without charging simulation time.
    /// Used for host-side graph construction ("the graph is constructed by
    /// first allocating the root RPVO objects on the AM-CCA chip", §4).
    pub fn host_alloc(&mut self, cc: u16, value: P::Object) -> Result<Address, SimError> {
        if cc as u32 >= self.cfg.cell_count() {
            return Err(SimError::BadTargetCell { cc });
        }
        match self.cells[cc as usize].memory.alloc(value) {
            Ok(slot) => Ok(Address::new(cc, slot)),
            Err(_) => Err(SimError::OutOfMemory { origin_cc: cc, retries: 0 }),
        }
    }

    /// Free an object without charging simulation time, returning its value.
    /// Used by host-side restructuring between runs (e.g. collapsing the
    /// extra roots of a demoted rhizome back into the primary); the slot is
    /// recycled by later allocations. `None` if the address was not live.
    pub fn host_free(&mut self, addr: Address) -> Option<P::Object> {
        self.cells.get_mut(addr.cc as usize)?.memory.free(addr.slot)
    }

    /// Host-side read of any object in the PGAS (for verification only).
    pub fn object(&self, addr: Address) -> Option<&P::Object> {
        self.cells.get(addr.cc as usize)?.memory.get(addr.slot)
    }

    /// Host-side mutable access (used to seed initial state, e.g. the BFS
    /// root's level).
    pub fn object_mut(&mut self, addr: Address) -> Option<&mut P::Object> {
        self.cells.get_mut(addr.cc as usize)?.memory.get_mut(addr.slot)
    }

    /// Visit every live object on the chip.
    pub fn for_each_object(&self, mut f: impl FnMut(Address, &P::Object)) {
        for cell in &self.cells {
            for (slot, obj) in cell.memory.iter() {
                f(Address::new(cell.id, slot), obj);
            }
        }
    }

    /// Visit every live object on the chip mutably (host-side, untimed; used
    /// to patch stored addresses when host restructuring frees objects).
    pub fn for_each_object_mut(&mut self, mut f: impl FnMut(Address, &mut P::Object)) {
        for cell in &mut self.cells {
            for (slot, obj) in cell.memory.iter_mut() {
                f(Address::new(cell.id, slot), obj);
            }
        }
    }

    /// The band that owns column `x`.
    fn band_of(&mut self, x: u16) -> &mut Band {
        self.bands.iter_mut().find(|b| b.owns(x)).expect("the bands cover every column")
    }

    /// Queue a stream of operons for injection through the IO channels,
    /// distributed round-robin over the IO cells ("the IO channels ...
    /// distribute them among their respective IO Cells").
    pub fn io_load(&mut self, ops: impl IntoIterator<Item = Operon>) {
        let n = 2 * self.cfg.dims.x as usize;
        for op in ops {
            self.io_load_to(self.next_io, [op]);
            self.next_io = (self.next_io + 1) % n;
        }
    }

    /// Queue operons on one specific IO cell (ordered streams, tests): index
    /// `x` is the north channel's cell of column `x`, `dims.x + x` the south
    /// channel's.
    pub fn io_load_to(&mut self, io_index: usize, ops: impl IntoIterator<Item = Operon>) {
        let row = self.cfg.dims.x as usize;
        let (channel, x) = (io_index / row, io_index % row);
        let band = self.band_of(x as u16);
        let queue = &mut band.io[channel * band.width + x - band.x0].queue;
        let before = queue.len();
        queue.extend(ops);
        self.tally.io_pending += (queue.len() - before) as u64;
    }

    /// Queue `op` on its target cell's task queue and mark the cell
    /// work-live in the band that owns it.
    fn push_task(&mut self, op: Operon) {
        let cc = op.target.cc;
        self.cells[cc as usize].task_queue.push_back(op);
        let x = self.mesh.coord(cc).x;
        self.band_of(x).work_live.insert(cc as usize);
        self.tally.queued_tasks += 1;
    }

    /// Directly enqueue an operon into its target cell's task queue,
    /// bypassing the network. Host/debug facility for unit tests; not used
    /// by the paper experiments.
    pub fn host_inject(&mut self, op: Operon) {
        let cc = op.target.cc as usize;
        assert!(cc < self.cells.len(), "host_inject: bad target cell");
        if op.action != ACT_TOKEN && self.tally.safra.is_some() {
            self.cells[cc].td.on_send();
        }
        self.push_task(op);
    }

    // ------------------------------------------------------------------
    // Simulation loop.
    // ------------------------------------------------------------------

    /// Advance the chip by one cycle on the calling thread: the band phases,
    /// each for every band in band order, with no barrier.
    pub fn step(&mut self) {
        let Chip { cfg, placement, mesh, cells, bands, program, tally, .. } = self;
        let env = Env { cfg, placement, mesh, safra_on: tally.safra.is_some() };
        let mut rep = CycleReport::new(frame_words(cfg));
        let cells = &mut cells[..];
        for s in 0..bands.len() {
            let (before, rest) = bands.split_at_mut(s);
            let (band, after) = rest.split_first_mut().expect("s indexes a band");
            let west = before.last().map_or(&[][..], |b| &b.credit.east);
            let east = after.first().map_or(&[][..], |b| &b.credit.west);
            band.route(cells, &env, tally.cycle, west, east, &mut rep);
        }
        for t in 1..bands.len() {
            let (before, rest) = bands.split_at_mut(t);
            let (w, e) = (before.last_mut().expect("t >= 1"), &mut rest[0]);
            e.drain(cells, mesh, &mut w.out[1]);
            w.drain(cells, mesh, &mut e.out[0]);
        }
        for band in bands.iter_mut() {
            band.compute(cells, &env, program, &mut rep);
        }
        if tally.io_pending > 0 {
            for band in bands.iter_mut() {
                band.io(cells, &env, &mut rep);
            }
        }
        for band in bands.iter_mut() {
            band.publish(cells);
            debug_assert!(band.covers(cells), "a producer forgot to mark its target cell live");
        }
        tally.fold(&mut rep, cfg.record_activity);
    }

    /// True when no work remains anywhere: routers, task queues, running
    /// actions, and IO streams are all empty. This is the terminator's
    /// quiescence condition.
    pub fn is_quiescent(&self) -> bool {
        self.tally.is_quiescent()
    }

    /// Whether runs use the threaded driver (more than one non-empty
    /// column band after clamping to the mesh width).
    pub fn is_sharded(&self) -> bool {
        self.bands.len() > 1
    }

    /// Run to `goal` from the current cycle. A chip with one band steps on
    /// the calling thread; a chip with more runs the threaded driver from the
    /// run's first cycle to its stop. Both drivers run the same band phases
    /// on the same bands under the same stop rule.
    fn run(&mut self, goal: RunGoal) -> Result<u64, SimError> {
        let start = self.tally.cycle;
        let result = if self.is_sharded() {
            crate::parallel::run_threaded(self, goal, start)
        } else {
            loop {
                if let Some(r) = self.tally.next(goal, start, self.cfg.max_cycles) {
                    break r;
                }
                self.step();
            }
        };
        result.map(|()| self.tally.cycle - start)
    }

    /// Run until quiescent; returns the number of cycles this run consumed.
    ///
    /// Results (cycle count, counters, object states, activity, energy) do
    /// not depend on [`ChipConfig::shards`].
    pub fn run_until_quiescent(&mut self) -> Result<u64, SimError> {
        self.run(RunGoal::Quiescence)
    }

    // ------------------------------------------------------------------
    // Distributed termination detection (Safra token).
    // ------------------------------------------------------------------

    /// Enable Safra-token termination detection. Must be called while no
    /// application messages are in flight (e.g. right after construction or
    /// between quiescent segments) so the message accounting starts closed.
    /// IO streams may already be loaded — they are counted on injection.
    pub fn enable_safra_termination(&mut self) {
        let t = &self.tally;
        assert!(
            t.in_network == 0 && t.queued_tasks == 0 && t.busy == 0,
            "Safra accounting must start with no in-flight activity"
        );
        assert!(self.cfg.cell_count() >= 2, "token ring needs at least two cells");
        if self.tally.safra.is_none() {
            self.tally.safra = Some(SafraState::new());
            for cell in &mut self.cells {
                cell.td = CellTd::start();
            }
        }
    }

    /// Whether the distributed termination detector is enabled.
    pub fn safra_enabled(&self) -> bool {
        self.tally.safra.is_some()
    }

    /// Start (or restart) a detection probe: injects the token at the
    /// initiator. No-op if a token is already circulating.
    pub fn begin_safra_probe(&mut self) {
        let Some(s) = self.tally.safra.as_mut() else { panic!("enable_safra_termination first") };
        if self.tally.token_alive {
            return;
        }
        s.terminated = false;
        s.detected_at = None;
        // The initiator's state must be conservative at probe start.
        self.cells[0].td.black = true;
        self.tally.token_alive = true;
        // Seed the probe: a black token so round 1 can never detect.
        self.push_task(token_operon(0, 0, crate::safra::Colour::Black));
    }

    /// Detector state (counters, rounds, overhead), if enabled.
    pub fn safra(&self) -> Option<&SafraState> {
        self.tally.safra.as_ref()
    }

    /// Global Safra message balance: Σ `mc` over all cells. Zero exactly when
    /// the closed-system accounting balances (no operon in flight).
    pub fn safra_balance(&self) -> i64 {
        self.cells.iter().map(|c| c.td.mc).sum()
    }

    /// Run until the *distributed* detector declares termination. With the
    /// token circulating, [`Self::is_quiescent`] never holds, so this is the
    /// only correct way to run a Safra-enabled chip. It takes the same driver
    /// as [`Self::run_until_quiescent`].
    pub fn run_until_terminated(&mut self) -> Result<u64, SimError> {
        assert!(self.tally.safra.is_some(), "enable_safra_termination first");
        assert!(self.tally.token_alive, "no probe running; call begin_safra_probe");
        self.run(RunGoal::SafraTermination)
    }

    // ------------------------------------------------------------------
    // Accessors.
    // ------------------------------------------------------------------

    /// The chip configuration.
    pub fn cfg(&self) -> &ChipConfig {
        &self.cfg
    }

    /// Current simulation cycle.
    pub fn cycle(&self) -> u64 {
        self.tally.cycle
    }

    /// Cumulative event counters.
    pub fn counters(&self) -> &Counters {
        &self.tally.counters
    }

    /// Recorded per-cycle activity (if recording is enabled).
    pub fn activity(&self) -> &ActivitySeries {
        &self.tally.activity
    }

    /// Take the recorded activity series, leaving an empty one.
    pub fn take_activity(&mut self) -> ActivitySeries {
        let stride = self.tally.activity.frame_stride;
        std::mem::replace(
            &mut self.tally.activity,
            ActivitySeries { frame_stride: stride, ..Default::default() },
        )
    }

    /// Switch activity recording at run time (e.g. only for the increment a
    /// figure needs).
    pub fn set_activity_recording(&mut self, mode: ActivityRecording) {
        self.cfg.record_activity = mode;
        if let ActivityRecording::Frames { stride } = mode {
            self.tally.activity.frame_stride = stride;
        }
    }

    /// The program (action set) running on the chip.
    pub fn program(&self) -> &P {
        &self.program
    }

    /// Mutable access to the program (e.g. to read app counters).
    pub fn program_mut(&mut self) -> &mut P {
        &mut self.program
    }

    /// Total energy consumed so far, in microjoules.
    pub fn energy_uj(&self) -> f64 {
        self.cfg.energy.total_uj(self.counters(), self.cfg.cell_count() as u64, self.cycle())
    }

    /// Snapshot `(cycle, counters)` for computing run-segment deltas.
    pub fn snapshot(&self) -> (u64, Counters) {
        (self.cycle(), *self.counters())
    }

    /// Per-cell load counters (deliveries, queue peaks), indexed by cell id.
    pub fn cell_loads(&self) -> Vec<CellLoad> {
        self.cells.iter().map(|c| c.load).collect()
    }

    /// Reset per-cell load counters (e.g. between experiment segments).
    pub fn reset_cell_loads(&mut self) {
        for cell in &mut self.cells {
            cell.load = CellLoad::default();
        }
    }

    /// Cycles the threaded driver ran so far: every cycle a run of a
    /// multi-band chip stepped, and none of [`Self::step`]'s. Diagnostics —
    /// the driver never affects simulation results, only wall-clock time.
    pub fn sharded_cycles(&self) -> u64 {
        self.sharded_cycles
    }

    /// Per-cell helper invocations (`decide_cell_moves`, `compute_cell`,
    /// `io_cell_step`) made so far, on either driver: the host work of the
    /// cycle loop as a count that repeats exactly, whatever the shard count.
    /// Divided by the cycles run it is the mean number of live cells per
    /// cycle; a dense scan would cost `3 × cells` per cycle regardless.
    /// Diagnostics only.
    pub fn cell_visits(&self) -> u64 {
        self.tally.cell_visits
    }

    /// Active-cell totals per column band, summed over all threaded cycles:
    /// entry `s` counts the compute work of band `s`, which its own worker
    /// did. Empty until the threaded driver has run. Their max/mean ratio is
    /// the workload's band imbalance.
    pub fn band_active(&self) -> &[u64] {
        &self.band_active
    }

    /// Always 0: every band computes its own rows. Kept with its signature
    /// only because the frozen `benchmark/` crate still reports it as
    /// `chip.steal_rows`; it is that crate's only reader.
    pub fn steal_rows(&self) -> u64 {
        0
    }

    /// The same slice as [`Chip::band_active`]: the worker that executes a
    /// band's rows is the band's own. Kept with its signature only because
    /// the frozen `benchmark/` crate still reports it as
    /// `chip.exec_imbalance`; it is that crate's only reader.
    pub fn exec_active(&self) -> &[u64] {
        &self.band_active
    }
}

/// A minimal program used by the chip's own unit tests: objects are `u64`
/// counters; action 10 increments the target and optionally forwards a copy.
#[cfg(test)]
pub(crate) struct CounterProgram;

#[cfg(test)]
impl Program for CounterProgram {
    type Object = u64;

    fn fork(&self) -> Self {
        CounterProgram
    }

    fn execute(&mut self, ctx: &mut ExecCtx<'_, u64>, op: &Operon) {
        match op.action {
            // Increment the target object by payload[0].
            10 => {
                ctx.charge(1);
                let tgt = op.target;
                match ctx.obj_mut(tgt.slot) {
                    Some(v) => *v += op.payload[0],
                    None => ctx.fail(SimError::BadAddress { addr: tgt, action: 10 }),
                }
            }
            // Increment then forward the same increment to payload[1]'s addr.
            11 => {
                ctx.charge(1);
                let tgt = op.target;
                if let Some(v) = ctx.obj_mut(tgt.slot) {
                    *v += op.payload[0];
                }
                let fwd = Address::unpack(op.payload[1]);
                ctx.propagate(Operon::new(fwd, 10, [op.payload[0], 0]));
            }
            other => panic!("unknown action {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::tests::{neighbor, yx_route_step};
    use crate::geom::{Coord, Dims, Direction};
    use crate::router::{Router, OUT_NONE};

    fn test_chip() -> Chip<CounterProgram> {
        Chip::new(ChipConfig::small_test(), CounterProgram)
    }

    /// The arbiter `decide_cell_moves` replaced, kept as its reference model:
    /// re-route every head, serve the ports in rotated order, one grant per
    /// output.
    #[allow(clippy::too_many_arguments)]
    fn rotated_port_loop<T>(
        cell: &Cell<T>,
        src: u16,
        cycle: u64,
        dims: Dims,
        task_queue_cap: usize,
        accepts: &mut dyn FnMut(u16, usize) -> bool,
        moves: &mut Vec<Move>,
        counters: &mut Counters,
        error: &mut Option<SimError>,
    ) {
        let mut out_used = [false; 5];
        let rot = (cycle as usize).wrapping_add(src as usize);
        for k in 0..NUM_PORTS {
            let port = (k + rot) % NUM_PORTS;
            let Some(head) = cell.router.front(port) else { continue };
            let tcc = head.target.cc;
            if tcc as u32 >= dims.cell_count() {
                if error.is_none() {
                    *error = Some(SimError::BadTargetCell { cc: tcc });
                }
                continue;
            }
            if tcc == src {
                if out_used[OUT_EJECT as usize] {
                    continue;
                }
                if cell.task_queue.len() < task_queue_cap {
                    out_used[OUT_EJECT as usize] = true;
                    moves.push(Move::Deliver { cell: src, port: port as u8 });
                } else {
                    counters.deliver_stalls += 1;
                }
            } else {
                let dir = yx_route_step(cell.coord, dims.coord_of(tcc))
                    .expect("non-local target must need a hop");
                let out = dir.index();
                if out_used[out] {
                    continue;
                }
                let nb = neighbor(dims, src, dir).expect("YX minimal route never leaves the mesh");
                let in_port = dir.opposite().index();
                if accepts(nb, in_port) {
                    out_used[out] = true;
                    moves.push(Move::Hop {
                        src,
                        port: port as u8,
                        dst: nb,
                        in_port: in_port as u8,
                    });
                } else {
                    counters.net_stalls += 1;
                }
            }
        }
    }

    #[test]
    fn mask_arbiter_matches_the_rotated_port_loop() {
        // The centre of a 3 × 3 mesh has all four neighbours. Every vector of
        // six head codes × every rotation × {all credits, none, two random
        // patterns} × a random task-queue state.
        let dims = Dims::new(3, 3);
        let mesh = MeshTable::new(dims);
        let src = 4u16;
        // A target per head code: N, S, E, W neighbour, self, off the mesh.
        let target = |code: usize, port: usize| [1, 7, 5, 3, src, 100 + port as u16][code];
        let mut cell: Cell<u64> = Cell::new(src, dims.coord_of(src), 1, 1, SplitMix64::new(0));
        let mut rng = SplitMix64::new(16);
        let key = |m: &Move| match *m {
            Move::Hop { src, port, dst, in_port } => (0, src, port, dst, in_port),
            Move::Deliver { cell, port } => (1, cell, port, 0, 0),
        };
        for vector in 0..NUM_CODES.pow(NUM_PORTS as u32) {
            cell.router = Router::new(1);
            let mut digits = vector;
            for port in 0..NUM_PORTS {
                let code = digits % NUM_CODES;
                digits /= NUM_CODES;
                if code != OUT_NONE as usize {
                    cell.enqueue(
                        port,
                        Operon::new(Address::new(target(code, port), 0), 10, [0; 2]),
                        &mesh,
                    );
                }
            }
            for cycle in 0..NUM_PORTS as u64 {
                for credits in [0b1111, 0, rng.gen_range(16), rng.gen_range(16)] {
                    let cap = rng.gen_range(2) as usize; // 0: task queue full
                    let mut accepts = |nb: u16, in_port: usize| {
                        assert_eq!(neighbor(dims, src, Direction::ALL[in_port ^ 1]), Some(nb));
                        credits >> in_port & 1 == 1
                    };
                    let (mut want, mut want_n, mut want_e) =
                        (Vec::new(), Counters::default(), None);
                    rotated_port_loop(
                        &cell,
                        src,
                        cycle,
                        dims,
                        cap,
                        &mut accepts,
                        &mut want,
                        &mut want_n,
                        &mut want_e,
                    );
                    let (mut got, mut got_n, mut got_e) = (Vec::new(), Counters::default(), None);
                    decide_cell_moves(
                        &cell,
                        src,
                        cycle,
                        &mesh,
                        cap,
                        &mut accepts,
                        &mut got,
                        &mut got_n,
                        &mut got_e,
                    );
                    let sorted = |moves: Vec<Move>| {
                        let mut keys: Vec<_> = moves.iter().map(key).collect();
                        keys.sort_unstable();
                        keys
                    };
                    let ctx = format!("heads {:?} cycle {cycle}", cell.router.head_outs());
                    assert_eq!(sorted(got), sorted(want), "{ctx}");
                    assert_eq!(got_n, want_n, "{ctx}");
                    assert_eq!(got_e, want_e, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn empty_chip_is_quiescent() {
        let chip = test_chip();
        assert!(chip.is_quiescent());
    }

    #[test]
    fn single_operon_delivery_and_latency() {
        let mut chip = test_chip();
        // Object on the far corner; operon injected via IO on the near corner.
        let dims = chip.cfg().dims;
        let dst_cc = dims.id_of(Coord::new(7, 7));
        let addr = chip.host_alloc(dst_cc, 0u64).unwrap();
        chip.io_load_to(0, [Operon::new(addr, 10, [5, 0])]); // io cell 0 feeds (0,0)
        let cycles = chip.run_until_quiescent().unwrap();
        assert_eq!(*chip.object(addr).unwrap(), 5);
        // Injection (1) + 14 mesh hops + ejection + dispatch+1 instr ≈ 18;
        // allow slack but require a plausible latency, not 0.
        assert!(cycles >= 14, "cycles={cycles}");
        assert!(cycles <= 30, "cycles={cycles}");
        assert_eq!(chip.counters().io_injected, 1);
        assert_eq!(chip.counters().msgs_delivered, 1);
        // 14 mesh hops + 1 io link.
        assert_eq!(chip.counters().hops, 15);
    }

    #[test]
    fn cycle_loop_visits_only_live_cells() {
        // One operon crossing the default 32×32 mesh corner to corner: a
        // dense scan makes 3 × 1 024 per-cell calls every cycle; the live
        // sets make at most a handful, and none once the chip is idle.
        let mut chip = Chip::new(ChipConfig::default().with_shards(1), CounterProgram);
        assert_eq!(chip.run_until_quiescent().unwrap(), 0);
        assert_eq!(chip.cell_visits(), 0, "an idle run visits nothing");
        let dims = chip.cfg().dims;
        let addr = chip.host_alloc(dims.id_of(Coord::new(31, 31)), 0u64).unwrap();
        chip.io_load_to(0, [Operon::new(addr, 10, [5, 0])]); // io cell 0 feeds (0,0)
        while !chip.is_quiescent() {
            let before = chip.cell_visits();
            chip.step();
            let visits = chip.cell_visits() - before;
            assert!(visits <= 4, "cycle {}: {visits} cell visits", chip.cycle());
        }
        assert_eq!(*chip.object(addr).unwrap(), 5);
        assert_eq!(chip.counters().hops, 63, "62 mesh hops + 1 io link");
        assert!(chip.cell_visits() >= chip.cycle(), "the operon's cell is visited every cycle");
        let settled = chip.cell_visits();
        for _ in 0..8 {
            chip.step();
        }
        assert_eq!(chip.cell_visits(), settled, "idle cycles visit nothing");
        // The same operon threaded over 2 and 4 bands: the bands visit
        // exactly the cells the one band did.
        for shards in [2, 4] {
            let mut chip = Chip::new(ChipConfig::default().with_shards(shards), CounterProgram);
            let addr = chip.host_alloc(dims.id_of(Coord::new(31, 31)), 0u64).unwrap();
            chip.io_load_to(0, [Operon::new(addr, 10, [5, 0])]);
            chip.run_until_quiescent().unwrap();
            assert_eq!(*chip.object(addr).unwrap(), 5);
            assert_eq!(
                chip.sharded_cycles(),
                chip.cycle(),
                "shards={shards}: every cycle threaded"
            );
            assert_eq!(chip.cell_visits(), settled, "shards={shards}");
        }
    }

    #[test]
    fn forwarding_diffuses_work() {
        let mut chip = test_chip();
        let a = chip.host_alloc(3, 0u64).unwrap();
        let b = chip.host_alloc(60, 0u64).unwrap();
        // Action 11 at `a` increments and forwards an increment to `b`.
        chip.io_load([Operon::new(a, 11, [7, b.pack()])]);
        chip.run_until_quiescent().unwrap();
        assert_eq!(*chip.object(a).unwrap(), 7);
        assert_eq!(*chip.object(b).unwrap(), 7);
        assert_eq!(chip.counters().msgs_staged, 1, "one propagate");
        assert_eq!(chip.counters().msgs_delivered, 2);
    }

    #[test]
    fn many_operons_all_arrive() {
        let mut chip = test_chip();
        let n = 64u32;
        let addrs: Vec<Address> =
            (0..n).map(|i| chip.host_alloc((i % 64) as u16, 0u64).unwrap()).collect();
        let ops: Vec<Operon> = addrs.iter().map(|&a| Operon::new(a, 10, [1, 0])).collect();
        chip.io_load(ops);
        chip.run_until_quiescent().unwrap();
        for &a in &addrs {
            assert_eq!(*chip.object(a).unwrap(), 1);
        }
        assert_eq!(chip.counters().msgs_delivered, 64);
    }

    #[test]
    fn contention_on_one_cell_serializes() {
        let mut chip = test_chip();
        let a = chip.host_alloc(27, 0u64).unwrap();
        let k = 100u64;
        chip.io_load((0..k).map(|_| Operon::new(a, 10, [1, 0])));
        let cycles = chip.run_until_quiescent().unwrap();
        assert_eq!(*chip.object(a).unwrap(), k);
        // Each action costs dispatch(1)+1 = 2 cycles of compute at one cell.
        assert!(cycles >= 2 * k, "serialized execution: {cycles} >= {}", 2 * k);
    }

    #[test]
    fn bad_address_surfaces_as_error() {
        let mut chip = test_chip();
        let a = chip.host_alloc(5, 0u64).unwrap();
        let dead = Address::new(5, a.slot + 100);
        chip.io_load([Operon::new(dead, 10, [1, 0])]);
        let err = chip.run_until_quiescent().unwrap_err();
        assert!(matches!(err, SimError::BadAddress { .. }));
    }

    #[test]
    fn host_inject_bypasses_network() {
        let mut chip = test_chip();
        let a = chip.host_alloc(9, 0u64).unwrap();
        chip.host_inject(Operon::new(a, 10, [3, 0]));
        chip.run_until_quiescent().unwrap();
        assert_eq!(*chip.object(a).unwrap(), 3);
        assert_eq!(chip.counters().hops, 0, "no network traversal");
    }

    #[test]
    fn activity_counts_recorded() {
        let mut chip = Chip::new(
            ChipConfig { record_activity: ActivityRecording::Counts, ..ChipConfig::small_test() },
            CounterProgram,
        );
        let a = chip.host_alloc(12, 0u64).unwrap();
        chip.io_load([Operon::new(a, 10, [1, 0])]);
        chip.run_until_quiescent().unwrap();
        let act = chip.activity();
        assert_eq!(act.counts.len() as u64, chip.cycle());
        assert!(act.counts.iter().any(|&c| c > 0), "some cycle had an active cell");
        assert!(act.counts.iter().all(|&c| c <= 1), "at most one cell busy here");
    }

    #[test]
    fn frames_recorded_at_stride() {
        let mut chip = Chip::new(
            ChipConfig {
                record_activity: ActivityRecording::Frames { stride: 2 },
                ..ChipConfig::small_test()
            },
            CounterProgram,
        );
        let a = chip.host_alloc(0, 0u64).unwrap();
        chip.io_load([Operon::new(a, 10, [1, 0])]);
        chip.run_until_quiescent().unwrap();
        assert_eq!(chip.activity().frames.len() as u64, chip.cycle().div_ceil(2));
    }

    #[test]
    fn determinism_same_seed_same_cycles() {
        let run = || {
            let mut chip = test_chip();
            let addrs: Vec<Address> =
                (0..40).map(|i| chip.host_alloc(i % 64, 0u64).unwrap()).collect();
            chip.io_load(addrs.iter().map(|&a| Operon::new(a, 10, [1, 0])));
            chip.run_until_quiescent().unwrap();
            (chip.cycle(), *chip.counters())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn cell_loads_track_deliveries_and_peaks() {
        let mut chip = test_chip();
        let a = chip.host_alloc(17, 0u64).unwrap();
        let b = chip.host_alloc(18, 0u64).unwrap();
        chip.io_load((0..20).map(|_| Operon::new(a, 10, [1, 0])));
        chip.io_load([Operon::new(b, 10, [1, 0])]);
        chip.run_until_quiescent().unwrap();
        let loads = chip.cell_loads();
        assert_eq!(loads[17].delivered, 20);
        assert_eq!(loads[18].delivered, 1);
        assert!(loads[17].peak_queue >= 2, "hammered cell queued up");
        assert_eq!(loads[20].delivered, 0);
        let delivered: Vec<u64> = loads.iter().map(|l| l.delivered).collect();
        assert!(crate::stats::gini(&delivered) > 0.9, "two hot cells out of 64");
        chip.reset_cell_loads();
        assert_eq!(chip.cell_loads()[17].delivered, 0);
    }

    #[test]
    fn safra_detects_termination_of_a_diffusion() {
        // Same workload twice: global quiescence vs Safra token. Results
        // must agree; the distributed detector must lag, not lead.
        let workload = |chip: &mut Chip<CounterProgram>| -> Vec<Address> {
            let addrs: Vec<Address> =
                (0..48).map(|i| chip.host_alloc(i % 64, 0u64).unwrap()).collect();
            // Forwarding chains: action 11 increments and forwards to the
            // next address, creating multi-hop diffusions.
            let ops: Vec<Operon> =
                addrs.windows(2).map(|w| Operon::new(w[0], 11, [1, w[1].pack()])).collect();
            chip.io_load(ops);
            addrs
        };
        // Quiescence baseline.
        let mut base = test_chip();
        let addrs_b = workload(&mut base);
        base.run_until_quiescent().unwrap();
        let quiesce_cycles = base.cycle();

        // Safra run.
        let mut chip = test_chip();
        let addrs = workload(&mut chip);
        chip.enable_safra_termination();
        chip.begin_safra_probe();
        chip.run_until_terminated().unwrap();
        let s = chip.safra().unwrap();
        assert!(s.terminated);
        assert!(s.token_hops > 0, "the token paid real hops");
        // Every effect of the diffusion is visible at detection time.
        for (a, b) in addrs.iter().zip(&addrs_b) {
            assert_eq!(chip.object(*a), base.object(*b));
        }
        assert!(
            chip.cycle() >= quiesce_cycles,
            "distributed detection cannot precede actual termination: {} < {}",
            chip.cycle(),
            quiesce_cycles
        );
    }

    #[test]
    fn safra_never_detects_early() {
        // A long serial chain: if the detector fired early, the tail of the
        // chain would still be un-incremented at detection.
        let mut chip = test_chip();
        let addrs: Vec<Address> = (0..64).map(|i| chip.host_alloc(i, 0u64).unwrap()).collect();
        let ops: Vec<Operon> =
            addrs.windows(2).map(|w| Operon::new(w[0], 11, [1, w[1].pack()])).collect();
        chip.enable_safra_termination();
        chip.io_load(ops);
        chip.begin_safra_probe();
        chip.run_until_terminated().unwrap();
        for a in &addrs[1..63] {
            assert_eq!(*chip.object(*a).unwrap(), 2, "chain fully settled at {a}");
        }
    }

    #[test]
    fn safra_probe_can_rerun_across_segments() {
        let mut chip = test_chip();
        let a = chip.host_alloc(30, 0u64).unwrap();
        chip.enable_safra_termination();
        for seg in 1..=3u64 {
            chip.io_load([Operon::new(a, 10, [1, 0])]);
            chip.begin_safra_probe();
            chip.run_until_terminated().unwrap();
            assert_eq!(*chip.object(a).unwrap(), seg);
        }
        assert!(chip.safra().unwrap().rounds >= 3, "each segment ran probe rounds");
    }

    #[test]
    fn safra_on_empty_chip_detects_quickly() {
        let mut chip = test_chip();
        chip.enable_safra_termination();
        chip.begin_safra_probe();
        let cycles = chip.run_until_terminated().unwrap();
        // Black seed round + one clean white round over a 64-cell ring,
        // with per-cell polling: well under 2K cycles.
        assert!(cycles < 2000, "idle detection took {cycles} cycles");
        assert_eq!(chip.safra().unwrap().token_requeues, 0, "no work to poll behind");
    }

    #[test]
    fn cycle_limit_enforced() {
        let mut cfg = ChipConfig::small_test();
        cfg.max_cycles = 3;
        let mut chip = Chip::new(cfg, CounterProgram);
        let a = chip.host_alloc(63, 0u64).unwrap();
        chip.io_load([Operon::new(a, 10, [1, 0])]);
        let err = chip.run_until_quiescent().unwrap_err();
        assert!(matches!(err, SimError::CycleLimitExceeded { limit: 3 }));
    }

    /// The dense scan the band loop replaced, kept as its reference model: no
    /// live sets and no bands — snapshot every router, then run the shared
    /// per-cell helpers over every cell in id order and over every IO cell.
    fn dense_step(chip: &mut Chip<CounterProgram>) {
        let Chip { cfg, placement, mesh, cells, bands, program, tally, .. } = chip;
        for cell in cells.iter_mut() {
            cell.router.begin_cycle();
        }
        let mut moves = Vec::new();
        for (src, cell) in cells.iter().enumerate() {
            let accepts = |nb: u16, in_port| cells[nb as usize].router.accepts(in_port);
            let (cap, counters, error) =
                (cfg.task_queue_cap, &mut tally.counters, &mut tally.error);
            decide_cell_moves(
                cell,
                src as u16,
                tally.cycle,
                mesh,
                cap,
                accepts,
                &mut moves,
                counters,
                error,
            );
        }
        for mv in moves {
            match mv {
                Move::Hop { src, port, dst, in_port } => {
                    let op = cells[src as usize].router.pop(port as usize);
                    cells[dst as usize].enqueue(in_port as usize, op, mesh);
                    tally.counters.hops += 1;
                }
                Move::Deliver { cell, port } => {
                    let c = &mut cells[cell as usize];
                    let op = c.router.pop(port as usize);
                    c.task_queue.push_back(op);
                    c.load.delivered += 1;
                    c.load.peak_queue = c.load.peak_queue.max(c.task_queue.len() as u32);
                    tally.in_network -= 1;
                    tally.queued_tasks += 1;
                    tally.counters.msgs_delivered += 1;
                }
            }
        }
        let mut active = 0u16;
        for (i, cell) in cells.iter_mut().enumerate() {
            let mut fx = ComputeFx::default();
            let (counters, error) = (&mut tally.counters, &mut tally.error);
            let work = compute_cell(
                cell, i, false, program, counters, cfg, placement, mesh, error, &mut fx,
            );
            active += work as u16;
            tally.queued_tasks = (tally.queued_tasks as i64 + fx.d_queued) as u64;
            tally.busy = (tally.busy as i64 + fx.d_busy) as u32;
            tally.in_network = (tally.in_network as i64 + fx.d_in_network) as u64;
        }
        for io_cell in bands.iter_mut().flat_map(|b| b.io.iter_mut()) {
            let border = &mut cells[io_cell.cc as usize];
            if io_cell_step(io_cell, border, mesh, false, &mut tally.counters) {
                tally.io_pending -= 1;
                tally.in_network += 1;
            }
        }
        tally.activity.counts.push(active);
        tally.cycle += 1;
    }

    /// How [`band_loop_matches_the_dense_scan`] drives a chip to quiescence.
    #[derive(Debug, Clone, Copy)]
    enum Drive {
        /// The dense reference, one cycle at a time.
        Dense,
        /// [`Chip::step`], every band on the calling thread.
        Step,
        /// [`Chip::run_until_quiescent`].
        Run,
    }

    #[test]
    fn band_loop_matches_the_dense_scan() {
        // Random increment / forward streams on the 8 × 8 chip with 1–2 flit
        // link buffers and 2–4 task slots, where a stale credit snapshot or a
        // missed mark would move a stall, a cycle or a load: one band, and
        // three bands run by the threaded driver or stepped by `Chip::step`
        // on the calling thread.
        let mut rng = SplitMix64::new(26);
        for case in 0..24usize {
            let link_buffer = 1 + case % 2;
            let task_queue_cap = 2 + rng.gen_range(3) as usize;
            let ops: Vec<(usize, u16, usize)> = (0..1 + rng.gen_range(64))
                .map(|_| {
                    let (a, b) = (rng.gen_range(64) as usize, rng.gen_range(64) as usize);
                    (a, 10 + rng.gen_range(2) as u16, b)
                })
                .collect();
            let run = |shards: usize, drive: Drive| {
                let cfg = ChipConfig {
                    link_buffer,
                    task_queue_cap,
                    record_activity: ActivityRecording::Counts,
                    ..ChipConfig::small_test()
                };
                let mut chip = Chip::new(cfg.with_shards(shards), CounterProgram);
                let addrs: Vec<Address> =
                    (0..64).map(|cc| chip.host_alloc(cc, 0u64).unwrap()).collect();
                chip.io_load(ops.iter().map(|&(a, action, b)| {
                    Operon::new(addrs[a], action, [1 + a as u64, addrs[b].pack()])
                }));
                if let Drive::Run = drive {
                    chip.run_until_quiescent().unwrap();
                }
                while !chip.is_quiescent() {
                    match drive {
                        Drive::Dense => dense_step(&mut chip),
                        _ => chip.step(),
                    }
                    assert_eq!(chip.tally.error, None);
                }
                let mut objects = Vec::new();
                chip.for_each_object(|a, &v| objects.push((a, v)));
                let activity = chip.take_activity().counts;
                (chip.cycle(), *chip.counters(), objects, chip.cell_loads(), activity)
            };
            let reference = run(1, Drive::Dense);
            assert!(reference.0 > 0);
            for (shards, drive) in [(1, Drive::Run), (3, Drive::Run), (3, Drive::Step)] {
                let got = run(shards, drive);
                assert_eq!(got, reference, "case {case}: shards={shards} {drive:?}");
            }
        }
    }

    #[test]
    fn io_load_deals_round_robin_in_stream_order() {
        // The 8 × 8 chip has 16 IO cells, the north channel's first. At
        // three bands each band holds its columns of both channels.
        for shards in [1, 3] {
            let mut chip = Chip::new(ChipConfig::small_test().with_shards(shards), CounterProgram);
            chip.io_load((0..33).map(|n| Operon::new(Address::new(0, n), 10, [0; 2])));
            assert_eq!(chip.tally.io_pending, 33);
            let mut got: Vec<(u16, Vec<u32>)> = (chip.bands.iter().flat_map(|b| &b.io))
                .map(|c| (c.cc, c.queue.iter().map(|o| o.target.slot).collect()))
                .collect();
            got.sort();
            let want: Vec<(u16, Vec<u32>)> = (0..16u32)
                .map(|k| (if k < 8 { k } else { 48 + k } as u16, (k..33).step_by(16).collect()))
                .collect();
            assert_eq!(got, want, "shards={shards}");
        }
    }
}
