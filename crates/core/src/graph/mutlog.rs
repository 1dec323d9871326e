//! The shared host-side mutation log: the one record of the live edge set,
//! and one implementation of the batch coalescing semantics.
//!
//! [`MutationLog`] holds the live directed edge multiset — one record per
//! directed pair: its copies oldest first, each at its current weight under
//! the **copy tag** the fabric stores it by, plus the pair's wrapping tag
//! counter — in a single map keyed by destination, then source, so the
//! surviving in-neighbours of a vertex ([`MutationLog::sources_of`], the
//! host's half of the repair frontier) are one table's keys rather than a
//! second index kept in step — and accepts a stream of [`GraphMutation`]s.
//! The copy a delete or re-weight matches at push time *is* the copy the
//! fabric is told to retract or patch; nothing re-resolves it later. The log coalesces the
//! mutations of the **current epoch** exactly the way
//! `StreamingGraph::stream_increment` merges a batch before anything reaches
//! the fabric:
//!
//! * a delete that matches an insert of the same epoch **annihilates** it —
//!   the pair never leaves the host;
//! * a re-weight of a same-epoch insert **rewrites the insert in place**
//!   (nothing was ever announced under the old weight, so no repair);
//! * repeat re-weights of one copy **fold into a single patch** carrying the
//!   final weight;
//! * a delete of a re-weighted settled copy **drops the moot patch** and
//!   emits the retraction under the copy's epoch-start weight (the weight
//!   the fabric still stores).
//!
//! A record is 8 bytes, a 12-byte slot of its destination's table with its
//! source key. It keeps a pair's lone copy inline — tag, label, epoch state
//! and one word: a settled copy's weight, or a pending copy's index in the
//! epoch, whose entry carries the copy's weights (a fresh insert's weight; a
//! patch's new weight, with the epoch-start weight beside it). It spills to
//! a queue in one shared spill table only while the pair holds two or more
//! live copies (a multigraph pair), naming the queue's slot in that word. A
//! delete that leaves one copy collapses it back inline and frees the slot
//! for the next spill. So a simple graph's log holds no heap block per pair,
//! only the per-destination tables.
//!
//! A destination's table is an array of `(source, record)` slots sorted by
//! source: found by binary search, grown a few slots at a time, and listed
//! in order with no sort. Past [`HASHED_ABOVE`] sources it becomes a hash
//! table, so an insert at a hub costs O(1), not O(in-degree), whatever ids a
//! client sends; once deletes leave it with [`SORTED_AT`] it is an array
//! again. Both hash maps — the hubs' tables and the map of destinations —
//! hash with std's `RandomState`, so no choice of ids collides them.
//! [`MutationLog::live_labeled_edges`] lists copies by destination, then
//! source, then age — an order the keys alone decide, with no stored
//! arrival number.
//!
//! [`MutationLog::drain`] closes the epoch in one pass over its surviving
//! mutations: it hands each surviving insert its tag (in arrival order, so
//! annihilated inserts consume none), settles this epoch's fresh and patched
//! copies, and drops the pair records the epoch's deletes emptied. A record
//! emptied mid-epoch keeps its counter until that pass: a copy re-added in
//! the same epoch must not reuse a tag whose retraction travels in the same
//! wave, or a miss-fanned broadcast could match both. The pass returns the
//! canonical coalesced batch — surviving mutations in arrival order, each
//! with the [`CopyAddr`] the fabric knows its copy by. The log keeps no
//! repair bookkeeping: whether an increment repairs, and from where, is a
//! function of that batch, decided by `graph/increment.rs`. Pushing the
//! same mutations onto equal logs drains equal batches, which is what makes
//! the log shareable: `StreamingGraph` stages every increment in its own
//! log, where the `amcca-serve` ingest loop parks client submissions too,
//! rather than in a mirror.
//!
//! Validation is part of the contract: deleting or re-weighting an identity
//! with no live copy is a recoverable [`MutationError`]
//! ([`MutationLog::try_push`], or [`MutationLog::try_push_all`] for a whole
//! submission, all-or-nothing — the one path `StreamingGraph::stage`, and so
//! every increment, validates through). A whole submission is checked before
//! any of it is pushed, so a refused one leaves no trace in the log.
//! Every operation costs in proportion to the mutations it handles, never
//! to the resident multiset ([`MutationLog::pair_visits`]).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;

use super::{GraphMutation, StreamEdge};

/// Why a mutation cannot be applied to the live edge multiset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MutationError {
    /// A `DelEdge` named an identity with no live copy at that weight.
    NoLiveCopyToDelete {
        /// Source vertex of the rejected delete.
        u: u32,
        /// Destination vertex of the rejected delete.
        v: u32,
        /// Weight the delete named.
        w: u32,
    },
    /// An `UpdateWeight` named a pair with no live copy.
    NoLiveCopyToUpdate {
        /// Source vertex of the rejected update.
        u: u32,
        /// Destination vertex of the rejected update.
        v: u32,
        /// New weight the update carried.
        w: u32,
    },
    /// An endpoint names no vertex of the graph
    /// (`StreamingGraph::stage` checks it; the log itself knows no vertex
    /// count).
    VertexOutOfRange {
        /// The endpoint the mutation named.
        vid: u32,
        /// Number of vertices in the graph.
        n: u32,
    },
}

impl fmt::Display for MutationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MutationError::NoLiveCopyToDelete { u, v, w } => {
                write!(f, "DelEdge({u} -> {v}, w {w}): no live copy to delete")
            }
            MutationError::NoLiveCopyToUpdate { u, v, w } => {
                write!(f, "UpdateWeight({u} -> {v}, w {w}): no live copy to update")
            }
            MutationError::VertexOutOfRange { vid, n } => {
                write!(f, "vertex {vid} out of range (graph has {n} vertices)")
            }
        }
    }
}

impl std::error::Error for MutationError {}

/// Where a copy stands relative to the current epoch — and, as a record's
/// state, whether the record holds no copy, its lone copy, or a spill slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum State {
    /// No live copy: a record emptied this epoch, kept for its counter.
    #[default]
    Empty,
    /// Streamed in an earlier epoch: the fabric stores it, and `val` is its
    /// weight.
    Settled,
    /// Inserted this epoch; `val` indexes its pending insert, which carries
    /// its weight.
    Fresh,
    /// Settled copy re-weighted this epoch; `val` indexes the pending patch,
    /// which carries the current weight and, beside it, the weight the
    /// fabric stores.
    Patched,
    /// Two or more live copies; `val` is their queue's [`Spills`] slot.
    Spilled,
}

/// One live copy of a directed pair: 8 bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LogCopy {
    /// The weight while `Settled`; the pending mutation's index in the
    /// epoch while `Fresh` or `Patched` ([`current_w`], [`fabric_w`]).
    val: u32,
    /// The tag the fabric stores the copy by, unique among the pair's live
    /// copies. Meaningless while the copy is `Fresh`: [`MutationLog::drain`]
    /// hands it out.
    tag: u8,
    /// Edge label carried by the copy's insert (0 = unlabelled). Labels are
    /// immutable for a copy's lifetime and are not part of the delete/update
    /// addressing identity — they only drive standing-query automata.
    label: u8,
    /// `Settled`, `Fresh` or `Patched`.
    state: State,
}

/// Everything the log holds for one directed pair: 8 bytes, and no heap
/// block unless the pair holds two or more live copies at once. The lone
/// copy's fields sit inline; a spilled record keeps only `next` and its
/// slot in `val`, every other field 0. Each record is in that normal form,
/// so equal contents compare equal whatever path led to them, spill slots
/// aside.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PairRecord {
    /// The lone copy's [`LogCopy::val`], or the spill slot.
    val: u32,
    /// Next tag to try (wrapping; the allocation skips tags still held).
    next: u8,
    /// The lone copy's [`LogCopy::tag`].
    tag: u8,
    /// The lone copy's [`LogCopy::label`].
    label: u8,
    state: State,
}

/// A pending mutation of the current epoch (`None` = annihilated insert or
/// dropped patch), beside a word: a delete's the tag of the copy it matched,
/// a patch's the weight its copy had when the epoch began (the weight the
/// fabric stores), an insert's 0.
type Pending = Option<(GraphMutation, u32)>;

/// A copy's current weight: a pending copy's mutation carries it.
fn current_w(entries: &[Pending], c: LogCopy) -> u32 {
    if c.state == State::Settled {
        return c.val;
    }
    let (m, _) = entries[c.val as usize].expect("a pending copy's mutation is pending");
    m.edge().2
}

/// The weight the fabric stores for a settled or patched copy.
fn fabric_w(entries: &[Pending], c: LogCopy) -> u32 {
    if c.state != State::Patched {
        return c.val;
    }
    let (_, w_start) = entries[c.val as usize].expect("a patched copy's patch is pending");
    w_start
}

impl PairRecord {
    /// The lone copy, as a [`LogCopy`] (meaningful while the record holds
    /// exactly one).
    fn lone(&self) -> LogCopy {
        LogCopy { val: self.val, tag: self.tag, label: self.label, state: self.state }
    }

    /// Hold `copy` inline, or no copy at all; the counter stays.
    fn set_lone(&mut self, copy: Option<LogCopy>) {
        let LogCopy { val, tag, label, state } = copy.unwrap_or_default();
        *self = PairRecord { val, next: self.next, tag, label, state };
    }

    /// The record's live copies, oldest first.
    fn copies<'a>(&self, spills: &'a Spills) -> impl Iterator<Item = LogCopy> + 'a {
        let (lone, queue) = match self.state {
            State::Empty => (None, None),
            State::Spilled => (None, Some(&spills.queues[self.val as usize])),
            _ => (Some(self.lone()), None),
        };
        lone.into_iter().chain(queue.into_iter().flatten().copied())
    }

    /// Run `f` on the record's live copies, oldest first, as one slice.
    fn with_copies<R>(&mut self, spills: &mut Spills, f: impl FnOnce(&mut [LogCopy]) -> R) -> R {
        match self.state {
            State::Empty => f(&mut []),
            State::Spilled => f(&mut spills.queues[self.val as usize]),
            _ => {
                let mut lone = [self.lone()];
                let out = f(&mut lone);
                self.set_lone(Some(lone[0]));
                out
            }
        }
    }

    /// Add `copy` as the youngest, spilling when it is the second.
    fn push(&mut self, spills: &mut Spills, copy: LogCopy) {
        match self.state {
            State::Empty => self.set_lone(Some(copy)),
            State::Spilled => spills.queues[self.val as usize].push(copy),
            _ => {
                let val = spills.spill(vec![self.lone(), copy]);
                *self = PairRecord { val, state: State::Spilled, ..self.empty() };
            }
        }
    }

    /// Remove and return the `i`-th oldest copy, collapsing a queue left
    /// with one copy back inline and freeing its slot.
    fn remove(&mut self, spills: &mut Spills, i: usize) -> LogCopy {
        if self.state != State::Spilled {
            debug_assert_eq!(i, 0, "an inline record holds one copy");
            let copy = self.lone();
            self.set_lone(None);
            return copy;
        }
        let queue = &mut spills.queues[self.val as usize];
        let copy = queue.remove(i);
        if queue.len() == 1 {
            let last = spills.release(self.val).pop();
            self.set_lone(last);
        }
        copy
    }

    /// This record's counter and nothing else.
    fn empty(&self) -> PairRecord {
        PairRecord { next: self.next, ..PairRecord::default() }
    }
}

/// The spill table: the queues of multigraph pairs, each holding its pair's
/// two or more live copies oldest first, named by the record's slot. A
/// collapse frees the slot, and the queue's heap block, for the next spill
/// to reuse, so the table is as large as the most pairs ever spilled at
/// once, not as the history of spills.
#[derive(Debug, Clone, Default, PartialEq)]
struct Spills {
    /// Queues by slot; a free slot holds an empty queue, which owns no heap
    /// block.
    queues: Vec<Vec<LogCopy>>,
    /// Free slots.
    free: Vec<u32>,
}

impl Spills {
    /// Store `queue` in a free slot (a new one if none is free) and name it.
    fn spill(&mut self, queue: Vec<LogCopy>) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.queues[slot as usize] = queue;
            return slot;
        }
        self.queues.push(queue);
        u32::try_from(self.queues.len() - 1).expect("fewer than 2^32 spilled pairs")
    }

    /// Take the queue out of `slot` and free the slot.
    fn release(&mut self, slot: u32) -> Vec<LogCopy> {
        self.free.push(slot);
        std::mem::take(&mut self.queues[slot as usize])
    }
}

/// Sources a destination's table holds sorted; one more makes it a hash
/// table (module docs).
const HASHED_ABOVE: usize = 128;

/// Sources a hashed table is left with when it sorts back into an array:
/// half the way down, so a hub whose in-degree hovers about
/// [`HASHED_ABOVE`] does not convert at every push.
const SORTED_AT: usize = HASHED_ABOVE / 2;

/// Slots a full sorted table grows by. Deletes give its spare slots back
/// once there are more than twice as many.
const GROW: usize = 4;

/// One destination's records, keyed by source: sorted below a hub's
/// in-degree, hashed above it.
#[derive(Debug, Clone, PartialEq)]
enum Table {
    /// `(source, record)` slots in source order.
    Sorted(Vec<(u32, PairRecord)>),
    /// Past [`HASHED_ABOVE`] sources, until deletes leave [`SORTED_AT`].
    Hashed(HashMap<u32, PairRecord>),
}

/// A sorted table's search key.
fn src(&(u, _): &(u32, PairRecord)) -> u32 {
    u
}

impl Table {
    fn is_empty(&self) -> bool {
        match self {
            Table::Sorted(recs) => recs.is_empty(),
            Table::Hashed(recs) => recs.is_empty(),
        }
    }

    fn get(&self, u: u32) -> Option<&PairRecord> {
        match self {
            Table::Sorted(recs) => recs.binary_search_by_key(&u, src).ok().map(|i| &recs[i].1),
            Table::Hashed(recs) => recs.get(&u),
        }
    }

    fn get_mut(&mut self, u: u32) -> Option<&mut PairRecord> {
        match self {
            Table::Sorted(recs) => recs.binary_search_by_key(&u, src).ok().map(|i| &mut recs[i].1),
            Table::Hashed(recs) => recs.get_mut(&u),
        }
    }

    /// The record of source `u` — a new empty one if the table holds none,
    /// hashing the table if that takes it past [`HASHED_ABOVE`] — and
    /// whether it is new.
    fn get_or_insert(&mut self, u: u32) -> (&mut PairRecord, bool) {
        if let Table::Sorted(recs) = self {
            if recs.len() == HASHED_ABOVE && recs.binary_search_by_key(&u, src).is_err() {
                *self = Table::Hashed(std::mem::take(recs).into_iter().collect());
            }
        }
        match self {
            Table::Sorted(recs) => {
                let i = match recs.binary_search_by_key(&u, src) {
                    Ok(i) => return (&mut recs[i].1, false),
                    Err(i) => i,
                };
                if recs.len() == recs.capacity() {
                    recs.reserve_exact(GROW);
                }
                recs.insert(i, (u, PairRecord::default()));
                (&mut recs[i].1, true)
            }
            Table::Hashed(recs) => match recs.entry(u) {
                Entry::Occupied(rec) => (rec.into_mut(), false),
                Entry::Vacant(slot) => (slot.insert(PairRecord::default()), true),
            },
        }
    }

    /// Run `f` on the record of source `u`, if the table holds one, and
    /// drop the record when `f` says so — sorting a hashed table left with
    /// [`SORTED_AT`] back into an array. `Some` of `f`'s result and whether
    /// the record went.
    fn visit<R>(
        &mut self,
        u: u32,
        f: impl FnOnce(&mut PairRecord) -> (R, bool),
    ) -> Option<(R, bool)> {
        let (out, emptied) = match self {
            Table::Sorted(recs) => {
                let i = recs.binary_search_by_key(&u, src).ok()?;
                let (out, emptied) = f(&mut recs[i].1);
                if emptied {
                    recs.remove(i);
                    if recs.capacity() - recs.len() > 2 * GROW {
                        recs.shrink_to(recs.len() + GROW);
                    }
                }
                (out, emptied)
            }
            Table::Hashed(recs) => {
                let Entry::Occupied(mut rec) = recs.entry(u) else { return None };
                let (out, emptied) = f(rec.get_mut());
                if emptied {
                    rec.remove();
                }
                (out, emptied)
            }
        };
        if let Table::Hashed(recs) = self {
            if recs.len() <= SORTED_AT {
                let mut sorted: Vec<_> = recs.drain().collect();
                sorted.sort_unstable_by_key(src);
                *self = Table::Sorted(sorted);
            }
        }
        Some((out, emptied))
    }

    /// The records, in no order to rely on.
    fn iter(&self) -> impl Iterator<Item = (u32, &PairRecord)> {
        let (sorted, hashed) = match self {
            Table::Sorted(recs) => (&recs[..], None),
            Table::Hashed(recs) => (&[][..], Some(recs)),
        };
        let sorted = sorted.iter().map(|(u, rec)| (*u, rec));
        sorted.chain(hashed.into_iter().flatten().map(|(&u, rec)| (u, rec)))
    }

    /// The records in source order: a sorted table's own slots, a hashed
    /// table's sorted into `scratch`.
    fn sorted<'a>(&'a self, scratch: &'a mut Vec<(u32, PairRecord)>) -> &'a [(u32, PairRecord)] {
        match self {
            Table::Sorted(recs) => recs,
            Table::Hashed(recs) => {
                scratch.clear();
                scratch.extend(recs.iter().map(|(&u, &rec)| (u, rec)));
                scratch.sort_unstable_by_key(src);
                scratch
            }
        }
    }
}

/// `dst → src → record`: one record per directed pair with a live copy —
/// or emptied this epoch with a counter still to keep ([`MutationLog::drain`]
/// drops it). A destination's table goes with its last record, so two logs
/// holding the same records hold the same destinations.
#[derive(Debug, Clone, Default, PartialEq)]
struct Pairs {
    by_dst: HashMap<u32, Table>,
    /// Records across all destinations ([`MutationLog::pair_records`]).
    len: usize,
}

impl Pairs {
    /// The record of the directed pair `(u, v)`, if the log holds one.
    fn get(&self, (u, v): (u32, u32)) -> Option<&PairRecord> {
        self.by_dst.get(&v)?.get(u)
    }

    fn get_mut(&mut self, (u, v): (u32, u32)) -> Option<&mut PairRecord> {
        self.by_dst.get_mut(&v)?.get_mut(u)
    }

    /// The record of `(u, v)`, a new empty one if the log holds none.
    fn get_or_insert(&mut self, (u, v): (u32, u32)) -> &mut PairRecord {
        let table = self.by_dst.entry(v).or_insert_with(|| Table::Sorted(Vec::new()));
        let (rec, new) = table.get_or_insert(u);
        self.len += usize::from(new);
        rec
    }

    /// Run `f` on the record of `(u, v)`, if the log holds one, and drop
    /// the record when `f` says so — and its destination's table once that
    /// holds no record. One pass down the two levels either way.
    fn visit<R>(
        &mut self,
        (u, v): (u32, u32),
        f: impl FnOnce(&mut PairRecord) -> (R, bool),
    ) -> Option<R> {
        let Entry::Occupied(mut table) = self.by_dst.entry(v) else { return None };
        let (out, emptied) = table.get_mut().visit(u, f)?;
        if emptied {
            self.len -= 1;
            if table.get().is_empty() {
                table.remove();
            }
        }
        Some(out)
    }
}

/// How the fabric knows the copy a canonical mutation addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyAddr {
    /// The copy's tag: handed to an insert, named by a retraction or patch.
    pub tag: u8,
    /// The weight the fabric stores for the copy as the wave departs. For a
    /// re-weight that is the weight being replaced; otherwise the mutation's
    /// own.
    pub w_fabric: u32,
}

/// The canonical coalesced batch an epoch drains to.
#[derive(Debug, Clone, Default)]
pub struct CoalescedBatch {
    /// Surviving mutations in arrival order: annihilated pairs removed,
    /// rewritten inserts and folded patches in place of their originals.
    pub muts: Vec<GraphMutation>,
    /// The fabric address of each mutation's copy, parallel to `muts`.
    pub addrs: Vec<CopyAddr>,
}

/// Host-side live-copy model plus current-epoch coalescing (module docs).
#[derive(Debug, Clone, Default)]
pub struct MutationLog {
    pairs: Pairs,
    /// The queues of the records that spilled.
    spills: Spills,
    /// Current epoch's pending mutations in arrival order.
    entries: Vec<Pending>,
    /// Live copies across all pairs.
    live: u64,
    /// Pair records looked at so far ([`MutationLog::pair_visits`]).
    pair_visits: u64,
}

/// The directed pair whose record a mutation addresses.
fn pair_of(m: GraphMutation) -> (u32, u32) {
    let (u, v, _) = m.edge();
    (u, v)
}

/// The canonical insert of `e` under `label` (label 0 is a plain `AddEdge`).
fn labeled_add(e: StreamEdge, label: u8) -> GraphMutation {
    if label == 0 {
        GraphMutation::AddEdge(e)
    } else {
        GraphMutation::AddLabeledEdge(e, label)
    }
}

impl MutationLog {
    /// An empty log: no live copies, empty epoch.
    pub fn new() -> MutationLog {
        MutationLog::default()
    }

    /// [`Self::try_push`] for a mutation the caller knows is valid.
    ///
    /// # Panics
    ///
    /// Panics, with the [`MutationError`]'s message, if a delete or update
    /// names an identity with no live copy.
    pub fn push(&mut self, m: GraphMutation) {
        if let Err(e) = self.try_push(m) {
            panic!("{e}");
        }
    }

    /// Push one mutation, returning the validation error instead of
    /// panicking (the admission path for server-submitted batches).
    pub fn try_push(&mut self, m: GraphMutation) -> Result<(), MutationError> {
        self.pair_visits += 1;
        match m {
            GraphMutation::AddEdge(e) => self.push_add(e, 0),
            // Label 0 canonicalizes to a plain `AddEdge` at push time, so a
            // canonical batch never contains a labelled insert that a replay
            // would canonicalize differently.
            GraphMutation::AddLabeledEdge(e, label) => self.push_add(e, label),
            GraphMutation::DelEdge((u, v, w)) => {
                let err = MutationError::NoLiveCopyToDelete { u, v, w };
                let entries = &self.entries;
                let matched = self.pairs.visit((u, v), |rec| {
                    let at = rec.copies(&self.spills).position(|c| current_w(entries, c) == w);
                    let Some(i) = at else { return (None, false) };
                    let copy = rec.remove(&mut self.spills, i);
                    // An emptied record whose counter stands at 0 is a new
                    // record's equal: drop it now. Any other waits for the
                    // drain.
                    (Some(copy), *rec == PairRecord::default())
                });
                let copy = matched.flatten().ok_or(err)?;
                self.live -= 1;
                if copy.state == State::Fresh {
                    // The copy is still in this epoch's wave: annihilate the
                    // pair on the host.
                    self.entries[copy.val as usize] = None;
                } else {
                    // A same-epoch patch of the copy is moot now: drop it,
                    // and retract under the weight the fabric still stores.
                    let w_fabric = fabric_w(&self.entries, copy);
                    if copy.state == State::Patched {
                        self.entries[copy.val as usize] = None;
                    }
                    let del = GraphMutation::DelEdge((u, v, w_fabric));
                    self.entries.push(Some((del, u32::from(copy.tag))));
                }
                Ok(())
            }
            GraphMutation::UpdateWeight { u, v, w } => {
                let err = MutationError::NoLiveCopyToUpdate { u, v, w };
                let rec = self.pairs.get_mut((u, v)).filter(|r| r.state != State::Empty);
                let at = u32::try_from(self.entries.len()).expect("fewer than 2^32 pending");
                // Only a pair's oldest copy is ever re-weighted.
                let old = rec.ok_or(err)?.with_copies(&mut self.spills, |copies| {
                    let copy = &mut copies[0];
                    let old = *copy;
                    if copy.state == State::Settled {
                        (copy.state, copy.val) = (State::Patched, at);
                    }
                    old
                });
                let patch = GraphMutation::UpdateWeight { u, v, w };
                match old.state {
                    // The copy is still in this epoch's wave: rewrite the
                    // pending insert in place (nothing was ever announced
                    // under the old weight, so no repair is needed). The
                    // rewrite keeps the insert's label.
                    State::Fresh => {
                        self.entries[old.val as usize] =
                            Some((labeled_add((u, v, w), old.label), 0));
                    }
                    // Coalesce repeat updates of one copy: one patch with the
                    // final weight (intermediates were never announced),
                    // beside the same epoch-start weight.
                    State::Patched => {
                        let pending = self.entries[old.val as usize].as_mut();
                        pending.expect("a patched copy's patch is pending").0 = patch;
                    }
                    _ => self.entries.push(Some((patch, old.val))),
                }
                Ok(())
            }
        }
    }

    /// Insert one copy of `(u, v, w)` carrying `label` (the shared body of
    /// the `AddEdge` / `AddLabeledEdge` push arms).
    fn push_add(&mut self, (u, v, w): StreamEdge, label: u8) -> Result<(), MutationError> {
        let val = u32::try_from(self.entries.len()).expect("fewer than 2^32 pending");
        self.entries.push(Some((labeled_add((u, v, w), label), 0)));
        let copy = LogCopy { val, tag: 0, label, state: State::Fresh };
        self.pairs.get_or_insert((u, v)).push(&mut self.spills, copy);
        self.live += 1;
        Ok(())
    }

    /// Push a whole submission, all-or-nothing: check it, then push it. On
    /// the first error the log is left exactly as it was.
    ///
    /// An insert is never refused, so the check covers only the prefix that
    /// ends at the submission's last delete or re-weight. Whether a push is
    /// refused depends only on the current weights of its pair's live
    /// copies, oldest first, so the prefix goes through [`Self::try_push`] on
    /// a scratch log seeded with just those copies of the pairs it names.
    /// Once that takes it all, nothing on the real log can be refused.
    pub fn try_push_all(&mut self, muts: &[GraphMutation]) -> Result<(), MutationError> {
        let refusable = |m: &GraphMutation| {
            matches!(m, GraphMutation::DelEdge(_) | GraphMutation::UpdateWeight { .. })
        };
        let cut = muts.iter().rposition(refusable).map_or(0, |i| i + 1);
        let mut seeded = HashSet::with_capacity(cut);
        let mut scratch = MutationLog::new();
        for &m in &muts[..cut] {
            let (u, v) = pair_of(m);
            if seeded.insert((u, v)) {
                self.pair_visits += 1;
                for c in self.pairs.get((u, v)).into_iter().flat_map(|r| r.copies(&self.spills)) {
                    scratch.push(GraphMutation::AddEdge((u, v, current_w(&self.entries, c))));
                }
            }
            scratch.try_push(m)?;
        }
        for &m in muts {
            self.try_push(m).expect("the check took the whole submission");
        }
        Ok(())
    }

    /// Close the epoch in one pass over its surviving mutations — tag each
    /// insert's copy, settle each fresh or patched copy, drop each record a
    /// delete left empty — and return the canonical coalesced batch (module
    /// docs). Replaying `muts` against any consumer that deletes the oldest
    /// live copy at the named weight and re-weights the pair's oldest
    /// reproduces this log's live multiset exactly.
    pub fn drain(&mut self) -> CoalescedBatch {
        // Taken (and handed back below, capacity kept) so the pass can
        // borrow the pair records beside it.
        let mut entries = std::mem::take(&mut self.entries);
        let mut muts = Vec::with_capacity(entries.len());
        let mut addrs = Vec::with_capacity(entries.len());
        for (entry, pending) in entries.drain(..).enumerate() {
            let Some((m, beside)) = pending else { continue };
            self.pair_visits += 1;
            let addr = match m {
                GraphMutation::DelEdge((_, _, w)) => {
                    // The wave this batch becomes carries the last retraction
                    // that could meet a reused tag: the counter can go.
                    self.pairs.visit(pair_of(m), |rec| ((), rec.state == State::Empty));
                    // Beside a delete: the tag of the copy it matched.
                    CopyAddr { tag: beside as u8, w_fabric: w }
                }
                GraphMutation::UpdateWeight { w, .. } => {
                    let rec = self.pairs.get_mut(pair_of(m)).expect("a pending patch is live");
                    rec.with_copies(&mut self.spills, |copies| {
                        // Only a pair's oldest copy is ever patched.
                        let copy = &mut copies[0];
                        assert_eq!(copy.state, State::Patched, "the oldest copy holds the patch");
                        *copy = LogCopy { val: w, state: State::Settled, ..*copy };
                        // Beside a patch: the weight the fabric stores.
                        CopyAddr { tag: copy.tag, w_fabric: beside }
                    })
                }
                GraphMutation::AddEdge((_, _, w)) | GraphMutation::AddLabeledEdge((_, _, w), _) => {
                    let rec = self.pairs.get_mut(pair_of(m)).expect("a pending insert is live");
                    let next = rec.next;
                    let tag = rec.with_copies(&mut self.spills, |copies| {
                        // The one place a tag is handed out. Step past every
                        // tag a settled or patched copy of the pair still
                        // holds; with all 256 held the counter's own value
                        // has to do.
                        let held = |t| copies.iter().any(|c| c.state != State::Fresh && c.tag == t);
                        let tag = (0..=u8::MAX)
                            .map(|i| next.wrapping_add(i))
                            .find(|&t| !held(t))
                            .unwrap_or(next);
                        let copy = copies
                            .iter_mut()
                            .find(|c| c.state == State::Fresh && c.val as usize == entry)
                            .expect("a pending insert's copy is live");
                        *copy = LogCopy { val: w, tag, state: State::Settled, ..*copy };
                        tag
                    });
                    rec.next = tag.wrapping_add(1);
                    CopyAddr { tag, w_fabric: w }
                }
            };
            muts.push(m);
            addrs.push(addr);
        }
        self.entries = entries;
        CoalescedBatch { muts, addrs }
    }
}

/// Read access: what is pending, what is live, and what looking cost.
impl MutationLog {
    /// The canonical batch the current epoch would drain to, in order.
    pub fn pending(&self) -> impl Iterator<Item = GraphMutation> + '_ {
        self.entries.iter().flatten().map(|&(m, _)| m)
    }

    /// Number of pending mutations the current epoch would drain to.
    pub fn pending_ops(&self) -> usize {
        self.pending().count()
    }

    /// Pair records looked at so far — one per push, per pair whose copies
    /// [`Self::try_push_all`]'s check reads, and per surviving mutation
    /// [`Self::drain`] tags, settles or prunes for. A diagnostic, like
    /// `Chip::cell_visits`.
    pub fn pair_visits(&self) -> u64 {
        self.pair_visits
    }

    /// Destinations whose sources the log holds in a hash table rather than
    /// a sorted array: the hubs (module docs). A diagnostic, like
    /// [`Self::pair_visits`].
    pub fn hashed_tables(&self) -> usize {
        self.pairs.by_dst.values().filter(|t| matches!(t, Table::Hashed(_))).count()
    }

    /// Live copies across all pairs (current epoch included).
    pub fn live_count(&self) -> u64 {
        self.live
    }

    /// Pair records held: one per directed pair with a live copy, plus any
    /// the current epoch emptied and [`Self::drain`] has yet to drop.
    pub fn pair_records(&self) -> usize {
        self.pairs.len
    }

    /// Sources of the live in-edges of vertex `v` (current epoch included),
    /// each once: ascending for most vertices, but in hash order for a hub
    /// whose table the log hashes (module docs) — callers must sort before
    /// the result can drive output.
    pub fn sources_of(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        let srcs = self.pairs.by_dst.get(&v).into_iter().flat_map(Table::iter);
        srcs.filter(|(_, r)| r.state != State::Empty).map(|(u, _)| u)
    }

    /// The live edge multiset at current weights, by destination, then
    /// source, then copy age (oldest first) — an order the live multiset
    /// alone decides, however it was built (current epoch's fresh copies
    /// included — callers wanting the settled state call this at an epoch
    /// boundary).
    pub fn live_edges(&self) -> Vec<StreamEdge> {
        self.live_labeled_edges().into_iter().map(|(e, _)| e).collect()
    }

    /// [`Self::live_edges`] with each copy's label: the serialization hook
    /// label-aware checkpoints are built from, and the edge set standing
    /// queries are recomputed over.
    pub fn live_labeled_edges(&self) -> Vec<(StreamEdge, u8)> {
        let mut dsts: Vec<_> = self.pairs.by_dst.iter().collect();
        dsts.sort_unstable_by_key(|&(&v, _)| v);
        let mut scratch = Vec::new();
        let mut out = Vec::with_capacity(self.live as usize);
        for (&v, table) in dsts {
            for &(u, rec) in table.sorted(&mut scratch) {
                let copies = rec.copies(&self.spills);
                out.extend(copies.map(|c| ((u, v, current_w(&self.entries, c)), c.label)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use GraphMutation::{AddEdge, DelEdge, UpdateWeight};

    impl MutationLog {
        /// Live copies of the directed pair `(u, v)`, oldest first, at
        /// current weights.
        fn live_copies(&self, u: u32, v: u32) -> Vec<u32> {
            let copies = self.pairs.get((u, v)).into_iter().flat_map(|r| r.copies(&self.spills));
            copies.map(|c| current_w(&self.entries, c)).collect()
        }

        /// Every record's counter and copies, spilled queues read out: what
        /// two logs holding the same records agree on, whatever spill slots
        /// they use.
        fn contents(&self) -> HashMap<(u32, u32), (u8, Vec<LogCopy>)> {
            let records = self.pairs.by_dst.iter().flat_map(|(&v, srcs)| {
                srcs.iter().map(move |(u, r)| ((u, v), (r.next, r.copies(&self.spills).collect())))
            });
            records.collect()
        }
    }

    fn drained(muts: &[GraphMutation]) -> CoalescedBatch {
        let mut log = MutationLog::new();
        for &m in muts {
            log.push(m);
        }
        log.drain()
    }

    #[test]
    fn same_epoch_add_delete_annihilates() {
        let b = drained(&[AddEdge((0, 1, 5)), DelEdge((0, 1, 5))]);
        assert!(b.muts.is_empty());
    }

    #[test]
    fn update_of_fresh_copy_rewrites_the_insert() {
        let b = drained(&[AddEdge((0, 1, 2)), UpdateWeight { u: 0, v: 1, w: 9 }]);
        assert_eq!(b.muts, vec![AddEdge((0, 1, 9))]);
    }

    #[test]
    fn repeat_updates_fold_into_one_patch_against_the_epoch_start() {
        let mut log = MutationLog::new();
        log.push(AddEdge((0, 1, 3)));
        let first = log.drain();
        assert_eq!(first.muts, vec![AddEdge((0, 1, 3))]);
        // Raise then lower below the start: one patch, addressed by the
        // weight the fabric still stores.
        log.push(UpdateWeight { u: 0, v: 1, w: 7 });
        log.push(UpdateWeight { u: 0, v: 1, w: 2 });
        let b = log.drain();
        assert_eq!(b.muts, vec![UpdateWeight { u: 0, v: 1, w: 2 }]);
        assert_eq!(b.addrs, vec![CopyAddr { tag: 0, w_fabric: 3 }]);
    }

    #[test]
    fn delete_of_patched_copy_drops_the_patch_and_names_the_start_weight() {
        let mut log = MutationLog::new();
        log.push(AddEdge((0, 1, 10)));
        log.push(AddEdge((0, 1, 5)));
        log.drain();
        log.push(UpdateWeight { u: 0, v: 1, w: 7 });
        log.push(DelEdge((0, 1, 7)));
        let b = log.drain();
        assert_eq!(
            b.muts,
            vec![DelEdge((0, 1, 10))],
            "the retraction names the weight the fabric still stores"
        );
        assert_eq!(log.live_edges(), vec![(0, 1, 5)], "the younger copy survives");
    }

    #[test]
    fn delete_matches_the_oldest_live_copy_at_current_weight() {
        let mut log = MutationLog::new();
        log.push(AddEdge((0, 1, 3)));
        log.drain();
        // A fresh same-weight copy arrives, then a delete at that weight:
        // the settled (older) copy is the match, so a real retraction is
        // emitted and the fresh insert survives.
        log.push(AddEdge((0, 1, 3)));
        log.push(DelEdge((0, 1, 3)));
        let b = log.drain();
        assert_eq!(b.muts, vec![AddEdge((0, 1, 3)), DelEdge((0, 1, 3))]);
        assert_eq!(log.live_count(), 1);
    }

    #[test]
    fn update_targets_the_pairs_oldest_live_copy() {
        let mut log = MutationLog::new();
        log.push(AddEdge((0, 1, 5)));
        log.push(AddEdge((0, 1, 9)));
        log.drain();
        log.push(UpdateWeight { u: 0, v: 1, w: 2 });
        let b = log.drain();
        assert_eq!(b.muts, vec![UpdateWeight { u: 0, v: 1, w: 2 }]);
        assert_eq!(log.live_copies(0, 1), vec![2, 9], "oldest copy re-weighted");
    }

    #[test]
    fn canonical_order_preserves_arrival_positions() {
        let b = drained(&[
            AddEdge((0, 1, 1)),
            AddEdge((2, 3, 1)),
            DelEdge((2, 3, 1)), // annihilates the second add
            AddEdge((4, 5, 1)),
        ]);
        assert_eq!(b.muts, vec![AddEdge((0, 1, 1)), AddEdge((4, 5, 1))]);
    }

    #[test]
    fn invalid_delete_and_update_are_recoverable_errors() {
        let mut log = MutationLog::new();
        assert_eq!(
            log.try_push(DelEdge((3, 4, 1))),
            Err(MutationError::NoLiveCopyToDelete { u: 3, v: 4, w: 1 })
        );
        log.push(AddEdge((3, 4, 1)));
        assert_eq!(
            log.try_push(DelEdge((3, 4, 9))),
            Err(MutationError::NoLiveCopyToDelete { u: 3, v: 4, w: 9 }),
            "weight must match a live copy"
        );
        assert_eq!(
            log.try_push(UpdateWeight { u: 9, v: 9, w: 1 }),
            Err(MutationError::NoLiveCopyToUpdate { u: 9, v: 9, w: 1 })
        );
        // A rejected mutation leaves the log untouched.
        assert_eq!(log.pending_ops(), 1);
        assert_eq!(log.live_count(), 1);
    }

    #[test]
    fn error_messages_match_the_streaming_pipeline() {
        assert_eq!(
            MutationError::NoLiveCopyToDelete { u: 1, v: 2, w: 3 }.to_string(),
            "DelEdge(1 -> 2, w 3): no live copy to delete"
        );
        assert_eq!(
            MutationError::NoLiveCopyToUpdate { u: 1, v: 2, w: 3 }.to_string(),
            "UpdateWeight(1 -> 2, w 3): no live copy to update"
        );
    }

    #[test]
    fn live_edges_run_by_destination_then_source_then_copy_age() {
        let mut log = MutationLog::new();
        for e in [(5, 6, 1), (9, 1, 4), (0, 1, 2)] {
            log.push(AddEdge(e));
        }
        log.drain();
        log.push(AddEdge((3, 4, 3)));
        log.push(AddEdge((0, 1, 7)));
        log.push(AddEdge((0, 1, 1)));
        log.push(DelEdge((5, 6, 1)));
        log.push(UpdateWeight { u: 0, v: 1, w: 8 });
        let want = vec![(0, 1, 8), (0, 1, 7), (0, 1, 1), (9, 1, 4), (3, 4, 3)];
        assert_eq!(log.live_edges(), want, "mid-epoch: the patched copy at its pending weight");
        log.drain();
        assert_eq!(log.live_edges(), want);
    }

    #[test]
    fn equal_live_multisets_list_alike_whatever_the_push_order() {
        use GraphMutation::AddLabeledEdge;
        // 300 distinct pairs, 20 sources into each of 15 destinations, so
        // two logs' hash tables iterate in different orders.
        let adds: Vec<GraphMutation> =
            (0..300u32).map(|i| AddLabeledEdge((i % 20, i / 20, i % 7), (i % 3) as u8)).collect();
        let build = |adds: &[GraphMutation]| {
            let mut log = MutationLog::new();
            for epoch in adds.chunks(70) {
                log.try_push_all(epoch).unwrap();
                log.drain();
            }
            log
        };
        let forward = build(&adds);
        let backward = build(&adds.iter().rev().copied().collect::<Vec<_>>());
        assert_eq!(forward.live_count(), 300);
        assert_eq!(forward.live_labeled_edges(), backward.live_labeled_edges());
    }

    #[test]
    fn replaying_the_canonical_batch_reproduces_the_live_multiset() {
        // Arbitrary interleaving with annihilations, folds, and drops.
        let script = [
            AddEdge((0, 1, 4)),
            AddEdge((0, 1, 4)),
            UpdateWeight { u: 0, v: 1, w: 6 },
            DelEdge((0, 1, 4)),
            AddEdge((2, 0, 1)),
            DelEdge((2, 0, 1)),
            UpdateWeight { u: 0, v: 1, w: 9 },
            AddEdge((1, 2, 8)),
        ];
        let mut log = MutationLog::new();
        for &m in &script {
            log.push(m);
        }
        let canonical = log.drain();
        let mut replay = MutationLog::new();
        for &m in &canonical.muts {
            replay.push(m);
        }
        replay.drain();
        assert_eq!(replay.live_edges(), log.live_edges());
        assert_eq!(replay.live_count(), log.live_count());
    }

    #[test]
    fn labels_survive_weight_updates_and_ignore_delete_identity() {
        use GraphMutation::AddLabeledEdge;
        let mut log = MutationLog::new();
        log.push(AddLabeledEdge((0, 1, 4), 3));
        log.push(AddEdge((0, 1, 7)));
        log.drain();
        // Weight patch rewrites the oldest copy but keeps its label.
        log.push(UpdateWeight { u: 0, v: 1, w: 9 });
        log.drain();
        assert_eq!(log.live_labeled_edges(), vec![((0, 1, 9), 3), ((0, 1, 7), 0)]);
        // Deletes target the oldest copy regardless of its label.
        log.push(DelEdge((0, 1, 9)));
        log.drain();
        assert_eq!(log.live_labeled_edges(), vec![((0, 1, 7), 0)]);
    }

    #[test]
    fn label_zero_inserts_canonicalize_to_plain_adds() {
        let mut log = MutationLog::new();
        log.push(GraphMutation::AddLabeledEdge((2, 3, 1), 0));
        let batch = log.drain();
        assert_eq!(batch.muts, vec![AddEdge((2, 3, 1))], "label 0 is the unlabeled default");
        assert_eq!(log.live_labeled_edges(), vec![((2, 3, 1), 0)]);
    }

    /// The reference for [`MutationLog::try_push_all`]: validate on a full
    /// clone, swap it in on success (what `IngestCore::submit` used to do).
    fn clone_and_swap(log: &mut MutationLog, muts: &[GraphMutation]) -> Result<(), MutationError> {
        let mut probe = log.clone();
        for &m in muts {
            probe.try_push(m)?;
        }
        *log = probe;
        Ok(())
    }

    /// Everything but the `pair_visits` diagnostic and the spill slots,
    /// fields and accessors.
    fn assert_same(got: &MutationLog, want: &MutationLog) {
        assert_eq!(
            got.contents(),
            want.contents(),
            "pair records (tag counters; weights, labels, tags, states, entry indices; \
             emptied-but-kept records)"
        );
        assert_eq!(got.pairs.by_dst.len(), want.pairs.by_dst.len(), "destination tables");
        assert_eq!(got.entries, want.entries);
        assert_eq!((got.pairs.len, got.live), (want.pairs.len, want.live));
        assert_eq!(got.pending_ops(), want.pending_ops());
        assert_eq!(got.live_count(), want.live_count());
        assert_eq!(got.live_labeled_edges(), want.live_labeled_edges());
    }

    /// Everything but the `pair_visits` diagnostic, down to whether each
    /// table is sorted or hashed and which slot each spilled queue sits in:
    /// what a refused submission must leave as it found it.
    fn assert_untouched(got: &MutationLog, before: &MutationLog) {
        assert_eq!(got.pairs, before.pairs, "tables, in their form, and their records");
        assert_eq!(got.spills, before.spills, "spilled queues, slots and free slots");
        assert_eq!(got.entries, before.entries, "pending entries");
        assert_eq!(got.live, before.live, "live count");
    }

    /// Run one epoch of submissions through both recipes, then drain both;
    /// the batch `got` drained.
    fn epoch_matches(
        got: &mut MutationLog,
        want: &mut MutationLog,
        submissions: &[Vec<GraphMutation>],
    ) -> CoalescedBatch {
        for sub in submissions {
            let before = got.clone();
            let accepted = got.try_push_all(sub);
            assert_eq!(accepted, clone_and_swap(want, sub), "submission {sub:?}");
            if accepted.is_err() {
                assert_untouched(got, &before);
            }
            assert_same(got, want);
        }
        let (g, w) = (got.drain(), want.drain());
        assert_eq!(g.muts, w.muts);
        assert_same(got, want);
        g
    }

    #[test]
    fn refused_submission_restores_entries_of_earlier_submissions() {
        let mut log = MutationLog::new();
        for e in [(0, 1, 5), (2, 3, 4), (2, 3, 6)] {
            log.push(AddEdge(e));
        }
        log.drain();
        let mut want = log.clone();
        let accepted = vec![
            AddEdge((4, 5, 1)),
            GraphMutation::AddLabeledEdge((6, 7, 2), 3),
            UpdateWeight { u: 0, v: 1, w: 8 },
            UpdateWeight { u: 2, v: 3, w: 9 },
        ];
        // Every valid step below rewrites a pending entry of `accepted`.
        let refused = vec![
            DelEdge((4, 5, 1)),                // annihilates the fresh insert
            UpdateWeight { u: 6, v: 7, w: 3 }, // rewrites the fresh insert's weight
            UpdateWeight { u: 0, v: 1, w: 6 }, // folds into the pending patch
            DelEdge((2, 3, 9)),                // drops the moot patch, retracts w 4
            AddEdge((8, 9, 1)),                // a pair the log has never seen
            DelEdge((9, 9, 9)),                // no such copy
        ];
        epoch_matches(&mut log, &mut want, &[accepted, refused.clone()]);
        assert_eq!(
            clone_and_swap(&mut want, &refused),
            Err(MutationError::NoLiveCopyToDelete { u: 9, v: 9, w: 9 })
        );
        assert_eq!(log.live_copies(8, 9), Vec::<u32>::new());
        // The settle step reached every copy the epoch added or patched: a
        // delete or re-weight now is a real retraction / patch.
        let next = vec![
            DelEdge((4, 5, 1)),
            UpdateWeight { u: 6, v: 7, w: 1 },
            UpdateWeight { u: 0, v: 1, w: 9 },
        ];
        log.try_push_all(&next).unwrap();
        assert_eq!(log.drain().muts, next);
    }

    #[test]
    fn a_refused_submission_changes_nothing() {
        // A hub of 129 sources, so its table hashes, with a second copy of
        // one pair, so that record spills; then deletes leave it 65 sources,
        // one above where it would sort back.
        let mut log = MutationLog::new();
        for u in 0..=HASHED_ABOVE as u32 {
            log.push(AddEdge((u, 0, 1)));
        }
        log.push(AddEdge((0, 0, 2)));
        log.drain();
        for u in SORTED_AT as u32 + 1..=HASHED_ABOVE as u32 {
            log.push(DelEdge((u, 0, 1)));
        }
        log.drain();
        // An earlier submission of this epoch left a pending insert.
        log.push(AddEdge((5, 6, 1)));
        assert_eq!((log.hashed_tables(), log.live_count()), (1, 67));
        let before = log.clone();
        let refused = [
            DelEdge((SORTED_AT as u32, 0, 1)), // the 65th source: the table would sort
            UpdateWeight { u: 0, v: 0, w: 3 }, // patches the spilled pair's oldest copy
            DelEdge((5, 6, 1)),                // annihilates the pending insert
            DelEdge((SORTED_AT as u32, 0, 1)), // that copy is gone
        ];
        assert_eq!(
            log.try_push_all(&refused),
            Err(MutationError::NoLiveCopyToDelete { u: SORTED_AT as u32, v: 0, w: 1 })
        );
        assert_eq!(log.hashed_tables(), 1, "the hub's table is still hashed");
        assert_untouched(&log, &before);
    }

    /// Tags of the canonical batch one epoch of `muts` drains to.
    fn tags(log: &mut MutationLog, muts: &[GraphMutation]) -> Vec<u8> {
        log.try_push_all(muts).unwrap();
        log.drain().addrs.iter().map(|a| a.tag).collect()
    }

    #[test]
    fn a_readd_beside_its_retraction_takes_the_next_tag_not_the_freed_one() {
        let mut log = MutationLog::new();
        assert_eq!(tags(&mut log, &[AddEdge((0, 1, 5))]), vec![0]);
        // The retraction of tag 0 travels in the same wave as the new copy.
        assert_eq!(tags(&mut log, &[DelEdge((0, 1, 5)), AddEdge((0, 1, 5))]), vec![0, 1]);
        assert_eq!(log.pair_records(), 1);
    }

    #[test]
    fn an_annihilated_insert_consumes_no_tag() {
        let mut log = MutationLog::new();
        let epoch =
            [AddEdge((0, 1, 5)), AddEdge((0, 1, 6)), DelEdge((0, 1, 5)), AddEdge((0, 1, 7))];
        assert_eq!(tags(&mut log, &epoch), vec![0, 1]);
        // A pair whose only insert annihilates leaves no record behind.
        assert_eq!(tags(&mut log, &[AddEdge((2, 3, 1)), DelEdge((2, 3, 1))]), Vec::<u8>::new());
        assert_eq!(log.pair_records(), 1);
    }

    #[test]
    fn a_pair_deleted_to_empty_restarts_at_tag_zero_in_a_later_epoch() {
        let mut log = MutationLog::new();
        assert_eq!(tags(&mut log, &[AddEdge((0, 1, 5)), AddEdge((0, 1, 6))]), vec![0, 1]);
        assert_eq!(tags(&mut log, &[DelEdge((0, 1, 6)), DelEdge((0, 1, 5))]), vec![1, 0]);
        assert_eq!(log.pair_records(), 0, "the drain dropped the emptied record");
        assert_eq!(tags(&mut log, &[AddEdge((0, 1, 5))]), vec![0]);
    }

    #[test]
    fn an_emptied_record_keeps_its_counter_until_the_drain() {
        let mut log = MutationLog::new();
        assert_eq!(tags(&mut log, &[AddEdge((0, 1, 5))]), vec![0]);
        log.push(DelEdge((0, 1, 5)));
        assert_eq!((log.pair_records(), log.live_count()), (1, 0), "emptied, kept");
        // A refused submission that would re-fill the record leaves both the
        // emptied-but-kept state and the counter.
        let want = log.clone();
        let refused = [AddEdge((0, 1, 8)), AddEdge((4, 4, 1)), DelEdge((9, 9, 9))];
        assert!(log.try_push_all(&refused).is_err());
        assert_untouched(&log, &want);
        assert_eq!(log.pairs.get((0, 1)), Some(&PairRecord { next: 1, ..PairRecord::default() }));
        assert_eq!(tags(&mut log, &[AddEdge((0, 1, 8))]), vec![0, 1], "retraction, then re-add");
    }

    /// Every table is in its form's bounds — a sorted one in source order,
    /// with at most [`HASHED_ABOVE`] records and a few spare slots, a
    /// hashed one with more than [`SORTED_AT`] — and every record in normal
    /// form — an inline one holds its lone copy's fields or none, a spilled
    /// one only its counter and a slot whose queue holds two or more copies,
    /// and a pending copy names its own pair's pending insert or patch — and
    /// every spill slot is one record's or free, never both or neither.
    fn assert_normal_form(log: &MutationLog) {
        let queues = &log.spills.queues;
        let mut owners = vec![0; queues.len()];
        for (v, srcs) in &log.pairs.by_dst {
            match srcs {
                Table::Sorted(recs) => {
                    assert!(recs.windows(2).all(|w| w[0].0 < w[1].0), "{v}'s sources in order");
                    assert!(recs.len() <= HASHED_ABOVE, "{v}: {} sorted sources", recs.len());
                    assert!(recs.capacity() - recs.len() <= 2 * GROW, "{v}: spare slots");
                }
                Table::Hashed(recs) => assert!(recs.len() > SORTED_AT, "{v}: {}", recs.len()),
            }
            for (u, r) in srcs.iter() {
                match r.state {
                    State::Empty => assert_eq!(*r, r.empty(), "pair ({u}, {v})"),
                    State::Spilled => {
                        let q = &queues[r.val as usize];
                        assert!(q.len() >= 2, "pair ({u}, {v}) spilled with {} copies", q.len());
                        assert_eq!(
                            *r,
                            PairRecord { val: r.val, state: State::Spilled, ..r.empty() }
                        );
                        owners[r.val as usize] += 1;
                    }
                    _ => {}
                }
                for c in r.copies(&log.spills) {
                    assert!(matches!(c.state, State::Settled | State::Fresh | State::Patched));
                    if c.state != State::Settled {
                        let (m, _) = log.entries[c.val as usize].expect("a pending copy's entry");
                        let patch = matches!(m, UpdateWeight { .. });
                        assert_eq!((pair_of(m), patch), ((u, *v), c.state == State::Patched));
                    }
                }
            }
        }
        for &slot in &log.spills.free {
            assert_eq!(queues[slot as usize].capacity(), 0, "free slot {slot} holds a heap block");
            owners[slot as usize] += 1;
        }
        assert!(owners.iter().all(|&n| n == 1), "owners per spill slot: {owners:?}");
    }

    #[test]
    fn a_record_fills_a_12_byte_slot() {
        assert_eq!(std::mem::size_of::<LogCopy>(), 8);
        assert_eq!(std::mem::size_of::<PairRecord>(), 8);
        assert_eq!(std::mem::size_of::<(u32, PairRecord)>(), 12);
        // A pending entry has room for a weight beside it, not only a tag.
        assert_eq!(std::mem::size_of::<Pending>(), 20);
    }

    /// One epoch of `m`; then the `(weight, tag)` of pair `(0, 1)`'s copies,
    /// oldest first, and the log's record count.
    fn step(log: &mut MutationLog, m: GraphMutation) -> (Vec<(u32, u8)>, usize) {
        tags(log, &[m]);
        assert_normal_form(log);
        let copies = log.pairs.get((0, 1)).into_iter().flat_map(|r| r.copies(&log.spills));
        (copies.map(|c| (current_w(&log.entries, c), c.tag)).collect(), log.pair_records())
    }

    #[test]
    fn a_pair_spills_past_one_copy_and_collapses_back_inline() {
        let inline = |next, w, tag| {
            Some(PairRecord { val: w, next, tag, state: State::Settled, ..PairRecord::default() })
        };
        let mut log = MutationLog::new();
        assert_eq!(step(&mut log, AddEdge((0, 1, 5))), (vec![(5, 0)], 1));
        assert_eq!(log.pairs.get((0, 1)).copied(), inline(1, 5, 0));
        assert_eq!(step(&mut log, AddEdge((0, 1, 6))), (vec![(5, 0), (6, 1)], 1));
        assert_eq!(step(&mut log, AddEdge((0, 1, 7))), (vec![(5, 0), (6, 1), (7, 2)], 1));
        assert_eq!(step(&mut log, DelEdge((0, 1, 5))), (vec![(6, 1), (7, 2)], 1));
        assert_eq!(step(&mut log, DelEdge((0, 1, 7))), (vec![(6, 1)], 1));
        // Collapsed from a queue, the record equals one built inline, and
        // the queue's slot is free.
        assert_eq!(log.pairs.get((0, 1)).copied(), inline(3, 6, 1));
        assert_eq!((log.spills.queues.len(), &log.spills.free[..]), (1, &[0][..]));
        // The next pair to spill takes the freed slot.
        tags(&mut log, &[AddEdge((2, 3, 1)), AddEdge((2, 3, 1))]);
        assert_eq!((log.spills.queues.len(), log.spills.free.len()), (1, 0));
        assert_eq!(step(&mut log, DelEdge((0, 1, 6))), (vec![], 1));
    }

    #[test]
    fn a_tag_is_never_handed_to_a_second_live_copy() {
        let mut log = MutationLog::new();
        assert_eq!(tags(&mut log, &[AddEdge((0, 1, 1))]), vec![0]);
        // 255 short-lived parallel copies walk the counter round to 0 while
        // the first copy still holds tag 0.
        for i in 0..255u32 {
            assert_eq!(tags(&mut log, &[AddEdge((0, 1, 2))]), vec![(i + 1) as u8]);
            assert_eq!(tags(&mut log, &[DelEdge((0, 1, 2))]), vec![(i + 1) as u8]);
        }
        assert_eq!(tags(&mut log, &[AddEdge((0, 1, 2))]), vec![1], "0 is held: skipped");
        assert_eq!(tags(&mut log, &[DelEdge((0, 1, 2))]), vec![1]);
        assert_eq!(log.live_copies(0, 1), vec![1]);
    }

    /// The copy a delete matched at push time is the one the batch addresses,
    /// even past a patched older copy whose final weight equals the delete's
    /// (where replaying the batch by weight would pick the older copy).
    #[test]
    fn a_delete_addresses_the_copy_it_matched_past_a_patched_one() {
        use GraphMutation::AddLabeledEdge;
        let mut log = MutationLog::new();
        let adds = [AddLabeledEdge((0, 1, 5), 1), AddLabeledEdge((0, 1, 3), 2)];
        assert_eq!(tags(&mut log, &adds), vec![0, 1]);
        let epoch = [
            UpdateWeight { u: 0, v: 1, w: 7 },
            DelEdge((0, 1, 3)), // the younger copy: the older one weighs 7
            UpdateWeight { u: 0, v: 1, w: 3 },
        ];
        log.try_push_all(&epoch).unwrap();
        let b = log.drain();
        assert_eq!(b.muts, vec![UpdateWeight { u: 0, v: 1, w: 3 }, DelEdge((0, 1, 3))]);
        assert_eq!(
            b.addrs,
            vec![CopyAddr { tag: 0, w_fabric: 5 }, CopyAddr { tag: 1, w_fabric: 3 }]
        );
        assert_eq!(log.live_labeled_edges(), vec![((0, 1, 3), 1)], "the older copy survives");
    }

    /// The retired second record of the live edge set — `graph.rs`'s edge
    /// ledger as it stood, less the reverse index (retired too:
    /// [`MutationLog::sources_of`]) — kept as
    /// the reference the log's tag addressing is checked against: it resolved
    /// every canonical mutation a second time, by weight, at apply time.
    mod ledger {
        use std::collections::VecDeque;

        use super::*;

        /// Per-pair live-copy bookkeeping of the mutation ledger.
        #[derive(Debug, Clone, Default)]
        struct LiveCopies {
            /// Next tag to hand out (wrapping; tags need only be unique among the
            /// pair's *live* copies).
            next: u8,
            /// `(current weight, tag)` of live copies, oldest first.
            live: VecDeque<(u32, u8)>,
        }

        #[derive(Debug, Clone, Default)]
        pub struct EdgeLedger {
            copies: HashMap<(u32, u32), LiveCopies>,
            /// Live copies across all pairs.
            pub live: u64,
        }

        impl EdgeLedger {
            /// Register a streamed copy of `(u, v, w)` and return its tag.
            pub fn add(&mut self, u: u32, v: u32, w: u32) -> u8 {
                let c = self.copies.entry((u, v)).or_default();
                let tag = c.next;
                c.next = c.next.wrapping_add(1);
                c.live.push_back((w, tag));
                self.live += 1;
                tag
            }

            /// Unregister the oldest live copy of `(u, v)` currently weighing `w`,
            /// returning its tag. The pair's entry (and its tag counter) survives a
            /// full drain until the increment completes: a re-added copy must NOT
            /// reuse a tag while a same-tag retraction may still be in flight in the
            /// same wave, or a miss-fanned broadcast could match both copies.
            pub fn remove(&mut self, u: u32, v: u32, w: u32) -> Option<u8> {
                let c = self.copies.get_mut(&(u, v))?;
                let i = c.live.iter().position(|&(cw, _)| cw == w)?;
                let (_, tag) = c.live.remove(i).expect("position is in range");
                self.live -= 1;
                Some(tag)
            }

            /// Re-weight the *oldest* live copy of the pair `(u, v)` to `w_new`,
            /// returning `(old weight, tag)`.
            pub fn update_weight(&mut self, u: u32, v: u32, w_new: u32) -> Option<(u32, u8)> {
                let front = self.copies.get_mut(&(u, v))?.live.front_mut()?;
                let old = front.0;
                front.0 = w_new;
                Some((old, front.1))
            }

            /// Drop the pairs `batch` fully drained (only its `DelEdge`s can have)
            /// and return how many were looked at. Safe only at increment
            /// boundaries: the chip is quiescent, so no retraction that could
            /// collide with a reused tag is in flight. Keeps ledger memory bounded
            /// by the live edge set instead of the stream's history.
            pub fn prune_drained(&mut self, batch: &[GraphMutation]) -> u64 {
                let mut visits = 0;
                for m in batch {
                    if let GraphMutation::DelEdge((u, v, _)) = *m {
                        visits += 1;
                        if let Entry::Occupied(pair) = self.copies.entry((u, v)) {
                            if pair.get().live.is_empty() {
                                pair.remove();
                            }
                        }
                    }
                }
                visits
            }

            pub fn pairs(&self) -> usize {
                self.copies.len()
            }

            /// Sources of the pairs into `v` holding a live copy, ascending.
            pub fn sources_of(&self, v: u32) -> Vec<u32> {
                let into_v =
                    self.copies.iter().filter(|(&(_, dst), c)| dst == v && !c.live.is_empty());
                let mut sources: Vec<u32> = into_v.map(|(&(u, _), _)| u).collect();
                sources.sort_unstable();
                sources
            }

            /// The live copies by destination, then source, then age.
            pub fn live_edges(&self) -> Vec<StreamEdge> {
                let mut pairs: Vec<_> = self.copies.iter().collect();
                pairs.sort_unstable_by_key(|&(&(u, v), _)| (v, u));
                let copies = pairs
                    .into_iter()
                    .flat_map(|(&(u, v), c)| c.live.iter().map(move |&(w, _)| (u, v, w)));
                copies.collect()
            }
        }
    }

    /// Vertex ids of the proptest universe below.
    const VERTICES: u32 = 3;

    /// Replay one drained batch through the retired ledger, the way `apply`
    /// used to, and hold the log's addresses, record count, live count,
    /// live edge listing and the sources of each of `vertices` to it.
    fn ledger_agrees(
        model: &mut ledger::EdgeLedger,
        log: &MutationLog,
        batch: &CoalescedBatch,
        vertices: u32,
    ) {
        assert_eq!(batch.muts.len(), batch.addrs.len());
        for (m, at) in batch.muts.iter().zip(&batch.addrs) {
            let (u, v, w) = m.edge();
            match m {
                AddEdge(_) | GraphMutation::AddLabeledEdge(..) => {
                    assert_eq!((at.tag, at.w_fabric), (model.add(u, v, w), w), "{m:?}");
                }
                DelEdge(_) => {
                    assert_eq!((Some(at.tag), at.w_fabric), (model.remove(u, v, w), w), "{m:?}");
                }
                UpdateWeight { .. } => {
                    assert_eq!(Some((at.w_fabric, at.tag)), model.update_weight(u, v, w), "{m:?}");
                }
            }
        }
        let dels = batch.muts.iter().filter(|m| matches!(m, DelEdge(_))).count() as u64;
        assert_eq!(model.prune_drained(&batch.muts), dels);
        assert_eq!(log.pair_records(), model.pairs(), "records after the settle");
        assert_eq!(log.live_count(), model.live);
        assert_eq!(log.live_edges(), model.live_edges(), "by destination, source, age");
        for v in 0..vertices {
            let mut sources: Vec<u32> = log.sources_of(v).collect();
            sources.sort_unstable();
            assert_eq!(sources, model.sources_of(v), "in-neighbours of {v}");
        }
    }

    /// Whether `m` is a delete whose pair's oldest copy is patched away from
    /// the weight it names, so its match lies behind a patched copy.
    fn reaches_past_a_patch(log: &MutationLog, m: GraphMutation) -> bool {
        let DelEdge((u, v, w)) = m else { return false };
        log.pairs.get((u, v)).and_then(|r| r.copies(&log.spills).next()).is_some_and(|front| {
            front.state == State::Patched && current_w(&log.entries, front) != w
        })
    }

    /// Sources of the hub in the proptest below, vertex 0: enough that its
    /// table hashes, few enough that adds still repeat pairs.
    const HUB_SOURCES: u32 = 4 * HASHED_ABOVE as u32;

    /// A step at the hub: `(pick, w, label, op)` ([`hub_mutation`]).
    type HubStep = (u32, u32, u8, u8);

    /// A hub submission's steps and its poison draw ([`hub_epoch`]).
    type HubSubmission = (Vec<HubStep>, u8);

    /// A hub step `(pick, w, label, op)` resolved against `log`'s live
    /// copies: an add from source `pick`, or a delete or re-weight of the
    /// oldest copy of the `pick`-th live pair (`None` when none is live).
    /// While the hub grows most steps are adds; while it shrinks, deletes.
    fn hub_mutation(
        log: &MutationLog,
        (pick, w, label, op): HubStep,
        grow: bool,
    ) -> Option<GraphMutation> {
        let (add, reweight) = if grow { (op < 6, op == 6) } else { (op == 0, op == 1) };
        if add {
            return Some(GraphMutation::AddLabeledEdge((pick % HUB_SOURCES, 0, w), label));
        }
        // Each pair's copies are listed oldest first.
        let mut oldest = log.live_edges();
        oldest.dedup_by_key(|&mut (u, v, _)| (u, v));
        let &(u, v, w_old) = oldest.get(pick as usize % oldest.len().max(1))?;
        Some(if reweight { UpdateWeight { u, v, w } } else { DelEdge((u, v, w_old)) })
    }

    /// One epoch of hub submissions, each step resolved after those before
    /// it. A submission whose poison draw is 0 ends in a delete no copy
    /// matches, so the log must refuse it whole.
    fn hub_epoch(log: &MutationLog, subs: &[HubSubmission], grow: bool) -> Vec<Vec<GraphMutation>> {
        let mut probe = log.clone();
        let resolve = |(steps, poison): &HubSubmission| {
            let before = probe.clone();
            let mut sub = Vec::new();
            for &step in steps {
                if let Some(m) = hub_mutation(&probe, step, grow) {
                    probe.try_push(m).expect("resolved against a live copy");
                    sub.push(m);
                }
            }
            if *poison == 0 {
                sub.push(DelEdge((HUB_SOURCES, 0, 1)));
                probe = before;
            }
            sub
        };
        subs.iter().map(resolve).collect()
    }

    mod oracle {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// A tiny universe (9 pairs, 3 weights) so deletes and re-weights
        /// hit live copies, parallel copies pile up, and misses stay common.
        fn arb_mutation() -> impl Strategy<Value = GraphMutation> {
            (0..VERTICES, 0..VERTICES, 1u32..4, 0u8..3, 0u8..8).prop_map(|(u, v, w, label, op)| {
                match op {
                    0 | 1 => AddEdge((u, v, w)),
                    2 => GraphMutation::AddLabeledEdge((u, v, w), label),
                    3..=5 => DelEdge((u, v, w)),
                    _ => UpdateWeight { u, v, w },
                }
            })
        }

        fn arb_epoch() -> impl Strategy<Value = Vec<Vec<GraphMutation>>> {
            vec(vec(arb_mutation(), 1..7), 1..6)
        }

        /// About ten hub submissions of about eight steps, one in four
        /// poisoned ([`hub_epoch`]).
        fn arb_hub_epoch() -> impl Strategy<Value = Vec<HubSubmission>> {
            let step = (0..1u32 << 20, 1u32..4, 0u8..3, 0u8..8);
            vec((vec(step, 1..16), 0u8..4), 8..12)
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

            #[test]
            fn try_push_all_matches_clone_and_swap(
                resident in vec(arb_mutation(), 0..30),
                first in arb_epoch(),
                second in arb_epoch(),
            ) {
                let mut got = MutationLog::new();
                for m in resident {
                    let _ = got.try_push(m);
                }
                got.drain();
                let mut want = got.clone();
                epoch_matches(&mut got, &mut want, &first);
                assert_normal_form(&got);
                // A second epoch on both: the first drain left identical
                // `CopyKind`s, or retractions and patches would differ here.
                epoch_matches(&mut got, &mut want, &second);
                assert_normal_form(&got);
            }

            #[test]
            fn drained_addresses_match_the_retired_ledger(
                epochs in vec(arb_epoch(), 3..6),
            ) {
                let mut log = MutationLog::new();
                let mut model = ledger::EdgeLedger::default();
                for epoch in &epochs {
                    for sub in epoch {
                        // The ledger re-resolved a canonical delete by weight
                        // after the epoch's folded patches; past a patched
                        // copy that can name another copy than the log
                        // matched (pinned by hand above) — not a reference.
                        let mut probe = log.clone();
                        let mut past_a_patch = false;
                        let accepted = sub.iter().all(|&m| {
                            past_a_patch |= reaches_past_a_patch(&probe, m);
                            probe.try_push(m).is_ok()
                        });
                        prop_assume!(!(accepted && past_a_patch));
                        let _ = log.try_push_all(sub);
                    }
                    let batch = log.drain();
                    ledger_agrees(&mut model, &log, &batch, VERTICES);
                    assert_normal_form(&log);
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

            /// One destination's table hashes as adds take it past the
            /// threshold and sorts back as deletes shrink it, re-weights and
            /// refused submissions all along: every submission is held to
            /// clone-and-swap, every drain to the ledger.
            #[test]
            fn a_hub_crosses_the_hashed_threshold_both_ways(
                grow in vec(arb_hub_epoch(), 6..7),
                shrink in vec(arb_hub_epoch(), 8..9),
            ) {
                let (mut got, mut want) = (MutationLog::new(), MutationLog::new());
                let mut model = ledger::EdgeLedger::default();
                let mut hashed = false;
                let epochs = grow.iter().map(|e| (e, true)).chain(shrink.iter().map(|e| (e, false)));
                for (epoch, growing) in epochs {
                    let subs = hub_epoch(&got, epoch, growing);
                    let batch = epoch_matches(&mut got, &mut want, &subs);
                    ledger_agrees(&mut model, &got, &batch, 1);
                    assert_normal_form(&got);
                    hashed |= got.hashed_tables() == 1;
                }
                prop_assert!(hashed, "the hub's table never hashed");
                prop_assert_eq!(got.hashed_tables(), 0, "the hub's table stayed hashed");
            }
        }
    }
}
