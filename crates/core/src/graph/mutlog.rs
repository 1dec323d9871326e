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
//! [`MutationLog::drain`] closes the epoch in one pass over its surviving
//! mutations: it hands each surviving insert its tag (in arrival order, so
//! annihilated inserts consume none), settles this epoch's fresh and patched
//! copies, and drops the pair records the epoch's deletes emptied. A record
//! emptied mid-epoch keeps its counter until that pass: a copy re-added in
//! the same epoch must not reuse a tag whose retraction travels in the same
//! wave, or a miss-fanned broadcast could match both. The pass returns the
//! canonical coalesced batch — surviving mutations in arrival order, each
//! with the [`CopyAddr`] the fabric knows its copy by — together with the
//! repair bookkeeping the two-phase pipeline needs: whether anything
//! structural survived (`needs_repair`) and which sources the structural
//! phase would suppress (`touched`). Replaying the canonical batch against
//! a fresh consumer reproduces the exact live multiset, which is what makes
//! the log shareable: `StreamingGraph` stages every increment in its own
//! log (where the `amcca-serve` ingest loop parks client submissions too,
//! rather than in a mirror), and `gc_datasets` replays churn schedules.
//!
//! Validation is part of the contract: deleting or re-weighting an identity
//! with no live copy is a host bug ([`MutationLog::push`] panics with the
//! streaming pipeline's exact message) or, for a server admitting untrusted
//! batches, a recoverable [`MutationError`] ([`MutationLog::try_push`], or
//! [`MutationLog::try_push_all`] for a whole submission, all-or-nothing).
//! Every operation costs in proportion to the mutations it handles, never
//! to the resident multiset ([`MutationLog::pair_visits`]).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
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
        }
    }
}

impl std::error::Error for MutationError {}

/// Where a live copy stands relative to the current epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CopyKind {
    /// Streamed in an earlier epoch: the fabric stores it.
    Settled,
    /// Inserted this epoch; `entry` indexes its pending `AddEdge`.
    Fresh { entry: usize },
    /// Settled copy re-weighted this epoch; `entry` indexes the pending
    /// patch and `w_start` is the weight the fabric still stores.
    Patched { w_start: u32, entry: usize },
}

/// One live copy of a directed pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LogCopy {
    /// Global arrival number (drives insertion-order iteration).
    seq: u64,
    /// Current weight.
    w: u32,
    /// Edge label carried by the copy's insert (0 = unlabelled). Labels are
    /// immutable for a copy's lifetime and are not part of the delete/update
    /// addressing identity — they only drive standing-query automata.
    label: u8,
    /// The tag the fabric stores the copy by, unique among the pair's live
    /// copies. Meaningless while the copy is `Fresh`: [`MutationLog::drain`]
    /// hands it out.
    tag: u8,
    kind: CopyKind,
}

/// Everything the log holds for one directed pair.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct PairRecord {
    /// Next tag to try (wrapping; the allocation skips tags still held).
    next: u8,
    /// Live copies, oldest first.
    copies: VecDeque<LogCopy>,
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
    /// Sources of this epoch's inserts and first re-weights of settled
    /// copies, in arrival order with repeats (the structural phase
    /// suppresses their announcements; the repair frontier folds them in).
    pub touched: Vec<u32>,
    /// Whether anything in the epoch retracts or re-weighs announced state:
    /// a delete of a settled copy, or a re-weight above a settled copy's
    /// epoch-start weight — even when a later same-epoch delete dropped the
    /// patch itself (the decision to repair is made at arrival time).
    pub needs_repair: bool,
}

/// Host-side live-copy model plus current-epoch coalescing (module docs).
#[derive(Debug, Clone, Default)]
pub struct MutationLog {
    /// `dst → src → record`: one record per directed pair with a live copy
    /// — or emptied this epoch with a counter still to keep
    /// ([`Self::drain`] drops it). A destination's table goes with its last
    /// record, so two logs holding the same records compare equal.
    pairs: HashMap<u32, HashMap<u32, PairRecord>>,
    /// Records across all destinations ([`Self::pair_records`]).
    records: usize,
    /// Current epoch's pending mutations in arrival order (`None` =
    /// annihilated insert or dropped patch), a delete beside the tag of the
    /// copy it matched (0 beside the rest).
    entries: Vec<Option<(GraphMutation, u8)>>,
    touched: Vec<u32>,
    needs_repair: bool,
    /// Live copies across all pairs.
    live: u64,
    /// Next arrival number.
    seq: u64,
    /// Pair queues looked at so far ([`MutationLog::pair_visits`]).
    pair_visits: u64,
}

/// The directed pair whose copy queue a mutation addresses.
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

    /// Push one mutation into the current epoch, coalescing it against the
    /// epoch's pending mutations.
    ///
    /// # Panics
    ///
    /// Panics if a delete or update names an identity with no live copy —
    /// the same contract (and message) as `StreamingGraph::stream_increment`.
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
                let matched = self.visit_record((u, v), |rec| {
                    let Some(i) = rec.copies.iter().position(|c| c.w == w) else {
                        return (None, false);
                    };
                    let copy = rec.copies.remove(i).expect("position is in range");
                    // An emptied record whose counter stands at 0 is a new
                    // record's equal: drop it now. Any other waits for the
                    // drain.
                    (Some(copy), rec.copies.is_empty() && rec.next == 0)
                });
                let copy = matched.flatten().ok_or(err)?;
                self.live -= 1;
                match copy.kind {
                    // The copy is still in this epoch's wave: annihilate the
                    // pair on the host.
                    CopyKind::Fresh { entry } => self.entries[entry] = None,
                    // A same-epoch patch of this copy is moot now — drop it
                    // and retract under the weight the fabric still stores.
                    CopyKind::Patched { w_start, entry } => {
                        self.entries[entry] = None;
                        self.entries
                            .push(Some((GraphMutation::DelEdge((u, v, w_start)), copy.tag)));
                        self.needs_repair = true;
                    }
                    CopyKind::Settled => {
                        self.entries.push(Some((GraphMutation::DelEdge((u, v, w)), copy.tag)));
                        self.needs_repair = true;
                    }
                }
                Ok(())
            }
            GraphMutation::UpdateWeight { u, v, w } => {
                let err = MutationError::NoLiveCopyToUpdate { u, v, w };
                let srcs = self.pairs.get_mut(&v);
                let copy = srcs
                    .and_then(|s| s.get_mut(&u))
                    .and_then(|r| r.copies.front_mut())
                    .ok_or(err)?;
                match copy.kind {
                    // The copy is still in this epoch's wave: rewrite the
                    // pending insert in place (nothing was ever announced
                    // under the old weight, so no repair is needed). The
                    // rewrite keeps the insert's label.
                    CopyKind::Fresh { entry } => {
                        self.entries[entry] = Some((labeled_add((u, v, w), copy.label), 0));
                    }
                    // Coalesce repeat updates of one copy: one patch with the
                    // final weight (intermediates were never announced);
                    // repair compares against the epoch-start weight.
                    CopyKind::Patched { w_start, entry } => {
                        self.needs_repair |= w > w_start;
                        self.entries[entry] = Some((GraphMutation::UpdateWeight { u, v, w }, 0));
                    }
                    CopyKind::Settled => {
                        self.needs_repair |= w > copy.w;
                        copy.kind =
                            CopyKind::Patched { w_start: copy.w, entry: self.entries.len() };
                        self.entries.push(Some((GraphMutation::UpdateWeight { u, v, w }, 0)));
                        self.touched.push(u);
                    }
                }
                copy.w = w;
                Ok(())
            }
        }
    }

    /// Insert one copy of `(u, v, w)` carrying `label` (the shared body of
    /// the `AddEdge` / `AddLabeledEdge` push arms).
    fn push_add(&mut self, (u, v, w): StreamEdge, label: u8) -> Result<(), MutationError> {
        let entry = self.entries.len();
        self.entries.push(Some((labeled_add((u, v, w), label), 0)));
        self.seq += 1;
        let copy = LogCopy { seq: self.seq, w, label, tag: 0, kind: CopyKind::Fresh { entry } };
        let rec = match self.pairs.entry(v).or_default().entry(u) {
            Entry::Occupied(rec) => rec.into_mut(),
            Entry::Vacant(slot) => {
                self.records += 1;
                slot.insert(PairRecord::default())
            }
        };
        rec.copies.push_back(copy);
        self.touched.push(u);
        self.live += 1;
        Ok(())
    }

    /// The record of the directed pair `(u, v)`, if the log holds one.
    fn record(&self, (u, v): (u32, u32)) -> Option<&PairRecord> {
        self.pairs.get(&v)?.get(&u)
    }

    fn record_mut(&mut self, (u, v): (u32, u32)) -> Option<&mut PairRecord> {
        self.pairs.get_mut(&v)?.get_mut(&u)
    }

    /// Run `f` on the record of `(u, v)`, if the log holds one, and drop
    /// the record when `f` says so — and its destination's table once that
    /// holds no record. One pass down the two levels either way.
    fn visit_record<R>(
        &mut self,
        (u, v): (u32, u32),
        f: impl FnOnce(&mut PairRecord) -> (R, bool),
    ) -> Option<R> {
        let Entry::Occupied(mut srcs) = self.pairs.entry(v) else { return None };
        let Entry::Occupied(mut rec) = srcs.get_mut().entry(u) else { return None };
        let (out, emptied) = f(rec.get_mut());
        if emptied {
            rec.remove();
            self.records -= 1;
            if srcs.get().is_empty() {
                srcs.remove();
            }
        }
        Some(out)
    }

    /// Push a whole submission, all-or-nothing: on the first error the log
    /// is restored to exactly what it was before the call — including
    /// pending entries of *earlier* pushes of this epoch that the valid
    /// prefix had annihilated, rewritten, folded or dropped.
    ///
    /// A push only changes the record of the pair it names, the pending
    /// entries that record's copies index, and the tail of the epoch, so
    /// that (plus the scalar marks) is the whole pre-image.
    pub fn try_push_all(&mut self, muts: &[GraphMutation]) -> Result<(), MutationError> {
        let (n_entries, n_touched) = (self.entries.len(), self.touched.len());
        let (needs_repair, live, seq) = (self.needs_repair, self.live, self.seq);
        // Sized once: a submission names at most one pair per mutation.
        let mut queues: HashMap<(u32, u32), Option<PairRecord>> =
            HashMap::with_capacity(muts.len());
        let mut entries: Vec<(usize, Option<(GraphMutation, u8)>)> = Vec::new();
        for &m in muts {
            if let Entry::Vacant(slot) = queues.entry(pair_of(m)) {
                self.pair_visits += 1;
                let q = self.record(*slot.key()).cloned();
                for c in q.iter().flat_map(|r| &r.copies) {
                    if let CopyKind::Fresh { entry } | CopyKind::Patched { entry, .. } = c.kind {
                        entries.push((entry, self.entries[entry]));
                    }
                }
                slot.insert(q);
            }
            if let Err(e) = self.try_push(m) {
                self.pair_visits += queues.len() as u64;
                for ((u, v), q) in queues {
                    match q {
                        // An annihilated fresh insert may have taken its
                        // record with it: put back, not just overwrite.
                        Some(q) => {
                            if self.pairs.entry(v).or_default().insert(u, q).is_none() {
                                self.records += 1;
                            }
                        }
                        None => {
                            self.visit_record((u, v), |_| ((), true));
                        }
                    }
                }
                self.entries.truncate(n_entries);
                for (i, e) in entries {
                    self.entries[i] = e;
                }
                self.touched.truncate(n_touched);
                (self.needs_repair, self.live, self.seq) = (needs_repair, live, seq);
                return Err(e);
            }
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
            let Some((m, del_tag)) = pending else { continue };
            self.pair_visits += 1;
            let addr = match m {
                GraphMutation::DelEdge((_, _, w)) => {
                    // The wave this batch becomes carries the last retraction
                    // that could meet a reused tag: the counter can go.
                    self.visit_record(pair_of(m), |rec| ((), rec.copies.is_empty()));
                    CopyAddr { tag: del_tag, w_fabric: w }
                }
                GraphMutation::UpdateWeight { .. } => {
                    // Only a pair's oldest copy is ever patched.
                    let copy = self.record_mut(pair_of(m)).and_then(|r| r.copies.front_mut());
                    let copy = copy.expect("a pending patch is live");
                    let CopyKind::Patched { w_start, .. } = copy.kind else {
                        unreachable!("a pending patch belongs to the pair's oldest copy")
                    };
                    copy.kind = CopyKind::Settled;
                    CopyAddr { tag: copy.tag, w_fabric: w_start }
                }
                GraphMutation::AddEdge((_, _, w)) | GraphMutation::AddLabeledEdge((_, _, w), _) => {
                    let rec = self.record_mut(pair_of(m)).expect("a pending insert is live");
                    // The one place a tag is handed out. Step past every tag
                    // a settled or patched copy of the pair still holds; with
                    // all 256 held the counter's own value has to do.
                    let held = |t| {
                        rec.copies
                            .iter()
                            .any(|c| !matches!(c.kind, CopyKind::Fresh { .. }) && c.tag == t)
                    };
                    let tag = (0..=u8::MAX)
                        .map(|i| rec.next.wrapping_add(i))
                        .find(|&t| !held(t))
                        .unwrap_or(rec.next);
                    rec.next = tag.wrapping_add(1);
                    let copy = rec
                        .copies
                        .iter_mut()
                        .find(|c| c.kind == CopyKind::Fresh { entry })
                        .expect("a pending insert's copy is live");
                    (copy.tag, copy.kind) = (tag, CopyKind::Settled);
                    CopyAddr { tag, w_fabric: w }
                }
            };
            muts.push(m);
            addrs.push(addr);
        }
        self.entries = entries;
        CoalescedBatch {
            muts,
            addrs,
            touched: std::mem::take(&mut self.touched),
            needs_repair: std::mem::replace(&mut self.needs_repair, false),
        }
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

    /// Pair records looked at so far — one per push, per record saved (and
    /// restored) by [`Self::try_push_all`], and per surviving mutation
    /// [`Self::drain`] tags, settles or prunes for. A diagnostic, like
    /// `Chip::cell_visits`.
    pub fn pair_visits(&self) -> u64 {
        self.pair_visits
    }

    /// Live copies across all pairs (current epoch included).
    pub fn live_count(&self) -> u64 {
        self.live
    }

    /// Pair records held: one per directed pair with a live copy, plus any
    /// the current epoch emptied and [`Self::drain`] has yet to drop.
    pub fn pair_records(&self) -> usize {
        self.records
    }

    /// Sources of the live in-edges of vertex `v` (current epoch included),
    /// each once, in arbitrary hash order — callers must sort before the
    /// result can drive output.
    pub fn sources_of(&self, v: u32) -> impl Iterator<Item = u32> + '_ {
        let srcs = self.pairs.get(&v).into_iter().flatten();
        srcs.filter(|(_, r)| !r.copies.is_empty()).map(|(&u, _)| u)
    }

    /// The live edge multiset at current weights, in insertion order
    /// (current epoch's fresh copies included — callers wanting the settled
    /// state call this at an epoch boundary).
    pub fn live_edges(&self) -> Vec<StreamEdge> {
        self.live_labeled_edges().into_iter().map(|(e, _)| e).collect()
    }

    /// [`Self::live_edges`] with each copy's label: the serialization hook
    /// label-aware checkpoints are built from, and the edge set standing
    /// queries are recomputed over.
    pub fn live_labeled_edges(&self) -> Vec<(StreamEdge, u8)> {
        let mut tagged: Vec<(u64, (StreamEdge, u8))> = self
            .pairs
            .iter()
            .flat_map(|(&v, srcs)| srcs.iter().map(move |(&u, r)| (u, v, r)))
            .flat_map(|(u, v, r)| r.copies.iter().map(move |c| (c.seq, ((u, v, c.w), c.label))))
            .collect();
        tagged.sort_unstable_by_key(|&(seq, _)| seq);
        tagged.into_iter().map(|(_, e)| e).collect()
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
            self.record((u, v)).map(|r| r.copies.iter().map(|c| c.w).collect()).unwrap_or_default()
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
        assert!(!b.needs_repair, "nothing announced, nothing to repair");
        assert_eq!(b.touched, vec![0], "the add's source still counts as touched");
    }

    #[test]
    fn update_of_fresh_copy_rewrites_the_insert() {
        let b = drained(&[AddEdge((0, 1, 2)), UpdateWeight { u: 0, v: 1, w: 9 }]);
        assert_eq!(b.muts, vec![AddEdge((0, 1, 9))]);
        assert!(!b.needs_repair);
    }

    #[test]
    fn repeat_updates_fold_and_repair_compares_epoch_start() {
        let mut log = MutationLog::new();
        log.push(AddEdge((0, 1, 3)));
        let first = log.drain();
        assert_eq!(first.muts, vec![AddEdge((0, 1, 3))]);
        // Raise then lower below the start: the raise was observed at
        // arrival time, so the epoch still repairs.
        log.push(UpdateWeight { u: 0, v: 1, w: 7 });
        log.push(UpdateWeight { u: 0, v: 1, w: 2 });
        let b = log.drain();
        assert_eq!(b.muts, vec![UpdateWeight { u: 0, v: 1, w: 2 }]);
        assert!(b.needs_repair, "the intermediate raise forces a repair epoch");
        assert_eq!(b.touched, vec![0], "one touched entry per patched copy");
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
        assert!(b.needs_repair);
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
        assert!(b.needs_repair);
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
    fn live_edges_iterate_in_insertion_order_across_epochs() {
        let mut log = MutationLog::new();
        log.push(AddEdge((5, 6, 1)));
        log.push(AddEdge((0, 1, 2)));
        log.drain();
        log.push(AddEdge((3, 4, 3)));
        log.push(DelEdge((5, 6, 1)));
        log.drain();
        assert_eq!(log.live_edges(), vec![(0, 1, 2), (3, 4, 3)]);
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

    /// Everything but the `pair_visits` diagnostic, fields and accessors.
    fn assert_same(got: &MutationLog, want: &MutationLog) {
        assert_eq!(
            got.pairs, want.pairs,
            "pair records (tag counters; weights, labels, tags, kinds, arrival numbers; \
             emptied-but-kept records)"
        );
        assert_eq!(got.entries, want.entries);
        assert_eq!(got.touched, want.touched);
        assert_eq!(got.needs_repair, want.needs_repair);
        assert_eq!((got.records, got.live, got.seq), (want.records, want.live, want.seq));
        assert_eq!(got.pending_ops(), want.pending_ops());
        assert_eq!(got.live_count(), want.live_count());
        assert_eq!(got.live_labeled_edges(), want.live_labeled_edges());
    }

    /// Run one epoch of submissions through both recipes, then drain both.
    fn epoch_matches(
        got: &mut MutationLog,
        want: &mut MutationLog,
        submissions: &[Vec<GraphMutation>],
    ) {
        for sub in submissions {
            assert_eq!(got.try_push_all(sub), clone_and_swap(want, sub), "submission {sub:?}");
            assert_same(got, want);
        }
        let (g, w) = (got.drain(), want.drain());
        assert_eq!(g.muts, w.muts);
        assert_eq!(g.touched, w.touched);
        assert_eq!(g.needs_repair, w.needs_repair);
        assert_same(got, want);
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
        let b = log.drain();
        assert_eq!(b.muts, next);
        assert!(b.needs_repair);
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
        // A refused submission that re-fills the record restores both the
        // emptied-but-kept state and the counter.
        let want = log.clone();
        let refused = [AddEdge((0, 1, 8)), AddEdge((4, 4, 1)), DelEdge((9, 9, 9))];
        assert!(log.try_push_all(&refused).is_err());
        assert_same(&log, &want);
        assert_eq!(log.pairs[&1][&0], PairRecord { next: 1, copies: VecDeque::new() });
        assert_eq!(tags(&mut log, &[AddEdge((0, 1, 8))]), vec![0, 1], "retraction, then re-add");
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
        }
    }

    /// Vertex ids of the proptest universe below.
    const VERTICES: u32 = 3;

    /// Replay one drained batch through the retired ledger, the way `apply`
    /// used to, and hold the log's addresses, record count, live count and
    /// per-destination sources to it.
    fn ledger_agrees(model: &mut ledger::EdgeLedger, log: &MutationLog, batch: &CoalescedBatch) {
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
        for v in 0..VERTICES {
            let mut sources: Vec<u32> = log.sources_of(v).collect();
            sources.sort_unstable();
            assert_eq!(sources, model.sources_of(v), "in-neighbours of {v}");
        }
    }

    /// Whether `m` is a delete whose pair's oldest copy is patched away from
    /// the weight it names, so its match lies behind a patched copy.
    fn reaches_past_a_patch(log: &MutationLog, m: GraphMutation) -> bool {
        let DelEdge((u, v, w)) = m else { return false };
        log.record((u, v))
            .and_then(|r| r.copies.front())
            .is_some_and(|front| matches!(front.kind, CopyKind::Patched { .. }) && front.w != w)
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
                // A second epoch on both: the first drain left identical
                // `CopyKind`s, or retractions and patches would differ here.
                epoch_matches(&mut got, &mut want, &second);
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
                    ledger_agrees(&mut model, &log, &batch);
                }
            }
        }
    }
}
