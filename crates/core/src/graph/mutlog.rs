//! The shared host-side mutation log: one implementation of the batch
//! coalescing semantics.
//!
//! [`MutationLog`] mirrors the live directed edge multiset (per-pair copy
//! queues, oldest first, at current weights) and accepts a stream of
//! [`GraphMutation`]s, coalescing the mutations of the **current epoch**
//! exactly the way `StreamingGraph::stream_increment` merges a batch before
//! anything reaches the fabric:
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
//! [`MutationLog::drain`] closes the epoch and returns the canonical
//! coalesced batch — surviving mutations in arrival order — together with
//! the repair bookkeeping the two-phase pipeline needs: whether anything
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
    kind: CopyKind,
}

/// The canonical coalesced batch an epoch drains to.
#[derive(Debug, Clone, Default)]
pub struct CoalescedBatch {
    /// Surviving mutations in arrival order: annihilated pairs removed,
    /// rewritten inserts and folded patches in place of their originals.
    pub muts: Vec<GraphMutation>,
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

impl CoalescedBatch {
    /// True when nothing survived the epoch.
    pub fn is_empty(&self) -> bool {
        self.muts.is_empty()
    }

    /// Number of mutations in the canonical batch.
    pub fn len(&self) -> usize {
        self.muts.len()
    }
}

/// Host-side live-copy model plus current-epoch coalescing (module docs).
#[derive(Debug, Clone, Default)]
pub struct MutationLog {
    /// Live copies per directed pair, oldest first.
    pairs: HashMap<(u32, u32), VecDeque<LogCopy>>,
    /// Current epoch's pending mutations in arrival order (`None` =
    /// annihilated insert or dropped patch).
    entries: Vec<Option<GraphMutation>>,
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
                let q = self.pairs.get_mut(&(u, v)).ok_or(err)?;
                let i = q.iter().position(|c| c.w == w).ok_or(err)?;
                let copy = q.remove(i).expect("position is in range");
                if q.is_empty() {
                    self.pairs.remove(&(u, v));
                }
                self.live -= 1;
                match copy.kind {
                    // The copy is still in this epoch's wave: annihilate the
                    // pair on the host.
                    CopyKind::Fresh { entry } => self.entries[entry] = None,
                    // A same-epoch patch of this copy is moot now — drop it
                    // and retract under the weight the fabric still stores.
                    CopyKind::Patched { w_start, entry } => {
                        self.entries[entry] = None;
                        self.entries.push(Some(GraphMutation::DelEdge((u, v, w_start))));
                        self.needs_repair = true;
                    }
                    CopyKind::Settled => {
                        self.entries.push(Some(GraphMutation::DelEdge((u, v, w))));
                        self.needs_repair = true;
                    }
                }
                Ok(())
            }
            GraphMutation::UpdateWeight { u, v, w } => {
                let err = MutationError::NoLiveCopyToUpdate { u, v, w };
                let copy = self.pairs.get_mut(&(u, v)).and_then(|q| q.front_mut()).ok_or(err)?;
                match copy.kind {
                    // The copy is still in this epoch's wave: rewrite the
                    // pending insert in place (nothing was ever announced
                    // under the old weight, so no repair is needed). The
                    // rewrite keeps the insert's label.
                    CopyKind::Fresh { entry } => {
                        self.entries[entry] = Some(if copy.label == 0 {
                            GraphMutation::AddEdge((u, v, w))
                        } else {
                            GraphMutation::AddLabeledEdge((u, v, w), copy.label)
                        });
                    }
                    // Coalesce repeat updates of one copy: one patch with the
                    // final weight (intermediates were never announced);
                    // repair compares against the epoch-start weight.
                    CopyKind::Patched { w_start, entry } => {
                        self.needs_repair |= w > w_start;
                        self.entries[entry] = Some(GraphMutation::UpdateWeight { u, v, w });
                    }
                    CopyKind::Settled => {
                        self.needs_repair |= w > copy.w;
                        copy.kind =
                            CopyKind::Patched { w_start: copy.w, entry: self.entries.len() };
                        self.entries.push(Some(GraphMutation::UpdateWeight { u, v, w }));
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
        self.entries.push(Some(if label == 0 {
            GraphMutation::AddEdge((u, v, w))
        } else {
            GraphMutation::AddLabeledEdge((u, v, w), label)
        }));
        self.seq += 1;
        let copy = LogCopy { seq: self.seq, w, label, kind: CopyKind::Fresh { entry } };
        self.pairs.entry((u, v)).or_default().push_back(copy);
        self.touched.push(u);
        self.live += 1;
        Ok(())
    }

    /// Push a whole submission, all-or-nothing: on the first error the log
    /// is restored to exactly what it was before the call — including
    /// pending entries of *earlier* pushes of this epoch that the valid
    /// prefix had annihilated, rewritten, folded or dropped.
    ///
    /// A push only changes the queue of the pair it names, the pending
    /// entries that queue's copies index, and the tail of the epoch, so that
    /// (plus the scalar marks) is the whole pre-image.
    pub fn try_push_all(&mut self, muts: &[GraphMutation]) -> Result<(), MutationError> {
        let (n_entries, n_touched) = (self.entries.len(), self.touched.len());
        let (needs_repair, live, seq) = (self.needs_repair, self.live, self.seq);
        // Sized once: a submission names at most one pair per mutation.
        let mut queues: HashMap<(u32, u32), Option<VecDeque<LogCopy>>> =
            HashMap::with_capacity(muts.len());
        let mut entries: Vec<(usize, Option<GraphMutation>)> = Vec::new();
        for &m in muts {
            if let Entry::Vacant(slot) = queues.entry(pair_of(m)) {
                self.pair_visits += 1;
                let q = self.pairs.get(slot.key()).cloned();
                for c in q.iter().flatten() {
                    if let CopyKind::Fresh { entry } | CopyKind::Patched { entry, .. } = c.kind {
                        entries.push((entry, self.entries[entry]));
                    }
                }
                slot.insert(q);
            }
            if let Err(e) = self.try_push(m) {
                self.pair_visits += queues.len() as u64;
                for (pair, q) in queues {
                    match q {
                        Some(q) => self.pairs.insert(pair, q),
                        None => self.pairs.remove(&pair),
                    };
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

    /// Close the epoch: settle this epoch's surviving copies and return the
    /// canonical coalesced batch (module docs). Replaying `muts` against any
    /// consumer that honours the ledger semantics — delete the oldest live
    /// copy at the named weight, re-weight the pair's oldest — reproduces
    /// this log's live multiset exactly.
    pub fn drain(&mut self) -> CoalescedBatch {
        let muts: Vec<GraphMutation> = self.entries.drain(..).flatten().collect();
        // A copy is `Fresh` or `Patched` only while its pending insert or
        // patch survives, so `muts` names every queue with copies to settle.
        for m in &muts {
            if !matches!(m, GraphMutation::DelEdge(_)) {
                self.pair_visits += 1;
                let q =
                    self.pairs.get_mut(&pair_of(*m)).expect("a pending insert or patch is live");
                for c in q.iter_mut() {
                    c.kind = CopyKind::Settled;
                }
            }
        }
        CoalescedBatch {
            muts,
            touched: std::mem::take(&mut self.touched),
            needs_repair: std::mem::replace(&mut self.needs_repair, false),
        }
    }

    /// The canonical batch the current epoch would drain to, in order.
    pub fn pending(&self) -> impl Iterator<Item = GraphMutation> + '_ {
        self.entries.iter().flatten().copied()
    }

    /// Number of pending mutations the current epoch would drain to.
    pub fn pending_ops(&self) -> usize {
        self.pending().count()
    }

    /// Pair queues looked at so far — one per push, per queue saved (and
    /// restored) by [`Self::try_push_all`], and per queue settled by
    /// [`Self::drain`]. A diagnostic, like `Chip::cell_visits`.
    pub fn pair_visits(&self) -> u64 {
        self.pair_visits
    }

    /// Live copies across all pairs (current epoch included).
    pub fn live_count(&self) -> u64 {
        self.live
    }

    /// The live edge multiset at current weights, in insertion order
    /// (current epoch's fresh copies included — callers wanting the settled
    /// state call this at an epoch boundary).
    pub fn live_edges(&self) -> Vec<StreamEdge> {
        let mut tagged: Vec<(u64, StreamEdge)> = self
            .pairs
            .iter()
            .flat_map(|(&(u, v), q)| q.iter().map(move |c| (c.seq, (u, v, c.w))))
            .collect();
        tagged.sort_unstable_by_key(|&(seq, _)| seq);
        tagged.into_iter().map(|(_, e)| e).collect()
    }

    /// Live copies of the directed pair `(u, v)`, oldest first, at current
    /// weights.
    pub fn live_copies(&self, u: u32, v: u32) -> Vec<u32> {
        self.pairs.get(&(u, v)).map(|q| q.iter().map(|c| c.w).collect()).unwrap_or_default()
    }

    /// [`Self::live_edges`] with each copy's label: the serialization hook
    /// label-aware checkpoints are built from, and the edge set standing
    /// queries are recomputed over.
    pub fn live_labeled_edges(&self) -> Vec<(StreamEdge, u8)> {
        let mut tagged: Vec<(u64, (StreamEdge, u8))> = self
            .pairs
            .iter()
            .flat_map(|(&(u, v), q)| q.iter().map(move |c| (c.seq, ((u, v, c.w), c.label))))
            .collect();
        tagged.sort_unstable_by_key(|&(seq, _)| seq);
        tagged.into_iter().map(|(_, e)| e).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use GraphMutation::{AddEdge, DelEdge, UpdateWeight};

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
        assert_eq!(got.pairs, want.pairs, "copy queues (weights, labels, kinds, arrival numbers)");
        assert_eq!(got.entries, want.entries);
        assert_eq!(got.touched, want.touched);
        assert_eq!(got.needs_repair, want.needs_repair);
        assert_eq!((got.live, got.seq), (want.live, want.seq));
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

    mod oracle {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;

        /// A tiny universe (9 pairs, 3 weights) so deletes and re-weights
        /// hit live copies, parallel copies pile up, and misses stay common.
        fn arb_mutation() -> impl Strategy<Value = GraphMutation> {
            (0u32..3, 0u32..3, 1u32..4, 0u8..3, 0u8..8).prop_map(|(u, v, w, label, op)| match op {
                0 | 1 => AddEdge((u, v, w)),
                2 => GraphMutation::AddLabeledEdge((u, v, w), label),
                3..=5 => DelEdge((u, v, w)),
                _ => UpdateWeight { u, v, w },
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
        }
    }
}
