//! The mutation log's heap footprint, counted. A counting global allocator
//! (`common/counting.rs`) measures the live bytes and heap blocks the log
//! holds, so a change to its record layout shows here as bytes per edge, not
//! as a peak-RSS drift in a benchmark run. The tests share its counters, so
//! each holds [`serial`].

use std::collections::{HashMap, VecDeque};

use amcca::prelude::GraphMutation::{self, AddEdge, DelEdge, UpdateWeight};
use amcca::sdgp_core::MutationLog;

#[path = "common/counting.rs"]
#[allow(dead_code)]
mod counting;
use counting::{live, metered, serial};

/// Push `muts` as one submission and close the epoch, counting what the log
/// allocates and frees (the drained batch included).
fn epoch(log: &mut MutationLog, muts: &[GraphMutation]) {
    metered(|| {
        log.try_push_all(muts).unwrap();
        drop(log.drain());
    });
}

/// Stream `adds` into a new log in 10 epochs: the log, and the live heap
/// bytes and blocks it holds per insert. Blocks are counted live, not as
/// calls: a destination table's growth steps free what they replace.
fn footprint(adds: &[GraphMutation]) -> (MutationLog, f64, f64) {
    let (bytes0, blocks0) = live();
    let mut log = MutationLog::new();
    for muts in adds.chunks(adds.len().div_ceil(10)) {
        epoch(&mut log, muts);
    }
    let (bytes, blocks) = live();
    let n = adds.len() as f64;
    (log, (bytes - bytes0) as f64 / n, (blocks - blocks0) as f64 / n)
}

/// 100 000 distinct pairs, 20 sources per destination (`ingest_bulk`'s
/// ratio).
///
/// The log holds 19.9 B and 0.050 live heap blocks per edge here. The byte
/// bound sits between that and the 35.9 B it held with a hash table per
/// destination and 16-byte slots, so a return to that layout fails.
#[test]
fn a_simple_graph_costs_at_most_24_bytes_and_a_tenth_of_a_block_per_edge() {
    const PAIRS: u32 = 100_000;
    const DSTS: u32 = PAIRS / 20;
    let _serial = serial();
    let start = live();
    let adds: Vec<GraphMutation> = (0..PAIRS).map(|i| AddEdge((i / DSTS, i % DSTS, 1))).collect();
    let (log, bytes_per_edge, blocks_per_edge) = footprint(&adds);
    println!("simple graph: {bytes_per_edge:.1} B, {blocks_per_edge:.3} live heap blocks per edge");
    assert_eq!((log.live_count(), log.pair_records()), (PAIRS as u64, PAIRS as usize));
    assert!(bytes_per_edge <= 24.0, "{bytes_per_edge:.1} B of live heap per edge");
    assert!(blocks_per_edge <= 0.1, "{blocks_per_edge:.3} live heap blocks per edge");
    metered(|| drop(log));
    assert_eq!(live(), start, "the dropped log frees all it held");
}

/// A multigraph at `skew_sharded`'s share: 100 000 copies in 90 323 pairs
/// (its RMAT input holds 1 000 000 copies in 903 229 records), so about one
/// pair in ten holds a second copy, in the spill table.
///
/// The log holds 24.3 B per copy here, against 40.8 B with a hash table per
/// destination, 16-byte slots and 12-byte copies in `VecDeque` queues; the
/// bound sits between the two.
#[test]
fn a_multigraph_share_costs_at_most_32_bytes_per_copy() {
    const COPIES: u32 = 100_000;
    const PAIRS: u32 = 90_323;
    const DSTS: u32 = PAIRS / 20 + 1;
    let _serial = serial();
    let start = live();
    let adds: Vec<GraphMutation> = (0..COPIES)
        .map(|i| (i % PAIRS, 1 + i / PAIRS))
        .map(|(p, w)| AddEdge((p / DSTS, p % DSTS, w)))
        .collect();
    let (log, bytes_per_copy, _) = footprint(&adds);
    println!("multigraph share: {bytes_per_copy:.1} B of live heap per copy");
    assert_eq!((log.live_count(), log.pair_records()), (COPIES as u64, PAIRS as usize));
    assert!(bytes_per_copy <= 32.0, "{bytes_per_copy:.1} B of live heap per copy");
    metered(|| drop(log));
    assert_eq!(live(), start, "the dropped log frees all it held");
}

/// A hub: 10 000 distinct sources into one destination, pushed in
/// descending order (where a sorted array would shift every slot it holds
/// on each insert) in 10 epochs. Its table hashes, each push and each
/// drained insert looks at one record, and it holds at most 32 B per edge.
/// Deletes down to 10 sources then sort it back into an array, which frees
/// the hash table and lists the survivors in order.
#[test]
fn a_hub_hashes_its_table_and_sorts_it_back_when_deletes_shrink_it() {
    const SOURCES: u32 = 10_000;
    const KEPT: u32 = 10;
    let _serial = serial();
    let start = live();
    let adds: Vec<GraphMutation> = (0..SOURCES).rev().map(|u| AddEdge((u, 0, 1))).collect();
    let (mut log, bytes_per_edge, _) = footprint(&adds);
    println!("hub: {bytes_per_edge:.1} B of live heap per edge");
    assert_eq!(log.hashed_tables(), 1);
    assert_eq!(log.pair_visits(), 2 * u64::from(SOURCES), "one record per push and per insert");
    assert!(bytes_per_edge <= 32.0, "{bytes_per_edge:.1} B of live heap per edge");
    let dels: Vec<GraphMutation> = (KEPT..SOURCES).map(|u| DelEdge((u, 0, 1))).collect();
    for muts in dels.chunks(dels.len().div_ceil(10)) {
        epoch(&mut log, muts);
    }
    assert_eq!(log.hashed_tables(), 0);
    assert_eq!(log.sources_of(0).collect::<Vec<_>>(), (0..KEPT).collect::<Vec<_>>());
    // What is left: 10 records, and the epoch's pending entries (20 B each),
    // whose capacity the log keeps. The 16 384-bucket hash table is gone.
    let held = live().0 - start.0;
    assert!(held <= 40_000, "{held} B live for {KEPT} edges");
    // The array finds, adds and drops sources again.
    epoch(
        &mut log,
        &[DelEdge((3, 0, 1)), AddEdge((SOURCES, 0, 2)), UpdateWeight { u: 0, v: 0, w: 5 }],
    );
    let want: Vec<_> = [(0, 0, 5), (1, 0, 1), (2, 0, 1)]
        .into_iter()
        .chain((4..KEPT).map(|u| (u, 0, 1)))
        .chain([(SOURCES, 0, 2)])
        .collect();
    assert_eq!(log.live_edges(), want);
    metered(|| drop(log));
    assert_eq!(live(), start, "the dropped log frees all it held");
}

#[test]
fn a_multigraph_pair_frees_its_queue_when_deletes_leave_one_copy() {
    let _serial = serial();
    let mut log = MutationLog::new();
    // A first spill and collapse sets up the spill table: one slot, free.
    epoch(&mut log, &[AddEdge((0, 1, 5)), AddEdge((2, 3, 5)), AddEdge((2, 3, 6))]);
    epoch(&mut log, &[DelEdge((2, 3, 6))]);
    let before = live();
    epoch(&mut log, &[AddEdge((0, 1, 6))]);
    epoch(&mut log, &[AddEdge((0, 1, 7))]);
    assert!(live().0 > before.0, "three copies spill to the heap");
    epoch(&mut log, &[DelEdge((0, 1, 5))]);
    assert!(live().0 > before.0, "two copies stay spilled");
    epoch(&mut log, &[DelEdge((0, 1, 7))]);
    assert_eq!(log.live_count(), 2);
    assert_eq!(live(), before, "one copy left: back inline, the queue freed");
    metered(|| drop(log));
}

/// Retire the `i`-th oldest slot of `window`: delete its pair's oldest copy,
/// named by that copy's weight.
fn retire(
    window: &mut VecDeque<(u32, u32)>,
    weights: &mut HashMap<(u32, u32), VecDeque<u32>>,
    muts: &mut Vec<GraphMutation>,
    i: usize,
) {
    let (u, v) = window.remove(i).unwrap();
    let copies = weights.get_mut(&(u, v)).unwrap();
    muts.push(DelEdge((u, v, copies.pop_front().unwrap())));
    if copies.is_empty() {
        weights.remove(&(u, v));
    }
}

/// 10⁵ epochs of a sliding window of 100 copies over 7 vertices (49 pairs,
/// about two copies each, so queues spill and collapse all the time). Each
/// epoch adds a fresh copy, and every other epoch a parallel copy of a live
/// pair; re-weights a live pair's oldest copy; deletes one or two random live
/// copies; and retires the oldest copies past the window. Neither records
/// nor heap may outgrow the window: a collapse frees its spill slot for the
/// next spill, so the spill table holds no more slots than pairs spilled at
/// once.
///
/// With 7 vertices a destination has at most 7 sources, so every table is a
/// sorted array, whose deletes leave no tombstones and give back spare
/// slots. The one hash table, the map of 7 destinations, stays at 8 buckets
/// or fewer, too small for the std map's erase to leave tombstones on
/// x86-64. A larger hash table under delete churn grows one size once
/// tombstones use up its free slots: a single doubling, not a leak, but it
/// would read as growth here.
#[test]
fn a_sliding_window_soak_holds_the_log_to_its_window() {
    const EPOCHS: u32 = 100_000;
    const WINDOW: usize = 100;
    const VERTICES: usize = 7;
    let _serial = serial();
    let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
    let mut below = move |n: usize| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        (rng % n as u64) as usize
    };
    // The pair of every live copy in arrival order, and each live pair's
    // copy weights oldest first (the log's matching rules, mirrored).
    let mut window: VecDeque<(u32, u32)> = VecDeque::new();
    let mut weights: HashMap<(u32, u32), VecDeque<u32>> = HashMap::new();
    let bytes0 = live().0;
    let mut filled = None;
    let mut log = MutationLog::new();
    for e in 0..EPOCHS {
        let mut muts = Vec::new();
        for parallel in [false, true].into_iter().take(1 + (e % 2 == 0) as usize) {
            let (u, v) = if parallel {
                window[below(window.len())]
            } else {
                (below(VERTICES) as u32, below(VERTICES) as u32)
            };
            let w = 1 + below(4) as u32;
            muts.push(AddEdge((u, v, w)));
            weights.entry((u, v)).or_default().push_back(w);
            window.push_back((u, v));
        }
        let (u, v) = window[below(window.len())];
        let w = 1 + below(4) as u32;
        muts.push(UpdateWeight { u, v, w });
        weights.get_mut(&(u, v)).unwrap()[0] = w;
        for _ in 0..1 + (e % 3 == 0) as usize {
            if !window.is_empty() {
                let i = below(window.len());
                retire(&mut window, &mut weights, &mut muts, i);
            }
        }
        while window.len() > WINDOW {
            retire(&mut window, &mut weights, &mut muts, 0);
        }
        epoch(&mut log, &muts);
        // Every pair the model holds has a copy, so records ≤ live copies.
        assert_eq!(
            (log.pair_records(), log.live_count()),
            (weights.len(), window.len() as u64),
            "epoch {e}"
        );
        if window.len() == WINDOW && filled.is_none() {
            filled = Some(live().0 - bytes0);
        }
    }
    let filled = filled.expect("the window fills") as f64;
    let end = (live().0 - bytes0) as f64;
    assert!(end <= 1.25 * filled, "{end} B live at the end, {filled} B when the window filled");
    metered(|| drop(log));
}
