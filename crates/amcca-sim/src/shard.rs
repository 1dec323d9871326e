//! Shard partitioning and the small synchronization primitives behind the
//! threaded driver.
//!
//! The mesh is partitioned into **contiguous column bands** (BLADYG-style
//! vertical partitions): with YX dimension-ordered routing every vertical hop
//! stays inside its column, so the *only* cross-shard traffic is east/west
//! hops across a band boundary — a narrow, well-defined exchange surface.
//! Column bands also give every shard its own slice of the north/south IO
//! cells, so ingestion parallelizes with the compute. A band is fixed for the
//! whole run and its worker computes every one of its rows; the graph's
//! skew is levelled by rhizomes, which spread a hub's roots over columns.
//!
//! This module also hosts [`run_tasks`], the workspace-wide work-queue helper
//! used by the `paper` and `amcca-run` drivers to fan independent experiment
//! runs over a bounded worker pool.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use crate::geom::Dims;

/// A partition of the mesh columns into contiguous bands, one per shard.
/// Bands differ in width by at most one column; the requested shard count is
/// clamped to the number of columns so every band is non-empty.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    dims: Dims,
    /// Column boundaries: shard `s` owns columns `bounds[s] .. bounds[s+1]`.
    bounds: Vec<u16>,
}

impl ShardPlan {
    /// Partition `dims.x` columns into (at most) `shards` bands.
    pub fn new(dims: Dims, shards: usize) -> Self {
        let n = shards.clamp(1, dims.x as usize);
        let bounds = (0..=n).map(|s| (s * dims.x as usize / n) as u16).collect::<Vec<_>>();
        ShardPlan { dims, bounds }
    }

    /// The mesh this plan partitions.
    pub fn dims(&self) -> Dims {
        self.dims
    }

    /// Number of (non-empty) shards after clamping.
    pub fn shard_count(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Column band `[x0, x1)` owned by shard `s`.
    pub fn band(&self, s: usize) -> (u16, u16) {
        (self.bounds[s], self.bounds[s + 1])
    }
}

/// A sense-reversing spin barrier for the per-cycle worker rendezvous.
///
/// `std::sync::Barrier` parks on a condvar, which costs microseconds per
/// wait — comparable to a whole simulated cycle. This barrier spins briefly
/// and falls back to `yield_now` so oversubscribed runs (e.g. `cargo test`)
/// stay civil. `poison` releases all waiters into a panic, so one worker's
/// panic cannot hang the others.
pub(crate) struct SpinBarrier {
    n: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

impl SpinBarrier {
    pub fn new(n: usize) -> Self {
        SpinBarrier {
            n,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Block (spinning) until all `n` parties have arrived.
    pub fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Last arrival: reset the count, then release the generation.
            // Spinners cannot re-arrive until they observe the new
            // generation, so the reset cannot race with their increments.
            self.arrived.store(0, Ordering::Relaxed);
            self.generation.store(gen.wrapping_add(1), Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == gen {
                if self.poisoned.load(Ordering::Relaxed) {
                    panic!("shard barrier poisoned: a sibling worker panicked");
                }
                backoff(&mut spins);
            }
        }
    }

    /// Release every current and future waiter into a panic.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }
}

/// Bounded spinning with a yield fallback (keeps oversubscribed runs fair).
#[inline]
pub(crate) fn backoff(spins: &mut u32) {
    *spins = spins.saturating_add(1);
    if *spins < 128 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// Run `tasks` on at most `workers` scoped threads, returning the results in
/// task order. This is the shared fan-out helper for *independent* jobs
/// (dataset builds, experiment scenarios); for sharding a single chip run use
/// [`crate::ChipConfig::shards`] instead.
pub fn run_tasks<T, F>(tasks: Vec<F>, workers: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    use std::sync::Mutex;
    let n = tasks.len();
    let tasks: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers.max(1).min(n.max(1)) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let task = tasks[i].lock().unwrap().take().unwrap();
                *results[i].lock().unwrap() = Some(task());
            });
        }
    });
    results.into_iter().map(|r| r.into_inner().unwrap().unwrap()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_all_columns_evenly() {
        for (x, shards) in [(32u16, 4usize), (32, 3), (8, 8), (7, 3), (5, 16), (1, 4)] {
            let plan = ShardPlan::new(Dims::new(x, 4), shards);
            let n = plan.shard_count();
            assert!(n >= 1 && n <= shards.max(1) && n <= x as usize);
            let mut widths = Vec::new();
            let mut next = 0u16;
            for s in 0..n {
                let (a, b) = plan.band(s);
                assert_eq!(a, next, "bands contiguous");
                assert!(b > a, "bands non-empty");
                widths.push(b - a);
                next = b;
            }
            assert_eq!(next, x, "bands cover every column");
            let (min, max) = (widths.iter().min().unwrap(), widths.iter().max().unwrap());
            assert!(max - min <= 1, "balanced bands: {widths:?}");
        }
    }

    #[test]
    fn spin_barrier_synchronizes_rounds() {
        use std::sync::atomic::AtomicU64;
        let n = 4;
        let barrier = SpinBarrier::new(n);
        let counter = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..n {
                s.spawn(|| {
                    for round in 0..50u64 {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        // Between the two waits every thread sees the full
                        // round's increments.
                        assert_eq!(counter.load(Ordering::Relaxed), (round + 1) * n as u64);
                        barrier.wait();
                    }
                });
            }
        });
    }

    #[test]
    fn run_tasks_preserves_order_and_runs_everything() {
        let tasks: Vec<_> = (0..17).map(|i| move || i * 3).collect();
        let out = run_tasks(tasks, 4);
        assert_eq!(out, (0..17).map(|i| i * 3).collect::<Vec<_>>());
        // Degenerate worker counts still complete.
        let out = run_tasks(vec![|| 1, || 2], 0);
        assert_eq!(out, vec![1, 2]);
    }
}
