//! A counting global allocator for the footprint tests: it measures the live
//! bytes, live heap blocks and allocation calls a thread makes inside
//! [`metered`], so a change to a record or object layout shows as bytes per
//! edge, not as a peak-RSS drift in a benchmark run.
//!
//! The counters are process-wide but count only what a thread allocates and
//! frees inside [`metered`]. A test crate's tests share them, so each holds
//! [`serial`]. A test crate pulls this in with
//! `#[path = "common/counting.rs"] mod counting;`, which installs the
//! allocator for that crate alone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Live bytes, live heap blocks and allocation calls counted inside
/// [`metered`].
static BYTES: AtomicIsize = AtomicIsize::new(0);
static BLOCKS: AtomicIsize = AtomicIsize::new(0);
static CALLS: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// Whether this thread's allocations are counted.
    static METERED: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: isize, blocks: isize, calls: isize) {
    if METERED.with(Cell::get) {
        BYTES.fetch_add(bytes, Relaxed);
        BLOCKS.fetch_add(blocks, Relaxed);
        CALLS.fetch_add(calls, Relaxed);
    }
}

struct Counting;

// SAFETY: every call forwards to `System` unchanged; only counters move.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count(layout.size() as isize, 1, 1);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            count(layout.size() as isize, 1, 1);
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        count(-(layout.size() as isize), -1, 0);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            count(new_size as isize - layout.size() as isize, 0, 0);
        }
        q
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

static SERIAL: Mutex<()> = Mutex::new(());

/// Hold the counters for one test (a failed test does not bar the rest).
pub fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Run `f` with this thread's allocations counted, and return its result.
pub fn metered<T>(f: impl FnOnce() -> T) -> T {
    METERED.with(|m| m.set(true));
    let out = f();
    METERED.with(|m| m.set(false));
    out
}

/// `(live bytes, live heap blocks)` counted so far.
pub fn live() -> (isize, isize) {
    (BYTES.load(Relaxed), BLOCKS.load(Relaxed))
}

/// Allocation calls (`alloc` and `alloc_zeroed`) counted so far.
pub fn calls() -> isize {
    CALLS.load(Relaxed)
}
