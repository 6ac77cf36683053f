//! Counting allocator: how many heap allocations (and bytes) a span made.
//!
//! Installed as the binary's global allocator. Untraced runs pay one relaxed
//! flag load per allocation and pass straight through to the system
//! allocator; sequential traced runs switch counting on and read the two
//! counters around every call into a layer. `city_sharded` never switches it
//! on: its agents run on worker threads, and a shared atomic bumped from two
//! cores would measure the counter, not the engine.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator behind an allocation counter.
pub struct Counting;

#[inline]
fn count(size: usize) {
    // Relaxed: the counters are statistics read on the counting thread
    // itself; they publish no other data. Load-then-store, not `fetch_add`:
    // counting is on only while a single thread simulates, where the two are
    // equal and the plain add costs a fifth of the locked one (a full-stack
    // city allocates a hundred times per frame). Two threads counting at once
    // could lose an update — a miscount, never undefined behaviour.
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.store(ALLOCS.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        BYTES.store(BYTES.load(Ordering::Relaxed) + size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's layout is passed through untouched.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's layout is passed through untouched.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` and `layout` come from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` and `layout` come from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches counting on or off for the whole process.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` since counting was switched on.
pub fn snapshot() -> (u64, u64) {
    (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}
