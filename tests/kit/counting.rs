//! The counting allocator of the heap-budget tests: live and peak heap
//! bytes of the calling thread's own allocations, and how many it made. A
//! test binary that mounts this module (`#[path = "kit/counting.rs"] mod
//! counting;`) runs every allocation through it; counts are per thread, so
//! the harness's other test threads never show in a budget.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Live heap bytes this thread holds.
pub fn live() -> isize {
    LIVE.with(Cell::get)
}

/// The highest [`live`] since the last [`reset_peak`].
pub fn peak() -> isize {
    PEAK.with(Cell::get)
}

/// Blocks this thread has allocated or reallocated so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Start a new peak at what is live now.
pub fn reset_peak() {
    PEAK.with(|p| p.set(live()));
}

fn grew(bytes: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LIVE.try_with(|n| {
        n.set(n.get() + bytes as isize);
        let _ = PEAK.try_with(|p| p.set(p.get().max(n.get())));
    });
}

// SAFETY: every call goes to `System` unchanged; the counts are
// thread-local `Cell`s that have no destructor and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller's obligations for `alloc_zeroed` are passed
        // through.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|n| n.set(n.get() - layout.size() as isize));
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;
