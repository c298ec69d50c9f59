//! A counting global allocator, shared by the allocation gates
//! (`crates/soc-sim/tests/alloc.rs`, and `crates/runtime/tests/alloc.rs`
//! and `crates/core/tests/alloc.rs`, which include this file with
//! `#[path]`).
//!
//! The count is a thread-local: tests run on parallel threads, and every
//! tile program of a `Soc::run` runs as a coroutine on the calling
//! thread, so a test sees exactly its own allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocations (fresh and resized) per
/// thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // A thread being torn down has no counter left; its allocations are
    // nobody's test.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its caller's arguments unchanged to
// `System`, so `System`'s guarantees are the wrapper's.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds this method's contract, which is
        // `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds this method's contract, which is
        // `System`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds this method's contract, which is
        // `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds this method's contract, which is
        // `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations made on this thread so far.
pub fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}
