//! The counting global allocator the two steady-state allocation floors
//! (`steady_state_alloc.rs`, `steady_state_alloc_on.rs`) install: `System`
//! plus per-thread allocation and byte counters.
//! `crates/serve/tests/write_path_alloc.rs` carries its own copy of the
//! same shape.

#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System` plus per-thread allocation counters (allocations only — frees
/// are irrelevant to the claims being tested).
struct CountingAlloc;

thread_local! {
    /// Allocations made by *this* thread. The test reads it on the thread
    /// that runs the measured window, so whatever libtest's main thread
    /// allocates meanwhile (it did, in debug builds) cannot land in the
    /// count. Const-initialized and destructor-free, so touching it from
    /// inside the allocator neither allocates nor outlives the thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has requested: every `alloc`'s size plus every
    /// `realloc`'s growth.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc(bytes: usize) {
    // `try_with`: a thread being torn down may allocate after its locals.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// Allocations made so far by the calling thread.
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes requested so far by the calling thread.
#[allow(dead_code)] // only one of the two suites sharing this file reads it
pub fn thread_alloc_bytes() -> u64 {
    BYTES.with(Cell::get)
}

// SAFETY: every method forwards to `System`, so `System` upholds
// GlobalAlloc's contract; the counters touch no allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: pure pass-through — the caller upholds GlobalAlloc's
        // contract, which is exactly what `System` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: pass-through; `ptr`/`layout` came from this allocator,
        // i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size.saturating_sub(layout.size()));
        // SAFETY: pass-through; caller's GlobalAlloc obligations forward
        // unchanged to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;
