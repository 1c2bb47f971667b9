//! `teal-meter`: the workspace's one counting global allocator, for the
//! tests that pin allocation floors (the steady states that allocate
//! nothing, allocations per window, the footprint ledgers).
//!
//! A test binary installs it with
//! `#[global_allocator] static METER: teal_meter::Meter = teal_meter::Meter;`
//! and reads one of three counts, each with one meaning:
//!
//! * **calls**: one per `alloc`, `alloc_zeroed` and `realloc`;
//! * **bytes**: the bytes requested, i.e. each allocation's size plus each
//!   `realloc`'s growth;
//! * **live**: bytes allocated minus bytes freed, with its high-water mark.
//!
//! Calls, bytes and live are kept per thread, so a test that reads its own
//! thread's count around a measured window sees nothing libtest's other
//! threads do meanwhile. Live is also kept process-wide, for binaries that
//! measure work spread over scoped threads: those run without a test
//! harness, so nothing else allocates beside them, and each window opens
//! and closes on a process back to one thread. A block freed on another
//! thread than the one that allocated it moves only the freeing thread's
//! count, so per-thread live is signed and only its differences are read.
//!
//! Every request over [`CEILING`] is refused, whichever test made it.

// The workspace denies `unsafe_code`; `GlobalAlloc` is an unsafe trait and
// forwarding to `System` is this crate's only unsafe.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, Ordering::SeqCst};

/// The largest request the meter serves. No request this large is
/// legitimate in a test; refusing it turns a missing size check into an
/// allocation failure ("memory allocation of N bytes failed", or an `Err`
/// from a `try_reserve`) instead of an attempt to reserve gigabytes.
pub const CEILING: usize = 1 << 30;

/// `System`, metered.
pub struct Meter;

/// One thread's counts. Const-initialized and destructor-free, so the
/// allocator can touch them without allocating.
struct Counts {
    calls: Cell<u64>,
    bytes: Cell<u64>,
    live: Cell<isize>,
    peak: Cell<isize>,
}

thread_local! {
    static THREAD: Counts = const {
        Counts {
            calls: Cell::new(0),
            bytes: Cell::new(0),
            live: Cell::new(0),
            peak: Cell::new(0),
        }
    };
}

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Count one call that requested `bytes` and moved live bytes by `delta`.
fn count_call(bytes: usize, delta: isize) {
    // `try_with`: a thread being torn down may allocate after its locals.
    let _ = THREAD.try_with(|t| {
        t.calls.set(t.calls.get() + 1);
        t.bytes.set(t.bytes.get() + bytes as u64);
        t.live.set(t.live.get() + delta);
        t.peak.set(t.peak.get().max(t.live.get()));
    });
    let live = LIVE.fetch_add(delta, SeqCst) + delta;
    PEAK.fetch_max(live, SeqCst);
}

fn count_free(size: usize) {
    let _ = THREAD.try_with(|t| t.live.set(t.live.get() - size as isize));
    LIVE.fetch_sub(size as isize, SeqCst);
}

// SAFETY: every method forwards to `System` or, over the ceiling, returns
// null (the contract's failure signal); the counters touch no heap memory.
unsafe impl GlobalAlloc for Meter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() > CEILING {
            return std::ptr::null_mut();
        }
        count_call(layout.size(), layout.size() as isize);
        // SAFETY: pass-through; the caller upholds GlobalAlloc's contract,
        // which is exactly what `System` requires.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if layout.size() > CEILING {
            return std::ptr::null_mut();
        }
        count_call(layout.size(), layout.size() as isize);
        // SAFETY: pass-through, as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_free(layout.size());
        // SAFETY: pass-through; `ptr`/`layout` came from this allocator,
        // i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > CEILING {
            return std::ptr::null_mut();
        }
        count_call(
            new_size.saturating_sub(layout.size()),
            new_size as isize - layout.size() as isize,
        );
        // SAFETY: pass-through; the caller's GlobalAlloc obligations
        // forward unchanged to `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Calls made so far by the calling thread.
pub fn thread_calls() -> u64 {
    THREAD.with(|t| t.calls.get())
}

/// Bytes requested so far by the calling thread.
pub fn thread_bytes() -> u64 {
    THREAD.with(|t| t.bytes.get())
}

/// `run()`'s result and the most live bytes it added on the calling
/// thread at any point, whatever it freed meanwhile.
pub fn thread_peak_added<T>(run: impl FnOnce() -> T) -> (T, usize) {
    let base = THREAD.with(|t| {
        t.peak.set(t.live.get());
        t.live.get()
    });
    let out = run();
    (out, (THREAD.with(|t| t.peak.get()) - base).max(0) as usize)
}

/// `build()`'s result, still alive, and the live bytes it added across
/// every thread.
pub fn live_added<T>(build: impl FnOnce() -> T) -> (T, usize) {
    await_lone_thread();
    let before = LIVE.load(SeqCst);
    let built = build();
    await_lone_thread();
    (built, (LIVE.load(SeqCst) - before).max(0) as usize)
}

/// `run()`'s result and the most live bytes it added across every thread
/// at any point.
pub fn peak_added<T>(run: impl FnOnce() -> T) -> (T, usize) {
    await_lone_thread();
    let before = LIVE.load(SeqCst);
    PEAK.store(before, SeqCst);
    let out = run();
    (out, (PEAK.load(SeqCst) - before).max(0) as usize)
}

/// Returns once the process runs on one thread: a scoped helper's last
/// frees (its own thread bookkeeping) come after its scope has returned,
/// while it tears down. The count is the kernel's, which drops after the
/// thread's last instruction (no wait where `/proc` is missing).
fn await_lone_thread() {
    let threads = || {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        let n = status.lines().find_map(|l| l.strip_prefix("Threads:"))?;
        n.trim().parse::<usize>().ok()
    };
    while threads().is_some_and(|n| n > 1) {
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    #[global_allocator]
    static METER: Meter = Meter;

    #[test]
    fn counts_calls_requested_bytes_and_peak() {
        let (calls, bytes) = (thread_calls(), thread_bytes());
        let (kept, peak) = thread_peak_added(|| {
            let mut v = black_box(Vec::<u8>::with_capacity(100));
            v.reserve_exact(400);
            drop(black_box(Vec::<u8>::with_capacity(50)));
            v
        });
        let (calls, bytes) = (thread_calls() - calls, thread_bytes() - bytes);
        assert_eq!(kept.capacity(), 400);
        assert_eq!(calls, 3, "with_capacity, reserve_exact, with_capacity");
        assert_eq!(bytes, 450, "100, then 300 of growth, then 50");
        assert_eq!(peak, 450, "the 400 kept plus the 50 dropped");
    }

    #[test]
    fn refuses_requests_over_the_ceiling() {
        let mut v = Vec::<u8>::new();
        assert!(v.try_reserve_exact(CEILING + 1).is_err());
    }
}
