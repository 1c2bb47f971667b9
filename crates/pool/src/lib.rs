//! `teal-pool`: the workspace's one parallel substrate, standing in for the
//! paper's GPU. Kernels are serial; a *stage* fans out where its units
//! commute and each writes only its own slot, and every stage does it through
//! one claim loop: the caller and the helpers it spawns inside one
//! [`std::thread::scope`] claim indices off one atomic counter. [`run`] takes
//! an indexed task under a process-wide helper budget (a serving window's
//! forward pass, one index per matrix, is its one submitter); [`map`] takes
//! owned parts on a width its caller picks (KSP, the traffic series, NCFlow's
//! clusters, POP's replicas).
//!
//! **Guarantee.** Every index runs exactly once, on some thread, and the call
//! returns after all of them have: the scope's wait for its threads is also
//! what publishes the helpers' writes, so no atomic below carries data. Once
//! an index panics no thread claims another, and the first panic caught is
//! re-thrown on the submitting thread with its original payload, as if it
//! had happened inline. A helper the OS refuses to start is simply absent.
//! The caller always participates and never waits for a helper, so
//! submission cannot deadlock — nested submission from inside a task
//! included.
//!
//! **Cost.** One thread spawn and join per helper per fanned-out call, tens
//! of microseconds. A window of one, a one-thread process, a lane under
//! `with_thread_cap(1, ..)` and a [`map`] of width one run a plain loop on
//! the caller and pay nothing.

// The workspace's `clippy.toml` bans starting threads everywhere else.
#![allow(clippy::disallowed_methods)]
#![forbid(unsafe_code)]

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock, PoisonError};

// Counters behind [`stats`], and the helper slots reserved process-wide (at
// most `max_threads() - 1`). None publishes other data: `Relaxed` throughout.
static JOBS: AtomicU64 = AtomicU64::new(0);
static CALLER_CHUNKS: AtomicU64 = AtomicU64::new(0);
static HELPER_CHUNKS: AtomicU64 = AtomicU64::new(0);
static CAPPED_SKIPS: AtomicU64 = AtomicU64::new(0);
static HELPERS: AtomicUsize = AtomicUsize::new(0);

/// Point-in-time pool activity counters: process-wide, monotone since
/// startup. Take two snapshots and subtract to meter an interval. The
/// caller/helper split is the pool's occupancy story — how much work
/// the submitting dispatchers ran themselves versus what the helper threads
/// took — and `capped_skips` counts demand the thread caps turned away.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs submitted through [`run`] (inline ones included).
    pub jobs: u64,
    /// Chunks executed by submitting threads.
    pub caller_chunks: u64,
    /// Chunks executed by helper threads.
    pub helper_chunks: u64,
    /// Helper slots a job's size asked for (`min(n - 1, max_threads() - 1)`)
    /// and did not get: withheld by its thread cap or by a spent budget.
    pub capped_skips: u64,
}

/// Snapshot the pool counters (relaxed loads; cheap enough for dashboards).
pub fn stats() -> PoolStats {
    PoolStats {
        jobs: JOBS.load(Relaxed),
        caller_chunks: CALLER_CHUNKS.load(Relaxed),
        helper_chunks: HELPER_CHUNKS.load(Relaxed),
        capped_skips: CAPPED_SKIPS.load(Relaxed),
    }
}

/// Thread cap of the pool (helpers plus one submitter). Defaults to the
/// machine's available parallelism; override with the `TEAL_NN_THREADS`
/// environment variable (values < 1 or unparsable fall back to the default).
pub fn max_threads() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        match std::env::var("TEAL_NN_THREADS") {
            Ok(v) => v
                .trim()
                .parse::<usize>()
                .ok()
                .filter(|&n| n >= 1)
                .unwrap_or(hw),
            Err(_) => hw,
        }
    })
}

/// Helper threads the process may have alive at once (0 on a single-CPU
/// machine — the submitting thread then runs every chunk itself).
pub fn worker_count() -> usize {
    max_threads() - 1
}

/// Worker threads of a set-up stage (KSP, the traffic series): the machine's
/// parallelism, at most 8, whatever `TEAL_NN_THREADS` says. Set-up's results
/// are the same bits on any number of workers.
pub fn setup_workers() -> usize {
    std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1)
        .min(8)
}

thread_local! {
    /// Thread cap applied to jobs submitted from this thread (see
    /// [`with_thread_cap`]). `None` = uncapped.
    static THREAD_CAP: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Run `f` with every [`run`] call *from this thread* capped to `cap`
/// threads total (the submitting thread plus at most `cap - 1` helpers);
/// `cap == 1` keeps jobs on the submitting thread. The innermost cap wins;
/// jobs submitted by *helper* threads on behalf of a capped job are not
/// capped. Timing probes use `cap == 1` to read a window's one-thread
/// cost inside a multi-thread process.
pub fn with_thread_cap<R>(cap: usize, f: impl FnOnce() -> R) -> R {
    let prev = THREAD_CAP.with(|c| c.replace(Some(cap.max(1))));
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_CAP.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(prev);
    f()
}

/// Execute `f(0)`, …, `f(n - 1)` on the submitting thread and whatever
/// helpers the thread cap and the process-wide budget allow, returning once
/// all calls have finished. Each index is claimed by exactly one thread, so
/// `f` may write a per-index slot without contending. At most
/// `max_threads() - 1` helpers are at work process-wide, however many
/// threads submit at once.
pub fn run(n: usize, f: &(dyn Fn(usize) + Sync)) {
    if n == 0 {
        return;
    }
    JOBS.fetch_add(1, Relaxed);
    // Helper slots the job's size asks for, how many of them its cap allows,
    // and how many the budget still has: reserved now, never waited for.
    let asked = (n - 1).min(worker_count());
    let cap = THREAD_CAP.with(|c| c.get());
    let want = cap.map_or(asked, |c| asked.min(c - 1));
    let mut helpers = 0;
    let _ = HELPERS.fetch_update(Relaxed, Relaxed, |held| {
        helpers = want.min(worker_count().saturating_sub(held));
        (helpers > 0).then_some(held + helpers)
    });
    CAPPED_SKIPS.fetch_add((asked - helpers) as u64, Relaxed);
    if helpers == 0 {
        for i in 0..n {
            f(i);
        }
        CALLER_CHUNKS.fetch_add(n as u64, Relaxed);
        return;
    }
    let panic = claim_loop(n, helpers, f, [&CALLER_CHUNKS, &HELPER_CHUNKS]);
    HELPERS.fetch_sub(helpers, Relaxed);
    if let Some(payload) = panic {
        resume_unwind(payload);
    }
}

/// `f` of each of `parts`, in part order, run by the caller and at most
/// `threads - 1` helpers. A part moves to the one thread that claims it, so
/// it may carry the `&mut` slices its work writes. [`run`]'s budget and
/// thread cap do not apply, and [`stats`] does not count it.
pub fn map<P: Send, T: Send>(threads: usize, parts: Vec<P>, f: &(dyn Fn(P) -> T + Sync)) -> Vec<T> {
    let helpers = threads.min(parts.len()).saturating_sub(1);
    if helpers == 0 {
        return parts.into_iter().map(f).collect();
    }
    // Each slot is locked by the one thread that claimed its index, never
    // while `f` runs, so no lock is contended or poisoned.
    let slots: Vec<Mutex<(Option<P>, Option<T>)>> = parts
        .into_iter()
        .map(|p| Mutex::new((Some(p), None)))
        .collect();
    let lock = |i: usize| slots[i].lock().unwrap_or_else(PoisonError::into_inner);
    let work = |i: usize| {
        let part = lock(i).0.take().expect("an index is claimed once");
        let result = f(part);
        lock(i).1 = Some(result);
    };
    let uncounted = AtomicU64::new(0);
    if let Some(payload) = claim_loop(slots.len(), helpers, &work, [&uncounted; 2]) {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| {
            let (_, result) = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            result.expect("every part ran")
        })
        .collect()
}

/// The claim loop under [`run`] and [`map`]: the caller and `helpers` scoped
/// threads run `f` on `0..n`, each index claimed by one thread off one
/// counter, and add the indices they ran to `chunks` (the caller's, the
/// helpers'). Returns the first panic caught, for the caller to re-throw.
fn claim_loop(
    n: usize,
    helpers: usize,
    f: &(dyn Fn(usize) + Sync),
    chunks: [&AtomicU64; 2],
) -> Option<Box<dyn Any + Send>> {
    // `next` only hands out distinct indices and `stop` is advisory: seen
    // late it costs one more index run, never a wrong result.
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let (panicked, first_panic) = std::sync::mpsc::channel();
    let claim = |chunks: &AtomicU64| {
        let mut ran = 0;
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            while !stop.load(Relaxed) {
                let i = next.fetch_add(1, Relaxed);
                if i >= n {
                    break;
                }
                ran += 1;
                f(i);
            }
        }));
        chunks.fetch_add(ran, Relaxed);
        if let Err(payload) = outcome {
            stop.store(true, Relaxed);
            let _ = panicked.send(payload);
        }
    };
    // The scope's own wait ends when the helpers' closures have returned;
    // joining their handles would also wait out each thread's teardown.
    std::thread::scope(|s| {
        for _ in 0..helpers {
            // A helper the OS refuses to spawn is simply absent: the
            // caller's claim loop runs whatever nobody else took.
            let helper = std::thread::Builder::new().name("teal-pool-helper".into());
            let _ = helper.spawn_scoped(s, || claim(chunks[1]));
        }
        claim(chunks[0]);
    });
    first_panic.try_recv().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn run_covers_every_index_once() {
        let hits: Vec<AtomicUsize> = (0..257).map(|_| AtomicUsize::new(0)).collect();
        run(hits.len(), &|i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i} hit count");
        }
    }

    #[test]
    fn empty_job_is_a_noop() {
        run(0, &|_| panic!("must never be called"));
    }

    #[test]
    fn stats_count_jobs_and_chunks() {
        // Counters are process-global and other tests run concurrently, so
        // only delta lower bounds are meaningful here.
        let before = stats();
        run(64, &|_| {});
        let after = stats();
        assert!(after.jobs > before.jobs, "job not counted");
        let chunks = (after.caller_chunks - before.caller_chunks)
            + (after.helper_chunks - before.helper_chunks);
        assert!(chunks >= 64, "expected >= 64 new chunks, got {chunks}");
    }

    #[test]
    fn panic_payload_reaches_submitter() {
        let caught = std::panic::catch_unwind(|| {
            run(4, &|i| {
                if i == 2 {
                    panic!("tile {i} exploded");
                }
            });
        });
        let p = caught.expect_err("poisoned job must re-panic");
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("exploded"), "original payload lost: {msg:?}");
    }

    #[test]
    fn thread_cap_one_runs_on_the_submitting_thread() {
        let submitter = std::thread::current().id();
        let ran = AtomicUsize::new(0);
        with_thread_cap(1, || {
            run(64, &|_| {
                assert_eq!(
                    std::thread::current().id(),
                    submitter,
                    "cap=1 chunk escaped to a pool worker"
                );
                ran.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(ran.load(Ordering::Relaxed), 64);
        // The cap is scoped: it must not leak past the closure.
        assert_eq!(THREAD_CAP.with(|c| c.get()), None);
    }

    #[test]
    fn thread_cap_bounds_concurrent_executors() {
        // Under any pool size, a cap of 2 must never let more than 2
        // threads (submitter + 1 helper) execute chunks at once. The sleep
        // widens each chunk so an over-cap worker would be caught.
        let current = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        with_thread_cap(2, || {
            run(32, &|_| {
                let c = current.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(c, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_micros(200));
                current.fetch_sub(1, Ordering::SeqCst);
            });
        });
        let peak = peak.load(Ordering::SeqCst);
        assert!(
            (1..=2).contains(&peak),
            "peak executors {peak} exceeds cap 2"
        );
    }

    #[test]
    fn capped_results_match_uncapped() {
        let sum_capped = AtomicUsize::new(0);
        with_thread_cap(3, || {
            run(100, &|i| {
                sum_capped.fetch_add(i + 1, Ordering::Relaxed);
            });
        });
        assert_eq!(sum_capped.load(Ordering::Relaxed), 5050);
    }

    #[test]
    fn nested_submission_completes() {
        let total = AtomicUsize::new(0);
        run(4, &|_| {
            run(8, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn concurrent_submitters_each_complete() {
        let sums: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|s| {
            for sum in &sums {
                s.spawn(move || {
                    run(100, &|i| {
                        sum.fetch_add(i + 1, Ordering::Relaxed);
                    });
                });
            }
        });
        for sum in &sums {
            assert_eq!(sum.load(Ordering::Relaxed), 5050);
        }
    }
}
