//! Persistent worker pool: the one place this workspace takes a second core.
//!
//! Kernels in this crate are serial. Parallelism is a *stage's* decision,
//! taken where the units of work commute and share no write: the matrices of
//! a serving window's forward pass (`teal-core`), today the only submitter.
//! A stage hands this module a *job* — an indexed task `f(0..n)` whose
//! indices workers and the submitting thread claim with one shared atomic
//! counter. `max_threads() - 1` workers stay alive for the life of the
//! process, so a job costs one queue push, never a thread spawn.
//!
//! Design constraints, in order:
//!
//! * **The caller always participates.** A job makes progress even with
//!   zero workers (single-CPU CI) or with every worker busy elsewhere, so
//!   submission never deadlocks — including *nested* submission from inside
//!   a task (nothing in the workspace nests today; the unit test keeps it
//!   working).
//! * **Concurrent submitters are first-class.** The serving daemon's shard
//!   dispatchers and test threads all submit at once; jobs queue up and any
//!   idle worker helps whichever job is at the front. Every operation on
//!   the shared state (push job, claim chunk, retire job) commutes with
//!   itself across submitters — there is no lock held while compute runs.
//! * **Borrowed closures.** Stages pass `&dyn Fn(usize)` borrowing stack
//!   data. The pointer is type-erased to cross the thread boundary; safety
//!   rests on [`run`] not returning until every claimed chunk has finished
//!   (tracked by the `done` count) and on exhausted jobs never being
//!   dereferenced again (the claim counter is monotone).
//!
//! Worker panics are caught per chunk and re-surfaced as a panic in the
//! submitting thread with the original payload (first panic wins), so
//! caller-side `catch_unwind` diagnostics see the real cause — a forward
//! pass that panics on a helper thread reaches the serving shard exactly as
//! one that panicked inline. Once a job is poisoned, later chunk claims
//! fast-fail (counted as done, never executed): a batch that will re-panic
//! anyway must not keep burning worker time other jobs could use.
//!
//! Steady state allocates (almost) nothing: each submitting thread caches
//! its last `Job` and re-arms it in place when no worker still holds a
//! reference, and the job queue is preallocated — at serving rates the
//! per-dispatch cost is one queue push, not an allocation.
//!
//! Submitters may bound their fan-out with [`with_thread_cap`]: a capped
//! job carries a helper budget, and workers scanning the queue skip
//! capped-out jobs instead of piling on — the mechanism behind
//! `teal-serve`'s per-shard thread caps when topologies outnumber cores.

// teal-lint: checked-sync
use crate::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use crate::sync::{Arc, Condvar, Mutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// Jobs ever submitted through [`run`] (including ones served entirely on
/// the submitting thread).
static JOBS: AtomicU64 = AtomicU64::new(0);
/// Chunks executed by the submitting (caller) thread.
static CALLER_CHUNKS: AtomicU64 = AtomicU64::new(0);
/// Chunks stolen by pool workers helping a job.
static HELPER_CHUNKS: AtomicU64 = AtomicU64::new(0);
/// Times a worker scanned past a live job because its helper cap was
/// already met (the [`with_thread_cap`] skip path).
static CAPPED_SKIPS: AtomicU64 = AtomicU64::new(0);

/// Point-in-time pool activity counters: process-wide, monotone since
/// startup. Take two snapshots and subtract to meter an interval. The
/// caller/helper split is the pool's occupancy story — how much work
/// the submitting dispatchers ran themselves versus what the worker threads
/// stole — and `capped_skips` counts demand the thread caps turned away.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Jobs submitted through [`run`].
    pub jobs: u64,
    /// Chunks executed by submitting threads.
    pub caller_chunks: u64,
    /// Chunks executed by pool workers.
    pub helper_chunks: u64,
    /// Worker scans that skipped a live job because its helper cap was met.
    pub capped_skips: u64,
}

/// Snapshot the pool counters (relaxed loads; cheap enough for dashboards).
pub fn stats() -> PoolStats {
    PoolStats {
        jobs: JOBS.load(Ordering::Relaxed),
        caller_chunks: CALLER_CHUNKS.load(Ordering::Relaxed),
        helper_chunks: HELPER_CHUNKS.load(Ordering::Relaxed),
        capped_skips: CAPPED_SKIPS.load(Ordering::Relaxed),
    }
}

/// One indexed task: workers claim indices `0..n` until exhausted.
struct Job {
    /// Type- and lifetime-erased task. Only dereferenced between a
    /// successful claim (`next.fetch_add < n`) and the matching `done`
    /// increment, which [`run`] outlives by construction.
    task: *const (dyn Fn(usize) + Sync),
    n: usize,
    /// Maximum number of *workers* allowed to help this job (the submitting
    /// thread always participates on top). `usize::MAX` means uncapped; a
    /// serving shard running under [`with_thread_cap`] bounds it so one
    /// topology's windows cannot monopolize the pool.
    helper_cap: usize,
    /// Workers currently helping (reserved slots against `helper_cap`).
    helpers: AtomicUsize,
    /// Next unclaimed index; claims at or past `n` mean "exhausted".
    next: AtomicUsize,
    /// Set when any chunk panicked; the submitter re-panics.
    poisoned: AtomicBool,
    /// First caught panic payload, re-thrown by the submitter so callers
    /// (and their `catch_unwind`s) see the original cause, not a generic
    /// "worker panicked" message.
    payload: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    /// Chunks fully executed, with a condvar for the submitter's wait.
    done: Mutex<usize>,
    finished: Condvar,
}

// SAFETY: the raw task pointer is only dereferenced while the submitting
// thread is parked inside `run`, which keeps the closure alive; all other
// fields are Sync primitives.
unsafe impl Send for Job {}
// SAFETY: as above — shared access to `task` is a read of an immutable fat
// pointer whose referent outlives every dereference, and the remaining
// fields synchronize themselves.
unsafe impl Sync for Job {}

impl Job {
    /// Reserve one helper slot against `helper_cap`; workers that fail to
    /// reserve leave the job to the threads already on it.
    fn try_reserve_helper(&self) -> bool {
        let mut h = self.helpers.load(Ordering::Relaxed);
        loop {
            if h >= self.helper_cap {
                return false;
            }
            match self
                .helpers
                .compare_exchange_weak(h, h + 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return true,
                Err(cur) => h = cur,
            }
        }
    }

    /// Claim and execute chunks until the job is exhausted. Called by
    /// workers and by the submitting thread alike. Returns the number of
    /// chunks this thread claimed, so the caller can attribute them to the
    /// right occupancy counter with one flush instead of a fetch-add per
    /// chunk.
    fn help(&self) -> u64 {
        let mut claimed = 0u64;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return claimed;
            }
            claimed += 1;
            // Fast-fail a poisoned job: the submitter re-panics regardless
            // of what later chunks compute, so executing them only burns
            // worker time other jobs could use. Claimed chunks still count
            // toward `done` so the completion protocol (and `wait`) holds.
            if self.poisoned.load(Ordering::Acquire) {
                self.finish_chunk();
                continue;
            }
            // SAFETY: `i < n`, so the submitter is still inside `run` and
            // the closure is alive.
            let task = unsafe { &*self.task };
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| task(i))) {
                let mut slot = self.payload.lock();
                if slot.is_none() {
                    *slot = Some(p);
                }
                drop(slot);
                self.poisoned.store(true, Ordering::Release);
            }
            self.finish_chunk();
        }
    }

    /// Count one claimed chunk as settled, waking the submitter on the last.
    fn finish_chunk(&self) {
        let mut done = self.done.lock();
        *done += 1;
        if *done == self.n {
            self.finished.notify_all();
        }
    }

    /// Block until every chunk (including ones claimed by workers) is done.
    fn wait(&self) {
        let mut done = self.done.lock();
        while *done < self.n {
            done = self.finished.wait(done);
        }
    }
}

/// Queue shared between submitters and workers.
struct Shared {
    queue: Mutex<VecDeque<Arc<Job>>>,
    available: Condvar,
}

/// The process-wide pool: `max_threads() - 1` parked workers plus every
/// submitting thread.
pub struct WorkerPool {
    shared: Arc<Shared>,
    workers: usize,
}

impl WorkerPool {
    fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            // Preallocated so steady-state pushes never grow the deque: the
            // pending-job count is bounded by concurrent submitters, far
            // below this.
            queue: Mutex::new(VecDeque::with_capacity(64)),
            available: Condvar::new(),
        });
        for i in 0..workers {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("teal-nn-worker-{i}"))
                .spawn(move || worker_loop(&shared))
                .expect("spawn pool worker");
        }
        WorkerPool { shared, workers }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock();
            loop {
                // Retire exhausted jobs the submitter has not removed yet.
                while q
                    .front()
                    .is_some_and(|j| j.next.load(Ordering::Relaxed) >= j.n)
                {
                    q.pop_front();
                }
                // First live job with a free helper slot: a capped-out job
                // (helper_cap reached) is skipped so workers fall through to
                // whatever is queued behind it instead of piling onto a lane
                // that asked to be left alone.
                let mut skipped = 0u64;
                let claimable = q
                    .iter()
                    .find(|j| {
                        if j.next.load(Ordering::Relaxed) >= j.n {
                            return false;
                        }
                        if j.try_reserve_helper() {
                            return true;
                        }
                        skipped += 1;
                        false
                    })
                    .map(Arc::clone);
                if skipped > 0 {
                    CAPPED_SKIPS.fetch_add(skipped, Ordering::Relaxed);
                }
                if let Some(j) = claimable {
                    break j;
                }
                q = shared.available.wait(q);
            }
        };
        let stolen = job.help();
        if stolen > 0 {
            HELPER_CHUNKS.fetch_add(stolen, Ordering::Relaxed);
        }
        // `help` returns only once the job is exhausted, so releasing the
        // slot never reopens capacity on a job that still has chunks.
        job.helpers.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Thread cap of the pool (workers plus one submitter). Defaults to the
/// machine's available parallelism; override with the `TEAL_NN_THREADS`
/// environment variable (values < 1 or unparsable fall back to the default).
pub fn max_threads() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
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

fn global() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(max_threads().saturating_sub(1)))
}

/// Number of persistent worker threads (0 on a single-CPU machine — the
/// submitting thread then runs every chunk itself).
pub fn worker_count() -> usize {
    global().workers
}

thread_local! {
    /// Thread cap applied to jobs submitted from this thread (see
    /// [`with_thread_cap`]). `None` = uncapped.
    static THREAD_CAP: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Run `f` with every [`run`] call *from this thread* capped to `cap`
/// threads total (the submitting thread plus at most `cap - 1` pool
/// workers). `cap == 1` runs jobs entirely on the submitting thread without
/// touching the queue. Nested and re-entrant uses compose (the innermost
/// cap wins); jobs submitted by *worker* threads on behalf of a capped job
/// are not capped — the cap binds at the dispatch lane's top-level calls,
/// which is where serving shards submit their forward jobs.
///
/// This is the mechanism behind `teal-serve`'s per-shard thread caps: when
/// topology count exceeds core count, each shard pins its fan-out so
/// shards degrade into roughly-even lanes instead of thrashing the pool.
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

/// Execute `f(0)`, …, `f(n - 1)` across the pool, returning once all calls
/// have finished. Each index is claimed by exactly one thread, so `f` may
/// write a per-index slot without contending. Panics in `f` propagate to
/// the caller after all chunks settle.
pub fn run(n: usize, f: &(dyn Fn(usize) + Sync)) {
    if n == 0 {
        return;
    }
    JOBS.fetch_add(1, Ordering::Relaxed);
    let cap = THREAD_CAP.with(|c| c.get());
    // The pool is consulted last: a job that stays on the submitting thread
    // anyway must not be what spawns the workers (their start-up would
    // allocate behind a capped caller's back).
    if n == 1 || cap == Some(1) || global().workers == 0 {
        for i in 0..n {
            f(i);
        }
        CALLER_CHUNKS.fetch_add(n as u64, Ordering::Relaxed);
        return;
    }
    let pool = global();
    // Workers allowed to help this job on top of the submitting thread.
    let helper_cap = cap.map_or(usize::MAX, |c| c - 1);
    // Erase the borrow: `run` does not return until `done == n`, and no
    // thread dereferences `task` after the claim counter passes `n`.
    // SAFETY: pure lifetime erasure of a fat reference; validity is upheld
    // by the wait-before-return protocol documented on `Job::task`.
    let task: *const (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
    };
    // Steady-state job reuse: each submitting thread caches its last Job
    // and re-arms it in place when it holds the only reference (no worker
    // kept a clone past the previous job's exhaustion — `Arc::get_mut`
    // proves exclusivity, so the reset is race-free). Serving loops thus
    // stop minting a Job allocation per dispatch; a fresh Job is
    // built only when a worker still holds the old one.
    let job = match JOB_CACHE.with(|c| c.take()) {
        Some(mut cached) => {
            if let Some(m) = Arc::get_mut(&mut cached) {
                m.task = task;
                m.n = n;
                m.helper_cap = helper_cap;
                *m.helpers.get_mut() = 0;
                *m.next.get_mut() = 0;
                *m.poisoned.get_mut() = false;
                *m.payload.get_mut() = None;
                *m.done.get_mut() = 0;
                cached
            } else {
                fresh_job(task, n, helper_cap)
            }
        }
        None => fresh_job(task, n, helper_cap),
    };
    {
        let mut q = pool.shared.queue.lock();
        q.push_back(Arc::clone(&job));
    }
    pool.shared.available.notify_all();
    let ran = job.help();
    if ran > 0 {
        CALLER_CHUNKS.fetch_add(ran, Ordering::Relaxed);
    }
    job.wait();
    // Drop our queue entry eagerly (workers also skip exhausted fronts).
    {
        let mut q = pool.shared.queue.lock();
        q.retain(|j| !Arc::ptr_eq(j, &job));
    }
    if job.poisoned.load(Ordering::Acquire) {
        // Re-throw the original payload so the caller's panic handling
        // (e.g. the serving daemon's `catch_unwind`) reports the real cause.
        if let Some(p) = job.payload.lock().take() {
            std::panic::resume_unwind(p);
        }
        panic!("teal-nn pool worker panicked");
    }
    JOB_CACHE.with(|c| c.set(Some(job)));
}

thread_local! {
    /// Per-thread cache of the last submitted [`Job`], re-armed by [`run`]
    /// when exclusively owned. Never dereferenced while cached: the job is
    /// exhausted (`next >= n`) and off the queue, so no thread touches its
    /// stale `task` pointer.
    static JOB_CACHE: std::cell::Cell<Option<Arc<Job>>> = const { std::cell::Cell::new(None) };
}

fn fresh_job(task: *const (dyn Fn(usize) + Sync), n: usize, helper_cap: usize) -> Arc<Job> {
    Arc::new(Job {
        task,
        n,
        helper_cap,
        helpers: AtomicUsize::new(0),
        next: AtomicUsize::new(0),
        poisoned: AtomicBool::new(false),
        payload: Mutex::new(None),
        done: Mutex::new(0),
        finished: Condvar::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn poisoned_job_stops_executing_chunks() {
        // Deterministic single-thread drive of the claim loop: chunk 2
        // panics, so chunks 3..8 must be claimed-and-skipped, not executed
        // — while `done` still reaches `n` so `wait` cannot hang.
        let hits: Vec<AtomicUsize> = (0..8).map(|_| AtomicUsize::new(0)).collect();
        let task = |i: usize| {
            if i == 2 {
                panic!("chunk 2 exploded");
            }
            hits[i].fetch_add(1, Ordering::Relaxed);
        };
        let fref: &(dyn Fn(usize) + Sync) = &task;
        // SAFETY: the job lives only within this scope; `help` runs and
        // finishes here, so the erased borrow never outlives the closure.
        let erased: *const (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(fref)
        };
        let job = fresh_job(erased, 8, usize::MAX);
        job.help();
        job.wait();
        assert_eq!(hits[0].load(Ordering::Relaxed), 1);
        assert_eq!(hits[1].load(Ordering::Relaxed), 1);
        for (i, h) in hits.iter().enumerate().skip(2) {
            assert_eq!(
                h.load(Ordering::Relaxed),
                0,
                "chunk {i} ran after the job was poisoned"
            );
        }
        assert!(job.poisoned.load(Ordering::Acquire));
        assert!(job.payload.lock().is_some());
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
