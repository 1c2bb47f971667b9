//! What `pool::run` promises beyond "every index once", driven through the
//! public API with every interleaving forced by a barrier: a panicking
//! index ends the job's claims, and the helper budget is the process's, not
//! a job's.
//!
//! Both tests need real helpers and read the process-wide counters, so this
//! binary pins `TEAL_NN_THREADS=4` before the first job (as
//! `pool_equivalence` does) and runs its tests one at a time.

// Concurrent submitters are the fixture, so the tests start their own threads.
#![allow(clippy::disallowed_methods)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard, PoisonError};
use teal_pool as pool;

/// Force a 4-thread cap and take the binary's one lock: with it held, no
/// other test holds a helper slot or moves a counter.
fn exclusive() -> MutexGuard<'static, ()> {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let guard = ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner);
    // Under the lock, so `set_var` cannot race another test's `getenv`.
    std::env::set_var("TEAL_NN_THREADS", "4");
    assert_eq!(pool::max_threads(), 4, "thread cap already frozen");
    guard
}

/// Released once the thread that panicked has left the job: its four
/// parties are that thread's exit and the three threads it left behind.
static PANICKER_GONE: Barrier = Barrier::new(4);

struct AtThreadExit;

impl Drop for AtThreadExit {
    fn drop(&mut self) {
        PANICKER_GONE.wait();
    }
}

thread_local! {
    /// Destroyed when its thread exits — for a helper, after `pool` has
    /// caught the panic, ended the job's claims and returned from the thread.
    static AT_THREAD_EXIT: AtThreadExit = const { AtThreadExit };
}

#[test]
fn panic_ends_the_jobs_claims_and_reaches_the_submitter() {
    let _one = exclusive();
    let submitter = std::thread::current().id();
    let all_in = Barrier::new(4);
    let panicker_chosen = AtomicBool::new(false);
    let later_indices_run = AtomicUsize::new(0);
    let caught = std::panic::catch_unwind(|| {
        pool::run(64, &|i| {
            if i >= 4 {
                later_indices_run.fetch_add(1, Ordering::SeqCst);
                return;
            }
            // Indices 0..4 are held until four distinct threads — the
            // submitter and all three helpers — have one each.
            all_in.wait();
            let helper = std::thread::current().id() != submitter;
            if helper && !panicker_chosen.swap(true, Ordering::SeqCst) {
                AT_THREAD_EXIT.with(|_| ());
                panic!("index {i} exploded");
            }
            // The other three go back for their next claim only after the
            // panicking helper is gone, and so after its unwind was seen.
            PANICKER_GONE.wait();
        });
    });
    let payload = caught.expect_err("the job must re-panic on the submitter");
    let text = payload.downcast_ref::<String>().expect("original payload");
    assert!(text.ends_with("exploded"), "payload replaced: {text:?}");
    assert_eq!(
        later_indices_run.load(Ordering::SeqCst),
        0,
        "an index was claimed after the job had panicked"
    );
}

#[test]
fn helper_budget_is_process_wide() {
    let _one = exclusive();
    const SUBMITTERS: usize = 8;
    let before = pool::stats();
    let helpers_now = AtomicUsize::new(0);
    let helpers_peak = AtomicUsize::new(0);
    // A chunk run by a thread other than its job's submitter is a helper's.
    let chunk = |submitter: std::thread::ThreadId, inside: &dyn Fn()| {
        if std::thread::current().id() == submitter {
            return inside();
        }
        let now = helpers_now.fetch_add(1, Ordering::SeqCst) + 1;
        helpers_peak.fetch_max(now, Ordering::SeqCst);
        inside();
        helpers_now.fetch_sub(1, Ordering::SeqCst);
    };

    // Round one, sequenced: the first submitter's four chunks sit on four
    // threads (all three helper slots taken) while the other seven submit,
    // so each of those is refused its three helpers and runs inline.
    let holders_in = Barrier::new(4);
    let budget_spent = Barrier::new(4 + SUBMITTERS - 1);
    let others_done = Barrier::new(4 + SUBMITTERS - 1);
    std::thread::scope(|s| {
        s.spawn(|| {
            let me = std::thread::current().id();
            pool::run(4, &|_| {
                chunk(me, &|| {
                    holders_in.wait();
                    budget_spent.wait();
                    others_done.wait();
                })
            });
        });
        for _ in 1..SUBMITTERS {
            s.spawn(|| {
                let me = std::thread::current().id();
                budget_spent.wait();
                pool::run(4, &|_| {
                    assert_eq!(std::thread::current().id(), me, "a fourth helper");
                });
                others_done.wait();
            });
        }
    });
    let sequenced = pool::stats();
    assert_eq!(helpers_peak.load(Ordering::SeqCst), 3);
    assert_eq!(sequenced.jobs - before.jobs, SUBMITTERS as u64);
    assert_eq!(sequenced.helper_chunks - before.helper_chunks, 3);
    assert_eq!(
        sequenced.capped_skips - before.capped_skips,
        3 * (SUBMITTERS as u64 - 1),
        "every refused slot is counted, and only those"
    );

    // A thread cap's refusals land in the same counter: 3 asked, 1 allowed.
    pool::with_thread_cap(2, || pool::run(4, &|_| {}));
    assert_eq!(pool::stats().capped_skips - sequenced.capped_skips, 2);

    // Round two, free-running: eight submitters race for the three slots.
    let start = Barrier::new(SUBMITTERS);
    std::thread::scope(|s| {
        for _ in 0..SUBMITTERS {
            s.spawn(|| {
                let me = std::thread::current().id();
                start.wait();
                for _ in 0..16 {
                    pool::run(8, &|_| chunk(me, &std::thread::yield_now));
                }
            });
        }
    });
    assert_eq!(helpers_now.load(Ordering::SeqCst), 0);
    let peak = helpers_peak.load(Ordering::SeqCst);
    assert!(
        peak <= 3,
        "{peak} helpers alive at once under a cap of four"
    );
}
