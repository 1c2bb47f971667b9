//! Model-check suite for the serving stack's synchronization protocols.
//!
//! Compiled and run only under the model-checker cfg:
//!
//! ```text
//! RUSTFLAGS="--cfg teal_loom" cargo test -p teal-serve --test model_check
//! ```
//!
//! Each protocol gets a *pristine/mutant pair*: the pristine test proves
//! the shipping ordering holds in every explored interleaving (and that
//! exploration was both exhaustive and non-trivial — at least 1,000
//! distinct schedules), while the mutant test re-introduces one seeded
//! ordering bug and asserts the checker kills it. A mutant that survives
//! means the model lost the schedule that matters; treat that as a test
//! failure of the *model*, not a license to ship.
//!
//! A failing pristine test prints a `TEAL_LOOM_REPLAY=<schedule>` line;
//! re-run with that variable set to step the one failing interleaving.
#![cfg(teal_loom)]

use std::panic::{catch_unwind, AssertUnwindSafe};

use loom::Builder;
use teal_serve::model::{
    client_register_before_send, shutdown_straggler_sweep, submit_vs_shutdown, wfq_one_ahead,
    ClientMutation, ShutdownMutation, SweepMutation, WfqMutation,
};

/// Schedules explored below this are too few to mean anything — the
/// acceptance bar for every pristine protocol proof.
const MIN_EXECUTIONS: usize = 1_000;

fn checker() -> Builder {
    checker_bounded(None)
}

fn checker_bounded(preemption_bound: Option<usize>) -> Builder {
    Builder {
        preemption_bound,
        max_executions: 400_000,
    }
}

/// Run a mutant model and assert the checker kills it. Mutant hunts are
/// preemption-bounded: every seeded bug here needs at most two
/// involuntary switches to fire, and the bound keeps the worst case (a
/// surviving mutant exploring its whole tree) from burning CI minutes.
fn assert_killed(name: &str, f: impl Fn() + Send + Sync + 'static) {
    let result = catch_unwind(AssertUnwindSafe(|| checker_bounded(Some(3)).check(f)));
    assert!(
        result.is_err(),
        "seeded mutant {name} survived model checking — the model no longer \
         explores the schedule that distinguishes it"
    );
}

#[test]
fn wfq_one_ahead_grant_order_is_schedule_independent() {
    // The WFQ model's full schedule tree is too large to exhaust (> 400k
    // schedules); three involuntary preemptions per schedule is the
    // classic bound — real ordering bugs need one or two — and keeps the
    // proof exhaustive *within* the bound.
    let report = checker_bounded(Some(3)).check(|| wfq_one_ahead(WfqMutation::Pristine));
    eprintln!("wfq pristine: {} interleavings", report.executions);
    assert!(
        report.complete,
        "WFQ model exploration hit the execution cap"
    );
    assert!(
        report.executions >= MIN_EXECUTIONS,
        "only {} interleavings explored",
        report.executions
    );
}

#[test]
fn wfq_mutant_without_one_ahead_is_killed() {
    assert_killed("NoOneAhead", || wfq_one_ahead(WfqMutation::NoOneAhead));
}

#[test]
fn submit_vs_shutdown_never_strands_a_ticket() {
    let report = checker().check(|| submit_vs_shutdown(ShutdownMutation::Pristine));
    eprintln!("shutdown pristine: {} interleavings", report.executions);
    assert!(
        report.complete,
        "shutdown model exploration hit the execution cap"
    );
    assert!(
        report.executions >= MIN_EXECUTIONS,
        "only {} interleavings explored",
        report.executions
    );
}

#[test]
fn submit_vs_shutdown_mutant_without_recheck_is_killed() {
    assert_killed("NoRecheckUnderLock", || {
        submit_vs_shutdown(ShutdownMutation::NoRecheckUnderLock)
    });
}

#[test]
fn client_slots_registered_before_send_always_resolve() {
    // The model drives the client's real send path, whose two `closed`
    // checks per send push the full tree past the execution cap; like the
    // WFQ and sweep models, the proof is exhaustive within a preemption
    // bound — four involuntary switches here (the seeded mutant needs one).
    let report =
        checker_bounded(Some(4)).check(|| client_register_before_send(ClientMutation::Pristine));
    eprintln!("client pristine: {} interleavings", report.executions);
    assert!(
        report.complete,
        "client model exploration hit the execution cap"
    );
    assert!(
        report.executions >= MIN_EXECUTIONS,
        "only {} interleavings explored",
        report.executions
    );
}

#[test]
fn client_mutant_registering_after_send_is_killed() {
    assert_killed("RegisterAfterSend", || {
        client_register_before_send(ClientMutation::RegisterAfterSend)
    });
}

#[test]
fn shutdown_sweep_resolves_every_straggler() {
    // Like the WFQ model, the full tree overflows the execution cap; the
    // preemption bound keeps the proof exhaustive within three
    // involuntary switches.
    let report =
        checker_bounded(Some(3)).check(|| shutdown_straggler_sweep(SweepMutation::Pristine));
    eprintln!("sweep pristine: {} interleavings", report.executions);
    assert!(
        report.complete,
        "sweep model exploration hit the execution cap"
    );
    assert!(
        report.executions >= MIN_EXECUTIONS,
        "only {} interleavings explored",
        report.executions
    );
}

#[test]
fn shutdown_mutant_without_sweep_is_killed() {
    assert_killed("NoStragglerSweep", || {
        shutdown_straggler_sweep(SweepMutation::NoStragglerSweep)
    });
}

/// Regression for the bug this model *found* in `ServeDaemon::shutdown`:
/// waking the dispatchers without holding the queue lock loses the wakeup
/// when it lands between a dispatcher's flag check and its wait
/// registration — the shard sleeps through shutdown and the join hangs.
#[test]
fn shutdown_mutant_notifying_outside_lock_is_killed() {
    assert_killed("NotifyOutsideLock", || {
        shutdown_straggler_sweep(SweepMutation::NotifyOutsideLock)
    });
}
