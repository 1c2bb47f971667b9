//! Distilled concurrency models of the serving stack's three load-bearing
//! protocols, compiled only under `--cfg teal_loom` and driven by
//! `tests/model_check.rs`.
//!
//! Each model is the *body* of one model-checked execution: the test wraps
//! it in [`loom::model`]/`loom::Builder::check`, which runs it once per
//! distinct thread interleaving. Models use the real production types
//! wherever the protocol lives in a type — [`WfqScheduler`],
//! [`ResponseSlot`], [`Ticket`], the wire client's [`ClientShared`] — and
//! distill the surrounding daemon
//! plumbing (shard queues, wire sockets) down to the few operations whose
//! ordering is under test.
//!
//! Every model takes a mutation parameter: the `Pristine` variant is the
//! shipping protocol and must hold in **all** interleavings, while each
//! mutant variant re-introduces one specific historical (or plausible)
//! ordering bug and must *fail* the model — that failure is what proves
//! the checker actually explores the schedule that matters, not just the
//! happy path. A mutant no test can kill is a model too weak to trust.
//!
//! The order-log vector below deliberately uses `std::sync::Mutex`, not
//! the [`crate::sync`] facade: the log is measurement apparatus, not part
//! of the protocol under test, and keeping it off the model checker's
//! radar avoids paying scheduling points (and state-space growth) for
//! bookkeeping. Under the model's one-token-at-a-time execution a std
//! mutex is never even contended.

use crate::client::{ClientShared, Waiter};
use crate::request::{ResponseSlot, ServeError, Ticket};
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::{thread, Arc, Condvar, Mutex};
use crate::wfq::WfqScheduler;
use std::collections::VecDeque;
use std::sync::Mutex as StdMutex;
use std::sync::PoisonError;

/// Grant-order log shared by the WFQ model's tenant threads.
type OrderLog = std::sync::Arc<StdMutex<Vec<&'static str>>>;

fn log_push(log: &OrderLog, tenant: &'static str) {
    log.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .push(tenant);
}

/// Mutations for [`wfq_one_ahead`].
#[derive(Clone, Copy, Debug)]
pub enum WfqMutation {
    /// The shipping protocol: a tenant reserves its *next* window while
    /// still holding the current grant.
    Pristine,
    /// PR 8's near-miss: reserve the next window only after releasing the
    /// current grant. Each release then races the same tenant's
    /// re-enqueue; in schedules where the re-enqueue loses, the arbiter
    /// sees at most one waiter per flow and degenerates toward strict
    /// alternation — the configured 2:1 weights stop mattering.
    NoOneAhead,
}

/// One-ahead WFQ reservation: gold (weight 2, four windows) and bronze
/// (weight 1, two windows), both pre-enqueued before their threads start.
/// With one-ahead reservations the DRR credit schedule is fully determined
/// by queue contents — every interleaving must grant exactly
/// `g b g g b g`. The [`WfqMutation::NoOneAhead`] mutant breaks that in
/// schedules where a release happens before the same tenant's re-enqueue.
pub fn wfq_one_ahead(mutation: WfqMutation) {
    let sched = Arc::new(WfqScheduler::new(&[
        ("gold".to_string(), 2),
        ("bronze".to_string(), 1),
    ]));
    let order: OrderLog = std::sync::Arc::new(StdMutex::new(Vec::new()));
    // Pre-enqueue BOTH first tickets before either thread starts, so both
    // flows are backlogged at the arbiter before any window is granted —
    // the same guarantee the shard drain loop provides in production. If
    // gold's thread started before bronze's enqueue, a schedule where gold
    // runs to completion first would legitimately grant it every window.
    let tenants = [("gold", 4usize), ("bronze", 2usize)];
    let mut firsts = tenants
        .iter()
        .map(|(tenant, _)| sched.enqueue(tenant))
        .collect::<Vec<_>>();
    let mut handles = Vec::new();
    for (tenant, windows) in tenants {
        let sched = Arc::clone(&sched);
        let order = std::sync::Arc::clone(&order);
        let first = firsts.remove(0);
        handles.push(thread::spawn_named(tenant, move || {
            let mut reservation = Some(first);
            for i in 0..windows {
                let Some(r) = reservation.take() else {
                    unreachable!("reservation is replenished every non-final window")
                };
                let grant = sched.wait(r);
                log_push(&order, tenant);
                match mutation {
                    WfqMutation::Pristine => {
                        if i + 1 < windows {
                            reservation = Some(sched.enqueue(tenant));
                        }
                        drop(grant);
                    }
                    WfqMutation::NoOneAhead => {
                        drop(grant);
                        if i + 1 < windows {
                            reservation = Some(sched.enqueue(tenant));
                        }
                    }
                }
            }
        }));
    }
    for h in handles {
        if h.join().is_err() {
            panic!("wfq tenant thread panicked");
        }
    }
    let got = order.lock().unwrap_or_else(PoisonError::into_inner).clone();
    assert_eq!(
        got,
        ["gold", "bronze", "gold", "gold", "bronze", "gold"],
        "DRR grant order must be schedule-independent with one-ahead reservations"
    );
}

/// Mutations for [`submit_vs_shutdown`].
#[derive(Clone, Copy, Debug)]
pub enum ShutdownMutation {
    /// The shipping protocol: submit re-checks the accepting flag *under
    /// the queue lock* before enqueueing its slot.
    Pristine,
    /// PR 4's bug shape: trust the lock-free fast-path check alone. A
    /// submitter that passes the fast path, loses the race to shutdown's
    /// flag-store + drain, and only then acquires the queue lock enqueues
    /// into a queue nobody will ever fail — its ticket hangs forever.
    NoRecheckUnderLock,
}

/// Submit racing shutdown's `fail_all` drain, distilled from the daemon's
/// accept/shutdown handshake. Two submitters race one shutdown; the
/// invariant is *no stranded ticket*: every submit either observes
/// shutdown at enqueue or its slot is eventually fulfilled (here, by the
/// drain). The mutant strands a slot, which the checker reports as a
/// deadlock when the parent redeems the ticket.
pub fn submit_vs_shutdown(mutation: ShutdownMutation) {
    struct Gate {
        accepting: AtomicBool,
        queue: Mutex<Vec<Arc<ResponseSlot>>>,
    }
    let gate = Arc::new(Gate {
        accepting: AtomicBool::new(true),
        queue: Mutex::new(Vec::new()),
    });
    let mut submitters = Vec::new();
    for _ in 0..2 {
        let gate = Arc::clone(&gate);
        submitters.push(thread::spawn_named("submit", move || -> Option<Ticket> {
            if !gate.accepting.load(Ordering::SeqCst) {
                return None; // shed on the lock-free fast path
            }
            let slot = ResponseSlot::new();
            let mut q = gate.queue.lock();
            if matches!(mutation, ShutdownMutation::Pristine)
                && !gate.accepting.load(Ordering::SeqCst)
            {
                // Shutdown won the race between our fast-path check and
                // this lock acquisition; its drain may already be done, so
                // enqueueing now would strand the slot.
                return None;
            }
            q.push(Arc::clone(&slot));
            drop(q);
            Some(Ticket::new(slot))
        }));
    }
    // Shutdown runs on the model's root thread: close the gate, then fail
    // everything queued. Order is load-bearing — the store must precede
    // the drain so the under-lock recheck is conclusive.
    gate.accepting.store(false, Ordering::SeqCst);
    let drained: Vec<Arc<ResponseSlot>> = {
        let mut q = gate.queue.lock();
        std::mem::take(&mut *q)
    };
    for slot in drained {
        slot.fulfill(Err(ServeError::ShuttingDown));
    }
    for h in submitters {
        let Ok(outcome) = h.join() else {
            panic!("submitter thread panicked");
        };
        if let Some(ticket) = outcome {
            // Every accepted ticket must resolve; a stranded slot parks
            // this wait forever and the checker flags the deadlock.
            assert_eq!(ticket.wait(), Err(ServeError::ShuttingDown));
        }
    }
}

/// Mutations for [`client_register_before_send`].
#[derive(Clone, Copy, Debug)]
pub enum ClientMutation {
    /// The shipping protocol — the client's real send path,
    /// [`ClientShared::send`], which `submit` and `stats` both go through:
    /// the waiter is registered in the pending map *before* its bytes are
    /// handed to the wire.
    Pristine,
    /// Register the slot only after the send. The reader thread can then
    /// pick up the reply, find no slot under the tag, drop the reply on
    /// the floor — and the late-registered slot waits forever.
    RegisterAfterSend,
}

/// The client's register-before-send ordering: the real [`ClientShared`]
/// (pending map, send path, the reader's `take`) over a distilled wire — a
/// tag queue standing in for the socket. Two requests are in flight so the
/// reader's drain interleaves with the writer's second registration.
/// Invariant: both tickets resolve in every schedule.
pub fn client_register_before_send(mutation: ClientMutation) {
    struct Wire {
        sent: Mutex<VecDeque<u64>>,
        arrived: Condvar,
    }
    let wire = Arc::new(Wire {
        sent: Mutex::new(VecDeque::new()),
        arrived: Condvar::new(),
    });
    let shared = Arc::new(ClientShared::default());
    const TAGS: [u64; 2] = [7, 8];

    let reader = {
        let wire = Arc::clone(&wire);
        let shared = Arc::clone(&shared);
        thread::spawn_named("reader", move || {
            for _ in TAGS {
                let tag = {
                    let mut sent = wire.sent.lock();
                    loop {
                        if let Some(tag) = sent.pop_front() {
                            break tag;
                        }
                        sent = wire.arrived.wait(sent);
                    }
                };
                // A reply whose tag has no registered slot is dropped on
                // the floor (the production reader can do nothing else
                // with it) — exactly the leak the mutant resurrects.
                if let Some(waiter) = shared.take(tag) {
                    waiter.fail("model reply");
                }
            }
        })
    };

    // The writer runs on the model's root thread.
    let mut tickets = Vec::new();
    for tag in TAGS {
        let slot = ResponseSlot::new();
        let waiter = Waiter::Reply(Arc::clone(&slot));
        let write = || {
            wire.sent.lock().push_back(tag);
            wire.arrived.notify_one();
            Ok(())
        };
        match mutation {
            ClientMutation::Pristine => shared.send(tag, waiter, write),
            ClientMutation::RegisterAfterSend => {
                let _ = write();
                shared.pending.lock().insert(tag, waiter);
            }
        }
        tickets.push(Ticket::new(slot));
    }
    for ticket in tickets {
        // Hangs (deadlock, caught by the checker) if the reader dropped
        // this ticket's reply before the slot was registered.
        assert!(ticket.wait().is_err());
    }
    if reader.join().is_err() {
        panic!("reader thread panicked");
    }
}

/// Mutations for [`shutdown_straggler_sweep`].
#[derive(Clone, Copy, Debug)]
pub enum SweepMutation {
    /// The shipping protocol: after joining the worker, shutdown sweeps
    /// the queue and fails every straggler ticket.
    Pristine,
    /// Omit the post-join sweep. A request enqueued before the stop flag
    /// but abandoned by the exiting worker is never failed — its ticket
    /// hangs.
    NoStragglerSweep,
    /// Issue shutdown's wakeup without holding the queue lock — the bug
    /// this model originally *found* in `ServeDaemon::shutdown`. The stop
    /// flag is an atomic the worker checks under the queue lock, so a bare
    /// store+notify can land between the worker's flag check and its wait
    /// registration; the worker then sleeps through shutdown and the join
    /// hangs.
    NotifyOutsideLock,
}

/// PR 4 regression, distilled: a worker that abandons queued work when the
/// stop flag is up, a submitter that enqueues-then-waits, and a shutdown
/// that must sweep stragglers after the join. Invariant: the submitter's
/// ticket resolves in every schedule — served by the worker, failed by the
/// sweep, or refused at enqueue.
pub fn shutdown_straggler_sweep(mutation: SweepMutation) {
    struct Shard {
        stop: AtomicBool,
        queue: Mutex<VecDeque<Arc<ResponseSlot>>>,
        work: Condvar,
    }
    let shard = Arc::new(Shard {
        stop: AtomicBool::new(false),
        queue: Mutex::new(VecDeque::new()),
        work: Condvar::new(),
    });

    let worker = {
        let shard = Arc::clone(&shard);
        thread::spawn_named("worker", move || {
            let mut q = shard.queue.lock();
            loop {
                // Stop is checked before popping: shutdown abandons queued
                // work by design, and the post-join sweep is what keeps
                // that abandonment from stranding tickets.
                if shard.stop.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(slot) = q.pop_front() {
                    drop(q);
                    slot.fulfill(Err(ServeError::Internal("model served".to_string())));
                    q = shard.queue.lock();
                    continue;
                }
                q = shard.work.wait(q);
            }
        })
    };

    let submitter = {
        let shard = Arc::clone(&shard);
        thread::spawn_named("submit", move || {
            let slot = ResponseSlot::new();
            let ticket = Ticket::new(Arc::clone(&slot));
            {
                let mut q = shard.queue.lock();
                if shard.stop.load(Ordering::SeqCst) {
                    return; // refused at enqueue; nothing to wait for
                }
                q.push_back(slot);
                shard.work.notify_all();
            }
            // Must resolve in every schedule: served or swept.
            assert!(ticket.wait().is_err());
        })
    };

    // Shutdown runs on the model's root thread. The wakeup holds the
    // queue lock — same reason as in `ServeDaemon::shutdown`: the stop
    // flag is an atomic the worker checks under that lock, so notifying
    // without it can slip into the window between the worker's flag check
    // and its wait registration (see `SweepMutation::NotifyOutsideLock`).
    shard.stop.store(true, Ordering::SeqCst);
    if matches!(mutation, SweepMutation::NotifyOutsideLock) {
        shard.work.notify_all();
    } else {
        let q = shard.queue.lock();
        shard.work.notify_all();
        drop(q);
    }
    if worker.join().is_err() {
        panic!("worker thread panicked");
    }
    if !matches!(mutation, SweepMutation::NoStragglerSweep) {
        // NotifyOutsideLock keeps the sweep so its kill isolates the
        // lost-wakeup, not a missing sweep.
        let stragglers: VecDeque<Arc<ResponseSlot>> = {
            let mut q = shard.queue.lock();
            std::mem::take(&mut *q)
        };
        for slot in stragglers {
            slot.fulfill(Err(ServeError::ShuttingDown));
        }
    }
    if submitter.join().is_err() {
        panic!("submitter thread panicked");
    }
}
