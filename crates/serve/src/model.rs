//! Concurrency models of the serving stack's load-bearing protocols,
//! compiled only under `--cfg teal_loom` and driven by
//! `tests/model_check.rs`.
//!
//! Each model is the *body* of one model-checked execution: the test wraps
//! it in [`loom::model`]/`loom::Builder::check`, which runs it once per
//! distinct thread interleaving. Every model drives the shipping type its
//! protocol lives in — the daemon's shard queue (`ShardQueue`),
//! [`ResponseSlot`] and [`Ticket`], the event loop's [`Completions`], the
//! wire client's [`ClientShared`] — and stands in only for what is outside
//! the protocol: the model-serving work, the wire socket, the eventfd.
//!
//! Every model takes a mutation parameter: the `Pristine` variant is the
//! shipping protocol and must hold in **all** interleavings, while each
//! mutant variant re-introduces one specific historical (or plausible)
//! ordering bug and must *fail* the model — that failure is what proves
//! the checker actually explores the schedule that matters, not just the
//! happy path. A mutant no test can kill is a model too weak to trust.

use crate::client::{ClientShared, Waiter};
use crate::daemon::ShardQueue;
use crate::request::{Completions, ResponseSlot, ServeError, Ticket};
use crate::sync::{thread, Arc, Condvar, Mutex};
use std::collections::VecDeque;

type SlotQueue = ShardQueue<Arc<ResponseSlot>>;

/// One request deep: a second push waits for space (or for close), and one
/// drain takes one request.
const DEPTH: usize = 1;

/// One submitter pushes two requests into a real shard queue while the
/// root thread shuts it down in `ServeDaemon::shutdown`'s order: close, let
/// the dispatcher finish, sweep. The dispatcher serves every drain until
/// the queue is closed and empty, so its last drains follow the close, on
/// the root thread; with `dies`, it is a thread that takes one drain and
/// exits, as one that panicked would. `push` and `close` are the queue's
/// own methods or one mutant's inline twin. Invariant: every accepted
/// ticket resolves; a stranded one deadlocks the root's wait.
fn race_shutdown(
    dies: bool,
    push: fn(&SlotQueue, Arc<ResponseSlot>) -> bool,
    close: fn(&SlotQueue),
    sweep: bool,
) {
    let queue = Arc::new(SlotQueue::new(DEPTH));
    let submitter = {
        let queue = Arc::clone(&queue);
        thread::spawn_named("submit", move || {
            let slots = (0..2).map(|_| ResponseSlot::new());
            let accepted = slots.filter(|slot| push(&queue, Arc::clone(slot)));
            accepted.map(Ticket::new).collect::<Vec<_>>()
        })
    };
    let dying = dies.then(|| {
        let queue = Arc::clone(&queue);
        thread::spawn_named("dispatch", move || queue.next_drain(|_| None).map(serve))
    });
    close(&queue);
    match dying {
        Some(h) => assert!(h.join().is_ok(), "dispatcher thread panicked"),
        None => {
            while let Some(drained) = queue.next_drain(|_| None) {
                serve(drained);
            }
        }
    }
    if sweep {
        for slot in queue.sweep() {
            slot.fulfill(Err(ServeError::ShuttingDown));
        }
    }
    let Ok(accepted) = submitter.join() else {
        panic!("submitter thread panicked");
    };
    for ticket in accepted {
        assert!(ticket.wait().is_err());
    }
}

/// The dispatcher's answer to a drained batch (the model serves nothing).
fn serve(drained: Vec<Arc<ResponseSlot>>) {
    for slot in drained {
        slot.fulfill(Err(ServeError::Internal("model served".to_string())));
    }
}

/// Mutations for [`submit_vs_shutdown`].
#[derive(Clone, Copy, Debug)]
pub enum ShutdownMutation {
    /// The shipping protocol: `ShardQueue::push` rechecks the closed flag
    /// *under the queue lock* before enqueueing.
    Pristine,
    /// PR 4's bug shape: read the flag before taking the lock, never under
    /// it. A submitter that reads the queue open and takes the lock only
    /// after the close, the dispatcher's exit and the sweep enqueues into a
    /// queue nobody reads again — its ticket hangs forever.
    NoRecheckUnderLock,
}

/// Submit racing shutdown, with a dispatcher that serves every drain.
pub fn submit_vs_shutdown(mutation: ShutdownMutation) {
    let push: fn(&SlotQueue, Arc<ResponseSlot>) -> bool = match mutation {
        ShutdownMutation::Pristine => |queue, slot| queue.push(slot, false).is_ok(),
        ShutdownMutation::NoRecheckUnderLock => |queue, slot| {
            if queue.closed.load() {
                return false;
            }
            let mut q = queue.items.lock();
            while q.len() >= DEPTH && !queue.closed.load() {
                q = queue.space.wait(q);
            }
            q.push_back(slot);
            drop(q);
            queue.nonempty.notify_one();
            true
        },
    };
    race_shutdown(false, push, SlotQueue::close, true);
}

/// Mutations for [`shutdown_straggler_sweep`].
#[derive(Clone, Copy, Debug)]
pub enum SweepMutation {
    /// The shipping protocol: `ShardQueue::close`, then after joining the
    /// dispatcher, `ShardQueue::sweep` fails every straggler.
    Pristine,
    /// Omit the post-join sweep. A request pushed after the dispatcher's
    /// one drain is never answered — its ticket hangs.
    NoStragglerSweep,
    /// Issue close's wakeup without holding the queue lock — the bug this
    /// model originally *found* in `ServeDaemon::shutdown`: a bare
    /// store+notify can land between the dispatcher's flag read and its
    /// wait, so it sleeps through shutdown and the join hangs.
    NotifyOutsideLock,
}

/// Shutdown after a dispatcher death: what the submitter pushes after the
/// dispatcher's one drain only the sweep can answer.
pub fn shutdown_straggler_sweep(mutation: SweepMutation) {
    let close: fn(&SlotQueue) = match mutation {
        SweepMutation::NotifyOutsideLock => |queue| {
            queue.closed.store(true);
            queue.nonempty.notify_all();
            queue.space.notify_all();
        },
        SweepMutation::Pristine | SweepMutation::NoStragglerSweep => SlotQueue::close,
    };
    // NotifyOutsideLock keeps the sweep so its kill isolates the lost
    // wakeup, not a missing sweep.
    let sweep = !matches!(mutation, SweepMutation::NoStragglerSweep);
    race_shutdown(true, |q, slot| q.push(slot, false).is_ok(), close, sweep);
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

/// Mutations for [`completion_doorbell`].
#[derive(Clone, Copy, Debug)]
pub enum DoorbellMutation {
    /// The shipping loop: drain the doorbell, then take the completion
    /// queue until a take comes back empty.
    Pristine,
    /// Take the queue first and drain the doorbell after. A fulfillment
    /// landing between the last (empty) take and the drain rings a bell the
    /// drain swallows: its pair sits in the queue while the loop sleeps.
    TakeBeforeDrain,
}

/// The event loop's completion doorbell, distilled: two dispatcher threads
/// fulfill [`ResponseSlot::with_notify`] slots of two connections into the
/// real [`Completions`] queue, whose waker rings a stand-in eventfd — a
/// count under a mutex, waited on like a level-triggered `epoll_wait` and
/// zeroed like `EventFd::drain`. Invariant: in every schedule the loop
/// receives every pair, each naming an already-fulfilled slot. The real
/// loop's 200 ms epoll timeout is left out, so a swallowed ring is a
/// deadlock here, not a late reply.
pub fn completion_doorbell(mutation: DoorbellMutation) {
    // The eventfd: a ring count and the condvar `epoll_wait` parks on.
    let bell = Arc::new((Mutex::new(0u64), Condvar::new()));
    let completions = {
        let bell = Arc::clone(&bell);
        Completions::with_waker(Box::new(move || {
            *bell.0.lock() += 1;
            bell.1.notify_one();
        }))
    };
    // `(token, id)`: one in-flight request on each of connections 0 and 1.
    const PAIRS: [(u64, u64); 2] = [(0, 7), (1, 7)];
    let (tickets, dispatchers): (Vec<_>, Vec<_>) = PAIRS
        .map(|(token, id)| {
            let slot = ResponseSlot::with_notify(Arc::clone(&completions), token, id);
            let ticket = Ticket::new(Arc::clone(&slot));
            let fulfill = move || slot.fulfill(Err(ServeError::ShuttingDown));
            (ticket, thread::spawn_named("dispatch", fulfill))
        })
        .into_iter()
        .unzip();

    // The loop runs on the model's root thread.
    let (mut received, mut taken) = (Vec::new(), Vec::new());
    while received.len() < PAIRS.len() {
        let mut rings = bell.0.lock();
        while *rings == 0 {
            // Hangs (deadlock, caught by the checker) once a ring is lost.
            rings = bell.1.wait(rings);
        }
        let drain_first = matches!(mutation, DoorbellMutation::Pristine);
        if drain_first {
            *rings = 0;
        }
        drop(rings);
        loop {
            completions.take(&mut taken);
            if taken.is_empty() {
                break;
            }
            for &(token, id) in &taken {
                let fulfilled = tickets[token as usize].is_ready();
                assert!(fulfilled, "({token}, {id}) announced before its slot");
            }
            received.append(&mut taken);
        }
        if !drain_first {
            *bell.0.lock() = 0;
        }
    }
    for h in dispatchers {
        assert!(h.join().is_ok(), "dispatcher thread panicked");
    }
    received.sort_unstable();
    assert_eq!(received, PAIRS, "every completion arrives exactly once");
}
