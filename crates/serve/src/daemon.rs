//! The transport-agnostic serving core: per-topology dispatch shards, each
//! with its own request queue, micro-batching coalescer, admission control,
//! and ADMM arena — behind the narrow `submit(SubmitRequest) -> Ticket`
//! API every front end (in-process callers, the TCP [`crate::TealServer`])
//! shares.
//!
//! Concurrent callers [`ServeDaemon::submit`] a [`SubmitRequest`]; the
//! submit path validates it, applies admission control, and routes it to
//! its topology's *shard* — a dedicated dispatcher thread with a private
//! queue — which drains, coalesces, and pushes each batch through
//! [`ServingContext::try_allocate_batch_with`] so unrelated clients'
//! matrices share one set of forward-pass matrix products — the paper's
//! "TE allocation as one fixed-cost batched compute step", turned into a
//! service. On multicore, shards are true parallel lanes: two topologies'
//! windows overlap instead of serializing behind one dispatcher.
//!
//! The hot path is built from commutative operations (requests to
//! different topologies share *no* per-window mutable state, so their
//! dispatch commutes and needs no coordination — and the same holds across
//! *connections* of the wire front end, which all funnel into this one
//! submit path): enqueue appends under a shard-local queue lock held for
//! O(1), each shard snapshots its context from the [`ModelRegistry`] (see
//! its docs), and responses land in per-request slots nobody else touches.
//! There is no lock held across model compute, and no two shards ever
//! share a lock on the hot path.
//!
//! # Admission control and deadlines
//!
//! A request may carry a relative deadline ([`SubmitRequest::deadline`]).
//! Admission control acts at two points:
//!
//! * **At enqueue (shed):** a zero/elapsed budget is refused immediately
//!   with [`ServeError::DeadlineExceeded`], and a deadline'd request
//!   arriving at a full shard queue is refused with
//!   [`ServeError::Overloaded`] instead of blocking (queueing it would
//!   only burn its budget; deadline-less requests keep the classic
//!   blocking backpressure). Sheds count in
//!   [`crate::TelemetrySnapshot::shed`].
//! * **At drain (expire):** when the shard forms a batch, requests whose
//!   deadline passed while queued get [`ServeError::DeadlineExceeded`]
//!   instead of occupying a lane in the forward pass. Expiries count in
//!   [`crate::TelemetrySnapshot::expired`].
//!
//! # Failure-aware requests (§5.3 end to end)
//!
//! A request may carry failed-link overrides. The paper's failure model
//! (§3.1 fn. 1) is that a failed link is *just a capacity change*, and the
//! shard treats it as exactly that: it groups each drained window *by
//! override signature* (canonicalized link set) — plain requests are the
//! empty signature — and every group takes the same path. A failure group's
//! only extra step is one [`Topology::with_failed_edges`] clone of the
//! serving topology, built from its signature right before
//! [`ServingContext::try_allocate_batch_on_with`]; nothing is cached across
//! windows (the build is under 1 % of the window it precedes at every
//! topology size this repo serves). A failure window therefore serves
//! *without retraining* — the paper's failure-recovery path, reachable end
//! to end from a socket.
//!
//! # Shard arena ownership
//!
//! Every shard owns one [`teal_core::BatchScratch`], reused by every window
//! it serves, plain or failure-overridden: a scratch carries no weight- or
//! topology-derived state across windows, only buffer capacity (each window
//! remints the solver against its own skeleton), so plain and failed-link
//! windows commute on one arena. Only the shard's dispatcher thread ever
//! touches it. The scratch lives in the shard, *not* in the serving context
//! — a hot checkpoint swap replaces the context `Arc` but leaves the shard's
//! arena (and its warmed-up capacity) untouched, and the next window simply
//! runs against the new weights.
//!
//! # Shutdown protocol
//!
//! `shutdown` sets the flag, then wakes and joins every shard. Submitters
//! re-check the flag *under the shard's queue lock* — the same lock the
//! shard holds for its final is-empty check — so a request is either
//! enqueued before the shard's last drain (and served) or observes the
//! flag and gets [`ServeError::ShuttingDown`]. A post-join sweep fails any
//! conceivable straggler rather than stranding its ticket.

// teal-lint: checked-sync
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::{thread, Arc, Condvar, Mutex};
use crate::telemetry::now;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};
use teal_core::{AllocError, BatchScratch, PolicyModel, ServingContext};
use teal_topology::Topology;
use teal_traffic::TrafficMatrix;

use crate::registry::ModelRegistry;
use crate::request::{ResponseSlot, ServeError, ServeReply, SubmitRequest, Ticket};
use crate::telemetry::{ShardStats, StageTimings, Telemetry, TelemetrySnapshot, Trace};
use crate::wfq::WfqScheduler;

/// One queued request (its topology is implied by the shard holding it):
/// what to solve, and who is waiting for the answer.
struct Request {
    tm: TrafficMatrix,
    /// Canonical failed-link override set; empty = steady-state path.
    signature: Vec<(usize, usize)>,
    caller: Caller,
}

/// The waiting side of a [`Request`] — what is left of it once its matrix
/// has been moved into the window's batch.
struct Caller {
    /// Stage trace, stamped at enqueue; the shard stamps the solve span as
    /// the request moves through the pipeline.
    trace: Trace,
    /// Absolute expiry minted from [`SubmitRequest::deadline`] at enqueue.
    expires: Option<Instant>,
    /// Effective tenant id (`"default"` for untagged requests), shared so
    /// per-chunk accounting clones a pointer, not a string.
    tenant: Arc<str>,
    slot: Arc<ResponseSlot>,
}

/// Daemon tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Matrices per coalesced `allocate_batch` call. Larger batches
    /// amortize more per-pass overhead but add queueing delay for the
    /// requests at the front.
    pub max_batch: usize,
    /// After the first request of a drain arrives, linger this long for
    /// stragglers before dispatching (micro-batching window). Zero
    /// dispatches immediately. Deadline'd traffic caps the wait: a linger
    /// never burns more than half of the tightest queued budget (see
    /// `shard_loop`).
    pub linger: Duration,
    /// Per-shard queue bound. Deadline-less submitters block once this many
    /// requests are waiting for one topology (backpressure instead of
    /// unbounded memory growth); deadline'd requests are shed instead.
    pub queue_capacity: usize,
    /// Cap on pool threads (submitting dispatcher + helpers) each shard may
    /// use for its windows' forward jobs (the only stage that submits any).
    /// `None` = bounded only by `teal_nn::pool`'s process-wide helper
    /// budget. Set this when topology counts grow past core
    /// counts so shards degrade into roughly-even lanes instead of
    /// racing for that budget. Setting a cap also arms the per-tenant
    /// deficit-round-robin window arbiter (see [`crate::wfq`]): shards
    /// sharing one budget take turns by [`ServeConfig::tenant_weights`].
    pub shard_threads: Option<usize>,
    /// Weighted-fair-queuing weights by tenant id. Unlisted tenants
    /// (including `"default"`) weigh 1. Only consulted when
    /// [`ServeConfig::shard_threads`] is set — without a shared budget,
    /// shards are independent lanes and there is nothing to arbitrate.
    pub tenant_weights: Vec<(String, u32)>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 16,
            linger: Duration::from_micros(200),
            queue_capacity: 1024,
            shard_threads: None,
            tenant_weights: Vec::new(),
        }
    }
}

/// One topology's dispatch lane: private queue, condvars, and telemetry
/// slot. The shard's dispatcher thread additionally owns the shard's
/// [`BatchScratch`] (thread-local by construction — it lives on the
/// dispatcher's stack and is never shared).
struct Shard {
    topology: String,
    queue: Mutex<VecDeque<Request>>,
    /// Signals the shard dispatcher that work (or shutdown) is pending.
    nonempty: Condvar,
    /// Signals submitters that queue space freed up.
    space: Condvar,
    /// This shard's telemetry slot (also registered in the global
    /// [`Telemetry`] for snapshots).
    stats: Arc<Mutex<ShardStats>>,
}

/// A shard plus its dispatcher thread handle (held by the daemon for
/// joining at shutdown).
struct ShardHandle {
    shard: Arc<Shard>,
    thread: thread::JoinHandle<()>,
}

/// Shared state between submitters and the shard dispatchers.
struct Inner<M: PolicyModel> {
    registry: ModelRegistry<M>,
    cfg: ServeConfig,
    /// Topology id → dispatch shard, created lazily on first submit.
    /// Locked only to route a request (a map read) or create a shard —
    /// never across compute.
    shards: Mutex<HashMap<String, ShardHandle>>,
    shutdown: AtomicBool,
    /// `Arc` so wire front ends (connection writer threads, the event
    /// loop) can record wire-level events against the same counters the
    /// serving core feeds.
    telemetry: Arc<Telemetry>,
    /// Per-tenant DRR window arbiter; armed iff `cfg.shard_threads` is set
    /// (shards sharing one thread budget contend; independent shards
    /// don't).
    wfq: Option<WfqScheduler>,
}

/// The long-running TE serving core (see module docs). Transport front
/// ends ([`crate::TealServer`]) and in-process callers share this object.
pub struct ServeDaemon<M: PolicyModel + 'static> {
    inner: Arc<Inner<M>>,
}

impl<M: PolicyModel + 'static> ServeDaemon<M> {
    /// Start the daemon over `registry` (which may be empty; topologies can
    /// be registered and swapped while serving). Shards spawn lazily: the
    /// first request for a registered topology brings up its dispatch lane.
    pub fn start(registry: ModelRegistry<M>, cfg: ServeConfig) -> Self {
        let wfq = cfg
            .shard_threads
            .is_some()
            .then(|| WfqScheduler::new(&cfg.tenant_weights));
        ServeDaemon {
            inner: Arc::new(Inner {
                registry,
                cfg,
                shards: Mutex::new(HashMap::new()),
                shutdown: AtomicBool::new(false),
                telemetry: Arc::new(Telemetry::default()),
                wfq,
            }),
        }
    }

    /// Start with default tuning.
    pub fn with_defaults(registry: ModelRegistry<M>) -> Self {
        Self::start(registry, ServeConfig::default())
    }

    /// The topology/model registry (register or hot-swap while serving).
    pub fn registry(&self) -> &ModelRegistry<M> {
        &self.inner.registry
    }

    /// A consistent copy of the serving statistics.
    pub fn stats(&self) -> TelemetrySnapshot {
        self.inner.telemetry.snapshot()
    }

    /// The tuning configuration this daemon was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.inner.cfg
    }

    /// The live telemetry counters — shared with wire front ends so they
    /// can record wire-level events (e.g. unmatched replies) alongside the
    /// serving core's own.
    // The loom build compiles no wire front end, so nothing calls this there.
    #[cfg_attr(teal_loom, allow(dead_code))]
    pub(crate) fn telemetry(&self) -> &Arc<Telemetry> {
        &self.inner.telemetry
    }

    /// The shard for `topology`, creating it (and its dispatcher thread) on
    /// first use. `None` when the daemon is shutting down — checked under
    /// the shard-map lock, so no shard can appear after [`Self::shutdown`]
    /// has collected the map.
    fn shard(&self, topology: &str) -> Option<Arc<Shard>> {
        let mut map = self.inner.shards.lock();
        if self.inner.shutdown.load(Ordering::Acquire) {
            return None;
        }
        if let Some(h) = map.get(topology) {
            return Some(Arc::clone(&h.shard));
        }
        let shard = Arc::new(Shard {
            topology: topology.to_string(),
            queue: Mutex::new(VecDeque::new()),
            nonempty: Condvar::new(),
            space: Condvar::new(),
            stats: self.inner.telemetry.shard_stats(topology),
        });
        let thread = {
            let inner = Arc::clone(&self.inner);
            let shard = Arc::clone(&shard);
            thread::spawn_named(&format!("teal-serve-{topology}"), move || {
                shard_loop(&inner, &shard)
            })
        };
        map.insert(
            topology.to_string(),
            ShardHandle {
                shard: Arc::clone(&shard),
                thread,
            },
        );
        Some(shard)
    }

    /// Enqueue a request; returns a [`Ticket`] immediately. Blocks only
    /// when the topology's shard queue is at capacity *and* the request
    /// carries no deadline (backpressure); deadline'd requests are shed
    /// instead of queued late (see the module docs' admission-control
    /// section).
    pub fn submit(&self, req: SubmitRequest) -> Ticket {
        let slot = ResponseSlot::new();
        self.submit_on(req, Arc::clone(&slot));
        Ticket::new(slot)
    }

    /// [`ServeDaemon::submit`] into a caller-provided response slot — the
    /// hook the wire front end uses so it can register the slot in its
    /// reply map *before* any fulfillment (including synchronous submit
    /// errors) can fire.
    pub(crate) fn submit_on(&self, req: SubmitRequest, slot: Arc<ResponseSlot>) {
        if self.inner.shutdown.load(Ordering::Acquire) {
            slot.fulfill(Err(ServeError::ShuttingDown));
            return;
        }
        // Route by topology. Unknown ids fail here instead of spawning a
        // dispatch lane per typo'd request.
        let Some(ctx) = self.inner.registry.get(&req.topology) else {
            slot.fulfill(Err(ServeError::UnknownTopology(req.topology)));
            return;
        };
        // Validate the failure overrides against the serving topology up
        // front: a typo'd link must be a per-request error, not a silent
        // no-op override (or a whole-group BadTopology later).
        let signature = req.override_signature();
        let topo = ctx.env().topo();
        for &(a, b) in &signature {
            if a >= topo.num_nodes()
                || b >= topo.num_nodes()
                || (topo.find_edge(a, b).is_none() && topo.find_edge(b, a).is_none())
            {
                slot.fulfill(Err(ServeError::BadRequest(format!(
                    "failed link {a}-{b} does not exist in topology {:?}",
                    req.topology
                ))));
                return;
            }
        }
        let Some(shard) = self.shard(&req.topology) else {
            slot.fulfill(Err(ServeError::ShuttingDown));
            return;
        };
        let now = now();
        // Shed a request whose budget is already gone: enqueueing it could
        // only produce a stale allocation nobody will apply.
        if req.deadline.is_some_and(|d| d.is_zero()) {
            self.inner.telemetry.on_shed();
            slot.fulfill(Err(ServeError::DeadlineExceeded));
            return;
        }
        let tenant: Arc<str> = Arc::from(req.tenant_id());
        let request = Request {
            tm: req.tm,
            signature,
            caller: Caller {
                trace: Trace::at(now),
                expires: req.deadline.map(|d| now + d),
                tenant,
                slot: Arc::clone(&slot),
            },
        };
        {
            let mut q = shard.queue.lock();
            if request.caller.expires.is_some() && q.len() >= self.inner.cfg.queue_capacity {
                // Admission control: a deadline'd request meeting a full
                // queue is refused *now* — blocking would silently convert
                // its budget into queueing delay.
                drop(q);
                self.inner.telemetry.on_shed();
                slot.fulfill(Err(ServeError::Overloaded(format!(
                    "shard {:?} queue full ({} waiting)",
                    shard.topology, self.inner.cfg.queue_capacity
                ))));
                return;
            }
            while q.len() >= self.inner.cfg.queue_capacity
                && !self.inner.shutdown.load(Ordering::Acquire)
            {
                q = shard.space.wait(q);
            }
            // Checked under the queue lock: the shard's final
            // drain-or-exit decision holds this same lock, so either this
            // push lands before that drain (and is served) or the flag is
            // visible here and the request is refused — never enqueued
            // after the last drain and dropped (the submit/shutdown race).
            if self.inner.shutdown.load(Ordering::Acquire) {
                drop(q);
                slot.fulfill(Err(ServeError::ShuttingDown));
                return;
            }
            q.push_back(request);
            self.inner.telemetry.on_enqueue();
        }
        shard.nonempty.notify_one();
    }

    /// Submit a plain request and block for the reply (convenience for
    /// synchronous callers).
    pub fn allocate(
        &self,
        topology: impl Into<String>,
        tm: TrafficMatrix,
    ) -> Result<ServeReply, ServeError> {
        self.submit(SubmitRequest::new(topology, tm)).wait()
    }

    /// Stop accepting requests, serve everything already queued on every
    /// shard, and join the shard dispatchers. Idempotent, callable from any
    /// thread (even concurrently with submitters); also runs on drop.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::Release);
        // Collect the shard map first: creation re-checks the flag under
        // this lock, so no new shard can appear afterwards.
        let handles: Vec<ShardHandle> = {
            let mut map = self.inner.shards.lock();
            map.drain().map(|(_, h)| h).collect()
        };
        for h in &handles {
            // The wakeup must hold the queue lock: the shutdown flag is an
            // atomic the dispatcher checks *under* that lock, so a bare
            // notify could land in the window between a dispatcher's flag
            // check and its wait registration — the store+notify would
            // both be missed and the shard would sleep through shutdown
            // forever, hanging the join below. Taking the lock first means
            // any dispatcher that saw the flag clear has already parked
            // (and gets this notify), and any later one sees the flag set.
            // `model::shutdown_straggler_sweep` checks exactly this
            // ordering (`SweepMutation::NotifyOutsideLock`).
            let q = h.shard.queue.lock();
            h.shard.nonempty.notify_all();
            h.shard.space.notify_all();
            drop(q);
        }
        for h in handles {
            // A dispatcher that panicked mid-drain must not abort shutdown
            // (this also runs on drop): its queued requests are swept below
            // so no client hangs on a stranded ticket.
            let _ = h.thread.join();
            // Safety net: the queue-lock protocol above means the shard
            // exits only with an empty queue, but a stranded ticket would
            // hang its client forever — sweep and refuse rather than trust.
            let mut q = h.shard.queue.lock();
            let leftover: Vec<Request> = q.drain(..).collect();
            drop(q);
            if !leftover.is_empty() {
                self.inner.telemetry.on_drain(leftover.len());
            }
            for req in leftover {
                self.inner.telemetry.on_error();
                req.caller.slot.fulfill(Err(ServeError::ShuttingDown));
            }
        }
    }
}

impl<M: PolicyModel + 'static> Drop for ServeDaemon<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One shard's dispatcher: drain the shard queue, coalesce, serve through
/// the shard-owned arena, repeat until shutdown drains it dry.
fn shard_loop<M: PolicyModel>(inner: &Inner<M>, shard: &Shard) {
    // The shard's private ADMM arena, shared by every window it serves (see
    // module docs for ownership rules).
    let mut scratch = BatchScratch::new();
    loop {
        let drained = {
            let mut q = shard.queue.lock();
            while q.is_empty() && !inner.shutdown.load(Ordering::Acquire) {
                q = shard.nonempty.wait(q);
            }
            if q.is_empty() {
                // Shutdown with an empty queue: done. This decision is made
                // under the queue lock — see `submit_on` for why no request
                // can slip in afterwards.
                return;
            }
            // Micro-batching window: once work exists, linger briefly so
            // concurrent submitters can pile on and share the forward pass.
            // Deadline'd traffic caps the wait: lingering past a queued
            // request's expiry converts its whole budget into queueing
            // delay and then expires it at drain — the linger bug this
            // codepath used to have. Capping at the expiry itself is just
            // as fatal (the condvar wakes at-or-after the timeout, i.e.
            // exactly when the request is already dead), so the cap is each
            // deadline'd request's *midpoint* — enqueue + budget/2 — which
            // guarantees the drain leaves at least half the budget for
            // solving. The midpoint is anchored at enqueue, so repeated
            // wakeups never ratchet the cap toward the expiry.
            if !inner.cfg.linger.is_zero() {
                let deadline = now() + inner.cfg.linger;
                while q.len() < inner.cfg.max_batch && !inner.shutdown.load(Ordering::Acquire) {
                    let cap = q
                        .iter()
                        .filter_map(|r| {
                            let e = r.caller.expires?;
                            let enq = r.caller.trace.enqueued();
                            Some(enq + e.saturating_duration_since(enq) / 2)
                        })
                        .min();
                    let effective = cap.map_or(deadline, |c| deadline.min(c));
                    let now = now();
                    if now >= effective {
                        break;
                    }
                    // No timed-out fast path: a wakeup re-derives the cap
                    // because a tighter deadline may have arrived meanwhile.
                    let (guard, _) = shard.nonempty.wait_timeout(q, effective - now);
                    q = guard;
                }
            }
            let drained: Vec<Request> = q.drain(..).collect();
            // Gauge only: this decrements queue depth for everything taken
            // off the queue, expired requests included. The *batch-size
            // distribution* is recorded per served chunk (post-expiry,
            // post-grouping) in `serve_chunk` → `record_batch`.
            inner.telemetry.on_drain(drained.len());
            drop(q);
            shard.space.notify_all();
            drained
        };
        // Per-shard thread cap: bind the pool fan-out of this window's
        // forward job from this, the submitting thread.
        match inner.cfg.shard_threads {
            Some(cap) => teal_nn::pool::with_thread_cap(cap, || {
                serve_drained(inner, shard, &mut scratch, drained);
            }),
            None => serve_drained(inner, shard, &mut scratch, drained),
        }
    }
}

/// Serve one drained queue segment: expire stale requests, split the rest
/// into one sub-batch per failure-override signature (plain requests are
/// the empty signature), and push each through the batched path in
/// `max_batch`-sized chunks against one context snapshot.
fn serve_drained<M: PolicyModel>(
    inner: &Inner<M>,
    shard: &Shard,
    scratch: &mut BatchScratch,
    drained: Vec<Request>,
) {
    // One context snapshot per drain: every request in it is served by the
    // same weights even if a hot swap lands mid-drain.
    let Some(ctx) = inner.registry.get(&shard.topology) else {
        for req in drained {
            // Count before unblocking, like every other reply path: a
            // client that has its reply always sees itself in `stats()`.
            inner.telemetry.on_error();
            req.caller
                .slot
                .fulfill(Err(ServeError::UnknownTopology(shard.topology.clone())));
        }
        return;
    };
    // Admission control, drain side: a request whose deadline lapsed while
    // queued must not occupy a lane in the forward pass — its caller has
    // already moved on.
    let now = now();
    let mut live = Vec::with_capacity(drained.len());
    for req in drained {
        if req.caller.expires.is_some_and(|e| e <= now) {
            inner.telemetry.on_expired();
            req.caller.slot.fulfill(Err(ServeError::DeadlineExceeded));
        } else {
            // No stamp here: queue-wait ends at the *chunk's* solve start
            // (stamped in `serve_chunk`), so multi-chunk drains still
            // partition end-to-end latency exactly — stamping once per
            // drain charged every later chunk's wait to the solve span.
            live.push(req);
        }
    }
    // EDF drain order — what makes a deadline under load *mean* something:
    // deadline'd requests first, tightest expiry first; the sort is stable
    // so ties and deadline-less requests keep arrival order. Sorting
    // *before* grouping means the order also holds within every signature
    // sub-batch.
    live.sort_by_key(|r| drain_key(r.caller.expires));
    // Group by override signature, preserving drain order within each
    // group. The empty signature — the steady-state path — is always group
    // 0; each failure scenario gets its own coalesced sub-batch.
    type SignatureGroup = (Vec<(usize, usize)>, Vec<Request>);
    let mut groups: Vec<SignatureGroup> = vec![(Vec::new(), Vec::new())];
    for req in live {
        match groups.iter_mut().find(|(sig, _)| *sig == req.signature) {
            Some((_, g)) => g.push(req),
            None => groups.push((req.signature.clone(), vec![req])),
        }
    }
    // EDF invariant telemetry, a standing check on the ordering above: zero
    // as long as the sort precedes grouping and grouping preserves order.
    let inversions: u64 = groups
        .iter()
        .map(|(_, g)| deadline_inversions(g.iter().map(|r| r.caller.expires)))
        .sum();
    inner.telemetry.on_deadline_inversions(inversions);
    // Flatten the groups into the drain's serving order of `max_batch`-sized
    // windows before touching the WFQ arbiter: fair queuing needs the *next*
    // window's ticket enqueued while the current one still holds its grant
    // (one-ahead reservation — see `crate::wfq`), so this shard stays
    // backlogged at the arbiter for the whole drain instead of degenerating
    // to strict alternation with whoever else shares the thread budget.
    let mut windows: Vec<SignatureGroup> = Vec::new();
    for (sig, mut requests) in groups {
        while !requests.is_empty() {
            let take = requests.len().min(inner.cfg.max_batch.max(1));
            windows.push((sig.clone(), requests.drain(..take).collect()));
        }
    }
    let mut iter = windows.into_iter().peekable();
    let mut reservation = iter
        .peek()
        .and_then(|(_, c)| inner.wfq.as_ref().map(|w| w.enqueue(&dominant_tenant(c))));
    while let Some((sig, chunk)) = iter.next() {
        // A reservation exists only if `inner.wfq` does (it was minted from
        // it), so the `(Some, None)` arm is unreachable and maps to no
        // grant.
        let window = match (reservation.take(), inner.wfq.as_ref()) {
            (Some(r), Some(w)) => Some(w.wait(r)),
            _ => None,
        };
        // Holding this chunk's grant, reserve the next chunk's slot.
        reservation = iter
            .peek()
            .and_then(|(_, c)| inner.wfq.as_ref().map(|w| w.enqueue(&dominant_tenant(c))));
        // A failed link is just a capacity change (§3.1 fn. 1): the
        // window's only extra step is this one clone of the serving
        // topology. Submit validated every pair against it, so both
        // directed edges resolve (a link the registry has since swapped
        // away is a no-op, not an error).
        let override_topo = (!sig.is_empty()).then(|| {
            let topo = ctx.env().topo();
            let failed: Vec<_> = sig
                .iter()
                .flat_map(|&(a, b)| [topo.find_edge(a, b), topo.find_edge(b, a)])
                .flatten()
                .collect();
            topo.with_failed_edges(&failed)
        });
        serve_chunk(
            inner,
            shard,
            scratch,
            &ctx,
            override_topo.as_ref(),
            chunk,
            window,
        );
    }
}

/// ADMM iteration budget a window is downgraded to when its deadline
/// headroom is tighter than the shard's observed queue-wait p99 (the
/// paper's §3.4 knob: 2 iterations under pressure — its small-topology
/// count — the configured maximum otherwise). Downgrades are counted in
/// [`crate::AdmmStats::budget_downgrades`].
const PRESSURED_BUDGET: usize = 2;

/// Serve one coalesced chunk (plain or failure-overridden), isolating
/// faults without losing batching. The engine's [`AllocError::BadRequest`]
/// names the offending request, so only that one is failed and the
/// remainder is re-batched in a single pass — one malformed matrix must not
/// serialize (or error) 31 innocent requests. A panicking ADMM stage
/// ([`AllocError::Poisoned`]) is a *server* fault: the chunk gets a
/// retryable [`ServeError::Internal`], never `BadRequest`. `catch_unwind`
/// stays as a last line of defense against panics the engine does not
/// classify: the chunk's requests are then each solved alone, by the same
/// loop, and only a request that panics on its own is failed.
fn serve_chunk<M: PolicyModel>(
    inner: &Inner<M>,
    shard: &Shard,
    scratch: &mut BatchScratch,
    ctx: &ServingContext<M>,
    override_topo: Option<&Topology>,
    chunk: Vec<Request>,
    // Per-tenant fair queuing: when shards share a thread budget, the
    // caller already waited out the DRR schedule for this window, charged
    // to the chunk's dominant tenant. The grant is RAII — held across the
    // whole chunk and released on every return path, panics included.
    _grant: Option<crate::wfq::WindowGrant<'_>>,
) {
    // Adaptive ADMM budget, the paper's §3.4 iterations-as-latency-knob: a
    // chunk carrying deadline'd requests whose tightest remaining headroom
    // is smaller than this shard's observed queue-wait p99 is under
    // pressure — it runs `PRESSURED_BUDGET` fine-tune iterations instead
    // of the configured maximum, trading a sliver of allocation quality
    // for making the deadline at all. Deadline-less chunks always run the
    // full budget. The override is sticky on the arena for exactly this
    // chunk (reset here on every call), so retries after evictions keep
    // the decision and the next chunk re-derives it.
    let full_budget = ctx.config().admm.map(|a| a.max_iters);
    let downgraded = match full_budget {
        Some(full) if full > PRESSURED_BUDGET => {
            match chunk.iter().filter_map(|r| r.caller.expires).min() {
                Some(earliest) => {
                    let headroom = earliest.saturating_duration_since(now());
                    let p99 = shard.stats.lock().queue_wait_p99();
                    headroom < p99
                }
                None => false,
            }
        }
        _ => false,
    };
    scratch.set_iteration_budget(downgraded.then_some(PRESSURED_BUDGET));
    let fail = |callers: Vec<Caller>, err: ServeError| {
        for caller in callers {
            inner.telemetry.on_error();
            caller.slot.fulfill(Err(err.clone()));
        }
    };
    // The batches left to solve, each with the tenant its window is charged
    // to: the chunk itself — its matrices moved out of the requests, in
    // step with their callers — and, only if it panics as a batch, each of
    // its requests alone.
    let dominant = dominant_tenant(&chunk);
    let (tms, callers): (Vec<TrafficMatrix>, Vec<Caller>) =
        chunk.into_iter().map(|r| (r.tm, r.caller)).unzip();
    let mut batches = VecDeque::from([(dominant, tms, callers)]);
    while let Some((dominant, mut tms, mut callers)) = batches.pop_front() {
        while !callers.is_empty() {
            // Solve span: forward pass + ADMM fine-tuning for this attempt.
            // A re-batch after a bad-request eviction restamps — the
            // successful attempt is the one whose span is reported.
            // Queue-wait ends where the solve begins, so the three stages
            // partition end-to-end latency exactly even when one drain
            // serves many chunks back to back.
            let solve_start = now();
            for c in callers.iter_mut() {
                c.trace.stamp_solve_start(solve_start);
            }
            let solved =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match override_topo {
                    Some(topo) => ctx.try_allocate_batch_on_with(topo, &tms, scratch),
                    None => ctx.try_allocate_batch_with(&tms, scratch),
                }));
            let solve_end = now();
            for c in callers.iter_mut() {
                c.trace.stamp_solve_end(solve_end);
            }
            match solved {
                // The one place a `ServeReply` is built.
                Ok(Ok((allocs, _))) if allocs.len() == callers.len() => {
                    let batch_size = callers.len();
                    // One reply-write stamp for the whole batch: per-stage
                    // spans and the end-to-end latency are derived from the
                    // same instant so the stages always sum to the total.
                    let solve = scratch.solve_report();
                    let done = now();
                    let latencies: Vec<Duration> = callers
                        .iter()
                        .map(|c| done.saturating_duration_since(c.trace.enqueued()))
                        .collect();
                    let stages: Vec<StageTimings> =
                        callers.iter().map(|c| c.trace.stages(done)).collect();
                    // Count the batch before unblocking any client, so a
                    // caller that has its reply always sees itself in
                    // `stats()`.
                    shard.stats.lock().record_batch(
                        &latencies,
                        &stages,
                        solve.as_ref(),
                        downgraded,
                    );
                    charge_tenants(&inner.telemetry, &callers, &dominant);
                    inner.telemetry.on_complete(batch_size as u64);
                    for (((caller, allocation), latency), stages) in
                        callers.into_iter().zip(allocs).zip(latencies).zip(stages)
                    {
                        caller.slot.fulfill(Ok(ServeReply {
                            allocation,
                            latency,
                            stages,
                            batch_size,
                        }));
                    }
                    break;
                }
                // An engine that returned fewer or more allocations than
                // matrices would silently strand zipped-out clients on
                // their slots forever; fail the whole batch loudly instead.
                Ok(Ok((allocs, _))) => {
                    let (got, want) = (allocs.len(), tms.len());
                    let why = format!("model returned {got} allocations for a batch of {want}");
                    fail(callers, ServeError::Internal(why));
                    break;
                }
                Ok(Err(AllocError::BadRequest { index, reason })) if index < callers.len() => {
                    // Evict only the named offender; loop to re-batch the rest.
                    tms.remove(index);
                    fail(vec![callers.remove(index)], ServeError::BadRequest(reason));
                }
                Ok(Err(e)) => {
                    fail(callers, ServeError::Internal(e.to_string()));
                    break;
                }
                // An unclassified panic somewhere in the batch: queue each
                // request alone, its window charged to its own tenant.
                Err(_) if callers.len() > 1 => {
                    batches.extend(
                        tms.into_iter()
                            .zip(callers)
                            .map(|(tm, c)| (Arc::clone(&c.tenant), vec![tm], vec![c])),
                    );
                    break;
                }
                Err(_) => {
                    let why = format!(
                        "allocation panicked for topology {:?} (matrix of {} demands)",
                        shard.topology,
                        tms[0].len()
                    );
                    fail(callers, ServeError::Internal(why));
                    break;
                }
            }
        }
    }
}

/// EDF sort key: deadline'd requests before deadline-less ones, tightest
/// expiry first. Pure so the ordering is property-testable without a
/// daemon; used with a *stable* sort, ties (and all deadline-less
/// requests) keep arrival order.
fn drain_key(expires: Option<Instant>) -> (bool, Option<Instant>) {
    (expires.is_none(), expires)
}

/// Adjacent deadline'd pairs of one serving order that run
/// tighter-after-looser (deadline-less entries are skipped).
fn deadline_inversions(expiries: impl Iterator<Item = Option<Instant>>) -> u64 {
    let mut inversions = 0;
    let mut last: Option<Instant> = None;
    for e in expiries.flatten() {
        if last.is_some_and(|prev| prev > e) {
            inversions += 1;
        }
        last = Some(e);
    }
    inversions
}

/// The tenant a chunk's window is charged to in the DRR schedule: the one
/// tagging the most requests, ties broken toward the lexicographically
/// smallest id (deterministic under concurrency).
fn dominant_tenant(chunk: &[Request]) -> Arc<str> {
    let mut counts: Vec<(Arc<str>, u64)> = Vec::new();
    for r in chunk {
        match counts.iter_mut().find(|(t, _)| **t == *r.caller.tenant) {
            Some((_, n)) => *n += 1,
            None => counts.push((Arc::clone(&r.caller.tenant), 1)),
        }
    }
    counts
        .into_iter()
        .max_by(|(at, an), (bt, bn)| an.cmp(bn).then_with(|| bt.cmp(at)))
        .map(|(t, _)| t)
        .unwrap_or_else(|| Arc::from("default"))
}

/// Per-tenant accounting for one successfully served batch: every request
/// counts toward its own tenant; the window counts toward the dominant
/// tenant the DRR schedule charged it to.
fn charge_tenants(telemetry: &Telemetry, callers: &[Caller], dominant: &str) {
    let mut counts: Vec<(&str, u64)> = Vec::new();
    for c in callers {
        match counts.iter_mut().find(|(t, _)| *t == &*c.tenant) {
            Some((_, n)) => *n += 1,
            None => counts.push((&c.tenant, 1)),
        }
    }
    for (t, n) in counts {
        telemetry.on_tenant(t, n, u64::from(t == dominant));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// EDF ordering property, on the pure sort key the drain path uses:
    /// across randomized queues, after a stable sort (1) every deadline'd
    /// request precedes every deadline-less one, (2) deadline'd requests
    /// are non-decreasing in expiry, and (3) deadline-less requests keep
    /// their relative arrival order.
    #[test]
    fn edf_drain_key_orders_randomized_queues() {
        let base = now();
        let mut lcg = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) as u32
        };
        for _case in 0..200 {
            let n = (next() % 24) as usize;
            // (arrival index, expires)
            let queue: Vec<(usize, Option<Instant>)> = (0..n)
                .map(|i| {
                    let e = if next() % 3 == 0 {
                        // Coarse buckets force plenty of exact ties.
                        Some(base + Duration::from_millis(u64::from(next() % 8) * 10))
                    } else {
                        None
                    };
                    (i, e)
                })
                .collect();
            let mut sorted = queue.clone();
            sorted.sort_by_key(|&(_, e)| drain_key(e));
            let first_plain = sorted.iter().position(|(_, e)| e.is_none());
            for (pos, (_, e)) in sorted.iter().enumerate() {
                if let Some(cut) = first_plain {
                    assert_eq!(
                        e.is_none(),
                        pos >= cut,
                        "deadline'd request after a plain one at {pos}"
                    );
                }
            }
            let deadlines: Vec<Instant> = sorted.iter().filter_map(|&(_, e)| e).collect();
            assert!(
                deadlines.windows(2).all(|w| w[0] <= w[1]),
                "expiries not non-decreasing"
            );
            let plain_order: Vec<usize> = sorted
                .iter()
                .filter(|(_, e)| e.is_none())
                .map(|&(i, _)| i)
                .collect();
            assert!(
                plain_order.windows(2).all(|w| w[0] < w[1]),
                "stable sort broke FIFO order of deadline-less requests"
            );
            // Ties among deadline'd requests also keep arrival order.
            for pair in sorted.windows(2) {
                if let ((i, Some(a)), (j, Some(b))) = (pair[0], pair[1]) {
                    if a == b {
                        assert!(i < j, "stable sort broke FIFO order within an expiry tie");
                    }
                }
            }
        }
    }

    /// The inversion counter can go non-zero: a hand-built serving order
    /// with urgency inverted twice (and deadline-less requests interleaved,
    /// which never count) — and reads zero once EDF-sorted.
    #[test]
    fn deadline_inversions_counts_out_of_order_pairs() {
        let base = now();
        let at = |ms: u64| Some(base + Duration::from_millis(ms));
        let mut group = [at(30), None, at(10), at(20), None, at(5)];
        assert_eq!(deadline_inversions(group.iter().copied()), 2);
        group.sort_by_key(|&e| drain_key(e));
        assert_eq!(deadline_inversions(group.iter().copied()), 0);
        assert_eq!(deadline_inversions(std::iter::empty()), 0);
    }
}
