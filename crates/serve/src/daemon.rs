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
//! There is no lock held across model compute. The only locks two
//! topologies' requests share in this core are the registry's read lock
//! (once per submit and per drain) and the shard map's (once per submit);
//! the crate docs' ledger names every shared cell.
//!
//! # Admission control and deadlines
//!
//! Submit first refuses, with [`ServeError::BadRequest`], every malformed
//! request it can see: a matrix whose length is not the
//! serving topology's demand count (the engine's own check,
//! `Env::check_demands`, with the same message) and a failed link the
//! topology does not have. A malformed request therefore never costs a
//! window, and the requests it would have shared one with keep their batch.
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
//! [`ServingContext::try_allocate_batch_on_with`]: the edge table, the
//! out-adjacency and the name, nothing else (a
//! `Topology` keeps no edge lookup index, so the signature's links resolve
//! by an O(out-degree) scan each). Nothing is cached across windows (the
//! build is under 1 % of the window it precedes at every topology size
//! this repo serves). A failure window therefore serves
//! *without retraining* — the paper's failure-recovery path, reachable end
//! to end from a socket.
//!
//! # Shard arena ownership
//!
//! Every window a shard serves, plain or failure-overridden, runs its ADMM
//! stage in the dispatcher thread's own arena (the engine keeps one per
//! thread; see [`teal_core::BatchScratch`]). The arena carries no weight- or
//! topology-derived state across windows, only buffer capacity (each window
//! remints the solver against its own skeleton), so plain and failed-link
//! windows commute on one arena. Only the shard's dispatcher thread ever
//! touches it. It lives with the thread, *not* in the serving context — a
//! hot checkpoint swap replaces the context `Arc` but leaves the arena (and
//! its warmed-up capacity) untouched, and the next window simply runs
//! against the new weights. The dispatcher's [`teal_core::BatchScratch`]
//! carries only each window's [`teal_core::SolveReport`] to the shard's
//! counters.
//!
//! # Shutdown protocol
//!
//! Written once, in `ShardQueue`, every shard's queue type: `push`
//! rechecks the closed flag under the queue lock, `next_drain` decides
//! drain-or-exit under it, `close` stores the flag and then wakes both
//! condvars holding it, and `sweep` takes out what is left.
//! [`ServeDaemon::shutdown`] sets the daemon's flag (so no shard appears
//! and submit refuses before routing), closes every queue, then joins each
//! dispatcher and sweeps its queue; the shards stay in the map, where
//! [`ServeDaemon::stats`] keeps counting them.
//!
//! *Guarantees:* every ticket a queue accepted is answered, served or
//! swept (as [`ServeError::ShuttingDown`]).
//! *Assuming:* the flag is stored before the wake; the wake happens while
//! the queue lock is held; the exit decision is made under that same lock.
//! *Enforced by:* `model::submit_vs_shutdown` and
//! `model::shutdown_straggler_sweep`, which drive `ShardQueue` with mutants
//! (`NoRecheckUnderLock`, `NotifyOutsideLock`, `NoStragglerSweep`) that
//! must be killed; `tests/daemon_concurrency.rs`'s
//! `racing_submit_and_shutdown_never_strands_a_ticket` and
//! `shutdown_serves_queued_requests_then_rejects`.

use crate::sync::atomic::{AtomicBool, AtomicU64};
use crate::sync::{thread, Arc, Condvar, Mutex};
use crate::telemetry::now;
use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};
use teal_core::{AllocError, BatchScratch, PolicyModel, ServingContext};
use teal_topology::Topology;
use teal_traffic::TrafficMatrix;

use crate::registry::ModelRegistry;
use crate::request::{ResponseSlot, ServeError, ServeReply, SubmitRequest, Ticket, DEFAULT_TENANT};
use crate::telemetry::{fold_shards, ShardStats, StageTimings, TelemetrySnapshot};

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
    /// When the request was enqueued: the linger cap's anchor and the
    /// start of its end-to-end latency. Every later instant is its
    /// window's, read once per solve attempt in `serve_chunk`.
    enqueued: Instant,
    /// Absolute expiry minted from [`SubmitRequest::deadline`] at enqueue.
    expires: Option<Instant>,
    /// Effective tenant id ([`DEFAULT_TENANT`] for untagged requests): who
    /// the reply is credited to in the per-tenant counters, nothing more.
    tenant: String,
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
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 16,
            linger: Duration::from_micros(200),
            queue_capacity: 1024,
        }
    }
}

/// Why [`ShardQueue::push`] refused: full (with `shed` set), or closed.
pub(crate) enum Refused {
    Full,
    Closed,
}

/// One shard's bounded queue and the shutdown protocol (module docs), over
/// the daemon's [`Request`]s or a model's response slots. Its fields are
/// the crate's, so a model mutant can re-create its one bug against them.
pub(crate) struct ShardQueue<T> {
    pub(crate) items: Mutex<VecDeque<T>>,
    /// Set once, by [`Self::close`]; read only with `items` locked.
    pub(crate) closed: AtomicBool,
    /// Signals the dispatcher that work (or close) is pending.
    pub(crate) nonempty: Condvar,
    /// Signals blocked submitters that space freed up (or close).
    pub(crate) space: Condvar,
    capacity: usize,
}

impl<T> ShardQueue<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        ShardQueue {
            items: Mutex::new(VecDeque::new()),
            closed: AtomicBool::new(false),
            nonempty: Condvar::new(),
            space: Condvar::new(),
            capacity,
        }
    }

    /// Append `item` and wake the dispatcher; at capacity, refuse it if
    /// `shed`, else wait for space or close. The flag is read under the
    /// lock [`Self::next_drain`] decides to exit under, so an item lands
    /// before the dispatcher's last drain or is refused.
    pub(crate) fn push(&self, item: T, shed: bool) -> Result<(), Refused> {
        let mut q = self.items.lock();
        if shed && q.len() >= self.capacity {
            return Err(Refused::Full);
        }
        while q.len() >= self.capacity && !self.closed.load() {
            q = self.space.wait(q);
        }
        if self.closed.load() {
            return Err(Refused::Closed);
        }
        q.push_back(item);
        drop(q);
        self.nonempty.notify_one();
        Ok(())
    }

    /// Everything queued, once there is something; `None` only when closed
    /// and empty. Once work exists, `linger` says how much longer to wait
    /// for more; `None` from it, or a close, ends the wait.
    pub(crate) fn next_drain(
        &self,
        mut linger: impl FnMut(&VecDeque<T>) -> Option<Duration>,
    ) -> Option<Vec<T>> {
        let mut q = self.items.lock();
        while q.is_empty() && !self.closed.load() {
            q = self.nonempty.wait(q);
        }
        if q.is_empty() {
            return None;
        }
        while let Some(wait) = linger(&q) {
            if self.closed.load() {
                break;
            }
            q = self.nonempty.wait_timeout(q, wait).0;
        }
        let drained = q.drain(..).collect();
        drop(q);
        self.space.notify_all();
        Some(drained)
    }

    /// Refuse every later push and wake every waiter. The wake holds the
    /// lock the flag is read under: a bare notify could land between a
    /// dispatcher's read and its wait, and it would sleep through shutdown.
    pub(crate) fn close(&self) {
        self.closed.store(true);
        let q = self.items.lock();
        self.nonempty.notify_all();
        self.space.notify_all();
        drop(q);
    }

    /// Everything still queued: after its dispatcher exits, only what a
    /// dispatcher that died mid-drain left.
    pub(crate) fn sweep(&self) -> Vec<T> {
        self.items.lock().drain(..).collect()
    }
}

/// One topology's dispatch lane: private queue and counters. The shard's
/// ADMM arena is its dispatcher thread's own (the engine keeps one per
/// thread), never shared.
struct Shard {
    topology: String,
    queue: ShardQueue<Request>,
    /// Every counter this shard's requests move; [`ServeDaemon::stats`]
    /// folds the shards. Never locked while `queue` is held.
    stats: Mutex<ShardStats>,
}

/// A shard plus its dispatcher thread handle (taken by the first
/// shutdown, which joins it).
struct ShardHandle {
    shard: Arc<Shard>,
    thread: Option<thread::JoinHandle<()>>,
}

/// Shared state between submitters and the shard dispatchers.
struct Inner<M: PolicyModel> {
    registry: ModelRegistry<M>,
    cfg: ServeConfig,
    /// Topology id → dispatch shard, created lazily on first submit, never
    /// removed. Locked only to route a request (a map read), create a
    /// shard or list them — never across compute.
    shards: Mutex<HashMap<String, ShardHandle>>,
    shutdown: AtomicBool,
    /// Completions the wire front end could not match to a pending
    /// request (see [`TelemetrySnapshot::unmatched_replies`]).
    unmatched_replies: AtomicU64,
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
        ServeDaemon {
            inner: Arc::new(Inner {
                registry,
                cfg,
                shards: Mutex::new(HashMap::new()),
                shutdown: AtomicBool::new(false),
                unmatched_replies: AtomicU64::new(0),
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

    /// A copy of the serving statistics: every shard's counters and queue
    /// length, folded, each read under its own locks (not the map's).
    pub fn stats(&self) -> TelemetrySnapshot {
        let shards: Vec<Arc<Shard>> = {
            let map = self.inner.shards.lock();
            map.values().map(|h| Arc::clone(&h.shard)).collect()
        };
        let unmatched = self.inner.unmatched_replies.load();
        let per_shard = shards.iter().map(|s| {
            // The queue guard drops before the stats lock is taken.
            let queued = s.queue.items.lock().len();
            (&*s.topology, queued, s.stats.lock())
        });
        fold_shards(per_shard, unmatched)
    }

    /// Count one completion the wire front end could not match to a
    /// pending request — an id-bookkeeping bug, never load.
    // The loom build compiles no wire front end, so nothing calls this there.
    #[cfg_attr(teal_loom, allow(dead_code))]
    pub(crate) fn count_unmatched_reply(&self) {
        self.inner.unmatched_replies.fetch_add(1);
    }

    /// The shard for `topology`, creating it (and its dispatcher thread) on
    /// first use. `None` when the daemon is shutting down — checked under
    /// the shard-map lock, so no shard can appear after [`Self::shutdown`]
    /// has taken the join handles.
    fn shard(&self, topology: &str) -> Option<Arc<Shard>> {
        let mut map = self.inner.shards.lock();
        if self.inner.shutdown.load() {
            return None;
        }
        if let Some(h) = map.get(topology) {
            return Some(Arc::clone(&h.shard));
        }
        let shard = Arc::new(Shard {
            topology: topology.to_string(),
            queue: ShardQueue::new(self.inner.cfg.queue_capacity),
            stats: Mutex::new(ShardStats::default()),
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
                thread: Some(thread),
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
        if self.inner.shutdown.load() {
            slot.fulfill(Err(ServeError::ShuttingDown));
            return;
        }
        // Route by topology. Unknown ids fail here instead of spawning a
        // dispatch lane per typo'd request.
        let Some(ctx) = self.inner.registry.get(&req.topology) else {
            slot.fulfill(Err(ServeError::UnknownTopology(req.topology)));
            return;
        };
        // Validate the request against the serving topology up front: a
        // mis-sized matrix or a typo'd link is a per-request error here,
        // never a failed window for the requests it would have shared.
        if let Err(why) = ctx.env().check_demands(&req.tm) {
            slot.fulfill(Err(ServeError::BadRequest(why)));
            return;
        }
        let signature = req.override_signature();
        for &(a, b) in &signature {
            if !ctx.env().topo().has_link(a, b) {
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
            shard.stats.lock().shed += 1;
            slot.fulfill(Err(ServeError::DeadlineExceeded));
            return;
        }
        let request = Request {
            tm: req.tm,
            signature,
            caller: Caller {
                enqueued: now,
                expires: req.deadline.map(|d| now + d),
                tenant: req.tenant.unwrap_or_else(|| DEFAULT_TENANT.to_string()),
                slot: Arc::clone(&slot),
            },
        };
        // Admission control: a deadline'd request meeting a full queue is
        // refused *now* — blocking would silently convert its budget into
        // queueing delay.
        let shed = request.caller.expires.is_some();
        match shard.queue.push(request, shed) {
            Ok(()) => {}
            Err(Refused::Full) => {
                shard.stats.lock().shed += 1;
                slot.fulfill(Err(ServeError::Overloaded(format!(
                    "shard {:?} queue full ({} waiting)",
                    shard.topology, self.inner.cfg.queue_capacity
                ))));
            }
            Err(Refused::Closed) => slot.fulfill(Err(ServeError::ShuttingDown)),
        }
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
    /// thread (even concurrently with submitters); also runs on drop. The
    /// shards stay in the map, so [`Self::stats`] still counts them.
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true);
        // Take the join handles first: creation re-checks the flag under
        // this lock, so no new shard can appear afterwards.
        let handles: Vec<(Arc<Shard>, thread::JoinHandle<()>)> = {
            let mut map = self.inner.shards.lock();
            map.values_mut()
                .filter_map(|h| Some((Arc::clone(&h.shard), h.thread.take()?)))
                .collect()
        };
        for (shard, _) in &handles {
            shard.queue.close();
        }
        for (shard, thread) in handles {
            // A dispatcher that panicked mid-drain must not abort shutdown
            // (this also runs on drop): the sweep answers what it left.
            let _ = thread.join();
            let leftover = shard.queue.sweep().into_iter().map(|r| r.caller).collect();
            fail_all(&shard, leftover, &ServeError::ShuttingDown);
        }
    }
}

impl<M: PolicyModel + 'static> Drop for ServeDaemon<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One shard's dispatcher: drain the shard queue, coalesce, serve through
/// this thread's ADMM arena, repeat until shutdown drains it dry.
fn shard_loop<M: PolicyModel>(inner: &Inner<M>, shard: &Shard) {
    // Every window's solve report; the ADMM arena itself is this thread's
    // (see module docs for ownership rules).
    let mut scratch = BatchScratch::new();
    while let Some(drained) = shard.queue.next_drain(linger(&inner.cfg)) {
        // The high-water mark (expired requests included), recorded before
        // any of the drain is answered. Batch sizes are recorded per served
        // chunk, in `serve_chunk`.
        let mut stats = shard.stats.lock();
        stats.max_drain = stats.max_drain.max(drained.len());
        drop(stats);
        serve_drained(inner, shard, &mut scratch, drained);
    }
}

/// One drain's micro-batching linger: how much longer to wait so
/// concurrent submitters can share the forward pass, `None` once the batch
/// is full or the linger is over. Deadline'd traffic caps the wait at each
/// such request's *midpoint*, enqueue + budget/2: lingering to its expiry
/// would turn its whole budget into queueing delay (the condvar wakes at or
/// after the timeout), and the midpoint leaves half the budget for solving.
/// Anchored at enqueue, repeated wakeups never ratchet the cap, and each
/// re-derives it, as a tighter deadline may have arrived meanwhile.
fn linger(cfg: &ServeConfig) -> impl FnMut(&VecDeque<Request>) -> Option<Duration> + '_ {
    let mut deadline = None;
    move |q| {
        if cfg.linger.is_zero() || q.len() >= cfg.max_batch {
            return None;
        }
        let deadline = *deadline.get_or_insert_with(|| now() + cfg.linger);
        let cap = q
            .iter()
            .filter_map(|r| {
                let (e, enq) = (r.caller.expires?, r.caller.enqueued);
                Some(enq + e.saturating_duration_since(enq) / 2)
            })
            .min();
        let effective = cap.map_or(deadline, |c| deadline.min(c));
        let now = now();
        (now < effective).then(|| effective - now)
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
        let callers = drained.into_iter().map(|r| r.caller).collect();
        let err = ServeError::UnknownTopology(shard.topology.clone());
        fail_all(shard, callers, &err);
        return;
    };
    // Admission control, drain side: a request whose deadline lapsed while
    // queued must not occupy a lane in the forward pass — its caller has
    // already moved on.
    let now = now();
    let mut live = Vec::with_capacity(drained.len());
    for req in drained {
        if req.caller.expires.is_some_and(|e| e <= now) {
            // Counted before unblocking, like every other reply path.
            shard.stats.lock().expired += 1;
            req.caller.slot.fulfill(Err(ServeError::DeadlineExceeded));
        } else {
            // No clock read here: queue-wait ends at the *attempt's* solve
            // start (read in `serve_chunk`), so multi-chunk drains still
            // partition end-to-end latency exactly — reading once per
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
    if inversions > 0 {
        shard.stats.lock().deadline_inversions += inversions;
    }
    for (sig, mut requests) in groups {
        while !requests.is_empty() {
            let take = requests.len().min(inner.cfg.max_batch.max(1));
            let chunk = requests.drain(..take).collect();
            // A failed link is just a capacity change (§3.1 fn. 1): the
            // window's only extra step is this one clone of the serving
            // topology. Submit validated every pair against it, so both
            // directed edges resolve (a link the registry has since
            // swapped away is a no-op, not an error).
            let override_topo = (!sig.is_empty()).then(|| {
                let topo = ctx.env().topo();
                let failed: Vec<_> = sig
                    .iter()
                    .flat_map(|&(a, b)| topo.link_edges(a, b))
                    .collect();
                topo.with_failed_edges(&failed)
            });
            serve_chunk(shard, scratch, &ctx, override_topo.as_ref(), chunk);
        }
    }
}

/// Serve one coalesced chunk (plain or failure-overridden) with one failure
/// rule. Submit has already refused every request it can see is malformed,
/// so a chunk of more than one request that fails in any way — an engine
/// `Err` (after submit's checks, only a hot swap that changed the topology
/// under queued requests), an allocation-count mismatch or a panic — is
/// requeued one request per batch, and only a request that fails on its
/// own gets an error: [`AllocError::BadRequest`] as
/// [`ServeError::BadRequest`], anything else as a retryable
/// [`ServeError::Internal`]. The `catch_unwind` here is the one place a
/// panic becomes a reply. The clock is read once per attempt: its solve
/// start, solve end and reply write are every caller's.
fn serve_chunk<M: PolicyModel>(
    shard: &Shard,
    scratch: &mut BatchScratch,
    ctx: &ServingContext<M>,
    override_topo: Option<&Topology>,
    chunk: Vec<Request>,
) {
    // The batches left to solve: the chunk itself — its matrices moved out
    // of the requests, in step with their callers — and, only if it fails
    // as a batch, each of its requests alone.
    let (tms, callers): (Vec<TrafficMatrix>, Vec<Caller>) =
        chunk.into_iter().map(|r| (r.tm, r.caller)).unzip();
    let mut batches = VecDeque::from([(tms, callers)]);
    while let Some((tms, callers)) = batches.pop_front() {
        // Queue-wait ends where this attempt's solve begins, so the three
        // stages partition end-to-end latency exactly even when one drain
        // serves many chunks back to back, or a request is retried alone.
        let solve_start = now();
        let solved =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match override_topo {
                Some(topo) => ctx.try_allocate_batch_on_with(topo, &tms, scratch),
                None => ctx.try_allocate_batch_with(&tms, scratch),
            }));
        let solve_end = now();
        let err = match solved {
            // The one place a `ServeReply` is built.
            Ok(Ok((allocs, _))) if allocs.len() == callers.len() => {
                let batch_size = callers.len();
                let solve = scratch.solve_report();
                let done = now();
                let stages: Vec<StageTimings> = callers
                    .iter()
                    .map(|c| StageTimings::split(c.enqueued, solve_start, solve_end, done))
                    .collect();
                // Count the batch before unblocking any client, so a caller
                // that has its reply always sees itself in `stats()`.
                let mut stats = shard.stats.lock();
                stats.record_batch(&stages, solve.as_ref());
                charge_tenants(&mut stats, &callers);
                drop(stats);
                for ((caller, allocation), stages) in callers.into_iter().zip(allocs).zip(stages) {
                    caller.slot.fulfill(Ok(ServeReply {
                        allocation,
                        latency: stages.end_to_end(),
                        stages,
                        batch_size,
                    }));
                }
                continue;
            }
            // Any failure of a batch: retry each of its requests alone.
            _ if callers.len() > 1 => {
                let alone = tms
                    .into_iter()
                    .zip(callers)
                    .map(|(tm, c)| (vec![tm], vec![c]));
                batches.extend(alone);
                continue;
            }
            // An engine that returned no allocation (or several) for one
            // matrix would strand its client; fail it loudly instead.
            Ok(Ok((allocs, _))) => ServeError::Internal(format!(
                "model returned {} allocations for a batch of 1",
                allocs.len()
            )),
            Ok(Err(AllocError::BadRequest { reason, .. })) => ServeError::BadRequest(reason),
            Ok(Err(e)) => ServeError::Internal(e.to_string()),
            Err(_) => ServeError::Internal(format!(
                "allocation panicked for topology {:?} (matrix of {} demands)",
                shard.topology,
                tms[0].len()
            )),
        };
        fail_all(shard, callers, &err);
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

/// Per-tenant accounting for one successfully served batch: every request
/// counts toward its own tenant, and the window toward the tenant tagging
/// the most of them, ties broken toward the lexicographically smallest id
/// (deterministic under concurrency).
fn charge_tenants(stats: &mut ShardStats, callers: &[Caller]) {
    let mut counts: Vec<(&str, u64)> = Vec::new();
    for c in callers {
        match counts.iter_mut().find(|(t, _)| *t == &*c.tenant) {
            Some((_, n)) => *n += 1,
            None => counts.push((&c.tenant, 1)),
        }
    }
    let dominant = counts
        .iter()
        .max_by(|(at, an), (bt, bn)| an.cmp(bn).then_with(|| bt.cmp(at)))
        .map(|&(t, _)| t);
    for &(t, n) in &counts {
        stats.charge_tenant(t, n, u64::from(Some(t) == dominant));
    }
}

/// Answer `callers` with `err`, counted as errors before any is unblocked,
/// so a client that has its reply always sees itself in `stats()`.
fn fail_all(shard: &Shard, callers: Vec<Caller>, err: &ServeError) {
    shard.stats.lock().errors += callers.len() as u64;
    for caller in callers {
        caller.slot.fulfill(Err(err.clone()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teal_core::TealModel;

    #[test]
    fn unmatched_replies_reach_snapshot_and_prometheus() {
        let d = ServeDaemon::with_defaults(ModelRegistry::<TealModel>::new());
        assert_eq!(d.stats().unmatched_replies, 0);
        d.count_unmatched_reply();
        d.count_unmatched_reply();
        let snap = d.stats();
        assert_eq!(snap.unmatched_replies, 2);
        let text = snap.to_prometheus();
        assert!(
            text.contains("teal_serve_unmatched_replies_total 2"),
            "missing/incorrect counter line in:\n{text}"
        );
    }

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
