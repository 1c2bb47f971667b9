//! The request/reply vocabulary of the serving core: [`SubmitRequest`],
//! [`ServeReply`], [`ServeError`], and the [`Ticket`] a submission returns.
//!
//! These types are deliberately **transport-agnostic**: the in-process
//! [`crate::ServeDaemon`] API, the TCP wire codec ([`crate::wire`]), and
//! the blocking [`crate::TealClient`] all speak exactly this vocabulary, so
//! a request behaves identically whether it was submitted from a thread in
//! the same process or decoded off a socket. The plumbing at the bottom of
//! the file is one generic one-shot [`Slot`] — the daemon fulfills a
//! `Slot<ServeReply>` per request, the wire client additionally waits on a
//! `Slot<TelemetrySnapshot>` per scrape, and [`Ticket`] is a handle to the
//! former — plus an optional completion queue, which is what lets the
//! socket front end drain replies *out of order* without polling:
//! fulfilling a slot pushes its `(connection token, request id)` pair onto
//! the event loop's one completion queue (a STATS scrape never waits).

// teal-lint: checked-sync
use crate::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use teal_lp::Allocation;
use teal_traffic::TrafficMatrix;

/// Tenant id assumed for requests without a tag (including every request
/// arriving from a pre-v3 wire peer).
pub const DEFAULT_TENANT: &str = "default";

/// One serving request: which topology, what traffic, and the two optional
/// scenario axes — a **deadline** (admission control: the request is shed
/// or expired instead of served late) and **failed-link overrides** (the
/// paper's §5.3 failure recovery: serve on a degraded topology without
/// retraining).
#[derive(Clone, Debug, PartialEq)]
pub struct SubmitRequest {
    /// Registry id of the topology to serve on.
    pub topology: String,
    /// The traffic matrix to allocate.
    pub tm: TrafficMatrix,
    /// Time budget measured from enqueue. `None` = wait however long it
    /// takes. A request whose budget is exhausted before its batch is
    /// formed gets [`ServeError::DeadlineExceeded`] instead of a stale
    /// allocation, and a zero budget (or a full queue) sheds at enqueue.
    pub deadline: Option<Duration>,
    /// Bidirectional links (node pairs) to treat as failed — capacity
    /// zeroed, exactly as in §5.3 — for this request only. Requests with
    /// the same override set coalesce into shared failure sub-batches;
    /// an empty set is the steady-state path.
    pub failed_links: Vec<(usize, usize)>,
    /// Tenant tag: an accounting identity only — replies and solver
    /// windows are credited to it in [`crate::TenantSnapshot`], and it
    /// changes nothing about scheduling. `None` (and every wire-v2-era
    /// caller) maps to [`DEFAULT_TENANT`].
    pub tenant: Option<String>,
}

impl SubmitRequest {
    /// A plain steady-state request (no deadline, no failed links).
    pub fn new(topology: impl Into<String>, tm: TrafficMatrix) -> Self {
        SubmitRequest {
            topology: topology.into(),
            tm,
            deadline: None,
            failed_links: Vec::new(),
            tenant: None,
        }
    }

    /// Tag this request with a tenant id for per-tenant accounting.
    pub fn with_tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Bound the time this request may spend queued before serving.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Serve on a copy of the topology with the link `a`–`b` failed (both
    /// directed edges zeroed). May be chained for multi-link failures.
    pub fn with_failed_link(mut self, a: usize, b: usize) -> Self {
        self.failed_links.push((a, b));
        self
    }

    /// Replace the full failed-link override set.
    pub fn with_failed_links(mut self, links: impl IntoIterator<Item = (usize, usize)>) -> Self {
        self.failed_links = links.into_iter().collect();
        self
    }

    /// Canonical form of the override set — pairs ordered `(min, max)`,
    /// sorted, deduplicated — so requests describing the same failure
    /// scenario in different orders share one sub-batch (and one reminted
    /// solver) at the shard.
    pub(crate) fn override_signature(&self) -> Vec<(usize, usize)> {
        let mut sig: Vec<(usize, usize)> = self
            .failed_links
            .iter()
            .map(|&(a, b)| (a.min(b), a.max(b)))
            .collect();
        sig.sort_unstable();
        sig.dedup();
        sig
    }
}

/// Why a request could not be served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// No context registered under the requested topology id.
    UnknownTopology(String),
    /// The daemon is shutting down and no longer accepts requests.
    ShuttingDown,
    /// A hot-swap checkpoint failed to parse or did not match the model.
    Checkpoint(String),
    /// The request itself could not be served (e.g. a traffic matrix whose
    /// dimensions do not match the topology's demand set, or a failed-link
    /// override naming a link the topology does not have).
    BadRequest(String),
    /// The daemon failed internally while serving (e.g. a worker panic, or
    /// a lost wire connection). The request was well-formed and may be
    /// retried.
    Internal(String),
    /// The request's time budget ran out — either expired in the queue
    /// before its batch was formed, or (for [`Ticket::wait_timeout`]) the
    /// caller stopped waiting.
    DeadlineExceeded,
    /// Admission control shed the request at enqueue: the shard's queue was
    /// full and the request carried a deadline, so queueing it would only
    /// burn its budget.
    Overloaded(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownTopology(id) => write!(f, "unknown topology {id:?}"),
            ServeError::ShuttingDown => write!(f, "serving daemon is shutting down"),
            ServeError::Checkpoint(m) => write!(f, "checkpoint swap failed: {m}"),
            ServeError::BadRequest(m) => write!(f, "bad request: {m}"),
            ServeError::Internal(m) => write!(f, "internal serving error: {m}"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::Overloaded(m) => write!(f, "request shed: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A served allocation plus per-request serving metadata.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeReply {
    /// The TE allocation for the submitted matrix.
    pub allocation: Allocation,
    /// End-to-end latency: enqueue → response ready.
    pub latency: Duration,
    /// Where `latency` went: queue-wait / solve / reply-write spans from
    /// the request's [`crate::telemetry::Trace`].
    pub stages: crate::telemetry::StageTimings,
    /// How many requests shared the coalesced forward pass.
    pub batch_size: usize,
}

/// Out-of-order completion queue: response slots created with
/// [`Slot::with_notify`] push their `(token, id)` pair here when
/// fulfilled, so the wire front end learns of *any* reply becoming ready
/// instead of polling tickets in submission order.
///
/// The epoll event loop builds one for all its connections; its waker
/// rings the loop's eventfd only on a push onto an empty queue. That
/// loses no wakeup because the loop drains the eventfd *before* it takes
/// the queue, and takes until a take comes back empty, so any later push
/// finds the queue empty (`model::completion_doorbell` checks this).
pub struct Completions {
    ready: Mutex<Vec<(u64, u64)>>,
    /// Fired outside the queue lock, after a push onto an empty queue.
    waker: Box<dyn Fn() + Send + Sync>,
}

impl Completions {
    /// A queue whose first push after each take fires `waker` — the event
    /// loop's completion → eventfd bridge.
    pub fn with_waker(waker: Box<dyn Fn() + Send + Sync>) -> Arc<Self> {
        Arc::new(Completions {
            ready: Mutex::new(Vec::new()),
            waker,
        })
    }

    /// Announce request `id` of connection `token` as ready.
    pub fn push(&self, token: u64, id: u64) {
        let mut ready = self.ready.lock();
        ready.push((token, id));
        if ready.len() == 1 {
            drop(ready);
            (self.waker)();
        }
    }

    /// Swap every ready pair, in push order, into the empty `out`.
    pub fn take(&self, out: &mut Vec<(u64, u64)>) {
        std::mem::swap(&mut *self.ready.lock(), out);
    }
}

/// One-shot slot: fulfilled once by whoever produces the result, redeemed
/// once by whoever waits for it. Every reply in the crate rides one — a
/// served allocation ([`ResponseSlot`], behind a [`Ticket`]) and a wire
/// client's telemetry scrape alike.
pub struct Slot<T> {
    slot: Mutex<Option<Result<T, ServeError>>>,
    ready: Condvar,
    /// `(queue, token, id)` notified on fulfillment — the wire server's
    /// out-of-order reply path. `None` for in-process tickets.
    notify: Option<(Arc<Completions>, u64, u64)>,
}

/// The slot a [`Ticket`] waits on.
pub type ResponseSlot = Slot<ServeReply>;

impl<T> Slot<T> {
    pub fn new() -> Arc<Self> {
        Arc::new(Slot {
            slot: Mutex::new(None),
            ready: Condvar::new(),
            notify: None,
        })
    }

    /// A slot that additionally announces its fulfillment on `completions`
    /// as `(token, id)`: the connection's token and the wire request id.
    pub fn with_notify(completions: Arc<Completions>, token: u64, id: u64) -> Arc<Self> {
        Arc::new(Slot {
            slot: Mutex::new(None),
            ready: Condvar::new(),
            notify: Some((completions, token, id)),
        })
    }

    pub fn fulfill(&self, r: Result<T, ServeError>) {
        {
            let mut slot = self.slot.lock();
            *slot = Some(r);
            self.ready.notify_all();
        }
        if let Some((completions, token, id)) = &self.notify {
            completions.push(*token, *id);
        }
    }

    /// Block until the slot is fulfilled and take the result.
    pub(crate) fn wait(&self) -> Result<T, ServeError> {
        let mut slot = self.slot.lock();
        loop {
            if let Some(r) = slot.take() {
                return r;
            }
            slot = self.ready.wait(slot);
        }
    }

    /// [`Slot::wait`] for at most `timeout`;
    /// [`ServeError::DeadlineExceeded`] if nothing arrived in time.
    pub(crate) fn wait_timeout(&self, timeout: Duration) -> Result<T, ServeError> {
        let deadline = crate::telemetry::now() + timeout;
        let mut slot = self.slot.lock();
        loop {
            if let Some(r) = slot.take() {
                return r;
            }
            let now = crate::telemetry::now();
            if now >= deadline {
                return Err(ServeError::DeadlineExceeded);
            }
            let (guard, _) = self.ready.wait_timeout(slot, deadline - now);
            slot = guard;
        }
    }

    /// True once [`Slot::wait`] would return immediately.
    pub(crate) fn is_ready(&self) -> bool {
        self.slot.lock().is_some()
    }
}

/// Handle to a submitted request; redeem with [`Ticket::wait`] or
/// [`Ticket::wait_timeout`].
pub struct Ticket {
    slot: Arc<ResponseSlot>,
}

impl Ticket {
    pub fn new(slot: Arc<ResponseSlot>) -> Self {
        Ticket { slot }
    }

    /// Block until the response is ready.
    pub fn wait(self) -> Result<ServeReply, ServeError> {
        self.slot.wait()
    }

    /// Block for at most `timeout`, returning
    /// [`ServeError::DeadlineExceeded`] if no response arrived in time —
    /// the in-process caller's version of a wire client's bounded wait.
    /// The request itself is *not* cancelled: the shard still serves (or
    /// expires) it and the daemon's telemetry still accounts for it, so an
    /// abandoned ticket never leaks queue-depth gauges.
    pub fn wait_timeout(self, timeout: Duration) -> Result<ServeReply, ServeError> {
        self.slot.wait_timeout(timeout)
    }

    /// Non-blocking poll: true once [`Ticket::wait`] would return
    /// immediately.
    pub fn is_ready(&self) -> bool {
        self.slot.is_ready()
    }
}
