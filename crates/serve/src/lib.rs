//! `teal-serve`: a multi-topology TE serving system — a transport-agnostic
//! serving core plus a TCP wire front end.
//!
//! The paper's pitch is that TE allocation becomes a *fixed-cost batched
//! compute step* fast enough to run inside the TE control interval. The
//! library crates realize the compute step ([`teal_core::ServingContext`]);
//! this crate turns it into a long-running, concurrency-safe **service**
//! reachable over a socket — the bridge from "library" to the ROADMAP's
//! "serve heavy traffic from millions of users".
//!
//! # Architecture
//!
//! ```text
//!   wire clients                     server front end        serving core
//!   ────────────                     ────────────────        ────────────────────
//!   TealClient ── REQUEST frames ──► TealServer
//!     │  (pipelined, id-tagged,
//!     │   tenant-tagged since v3)
//!     │ ── STATS frame ─► snapshot   ┌ epoll event loop ────────────────┐
//!     │                              │ one thread, N conns:             │
//!     │                              │  epoll_wait ─► accept burst      │
//!     │                              │   · per-conn FrameDecoder        │
//!     │                              │     (resumes mid-frame)          │
//!     │                              │   · per-conn WriteQueue          │
//!     │                              │     (pooled encode, one flush,   │
//!     │                              │      EPOLLOUT while backlogged)  │
//!     │                              │  (token, id) ─► one queue ─►     │
//!     │                              │  eventfd ─► group, flush once    │
//!     │                              │  slot map w/ generation tokens   │
//!     │                              └──────────────┬───────────────────┘
//!   in-process clients                              │ submit(SubmitRequest)
//!   ──────────────────                              ▼
//!   submit(SubmitRequest) ───────►┌──── admission control ────┐
//!                                 │ shed: queue full+deadline │──► shed ctr
//!        │                        │ shed: budget already gone │
//!        │                        │ refuse: bad link, arity   │
//!        │                        └──────────┬────────────────┘
//!        │                       ⊕ enqueue   │  route by topology
//!        │                                   ▼
//!        │                  shard "b4":   queue ► drain + linger
//!        │                     │    (linger capped at half the tightest
//!        │                     │     queued deadline budget)
//!        │                     │  expire stale deadlines (→ expired ctr)
//!        │                     │  EDF sort: tightest expiry first, plain
//!        │                     │    FIFO tail (→ inversion ctr, always 0)
//!        │                     │  group by failed-link signature
//!        │                     │    (plain = the empty signature)
//!        │                     ▼
//!        │          one sub-batch per signature, chunks of max_batch
//!        │             ▼
//!        │          ┌── per-chunk window ─────────────────────────────┐
//!        │          │ ⊕ solve-start (queue-wait span ends)            │
//!        │          │ the dispatcher thread's arena for every window: │
//!        │          │   try_allocate_batch_with        (plain), or    │
//!        │          │   Topology::with_failed_edges ─►                │
//!        │          │   try_allocate_batch_on_with     (failed links) │
//!        │          │ ⊕ solve-end · SolveReport (lanes, iters,        │
//!        │          │   residuals) out of the arena                   │
//!        │          │ ok: ⊕ reply-write, StageTimings::split per req  │
//!        │          │ failed (Err, panic), > 1 request: requeue each  │
//!        │          │   alone; 1 request: its error reply             │
//!        │          └─────────────────────────────────────────────────┘
//!        │             ▼
//!        │          ShardStats.record_batch(stage histograms, e2e = their
//!        │             sum; ADMM accumulators, slow-request exemplar
//!        │             ring) · per-tenant ctrs
//!        │                  shard "swan":  ... a true parallel lane ...
//!        ▼                                   ▼
//!   Ticket::wait /                 per-request response slots
//!   Ticket::wait_timeout ◄──────── (the loop's completion queue
//!   front end ◄──────────────────── notifies the wire front end; REPLY
//!     REPLY frames, any order)     frames drain out of order by id)
//!
//!   observability taps (⊕ = clock read; every "ctr" above is its
//!   shard's, in ShardStats under the shard's own lock):
//!   ServeDaemon::stats() / TealClient::stats() ──► TelemetrySnapshot,
//!   folded from the shards: per-topology e2e + queue-wait/solve/write
//!     p50/p99 · AdmmStats (windows, lanes, iters, residuals)
//!     · per-tenant request/window counts (≤ 64 tenants + "other" per
//!     topology) · deadline inversions · deepest shard queue · unmatched
//!     replies · teal_nn pool gauges · slow exemplars
//!
//!                    ┌─ metrics! table (telemetry.rs): one row per metric ─┐
//!                    │ field : type [as wire type] · family, help, labels  │
//!                    └──┬──────────────────┬──────────────────────┬────────┘
//!                       ▼                  ▼                      ▼
//!               snapshot structs    STATS_OK codec         to_prometheus()
//!               (pub fields)        (wire::Wire, v6        (family-major,
//!                                    bytes, min sizes)      escaped labels)
//! ```
//!
//! Layered deliberately:
//!
//! * **Request vocabulary** ([`SubmitRequest`], [`ServeReply`],
//!   [`ServeError`], [`Ticket`]) — one set of types spoken by every
//!   transport. A request carries three optional scenario axes: a
//!   **deadline** (admission control: shed at enqueue, expire at drain,
//!   bounded waits via [`Ticket::wait_timeout`]), **failed-link
//!   overrides** (the paper's §5.3 failure recovery, served without
//!   retraining through [`teal_core::ServingContext::try_allocate_batch_on_with`]),
//!   and a **tenant tag** (an accounting identity; untagged requests are
//!   the `"default"` tenant).
//! * **Serving core** ([`ServeDaemon`]) — per-topology dispatch shards
//!   behind the narrow `submit(SubmitRequest) -> Ticket` API. Submit
//!   routes each request to its topology's shard — a dedicated dispatcher
//!   thread with a private queue, condvars, one ADMM arena (the
//!   thread's own, shared by plain and failed-link windows alike — a
//!   failed link is just a capacity change), and every counter
//!   its requests move. Each shard drains its queue (lingering up to
//!   [`ServeConfig::linger`] so bursts pile up — but never past half of
//!   the tightest queued deadline budget), expires stale requests, sorts
//!   the window **earliest-deadline-first** (deadline-less requests keep
//!   FIFO order behind the deadline'd ones), groups by
//!   failure signature, and serves each sub-batch as one window: one
//!   forward pass per matrix, the matrices spread over the kernel pool, +
//!   arena-reusing batched ADMM. Every window runs its topology's one
//!   configured ADMM iteration count (`EngineConfig::admm`; the paper's
//!   §4 gives 2 below 100 nodes and 5 above), deadline or not, so a
//!   window's cost depends on its size alone. Backpressure is
//!   a bounded per-shard queue. Built from commutative
//!   operations across cores *and* connections (the
//!   scalable-commutativity design rule): no lock is held across model
//!   compute and no two shards share hot-path state but the cells the
//!   ledger below names, so a network front
//!   end multiplying concurrent submitters scales the same way more
//!   threads do.
//! * **Wire front end** ([`wire`], [`TealServer`], [`TealClient`]) —
//!   std-only TCP (no async runtime): a length-prefixed, versioned binary
//!   codec in which every frame body is one value of a private `Wire`
//!   trait — requests, replies, the typed errors (one code table) and the
//!   telemetry snapshot alike — written by one `put_frame` and read by one
//!   `decode` that refuses trailing bytes, so decoding any peer bytes
//!   never panics and holds at most 4× the payload in heap
//!   (`tests/wire_fuzz.rs`); a server multiplexing every connection on
//!   **one epoll event-loop thread** (incremental frame decode, pooled
//!   write queues, eventfd completion doorbell), draining tickets **out of
//!   order by request id** off the loop's one completion queue of
//!   `(connection, id)` pairs and answering STATS on receipt; and a
//!   blocking client with pipelined submits returning the same [`Ticket`]
//!   handle in-process callers use. Protocol version 6 (v6 drops the
//!   per-lane iteration spread and the frozen-lane count from STATS_OK;
//!   v5 dropped the budgeted-iteration total and the per-budget window
//!   counts; v4 added the unmatched-reply counter; v3 added the optional
//!   tenant tag to REQUEST and the tenant telemetry; other versions are
//!   refused at HELLO):
//!
//!   | frame (kind)    | direction       | payload                            |
//!   |-----------------|-----------------|------------------------------------|
//!   | HELLO (1)       | client → server | magic · protocol version (u16)     |
//!   | HELLO_OK (2)    | server → client | accepted version (u16)             |
//!   | REQUEST (3)     | client → server | id · topology · deadline? · tenant? · failed links · matrix |
//!   | REPLY (4)       | server → client | id · allocation ⊕ stage timings, or a [`ServeError`] |
//!   | STATS (5)       | client → server | id (scrape trigger, no body)       |
//!   | STATS_OK (6)    | server → client | id · full [`TelemetrySnapshot`] (incl. per-tenant counters, deadline inversions, unmatched replies) |
//! * **Topology/model registry with hot swap** ([`ModelRegistry`]) and
//!   **serving telemetry** ([`TelemetrySnapshot`], folded from per-shard
//!   counters by [`ServeDaemon::stats`]). A request carries only its
//!   enqueue instant; the shard reads the clock once per solve attempt
//!   (solve start, solve end, reply write — one set per window), so shards
//!   record *per-stage* latency histograms (queue-wait / solve / write,
//!   each with p50/p99) alongside the end-to-end one — and each
//!   [`ServeReply`] carries its own [`telemetry::StageTimings`] breakdown,
//!   split from those four instants. Batches that reach the
//!   ADMM fine-tuner feed a [`teal_core::SolveReport`] (lanes, the
//!   window's iteration count, primal/dual residuals) into per-topology
//!   [`telemetry::AdmmStats`]; `teal_nn::pool` occupancy gauges and a
//!   bounded ring of slow-request exemplars round out the snapshot. Export
//!   it three ways: [`ServeDaemon::stats`] in process,
//!   [`TealClient::stats`] over TCP (the v2 `STATS` frame), or
//!   [`TelemetrySnapshot::to_prometheus`] as Prometheus text. All three
//!   are projections of **one metric table** (the `metrics!` block in
//!   `telemetry.rs`): a row declares a snapshot field, its wire type and
//!   its Prometheus family, help text and labels once, and the structs,
//!   the `STATS_OK` encoder/decoder (with the minimum sizes that bound a
//!   hostile element count) and the renderer are generated from it — the
//!   table's order *is* the wire layout. Topology and tenant ids are peer
//!   input: REQUEST ids past [`wire::MAX_ID_BYTES`] are refused at decode,
//!   each topology accounts at most 64 tenants individually (the rest pool
//!   under `"other"`; rows merge by name across topologies), and label
//!   values are escaped on the way into the text.
//!
//! # Shared cells a request writes
//!
//! Requests on different topologies commute (neither reply depends on the
//! other), so by the Scalable Commutativity Rule they can run without
//! writing a common cell. The cells a request writes, submit to reply:
//!
//! | cell | written by | commutes across topologies |
//! |---|---|---|
//! | the shard queue and its two condvars | enqueue, drain | yes: one per topology |
//! | the shard's `ShardStats` (every counter of the snapshot) | shed, expiry, drain, each served or failed chunk | yes: one per topology |
//! | the request's response slot | its one fulfillment | yes: one per request |
//! | the [`ModelRegistry`] `RwLock`, read | every submit and drain: a read still writes the lock word | no: one per daemon |
//! | the shard-map `Mutex` in `ServeDaemon::shard` | every submit | no: one per daemon |
//! | the event loop's completion queue | every wire reply | no: shared by that loop's connections |
//! | `unmatched_replies` | the event loop's bug path only | no: one per daemon |
//! | `teal_nn::pool`'s counters and helper budget | every fanned-out window | no: shared by design |
//!
//! *Guarantees:* requests on different topologies write in common only the
//! five "no" cells; every snapshot counter but `unmatched_replies` and the
//! pool's is folded over shards at read time by [`ServeDaemon::stats`].
//! *Assuming:* one shard per registry id.
//! *Enforced by:* structure (`telemetry.rs` imports no atomic and no lock)
//! and `tests/admission.rs::counters_fold_per_shard_and_survive_shutdown`.
//! No test counts shared-cell writes per request yet (see ROADMAP.md).
//!
//! # Quickstart (in-process)
//!
//! ```no_run
//! use std::sync::Arc;
//! use teal_core::{Env, EngineConfig, ServingContext, TealConfig, TealModel};
//! use teal_serve::{ModelRegistry, ServeDaemon, SubmitRequest};
//! use teal_topology::b4;
//! use teal_traffic::TrafficMatrix;
//!
//! let env = Arc::new(Env::for_topology(b4()));
//! let model = TealModel::new(Arc::clone(&env), TealConfig::default());
//! let registry = ModelRegistry::new();
//! registry.insert("b4", ServingContext::new(model, EngineConfig::paper_default(12)));
//! let daemon = ServeDaemon::with_defaults(registry);
//!
//! let tm = TrafficMatrix::new(vec![20.0; env.num_demands()]);
//! let reply = daemon.allocate("b4", tm.clone()).expect("served");
//! println!("batch of {} in {:?}", reply.batch_size, reply.latency);
//!
//! // Scenario axes: bounded wait + a failure window, same submit API.
//! let degraded = daemon.submit(
//!     SubmitRequest::new("b4", tm)
//!         .with_deadline(std::time::Duration::from_millis(50))
//!         .with_failed_link(0, 1),
//! );
//! match degraded.wait() {
//!     Ok(reply) => println!("failure window served: {:?}", reply.latency),
//!     Err(e) => println!("shed/expired: {e}"),
//! }
//! ```
//!
//! # Quickstart (wire)
//!
//! ```no_run
//! use std::sync::Arc;
//! use teal_serve::{ModelRegistry, ServeDaemon, TealClient, TealServer};
//! # use teal_core::{Env, EngineConfig, ServingContext, TealConfig, TealModel};
//! # use teal_topology::b4;
//! # use teal_traffic::TrafficMatrix;
//! # let env = Arc::new(Env::for_topology(b4()));
//! # let model = TealModel::new(Arc::clone(&env), TealConfig::default());
//! # let registry = ModelRegistry::new();
//! # registry.insert("b4", ServingContext::new(model, EngineConfig::paper_default(12)));
//! let daemon = Arc::new(ServeDaemon::with_defaults(registry));
//! let server = TealServer::bind(Arc::clone(&daemon), "127.0.0.1:0").expect("bind");
//! let client = TealClient::connect(server.local_addr()).expect("connect");
//! let tm = TrafficMatrix::new(vec![20.0; env.num_demands()]);
//! let reply = client.allocate("b4", tm).expect("served over TCP");
//! println!("batch of {} in {:?}", reply.batch_size, reply.latency);
//! ```
//!
//! # Supported socket platform
//!
//! Linux. [`TealServer`] is the epoll event loop and nothing else, so it
//! (and the private `net` module under it) exists only on
//! `target_os = "linux"`; there is no second front end for other targets.
//! The serving core, the wire codec and [`TealClient`] are portable `std`.
//!
//! See `examples/wire_serve.rs` for the full socket loop (plain +
//! deadline'd + failure requests, sheds/expiries in telemetry),
//! `examples/serve_loop.rs` for the in-process submit → coalesce → hot
//! swap loop, and the `b4swan_socket_closed` / `b4swan_socket_open_mixed`
//! workloads in `BENCHMARK.json` for what the socket path costs
//! (`serve.net.wire_overhead_p50_ms`).

// Unsafe is denied workspace-wide; the single override in this crate is
// `net/sys.rs`, the hand-rolled epoll/eventfd FFI bindings (the crates
// registry is unreachable, so no `libc`), which opts back in with its own
// `#![allow(unsafe_code)]` and per-site SAFETY comments. The crate's
// `clippy.toml` confines raw-fd plumbing to that file, the clock to
// `telemetry::now` and std's sync primitives to `sync.rs`.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod client;
pub mod daemon;
/// The epoll event-loop front end and the [`TealServer`] that owns it
/// (Linux only; the loom model-check build also skips them — blocking
/// syscall I/O is out of the checker's scope, and no model touches a
/// socket).
#[cfg(all(target_os = "linux", not(teal_loom)))]
pub(crate) mod net;
pub mod registry;
#[cfg(all(target_os = "linux", not(teal_loom)))]
pub mod server;
pub mod telemetry;
pub mod wire;

// The concurrency-bearing internals are private in a normal build, but the
// model-check harness (`tests/model_check.rs`, compiled with
// `RUSTFLAGS="--cfg teal_loom"`) drives the shipping shard-queue,
// response-slot, completion-queue and client protocols directly, so the
// loom build exports them.
#[cfg(teal_loom)]
pub mod model;
#[cfg(not(teal_loom))]
mod request;
#[cfg(teal_loom)]
pub mod request;
#[cfg(not(teal_loom))]
pub(crate) mod sync;
#[cfg(teal_loom)]
pub mod sync;

pub use client::TealClient;
pub use daemon::{ServeConfig, ServeDaemon};
pub use registry::ModelRegistry;
pub use request::{ServeError, ServeReply, SubmitRequest, Ticket, DEFAULT_TENANT};
#[cfg(all(target_os = "linux", not(teal_loom)))]
pub use server::TealServer;
pub use telemetry::{
    AdmmStats, LatencyHistogram, LatencyStats, SlowExemplar, StageTimings, TelemetrySnapshot,
    TenantSnapshot, TopoSnapshot,
};
