//! Serving telemetry: per-topology, per-stage latency histograms
//! (p50/p99), ADMM solve introspection, queue depth, worker-pool gauges,
//! slow-request exemplars, and the coalesced batch-size distribution.
//!
//! The recording side is deliberately cheap and contention-free in the
//! places that matter: each dispatcher shard owns its topology's
//! `ShardStats` outright (stage histograms, ADMM accumulators, the
//! batch-size distribution, exemplar ring, shed/expired/error and
//! deadline-inversion counts, queue high-water mark and per-tenant
//! totals) behind its own lock. No counter a request moves is
//! process-wide, so shards never contend with each other on the hot path.
//! Readers fold every shard's stats into one [`TelemetrySnapshot`]
//! (`fold_shards`), locking each shard's stats only long enough to copy
//! them out.
//!
//! A window is the unit of time: a request carries only its enqueue
//! instant, and the shard reads the clock once per solve attempt — solve
//! start, solve end and reply write, shared by every request of the
//! window. `StageTimings::split` turns a request's enqueue instant and
//! its window's three into a [`StageTimings`] (queue-wait / solve / write)
//! that is both recorded into the shard histograms and returned to
//! callers inside `ServeReply`, so "why was this one slow" is answerable
//! per request.
//!
//! What is *exported* is declared once, in the metric table at the bottom
//! of this file: the snapshot structs, the STATS_OK wire codec and the
//! Prometheus text are all generated from its rows.

use std::collections::HashMap;
use std::fmt::{self, Display, Write as _};
use std::ops::Deref;
use std::time::{Duration, Instant};

use teal_nn::pool::PoolStats;

use crate::wire::{Reader, Wire, WireError};

/// The crate's single clock read. Every other site stamps time through
/// this wrapper (the crate's `clippy.toml` disallows `Instant::now`, and
/// this function carries the one allow), so wall-clock reads stay
/// auditable and a future virtual clock for the model checker has one seam
/// to patch.
#[allow(clippy::disallowed_methods)]
pub(crate) fn now() -> Instant {
    Instant::now()
}

/// Log-spaced latency histogram: bucket `i` covers per-request latencies of
/// roughly `2^(i/4)` nanoseconds (four sub-buckets per octave — quantile
/// error bounded by half a sub-bucket, ≤ ~9% relative, plenty for p50/p99
/// serving dashboards while keeping recording allocation-free).
#[derive(Clone)]
pub struct LatencyHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum_ns: f64,
    max_ns: u64,
}

/// Sub-buckets per factor-of-two of latency.
const SUBDIV: f64 = 4.0;
/// Bucket count: covers ~1ns to ~2^64ns with 4 sub-buckets per octave.
const NUM_BUCKETS: usize = 64 * SUBDIV as usize;

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum_ns: 0.0,
            max_ns: 0,
        }
    }
}

impl LatencyHistogram {
    fn bucket_index(ns: u64) -> usize {
        if ns <= 1 {
            return 0;
        }
        (((ns as f64).log2() * SUBDIV) as usize).min(NUM_BUCKETS - 1)
    }

    /// Representative latency of bucket `i`: its *geometric midpoint*. The
    /// bucket spans `[2^(i/S), 2^((i+1)/S))`; reporting the lower edge (as
    /// an earlier version did) systematically understated every quantile by
    /// up to a full sub-bucket (~19%), while the midpoint is off by at most
    /// half a sub-bucket (~9%) in either direction.
    fn bucket_value(i: usize) -> f64 {
        2f64.powf((i as f64 + 0.5) / SUBDIV)
    }

    /// Record one observation.
    pub fn record(&mut self, latency: Duration) {
        let ns = latency.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.buckets[Self::bucket_index(ns)] += 1;
        self.count += 1;
        self.sum_ns += ns as f64;
        self.max_ns = self.max_ns.max(ns);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean latency (zero when empty).
    pub fn mean(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos((self.sum_ns / self.count as f64) as u64)
    }

    /// Quantile estimate via cumulative bucket counts (`q` in `[0, 1]`).
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Cap at the true observed maximum so p99 of a tight
                // distribution never exceeds the slowest real request.
                let est = Self::bucket_value(i).min(self.max_ns as f64);
                return Duration::from_nanos(est as u64);
            }
        }
        Duration::from_nanos(self.max_ns)
    }

    /// The standard dashboard triple (mean, p50, p99).
    pub fn summary(&self) -> LatencyStats {
        LatencyStats {
            mean: self.mean(),
            p50: self.quantile(0.50),
            p99: self.quantile(0.99),
        }
    }
}

impl StageTimings {
    /// One request's stages: from its own enqueue instant to its window's
    /// three shared instants — solve start (where queue-wait ends), solve
    /// end and reply write. The instants are monotonic, so the stages
    /// partition `done - enqueued` exactly.
    pub(crate) fn split(
        enqueued: Instant,
        solve_start: Instant,
        solve_end: Instant,
        done: Instant,
    ) -> Self {
        StageTimings {
            queue_wait: solve_start.saturating_duration_since(enqueued),
            solve: solve_end.saturating_duration_since(solve_start),
            write: done.saturating_duration_since(solve_end),
        }
    }

    /// End-to-end (enqueue → reply write) latency: the stages partition
    /// it exactly (`trace_stages_partition_end_to_end`).
    pub(crate) fn end_to_end(&self) -> Duration {
        self.queue_wait + self.solve + self.write
    }
}

impl AdmmStats {
    /// Mean iterations per lane.
    pub fn mean_iterations(&self) -> f64 {
        self.iterations as f64 / self.lanes.max(1) as f64
    }

    /// Fold one solver window into the totals (a shard accumulates straight
    /// into the struct it exports).
    fn record(&mut self, r: &teal_core::SolveReport) {
        self.windows += 1;
        self.lanes += r.lanes as u64;
        self.iterations += (r.lanes * r.iterations) as u64;
        self.last_primal_residual = r.max_primal_residual;
        self.last_dual_residual = r.max_dual_residual;
        self.max_primal_residual = self.max_primal_residual.max(r.max_primal_residual);
        self.max_dual_residual = self.max_dual_residual.max(r.max_dual_residual);
    }
}

/// Slow-request exemplars retained per shard (top-k by end-to-end latency).
const SLOW_EXEMPLARS: usize = 8;

/// Bounded top-k ring of the slowest requests seen by one shard, each as
/// `(its stages, its batch size)`. Capacity is reserved up front so
/// offering is allocation-free.
struct SlowRing {
    entries: Vec<(StageTimings, usize)>,
}

impl Default for SlowRing {
    fn default() -> Self {
        SlowRing {
            entries: Vec::with_capacity(SLOW_EXEMPLARS),
        }
    }
}

impl SlowRing {
    fn offer(&mut self, stages: StageTimings, batch_size: usize) {
        if self.entries.len() < SLOW_EXEMPLARS {
            self.entries.push((stages, batch_size));
            return;
        }
        // Replace the current fastest entry iff the newcomer is slower.
        let (idx, fastest) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, (s, _))| s.end_to_end())
            .unwrap_or_else(|| unreachable!("ring has SLOW_EXEMPLARS entries here"));
        if stages.end_to_end() > fastest.0.end_to_end() {
            self.entries[idx] = (stages, batch_size);
        }
    }
}

/// One shard's serving counters: the only home of every counter a request
/// moves, behind the shard's own lock, so requests on different topologies
/// write no common counter. Readers fold the shards with [`fold_shards`].
#[derive(Default)]
pub(crate) struct ShardStats {
    latency: LatencyHistogram,
    queue_wait: LatencyHistogram,
    solve: LatencyHistogram,
    write: LatencyHistogram,
    /// Coalesced-batch size → occurrence count (for this shard).
    batch_sizes: HashMap<usize, u64>,
    /// Solver totals; exported once `windows > 0`.
    admm: AdmmStats,
    slow: SlowRing,
    /// Replies other than a served allocation: sheds at enqueue, expiries
    /// at drain, and every other error; each also counts as completed.
    pub(crate) shed: u64,
    pub(crate) expired: u64,
    pub(crate) errors: u64,
    /// See [`TelemetrySnapshot::deadline_inversions`].
    pub(crate) deadline_inversions: u64,
    /// Largest drain this shard took. A queue only shrinks when a drain
    /// empties it, so with the current length this is its high-water mark.
    pub(crate) max_drain: usize,
    /// Tenant id → (requests, windows) served on this shard.
    tenants: HashMap<String, (u64, u64)>,
}

impl ShardStats {
    /// Record one coalesced batch: its requests' stage breakdowns (each
    /// summing to that request's end-to-end latency), and the batch's
    /// solver report when it reached the ADMM fine-tuner.
    pub(crate) fn record_batch(
        &mut self,
        stages: &[StageTimings],
        solve: Option<&teal_core::SolveReport>,
    ) {
        *self.batch_sizes.entry(stages.len()).or_insert(0) += 1;
        for s in stages {
            self.latency.record(s.end_to_end());
            self.queue_wait.record(s.queue_wait);
            self.solve.record(s.solve);
            self.write.record(s.write);
            self.slow.offer(*s, stages.len());
        }
        if let Some(r) = solve {
            self.admm.record(r);
        }
    }

    /// Credit `requests` served requests and `windows` solver windows to
    /// `tenant` (a chunk charges its window to the dominant tenant; request
    /// counts go to each request's own tenant).
    pub(crate) fn charge_tenant(&mut self, tenant: &str, requests: u64, windows: u64) {
        let full = self.tenants.len() >= MAX_TENANTS && !self.tenants.contains_key(tenant);
        let row = if full { OVERFLOW_TENANT } else { tenant };
        let (r, w) = self.tenants.entry(row.to_string()).or_default();
        *r += requests;
        *w += windows;
    }
}

/// Distinct tenant ids accounted individually per topology. Ids are
/// peer-supplied, so without a cap a client minting fresh ones grows every
/// STATS_OK frame and Prometheus scrape without bound; later arrivals
/// share one [`OVERFLOW_TENANT`] row and the totals still add up. Topology
/// ids are registry-controlled, so the merged row count stays bounded.
const MAX_TENANTS: usize = 64;
const OVERFLOW_TENANT: &str = "other";

/// The one fold from shard stats to a [`TelemetrySnapshot`]: every shard
/// as `(topology, requests queued now, its stats)`, plus the front end's
/// `unmatched_replies` count; the `teal_nn::pool` counters are sampled
/// here. No total is stored twice: a topology's `requests` is its
/// end-to-end histogram's count and `batches` its batch-size counts
/// summed; `completed` is requests + shed + expired + errors, and
/// `queue_depth` the queue lengths summed.
pub(crate) fn fold_shards<'a, S: Deref<Target = ShardStats>>(
    shards: impl IntoIterator<Item = (&'a str, usize, S)>,
    unmatched_replies: u64,
) -> TelemetrySnapshot {
    let mut snap = TelemetrySnapshot {
        unmatched_replies,
        pool: teal_nn::pool::stats(),
        ..TelemetrySnapshot::default()
    };
    let mut batch_sizes: HashMap<usize, u64> = HashMap::new();
    let mut tenants: HashMap<String, (u64, u64)> = HashMap::new();
    for (topology, queued, s) in shards {
        let requests = s.latency.count();
        snap.per_topology.push(TopoSnapshot {
            topology: topology.to_string(),
            requests,
            batches: s.batch_sizes.values().sum(),
            e2e: s.latency.summary(),
            queue_wait: s.queue_wait.summary(),
            solve: s.solve.summary(),
            write: s.write.summary(),
            admm: (s.admm.windows > 0).then(|| s.admm.clone()),
        });
        for (&size, &n) in &s.batch_sizes {
            *batch_sizes.entry(size).or_insert(0) += n;
        }
        for (name, &(requests, windows)) in &s.tenants {
            let (r, w) = tenants.entry(name.clone()).or_default();
            *r += requests;
            *w += windows;
        }
        snap.slow.extend(
            s.slow
                .entries
                .iter()
                .map(|&(stages, batch_size)| SlowExemplar {
                    topology: topology.to_string(),
                    latency: stages.end_to_end(),
                    stages,
                    batch_size,
                }),
        );
        snap.queue_depth += queued;
        snap.max_queue_depth = snap.max_queue_depth.max(s.max_drain).max(queued);
        snap.completed += requests + s.shed + s.expired + s.errors;
        snap.shed += s.shed;
        snap.expired += s.expired;
        snap.deadline_inversions += s.deadline_inversions;
    }
    snap.per_topology
        .sort_by(|a, b| a.topology.cmp(&b.topology));
    // Global top-k across shards, slowest first.
    snap.slow.sort_by_key(|e| std::cmp::Reverse(e.latency));
    snap.slow.truncate(SLOW_EXEMPLARS);
    snap.batch_sizes = batch_sizes.into_iter().collect();
    snap.batch_sizes.sort_unstable();
    snap.tenants = tenants
        .into_iter()
        .map(|(tenant, (requests, windows))| TenantSnapshot {
            tenant,
            requests,
            windows,
        })
        .collect();
    snap.tenants.sort_by(|a, b| a.tenant.cmp(&b.tenant));
    snap
}

impl TelemetrySnapshot {
    /// Mean coalesced batch size (zero when nothing was served).
    pub fn mean_batch_size(&self) -> f64 {
        let (total_reqs, total_batches) = self
            .batch_sizes
            .iter()
            .fold((0u64, 0u64), |(r, b), &(size, n)| {
                (r + size as u64 * n, b + n)
            });
        if total_batches == 0 {
            0.0
        } else {
            total_reqs as f64 / total_batches as f64
        }
    }

    /// Render the snapshot in Prometheus text exposition format: every
    /// family the metric table declares, in table order, each as its
    /// `# HELP`/`# TYPE` header followed by all of its samples. Suitable
    /// for a scrape endpoint or a CI artifact.
    pub fn to_prometheus(&self) -> String {
        let mut p = PromText::default();
        Self::families(&mut p);
        self.samples(&mut p);
        p.blocks.into_iter().map(|(_, block)| block).collect()
    }
}

// ---------------------------------------------------------- metric table
//
// Every exported serving metric is declared once, in `metrics!` below: the
// snapshot struct field, its place in the STATS_OK payload and its
// Prometheus family all come from that one row. The rest of this section
// is the machinery the rows expand to.

/// The Prometheus projection of a table type. The exposition format wants
/// each family's samples contiguous while the snapshot nests them per
/// topology, so rendering first opens one text block per declared family
/// and then walks the snapshot once, each sample landing in its family's
/// block.
pub(crate) trait Prom {
    /// Open a block for every family declared at or below this type, in
    /// table order.
    fn families(_p: &mut PromText) {}
    /// Write the samples found at or below `self`. A bare value is one
    /// sample of the family whose group the walk last entered.
    fn samples(&self, p: &mut PromText);
}

/// Text under construction plus the walk's cursor: the family being
/// written and the labels in force.
#[derive(Default)]
pub(crate) struct PromText {
    /// `(family name, its header and samples so far)`, in table order.
    blocks: Vec<(&'static str, String)>,
    /// Index into `blocks` of the family samples currently go to.
    family: usize,
    /// Rendered `key="value",` pairs from the enclosing rows, outermost
    /// first…
    labels: String,
    /// …and those a struct prints after its rows' own (`label_after`).
    suffix: String,
    /// Position in its vector of the element being rendered (`index` rows).
    index: usize,
    /// Label key the `(key, value)` pairs under the current row go by.
    pair_key: &'static str,
}

impl PromText {
    fn declare(&mut self, name: &'static str, kind: &str, help: &str) {
        let header = format!("# HELP {name} {help}\n# TYPE {name} {kind}\n");
        self.blocks.push((name, header));
    }

    fn enter(&mut self, name: &str) {
        if let Some(at) = self.blocks.iter().position(|(n, _)| *n == name) {
            self.family = at;
        }
    }

    fn mark(&self) -> (usize, usize) {
        (self.labels.len(), self.suffix.len())
    }

    fn reset(&mut self, (labels, suffix): (usize, usize)) {
        self.labels.truncate(labels);
        self.suffix.truncate(suffix);
    }

    fn label(&mut self, key: &str, value: impl Display) {
        push_label(&mut self.labels, key, value);
    }

    fn label_after(&mut self, key: &str, value: impl Display) {
        push_label(&mut self.suffix, key, value);
    }

    fn sample(&mut self, value: fmt::Arguments<'_>) {
        let Some((name, out)) = self.blocks.get_mut(self.family) else {
            return;
        };
        out.push_str(name);
        if !(self.labels.is_empty() && self.suffix.is_empty()) {
            out.push('{');
            out.push_str(&self.labels);
            out.push_str(&self.suffix);
            out.pop(); // the last pair's comma
            out.push('}');
        }
        let _ = writeln!(out, " {value}");
    }
}

/// The one place a label value is written. Topology and tenant ids are
/// peer input, so `\`, `"` and newline are escaped as the exposition
/// format requires — a hostile id cannot close its quotes and forge a
/// sample.
fn push_label(to: &mut String, key: &str, value: impl Display) {
    struct Escaped<'a>(&'a mut String);
    impl fmt::Write for Escaped<'_> {
        fn write_str(&mut self, mut s: &str) -> fmt::Result {
            while let Some(at) = s.find(['\\', '"', '\n']) {
                self.0.push_str(&s[..at]);
                self.0.push_str(match s.as_bytes()[at] {
                    b'\\' => "\\\\",
                    b'"' => "\\\"",
                    _ => "\\n",
                });
                s = &s[at + 1..];
            }
            self.0.push_str(s);
            Ok(())
        }
    }
    to.push_str(key);
    to.push_str("=\"");
    let _ = write!(Escaped(to), "{value}");
    to.push_str("\",");
}

/// How each bare value prints as a sample.
macro_rules! prom_values {
    ($($t:ty, $v:ident => ($($fmt:tt)+);)*) => {$(
        impl Prom for $t {
            fn samples(&self, p: &mut PromText) {
                let $v = self;
                p.sample(format_args!($($fmt)+));
            }
        }
    )*};
}
prom_values! {
    u64, v => ("{v}");
    usize, v => ("{v}");
    f64, v => ("{v:e}");
    Duration, v => ("{:.9}", v.as_secs_f64());
}

impl<T: Prom> Prom for Option<T> {
    fn families(p: &mut PromText) {
        T::families(p);
    }
    fn samples(&self, p: &mut PromText) {
        if let Some(v) = self {
            v.samples(p);
        }
    }
}

impl<T: Prom> Prom for Vec<T> {
    fn families(p: &mut PromText) {
        T::families(p);
    }
    fn samples(&self, p: &mut PromText) {
        for (i, v) in self.iter().enumerate() {
            p.index = i;
            v.samples(p);
        }
    }
}

/// A `(key, value)` pair: the value, labelled by the key under the name
/// its row gave (`[name = key]`).
impl<K: Display, V: Prom> Prom for (K, V) {
    fn samples(&self, p: &mut PromText) {
        let mark = p.mark();
        p.label(p.pair_key, &self.0);
        self.1.samples(p);
        p.reset(mark);
    }
}

/// The table's grammar. A struct is a sequence of *groups*, each
/// `kind { rows }`, in wire order; a row is
/// `field: Type [as WireType] [[label = "value", ...]]`. Every row becomes
/// a `pub` field and one step of the [`Wire`] codec — its type's impl, or
/// the `as` type's after a cast. The group kind says what else it is:
///
/// * `label("k")` / `label_after("k")` — its value labels every sample the
///   struct renders, before / after the sample's own row labels.
/// * `index("k")` (no rows) — labels them with the struct's position in
///   the vector that holds it.
/// * `counter("name", "help")` / `gauge(...)` — declares that family, here
///   and nowhere else; its rows are the family's samples, told apart by
///   their static `[labels]`. `[k = key]` instead names the key label of a
///   `Vec<(key, value)>` row.
/// * `nested` — its rows render themselves: a table struct brings its own
///   families, a bare value is a sample of the family whose group holds
///   the struct.
///
/// `impl Type { groups }` generates the codec and renderer for a struct
/// defined elsewhere.
macro_rules! metrics {
    ($( $(#[$meta:meta])* pub struct $name:ident { $($groups:tt)* } )*) => {$(
        metrics!(@struct [$(#[$meta])*] $name; $($groups)*);
        metrics!(impl $name { $($groups)* });
    )*};
    (@struct [$($meta:tt)*] $name:ident; $(
        $kind:ident $(($($arg:literal),*))? {
            $( $(#[$doc:meta])* $field:ident : $ty:ty $(as $wire:ty)? $([$($labels:tt)*])? ),* $(,)?
        }
    )*) => {
        $($meta)*
        pub struct $name {
            $($( $(#[$doc])* pub $field: $ty, )*)*
        }
    };
    (impl $name:ident { $(
        $kind:ident $(($($arg:literal),*))? {
            $( $(#[$doc:meta])* $field:ident : $ty:ty $(as $wire:ty)? $([$($labels:tt)*])? ),* $(,)?
        }
    )* }) => {
        impl Wire for $name {
            const MIN_BYTES: usize =
                0 $($( + <metrics!(@wire $ty $(, $wire)?) as Wire>::MIN_BYTES )*)*;
            fn put(&self, buf: &mut Vec<u8>) {
                $($( metrics!(@put buf, self.$field $(, $wire)?); )*)*
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(Self { $($( $field: metrics!(@get r, $ty $(, $wire)?), )*)* })
            }
        }
        impl Prom for $name {
            fn families(p: &mut PromText) {
                $( metrics!(@families $kind $(($($arg),*))?; p; $($ty;)*); )*
            }
            fn samples(&self, p: &mut PromText) {
                let mark = p.mark();
                $( metrics!(@labels $kind $(($($arg),*))?; p, self; $($field)*); )*
                $( metrics!(@samples $kind $(($($arg),*))?; p, self;
                    $($field [$($($labels)*)?];)*); )*
                p.reset(mark);
            }
        }
    };

    (@wire $ty:ty) => { $ty };
    (@wire $ty:ty, $wire:ty) => { $wire };
    (@put $buf:ident, $v:expr) => { Wire::put(&$v, $buf) };
    (@put $buf:ident, $v:expr, $wire:ty) => { Wire::put(&($v as $wire), $buf) };
    (@get $r:ident, $ty:ty) => { <$ty as Wire>::get($r)? };
    (@get $r:ident, $ty:ty, $wire:ty) => { <$wire as Wire>::get($r)? as $ty };

    (@families $kind:ident($name:literal, $help:literal); $p:ident; $($ty:ty;)*) => {
        $p.declare($name, stringify!($kind), $help);
    };
    (@families nested; $p:ident; $($ty:ty;)*) => { $( <$ty as Prom>::families($p); )* };
    (@families $kind:ident $(($key:literal))?; $p:ident; $($ty:ty;)*) => {};

    (@labels label($key:literal); $p:ident, $s:ident; $($field:ident)*) => {
        $( $p.label($key, &$s.$field); )*
    };
    (@labels label_after($key:literal); $p:ident, $s:ident; $($field:ident)*) => {
        $( $p.label_after($key, &$s.$field); )*
    };
    (@labels index($key:literal); $p:ident, $s:ident;) => { $p.label($key, $p.index); };
    (@labels $kind:ident $(($($arg:literal),*))?; $p:ident, $s:ident; $($field:ident)*) => {};

    (@samples $kind:ident($name:literal, $help:literal); $p:ident, $s:ident; $($rows:tt)*) => {
        $p.enter($name);
        metrics!(@samples nested; $p, $s; $($rows)*);
    };
    (@samples nested; $p:ident, $s:ident;
        $($field:ident [$($key:ident = $value:tt),*];)*) => {$(
        let row = $p.mark();
        $( metrics!(@row_label $p, $key = $value); )*
        Prom::samples(&$s.$field, $p);
        $p.reset(row);
    )*};
    (@samples $kind:ident $(($key:literal))?; $($rest:tt)*) => {};
    (@row_label $p:ident, $name:ident = key) => { $p.pair_key = stringify!($name); };
    (@row_label $p:ident, $name:ident = $value:literal) => {
        $p.label(stringify!($name), $value);
    };
}

metrics! {
    /// Mean/p50/p99 of one latency stream.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct LatencyStats {
        nested {
            /// Mean latency.
            mean: Duration [quantile = "mean"],
            /// Median latency.
            p50: Duration [quantile = "0.5"],
            /// 99th-percentile latency.
            p99: Duration [quantile = "0.99"],
        }
    }

    /// Per-stage breakdown of one request's end-to-end latency.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct StageTimings {
        nested {
            /// Enqueue → drained by the shard (time spent in the queue).
            queue_wait: Duration [stage = "queue_wait"],
            /// Forward pass + ADMM fine-tuning for the batch the request rode in.
            solve: Duration [stage = "solve"],
            /// Solve end → response slot fulfilled (allocation split + reply write).
            write: Duration [stage = "write"],
        }
    }

    /// Aggregate ADMM solve statistics for one topology (§3.4 quality/latency
    /// knob, made measurable). A *window* is one coalesced batch that reached
    /// the solver; a *lane* is one traffic matrix inside a window.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct AdmmStats {
        counter("teal_serve_admm_windows_total", "Solver windows (batches) run.") {
            /// Solver windows (coalesced batches) run.
            windows: u64,
        }
        counter("teal_serve_admm_lanes_total", "Solver lanes (traffic matrices) run.") {
            /// Total lanes (traffic matrices) across all windows.
            lanes: u64,
        }
        counter("teal_serve_admm_iterations_total", "ADMM iterations summed over lanes.") {
            /// Total ADMM iterations summed over lanes.
            iterations: u64,
        }
        counter("teal_serve_admm_budget_downgrades_total", "Always 0: every window runs the configured iteration count.") {
            /// Always 0: every window runs its topology's configured
            /// `max_iters`, and no policy runs one below it. The row stays
            /// only while the benchmark reads it as
            /// `serve.daemon.budget_downgrades`; delete it once that row goes.
            budget_downgrades: u64,
        }
        gauge("teal_serve_admm_residual", "Final ADMM residuals (kind=primal|dual, stat=last|max).") {
            /// Worst primal residual of the most recent window.
            last_primal_residual: f64 [kind = "primal", stat = "last"],
            /// Worst primal residual of any window.
            max_primal_residual: f64 [kind = "primal", stat = "max"],
            /// Worst dual residual of the most recent window.
            last_dual_residual: f64 [kind = "dual", stat = "last"],
            /// Worst dual residual of any window.
            max_dual_residual: f64 [kind = "dual", stat = "max"],
        }
    }

    /// One topology's latency profile.
    #[derive(Clone, Debug, PartialEq)]
    pub struct TopoSnapshot {
        label("topology") {
            /// Registry id of the topology.
            topology: String,
        }
        counter("teal_serve_requests_total", "Requests served per topology.") {
            /// Requests served.
            requests: u64,
        }
        counter("teal_serve_batches_total", "Coalesced batches served per topology.") {
            /// Coalesced batches those requests rode in.
            batches: u64,
        }
        gauge("teal_serve_stage_seconds", "Request latency by pipeline stage (quantile label; mean under quantile=\"mean\").") {
            /// End-to-end (enqueue → response) latency.
            e2e: LatencyStats [stage = "e2e"],
            /// Time spent waiting in the shard queue (enqueue → drain).
            queue_wait: LatencyStats [stage = "queue_wait"],
            /// Time in the forward pass + ADMM fine-tuning.
            solve: LatencyStats [stage = "solve"],
            /// Time from solve end to response fulfillment.
            write: LatencyStats [stage = "write"],
        }
        nested {
            /// ADMM solve statistics (`None` until a batch reaches the solver).
            admm: Option<AdmmStats>,
        }
    }

    /// One slow-request exemplar with its stage breakdown.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SlowExemplar {
        label("topology") {
            /// Topology the request was for.
            topology: String,
        }
        index("rank") {}
        gauge("teal_serve_slow_seconds", "Slowest requests (rank 0 = slowest) by stage.") {
            /// End-to-end (enqueue → response) latency.
            latency: Duration [stage = "e2e"],
            /// Where that time went.
            stages: StageTimings,
        }
        label_after("batch") {
            /// Size of the coalesced batch the request rode in.
            batch_size: usize as u32,
        }
    }

    /// One tenant's served totals.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct TenantSnapshot {
        label("tenant") {
            /// Tenant id (`"default"` for untagged requests; `"other"` pools
            /// every tenant past a topology's tracking cap).
            tenant: String,
        }
        counter("teal_serve_tenant_requests_total", "Requests served per tenant.") {
            /// Requests served for this tenant (success replies only).
            requests: u64,
        }
        counter("teal_serve_tenant_windows_total", "Solver windows charged per tenant (dominant-tenant accounting).") {
            /// Solver windows charged to this tenant (dominant-tenant accounting).
            windows: u64,
        }
    }

    /// Point-in-time copy of the daemon's serving statistics.
    #[derive(Clone, Debug, Default, PartialEq)]
    pub struct TelemetrySnapshot {
        nested {
            /// Per-topology latency/request stats, sorted by topology id.
            per_topology: Vec<TopoSnapshot>,
        }
        counter("teal_serve_batch_size_total", "Coalesced batches by size.") {
            /// `(batch size, occurrences)` across all shards, sorted by size.
            /// Sizes are *served window* sizes: counted after drain-time expiry
            /// removes lapsed requests and after signature grouping/chunking, so
            /// the distribution never overstates windows under deadline churn.
            batch_sizes: Vec<(usize, u64)> [size = key],
        }
        gauge("teal_serve_queue_depth", "Requests currently enqueued.") {
            /// Requests currently waiting in shard queues.
            queue_depth: usize as u64,
        }
        gauge("teal_serve_max_queue_depth", "Deepest shard queue observed.") {
            /// Deepest any one shard's queue has been since startup: the
            /// largest drain it took, or its current length. Queues are
            /// bounded per shard ([`crate::ServeConfig::queue_capacity`]);
            /// an aggregate high-water mark would need a cell every shard
            /// writes.
            max_queue_depth: usize as u64,
        }
        counter("teal_serve_completed_total", "Requests answered (success or error).") {
            /// Total requests answered (success or error).
            completed: u64,
        }
        counter("teal_serve_shed_total", "Requests shed by admission control.") {
            /// Requests shed by admission control at enqueue (counted in
            /// `completed` too — sheds are answered, with an error).
            shed: u64,
        }
        counter("teal_serve_expired_total", "Requests expired in the queue.") {
            /// Requests whose deadline lapsed while queued (drain-time expiries;
            /// also counted in `completed`).
            expired: u64,
        }
        counter("teal_serve_deadline_inversions_total", "Deadline'd requests served out of deadline order within a drain.") {
            /// Deadline-order inversions: adjacent deadline'd requests served
            /// later-deadline-first within one drain. The EDF invariant is
            /// `deadline_inversions == 0`.
            deadline_inversions: u64,
        }
        counter("teal_serve_unmatched_replies_total", "Reply frames whose request id matched no registered slot.") {
            /// Reply frames (or completion-queue tags) whose request id matched no
            /// registered slot on their connection. The server counts tags with no
            /// pending ticket; [`crate::TealClient`] keeps its own local twin
            /// ([`crate::TealClient::unmatched_replies`]). Zero in a correct
            /// deployment — nonzero means an id-bookkeeping bug, not load.
            unmatched_replies: u64,
        }
        nested {
            /// `teal_nn::pool` counters (process-global, sampled at snapshot
            /// time): jobs submitted, chunks run by callers vs by helper
            /// threads, and helper slots asked for and refused.
            pool: PoolStats,
            /// Slowest requests observed (global top-k across shards, slowest
            /// first), each with its stage breakdown.
            slow: Vec<SlowExemplar>,
            /// Per-tenant served totals, sorted by tenant id. Requests are credited
            /// to their own tenant; each solver window is charged to the chunk's
            /// dominant tenant (most requests, ties broken lexicographically).
            /// Each topology accounts at most 64 tenants individually; rows
            /// merge by name across topologies.
            tenants: Vec<TenantSnapshot>,
        }
    }
}

metrics! {
    impl PoolStats {
        counter("teal_nn_pool_jobs_total", "Parallel jobs submitted to the worker pool.") {
            jobs: u64,
        }
        counter("teal_nn_pool_caller_chunks_total", "Chunks executed by submitting threads.") {
            caller_chunks: u64,
        }
        counter("teal_nn_pool_helper_chunks_total", "Chunks stolen by helper workers.") {
            helper_chunks: u64,
        }
        counter("teal_nn_pool_capped_skips_total", "Helper slots jobs asked for and were refused.") {
            capped_skips: u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fold `shards` (each with an empty queue) into a snapshot.
    fn snapshot(shards: &[(&str, &ShardStats)]) -> TelemetrySnapshot {
        fold_shards(shards.iter().map(|&(topology, s)| (topology, 0, s)), 0)
    }

    /// One batch of requests with the given end-to-end latencies, all of
    /// it queue-wait.
    fn waits(latencies_us: &[u64]) -> Vec<StageTimings> {
        latencies_us
            .iter()
            .map(|&us| StageTimings {
                queue_wait: Duration::from_micros(us),
                ..StageTimings::default()
            })
            .collect()
    }

    #[test]
    fn quantiles_are_ordered_and_bounded() {
        let mut h = LatencyHistogram::default();
        for us in [50u64, 80, 100, 120, 150, 400, 900, 5000] {
            h.record(Duration::from_micros(us));
        }
        let (p50, p99) = (h.quantile(0.5), h.quantile(0.99));
        assert!(p50 <= p99, "p50 {p50:?} > p99 {p99:?}");
        assert!(p99 <= Duration::from_micros(5000));
        assert!(p50 >= Duration::from_micros(80), "p50 {p50:?} too low");
        assert_eq!(h.count(), 8);
        assert!(h.mean() > Duration::ZERO);
    }

    #[test]
    fn constant_stream_quantiles_within_one_sub_bucket() {
        // Regression for the lower-edge bug: p50 of a constant-latency
        // stream must land within one sub-bucket (a factor of 2^(1/SUBDIV))
        // of the true latency. Reporting each bucket's lower geometric edge
        // understated it by up to ~19%.
        let sub = 2f64.powf(1.0 / SUBDIV);
        for truth_us in [3u64, 47, 100, 999, 12_345] {
            let mut h = LatencyHistogram::default();
            for _ in 0..1000 {
                h.record(Duration::from_micros(truth_us));
            }
            let truth = (truth_us * 1000) as f64;
            for q in [0.5, 0.99] {
                let est = h.quantile(q).as_nanos() as f64;
                assert!(
                    est <= truth * sub && est >= truth / sub,
                    "q{q}: estimate {est}ns not within one sub-bucket of {truth}ns"
                );
            }
        }
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), Duration::ZERO);
        assert_eq!(h.mean(), Duration::ZERO);
    }

    #[test]
    fn snapshot_aggregates_batches() {
        let mut b4 = ShardStats {
            max_drain: 2,
            ..ShardStats::default()
        };
        b4.record_batch(&waits(&[100, 200]), None);
        b4.record_batch(&waits(&[300]), None);
        let snap = snapshot(&[("B4", &b4)]);
        assert_eq!(snap.queue_depth, 0);
        assert_eq!(snap.max_queue_depth, 2);
        assert_eq!(snap.completed, 3);
        assert_eq!(snap.per_topology.len(), 1);
        assert_eq!(snap.per_topology[0].requests, 3);
        assert_eq!(snap.per_topology[0].batches, 2);
        assert_eq!(snap.slow[0].latency, Duration::from_micros(300));
        assert_eq!(snap.batch_sizes, vec![(1, 1), (2, 1)]);
        assert!((snap.mean_batch_size() - 1.5).abs() < 1e-9);
        // No solver report was recorded.
        assert_eq!(snap.per_topology[0].admm, None);
        assert_eq!(snap.slow.len(), 3);
    }

    #[test]
    fn fold_sums_counters_and_takes_the_deepest_shard_queue() {
        let mut a = ShardStats::default();
        a.record_batch(&waits(&[100, 200]), None);
        a.shed = 1;
        a.max_drain = 4;
        let mut b = ShardStats::default();
        b.record_batch(&waits(&[300]), None);
        b.expired = 2;
        b.errors = 3;
        b.deadline_inversions = 1;
        let snap = fold_shards([("b", 5, &b), ("a", 1, &a)], 0);
        assert_eq!(snap.queue_depth, 6);
        assert_eq!(
            snap.max_queue_depth, 5,
            "b's current length beats a's drain"
        );
        assert_eq!(snap.completed, 3 + 1 + 2 + 3);
        assert_eq!(
            (snap.shed, snap.expired, snap.deadline_inversions),
            (1, 2, 1)
        );
        let topologies: Vec<_> = snap.per_topology.iter().map(|t| &*t.topology).collect();
        assert_eq!(topologies, ["a", "b"]);
        assert_eq!(snap.batch_sizes, vec![(1, 1), (2, 1)]);
    }

    #[test]
    fn stage_and_admm_stats_reach_snapshot() {
        let mut stats = ShardStats::default();
        let stages = [
            StageTimings {
                queue_wait: Duration::from_micros(40),
                solve: Duration::from_micros(700),
                write: Duration::from_micros(10),
            },
            StageTimings {
                queue_wait: Duration::from_micros(80),
                solve: Duration::from_micros(700),
                write: Duration::from_micros(10),
            },
        ];
        let report = teal_core::SolveReport {
            lanes: 2,
            iterations: 2,
            max_primal_residual: 0.25,
            max_dual_residual: 0.125,
        };
        stats.record_batch(&stages, Some(&report));
        let snap = snapshot(&[("B4", &stats)]);
        let topo = &snap.per_topology[0];
        assert_eq!(snap.slow[0].latency, Duration::from_micros(790));
        assert!(topo.queue_wait.p50 >= Duration::from_micros(30));
        assert!(topo.solve.p99 >= Duration::from_micros(600));
        assert!(topo.write.p50 > Duration::ZERO);
        let admm = topo.admm.as_ref().expect("solver report recorded");
        assert_eq!(admm.windows, 1);
        assert_eq!(admm.lanes, 2);
        assert_eq!(admm.iterations, 4);
        assert_eq!(admm.budget_downgrades, 0);
        assert!((admm.mean_iterations() - 2.0).abs() < 1e-12);
        assert!((admm.last_primal_residual - 0.25).abs() < 1e-12);
        assert!((admm.max_dual_residual - 0.125).abs() < 1e-12);
    }

    #[test]
    fn tenant_and_inversion_counters_reach_snapshot() {
        // Rows merge by name across topologies.
        let (mut b4, mut swan) = (ShardStats::default(), ShardStats::default());
        b4.charge_tenant("gold", 3, 1);
        b4.charge_tenant("bronze", 1, 1);
        swan.charge_tenant("gold", 2, 1);
        b4.deadline_inversions = 2;
        let snap = snapshot(&[("b4", &b4), ("swan", &swan)]);
        assert_eq!(snap.deadline_inversions, 2);
        assert_eq!(
            snap.tenants,
            vec![
                TenantSnapshot {
                    tenant: "bronze".into(),
                    requests: 1,
                    windows: 1,
                },
                TenantSnapshot {
                    tenant: "gold".into(),
                    requests: 5,
                    windows: 2,
                },
            ]
        );
        let text = snap.to_prometheus();
        for needle in [
            "teal_serve_tenant_requests_total{tenant=\"gold\"} 5",
            "teal_serve_tenant_windows_total{tenant=\"gold\"} 2",
            "teal_serve_deadline_inversions_total 2",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn minted_tenants_are_capped_and_conserved() {
        let mut stats = ShardStats::default();
        for i in 0..10_000 {
            stats.charge_tenant(&format!("minted-{i}"), 1, u64::from(i % 2 == 0));
        }
        let tenants = snapshot(&[("b4", &stats)]).tenants;
        assert!(tenants.len() <= MAX_TENANTS + 1, "{} rows", tenants.len());
        assert!(tenants.iter().any(|t| t.tenant == OVERFLOW_TENANT));
        assert_eq!(tenants.iter().map(|t| t.requests).sum::<u64>(), 10_000);
        assert_eq!(tenants.iter().map(|t| t.windows).sum::<u64>(), 5_000);
    }

    #[test]
    fn slow_ring_keeps_top_k() {
        let mut ring = SlowRing::default();
        for stages in waits(&(1..=100u64).collect::<Vec<_>>()) {
            ring.offer(stages, 1);
        }
        assert_eq!(ring.entries.len(), SLOW_EXEMPLARS);
        let mut lat: Vec<u64> = ring
            .entries
            .iter()
            .map(|(s, _)| s.end_to_end().as_micros() as u64)
            .collect();
        lat.sort_unstable();
        assert_eq!(lat, (93..=100).collect::<Vec<_>>());
    }

    #[test]
    fn trace_stages_partition_end_to_end() {
        let t0 = now();
        let t1 = t0 + Duration::from_micros(100);
        let t2 = t1 + Duration::from_micros(500);
        let done = t2 + Duration::from_micros(30);
        let s = StageTimings::split(t0, t1, t2, done);
        assert_eq!(s.queue_wait, Duration::from_micros(100));
        assert_eq!(s.solve, Duration::from_micros(500));
        assert_eq!(s.write, Duration::from_micros(30));
        assert_eq!(s.queue_wait + s.solve + s.write, done - t0);
        assert_eq!(s.end_to_end(), done - t0);
        // Two requests of one window share its three instants: only the
        // queue-wait differs, by the gap between their enqueues.
        let later = StageTimings::split(t0 + Duration::from_micros(40), t1, t2, done);
        assert_eq!(later.queue_wait, Duration::from_micros(60));
        assert_eq!((later.solve, later.write), (s.solve, s.write));
        assert_eq!(later.end_to_end(), done - t0 - Duration::from_micros(40));
    }

    #[test]
    fn prometheus_rendering_smoke() {
        let mut stats = ShardStats::default();
        stats.record_batch(&waits(&[100]), None);
        let text = snapshot(&[("B4", &stats)]).to_prometheus();
        for needle in [
            "teal_serve_requests_total{topology=\"B4\"} 1",
            "teal_serve_stage_seconds{topology=\"B4\",stage=\"solve\",quantile=\"0.99\"}",
            "teal_serve_queue_depth 0",
            "teal_serve_completed_total 1",
            "teal_nn_pool_jobs_total",
            "teal_serve_slow_seconds{topology=\"B4\",rank=\"0\",stage=\"e2e\"",
            "# TYPE teal_serve_batch_size_total counter",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }
}
