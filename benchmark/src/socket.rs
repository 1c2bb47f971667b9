//! The socket workloads' load generators. Server (`ServeDaemon` +
//! `TealServer`, epoll front end) and load generator share this process
//! and talk over loopback TCP.
//!
//! Closed loops drive `TealClient`s, one driver thread per connection,
//! each holding a fixed number of requests outstanding and redeeming the
//! oldest first. The open loop owns its sockets (the public `wire` codec
//! over `TcpStream`) so that every reply is stamped when its frame has
//! been read, not when a ticket queue gets round to it: independent users
//! do not wait for each other's replies.

use crate::checks::{self, Checker, Quality};
use crate::inputs::{Arrival, Key, Rng, Scheduled, SIGNATURES, TENANTS};
use crate::span::{Tracer, LOAD_SPANS, NONE};
use crate::spec;
use crate::stats;
use crate::system::{ServeSystem, SOCKET_POOL};
use std::collections::VecDeque;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use teal_lp::Allocation;
use teal_serve::{
    wire, ServeError, ServeReply, StageTimings, SubmitRequest, TealClient, TelemetrySnapshot,
};

/// Requests each closed-loop connection keeps outstanding.
pub const OUTSTANDING: usize = 8;

/// Reference allocations by [`Key`]: the same input through a direct
/// `ServingContext` call, which every served reply must match to 1e-6.
pub struct References {
    by_key: Vec<Option<Allocation>>,
}

impl References {
    /// References for every plain key, and every failed-link key too when
    /// `failed_links` is set.
    pub fn build(sys: &ServeSystem, failed_links: bool) -> Self {
        let mut by_key = vec![None; sys.topos.len() * SOCKET_POOL * (SIGNATURES + 1)];
        for (t, topo) in sys.topos.iter().enumerate() {
            for (m, tm) in topo.pool.iter().enumerate() {
                let tms = std::slice::from_ref(tm);
                let mut put =
                    |sig: Option<usize>, result: Result<(Vec<Allocation>, Duration), _>| {
                        let key = Key {
                            topo: t,
                            tm: m,
                            sig,
                        };
                        let (mut allocs, _) = result.unwrap_or_else(|e: teal_core::AllocError| {
                            panic!("reference allocation for {key:?} failed: {e}")
                        });
                        by_key[key.index(SOCKET_POOL)] = allocs.pop();
                    };
                put(None, topo.ctx.try_allocate_batch(tms));
                if failed_links {
                    for (s, degraded) in topo.failed.iter().enumerate() {
                        put(Some(s), topo.ctx.try_allocate_batch_on(degraded, tms));
                    }
                }
            }
        }
        References { by_key }
    }

    pub fn get(&self, key: Key) -> Option<&Allocation> {
        self.by_key[key.index(SOCKET_POOL)].as_ref()
    }

    pub fn inputs(&self) -> usize {
        self.by_key.len()
    }
}

/// The request for `key`, plain or with that signature's failed link.
pub fn request(sys: &ServeSystem, key: Key) -> SubmitRequest {
    let topo = &sys.topos[key.topo];
    let req = SubmitRequest::new(topo.id, topo.pool[key.tm].clone());
    match key.sig {
        Some(s) => req.with_failed_links([topo.signatures[s]]),
        None => req,
    }
}

/// What the generator expects back for a request.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// An allocation.
    Served,
    /// `DeadlineExceeded`: the request's budget was already zero, so
    /// admission sheds it at enqueue. The refusal is the success.
    Shed,
    /// An allocation, or a refusal because the deadline could not be kept
    /// (shed or expired). A refusal misses the deadline; it is no failure.
    ServedOrRefused,
}

/// Judge one reply: `Ok(true)` = served and verified, `Ok(false)` = an
/// expected refusal, `Err` = a failed operation.
pub fn judge(
    sys: &ServeSystem,
    refs: &References,
    key: Key,
    expect: Expect,
    result: &Result<ServeReply, ServeError>,
    quality: &mut Quality,
) -> Result<bool, String> {
    match (expect, result) {
        (Expect::Served | Expect::ServedOrRefused, Ok(reply)) => {
            let topo = &sys.topos[key.topo];
            let dead = key.sig.map_or(&[][..], |s| &topo.dead_paths[s]);
            checks::allocation(&reply.allocation, refs.get(key), dead)
                .map_err(|e| format!("{key:?}: {e}"))?;
            // The fingerprint covers plain inputs only: every run serves all
            // of them, whereas which failed-link inputs a run sees, and on
            // which links, is the seed's choice.
            let input = key.index(SOCKET_POOL);
            if key.sig.is_none() && !quality.seen(input) {
                quality.set(
                    input,
                    checks::satisfied_pct(topo.env(), &topo.pool[key.tm], &reply.allocation),
                );
            }
            Ok(true)
        }
        (Expect::Shed, Err(ServeError::DeadlineExceeded)) => Ok(false),
        (
            Expect::ServedOrRefused,
            Err(ServeError::DeadlineExceeded | ServeError::Overloaded(_)),
        ) => Ok(false),
        (_, Ok(_)) => Err(format!("{key:?}: served, but a refusal was expected")),
        (_, Err(e)) => Err(format!("{key:?}: unexpected reply: {e}")),
    }
}

/// A served reply's own account of its time.
#[derive(Clone, Copy)]
struct Timings {
    latency: Duration,
    stages: StageTimings,
}

impl Timings {
    fn of(reply: &ServeReply) -> Self {
        Timings {
            latency: reply.latency,
            stages: reply.stages,
        }
    }
}

/// Server-side stage timings of served replies and what the wire added,
/// all in ms.
#[derive(Default)]
pub struct Stages {
    pub queue_wait: Vec<f64>,
    pub solve: Vec<f64>,
    pub write: Vec<f64>,
    /// Client round trip minus the reply's own `latency`.
    pub wire_overhead: Vec<f64>,
}

impl Stages {
    fn record(&mut self, reply: Timings, round_trip: Duration) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        self.queue_wait.push(ms(reply.stages.queue_wait));
        self.solve.push(ms(reply.stages.solve));
        self.write.push(ms(reply.stages.write));
        self.wire_overhead
            .push(ms(round_trip.saturating_sub(reply.latency)));
    }

    fn merge(&mut self, other: Stages) {
        self.queue_wait.extend(other.queue_wait);
        self.solve.extend(other.solve);
        self.write.extend(other.write);
        self.wire_overhead.extend(other.wire_overhead);
    }
}

/// What a load phase measured. Latencies, deadlines and throughput cover the
/// timed part only; checks cover every operation, warm-up included.
pub struct Load {
    /// Latency of every timed operation, or past [`stats::RESERVOIR`] per
    /// connection a uniform sample of them.
    pub latencies_ms: Vec<f64>,
    /// The same operations by slice of the timed part.
    pub slices: stats::Slices,
    /// Timed requests that carried a deadline, and those that were served
    /// and verified within it.
    pub deadlined: usize,
    pub met: usize,
    /// Operations answered in the timed part, and its length.
    pub answered: usize,
    pub timed_s: f64,
    /// `REQUEST` frames sent in all (the server's `completed` must match).
    pub requests_sent: u64,
    pub checker: Checker,
    pub quality: Quality,
    pub stages: Stages,
    /// `TealClient::submit` (or raw frame write) durations, us; traced
    /// closed loops and the open loop only.
    pub submit_us: Vec<f64>,
    /// Timed requests sent more than 1 ms after they were due.
    pub late: usize,
    pub tracer: Tracer,
}

impl Load {
    /// `trace`: record spans as offsets from this epoch; `None` = untraced.
    pub fn new(inputs: usize, trace: Option<Instant>) -> Self {
        Load {
            latencies_ms: Vec::new(),
            slices: stats::Slices::default(),
            deadlined: 0,
            met: 0,
            answered: 0,
            timed_s: 0.0,
            requests_sent: 0,
            checker: Checker::default(),
            quality: Quality::new(inputs),
            stages: Stages::default(),
            submit_us: Vec::new(),
            late: 0,
            tracer: Tracer::capped(
                trace.is_some(),
                trace.unwrap_or_else(Instant::now),
                LOAD_SPANS,
            ),
        }
    }

    fn merge(&mut self, other: Load) {
        self.latencies_ms.extend(other.latencies_ms);
        self.slices.merge(other.slices);
        self.deadlined += other.deadlined;
        self.met += other.met;
        self.answered += other.answered;
        self.timed_s = self.timed_s.max(other.timed_s);
        self.requests_sent += other.requests_sent;
        self.checker.merge(other.checker);
        self.quality.merge(&other.quality);
        self.stages.merge(other.stages);
        self.submit_us.extend(other.submit_us);
        self.late += other.late;
        self.tracer.merge(other.tracer);
    }

    /// Share of the deadline'd requests that met their deadline; 1 when no
    /// request carried one (nothing was missed).
    pub fn deadline_met_share(&self) -> f64 {
        if self.deadlined == 0 {
            1.0
        } else {
            self.met as f64 / self.deadlined as f64
        }
    }
}

/// Lay a served reply's own stage timings out as spans under `parent`,
/// centred in the client's wait (the wire time either side is unknown).
fn stage_spans(
    tracer: &mut Tracer,
    op: u64,
    parent: u32,
    reply: Timings,
    sent: Instant,
    done: Instant,
) {
    if parent == NONE {
        return;
    }
    let round_trip = done.saturating_duration_since(sent);
    let slack = round_trip.saturating_sub(reply.latency) / 2;
    let mut at = tracer.ns(sent + slack);
    for (name, d) in [
        ("serve.daemon.queue_wait", reply.stages.queue_wait),
        ("serve.daemon.solve", reply.stages.solve),
        ("serve.daemon.write", reply.stages.write),
    ] {
        let end = at + d.as_nanos() as u64;
        tracer.push(name, op, parent, at, end, true);
        at = end;
    }
}

/// A closed-loop phase: what to send and what to expect.
pub struct Closed<'a> {
    /// Each connection's request cycle.
    pub cycles: &'a [Vec<(Key, SubmitRequest)>],
    pub expect: Expect,
    /// Every `n`th operation is a `STATS` scrape instead of a request.
    pub scrape_every: Option<usize>,
    pub outstanding: usize,
    pub warmup: Duration,
    pub timed: Duration,
}

struct InFlight {
    ticket: teal_serve::Ticket,
    key: Key,
    op: u64,
    span: u32,
    begun: Instant,
    sent: Instant,
}

/// Drive one connection's closed loop until the timed part ends.
fn closed_connection(
    sys: &ServeSystem,
    refs: &References,
    client: &TealClient,
    conn: usize,
    phase: &Closed,
    trace: Option<Instant>,
    start: Instant,
) -> Load {
    let mut load = Load::new(refs.inputs(), trace);
    let timed_from = start + phase.warmup;
    let end = timed_from + phase.timed;
    let cycle = &phase.cycles[conn];
    let mut inflight: VecDeque<InFlight> = VecDeque::new();
    let mut next = 0usize;
    let mut rng = Rng::new(conn as u64, 0x4e5);

    let mut finish =
        |load: &mut Load, begun: Instant, done: Instant, verdict: Result<bool, String>| {
            if begun >= timed_from {
                let (begun_s, done_s) = (
                    (begun - timed_from).as_secs_f64(),
                    done.saturating_duration_since(timed_from).as_secs_f64(),
                );
                load.answered += 1;
                let ms = (done_s - begun_s) * 1e3;
                stats::reservoir_push(&mut load.latencies_ms, load.answered, ms, &mut rng);
                load.slices.record(begun_s, done_s, 1, &mut rng);
            }
            load.checker.record(verdict.map(|_| ()));
        };

    loop {
        while inflight.len() < phase.outstanding {
            let begun = Instant::now();
            if begun >= end {
                break;
            }
            let op = (conn as u64) << 32 | next as u64;
            if phase.scrape_every.is_some_and(|n| next % n == n - 1) {
                // A scrape is an operation of its own, answered in line.
                let span = load.tracer.open("serve.telemetry.scrape", op, NONE);
                let verdict = client
                    .stats()
                    .map(|_| false)
                    .map_err(|e| format!("scrape failed: {e}"));
                load.tracer.close(span);
                finish(&mut load, begun, Instant::now(), verdict);
                next += 1;
                continue;
            }
            let (key, req) = &cycle[next % cycle.len()];
            let span = load.tracer.open("loadgen.request", op, NONE);
            let submit = load.tracer.open("serve.client.submit", op, span);
            let ticket = client.submit(req);
            load.tracer.close(submit);
            let sent = Instant::now();
            load.requests_sent += 1;
            // A per-layer number only: the untraced run keeps no sample of
            // it, so its memory does not grow with the request count.
            if trace.is_some() && begun >= timed_from {
                load.submit_us
                    .push(sent.saturating_duration_since(begun).as_secs_f64() * 1e6);
            }
            inflight.push_back(InFlight {
                ticket,
                key: *key,
                op,
                span,
                begun,
                sent,
            });
            next += 1;
        }
        let Some(f) = inflight.pop_front() else { break };
        let wait = load.tracer.open("serve.client.wait", f.op, f.span);
        let result = f.ticket.wait();
        let done = Instant::now();
        load.tracer.close(wait);
        if let Ok(reply) = &result {
            stage_spans(
                &mut load.tracer,
                f.op,
                wait,
                Timings::of(reply),
                f.sent,
                done,
            );
            if f.begun >= timed_from {
                load.stages
                    .record(Timings::of(reply), done.saturating_duration_since(f.begun));
            }
        }
        load.tracer.close(f.span);
        let verdict = judge(sys, refs, f.key, phase.expect, &result, &mut load.quality);
        finish(&mut load, f.begun, done, verdict);
    }
    load.timed_s = phase.timed.as_secs_f64();
    load.checker
        .record(checks::ensure(client.unmatched_replies() == 0, || {
            format!(
                "connection {conn}: {} unmatched replies",
                client.unmatched_replies()
            )
        }));
    load
}

/// Run a closed-loop phase on every connection of `sys` at once.
pub fn closed_loop(
    sys: &ServeSystem,
    refs: &References,
    phase: &Closed,
    trace: Option<Instant>,
) -> Load {
    let start = Instant::now();
    let loads: Vec<Load> = std::thread::scope(|s| {
        let drivers: Vec<_> = sys
            .clients
            .iter()
            .enumerate()
            .map(|(conn, client)| {
                s.spawn(move || closed_connection(sys, refs, client, conn, phase, trace, start))
            })
            .collect();
        drivers
            .into_iter()
            .map(|d| d.join().expect("closed-loop driver thread"))
            .collect()
    });
    let mut total = Load::new(refs.inputs(), trace);
    for load in loads {
        total.merge(load);
    }
    total
}

/// One benchmark-owned connection of the open loop.
struct RawConnection {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl RawConnection {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A reply that never comes must not hang the run.
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let mut buf = Vec::new();
        wire::encode_hello(&mut buf);
        wire::write_frame(&mut stream, &buf)?;
        let invalid = |e: wire::WireError| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
        };
        if !wire::read_frame(&mut stream, &mut buf).map_err(invalid)? {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionAborted,
                "server closed during handshake",
            ));
        }
        wire::decode_hello_ok(&buf).map_err(invalid)?;
        Ok(RawConnection { stream, buf })
    }
}

/// What came back for one scheduled send, already judged: the reader
/// checks each reply and keeps only the verdict and the reply's timings, so
/// memory does not grow with the allocations served.
enum Answer {
    Reply {
        verdict: Result<bool, String>,
        timings: Option<Timings>,
    },
    Snapshot {
        unmatched_replies: u64,
    },
}

/// What one reader thread hands back: `(id, stamp, answer)` per frame, and
/// the fingerprint of what it judged.
type Read = (Vec<(u64, Instant, Answer)>, Quality);

/// Read `expected` frames, stamping each as soon as it is complete, then
/// judging it against what `schedule` sent under that id.
fn read_answers(
    sys: &ServeSystem,
    refs: &References,
    schedule: &[Scheduled],
    mut stream: TcpStream,
    expected: usize,
) -> Read {
    let mut buf = Vec::new();
    let mut answers = Vec::with_capacity(expected);
    let mut quality = Quality::new(refs.inputs());
    while answers.len() < expected {
        match wire::read_frame(&mut stream, &mut buf) {
            Ok(true) => {}
            _ => break,
        }
        let stamp = Instant::now();
        let answer = match wire::peek_kind(&buf) {
            Ok(wire::Kind::Reply) => wire::decode_reply(&buf).map(|(id, result)| {
                let verdict = match schedule.get(id as usize).map(|s| s.what) {
                    Some(Arrival::Request { key, deadlined, .. }) => {
                        let expect = if deadlined {
                            Expect::ServedOrRefused
                        } else {
                            Expect::Served
                        };
                        judge(sys, refs, key, expect, &result, &mut quality)
                    }
                    _ => Err(format!("reply to id {id}, which was no request")),
                };
                let timings = result.as_ref().ok().map(Timings::of);
                (id, Answer::Reply { verdict, timings })
            }),
            Ok(wire::Kind::StatsOk) => wire::decode_stats_reply(&buf).map(|(id, snap)| {
                (
                    id,
                    Answer::Snapshot {
                        unmatched_replies: snap.unmatched_replies,
                    },
                )
            }),
            _ => break,
        };
        match answer {
            Ok((id, answer)) => answers.push((id, stamp, answer)),
            Err(_) => break,
        }
    }
    (answers, quality)
}

/// Sleep until shortly before `due`, then spin: the generator must not be
/// late, and must not take a core from the server while it waits.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The open loop: send `schedule` on time over two raw connections, one
/// sender thread, one reader thread per connection. Latency runs from each
/// request's due time to the instant its reply frame was read. Sends due
/// before `warmup` are answered and checked but not timed.
pub fn open_loop(
    sys: &ServeSystem,
    refs: &References,
    schedule: &[Scheduled],
    warmup: Duration,
    horizon: Duration,
    trace: Option<Instant>,
) -> Load {
    let mut load = Load::new(refs.inputs(), trace);
    let conns: Vec<RawConnection> = (0..crate::system::CONNECTIONS)
        .map(|_| RawConnection::connect(sys.server.local_addr()).expect("open-loop connection"))
        .collect();
    let expected: Vec<usize> = (0..conns.len())
        .map(|c| schedule.iter().filter(|s| s.conn == c).count())
        .collect();
    let deadline = Duration::from_secs_f64(spec::OPEN_LOOP_DEADLINE_MS / 1e3);

    let mut sends: Vec<(Instant, Instant)> = Vec::with_capacity(schedule.len());
    let start = Instant::now() + Duration::from_millis(5);
    let read: Vec<Read> = std::thread::scope(|s| {
        let readers: Vec<_> = conns
            .iter()
            .zip(&expected)
            .map(|(c, &n)| {
                let stream = c.stream.try_clone().expect("clone the open-loop socket");
                s.spawn(move || read_answers(sys, refs, schedule, stream, n))
            })
            .collect();
        let mut conns = conns;
        for (id, entry) in schedule.iter().enumerate() {
            let conn = &mut conns[entry.conn];
            // Encode before the wait, so only the write happens at due time.
            match entry.what {
                Arrival::Request {
                    key,
                    deadlined,
                    tenant,
                } => {
                    let mut req = request(sys, key).with_tenant(TENANTS[tenant]);
                    if deadlined {
                        req = req.with_deadline(deadline);
                    }
                    wire::encode_request(&mut conn.buf, id as u64, &req);
                    load.requests_sent += 1;
                }
                Arrival::Scrape => wire::encode_stats_request(&mut conn.buf, id as u64),
            }
            wait_until(start + Duration::from_nanos(entry.due_ns));
            let begun = Instant::now();
            let written = wire::write_frame(&mut conn.stream, &conn.buf);
            sends.push((begun, Instant::now()));
            if let Err(e) = written {
                load.checker.record(Err(format!("send {id} failed: {e}")));
            }
        }
        readers
            .into_iter()
            .map(|r| r.join().expect("open-loop reader thread"))
            .collect()
    });

    let mut by_id: Vec<Option<(Instant, Answer)>> = schedule.iter().map(|_| None).collect();
    for (answers, quality) in read {
        load.quality.merge(&quality);
        for (id, stamp, answer) in answers {
            match by_id.get_mut(id as usize) {
                Some(slot) if slot.is_none() => *slot = Some((stamp, answer)),
                _ => load
                    .checker
                    .record(Err(format!("reply with unknown or repeated id {id}"))),
            }
        }
    }

    let timed_from = start + warmup;
    let mut rng = Rng::new(0, 0x09e2);
    for (id, (entry, answer)) in schedule.iter().zip(by_id).enumerate() {
        let due = start + Duration::from_nanos(entry.due_ns);
        let timed = Duration::from_nanos(entry.due_ns) >= warmup;
        let (begun, written) = sends[id];
        let Some((stamp, answer)) = answer else {
            load.checker.record(Err(format!("send {id} got no reply")));
            if let (
                true,
                Arrival::Request {
                    deadlined: true, ..
                },
            ) = (timed, entry.what)
            {
                load.deadlined += 1;
            }
            continue;
        };
        match (entry.what, answer) {
            (Arrival::Request { deadlined, .. }, Answer::Reply { verdict, timings }) => {
                let ms = stamp.saturating_duration_since(due).as_secs_f64() * 1e3;
                let span = load.tracer.push(
                    "loadgen.request",
                    id as u64,
                    NONE,
                    load.tracer.ns(due),
                    load.tracer.ns(stamp),
                    false,
                );
                load.tracer.push(
                    "loadgen.write_frame",
                    id as u64,
                    span,
                    load.tracer.ns(begun),
                    load.tracer.ns(written),
                    false,
                );
                if let Some(reply) = timings {
                    stage_spans(&mut load.tracer, id as u64, span, reply, written, stamp);
                }
                if timed {
                    load.latencies_ms.push(ms);
                    load.answered += 1;
                    load.slices.record(
                        (due - timed_from).as_secs_f64(),
                        stamp.saturating_duration_since(timed_from).as_secs_f64(),
                        1,
                        &mut rng,
                    );
                    load.submit_us
                        .push(written.saturating_duration_since(begun).as_secs_f64() * 1e6);
                    load.late += usize::from(
                        begun.saturating_duration_since(due) > Duration::from_millis(1),
                    );
                    if deadlined {
                        load.deadlined += 1;
                        load.met +=
                            usize::from(verdict == Ok(true) && ms <= spec::OPEN_LOOP_DEADLINE_MS);
                    }
                    if let Some(reply) = timings {
                        load.stages
                            .record(reply, stamp.saturating_duration_since(begun));
                    }
                }
                load.checker.record(verdict.map(|_| ()));
            }
            (Arrival::Scrape, Answer::Snapshot { unmatched_replies }) => {
                load.checker
                    .record(checks::ensure(unmatched_replies == 0, || {
                        format!("scrape {id}: server counted {unmatched_replies} unmatched replies")
                    }));
            }
            _ => load.checker.record(Err(format!(
                "send {id} was answered with the wrong frame kind"
            ))),
        }
    }
    load.timed_s = horizon.saturating_sub(warmup).as_secs_f64();
    load
}

/// Sixteen plain requests on the first topology, one at a time over the
/// first client: what an otherwise idle server answers, verified, with each
/// reply's stage timings. `b4_socket_frontend` serves nothing while it is
/// timed, so these are its output fingerprint; a library workload's traced
/// run fills the serving rows of the ledger from them.
pub fn serve_sample(sys: &ServeSystem, refs: &References, load: &mut Load) {
    for tm in 0..16 {
        let key = Key {
            topo: 0,
            tm,
            sig: None,
        };
        let begun = Instant::now();
        let ticket = sys.clients[0].submit(&request(sys, key));
        load.submit_us.push(begun.elapsed().as_secs_f64() * 1e6);
        let result = ticket.wait();
        let round_trip = begun.elapsed();
        load.requests_sent += 1;
        if let Ok(reply) = &result {
            load.stages.record(Timings::of(reply), round_trip);
        }
        let verdict = judge(sys, refs, key, Expect::Served, &result, &mut load.quality);
        load.checker.record(verdict.map(|_| ()));
    }
}

/// The serving counters must balance once the load has drained: every
/// request sent was answered exactly once, as served, shed or expired, and
/// no reply went astray.
pub fn balance(snapshot: &TelemetrySnapshot, requests_sent: u64) -> Result<(), String> {
    let served: u64 = snapshot.per_topology.iter().map(|t| t.requests).sum();
    checks::ensure(snapshot.completed == requests_sent, || {
        format!(
            "{requests_sent} requests sent, {} completed",
            snapshot.completed
        )
    })?;
    checks::ensure(
        snapshot.completed == served + snapshot.shed + snapshot.expired,
        || {
            format!(
                "completed {} != served {served} + shed {} + expired {}",
                snapshot.completed, snapshot.shed, snapshot.expired
            )
        },
    )?;
    checks::ensure(snapshot.queue_depth == 0, || {
        format!(
            "{} requests still queued after the drain",
            snapshot.queue_depth
        )
    })?;
    checks::ensure(snapshot.unmatched_replies == 0, || {
        format!(
            "server counted {} unmatched replies",
            snapshot.unmatched_replies
        )
    })
}

/// Solver windows run so far, over all topologies.
pub fn windows(snapshot: &TelemetrySnapshot) -> u64 {
    snapshot.per_topology.iter().map(|t| t.batches).sum()
}
