//! Every byte a peer can send, against every decoder. Real frames of every
//! kind are mutated — every bit flipped, every truncation, every 4-byte
//! window forced to `u32::MAX` and to the largest counts the bytes behind
//! it could hold (which hits each count field, hostile and at the edge of
//! the check, without this file restating the layout), two frames
//! spliced — and joined by
//! arbitrary byte strings. Each input goes to every `decode_*`, to
//! `peek_kind`, and framed (and raw, as a stream of hostile length
//! prefixes) to a `FrameDecoder` fed in random splits. A hostile length
//! prefix alone must not buy heap from the blocking `read_frame` either.
//!
//! Two things must hold for every input: nothing panics, and no single
//! decode holds more than [`RATIO`] × the payload length in live heap
//! bytes, plus [`SLACK`] for the error message. The bound is the count
//! check's: a vector's claimed length is held against the bytes left in
//! the frame before anything is allocated for it, and the widest element
//! in memory against its wire minimum is `TopoSnapshot` (352 bytes against
//! 117, about 3×), with one more payload's worth for what its elements
//! own. A failing input prints as hex, which is its one-line repro; a
//! `Vec::get` without its count check fails this test.
//!
//! The heap is read off the workspace's metering allocator (`teal-meter`),
//! per thread. It refuses any request over 1 GiB, so a missing count check
//! aborts ("memory allocation of N bytes failed") instead of reserving
//! gigabytes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;
use teal_lp::Allocation;
use teal_meter::thread_peak_added;
use teal_nn::pool::PoolStats;
use teal_serve::wire::{self, FrameDecoder};
use teal_serve::{
    AdmmStats, LatencyStats, ServeError, ServeReply, SlowExemplar, StageTimings, SubmitRequest,
    TelemetrySnapshot, TenantSnapshot, TopoSnapshot,
};
use teal_traffic::TrafficMatrix;

/// Live heap bytes one decode may hold, per payload byte.
const RATIO: usize = 4;
/// Live heap bytes one decode may hold on top: its error message.
const SLACK: usize = 512;

#[global_allocator]
static METER: teal_meter::Meter = teal_meter::Meter;

/// A decoder under test, its result dropped inside the metered window.
type Decoder = fn(&[u8]);

/// Every decoder a received payload can reach.
const DECODERS: [(&str, Decoder); 7] = [
    ("peek_kind", |p| drop(wire::peek_kind(p))),
    ("decode_hello", |p| drop(wire::decode_hello(p))),
    ("decode_hello_ok", |p| drop(wire::decode_hello_ok(p))),
    ("decode_request", |p| drop(wire::decode_request(p))),
    ("decode_reply", |p| drop(wire::decode_reply(p))),
    ("decode_stats_request", |p| {
        drop(wire::decode_stats_request(p))
    }),
    ("decode_stats_reply", |p| drop(wire::decode_stats_reply(p))),
];

/// xorshift64*: the shim proptest has no byte strategy, and a fixed seed
/// keeps every run the same inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Feed `stream` to a fresh decoder in random pieces, taking frames as
/// they complete, until it ends or the decoder refuses it.
fn feed_in_splits(stream: &[u8], rng: &mut Rng) {
    let mut dec = FrameDecoder::new();
    let mut rest = stream;
    while !rest.is_empty() {
        let (piece, tail) = rest.split_at(1 + rng.below(rest.len()));
        rest = tail;
        if dec.feed(piece).is_err() {
            return;
        }
        loop {
            match dec.next_frame() {
                Ok(Some(frame)) => drop(wire::peek_kind(frame)),
                Ok(None) => break,
                Err(_) => return,
            }
        }
    }
}

/// What the run saw: inputs tried, and the most live heap bytes per
/// payload byte any decode held among payloads the slack cannot dominate.
#[derive(Default)]
struct Ledger {
    inputs: usize,
    worst: (f64, &'static str, usize),
}

impl Ledger {
    /// Run `payload` through every decoder, bounding each one's heap,
    /// then — framed, followed by itself as raw stream bytes — through a
    /// `FrameDecoder` in random pieces.
    fn attack(&mut self, payload: &[u8], rng: &mut Rng) {
        self.inputs += 1;
        for (name, decode) in DECODERS {
            let ((), peak) = thread_peak_added(|| must_return(name, payload, || decode(payload)));
            assert!(
                peak <= RATIO * payload.len() + SLACK,
                "{name} held {peak} live heap bytes decoding {} bytes: {}",
                payload.len(),
                hex(payload)
            );
            let ratio = peak as f64 / payload.len().max(1) as f64;
            if payload.len() >= SLACK && ratio > self.worst.0 {
                self.worst = (ratio, name, payload.len());
            }
        }
        let mut stream = Vec::new();
        wire::write_frame(&mut stream, payload).expect("frame into a Vec");
        stream.extend_from_slice(payload);
        must_return("FrameDecoder", payload, || feed_in_splits(&stream, rng));
    }
}

/// Run `f`; a panic fails the test naming the payload that caused it.
fn must_return(name: &str, payload: &[u8], f: impl FnOnce()) {
    let panicked = catch_unwind(AssertUnwindSafe(f)).is_err();
    assert!(!panicked, "{name} panicked on payload {}", hex(payload));
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
}

fn lat(n: u64) -> LatencyStats {
    LatencyStats {
        mean: ms(n),
        p50: ms(n),
        p99: ms(n + 3),
    }
}

/// A snapshot with every vector non-empty and every option present.
fn snapshot() -> TelemetrySnapshot {
    let topo = |name: &str, admm: Option<AdmmStats>| TopoSnapshot {
        topology: name.to_string(),
        requests: 12_345,
        batches: 678,
        mean: ms(4),
        p50: ms(3),
        p99: ms(9),
        queue_wait: lat(1),
        solve: lat(2),
        write: lat(0),
        admm,
    };
    let admm = AdmmStats {
        windows: 678,
        lanes: 9_000,
        iterations: 45_000,
        budget_downgrades: 17,
        last_primal_residual: 0.25,
        max_primal_residual: 1.5,
        last_dual_residual: 0.125,
        max_dual_residual: 2.0,
    };
    TelemetrySnapshot {
        per_topology: vec![topo("b4", Some(admm)), topo("swan", None)],
        batch_sizes: vec![(1, 40), (8, 72)],
        queue_depth: 3,
        max_queue_depth: 97,
        completed: 12_345,
        shed: 12,
        expired: 5,
        deadline_inversions: 0,
        unmatched_replies: 2,
        tenants: vec![TenantSnapshot {
            tenant: "gold".to_string(),
            requests: 8_000,
            windows: 500,
        }],
        pool: PoolStats {
            jobs: 100,
            caller_chunks: 400,
            helper_chunks: 300,
            capped_skips: 9,
        },
        slow: vec![SlowExemplar {
            topology: "b4".to_string(),
            latency: ms(40),
            stages: StageTimings {
                queue_wait: ms(30),
                solve: ms(9),
                write: ms(1),
            },
            batch_size: 8,
        }],
    }
}

/// One real payload of every kind, every error variant and both request
/// axes included.
fn goldens() -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    let mut keep = |buf: &Vec<u8>| out.push(buf.clone());
    wire::encode_hello(&mut buf);
    keep(&buf);
    wire::encode_hello_ok(&mut buf);
    keep(&buf);
    let tm = TrafficMatrix::new((0..6).map(|i| 1.5 * i as f64).collect());
    for req in [
        SubmitRequest::new("b4", tm.clone()),
        SubmitRequest::new("swan", tm)
            .with_deadline(ms(20))
            .with_tenant("gold")
            .with_failed_link(0, 1)
            .with_failed_link(7, 3),
    ] {
        wire::encode_request(&mut buf, 1, &req);
        keep(&buf);
    }
    let ok = ServeReply {
        allocation: Allocation::from_splits(3, (0..9).map(|p| f64::from(p % 4) / 4.0).collect()),
        latency: ms(3),
        stages: StageTimings {
            queue_wait: ms(1),
            solve: ms(2),
            write: ms(0),
        },
        batch_size: 6,
    };
    for reply in [
        Ok(ok),
        Err(ServeError::UnknownTopology("nowhere".into())),
        Err(ServeError::ShuttingDown),
        Err(ServeError::Checkpoint("bad tensor shape".into())),
        Err(ServeError::BadRequest("matrix arity".into())),
        Err(ServeError::Internal("worker panicked".into())),
        Err(ServeError::DeadlineExceeded),
        Err(ServeError::Overloaded("queue full".into())),
    ] {
        wire::encode_reply(&mut buf, 2, &reply);
        keep(&buf);
    }
    wire::encode_stats_request(&mut buf, 3);
    keep(&buf);
    wire::encode_stats_reply(&mut buf, 4, &snapshot());
    keep(&buf);
    out
}

#[test]
fn no_peer_bytes_panic_or_outgrow_the_payload() {
    let goldens = goldens();
    let mut rng = Rng(0x7ea1_f022);
    let mut ledger = Ledger::default();
    for g in &goldens {
        for cut in 0..g.len() {
            ledger.attack(&g[..cut], &mut rng);
        }
        for bit in 0..g.len() * 8 {
            let mut m = g.clone();
            m[bit / 8] ^= 1 << (bit % 8);
            ledger.attack(&m, &mut rng);
        }
        for at in 0..g.len().saturating_sub(3) {
            // A hostile count, then every count the bytes behind it could
            // just hold for elements of `w` bytes: the check's edge.
            let rest = g.len() - at - 4;
            let counts = (1..=128).map(|w| (rest / w) as u32);
            for count in std::iter::once(u32::MAX).chain(counts) {
                let mut m = g.clone();
                m[at..at + 4].copy_from_slice(&count.to_le_bytes());
                ledger.attack(&m, &mut rng);
            }
        }
    }
    for a in &goldens {
        for b in &goldens {
            ledger.attack(&[a.as_slice(), b].concat(), &mut rng);
            for _ in 0..4 {
                let (i, j) = (rng.below(a.len() + 1), rng.below(b.len() + 1));
                ledger.attack(&[&a[..i], &b[j..]].concat(), &mut rng);
            }
        }
    }
    for _ in 0..4_000 {
        let len = rng.below(97);
        let mut m: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
        if let Some(kind) = m.first_mut() {
            // Mostly real kinds, so the bytes reach a body decoder.
            *kind %= 8;
        }
        ledger.attack(&m, &mut rng);
    }
    let (ratio, name, len) = ledger.worst;
    eprintln!(
        "wire_fuzz: {} inputs x {} decoders + FrameDecoder, no panic; worst live heap \
         {ratio:.2}x the payload ({name}, {len} bytes) against a bound of {RATIO}x + {SLACK} B",
        ledger.inputs,
        DECODERS.len()
    );
    assert!(ledger.inputs > 10_000, "too few inputs: {}", ledger.inputs);
}

/// A length prefix is a claim, not a payload: `read_frame` holds heap for
/// the bytes that arrive, so a peer naming `MAX_FRAME` and then hanging up
/// after 100 bytes costs what it sent, not a 64 MiB zero-fill.
#[test]
fn read_frame_grows_with_received_bytes_not_the_prefix() {
    let mut stream = wire::MAX_FRAME.to_le_bytes().to_vec();
    stream.extend((0..100u8).map(|b| b.wrapping_mul(37)));
    let received = stream.len();
    let mut cursor = std::io::Cursor::new(stream);
    let mut buf = Vec::new();
    let mut got = None;
    let ((), peak) = thread_peak_added(|| got = Some(wire::read_frame(&mut cursor, &mut buf)));
    match got {
        Some(Err(wire::WireError::Io(e))) => {
            assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}")
        }
        other => panic!("a short frame must be an EOF error, got {other:?}"),
    }
    assert!(
        peak <= RATIO * received + SLACK,
        "read_frame held {peak} live heap bytes after receiving {received}"
    );
}
