//! Single-layer measurements of the serving stack for the traced run: the
//! codec timed stand-alone on the workload's real frames, and short
//! sequential probes of the in-process path, the shed path and the
//! telemetry scrape.

use crate::checks::{self, Checker};
use crate::inputs::Key;
use crate::report::Metrics;
use crate::socket::{self, References};
use crate::stats;
use crate::system::ServeSystem;
use std::hint::black_box;
use std::time::{Duration, Instant};
use teal_serve::{wire, ServeError, ServeReply, StageTimings};

/// Median time of `f` in microseconds: `batches` samples, each the mean of
/// `per_batch` calls, so sub-microsecond work is not lost in clock reads.
fn median_us(batches: usize, per_batch: usize, mut f: impl FnMut()) -> f64 {
    f();
    let samples: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / per_batch as f64
        })
        .collect();
    stats::median(&samples)
}

/// Time the wire codec on this workload's own frames: a failed-link,
/// deadline'd, tenant-tagged request on the first topology, the served
/// reply to it, and a live `STATS_OK` snapshot.
pub fn wire_codec(sys: &ServeSystem, refs: &References, metrics: &mut Metrics) {
    const BATCHES: usize = 9;
    const PER_BATCH: usize = 32;
    let key = Key {
        topo: 0,
        tm: 0,
        sig: Some(0),
    };
    let req = socket::request(sys, key)
        .with_deadline(Duration::from_millis(20))
        .with_tenant("tenant-a");
    let reply: Result<ServeReply, ServeError> = Ok(ServeReply {
        allocation: refs
            .get(Key { sig: None, ..key })
            .expect("plain reference built")
            .clone(),
        latency: Duration::from_micros(900),
        stages: StageTimings {
            queue_wait: Duration::from_micros(200),
            solve: Duration::from_micros(650),
            write: Duration::from_micros(50),
        },
        batch_size: 4,
    });
    let snapshot = sys.daemon.stats();

    let mut buf = Vec::new();
    metrics.set(
        "serve.wire.encode_request_us",
        median_us(BATCHES, PER_BATCH, || {
            wire::encode_request(black_box(&mut buf), 7, black_box(&req))
        }),
    );
    let request_frame = buf.clone();
    metrics.set(
        "serve.wire.decode_request_us",
        median_us(BATCHES, PER_BATCH, || {
            black_box(wire::decode_request(black_box(&request_frame)).is_ok());
        }),
    );
    metrics.set(
        "serve.wire.encode_reply_us",
        median_us(BATCHES, PER_BATCH, || {
            wire::encode_reply(black_box(&mut buf), 7, black_box(&reply))
        }),
    );
    let reply_frame = buf.clone();
    metrics.set(
        "serve.wire.decode_reply_us",
        median_us(BATCHES, PER_BATCH, || {
            black_box(wire::decode_reply(black_box(&reply_frame)).is_ok());
        }),
    );
    metrics.set(
        "serve.wire.encode_stats_us",
        median_us(BATCHES, PER_BATCH, || {
            wire::encode_stats_reply(black_box(&mut buf), 7, black_box(&snapshot))
        }),
    );
    let stats_frame = buf.clone();
    metrics.set(
        "serve.wire.decode_stats_us",
        median_us(BATCHES, PER_BATCH, || {
            black_box(wire::decode_stats_reply(black_box(&stats_frame)).is_ok());
        }),
    );

    // The resumable decoder as the event loop drives it: the request frame
    // (length prefix included) arriving in 1 KiB reads.
    let mut on_wire = (request_frame.len() as u32).to_le_bytes().to_vec();
    on_wire.extend_from_slice(&request_frame);
    let mut decoder = wire::FrameDecoder::new();
    metrics.set(
        "serve.wire.frame_decoder_us",
        median_us(BATCHES, PER_BATCH, || {
            for piece in on_wire.chunks(1024) {
                decoder.feed(piece).expect("well-formed frame");
            }
            black_box(decoder.next_frame().expect("well-formed frame").is_some());
        }),
    );
    // The write path: encode a reply onto the pooled queue, flush to a sink.
    let mut queue = wire::WriteQueue::new();
    metrics.set(
        "serve.wire.write_queue_us",
        median_us(BATCHES, PER_BATCH, || {
            queue.push_reply(7, black_box(&reply));
            black_box(queue.flush(|bytes| Ok(bytes.len())).is_ok());
        }),
    );

    metrics.set(
        "serve.wire.request_frame_bytes",
        (request_frame.len() + 4) as f64,
    );
    metrics.set(
        "serve.wire.reply_frame_bytes",
        (reply_frame.len() + 4) as f64,
    );
    metrics.set(
        "serve.wire.stats_frame_bytes",
        (stats_frame.len() + 4) as f64,
    );
}

/// Sequential probes on an idle server: one request at a time through
/// `ServeDaemon::submit` (no socket), one zero-budget request at a time
/// over the socket (shed at admission), one scrape at a time, and the
/// snapshot and Prometheus renderers in process. Returns the `REQUEST`s it
/// sent, for the balance check.
pub fn sequential(
    sys: &ServeSystem,
    metrics: &mut Metrics,
    checker: &mut Checker,
    budget: Duration,
) -> u64 {
    const MAX_SAMPLES: usize = 200;
    let topo = &sys.topos[0];
    let client = &sys.clients[0];
    let slice = budget / 3;
    let mut sent = 0u64;

    let mut sample = |what: &str, f: &mut dyn FnMut() -> bool| -> Vec<f64> {
        let begun = Instant::now();
        let mut out = Vec::new();
        while out.len() < 3 || (out.len() < MAX_SAMPLES && begun.elapsed() < slice) {
            let t = Instant::now();
            let ok = f();
            out.push(t.elapsed().as_secs_f64());
            checker.record(checks::ensure(ok, || {
                format!("probe: unexpected answer to {what}")
            }));
        }
        out
    };

    let mut i = 0;
    let inproc = sample("an in-process request", &mut || {
        i += 1;
        sys.daemon
            .allocate(topo.id, topo.pool[i % topo.pool.len()].clone())
            .is_ok()
    });
    sent += inproc.len() as u64;
    metrics.set(
        "serve.daemon.inproc_request_p50_ms",
        stats::median(&inproc) * 1e3,
    );

    let shed_request = socket::request(
        sys,
        Key {
            topo: 0,
            tm: 0,
            sig: None,
        },
    )
    .with_deadline(Duration::ZERO);
    let shed = sample("a zero-budget request", &mut || {
        client.submit(&shed_request).wait() == Err(ServeError::DeadlineExceeded)
    });
    sent += shed.len() as u64;
    metrics.set(
        "serve.net.shed_roundtrip_p50_us",
        stats::median(&shed) * 1e6,
    );

    let scrape = sample("a scrape", &mut || client.stats().is_ok());
    metrics.set(
        "serve.telemetry.stats_scrape_p50_us",
        stats::median(&scrape) * 1e6,
    );

    metrics.set(
        "serve.telemetry.stats_inproc_us",
        median_us(9, 8, || {
            black_box(sys.daemon.stats());
        }),
    );
    let snapshot = sys.daemon.stats();
    metrics.set(
        "serve.telemetry.to_prometheus_us",
        median_us(9, 8, || {
            black_box(snapshot.to_prometheus());
        }),
    );
    sent
}
