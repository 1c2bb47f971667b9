//! The event-loop write path's pooled-buffer guarantee, machine-checked:
//! once a connection's [`WriteQueue`] has grown to its high-water mark,
//! encoding replies (success, error, and full STATS_OK snapshots) and
//! flushing them through partial writes, `EWOULDBLOCK` stalls, and
//! in-place backlog compaction performs **zero heap allocations**.
//!
//! Same shape as `crates/lp/tests/steady_state_alloc.rs`: the workspace's
//! metering allocator (`teal-meter`) counts allocation calls per thread,
//! and the test snapshots its own thread's count around each post-warmup
//! window, so libtest's main-thread bookkeeping (which made this test
//! flaky in debug builds) cannot land in the count.

use std::io;
use std::time::Duration;
use teal_lp::Allocation;
use teal_meter::thread_calls;
use teal_nn::pool::PoolStats;
use teal_serve::wire::WriteQueue;
use teal_serve::{
    AdmmStats, LatencyStats, ServeError, ServeReply, SlowExemplar, StageTimings, TelemetrySnapshot,
    TenantSnapshot, TopoSnapshot,
};

#[global_allocator]
static METER: teal_meter::Meter = teal_meter::Meter;

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

/// A fully-populated snapshot (every optional section present) so the
/// STATS_OK encode path is exercised end to end.
fn snapshot() -> TelemetrySnapshot {
    TelemetrySnapshot {
        per_topology: vec![TopoSnapshot {
            topology: "b4".to_string(),
            requests: 12_345,
            batches: 678,
            mean: ms(4),
            p50: ms(3),
            p99: ms(9),
            queue_wait: lat(1),
            solve: lat(2),
            write: lat(0),
            admm: Some(AdmmStats {
                windows: 678,
                lanes: 9_000,
                iterations: 45_000,
                budget_downgrades: 17,
                last_primal_residual: 0.25,
                max_primal_residual: 1.5,
                last_dual_residual: 0.125,
                max_dual_residual: 2.0,
            }),
        }],
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

fn reply(splits: usize) -> Result<ServeReply, ServeError> {
    Ok(ServeReply {
        allocation: Allocation::from_splits(
            4,
            (0..splits).map(|p| (p % 7) as f64 * 0.25).collect(),
        ),
        latency: ms(6),
        stages: StageTimings {
            queue_wait: ms(2),
            solve: ms(4),
            write: ms(0),
        },
        batch_size: 16,
    })
}

/// One serving window: identical push/flush traffic every time, covering
/// the trickle-flush (`EWOULDBLOCK` mid-frame), the stats reply, the
/// ≥64 KiB dead-prefix in-place compaction, and the fully-drained rewind.
/// Returns the bytes the fake socket accepted.
fn run_window(
    q: &mut WriteQueue,
    small: &Result<ServeReply, ServeError>,
    failed: &Result<ServeReply, ServeError>,
    big: &Result<ServeReply, ServeError>,
    snap: &TelemetrySnapshot,
) -> usize {
    let mut accepted = 0usize;

    // Trickle: the socket takes 7 bytes (mid-length-prefix!) then stalls.
    q.push_reply(1, small);
    q.push_reply(2, failed);
    let mut calls = 0;
    let drained = q
        .flush(|b| {
            calls += 1;
            if calls == 1 {
                accepted += 7.min(b.len());
                Ok(7.min(b.len()))
            } else {
                Err(io::ErrorKind::WouldBlock.into())
            }
        })
        .expect("trickle flush");
    assert!(!drained, "7 bytes cannot drain two frames");

    // A stats scrape joins the backlog; socket still stalled.
    q.push_stats_reply(3, snap);
    let drained = q
        .flush(|_| Err(io::ErrorKind::WouldBlock.into()))
        .expect("stalled flush");
    assert!(!drained);

    // Two big replies, then the socket accepts 70 000 bytes: the written
    // (dead) prefix now exceeds the 64 KiB compaction threshold and
    // dominates the buffer, so the next push compacts in place.
    q.push_reply(4, big);
    q.push_reply(5, big);
    let mut first = true;
    let drained = q
        .flush(|b| {
            if first {
                first = false;
                accepted += 70_000.min(b.len());
                Ok(70_000.min(b.len()))
            } else {
                Err(io::ErrorKind::WouldBlock.into())
            }
        })
        .expect("bulk flush");
    assert!(!drained, "backlog must survive the partial bulk write");

    // This push triggers the in-place compaction path (memmove, no
    // allocation), then the socket accepts everything: drained rewind.
    q.push_reply(6, small);
    let drained = q
        .flush(|b| {
            accepted += b.len();
            Ok(b.len())
        })
        .expect("draining flush");
    assert!(drained);
    assert!(q.is_empty());
    accepted
}

#[test]
fn warm_write_path_allocates_nothing() {
    let small = reply(64);
    let failed = Err(ServeError::Overloaded("queue full (depth 1024)".into()));
    // Two of these frames (~64 KiB each) make the partially-flushed
    // backlog large enough to cross the compaction threshold.
    let big = reply(8_000);
    let snap = snapshot();

    let mut q = WriteQueue::new();

    // Warm windows grow the buffer to its high-water mark.
    let mut warm_bytes = 0;
    for _ in 0..2 {
        warm_bytes += run_window(&mut q, &small, &failed, &big, &snap);
    }

    // Vacuous-pass guard: the warm-up allocated, and this thread saw it.
    assert!(thread_calls() > 0, "per-thread counter is dead");

    // Every later window must be allocation-free.
    for w in 0..4 {
        let before = thread_calls();
        let accepted = run_window(&mut q, &small, &failed, &big, &snap);
        let grew = thread_calls() - before;
        assert_eq!(
            grew, 0,
            "window {w} performed {grew} heap allocations on the encode/flush path"
        );
        // Vacuous-pass guards: the window really pushed frames through.
        assert_eq!(accepted, warm_bytes / 2);
        assert!(accepted > 100 << 10, "window moved {accepted} bytes");
    }
}
