//! Wire-codec identity: every message the protocol can carry —
//! [`SubmitRequest`]s across both scenario axes, successful
//! [`ServeReply`]s, and **every** [`ServeError`] variant — must decode to
//! exactly what was encoded, frame layer included. The codec is
//! fixed-layout binary with a version gate, so any accidental layout drift
//! shows up here before it shows up as corrupted allocations in a client.

mod common;

use proptest::prelude::*;
use std::time::Duration;
use teal_lp::Allocation;
use teal_nn::pool::PoolStats;
use teal_serve::wire;
use teal_serve::{
    AdmmStats, LatencyStats, ServeError, ServeReply, SlowExemplar, StageTimings, SubmitRequest,
    TelemetrySnapshot, TenantSnapshot, TopoSnapshot,
};
use teal_traffic::TrafficMatrix;

/// Encode then frame then unframe then decode, through a real byte stream.
fn frame_roundtrip(payload: &[u8]) -> Vec<u8> {
    let mut stream = Vec::new();
    wire::write_frame(&mut stream, payload).expect("write frame");
    let mut cursor = std::io::Cursor::new(stream);
    let mut out = Vec::new();
    assert!(wire::read_frame(&mut cursor, &mut out).expect("read frame"));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn request_roundtrip_is_identity(
        id in 0u64..u64::MAX,
        topo_len in 0usize..24,
        demands in proptest::collection::vec(0.0f64..1e6, 0..40),
        deadline_ns in 0u64..10_000_000_000,
        has_deadline in 0u8..2,
        links in proptest::collection::vec(0u64..64, 0..12),
        tenant_len in 0usize..12,
        has_tenant in 0u8..2,
    ) {
        let topology: String = (0..topo_len).map(|i| char::from(b'a' + (i % 26) as u8)).collect();
        let failed_links: Vec<(usize, usize)> = links
            .chunks(2)
            .filter(|c| c.len() == 2)
            .map(|c| (c[0] as usize, c[1] as usize))
            .collect();
        let tenant: String =
            (0..tenant_len).map(|i| char::from(b'a' + ((i * 7) % 26) as u8)).collect();
        let req = SubmitRequest {
            topology,
            tm: TrafficMatrix::new(demands),
            deadline: (has_deadline == 1).then(|| Duration::from_nanos(deadline_ns)),
            failed_links,
            tenant: (has_tenant == 1).then_some(tenant),
        };
        let mut buf = Vec::new();
        wire::encode_request(&mut buf, id, &req);
        let payload = frame_roundtrip(&buf);
        let (got_id, got) = wire::decode_request(&payload).expect("decode request");
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got, req);
    }

    #[test]
    fn ok_reply_roundtrip_is_identity(
        id in 0u64..u64::MAX,
        k in 1usize..6,
        nd in 0usize..30,
        latency_ns in 0u64..60_000_000_000,
        queue_wait_ns in 0u64..60_000_000_000,
        solve_ns in 0u64..60_000_000_000,
        write_ns in 0u64..60_000_000_000,
        batch_size in 1usize..64,
        seed in 0u64..1000,
    ) {
        let splits: Vec<f64> = (0..nd * k)
            .map(|p| ((seed as usize * 31 + p * 7) % 97) as f64 / 97.0)
            .collect();
        let reply = ServeReply {
            allocation: Allocation::from_splits(k, splits),
            latency: Duration::from_nanos(latency_ns),
            stages: StageTimings {
                queue_wait: Duration::from_nanos(queue_wait_ns),
                solve: Duration::from_nanos(solve_ns),
                write: Duration::from_nanos(write_ns),
            },
            batch_size,
        };
        let mut buf = Vec::new();
        wire::encode_reply(&mut buf, id, &Ok(reply.clone()));
        let payload = frame_roundtrip(&buf);
        let (got_id, got) = wire::decode_reply(&payload).expect("decode reply");
        prop_assert_eq!(got_id, id);
        // Bitwise: the allocation crossed the wire as raw f64 bits.
        prop_assert_eq!(got, Ok(reply));
    }

    #[test]
    fn error_reply_roundtrip_is_identity(
        id in 0u64..u64::MAX,
        which in 0usize..7,
        msg_len in 0usize..40,
        seed in 0u64..1000,
    ) {
        let msg: String = (0..msg_len)
            .map(|i| char::from(b' ' + ((seed as usize + i * 13) % 94) as u8))
            .collect();
        let err = match which {
            0 => ServeError::UnknownTopology(msg),
            1 => ServeError::ShuttingDown,
            2 => ServeError::Checkpoint(msg),
            3 => ServeError::BadRequest(msg),
            4 => ServeError::Internal(msg),
            5 => ServeError::DeadlineExceeded,
            _ => ServeError::Overloaded(msg),
        };
        let mut buf = Vec::new();
        wire::encode_reply(&mut buf, id, &Err(err.clone()));
        let payload = frame_roundtrip(&buf);
        let (got_id, got) = wire::decode_reply(&payload).expect("decode reply");
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(got, Err(err));
    }
}

/// Deterministic synthetic snapshot: every field exercised, reproducible
/// from one seed via an LCG so the proptest shrinks sensibly.
fn synth_snapshot(seed: u64, ntopo: usize, nsizes: usize, nslow: usize) -> TelemetrySnapshot {
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 16
    };
    let mut dur = {
        let mut n = next;
        move || Duration::from_nanos(n() % 60_000_000_000)
    };
    let mut lat = {
        let d = &mut dur;
        move || LatencyStats {
            mean: d(),
            p50: d(),
            p99: d(),
        }
    };
    let per_topology = (0..ntopo)
        .map(|i| {
            let e2e = lat();
            TopoSnapshot {
                topology: format!("topo-{i}"),
                requests: next() % 1_000_000,
                batches: next() % 100_000,
                e2e,
                queue_wait: lat(),
                solve: lat(),
                write: lat(),
                admm: (next() % 2 == 0).then(|| AdmmStats {
                    windows: next() % 10_000,
                    lanes: next() % 100_000,
                    iterations: next() % 1_000_000,
                    budget_downgrades: next() % 10_000,
                    last_primal_residual: (next() % 1000) as f64 / 1000.0,
                    max_primal_residual: (next() % 1000) as f64 / 100.0,
                    last_dual_residual: (next() % 1000) as f64 / 1000.0,
                    max_dual_residual: (next() % 1000) as f64 / 100.0,
                }),
            }
        })
        .collect();
    let slow = (0..nslow)
        .map(|i| SlowExemplar {
            topology: format!("topo-{}", i % ntopo.max(1)),
            latency: dur(),
            stages: StageTimings {
                queue_wait: dur(),
                solve: dur(),
                write: dur(),
            },
            batch_size: (next() % 64) as usize,
        })
        .collect();
    TelemetrySnapshot {
        per_topology,
        batch_sizes: (0..nsizes).map(|s| (s + 1, next() % 10_000)).collect(),
        queue_depth: (next() % 4096) as usize,
        max_queue_depth: (next() % 4096) as usize,
        completed: next(),
        shed: next() % 1_000_000,
        expired: next() % 1_000_000,
        deadline_inversions: next() % 1_000_000,
        unmatched_replies: next() % 1_000,
        tenants: (0..(next() % 4))
            .map(|i| TenantSnapshot {
                tenant: format!("tenant-{i}"),
                requests: next() % 1_000_000,
                windows: next() % 100_000,
            })
            .collect(),
        pool: PoolStats {
            jobs: next(),
            caller_chunks: next(),
            helper_chunks: next(),
            capped_skips: next(),
        },
        slow,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn stats_request_roundtrip_is_identity(id in 0u64..u64::MAX) {
        let mut buf = Vec::new();
        wire::encode_stats_request(&mut buf, id);
        let payload = frame_roundtrip(&buf);
        prop_assert_eq!(wire::decode_stats_request(&payload).expect("decode stats"), id);
    }

    /// The generated STATS_OK codec, over the whole metric table at once:
    /// decode inverts encode, no strict prefix of a frame decodes, and a
    /// hostile element count in any of the table's vectors is refused by
    /// the count check — before anything is allocated for it.
    #[test]
    fn stats_reply_codec_roundtrips_and_rejects_damage(
        id in 0u64..u64::MAX,
        seed in 0u64..1_000_000,
        ntopo in 0usize..4,
        nsizes in 0usize..6,
        nslow in 0usize..9,
    ) {
        let mut snap = synth_snapshot(seed, ntopo, nsizes, nslow);
        if let Some(t) = snap.per_topology.first_mut() {
            t.admm.get_or_insert_with(AdmmStats::default);
        }
        let encode = |snap: &TelemetrySnapshot| {
            let mut buf = Vec::new();
            wire::encode_stats_reply(&mut buf, id, snap);
            buf
        };
        let buf = encode(&snap);
        let (got_id, got) =
            wire::decode_stats_reply(&frame_roundtrip(&buf)).expect("decode stats reply");
        prop_assert_eq!(got_id, id);
        prop_assert_eq!(&got, &snap);

        for cut in 0..buf.len() {
            prop_assert!(wire::decode_stats_reply(&buf[..cut]).is_err(), "prefix {} decoded", cut);
        }

        // Growing a vector by one element first changes the frame at the
        // low byte of that vector's count, which locates the count field
        // without this test restating the layout.
        type Grow = fn(&mut TelemetrySnapshot);
        let grow: [(&str, Grow); 4] = [
            ("topologies", |s| {
                let t = synth_snapshot(1, 1, 0, 0).per_topology.remove(0);
                s.per_topology.push(t)
            }),
            ("batch sizes", |s| s.batch_sizes.push((0, 0))),
            ("slow exemplars", |s| {
                let e = synth_snapshot(1, 0, 0, 1).slow.remove(0);
                s.slow.push(e)
            }),
            ("tenants", |s| s.tenants.push(TenantSnapshot {
                tenant: String::new(),
                requests: 0,
                windows: 0,
            })),
        ];
        for (what, grow) in grow {
            let mut grown = snap.clone();
            grow(&mut grown);
            let count_at = buf
                .iter()
                .zip(&encode(&grown))
                .position(|(a, b)| a != b)
                .expect("a grown vector changes the frame");
            let mut hostile = buf.clone();
            hostile[count_at..count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            match wire::decode_stats_reply(&hostile) {
                Err(wire::WireError::Protocol(m)) => prop_assert!(
                    m.contains("count 4294967295 exceeds"),
                    "{}: refused, but not by the count check: {}", what, m
                ),
                other => prop_assert!(false, "{}: hostile count gave {:?}", what, other.map(|_| ())),
            }
        }
    }
}

/// REQUEST ids are bounded where they enter: one byte past
/// `MAX_ID_BYTES` is a protocol error, the limit itself is served.
#[test]
fn overlong_request_ids_are_protocol_errors() {
    let id_of = |len: usize| "x".repeat(len);
    let tm = || TrafficMatrix::new(vec![1.0]);
    let mut buf = Vec::new();
    for (len, ok) in [(wire::MAX_ID_BYTES, true), (wire::MAX_ID_BYTES + 1, false)] {
        for req in [
            SubmitRequest::new(id_of(len), tm()),
            SubmitRequest::new("b4", tm()).with_tenant(id_of(len)),
        ] {
            wire::encode_request(&mut buf, 1, &req);
            match wire::decode_request(&buf) {
                Ok((_, got)) => assert!(ok && got == req, "{len}-byte id decoded"),
                Err(wire::WireError::Protocol(_)) => assert!(!ok, "{len}-byte id refused"),
                Err(e) => panic!("{len}-byte id: wrong error kind: {e}"),
            }
        }
    }
}

#[test]
fn every_error_variant_roundtrips() {
    // The proptest above samples variants; this pins the full enumeration
    // so adding a variant without a wire mapping fails loudly here.
    let variants = vec![
        ServeError::UnknownTopology("b4".into()),
        ServeError::ShuttingDown,
        ServeError::Checkpoint("bad tensor shape".into()),
        ServeError::BadRequest("matrix arity".into()),
        ServeError::Internal("worker panicked".into()),
        ServeError::DeadlineExceeded,
        ServeError::Overloaded("queue full (1024 waiting)".into()),
    ];
    let mut buf = Vec::new();
    for (i, err) in variants.into_iter().enumerate() {
        wire::encode_reply(&mut buf, i as u64, &Err(err.clone()));
        let (id, got) = wire::decode_reply(&buf).expect("decode");
        assert_eq!(id, i as u64);
        assert_eq!(got, Err(err));
    }
}

#[test]
fn handshake_roundtrips_and_gates_version() {
    let mut buf = Vec::new();
    wire::encode_hello(&mut buf);
    assert_eq!(wire::decode_hello(&buf).expect("hello"), wire::VERSION);
    wire::encode_hello_ok(&mut buf);
    assert_eq!(
        wire::decode_hello_ok(&buf).expect("hello ok"),
        wire::VERSION
    );

    // A peer speaking a different version must be refused, not misdecoded.
    let mut bad = Vec::new();
    wire::encode_hello(&mut bad);
    let len = bad.len();
    bad[len - 2..].copy_from_slice(&(wire::VERSION + 1).to_le_bytes());
    assert!(matches!(
        wire::decode_hello(&bad),
        Err(wire::WireError::Version { .. })
    ));
}

#[test]
fn truncated_and_oversized_frames_are_errors() {
    let mut buf = Vec::new();
    wire::encode_request(
        &mut buf,
        7,
        &SubmitRequest::new("b4", TrafficMatrix::new(vec![1.0])),
    );
    // Truncations at every prefix length must error, never panic.
    for cut in 0..buf.len() {
        assert!(
            wire::decode_request(&buf[..cut]).is_err(),
            "truncation at {cut} decoded"
        );
    }
    // A demand `TrafficMatrix::new` would assert on is a protocol error,
    // not an unwind out of the decoder (demands are the frame's tail).
    for hostile in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0] {
        let mut bad = buf.clone();
        let at = bad.len() - 8;
        bad[at..].copy_from_slice(&hostile.to_le_bytes());
        match wire::decode_request(&bad) {
            Err(wire::WireError::Protocol(m)) => assert!(m.contains("demand"), "{m}"),
            other => panic!("demand {hostile}: {:?}", other.map(|_| ())),
        }
    }
    // A length prefix past MAX_FRAME is refused before allocation.
    let huge = (wire::MAX_FRAME + 1).to_le_bytes();
    let mut cursor = std::io::Cursor::new(huge.to_vec());
    let mut out = Vec::new();
    assert!(wire::read_frame(&mut cursor, &mut out).is_err());
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf29ce484222325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

/// The v6 STATS_OK bytes and the Prometheus line multiset, pinned as
/// FNV-1a hashes. The v4 pins were captured at commit `2d9e872` (the last
/// hand-written codec and renderer); v5 re-pinned both when the
/// budgeted-iteration total and the per-budget window counts left the
/// snapshot, and v6 when the per-lane iteration spread and the frozen-lane
/// count did (the empty snapshot's bytes did not move; its Prometheus text
/// lost the frozen-lane family's help and type lines). Lines are hashed sorted because family-major ordering is the
/// one permitted change to the text. (Before v5 the Prometheus hashes moved
/// twice, each time with one help line: `teal_nn_pool_capped_skips_total`,
/// then `teal_serve_max_queue_depth` when it became a per-shard high-water
/// mark. The v4 wire hashes never did.)
#[test]
fn stats_golden() {
    for (seed, ntopo, nsizes, nslow, want_wire, want_prom) in [
        (
            13u64,
            3usize,
            4usize,
            5usize,
            0x77515d869ca1e0ddu64,
            0x1aa2bf0826b21a1fu64,
        ),
        (42, 3, 4, 5, 0x6c34c9b8a0ac1d79, 0xd9752569a94cfef7),
        // `admm: None` everywhere and every vector empty.
        (0, 0, 0, 0, 0xef935e3c2a4475c8, 0xb386e3cf9feb80a5),
    ] {
        let snap = synth_snapshot(seed, ntopo, nsizes, nslow);
        let mut buf = Vec::new();
        wire::encode_stats_reply(&mut buf, seed, &snap);
        let text = snap.to_prometheus();
        common::prom_well_formed(&text).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{text}"));
        let mut lines: Vec<&str> = text.lines().collect();
        lines.sort_unstable();
        let prom = fnv1a(lines.iter().flat_map(|l| l.bytes().chain([b'\n'])));
        let wire = fnv1a(buf.iter().copied());
        assert_eq!(wire, want_wire, "seed {seed}: STATS_OK bytes drifted");
        assert_eq!(prom, want_prom, "seed {seed}: Prometheus lines drifted");
    }
}

/// REQUEST and REPLY frames (length prefix included), pinned as FNV-1a
/// hashes captured at commit `f5880bf`, and the HELLO, HELLO_OK and STATS
/// frames, captured at `25e0425` (HELLO and HELLO_OK carry
/// `wire::VERSION`, so they were re-pinned at v5 and at v6): the benchmark's raw-socket load
/// generator writes HELLO, REQUEST and STATS frames and decodes HELLO_OK
/// and REPLY frames itself, so their bytes are a contract beside
/// STATS_OK's.
#[test]
fn request_reply_golden() {
    let framed = |payload: &[u8]| {
        let mut bytes = Vec::new();
        wire::write_frame(&mut bytes, payload).expect("frame into a Vec");
        fnv1a(bytes)
    };
    let tm = || TrafficMatrix::new((0..12).map(|i| 1.5 * i as f64).collect());
    let mut buf = Vec::new();
    let mut got = Vec::new();
    for (id, req) in [
        (1u64, SubmitRequest::new("b4", tm())),
        (
            u64::MAX - 3,
            SubmitRequest::new("swan", tm())
                .with_deadline(Duration::from_micros(20_500))
                .with_tenant("gold")
                .with_failed_link(0, 1)
                .with_failed_link(7, 3),
        ),
    ] {
        wire::encode_request(&mut buf, id, &req);
        got.push(framed(&buf));
    }
    let ok = ServeReply {
        allocation: Allocation::from_splits(3, (0..12).map(|p| f64::from(p % 5) / 4.0).collect()),
        latency: Duration::from_nanos(3_210_987),
        stages: StageTimings {
            queue_wait: Duration::from_nanos(1_000_003),
            solve: Duration::from_nanos(2_000_005),
            write: Duration::from_nanos(210_979),
        },
        batch_size: 6,
    };
    let replies = [
        Ok(ok),
        Err(ServeError::UnknownTopology("nowhere".into())),
        Err(ServeError::ShuttingDown),
        Err(ServeError::Checkpoint("bad tensor shape".into())),
        Err(ServeError::BadRequest("matrix arity".into())),
        Err(ServeError::Internal("worker panicked".into())),
        Err(ServeError::DeadlineExceeded),
        Err(ServeError::Overloaded("queue full (1024 waiting)".into())),
    ];
    for (id, reply) in replies.iter().enumerate() {
        wire::encode_reply(&mut buf, 40 + id as u64, reply);
        got.push(framed(&buf));
    }
    wire::encode_hello(&mut buf);
    got.push(framed(&buf));
    wire::encode_hello_ok(&mut buf);
    got.push(framed(&buf));
    for id in [0, u64::MAX - 5] {
        wire::encode_stats_request(&mut buf, id);
        got.push(framed(&buf));
    }
    let want = [
        // plain request; deadline + tenant + failed links
        0x2e21df7e52182ddf,
        0xddc14a158690b8ba,
        // ok reply with stage timings
        0x9d4a3d0392ffea75,
        // one error reply per `ServeError` variant, in declaration order
        0x9f67af47276c83c4,
        0x0b86d8a40cd1aaf6,
        0xab7e6ab48cd6f1c3,
        0x776a4b611f5a25c2,
        0xf148138c3e1430c5,
        0xde914f397a4c1ece,
        0x047ba11edad03551,
        // HELLO, HELLO_OK (v6)
        0x59afe01e45e0c945,
        0x2b83d39efe8579da,
        // STATS with the smallest and a near-largest id
        0xb1f090debbf2584b,
        0xd8befdfd3cd33726,
    ];
    assert_eq!(got, want, "handshake/REQUEST/REPLY/STATS bytes drifted");
}
