//! Duplicate ids on one connection, sent over a raw socket. Each case
//! writes its two frames in one `write` after the handshake, so both
//! decode before the loop drains a single completion and the outcome does
//! not depend on timing:
//!
//! * REQUEST(5) + REQUEST(5): the first is answered, then the server hangs
//!   up rather than guess which reply the second was owed.
//! * REQUEST(7) + STATS(7): the same — a scrape may not reuse an in-flight
//!   REQUEST id.
//! * STATS(9) + STATS(9): both are answered and the connection stays open.
//!   A scrape is answered on receipt, so its id is never in flight.
//! * REQUEST(3) + a frame of unknown kind, and REQUEST(3) + a REQUEST cut
//!   short under a valid length prefix: a protocol violation mid-pipeline
//!   costs only its own connection, and only after the reply it is owed
//!   is flushed.
//!
//! A well-behaved [`TealClient`] is served throughout, and neither end
//! counts an unmatched reply.
// The loom model-check build leaves `TealServer` out (`lib.rs`), so this
// socket test builds only without it, as `model_check.rs` builds only with it.
#![cfg(not(teal_loom))]

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use teal_core::{EngineConfig, Env, ServingContext, TealConfig, TealModel};
use teal_serve::{wire, ModelRegistry, ServeDaemon, SubmitRequest, TealClient, TealServer};
use teal_traffic::TrafficMatrix;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Frame {
    Request(u64),
    Stats(u64),
    /// A payload whose kind byte names no message.
    UnknownKind,
    /// A REQUEST payload cut in half; its length prefix matches the cut.
    Truncated(u64),
}

/// Encode `frames` back to back and hand them to the socket in one write.
fn send(stream: &mut TcpStream, frames: &[Frame], req: &SubmitRequest) {
    let (mut payload, mut bytes) = (Vec::new(), Vec::new());
    for &frame in frames {
        match frame {
            Frame::Request(id) => wire::encode_request(&mut payload, id, req),
            Frame::Stats(id) => wire::encode_stats_request(&mut payload, id),
            Frame::UnknownKind => payload = vec![0xEE],
            Frame::Truncated(id) => {
                wire::encode_request(&mut payload, id, req);
                payload.truncate(payload.len() / 2);
            }
        }
        wire::write_frame(&mut bytes, &payload).expect("frame into a Vec");
    }
    stream.write_all(&bytes).expect("one write");
}

/// The next frame the server sent, as the request it answers; `None` at
/// EOF.
fn recv(stream: &mut TcpStream) -> Option<Frame> {
    let mut buf = Vec::new();
    if !wire::read_frame(stream, &mut buf).expect("read frame") {
        return None;
    }
    Some(match wire::peek_kind(&buf).expect("frame kind") {
        wire::Kind::Reply => {
            let (id, reply) = wire::decode_reply(&buf).expect("REPLY");
            reply.expect("served");
            Frame::Request(id)
        }
        wire::Kind::StatsOk => Frame::Stats(wire::decode_stats_reply(&buf).expect("STATS_OK").0),
        other => panic!("unexpected {other:?} frame"),
    })
}

#[test]
fn duplicate_ids_hang_up_only_when_a_request_is_in_flight() {
    let env = Arc::new(Env::for_topology(teal_topology::b4()));
    let registry = ModelRegistry::new();
    let model = TealModel::new(Arc::clone(&env), TealConfig::default());
    registry.insert(
        "b4",
        ServingContext::new(model, EngineConfig::paper_default(12)),
    );
    let daemon = Arc::new(ServeDaemon::with_defaults(registry));
    let server = TealServer::bind(Arc::clone(&daemon), "127.0.0.1:0").expect("bind loopback");
    let req = SubmitRequest::new("b4", TrafficMatrix::new(vec![10.0; env.num_demands()]));
    let good = TealClient::connect(server.local_addr()).expect("connect");

    use Frame::{Request, Stats, Truncated, UnknownKind};
    for (sent, answered, hung_up) in [
        ([Request(5), Request(5)], &[Request(5)][..], true),
        ([Request(7), Stats(7)], &[Request(7)][..], true),
        ([Stats(9), Stats(9)], &[Stats(9), Stats(9)][..], false),
        ([Request(3), UnknownKind], &[Request(3)][..], true),
        ([Request(3), Truncated(4)], &[Request(3)][..], true),
    ] {
        let ticket = good.submit(&req);
        let mut raw = common::raw_handshake(server.local_addr());
        raw.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        send(&mut raw, &sent, &req);
        for want in answered {
            assert_eq!(recv(&mut raw).as_ref(), Some(want), "{sent:?}");
        }
        if hung_up {
            assert_eq!(recv(&mut raw), None, "{sent:?}: connection left open");
        } else {
            // Still serving: a fresh scrape on the same socket is answered.
            send(&mut raw, &[Stats(11)], &req);
            assert_eq!(recv(&mut raw), Some(Stats(11)), "{sent:?}");
        }
        ticket.wait().expect("the well-behaved client is served");
    }
    assert_eq!(good.unmatched_replies(), 0);
    assert_eq!(daemon.stats().unmatched_replies, 0);
}
