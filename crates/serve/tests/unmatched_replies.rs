//! The unmatched-reply counter, client side: REPLY/STATS_OK frames whose
//! request id matches nothing pending used to be **silently dropped** by
//! the client's reader thread — an id-bookkeeping bug on either end of the
//! connection was invisible. They are now counted and surfaced via
//! [`TealClient::unmatched_replies`].
//!
//! The "server" here is a hand-rolled socket speaking raw wire frames, so
//! it can misbehave on purpose: after a legitimate handshake it sends two
//! unsolicited REPLY frames and one unsolicited STATS_OK, then answers a
//! real STATS scrape with a REPLY frame.

use std::net::TcpListener;
use std::time::Duration;
use teal_serve::wire;
use teal_serve::{ServeError, TealClient, Telemetry};

#[test]
fn unsolicited_replies_are_counted_not_dropped() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");

    let server = std::thread::spawn(move || {
        let (mut sock, _) = listener.accept().expect("accept");
        let mut buf = Vec::new();
        // Legitimate handshake.
        assert!(wire::read_frame(&mut sock, &mut buf).expect("hello"));
        wire::decode_hello(&buf).expect("hello frame");
        wire::encode_hello_ok(&mut buf);
        wire::write_frame(&mut sock, &buf).expect("hello_ok");
        // Three unsolicited frames under ids the client never issued
        // (client ids start at 0 and nothing was submitted).
        for id in [900u64, 901] {
            wire::encode_reply(&mut buf, id, &Err(ServeError::DeadlineExceeded));
            wire::write_frame(&mut sock, &buf).expect("unsolicited reply");
        }
        wire::encode_stats_reply(&mut buf, 902, &Telemetry::default().snapshot());
        wire::write_frame(&mut sock, &buf).expect("unsolicited stats");
        // Then answer the client's first real frame — a STATS scrape —
        // with the wrong reply kind for its id.
        assert!(wire::read_frame(&mut sock, &mut buf).expect("stats request"));
        let id = wire::decode_stats_request(&buf).expect("STATS frame");
        wire::encode_reply(&mut buf, id, &Err(ServeError::DeadlineExceeded));
        wire::write_frame(&mut sock, &buf).expect("wrong-kind reply");
        // Keep the socket open until the client has seen everything (the
        // client drop path closes it from the other side).
        let _ = wire::read_frame(&mut sock, &mut buf);
    });

    let client = TealClient::connect(addr).expect("connect");
    // The reader thread processes the three rogue frames asynchronously;
    // poll with a bound instead of sleeping an arbitrary fixed time.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while client.unmatched_replies() < 3 {
        assert!(
            std::time::Instant::now() < deadline,
            "only {} of 3 unsolicited frames counted after 10s",
            client.unmatched_replies()
        );
        std::thread::yield_now();
    }
    assert_eq!(client.unmatched_replies(), 3);

    // A REPLY under an id that awaits STATS_OK is unmatched too, and the
    // scrape it can never satisfy fails instead of hanging.
    match client.stats_timeout(Duration::from_secs(10)) {
        Err(ServeError::Internal(why)) => assert!(why.contains("kind"), "{why}"),
        other => panic!("wrong-kind reply resolved the scrape as {other:?}"),
    }
    assert_eq!(client.unmatched_replies(), 4);

    drop(client);
    server.join().expect("mock server");
}
