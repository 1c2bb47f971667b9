//! `TealClient`: a blocking TCP client with pipelined submits.
//!
//! [`TealClient::submit`] encodes and sends the request immediately and
//! returns a [`Ticket`] — the same handle in-process callers get — without
//! waiting for the reply; callers pipeline as many requests as they like
//! and redeem the tickets in any order. A background reader thread matches
//! REPLY frames to tickets by request id (the server answers out of
//! order), so one slow request never blocks the replies behind it.
//!
//! The client is shareable across threads (`submit` takes `&self`; sends
//! are serialized by a short-held writer lock, replies are dispatched by
//! the reader thread), and the request ids are minted from one atomic —
//! concurrent submitters commute, mirroring the serving core's submit
//! path. A dropped or failed connection fulfills every outstanding ticket
//! with [`ServeError::Internal`] rather than hanging its waiters.
//!
//! A request and a telemetry scrape are the same thing to this file: an id,
//! a one-shot `Slot` registered under it in the one `pending` map (the
//! `Waiter` says which reply kind the id awaits), and a frame written by
//! the one send path, `ClientShared::send`, which owns the
//! register-before-send ordering `model::client_register_before_send`
//! checks.

// teal-lint: checked-sync
use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::{thread, Arc, Mutex};
use std::collections::HashMap;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::time::Duration;
use teal_traffic::TrafficMatrix;

use crate::request::{ResponseSlot, ServeError, ServeReply, Slot, SubmitRequest, Ticket};
use crate::telemetry::TelemetrySnapshot;
use crate::wire;

/// What an in-flight id is waiting for: a REPLY into a ticket's slot, or a
/// STATS_OK into a scrape's.
pub(crate) enum Waiter {
    Reply(Arc<ResponseSlot>),
    Stats(Arc<Slot<TelemetrySnapshot>>),
}

impl Waiter {
    /// Resolve the waiter with a connection-level failure.
    pub(crate) fn fail(self, why: &str) {
        let err = ServeError::Internal(why.to_string());
        match self {
            Waiter::Reply(slot) => slot.fulfill(Err(err)),
            Waiter::Stats(slot) => slot.fulfill(Err(err)),
        }
    }
}

/// Client-side shared state between submitters and the reader thread.
#[derive(Default)]
pub(crate) struct ClientShared {
    /// In-flight id → who waits on it. Requests and scrapes share the id
    /// space (the server keys both reply kinds off the same counter).
    pub(crate) pending: Mutex<HashMap<u64, Waiter>>,
    /// Set once the reader has exited (connection gone): new submits fail
    /// fast instead of queueing onto a dead socket.
    closed: AtomicBool,
    /// Reply/STATS_OK frames that matched nothing pending, or matched an id
    /// awaiting the other kind. A nonzero count means id bookkeeping broke
    /// somewhere (client or server) — previously these were silently
    /// dropped, hiding the bug.
    unmatched: AtomicU64,
}

impl ClientShared {
    /// Put one frame on the wire for `id` — the only send path. `write`
    /// encodes and writes it; `waiter` is resolved through its slot on
    /// every outcome, so callers just wait on the slot they kept.
    pub(crate) fn send(
        &self,
        id: u64,
        waiter: Waiter,
        write: impl FnOnce() -> std::io::Result<()>,
    ) {
        if self.closed.load(Ordering::Acquire) {
            return waiter.fail("connection closed");
        }
        // Register before sending: the reply can race back before this
        // thread regains the CPU.
        self.pending.lock().insert(id, waiter);
        let sent = write();
        // Close the race with the reader's fail_all: if the reader
        // observed EOF and drained `pending` between our closed-check and
        // the insert above, nobody else will ever fulfill this slot — the
        // send may even "succeed" into a half-closed socket. Re-checking
        // `closed` after registering makes the overlap visible here.
        if sent.is_err() || self.closed.load(Ordering::Acquire) {
            if let Some(waiter) = self.take(id) {
                waiter.fail(if sent.is_err() {
                    "connection write failed"
                } else {
                    "connection closed"
                });
            }
        }
    }

    /// Claim whoever waits on `id` (the reader's half of the protocol).
    pub(crate) fn take(&self, id: u64) -> Option<Waiter> {
        self.pending.lock().remove(&id)
    }

    /// A frame arrived that `claimed` cannot accept: nothing waits on its
    /// id, or the id awaits the other reply kind. Count it instead of
    /// silently dropping it (the count is the debugging breadcrumb for
    /// broken id bookkeeping); a mismatched waiter will never get the frame
    /// it wants, so it is failed rather than left to hang.
    fn unmatched(&self, claimed: Option<Waiter>) {
        self.unmatched.fetch_add(1, Ordering::Relaxed);
        if let Some(waiter) = claimed {
            waiter.fail("reply kind does not match the request");
        }
    }

    /// Fail everything in flight (connection died or client dropped).
    fn fail_all(&self, why: &str) {
        let drained: Vec<Waiter> = {
            let mut pending = self.pending.lock();
            pending.drain().map(|(_, w)| w).collect()
        };
        for waiter in drained {
            waiter.fail(why);
        }
    }
}

/// Blocking TCP client for a [`crate::TealServer`] (see module docs).
pub struct TealClient {
    /// Sender half plus its reusable encode buffer; the lock is held only
    /// to encode and write one frame.
    writer: Mutex<(TcpStream, Vec<u8>)>,
    /// Reader half (kept for shutdown on drop).
    stream: TcpStream,
    shared: Arc<ClientShared>,
    next_id: AtomicU64,
    reader: Option<thread::JoinHandle<()>>,
}

impl TealClient {
    /// Connect and perform the versioned handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<TealClient> {
        let mut stream = TcpStream::connect(addr)?;
        // Pipelined small frames: never let Nagle hold a request back for
        // a delayed ACK.
        stream.set_nodelay(true)?;
        let mut buf = Vec::new();
        wire::encode_hello(&mut buf);
        wire::write_frame(&mut stream, &buf)?;
        match wire::read_frame(&mut stream, &mut buf) {
            Ok(true) => wire::decode_hello_ok(&buf)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?,
            Ok(false) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionAborted,
                    "server closed during handshake (version rejected?)",
                ))
            }
            Err(e) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    e.to_string(),
                ))
            }
        };
        let shared = Arc::new(ClientShared::default());
        let reader = {
            let shared = Arc::clone(&shared);
            let stream = stream.try_clone()?;
            thread::spawn_named("teal-client-reader", move || reader_loop(stream, &shared))
        };
        Ok(TealClient {
            writer: Mutex::new((stream.try_clone()?, Vec::new())),
            stream,
            shared,
            next_id: AtomicU64::new(0),
            reader: Some(reader),
        })
    }

    /// Mint an id, then encode and send one frame for it through
    /// [`ClientShared::send`]. Encoding goes into the writer-owned buffer
    /// under the same short lock that serializes the send: steady-state
    /// submitters reuse one buffer instead of allocating per pipelined
    /// request.
    fn send(&self, waiter: Waiter, encode: impl FnOnce(&mut Vec<u8>, u64)) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.shared.send(id, waiter, || {
            let mut w = self.writer.lock();
            let (stream, buf) = &mut *w;
            encode(buf, id);
            wire::write_frame(stream, buf)
        });
    }

    /// Pipeline one request; returns its [`Ticket`] immediately. A send
    /// failure (dead connection) is reported through the ticket, keeping
    /// the submit-then-redeem control flow identical to the in-process
    /// daemon API.
    pub fn submit(&self, req: &SubmitRequest) -> Ticket {
        let slot = ResponseSlot::new();
        self.send(Waiter::Reply(Arc::clone(&slot)), |buf, id| {
            wire::encode_request(buf, id, req)
        });
        Ticket::new(slot)
    }

    /// Submit a plain request and block for the reply.
    pub fn allocate(
        &self,
        topology: impl Into<String>,
        tm: TrafficMatrix,
    ) -> Result<ServeReply, ServeError> {
        self.submit(&SubmitRequest::new(topology, tm)).wait()
    }

    /// [`TealClient::allocate`] with a bounded wait; the wire twin of
    /// [`Ticket::wait_timeout`].
    pub fn allocate_timeout(
        &self,
        topology: impl Into<String>,
        tm: TrafficMatrix,
        timeout: Duration,
    ) -> Result<ServeReply, ServeError> {
        self.submit(&SubmitRequest::new(topology, tm))
            .wait_timeout(timeout)
    }

    /// Scrape the server's live [`TelemetrySnapshot`] over the connection
    /// (a STATS frame). Blocks until the reply arrives; pipelines with
    /// in-flight requests like any other frame.
    pub fn stats(&self) -> Result<TelemetrySnapshot, ServeError> {
        self.scrape().wait()
    }

    /// [`TealClient::stats`] with a bounded wait.
    pub fn stats_timeout(&self, timeout: Duration) -> Result<TelemetrySnapshot, ServeError> {
        self.scrape().wait_timeout(timeout)
    }

    /// Send one STATS frame; the snapshot (or the failure) lands in the
    /// returned slot.
    fn scrape(&self) -> Arc<Slot<TelemetrySnapshot>> {
        let slot = Slot::new();
        self.send(Waiter::Stats(Arc::clone(&slot)), wire::encode_stats_request);
        slot
    }

    /// How many REPLY/STATS_OK frames arrived whose request id matched no
    /// pending submission of their kind. Always `0` in a healthy
    /// deployment; nonzero means id bookkeeping broke on one side of the
    /// connection.
    pub fn unmatched_replies(&self) -> u64 {
        self.shared.unmatched.load(Ordering::Relaxed)
    }
}

impl Drop for TealClient {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(h) = self.reader.take() {
            // A panicked reader already ran its fail_all via unwind or is
            // about to be covered by ours below; don't panic in drop.
            let _ = h.join();
        }
        self.shared
            .fail_all("client dropped with requests in flight");
    }
}

/// Match incoming REPLY/STATS_OK frames to their waiters by id until the
/// connection ends; then fail whatever is left.
fn reader_loop(mut stream: TcpStream, shared: &ClientShared) {
    let mut buf = Vec::new();
    while let Ok(true) = wire::read_frame(&mut stream, &mut buf) {
        match wire::peek_kind(&buf) {
            Ok(wire::Kind::Reply) => {
                let Ok((id, result)) = wire::decode_reply(&buf) else {
                    break;
                };
                match shared.take(id) {
                    Some(Waiter::Reply(slot)) => slot.fulfill(result),
                    other => shared.unmatched(other),
                }
            }
            Ok(wire::Kind::StatsOk) => {
                let Ok((id, snap)) = wire::decode_stats_reply(&buf) else {
                    break;
                };
                match shared.take(id) {
                    Some(Waiter::Stats(slot)) => slot.fulfill(Ok(snap)),
                    other => shared.unmatched(other),
                }
            }
            _ => break, // protocol violation: treat as a dead connection
        }
    }
    shared.closed.store(true, Ordering::Release);
    shared.fail_all("connection closed with requests in flight");
}
