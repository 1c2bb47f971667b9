//! The epoll event-loop front end: **one thread multiplexing every
//! connection**, for connection-count scalability (the production posture
//! is thousands of mostly-idle keepalive sockets; two OS threads per
//! socket categorically don't scale to that).
//!
//! Structure:
//!
//! * [`sys`] holds the workspace's only raw FFI: the four `epoll`/`eventfd`
//!   syscalls std lacks (the crates registry is unreachable, so no `libc`)
//!   behind typed wrappers over `OwnedFd`s that take `impl AsFd`, so raw
//!   fds never leave it. Sockets are std's, nonblocking through std.
//! * The loop thread owns a slot-map connection table. Tokens pack
//!   `generation << 32 | index`, and every delivered event and completion
//!   re-checks the generation, so a stale one can never touch a recycled
//!   connection slot.
//! * Each connection is a **state machine**: an incremental
//!   [`wire::FrameDecoder`] resumes across partial reads, and a pooled
//!   [`wire::WriteQueue`] encodes replies appended into one persistent
//!   buffer, batching every ready reply into one flush, surviving
//!   `EWOULDBLOCK` mid-frame via a head cursor, and arming `EPOLLOUT`
//!   only while a backlog exists.
//! * Shard dispatchers never touch a socket: fulfilling a ticket pushes
//!   `(token, id)` onto the loop's one [`Completions`] queue, which rings
//!   an eventfd doorbell when that push made it non-empty. The loop drains
//!   the doorbell, takes the queue, and flushes each connection once.
//! * A STATS snapshot is encoded on receipt, so a connection tracks only
//!   in-flight REQUEST ids; a frame reusing one hangs the connection up.
//!
//! Ticket fulfillment is the only cross-thread edge, so the shared state
//! is tiny: the shutdown flag, the doorbell, and the completion queue —
//! all behind the checked-sync facade below.
//!
//! Shutdown: stop accepting, stop *reading* (queued requests already in
//! shard queues still get served and their replies flushed), then exit
//! once every connection settles — with a bounded drain grace so a stuffed
//! socket to a vanished client cannot wedge the loop forever.
//!
//! Known tradeoff, inherited from [`ServeDaemon::submit_on`]: a
//! deadline-less request meeting a full shard queue *blocks* the
//! submitter as backpressure. On the loop thread that stalls every
//! connection until space frees; deadline'd traffic is shed without
//! blocking.

use crate::sync::atomic::AtomicBool;
use crate::sync::{thread, Arc};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};
use teal_core::PolicyModel;

use crate::daemon::ServeDaemon;
use crate::request::{Completions, ResponseSlot, Ticket};
use crate::telemetry::now;
use crate::wire;

pub(crate) mod sys;

/// Reserved token for the accept listener.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Reserved token for the completion doorbell.
const TOKEN_DOORBELL: u64 = u64::MAX - 1;
/// Read chunk size per `read` call (also the per-wake fairness unit).
const READ_CHUNK: usize = 64 << 10;
/// Reads one connection may issue per wake before yielding to its peers
/// (level-triggered epoll re-reports anything left unread).
const MAX_READS_PER_WAKE: usize = 8;
/// epoll_wait timeout while serving: pure lost-wakeup insurance.
const WAIT_MS: i32 = 200;
/// How long shutdown waits for unflushed replies to stuffed sockets
/// before force-closing them.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// State shared between the loop thread and the rest of the process
/// (the completion waker, [`EventLoopHandle::shutdown`]).
struct LoopShared {
    shutdown: AtomicBool,
    /// Wakes `epoll_wait` when a completion lands or shutdown begins.
    doorbell: sys::EventFd,
}

/// One connection's state machine, owned entirely by the loop thread
/// (the map needs no lock here — fulfillment only touches the response
/// slot and the loop's completion queue).
struct Connection {
    stream: TcpStream,
    token: u64,
    decoder: wire::FrameDecoder,
    writeq: wire::WriteQueue,
    /// Request id → ticket, inserted before submit so even synchronous
    /// submit failures find a home.
    pending: HashMap<u64, Ticket>,
    handshaken: bool,
    /// No further frames will be decoded (EOF, protocol violation, or
    /// server shutdown). Pending tickets still drain and flush.
    read_closed: bool,
    /// The socket's write half failed: consume completions silently.
    write_dead: bool,
    /// Currently armed epoll interest set.
    interest: u32,
}

impl Connection {
    /// The socket is unusable: read nothing more, write nothing more.
    fn kill(&mut self) {
        self.read_closed = true;
        self.write_dead = true;
        self.writeq.abandon();
    }
}

/// Slot-map entry: the generation advances on every recycle, invalidating
/// stale tokens.
#[derive(Default)]
struct Slot {
    generation: u32,
    conn: Option<Connection>,
}

/// Handle `TealServer` keeps, and shuts down from its own drop: flips the
/// shutdown flag, rings the doorbell, joins the loop.
pub(crate) struct EventLoopHandle {
    shared: Arc<LoopShared>,
    thread: Option<thread::JoinHandle<()>>,
}

impl EventLoopHandle {
    /// Stop accepting and reading, flush what is owed, join the loop.
    /// Idempotent. The caller shuts the daemon down afterwards — the loop
    /// relies on shard dispatchers still fulfilling queued tickets while
    /// it drains.
    pub(crate) fn shutdown(&mut self) {
        self.shared.shutdown.store(true);
        self.shared.doorbell.ring();
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

/// Bring up the loop over an already-bound listener. Registration errors
/// (epoll/eventfd creation) surface here, before any thread spawns.
pub(crate) fn spawn_event_loop<M: PolicyModel + 'static>(
    daemon: Arc<ServeDaemon<M>>,
    listener: TcpListener,
) -> io::Result<EventLoopHandle> {
    listener.set_nonblocking(true)?;
    let epoll = sys::Epoll::new()?;
    let doorbell = sys::EventFd::new()?;
    epoll.add(&listener, sys::EPOLLIN, TOKEN_LISTENER)?;
    epoll.add(&doorbell, sys::EPOLLIN, TOKEN_DOORBELL)?;
    let shared = Arc::new(LoopShared {
        shutdown: AtomicBool::new(false),
        doorbell,
    });
    let completions = {
        let shared = Arc::clone(&shared);
        Completions::with_waker(Box::new(move || shared.doorbell.ring()))
    };
    let mut lp = EventLoop {
        daemon,
        shared: Arc::clone(&shared),
        completions,
        epoll,
        listener: Some(listener),
        slots: Vec::new(),
        free: Vec::new(),
        events: vec![sys::EpollEvent::default(); 256],
        scratch: vec![0u8; READ_CHUNK],
        ready: Vec::new(),
        drain_deadline: None,
    };
    let thread = thread::spawn_named("teal-serve-epoll", move || lp.run());
    Ok(EventLoopHandle {
        shared,
        thread: Some(thread),
    })
}

struct EventLoop<M: PolicyModel + 'static> {
    daemon: Arc<ServeDaemon<M>>,
    shared: Arc<LoopShared>,
    /// Every connection's fulfilled tickets, as `(token, id)` pairs.
    completions: Arc<Completions>,
    epoll: sys::Epoll,
    /// Dropped when shutdown begins (stops accepting, frees the port).
    listener: Option<TcpListener>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    events: Vec<sys::EpollEvent>,
    /// Read scratch shared by every connection (bytes land in each
    /// connection's decoder, so per-connection scratch would buy nothing).
    scratch: Vec<u8>,
    /// Reusable buffer the completion queue is swapped into for draining.
    ready: Vec<(u64, u64)>,
    /// Set when shutdown begins: force-close whatever has not flushed by
    /// this point.
    drain_deadline: Option<Instant>,
}

impl<M: PolicyModel + 'static> EventLoop<M> {
    fn run(&mut self) {
        loop {
            if self.shared.shutdown.load() {
                self.begin_shutdown();
                if self.slots.iter().all(|s| s.conn.is_none()) {
                    return;
                }
                if self.drain_deadline.is_some_and(|d| now() >= d) {
                    // Drain grace expired: drop every remaining connection.
                    (0..self.slots.len()).for_each(|idx| self.close(idx));
                    return;
                }
            }
            // Poll faster while draining for shutdown. A transient wait
            // failure falls through to the flag checks and completion
            // drain rather than spinning on the error.
            let timeout = self.drain_deadline.map_or(WAIT_MS, |_| 50);
            let n = self
                .epoll
                .wait(&mut self.events, timeout)
                .unwrap_or_default();
            for i in 0..n {
                let ev = self.events[i];
                let (token, flags) = (ev.data, ev.events);
                match token {
                    TOKEN_LISTENER => self.accept_burst(),
                    TOKEN_DOORBELL => self.shared.doorbell.drain(),
                    _ => self.conn_event(token, flags),
                }
            }
            self.drain_completions();
        }
    }

    /// Accept until the listener runs dry (it is nonblocking).
    fn accept_burst(&mut self) {
        while let Some(accepted) = self.listener.as_ref().map(TcpListener::accept) {
            match accepted {
                Ok((stream, _)) => self.register(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept errors (e.g. the peer aborted between
                // queue and accept): try again on the next readiness.
                Err(_) => return,
            }
        }
    }

    /// Install an accepted socket into the slot map and epoll set.
    fn register(&mut self, stream: TcpStream) {
        // Latency service: replies must not sit in Nagle's buffer.
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            return; // refuse rather than risk blocking the whole loop
        }
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot::default());
            self.slots.len() - 1
        });
        let token = (u64::from(self.slots[idx].generation) << 32) | idx as u64;
        let interest = sys::EPOLLIN | sys::EPOLLRDHUP;
        if self.epoll.add(&stream, interest, token).is_err() {
            self.free.push(idx);
            return;
        }
        self.slots[idx].conn = Some(Connection {
            stream,
            token,
            decoder: wire::FrameDecoder::new(),
            writeq: wire::WriteQueue::new(),
            pending: HashMap::new(),
            handshaken: false,
            read_closed: false,
            write_dead: false,
            interest,
        });
    }

    /// Route one readiness event to its connection, generation-checked.
    fn conn_event(&mut self, token: u64, flags: u32) {
        {
            let EventLoop {
                slots,
                daemon,
                completions,
                epoll,
                scratch,
                ..
            } = self;
            let Some(conn) = live_conn(slots, token) else {
                return;
            };
            if flags & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
                conn.kill();
            } else {
                if flags & (sys::EPOLLIN | sys::EPOLLRDHUP) != 0 && !conn.read_closed {
                    read_burst(conn, daemon, completions, scratch);
                }
                flush_writes(conn, epoll);
            }
        }
        self.maybe_close(slot_index(token));
    }

    /// Take the completion queue until a take comes back empty (so a
    /// fulfillment landing mid-drain is handled this iteration instead of
    /// waiting out the epoll timeout). Each take is grouped by token — the
    /// sort is stable, so a connection's replies keep fulfillment order —
    /// and each connection drains and flushes once per take.
    fn drain_completions(&mut self) {
        let mut ready = std::mem::take(&mut self.ready);
        loop {
            self.completions.take(&mut ready);
            if ready.is_empty() {
                break;
            }
            ready.sort_by_key(|&(token, _)| token);
            for group in ready.chunk_by(|a, b| a.0 == b.0) {
                self.drain_conn(group);
            }
            ready.clear();
        }
        self.ready = ready;
    }

    /// Encode one connection's fulfilled tickets (`group` shares one
    /// token) into its write queue and flush.
    fn drain_conn(&mut self, group: &[(u64, u64)]) {
        let token = group[0].0;
        {
            let EventLoop {
                slots,
                daemon,
                epoll,
                ..
            } = self;
            let Some(conn) = live_conn(slots, token) else {
                return;
            };
            for &(_, id) in group {
                if let Some(ticket) = conn.pending.remove(&id) {
                    // The queue announced this id, so the slot is already
                    // fulfilled and wait() returns immediately.
                    let reply = ticket.wait();
                    if !conn.write_dead {
                        conn.writeq.push_reply(id, &reply);
                    }
                } else {
                    // A completion with no home: the id-bookkeeping bug
                    // counter, not a crash.
                    daemon.count_unmatched_reply();
                }
            }
            flush_writes(conn, epoll);
        }
        self.maybe_close(slot_index(token));
    }

    /// Recycle a connection once nothing more is owed to (or expected
    /// from) it: reader done and every reply flushed, or the socket died
    /// and every completion was consumed.
    fn maybe_close(&mut self, idx: usize) {
        let done = self.slots[idx].conn.as_ref().is_some_and(|c| {
            c.pending.is_empty() && (c.write_dead || (c.read_closed && c.writeq.is_empty()))
        });
        if done {
            self.close(idx);
        }
    }

    /// Deregister and shut slot `idx`'s connection (if any), invalidating
    /// its token.
    fn close(&mut self, idx: usize) {
        if let Some(conn) = self.slots[idx].conn.take() {
            let _ = self.epoll.del(&conn.stream);
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.slots[idx].generation = self.slots[idx].generation.wrapping_add(1);
            self.free.push(idx);
        }
    }

    /// First shutdown pass (idempotent): stop accepting, stop reading,
    /// start the drain-grace clock. Queued requests keep serving — the
    /// daemon shuts down only after this loop exits.
    fn begin_shutdown(&mut self) {
        if self.drain_deadline.is_some() {
            return;
        }
        self.drain_deadline = Some(now() + DRAIN_GRACE);
        if let Some(l) = self.listener.take() {
            let _ = self.epoll.del(&l);
        }
        for idx in 0..self.slots.len() {
            {
                let EventLoop { slots, epoll, .. } = self;
                if let Some(conn) = slots[idx].conn.as_mut() {
                    // A `Shutdown(Read)` in effect: a client caught
                    // mid-pipeline still gets every reply for what it
                    // already submitted, then the close.
                    conn.read_closed = true;
                    flush_writes(conn, epoll);
                }
            }
            self.maybe_close(idx);
        }
    }
}

fn slot_index(token: u64) -> usize {
    (token & u64::from(u32::MAX)) as usize
}

/// The connection `token` names, or `None` if its slot has since been
/// recycled (a stale event or completion).
fn live_conn(slots: &mut [Slot], token: u64) -> Option<&mut Connection> {
    let slot = slots.get_mut(slot_index(token))?;
    if slot.generation != (token >> 32) as u32 {
        return None;
    }
    slot.conn.as_mut()
}

/// Read until the socket runs dry (or the per-wake fairness cap), feeding
/// the incremental decoder and submitting every completed frame.
fn read_burst<M: PolicyModel + 'static>(
    conn: &mut Connection,
    daemon: &Arc<ServeDaemon<M>>,
    completions: &Arc<Completions>,
    scratch: &mut [u8],
) {
    for _ in 0..MAX_READS_PER_WAKE {
        match (&conn.stream).read(scratch) {
            Ok(0) => {
                conn.read_closed = true;
                return;
            }
            Ok(n) => {
                // A hostile length prefix is refused before buffering more.
                if conn.decoder.feed(&scratch[..n]).is_err() {
                    conn.read_closed = true;
                    return;
                }
                if !process_frames(conn, daemon, completions) {
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return conn.kill(),
        }
    }
}

/// Decode and dispatch every complete frame currently buffered. Returns
/// `false` once the connection hung up (no more frames will be taken).
fn process_frames<M: PolicyModel + 'static>(
    conn: &mut Connection,
    daemon: &Arc<ServeDaemon<M>>,
    completions: &Arc<Completions>,
) -> bool {
    loop {
        let frame = match conn.decoder.next_frame() {
            Ok(Some(f)) => f,
            Ok(None) => return true,
            Err(_) => break,
        };
        if !conn.handshaken {
            // Handshake: HELLO in, HELLO_OK out. Anything else (version
            // mismatches included — an older client gets a hangup, not
            // silently misdecoded frames) closes without a reply.
            if wire::decode_hello(frame).is_err() {
                conn.kill();
                return false;
            }
            conn.handshaken = true;
            conn.writeq.push_hello_ok();
            continue;
        }
        // A frame reusing an in-flight REQUEST id would make the two
        // replies indistinguishable; refuse the connection rather than
        // guess which was meant. A STATS id is never in flight.
        let fresh = |id: &u64| !conn.pending.contains_key(id);
        match wire::peek_kind(frame) {
            Ok(wire::Kind::Request) => {
                let Some((id, req)) = wire::decode_request(frame).ok().filter(|(id, _)| fresh(id))
                else {
                    break;
                };
                let slot = ResponseSlot::with_notify(Arc::clone(completions), conn.token, id);
                // Register before submitting, so even a synchronously
                // fulfilled error reply finds its ticket.
                conn.pending.insert(id, Ticket::new(Arc::clone(&slot)));
                daemon.submit_on(req, slot);
            }
            Ok(wire::Kind::Stats) => {
                let Some(id) = wire::decode_stats_request(frame).ok().filter(fresh) else {
                    break;
                };
                conn.writeq.push_stats_reply(id, &daemon.stats());
            }
            _ => break,
        }
    }
    // Protocol violation: stop decoding this peer. Replies already owed
    // are still flushed, then the close path runs.
    conn.read_closed = true;
    false
}

/// Push the write backlog at the socket and keep `EPOLLOUT` armed exactly
/// while a backlog exists.
fn flush_writes(conn: &mut Connection, epoll: &sys::Epoll) {
    if conn.write_dead {
        conn.writeq.abandon();
        return;
    }
    let mut stream = &conn.stream;
    let drained = conn.writeq.flush(|bytes| stream.write(bytes));
    let base = if conn.read_closed {
        0
    } else {
        sys::EPOLLIN | sys::EPOLLRDHUP
    };
    match drained {
        Ok(true) => set_interest(conn, epoll, base),
        Ok(false) => set_interest(conn, epoll, base | sys::EPOLLOUT),
        Err(_) => conn.kill(),
    }
}

fn set_interest(conn: &mut Connection, epoll: &sys::Epoll, want: u32) {
    if conn.interest != want && epoll.modify(&conn.stream, want, conn.token).is_ok() {
        conn.interest = want;
    }
}
