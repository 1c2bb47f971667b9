//! `TealServer`: the TCP front end over the transport-agnostic serving
//! core — `std::net` plus a hand-rolled epoll loop, no async runtime (the
//! registry is unreachable in this environment).
//!
//! The server is a thin owner of the epoll event loop in `net`:
//! one thread multiplexes every connection through readiness
//! notifications, decodes pipelined [`crate::wire`] REQUEST frames straight
//! into `ServeDaemon::submit_on` — the same validated,
//! admission-controlled path in-process callers use — and drains replies
//! **out of order, by request id**, the moment each ticket fulfills, so a
//! slow request never convoys the replies queued behind it.
//!
//! Per the scalable-commutativity design rule the connections share no
//! mutable state but the loop's one completion queue (where their replies
//! already met at one doorbell) — each has its own reply map, and all other
//! cross-connection coordination happens inside the serving core's
//! per-topology shards — so adding connections scales like adding
//! submitter threads, which is exactly what the loopback soak exercises.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;
use teal_core::PolicyModel;

use crate::daemon::ServeDaemon;
use crate::net::EventLoopHandle;

/// The TCP serving front end (see module docs).
pub struct TealServer<M: PolicyModel + 'static> {
    daemon: Arc<ServeDaemon<M>>,
    addr: SocketAddr,
    event_loop: EventLoopHandle,
}

impl<M: PolicyModel + 'static> TealServer<M> {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback port)
    /// and start accepting connections that submit into `daemon`.
    pub fn bind(daemon: Arc<ServeDaemon<M>>, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let event_loop = crate::net::spawn_event_loop(Arc::clone(&daemon), listener)?;
        Ok(TealServer {
            daemon,
            addr,
            event_loop,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving core this front end feeds.
    pub fn daemon(&self) -> &Arc<ServeDaemon<M>> {
        &self.daemon
    }

    /// Stop accepting and reading, flush every reply still owed (shards
    /// keep fulfilling queued tickets until the daemon shutdown below — a
    /// client caught mid-pipeline gets its answers, not a hangup), join the
    /// loop, then shut the serving core down (see
    /// [`ServeDaemon::shutdown`]). Idempotent, as both halves are; also
    /// runs on drop.
    pub fn shutdown(&mut self) {
        self.event_loop.shutdown();
        self.daemon.shutdown();
    }
}

impl<M: PolicyModel + 'static> Drop for TealServer<M> {
    fn drop(&mut self) {
        self.shutdown();
    }
}
