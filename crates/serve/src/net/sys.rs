//! Linux FFI for the event-loop front end: the four syscalls std does not
//! wrap (`epoll_create1`, `epoll_ctl`, `epoll_wait`, `eventfd`), declared
//! directly against libc's exported symbols because the crates registry
//! (and with it the `libc` crate) is unreachable in this environment.
//!
//! This file is the workspace's **only** raw-FFI / raw-fd site: calling
//! an `extern` function needs `unsafe`, which the workspace denies
//! everywhere else, and the crate's `clippy.toml` disallows `as_raw_fd` and
//! `into_raw_fd` everywhere else. Every fd created here becomes an
//! [`OwnedFd`] as soon as its syscall returns (std closes it), the wrappers
//! ([`Epoll`], [`EventFd`]) take the fds they register as `impl AsFd`, and
//! every failure surfaces as `io::Error` via `errno`, so no raw fd leaves
//! this file. Everything else (reads, writes, `O_NONBLOCK`, closing) is
//! std's.

// The one module allowed to override the workspace's `unsafe_code` deny
// and the crate's raw-fd method ban.
#![allow(unsafe_code, clippy::disallowed_methods)]

use std::fs::File;
use std::io::{self, Read, Write};
use std::os::fd::{AsFd, AsRawFd, BorrowedFd, FromRawFd, OwnedFd};
use std::ptr;

// Readiness flags (wait side and interest side share the namespace).
pub const EPOLLIN: u32 = 0x001;
pub const EPOLLOUT: u32 = 0x004;
pub const EPOLLERR: u32 = 0x008;
pub const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half — half-close detection without a `read`.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLL_CLOEXEC: i32 = 0o2000000;
const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

/// The kernel's `struct epoll_event`. x86-64 is the one Linux ABI where
/// the struct is packed (no padding between `events` and `data`, a relic
/// of the 32-bit compat layer); every other architecture uses natural
/// alignment. Field reads must copy (`ev.events`), never reference.
#[derive(Clone, Copy, Default)]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
pub struct EpollEvent {
    /// Readiness flag set (`EPOLLIN | ...`).
    pub events: u32,
    /// Caller-chosen token returned verbatim with each event (the event
    /// loop packs a slot index + generation in here).
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout_ms: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

/// Map the C return convention (negative = error, details in errno) to
/// `io::Result`.
fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Take ownership of the fd a creating syscall just returned.
fn owned(ret: i32) -> io::Result<OwnedFd> {
    let fd = cvt(ret)?;
    // SAFETY: a non-negative return from `epoll_create1`/`eventfd` is a
    // fresh open fd that nothing else owns; the `OwnedFd` is its one owner.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// An owned epoll instance.
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes no pointers; the flag set is valid.
        let fd = owned(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    /// One `epoll_ctl`; `interest` (`events`, `token`) is `None` only for
    /// `EPOLL_CTL_DEL`.
    fn ctl(&self, op: i32, fd: impl AsFd, interest: Option<(u32, u64)>) -> io::Result<()> {
        let mut event = interest.map(|(events, data)| EpollEvent { events, data });
        let arg = event.as_mut().map_or(ptr::null_mut(), ptr::from_mut);
        // SAFETY: `arg` is null (which EPOLL_CTL_DEL explicitly allows on
        // every kernel this can run on) or points at `event`, a live,
        // correctly laid out epoll_event for the duration of the call; the
        // kernel copies it and does not retain the pointer past return.
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd.as_fd().as_raw_fd(), arg) })?;
        Ok(())
    }

    /// Register `fd` with interest `events`, delivering `token` on wakes.
    pub fn add(&self, fd: impl AsFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, Some((events, token)))
    }

    /// Re-arm `fd` with a new interest set (same token semantics).
    pub fn modify(&self, fd: impl AsFd, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, Some((events, token)))
    }

    /// Deregister `fd` entirely.
    pub fn del(&self, fd: impl AsFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, None)
    }

    /// Block up to `timeout_ms` (`-1` = forever) for readiness, filling
    /// `events` from the front; returns how many entries are valid. An
    /// interrupting signal reports as zero events so callers just re-loop.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        if events.is_empty() {
            return Ok(0);
        }
        let max = i32::try_from(events.len()).unwrap_or(i32::MAX);
        // SAFETY: `events` is writable for `max` entries and outlives the
        // call; the kernel writes at most `max` entries.
        let n = unsafe { epoll_wait(self.fd.as_raw_fd(), events.as_mut_ptr(), max, timeout_ms) };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        Ok(n as usize)
    }
}

/// An owned nonblocking eventfd — the completion-wakeup doorbell shard
/// dispatchers ring so they never touch a socket. `ring` is callable from
/// any thread (eventfd writes are atomic). Register it with [`Epoll::add`]
/// under `EPOLLIN` interest.
pub struct EventFd {
    /// The eventfd, read and written through std as its 8-byte counter.
    file: File,
}

impl EventFd {
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: eventfd takes no pointers; the flag set is valid.
        let fd = owned(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd {
            file: File::from(fd),
        })
    }

    /// Ring the doorbell. A saturated counter (EAGAIN) still leaves the fd
    /// readable, so the error is ignorable by design; no other failure is
    /// reachable for a valid eventfd.
    pub fn ring(&self) {
        // eventfd takes exactly 8 bytes per write.
        let _ = (&self.file).write(&1u64.to_ne_bytes());
    }

    /// Drain the counter so the next [`EventFd::ring`] re-arms
    /// level-triggered readability.
    pub fn drain(&self) {
        // eventfd yields exactly 8 bytes per read.
        let _ = (&self.file).read(&mut [0u8; 8]);
    }
}

impl AsFd for EventFd {
    fn as_fd(&self) -> BorrowedFd<'_> {
        self.file.as_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_rings_and_drains_through_epoll() {
        let ep = Epoll::new().expect("epoll_create1");
        let doorbell = EventFd::new().expect("eventfd");
        ep.add(&doorbell, EPOLLIN, 42).expect("epoll_ctl add");

        let mut events = [EpollEvent::default(); 4];
        // Nothing rung yet: a zero-timeout wait reports no readiness.
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 0);

        doorbell.ring();
        doorbell.ring(); // coalesces into one readable counter
        let n = ep.wait(&mut events, 1000).expect("wait");
        assert_eq!(n, 1);
        let (flags, token) = (events[0].events, events[0].data);
        assert_ne!(flags & EPOLLIN, 0);
        assert_eq!(token, 42);

        // Draining clears level-triggered readability until the next ring.
        doorbell.drain();
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 0);
        doorbell.ring();
        assert_eq!(ep.wait(&mut events, 1000).expect("wait"), 1);
    }

    #[test]
    fn modify_and_del_change_interest() {
        let ep = Epoll::new().expect("epoll_create1");
        let doorbell = EventFd::new().expect("eventfd");
        ep.add(&doorbell, EPOLLIN, 7).expect("add");
        doorbell.ring();

        // Re-arm with a different token: the next wake carries it.
        ep.modify(&doorbell, EPOLLIN, 8).expect("modify");
        let mut events = [EpollEvent::default(); 4];
        assert_eq!(ep.wait(&mut events, 1000).expect("wait"), 1);
        let token = events[0].data;
        assert_eq!(token, 8);

        // Deregistered fds never report, however loudly they ring.
        ep.del(&doorbell).expect("del");
        doorbell.ring();
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 0);
    }
}
