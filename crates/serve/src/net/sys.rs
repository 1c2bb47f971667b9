//! Hand-rolled Linux FFI for the event-loop front end: `epoll`, `eventfd`
//! and `fcntl`, declared directly against libc's exported symbols because
//! the crates registry (and with it the `libc` crate) is unreachable in
//! this environment.
//!
//! This file is the workspace's **only** raw-FFI / raw-fd site: calling
//! an `extern` function needs `unsafe`, which the workspace denies
//! everywhere else, and the crate's `clippy.toml` disallows `as_raw_fd` and
//! `into_raw_fd` everywhere else, so every syscall and every raw fd stays
//! behind the typed wrappers below ([`Epoll`], [`EventFd`],
//! [`set_nonblocking`], the `*_fd` accessors). The wrappers own their fds
//! (closed on drop) and surface every failure as `io::Error` via `errno`.

// The one module allowed to override the workspace's `unsafe_code` deny
// and the crate's raw-fd method ban.
#![allow(unsafe_code, clippy::disallowed_methods)]

use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;

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
const F_GETFL: i32 = 3;
const F_SETFL: i32 = 4;
const O_NONBLOCK: i32 = 0o4000;

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
    fn fcntl(fd: i32, cmd: i32, ...) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
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

/// An owned epoll instance (closed on drop).
pub struct Epoll {
    fd: i32,
}

impl Epoll {
    pub fn new() -> io::Result<Epoll> {
        // SAFETY: epoll_create1 takes no pointers; the flag set is valid.
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: i32, fd: i32, events: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        // SAFETY: `ev` is a live, correctly laid out epoll_event for the
        // duration of the call; the kernel copies it and does not retain
        // the pointer past return.
        cvt(unsafe { epoll_ctl(self.fd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Register `fd` with interest `events`, delivering `token` on wakes.
    pub fn add(&self, fd: i32, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    /// Re-arm `fd` with a new interest set (same token semantics).
    pub fn modify(&self, fd: i32, events: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    /// Deregister `fd` entirely.
    pub fn del(&self, fd: i32) -> io::Result<()> {
        // SAFETY: EPOLL_CTL_DEL ignores the event argument (a null pointer
        // is explicitly allowed on every kernel this can run on).
        cvt(unsafe { epoll_ctl(self.fd, EPOLL_CTL_DEL, fd, std::ptr::null_mut()) })?;
        Ok(())
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
        let n = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), max, timeout_ms) };
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

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is the epoll fd this struct owns; nothing uses
        // it after drop.
        unsafe { close(self.fd) };
    }
}

/// An owned nonblocking eventfd — the completion-wakeup doorbell shard
/// dispatchers ring so they never touch a socket. `ring` is callable from
/// any thread (eventfd writes are atomic).
pub struct EventFd {
    fd: i32,
}

impl EventFd {
    pub fn new() -> io::Result<EventFd> {
        // SAFETY: eventfd takes no pointers; the flag set is valid.
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(EventFd { fd })
    }

    /// The fd to register with [`Epoll::add`] under `EPOLLIN` interest.
    pub fn fd(&self) -> i32 {
        self.fd
    }

    /// Ring the doorbell. A saturated counter (EAGAIN) still leaves the fd
    /// readable, so the error is ignorable by design; no other failure is
    /// reachable for a valid eventfd.
    pub fn ring(&self) {
        let buf = 1u64.to_ne_bytes();
        // SAFETY: `buf` is 8 readable bytes, exactly the size eventfd
        // requires per write.
        let _ = unsafe { write(self.fd, buf.as_ptr(), buf.len()) };
    }

    /// Drain the counter so the next [`EventFd::ring`] re-arms
    /// level-triggered readability.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        // SAFETY: `buf` is 8 writable bytes, exactly the size eventfd
        // requires per read.
        let _ = unsafe { read(self.fd, buf.as_mut_ptr(), buf.len()) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        // SAFETY: `self.fd` is the eventfd this struct owns; nothing uses
        // it after drop.
        unsafe { close(self.fd) };
    }
}

/// Switch `fd` to nonblocking mode via the classic `fcntl`
/// get-flags/set-flags dance.
pub fn set_nonblocking(fd: i32) -> io::Result<()> {
    // SAFETY: F_GETFL takes no third argument and returns the flag word.
    let flags = cvt(unsafe { fcntl(fd, F_GETFL) })?;
    if flags & O_NONBLOCK != 0 {
        return Ok(());
    }
    // SAFETY: F_SETFL's argument is an int flag word, passed through the
    // variadic slot exactly as C does (int needs no default promotion).
    cvt(unsafe { fcntl(fd, F_SETFL, flags | O_NONBLOCK) })?;
    Ok(())
}

/// The raw fd of a stream, for epoll registration only — ownership (and
/// closing) stays with the `TcpStream`.
pub fn stream_fd(s: &TcpStream) -> i32 {
    s.as_raw_fd()
}

/// The raw fd of a listener, for epoll registration only.
pub fn listener_fd(l: &TcpListener) -> i32 {
    l.as_raw_fd()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_rings_and_drains_through_epoll() {
        let ep = Epoll::new().expect("epoll_create1");
        let doorbell = EventFd::new().expect("eventfd");
        ep.add(doorbell.fd(), EPOLLIN, 42).expect("epoll_ctl add");

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
        ep.add(doorbell.fd(), EPOLLIN, 7).expect("add");
        doorbell.ring();

        // Re-arm with a different token: the next wake carries it.
        ep.modify(doorbell.fd(), EPOLLIN, 8).expect("modify");
        let mut events = [EpollEvent::default(); 4];
        assert_eq!(ep.wait(&mut events, 1000).expect("wait"), 1);
        let token = events[0].data;
        assert_eq!(token, 8);

        // Deregistered fds never report, however loudly they ring.
        ep.del(doorbell.fd()).expect("del");
        doorbell.ring();
        assert_eq!(ep.wait(&mut events, 0).expect("wait"), 0);
    }

    #[test]
    fn set_nonblocking_is_idempotent() {
        let doorbell = EventFd::new().expect("eventfd");
        set_nonblocking(doorbell.fd()).expect("first");
        set_nonblocking(doorbell.fd()).expect("second");
    }
}
