//! A minimal, std-only readiness layer over `poll(2)` for the
//! event-driven `arbodomd` connection reactor.
//!
//! The workspace builds offline with no external crates, so the usual
//! suspects (`mio`, `polling`, `libc`) are out of reach. This crate is
//! the thin compatibility shim in their place: a `#[repr(C)]` pollfd,
//! the four event bits the daemon cares about, and a safe [`poll`]
//! wrapper that retries nothing and allocates nothing. It also carries
//! [`wake`], a loopback-socketpair self-wake channel (std has no
//! `pipe(2)` binding) that worker threads use to interrupt a reactor
//! blocked in `poll`.
//!
//! # Why this crate contains `unsafe`
//!
//! `poll(2)` is a syscall; calling it requires an `extern "C"`
//! declaration and an FFI call. The unsafe surface is confined to the
//! private `ffi` module — a single call site whose safety argument is
//! local: the fd array pointer/length come from a live `&mut [PollFd]`,
//! and `PollFd` is `#[repr(C)]` layout-identical to `struct pollfd`.
//! Everything above it is `#![deny(unsafe_code)]`-clean, mirroring the
//! `congest::pool` precedent for an audited unsafe island.

#![deny(unsafe_code)]
#![warn(missing_docs)]

#[cfg(not(unix))]
compile_error!("arbodom-netpoll requires a unix platform (poll(2))");

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// Readable data (or a peer close) is available.
pub const POLLIN: i16 = 0x001;
/// Writing now would not block.
pub const POLLOUT: i16 = 0x004;
/// Error condition on the descriptor (output only).
pub const POLLERR: i16 = 0x008;
/// Peer hung up (output only).
pub const POLLHUP: i16 = 0x010;
/// The descriptor is not open (output only; a reactor bookkeeping bug).
pub const POLLNVAL: i16 = 0x020;

/// One entry in the poll set: layout-compatible with `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct PollFd {
    /// The file descriptor to watch.
    pub fd: RawFd,
    /// Requested events (`POLLIN` / `POLLOUT`; error bits are implicit).
    pub events: i16,
    /// Returned events, filled in by [`poll`].
    pub revents: i16,
}

impl PollFd {
    /// A poll entry for `fd` watching `events`, with `revents` cleared.
    pub fn new(fd: RawFd, events: i16) -> Self {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Did the kernel report this fd readable (or errored / hung up —
    /// both of which a read will surface as `Ok(0)` or an error)?
    pub fn readable(&self) -> bool {
        self.revents & (POLLIN | POLLERR | POLLHUP | POLLNVAL) != 0
    }

    /// Did the kernel report this fd writable (or errored — a write
    /// will surface the error)?
    pub fn writable(&self) -> bool {
        self.revents & (POLLOUT | POLLERR | POLLHUP | POLLNVAL) != 0
    }
}

mod ffi {
    #![allow(unsafe_code)]
    //! The crate's single unsafe call site: the raw `poll(2)` FFI.

    use super::PollFd;

    #[cfg(target_os = "linux")]
    type NFds = std::os::raw::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NFds = u32;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NFds, timeout: i32) -> i32;
    }

    /// Invokes `poll(2)` over `fds`. Safety: the pointer and length
    /// come from a live mutable slice, and `PollFd` is `#[repr(C)]`
    /// layout-identical to the kernel's `struct pollfd`.
    pub(super) fn sys_poll(fds: &mut [PollFd], timeout_ms: i32) -> i32 {
        unsafe { poll(fds.as_mut_ptr(), fds.len() as NFds, timeout_ms) }
    }
}

/// Blocks until at least one fd in `fds` is ready, the timeout expires,
/// or a signal arrives; returns how many entries have nonzero
/// `revents`.
///
/// `None` blocks indefinitely. A sub-millisecond nonzero timeout is
/// rounded up to 1 ms so callers cannot accidentally busy-spin. `EINTR`
/// is reported as `Ok(0)` — to a readiness loop a signal is just a
/// spurious wakeup, and collapsing it avoids remaining-timeout
/// bookkeeping here.
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms: i32 = match timeout {
        None => -1,
        Some(d) => {
            let ms = d.as_nanos().div_ceil(1_000_000);
            ms.min(i32::MAX as u128) as i32
        }
    };
    let rc = ffi::sys_poll(fds, timeout_ms);
    if rc >= 0 {
        return Ok(rc as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        return Ok(0);
    }
    Err(err)
}

pub mod wake {
    //! A self-wake channel built from a loopback TCP socketpair.
    //!
    //! std exposes no `pipe(2)`, so the portable trick is an ephemeral
    //! `127.0.0.1` listener connected to itself: the write end is the
    //! [`Waker`] handed to worker threads, the read end is polled by
    //! the reactor and drained on wakeup. Both ends are nonblocking; a
    //! full socket buffer on `wake()` means a wakeup is already
    //! pending, which is exactly the semantics a level-triggered
    //! reactor wants.

    use std::io::{self, Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::{AsRawFd, RawFd};

    /// The write end: cheap to clone behind an `Arc`, signal-safe to
    /// call from any thread.
    #[derive(Debug)]
    pub struct Waker {
        tx: TcpStream,
    }

    impl Waker {
        /// Queues one wakeup byte. A would-block (buffer already full)
        /// is success: the reactor has unread wakeups pending.
        pub fn wake(&self) {
            let _ = (&self.tx).write(&[1u8]);
        }
    }

    /// The read end, owned by the reactor.
    #[derive(Debug)]
    pub struct WakeReceiver {
        rx: TcpStream,
    }

    impl WakeReceiver {
        /// The fd to include in the poll set (watch `POLLIN`).
        pub fn fd(&self) -> RawFd {
            self.rx.as_raw_fd()
        }

        /// Swallows every pending wakeup byte.
        pub fn drain(&self) {
            let mut buf = [0u8; 64];
            while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
        }
    }

    /// Builds a connected (write, read) wake pair.
    pub fn wake_pair() -> io::Result<(Waker, WakeReceiver)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let tx = TcpStream::connect(listener.local_addr()?)?;
        let (rx, _) = listener.accept()?;
        tx.set_nonblocking(true)?;
        rx.set_nonblocking(true)?;
        tx.set_nodelay(true)?;
        Ok((Waker { tx }, WakeReceiver { rx }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::time::Instant;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn connected_sockets_are_writable_and_quiet_sockets_time_out() {
        let (a, _b) = pair();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLOUT | POLLIN)];
        let n = poll(&mut fds, Some(Duration::from_millis(200))).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].writable(), "fresh socket must be writable");
        assert!(
            fds[0].revents & POLLIN == 0,
            "no data has been sent, nothing to read"
        );

        // With only POLLIN requested and no data, the timeout expires.
        let start = Instant::now();
        let mut fds = [PollFd::new(a.as_raw_fd(), POLLIN)];
        let n = poll(&mut fds, Some(Duration::from_millis(30))).unwrap();
        assert_eq!(n, 0);
        assert!(start.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn data_and_peer_close_both_surface_as_readable() {
        let (mut a, b) = pair();
        a.write_all(&[7, 8, 9]).unwrap();
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::from_secs(2))).unwrap(), 1);
        assert!(fds[0].readable());
        let mut buf = [0u8; 8];
        let mut b2 = &b;
        assert_eq!(b2.read(&mut buf).unwrap(), 3);

        drop(a);
        let mut fds = [PollFd::new(b.as_raw_fd(), POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::from_secs(2))).unwrap(), 1);
        assert!(fds[0].readable(), "hangup must wake a POLLIN waiter");
        assert_eq!(b2.read(&mut buf).unwrap(), 0, "read observes EOF");
    }

    #[test]
    fn wake_pair_wakes_poll_and_drain_clears_it() {
        let (waker, receiver) = wake::wake_pair().unwrap();
        // No wakeups pending: times out.
        let mut fds = [PollFd::new(receiver.fd(), POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::from_millis(20))).unwrap(), 0);

        waker.wake();
        waker.wake();
        let mut fds = [PollFd::new(receiver.fd(), POLLIN)];
        assert_eq!(poll(&mut fds, Some(Duration::from_secs(2))).unwrap(), 1);
        assert!(fds[0].readable());

        receiver.drain();
        let mut fds = [PollFd::new(receiver.fd(), POLLIN)];
        assert_eq!(
            poll(&mut fds, Some(Duration::from_millis(20))).unwrap(),
            0,
            "drain must consume every pending wakeup byte"
        );
    }

    #[test]
    fn waking_from_another_thread_interrupts_a_blocking_poll() {
        let (waker, receiver) = wake::wake_pair().unwrap();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.wake();
        });
        let start = Instant::now();
        let mut fds = [PollFd::new(receiver.fd(), POLLIN)];
        let n = poll(&mut fds, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(n, 1, "cross-thread wake must interrupt poll");
        assert!(start.elapsed() < Duration::from_secs(5));
        handle.join().unwrap();
    }
}
