//! Minimal readiness poller for the event-driven front end.
//!
//! The workspace is `std`-only, so this is a hand-rolled, level-triggered
//! wrapper over `poll(2)` declared through a five-line FFI shim (no `libc`
//! crate; the symbols come from the C library `std` already links). The
//! interface is deliberately tiny: the caller rebuilds the descriptor set
//! every iteration ([`wait`] is stateless), which keeps level-triggered
//! semantics trivial — a connection that still has buffered input or unsent
//! output is simply registered again and reported ready again.
//!
//! On non-unix targets a degraded fallback keeps the crate compiling: it
//! sleeps a short interval and reports every registered descriptor as ready
//! per its interest. Spurious readiness is harmless — all front-end sockets
//! are nonblocking, so a wrong guess costs one `WouldBlock` — but idle CPU
//! is no longer near zero there. Production targets are unix.
//!
//! Cross-thread wakeups use a loopback socket pair ([`wake_pair`]) instead
//! of a self-pipe, because `std` can make sockets without any FFI at all:
//! the read half sits in the poll set, and [`Waker::wake`] writes one byte.
//! A [`Mailbox`] pairs a waker with a queue, so other threads can hand the
//! loop finished work.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Raw socket descriptor registered with [`wait`].
#[cfg(unix)]
pub type RawFd = std::os::unix::io::RawFd;
/// Raw socket descriptor (opaque on non-unix; the fallback ignores it).
#[cfg(not(unix))]
pub type RawFd = i32;

/// The descriptor of a socket-like object, as [`wait`] wants it.
#[cfg(unix)]
pub fn fd_of<T: std::os::unix::io::AsRawFd>(s: &T) -> RawFd {
    s.as_raw_fd()
}
/// Non-unix fallback: descriptors are not used, any value works.
#[cfg(not(unix))]
pub fn fd_of<T>(_s: &T) -> RawFd {
    0
}

/// What the owner wants to be told about.
#[derive(Debug, Clone, Copy, Default)]
pub struct Interest {
    /// Wake when a read would make progress (or the peer hung up).
    pub readable: bool,
    /// Wake when a write would make progress.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest.
    pub fn read() -> Interest {
        Interest {
            readable: true,
            writable: false,
        }
    }
}

/// What `poll(2)` reported for one descriptor.
#[derive(Debug, Clone, Copy, Default)]
pub struct Readiness {
    /// A read would make progress.
    pub readable: bool,
    /// A write would make progress.
    pub writable: bool,
    /// Error/hangup/invalid state; the owner should attempt I/O (to surface
    /// the error) and close. Reported even when not asked for.
    pub hangup: bool,
}

/// One registered descriptor: interest in, readiness out.
#[derive(Debug)]
pub struct PollFd {
    /// The descriptor.
    pub fd: RawFd,
    /// What to wait for.
    pub interest: Interest,
    /// Filled by [`wait`].
    pub ready: Readiness,
}

impl PollFd {
    /// A registration with empty readiness.
    pub fn new(fd: RawFd, interest: Interest) -> PollFd {
        PollFd {
            fd,
            interest,
            ready: Readiness::default(),
        }
    }
}

// The one `unsafe` island in the workspace: declaring and calling `poll(2)`.
// The call is sound by inspection — `fds` points at a live, correctly-sized
// `#[repr(C)]` slice for the duration of the call and the kernel only writes
// `revents` within it.
#[allow(unsafe_code)]
#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_ulong};

    #[repr(C)]
    pub struct PollFd {
        pub fd: c_int,
        pub events: i16,
        pub revents: i16,
    }

    pub const POLLIN: i16 = 0x001;
    pub const POLLOUT: i16 = 0x004;
    pub const POLLERR: i16 = 0x008;
    pub const POLLHUP: i16 = 0x010;
    pub const POLLNVAL: i16 = 0x020;

    extern "C" {
        // `nfds_t` is `unsigned long` on Linux and `unsigned int` on the
        // BSDs; passing the wider type is safe everywhere the value fits in
        // 32 bits, which a poll set always does.
        pub fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }
}

/// `timeout` for `poll(2)`: `None` blocks forever; sub-millisecond remnants
/// round *up* so a nearly-due deadline does not busy-spin at timeout 0.
#[cfg(unix)]
fn timeout_ms(timeout: Option<Duration>) -> i32 {
    match timeout {
        None => -1,
        Some(d) => {
            let mut ms = d.as_millis();
            if d.as_nanos() % 1_000_000 != 0 {
                ms += 1;
            }
            ms.min(i32::MAX as u128) as i32
        }
    }
}

/// Block until a registered descriptor is ready or `timeout` expires
/// (`None` = wait forever). Fills `ready` on every entry; returns how many
/// are ready. A signal interruption reports zero ready descriptors.
#[cfg(unix)]
pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let mut raw: Vec<sys::PollFd> = fds
        .iter()
        .map(|f| sys::PollFd {
            fd: f.fd,
            events: if f.interest.readable { sys::POLLIN } else { 0 }
                | if f.interest.writable { sys::POLLOUT } else { 0 },
            revents: 0,
        })
        .collect();
    #[allow(unsafe_code)] // FFI call into poll(2); see `mod sys` for the safety argument
    let rc = unsafe {
        sys::poll(
            raw.as_mut_ptr(),
            raw.len() as std::os::raw::c_ulong,
            timeout_ms(timeout),
        )
    };
    if rc < 0 {
        let err = io::Error::last_os_error();
        for f in fds.iter_mut() {
            f.ready = Readiness::default();
        }
        if err.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(err);
    }
    for (f, r) in fds.iter_mut().zip(&raw) {
        f.ready = Readiness {
            readable: r.revents & sys::POLLIN != 0,
            writable: r.revents & sys::POLLOUT != 0,
            hangup: r.revents & (sys::POLLERR | sys::POLLHUP | sys::POLLNVAL) != 0,
        };
    }
    Ok(rc as usize)
}

/// Degraded non-unix fallback: sleep briefly, then report every descriptor
/// ready per its interest. Spurious readiness is safe on nonblocking
/// sockets; near-zero idle CPU is not preserved on these targets.
#[cfg(not(unix))]
pub fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let nap = timeout
        .unwrap_or(Duration::from_millis(10))
        .min(Duration::from_millis(10));
    if !nap.is_zero() {
        std::thread::sleep(nap);
    }
    for f in fds.iter_mut() {
        f.ready = Readiness {
            readable: f.interest.readable,
            writable: f.interest.writable,
            hangup: false,
        };
    }
    Ok(fds.len())
}

/// Cross-thread wakeup handle for a [`wait`] loop; see [`wake_pair`].
pub struct Waker {
    tx: Mutex<TcpStream>,
}

impl Waker {
    /// Make the paired [`wait`] loop return now. Best-effort by design: a
    /// full socket buffer means a wake is already pending, and a closed
    /// peer means the loop is already gone.
    pub fn wake(&self) {
        let mut tx = self.tx.lock().unwrap_or_else(|e| e.into_inner());
        let _ = tx.write(&[1]);
    }

    /// The raw descriptor of the write half, for the signal handler: a
    /// handler must not touch the `Mutex` (not async-signal-safe), so it
    /// `write(2)`s its wake byte to this descriptor directly. Concurrent
    /// one-byte writes with [`Waker::wake`] are safe — both sides only ever
    /// append wake bytes the loop drains in bulk.
    pub fn raw_fd(&self) -> RawFd {
        fd_of(&*self.tx.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// A cross-thread queue into a [`wait`] loop: producers push and wake the
/// loop out of `poll`, the loop drains everything pushed so far.
pub struct Mailbox<T> {
    items: Mutex<Vec<T>>,
    waker: Arc<Waker>,
}

impl<T> Mailbox<T> {
    /// An empty mailbox whose pushes wake through `waker`.
    pub fn new(waker: Arc<Waker>) -> Mailbox<T> {
        Mailbox {
            items: Mutex::new(Vec::new()),
            waker,
        }
    }

    /// Queue one item and wake the loop. A producer that panicked while
    /// holding the lock left the vector intact, so poison is recovered.
    pub fn push(&self, item: T) {
        self.items
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(item);
        self.waker.wake();
    }

    /// Take everything queued so far.
    pub fn drain(&self) -> Vec<T> {
        std::mem::take(&mut *self.items.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// A connected loopback socket pair: the [`Waker`] write half (shareable
/// across threads) and the nonblocking read half to register in the poll
/// set. The accept loop verifies the peer is our own connect, so a stranger
/// racing the ephemeral port cannot become the wake channel.
pub fn wake_pair() -> io::Result<(Waker, TcpStream)> {
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let ours = tx.local_addr()?;
    let rx = loop {
        let (rx, peer) = listener.accept()?;
        if peer == ours {
            break rx;
        }
    };
    tx.set_nonblocking(true)?;
    tx.set_nodelay(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx: Mutex::new(tx) }, rx))
}

/// Swallow buffered wake bytes after a wakeup (the read half is
/// nonblocking, so this never parks).
pub fn drain(rx: &mut TcpStream) {
    let mut buf = [0u8; 256];
    loop {
        match rx.read(&mut buf) {
            Ok(0) => return,
            Ok(_) => {}
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn timeout_expires_without_events() {
        let (_waker, rx) = wake_pair().unwrap();
        let mut fds = [PollFd::new(fd_of(&rx), Interest::read())];
        let t0 = Instant::now();
        let n = wait(&mut fds, Some(Duration::from_millis(30))).unwrap();
        assert_eq!(n, 0, "no wake was sent");
        assert!(!fds[0].ready.readable);
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn wake_makes_wait_return_readable() {
        let (waker, mut rx) = wake_pair().unwrap();
        // the thread hands the waker back so its write half stays open —
        // dropping it would close the stream and make `rx` readable (EOF)
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            waker.wake();
            waker
        });
        let mut fds = [PollFd::new(fd_of(&rx), Interest::read())];
        let n = wait(&mut fds, Some(Duration::from_secs(5))).unwrap();
        assert_eq!(n, 1);
        assert!(fds[0].ready.readable);
        drain(&mut rx);
        let _waker = t.join().unwrap();
        // drained: an immediate zero-timeout wait sees nothing
        let mut fds = [PollFd::new(fd_of(&rx), Interest::read())];
        let n = wait(&mut fds, Some(Duration::ZERO)).unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn sub_millisecond_timeouts_round_up() {
        #[cfg(unix)]
        {
            assert_eq!(timeout_ms(None), -1);
            assert_eq!(timeout_ms(Some(Duration::ZERO)), 0);
            assert_eq!(timeout_ms(Some(Duration::from_micros(200))), 1);
            assert_eq!(timeout_ms(Some(Duration::from_millis(7))), 7);
            assert_eq!(timeout_ms(Some(Duration::from_secs(1 << 40))), i32::MAX);
        }
    }
}
