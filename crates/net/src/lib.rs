//! # t2v-net — a thin, std-only epoll abstraction
//!
//! The serving layer's event-driven connection driver needs exactly four
//! things from the OS that `std` does not expose: readiness multiplexing
//! (`epoll`), a cross-thread wakeup fd (`eventfd`), edge/level registration,
//! and fd-level deregistration. This crate wraps those in safe types and
//! nothing more — same vendoring discipline as `vendor/`: no external
//! dependencies, just `extern "C"` declarations against the libc that every
//! Rust binary on linux-gnu already links.
//!
//! Vectored (`writev`) socket writes intentionally have no wrapper here:
//! `std::io::Write::write_vectored` on a `TcpStream` *is* a single `writev`
//! syscall, and `std::io::IoSlice` is guaranteed ABI-compatible with
//! `struct iovec` — the event loop uses those directly.
//!
//! [`BufferPool`] rounds out the crate: reusable byte buffers for connection
//! read accumulation, so a keep-alive connection churn of tens of thousands
//! of sockets does not translate into allocator churn.

use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Raw syscall surface. These symbols are provided by the platform libc that
// is linked into every binary on linux-gnu; declaring them here is the
// std-only equivalent of depending on the `libc` crate.
// ---------------------------------------------------------------------------

/// Mirror of the kernel's `struct epoll_event`. On x86-64 the kernel ABI
/// packs it (no padding between `events` and `data`), which `repr(C,
/// packed)` reproduces; field reads below copy by value, never by reference.
#[repr(C, packed)]
#[derive(Clone, Copy)]
struct RawEpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut RawEpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut RawEpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
    fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
    fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    fn close(fd: i32) -> i32;
}

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLLET: u32 = 1 << 31;

const EFD_CLOEXEC: i32 = 0o2000000;
const EFD_NONBLOCK: i32 = 0o4000;

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

// ---------------------------------------------------------------------------
// Interest + Event
// ---------------------------------------------------------------------------

/// What readiness a registration asks for. `edge` selects edge-triggered
/// delivery (`EPOLLET`); the default is level-triggered, which re-fires
/// while the condition holds — the forgiving mode a state-machine loop that
/// toggles interest wants. An empty interest (neither read nor write) is a
/// valid parked registration: the fd stays in the set but fires nothing
/// except errors/hangups, which epoll always reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
    pub edge: bool,
    /// Report peer write-half close (`EPOLLRDHUP`). On by default; a loop
    /// that has already *seen* the half-close masks it, because the
    /// level-triggered condition would otherwise re-fire every wait while
    /// the response is still being produced.
    pub rdhup: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
        edge: false,
        rdhup: true,
    };
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
        edge: false,
        rdhup: true,
    };
    /// A parked registration: error/hangup notification only.
    pub const NONE: Interest = Interest {
        readable: false,
        writable: false,
        edge: false,
        rdhup: true,
    };

    /// The same interest, edge-triggered.
    pub fn edge(mut self) -> Interest {
        self.edge = true;
        self
    }

    /// The same interest with `EPOLLRDHUP` reporting masked.
    pub fn no_rdhup(mut self) -> Interest {
        self.rdhup = false;
        self
    }

    fn bits(self) -> u32 {
        let mut e = if self.rdhup { EPOLLRDHUP } else { 0 };
        if self.readable {
            e |= EPOLLIN;
        }
        if self.writable {
            e |= EPOLLOUT;
        }
        if self.edge {
            e |= EPOLLET;
        }
        e
    }
}

/// One readiness notification, decoded from the raw epoll bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    /// Peer hung up both directions (`EPOLLHUP`) — the fd is dead.
    pub hangup: bool,
    /// Peer closed its write half (`EPOLLRDHUP`): no more request bytes
    /// will arrive, but the fd can still carry a response out.
    pub read_closed: bool,
    /// The fd is in an error state; the next read/write returns the cause.
    pub error: bool,
}

// ---------------------------------------------------------------------------
// Poller
// ---------------------------------------------------------------------------

/// An epoll instance plus its reusable event buffer. One per event loop;
/// registration methods take `&self` so a [`Waker`] can be created before
/// the loop thread takes ownership.
pub struct Poller {
    epfd: RawFd,
    /// Reused across `wait` calls — sized once, never reallocated per tick.
    raw: Vec<RawEpollEvent>,
}

impl Poller {
    pub fn new() -> io::Result<Poller> {
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller {
            epfd,
            raw: vec![RawEpollEvent { events: 0, data: 0 }; 1024],
        })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = RawEpollEvent {
            events: interest.bits(),
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) })?;
        Ok(())
    }

    /// Add `fd` to the interest set under `token`.
    pub fn register(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Change an existing registration's interest (and/or token).
    pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Remove `fd` from the interest set. (Closing the fd does this
    /// implicitly; explicit removal keeps the loop's bookkeeping honest
    /// when an fd outlives a connection object.)
    pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
        // The event argument must be non-null for portability with
        // pre-2.6.9 kernels; the kernel ignores its contents for DEL.
        let mut dummy = RawEpollEvent { events: 0, data: 0 };
        cvt(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut dummy) })?;
        Ok(())
    }

    /// Block until at least one event or `timeout` (None ⇒ forever), and
    /// append decoded events to `out`. EINTR retries transparently. Returns
    /// the number of events delivered this call.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<usize> {
        let timeout_ms: i32 = match timeout {
            None => -1,
            // A sub-millisecond budget still sleeps 1 ms rather than
            // degenerating into a spin.
            Some(d) => (d.as_millis().min(i32::MAX as u128) as i32).max(i32::from(!d.is_zero())),
        };
        let n = loop {
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.raw.as_mut_ptr(),
                    self.raw.len() as i32,
                    timeout_ms,
                )
            };
            if n >= 0 {
                break n as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for raw in &self.raw[..n] {
            let bits = { raw.events };
            out.push(Event {
                token: { raw.data },
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & EPOLLHUP != 0,
                read_closed: bits & EPOLLRDHUP != 0,
                error: bits & EPOLLERR != 0,
            });
        }
        Ok(n)
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe { close(self.epfd) };
    }
}

// ---------------------------------------------------------------------------
// Waker
// ---------------------------------------------------------------------------

/// A cross-thread wakeup for a [`Poller`]: an `eventfd` registered
/// level-triggered under a caller-chosen token. Any thread may call
/// [`Waker::wake`]; the loop thread sees an event with the waker's token and
/// calls [`Waker::drain`] to reset it. Wakes coalesce (the eventfd counter
/// saturates), so a burst of completions costs one loop iteration.
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// Create the eventfd and register it with `poller` under `token`.
    pub fn new(poller: &Poller, token: u64) -> io::Result<Waker> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        let waker = Waker { fd };
        poller.register(fd, token, Interest::READ)?;
        Ok(waker)
    }

    /// Wake the poller. Thread-safe; coalesces with pending wakes.
    pub fn wake(&self) {
        let one: u64 = 1;
        // The only failure mode is a full counter (EAGAIN), which already
        // means a wake is pending — nothing to do either way.
        unsafe { write(self.fd, (&one as *const u64).cast(), 8) };
    }

    /// Reset the wake counter (call when the waker's token fires).
    pub fn drain(&self) {
        let mut buf = 0u64;
        unsafe { read(self.fd, (&mut buf as *mut u64).cast(), 8) };
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe { close(self.fd) };
    }
}

// `write(2)`/`read(2)` on an eventfd are atomic and thread-safe.
unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

/// A free list of reusable byte buffers for per-connection read
/// accumulation. Single-threaded by design (the event loop owns it); a
/// returned buffer keeps its capacity up to `max_retain_cap`, so steady-state
/// connection churn allocates nothing. Oversized buffers (one huge body) are
/// dropped rather than pinned in the pool forever.
pub struct BufferPool {
    free: Vec<Vec<u8>>,
    default_cap: usize,
    max_retain_cap: usize,
    max_pooled: usize,
}

impl BufferPool {
    /// `default_cap`: capacity of freshly minted buffers. `max_pooled`:
    /// free-list depth (beyond it, returned buffers are simply dropped).
    pub fn new(default_cap: usize, max_pooled: usize) -> BufferPool {
        BufferPool {
            free: Vec::with_capacity(max_pooled.min(1024)),
            default_cap: default_cap.max(64),
            max_retain_cap: (default_cap.max(64)) * 8,
            max_pooled,
        }
    }

    /// Take an empty buffer (recycled if available).
    pub fn take(&mut self) -> Vec<u8> {
        match self.free.pop() {
            Some(buf) => buf,
            None => Vec::with_capacity(self.default_cap),
        }
    }

    /// Return a buffer to the pool. It is cleared here; capacity survives.
    pub fn put(&mut self, mut buf: Vec<u8>) {
        if self.free.len() >= self.max_pooled || buf.capacity() > self.max_retain_cap {
            return;
        }
        buf.clear();
        self.free.push(buf);
    }

    /// Buffers currently waiting for reuse.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read as _, Write as _};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;
    use std::sync::Arc;
    use std::time::Instant;

    const T_LISTENER: u64 = 0;
    const T_WAKER: u64 = 1;
    const T_CONN: u64 = 2;

    #[test]
    fn listener_readiness_fires_on_connect() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller
            .register(listener.as_raw_fd(), T_LISTENER, Interest::READ)
            .unwrap();

        let mut events = Vec::new();
        // Nothing pending: a short wait times out empty.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);

        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(n >= 1);
        assert!(events.iter().any(|e| e.token == T_LISTENER && e.readable));
    }

    #[test]
    fn level_triggered_refires_until_drained_edge_fires_once() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        client.write_all(b"ping").unwrap();

        let mut poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), T_CONN, Interest::READ)
            .unwrap();
        let mut events = Vec::new();
        // Level-triggered: unread data keeps firing.
        for _ in 0..2 {
            events.clear();
            poller
                .wait(&mut events, Some(Duration::from_secs(5)))
                .unwrap();
            assert!(events.iter().any(|e| e.token == T_CONN && e.readable));
        }

        // Switch to edge-triggered: one notification per readiness *change*.
        poller
            .modify(server.as_raw_fd(), T_CONN, Interest::READ.edge())
            .unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == T_CONN && e.readable));
        events.clear();
        // Without new bytes, edge mode stays silent even though data is
        // still buffered.
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty());

        // Drain + new bytes re-arm the edge.
        let mut sink = [0u8; 16];
        let mut srv = &server;
        let _ = srv.read(&mut sink).unwrap();
        client.write_all(b"pong").unwrap();
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == T_CONN && e.readable));
    }

    #[test]
    fn waker_wakes_a_blocked_poller_from_another_thread() {
        let mut poller = Poller::new().unwrap();
        let waker = Arc::new(Waker::new(&poller, T_WAKER).unwrap());
        let w = Arc::clone(&waker);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            w.wake();
            w.wake(); // coalesces with the first
        });
        let start = Instant::now();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "wake never landed"
        );
        assert!(events.iter().any(|e| e.token == T_WAKER && e.readable));
        waker.drain();
        // Drained: the level-triggered eventfd goes quiet.
        events.clear();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty());
        handle.join().unwrap();
    }

    #[test]
    fn deregistered_fd_stops_reporting() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut poller = Poller::new().unwrap();
        poller
            .register(listener.as_raw_fd(), T_LISTENER, Interest::READ)
            .unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        poller.deregister(listener.as_raw_fd()).unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn hangup_is_reported() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), T_CONN, Interest::READ)
            .unwrap();
        drop(client);
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        let ev = events.iter().find(|e| e.token == T_CONN).unwrap();
        assert!(
            ev.read_closed || ev.hangup || ev.readable,
            "peer close must be observable"
        );
    }

    #[test]
    fn parked_interest_stays_silent_for_data() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        let mut poller = Poller::new().unwrap();
        poller
            .register(server.as_raw_fd(), T_CONN, Interest::NONE)
            .unwrap();
        client.write_all(b"data while parked").unwrap();
        let mut events = Vec::new();
        poller
            .wait(&mut events, Some(Duration::from_millis(20)))
            .unwrap();
        assert!(events.is_empty(), "parked fd must not report plain data");
        // Un-park: the buffered data fires immediately (level-triggered).
        poller
            .modify(server.as_raw_fd(), T_CONN, Interest::READ)
            .unwrap();
        poller
            .wait(&mut events, Some(Duration::from_secs(5)))
            .unwrap();
        assert!(events.iter().any(|e| e.token == T_CONN && e.readable));
    }

    #[test]
    fn buffer_pool_recycles_capacity() {
        let mut pool = BufferPool::new(4096, 8);
        let mut a = pool.take();
        assert!(a.capacity() >= 4096);
        a.extend_from_slice(b"some bytes");
        let cap = a.capacity();
        pool.put(a);
        assert_eq!(pool.pooled(), 1);
        let b = pool.take();
        assert!(b.is_empty(), "recycled buffers come back cleared");
        assert_eq!(b.capacity(), cap, "capacity survives the round trip");
        assert_eq!(pool.pooled(), 0);
    }

    #[test]
    fn buffer_pool_drops_oversized_and_overflow_buffers() {
        let mut pool = BufferPool::new(1024, 2);
        // Oversized: capacity beyond the retain cap is not pinned.
        pool.put(Vec::with_capacity(1024 * 1024));
        assert_eq!(pool.pooled(), 0);
        // Overflow: the free list caps at `max_pooled`.
        pool.put(Vec::with_capacity(1024));
        pool.put(Vec::with_capacity(1024));
        pool.put(Vec::with_capacity(1024));
        assert_eq!(pool.pooled(), 2);
    }
}
