//! The epoll event-loop connection driver — the server's only transport.
//!
//! One loop thread owns every socket: it accepts, accumulates request
//! bytes into pooled buffers, runs the incremental parser
//! ([`crate::http::parse_request`]), and writes queued response segments
//! out with vectored (`writev`) writes. What a request needs decides where
//! it runs: a single translation's early stage (`routes::early`) waits on
//! nothing, so its validation errors and cache hits are answered right here
//! — a hit never leaves the loop thread; whatever may block goes to a small
//! dispatch pool running `routes::resume`, and translation CPU belongs to
//! the [`crate::pool::WorkerPool`] beyond that. The loop's contract: it
//! never sleeps, never touches a file, never waits on the pool or a condvar,
//! does a bounded amount of work per request, and cannot be killed by one.
//! Its per-connection cost is a state enum, a read buffer and an output
//! queue — how tens of thousands of keep-alive sockets fit where
//! thread-per-connection runs out of stacks.
//!
//! Per-connection state machine:
//!
//! ```text
//!            answered inline (hit / 4xx) ─────────────────────────┐
//! Reading ──┤                                                     ▼
//!    ▲       needs a blocking thread ──▶ Dispatched ── sealed ──▶ Writing
//!    └────────── KeepAlive ◀── queue drained, keep-alive ◀───────────┘
//! ```
//!
//! `Reading` and `KeepAlive` sockets are reaped after `conn_idle_ms`
//! without progress — idle keep-alive peers and slow-loris drip-feeders
//! alike. Shutdown drains: the listener closes immediately, idle
//! connections close, in-flight requests finish their response (bounded by
//! a drain budget), and only then does the loop exit.
//!
//! Dispatch threads hand response segments to the loop through a
//! per-connection [`ConnOut`] queue, a shared ready list and a
//! [`t2v_net::Waker`] (an eventfd). A queue past [`OUT_HIGH_WATER`] blocks
//! the *dispatch* thread (backpressure against a slow peer), never the loop.

use crate::http::{self, Body, BodySink, Parse};
use crate::metrics::Scalar;
use crate::pool::contained;
use crate::routes::{self, write_read_error, Handled};
use crate::server::Shared;
use crate::translate::Early;
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use t2v_net::{BufferPool, Event, Interest, Poller, Waker};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Writer-side backpressure threshold: a dispatch thread producing
/// response bytes faster than the peer drains them blocks once this many
/// bytes are queued on the connection.
const OUT_HIGH_WATER: usize = 1 << 20;

/// Segments per `writev` call.
const MAX_IOVECS: usize = 16;

/// Dispatch-side flush granularity: response bytes ship to the loop in
/// segments of roughly this size instead of one final lump.
const SEG_TARGET: usize = 64 * 1024;

/// Read scratch size (one shared buffer, loop-local).
const READ_CHUNK: usize = 64 * 1024;

/// Stop draining a single readable socket into memory past this much
/// unparsed input; the level-triggered poller re-offers the rest.
const SOFT_IN_CAP: usize = 256 * 1024;

/// Requests served per connection per wake; then a pipelining client yields.
const INLINE_PER_WAKE: usize = 32;

/// Bodies above this always take the dispatch hop, whatever `max_body_bytes`
/// allows — JSON parse time on the loop stays bounded.
const INLINE_BODY_MAX: usize = 16 * 1024;

/// How long shutdown waits for in-flight requests before force-closing.
const DRAIN_BUDGET: Duration = Duration::from_secs(5);

/// How long the listener stays parked after EMFILE/ENFILE.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

// ---------------------------------------------------------------------------
// Response segments: dispatch threads → loop
// ---------------------------------------------------------------------------

#[derive(Default)]
struct OutState {
    /// Queued response bytes; a cached body's `Arc` rides to `writev` uncopied.
    segs: VecDeque<Body>,
    /// Bytes of the front segment already written to the socket.
    front_written: usize,
    /// Total queued-but-unwritten bytes (backpressure accounting).
    bytes: usize,
    /// Set exactly once, when the dispatch job finished: keep-alive?
    done: Option<bool>,
    /// The loop closed the connection; writers fail fast from here on.
    closed: bool,
}

/// The per-connection output queue. The loop and the connection's dispatch
/// thread share it; the condvar wakes a writer blocked on the high-water
/// mark (or on `closed`).
#[derive(Default)]
struct ConnOut {
    state: Mutex<OutState>,
    cv: Condvar,
}

/// What dispatch threads share with the loop: the wakeup fd plus the list
/// of connections with fresh output. Wakes coalesce; duplicate tokens are
/// harmless (pumping is idempotent).
struct ReactorShared {
    waker: Waker,
    ready: Mutex<Vec<u64>>,
}

impl ReactorShared {
    fn notify(&self, token: u64) {
        self.ready.lock().expect("ready list poisoned").push(token);
        self.waker.wake();
    }
}

/// A response as the segments `pump` will `writev`: framing bytes run
/// together, a cached body rides as its `Arc`. The loop queues the one it
/// frames an inline answer into itself — no lock, no wake.
#[derive(Default)]
struct SegSink(Vec<Body>);

impl Write for SegSink {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        match self.0.last_mut() {
            Some(Body::Owned(buf)) => buf.extend_from_slice(data),
            _ => self.0.push(data.to_vec().into()),
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl BodySink for SegSink {
    fn write_shared(&mut self, body: &Arc<Vec<u8>>) -> io::Result<()> {
        // Never an empty segment: `writev` of nothing reads as a closed peer.
        if !body.is_empty() {
            self.0.push(Arc::clone(body).into());
        }
        Ok(())
    }

    fn write_owned(&mut self, bytes: Vec<u8>) -> io::Result<()> {
        match self.0.last_mut() {
            Some(Body::Owned(buf)) => buf.extend_from_slice(&bytes),
            _ if bytes.is_empty() => {}
            _ => self.0.push(bytes.into()),
        }
        Ok(())
    }
}

/// The [`BodySink`] of a dispatch thread: segments accumulate locally and
/// ship on flush (a stream's lines), at a segment's worth, or — usually —
/// with the verdict in `finish`; dropped without it (a panic), `done = close`.
struct ConnWriter {
    out: Arc<ConnOut>,
    reactor: Arc<ReactorShared>,
    token: u64,
    sink: SegSink,
    finished: bool,
}

impl ConnWriter {
    /// Queue what has accumulated and/or the keep-alive verdict — one lock,
    /// one wake — blocking past the high-water mark. On a connection the loop
    /// already closed, bytes error and a verdict means close.
    fn push(&mut self, done: Option<bool>) -> io::Result<()> {
        let segs = std::mem::take(&mut self.sink.0);
        let len: usize = segs.iter().map(Body::len).sum();
        if len == 0 && done.is_none() {
            return Ok(());
        }
        let mut st = self.out.state.lock().expect("conn out poisoned");
        while !st.closed && len > 0 && st.bytes >= OUT_HIGH_WATER {
            st = self.out.cv.wait(st).expect("conn out poisoned");
        }
        let closed = st.closed;
        if !closed {
            st.bytes += len;
            st.segs.extend(segs);
        }
        if let Some(keep) = done {
            st.done = Some(keep && !closed);
        }
        drop(st);
        if closed && done.is_none() {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        self.reactor.notify(self.token);
        Ok(())
    }

    /// Seal the response: last bytes and verdict together, one wake.
    fn finish(mut self, keep: bool) {
        self.finished = true;
        let _ = self.push(Some(keep));
    }
}

impl Drop for ConnWriter {
    fn drop(&mut self) {
        // A job that never called `finish` (panic, dropped queue entry at
        // shutdown) still resolves the connection — as a close.
        if !self.finished {
            self.sink.0.clear();
            let _ = self.push(Some(false));
        }
    }
}

impl Write for ConnWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.sink.write_all(data)?;
        if matches!(self.sink.0.last(), Some(seg) if seg.len() >= SEG_TARGET) {
            self.flush()?;
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.push(None)
    }
}

impl BodySink for ConnWriter {
    fn write_shared(&mut self, body: &Arc<Vec<u8>>) -> io::Result<()> {
        self.sink.write_shared(body)
    }
}

// ---------------------------------------------------------------------------
// Dispatch pool
// ---------------------------------------------------------------------------

type Job = Box<dyn FnOnce() + Send>;

/// The request-execution pool behind the event loop. Deliberately *not*
/// the translation [`crate::pool::WorkerPool`]: endpoint code blocks on
/// worker-pool results, and running it inside that same pool would let
/// enough concurrent requests deadlock it. Sized from the pool's
/// in-system capacity (every admitted request can hold a dispatch thread
/// while it waits), bounded by config — never by connection count.
struct Dispatcher {
    inner: Arc<DispatchInner>,
    threads: Vec<JoinHandle<()>>,
}

struct DispatchInner {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    stop: AtomicBool,
}

impl Dispatcher {
    fn spawn(threads: usize, metrics: Arc<crate::metrics::Metrics>) -> Dispatcher {
        let inner = Arc::new(DispatchInner {
            queue: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
        });
        let handles = (0..threads)
            .map(|i| {
                let inner = Arc::clone(&inner);
                let metrics = Arc::clone(&metrics);
                std::thread::Builder::new()
                    .name(format!("t2v-dispatch-{i}"))
                    .spawn(move || dispatch_loop(&inner, &metrics))
                    .expect("spawn dispatch thread")
            })
            .collect();
        Dispatcher {
            inner,
            threads: handles,
        }
    }

    fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let mut q = self.inner.queue.lock().expect("dispatch queue poisoned");
        q.push_back(Box::new(job));
        drop(q);
        self.inner.cv.notify_one();
    }

    /// Stop accepting, drop undispatched jobs (their `ConnWriter`s resolve
    /// the connections as closed), finish running ones, join.
    fn shutdown(self) {
        self.inner.stop.store(true, Ordering::Release);
        self.inner
            .queue
            .lock()
            .expect("dispatch queue poisoned")
            .clear();
        self.inner.cv.notify_all();
        for h in self.threads {
            let _ = h.join();
        }
    }
}

fn dispatch_loop(inner: &DispatchInner, metrics: &crate::metrics::Metrics) {
    loop {
        let job = {
            let mut q = inner.queue.lock().expect("dispatch queue poisoned");
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if inner.stop.load(Ordering::Acquire) {
                    return;
                }
                q = inner.cv.wait(q).expect("dispatch queue poisoned");
            }
        };
        contained(metrics, job);
    }
}

// ---------------------------------------------------------------------------
// Connection state
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Accumulating request bytes (first request, or a partial one).
    Reading,
    /// A parsed request is on (or queued for) a dispatch thread.
    Dispatched,
    /// The response is sealed; the loop is draining the output queue.
    Writing,
    /// Between requests on a keep-alive connection.
    KeepAlive,
}

struct Conn {
    stream: TcpStream,
    token: u64,
    state: ConnState,
    /// Unparsed request bytes (pooled; pipelined followers stay here).
    inbuf: Vec<u8>,
    out: Arc<ConnOut>,
    /// First-byte time of the request currently being read — the trace
    /// clock, so keep-alive idle never counts against `conn.read`.
    t0: Option<Instant>,
    last_activity: Instant,
    /// `read()` returned 0: every buffered request byte has been drained and
    /// no more will come. Drives the truncation/close decisions — epoll's
    /// RDHUP flag alone does not, because it can arrive while request bytes
    /// are still sitting in the kernel buffer.
    peer_eof: bool,
    /// epoll reported EPOLLRDHUP. Only masks further RDHUP interest (the
    /// flag is level-triggered and would re-fire every tick).
    rdhup: bool,
    interest: Interest,
}

impl Conn {
    fn idle(&self) -> bool {
        matches!(self.state, ConnState::Reading | ConnState::KeepAlive)
    }
}

/// What a connection operation decided about the connection's future.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Next {
    Alive,
    Close,
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// Handle to the running event loop; [`crate::server::Server`] owns it.
pub(crate) struct EventDriver {
    reactor: Arc<ReactorShared>,
    handle: JoinHandle<()>,
}

impl EventDriver {
    pub(crate) fn spawn(shared: Arc<Shared>, listener: TcpListener) -> io::Result<EventDriver> {
        let poller = Poller::new()?;
        let waker = Waker::new(&poller, TOKEN_WAKER)?;
        listener.set_nonblocking(true)?;
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        let reactor = Arc::new(ReactorShared {
            waker,
            ready: Mutex::new(Vec::new()),
        });
        let loop_reactor = Arc::clone(&reactor);
        let handle = std::thread::Builder::new()
            .name("t2v-event".to_string())
            .spawn(move || run_loop(&shared, listener, poller, &loop_reactor))?;
        Ok(EventDriver { reactor, handle })
    }

    /// Wake the loop (the caller already raised the shutdown flag) and
    /// wait for the drain to finish.
    pub(crate) fn shutdown(self) {
        self.reactor.waker.wake();
        let _ = self.handle.join();
    }
}

/// Everything the per-connection helpers need besides the connection.
struct Ctx<'a> {
    shared: &'a Arc<Shared>,
    poller: &'a Poller,
    dispatcher: &'a Dispatcher,
    reactor: &'a Arc<ReactorShared>,
    max_body: usize,
    draining: bool,
}

fn run_loop(
    shared: &Arc<Shared>,
    listener: TcpListener,
    mut poller: Poller,
    reactor: &Arc<ReactorShared>,
) {
    let config = &shared.state.config;
    let idle_after = config.effective_conn_idle();
    let max_connections = config.max_connections;
    let max_body = config.max_body_bytes;
    // Every admitted request can park a dispatch thread on a worker-pool
    // result, so capacity mirrors the pool's in-system bound.
    let dispatch_threads = (config.effective_shards() * config.queue_capacity
        + config.effective_workers())
    .clamp(4, 128);
    let dispatcher = Dispatcher::spawn(dispatch_threads, Arc::clone(&shared.state.metrics));

    let mut pool = BufferPool::new(16 * 1024, 1024);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut listener_open = true;
    let mut accept_rearm: Option<Instant> = None;
    let mut drain_deadline: Option<Instant> = None;
    let mut last_stats: Option<Instant> = None;

    loop {
        let now = Instant::now();

        // -- shutdown entry: stop accepting, close idles, start the drain --
        if drain_deadline.is_none() && shared.shutdown.load(Ordering::Acquire) {
            drain_deadline = Some(now + DRAIN_BUDGET);
            if listener_open {
                let _ = poller.deregister(listener.as_raw_fd());
                listener_open = false;
            }
            let idle: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| c.idle())
                .map(|(&t, _)| t)
                .collect();
            for token in idle {
                close_conn(&mut conns, &poller, &mut pool, shared, token, false);
            }
        }
        if let Some(deadline) = drain_deadline {
            if conns.is_empty() {
                break;
            }
            if now >= deadline {
                // Drain budget spent: force-close the stragglers.
                let all: Vec<u64> = conns.keys().copied().collect();
                for token in all {
                    close_conn(&mut conns, &poller, &mut pool, shared, token, false);
                }
                break;
            }
        }

        // -- re-arm a listener parked on fd exhaustion --
        if let Some(at) = accept_rearm {
            if listener_open && now >= at {
                accept_rearm = None;
                let _ = poller.modify(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ);
            }
        }

        // -- wait --
        let mut timeout = Duration::from_millis(250);
        if !conns.is_empty() {
            timeout = timeout.min((idle_after / 4).max(Duration::from_millis(10)));
        }
        if drain_deadline.is_some() {
            timeout = timeout.min(Duration::from_millis(25));
        }
        if let Some(at) = accept_rearm {
            timeout = timeout.min(at.saturating_duration_since(now));
        }
        events.clear();
        if poller.wait(&mut events, Some(timeout)).is_err() {
            // An unexpected epoll failure is unrecoverable for the loop;
            // dying quietly beats spinning.
            break;
        }

        let ctx = Ctx {
            shared,
            poller: &poller,
            dispatcher: &dispatcher,
            reactor,
            max_body,
            draining: drain_deadline.is_some(),
        };

        for &ev in &events {
            match ev.token {
                TOKEN_LISTENER => {
                    if !listener_open || ctx.draining {
                        continue;
                    }
                    if accept_burst(
                        &ctx,
                        &listener,
                        &mut conns,
                        &mut pool,
                        &mut next_token,
                        max_connections,
                    ) {
                        // fd exhaustion: park the listener, re-arm later.
                        let _ = poller.modify(listener.as_raw_fd(), TOKEN_LISTENER, Interest::NONE);
                        accept_rearm = Some(Instant::now() + ACCEPT_BACKOFF);
                    }
                }
                TOKEN_WAKER => reactor.waker.drain(),
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    let mut next = Next::Alive;
                    if ev.hangup || ev.error {
                        // Both halves gone (or an fd error): nothing useful
                        // can be read or written any more.
                        next = Next::Close;
                    } else {
                        if ev.read_closed && !conn.rdhup {
                            conn.rdhup = true;
                            // Mask RDHUP: level-triggered, it would re-fire
                            // every tick until the connection resolves.
                            let want = conn.interest;
                            conn.interest = Interest::NONE; // force re-apply
                            set_interest(&ctx, conn, want);
                        }
                        if ev.readable || ev.read_closed {
                            next = on_readable(&ctx, conn, &mut scratch);
                        }
                        if next == Next::Alive && ev.writable {
                            next = drive(&ctx, conn);
                        }
                    }
                    if next == Next::Close {
                        close_conn(&mut conns, &poller, &mut pool, shared, token, false);
                    }
                }
            }
        }

        // -- connections whose dispatch jobs produced output or finished,
        //    and pipelining ones that yielded their turn last wake --
        let ready = std::mem::take(&mut *reactor.ready.lock().expect("ready list poisoned"));
        for token in ready {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            if drive(&ctx, conn) == Next::Close {
                close_conn(&mut conns, &poller, &mut pool, shared, token, false);
            }
        }

        // -- idle reaping: keep-alive peers gone quiet, slow-loris drips --
        if drain_deadline.is_none() {
            let now = Instant::now();
            let expired: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| c.idle() && now.duration_since(c.last_activity) >= idle_after)
                .map(|(&t, _)| t)
                .collect();
            for token in expired {
                close_conn(&mut conns, &poller, &mut pool, shared, token, true);
            }
        }

        // -- connection-state census for /v1/admin/status, throttled so a
        //    busy loop is not recounting tens of thousands of entries on
        //    every wake --
        let stale =
            last_stats.is_none_or(|at| now.duration_since(at) >= Duration::from_millis(250));
        if stale {
            last_stats = Some(now);
            publish_event_stats(shared, &conns, &pool, drain_deadline.is_some());
        }
    }

    publish_event_stats(shared, &conns, &pool, true);
    drop(listener);
    dispatcher.shutdown();
}

/// Snapshot the loop's occupancy into [`Shared::event_stats`] — the status
/// endpoint reads these atomics instead of locking the connection table.
fn publish_event_stats(
    shared: &Shared,
    conns: &HashMap<u64, Conn>,
    pool: &BufferPool,
    draining: bool,
) {
    let (mut reading, mut dispatched, mut writing, mut keep_alive) = (0u64, 0u64, 0u64, 0u64);
    for c in conns.values() {
        match c.state {
            ConnState::Reading => reading += 1,
            ConnState::Dispatched => dispatched += 1,
            ConnState::Writing => writing += 1,
            ConnState::KeepAlive => keep_alive += 1,
        }
    }
    let stats = &shared.event_stats;
    stats.reading.store(reading, Ordering::Relaxed);
    stats.dispatched.store(dispatched, Ordering::Relaxed);
    stats.writing.store(writing, Ordering::Relaxed);
    stats.keep_alive.store(keep_alive, Ordering::Relaxed);
    stats
        .pool_buffers
        .store(pool.pooled() as u64, Ordering::Relaxed);
    stats.draining.store(draining as u64, Ordering::Relaxed);
}

/// Accept failures that mean *we* (or the host) ran out of file
/// descriptors. Retrying immediately cannot succeed — the listener stays
/// readable with the pending connection still queued — so without a pause
/// the loop spins at 100% CPU exactly when the box is saturated.
fn fd_exhausted(err: &io::Error) -> bool {
    // EMFILE, ENFILE.
    matches!(err.raw_os_error(), Some(24 | 23))
}

/// Accept until the listener runs dry. Returns true when the listener
/// must be parked (fd exhaustion).
fn accept_burst(
    ctx: &Ctx<'_>,
    listener: &TcpListener,
    conns: &mut HashMap<u64, Conn>,
    pool: &mut BufferPool,
    next_token: &mut u64,
    max_connections: usize,
) -> bool {
    let metrics = &ctx.shared.state.metrics;
    let open = metrics.scalar(Scalar::ConnectionsActive);
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(e) => {
                metrics.inc(Scalar::AcceptErrors);
                if fd_exhausted(&e) {
                    return true;
                }
                // Transient (ECONNABORTED and friends): keep accepting.
                continue;
            }
        };
        metrics.inc(Scalar::ConnectionsTotal);
        let active = open.fetch_add(1, Ordering::AcqRel) + 1;
        if active as usize > max_connections {
            // Shed before registering anything: canned bytes, no allocation.
            let mut s = stream;
            let _ = s.write_all(http::overload_response_bytes());
            metrics.inc(Scalar::Rejected);
            open.fetch_sub(1, Ordering::AcqRel);
            continue;
        }
        if stream.set_nonblocking(true).is_err() {
            open.fetch_sub(1, Ordering::AcqRel);
            continue;
        }
        let _ = stream.set_nodelay(true);
        let token = *next_token;
        *next_token += 1;
        if ctx
            .poller
            .register(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            open.fetch_sub(1, Ordering::AcqRel);
            continue;
        }
        conns.insert(
            token,
            Conn {
                stream,
                token,
                state: ConnState::Reading,
                inbuf: pool.take(),
                out: Arc::default(),
                t0: None,
                last_activity: Instant::now(),
                peer_eof: false,
                rdhup: false,
                interest: Interest::READ,
            },
        );
    }
}

fn set_interest(ctx: &Ctx<'_>, conn: &mut Conn, want: Interest) {
    let want = if conn.rdhup { want.no_rdhup() } else { want };
    if want == conn.interest {
        return;
    }
    if ctx
        .poller
        .modify(conn.stream.as_raw_fd(), conn.token, want)
        .is_ok()
    {
        conn.interest = want;
    }
}

/// Drain the socket into the connection's input buffer, then try to make
/// parse progress.
fn on_readable(ctx: &Ctx<'_>, conn: &mut Conn, scratch: &mut [u8]) -> Next {
    if !conn.idle() {
        // Interest is parked while a request executes; a stray readiness
        // report (or RDHUP delivery) changes nothing here.
        return Next::Alive;
    }
    while conn.inbuf.len() < SOFT_IN_CAP {
        match (&conn.stream).read(scratch) {
            Ok(0) => {
                conn.peer_eof = true;
                break;
            }
            Ok(n) => {
                conn.last_activity = Instant::now();
                conn.inbuf.extend_from_slice(&scratch[..n]);
                if n < scratch.len() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Next::Close,
        }
    }
    try_advance(ctx, conn)
}

/// Parse progress on idle (`Reading`/`KeepAlive`) connections, a flat loop
/// over what is buffered: serve a complete request, answer a malformed one,
/// map peer-EOF onto the blocking reader's truncation semantics, or wait. A
/// cursor tracks consumed bytes — one compaction per wake. While a response
/// is pending the connection is not idle: what is buffered behind it waits.
fn try_advance(ctx: &Ctx<'_>, conn: &mut Conn) -> Next {
    let mut pos = 0;
    let mut budget = INLINE_PER_WAKE;
    let next = 'parse: {
        while conn.idle() {
            let buf = &conn.inbuf[pos..];
            if budget == 0 && !buf.is_empty() {
                // Yield: the ready list brings this one back after the others.
                ctx.reactor.notify(conn.token);
                break;
            }
            if !buf.is_empty() && conn.t0.is_none() {
                // The trace clock starts at the first byte of each request.
                conn.t0 = Some(Instant::now());
            }
            match http::parse_request(buf, ctx.max_body) {
                Parse::Complete(req, consumed) => {
                    pos += consumed;
                    budget -= 1;
                    let t0 = conn.t0.take().unwrap_or_else(Instant::now);
                    // Contained like a dispatch job: a panic costs this socket.
                    let metrics = &ctx.shared.state.metrics;
                    if contained(metrics, || serve(ctx, conn, req, t0)) != Some(Next::Alive) {
                        break 'parse Next::Close;
                    }
                }
                Parse::NeedHead if conn.peer_eof => {
                    if buf.is_empty() {
                        // Clean EOF between requests: close silently.
                        break 'parse Next::Close;
                    }
                    // Truncated head: the blocking reader's exact 400, then close.
                    let err = http::truncation_error(buf);
                    break 'parse queue_error_close(ctx, conn, &err);
                }
                // A short body at EOF is a transport error there: just hang up.
                Parse::NeedBody if conn.peer_eof => break 'parse Next::Close,
                Parse::NeedHead | Parse::NeedBody => {
                    conn.state = ConnState::Reading;
                    set_interest(ctx, conn, Interest::READ);
                    break;
                }
                Parse::Err(err) => break 'parse queue_error_close(ctx, conn, &err),
            }
        }
        Next::Alive
    };
    conn.inbuf.drain(..pos);
    next
}

/// Serve one parsed request. A single translation's validation errors and
/// fresh hits go straight into the output queue and `pump`: nothing on that
/// path sleeps, touches a file or waits on the pool or a condvar, and its
/// work is bounded ([`INLINE_BODY_MAX`]). Everything else parks in
/// `Dispatched` while a dispatch thread runs `routes::resume`.
fn serve(ctx: &Ctx<'_>, conn: &mut Conn, req: Box<http::Request>, t0: Instant) -> Next {
    let shared = ctx.shared;
    let begun = routes::begin(shared, &req, t0, t0.elapsed());
    let routed = (req.body.len() <= INLINE_BODY_MAX)
        .then(|| routes::early(shared, &req, &begun))
        .flatten();
    match routed {
        Some((route, Early::Reply(resp), None)) => {
            let mut sink = SegSink::default();
            // The access-log line is file I/O: posted once the bytes are out.
            let mut line = None;
            let log = |file, text: String| line = Some((file, text));
            let reply = Handled::Reply(resp);
            let keep = routes::finish(shared, &req, begun, route, reply, &mut sink, log);
            shared.state.metrics.inc(Scalar::InlineResponses);
            queue_response(conn, sink.0, keep);
            let next = pump(ctx, conn);
            if let Some((file, text)) = line {
                ctx.dispatcher.submit(move || file.write_line(&text));
            }
            next
        }
        routed => {
            conn.state = ConnState::Dispatched;
            set_interest(ctx, conn, Interest::NONE);
            let mut writer = ConnWriter {
                out: Arc::clone(&conn.out),
                reactor: Arc::clone(ctx.reactor),
                token: conn.token,
                sink: SegSink::default(),
                finished: false,
            };
            let shared = Arc::clone(shared);
            shared.dispatch_depth.fetch_add(1, Ordering::Relaxed);
            ctx.dispatcher.submit(move || {
                shared.dispatch_depth.fetch_sub(1, Ordering::Relaxed);
                let keep = routes::resume(&shared, &req, begun, routed, &mut writer);
                writer.finish(keep);
            });
            Next::Alive
        }
    }
}

/// Queue a whole response produced on the loop itself; the caller pumps.
fn queue_response(conn: &mut Conn, segs: Vec<Body>, keep: bool) {
    let mut st = conn.out.state.lock().expect("conn out poisoned");
    st.bytes += segs.iter().map(Body::len).sum::<usize>();
    st.segs.extend(segs);
    st.done = Some(keep);
    drop(st);
    conn.state = ConnState::Writing;
}

/// Answer an unreadable request: queue the rendered error, then close.
fn queue_error_close(ctx: &Ctx<'_>, conn: &mut Conn, err: &http::ReadError) -> Next {
    let mut bytes: Vec<u8> = Vec::new();
    write_read_error(ctx.shared, err, &mut bytes);
    queue_response(conn, vec![bytes.into()], false);
    pump(ctx, conn)
}

/// A wake for an existing connection: flush, then start on what is buffered.
fn drive(ctx: &Ctx<'_>, conn: &mut Conn) -> Next {
    match pump(ctx, conn) {
        Next::Close => Next::Close,
        _ => try_advance(ctx, conn),
    }
}

/// Push queued output at the socket with vectored writes; on completion,
/// apply the keep-alive verdict (the connection is idle again).
fn pump(ctx: &Ctx<'_>, conn: &mut Conn) -> Next {
    loop {
        let mut st = conn.out.state.lock().expect("conn out poisoned");
        if st.segs.is_empty() {
            // Consumed, not read: the verdict belongs to exactly one
            // request — a follower on the same connection starts clean.
            let done = st.done.take();
            drop(st);
            match done {
                None => {
                    // Still executing (a stream mid-relay, or the job has
                    // not finished); nothing to write right now.
                    if conn.state == ConnState::Dispatched {
                        set_interest(ctx, conn, Interest::NONE);
                    }
                }
                Some(keep) => {
                    if !keep || ctx.draining || ctx.shared.shutdown.load(Ordering::Acquire) {
                        return Next::Close;
                    }
                    conn.state = ConnState::KeepAlive;
                    conn.t0 = None;
                    conn.last_activity = Instant::now();
                    set_interest(ctx, conn, Interest::READ);
                }
            }
            return Next::Alive;
        }
        if conn.state == ConnState::Dispatched && st.done.is_some() {
            conn.state = ConnState::Writing;
        }
        let written = {
            let mut iov = [IoSlice::new(&[]); MAX_IOVECS];
            let filled = st.segs.len().min(MAX_IOVECS);
            for (i, (slot, seg)) in iov.iter_mut().zip(&st.segs).enumerate() {
                let bytes = seg.as_slice();
                *slot = IoSlice::new(if i == 0 {
                    &bytes[st.front_written..]
                } else {
                    bytes
                });
            }
            (&conn.stream).write_vectored(&iov[..filled])
        };
        match written {
            Ok(0) => return Next::Close,
            Ok(mut n) => {
                st.bytes -= n;
                while n > 0 {
                    let front_left = st.segs[0].as_slice().len() - st.front_written;
                    if n >= front_left {
                        n -= front_left;
                        st.segs.pop_front();
                        st.front_written = 0;
                    } else {
                        st.front_written += n;
                        n = 0;
                    }
                }
                drop(st);
                // Room freed below the high-water mark: unblock the writer.
                conn.out.cv.notify_all();
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                drop(st);
                // Output is only ever queued on a non-idle connection.
                set_interest(ctx, conn, Interest::WRITE);
                return Next::Alive;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return Next::Close,
        }
    }
}

/// Tear one connection down: out of epoll, out of the map, buffer back to
/// the pool, writers unblocked with an error, gauge decremented.
fn close_conn(
    conns: &mut HashMap<u64, Conn>,
    poller: &Poller,
    pool: &mut BufferPool,
    shared: &Arc<Shared>,
    token: u64,
    reaped: bool,
) {
    let Some(conn) = conns.remove(&token) else {
        return;
    };
    let _ = poller.deregister(conn.stream.as_raw_fd());
    {
        // A contained panic may have poisoned it; closing is always valid.
        let mut st = conn.out.state.lock().unwrap_or_else(|e| e.into_inner());
        st.closed = true;
        st.segs.clear();
        st.bytes = 0;
    }
    conn.out.cv.notify_all();
    pool.put(conn.inbuf);
    let metrics = &shared.state.metrics;
    if reaped {
        metrics.inc(Scalar::ConnReaped);
    }
    metrics
        .scalar(Scalar::ConnectionsActive)
        .fetch_sub(1, Ordering::AcqRel);
    // `conn.stream` drops here, closing the fd.
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The containment the loop's inline stage and every dispatch job run
    /// under: a panicking handler is counted and reported, and the thread
    /// that ran it carries on with the next one.
    #[test]
    fn a_panicking_handler_is_contained_and_counted() {
        let metrics = crate::metrics::Metrics::with_backends(&[]);
        let boom = contained(&metrics, || -> u32 { panic!("handler bug") });
        assert_eq!(boom, None);
        assert_eq!(metrics.get(Scalar::WorkerPanics), 1);
        assert_eq!(contained(&metrics, || 7), Some(7));
        assert_eq!(metrics.get(Scalar::WorkerPanics), 1);
    }
}
