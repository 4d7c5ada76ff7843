//! The epoll event-loop connection driver — the server's only transport.
//!
//! One loop thread owns every socket: it accepts, accumulates request
//! bytes into pooled buffers, runs the incremental parser
//! ([`crate::http::parse_request`]), and writes queued response segments
//! out with vectored (`writev`) writes. What a request needs decides where
//! it runs. A route that cannot block — `/healthz`, `/metrics`, the status
//! pages, a single translation's early stage and admission — is answered
//! by the loop itself, which parks a miss whose worker answers the
//! connection: one hop each way. What may block (a stream, a batch, the
//! tenant and snapshot admin routes, a body over [`INLINE_BODY_MAX`], a
//! fired write stall) runs `routes::resume` on the dispatch pool
//! (`Shared::dispatch`, one thread per translation worker): a stream or a
//! batch holds its thread while the translation pool works for it. The
//! loop's contract: it never sleeps, never touches a file, never waits on
//! the pool or a condvar, does a bounded amount of work per request, and
//! cannot be killed by one. Its per-connection cost
//! is a state enum, a read buffer and an output queue — how tens of
//! thousands of keep-alive sockets fit where thread-per-connection runs
//! out of stacks.
//!
//! Per-connection state machine:
//!
//! ```text
//!            answered on the loop (hit / 4xx / refusal) ──────────────┐
//! Reading ──┤                                                         ▼
//!    ▲       a parked miss, or a blocking route ──▶ Dispatched ─ sealed ─▶ Writing
//!    └────────── KeepAlive ◀── queue drained, keep-alive ◀───────────────┘
//! ```
//!
//! `Reading` and `KeepAlive` sockets are reaped after `conn_idle_ms`
//! without progress — idle keep-alive peers and slow-loris drip-feeders
//! alike; a parked miss's deadline fires in the same sweep ([`Ticket`]).
//! Shutdown drains: the listener closes immediately, idle connections
//! close, in-flight requests finish their response (bounded by a drain
//! budget), and only then does the loop exit.
//!
//! Workers and dispatch threads hand response segments to the loop
//! through a per-connection [`ConnOut`] queue, a shared ready list and a
//! [`t2v_net::Waker`] (an eventfd). A queue past [`OUT_HIGH_WATER`] blocks
//! the *writing* thread (backpressure against a slow peer), never the loop.
//! A dispatch thread that parsed an oversized single translation into a
//! miss hands it back the same way, for the loop to admit and park.

use crate::access_log::AccessLog;
use crate::http::{self, Body, BodySink, Parse, Request, Response};
use crate::metrics::{Route, Scalar};
use crate::pool::contained;
use crate::routes::{self, write_read_error, Begun, Handled, Routed};
use crate::server::Shared;
use crate::translate::{admit, Early, Miss, OnReply, Pending, Step};
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use t2v_fault::{fire_delay, FaultPoint::ConnWriteStall};
use t2v_net::{BufferPool, Event, Interest, Poller, Waker};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Writer-side backpressure threshold: a thread producing response bytes
/// faster than the peer drains them blocks once this many bytes are queued
/// on the connection.
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

/// Bodies above this are parsed on a dispatch thread, whatever
/// `max_body_bytes` allows — JSON parse time on the loop stays bounded.
const INLINE_BODY_MAX: usize = 16 * 1024;

/// How long shutdown waits for in-flight requests before force-closing.
const DRAIN_BUDGET: Duration = Duration::from_secs(5);

/// How long the listener stays parked after EMFILE/ENFILE.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

// ---------------------------------------------------------------------------
// Response segments: workers and dispatch threads → loop
// ---------------------------------------------------------------------------

#[derive(Default)]
struct OutState {
    /// Queued response bytes; a cached body's `Arc` rides to `writev` uncopied.
    segs: VecDeque<Body>,
    /// Bytes of the front segment already written to the socket.
    front_written: usize,
    /// Total queued-but-unwritten bytes (backpressure accounting).
    bytes: usize,
    /// Set exactly once, when the response is sealed: keep-alive?
    done: Option<bool>,
    /// The loop closed the connection; writers fail fast from here on.
    closed: bool,
}

/// The per-connection output queue. The loop and the thread answering the
/// connection (its miss's worker, or a dispatch thread) share it; the
/// condvar wakes a writer blocked on the high-water mark (or on `closed`).
#[derive(Default)]
struct ConnOut {
    state: Mutex<OutState>,
    cv: Condvar,
}

/// What answering threads share with the loop: the wakeup fd, the list
/// of connections with fresh output, misses handed back for admission, and
/// whether the loop has stopped. Wakes coalesce; duplicate tokens are
/// harmless (pumping is idempotent).
struct ReactorShared {
    waker: Waker,
    ready: Mutex<Vec<u64>>,
    handed_back: Mutex<Vec<HandedBack>>,
    /// Raised when the loop exits: a dispatch job that starts after it is
    /// dropped, and its writer resolves the connection as closed.
    stopped: AtomicBool,
}

/// A single translation a dispatch thread parsed into a miss, for the loop
/// to admit on connection `token`.
struct HandedBack {
    token: u64,
    req: Box<Request>,
    begun: Begun,
    route: Route,
    miss: Miss,
}

impl ReactorShared {
    fn notify(&self, token: u64) {
        self.ready.lock().expect("ready list poisoned").push(token);
        self.waker.wake();
    }

    fn hand_back(&self, miss: HandedBack) {
        lock(&self.handed_back).push(miss);
        self.waker.wake();
    }
}

/// Run `routes::resume` for a request on the dispatch pool, into `writer`.
fn resume_on_dispatcher(
    shared: &Arc<Shared>,
    req: Box<Request>,
    begun: Begun,
    routed: Option<Routed>,
    mut writer: ConnWriter,
) {
    let pool = &shared.dispatch;
    let shared = Arc::clone(shared);
    let job = move || {
        if writer.reactor.stopped.load(Ordering::Acquire) {
            return;
        }
        match routed.unwrap_or_else(|| routes::route(&shared, &req, &begun)) {
            // Parsed here only for its size: the loop admits it.
            (route, Early::Miss(miss), _) => {
                writer.disarm();
                let token = writer.token;
                let miss = HandedBack {
                    token,
                    req,
                    begun,
                    route,
                    miss,
                };
                writer.reactor.hand_back(miss);
            }
            routed => {
                let keep = routes::resume(&shared, &req, begun, Some(routed), &mut writer);
                writer.finish(keep);
            }
        }
    };
    // Refused only at shutdown: the dropped job closes the connection.
    let _ = pool.submit(job);
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

/// The [`BodySink`] of a thread answering off the loop: segments accumulate
/// locally and ship on flush (a stream's lines), at a segment's worth, or —
/// usually — with the verdict in `finish`; dropped without it (a panic),
/// `done = close`.
struct ConnWriter {
    out: Arc<ConnOut>,
    reactor: Arc<ReactorShared>,
    token: u64,
    sink: SegSink,
    finished: bool,
}

impl ConnWriter {
    fn new(ctx: &Ctx<'_>, conn: &Conn) -> ConnWriter {
        ConnWriter {
            out: Arc::clone(&conn.out),
            reactor: Arc::clone(ctx.reactor),
            token: conn.token,
            sink: SegSink::default(),
            finished: false,
        }
    }

    /// Drop a writer the loop answers for: no verdict, no wake.
    fn disarm(&mut self) {
        self.finished = true;
    }

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
// A parked miss
// ---------------------------------------------------------------------------

/// What the loop keeps of an admitted miss: what `routes::finish` needs,
/// and the connection's writer. Its [`Ticket`] hands it to one side only —
/// the job's reply, or the loop's deadline timer.
struct Parked {
    req: Box<Request>,
    begun: Begun,
    route: Route,
    pending: Pending,
    writer: ConnWriter,
}

type Ticket = Mutex<Option<Parked>>;

/// The job's [`OnReply`]: the worker that ran the translation ends the
/// request — conclude, `routes::finish` into the connection, one wake —
/// unless the deadline took it first; then the reply is dropped, and
/// counted. Nothing here blocks: the access-log line is posted, and a write
/// stall that fires hands the reply to a dispatch thread to sleep.
fn reply_to(ticket: &Arc<Ticket>, shared: &Arc<Shared>) -> OnReply {
    let (ticket, shared) = (Arc::clone(ticket), Arc::clone(shared));
    Box::new(move |reply| {
        let Some(mut p) = lock(&ticket).take() else {
            return shared.state.metrics.inc(Scalar::LateRepliesDropped);
        };
        let resp = p.pending.respond(&shared, Some(reply));
        if let Some(stall) = fire_delay(ConnWriteStall) {
            let routed = Some((p.route, Early::Reply(resp), Some(stall)));
            return resume_on_dispatcher(&shared, p.req, p.begun, routed, p.writer);
        }
        let (req, reply) = (&p.req, Handled::Reply(resp));
        let post = |file: Arc<AccessLog>, line| file.post(line);
        let keep = routes::finish(&shared, req, p.begun, p.route, reply, &mut p.writer, post);
        p.writer.finish(keep);
    })
}

/// Poison-transparent: a ticket is valid whatever unwound past it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Connection state
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Accumulating request bytes (first request, or a partial one).
    Reading,
    /// A parsed request is parked on the worker pool, or on (or queued
    /// for) a dispatch thread.
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
    /// A parked miss: when the loop stops waiting for its worker, and the
    /// claim the two race for.
    parked: Option<(Instant, Arc<Ticket>)>,
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
            handed_back: Mutex::new(Vec::new()),
            stopped: AtomicBool::new(false),
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

    let mut pool = BufferPool::new(16 * 1024, 1024);
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; READ_CHUNK];
    let mut listener_open = true;
    let mut accept_rearm: Option<Instant> = None;
    let mut drain_deadline: Option<Instant> = None;
    let mut last_stats: Option<Instant> = None;
    // The earliest deadline of a parked miss, as of the last sweep.
    let mut next_deadline: Option<Instant> = None;

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
        for at in accept_rearm.into_iter().chain(next_deadline) {
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

        // -- oversized single translations a dispatch thread parsed into
        //    misses: admitted here, like any other --
        let handed_back = std::mem::take(&mut *lock(&reactor.handed_back));
        for h in handed_back {
            let Some(conn) = conns.get_mut(&h.token) else {
                continue;
            };
            let next = match admit_here(&ctx, conn, h.req, h.begun, h.route, h.miss) {
                Next::Alive => try_advance(&ctx, conn),
                close => close,
            };
            if next == Next::Close {
                close_conn(&mut conns, &poller, &mut pool, shared, h.token, false);
            }
        }

        // -- timers, one sweep: idle reaping (keep-alive peers gone quiet,
        //    slow-loris drips; not while draining) and the deadlines of
        //    parked misses, the earliest of which bounds the next wait --
        let now = Instant::now();
        let (mut reaped, mut expired) = (Vec::new(), Vec::new());
        next_deadline = None;
        for (&token, c) in &conns {
            if drain_deadline.is_none()
                && c.idle()
                && now.duration_since(c.last_activity) >= idle_after
            {
                reaped.push(token);
            }
            match c.parked {
                Some((at, _)) if at <= now => expired.push(token),
                Some((at, _)) => next_deadline = Some(next_deadline.map_or(at, |n| n.min(at))),
                None => {}
            }
        }
        for token in reaped {
            close_conn(&mut conns, &poller, &mut pool, shared, token, true);
        }
        for token in expired {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            // Taken already: the worker's answer is on its way.
            let Some(mut p) = conn.parked.take().and_then(|(_, t)| lock(&t).take()) else {
                continue;
            };
            p.writer.disarm();
            let scope = p.begun.trace.scope();
            let resp = p.pending.respond(shared, None);
            let stall = fire_delay(ConnWriteStall);
            drop(scope);
            // Answered here: a request pipelined behind it may be buffered,
            // and may park with a deadline the sweep above did not see.
            let next = match reply_here(&ctx, conn, p.req, p.begun, p.route, resp, stall) {
                Next::Alive => try_advance(&ctx, conn),
                close => close,
            };
            if let (Next::Alive, Some((at, _))) = (next, &conn.parked) {
                next_deadline = Some(next_deadline.map_or(*at, |n| n.min(*at)));
            }
            if next == Next::Close {
                close_conn(&mut conns, &poller, &mut pool, shared, token, false);
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
    reactor.stopped.store(true, Ordering::Release);
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
                parked: None,
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

/// Serve one parsed request. What the loop can route ([`routes::early`]:
/// no route that may block, no body over [`INLINE_BODY_MAX`]) goes straight
/// into the output queue and `pump`: nothing on that path sleeps, touches a
/// file or waits on the pool or a condvar, and its work is bounded. A
/// single translation's miss is admitted here ([`admit_here`]); everything
/// else parks in `Dispatched` while a dispatch thread runs `routes::resume`.
fn serve(ctx: &Ctx<'_>, conn: &mut Conn, req: Box<Request>, t0: Instant) -> Next {
    let shared = ctx.shared;
    let begun = routes::begin(shared, &req, t0, t0.elapsed());
    let routed = (req.body.len() <= INLINE_BODY_MAX)
        .then(|| routes::early(shared, &req, &begun))
        .flatten();
    match routed {
        Some((route, Early::Reply(resp), stall)) => {
            reply_here(ctx, conn, req, begun, route, resp, stall)
        }
        Some((route, Early::Miss(miss), _)) => admit_here(ctx, conn, req, begun, route, miss),
        routed => dispatch(ctx, conn, req, begun, routed),
    }
}

/// Frame a response produced on the loop into segments, queue them and
/// pump — no lock, no wake. A write stall that fired is slept on a
/// dispatch thread instead, never here.
fn reply_here(
    ctx: &Ctx<'_>,
    conn: &mut Conn,
    req: Box<Request>,
    begun: Begun,
    route: Route,
    resp: Response,
    stall: Option<Duration>,
) -> Next {
    if stall.is_some() {
        let routed = Some((route, Early::Reply(resp), stall));
        return dispatch(ctx, conn, req, begun, routed);
    }
    let shared = ctx.shared;
    let mut sink = SegSink::default();
    // The access-log line is posted once the bytes are out.
    let mut line = None;
    let log = |file, text: String| line = Some((file, text));
    let reply = Handled::Reply(resp);
    let keep = routes::finish(shared, &req, begun, route, reply, &mut sink, log);
    if req.path.ends_with("/translate") {
        shared.state.metrics.inc(Scalar::InlineResponses);
    }
    queue_response(conn, sink.0, keep);
    let next = pump(ctx, conn);
    if let Some((file, text)) = line {
        AccessLog::post(&file, text);
    }
    next
}

/// Park the connection while a dispatch thread runs `routes::resume` into
/// its [`ConnWriter`].
fn dispatch(
    ctx: &Ctx<'_>,
    conn: &mut Conn,
    req: Box<Request>,
    begun: Begun,
    routed: Option<Routed>,
) -> Next {
    conn.state = ConnState::Dispatched;
    set_interest(ctx, conn, Interest::NONE);
    let writer = ConnWriter::new(ctx, conn);
    resume_on_dispatcher(ctx.shared, req, begun, routed, writer);
    Next::Alive
}

/// A single translation's miss: breaker, pool and the refusal ladder run
/// here, under the request's trace — none of them blocks. A refusal is
/// answered here; an admitted miss is parked, and its worker answers it.
/// The ticket stays locked until the request is parked, so a reply that
/// comes first waits the few instructions it takes.
fn admit_here(
    ctx: &Ctx<'_>,
    conn: &mut Conn,
    req: Box<Request>,
    begun: Begun,
    route: Route,
    miss: Miss,
) -> Next {
    let ticket = Arc::new(Ticket::default());
    let mut parked = lock(&ticket);
    let scope = begun.trace.scope();
    let pending = match admit(ctx.shared, miss, true, &|| reply_to(&ticket, ctx.shared)) {
        Step::Waiting(pending) => pending,
        Step::Done(outcome) => {
            let stall = fire_delay(ConnWriteStall);
            drop(scope);
            return reply_here(ctx, conn, req, begun, route, outcome.into_response(), stall);
        }
    };
    drop(scope);
    conn.state = ConnState::Dispatched;
    set_interest(ctx, conn, Interest::NONE);
    conn.parked = Some((pending.expires(), Arc::clone(&ticket)));
    let writer = ConnWriter::new(ctx, conn);
    *parked = Some(Parked {
        req,
        begun,
        route,
        pending,
        writer,
    });
    Next::Alive
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
                    conn.parked = None;
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
    // A worker that finishes after this drops its reply, counted.
    if let Some(mut p) = conn.parked.and_then(|(_, ticket)| lock(&ticket).take()) {
        p.writer.disarm();
    }
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
