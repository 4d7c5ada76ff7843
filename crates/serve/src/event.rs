//! The epoll event-loop connection driver — the server's only transport.
//!
//! One loop thread owns every socket: it accepts, accumulates request
//! bytes into pooled buffers, runs the incremental parser
//! ([`crate::http::parse_request`]), and writes queued response segments
//! out with vectored (`writev`) writes. It routes every request and
//! answers what needs no wait in place — `/healthz`, `/metrics`, the
//! status, TSDB and profile pages, every hit and validation error. What
//! waits on the translation pool — a miss, a stream, a batch's misses — it
//! admits and parks behind a [`Ticket`]; the worker whose reply completes
//! it answers the connection, or the loop's deadline timer does: one hop
//! each way. Admin jobs that build, drop or write run on the same pool and
//! answer their connection too. The loop's contract: it never sleeps,
//! never touches a file, never waits on the pool or a condvar, does a
//! bounded amount of work per request, and cannot be killed by one. Its
//! per-connection cost is a state enum, a read buffer and an output queue
//! — how tens of thousands of keep-alive sockets fit where
//! thread-per-connection runs out of stacks.
//!
//! Per-connection state machine:
//!
//! ```text
//!            answered on the loop (hit / 4xx / refusal) ──────────────┐
//! Reading ──┤                                                         ▼
//!    ▲       waiting on the pool (parked, or a job) ──▶ Dispatched ─ sealed ─▶ Writing
//!    └────────── KeepAlive ◀── queue drained, keep-alive ◀───────────────┘
//! ```
//!
//! `Reading` and `KeepAlive` sockets are reaped after `conn_idle_ms`
//! without progress — idle keep-alive peers and slow-loris drip-feeders
//! alike; a parked request's deadline fires in the same sweep ([`Ticket`]),
//! and so does the end of a response held back by a fired
//! `conn.write_stall`. Shutdown drains: the listener closes immediately,
//! idle connections close, in-flight requests finish their response
//! (bounded by a drain budget), and only then does the loop exit.
//!
//! Workers hand response segments to the loop through a per-connection
//! [`ConnOut`] queue, a shared ready list and a [`t2v_net::Waker`] (an
//! eventfd). Nothing that writes there blocks: every response is bounded
//! and produced whole, a stream as a few bounded lines.

use crate::access_log::AccessLog;
use crate::http::{self, Body, BodySink, Parse, Request, Response};
use crate::metrics::{Route, Scalar};
use crate::pool::contained;
use crate::routes::{self, write_read_error, Begun, Handled};
use crate::server::Shared;
use crate::translate::{self, AdminJob, Awaited, Early, OnLine, OnReply, Wait};
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use t2v_fault::{fire_delay, FaultPoint::ConnWriteStall};
use t2v_net::{BufferPool, Event, Interest, Poller, Waker};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Segments per `writev` call.
const MAX_IOVECS: usize = 16;

/// Read scratch size (one shared buffer, loop-local).
const READ_CHUNK: usize = 64 * 1024;

/// Stop draining a single readable socket into memory past this much
/// unparsed input; the level-triggered poller re-offers the rest.
const SOFT_IN_CAP: usize = 256 * 1024;

/// Requests served per connection per wake; then a pipelining client yields.
const INLINE_PER_WAKE: usize = 32;

/// How long shutdown waits for in-flight requests before force-closing.
const DRAIN_BUDGET: Duration = Duration::from_secs(5);

/// How long the listener stays parked after EMFILE/ENFILE.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

// ---------------------------------------------------------------------------
// Response segments: workers → loop
// ---------------------------------------------------------------------------

#[derive(Default)]
struct OutState {
    /// Queued response bytes; a cached body's `Arc` rides to `writev` uncopied.
    segs: VecDeque<Body>,
    /// Bytes of the front segment already written to the socket.
    front_written: usize,
    /// Set exactly once, when the response is sealed: keep-alive?
    done: Option<bool>,
    /// A fired `conn.write_stall` holds the sealed response back until then.
    hold: Option<Instant>,
    /// The loop closed the connection; writers fail fast from here on.
    closed: bool,
}

/// The per-connection output queue, shared by the loop and the thread
/// answering the connection.
type ConnOut = Mutex<OutState>;

/// What answering threads share with the loop: the wakeup fd and the list
/// of connections with fresh output. Wakes coalesce; duplicate tokens are
/// harmless (pumping is idempotent).
struct ReactorShared {
    waker: Waker,
    ready: Mutex<Vec<u64>>,
}

impl ReactorShared {
    fn notify(&self, token: u64) {
        lock(&self.ready).push(token);
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

/// The handle of a thread answering off the loop: what it framed into a
/// [`SegSink`] is queued with one lock and one wake, and never blocks.
/// Dropped unsealed (a panic, a job dropped at shutdown), it resolves the
/// connection as a close.
struct ConnWriter {
    out: Arc<ConnOut>,
    reactor: Arc<ReactorShared>,
    token: u64,
    sealed: bool,
}

impl ConnWriter {
    fn new(ctx: &Ctx<'_>, conn: &Conn) -> ConnWriter {
        ConnWriter {
            out: Arc::clone(&conn.out),
            reactor: Arc::clone(ctx.reactor),
            token: conn.token,
            sealed: false,
        }
    }

    /// Drop a writer the loop answers for: no verdict, no wake.
    fn disarm(&mut self) {
        self.sealed = true;
    }

    /// Queue `segs` and/or the keep-alive verdict with its hold. On a
    /// connection the loop already closed, bytes are dropped and a verdict
    /// means close.
    fn push(&self, segs: Vec<Body>, done: Option<bool>, stall: Option<Duration>) {
        let mut st = lock(&self.out);
        if !st.closed {
            st.segs.extend(segs);
        }
        if let Some(keep) = done {
            st.done = Some(keep && !st.closed);
            st.hold = stall.map(|d| Instant::now() + d);
        }
        drop(st);
        self.reactor.notify(self.token);
    }

    /// Seal the response: last bytes and verdict together; a fired write
    /// stall holds it back `stall` long.
    fn finish(mut self, segs: Vec<Body>, keep: bool, stall: Option<Duration>) {
        self.sealed = true;
        self.push(segs, Some(keep), stall);
    }
}

impl Drop for ConnWriter {
    fn drop(&mut self) {
        if !self.sealed {
            self.push(Vec::new(), Some(false), None);
        }
    }
}

// ---------------------------------------------------------------------------
// A request answered off the loop
// ---------------------------------------------------------------------------

/// What `routes::finish` needs of a request answered off the loop, and the
/// connection's writer.
struct Held {
    req: Box<Request>,
    begun: Begun,
    route: Route,
    writer: ConnWriter,
}

/// An admitted request the loop parked — how to answer it, and what it
/// waits on — handed to one side only: the reply that completes it, or the
/// loop's deadline timer.
type Ticket = Mutex<Option<(Held, Awaited)>>;

/// The [`OnReply`] of a parked request's job (`slot`: its batch item). The
/// reply is recorded; the one that completes the request ends it on the
/// worker — conclude, `routes::finish` into the connection, one wake —
/// unless the deadline took it first; then the reply is dropped, and
/// counted. Nothing here blocks: a batch item's retry is queued at once,
/// the access-log line is posted, and a write stall that fires becomes a
/// hold the loop releases.
fn reply_to(ticket: &Arc<Ticket>, shared: &Arc<Shared>, slot: usize) -> OnReply {
    let (ticket, shared) = (Arc::clone(ticket), Arc::clone(shared));
    Box::new(move |reply| {
        let mut claim = lock(&ticket);
        let Some((_, awaited)) = claim.as_mut() else {
            return shared.state.metrics.inc(Scalar::LateRepliesDropped);
        };
        let again = |slot| reply_to(&ticket, &shared, slot);
        if awaited.record(&shared, slot, reply, &again) {
            let (held, awaited) = claim.take().expect("a parked request");
            drop(claim);
            end_parked(&shared, held, awaited);
        }
    })
}

/// A parked stream's [`OnLine`]: each stage line goes straight into the
/// connection; after the deadline took the stream, nowhere.
fn lines_to(ticket: &Arc<Ticket>) -> OnLine {
    let ticket = Arc::clone(ticket);
    Box::new(move |line| {
        if let Some((held, _)) = lock(&ticket).as_ref() {
            let mut bytes = line.into_bytes();
            bytes.push(b'\n');
            held.writer.push(vec![bytes.into()], None, None);
        }
    })
}

/// End a parked request under its trace: on the worker whose reply
/// completed it (its job runs in the request's trace), or on the loop's
/// deadline timer, which enters the trace first.
fn end_parked(shared: &Shared, mut held: Held, awaited: Awaited) {
    let mut sink = SegSink::default();
    let handled = awaited.end(shared, &mut sink);
    if matches!(handled, Handled::Reply(_)) {
        held.begun.stall = fire_delay(ConnWriteStall);
    }
    answer(shared, held, handled, sink);
}

/// Frame an answer off the loop after what `sink` holds, and seal it into
/// the connection, held back by its write stall. The access-log line is
/// posted, never written here.
fn answer(shared: &Shared, held: Held, handled: Handled, mut sink: SegSink) {
    let (req, stall) = (&held.req, held.begun.stall);
    let post = |file: Arc<AccessLog>, line| file.post(line);
    let keep = routes::finish(
        shared, req, held.begun, held.route, handled, &mut sink, post,
    );
    held.writer.finish(sink.0, keep, stall);
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
    /// A parsed request waits on the pool: parked behind its ticket, or an
    /// admin job; or its sealed response is held back by a write stall.
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
    /// A parked request: when the loop stops waiting for its worker, and
    /// the claim the two race for.
    parked: Option<(Instant, Arc<Ticket>)>,
    /// When `pump` may write a response a fired write stall holds back.
    held: Option<Instant>,
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
    // The earliest timer — a parked deadline, a held response's release —
    // as of the last sweep.
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

        // -- connections whose workers produced output or finished, and
        //    pipelining ones that yielded their turn last wake --
        let ready = std::mem::take(&mut *lock(&reactor.ready));
        for token in ready {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            if drive(&ctx, conn) == Next::Close {
                close_conn(&mut conns, &poller, &mut pool, shared, token, false);
            }
        }

        // -- timers, one sweep: idle reaping (keep-alive peers gone quiet,
        //    slow-loris drips; not while draining), the deadlines of parked
        //    requests and the release of held responses, the earliest of
        //    which bounds the next wait --
        let now = Instant::now();
        let (mut reaped, mut expired, mut released) = (Vec::new(), Vec::new(), Vec::new());
        next_deadline = None;
        for (&token, c) in &conns {
            if drain_deadline.is_none()
                && c.idle()
                && now.duration_since(c.last_activity) >= idle_after
            {
                reaped.push(token);
            }
            let parked = c.parked.as_ref().map(|(at, _)| *at);
            for (at, due) in [(parked, &mut expired), (c.held, &mut released)] {
                match at {
                    Some(at) if at <= now => due.push(token),
                    Some(at) => next_deadline = Some(next_deadline.map_or(at, |n| n.min(at))),
                    None => {}
                }
            }
        }
        for token in reaped {
            close_conn(&mut conns, &poller, &mut pool, shared, token, true);
        }
        for token in expired {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            // Ended here as its worker would end it; the seal's wake drives
            // the connection on the next turn. Taken already: the worker's
            // answer is on its way.
            if let Some((held, awaited)) = conn.parked.take().and_then(|(_, t)| lock(&t).take()) {
                let _scope = held.begun.trace.scope();
                end_parked(shared, held, awaited);
            }
        }
        for token in released {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            if drive(&ctx, conn) == Next::Close {
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
                held: None,
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
                    // Contained like a pool job: a panic costs this socket.
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

/// Serve one parsed request. The loop routes it: what needs no wait goes
/// straight into the output queue and `pump` — nothing on that path
/// sleeps, touches a file or waits on the pool or a condvar, and its work
/// is bounded — what waits on the pool is admitted and parked
/// ([`admit_here`]), and an admin job is queued on the pool ([`run_job`]).
fn serve(ctx: &Ctx<'_>, conn: &mut Conn, req: Box<Request>, t0: Instant) -> Next {
    let shared = ctx.shared;
    let mut begun = routes::begin(shared, &req, t0, t0.elapsed());
    let (route, early) = routes::route(shared, &req, &mut begun);
    match early {
        Early::Reply(resp) => reply_here(ctx, conn, req, begun, route, resp),
        Early::Wait(wait) => admit_here(ctx, conn, req, begun, route, wait),
        Early::Job(job) => run_job(ctx, conn, req, begun, route, job),
    }
}

/// Frame a response produced on the loop into segments, queue them and
/// pump — no lock, no wake. A write stall that fired holds the response
/// back; the timer sweep releases it.
fn reply_here(
    ctx: &Ctx<'_>,
    conn: &mut Conn,
    req: Box<Request>,
    begun: Begun,
    route: Route,
    resp: Response,
) -> Next {
    let shared = ctx.shared;
    let hold = begun.stall.map(|d| Instant::now() + d);
    let mut sink = SegSink::default();
    // The access-log line is posted once the bytes are out.
    let mut line = None;
    let log = |file, text: String| line = Some((file, text));
    let reply = Handled::Reply(resp);
    let keep = routes::finish(shared, &req, begun, route, reply, &mut sink, log);
    if req.path.ends_with("/translate") {
        shared.state.metrics.inc(Scalar::InlineResponses);
    }
    queue_response(conn, sink.0, keep, hold);
    let next = pump(ctx, conn);
    if let Some((file, text)) = line {
        AccessLog::post(&file, text);
    }
    next
}

/// Leave the connection to the pool until its answer is sealed.
fn park(ctx: &Ctx<'_>, conn: &mut Conn) {
    conn.state = ConnState::Dispatched;
    set_interest(ctx, conn, Interest::NONE);
}

/// What waits on the pool — a single miss, a stream, a batch's misses: the
/// breaker, the pool and the refusal ladder run here, under the request's
/// trace, and none of them blocks. A refusal is answered here; what is
/// admitted is parked, and the worker whose reply completes it answers it.
/// The ticket stays locked until the request is parked, so a reply or a
/// stage line that comes first waits the few instructions it takes.
fn admit_here(
    ctx: &Ctx<'_>,
    conn: &mut Conn,
    req: Box<Request>,
    mut begun: Begun,
    route: Route,
    wait: Wait,
) -> Next {
    let shared = ctx.shared;
    let ticket = Arc::new(Ticket::default());
    let mut claim = lock(&ticket);
    let mut head = SegSink::default();
    let scope = begun.trace.scope();
    let reply = |slot| reply_to(&ticket, shared, slot);
    let awaited = match translate::start(shared, wait, &mut head, &reply, &|| lines_to(&ticket)) {
        Ok(awaited) => awaited,
        Err(resp) => {
            begun.stall = fire_delay(ConnWriteStall);
            drop(scope);
            return reply_here(ctx, conn, req, begun, route, resp);
        }
    };
    drop(scope);
    park(ctx, conn);
    conn.parked = Some((awaited.expires(), Arc::clone(&ticket)));
    // A stream's head goes out now, ahead of any stage line.
    lock(&conn.out).segs.extend(head.0);
    let writer = ConnWriter::new(ctx, conn);
    let held = Held {
        req,
        begun,
        route,
        writer,
    };
    *claim = Some((held, awaited));
    drop(claim);
    pump(ctx, conn)
}

/// An admin route that builds, drops or writes runs as a job on the
/// translation pool, which answers the connection. Refused, it is the
/// pool's 503, answered here.
fn run_job(
    ctx: &Ctx<'_>,
    conn: &mut Conn,
    req: Box<Request>,
    begun: Begun,
    route: Route,
    job: AdminJob,
) -> Next {
    let writer = ConnWriter::new(ctx, conn);
    let held = Held {
        req,
        begun,
        route,
        writer,
    };
    // The job takes it; a refused job leaves it here.
    let claim = Arc::new(Mutex::new(Some(held)));
    let (taken, shared) = (Arc::clone(&claim), Arc::clone(ctx.shared));
    park(ctx, conn);
    let queued = ctx.shared.pool.submit(move || {
        let Some(mut held) = lock(&taken).take() else {
            return;
        };
        let _scope = held.begun.trace.scope();
        let resp = job(&shared.state, &held.req);
        held.begun.stall = fire_delay(ConnWriteStall);
        answer(&shared, held, Handled::Reply(resp), SegSink::default());
    });
    let Some(mut held) = queued.is_err().then(|| lock(&claim).take()).flatten() else {
        return Next::Alive;
    };
    held.writer.disarm();
    let scope = held.begun.trace.scope();
    held.begun.stall = fire_delay(ConnWriteStall);
    drop(scope);
    let resp = translate::overloaded(ctx.shared);
    reply_here(ctx, conn, held.req, held.begun, held.route, resp)
}

/// Queue a whole response produced on the loop itself; the caller pumps.
fn queue_response(conn: &mut Conn, segs: Vec<Body>, keep: bool, hold: Option<Instant>) {
    let mut st = lock(&conn.out);
    st.segs.extend(segs);
    (st.done, st.hold) = (Some(keep), hold);
    drop(st);
    conn.state = ConnState::Writing;
}

/// Answer an unreadable request: queue the rendered error, then close.
fn queue_error_close(ctx: &Ctx<'_>, conn: &mut Conn, err: &http::ReadError) -> Next {
    let mut bytes: Vec<u8> = Vec::new();
    write_read_error(ctx.shared, err, &mut bytes);
    queue_response(conn, vec![bytes.into()], false, None);
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
/// apply the keep-alive verdict (the connection is idle again). A response
/// held back by a write stall waits for the timer sweep.
fn pump(ctx: &Ctx<'_>, conn: &mut Conn) -> Next {
    loop {
        let mut st = lock(&conn.out);
        conn.held = st.hold.filter(|&at| at > Instant::now());
        if conn.held.is_some() {
            drop(st);
            set_interest(ctx, conn, Interest::NONE);
            return Next::Alive;
        }
        st.hold = None;
        if st.segs.is_empty() {
            // Consumed, not read: the verdict belongs to exactly one
            // request — a follower on the same connection starts clean.
            let done = st.done.take();
            drop(st);
            match done {
                None => {
                    // Still executing (a stream between lines, or the job
                    // has not finished); nothing to write right now.
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
/// the pool, writers failing from here on, gauge decremented.
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
    if let Some((mut held, _)) = conn.parked.and_then(|(_, ticket)| lock(&ticket).take()) {
        held.writer.disarm();
    }
    {
        let mut st = lock(&conn.out);
        st.closed = true;
        st.segs.clear();
    }
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

    /// The containment the loop's inline stage and every pool job run
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
