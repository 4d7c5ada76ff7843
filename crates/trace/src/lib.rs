//! Request-scoped tracing and an always-on flight recorder for the serving
//! stack.
//!
//! One [`Trace`] is created per request at accept time and carries a 128-bit
//! id plus a monotonic span clock (`Instant` captured at creation; on x86
//! `Instant::now` is a vDSO `rdtsc` read). Child spans mark each stage
//! boundary — connection read, queue wait, cache lookup, embed, retrieve,
//! backend translate, degradation decisions, breaker verdicts, response
//! write — and are recorded into a fixed array of atomic slots inside the
//! trace: starting or ending a span is one clock read plus relaxed stores,
//! no allocation, no lock.
//!
//! Stages that run in *other crates* (the embedder, the GRED retrieval
//! seam, fault injection) must not depend on the serving layer, so the
//! active trace is published through a thread-local: the connection thread
//! and each worker install a [`Trace::scope`] guard, and leaf code calls the
//! free functions [`span`] / [`note`], which are near-free no-ops when no
//! trace is installed. The thread-local also carries the open-span stack,
//! so spans nest into a real tree (embed/retrieve become children of the
//! backend-translate span) without any explicit parent plumbing.
//!
//! Completed traces go to a [`Recorder`]: one ring keeping exactly the last
//! N traces, whichever thread stored them, behind one lock held for a push
//! and a pop per request; admin reads scan the ring. Whether a finished
//! trace is stored is the serving layer's decision (sampling knob +
//! always-record-on-slow/error override); [`sample_hit`] gives the
//! deterministic id-based sampling verdict.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant, SystemTime};

/// Span slots per trace. A request touches well under this many stage
/// boundaries; claims past the cap are counted (`dropped_spans`) and not
/// recorded.
pub const MAX_SPANS: usize = 24;

/// Notes (string annotations: fault firings, breaker verdicts, degradation
/// reasons) kept per trace.
const MAX_NOTES: usize = 32;

/// The span taxonomy. Wire names are stable — they appear in trace JSON,
/// access-log `stages` maps, and the `t2v_slow_requests_total{stage}`
/// metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum Stage {
    /// The implicit root covering the whole request.
    Request = 0,
    /// Reading + parsing the request off the socket (first byte to parsed).
    ConnRead = 1,
    /// Waiting in the worker pool queue before a worker picked the job up.
    QueueWait = 2,
    /// Translation-cache probe.
    CacheLookup = 3,
    /// Text embedding (NLQ and DVQ embeds both record here).
    Embed = 4,
    /// Top-k retrieval against the embedding library.
    Retrieve = 5,
    /// The backend's translate call end to end.
    Backend = 6,
    /// A degradation decision (stale-cache serve, fallback reroute, 503).
    Degrade = 7,
    /// A circuit-breaker admission verdict.
    Breaker = 8,
    /// Writing the response back to the socket.
    Write = 9,
}

/// Every stage, in wire order. The serving layer iterates this for the
/// per-stage slow-request counters.
pub const STAGES: [Stage; 10] = [
    Stage::Request,
    Stage::ConnRead,
    Stage::QueueWait,
    Stage::CacheLookup,
    Stage::Embed,
    Stage::Retrieve,
    Stage::Backend,
    Stage::Degrade,
    Stage::Breaker,
    Stage::Write,
];

impl Stage {
    pub fn name(self) -> &'static str {
        match self {
            Stage::Request => "request",
            Stage::ConnRead => "conn.read",
            Stage::QueueWait => "queue.wait",
            Stage::CacheLookup => "cache.lookup",
            Stage::Embed => "embed",
            Stage::Retrieve => "retrieve",
            Stage::Backend => "backend.translate",
            Stage::Degrade => "degrade",
            Stage::Breaker => "breaker",
            Stage::Write => "resp.write",
        }
    }

    fn from_u32(v: u32) -> Stage {
        STAGES.get(v as usize).copied().unwrap_or(Stage::Request)
    }
}

/// Sentinel parent index meaning "child of the implicit request root".
const ROOT: u32 = u32::MAX;
/// Sentinel duration meaning "span still open".
const OPEN: u64 = u64::MAX;

/// One span slot: written with relaxed stores by whichever thread runs the
/// stage, read once at finish. Readers after a finished request are ordered
/// by the reply's hand-off: in the serving layer the worker that ran the
/// job seals the trace itself, or the thread that takes the parked
/// request's ticket (a `Mutex`) after it, or the in-memory oracle's channel
/// receive. A request that times out may snapshot a straggler's spans as
/// still-open, which `finish` clamps — never a torn read, the fields are
/// individually atomic.
struct SpanSlot {
    stage: AtomicU32,
    parent: AtomicU32,
    start_ns: AtomicU64,
    dur_ns: AtomicU64,
}

impl SpanSlot {
    const fn empty() -> SpanSlot {
        SpanSlot {
            stage: AtomicU32::new(0),
            parent: AtomicU32::new(ROOT),
            start_ns: AtomicU64::new(0),
            dur_ns: AtomicU64::new(OPEN),
        }
    }
}

struct TraceInner {
    id: u128,
    /// Span clock origin (the moment the request's first byte arrived).
    t0: Instant,
    /// Wall-clock start, for access-log timestamps and recency ordering.
    wall_ms: u64,
    /// Slots claimed so far (may exceed `MAX_SPANS`; the excess is the
    /// dropped-span count).
    len: AtomicU32,
    slots: [SpanSlot; MAX_SPANS],
    /// Rare, off-hot-path string annotations keyed by span index.
    notes: Mutex<Vec<(u32, String)>>,
}

/// A live per-request trace handle: cheap to clone, `Send`, and carried
/// into worker-pool job closures. `inner == None` means recording is
/// disabled for this request (the id still exists for the response header)
/// and every span operation is a no-op.
#[derive(Clone)]
pub struct Trace {
    id: u128,
    inner: Option<Arc<TraceInner>>,
}

impl Trace {
    /// Start a trace whose span clock originates *now*.
    pub fn start(id: u128, record: bool) -> Trace {
        Trace::start_at(id, record, Instant::now())
    }

    /// Start a trace with an explicit clock origin — the serving layer
    /// passes the instant the request's first byte arrived, so the
    /// connection-read span (measured before the trace object exists) fits
    /// inside the timeline and span durations sum to the request latency.
    pub fn start_at(id: u128, record: bool, t0: Instant) -> Trace {
        let inner = record.then(|| {
            Arc::new(TraceInner {
                id,
                t0,
                wall_ms: unix_ms(),
                len: AtomicU32::new(0),
                slots: [const { SpanSlot::empty() }; MAX_SPANS],
                notes: Mutex::new(Vec::new()),
            })
        });
        Trace { id, inner }
    }

    pub fn id(&self) -> u128 {
        self.id
    }

    pub fn recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Install this trace as the thread's current trace for the guard's
    /// lifetime. Spans opened by [`span`] on this thread nest under it; the
    /// previous current trace (if any) is restored on drop.
    pub fn scope(&self) -> ScopeGuard {
        let prev = CURRENT.with(|c| {
            c.replace(self.inner.as_ref().map(|inner| Active {
                inner: Arc::clone(inner),
                stack: Vec::with_capacity(4),
                word: ROOT_WORD,
            }))
        });
        if self.inner.is_some() || prev.is_some() {
            publish_word(if self.inner.is_some() { ROOT_WORD } else { 0 });
        }
        ScopeGuard {
            prev: Some(prev),
            _not_send: PhantomData,
        }
    }

    /// Record an already-completed span (used for durations measured before
    /// the stage could open a guard: connection read, queue wait). Parent is
    /// the innermost open span if this trace is current on this thread,
    /// else the root.
    pub fn add_span(&self, stage: Stage, start: Instant, dur: Duration) {
        let Some(inner) = &self.inner else { return };
        let parent = CURRENT.with(|c| match &*c.borrow() {
            Some(a) if a.inner.id == inner.id => a.stack.last().copied().unwrap_or(ROOT),
            _ => ROOT,
        });
        let start_ns = start
            .checked_duration_since(inner.t0)
            .unwrap_or(Duration::ZERO)
            .as_nanos() as u64;
        inner.claim(stage, parent, start_ns, dur.as_nanos() as u64);
    }

    /// Open a span on this trace directly (ignores the thread-local
    /// current). Parent resolution matches [`Trace::add_span`].
    pub fn span(&self, stage: Stage) -> SpanGuard {
        match &self.inner {
            Some(inner) => open_span(Arc::clone(inner), stage),
            None => SpanGuard::noop(),
        }
    }

    /// Annotate the innermost open span (root if none) with a note.
    pub fn note(&self, msg: impl Into<String>) {
        let Some(inner) = &self.inner else { return };
        let idx = CURRENT.with(|c| match &*c.borrow() {
            Some(a) if a.inner.id == inner.id => a.stack.last().copied().unwrap_or(ROOT),
            _ => ROOT,
        });
        inner.push_note(idx, msg.into());
    }

    /// Seal the trace: snapshot every claimed slot, clamp still-open spans
    /// to the total, and attach the request-level fields. `None` when
    /// recording was disabled.
    pub fn finish(
        self,
        status: u16,
        tenant: &str,
        backend: &str,
        cache: &str,
        degraded: Option<&str>,
    ) -> Option<FinishedTrace> {
        self.finish_at(Instant::now(), status, tenant, backend, cache, degraded)
    }

    /// [`Trace::finish`] as of `end`: the total, and the clamp on spans
    /// still open, run from `t0` to `end` — a record sealed after the
    /// response was written reads as one sealed before it.
    pub fn finish_at(
        self,
        end: Instant,
        status: u16,
        tenant: &str,
        backend: &str,
        cache: &str,
        degraded: Option<&str>,
    ) -> Option<FinishedTrace> {
        let inner = self.inner?;
        let total_ns = end.saturating_duration_since(inner.t0).as_nanos() as u64;
        let claimed = inner.len.load(Ordering::Relaxed) as usize;
        let recorded = claimed.min(MAX_SPANS);
        let notes = std::mem::take(&mut *lock(&inner.notes));
        let mut spans = Vec::with_capacity(recorded + 1);
        spans.push(Span {
            stage: Stage::Request,
            start_ns: 0,
            dur_ns: total_ns,
            parent: None,
            notes: collect_notes(&notes, ROOT),
        });
        for i in 0..recorded {
            let slot = &inner.slots[i];
            let dur = slot.dur_ns.load(Ordering::Relaxed);
            let parent = slot.parent.load(Ordering::Relaxed);
            let start_ns = slot.start_ns.load(Ordering::Relaxed).min(total_ns);
            spans.push(Span {
                stage: Stage::from_u32(slot.stage.load(Ordering::Relaxed)),
                start_ns,
                dur_ns: if dur == OPEN {
                    total_ns - start_ns
                } else {
                    dur
                },
                // +1: the synthetic request root occupies index 0.
                parent: Some(if parent == ROOT { 0 } else { parent as u16 + 1 }),
                notes: collect_notes(&notes, i as u32),
            });
        }
        Some(FinishedTrace {
            id: inner.id,
            wall_ms: inner.wall_ms,
            tenant: tenant.into(),
            backend: backend.into(),
            cache: cache.into(),
            degraded: degraded.map(Into::into),
            status,
            total_ns,
            dropped_spans: claimed.saturating_sub(MAX_SPANS) as u32,
            spans,
        })
    }
}

impl TraceInner {
    /// Claim the next slot and fill it; relaxed stores only. Returns the
    /// slot index, or `None` when the trace is out of slots.
    fn claim(&self, stage: Stage, parent: u32, start_ns: u64, dur_ns: u64) -> Option<u32> {
        let idx = self.len.fetch_add(1, Ordering::Relaxed);
        if idx as usize >= MAX_SPANS {
            return None;
        }
        let slot = &self.slots[idx as usize];
        slot.stage.store(stage as u32, Ordering::Relaxed);
        slot.parent.store(parent, Ordering::Relaxed);
        slot.start_ns.store(start_ns, Ordering::Relaxed);
        slot.dur_ns.store(dur_ns, Ordering::Relaxed);
        Some(idx)
    }

    fn push_note(&self, idx: u32, msg: String) {
        let mut notes = lock(&self.notes);
        if notes.len() < MAX_NOTES {
            notes.push((idx, msg));
        }
    }
}

fn collect_notes(notes: &[(u32, String)], idx: u32) -> Vec<String> {
    notes
        .iter()
        .filter(|(i, _)| *i == idx)
        .map(|(_, n)| n.clone())
        .collect()
}

struct Active {
    inner: Arc<TraceInner>,
    /// Indices of the open spans on this thread, innermost last.
    stack: Vec<u32>,
    /// The stack pre-packed for export (see `publish_word`), maintained
    /// incrementally on push/pop so publishing is a single store.
    word: u64,
}

thread_local! {
    static CURRENT: RefCell<Option<Active>> = const { RefCell::new(None) };
}

// ---------------------------------------------------------------------------
// Stage-stack export (the profiler seam, DESIGN.md §15)
//
// The open-span stack above is thread-local — readable only by the thread
// that owns it. A wall-clock profiler needs to observe *other* threads'
// stacks, so each thread additionally publishes its stack into one shared
// `AtomicU64` whenever the stack changes: 4 bits of depth plus 4 bits per
// level (the `Stage` taxonomy has 10 variants, so a stage fits a nibble).
// A sampler then reads every registered thread's word at its own cadence —
// one relaxed load per thread per tick, no locks on the traced path, and a
// torn stack is impossible because the whole stack is one word.
//
// Publishing is off by default (`set_stack_export`); disabled, the hooks
// cost one relaxed load on span open/close of *recorded* traces only.

/// Deepest published stack: 15 levels of 4 bits + 4 bits of depth.
const STACK_EXPORT_DEPTH: usize = 15;

/// Global switch for stack publishing, flipped by the profiler.
static STACK_EXPORT: AtomicBool = AtomicBool::new(false);

/// Enable or disable stage-stack publishing process-wide. Threads start
/// publishing at their next span transition; disabling leaves stale words
/// behind, so samplers should stop reading first.
pub fn set_stack_export(on: bool) {
    STACK_EXPORT.store(on, Ordering::Relaxed);
    if !on {
        // Clear every published word so a re-enabled sampler never sees a
        // stack frozen from the previous session.
        if let Some(registry) = STACK_REGISTRY.get() {
            for slot in lock(registry).iter() {
                if let Some(cell) = slot.cell.upgrade() {
                    cell.store(0, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Whether stage-stack publishing is currently on.
pub fn stack_export_enabled() -> bool {
    STACK_EXPORT.load(Ordering::Relaxed)
}

struct StackSlot {
    thread: String,
    cell: Weak<AtomicU64>,
}

/// Every thread that ever published a stack, by registration order. Slots
/// of exited threads hold dead weaks and are pruned at sample time.
static STACK_REGISTRY: OnceLock<Mutex<Vec<StackSlot>>> = OnceLock::new();

thread_local! {
    /// This thread's published word. First access registers the thread;
    /// the `Arc` dies with the thread, leaving a prunable weak behind.
    static MY_STACK: Arc<AtomicU64> = {
        let cell = Arc::new(AtomicU64::new(0));
        let registry = STACK_REGISTRY.get_or_init(|| Mutex::new(Vec::new()));
        lock(registry).push(StackSlot {
            thread: std::thread::current().name().unwrap_or("unnamed").to_string(),
            cell: Arc::downgrade(&cell),
        });
        cell
    };
}

/// The export word for an empty stack: just the implicit request root.
/// Layout: bits [0,4) are the depth, level `i` (outermost = the implicit
/// request root) lives in bits [4+4i, 8+4i). Depth 0 means "not inside a
/// traced request".
const ROOT_WORD: u64 = ((Stage::Request as u64) << 4) | 1;

/// Re-pack an open-span stack from scratch. Only the rare defensive paths
/// (out-of-order guard drops) pay this walk; the usual push/pop maintain
/// `Active::word` incrementally.
fn repack(inner: &TraceInner, stack: &[u32]) -> u64 {
    let mut word = (Stage::Request as u64) << 4;
    let mut depth = 1u64;
    for &idx in stack.iter().take(STACK_EXPORT_DEPTH - 1) {
        let stage = inner.slots[idx as usize].stage.load(Ordering::Relaxed) as u64;
        word |= (stage & 0xF) << (4 + 4 * depth);
        depth += 1;
    }
    word | depth
}

/// Publish a pre-packed stack word if exporting is on. Called at every
/// stack transition (scope install/restore, span open/close); the word is
/// maintained incrementally by the callers, so the traced hot path pays
/// one relaxed load, one TLS access, and one relaxed store. `try_with`
/// keeps guard drops during thread teardown from aborting.
fn publish_word(word: u64) {
    if !STACK_EXPORT.load(Ordering::Relaxed) {
        return;
    }
    let _ = MY_STACK.try_with(|cell| cell.store(word, Ordering::Relaxed));
}

/// One thread's stage stack as observed by [`sample_stacks`]: outermost
/// stage first. Threads not inside a traced request are not reported.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledStack {
    pub thread: String,
    pub stages: Vec<Stage>,
}

/// Snapshot every registered thread's published stage stack (profiler
/// entry point). Prunes slots of exited threads as a side effect. Each
/// stack is internally consistent (one-word atomic read), but stacks of
/// different threads are not mutually synchronized — fine for sampling.
pub fn sample_stacks() -> Vec<SampledStack> {
    let Some(registry) = STACK_REGISTRY.get() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut slots = lock(registry);
    slots.retain(|slot| {
        let Some(cell) = slot.cell.upgrade() else {
            return false;
        };
        let word = cell.load(Ordering::Relaxed);
        let depth = (word & 0xF) as usize;
        if depth > 0 {
            let stages = (0..depth)
                .map(|i| Stage::from_u32(((word >> (4 + 4 * i)) & 0xF) as u32))
                .collect();
            out.push(SampledStack {
                thread: slot.thread.clone(),
                stages,
            });
        }
        true
    });
    out
}

/// Restores the previously-current trace when dropped. Not `Send`: it must
/// drop on the thread that created it.
pub struct ScopeGuard {
    prev: Option<Option<Active>>,
    _not_send: PhantomData<*mut ()>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            let changed = prev.is_some();
            let word = prev.as_ref().map_or(0, |a| a.word);
            let was_some = CURRENT.with(|c| c.replace(prev)).is_some();
            if changed || was_some {
                publish_word(word);
            }
        }
    }
}

/// Open a child span of the thread's current trace; records its duration
/// when dropped. A no-op (one thread-local read) when no trace is
/// installed, so callers open spans unconditionally.
pub fn span(stage: Stage) -> SpanGuard {
    let inner = CURRENT.with(|c| c.borrow().as_ref().map(|a| Arc::clone(&a.inner)));
    match inner {
        Some(inner) => open_span(inner, stage),
        None => SpanGuard::noop(),
    }
}

fn open_span(inner: Arc<TraceInner>, stage: Stage) -> SpanGuard {
    let (parent, same_trace) = CURRENT.with(|c| match &*c.borrow() {
        Some(a) if a.inner.id == inner.id => (a.stack.last().copied().unwrap_or(ROOT), true),
        _ => (ROOT, false),
    });
    let start_ns = inner.t0.elapsed().as_nanos() as u64;
    let idx = inner.claim(stage, parent, start_ns, OPEN);
    if let (Some(idx), true) = (idx, same_trace) {
        let word = CURRENT.with(|c| match &mut *c.borrow_mut() {
            Some(a) => {
                a.stack.push(idx);
                // The new top is level `len` (root is level 0); it fits the
                // word while the packed depth `len + 1` stays ≤ the cap.
                let lvl = a.stack.len() as u64;
                if lvl < STACK_EXPORT_DEPTH as u64 {
                    a.word = (a.word & !0xF) | ((stage as u64 & 0xF) << (4 + 4 * lvl)) | (lvl + 1);
                }
                a.word
            }
            None => 0,
        });
        publish_word(word);
    }
    SpanGuard {
        inner: idx.map(|idx| (inner, idx)),
        on_stack: idx.is_some() && same_trace,
        _not_send: PhantomData,
    }
}

/// Annotate the innermost open span of the thread's current trace. Used by
/// fault injection ("fault:backend.error"), breaker verdicts, degradation
/// reasons. No-op without a current trace.
pub fn note(msg: impl Into<String>) {
    CURRENT.with(|c| {
        if let Some(a) = &*c.borrow() {
            let idx = a.stack.last().copied().unwrap_or(ROOT);
            a.inner.push_note(idx, msg.into());
        }
    });
}

/// The thread's current trace, if one is installed (cloned handle).
pub fn current() -> Option<Trace> {
    CURRENT.with(|c| {
        c.borrow().as_ref().map(|a| Trace {
            id: a.inner.id,
            inner: Some(Arc::clone(&a.inner)),
        })
    })
}

/// Closes the span (one clock read + one relaxed store) on drop. Not
/// `Send`: the open-span stack is thread-local.
pub struct SpanGuard {
    inner: Option<(Arc<TraceInner>, u32)>,
    on_stack: bool,
    _not_send: PhantomData<*mut ()>,
}

impl SpanGuard {
    fn noop() -> SpanGuard {
        SpanGuard {
            inner: None,
            on_stack: false,
            _not_send: PhantomData,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((inner, idx)) = self.inner.take() else {
            return;
        };
        let slot = &inner.slots[idx as usize];
        let now_ns = inner.t0.elapsed().as_nanos() as u64;
        let start = slot.start_ns.load(Ordering::Relaxed);
        slot.dur_ns
            .store(now_ns.saturating_sub(start), Ordering::Relaxed);
        if self.on_stack {
            let word = CURRENT.with(|c| match &mut *c.borrow_mut() {
                Some(a) => {
                    // Guards drop LIFO, so the top is ours; be defensive
                    // about out-of-order drops anyway.
                    if a.stack.last() == Some(&idx) {
                        a.stack.pop();
                        // The popped span sat at level `len + 1`; it was in
                        // the word only if that level fit under the cap.
                        let lvl = a.stack.len() as u64 + 1;
                        if lvl < STACK_EXPORT_DEPTH as u64 {
                            a.word = (a.word & !(0xF << (4 + 4 * lvl)) & !0xF) | lvl;
                        }
                    } else {
                        a.stack.retain(|&i| i != idx);
                        a.word = repack(&a.inner, &a.stack);
                    }
                    a.word
                }
                None => 0,
            });
            publish_word(word);
        }
    }
}

/// One completed span in a sealed trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub stage: Stage,
    /// Offset from the trace origin.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// Index into [`FinishedTrace::spans`]; `None` only for the request
    /// root at index 0.
    pub parent: Option<u16>,
    pub notes: Vec<String>,
}

/// A sealed, immutable trace as stored in the flight recorder and served
/// by the admin endpoints. `spans[0]` is always the request root.
#[derive(Debug, Clone)]
pub struct FinishedTrace {
    pub id: u128,
    /// Unix millis at request start.
    pub wall_ms: u64,
    pub tenant: Box<str>,
    pub backend: Box<str>,
    /// Cache outcome: "hit" / "stale" / "miss" / "bypass".
    pub cache: Box<str>,
    /// Degradation marker (e.g. "fallback:gred"), if the request degraded.
    pub degraded: Option<Box<str>>,
    pub status: u16,
    pub total_ns: u64,
    pub dropped_spans: u32,
    pub spans: Vec<Span>,
}

impl FinishedTrace {
    /// The stage that dominated the request by *self time* (duration minus
    /// direct children), excluding the root. This is what
    /// `t2v_slow_requests_total{stage}` attributes a slow request to.
    pub fn dominant_stage(&self) -> Stage {
        let mut self_ns: Vec<u64> = self.spans.iter().map(|s| s.dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let p = p as usize;
                self_ns[p] = self_ns[p].saturating_sub(s.dur_ns);
            }
        }
        self.spans
            .iter()
            .zip(&self_ns)
            .skip(1)
            .max_by_key(|(_, &ns)| ns)
            .map(|(s, _)| s.stage)
            .unwrap_or(Stage::Request)
    }

    /// Total nanoseconds spent in `stage` (summed across its spans).
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.dur_ns)
            .sum()
    }
}

/// Deterministic id-based sampling verdict: a given id always answers the
/// same (a retried request keeps its sampling fate), and the id is mixed
/// first so even a sequential id stream stores ~the requested fraction.
pub fn sample_hit(id: u128, sample: f64) -> bool {
    if sample >= 1.0 {
        return true;
    }
    if sample <= 0.0 {
        return false;
    }
    let mut z = (id as u64) ^ ((id >> 64) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    (z % 1_000_000) < (sample * 1_000_000.0) as u64
}

/// Format a trace id the way it rides in `x-t2v-trace-id`: 32 hex chars.
pub fn format_id(id: u128) -> String {
    format!("{id:032x}")
}

/// Parse a header/path trace id back; `None` on malformed input.
pub fn parse_id(s: &str) -> Option<u128> {
    if s.len() != 32 {
        return None;
    }
    u128::from_str_radix(s, 16).ok()
}

/// Generate a fresh 128-bit trace id: wall-clock nanos in the high bits
/// (so ids sort roughly by time), a process-global counter in the low bits
/// (so ids are unique within a process even within one clock tick), mixed
/// so low-bit sampling sees a uniform stream.
pub fn new_trace_id() -> u128 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let seq = COUNTER.fetch_add(1, Ordering::Relaxed);
    let nanos = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .unwrap_or(Duration::ZERO)
        .as_nanos() as u64;
    // SplitMix64-style finalizer decorrelates the sequential counter.
    let mut z = seq.wrapping_add(0x9e37_79b9_7f4a_7c15) ^ nanos.rotate_left(17);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    ((nanos as u128) << 64) | z as u128
}

fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .unwrap_or(Duration::ZERO)
        .as_millis() as u64
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The flight recorder: the last `capacity` completed traces in one ring.
pub struct Recorder {
    ring: Mutex<VecDeque<Arc<FinishedTrace>>>,
    capacity: usize,
}

impl Recorder {
    /// `capacity` is the trace count kept; 0 disables storage entirely.
    pub fn new(capacity: usize) -> Recorder {
        Recorder {
            ring: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            capacity,
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Store a sealed trace, evicting the oldest.
    pub fn store(&self, trace: Arc<FinishedTrace>) {
        if self.capacity == 0 {
            return;
        }
        let mut ring = lock(&self.ring);
        if ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// Look a trace up by id (a scan; rings are small).
    pub fn get(&self, id: u128) -> Option<Arc<FinishedTrace>> {
        lock(&self.ring).iter().find(|t| t.id == id).cloned()
    }

    /// The most recent stored traces, newest first, optionally filtered by
    /// tenant and a minimum total duration.
    pub fn recent(
        &self,
        tenant: Option<&str>,
        min_total_ns: u64,
        limit: usize,
    ) -> Vec<Arc<FinishedTrace>> {
        let mut all: Vec<Arc<FinishedTrace>> = lock(&self.ring)
            .iter()
            .filter(|t| t.total_ns >= min_total_ns && tenant.is_none_or(|want| &*t.tenant == want))
            .cloned()
            .collect();
        all.sort_by(|a, b| b.wall_ms.cmp(&a.wall_ms).then(b.id.cmp(&a.id)));
        all.truncate(limit);
        all
    }

    pub fn len(&self) -> usize {
        lock(&self.ring).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finish(t: Trace) -> FinishedTrace {
        t.finish(200, "default", "gred", "miss", None).unwrap()
    }

    #[test]
    fn spans_nest_into_a_tree_via_the_thread_local_stack() {
        let t = Trace::start(1, true);
        let _g = t.scope();
        {
            let _backend = span(Stage::Backend);
            {
                let _embed = span(Stage::Embed);
            }
            {
                let _retrieve = span(Stage::Retrieve);
            }
        }
        let _write = span(Stage::Write);
        drop(_write);
        let ft = finish(t);
        assert_eq!(ft.spans[0].stage, Stage::Request);
        let backend = ft
            .spans
            .iter()
            .position(|s| s.stage == Stage::Backend)
            .unwrap();
        let embed = ft.spans.iter().find(|s| s.stage == Stage::Embed).unwrap();
        let retrieve = ft
            .spans
            .iter()
            .find(|s| s.stage == Stage::Retrieve)
            .unwrap();
        let write = ft.spans.iter().find(|s| s.stage == Stage::Write).unwrap();
        assert_eq!(embed.parent, Some(backend as u16));
        assert_eq!(retrieve.parent, Some(backend as u16));
        assert_eq!(write.parent, Some(0), "top-level span hangs off the root");
        assert_eq!(ft.dropped_spans, 0);
    }

    #[test]
    fn no_current_trace_means_free_noop() {
        let g = span(Stage::Embed);
        drop(g);
        note("nobody hears this");
        assert!(current().is_none());
    }

    #[test]
    fn disabled_trace_records_nothing_and_finishes_to_none() {
        let t = Trace::start(7, false);
        assert!(!t.recording());
        let _g = t.scope();
        let _s = span(Stage::Backend);
        assert!(current().is_none(), "disabled scope installs nothing");
        drop(_s);
        assert!(t.finish(200, "d", "b", "miss", None).is_none());
    }

    #[test]
    fn scope_restores_the_previous_trace() {
        let outer = Trace::start(1, true);
        let inner = Trace::start(2, true);
        let _og = outer.scope();
        assert_eq!(current().unwrap().id(), 1);
        {
            let _ig = inner.scope();
            assert_eq!(current().unwrap().id(), 2);
        }
        assert_eq!(current().unwrap().id(), 1);
    }

    #[test]
    fn notes_attach_to_the_innermost_open_span() {
        let t = Trace::start(3, true);
        let _g = t.scope();
        {
            let _b = span(Stage::Backend);
            note("fault:backend.error");
        }
        t.note("root-level");
        let ft = finish(t);
        let backend = ft.spans.iter().find(|s| s.stage == Stage::Backend).unwrap();
        assert_eq!(backend.notes, vec!["fault:backend.error".to_string()]);
        assert_eq!(ft.spans[0].notes, vec!["root-level".to_string()]);
    }

    #[test]
    fn stack_export_publishes_nested_stages_and_clears_on_drop() {
        // Run on a dedicated named thread: sibling tests trace on their own
        // threads concurrently, so assertions filter by thread name.
        std::thread::Builder::new()
            .name("t2v-stackexp".to_string())
            .spawn(|| {
                let mine = |stacks: &[SampledStack]| {
                    stacks.iter().find(|s| s.thread == "t2v-stackexp").cloned()
                };
                // Export off: nothing is published even inside spans.
                let t = Trace::start(21, true);
                {
                    let _g = t.scope();
                    let _b = span(Stage::Backend);
                    assert!(mine(&sample_stacks()).is_none());
                }
                set_stack_export(true);
                {
                    let _g = t.scope();
                    let _b = span(Stage::Backend);
                    let _e = span(Stage::Embed);
                    let got = mine(&sample_stacks()).expect("stack published");
                    assert_eq!(
                        got.stages,
                        vec![Stage::Request, Stage::Backend, Stage::Embed]
                    );
                }
                // Scope dropped: the published word is empty again.
                assert!(mine(&sample_stacks()).is_none());
                set_stack_export(false);
            })
            .unwrap()
            .join()
            .unwrap();
    }

    #[test]
    fn add_span_records_pre_measured_durations_inside_the_timeline() {
        let t0 = Instant::now();
        let t = Trace::start_at(11, true, t0);
        t.add_span(Stage::ConnRead, t0, Duration::from_micros(50));
        let ft = finish(t);
        let read = ft
            .spans
            .iter()
            .find(|s| s.stage == Stage::ConnRead)
            .unwrap();
        assert_eq!(read.start_ns, 0);
        assert_eq!(read.dur_ns, 50_000);
        assert_eq!(read.parent, Some(0));
    }

    #[test]
    fn open_spans_are_clamped_at_finish() {
        let t = Trace::start(5, true);
        let _g = t.scope();
        let leaked = span(Stage::Backend);
        let ft = finish(t.clone());
        let backend = ft.spans.iter().find(|s| s.stage == Stage::Backend).unwrap();
        assert!(backend.dur_ns <= ft.total_ns);
        drop(leaked);
    }

    #[test]
    fn slot_overflow_is_counted_not_recorded() {
        let t = Trace::start(6, true);
        let _g = t.scope();
        for _ in 0..(MAX_SPANS + 5) {
            let _s = span(Stage::Embed);
        }
        let ft = finish(t);
        assert_eq!(ft.spans.len(), MAX_SPANS + 1, "root + full slots");
        assert_eq!(ft.dropped_spans, 5);
    }

    #[test]
    fn worker_thread_records_into_the_same_trace() {
        let t = Trace::start(8, true);
        let handle = t.clone();
        std::thread::spawn(move || {
            let _g = handle.scope();
            let _s = span(Stage::Backend);
            note("on-worker");
        })
        .join()
        .unwrap();
        let ft = finish(t);
        let backend = ft.spans.iter().find(|s| s.stage == Stage::Backend).unwrap();
        assert_eq!(backend.notes, vec!["on-worker".to_string()]);
    }

    #[test]
    fn dominant_stage_uses_self_time() {
        let mk = |stage, start_ms: u64, dur_ms: u64, parent| Span {
            stage,
            start_ns: start_ms * 1_000_000,
            dur_ns: dur_ms * 1_000_000,
            parent,
            notes: Vec::new(),
        };
        let ft = FinishedTrace {
            id: 1,
            wall_ms: 0,
            tenant: "default".into(),
            backend: "gred".into(),
            cache: "miss".into(),
            degraded: None,
            status: 200,
            total_ns: 10_000_000,
            dropped_spans: 0,
            spans: vec![
                mk(Stage::Request, 0, 10, None),
                mk(Stage::Backend, 0, 9, Some(0)),
                // 8 of backend.translate's 9 ms are really retrieval.
                mk(Stage::Retrieve, 0, 8, Some(1)),
            ],
        };
        assert_eq!(ft.dominant_stage(), Stage::Retrieve);
        assert_eq!(ft.stage_ns(Stage::Backend), 9_000_000);
    }

    #[test]
    fn sampling_is_deterministic_and_proportional() {
        assert!(sample_hit(123, 1.0));
        assert!(!sample_hit(123, 0.0));
        let hits = (0..10_000u128).filter(|&id| sample_hit(id, 0.25)).count();
        assert!((2_300..=2_700).contains(&hits), "got {hits}");
        for id in 0..100u128 {
            assert_eq!(sample_hit(id, 0.5), sample_hit(id, 0.5));
        }
    }

    #[test]
    fn trace_ids_format_roundtrip_and_are_unique() {
        let a = new_trace_id();
        let b = new_trace_id();
        assert_ne!(a, b);
        let s = format_id(a);
        assert_eq!(s.len(), 32);
        assert_eq!(parse_id(&s), Some(a));
        assert_eq!(parse_id("xyz"), None);
        assert_eq!(parse_id(""), None);
    }

    fn stored(id: u128, tenant: &str, total_ms: u64, wall_ms: u64) -> Arc<FinishedTrace> {
        Arc::new(FinishedTrace {
            id,
            wall_ms,
            tenant: tenant.into(),
            backend: "gred".into(),
            cache: "miss".into(),
            degraded: None,
            status: 200,
            total_ns: total_ms * 1_000_000,
            dropped_spans: 0,
            spans: Vec::new(),
        })
    }

    #[test]
    fn recorder_stores_looks_up_and_evicts() {
        let r = Recorder::new(16);
        for i in 0..100u128 {
            r.store(stored(i, "default", 1, i as u64));
        }
        // Exactly the last 16, though one thread stored them all.
        assert_eq!(r.len(), 16);
        assert!((84..100).all(|id| r.get(id).is_some()), "newest 16 survive");
        assert!(r.get(83).is_none(), "older evicted");
        assert_eq!(Recorder::new(1).capacity(), 1);
        let off = Recorder::new(0);
        off.store(stored(1, "default", 1, 1));
        assert!(off.is_empty());
        assert!(off.get(1).is_none());
    }

    #[test]
    fn recorder_recent_filters_by_tenant_and_min_duration() {
        let r = Recorder::new(64);
        r.store(stored(1, "acme", 5, 10));
        r.store(stored(2, "globex", 50, 20));
        r.store(stored(3, "acme", 500, 30));
        let recent = r.recent(None, 0, 10);
        assert_eq!(recent.len(), 3);
        assert_eq!(recent[0].id, 3, "newest first");
        let acme = r.recent(Some("acme"), 0, 10);
        assert!(acme.iter().all(|t| &*t.tenant == "acme"));
        assert_eq!(acme.len(), 2);
        let slow = r.recent(None, 100_000_000, 10);
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].id, 3);
        assert_eq!(r.recent(None, 0, 1).len(), 1);
    }

    #[test]
    fn recorder_is_safe_under_concurrent_stores() {
        let r = Arc::new(Recorder::new(32));
        std::thread::scope(|s| {
            for t in 0..4u128 {
                let r = Arc::clone(&r);
                s.spawn(move || {
                    for i in 0..500u128 {
                        r.store(stored(t * 1000 + i, "default", 1, i as u64));
                    }
                });
            }
        });
        assert!(r.len() <= r.capacity());
        assert!(!r.recent(None, 0, 100).is_empty());
    }
}
