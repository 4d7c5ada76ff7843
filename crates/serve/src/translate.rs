//! Translating: one resolved `Item`, one item path, three endpoints
//! (`POST /v1/translate`, its NDJSON streaming variant, and
//! `POST /v1/translate/batch`).
//!
//! Every item starts in `probe` (resolve → key → cache lookup → count).
//! Each endpoint is split where waiting starts: the early stage
//! ([`translate_early`], [`batch_early`]) answers errors and fresh hits and
//! leaves what must wait as a [`Wait`], whose admission ([`start`]) never
//! blocks. What it admits is an [`Awaited`]: the event loop parks it, and
//! the worker whose reply completes it answers the connection
//! (`crate::event`); the in-memory oracle waits on it on its own thread
//! ([`settle`]). Either transport ends it with [`Awaited::end`].
//!
//! Every cold translation enters the worker pool through
//! `admit_and_submit` — breaker admission, pool submission, and the
//! half-open probe released if the pool refuses — with an [`OnReply`] that
//! says where the job's reply goes. A non-streamed item then walks one
//! path: `admit` (on refusal: stale cache → `gred` fallback → 503) and
//! `conclude` (from the reply, or on timeout: stale cache → 504). Either
//! ends in one `Outcome`, which the single endpoint frames, a batch
//! appends as one result and a stream writes as its final line.
//! DESIGN.md §11 has the table.

use crate::breaker::{Admission, CircuitBreaker};
use crate::cache::Lookup;
use crate::config::ServeConfig;
use crate::http::{self, Body, BodySink, Request, Response};
use crate::metrics::{Hist, Metrics, Scalar};
use crate::pool::JobEnd;
use crate::routes::Handled;
use crate::server::{CacheKey, DbEntry, ServerState, Shared, TenantRuntime};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use t2v_core::{
    StageRecord, StageSink, TranslateError, TranslateRequest, TranslateResponse, Translator,
};
use t2v_engine::{execute, Json};
use t2v_fault::FaultPoint;
use t2v_trace::{Stage, Trace};

/// What the worker pool hands back for one translation: the serialised body
/// plus the HTTP status the connection thread frames it with. Translation
/// outcomes — including structured translation-level errors like
/// `no_output` — are 200 by the v1 contract; `internal` failures (bugs,
/// injected faults, a worker that died mid-job) are 500, and a job whose
/// deadline was already spent when a worker picked it up is 504.
#[derive(Clone)]
pub struct Reply {
    pub status: u16,
    pub body: Arc<Vec<u8>>,
}

/// Lowercase + collapse runs of whitespace: the embedder tokenizes
/// case-insensitively on non-alphanumerics, so NLQs that normalise equal
/// translate identically and may share a cache entry.
pub fn normalize_nlq(nlq: &str) -> String {
    let mut out = String::with_capacity(nlq.len());
    let mut pending_space = false;
    if nlq.is_ascii() {
        // Byte by byte: the same whitespace set (`char::is_whitespace`
        // counts U+000B, `u8::is_ascii_whitespace` does not) and the same
        // lowercase, without the Unicode tables.
        for b in nlq.bytes() {
            if (b as char).is_whitespace() {
                pending_space = !out.is_empty();
            } else {
                if pending_space {
                    out.push(' ');
                    pending_space = false;
                }
                out.push(b.to_ascii_lowercase() as char);
            }
        }
        return out;
    }
    for c in nlq.chars() {
        if c.is_whitespace() {
            pending_space = !out.is_empty();
        } else {
            if pending_space {
                out.push(' ');
                pending_space = false;
            }
            out.extend(c.to_lowercase());
        }
    }
    out
}

fn opt_str(s: &Option<String>) -> Json {
    match s {
        Some(s) => Json::str(s.as_str()),
        None => Json::Null,
    }
}

fn stages_json(stages: &[StageRecord]) -> Json {
    Json::Arr(
        stages
            .iter()
            .map(|s| Json::obj([("name", Json::str(s.name)), ("dvq", opt_str(&s.dvq))]))
            .collect(),
    )
}

/// One NDJSON stage line of a stream, timings included: stream lines are
/// never cached.
fn stage_line(s: &StageRecord) -> String {
    let micros = Json::Num(s.micros as f64);
    let stage = [
        ("name", Json::str(s.name)),
        ("dvq", opt_str(&s.dvq)),
        ("micros", micros),
    ];
    Json::obj([("stage", Json::obj(stage))]).compact()
}

/// Serialise one translation outcome as the `/v1/translate` response body.
/// Pure and timing-free: the same inputs always serialise the same bytes,
/// which is what makes cache hits bit-identical to cold translations
/// (stage timings go to the per-backend metrics histograms instead).
/// Failures are structured `{"error": {"code", "message"}}` objects from
/// the [`TranslateError`] taxonomy.
pub fn render_translation(
    backend_id: &str,
    nlq_normalized: &str,
    entry: &DbEntry,
    want_vegalite: bool,
    result: &Result<TranslateResponse, TranslateError>,
) -> Vec<u8> {
    let mut body = Json::obj([
        ("backend", Json::str(backend_id)),
        ("db", Json::str(entry.db.id.as_str())),
        ("nlq", Json::str(nlq_normalized)),
    ]);
    match result {
        Ok(resp) => {
            body.set("stages", stages_json(&resp.stages));
            body.set("dvq", Json::str(resp.dvq.as_str()));
            if want_vegalite {
                match t2v_dvq::parse(&resp.dvq) {
                    Ok(q) => match execute(&q, &entry.store) {
                        Ok(rs) => body.set("vegalite", t2v_engine::to_vegalite(&q, &rs)),
                        Err(e) => {
                            body.set("vegalite", Json::Null);
                            body.set("vegalite_error", Json::str(format!("{e:?}")));
                        }
                    },
                    Err(e) => {
                        body.set("vegalite", Json::Null);
                        body.set("vegalite_error", Json::str(format!("{e}")));
                    }
                }
            }
        }
        Err(e) => {
            let stages: &[StageRecord] = match e {
                TranslateError::NoOutput { stages, .. }
                | TranslateError::InvalidOutput { stages, .. } => stages,
                _ => &[],
            };
            body.set("stages", stages_json(stages));
            body.set("dvq", Json::Null);
            body.set(
                "error",
                Json::obj([
                    ("code", Json::str(e.code())),
                    ("message", Json::str(e.to_string())),
                ]),
            );
        }
    }
    body.compact().into_bytes()
}

/// Run one translation through `backend` and serialise it — the body the
/// worker pool computes on a cache miss.
pub fn translate_body(
    backend: &dyn Translator,
    backend_id: &str,
    nlq_normalized: &str,
    entry: &DbEntry,
    want_vegalite: bool,
) -> Vec<u8> {
    let result = backend.translate(&TranslateRequest::new(nlq_normalized, &entry.db));
    render_translation(backend_id, nlq_normalized, entry, want_vegalite, &result)
}

/// One parsed-and-resolved translate item (shared by the single and batch
/// endpoints). Holds its tenant runtime: a detach mid-request cannot pull
/// the registry, databases, or metrics out from under the translation.
struct Item {
    tenant: Arc<TenantRuntime>,
    backend_idx: usize,
    backend_id: String,
    backend: Arc<dyn Translator>,
    entry: Arc<DbEntry>,
    /// Made once, at resolution: tenant epoch, backend index, normalised
    /// NLQ, db fingerprint, and whether the response carries Vega-Lite.
    key: CacheKey,
}

/// Parse one translate object (`{"nlq", "db", "backend"?, "vegalite"?}`)
/// against the tenant's registry and database set.
fn resolve_item(tenant: &Arc<TenantRuntime>, parsed: &Json) -> Result<Item, Response> {
    let Some(nlq) = parsed.get("nlq").and_then(Json::as_str) else {
        return Err(Response::error(400, "missing string field 'nlq'"));
    };
    let Some(db_id) = parsed.get("db").and_then(Json::as_str) else {
        return Err(Response::error(400, "missing string field 'db'"));
    };
    let backend_req = optional(parsed, "backend", Json::as_str, "a string")?;
    let want_vegalite = optional(parsed, "vegalite", Json::as_bool, "a boolean")?.unwrap_or(false);
    let (backend_idx, backend_id, backend) = match tenant.registry.resolve(backend_req) {
        Ok((i, id, b)) => (i, id.to_string(), Arc::clone(b)),
        Err(unknown) => {
            let ids = tenant.registry.ids().collect::<Vec<_>>().join(", ");
            let message = format!("unknown backend '{unknown}' (registered: {ids})");
            return Err(Response::error_code(404, "unknown_backend", &message));
        }
    };
    let nlq = normalize_nlq(nlq);
    if nlq.is_empty() {
        return Err(Response::error_code(400, "empty_query", "'nlq' is empty"));
    }
    let Some(entry) = tenant.dbs.get(db_id) else {
        let message = format!("unknown database '{db_id}'");
        return Err(Response::error_code(404, "unknown_database", &message));
    };
    let key = (
        tenant.epoch,
        backend_idx as u16,
        nlq.into(),
        entry.fingerprint,
        want_vegalite,
    );
    Ok(Item {
        tenant: Arc::clone(tenant),
        backend_idx,
        backend_id,
        backend,
        entry: Arc::clone(entry),
        key,
    })
}

/// An optional field of a translate object: absent is `None`; present but
/// not `kind` is a 400.
fn optional<'a, T>(
    parsed: &'a Json,
    field: &str,
    get: fn(&'a Json) -> Option<T>,
    kind: &str,
) -> Result<Option<T>, Response> {
    let wrong = || Response::error(400, &format!("field '{field}' must be {kind}"));
    parsed
        .get(field)
        .map(|v| get(v).ok_or_else(wrong))
        .transpose()
}

impl Item {
    /// The per-backend family member this item charges: that family
    /// indexes the startup registry, so only the default tenant's do.
    fn charged_backend(&self) -> Option<usize> {
        self.tenant.is_default.then_some(self.backend_idx)
    }

    fn record_cache(&self, metrics: &Metrics, hit: bool) {
        metrics.record_cache(&self.tenant.metrics, self.charged_backend(), hit);
    }

    /// The circuit breaker guarding this item's tenant × backend.
    fn breaker(&self) -> &Arc<CircuitBreaker> {
        &self.tenant.breakers[self.backend_idx]
    }
}

/// Where a pool job's reply goes: the continuation of a request the event
/// loop parked, or the in-memory oracle's channel.
pub(crate) type OnReply = Box<dyn FnOnce(Reply) + Send>;

/// Where a stream's NDJSON stage lines go, as the worker produces them.
pub(crate) type OnLine = Box<dyn Fn(String) + Send>;

/// Run one translation so that a panic costs its request, not the worker:
/// the panic is counted and recorded on the breaker first, and then the
/// structured 500 that answers it is returned — so no client sees its 500
/// before `/metrics` counts the panic.
fn answer_contained(
    metrics: &Metrics,
    breaker: &CircuitBreaker,
    translate: impl FnOnce() -> Reply,
) -> Reply {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(translate)).unwrap_or_else(|_| {
        metrics.inc(Scalar::WorkerPanics);
        if breaker.record(false, 0) {
            metrics.inc(Scalar::BreakerOpens);
        }
        error_reply(500, "translation worker failed")
    })
}

/// A structured-error [`Reply`] (the body reuses the HTTP error envelope).
fn error_reply(status: u16, message: &str) -> Reply {
    Reply {
        status,
        body: Arc::new(http::error_body(http::default_error_code(status), message)),
    }
}

/// The effective deadline for one request: the `deadline_ms` knob, lowered
/// — never raised — by an `X-T2V-Deadline-Ms` header. `None` when both are
/// unset (deadlines disabled).
fn request_deadline(config: &ServeConfig, req: &Request, started: Instant) -> Option<Instant> {
    let mut ms = config.deadline_ms;
    if let Some(h) = req.header("x-t2v-deadline-ms") {
        if let Ok(v) = h.trim().parse::<u64>() {
            if v > 0 {
                ms = if ms == 0 { v } else { ms.min(v) };
            }
        }
    }
    (ms > 0).then(|| started + Duration::from_millis(ms))
}

/// Splice `,"<field>":<raw>` into a serialised JSON object body. Degradation
/// marks and inline traces are added this way *after* the cache, so cached
/// bodies stay byte-identical across plain requests.
pub(crate) fn splice_field(body: &[u8], field: &str, raw: &str) -> Vec<u8> {
    match body.last() {
        Some(b'}') => {
            let mut out = Vec::with_capacity(body.len() + field.len() + raw.len() + 4);
            out.extend_from_slice(&body[..body.len() - 1]);
            for part in [",\"", field, "\":", raw, "}"] {
                out.extend_from_slice(part.as_bytes());
            }
            out
        }
        // Not an object (can't happen for our own bodies): serve untouched
        // rather than corrupt it.
        _ => body.to_vec(),
    }
}

/// How one item ended: what the single endpoint frames as its response,
/// a batch appends as one result, and a stream writes as its final line.
/// `cache` is `hit`, `miss` or `stale` (unset on errors and on the `gred`
/// fallback), `backend` the one that answered, `retry_after` in seconds.
pub(crate) struct Outcome {
    status: u16,
    body: Body,
    cache: Option<&'static str>,
    backend: Option<String>,
    degraded: Option<&'static str>,
    retry_after: Option<u64>,
}

impl Outcome {
    fn new(status: u16, body: impl Into<Body>) -> Outcome {
        Outcome {
            status,
            body: body.into(),
            cache: None,
            backend: None,
            degraded: None,
            retry_after: None,
        }
    }

    /// A structured error, the envelope of [`Response::error`].
    fn error(status: u16, message: &str) -> Outcome {
        let code = http::default_error_code(status);
        Outcome::new(status, http::error_body(code, message))
    }

    /// A body `backend` translated, from the cache (`hit`) or the pool
    /// (`miss`). The `Arc` is moved, never copied.
    fn answered(status: u16, body: Arc<Vec<u8>>, cache: &'static str, backend: String) -> Outcome {
        Outcome {
            cache: Some(cache),
            backend: Some(backend),
            ..Outcome::new(status, body)
        }
    }

    /// Frame the outcome as a response: the only code that sets the
    /// `x-t2v-*` and `Retry-After` headers on a translation.
    pub(crate) fn into_response(self) -> Response {
        let headers = [
            ("x-t2v-cache", self.cache.map(String::from)),
            ("x-t2v-degraded", self.degraded.map(String::from)),
            ("x-t2v-backend", self.backend),
            ("Retry-After", self.retry_after.map(|secs| secs.to_string())),
        ];
        let mut resp = Response::json(self.status, self.body);
        let set = headers.into_iter().filter_map(|(k, v)| Some((k, v?)));
        resp.headers.extend(set);
        resp
    }
}

/// Serve `body` marked `"degraded": "<reason>"` in the body and on the
/// wire, and count it. The reason is an internal constant (never client
/// data), so no escaping is needed.
fn degrade(shared: &Shared, body: &[u8], reason: &'static str, backend: String) -> Outcome {
    shared.state.metrics.inc(Scalar::Degraded);
    t2v_trace::note(format!("degrade:{reason}"));
    let body = splice_field(body, "degraded", &format!("\"{reason}\""));
    Outcome {
        // The item's own cache entry, read ignoring TTL.
        cache: (reason == "stale_cache").then_some("stale"),
        backend: Some(backend),
        degraded: Some(reason),
        ..Outcome::new(200, body)
    }
}

/// Count one refusal and build the 503 that answers it when nothing
/// degrades: `backend_unavailable` for an open breaker, `overload` for a
/// full pool.
fn refused(shared: &Shared, refusal: &Refused, backend_id: &str) -> Outcome {
    let metrics = &shared.state.metrics;
    let (mut outcome, secs) = match *refusal {
        Refused::Open { retry_after_ms } => {
            metrics.inc(Scalar::BreakerRejections);
            let message = format!("backend '{backend_id}' is unavailable (circuit open)");
            let body = http::error_body("backend_unavailable", &message);
            (Outcome::new(503, body), retry_after_ms.div_ceil(1000))
        }
        Refused::Overloaded => {
            metrics.inc(Scalar::Rejected);
            (Outcome::error(503, "server overloaded"), 1)
        }
    };
    outcome.retry_after = Some(secs.max(1));
    outcome
}

/// The worker job's observer of one translation. It hands each stage to
/// `lines` as an NDJSON line when the request streams, and wraps each of
/// the pipeline's embeddings and retrievals in an `embed` / `retrieve`
/// span, polling the matching latency fault point as the span opens.
struct JobObserver<'a> {
    lines: Option<&'a OnLine>,
    /// The open step's span; steps never nest.
    step_span: Option<t2v_trace::SpanGuard>,
}

impl StageSink for JobObserver<'_> {
    fn stage(&mut self, stage: &StageRecord) {
        if let Some(lines) = self.lines {
            lines(stage_line(stage));
        }
    }

    fn begin(&mut self, step: t2v_core::Step) {
        let (stage, point) = match step {
            t2v_core::Step::Embed => (Stage::Embed, FaultPoint::EmbedLatency),
            t2v_core::Step::Retrieve => (Stage::Retrieve, FaultPoint::RetrieveLatency),
        };
        self.step_span = Some(t2v_trace::span(stage));
        t2v_fault::inject_delay(point);
    }

    fn end(&mut self, _step: t2v_core::Step) {
        self.step_span = None;
    }
}

/// Queue one item's cold translation on the pool; its [`Reply`] goes to
/// `on_reply`, on the worker. The worker also caches successful bodies and
/// records per-backend, per-tenant, and breaker outcomes. A `deadline`
/// already spent when a worker picks the job up short-circuits to 504
/// without running the backend.
fn submit_translation(
    shared: &Shared,
    item: &Item,
    lines: Option<OnLine>,
    deadline: Option<Instant>,
    on_reply: OnReply,
) -> Result<(), crate::pool::SubmitError> {
    let state = Arc::clone(&shared.state);
    let tenant = Arc::clone(&item.tenant);
    let backend = Arc::clone(&item.backend);
    let breaker = Arc::clone(item.breaker());
    let charged_backend = item.charged_backend();
    let backend_id = item.backend_id.clone();
    let entry = Arc::clone(&item.entry);
    let key = item.key.clone();
    let enqueued = Instant::now();
    // The request's trace rides into the job: the worker installs it as
    // *its* current trace, so the backend span, the embed/retrieve spans the
    // job's observer opens and whatever `on_reply` records land in one tree.
    let trace = t2v_trace::current();
    // Up before the job is queued, down when it starts or is refused: a
    // worker that pops it at once cannot take the gauge below zero.
    let depth = shared.state.metrics.scalar(Scalar::QueueDepth);
    depth.fetch_add(1, Ordering::Relaxed);
    let job = move || {
        let _trace_scope = trace.as_ref().map(Trace::scope);
        let metrics = &state.metrics;
        metrics
            .scalar(Scalar::QueueDepth)
            .fetch_sub(1, Ordering::Relaxed);
        let queue_wait = enqueued.elapsed();
        if let Some(t) = &trace {
            t.add_span(Stage::QueueWait, enqueued, queue_wait);
        }
        metrics
            .hist(Hist::QueueWait)
            .observe_ns(queue_wait.as_nanos() as u64);
        if deadline.is_some_and(|d| Instant::now() >= d) {
            // The budget died in the queue: don't burn a worker on a body
            // nobody is waiting for.
            on_reply(error_reply(
                504,
                "deadline exceeded before translation started",
            ));
            return JobEnd::Expired;
        }
        let reply = answer_contained(metrics, &breaker, || {
            let t0 = Instant::now();
            let result = {
                // The backend span covers fault firing + the translate call,
                // so the embed/retrieve child spans (and any fault note)
                // nest here.
                let _span = t2v_trace::span(Stage::Backend);
                // Chaos seams: an armed `backend.panic` unwinds here (into a
                // structured 500 + metrics); an armed `backend.error` swaps
                // the translation for an internal error without touching
                // the backend.
                if t2v_fault::fire_for(FaultPoint::BackendPanic, &backend_id).is_some() {
                    panic!("injected fault: backend '{backend_id}' panic");
                }
                let req = TranslateRequest::new(&key.2, &entry.db);
                if t2v_fault::fire_for(FaultPoint::BackendError, &backend_id).is_some() {
                    let message = format!("injected fault: backend '{backend_id}' error");
                    Err(TranslateError::Internal { message })
                } else {
                    let mut observer = JobObserver {
                        lines: lines.as_ref(),
                        step_span: None,
                    };
                    backend.translate_streamed(&req, &mut observer)
                }
            };
            let elapsed = t0.elapsed().as_nanos() as u64;
            let error = result.is_err();
            metrics.record_translation(&tenant.metrics, charged_backend, elapsed, error);
            // Breaker accounting: `internal` failures (bugs, injected
            // faults) say the *backend* is unhealthy. Input-level outcomes
            // — including structured no_output/invalid_output — are
            // properties of the query, not the backend, and must never
            // trip it.
            let internal_failure = matches!(result, Err(TranslateError::Internal { .. }));
            if breaker.record(!internal_failure, elapsed) {
                metrics.inc(Scalar::BreakerOpens);
            }
            let status = if internal_failure { 500 } else { 200 };
            let body = Arc::new(render_translation(
                &backend_id,
                &key.2,
                &entry,
                key.4,
                &result,
            ));
            if status == 200 {
                // Transient internal failures are never cached — a retry
                // (or the storm simply passing) must be able to succeed.
                state.cache.insert(key, Arc::clone(&body));
            }
            Reply { status, body }
        });
        on_reply(reply);
        JobEnd::Completed
    };
    let queued = shared.pool.submit_job(job);
    if queued.is_err() {
        depth.fetch_sub(1, Ordering::Relaxed);
    }
    queued
}

/// Why the admission stage turned a translation away.
#[derive(Debug, PartialEq, Eq)]
enum Refused {
    /// The backend's breaker is open, or half-open with its probe out.
    Open { retry_after_ms: u64 },
    /// The pool would not take the job: its queues are full, or it is
    /// shutting down.
    Overloaded,
}

/// The admission stage every cold translation passes: ask the item's
/// breaker, then queue the job. A half-open probe the pool refuses is
/// released here, so no caller can leave the breaker waiting on a probe
/// that never ran. `span` records the breaker decision as the request's
/// `breaker` span; only the single endpoint asks — a trace holds 24 spans
/// and a batch up to [`MAX_BATCH_ITEMS`] items. Never blocks.
fn admit_and_submit(
    shared: &Shared,
    item: &Item,
    lines: Option<OnLine>,
    deadline: Option<Instant>,
    span: bool,
    on_reply: OnReply,
) -> Result<(), Refused> {
    let breaker = item.breaker();
    let admission = {
        let _span = span.then(|| t2v_trace::span(Stage::Breaker));
        breaker.admit()
    };
    if let Admission::Reject { retry_after_ms } = admission {
        return Err(Refused::Open { retry_after_ms });
    }
    submit_translation(shared, item, lines, deadline, on_reply).map_err(|_| {
        if admission == Admission::Probe {
            breaker.probe_aborted();
        }
        Refused::Overloaded
    })
}

/// How long a wait lasts when deadlines are disabled (`deadline_ms=0` and
/// no `X-T2V-Deadline-Ms` header).
const NO_DEADLINE_WAIT: Duration = Duration::from_secs(60);

/// A counted miss: its item, resolved, keyed and looked up once, with
/// the request's deadline and start.
pub(crate) struct Miss {
    item: Item,
    deadline: Option<Instant>,
    started: Instant,
}

/// An admitted miss, not yet concluded.
pub(crate) struct Pending {
    miss: Miss,
    /// Set on the `gred` fallback of a refused item: the 503 that stands
    /// unless the fallback answers 200.
    unavailable: Option<Outcome>,
    /// The job's reply once it came; still `None` when it is concluded,
    /// the wait ran out.
    reply: Option<Reply>,
}

impl Pending {
    fn new(miss: Miss, unavailable: Option<Outcome>) -> Pending {
        let reply = None;
        Pending {
            miss,
            unavailable,
            reply,
        }
    }
}

/// The first half of every non-streamed cold item: admission, and on
/// refusal the one ladder. An open breaker serves the stale entry, else
/// resubmits the item to `gred`, else answers 503 `backend_unavailable`;
/// a full pool answers 503 `overload`. The admitted job's reply goes to
/// `reply_to()`. Never blocks. `Err` is the end of a refused item.
fn admit(
    shared: &Shared,
    mut miss: Miss,
    span: bool,
    reply_to: &dyn Fn() -> OnReply,
) -> Result<Pending, Outcome> {
    let waiting = |miss, unavailable| Ok(Pending::new(miss, unavailable));
    let (item, deadline) = (&miss.item, miss.deadline);
    let refusal = match admit_and_submit(shared, item, None, deadline, span, reply_to()) {
        Ok(()) => return waiting(miss, None),
        Err(refusal) => refusal,
    };
    let unavailable = refused(shared, &refusal, &item.backend_id);
    if refusal == Refused::Overloaded {
        return Err(unavailable);
    }
    // The ladder is one degradation decision in the trace; notes say which
    // rung answered.
    let _span = t2v_trace::span(Stage::Degrade);
    t2v_trace::note(format!("breaker:open:{}", item.backend_id));
    if let Some(stale) = shared.state.cache.get_stale(&item.key) {
        let backend = miss.item.backend_id;
        return Err(degrade(shared, &stale, "stale_cache", backend));
    }
    // `gred` is the paper's system: the ladder falls back to it, never away
    // from it. It is the last rung: refused, it ends the ladder uncounted.
    if item.backend_id == "gred" {
        return Err(unavailable);
    }
    let Ok((idx, id, backend)) = item.tenant.registry.resolve(Some("gred")) else {
        return Err(unavailable);
    };
    let (idx, id, backend) = (idx, id.to_string(), Arc::clone(backend));
    let item = &mut miss.item;
    (item.backend_idx, item.backend_id, item.backend) = (idx, id, backend);
    item.key.1 = idx as u16;
    if let Lookup::Fresh(hit) = shared.state.cache.lookup(&item.key) {
        let backend = miss.item.backend_id;
        return Err(degrade(shared, &hit, "fallback:gred", backend));
    }
    match admit_and_submit(shared, item, None, deadline, false, reply_to()) {
        Ok(()) => waiting(miss, Some(unavailable)),
        Err(_) => Err(unavailable),
    }
}

/// End an admitted item from its reply. A fallback's 200 is marked
/// degraded, any other reply leaves its item's 503 standing. A wait that
/// ran out (no reply) walks the one timeout ladder: stale cache, else 504
/// `deadline_exceeded` — or a 500 with deadlines disabled. Whichever 504
/// answers, the job's or the ladder's, is counted here, once.
fn conclude(shared: &Shared, p: Pending) -> Outcome {
    let Miss { item, deadline, .. } = p.miss;
    let metrics = &shared.state.metrics;
    match (p.reply, p.unavailable) {
        (Some(r), None) => {
            if r.status == 504 {
                metrics.inc(Scalar::DeadlineExceeded);
            }
            Outcome::answered(r.status, r.body, "miss", item.backend_id)
        }
        (Some(r), Some(_)) if r.status == 200 => {
            degrade(shared, &r.body, "fallback:gred", item.backend_id)
        }
        (Some(_), Some(unavailable)) => unavailable,
        (None, _) if deadline.is_none() => Outcome::error(500, "translation timed out"),
        (None, unavailable) => {
            metrics.inc(Scalar::DeadlineExceeded);
            // The orphaned job's reply goes to nobody. A fallback's stale
            // rung already came up empty at admission.
            let stale = unavailable
                .is_none()
                .then(|| shared.state.cache.get_stale(&item.key));
            match stale.flatten() {
                Some(stale) => degrade(shared, &stale, "stale_cache", item.backend_id),
                None => Outcome::error(504, "deadline exceeded before the translation finished"),
            }
        }
    }
}

/// An admin route that builds, drops or writes (a tenant, a snapshot): it
/// runs as a job on the translation pool.
pub(crate) type AdminJob = fn(&ServerState, &Request) -> Response;

/// What the early stage decided: answered without waiting (a validation
/// error, a fresh hit, every route that cannot block), a translation to
/// [`start`], or an admin job for the pool.
pub(crate) enum Early {
    Reply(Response),
    Wait(Wait),
    Job(AdminJob),
}

/// What waits on the pool, before admission.
pub(crate) enum Wait {
    /// A single translation's counted miss.
    Miss(Miss),
    /// The NDJSON streaming variant of `/v1/translate`: one line per
    /// completed stage as the backend produces it, then the full
    /// (non-streamed-identical) response object as the final line.
    /// EOF-delimited: the connection closes when the stream ends. Bypasses
    /// the cache read path (a cached body has no stages left to stream) but
    /// still populates the cache for later requests.
    Stream(Miss),
    /// A batch, every item probed.
    Batch(Batch),
}

/// The early stage of `POST /v1/translate` (and `/v1/t/{tenant}/translate`):
/// all that is decided before admission. Waits on nothing: the loop runs it.
pub(crate) fn translate_early(
    shared: &Shared,
    req: &Request,
    tenant: &Arc<TenantRuntime>,
) -> Early {
    let started = Instant::now();
    let parsed = match req.json_body() {
        Ok(j) => j,
        Err(resp) => return Early::Reply(resp),
    };
    let stream = match optional(&parsed, "stream", Json::as_bool, "a boolean") {
        Ok(stream) => stream.unwrap_or(false),
        Err(resp) => return Early::Reply(resp),
    };
    let deadline = request_deadline(&shared.state.config, req, started);
    let miss = |item| Miss {
        item,
        deadline,
        started,
    };
    match probe(shared, tenant, &parsed, true, |_| stream) {
        Probe::Done(outcome) => {
            if outcome.cache == Some("hit") {
                let latency = shared.state.metrics.hist(Hist::Request);
                latency.observe_ns(started.elapsed().as_nanos() as u64);
            }
            Early::Reply(outcome.into_response())
        }
        Probe::Diverted(item) => Early::Wait(Wait::Stream(miss(item))),
        Probe::Miss(item) => Early::Wait(Wait::Miss(miss(item))),
    }
}

/// How one item's early stage ended: a validation error or a fresh hit
/// (`Done`), an item taken before its lookup and left uncounted
/// (`Diverted`: a stream, a batch duplicate), or a counted miss for [`admit`].
enum Probe {
    Done(Outcome),
    Diverted(Item),
    Miss(Item),
}

/// The per-item early stage both endpoints share: resolve → key → lookup →
/// count. `divert` sees the key first and may take the item before it is
/// looked up or counted. Only `span` records a `cache.lookup` span: one per
/// batch item would crowd the trace's span cap.
fn probe(
    shared: &Shared,
    tenant: &Arc<TenantRuntime>,
    obj: &Json,
    span: bool,
    divert: impl FnOnce(&CacheKey) -> bool,
) -> Probe {
    let item = match resolve_item(tenant, obj) {
        Ok(item) => item,
        Err(resp) => return Probe::Done(Outcome::new(resp.status, resp.body)),
    };
    if divert(&item.key) {
        return Probe::Diverted(item);
    }
    // `lookup` (not `get`) so an expired entry survives in place: if the
    // breaker rejects the recompute later, the stale rung serves it.
    let lookup = {
        let _span = span.then(|| t2v_trace::span(Stage::CacheLookup));
        shared.state.cache.lookup(&item.key)
    };
    item.record_cache(&shared.state.metrics, matches!(lookup, Lookup::Fresh(_)));
    match lookup {
        // The Arc goes straight into the response: no body copy on a hit.
        Lookup::Fresh(body) => Probe::Done(Outcome::answered(200, body, "hit", item.backend_id)),
        _ => Probe::Miss(item),
    }
}

/// Items allowed in one `/v1/translate/batch` request.
const MAX_BATCH_ITEMS: usize = 64;

/// A batch's items in request order, with the deadline and start they share.
pub(crate) struct Batch {
    slots: Vec<Slot>,
    deadline: Option<Instant>,
    started: Instant,
    /// Admitted items whose reply has not come.
    open: usize,
}

/// One batch item.
enum Slot {
    /// Answered without a job: an error, a hit, a refusal.
    Done(Outcome),
    /// The same item as an earlier one, whose result it copies.
    Copy(usize),
    /// A counted miss, not yet admitted.
    Miss(Miss),
    /// Admitted; `true` once its one retry is spent.
    Waiting(Pending, bool),
}

/// The early stage of `POST /v1/translate/batch` — `{"requests": [{...},
/// ...]}` → `{"results": [...]}`, one result object per item in order.
/// Item-level failures (unknown backend/database, overload) are inline
/// structured error objects; only a malformed envelope fails the whole
/// request. Every item is probed here, at most [`MAX_BATCH_ITEMS`]: a later
/// identical item (same backend × NLQ × db × shape) copies the first one's
/// result instead of racing the cache.
pub(crate) fn batch_early(shared: &Shared, req: &Request, tenant: &Arc<TenantRuntime>) -> Early {
    let started = Instant::now();
    let parsed = match req.json_body() {
        Ok(j) => j,
        Err(resp) => return Early::Reply(resp),
    };
    let Some(Json::Arr(requests)) = parsed.get("requests") else {
        return Early::Reply(Response::error(400, "missing array field 'requests'"));
    };
    if requests.is_empty() {
        return Early::Reply(Response::error(400, "'requests' is empty"));
    }
    if requests.len() > MAX_BATCH_ITEMS {
        let n = requests.len();
        let message = format!("'requests' has {n} items; a batch holds at most {MAX_BATCH_ITEMS}");
        return Early::Reply(Response::error(400, &message));
    }
    let deadline = request_deadline(&shared.state.config, req, started);
    let mut first_of: HashMap<CacheKey, usize> = HashMap::new();
    let slots = requests
        .iter()
        .enumerate()
        .map(
            |(i, obj)| match probe(shared, tenant, obj, false, |key| first_of.contains_key(key)) {
                Probe::Done(outcome) => Slot::Done(outcome),
                Probe::Diverted(item) => Slot::Copy(first_of[&item.key]),
                Probe::Miss(item) => {
                    first_of.insert(item.key.clone(), i);
                    Slot::Miss(Miss {
                        item,
                        deadline,
                        started,
                    })
                }
            },
        )
        .collect();
    Early::Wait(Wait::Batch(Batch {
        slots,
        deadline,
        started,
        open: 0,
    }))
}

impl Batch {
    /// Conclude every item in order — one still open as timed out — and
    /// frame the results.
    fn frame(self, shared: &Shared) -> Response {
        let mut out = b"{\"results\": [".to_vec();
        // Where each result sits in `out`: a duplicate copies its first's.
        let mut placed: Vec<std::ops::Range<usize>> = Vec::with_capacity(self.slots.len());
        for (i, slot) in self.slots.into_iter().enumerate() {
            if i > 0 {
                out.extend_from_slice(b", ");
            }
            let at = out.len();
            match slot {
                Slot::Copy(first) => out.extend_from_within(placed[first].clone()),
                Slot::Done(outcome) => out.extend_from_slice(outcome.body.as_slice()),
                Slot::Waiting(pending, _) => {
                    out.extend_from_slice(conclude(shared, pending).body.as_slice())
                }
                Slot::Miss(_) => unreachable!("a batch is framed after its admission"),
            }
            placed.push(at..out.len());
        }
        out.extend_from_slice(b"]}");
        let latency = shared.state.metrics.hist(Hist::Request);
        latency.observe_ns(self.started.elapsed().as_nanos() as u64);
        Response::json(200, out)
    }
}

/// Admit what `wait` waits on; never blocks. `reply_to(slot)` says where a
/// job's reply goes (`slot`: the batch item, else 0), `lines` where a
/// stream's stage lines go; an admitted stream's 200 NDJSON head is
/// written to `head` at once. `Err` is the answer when nothing waits: a
/// refusal, or a batch with no item admitted.
pub(crate) fn start(
    shared: &Shared,
    wait: Wait,
    head: &mut dyn BodySink,
    reply_to: &dyn Fn(usize) -> OnReply,
    lines: &dyn Fn() -> OnLine,
) -> Result<Awaited, Response> {
    match wait {
        Wait::Miss(miss) => admit(shared, miss, true, &|| reply_to(0))
            .map(Awaited::One)
            .map_err(Outcome::into_response),
        Wait::Stream(miss) => {
            let (item, deadline) = (&miss.item, miss.deadline);
            item.record_cache(&shared.state.metrics, false);
            // Stage lines come from the backend asked or not at all: a
            // stream cannot degrade, so a refusal is its 503.
            let lines = Some(lines());
            if let Err(refusal) =
                admit_and_submit(shared, item, lines, deadline, false, reply_to(0))
            {
                return Err(refused(shared, &refusal, &item.backend_id).into_response());
            }
            let _ = http::write_streaming_head(head, 200, "application/x-ndjson");
            Ok(Awaited::Stream(Pending::new(miss, None)))
        }
        Wait::Batch(mut batch) => {
            // Every *distinct* miss is admitted, so the pool works on all
            // of them concurrently.
            let slots = std::mem::take(&mut batch.slots).into_iter().enumerate();
            batch.slots = slots
                .map(|(i, slot)| match slot {
                    Slot::Miss(miss) => match admit(shared, miss, false, &|| reply_to(i)) {
                        Err(outcome) => Slot::Done(outcome),
                        Ok(pending) => {
                            batch.open += 1;
                            Slot::Waiting(pending, false)
                        }
                    },
                    slot => slot,
                })
                .collect();
            match batch.open {
                0 => Err(batch.frame(shared)),
                _ => Ok(Awaited::Batch(batch)),
            }
        }
    }
}

/// What an admitted request waits on: the one reply of a single miss or a
/// stream, or one per admitted batch item. Whoever takes it ends it with
/// [`Awaited::end`] — the reply that completes it, or a timer at
/// [`Awaited::expires`].
pub(crate) enum Awaited {
    One(Pending),
    Stream(Pending),
    Batch(Batch),
}

impl Awaited {
    /// When a waiter gives up: the deadline, or [`NO_DEADLINE_WAIT`] after
    /// the request began with deadlines disabled.
    pub(crate) fn expires(&self) -> Instant {
        let (deadline, started) = match self {
            Awaited::One(p) | Awaited::Stream(p) => (p.miss.deadline, p.miss.started),
            Awaited::Batch(b) => (b.deadline, b.started),
        };
        deadline.unwrap_or(started + NO_DEADLINE_WAIT)
    }

    /// Take `slot`'s reply; true once nothing is left open. A batch item's
    /// transient `internal` failure (500) is resubmitted once, at once,
    /// while the deadline allows, its retry replying through `reply_to` as
    /// for [`start`]. A refused retry leaves the 500 standing: an open
    /// breaker means the failures already tripped it.
    pub(crate) fn record(
        &mut self,
        shared: &Shared,
        slot: usize,
        reply: Reply,
        reply_to: &dyn Fn(usize) -> OnReply,
    ) -> bool {
        let b = match self {
            Awaited::Batch(b) => b,
            Awaited::One(p) | Awaited::Stream(p) => {
                p.reply = Some(reply);
                return true;
            }
        };
        let Slot::Waiting(pending, retried) = &mut b.slots[slot] else {
            return false;
        };
        let live = b.deadline.is_none_or(|d| Instant::now() < d);
        if reply.status == 500 && !*retried && live {
            *retried = true;
            let (item, deadline) = (&pending.miss.item, b.deadline);
            if admit_and_submit(shared, item, None, deadline, false, reply_to(slot)).is_ok() {
                shared.state.metrics.inc(Scalar::BatchRetries);
                return false;
            }
        }
        pending.reply = Some(reply);
        b.open -= 1;
        b.open == 0
    }

    /// Conclude what came in — what did not, as timed out — into what
    /// `routes::finish` frames. A stream's final line, its settled outcome
    /// (a 504 when the budget ran out), is written to `writer`, and the
    /// stream is counted and traced by that line's status.
    pub(crate) fn end(self, shared: &Shared, writer: &mut dyn BodySink) -> Handled {
        match self {
            Awaited::One(p) => {
                let started = p.miss.started;
                let outcome = conclude(shared, p);
                // Latency counts translations a backend answered, as for hits.
                if outcome.cache == Some("miss") {
                    let latency = shared.state.metrics.hist(Hist::Request);
                    latency.observe_ns(started.elapsed().as_nanos() as u64);
                }
                Handled::Reply(outcome.into_response())
            }
            Awaited::Stream(p) => {
                let backend = p.miss.item.backend_id.clone();
                let outcome = conclude(shared, p);
                let _ = http::write_line(writer, outcome.body.as_slice());
                let status = outcome.status;
                Handled::Streamed { backend, status }
            }
            Awaited::Batch(b) => Handled::Reply(b.frame(shared)),
        }
    }
}

/// The pool's refusal of an admin job: the 503 of a full queue.
pub(crate) fn overloaded(shared: &Shared) -> Response {
    refused(shared, &Refused::Overloaded, "").into_response()
}

/// The in-memory oracle's transport (`Server::answer_in_memory`): [`start`]
/// as the loop starts a request, then its replies and a stream's lines are
/// taken on this thread from a channel until [`Awaited::record`] says all
/// are in or the wait runs out, and [`Awaited::end`] ends it as the loop
/// does.
pub(crate) fn settle(shared: &Shared, wait: Wait, writer: &mut dyn BodySink) -> Handled {
    enum Got {
        Line(String),
        Reply(usize, Reply),
    }
    let (tx, rx) = mpsc::channel();
    let reply_to = |slot| -> OnReply {
        let tx = tx.clone();
        Box::new(move |reply| {
            let _ = tx.send(Got::Reply(slot, reply));
        })
    };
    let lines = || -> OnLine {
        let tx = tx.clone();
        Box::new(move |line| {
            let _ = tx.send(Got::Line(line));
        })
    };
    let mut awaited = match start(shared, wait, writer, &reply_to, &lines) {
        Ok(awaited) => awaited,
        Err(resp) => return Handled::Reply(resp),
    };
    let expires = awaited.expires();
    while let Ok(got) = rx.recv_timeout(expires.saturating_duration_since(Instant::now())) {
        match got {
            Got::Line(line) => {
                let _ = http::write_line(writer, line.as_bytes());
            }
            Got::Reply(slot, reply) => {
                if awaited.record(shared, slot, reply, &reply_to) {
                    break;
                }
            }
        }
    }
    awaited.end(shared, writer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkerPool;
    use crate::server::{EventStats, ServerState};
    use std::sync::atomic::AtomicBool;

    /// A panicking job's 500 must not reach its caller before the panic is
    /// counted: a client that scrapes `/metrics` right after its 500 used
    /// to find the panic uncounted. The panic is caught inside the job, so
    /// it is counted (and recorded on the breaker) before the 500 exists.
    #[test]
    fn a_panic_is_counted_before_its_reply_is_sent() {
        let metrics = Metrics::with_backends(&[]);
        let breaker = CircuitBreaker::new(crate::breaker::BreakerConfig {
            window: 4,
            min_samples: 1,
            threshold_pct: 50,
            open_ms: 60_000,
        });
        let reply = answer_contained(&metrics, &breaker, || panic!("job blew up"));
        assert_eq!(reply.status, 500);
        assert_eq!(metrics.get(Scalar::WorkerPanics), 1);
        assert_eq!(metrics.get(Scalar::BreakerOpens), 1, "the panic tripped it");
        let ok = answer_contained(&metrics, &breaker, || error_reply(200, "fine"));
        assert_eq!(ok.status, 200);
        assert_eq!(metrics.get(Scalar::WorkerPanics), 1);
    }

    /// A refused probe must hand its slot back. The batch retry loop used to
    /// call `admit()` itself and `break` when the resubmission was refused,
    /// which left `probe_in_flight` set: every later request for that
    /// tenant×backend was rejected until restart.
    #[test]
    fn refused_probe_releases_the_half_open_slot() {
        let corpus = t2v_corpus::generate(&t2v_corpus::CorpusConfig::tiny(7));
        let mut config = ServeConfig::default();
        for (k, v) in [
            ("backends", "gred"),
            ("breaker_min_samples", "1"),
            // No cool-down: the tripped breaker offers its probe at once.
            ("breaker_open_ms", "0"),
            ("obs_sample_ms", "0"),
            ("obs_profile_hz", "0"),
        ] {
            config.set(k, v).unwrap();
        }
        let state = Arc::new(ServerState::from_corpus(&corpus, config).expect("state builds"));
        let pool = WorkerPool::new(1, 1, 4, Arc::clone(&state.metrics));
        // A pool that takes no more jobs, as during shutdown.
        pool.shutdown();
        let shared = Shared {
            state,
            pool,
            shutdown: AtomicBool::new(false),
            obs: None,
            event_stats: EventStats::default(),
        };
        let request = Json::obj([
            ("nlq", Json::str("show all wages")),
            ("db", Json::str(corpus.databases[0].id.as_str())),
        ]);
        let item = resolve_item(&shared.state.default_tenant, &request).expect("item resolves");
        let breaker = item.breaker();
        assert!(breaker.record(false, 0), "one failure trips the breaker");

        let refused = admit_and_submit(&shared, &item, None, None, false, Box::new(|_| {}));
        assert_eq!(refused.err(), Some(Refused::Overloaded));
        assert_eq!(
            breaker.admit(),
            Admission::Probe,
            "the next request may probe"
        );
    }
}

/// `normalize_nlq` keys the cache: its ASCII byte loop must answer exactly
/// as the char loop it skips.
#[cfg(test)]
mod normalize_tests {
    use super::normalize_nlq;
    use proptest::prelude::*;

    /// The char loop alone, for every input: the oracle.
    fn normalize_per_char(nlq: &str) -> String {
        let mut out = String::with_capacity(nlq.len());
        let mut pending_space = false;
        for c in nlq.chars() {
            if c.is_whitespace() {
                pending_space = !out.is_empty();
            } else {
                if pending_space {
                    out.push(' ');
                    pending_space = false;
                }
                out.extend(c.to_lowercase());
            }
        }
        out
    }

    /// Whitespace on both sides of the ASCII line (U+000B counts, U+001C
    /// does not), `İ` (its lowercase is two chars), `Σ`, and plain words.
    const PIECES: &[&str] = &[
        "Show", "ME", "the", "Wages", "x1", "_", " ", "  ", "\t", "\n", "\r", "\u{0B}", "\u{0C}",
        "\u{1C}", "\u{1F}", "\u{85}", "\u{A0}", "\u{2028}", "\u{3000}", "İ", "Σ", "É", "ß",
    ];

    fn question() -> impl Strategy<Value = String> {
        let ascii = prop::collection::vec(0u8..128, 0..24)
            .prop_map(|bytes| bytes.into_iter().map(char::from).collect::<String>());
        let pieces = prop::collection::vec(prop::sample::select(PIECES.to_vec()), 0..12)
            .prop_map(|p| p.concat());
        let any_chars = prop::collection::vec(any::<u32>(), 0..12).prop_map(|cs| {
            cs.into_iter()
                .map(|c| char::from_u32(c % 0x11_0000).unwrap_or('?'))
                .collect::<String>()
        });
        prop_oneof![ascii, pieces, any_chars]
    }

    #[test]
    fn edge_cases_match_the_char_loop() {
        for nlq in [
            "",
            " ",
            "\u{0B}Show\u{0B}\u{0B}ME\u{0C}",
            "\u{1C}a\u{1F}",
            "  Show   ME\tthe  Wages ",
            "İstanbul ΣΑΣ",
            "a\u{85}b\u{A0}c\u{2028}d\u{3000}e",
        ] {
            assert_eq!(normalize_nlq(nlq), normalize_per_char(nlq), "{nlq:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]
        #[test]
        fn normalize_matches_the_char_loop(nlq in question()) {
            prop_assert_eq!(normalize_nlq(&nlq), normalize_per_char(&nlq), "{:?}", nlq);
        }
    }
}
