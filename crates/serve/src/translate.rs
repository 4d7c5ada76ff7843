//! Translating: one resolved `Item`, one item path, three endpoints
//! (`POST /v1/translate`, its NDJSON streaming variant, and
//! `POST /v1/translate/batch`).
//!
//! The single endpoint is split where waiting starts: `translate_early`
//! (parse → resolve → deadline → key → cache lookup) answers errors and
//! fresh hits on the event loop itself; the late stage (or the stream
//! relay) continues on a dispatch thread.
//!
//! Every cold translation enters the worker pool through
//! `admit_and_submit` — breaker admission, pool submission, and the
//! half-open probe released if the pool refuses. A non-streamed item then
//! walks one path: `admit` (on refusal: stale cache → `gred` fallback →
//! 503) and `settle` (await the reply; on timeout: stale cache → 504).
//! Either ends in one `Outcome`, which the single endpoint frames, a batch
//! appends as one result and a stream writes as its final line.
//! DESIGN.md §11 has the table.

use crate::breaker::{Admission, CircuitBreaker};
use crate::cache::Lookup;
use crate::config::ServeConfig;
use crate::http::{self, Body, BodySink, Request, Response};
use crate::metrics::{Hist, Metrics, Scalar};
use crate::pool::OneShot;
use crate::routes::Handled;
use crate::server::{CacheKey, DbEntry, Shared, TenantRuntime};
use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};
use t2v_core::{StageRecord, TranslateError, TranslateRequest, TranslateResponse, Translator};
use t2v_engine::{execute, Json};
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
    nlq_normalized: String,
    want_vegalite: bool,
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
    let nlq_normalized = normalize_nlq(nlq);
    if nlq_normalized.is_empty() {
        return Err(Response::error_code(400, "empty_query", "'nlq' is empty"));
    }
    let Some(entry) = tenant.dbs.get(db_id) else {
        let message = format!("unknown database '{db_id}'");
        return Err(Response::error_code(404, "unknown_database", &message));
    };
    Ok(Item {
        tenant: Arc::clone(tenant),
        backend_idx,
        backend_id,
        backend,
        entry: Arc::clone(entry),
        nlq_normalized,
        want_vegalite,
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
    fn cache_key(&self) -> CacheKey {
        (
            self.tenant.epoch,
            self.backend_idx as u16,
            self.nlq_normalized.clone().into_boxed_str(),
            self.entry.fingerprint,
            self.want_vegalite,
        )
    }

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

/// Rides inside every pool job: if the job never answers — a worker panic
/// (injected or real) unwinds the closure — dropping the guard fulfils the
/// caller's slot with a structured 500 and records the failure on the
/// backend's breaker, so the connection thread fails fast instead of
/// waiting out its deadline on a reply that will never come.
struct ReplyGuard {
    slot: OneShot<Reply>,
    breaker: Arc<CircuitBreaker>,
    metrics: Arc<Metrics>,
    answered: bool,
}

impl ReplyGuard {
    fn answer(mut self, reply: Reply) {
        self.answered = true;
        self.slot.send(reply);
    }
}

impl Drop for ReplyGuard {
    fn drop(&mut self) {
        if self.answered {
            return;
        }
        if self.breaker.record(false, 0) {
            self.metrics.inc(Scalar::BreakerOpens);
        }
        self.slot
            .send(error_reply(500, "translation worker failed"));
    }
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
struct Outcome {
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
    fn into_response(self) -> Response {
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

/// Queue one item's cold translation on the pool. The returned slot
/// resolves to a [`Reply`]; the worker also caches successful bodies and
/// records per-backend, per-tenant, and breaker outcomes. A `deadline`
/// already spent when a worker picks the job up short-circuits to 504
/// without running the backend.
fn submit_translation(
    shared: &Shared,
    item: &Item,
    key: CacheKey,
    stage_tx: Option<mpsc::Sender<String>>,
    deadline: Option<Instant>,
) -> Result<OneShot<Reply>, crate::pool::SubmitError> {
    let slot: OneShot<Reply> = OneShot::new();
    let job_slot = slot.clone();
    let state = Arc::clone(&shared.state);
    let tenant = Arc::clone(&item.tenant);
    let backend = Arc::clone(&item.backend);
    let breaker = Arc::clone(item.breaker());
    let charged_backend = item.charged_backend();
    let backend_id = item.backend_id.clone();
    let entry = Arc::clone(&item.entry);
    let want_vegalite = item.want_vegalite;
    let enqueued = Instant::now();
    // The request thread's trace rides into the job: the worker installs
    // it as *its* current trace, so the backend span (and the embed/retrieve
    // spans the leaf crates open) land in the same tree.
    let trace = t2v_trace::current();
    let job = move || {
        let _trace_scope = trace.as_ref().map(Trace::scope);
        let guard = ReplyGuard {
            slot: job_slot,
            breaker: Arc::clone(&breaker),
            metrics: Arc::clone(&state.metrics),
            answered: false,
        };
        let metrics = &state.metrics;
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
            metrics.inc(Scalar::DeadlineExceeded);
            let message = "deadline exceeded before translation started";
            guard.answer(error_reply(504, message));
            return;
        }
        let t0 = Instant::now();
        let result = {
            // The backend span covers fault firing + the translate call, so
            // the embed/retrieve child spans (and any fault note) nest here.
            let _span = t2v_trace::span(Stage::Backend);
            // Chaos seams: an armed `backend.panic` unwinds here (the guard
            // and the pool's catch_unwind turn it into a structured 500 +
            // metrics); an armed `backend.error` swaps the translation for
            // an internal error without touching the backend.
            if t2v_fault::fire_for(t2v_fault::FaultPoint::BackendPanic, &backend_id).is_some() {
                panic!("injected fault: backend '{backend_id}' panic");
            }
            let req = TranslateRequest::new(&key.2, &entry.db);
            if t2v_fault::fire_for(t2v_fault::FaultPoint::BackendError, &backend_id).is_some() {
                let message = format!("injected fault: backend '{backend_id}' error");
                Err(TranslateError::Internal { message })
            } else if let Some(tx) = &stage_tx {
                // Streaming: forward each stage line as the pipeline
                // produces it.
                backend.translate_streamed(&req, &mut |s: &StageRecord| {
                    let _ = tx.send(stage_line(s));
                })
            } else {
                backend.translate(&req)
            }
        };
        let elapsed = t0.elapsed().as_nanos() as u64;
        let error = result.is_err();
        metrics.record_translation(&tenant.metrics, charged_backend, elapsed, error);
        // Breaker accounting: `internal` failures (bugs, injected faults)
        // say the *backend* is unhealthy. Input-level outcomes — including
        // structured no_output/invalid_output — are properties of the
        // query, not the backend, and must never trip it.
        let internal_failure = matches!(result, Err(TranslateError::Internal { .. }));
        if breaker.record(!internal_failure, elapsed) {
            metrics.inc(Scalar::BreakerOpens);
        }
        let status = if internal_failure { 500 } else { 200 };
        let body = render_translation(&backend_id, &key.2, &entry, want_vegalite, &result);
        let body = Arc::new(body);
        if status == 200 {
            // Transient internal failures are never cached — a retry (or
            // the storm simply passing) must be able to succeed.
            state.cache.insert(key, Arc::clone(&body));
        }
        guard.answer(Reply { status, body });
    };
    // The weighted class budgets are keyed by the default tenant's
    // registry order, but admission is by backend *id*: tenant traffic
    // through a backend the default tenant also registers shares that
    // backend's budget (so `backend_weights=` keeps protecting heavy
    // backends no matter which tenant the traffic arrives under). Only a
    // backend the startup registry never saw is admitted unclassed, with
    // the queue-capacity backstop.
    let class = if item.tenant.is_default {
        Some(item.backend_idx)
    } else {
        shared.state.registry.index_of(&item.backend_id)
    };
    match class {
        Some(class) => shared.pool.submit_classed(class, job)?,
        None => shared.pool.submit(job)?,
    }
    Ok(slot)
}

/// Why the admission stage turned a translation away.
#[derive(Debug, PartialEq, Eq)]
enum Refused {
    /// The backend's breaker is open, or half-open with its probe out.
    Open { retry_after_ms: u64 },
    /// The pool would not take the job: its queue or the backend's class
    /// budget is full, or it is shutting down.
    Overloaded,
}

/// The admission stage every cold translation passes: ask the item's
/// breaker, then queue the job. A half-open probe the pool refuses is
/// released here, so no caller can leave the breaker waiting on a probe
/// that never ran. `span` records the breaker decision as the request's
/// `breaker` span; only the single endpoint asks — a trace holds 24 spans
/// and a batch up to [`MAX_BATCH_ITEMS`] items.
fn admit_and_submit(
    shared: &Shared,
    item: &Item,
    key: CacheKey,
    stage_tx: Option<mpsc::Sender<String>>,
    deadline: Option<Instant>,
    span: bool,
) -> Result<OneShot<Reply>, Refused> {
    let breaker = item.breaker();
    let admission = {
        let _span = span.then(|| t2v_trace::span(Stage::Breaker));
        breaker.admit()
    };
    if let Admission::Reject { retry_after_ms } = admission {
        return Err(Refused::Open { retry_after_ms });
    }
    submit_translation(shared, item, key, stage_tx, deadline).map_err(|_| {
        if admission == Admission::Probe {
            breaker.probe_aborted();
        }
        Refused::Overloaded
    })
}

/// How long a wait lasts when deadlines are disabled (`deadline_ms=0` and
/// no `X-T2V-Deadline-Ms` header).
const NO_DEADLINE_WAIT: Duration = Duration::from_secs(60);

/// Wait for an admitted translation until the request's deadline.
fn await_reply(slot: &OneShot<Reply>, deadline: Option<Instant>) -> Option<Reply> {
    let wait = deadline.map_or(NO_DEADLINE_WAIT, |d| {
        d.saturating_duration_since(Instant::now())
    });
    slot.recv_timeout(wait)
}

/// An admitted translation, not yet collected.
struct Pending {
    slot: OneShot<Reply>,
    item: Item,
    key: CacheKey,
    /// Set on the `gred` fallback of a refused item: the 503 that stands
    /// unless the fallback answers 200.
    unavailable: Option<Outcome>,
}

/// What [`admit`] made of an item: an end, or a translation to [`settle`].
enum Step {
    Done(Outcome),
    Waiting(Pending),
}

/// The first half of every non-streamed cold item: admission, and on
/// refusal the one ladder. An open breaker serves the stale entry, else
/// resubmits the item to `gred`, else answers 503 `backend_unavailable`;
/// a full pool answers 503 `overload`.
fn admit(
    shared: &Shared,
    mut item: Item,
    key: CacheKey,
    deadline: Option<Instant>,
    span: bool,
) -> Step {
    let waiting = |slot, item, key, unavailable| {
        Step::Waiting(Pending {
            slot,
            item,
            key,
            unavailable,
        })
    };
    let refusal = match admit_and_submit(shared, &item, key.clone(), None, deadline, span) {
        Ok(slot) => return waiting(slot, item, key, None),
        Err(refusal) => refusal,
    };
    let unavailable = refused(shared, &refusal, &item.backend_id);
    if refusal == Refused::Overloaded {
        return Step::Done(unavailable);
    }
    // The ladder is one degradation decision in the trace; notes say which
    // rung answered.
    let _span = t2v_trace::span(Stage::Degrade);
    t2v_trace::note(format!("breaker:open:{}", item.backend_id));
    if let Some(stale) = shared.state.cache.get_stale(&key) {
        return Step::Done(degrade(shared, &stale, "stale_cache", item.backend_id));
    }
    // `gred` retrieves cheaply and has no trained weights to be wedged. It
    // is the last rung: refused, it ends the ladder uncounted.
    if item.backend_id == "gred" {
        return Step::Done(unavailable);
    }
    let Ok((idx, id, backend)) = item.tenant.registry.resolve(Some("gred")) else {
        return Step::Done(unavailable);
    };
    let (idx, id, backend) = (idx, id.to_string(), Arc::clone(backend));
    (item.backend_idx, item.backend_id, item.backend) = (idx, id, backend);
    let key = item.cache_key();
    if let Lookup::Fresh(hit) = shared.state.cache.lookup(&key) {
        return Step::Done(degrade(shared, &hit, "fallback:gred", item.backend_id));
    }
    match admit_and_submit(shared, &item, key.clone(), None, deadline, false) {
        Ok(slot) => waiting(slot, item, key, Some(unavailable)),
        Err(_) => Step::Done(unavailable),
    }
}

/// The second half: await the reply until the deadline, then [`conclude`].
fn settle(shared: &Shared, pending: Pending, deadline: Option<Instant>) -> Outcome {
    let reply = await_reply(&pending.slot, deadline);
    conclude(shared, pending, reply, deadline)
}

/// End an admitted item from its reply. A fallback's 200 is marked
/// degraded, any other reply leaves its item's 503 standing. A wait that
/// ran out walks the one timeout ladder: stale cache, else 504
/// `deadline_exceeded` — or a 500 with deadlines disabled.
fn conclude(
    shared: &Shared,
    p: Pending,
    reply: Option<Reply>,
    deadline: Option<Instant>,
) -> Outcome {
    let backend = p.item.backend_id;
    match (reply, p.unavailable) {
        (Some(r), None) => Outcome::answered(r.status, r.body, "miss", backend),
        (Some(r), Some(_)) if r.status == 200 => degrade(shared, &r.body, "fallback:gred", backend),
        (Some(_), Some(unavailable)) => unavailable,
        (None, _) if deadline.is_none() => Outcome::error(500, "translation timed out"),
        (None, unavailable) => {
            shared.state.metrics.inc(Scalar::DeadlineExceeded);
            // The orphaned job's reply goes to nobody. A fallback's stale
            // rung already came up empty at admission.
            let stale = unavailable
                .is_none()
                .then(|| shared.state.cache.get_stale(&p.key));
            match stale.flatten() {
                Some(stale) => degrade(shared, &stale, "stale_cache", backend),
                None => Outcome::error(504, "deadline exceeded before the translation finished"),
            }
        }
    }
}

/// What the early stage decided: answered without waiting (a validation
/// error, a fresh hit), or a late stage for a thread that may block.
pub(crate) enum Early {
    Reply(Response),
    Resume(Late),
}

/// The late stage, a continuation over what [`translate_early`] resolved —
/// nothing is parsed, keyed, looked up or counted twice. Blocks on the pool.
pub(crate) type Late = Box<dyn FnOnce(&Shared, &mut dyn BodySink) -> Handled + Send>;

/// The early stage of `POST /v1/translate` (and `/v1/t/{tenant}/translate`):
/// all that is decided before admission. Waits on nothing: the loop runs it.
pub(crate) fn translate_early(
    shared: &Shared,
    req: &Request,
    tenant: &Arc<TenantRuntime>,
) -> Early {
    let started = Instant::now();
    let state = &shared.state;

    // ---- parse + validate ----
    let parsed = match req.json_body() {
        Ok(j) => j,
        Err(resp) => return Early::Reply(resp),
    };
    let stream = match optional(&parsed, "stream", Json::as_bool, "a boolean") {
        Ok(stream) => stream.unwrap_or(false),
        Err(resp) => return Early::Reply(resp),
    };
    let item = match resolve_item(tenant, &parsed) {
        Ok(item) => item,
        Err(resp) => return Early::Reply(resp),
    };
    let deadline = request_deadline(&state.config, req, started);
    if stream {
        return Early::Resume(Box::new(move |shared, writer| {
            stream_endpoint(shared, item, writer, deadline)
        }));
    }

    // ---- cache fast path (no queueing, no hop) ----
    // `lookup` (not `get`) so an expired entry survives in place: if the
    // breaker rejects the recompute later, the stale rung serves it.
    let key = item.cache_key();
    let lookup = {
        let _span = t2v_trace::span(Stage::CacheLookup);
        state.cache.lookup(&key)
    };
    if let Lookup::Fresh(hit) = lookup {
        item.record_cache(&state.metrics, true);
        let latency = state.metrics.hist(Hist::Request);
        latency.observe_ns(started.elapsed().as_nanos() as u64);
        // The Arc goes straight into the response — no body copy on a hit.
        let outcome = Outcome::answered(200, hit, "hit", item.backend_id);
        return Early::Reply(outcome.into_response());
    }
    item.record_cache(&state.metrics, false);
    // ---- the late stage: admit → settle, on a thread that may block ----
    Early::Resume(Box::new(move |shared, _| {
        let outcome = match admit(shared, item, key, deadline, true) {
            Step::Done(outcome) => outcome,
            Step::Waiting(pending) => settle(shared, pending, deadline),
        };
        // Latency counts translations a backend answered, as for hits.
        if outcome.cache == Some("miss") {
            let latency = shared.state.metrics.hist(Hist::Request);
            latency.observe_ns(started.elapsed().as_nanos() as u64);
        }
        Handled::Reply(outcome.into_response())
    }))
}

/// The NDJSON streaming variant of `/v1/translate`: one line per completed
/// stage as the backend produces it, then the full (non-streamed-identical)
/// response object as the final line. EOF-delimited: the connection closes
/// when the stream ends. Bypasses the cache read path (a cached body has no
/// stages left to stream) but still populates the cache for later requests.
/// The stream is counted and traced by its final line's status; a client
/// that hung up mid-stream by the 200 head it got.
fn stream_endpoint(
    shared: &Shared,
    item: Item,
    writer: &mut dyn BodySink,
    deadline: Option<Instant>,
) -> Handled {
    let key = item.cache_key();
    item.record_cache(&shared.state.metrics, false);
    // Stage lines come from the backend asked or not at all: a stream
    // cannot degrade, so a refusal is its 503.
    let (tx, rx) = mpsc::channel::<String>();
    let slot = match admit_and_submit(shared, &item, key.clone(), Some(tx), deadline, false) {
        Ok(slot) => slot,
        Err(refusal) => {
            return Handled::Reply(refused(shared, &refusal, &item.backend_id).into_response())
        }
    };
    let backend = item.backend_id.clone();
    if http::write_streaming_head(writer, 200, "application/x-ndjson").is_err() {
        return Handled::Streamed {
            backend,
            status: 200,
        };
    }
    // Relay stage lines until the worker hangs up the channel (it drops the
    // sender when the job finishes) or the deadline (60 s with deadlines
    // disabled) passes; a dead client ends the relay at once. The final
    // line is the settled outcome — a 504 when the budget ran out.
    let relay_until = deadline.unwrap_or_else(|| Instant::now() + NO_DEADLINE_WAIT);
    while let Ok(line) = rx.recv_timeout(relay_until.saturating_duration_since(Instant::now())) {
        if http::write_line(writer, line.as_bytes()).is_err() {
            return Handled::Streamed {
                backend,
                status: 200,
            };
        }
    }
    let pending = Pending {
        slot,
        item,
        key,
        unavailable: None,
    };
    let outcome = settle(shared, pending, deadline);
    let _ = http::write_line(writer, outcome.body.as_slice());
    let status = outcome.status;
    Handled::Streamed { backend, status }
}

/// Items allowed in one `/v1/translate/batch` request.
const MAX_BATCH_ITEMS: usize = 64;

/// The base of the jittered backoff before a batch item's one retry.
const RETRY_BASE_MS: u64 = 10;

/// `POST /v1/translate/batch` — `{"requests": [{...}, ...]}` →
/// `{"results": [...]}`, one result object per item in order. Item-level
/// failures (unknown backend/database, overload) are inline structured
/// error objects; only a malformed envelope fails the whole request.
pub(crate) fn batch_endpoint(
    shared: &Shared,
    req: &Request,
    tenant: &Arc<TenantRuntime>,
) -> Response {
    let started = Instant::now();
    let state = &shared.state;
    let parsed = match req.json_body() {
        Ok(j) => j,
        Err(resp) => return resp,
    };
    let Some(Json::Arr(requests)) = parsed.get("requests") else {
        return Response::error(400, "missing array field 'requests'");
    };
    if requests.is_empty() {
        return Response::error(400, "'requests' is empty");
    }
    if requests.len() > MAX_BATCH_ITEMS {
        let n = requests.len();
        let message = format!("'requests' has {n} items; a batch holds at most {MAX_BATCH_ITEMS}");
        return Response::error(400, &message);
    }

    // Phase 1: resolve every item, serve cache hits, and `admit` every
    // *distinct* miss, so the pool works on all of them concurrently. A
    // later identical item (same backend × NLQ × db × shape) copies the
    // first one's result instead of racing the cache.
    let deadline = request_deadline(&state.config, req, started);
    let mut first_of: HashMap<CacheKey, usize> = HashMap::new();
    let steps: Vec<Result<Step, usize>> = requests
        .iter()
        .enumerate()
        .map(|(i, obj)| {
            let item = match resolve_item(tenant, obj) {
                Ok(item) => item,
                Err(resp) => return Ok(Step::Done(Outcome::new(resp.status, resp.body))),
            };
            let key = item.cache_key();
            if let Some(&first) = first_of.get(&key) {
                return Err(first);
            }
            // Non-destructive lookup, same reason as the single endpoint:
            // a stale entry must survive for the ladder.
            if let Lookup::Fresh(hit) = state.cache.lookup(&key) {
                item.record_cache(&state.metrics, true);
                let outcome = Outcome::answered(200, hit, "hit", item.backend_id);
                return Ok(Step::Done(outcome));
            }
            item.record_cache(&state.metrics, false);
            first_of.insert(key.clone(), i);
            Ok(admit(shared, item, key, deadline, false))
        })
        .collect();

    // Phase 2: settle in order. A transient `internal` failure is retried
    // once, after a deterministic jittered backoff — item-dependent so
    // concurrent batches don't retry in lockstep, RNG-free so fault-plan
    // replay holds — while the deadline allows. A refused retry leaves the
    // 500 standing: an open breaker means the failures already tripped it.
    let mut out = b"{\"results\": [".to_vec();
    // Where each result sits in `out`: a duplicate copies its first's.
    let mut placed: Vec<std::ops::Range<usize>> = Vec::with_capacity(steps.len());
    for (i, step) in steps.into_iter().enumerate() {
        if i > 0 {
            out.extend_from_slice(b", ");
        }
        let at = out.len();
        match step {
            Err(first) => out.extend_from_within(placed[first].clone()),
            Ok(Step::Done(outcome)) => out.extend_from_slice(outcome.body.as_slice()),
            Ok(Step::Waiting(pending)) => {
                let mut reply = await_reply(&pending.slot, deadline);
                let backoff = RETRY_BASE_MS + (i as u64 * 7 + 13) % RETRY_BASE_MS;
                let backoff = Duration::from_millis(backoff);
                let left = |d: Instant| d.saturating_duration_since(Instant::now());
                if reply.as_ref().is_some_and(|r| r.status == 500)
                    && deadline.is_none_or(|d| left(d) > backoff)
                {
                    std::thread::sleep(backoff);
                    let (item, key) = (&pending.item, pending.key.clone());
                    if let Ok(slot) = admit_and_submit(shared, item, key, None, deadline, false) {
                        state.metrics.inc(Scalar::BatchRetries);
                        reply = await_reply(&slot, deadline);
                    }
                }
                let outcome = conclude(shared, pending, reply, deadline);
                out.extend_from_slice(outcome.body.as_slice());
            }
        }
        placed.push(at..out.len());
    }
    out.extend_from_slice(b"]}");
    let latency = state.metrics.hist(Hist::Request);
    latency.observe_ns(started.elapsed().as_nanos() as u64);
    Response::json(200, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkerPool;
    use crate::server::{EventStats, ServerState};
    use std::sync::atomic::{AtomicBool, AtomicU64};

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
            dispatch_depth: AtomicU64::new(0),
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

        let refused = admit_and_submit(&shared, &item, item.cache_key(), None, None, false);
        assert_eq!(refused.err(), Some(Refused::Overloaded));
        assert_eq!(
            breaker.admit(),
            Admission::Probe,
            "the next request may probe"
        );
    }
}
