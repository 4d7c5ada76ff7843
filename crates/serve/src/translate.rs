//! Translating: one resolved `Item`, one admission stage, three
//! endpoints (`POST /v1/translate`, its NDJSON streaming variant, and
//! `POST /v1/translate/batch`).
//!
//! The single endpoint is split where waiting starts: `translate_early`
//! (parse → resolve → deadline → key → cache lookup) answers errors and
//! fresh hits on the event loop itself; `translate_late` (admission → await
//! → degrade, or the stream relay) continues on a dispatch thread.
//!
//! Every cold translation enters the worker pool through
//! `admit_and_submit` — breaker admission, pool submission, and the
//! half-open probe released if the pool refuses — and is collected through
//! `await_reply`. What a caller does with a refusal (which rungs of the
//! degradation ladder it tries, which counters it bumps) is policy and
//! stays at its call site; DESIGN.md §11 has the table.

use crate::breaker::{Admission, CircuitBreaker};
use crate::cache::Lookup;
use crate::config::ServeConfig;
use crate::http::{self, Body, BodySink, Request, Response};
use crate::metrics::Metrics;
use crate::pool::OneShot;
use crate::routes::Handled;
use crate::server::{CacheKey, DbEntry, ServerState, Shared, TenantRuntime};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
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
#[derive(Clone)]
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
    let backend_req = match parsed.get("backend") {
        None => None,
        Some(v) => match v.as_str() {
            Some(s) => Some(s),
            None => return Err(Response::error(400, "field 'backend' must be a string")),
        },
    };
    let want_vegalite = match parsed.get("vegalite") {
        None => false,
        Some(v) => match v.as_bool() {
            Some(b) => b,
            None => return Err(Response::error(400, "field 'vegalite' must be a boolean")),
        },
    };
    let (backend_idx, backend_id, backend) = match tenant.registry.resolve(backend_req) {
        Ok((i, id, b)) => (i, id.to_string(), Arc::clone(b)),
        Err(unknown) => {
            return Err(Response::error_code(
                404,
                "unknown_backend",
                &format!(
                    "unknown backend '{unknown}' (registered: {})",
                    tenant.registry.ids().collect::<Vec<_>>().join(", ")
                ),
            ))
        }
    };
    let nlq_normalized = normalize_nlq(nlq);
    if nlq_normalized.is_empty() {
        return Err(Response::error_code(400, "empty_query", "'nlq' is empty"));
    }
    let Some(entry) = tenant.dbs.get(db_id) else {
        return Err(Response::error_code(
            404,
            "unknown_database",
            &format!("unknown database '{db_id}'"),
        ));
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

    /// Record a cache hit/miss into the global and tenant families and —
    /// default tenant only, where the index maps onto the
    /// startup-registered set — the unlabelled per-backend family.
    fn record_cache(&self, state: &ServerState, hit: bool) {
        let bump = |hits: &AtomicU64, misses: &AtomicU64| {
            (if hit { hits } else { misses }).fetch_add(1, Ordering::Relaxed);
        };
        let (global, tenant) = (&state.metrics, &self.tenant.metrics);
        bump(&global.cache_hits, &global.cache_misses);
        bump(&tenant.cache_hits, &tenant.cache_misses);
        if self.tenant.is_default {
            let bm = state.metrics.backend(self.backend_idx);
            bump(&bm.cache_hits, &bm.cache_misses);
        }
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
            self.metrics.breaker_opens.fetch_add(1, Ordering::Relaxed);
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

/// Mark a stale or fallback body `"degraded": "<reason>"` so it is always
/// self-describing. The reason is an internal constant (never client
/// data), so no escaping is needed.
fn mark_degraded(body: &[u8], reason: &str) -> Vec<u8> {
    splice_field(body, "degraded", &format!("\"{reason}\""))
}

/// First rung of the degradation ladder: the item's cache entry *ignoring
/// TTL*, marked `degraded: stale_cache`. `None` when nothing was ever
/// cached for the key.
fn stale_degraded_body(shared: &Shared, key: &CacheKey) -> Option<Vec<u8>> {
    let stale = shared.state.cache.get_stale(key)?;
    shared
        .state
        .metrics
        .degraded
        .fetch_add(1, Ordering::Relaxed);
    t2v_trace::note("degrade:stale_cache");
    Some(mark_degraded(&stale, "stale_cache"))
}

/// [`stale_degraded_body`] framed as the single endpoint's response.
fn stale_response(shared: &Shared, key: &CacheKey, backend_id: &str) -> Option<Response> {
    let body = stale_degraded_body(shared, key)?;
    Some(
        Response::json(200, body)
            .with_header("x-t2v-cache", "stale")
            .with_header("x-t2v-degraded", "stale_cache")
            .with_header("x-t2v-backend", backend_id),
    )
}

/// The structured 503 for a backend whose breaker is open.
fn backend_unavailable(backend_id: &str, retry_after_ms: u64, advice: &str) -> Response {
    let secs = retry_after_ms.div_ceil(1000).max(1);
    let message = format!("backend '{backend_id}' is unavailable (circuit open){advice}");
    Response::error_code(503, "backend_unavailable", &message)
        .with_header("Retry-After", secs.to_string())
}

/// The 503 for a pool that would not take the job.
fn overloaded() -> Response {
    Response::error(503, "server overloaded").with_header("Retry-After", "1")
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
    let backend_idx = item.backend_idx;
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
        let queue_wait = enqueued.elapsed();
        if let Some(t) = &trace {
            t.add_span(Stage::QueueWait, enqueued, queue_wait);
        }
        state
            .metrics
            .queue_wait
            .observe_ns(queue_wait.as_nanos() as u64);
        if deadline.is_some_and(|d| Instant::now() >= d) {
            // The budget died in the queue: don't burn a worker on a body
            // nobody is waiting for.
            state
                .metrics
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            guard.answer(error_reply(
                504,
                "deadline exceeded before translation started",
            ));
            return;
        }
        if state.config.debug_translate_sleep_ms > 0 {
            std::thread::sleep(Duration::from_millis(state.config.debug_translate_sleep_ms));
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
            let injected =
                t2v_fault::fire_for(t2v_fault::FaultPoint::BackendError, &backend_id).is_some();
            let req = TranslateRequest::new(&key.2, &entry.db);
            if injected {
                Err(TranslateError::Internal {
                    message: format!("injected fault: backend '{backend_id}' error"),
                })
            } else {
                match &stage_tx {
                    // Streaming: forward each stage line as the pipeline
                    // produces it (timings included — stream lines are never
                    // cached).
                    Some(tx) => backend.translate_streamed(&req, &mut |s: &StageRecord| {
                        let line = Json::obj([(
                            "stage",
                            Json::obj([
                                ("name", Json::str(s.name)),
                                ("dvq", opt_str(&s.dvq)),
                                ("micros", Json::Num(s.micros as f64)),
                            ]),
                        )])
                        .compact();
                        let _ = tx.send(line);
                    }),
                    None => backend.translate(&req),
                }
            }
        };
        let elapsed = t0.elapsed().as_nanos() as u64;
        state.metrics.translate.observe_ns(elapsed);
        tenant.metrics.translations.fetch_add(1, Ordering::Relaxed);
        tenant.metrics.translate.observe_ns(elapsed);
        if result.is_err() {
            tenant.metrics.errors.fetch_add(1, Ordering::Relaxed);
        }
        if tenant.is_default {
            // The unlabelled per-backend family indexes the startup
            // registry; only the default tenant's indices map onto it.
            let bm = state.metrics.backend(backend_idx);
            bm.translations.fetch_add(1, Ordering::Relaxed);
            bm.translate.observe_ns(elapsed);
            if result.is_err() {
                bm.errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        // Breaker accounting: `internal` failures (bugs, injected faults)
        // say the *backend* is unhealthy. Input-level outcomes — including
        // structured no_output/invalid_output — are properties of the
        // query, not the backend, and must never trip it.
        let internal_failure = matches!(result, Err(TranslateError::Internal { .. }));
        if breaker.record(!internal_failure, elapsed) {
            state.metrics.breaker_opens.fetch_add(1, Ordering::Relaxed);
        }
        let status = if internal_failure { 500 } else { 200 };
        let body = Arc::new(render_translation(
            &backend_id,
            &key.2,
            &entry,
            want_vegalite,
            &result,
        ));
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
    let stream = match parsed.get("stream") {
        None => false,
        Some(v) => match v.as_bool() {
            Some(b) => b,
            None => return Early::Reply(Response::error(400, "field 'stream' must be a boolean")),
        },
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
    // breaker rejects the recompute later, `stale_degraded_body` serves it.
    let key = item.cache_key();
    let lookup = {
        let _span = t2v_trace::span(Stage::CacheLookup);
        state.cache.lookup(&key)
    };
    if let Lookup::Fresh(hit) = lookup {
        item.record_cache(state, true);
        state
            .metrics
            .request_total_latency
            .observe_ns(started.elapsed().as_nanos() as u64);
        // The Arc goes straight into the response — no body copy on a hit.
        return Early::Reply(
            Response::json(200, hit)
                .with_header("x-t2v-cache", "hit")
                .with_header("x-t2v-backend", item.backend_id),
        );
    }
    item.record_cache(state, false);
    Early::Resume(Box::new(move |shared, _| {
        translate_late(shared, item, key, deadline, started)
    }))
}

/// The late stage of a cache miss: admission → await → degrade.
fn translate_late(
    shared: &Shared,
    item: Item,
    key: CacheKey,
    deadline: Option<Instant>,
    started: Instant,
) -> Handled {
    let state = &shared.state;
    let reply = Handled::Reply;

    // ---- admission; refusal policy: stale → gred → 503, or a plain 503 ----
    let slot = match admit_and_submit(shared, &item, key.clone(), None, deadline, true) {
        Ok(slot) => slot,
        Err(Refused::Open { retry_after_ms }) => {
            return reply(breaker_rejection(
                shared,
                &item,
                &key,
                retry_after_ms,
                deadline,
            ));
        }
        Err(Refused::Overloaded) => {
            state.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            return reply(overloaded());
        }
    };
    let Some(r) = await_reply(&slot, deadline) else {
        // The budget ran out waiting on the worker. Degrade to a marked
        // stale body when we have one; the orphaned job's reply goes to
        // nobody (and an injected-fault body was never cached anyway).
        if deadline.is_some() {
            state
                .metrics
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            return reply(
                stale_response(shared, &key, &item.backend_id).unwrap_or_else(|| {
                    Response::error(504, "deadline exceeded before the translation finished")
                }),
            );
        }
        return reply(Response::error(500, "translation timed out"));
    };
    state
        .metrics
        .request_total_latency
        .observe_ns(started.elapsed().as_nanos() as u64);
    reply(
        Response::json(r.status, r.body)
            .with_header("x-t2v-cache", "miss")
            .with_header("x-t2v-backend", item.backend_id),
    )
}

/// The response for a request whose backend breaker is open: walk the
/// degradation ladder — a stale-but-marked cache hit, then a fallback
/// through the tenant's cheap `gred` backend — before admitting defeat
/// with a structured 503 `backend_unavailable` + `Retry-After`.
fn breaker_rejection(
    shared: &Shared,
    item: &Item,
    key: &CacheKey,
    retry_after_ms: u64,
    deadline: Option<Instant>,
) -> Response {
    shared
        .state
        .metrics
        .breaker_rejections
        .fetch_add(1, Ordering::Relaxed);
    // The whole ladder is one degradation decision in the trace; notes say
    // which rung answered.
    let _span = t2v_trace::span(Stage::Degrade);
    t2v_trace::note(format!("breaker:open:{}", item.backend_id));
    if let Some(resp) = stale_response(shared, key, &item.backend_id) {
        return resp;
    }
    if let Some(resp) = gred_fallback(shared, item, deadline) {
        return resp;
    }
    backend_unavailable(&item.backend_id, retry_after_ms, "; retry or degrade")
}

/// Second rung of the degradation ladder: re-run the request through the
/// tenant's `gred` backend (retrieval is cheap and has no trained weights
/// to be wedged) when the refused backend isn't gred itself and gred's own
/// breaker admits. The body is marked `degraded: fallback:gred`.
fn gred_fallback(shared: &Shared, item: &Item, deadline: Option<Instant>) -> Option<Response> {
    if item.backend_id == "gred" {
        return None;
    }
    let (idx, id, backend) = item.tenant.registry.resolve(Some("gred")).ok()?;
    let fb = Item {
        backend_idx: idx,
        backend_id: id.to_string(),
        backend: Arc::clone(backend),
        ..item.clone()
    };
    let key = fb.cache_key();
    let degraded_ok = |body: Vec<u8>| {
        shared
            .state
            .metrics
            .degraded
            .fetch_add(1, Ordering::Relaxed);
        t2v_trace::note("degrade:fallback:gred");
        Some(
            Response::json(200, body)
                .with_header("x-t2v-degraded", "fallback:gred")
                .with_header("x-t2v-backend", "gred"),
        )
    };
    if let Lookup::Fresh(hit) = shared.state.cache.lookup(&key) {
        return degraded_ok(mark_degraded(&hit, "fallback:gred"));
    }
    // No rung below this one: a refusal, a timeout or a failed translation
    // just ends the ladder, uncounted.
    let slot = admit_and_submit(shared, &fb, key, None, deadline, false).ok()?;
    let r = await_reply(&slot, deadline)?;
    if r.status != 200 {
        return None;
    }
    degraded_ok(mark_degraded(&r.body, "fallback:gred"))
}

/// The NDJSON streaming variant of `/v1/translate`: one line per completed
/// stage as the backend produces it, then the full (non-streamed-identical)
/// response object as the final line. EOF-delimited: the connection closes
/// when the stream ends. Bypasses the cache read path (a cached body has no
/// stages left to stream) but still populates the cache for later requests.
fn stream_endpoint(
    shared: &Shared,
    item: Item,
    writer: &mut dyn BodySink,
    deadline: Option<Instant>,
) -> Handled {
    let state = &shared.state;
    let key = item.cache_key();
    item.record_cache(state, false);
    // ---- admission; refusal policy: a structured 503, no degradation ----
    let (tx, rx) = mpsc::channel::<String>();
    let slot = match admit_and_submit(shared, &item, key, Some(tx), deadline, false) {
        Ok(slot) => slot,
        Err(Refused::Open { retry_after_ms }) => {
            state
                .metrics
                .breaker_rejections
                .fetch_add(1, Ordering::Relaxed);
            return Handled::Reply(backend_unavailable(&item.backend_id, retry_after_ms, ""));
        }
        Err(Refused::Overloaded) => {
            state.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            return Handled::Reply(overloaded());
        }
    };
    let streamed = Handled::Streamed {
        backend: item.backend_id,
    };
    if http::write_streaming_head(writer, 200, "application/x-ndjson").is_err() {
        return streamed;
    }
    // Relay stage lines until the worker hangs up the channel (it drops the
    // sender when the job finishes), then emit the final body. One shared
    // deadline (the request budget, or 60 s with deadlines disabled) covers
    // the whole stream, and a dead client ends the relay immediately — no
    // second timeout stacks on top.
    let deadline = deadline.unwrap_or_else(|| Instant::now() + NO_DEADLINE_WAIT);
    let mut client_gone = false;
    loop {
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(line) => {
                if http::write_line(writer, line.as_bytes()).is_err() {
                    client_gone = true;
                    break;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if Instant::now() >= deadline {
                    break;
                }
            }
        }
    }
    if !client_gone {
        if let Some(r) = await_reply(&slot, Some(deadline)) {
            let _ = http::write_line(writer, &r.body);
        }
    }
    streamed
}

/// Items allowed in one `/v1/translate/batch` request.
const MAX_BATCH_ITEMS: usize = 64;

/// Retries of a batch item's transient `internal` failure (worker panic,
/// injected backend error), and the base of their jittered backoff.
const BATCH_RETRIES: usize = 1;
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
        return Response::error(
            400,
            &format!(
                "'requests' has {} items; a batch holds at most {MAX_BATCH_ITEMS}",
                requests.len()
            ),
        );
    }

    // Phase 1: resolve every item, serve cache hits, submit every *distinct*
    // miss so the pool works on all of them concurrently. Identical items
    // within one batch (same backend × NLQ × db × shape) share a single
    // cold translation instead of racing the cache. An open breaker
    // degrades to a marked stale body or fails the item inline — it never
    // queues doomed work.
    enum Pending {
        Done(Arc<Vec<u8>>),
        Waiting {
            slot: OneShot<Reply>,
            /// Kept for transient-failure retries in phase 2.
            item: Item,
            key: CacheKey,
        },
        /// An inline error object (the single endpoint's error body).
        Failed(Body),
        /// Same key as an earlier admitted item in this batch: reuse its
        /// result.
        Dup(usize),
    }
    let deadline = request_deadline(&state.config, req, started);
    let mut in_flight: HashMap<CacheKey, usize> = HashMap::new();
    let pending: Vec<Pending> = requests
        .iter()
        .enumerate()
        .map(|(i, obj)| {
            let item = match resolve_item(tenant, obj) {
                Ok(item) => item,
                Err(resp) => return Pending::Failed(resp.body),
            };
            let key = item.cache_key();
            if let Some(&first) = in_flight.get(&key) {
                return Pending::Dup(first);
            }
            // Non-destructive lookup, same reason as the single endpoint:
            // a stale entry must survive for the rejection path below.
            if let Lookup::Fresh(hit) = state.cache.lookup(&key) {
                item.record_cache(state, true);
                return Pending::Done(hit);
            }
            item.record_cache(state, false);
            // ---- admission; refusal policy: stale → inline 503 ----
            match admit_and_submit(shared, &item, key.clone(), None, deadline, false) {
                Ok(slot) => {
                    in_flight.insert(key.clone(), i);
                    Pending::Waiting { slot, item, key }
                }
                Err(Refused::Open { retry_after_ms }) => {
                    state
                        .metrics
                        .breaker_rejections
                        .fetch_add(1, Ordering::Relaxed);
                    match stale_degraded_body(shared, &key) {
                        Some(body) => Pending::Done(Arc::new(body)),
                        None => Pending::Failed(
                            backend_unavailable(&item.backend_id, retry_after_ms, "").body,
                        ),
                    }
                }
                Err(Refused::Overloaded) => {
                    state.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                    Pending::Failed(overloaded().body)
                }
            }
        })
        .collect();

    // Phase 2: collect in order, under one shared deadline (the request
    // budget, or 60 s with deadlines disabled). A transient `internal`
    // failure retries with jittered exponential backoff while budget
    // remains — chaos storms pass; the batch shouldn't fail for one blip.
    let deadline_i = deadline.unwrap_or(started + NO_DEADLINE_WAIT);
    let timeout_body = || {
        if deadline.is_some() {
            state
                .metrics
                .deadline_exceeded
                .fetch_add(1, Ordering::Relaxed);
            Response::error(504, "deadline exceeded before the translation finished").body
        } else {
            Response::error(500, "translation timed out").body
        }
    };
    // Resolved bodies by item index, so later duplicates can reference
    // earlier results (a Dup always points backwards).
    let mut resolved: Vec<Option<Arc<Vec<u8>>>> = Vec::with_capacity(pending.len());
    let mut out = Vec::with_capacity(4096);
    out.extend_from_slice(b"{\"results\": [");
    for (i, p) in pending.into_iter().enumerate() {
        if i > 0 {
            out.extend_from_slice(b", ");
        }
        let body: Option<Arc<Vec<u8>>> = match p {
            Pending::Done(body) => Some(body),
            Pending::Failed(bytes) => {
                out.extend_from_slice(bytes.as_slice());
                resolved.push(None);
                continue;
            }
            Pending::Waiting { slot, item, key } => {
                let mut reply = await_reply(&slot, Some(deadline_i));
                let mut attempt = 0usize;
                while reply.as_ref().is_some_and(|r| r.status == 500) && attempt < BATCH_RETRIES {
                    attempt += 1;
                    // Deterministic jitter — (item, attempt)-dependent so
                    // concurrent batches don't retry in lockstep, with no
                    // RNG to perturb fault-plan replay.
                    let backoff = RETRY_BASE_MS * (1u64 << (attempt - 1).min(6))
                        + (i as u64 * 7 + attempt as u64 * 13) % RETRY_BASE_MS;
                    if deadline_i.saturating_duration_since(Instant::now())
                        <= Duration::from_millis(backoff)
                    {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(backoff));
                    // ---- admission; refusal policy: the inline error
                    // stands (an open breaker means the failures already
                    // tripped it — stop hammering) ----
                    match admit_and_submit(shared, &item, key.clone(), None, deadline, false) {
                        Ok(slot) => {
                            state.metrics.batch_retries.fetch_add(1, Ordering::Relaxed);
                            reply = await_reply(&slot, Some(deadline_i));
                        }
                        Err(_) => break,
                    }
                }
                reply.map(|r| r.body)
            }
            Pending::Dup(first) => resolved[first].clone(),
        };
        match &body {
            Some(b) => out.extend_from_slice(b),
            None => out.extend_from_slice(timeout_body().as_slice()),
        }
        resolved.push(body);
    }
    out.extend_from_slice(b"]}");
    state
        .metrics
        .request_total_latency
        .observe_ns(started.elapsed().as_nanos() as u64);
    Response::json(200, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::WorkerPool;
    use crate::server::EventStats;
    use std::sync::atomic::AtomicBool;

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
