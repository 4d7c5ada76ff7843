//! One parsed request in, one response out, as ordered stages: [`begin`]
//! (trace id, sampling, `conn.read` span) → [`route`] (routing, and all a
//! request decides before it waits) → [`finish`] (count, frame the bytes,
//! seal and publish the trace). The event loop routes every request and
//! answers what needs no wait in place; what waits on the pool is
//! `finish`ed by the thread that ends it — the worker whose reply completes
//! it, or the loop's deadline timer. The in-memory oracle runs the same
//! stages on one thread: one `finish` keeps their bytes identical. Wire
//! format: DESIGN.md §8.

use crate::access_log::{render_line, AccessLog};
use crate::admin::{
    admin_alerts, admin_profile, admin_snapshot_endpoint, admin_status, admin_tenants_attach,
    admin_tenants_detach, admin_tenants_list, admin_trace_get, admin_trace_recent, admin_tsdb,
    trace_json,
};
use crate::http::{self, BodySink, Request, Response};
use crate::metrics::{Hist, Route};
use crate::server::{ServerState, Shared, TenantRuntime};
use crate::translate::{batch_early, splice_field, translate_early, Early};
use std::sync::Arc;
use std::time::{Duration, Instant};
use t2v_engine::Json;
use t2v_fault::{fire_delay, FaultPoint::ConnWriteStall};
use t2v_tenant::DEFAULT_TENANT_ID;
use t2v_trace::{FinishedTrace, Stage, Trace};

/// Answer an unreadable request: a 400 for a malformed head, a 413 for an
/// oversized body, counted under `Route::Other`. `Closed`/`Io` errors get
/// no answer — the connection just hangs up.
pub(crate) fn write_read_error(shared: &Shared, err: &http::ReadError, out: &mut Vec<u8>) {
    let (status, message): (u16, &str) = match err {
        http::ReadError::Malformed(why) => (400, why),
        http::ReadError::BodyTooLarge => (413, "request body too large"),
        http::ReadError::Closed | http::ReadError::Io(_) => return,
    };
    let resp = Response::error(status, message);
    shared.state.metrics.record_request(Route::Other, status);
    let _ = resp.write_to_sink(out, false);
}

/// A request between [`begin`] and [`finish`]; its trace rides thread hops.
pub(crate) struct Begun {
    pub(crate) trace: Trace,
    force: bool,
    sampled: bool,
    t0: Instant,
    /// The delay a fired `conn.write_stall` gave this request's framed
    /// reply: its write counts that much longer, and the loop holds its
    /// bytes back as long.
    pub(crate) stall: Option<Duration>,
}

/// First stage: trace setup (DESIGN.md §12). Every request gets an id (the
/// `x-t2v-trace-id` header); spans are recorded only when something could
/// consume them — the client forced it, the sampler hit, the flight
/// recorder may keep it as slow or failed, or the access log needs
/// per-stage timings. Otherwise the whole machinery is id generation plus
/// no-op guards.
pub(crate) fn begin(shared: &Shared, req: &Request, t0: Instant, read_dur: Duration) -> Begun {
    let config = &shared.state.config;
    let force = req
        .header("x-t2v-trace")
        .is_some_and(|v| v.trim() == "1" || v.trim().eq_ignore_ascii_case("true"));
    let trace_id = t2v_trace::new_trace_id();
    let sampled = config.trace_sample > 0.0 && t2v_trace::sample_hit(trace_id, config.trace_sample);
    let record =
        force || sampled || shared.state.recorder.is_some() || shared.state.access_log.is_some();
    let trace = Trace::start_at(trace_id, record, t0);
    trace.add_span(Stage::ConnRead, t0, read_dur);
    Begun {
        trace,
        force,
        sampled,
        t0,
        stall: None,
    }
}

/// Route one request under its trace. A reply also fires the
/// `conn.write_stall` seam (a counter, an RNG draw) into `begun.stall`; a
/// reply framed later fires it where it is framed.
pub(crate) fn route(shared: &Shared, req: &Request, begun: &mut Begun) -> (Route, Early) {
    let _scope = begun.trace.scope();
    let (route, early) = respond(shared, req);
    if matches!(early, Early::Reply(_)) {
        begun.stall = fire_delay(ConnWriteStall);
    }
    (route, early)
}

/// Last stage, the same on every thread that answers: count, frame the
/// response into `writer`, seal the trace if anything reads it, publish;
/// returns keep-alive.
/// Locks and atomics only — the access-log line (file I/O) goes through `log`.
pub(crate) fn finish<W: BodySink + ?Sized>(
    shared: &Shared,
    req: &Request,
    begun: Begun,
    route: Route,
    handled: Handled,
    writer: &mut W,
    log: impl FnOnce(Arc<AccessLog>, String),
) -> bool {
    let (trace, force, t0) = (begun.trace, begun.force, begun.t0);
    let stall = begun.stall.unwrap_or_default();
    let wanted = force || begun.sampled;
    let trace_id = trace.id();
    let keep = !req.wants_close();
    let tenant = request_tenant(&req.path);
    let (keep, finished) = match handled {
        Handled::Reply(resp) => {
            shared.state.metrics.record_request(route, resp.status);
            let mut resp = resp.with_header("x-t2v-trace-id", t2v_trace::format_id(trace_id));
            // Request-level fields come off the response's own headers.
            // `resp.write` is appended after the write: the recorder and
            // access log see it, the body cannot.
            let seal = |trace: Trace, resp: &Response, end: Instant| {
                let backend = resp_header(resp, "x-t2v-backend").unwrap_or("");
                let cache = resp_header(resp, "x-t2v-cache").unwrap_or("bypass");
                let degraded = resp_header(resp, "x-t2v-degraded");
                trace.finish_at(end, resp.status, tenant, backend, cache, degraded)
            };
            // A forced trace rides in this very body: seal it first. Any
            // other is sealed after the write, as of the write's start, and
            // only when `publish_trace` has a reader for it — most hits
            // have none, and drop their spans unread.
            let forced = force
                .then(|| seal(trace.clone(), &resp, Instant::now()))
                .flatten();
            if let Some(f) = &forced {
                if resp.content_type.starts_with("application/json") {
                    let tree = trace_json(f).compact();
                    resp.body = splice_field(resp.body.as_slice(), "trace", &tree).into();
                }
            }
            let wstart = Instant::now();
            let ok = resp.write_to_sink(writer, keep);
            let wdur = wstart.elapsed() + stall;
            let total_ns = (t0.elapsed() + stall).as_nanos() as u64;
            let finished = if force {
                forced
            } else if record_read(shared, wanted, resp.status, total_ns) {
                seal(trace, &resp, wstart)
            } else {
                None
            };
            let finished = finished.map(|mut f| {
                f.spans.push(t2v_trace::Span {
                    stage: Stage::Write,
                    start_ns: wstart.duration_since(t0).as_nanos() as u64,
                    dur_ns: wdur.as_nanos() as u64,
                    parent: Some(0),
                    notes: Vec::new(),
                });
                f.total_ns = total_ns;
                f.spans[0].dur_ns = total_ns;
                f
            });
            (ok.is_ok() && keep, finished)
        }
        // The endpoint already wrote an EOF-delimited streaming body;
        // the connection closes to mark the end of the stream. A traced
        // stream gets its span tree as one final NDJSON line.
        Handled::Streamed { backend, status } => {
            shared.state.metrics.record_request(route, status);
            let end = Instant::now();
            let total_ns = end.saturating_duration_since(t0).as_nanos() as u64;
            let finished = (force || record_read(shared, wanted, status, total_ns))
                .then(|| trace.finish_at(end, status, tenant, &backend, "bypass", None))
                .flatten();
            if let (true, Some(f)) = (force, &finished) {
                let line = Json::obj([("trace", trace_json(f))]).compact();
                let _ = http::write_line(writer, line.as_bytes());
            }
            (false, finished)
        }
    };
    if let Some(f) = finished {
        publish_trace(shared, req, f, wanted, log);
    }
    keep
}

/// The tenant a request path addresses (`default` for unprefixed routes).
fn request_tenant(path: &str) -> &str {
    path.strip_prefix("/v1/t/")
        .and_then(|rest| rest.split('/').next())
        .filter(|id| !id.is_empty())
        .unwrap_or(DEFAULT_TENANT_ID)
}

/// First value of a response header (the endpoints communicate per-request
/// observability facts — backend, cache outcome, degradation — through the
/// headers they already set for clients).
fn resp_header<'a>(resp: &'a Response, name: &str) -> Option<&'a str> {
    resp.headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

/// Requests at least this slow are always recorded, regardless of
/// sampling — the slow tail is the whole point of a flight recorder.
pub(crate) const SLOW_TRACE_MS: u64 = 500;

fn is_slow(total_ns: u64) -> bool {
    total_ns >= SLOW_TRACE_MS * 1_000_000
}

/// Whether [`publish_trace`] would read a record of this request: the
/// access log takes every one, the slow counter every slow one, and the
/// recorder the wanted and the failed. Sealing one nothing reads is waste.
fn record_read(shared: &Shared, wanted: bool, status: u16, total_ns: u64) -> bool {
    let state = &shared.state;
    is_slow(total_ns)
        || state.access_log.is_some()
        || (state.recorder.is_some() && (wanted || status >= 500))
}

/// Store / log / count one sealed trace according to the knobs: the
/// recorder keeps it when `wanted` (the client forced it or the sampler
/// hit) or the slow/error override fires; the access log always gets its
/// line; a slow request also charges `t2v_slow_requests_total{stage}` with
/// its dominant stage.
fn publish_trace(
    shared: &Shared,
    req: &Request,
    f: FinishedTrace,
    wanted: bool,
    log: impl FnOnce(Arc<AccessLog>, String),
) {
    let slow = is_slow(f.total_ns);
    let error = f.status >= 500;
    if slow {
        // A trace that hit the span cap lost spans — its "dominant stage"
        // would be computed from a partial tree, silently mis-attributing
        // the slowness. Charge those to an explicit `truncated` bucket
        // instead (the cap is `t2v_trace::MAX_SPANS`, 24 spans).
        let stage = (f.dropped_spans == 0).then(|| f.dominant_stage());
        shared.state.metrics.record_slow(stage);
    }
    if let Some(file) = &shared.state.access_log {
        log(Arc::clone(file), render_line(&req.method, &req.path, &f));
    }
    if wanted || slow || error {
        if let Some(recorder) = &shared.state.recorder {
            // This trace is retrievable via `/v1/admin/trace/{id}`, so it
            // can serve as the latency exemplar for its histogram bucket —
            // the `/metrics` → flight recorder jump (DESIGN.md §15).
            let latency = shared.state.metrics.hist(Hist::Request);
            latency.record_exemplar(f.total_ns, f.id);
            recorder.store(Arc::new(f));
        }
    }
}

/// How a request was answered: a framed response to write, or a streaming
/// body the endpoint already wrote itself under a 200 head — by which
/// backend, and with the status its final line settled on, for the
/// counters and the trace record (no response headers are left to read).
pub(crate) enum Handled {
    Reply(Response),
    Streamed { backend: String, status: u16 },
}

/// Route one request. A translation gets its early stage (errors and hits
/// answered, what waits left as [`Early::Wait`]); the admin routes that
/// build, drop or write become [`Early::Job`]s; every other route — the
/// TSDB and profile reads included, bounded by the ops plane's 900 s
/// retention — is answered in full.
/// Tenant-scoped traffic: `/v1/t/{tenant}/...`, same sub-routes as `/v1/*`.
fn respond(shared: &Shared, req: &Request) -> (Route, Early) {
    let reply = |route: Route, resp: Response| (route, Early::Reply(resp));
    // Tenant-scoped routes first: /v1/t/{tenant}/{sub}.
    if let Some(rest) = req.path.strip_prefix("/v1/t/") {
        let Some((tenant_id, sub)) = rest.split_once('/') else {
            return reply(Route::Tenant, Response::error(404, "no such route"));
        };
        if !matches!(sub, "translate" | "translate/batch" | "backends") {
            return reply(Route::Tenant, Response::error(404, "no such route"));
        }
        let table = shared.state.tenants();
        let Some(tenant) = table.get(tenant_id) else {
            return reply(
                Route::Tenant,
                Response::error_code(
                    404,
                    "unknown_tenant",
                    &format!("unknown tenant '{tenant_id}'"),
                ),
            );
        };
        return match (req.method.as_str(), sub) {
            ("POST", "translate") => (Route::Tenant, translate_early(shared, req, tenant)),
            ("POST", "translate/batch") => (Route::Tenant, batch_early(shared, req, tenant)),
            ("GET", "backends") => reply(Route::Tenant, backends_endpoint(tenant, true)),
            _ => reply(Route::Tenant, Response::error(405, "method not allowed")),
        };
    }
    // Trace admin routes: a path suffix (the id), so prefix-matched.
    if let Some(rest) = req.path.strip_prefix("/v1/admin/trace/") {
        if req.method != "GET" {
            return reply(Route::Admin, Response::error(405, "method not allowed"));
        }
        let resp = if rest == "recent" {
            admin_trace_recent(&shared.state, req)
        } else {
            admin_trace_get(&shared.state, rest)
        };
        return reply(Route::Admin, resp);
    }
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => reply(Route::Healthz, healthz(&shared.state)),
        ("GET", "/v1/admin/status") => reply(Route::Admin, admin_status(shared)),
        ("GET", "/v1/admin/tsdb") => reply(Route::Admin, admin_tsdb(shared, req)),
        ("GET", "/v1/admin/alerts") => reply(Route::Admin, admin_alerts(shared)),
        ("GET", "/v1/admin/profile") => reply(Route::Admin, admin_profile(shared, req)),
        ("GET", "/metrics") => reply(Route::Metrics, metrics_endpoint(shared)),
        ("GET", "/v1/backends") => reply(
            Route::Backends,
            backends_endpoint(&shared.state.default_tenant, false),
        ),
        ("POST", "/v1/admin/snapshot") => (Route::Admin, Early::Job(admin_snapshot_endpoint)),
        ("GET", "/v1/admin/tenants") => reply(Route::Admin, admin_tenants_list(&shared.state)),
        ("POST", "/v1/admin/tenants/attach") => (Route::Admin, Early::Job(admin_tenants_attach)),
        ("DELETE", "/v1/admin/tenants/detach") => (Route::Admin, Early::Job(admin_tenants_detach)),
        ("POST", "/v1/translate") => (
            Route::Translate,
            translate_early(shared, req, &shared.state.default_tenant),
        ),
        ("POST", "/v1/translate/batch") => (
            Route::TranslateBatch,
            batch_early(shared, req, &shared.state.default_tenant),
        ),
        (
            _,
            "/healthz"
            | "/metrics"
            | "/v1/translate"
            | "/v1/translate/batch"
            | "/v1/backends"
            | "/v1/admin/snapshot"
            | "/v1/admin/status"
            | "/v1/admin/tsdb"
            | "/v1/admin/alerts"
            | "/v1/admin/profile"
            | "/v1/admin/tenants"
            | "/v1/admin/tenants/attach"
            | "/v1/admin/tenants/detach",
        ) => reply(Route::Other, Response::error(405, "method not allowed")),
        _ => reply(Route::Other, Response::error(404, "no such route")),
    }
}

/// `/metrics` — the Prometheus registry, plus the SLO gauges of the
/// burn-rate engine's last sweep (when `slo=` objectives are configured and
/// the sampler is running).
fn metrics_endpoint(shared: &Shared) -> Response {
    let slo = shared.obs.as_ref().and_then(|o| o.slo());
    let statuses = slo.map(|s| s.last()).unwrap_or_default();
    Response {
        status: 200,
        content_type: "text/plain; version=0.0.4",
        headers: Vec::new(),
        body: shared.state.metrics.render_prometheus(&statuses).into(),
    }
}

fn healthz(state: &ServerState) -> Response {
    let body = Json::obj([
        ("status", Json::str("ok")),
        ("databases", Json::Num(state.dbs.len() as f64)),
        ("library", Json::Num(state.gred.library().len() as f64)),
        ("backends", Json::Num(state.registry.len() as f64)),
        ("tenants", Json::Num(state.tenants().len() as f64)),
    ]);
    Response::json(200, body.compact())
}

/// `GET /v1/backends` (and `GET /v1/t/{tenant}/backends`): capability
/// metadata for every backend the tenant registers. The tenant-scoped
/// variant additionally names its tenant; the default route's body is
/// byte-identical to the pre-tenant surface.
fn backends_endpoint(tenant: &TenantRuntime, named: bool) -> Response {
    let backends: Vec<Json> = tenant
        .registry
        .infos()
        .into_iter()
        .map(|(id, info)| {
            Json::obj([
                ("id", Json::str(id)),
                ("name", Json::str(info.name)),
                ("kind", Json::str(info.kind.label())),
                (
                    "stages",
                    Json::Arr(info.stages.iter().map(|s| Json::str(*s)).collect()),
                ),
                ("deterministic", Json::Bool(info.deterministic)),
                ("description", Json::str(info.description)),
            ])
        })
        .collect();
    let mut body = Json::obj([
        (
            "default",
            Json::str(tenant.registry.default_id().unwrap_or("")),
        ),
        ("backends", Json::Arr(backends)),
        (
            "library",
            Json::obj([
                (
                    "fingerprint",
                    Json::str(format!("{:#018x}", tenant.library_fingerprint)),
                ),
                ("source", Json::str(tenant.library_provenance.label())),
                ("entries", Json::Num(tenant.gred.library().len() as f64)),
            ]),
        ),
    ]);
    if named {
        body.set("tenant", Json::str(tenant.id.as_str()));
        body.set("corpus", Json::str(tenant.corpus_label.as_str()));
    }
    Response::json(200, body.compact())
}
