//! The `/v1/admin/*` handlers: flight-recorder lookups, the status
//! snapshot, the ops plane (TSDB, alerts, profile), tenant attach/detach
//! and library snapshots (DESIGN.md §9, §10, §12, §15).

use crate::http::{Request, Response};
use crate::metrics::Scalar;
use crate::routes::SLOW_TRACE_MS;
use crate::server::{AttachRequest, ServerState, Shared, TenantAdminError, TenantRuntime};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use t2v_engine::Json;
use t2v_trace::FinishedTrace;

/// Serialise one sealed trace as the wire span tree (admin endpoints, the
/// inline `X-T2V-Trace: 1` splice, and the final NDJSON trace line).
pub(crate) fn trace_json(f: &FinishedTrace) -> Json {
    let spans: Vec<Json> = f
        .spans
        .iter()
        .map(|s| {
            let mut span = Json::obj([
                ("stage", Json::str(s.stage.name())),
                ("start_ms", Json::Num(s.start_ns as f64 / 1e6)),
                ("dur_ms", Json::Num(s.dur_ns as f64 / 1e6)),
                (
                    "parent",
                    match s.parent {
                        Some(p) => Json::Num(p as f64),
                        None => Json::Null,
                    },
                ),
            ]);
            if !s.notes.is_empty() {
                span.set(
                    "notes",
                    Json::Arr(s.notes.iter().map(|n| Json::str(n.as_str())).collect()),
                );
            }
            span
        })
        .collect();
    let mut body = trace_summary_json(f);
    body.set(
        "degraded",
        match &f.degraded {
            Some(d) => Json::str(&**d),
            None => Json::Null,
        },
    );
    body.set("spans", Json::Arr(spans));
    if f.dropped_spans > 0 {
        body.set("dropped_spans", Json::Num(f.dropped_spans as f64));
    }
    body
}

/// One row of `GET /v1/admin/trace/recent`: the request-level facts without
/// the span tree (fetch the id for the full tree).
fn trace_summary_json(f: &FinishedTrace) -> Json {
    Json::obj([
        ("id", Json::str(t2v_trace::format_id(f.id))),
        ("wall_ms", Json::Num(f.wall_ms as f64)),
        ("tenant", Json::str(&*f.tenant)),
        ("backend", Json::str(&*f.backend)),
        ("cache", Json::str(&*f.cache)),
        ("status", Json::Num(f.status as f64)),
        ("total_ms", Json::Num(f.total_ns as f64 / 1e6)),
        ("dominant_stage", Json::str(f.dominant_stage().name())),
    ])
}

/// `GET /v1/admin/trace/{id}` — one trace from the flight recorder, full
/// span tree.
pub(crate) fn admin_trace_get(state: &ServerState, id_str: &str) -> Response {
    let Some(recorder) = &state.recorder else {
        return Response::error_code(
            404,
            "recorder_disabled",
            "the flight recorder is disabled (trace_buffer=0)",
        );
    };
    let Some(id) = t2v_trace::parse_id(id_str) else {
        return Response::error(400, "malformed trace id (expected 32 hex chars)");
    };
    match recorder.get(id) {
        Some(t) => Response::json(200, trace_json(&t).compact()),
        None => Response::error_code(
            404,
            "unknown_trace",
            "trace not found (never recorded, or already evicted from the flight recorder)",
        ),
    }
}

/// One `key=value` out of a query string, percent-decoded, so a labelled
/// TSDB key (`t2v_request_seconds_bucket{le="0.005"}`) is addressable. A
/// `%` not followed by two hex digits stays as it is.
fn query_param(query: &str, key: &str) -> Option<String> {
    let (_, raw) = query
        .split('&')
        .filter_map(|kv| kv.split_once('='))
        .find(|(k, _)| *k == key)?;
    let mut out = Vec::with_capacity(raw.len());
    let mut rest = raw.as_bytes();
    while let [b, tail @ ..] = rest {
        let digit = |i: usize| tail.get(i).and_then(|&d| (d as char).to_digit(16));
        match (b, digit(0), digit(1)) {
            (b'%', Some(hi), Some(lo)) => {
                out.push((hi * 16 + lo) as u8);
                rest = &tail[2..];
            }
            _ => {
                out.push(*b);
                rest = tail;
            }
        }
    }
    Some(String::from_utf8_lossy(&out).into_owned())
}

/// `GET /v1/admin/trace/recent?tenant=&min_ms=&limit=` — newest recorded
/// traces, summarised.
pub(crate) fn admin_trace_recent(state: &ServerState, req: &Request) -> Response {
    let Some(recorder) = &state.recorder else {
        return Response::error_code(
            404,
            "recorder_disabled",
            "the flight recorder is disabled (trace_buffer=0)",
        );
    };
    let tenant = query_param(&req.query, "tenant").filter(|t| !t.is_empty());
    let tenant = tenant.as_deref();
    let min_ms = match query_param(&req.query, "min_ms") {
        None => 0u64,
        Some(v) => match v.parse() {
            Ok(ms) => ms,
            Err(_) => return Response::error(400, "min_ms must be a non-negative integer"),
        },
    };
    let limit = match query_param(&req.query, "limit") {
        None => 50usize,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => n.min(500),
            _ => return Response::error(400, "limit must be a positive integer"),
        },
    };
    let traces = recorder.recent(tenant, min_ms.saturating_mul(1_000_000), limit);
    let body = Json::obj([
        ("count", Json::Num(traces.len() as f64)),
        (
            "traces",
            Json::Arr(traces.iter().map(|t| trace_summary_json(t)).collect()),
        ),
    ]);
    Response::json(200, body.compact())
}

/// `GET /v1/admin/status` — one JSON snapshot of what an operator checks
/// first: pool pressure, per-tenant breaker states, cache effectiveness,
/// attached tenants, recorder fill, and build/format versions.
pub(crate) fn admin_status(shared: &Shared) -> Response {
    let state = &shared.state;
    let load = |gauge: &AtomicU64| Json::Num(gauge.load(Ordering::Relaxed) as f64);
    let scalar = |s: Scalar| Json::Num(state.metrics.get(s) as f64);
    let table = state.tenants();
    let cache = state.cache.stats();
    // The registry's counts, as `/metrics` renders them: the cache's own
    // count lookups (a fallback rung's), not items (a stream's miss).
    let [hits, misses] = [Scalar::CacheHits, Scalar::CacheMisses].map(|s| state.metrics.get(s));
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    let mut pool = Json::obj([
        (
            "workers",
            Json::Num(state.config.effective_workers() as f64),
        ),
        ("queue_depth", Json::Num(shared.pool.queue_depth() as f64)),
        ("queue_capacity", Json::Num(shared.pool.capacity() as f64)),
    ]);
    // Quiet, `submitted == completed + expired`: no job lost or counted twice.
    for (name, n) in crate::pool::COUNTS.into_iter().zip(shared.pool.counts()) {
        pool.set(name, Json::Num(n as f64));
    }
    pool.set("late_dropped", scalar(Scalar::LateRepliesDropped));
    let tenants: Vec<Json> = table
        .iter()
        .map(|t| {
            let breakers: Vec<Json> = t
                .registry
                .ids()
                .zip(&t.breakers)
                .map(|(id, b)| {
                    Json::obj([
                        ("backend", Json::str(id)),
                        ("state", Json::str(breaker_state_label(b.state()))),
                        ("opens", Json::Num(b.opens() as f64)),
                        (
                            "mean_latency_ms",
                            Json::Num(b.mean_latency_ns() as f64 / 1e6),
                        ),
                    ])
                })
                .collect();
            Json::obj([
                ("id", Json::str(t.id.as_str())),
                ("corpus", Json::str(t.corpus_label.as_str())),
                ("epoch", Json::Num(t.epoch as f64)),
                // Every tenant retrieves by exact scan; the benchmark's
                // serve guard reads this field to confirm it.
                ("index", Json::str("flat")),
                ("rows", Json::Num(t.gred.library().len() as f64)),
                ("breakers", Json::Arr(breakers)),
            ])
        })
        .collect();
    let body = Json::obj([
        (
            "build",
            Json::obj([
                ("version", Json::str(env!("CARGO_PKG_VERSION"))),
                (
                    "snapshot_format",
                    Json::Num(t2v_store::FORMAT_VERSION as f64),
                ),
            ]),
        ),
        ("pool", pool),
        (
            "connections",
            Json::obj([
                ("open", scalar(Scalar::ConnectionsActive)),
                ("max", Json::Num(state.config.max_connections as f64)),
                ("reaped", scalar(Scalar::ConnReaped)),
                ("accept_errors", scalar(Scalar::AcceptErrors)),
            ]),
        ),
        (
            "event",
            Json::obj([
                ("reading", load(&shared.event_stats.reading)),
                ("dispatched", load(&shared.event_stats.dispatched)),
                ("inline", scalar(Scalar::InlineResponses)),
                ("writing", load(&shared.event_stats.writing)),
                ("keep_alive", load(&shared.event_stats.keep_alive)),
                ("pool_buffers", load(&shared.event_stats.pool_buffers)),
                (
                    "draining",
                    Json::Bool(shared.event_stats.draining.load(Ordering::Relaxed) != 0),
                ),
            ]),
        ),
        (
            "cache",
            Json::obj([
                ("entries", Json::Num(cache.len as f64)),
                ("hits", Json::Num(hits as f64)),
                ("misses", Json::Num(misses as f64)),
                ("hit_rate", Json::Num(hit_rate)),
                ("expired", Json::Num(cache.expired as f64)),
                ("evicted", Json::Num(cache.evicted as f64)),
                ("shards", Json::Num(state.cache.shard_count() as f64)),
            ]),
        ),
        (
            "trace",
            match &state.recorder {
                Some(r) => Json::obj([
                    ("recorded", Json::Num(r.len() as f64)),
                    ("capacity", Json::Num(r.capacity() as f64)),
                    ("sample", Json::Num(state.config.trace_sample)),
                    ("force_slow_ms", Json::Num(SLOW_TRACE_MS as f64)),
                ]),
                None => Json::Null,
            },
        ),
        ("tenants", Json::Arr(tenants)),
    ]);
    Response::json(200, body.compact())
}

/// The ops plane, if the sampler half of it is running.
fn obs_sampling(shared: &Shared) -> Option<&Arc<t2v_obs::ObsEngine>> {
    shared.obs.as_ref().filter(|o| o.sample_ms() > 0)
}

/// `GET /v1/admin/tsdb?series=&window=&step=` — the in-process ring-buffer
/// TSDB. Without `series=`, lists what is retained; with it, returns the
/// windowed points plus the delta and per-second rate over the window. The
/// step widens until the window fits a fixed number of points
/// (`Tsdb::step_ms`), and the response's `step_ms` says to what: this
/// renders on the loop thread.
pub(crate) fn admin_tsdb(shared: &Shared, req: &Request) -> Response {
    let Some(obs) = obs_sampling(shared) else {
        return Response::error_code(
            404,
            "obs_disabled",
            "the metrics sampler is disabled (obs_sample_ms=0)",
        );
    };
    let tsdb = obs.tsdb();
    let Some(series) = query_param(&req.query, "series").filter(|s| !s.is_empty()) else {
        let names = tsdb.series_names();
        let body = Json::obj([
            ("sample_ms", Json::Num(obs.sample_ms() as f64)),
            ("count", Json::Num(names.len() as f64)),
            (
                "series",
                Json::Arr(names.iter().map(|n| Json::str(n.as_str())).collect()),
            ),
        ]);
        return Response::json(200, body.compact());
    };
    let window_s = match query_param(&req.query, "window") {
        None => 300u64,
        Some(v) => match v.parse() {
            Ok(s) if s >= 1 => s,
            _ => return Response::error(400, "window must be a positive integer (seconds)"),
        },
    };
    let step_s = match query_param(&req.query, "step") {
        None => 0u64, // 0 = native sample cadence
        Some(v) => match v.parse() {
            Ok(s) => s,
            Err(_) => return Response::error(400, "step must be a non-negative integer (seconds)"),
        },
    };
    let now_ms = t2v_obs::unix_ms();
    let window_ms = window_s.saturating_mul(1000);
    let step_ms = tsdb.step_ms(window_ms, step_s.saturating_mul(1000));
    let points = tsdb.points(&series, window_ms, step_ms, now_ms);
    if points.is_empty() {
        return Response::error_code(
            404,
            "unknown_series",
            "series not found (never collected, or outside retention)",
        );
    }
    let delta = tsdb.delta(&series, window_ms, now_ms);
    let rate = tsdb.rate(&series, window_ms, now_ms);
    let body = Json::obj([
        ("series", Json::str(series)),
        ("window_s", Json::Num(window_s as f64)),
        ("step_ms", Json::Num(step_ms as f64)),
        (
            "points",
            Json::Arr(
                points
                    .iter()
                    .map(|&(t, v)| Json::Arr(vec![Json::Num(t as f64), Json::Num(v as f64)]))
                    .collect(),
            ),
        ),
        (
            "delta",
            match delta {
                Some(d) => Json::Num(d as f64),
                None => Json::Null,
            },
        ),
        (
            "rate",
            match rate {
                Some(r) => Json::Num(r),
                None => Json::Null,
            },
        ),
    ]);
    Response::json(200, body.compact())
}

/// `GET /v1/admin/alerts` — every configured SLO with its multi-window
/// burn state: the first page an operator checks (DESIGN.md §15).
pub(crate) fn admin_alerts(shared: &Shared) -> Response {
    let Some(slo) = obs_sampling(shared).and_then(|o| o.slo()) else {
        return Response::error_code(
            404,
            "slo_disabled",
            "no SLOs configured (set slo= and obs_sample_ms>0)",
        );
    };
    let statuses = slo.last();
    let firing = statuses.iter().filter(|s| s.firing).count();
    let w = slo.windows();
    let body = Json::obj([
        ("firing", Json::Num(firing as f64)),
        (
            "windows",
            Json::obj([
                ("fast_s", Json::Num(w.fast_ms as f64 / 1000.0)),
                ("slow_s", Json::Num(w.slow_ms as f64 / 1000.0)),
                ("threshold", Json::Num(w.threshold)),
            ]),
        ),
        (
            "slos",
            Json::Arr(
                statuses
                    .iter()
                    .map(|s| {
                        Json::obj([
                            ("name", Json::str(&s.name)),
                            ("target", Json::Num(s.target)),
                            ("firing", Json::Bool(s.firing)),
                            ("fast_burn", Json::Num(s.fast_burn)),
                            ("slow_burn", Json::Num(s.slow_burn)),
                            ("budget_remaining", Json::Num(s.budget_remaining)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    Response::json(200, body.compact())
}

/// `GET /v1/admin/profile?seconds=N` — the last N seconds of stage
/// occupancy as flamegraph-compatible folded stacks (`stack count` lines).
pub(crate) fn admin_profile(shared: &Shared, req: &Request) -> Response {
    let Some(obs) = shared.obs.as_ref().filter(|o| o.profile_hz() > 0) else {
        return Response::error_code(
            404,
            "profiler_disabled",
            "the stage profiler is disabled (obs_profile_hz=0)",
        );
    };
    let seconds = match query_param(&req.query, "seconds") {
        None => 60u64,
        Some(v) => match v.parse() {
            Ok(s) if s >= 1 => s,
            _ => return Response::error(400, "seconds must be a positive integer"),
        },
    };
    Response::text(200, obs.profile().render(seconds, t2v_obs::unix_ms()))
}

fn breaker_state_label(state: crate::breaker::BreakerState) -> &'static str {
    match state {
        crate::breaker::BreakerState::Closed => "closed",
        crate::breaker::BreakerState::Open => "open",
        crate::breaker::BreakerState::HalfOpen => "half_open",
    }
}

/// One tenant's row in `GET /v1/admin/tenants` / the attach reply.
fn tenant_json(tenant: &TenantRuntime) -> Json {
    Json::obj([
        ("id", Json::str(tenant.id.as_str())),
        ("corpus", Json::str(tenant.corpus_label.as_str())),
        (
            "fingerprint",
            Json::str(format!("{:#018x}", tenant.library_fingerprint)),
        ),
        ("source", Json::str(tenant.library_provenance.label())),
        ("entries", Json::Num(tenant.gred.library().len() as f64)),
        (
            "backends",
            Json::Arr(tenant.registry.ids().map(Json::str).collect()),
        ),
        ("databases", Json::Num(tenant.dbs.len() as f64)),
        ("epoch", Json::Num(tenant.epoch as f64)),
        ("default", Json::Bool(tenant.is_default)),
    ])
}

fn tenant_admin_error(e: &TenantAdminError) -> Response {
    Response::error_code(e.status(), e.code(), &e.to_string())
}

/// `GET /v1/admin/tenants` — the live tenant table, in attach order.
pub(crate) fn admin_tenants_list(state: &ServerState) -> Response {
    let table = state.tenants();
    let body = Json::obj([(
        "tenants",
        Json::Arr(table.iter().map(|t| tenant_json(t)).collect()),
    )]);
    Response::json(200, body.compact())
}

/// `POST /v1/admin/tenants/attach` — load a tenant into the live server.
/// Body: `{"id", "corpus", "snapshot"?, "backends"?}`. Builds the tenant's
/// corpus + library + registry as a job on the translation pool (attach is
/// a rare admin action; one worker is the honest cost), then RCU-swaps the
/// table — translations in flight never stall.
pub(crate) fn admin_tenants_attach(state: &ServerState, req: &Request) -> Response {
    let parsed = match req.json_body() {
        Ok(j) => j,
        Err(resp) => return resp,
    };
    let Some(id) = parsed.get("id").and_then(Json::as_str) else {
        return Response::error(400, "missing string field 'id'");
    };
    let Some(corpus_spec) = parsed.get("corpus").and_then(Json::as_str) else {
        return Response::error(400, "missing string field 'corpus' (e.g. \"tiny:8\")");
    };
    let corpus = match t2v_tenant::parse_corpus_spec(corpus_spec) {
        Ok(c) => c,
        Err(e) => return Response::error(400, &e.message),
    };
    let snapshot = match parsed.get("snapshot") {
        None | Some(Json::Null) => None,
        Some(Json::Str(p)) => Some(PathBuf::from(p.as_str())),
        Some(_) => return Response::error(400, "field 'snapshot' must be a string path"),
    };
    let backends = match parsed.get("backends") {
        None | Some(Json::Null) => None,
        Some(Json::Str(b)) => Some(b.clone()),
        Some(_) => return Response::error(400, "field 'backends' must be a string list"),
    };
    let attach = AttachRequest {
        id: id.to_string(),
        corpus,
        snapshot,
        backends,
    };
    match state.attach_tenant(&attach) {
        Ok(runtime) => Response::json(
            200,
            Json::obj([("attached", tenant_json(&runtime))]).compact(),
        ),
        Err(e) => tenant_admin_error(&e),
    }
}

/// `DELETE /v1/admin/tenants/detach` — body `{"id"}`. The tenant vanishes
/// from the table atomically; in-flight translations on it complete.
pub(crate) fn admin_tenants_detach(state: &ServerState, req: &Request) -> Response {
    let parsed = match req.json_body() {
        Ok(j) => j,
        Err(resp) => return resp,
    };
    let Some(id) = parsed.get("id").and_then(Json::as_str) else {
        return Response::error(400, "missing string field 'id'");
    };
    match state.detach_tenant(id) {
        Ok(()) => Response::json(200, Json::obj([("detached", Json::str(id))]).compact()),
        Err(e) => tenant_admin_error(&e),
    }
}

/// `POST /v1/admin/snapshot` — persist the live embedding library to disk.
/// Body: `{"path": "..."}` (optional; defaults to the `snapshot_save`
/// knob). The written artifact is exactly what `library_snapshot=` loads on
/// the next start.
pub(crate) fn admin_snapshot_endpoint(state: &ServerState, req: &Request) -> Response {
    let mut path = state.config.snapshot_save.clone();
    if !req.body.is_empty() {
        let parsed = match req.json_body() {
            Ok(j) => j,
            Err(resp) => return resp,
        };
        match parsed.get("path") {
            None => {}
            Some(Json::Str(p)) => path = p.clone(),
            Some(_) => return Response::error(400, "field 'path' must be a string"),
        }
    }
    if path.is_empty() {
        return Response::error_code(
            400,
            "no_path",
            "no snapshot path: pass {\"path\": ...} or set snapshot_save=",
        );
    }
    match t2v_store::save(&path, state.gred.library(), state.gred.embedder()) {
        Ok(manifest) => {
            state.metrics.inc(Scalar::SnapshotsWritten);
            let body = Json::obj([
                ("path", Json::str(path)),
                ("bytes", Json::Num(manifest.file_len as f64)),
                ("entries", Json::Num(manifest.entries as f64)),
                (
                    "fingerprint",
                    Json::str(format!("{:#018x}", manifest.corpus_fingerprint)),
                ),
            ]);
            Response::json(200, body.compact())
        }
        Err(e) => Response::error_code(500, e.code(), &format!("snapshot not written: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::query_param;

    #[test]
    fn query_params_are_percent_decoded() {
        let query = "window=60&series=t2v_request_seconds_bucket%7Ble%3D%220.005%22%7D";
        let series = query_param(query, "series");
        assert_eq!(
            series.as_deref(),
            Some("t2v_request_seconds_bucket{le=\"0.005\"}")
        );
        assert_eq!(query_param(query, "window").as_deref(), Some("60"));
        assert_eq!(query_param(query, "step"), None);
        // Plain values pass through; a stray `%` is kept, not dropped.
        assert_eq!(query_param("t=acme", "t").as_deref(), Some("acme"));
        assert_eq!(query_param("t=5%", "t").as_deref(), Some("5%"));
        assert_eq!(query_param("t=%zz%4", "t").as_deref(), Some("%zz%4"));
        assert_eq!(query_param("t=%c3%a9", "t").as_deref(), Some("é"));
    }
}
