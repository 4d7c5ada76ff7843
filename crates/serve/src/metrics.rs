//! Lock-free serving metrics: plain `AtomicU64` counters/gauges plus fixed-
//! bucket latency histograms, rendered in the Prometheus text exposition
//! format for `GET /metrics`. Recording a sample is a relaxed fetch-add (two
//! for histograms), so instrumentation cost is invisible next to the work it
//! measures.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Histogram bucket upper bounds, in nanoseconds. Log-spaced from 50 µs to
/// 1 s — translate latency sits around 0.3 ms cold and far under 50 µs on a
/// cache hit, so the interesting range has dense coverage.
pub const BUCKET_BOUNDS_NS: [u64; 12] = [
    50_000,
    100_000,
    250_000,
    500_000,
    1_000_000,
    2_500_000,
    5_000_000,
    10_000_000,
    25_000_000,
    50_000_000,
    100_000_000,
    1_000_000_000,
];

/// A fixed-bucket latency histogram (`+Inf` bucket is implicit: `count`).
#[derive(Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_NS.len()],
    /// Samples above the largest finite bound — the explicit `+Inf`-only
    /// overflow population. Without it a > 1 s sample lands in no finite
    /// bucket and is invisible everywhere except `count`, which hides
    /// exactly the pathological tail a histogram exists to show.
    overflow: AtomicU64,
    sum_ns: AtomicU64,
    count: AtomicU64,
    /// Most recent exemplar per bucket (`+Inf` last): the trace id and raw
    /// latency of the newest *recorded* trace that landed there, rendered
    /// OpenMetrics-style so a slow bucket links straight to its span tree.
    /// A mutex is fine: exemplars are written only for traces the flight
    /// recorder keeps (sampled/slow/error), far off the per-request path.
    exemplars: std::sync::Mutex<[Option<(u128, u64)>; BUCKET_BOUNDS_NS.len() + 1]>,
}

impl LatencyHistogram {
    pub fn observe_ns(&self, ns: u64) {
        // Cumulative buckets (Prometheus convention): bump every bucket whose
        // bound covers the sample. A 12-iteration loop of relaxed adds is
        // cheaper than making the scrape path reconstruct cumulative sums
        // consistently.
        for (i, &bound) in BUCKET_BOUNDS_NS.iter().enumerate() {
            if ns <= bound {
                self.buckets[i].fetch_add(1, Ordering::Relaxed);
            }
        }
        if ns > BUCKET_BOUNDS_NS[BUCKET_BOUNDS_NS.len() - 1] {
            self.overflow.fetch_add(1, Ordering::Relaxed);
        }
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Samples beyond the largest finite bucket bound (> 1 s).
    pub fn overflow(&self) -> u64 {
        self.overflow.load(Ordering::Relaxed)
    }

    pub fn mean_ns(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_ns.load(Ordering::Relaxed) as f64 / n as f64
        }
    }

    /// Cumulative finite-bucket counts, for the obs sampler's TSDB sweep
    /// (one series per bound; `+Inf` is [`LatencyHistogram::count`]).
    pub fn cumulative_counts(&self) -> [u64; BUCKET_BOUNDS_NS.len()] {
        let mut out = [0u64; BUCKET_BOUNDS_NS.len()];
        for (slot, bucket) in out.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }

    /// Attach `trace_id` as the newest exemplar of the bucket `ns` falls
    /// in (the lowest covering bucket; `+Inf` for overflow samples).
    pub fn record_exemplar(&self, ns: u64, trace_id: u128) {
        let idx = BUCKET_BOUNDS_NS
            .iter()
            .position(|&bound| ns <= bound)
            .unwrap_or(BUCKET_BOUNDS_NS.len());
        self.exemplars.lock().unwrap_or_else(|e| e.into_inner())[idx] = Some((trace_id, ns));
    }

    fn render(&self, out: &mut String, name: &str, help: &str) {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} histogram");
        let exemplars = *self.exemplars.lock().unwrap_or_else(|e| e.into_inner());
        for (i, &bound) in BUCKET_BOUNDS_NS.iter().enumerate() {
            let _ = writeln!(
                out,
                "{name}_bucket{{le=\"{}\"}} {}{}",
                bound as f64 / 1e9,
                self.buckets[i].load(Ordering::Relaxed),
                render_exemplar(exemplars[i])
            );
        }
        let count = self.count.load(Ordering::Relaxed);
        let _ = writeln!(
            out,
            "{name}_bucket{{le=\"+Inf\"}} {count}{}",
            render_exemplar(exemplars[BUCKET_BOUNDS_NS.len()])
        );
        let _ = writeln!(
            out,
            "{name}_sum {}",
            self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9
        );
        let _ = writeln!(out, "{name}_count {count}");
    }

    /// Like [`LatencyHistogram::render`] but with an extra label on every
    /// sample line (the `# TYPE` header is the caller's — one per family,
    /// not one per label set).
    fn render_labeled(&self, out: &mut String, name: &str, label: &str) {
        for (i, &bound) in BUCKET_BOUNDS_NS.iter().enumerate() {
            let _ = writeln!(
                out,
                "{name}_bucket{{{label},le=\"{}\"}} {}",
                bound as f64 / 1e9,
                self.buckets[i].load(Ordering::Relaxed)
            );
        }
        let count = self.count.load(Ordering::Relaxed);
        let _ = writeln!(out, "{name}_bucket{{{label},le=\"+Inf\"}} {count}");
        let _ = writeln!(
            out,
            "{name}_sum{{{label}}} {}",
            self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9
        );
        let _ = writeln!(out, "{name}_count{{{label}}} {count}");
    }
}

/// OpenMetrics exemplar suffix for one bucket line: the newest recorded
/// trace that landed there, or nothing.
fn render_exemplar(slot: Option<(u128, u64)>) -> String {
    match slot {
        Some((trace_id, ns)) => format!(
            " # {{trace_id=\"{}\"}} {}",
            t2v_trace::format_id(trace_id),
            ns as f64 / 1e9
        ),
        None => String::new(),
    }
}

/// Routes the request counters are labelled with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    Translate,
    TranslateBatch,
    Backends,
    /// Tenant-scoped `/v1/t/{tenant}/...` traffic (one label for the whole
    /// family: per-tenant resolution lives in the tenant counter families,
    /// keeping route-label cardinality fixed).
    Tenant,
    Admin,
    Healthz,
    Metrics,
    Other,
}

const ROUTES: [(Route, &str); 8] = [
    (Route::Translate, "translate"),
    (Route::TranslateBatch, "translate_batch"),
    (Route::Backends, "backends"),
    (Route::Tenant, "tenant"),
    (Route::Admin, "admin"),
    (Route::Healthz, "healthz"),
    (Route::Metrics, "metrics"),
    (Route::Other, "other"),
];

/// Status classes the request counters are labelled with.
const CLASSES: [&str; 4] = ["2xx", "3xx", "4xx", "5xx"];

/// Per-backend serving counters, labelled `backend="<id>"` on the wire.
/// Registered once at startup (backends are fixed for a server's lifetime),
/// so lookups are an index, not a map probe.
pub struct BackendMetrics {
    pub id: String,
    /// Cold translations executed (cache misses that reached the model).
    pub translations: AtomicU64,
    /// Translations that ended in a structured TranslateError.
    pub errors: AtomicU64,
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    /// Weighted in-system worker-pool share (constant per process).
    pub pool_share: AtomicU64,
    /// Model time per cold translation.
    pub translate: LatencyHistogram,
}

impl BackendMetrics {
    fn new(id: String) -> BackendMetrics {
        BackendMetrics {
            id,
            translations: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            pool_share: AtomicU64::new(0),
            translate: LatencyHistogram::default(),
        }
    }
}

/// Per-tenant serving counters, labelled `tenant="<id>"` on the wire.
/// Unlike backends, tenants attach and detach at runtime, so these live
/// behind `Arc`s in a mutex-protected registry: recording stays lock-free
/// (each tenant runtime holds its own `Arc` directly); only registration,
/// removal, and the scrape-path render take the lock.
pub struct TenantMetrics {
    pub tenant: String,
    /// Cold translations executed for this tenant (all backends).
    pub translations: AtomicU64,
    /// Translations that ended in a structured TranslateError.
    pub errors: AtomicU64,
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    /// Model time per cold translation for this tenant.
    pub translate: LatencyHistogram,
    /// Circuit-breaker state gauges, `(backend id, shared state cell)` in
    /// registry order; the cells are written by the tenant runtime's
    /// breakers (0 closed / 1 open / 2 half-open) and only read here.
    /// Set once when the tenant runtime is built.
    pub breaker_states: std::sync::OnceLock<Vec<(String, Arc<AtomicU64>)>>,
}

impl TenantMetrics {
    fn new(tenant: String) -> TenantMetrics {
        TenantMetrics {
            tenant,
            translations: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            translate: LatencyHistogram::default(),
            breaker_states: std::sync::OnceLock::new(),
        }
    }
}

/// The registry handed to every serving component.
pub struct Metrics {
    started: Instant,
    /// requests[route][status class]
    requests: [[AtomicU64; 4]; 9],
    /// Responses the event loop produced itself; the rest took the hop.
    pub inline_responses: AtomicU64,
    /// Per-backend counters, in backend-registry order (the default
    /// tenant's registry — rendered unlabelled for dashboard continuity).
    backends: Vec<BackendMetrics>,
    /// Per-tenant counters, in attach order; default first by construction.
    tenants: std::sync::Mutex<Vec<Arc<TenantMetrics>>>,
    /// Currently attached tenants (including the default one).
    pub tenant_count: AtomicU64,
    /// Library provenance, set once at startup: (fingerprint hex, source
    /// label). Rendered as an info-style gauge with labels because a u64
    /// fingerprint does not survive the f64 Prometheus value space.
    library_info: std::sync::OnceLock<(String, &'static str)>,
    /// Embedding-library entry count (constant per process).
    pub library_entries: AtomicU64,
    /// Snapshots persisted via write-through or `/v1/admin/snapshot`.
    pub snapshots_written: AtomicU64,
    /// Cache shard count (constant per process; exported for dashboards).
    pub cache_shards: AtomicU64,
    pub cache_hits: AtomicU64,
    pub cache_misses: AtomicU64,
    /// 503s shed by queue backpressure or the connection limit.
    pub rejected: AtomicU64,
    pub connections_total: AtomicU64,
    pub connections_active: AtomicU64,
    /// Connections closed by the event loop's idle reaper.
    pub conn_reaped: AtomicU64,
    /// `accept(2)` failures (EMFILE/ENFILE fd exhaustion, aborted
    /// handshakes); the acceptor backs off instead of spinning.
    pub accept_errors: AtomicU64,
    /// Jobs currently queued in the worker pool (all shards).
    pub queue_depth: AtomicU64,
    /// Jobs that panicked inside a worker (caught; the worker survived and
    /// the caller's reply slot was fulfilled with a structured error).
    pub worker_panics: AtomicU64,
    /// Requests answered 504 because their deadline budget ran out.
    pub deadline_exceeded: AtomicU64,
    /// Requests answered degraded (stale cache / fallback backend).
    pub degraded: AtomicU64,
    /// Breaker transitions into the open state.
    pub breaker_opens: AtomicU64,
    /// Requests fast-failed (or degraded) because a breaker was open.
    pub breaker_rejections: AtomicU64,
    /// Batch-path items retried after a transient internal failure.
    pub batch_retries: AtomicU64,
    /// Per-stage serving latency.
    pub queue_wait: LatencyHistogram,
    pub translate: LatencyHistogram,
    pub request_total_latency: LatencyHistogram,
    /// Requests slower than the trace force-slow threshold, attributed to
    /// the stage with the most self time (indexed by `t2v_trace::STAGES`;
    /// the extra final slot is `stage="truncated"` — traces whose span
    /// list hit the 24-slot cap, where the dominant stage may have been
    /// one of the dropped spans and attribution would be a guess).
    slow_requests: [AtomicU64; t2v_trace::STAGES.len() + 1],
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::with_backends(&[])
    }

    /// Registry with one labelled counter family per backend id.
    pub fn with_backends(backend_ids: &[&str]) -> Metrics {
        Metrics {
            started: Instant::now(),
            requests: Default::default(),
            inline_responses: AtomicU64::new(0),
            backends: backend_ids
                .iter()
                .map(|id| BackendMetrics::new(id.to_string()))
                .collect(),
            tenants: std::sync::Mutex::new(Vec::new()),
            tenant_count: AtomicU64::new(0),
            library_info: std::sync::OnceLock::new(),
            library_entries: AtomicU64::new(0),
            snapshots_written: AtomicU64::new(0),
            cache_shards: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            connections_active: AtomicU64::new(0),
            conn_reaped: AtomicU64::new(0),
            accept_errors: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            breaker_opens: AtomicU64::new(0),
            breaker_rejections: AtomicU64::new(0),
            batch_retries: AtomicU64::new(0),
            queue_wait: LatencyHistogram::default(),
            translate: LatencyHistogram::default(),
            request_total_latency: LatencyHistogram::default(),
            slow_requests: Default::default(),
        }
    }

    /// Count one slow request against its dominant stage.
    pub fn record_slow(&self, stage: t2v_trace::Stage) {
        self.slow_requests[stage as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Count one slow request whose trace dropped spans at the 24-slot
    /// cap: the true dominant stage may be among the dropped spans, so it
    /// goes under `stage="truncated"` instead of a misattributed stage.
    pub fn record_slow_truncated(&self) {
        self.slow_requests[t2v_trace::STAGES.len()].fetch_add(1, Ordering::Relaxed);
    }

    /// Slow requests attributed to `stage` so far.
    pub fn slow_requests(&self, stage: t2v_trace::Stage) -> u64 {
        self.slow_requests[stage as usize].load(Ordering::Relaxed)
    }

    /// Slow requests attributed to `stage="truncated"` so far.
    pub fn slow_requests_truncated(&self) -> u64 {
        self.slow_requests[t2v_trace::STAGES.len()].load(Ordering::Relaxed)
    }

    pub fn record_request(&self, route: Route, status: u16) {
        let r = ROUTES.iter().position(|(x, _)| *x == route).unwrap();
        let class = match status {
            200..=299 => 0,
            300..=399 => 1,
            400..=499 => 2,
            _ => 3,
        };
        self.requests[r][class].fetch_add(1, Ordering::Relaxed);
    }

    /// The counters of backend `idx` (backend-registry order). Panics on an
    /// unregistered index — backend resolution happens before any recording.
    pub fn backend(&self, idx: usize) -> &BackendMetrics {
        &self.backends[idx]
    }

    pub fn backends(&self) -> &[BackendMetrics] {
        &self.backends
    }

    pub fn requests_for(&self, route: Route, class: &str) -> u64 {
        let r = ROUTES.iter().position(|(x, _)| *x == route).unwrap();
        let c = CLASSES.iter().position(|x| *x == class).unwrap();
        self.requests[r][c].load(Ordering::Relaxed)
    }

    /// `(total, 5xx)` request counts across every route — the availability
    /// SLO's denominator and numerator, swept by the obs sampler.
    pub fn requests_all(&self) -> (u64, u64) {
        let mut total = 0u64;
        let mut bad = 0u64;
        for row in &self.requests {
            for (c, cell) in row.iter().enumerate() {
                let v = cell.load(Ordering::Relaxed);
                total += v;
                if c == 3 {
                    bad += v;
                }
            }
        }
        (total, bad)
    }

    /// Register a tenant's counter family. Called at startup for every
    /// configured tenant and at runtime by the admin attach route; the
    /// returned `Arc` is the tenant runtime's lock-free recording handle.
    pub fn register_tenant(&self, id: &str) -> Arc<TenantMetrics> {
        let tm = Arc::new(TenantMetrics::new(id.to_string()));
        let mut tenants = self.tenants.lock().expect("tenant metrics lock");
        tenants.retain(|t| t.tenant != tm.tenant);
        tenants.push(Arc::clone(&tm));
        self.tenant_count
            .store(tenants.len() as u64, Ordering::Relaxed);
        tm
    }

    /// Drop a detached tenant's counter family from future scrapes.
    /// (In-flight recordings through an already-held `Arc` stay safe; the
    /// samples simply stop being rendered.)
    pub fn drop_tenant(&self, id: &str) {
        let mut tenants = self.tenants.lock().expect("tenant metrics lock");
        tenants.retain(|t| t.tenant != id);
        self.tenant_count
            .store(tenants.len() as u64, Ordering::Relaxed);
    }

    /// Record the loaded library's provenance (first call wins; the
    /// library is fixed for a server's lifetime).
    pub fn set_library_info(&self, fingerprint: u64, source: &'static str, entries: usize) {
        let _ = self
            .library_info
            .set((format!("{fingerprint:#018x}"), source));
        self.library_entries
            .store(entries as u64, Ordering::Relaxed);
    }

    /// Render the whole registry in Prometheus text format. Every family
    /// carries `# HELP` and `# TYPE` headers, and label values pass through
    /// [`escape_label`] (exposition-format escaping of `\`, `"`, newline);
    /// the roundtrip test below parses this output back.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        let _ = writeln!(
            out,
            "# HELP t2v_uptime_seconds Seconds since the registry started."
        );
        let _ = writeln!(out, "# TYPE t2v_uptime_seconds gauge");
        let _ = writeln!(
            out,
            "t2v_uptime_seconds {}",
            self.started.elapsed().as_secs_f64()
        );

        let _ = writeln!(
            out,
            "# HELP t2v_http_requests_total Requests by route and status class."
        );
        let _ = writeln!(out, "# TYPE t2v_http_requests_total counter");
        for (r, (_, route)) in ROUTES.iter().enumerate() {
            for (c, class) in CLASSES.iter().enumerate() {
                let _ = writeln!(
                    out,
                    "t2v_http_requests_total{{route=\"{route}\",status=\"{class}\"}} {}",
                    self.requests[r][c].load(Ordering::Relaxed)
                );
            }
        }

        for (name, kind, help, v) in [
            (
                "t2v_inline_responses_total",
                "counter",
                "Responses answered on the event-loop thread (no dispatch hop).",
                &self.inline_responses,
            ),
            (
                "t2v_cache_hits_total",
                "counter",
                "Translation cache hits.",
                &self.cache_hits,
            ),
            (
                "t2v_cache_misses_total",
                "counter",
                "Translation cache misses.",
                &self.cache_misses,
            ),
            (
                "t2v_rejected_total",
                "counter",
                "Requests shed by backpressure or the connection limit.",
                &self.rejected,
            ),
            (
                "t2v_connections_total",
                "counter",
                "Connections accepted since start.",
                &self.connections_total,
            ),
            (
                "t2v_connections_active",
                "gauge",
                "Connections currently open.",
                &self.connections_active,
            ),
            (
                "t2v_open_connections",
                "gauge",
                "Connections currently open (alias of t2v_connections_active \
                 for event-driver dashboards).",
                &self.connections_active,
            ),
            (
                "t2v_conn_reaped_total",
                "counter",
                "Connections closed by the idle-timeout reaper.",
                &self.conn_reaped,
            ),
            (
                "t2v_accept_errors_total",
                "counter",
                "accept(2) failures (fd exhaustion, aborted handshakes).",
                &self.accept_errors,
            ),
            (
                "t2v_queue_depth",
                "gauge",
                "Jobs queued in the worker pool (all shards).",
                &self.queue_depth,
            ),
            (
                "t2v_worker_panics_total",
                "counter",
                "Worker jobs that panicked (caught and answered 500).",
                &self.worker_panics,
            ),
            (
                "t2v_deadline_exceeded_total",
                "counter",
                "Requests answered 504 after their deadline budget ran out.",
                &self.deadline_exceeded,
            ),
            (
                "t2v_degraded_total",
                "counter",
                "Requests answered degraded (stale cache / fallback backend).",
                &self.degraded,
            ),
            (
                "t2v_breaker_opens_total",
                "counter",
                "Circuit-breaker transitions into the open state.",
                &self.breaker_opens,
            ),
            (
                "t2v_breaker_rejections_total",
                "counter",
                "Requests fast-failed or degraded by an open breaker.",
                &self.breaker_rejections,
            ),
            (
                "t2v_batch_retries_total",
                "counter",
                "Batch items retried after a transient internal failure.",
                &self.batch_retries,
            ),
            (
                "t2v_cache_shards",
                "gauge",
                "Translation-cache shard count.",
                &self.cache_shards,
            ),
            (
                "t2v_tenants",
                "gauge",
                "Currently attached tenants (default included).",
                &self.tenant_count,
            ),
            (
                "t2v_library_entries",
                "gauge",
                "Embedding-library entry count.",
                &self.library_entries,
            ),
            (
                "t2v_snapshots_written_total",
                "counter",
                "Library snapshots persisted.",
                &self.snapshots_written,
            ),
        ] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let _ = writeln!(out, "{name} {}", v.load(Ordering::Relaxed));
        }

        // Fossils: the micro-batcher is gone, but `benchmark/src/serve.rs`
        // fails a run when either series is absent from a scrape. Delete
        // both once the benchmark stops reading them (ROADMAP).
        for name in ["t2v_batches_total", "t2v_batched_lookups_total"] {
            let _ = writeln!(out, "# HELP {name} Retired with the batcher; always 0.");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} 0");
        }

        // Slow requests attributed to the dominant stage of their trace.
        let _ = writeln!(
            out,
            "# HELP t2v_slow_requests_total Requests over the trace force-slow threshold, by dominant stage."
        );
        let _ = writeln!(out, "# TYPE t2v_slow_requests_total counter");
        for stage in t2v_trace::STAGES {
            if stage == t2v_trace::Stage::Request {
                continue;
            }
            let _ = writeln!(
                out,
                "t2v_slow_requests_total{{stage=\"{}\"}} {}",
                stage.name(),
                self.slow_requests[stage as usize].load(Ordering::Relaxed)
            );
        }
        let _ = writeln!(
            out,
            "t2v_slow_requests_total{{stage=\"truncated\"}} {}",
            self.slow_requests[t2v_trace::STAGES.len()].load(Ordering::Relaxed)
        );

        // Library provenance: labels carry the exact fingerprint (a u64
        // does not fit the f64 metric value space losslessly).
        if let Some((fingerprint, source)) = self.library_info.get() {
            let _ = writeln!(
                out,
                "# HELP t2v_library_info Loaded embedding-library provenance (value is always 1)."
            );
            let _ = writeln!(out, "# TYPE t2v_library_info gauge");
            let _ = writeln!(
                out,
                "t2v_library_info{{fingerprint=\"{fingerprint}\",source=\"{source}\"}} 1"
            );
        }

        // Per-backend counter families (one label set per registered id).
        if !self.backends.is_empty() {
            for (name, kind, help, pick) in [
                (
                    "t2v_backend_translations_total",
                    "counter",
                    "Cold translations executed, by backend.",
                    (|b: &BackendMetrics| &b.translations) as fn(&BackendMetrics) -> &AtomicU64,
                ),
                (
                    "t2v_backend_errors_total",
                    "counter",
                    "Structured translation errors, by backend.",
                    |b: &BackendMetrics| &b.errors,
                ),
                (
                    "t2v_backend_cache_hits_total",
                    "counter",
                    "Cache hits, by backend.",
                    |b: &BackendMetrics| &b.cache_hits,
                ),
                (
                    "t2v_backend_cache_misses_total",
                    "counter",
                    "Cache misses, by backend.",
                    |b: &BackendMetrics| &b.cache_misses,
                ),
                (
                    "t2v_backend_pool_share",
                    "gauge",
                    "Weighted worker-pool share, by backend.",
                    |b: &BackendMetrics| &b.pool_share,
                ),
            ] {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} {kind}");
                for b in &self.backends {
                    let _ = writeln!(
                        out,
                        "{name}{{backend=\"{}\"}} {}",
                        escape_label(&b.id),
                        pick(b).load(Ordering::Relaxed)
                    );
                }
            }
        }

        // Per-tenant counter families (one label set per attached tenant,
        // default included). Snapshot the Arcs first so rendering holds the
        // registry lock only for a clone, never across formatting.
        let tenants: Vec<Arc<TenantMetrics>> =
            self.tenants.lock().expect("tenant metrics lock").clone();
        if !tenants.is_empty() {
            for (name, kind, help, pick) in [
                (
                    "t2v_tenant_translations_total",
                    "counter",
                    "Cold translations executed, by tenant.",
                    (|t: &TenantMetrics| &t.translations) as fn(&TenantMetrics) -> &AtomicU64,
                ),
                (
                    "t2v_tenant_errors_total",
                    "counter",
                    "Structured translation errors, by tenant.",
                    |t: &TenantMetrics| &t.errors,
                ),
                (
                    "t2v_tenant_cache_hits_total",
                    "counter",
                    "Cache hits, by tenant.",
                    |t: &TenantMetrics| &t.cache_hits,
                ),
                (
                    "t2v_tenant_cache_misses_total",
                    "counter",
                    "Cache misses, by tenant.",
                    |t: &TenantMetrics| &t.cache_misses,
                ),
            ] {
                let _ = writeln!(out, "# HELP {name} {help}");
                let _ = writeln!(out, "# TYPE {name} {kind}");
                for t in &tenants {
                    let _ = writeln!(
                        out,
                        "{name}{{tenant=\"{}\"}} {}",
                        escape_label(&t.tenant),
                        pick(t).load(Ordering::Relaxed)
                    );
                }
            }
            let _ = writeln!(
                out,
                "# HELP t2v_tenant_translate_seconds Model time per cold translation, by tenant."
            );
            let _ = writeln!(out, "# TYPE t2v_tenant_translate_seconds histogram");
            for t in &tenants {
                t.translate.render_labeled(
                    &mut out,
                    "t2v_tenant_translate_seconds",
                    &format!("tenant=\"{}\"", escape_label(&t.tenant)),
                );
            }
            // Circuit-breaker states: 0 closed, 1 open, 2 half-open.
            if tenants.iter().any(|t| t.breaker_states.get().is_some()) {
                let _ = writeln!(
                    out,
                    "# HELP t2v_breaker_state Circuit-breaker state (0 closed, 1 open, 2 half-open)."
                );
                let _ = writeln!(out, "# TYPE t2v_breaker_state gauge");
                for t in &tenants {
                    for (backend, state) in t.breaker_states.get().into_iter().flatten() {
                        let _ = writeln!(
                            out,
                            "t2v_breaker_state{{tenant=\"{}\",backend=\"{}\"}} {}",
                            escape_label(&t.tenant),
                            escape_label(backend),
                            state.load(Ordering::Relaxed)
                        );
                    }
                }
            }
        }

        // Fault-injection fire counts of the armed chaos plan, if any.
        if let Some(fired) = t2v_fault::global_fired() {
            let _ = writeln!(
                out,
                "# HELP t2v_faults_injected_total Faults fired by the armed chaos plan, by point."
            );
            let _ = writeln!(out, "# TYPE t2v_faults_injected_total counter");
            for (point, count) in fired {
                let _ = writeln!(
                    out,
                    "t2v_faults_injected_total{{point=\"{point}\"}} {count}"
                );
            }
        }

        self.queue_wait.render(
            &mut out,
            "t2v_queue_wait_seconds",
            "Time jobs waited in the worker-pool queue.",
        );
        self.translate.render(
            &mut out,
            "t2v_translate_seconds",
            "Model time per cold translation.",
        );
        self.request_total_latency.render(
            &mut out,
            "t2v_request_seconds",
            "End-to-end request latency as the server saw it.",
        );
        out
    }
}

/// Escape a label value for the Prometheus text exposition format:
/// backslash, double quote, and newline must be escaped inside the quoted
/// value. Borrows when (almost always) nothing needs escaping.
pub fn escape_label(v: &str) -> std::borrow::Cow<'_, str> {
    if !v.contains(['\\', '"', '\n']) {
        return std::borrow::Cow::Borrowed(v);
    }
    let mut out = String::with_capacity(v.len() + 4);
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    std::borrow::Cow::Owned(out)
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = LatencyHistogram::default();
        h.observe_ns(60_000); // lands in the 100 µs bucket and above
        h.observe_ns(60_000);
        h.observe_ns(400_000); // lands in the 500 µs bucket and above
        assert_eq!(h.buckets[0].load(Ordering::Relaxed), 0);
        assert_eq!(h.buckets[1].load(Ordering::Relaxed), 2);
        assert_eq!(h.buckets[3].load(Ordering::Relaxed), 3);
        assert_eq!(h.count(), 3);
        assert!((h.mean_ns() - (60_000.0 + 60_000.0 + 400_000.0) / 3.0).abs() < 1.0);
    }

    #[test]
    fn render_is_valid_prometheus_shape() {
        let m = Metrics::with_backends(&["gred", "seq2vis"]);
        m.record_request(Route::Translate, 200);
        m.record_request(Route::Translate, 404);
        m.record_request(Route::Other, 503);
        m.record_request(Route::Admin, 404);
        m.record_request(Route::Backends, 200);
        m.cache_shards.store(8, Ordering::Relaxed);
        m.backend(0).translations.fetch_add(2, Ordering::Relaxed);
        m.backend(1).cache_hits.fetch_add(5, Ordering::Relaxed);
        m.cache_hits.fetch_add(3, Ordering::Relaxed);
        m.translate.observe_ns(300_000);
        let text = m.render_prometheus();
        assert!(text.contains("t2v_http_requests_total{route=\"translate\",status=\"2xx\"} 1"));
        assert!(text.contains("t2v_http_requests_total{route=\"translate\",status=\"4xx\"} 1"));
        assert!(text.contains("t2v_http_requests_total{route=\"other\",status=\"5xx\"} 1"));
        assert!(text.contains("t2v_cache_hits_total 3"));
        assert!(text.contains("t2v_translate_seconds_count 1"));
        assert!(text.contains("t2v_translate_seconds_bucket{le=\"+Inf\"} 1"));
        // The two fossil series the benchmark still scrapes.
        assert!(text.contains("t2v_batches_total 0\n"));
        assert!(text.contains("t2v_batched_lookups_total 0\n"));
        assert!(text.contains("t2v_cache_shards 8"));
        assert!(text.contains("t2v_http_requests_total{route=\"admin\",status=\"4xx\"} 1"));
        assert!(text.contains("t2v_http_requests_total{route=\"backends\",status=\"2xx\"} 1"));
        assert!(text.contains("t2v_backend_translations_total{backend=\"gred\"} 2"));
        assert!(text.contains("t2v_backend_translations_total{backend=\"seq2vis\"} 0"));
        assert!(text.contains("t2v_backend_cache_hits_total{backend=\"seq2vis\"} 5"));
        assert!(text.contains("t2v_backend_errors_total{backend=\"gred\"} 0"));
        m.backend(0).pool_share.store(12, Ordering::Relaxed);
        m.set_library_info(0xabcd, "snapshot", 240);
        m.record_request(Route::Admin, 200);
        m.record_request(Route::Tenant, 200);
        let dflt = m.register_tenant("default");
        let acme = m.register_tenant("acme");
        dflt.translations.fetch_add(2, Ordering::Relaxed);
        acme.cache_hits.fetch_add(3, Ordering::Relaxed);
        acme.translate.observe_ns(200_000);
        let open = Arc::new(AtomicU64::new(1));
        acme.breaker_states
            .set(vec![("gred".to_string(), Arc::clone(&open))])
            .unwrap();
        let text = m.render_prometheus();
        assert!(text.contains("t2v_breaker_state{tenant=\"acme\",backend=\"gred\"} 1"));
        assert!(text.contains("t2v_tenants 2"));
        assert!(text.contains("t2v_tenant_translate_seconds_count{tenant=\"acme\"} 1"));
        assert!(text.contains("t2v_tenant_translate_seconds_bucket{tenant=\"acme\",le=\"+Inf\"} 1"));
        assert!(text.contains("t2v_tenant_translate_seconds_count{tenant=\"default\"} 0"));
        assert!(text.contains("t2v_tenant_translations_total{tenant=\"default\"} 2"));
        assert!(text.contains("t2v_tenant_translations_total{tenant=\"acme\"} 0"));
        assert!(text.contains("t2v_tenant_cache_hits_total{tenant=\"acme\"} 3"));
        assert!(text.contains("t2v_http_requests_total{route=\"tenant\",status=\"2xx\"} 1"));
        m.drop_tenant("acme");
        let text = m.render_prometheus();
        assert!(text.contains("t2v_tenants 1"));
        assert!(!text.contains("tenant=\"acme\""));
        let text = m.render_prometheus();
        assert!(text.contains("t2v_backend_pool_share{backend=\"gred\"} 12"));
        assert!(text.contains("t2v_library_entries 240"));
        assert!(text.contains(
            "t2v_library_info{fingerprint=\"0x000000000000abcd\",source=\"snapshot\"} 1"
        ));
        assert!(text.contains("t2v_http_requests_total{route=\"admin\",status=\"2xx\"} 1"));
        // Every non-comment line is "name-or-name{labels} value" (with an
        // optional OpenMetrics exemplar after " # ").
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let sample = line.split(" # ").next().unwrap();
            let (_, value) = sample.rsplit_once(' ').expect("metric line has a value");
            value.parse::<f64>().expect("metric value is numeric");
        }
        assert_eq!(m.requests_for(Route::Translate, "2xx"), 1);
    }

    #[test]
    fn histogram_overflow_samples_still_count_and_render() {
        let h = LatencyHistogram::default();
        h.observe_ns(2_000_000_000); // 2 s: above every finite bound
        h.observe_ns(500);
        assert_eq!(h.count(), 2);
        assert_eq!(h.overflow(), 1, "the 2 s sample is explicitly tracked");
        // The finite buckets saw only the fast sample; +Inf covers both.
        let last = h.buckets[BUCKET_BOUNDS_NS.len() - 1].load(Ordering::Relaxed);
        assert_eq!(last, 1);
        assert_eq!(last + h.overflow(), h.count());
        let mut out = String::new();
        h.render(&mut out, "t2v_test_seconds", "test histogram");
        assert!(out.contains("t2v_test_seconds_bucket{le=\"1\"} 1"));
        assert!(out.contains("t2v_test_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(out.contains("t2v_test_seconds_count 2"));
        assert!(out.contains("t2v_test_seconds_sum 2.0000005"));
    }

    #[test]
    fn slow_request_counters_attribute_stages() {
        let m = Metrics::new();
        m.record_slow(t2v_trace::Stage::Backend);
        m.record_slow(t2v_trace::Stage::Backend);
        m.record_slow(t2v_trace::Stage::QueueWait);
        m.record_slow_truncated();
        assert_eq!(m.slow_requests(t2v_trace::Stage::Backend), 2);
        assert_eq!(m.slow_requests(t2v_trace::Stage::QueueWait), 1);
        assert_eq!(m.slow_requests_truncated(), 1);
        let text = m.render_prometheus();
        assert!(text.contains("t2v_slow_requests_total{stage=\"backend.translate\"} 2"));
        assert!(text.contains("t2v_slow_requests_total{stage=\"queue.wait\"} 1"));
        assert!(text.contains("t2v_slow_requests_total{stage=\"embed\"} 0"));
        assert!(text.contains("t2v_slow_requests_total{stage=\"truncated\"} 1"));
    }

    #[test]
    fn exemplars_attach_to_the_lowest_covering_bucket() {
        let h = LatencyHistogram::default();
        h.observe_ns(60_000);
        h.record_exemplar(60_000, 0xDEAD_BEEF);
        h.observe_ns(2_000_000_000); // overflow: exemplar on +Inf
        h.record_exemplar(2_000_000_000, 0xFEED);
        let mut out = String::new();
        h.render(&mut out, "t2v_test_seconds", "test histogram");
        let ex_line = out
            .lines()
            .find(|l| l.contains("le=\"0.0001\""))
            .expect("100 µs bucket line");
        assert!(
            ex_line.ends_with(&format!(
                "# {{trace_id=\"{}\"}} 0.00006",
                t2v_trace::format_id(0xDEAD_BEEF)
            )),
            "exemplar on the 100 µs bucket: {ex_line}"
        );
        // The newest exemplar sits on the *lowest* covering bucket only.
        let next = out
            .lines()
            .find(|l| l.contains("le=\"0.00025\""))
            .expect("250 µs bucket line");
        assert!(!next.contains("trace_id"), "no exemplar echo: {next}");
        let inf = out
            .lines()
            .find(|l| l.contains("le=\"+Inf\""))
            .expect("+Inf line");
        assert!(
            inf.contains(&format!("trace_id=\"{}\"", t2v_trace::format_id(0xFEED))),
            "overflow exemplar on +Inf: {inf}"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("plain"), "plain");
        assert_eq!(escape_label("a\"b"), "a\\\"b");
        assert_eq!(escape_label("a\\b"), "a\\\\b");
        assert_eq!(escape_label("a\nb"), "a\\nb");
    }

    /// Parse the labels of one sample line, honouring exposition escapes.
    /// Returns `(labels, unescaped values)` or panics on malformed input.
    fn parse_labels(raw: &str) -> Vec<(String, String)> {
        let mut labels = Vec::new();
        let mut chars = raw.chars().peekable();
        loop {
            let mut key = String::new();
            while let Some(&c) = chars.peek() {
                if c == '=' {
                    break;
                }
                key.push(c);
                chars.next();
            }
            assert_eq!(chars.next(), Some('='), "label missing '=' in {raw:?}");
            assert_eq!(chars.next(), Some('"'), "label value unquoted in {raw:?}");
            let mut value = String::new();
            loop {
                match chars.next().expect("unterminated label value") {
                    '\\' => match chars.next().expect("dangling escape") {
                        '\\' => value.push('\\'),
                        '"' => value.push('"'),
                        'n' => value.push('\n'),
                        other => panic!("invalid escape \\{other} in {raw:?}"),
                    },
                    '"' => break,
                    c => {
                        assert_ne!(c, '\n', "raw newline inside label value");
                        value.push(c);
                    }
                }
            }
            labels.push((key, value));
            match chars.next() {
                None => break,
                Some(',') => continue,
                Some(c) => panic!("unexpected {c:?} after label in {raw:?}"),
            }
        }
        labels
    }

    #[test]
    fn exposition_roundtrip_parses_cleanly() {
        use std::collections::{BTreeMap, HashMap, HashSet};

        let m = Metrics::with_backends(&["gred", "rgvisnet"]);
        m.record_request(Route::Translate, 200);
        m.cache_hits.fetch_add(3, Ordering::Relaxed);
        m.set_library_info(0x1234, "built", 99);
        m.translate.observe_ns(300_000);
        m.translate.observe_ns(2_000_000_000); // overflow sample
        m.queue_wait.observe_ns(10_000);
        m.request_total_latency.observe_ns(350_000);
        m.request_total_latency
            .record_exemplar(350_000, 0xABCD_EF01);
        m.record_slow(t2v_trace::Stage::Retrieve);
        // A hostile tenant id exercises label escaping end to end.
        let weird = m.register_tenant("we\"ird\\ten");
        weird.translate.observe_ns(100_000);
        weird
            .breaker_states
            .set(vec![("gred".to_string(), Arc::new(AtomicU64::new(2)))])
            .unwrap();

        let text = m.render_prometheus();
        let mut helps: HashSet<String> = HashSet::new();
        let mut types: HashMap<String, String> = HashMap::new();
        // (family, non-le labels) → [(le, cumulative count)] in render order.
        let mut buckets: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
        let mut counts: HashMap<(String, String), f64> = HashMap::new();

        for line in text.lines() {
            assert!(!line.trim().is_empty(), "no blank lines in exposition");
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let (name, help) = rest.split_once(' ').expect("HELP has text");
                assert!(!help.trim().is_empty(), "empty HELP for {name}");
                helps.insert(name.to_string());
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').expect("TYPE has a kind");
                assert!(
                    matches!(kind, "counter" | "gauge" | "histogram"),
                    "unknown TYPE {kind} for {name}"
                );
                types.insert(name.to_string(), kind.to_string());
                continue;
            }
            // Sample line: name{labels} value | name value, optionally
            // followed by an OpenMetrics exemplar (" # {trace_id=...} v").
            let (sample, exemplar) = match line.split_once(" # ") {
                Some((sample, ex)) => (sample, Some(ex)),
                None => (line, None),
            };
            if let Some(ex) = exemplar {
                assert!(
                    line.contains("_bucket"),
                    "exemplars only on bucket lines: {line}"
                );
                let (labels, value) = ex
                    .strip_prefix('{')
                    .and_then(|r| r.split_once("} "))
                    .expect("exemplar is {labels} value");
                assert!(parse_labels(labels).iter().any(|(k, _)| k == "trace_id"));
                value.parse::<f64>().expect("exemplar value is numeric");
            }
            let (name_labels, value) = sample.rsplit_once(' ').expect("sample has a value");
            let value: f64 = value.parse().expect("sample value is numeric");
            let (name, labels) = match name_labels.split_once('{') {
                Some((name, rest)) => {
                    let raw = rest.strip_suffix('}').expect("labels close");
                    (name, parse_labels(raw))
                }
                None => (name_labels, Vec::new()),
            };
            // Histogram samples resolve to their family name.
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|suffix| {
                    let stripped = name.strip_suffix(suffix)?;
                    (types.get(stripped).map(String::as_str) == Some("histogram"))
                        .then(|| stripped.to_string())
                })
                .unwrap_or_else(|| name.to_string());
            assert!(
                helps.contains(&family),
                "family {family} sampled before/without # HELP"
            );
            assert!(
                types.contains_key(&family),
                "family {family} sampled before/without # TYPE"
            );
            let series_key = |labels: &[(String, String)], drop_le: bool| {
                let mut kept: Vec<String> = labels
                    .iter()
                    .filter(|(k, _)| !(drop_le && k == "le"))
                    .map(|(k, v)| format!("{k}={v:?}"))
                    .collect();
                kept.sort();
                kept.join(",")
            };
            if name.ends_with("_bucket") {
                let le = &labels.iter().find(|(k, _)| k == "le").expect("bucket le").1;
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().expect("le is numeric")
                };
                buckets
                    .entry((family.clone(), series_key(&labels, true)))
                    .or_default()
                    .push((le, value));
            } else if name.ends_with("_count") && types.get(&family).unwrap() == "histogram" {
                counts.insert((family.clone(), series_key(&labels, false)), value);
            }
        }

        assert!(!buckets.is_empty(), "histogram families present");
        for ((family, series), rows) in &buckets {
            for pair in rows.windows(2) {
                assert!(
                    pair[0].0 < pair[1].0,
                    "{family}{{{series}}}: le values out of order"
                );
                assert!(
                    pair[0].1 <= pair[1].1,
                    "{family}{{{series}}}: buckets not cumulative"
                );
            }
            let (last_le, last_count) = *rows.last().unwrap();
            assert!(
                last_le.is_infinite(),
                "{family}{{{series}}}: missing +Inf bucket"
            );
            let count = counts
                .get(&(family.clone(), series.clone()))
                .unwrap_or_else(|| panic!("{family}{{{series}}}: missing _count"));
            assert_eq!(last_count, *count, "{family}{{{series}}}: +Inf != count");
        }
        // The hostile tenant id survived the trip through escaping.
        assert!(text.contains("tenant=\"we\\\"ird\\\\ten\""));
        // The recorded exemplar rides its bucket line.
        assert!(
            text.contains(&format!(
                " # {{trace_id=\"{}\"}} 0.00035",
                t2v_trace::format_id(0xABCD_EF01)
            )),
            "exemplar rendered"
        );
    }
}
