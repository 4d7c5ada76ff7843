//! Lock-free serving metrics, each series declared once. The tables below
//! — unlabelled counters and gauges in [`SCALARS`], latency histograms in
//! [`HISTOGRAMS`], the per-backend and per-tenant families in
//! [`PER_LABEL`], the families with labels of their own in [`FAMILIES`]
//! — are what `GET /metrics` renders (Prometheus text
//! exposition), what the obs sampler sweeps into its TSDB
//! ([`Metrics::collect`], keyed by exposition keys) and where the SLO
//! engine finds its inputs ([`slo_sources`]). Recording a sample is a
//! relaxed fetch-add (a dozen for histograms), so instrumentation cost is
//! invisible next to the work it measures.

use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;
use t2v_trace::{Stage, STAGES};

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

/// A bucket bound in seconds: its `le` label value.
fn seconds(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// A fixed-bucket latency histogram (`+Inf` bucket is implicit: `count`,
/// so a sample above the largest finite bound shows as `count` minus the
/// last finite bucket).
#[derive(Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_NS.len()],
    sum_ns: AtomicU64,
    count: AtomicU64,
    /// Most recent exemplar per bucket (`+Inf` last): the trace id and raw
    /// latency of the newest *recorded* trace that landed there, rendered
    /// OpenMetrics-style so a slow bucket links straight to its span tree.
    /// A mutex is fine: exemplars are written only for traces the flight
    /// recorder keeps (sampled/slow/error), far off the per-request path.
    exemplars: Mutex<[Option<(u128, u64)>; BUCKET_BOUNDS_NS.len() + 1]>,
}

impl LatencyHistogram {
    pub fn observe_ns(&self, ns: u64) {
        // Cumulative buckets (Prometheus convention): bump every bucket whose
        // bound covers the sample. A 12-iteration loop of relaxed adds is
        // cheaper than making the scrape path reconstruct cumulative sums
        // consistently.
        for (i, &bound) in BUCKET_BOUNDS_NS.iter().enumerate() {
            if ns <= bound {
                self.buckets[i].fetch_add(1, Relaxed);
            }
        }
        self.sum_ns.fetch_add(ns, Relaxed);
        self.count.fetch_add(1, Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
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

    /// The sample lines of one label set (`labels` escaped, empty for
    /// none); the `# HELP`/`# TYPE` header is the caller's, once per
    /// family. A bucket line carries its exemplar, if one was recorded.
    fn render(&self, out: &mut String, name: &str, labels: &str) {
        let exemplars = *self.exemplars.lock().unwrap_or_else(|e| e.into_inner());
        let count = self.count();
        let sep = if labels.is_empty() { "" } else { "," };
        for (i, exemplar) in exemplars.into_iter().enumerate() {
            let (le, n) = match BUCKET_BOUNDS_NS.get(i) {
                Some(&ns) => (seconds(ns).to_string(), self.buckets[i].load(Relaxed)),
                None => ("+Inf".to_string(), count),
            };
            let ex = render_exemplar(exemplar);
            let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {n}{ex}");
        }
        let sum = self.sum_ns.load(Relaxed) as f64 / 1e9;
        sample(out, &format!("{name}_sum"), labels, sum);
        sample(out, &format!("{name}_count"), labels, count);
    }
}

/// OpenMetrics exemplar suffix for one bucket line: the newest recorded
/// trace that landed there, or nothing.
fn render_exemplar(slot: Option<(u128, u64)>) -> String {
    match slot {
        Some((trace_id, ns)) => format!(
            " # {{trace_id=\"{}\"}} {}",
            t2v_trace::format_id(trace_id),
            seconds(ns)
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

/// `route` label values, in [`Route`] order.
const ROUTES: [&str; 8] = [
    "translate",
    "translate_batch",
    "backends",
    "tenant",
    "admin",
    "healthz",
    "metrics",
    "other",
];

/// Status classes the request counters are labelled with.
const CLASSES: [&str; 4] = ["2xx", "3xx", "4xx", "5xx"];

/// One declared series: its `/metrics` name, Prometheus type and help.
#[derive(Debug)]
pub struct Row {
    pub name: &'static str,
    pub kind: &'static str,
    pub help: &'static str,
}

impl Row {
    fn render<V: Display>(&self, out: &mut String, samples: impl IntoIterator<Item = (String, V)>) {
        family(out, self.name, self.kind, self.help, samples);
    }
}

/// Declare an enum and the table of [`Row`]s it indexes (`variant as
/// usize`), one entry per series: no variant exists without its name.
macro_rules! table {
    ($(#[$doc:meta])* $enum:ident, $rows:ident;
     $($variant:ident $name:literal $kind:literal $help:literal,)*) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $enum { $($variant),* }

        /// The rows, in variant order.
        pub const $rows: &[Row] = &[$(Row { name: $name, kind: $kind, help: $help }),*];

        impl $enum {
            pub fn row(self) -> &'static Row {
                &$rows[self as usize]
            }
        }
    };
}

table! {
    /// The families the other tables do not cover: one sample, or labels
    /// of their own.
    Family, FAMILIES;
    Uptime "t2v_uptime_seconds" "gauge" "Seconds since the registry started.",
    Requests "t2v_http_requests_total" "counter" "Requests by route and status class.",
    SlowRequests "t2v_slow_requests_total" "counter"
        "Requests over the trace force-slow threshold, by dominant stage.",
    LibraryInfo "t2v_library_info" "gauge"
        "Loaded embedding-library provenance (value is always 1).",
    BreakerState "t2v_breaker_state" "gauge"
        "Circuit-breaker state (0 closed, 1 open, 2 half-open).",
    FaultsInjected "t2v_faults_injected_total" "counter"
        "Faults fired by the armed chaos plan, by point.",
    SloBurnRate "t2v_slo_burn_rate" "gauge"
        "Error-budget burn rate per SLO and window (1 = spending exactly the budget).",
    SloBudgetRemaining "t2v_slo_error_budget_remaining" "gauge"
        "Fraction of the error budget left over the slow window (negative = overspent).",
}

table! {
    /// Every unlabelled counter and gauge.
    Scalar, SCALARS;
    InlineResponses "t2v_inline_responses_total" "counter"
        "Single-translation responses framed on the event-loop thread (no thread hop before the write).",
    CacheHits "t2v_cache_hits_total" "counter" "Translation cache hits.",
    CacheMisses "t2v_cache_misses_total" "counter" "Translation cache misses.",
    Rejected "t2v_rejected_total" "counter"
        "Requests shed by backpressure or the connection limit.",
    ConnectionsTotal "t2v_connections_total" "counter" "Connections accepted since start.",
    ConnectionsActive "t2v_connections_active" "gauge" "Connections currently open.",
    ConnReaped "t2v_conn_reaped_total" "counter"
        "Connections closed by the idle-timeout reaper.",
    AcceptErrors "t2v_accept_errors_total" "counter"
        "accept(2) failures (fd exhaustion, aborted handshakes).",
    QueueDepth "t2v_queue_depth" "gauge" "Jobs queued in the worker pool.",
    WorkerPanics "t2v_worker_panics_total" "counter"
        "Worker jobs that panicked (caught and answered 500).",
    DeadlineExceeded "t2v_deadline_exceeded_total" "counter"
        "Requests answered 504 after their deadline budget ran out.",
    LateRepliesDropped "t2v_late_replies_dropped_total" "counter"
        "Worker replies dropped because their request was answered (or closed) first.",
    Degraded "t2v_degraded_total" "counter"
        "Requests answered degraded (stale cache / fallback backend).",
    BreakerOpens "t2v_breaker_opens_total" "counter"
        "Circuit-breaker transitions into the open state.",
    BreakerRejections "t2v_breaker_rejections_total" "counter"
        "Requests fast-failed or degraded by an open breaker.",
    BatchRetries "t2v_batch_retries_total" "counter"
        "Batch items retried after a transient internal failure.",
    CacheShards "t2v_cache_shards" "gauge" "Translation-cache shard count.",
    Tenants "t2v_tenants" "gauge" "Currently attached tenants (default included).",
    LibraryEntries "t2v_library_entries" "gauge" "Embedding-library entry count.",
    SnapshotsWritten "t2v_snapshots_written_total" "counter" "Library snapshots persisted.",
    // Fossils: the micro-batcher is gone, but `benchmark/src/serve.rs`
    // fails a run when either series is absent from a scrape. Delete both
    // once the benchmark stops reading them (ROADMAP).
    Batches "t2v_batches_total" "counter" "Retired with the batcher; always 0.",
    BatchedLookups "t2v_batched_lookups_total" "counter" "Retired with the batcher; always 0.",
}

table! {
    /// The unlabelled latency histograms.
    Hist, HISTOGRAMS;
    QueueWait "t2v_queue_wait_seconds" "histogram" "Time jobs waited in the worker-pool queue.",
    Translate "t2v_translate_seconds" "histogram" "Model time per cold translation.",
    Request "t2v_request_seconds" "histogram" "End-to-end request latency as the server saw it.",
}

table! {
    /// The counters of one labelled family member, rendered as
    /// `t2v_backend_<name>{backend="<id>"}` or `t2v_tenant_<name>{tenant="<id>"}`.
    PerLabel, PER_LABEL;
    Translations "translations_total" "counter" "Cold translations executed",
    Errors "errors_total" "counter" "Structured translation errors",
    CacheHits "cache_hits_total" "counter" "Cache hits",
    CacheMisses "cache_misses_total" "counter" "Cache misses",
}

/// A labelled dimension: its label, its families' name prefix (in place
/// of `t2v_`) and whether it renders its members' [`Hist::Translate`]
/// histograms.
struct Dim {
    label: &'static str,
    prefix: &'static str,
    histogram: bool,
}

const BACKENDS: Dim = Dim {
    label: "backend",
    prefix: "t2v_backend_",
    histogram: false,
};

const TENANTS: Dim = Dim {
    label: "tenant",
    prefix: "t2v_tenant_",
    histogram: true,
};

/// One member of a labelled family: a backend (`backend="<id>"`) or a
/// tenant (`tenant="<id>"`). Backends register once at startup, so their
/// lookup is an index; tenants attach and detach at runtime, so each tenant
/// runtime records through its own `Arc`, lock-free.
pub struct LabelledMetrics {
    pub id: String,
    counters: [AtomicU64; PER_LABEL.len()],
    /// Model time per cold translation.
    pub translate: LatencyHistogram,
    /// A tenant's circuit-breaker state gauges, `(backend id, shared state
    /// cell)` in registry order; the tenant runtime's breakers write the
    /// cells (0 closed / 1 open / 2 half-open), only the scrape reads them.
    /// Set once when the tenant runtime is built.
    pub breaker_states: OnceLock<Vec<(String, Arc<AtomicU64>)>>,
}

impl LabelledMetrics {
    fn new(id: &str) -> Arc<LabelledMetrics> {
        Arc::new(LabelledMetrics {
            id: id.to_string(),
            counters: Default::default(),
            translate: LatencyHistogram::default(),
            breaker_states: OnceLock::new(),
        })
    }

    pub fn counter(&self, c: PerLabel) -> &AtomicU64 {
        &self.counters[c as usize]
    }
}

/// The registry handed to every serving component.
pub struct Metrics {
    started: Instant,
    /// requests[route][status class]
    requests: [[AtomicU64; CLASSES.len()]; ROUTES.len()],
    scalars: [AtomicU64; SCALARS.len()],
    histograms: [LatencyHistogram; HISTOGRAMS.len()],
    /// Requests slower than the trace force-slow threshold, attributed to
    /// the stage with the most self time (indexed by `t2v_trace::STAGES`;
    /// the extra final slot is `stage="truncated"` — traces whose span
    /// list hit the 24-slot cap, where the dominant stage may have been
    /// one of the dropped spans and attribution would be a guess).
    slow_requests: [AtomicU64; STAGES.len() + 1],
    /// Per-backend members, in backend-registry order (the default
    /// tenant's registry).
    backends: Vec<Arc<LabelledMetrics>>,
    /// Per-tenant members, in attach order; default first by construction.
    /// Only register, drop and the scrape take the lock.
    tenants: Mutex<Vec<Arc<LabelledMetrics>>>,
    /// Library provenance, set once at startup: (fingerprint hex, source
    /// label). Rendered as an info-style gauge with labels because a u64
    /// fingerprint does not survive the f64 Prometheus value space.
    library_info: OnceLock<(String, &'static str)>,
}

impl Metrics {
    /// Registry with one labelled family member per backend id.
    pub fn with_backends(backend_ids: &[&str]) -> Metrics {
        Metrics {
            started: Instant::now(),
            requests: Default::default(),
            scalars: Default::default(),
            histograms: Default::default(),
            slow_requests: Default::default(),
            backends: backend_ids
                .iter()
                .map(|id| LabelledMetrics::new(id))
                .collect(),
            tenants: Mutex::default(),
            library_info: OnceLock::new(),
        }
    }

    /// The atomic behind one unlabelled row.
    pub fn scalar(&self, s: Scalar) -> &AtomicU64 {
        &self.scalars[s as usize]
    }

    /// Count one event on an unlabelled counter.
    pub fn inc(&self, s: Scalar) {
        self.scalar(s).fetch_add(1, Relaxed);
    }

    pub fn get(&self, s: Scalar) -> u64 {
        self.scalar(s).load(Relaxed)
    }

    pub fn hist(&self, h: Hist) -> &LatencyHistogram {
        &self.histograms[h as usize]
    }

    /// Count one slow request against its dominant stage, or — `None`, a
    /// trace that dropped spans at the 24-slot cap, whose true dominant
    /// stage may be among the dropped ones — under `stage="truncated"`.
    pub fn record_slow(&self, stage: Option<Stage>) {
        let i = stage.map_or(STAGES.len(), |s| s as usize);
        self.slow_requests[i].fetch_add(1, Relaxed);
    }

    pub fn record_request(&self, route: Route, status: u16) {
        let class = match status {
            200..=299 => 0,
            300..=399 => 1,
            400..=499 => 2,
            _ => 3,
        };
        self.requests[route as usize][class].fetch_add(1, Relaxed);
    }

    /// The member of backend `idx` (backend-registry order). Panics on an
    /// unregistered index — backend resolution happens before any recording.
    pub fn backend(&self, idx: usize) -> &LabelledMetrics {
        &self.backends[idx]
    }

    /// Count one cache lookup: globally, for the tenant and (see
    /// [`Metrics::record_translation`]) for the backend.
    pub fn record_cache(&self, tenant: &LabelledMetrics, backend: Option<usize>, hit: bool) {
        let (global, row) = match hit {
            true => (Scalar::CacheHits, PerLabel::CacheHits),
            false => (Scalar::CacheMisses, PerLabel::CacheMisses),
        };
        self.inc(global);
        for m in std::iter::once(tenant).chain(backend.map(|i| self.backend(i))) {
            m.counter(row).fetch_add(1, Relaxed);
        }
    }

    /// Count one cold translation that took `ns` of model time and ended
    /// in a structured error or not, for the tenant and — `backend` set
    /// only on the default tenant, whose indices map onto the startup
    /// registry — the backend.
    pub fn record_translation(
        &self,
        tenant: &LabelledMetrics,
        backend: Option<usize>,
        ns: u64,
        error: bool,
    ) {
        self.hist(Hist::Translate).observe_ns(ns);
        for m in std::iter::once(tenant).chain(backend.map(|i| self.backend(i))) {
            m.counter(PerLabel::Translations).fetch_add(1, Relaxed);
            m.translate.observe_ns(ns);
            if error {
                m.counter(PerLabel::Errors).fetch_add(1, Relaxed);
            }
        }
    }

    /// Register a tenant's family member. Called at startup for every
    /// configured tenant and at runtime by the admin attach route; the
    /// returned `Arc` is the tenant runtime's lock-free recording handle.
    pub fn register_tenant(&self, id: &str) -> Arc<LabelledMetrics> {
        let member = LabelledMetrics::new(id);
        let mut tenants = self.tenants.lock().expect("tenant metrics lock");
        tenants.retain(|t| t.id != id);
        tenants.push(Arc::clone(&member));
        self.scalar(Scalar::Tenants)
            .store(tenants.len() as u64, Relaxed);
        member
    }

    /// Drop a detached tenant's member from future scrapes. (In-flight
    /// recordings through an already-held `Arc` stay safe; the samples
    /// simply stop being rendered.)
    pub fn drop_tenant(&self, id: &str) {
        let mut tenants = self.tenants.lock().expect("tenant metrics lock");
        tenants.retain(|t| t.id != id);
        self.scalar(Scalar::Tenants)
            .store(tenants.len() as u64, Relaxed);
    }

    /// Record the loaded library's provenance (first call wins; the
    /// library is fixed for a server's lifetime).
    pub fn set_library_info(&self, fingerprint: u64, source: &'static str, entries: usize) {
        let _ = self
            .library_info
            .set((format!("{fingerprint:#018x}"), source));
        self.scalar(Scalar::LibraryEntries)
            .store(entries as u64, Relaxed);
    }

    /// The obs sampler's sweep, keyed by `/metrics` exposition keys: every
    /// [`SCALARS`] row, then the SLO inputs of [`slo_sources`] — the
    /// request-latency histogram's finite buckets, the request counters
    /// summed over their labels and over the 5xx class, the latency count.
    pub fn collect(&self) -> Vec<(String, u64)> {
        let rows = SCALARS.iter().zip(&self.scalars);
        let mut out: Vec<(String, u64)> = rows
            .map(|(row, v)| (row.name.to_string(), v.load(Relaxed)))
            .collect();
        let sources = slo_sources();
        let latency = self.hist(Hist::Request);
        let buckets = sources.latency_buckets.into_iter().zip(&latency.buckets);
        out.extend(buckets.map(|((_, key), n)| (key, n.load(Relaxed))));
        let (mut total, mut bad) = (0, 0);
        for row in &self.requests {
            total += row.iter().map(|n| n.load(Relaxed)).sum::<u64>();
            bad += row[3].load(Relaxed);
        }
        out.extend([
            (sources.requests_total, total),
            (sources.requests_5xx, bad),
            (sources.latency_count, latency.count()),
        ]);
        out
    }

    /// Render the whole registry — plus the burn-rate gauges of `slos`,
    /// the SLO engine's last sweep — in Prometheus text format. Every
    /// family carries `# HELP` and `# TYPE` headers, and label values pass
    /// through [`escape_label`]; the roundtrip test below parses this
    /// output back.
    pub fn render_prometheus(&self, slos: &[t2v_obs::SloStatus]) -> String {
        let mut out = String::with_capacity(8192);
        let uptime = self.started.elapsed().as_secs_f64();
        Family::Uptime
            .row()
            .render(&mut out, [(String::new(), uptime)]);
        let requests = ROUTES.iter().zip(&self.requests).flat_map(|(route, row)| {
            let classes = CLASSES.iter().zip(row);
            classes.map(move |(class, n)| (format!("route=\"{route}\",status=\"{class}\""), n))
        });
        Family::Requests.row().render(&mut out, requests.map(load));
        for (row, v) in SCALARS.iter().zip(&self.scalars) {
            row.render(&mut out, [(String::new(), v.load(Relaxed))]);
        }
        let stages = STAGES.iter().filter(|&&s| s != Stage::Request);
        let stages = stages.map(|&s| (s.name(), s as usize));
        let slow = stages.chain([("truncated", STAGES.len())]);
        let slow = slow.map(|(stage, i)| (format!("stage=\"{stage}\""), &self.slow_requests[i]));
        Family::SlowRequests.row().render(&mut out, slow.map(load));
        let info = self.library_info.get().into_iter();
        let info =
            info.map(|(fp, source)| (format!("fingerprint=\"{fp}\",source=\"{source}\""), 1));
        Family::LibraryInfo.row().render(&mut out, info);

        render_labelled(&mut out, &BACKENDS, &self.backends);
        // Snapshot the Arcs so rendering holds the registry lock only for a
        // clone, never across formatting.
        let tenants = self.tenants.lock().expect("tenant metrics lock").clone();
        render_labelled(&mut out, &TENANTS, &tenants);
        let states = tenants.iter().flat_map(|t| {
            let cells = t.breaker_states.get().into_iter().flatten();
            let tenant = escape_label(&t.id);
            cells.map(move |(backend, state)| {
                let backend = escape_label(backend);
                let labels = format!("tenant=\"{tenant}\",backend=\"{backend}\"");
                (labels, &**state)
            })
        });
        Family::BreakerState
            .row()
            .render(&mut out, states.map(load));
        let fired = t2v_fault::global_fired().into_iter().flatten();
        let fired = fired.map(|(point, n)| (format!("point=\"{point}\""), n));
        Family::FaultsInjected.row().render(&mut out, fired);

        for (row, h) in HISTOGRAMS.iter().zip(&self.histograms) {
            header(&mut out, row.name, row.kind, row.help);
            h.render(&mut out, row.name, "");
        }
        let burns = slos.iter().flat_map(|s| {
            let slo = escape_label(&s.name);
            [("fast", s.fast_burn), ("slow", s.slow_burn)]
                .map(|(window, v)| (format!("slo=\"{slo}\",window=\"{window}\""), v))
        });
        Family::SloBurnRate.row().render(&mut out, burns);
        let left = slos.iter().map(|s| {
            let slo = escape_label(&s.name);
            (format!("slo=\"{slo}\""), s.budget_remaining)
        });
        Family::SloBudgetRemaining.row().render(&mut out, left);
        out
    }
}

/// Where the SLO engine finds its inputs among [`Metrics::collect`]'s
/// keys: the label-summed request counter and its 5xx class, the cache
/// counters, and the request-latency histogram's buckets and count.
pub fn slo_sources() -> t2v_obs::SloSources {
    let (requests, latency) = (Family::Requests.row().name, Hist::Request.row().name);
    let bucket = |ns: u64| format!("{latency}_bucket{{le=\"{}\"}}", seconds(ns));
    t2v_obs::SloSources {
        requests_total: requests.to_string(),
        requests_5xx: format!("{requests}{{status=\"5xx\"}}"),
        cache_hits: Scalar::CacheHits.row().name.to_string(),
        cache_misses: Scalar::CacheMisses.row().name.to_string(),
        latency_buckets: BUCKET_BOUNDS_NS
            .iter()
            .map(|&ns| (seconds(ns), bucket(ns)))
            .collect(),
        latency_count: format!("{latency}_count"),
    }
}

/// A sample whose value is an atomic, read now.
fn load((labels, n): (String, &AtomicU64)) -> (String, u64) {
    (labels, n.load(Relaxed))
}

fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
}

/// One family: its header, then a `name{labels} value` line per sample.
/// A family with no samples (no library, no armed plan, no SLOs) renders
/// nothing at all.
fn family<V: Display>(
    out: &mut String,
    name: &str,
    kind: &str,
    help: &str,
    samples: impl IntoIterator<Item = (String, V)>,
) {
    let mut samples = samples.into_iter().peekable();
    if samples.peek().is_some() {
        header(out, name, kind, help);
    }
    for (labels, value) in samples {
        sample(out, name, &labels, value);
    }
}

/// One sample line; `labels` are escaped, and empty renders no braces.
fn sample(out: &mut String, name: &str, labels: &str, value: impl Display) {
    let _ = match labels {
        "" => writeln!(out, "{name} {value}"),
        _ => writeln!(out, "{name}{{{labels}}} {value}"),
    };
}

/// Every family of one labelled dimension, one label set per member.
fn render_labelled(out: &mut String, dim: &Dim, members: &[Arc<LabelledMetrics>]) {
    let label = |m: &LabelledMetrics| format!("{}=\"{}\"", dim.label, escape_label(&m.id));
    for (i, row) in PER_LABEL.iter().enumerate() {
        let name = format!("{}{}", dim.prefix, row.name);
        let help = format!("{}, by {}.", row.help, dim.label);
        let samples = members.iter().map(|m| (label(m), &m.counters[i]));
        family(out, &name, row.kind, &help, samples.map(load));
    }
    if dim.histogram && !members.is_empty() {
        let row = Hist::Translate.row();
        let name = row.name.replacen("t2v_", dim.prefix, 1);
        let help = format!("{}, by {}.", row.help.trim_end_matches('.'), dim.label);
        header(out, &name, row.kind, &help);
        for m in members {
            m.translate.render(out, &name, &label(m));
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = LatencyHistogram::default();
        h.observe_ns(60_000); // lands in the 100 µs bucket and above
        h.observe_ns(60_000);
        h.observe_ns(400_000); // lands in the 500 µs bucket and above
        assert_eq!(h.buckets[0].load(Relaxed), 0);
        assert_eq!(h.buckets[1].load(Relaxed), 2);
        assert_eq!(h.buckets[3].load(Relaxed), 3);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn render_is_valid_prometheus_shape() {
        let m = Metrics::with_backends(&["gred", "rgvisnet"]);
        m.record_request(Route::Translate, 200);
        m.record_request(Route::Translate, 404);
        m.record_request(Route::Other, 503);
        m.record_request(Route::Admin, 404);
        m.record_request(Route::Backends, 200);
        m.scalar(Scalar::CacheShards).store(8, Relaxed);
        m.backend(0)
            .counter(PerLabel::Translations)
            .fetch_add(2, Relaxed);
        m.backend(1)
            .counter(PerLabel::CacheHits)
            .fetch_add(5, Relaxed);
        m.scalar(Scalar::CacheHits).fetch_add(3, Relaxed);
        m.hist(Hist::Translate).observe_ns(300_000);
        let text = m.render_prometheus(&[]);
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
        assert!(text.contains("t2v_backend_translations_total{backend=\"rgvisnet\"} 0"));
        assert!(text.contains("t2v_backend_cache_hits_total{backend=\"rgvisnet\"} 5"));
        assert!(text.contains("t2v_backend_errors_total{backend=\"gred\"} 0"));
        m.set_library_info(0xabcd, "snapshot", 240);
        m.record_request(Route::Admin, 200);
        m.record_request(Route::Tenant, 200);
        let dflt = m.register_tenant("default");
        let acme = m.register_tenant("acme");
        dflt.counter(PerLabel::Translations).fetch_add(2, Relaxed);
        acme.counter(PerLabel::CacheHits).fetch_add(3, Relaxed);
        acme.translate.observe_ns(200_000);
        let open = Arc::new(AtomicU64::new(1));
        acme.breaker_states
            .set(vec![("gred".to_string(), Arc::clone(&open))])
            .unwrap();
        let text = m.render_prometheus(&[]);
        assert!(text.contains("t2v_breaker_state{tenant=\"acme\",backend=\"gred\"} 1"));
        assert!(text.contains("t2v_tenants 2"));
        assert!(text.contains("t2v_tenant_translate_seconds_count{tenant=\"acme\"} 1"));
        assert!(text.contains("t2v_tenant_translate_seconds_bucket{tenant=\"acme\",le=\"+Inf\"} 1"));
        assert!(text.contains("t2v_tenant_translate_seconds_count{tenant=\"default\"} 0"));
        assert!(text.contains("t2v_tenant_translations_total{tenant=\"default\"} 2"));
        assert!(text.contains("t2v_tenant_translations_total{tenant=\"acme\"} 0"));
        assert!(text.contains("t2v_tenant_cache_hits_total{tenant=\"acme\"} 3"));
        assert!(text.contains("t2v_http_requests_total{route=\"tenant\",status=\"2xx\"} 1"));
        assert!(!text.contains("t2v_backend_translate_seconds"));
        m.drop_tenant("acme");
        let text = m.render_prometheus(&[]);
        assert!(text.contains("t2v_tenants 1"));
        assert!(!text.contains("tenant=\"acme\""));
        let text = m.render_prometheus(&[]);
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
    }

    #[test]
    fn histogram_overflow_samples_still_count_and_render() {
        let h = LatencyHistogram::default();
        h.observe_ns(2_000_000_000); // 2 s: above every finite bound
        h.observe_ns(500);
        assert_eq!(h.count(), 2);
        // The finite buckets saw only the fast sample; +Inf covers both.
        let last = h.buckets[BUCKET_BOUNDS_NS.len() - 1].load(Relaxed);
        assert_eq!(last, 1);
        let mut out = String::new();
        h.render(&mut out, "t2v_test_seconds", "");
        assert!(out.contains("t2v_test_seconds_bucket{le=\"1\"} 1"));
        assert!(out.contains("t2v_test_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(out.contains("t2v_test_seconds_count 2"));
        assert!(out.contains("t2v_test_seconds_sum 2.0000005"));
        // The same lines under a label set.
        let mut out = String::new();
        h.render(&mut out, "t2v_test_seconds", "tenant=\"a\"");
        assert!(out.contains("t2v_test_seconds_bucket{tenant=\"a\",le=\"+Inf\"} 2"));
        assert!(out.contains("t2v_test_seconds_count{tenant=\"a\"} 2"));
    }

    #[test]
    fn slow_request_counters_attribute_stages() {
        let m = Metrics::with_backends(&[]);
        m.record_slow(Some(Stage::Backend));
        m.record_slow(Some(Stage::Backend));
        m.record_slow(Some(Stage::QueueWait));
        m.record_slow(None);
        let text = m.render_prometheus(&[]);
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
        h.render(&mut out, "t2v_test_seconds", "");
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

    /// Split a sample key (`name` or `name{labels}`) into its name and
    /// parsed labels.
    fn parse_key(key: &str) -> (&str, Vec<(String, String)>) {
        match key.split_once('{') {
            Some((name, rest)) => (
                name,
                parse_labels(rest.strip_suffix('}').expect("labels close")),
            ),
            None => (key, Vec::new()),
        }
    }

    #[test]
    fn exposition_roundtrip_parses_cleanly() {
        use std::collections::{BTreeMap, HashMap, HashSet};

        let m = Metrics::with_backends(&["gred", "rgvisnet"]);
        m.record_request(Route::Translate, 200);
        m.scalar(Scalar::CacheHits).fetch_add(3, Relaxed);
        m.set_library_info(0x1234, "built", 99);
        m.hist(Hist::Translate).observe_ns(300_000);
        m.hist(Hist::Translate).observe_ns(2_000_000_000); // overflow sample
        m.hist(Hist::QueueWait).observe_ns(10_000);
        m.hist(Hist::Request).observe_ns(350_000);
        m.hist(Hist::Request).record_exemplar(350_000, 0xABCD_EF01);
        m.record_slow(Some(Stage::Retrieve));
        // A hostile tenant id exercises label escaping end to end.
        let weird = m.register_tenant("we\"ird\\ten");
        weird.translate.observe_ns(100_000);
        weird
            .breaker_states
            .set(vec![("gred".to_string(), Arc::new(AtomicU64::new(2)))])
            .unwrap();

        let text = m.render_prometheus(&[]);
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
            let (name, labels) = parse_key(name_labels);
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

    /// Every `t2v_*` series name a document spells: crate paths
    /// (`t2v_trace::...`) are skipped, histogram sample suffixes kept.
    fn doc_series(text: &str) -> Vec<&str> {
        let word = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
        let mut out = Vec::new();
        for (at, _) in text.match_indices("t2v_") {
            if text[..at].ends_with(word) {
                continue;
            }
            let tail = &text[at..];
            let end = tail.find(|c: char| !word(c)).unwrap_or(tail.len());
            if !tail[end..].starts_with("::") {
                out.push(&tail[..end]);
            }
        }
        out
    }

    /// The drift check, in the style of `config::tests`' knob check: from a
    /// state that renders every family (an extra tenant, two backends, an
    /// armed fault plan, SLOs), each consumer of the table may name only
    /// what `/metrics` renders, and DESIGN.md names every family.
    #[test]
    fn every_consumer_names_only_rendered_series() {
        use std::collections::{HashMap, HashSet};

        let m = Metrics::with_backends(&["gred", "rgvisnet"]);
        m.set_library_info(0x1234, "built", 99);
        m.register_tenant("default");
        let acme = m.register_tenant("acme");
        let state = vec![("gred".to_string(), Arc::new(AtomicU64::new(0)))];
        acme.breaker_states.set(state).unwrap();
        let slo = t2v_obs::SloStatus {
            name: "availability".to_string(),
            firing: false,
            fast_burn: 0.0,
            slow_burn: 0.0,
            budget_remaining: 1.0,
            target: 0.999,
        };
        // Process-global, so a plan no real backend can fire.
        let plan = "seed=1;backend.error:backend=drift-check";
        t2v_fault::arm(&t2v_fault::FaultPlan::parse(plan).unwrap());
        let text = m.render_prometheus(&[slo]);
        t2v_fault::disarm();

        // sample name → every label set it renders with; family → kind.
        let mut samples: HashMap<&str, Vec<Vec<(String, String)>>> = HashMap::new();
        let mut families: HashMap<&str, &str> = HashMap::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let (name, kind) = rest.split_once(' ').unwrap();
                families.insert(name, kind);
            } else if !line.starts_with('#') {
                let key = line
                    .split(" # ")
                    .next()
                    .unwrap()
                    .rsplit_once(' ')
                    .unwrap()
                    .0;
                let (name, labels) = parse_key(key);
                samples.entry(name).or_default().push(labels);
            }
        }
        for family in [
            "t2v_faults_injected_total",
            "t2v_slo_burn_rate",
            "t2v_breaker_state",
        ] {
            assert!(families.contains_key(family), "the state renders {family}");
        }

        let collected: HashSet<String> = m.collect().into_iter().map(|(k, _)| k).collect();
        for key in &collected {
            let (name, labels) = parse_key(key);
            let rendered = samples.get(name).map(Vec::as_slice).unwrap_or_default();
            assert!(
                rendered
                    .iter()
                    .any(|set| labels.iter().all(|l| set.contains(l))),
                "collector key {key} is no rendered sample (or has labels it lacks)"
            );
        }
        let sources = slo_sources();
        let buckets = sources.latency_buckets.iter().map(|(_, key)| key);
        for key in [
            &sources.requests_total,
            &sources.requests_5xx,
            &sources.cache_hits,
            &sources.cache_misses,
            &sources.latency_count,
        ]
        .into_iter()
        .chain(buckets)
        {
            assert!(collected.contains(key), "SLO source {key} is not collected");
        }

        // A histogram's sample names resolve to its family.
        let family_of = |name: &str| {
            ["_bucket", "_sum", "_count"]
                .iter()
                .filter_map(|suffix| name.strip_suffix(suffix))
                .find(|base| families.get(base) == Some(&"histogram"))
                .unwrap_or(name)
                .to_string()
        };
        let design = include_str!("../../../DESIGN.md");
        let readme = include_str!("../../../README.md");
        for (doc, text) in [("DESIGN.md", design), ("README.md", readme)] {
            for name in doc_series(text) {
                assert!(
                    families.contains_key(family_of(name).as_str()),
                    "{doc} names `{name}`, which /metrics does not render"
                );
            }
        }
        let named: HashSet<String> = doc_series(design).into_iter().map(family_of).collect();
        for family in families.keys() {
            assert!(named.contains(*family), "DESIGN.md never names `{family}`");
        }
    }
}
