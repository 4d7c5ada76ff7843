//! Server configuration: `key=value` file, environment overrides, sane
//! defaults. Precedence is defaults < file < `T2V_SERVE_*` environment, so a
//! deployment can ship one config file and still tweak a knob per-instance
//! without recompiling. An unknown key is an error from either source.
//!
//! Every knob is one row of the `knobs!` table below. The row's field,
//! default, `set` arm, [`KEYS`] entry and [`knob_table`] line (what
//! `t2v-serve --help` prints and DESIGN.md §7 embeds) all derive from it.

use std::path::Path;
use std::time::Duration;

/// Which synthetic corpus the server prepares GRED over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorpusProfile {
    /// `CorpusConfig::tiny(seed)` — sub-second startup; tests and demos.
    Tiny(u64),
    /// `CorpusConfig::paper(seed)` — the full Figure-2-scale corpus.
    Paper(u64),
}

impl CorpusProfile {
    pub fn corpus_config(&self) -> t2v_corpus::CorpusConfig {
        match *self {
            CorpusProfile::Tiny(seed) => t2v_corpus::CorpusConfig::tiny(seed),
            CorpusProfile::Paper(seed) => t2v_corpus::CorpusConfig::paper(seed),
        }
    }

    /// The canonical `profile:seed` spelling (what `corpus=` parses and
    /// the tenant grammar reuses).
    pub fn label(&self) -> String {
        match *self {
            CorpusProfile::Tiny(seed) => format!("tiny:{seed}"),
            CorpusProfile::Paper(seed) => format!("paper:{seed}"),
        }
    }
}

/// The backend ids `t2v-serve` knows how to construct.
pub const KNOWN_BACKENDS: &[&str] = &["gred", "rgvisnet"];

/// Declares every knob once. A row is its doc, whose first line is the
/// knob's one-line summary, then `key: Type = "default", parser;`, where
/// `parser(key, value)` turns a spelling into the field's value. `Default`
/// runs each row's parser on its default spelling, so a default that does
/// not parse fails every test, and the default `--help` shows is one a
/// user can type.
macro_rules! knobs {
    ($(#[doc = $summary:literal] $(#[doc = $doc:literal])*
       $key:ident: $ty:ty = $default:literal, $parse:expr;)+) => {
        /// Every tunable of the serving subsystem.
        #[derive(Debug, Clone, PartialEq)]
        pub struct ServeConfig {
            $(#[doc = $summary] $(#[doc = $doc])* pub $key: $ty,)+
        }

        impl Default for ServeConfig {
            fn default() -> Self {
                ServeConfig {
                    $($key: ($parse)(stringify!($key), $default).expect("a default parses"),)+
                }
            }
        }

        impl ServeConfig {
            /// Set one knob from its string form. A rejected value changes
            /// nothing.
            pub fn set(&mut self, key: &str, value: &str) -> Result<(), ConfigError> {
                match key {
                    $(stringify!($key) => self.$key = ($parse)(key, value)?,)+
                    _ => return Err(err(format!("unknown config key '{key}'"))),
                }
                Ok(())
            }
        }

        /// All settable keys.
        pub const KEYS: &[&str] = &[$(stringify!($key)),+];

        /// Each knob's key, default spelling and summary line.
        const ROWS: &[(&str, &str, &str)] = &[$((stringify!($key), $default, $summary)),+];
    };
}

knobs! {
    /// Bind address; port 0 lets the OS pick (loopback tests do this).
    addr: String = "127.0.0.1:7890", parse_text;
    /// Translation pool threads; 0 means the machine's parallelism.
    /// That is `t2v_parallel::thread_count()` (`available_parallelism`,
    /// itself overridable with `T2V_THREADS`). The pool's queue bound and
    /// the cache shard count derive from this one.
    workers: usize = "0", parse_int;
    /// Jobs the pool queues per four workers; a full pool answers 503.
    queue_capacity: usize = "64", parse_int;
    /// Max open sockets; a connection beyond it gets a canned 503.
    max_connections: usize = "256", parse_int;
    /// Idle budget in ms before a connection that makes no progress is reaped.
    /// Covers keep-alive gaps *and* mid-request stalls (slow-loris).
    conn_idle_ms: u64 = "30000", at_least_1("the idle budget", "ms");
    /// Request bodies above this many bytes get 413.
    max_body_bytes: usize = "65536", parse_int;
    /// Translation cache entries across all shards; 0 disables the cache.
    cache_capacity: usize = "4096", parse_int;
    /// Cache TTL in seconds; 0 means entries never expire.
    cache_ttl_secs: u64 = "600", parse_int;
    /// Synthetic rows per table for the execution stores.
    store_rows: usize = "30", parse_int;
    /// Seed of the execution stores' synthetic rows.
    store_seed: u64 = "7", parse_int;
    /// Corpus the embedding library is prepared over: `tiny:SEED` or `paper:SEED`.
    corpus: CorpusProfile = "tiny:7", parse_corpus;
    /// Snapshot to load the embedding library from at startup; empty builds.
    /// A missing file falls back to a build; an existing-but-invalid or
    /// fingerprint-mismatched snapshot fails startup loudly.
    library_snapshot: String = "", parse_text;
    /// Path a cold-built library is written through to; empty never writes.
    /// Also the default target of `POST /v1/admin/snapshot`.
    snapshot_save: String = "", parse_text;
    /// Extra tenants to attach at startup, `id:profile:seed` comma-separated.
    /// E.g. `acme:tiny:8,globex:paper:3`. Each tenant serves its own
    /// corpus + library + backend registry under `/v1/t/{id}/...`; the
    /// unprefixed `/v1/*` routes stay the implicit `default` tenant (this
    /// config's `corpus=`). Empty ⇒ no extra tenants (unless `tenant_dir`
    /// declares some).
    tenants: String = "", parse_tenants;
    /// Snapshot catalog directory of the tenants.
    /// Tenants listed in `tenants=` load their library from
    /// `{dir}/{id}@{profile}-{seed}.t2vsnap` when that file exists (and
    /// build otherwise); with `tenants=` empty, every conforming snapshot
    /// in the directory *declares* a tenant (snapshot-only, verified
    /// fingerprints, corrupt files fail startup).
    tenant_dir: String = "", parse_text;
    /// Backends to register, comma-separated; the first is the default.
    /// See [`KNOWN_BACKENDS`]; the default serves requests that name no
    /// backend.
    backends: String = "gred,rgvisnet", parse_backends;
    /// Per-request wall-clock budget in ms from request parse; 0 disables it.
    /// Checked between pipeline stages (admission, worker start, reply
    /// wait); an expired budget answers a structured 504
    /// `deadline_exceeded`. Clients may *lower* (never raise) it per request
    /// with an `X-T2V-Deadline-Ms` header.
    deadline_ms: u64 = "30000", parse_int;
    /// Deterministic fault-injection plan (see `t2v-fault`); empty injects none.
    /// E.g. `seed=7;backend.error:p=0.5,count=100`. Parsed and validated at
    /// set time, armed process-wide at server build; with no plan every
    /// hook is a zero-cost no-op.
    fault_plan: String = "", parse_fault_plan;
    /// Outcomes in each tenant×backend breaker's window; 0 disables breakers.
    breaker_window: usize = "32", parse_int;
    /// Outcomes the window needs before its error rate can trip the breaker.
    /// A single early failure must not open it.
    breaker_min_samples: usize = "8", parse_int;
    /// Milliseconds an open breaker fast-fails before a half-open probe.
    /// Fast-failing is a 503 with `Retry-After`.
    breaker_open_ms: u64 = "1000", parse_int;
    /// Fraction of requests whose trace the flight recorder keeps, 0.0..=1.0.
    /// Sampling is deterministic in the trace id, so one request traces
    /// identically everywhere it is discussed. 0 disables ambient tracing
    /// entirely (requests still get trace *ids*; `X-T2V-Trace: 1` still
    /// forces a recorded trace for that request).
    trace_sample: f64 = "0.05", parse_rate;
    /// Finished traces the flight recorder keeps; 0 disables it.
    /// A ring buffer, oldest evicted first; with it go `/v1/admin/trace/*`.
    trace_buffer: usize = "512", parse_int;
    /// Structured JSON access log path, one object per request; empty is none.
    access_log: String = "", parse_text;
    /// Ops-plane sampler period in ms; 0 disables it, the TSDB and SLO alerts.
    /// The sampler snapshots the metrics registry into the in-process TSDB
    /// and re-evaluates the SLOs.
    obs_sample_ms: u64 = "1000", parse_int;
    /// Stage-occupancy profiler rate in Hz, 0..=10000; 0 disables it.
    /// Prime by default (97) so the sampler does not alias against
    /// millisecond-period work. With it goes `/v1/admin/profile`.
    obs_profile_hz: u32 = "97", parse_hz;
    /// SLO objectives, e.g. `availability:0.999;latency:p99<5ms;cache_hit:0.7`.
    /// Validated at set time like `fault_plan=`; empty ⇒ no SLO engine.
    slo: String = "", parse_slo;
    /// Fast burn-rate window in seconds (the paging window).
    slo_fast_s: u64 = "300", at_least_1("the fast window", "second");
    /// Slow burn-rate window in seconds (the blip suppressor).
    /// Windows wider than the TSDB's 900 s retention see at most that
    /// history.
    slo_slow_s: u64 = "3600", at_least_1("the slow window", "second");
}

/// The knob table in markdown — key, default, summary — as
/// `t2v-serve --help` prints it and DESIGN.md §7 embeds it.
pub fn knob_table() -> String {
    let mut out = String::from("| key | default | what |\n|---|---|---|\n");
    for (key, default, summary) in ROWS {
        let default = match *default {
            "" => String::new(),
            spelled => format!("`{spelled}`"),
        };
        out += &format!("| `{key}` | {default} | {} |\n", summary.trim());
    }
    out
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ConfigError {}

fn err(message: impl Into<String>) -> ConfigError {
    ConfigError {
        message: message.into(),
    }
}

impl ServeConfig {
    /// Defaults + optional file + environment, in that precedence order.
    pub fn load(path: Option<&str>) -> Result<ServeConfig, ConfigError> {
        let mut cfg = ServeConfig::default();
        if let Some(path) = path {
            let text = std::fs::read_to_string(path)
                .map_err(|e| err(format!("cannot read config {path}: {e}")))?;
            cfg.apply_kv_text(&text)?;
        }
        cfg.apply_env()?;
        Ok(cfg)
    }

    /// Apply `key=value` lines. `#`-prefixed lines and blanks are comments.
    /// Unknown keys are hard errors — silent typos are worse than restarts.
    pub fn apply_kv_text(&mut self, text: &str) -> Result<(), ConfigError> {
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| err(format!("line {}: expected key=value", lineno + 1)))?;
            self.set(key.trim(), value.trim())
                .map_err(|e| err(format!("line {}: {}", lineno + 1, e.message)))?;
        }
        Ok(())
    }

    /// Apply every `T2V_SERVE_<KEY>` environment variable. A suffix that
    /// names no key is an error, exactly like an unknown file key.
    pub fn apply_env(&mut self) -> Result<(), ConfigError> {
        for (var, value) in std::env::vars_os() {
            let Some(var) = var.to_str() else { continue };
            let Some(suffix) = var.strip_prefix("T2V_SERVE_") else {
                continue;
            };
            let value = value
                .to_str()
                .ok_or_else(|| err(format!("{var}: the value is not UTF-8")))?;
            self.set(&suffix.to_ascii_lowercase(), value)
                .map_err(|e| err(format!("{var}: {}", e.message)))?;
        }
        Ok(())
    }

    /// Validate everything that can be checked *before* the expensive part
    /// of startup (corpus generation, library build, baseline training).
    /// The point is ordering: a broken `snapshot_save=` path must fail in
    /// milliseconds at config time, not minutes later when the built
    /// library finally tries to persist. Grammar errors are caught by
    /// [`ServeConfig::set`]; this catches environment errors — paths that
    /// cannot possibly work.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let never = " (the write-through snapshot could never be persisted)";
        check_file_path("snapshot_save", &self.snapshot_save, never)?;
        check_file_path("access_log", &self.access_log, "")?;
        if !self.tenant_dir.is_empty() && !Path::new(&self.tenant_dir).is_dir() {
            return Err(err(format!(
                "tenant_dir: '{}' is not a directory",
                self.tenant_dir
            )));
        }
        Ok(())
    }

    /// Parsed startup tenant specs (validated at `set` time).
    pub fn tenant_specs(&self) -> Vec<t2v_tenant::TenantSpec> {
        t2v_tenant::parse_tenant_list(&self.tenants).expect("tenants knob validated at set time")
    }

    /// Resolved worker count: explicit, or the machine's parallelism.
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            t2v_parallel::thread_count()
        }
    }

    /// Groups of four workers, each adding `queue_capacity` jobs to the
    /// pool's queue bound.
    pub fn effective_shards(&self) -> usize {
        self.effective_workers().div_ceil(4)
    }

    /// Independently-locked cache shards: the worker count rounded up to a
    /// power of two (capped at 64, at least 1).
    pub fn effective_cache_shards(&self) -> usize {
        self.effective_workers().next_power_of_two().clamp(1, 64)
    }

    /// Parsed, ordered backend ids (validated at `set` time).
    pub fn backend_ids(&self) -> Vec<&str> {
        self.backends
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect()
    }

    /// How long a connection may sit without progress before it is reaped.
    pub fn effective_conn_idle(&self) -> Duration {
        Duration::from_millis(self.conn_idle_ms)
    }

    pub fn cache_ttl(&self) -> Option<Duration> {
        if self.cache_ttl_secs == 0 {
            None
        } else {
            Some(Duration::from_secs(self.cache_ttl_secs))
        }
    }
}

/// `value`, when set, must name a file whose parent directory exists; `why`
/// ends the missing-parent message.
fn check_file_path(key: &str, value: &str, why: &str) -> Result<(), ConfigError> {
    if value.is_empty() {
        return Ok(());
    }
    let path = Path::new(value);
    if path.is_dir() {
        return Err(err(format!(
            "{key}: '{value}' is a directory, not a file path"
        )));
    }
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    if !parent.is_dir() {
        return Err(err(format!(
            "{key}: parent directory '{}' does not exist{why}",
            parent.display()
        )));
    }
    Ok(())
}

/// Any string, kept as spelled: addresses and paths.
fn parse_text(_key: &str, value: &str) -> Result<String, ConfigError> {
    Ok(value.to_string())
}

/// A non-negative integer of the field's type.
fn parse_int<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, ConfigError> {
    value
        .parse()
        .map_err(|_| err(format!("{key}: '{value}' is not a non-negative integer")))
}

/// An integer of at least 1, for a budget or window that 0 would make
/// useless; `what` and `unit` word the error.
fn at_least_1(
    what: &'static str,
    unit: &'static str,
) -> impl Fn(&str, &str) -> Result<u64, ConfigError> {
    move |key, value| match parse_int(key, value)? {
        0 => Err(err(format!("{key}: {what} must be at least 1 {unit}"))),
        n => Ok(n),
    }
}

/// A sampling fraction in 0.0..=1.0.
fn parse_rate(key: &str, value: &str) -> Result<f64, ConfigError> {
    value
        .parse()
        .ok()
        .filter(|r: &f64| (0.0..=1.0).contains(r))
        .ok_or_else(|| err(format!("{key}: '{value}' is not a rate in 0.0..=1.0")))
}

/// A sampling frequency in 0..=10000 Hz.
fn parse_hz(key: &str, value: &str) -> Result<u32, ConfigError> {
    match parse_int::<u64>(key, value)? {
        hz @ 0..=10_000 => Ok(hz as u32),
        _ => Err(err(format!("{key}: '{value}' is not a rate in 0..=10000"))),
    }
}

/// A comma-separated, deduplicated list of [`KNOWN_BACKENDS`] ids.
fn parse_backends(key: &str, value: &str) -> Result<String, ConfigError> {
    let mut seen: Vec<&str> = Vec::new();
    for id in value.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        if !KNOWN_BACKENDS.contains(&id) {
            return Err(err(format!(
                "{key}: unknown backend '{id}' (known: {})",
                KNOWN_BACKENDS.join(", ")
            )));
        }
        if seen.contains(&id) {
            return Err(err(format!("{key}: '{id}' listed twice")));
        }
        seen.push(id);
    }
    if seen.is_empty() {
        return Err(err(format!("{key}: the list is empty")));
    }
    Ok(seen.join(","))
}

/// A comma-separated `id:profile:seed` tenant list, validated by
/// `t2v-tenant`'s shared grammar and normalised to canonical spelling.
fn parse_tenants(_key: &str, value: &str) -> Result<String, ConfigError> {
    let specs = t2v_tenant::parse_tenant_list(value).map_err(|e| err(e.message))?;
    Ok(specs
        .iter()
        .map(t2v_tenant::TenantSpec::entry)
        .collect::<Vec<_>>()
        .join(","))
}

/// A `t2v-fault` plan spec, validated against the full grammar at set time
/// (a typo in a chaos run must fail config load, not silently inject
/// nothing) and kept in its original spelling.
fn parse_fault_plan(key: &str, value: &str) -> Result<String, ConfigError> {
    if !value.is_empty() {
        t2v_fault::FaultPlan::parse(value).map_err(|e| err(format!("{key}: {e}")))?;
    }
    Ok(value.to_string())
}

/// An SLO objective list, validated against `t2v-obs`'s grammar at set
/// time (a typo must fail config load, not silently monitor nothing) and
/// kept in its original spelling.
fn parse_slo(key: &str, value: &str) -> Result<String, ConfigError> {
    if !value.is_empty() {
        t2v_obs::parse_slos(value).map_err(|e| err(format!("{key}: {e}")))?;
    }
    Ok(value.to_string())
}

/// `tiny:SEED` or `paper:SEED` (seed optional, default 7).
fn parse_corpus(key: &str, value: &str) -> Result<CorpusProfile, ConfigError> {
    let (name, seed) = match value.split_once(':') {
        Some((n, s)) => (
            n,
            s.parse::<u64>()
                .map_err(|_| err(format!("{key}: bad seed '{s}'")))?,
        ),
        None => (value, 7),
    };
    match name {
        "tiny" => Ok(CorpusProfile::Tiny(seed)),
        "paper" => Ok(CorpusProfile::Paper(seed)),
        _ => Err(err(format!(
            "{key}: '{name}' is not a profile (tiny|paper)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every default, written out. A refactor of how knobs are declared
    /// must not move one.
    fn pinned_defaults() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7890".to_string(),
            workers: 0,
            queue_capacity: 64,
            max_connections: 256,
            conn_idle_ms: 30_000,
            max_body_bytes: 64 * 1024,
            cache_capacity: 4096,
            cache_ttl_secs: 600,
            store_rows: 30,
            store_seed: 7,
            corpus: CorpusProfile::Tiny(7),
            library_snapshot: String::new(),
            snapshot_save: String::new(),
            tenants: String::new(),
            tenant_dir: String::new(),
            backends: "gred,rgvisnet".to_string(),
            deadline_ms: 30_000,
            fault_plan: String::new(),
            breaker_window: 32,
            breaker_min_samples: 8,
            breaker_open_ms: 1_000,
            trace_sample: 0.05,
            trace_buffer: 512,
            access_log: String::new(),
            obs_sample_ms: 1000,
            obs_profile_hz: 97,
            slo: String::new(),
            slo_fast_s: 300,
            slo_slow_s: 3600,
        }
    }

    #[test]
    fn defaults_are_pinned() {
        assert_eq!(ServeConfig::default(), pinned_defaults());
        for (key, default, _) in ROWS {
            let mut cfg = ServeConfig::default();
            cfg.set(key, default).unwrap();
            assert_eq!(cfg, pinned_defaults(), "{key}={default} moves the default");
        }
    }

    #[test]
    fn file_text_overrides_defaults() {
        let mut cfg = ServeConfig::default();
        cfg.apply_kv_text(
            "# serving knobs\n\
             addr = 0.0.0.0:9000\n\
             workers=8\n\
             \n\
             cache_ttl_secs = 0\n\
             corpus = paper:42\n",
        )
        .unwrap();
        assert_eq!(cfg.addr, "0.0.0.0:9000");
        assert_eq!(cfg.workers, 8);
        assert_eq!(cfg.effective_workers(), 8);
        assert_eq!(cfg.cache_ttl(), None);
        assert_eq!(cfg.corpus, CorpusProfile::Paper(42));
    }

    #[test]
    fn unknown_keys_and_bad_values_are_errors() {
        let mut cfg = ServeConfig::default();
        assert!(cfg.apply_kv_text("wrokers=4").is_err());
        assert!(cfg.apply_kv_text("ann=on").is_err());
        assert!(cfg.apply_kv_text("workers=four").is_err());
        assert!(cfg.apply_kv_text("corpus=huge").is_err());
        assert!(cfg.apply_kv_text("no_equals_sign").is_err());
    }

    #[test]
    fn every_documented_key_is_settable() {
        let mut cfg = ServeConfig::default();
        for key in KEYS {
            let value = match *key {
                "addr" => "127.0.0.1:0",
                "corpus" => "tiny:3",
                "backends" => "gred,rgvisnet",
                "tenants" => "acme:tiny:8,globex:paper:3",
                "tenant_dir" => "/tmp",
                "library_snapshot" | "snapshot_save" => "/tmp/lib.t2vsnap",
                "fault_plan" => "seed=1;backend.error:p=0.5",
                "trace_sample" => "0.25",
                "access_log" => "/tmp/t2v-access.log",
                "slo" => "availability:0.999;latency:p99<5ms;cache_hit:0.7",
                _ => "5",
            };
            cfg.set(key, value)
                .unwrap_or_else(|e| panic!("key {key}: {e}"));
        }
    }

    #[test]
    fn docs_name_every_key_and_no_retired_one() {
        assert_eq!(KEYS.len(), 29);
        let design = include_str!("../../../DESIGN.md");
        let readme = include_str!("../../../README.md");
        assert!(
            design.contains(&knob_table()),
            "DESIGN.md §7 must hold knob_table() verbatim:\n{}",
            knob_table()
        );
        // Spelled in halves so the repo-wide grep for retired names stays
        // empty while this test keeps them out of the docs.
        let retired = [
            "net=".to_string(),
            ["legacy", "_translate"].concat(),
            ["keep_alive", "_secs"].concat(),
            ["batch_", "window_us"].concat(),
            ["gred", "_k"].concat(),
            ["gred", "_retuner"].concat(),
            ["gred", "_debugger"].concat(),
            // Backticked: the bare word lives on in `/v1/translate/batch`.
            "`batch`".to_string(),
            // Backticked: pool and cache shards live on, derived from
            // `workers`, and `/metrics` still reports `t2v_cache_shards`.
            ["`sha", "rds`"].concat(),
            ["`cache", "_shards`"].concat(),
            ["max_batch", "_items"].concat(),
            ["breaker_threshold", "_pct"].concat(),
            ["degrade", "_stale"].concat(),
            ["retry", "_max"].concat(),
            ["retry", "_base_ms"].concat(),
            ["trace_force", "_slow_ms"].concat(),
            ["access_log", "_rotate_mb"].concat(),
            ["access_log", "_keep"].concat(),
            ["obs", "_retention_s"].concat(),
            ["debug_translate", "_sleep_ms"].concat(),
            ["an", "n="].concat(),
            ["ann", "_nprobe"].concat(),
            ["backend", "_weights"].concat(),
            ["pool", "_share"].concat(),
        ];
        for (name, text) in [("DESIGN.md", design), ("README.md", readme)] {
            for gone in &retired {
                assert!(!text.contains(gone), "{name} still names `{gone}`");
            }
        }
    }

    #[test]
    fn obs_and_slo_knobs_validate_at_set_time() {
        let mut cfg = ServeConfig::default();
        assert_eq!(cfg.obs_sample_ms, 1000);
        assert_eq!(cfg.obs_profile_hz, 97);
        assert!(cfg.slo.is_empty());
        cfg.set("slo", "availability:0.999;latency:p99<5ms;cache_hit:0.7")
            .unwrap();
        assert_eq!(cfg.slo, "availability:0.999;latency:p99<5ms;cache_hit:0.7");
        // Malformed objectives are boot-time errors, like fault_plan=.
        assert!(cfg.set("slo", "availability:1.5").is_err());
        assert!(cfg.set("slo", "latency:p99").is_err());
        assert!(cfg.set("slo", "uptime:0.9").is_err());
        cfg.set("slo", "").unwrap();
        assert!(cfg.slo.is_empty());
        assert!(cfg.set("slo_fast_s", "0").is_err());
        assert!(cfg.set("slo_slow_s", "0").is_err());
        assert!(cfg.set("obs_profile_hz", "20000").is_err());
        cfg.set("obs_sample_ms", "0").unwrap();
        assert_eq!(cfg.obs_sample_ms, 0, "0 turns the ops plane off");
    }

    #[test]
    fn net_knobs_parse_and_derive() {
        let mut cfg = ServeConfig::default();
        assert_eq!(cfg.effective_conn_idle(), Duration::from_secs(30));
        cfg.set("conn_idle_ms", "250").unwrap();
        assert_eq!(cfg.effective_conn_idle(), Duration::from_millis(250));
        // A zero budget would reap every connection on its first tick.
        assert!(cfg.set("conn_idle_ms", "0").is_err());
        assert_eq!(cfg.conn_idle_ms, 250, "a rejected value changes nothing");
    }

    #[test]
    fn backend_list_is_validated_ordered_and_deduplicated() {
        let mut cfg = ServeConfig::default();
        assert_eq!(cfg.backend_ids(), vec!["gred", "rgvisnet"]);
        cfg.set("backends", "rgvisnet, gred").unwrap();
        assert_eq!(cfg.backend_ids(), vec!["rgvisnet", "gred"]);
        assert!(cfg.set("backends", "gred,unknown_model").is_err());
        // The trained baselines are evaluation rows, not served backends.
        assert!(cfg.set("backends", "gred,seq2vis").is_err());
        assert!(cfg.set("backends", "transformer").is_err());
        assert!(cfg.set("backends", "gred,gred").is_err());
        assert!(cfg.set("backends", "").is_err());
    }

    #[test]
    fn snapshot_knobs_are_plain_paths() {
        let mut cfg = ServeConfig::default();
        assert!(cfg.library_snapshot.is_empty());
        assert!(cfg.snapshot_save.is_empty());
        cfg.set("library_snapshot", "/var/lib/t2v/lib.t2vsnap")
            .unwrap();
        cfg.set("snapshot_save", "/var/lib/t2v/lib.t2vsnap")
            .unwrap();
        assert_eq!(cfg.library_snapshot, "/var/lib/t2v/lib.t2vsnap");
        assert_eq!(cfg.snapshot_save, "/var/lib/t2v/lib.t2vsnap");
    }

    #[test]
    fn tenants_knob_validates_and_normalises() {
        let mut cfg = ServeConfig::default();
        assert!(cfg.tenant_specs().is_empty());
        cfg.set("tenants", " acme:tiny:8 , globex:paper:3 ")
            .unwrap();
        assert_eq!(cfg.tenants, "acme:tiny:8,globex:paper:3");
        let specs = cfg.tenant_specs();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].id, "acme");
        assert_eq!(specs[1].corpus.label(), "paper:3");
        assert!(cfg.set("tenants", "acme").is_err());
        assert!(cfg.set("tenants", "acme:huge:1").is_err());
        assert!(cfg.set("tenants", "a:tiny:1,a:tiny:2").is_err());
        assert!(cfg.set("tenants", "default:tiny:7").is_err());
        cfg.set("tenants", "").unwrap();
        assert!(cfg.tenant_specs().is_empty());
    }

    #[test]
    fn validate_rejects_broken_paths_before_any_build() {
        let mut cfg = ServeConfig::default();
        cfg.validate().unwrap();
        // A snapshot_save under a missing directory fails validation…
        cfg.set("snapshot_save", "/no/such/dir/lib.t2vsnap")
            .unwrap();
        let e = cfg.validate().unwrap_err();
        assert!(e.message.contains("snapshot_save"), "{e}");
        assert!(e.message.contains("/no/such/dir"), "{e}");
        // …a writable parent passes…
        cfg.set("snapshot_save", "/tmp/t2v-validate.t2vsnap")
            .unwrap();
        cfg.validate().unwrap();
        // …a directory as the target fails…
        cfg.set("snapshot_save", "/tmp").unwrap();
        assert!(cfg.validate().is_err());
        cfg.set("snapshot_save", "").unwrap();
        // …and tenant_dir must be an existing directory.
        cfg.set("tenant_dir", "/no/such/catalog").unwrap();
        assert!(cfg.validate().unwrap_err().message.contains("tenant_dir"));
        cfg.set("tenant_dir", "/tmp").unwrap();
        cfg.validate().unwrap();
    }

    #[test]
    fn deadline_and_fault_knobs_parse_and_reject_malformed() {
        let mut cfg = ServeConfig::default();
        assert_eq!(cfg.deadline_ms, 30_000, "deadlines are on by default");
        cfg.set("deadline_ms", "250").unwrap();
        assert_eq!(cfg.deadline_ms, 250);
        cfg.set("deadline_ms", "0").unwrap(); // 0 = disabled
        assert!(cfg.set("deadline_ms", "-1").is_err());
        assert!(cfg.set("deadline_ms", "soon").is_err());

        // fault_plan is validated against the full t2v-fault grammar.
        assert!(cfg.fault_plan.is_empty());
        cfg.set(
            "fault_plan",
            "seed=42;embed.latency:p=0.5,ms=10;backend.error:backend=rgvisnet,count=3",
        )
        .unwrap();
        assert!(cfg.fault_plan.starts_with("seed=42"));
        for bad in [
            "bogus.point",
            "embed.latency:p=2",
            "embed.latency:p=0.5;embed.latency",
            "seed=xyz;backend.error",
            "backend.error:frequency=often",
        ] {
            let e = cfg.set("fault_plan", bad).unwrap_err();
            assert!(e.message.contains("fault_plan"), "{bad}: {e}");
        }
        // A rejected value must not clobber the previous plan.
        assert!(cfg.fault_plan.starts_with("seed=42"));
        cfg.set("fault_plan", "").unwrap();
        assert!(cfg.fault_plan.is_empty());

        // Breaker knobs: plain integers.
        cfg.set("breaker_window", "0").unwrap(); // 0 = breakers off
    }

    #[test]
    fn trace_and_access_log_knobs_parse_and_validate() {
        let mut cfg = ServeConfig::default();
        assert_eq!(cfg.trace_sample, 0.05);
        assert_eq!(cfg.trace_buffer, 512);
        assert!(cfg.access_log.is_empty());
        cfg.set("trace_sample", "1").unwrap();
        assert_eq!(cfg.trace_sample, 1.0);
        cfg.set("trace_sample", "0.001").unwrap();
        assert!(cfg.set("trace_sample", "1.5").is_err());
        assert!(cfg.set("trace_sample", "-0.1").is_err());
        assert!(cfg.set("trace_sample", "NaN").is_err());
        assert!(cfg.set("trace_sample", "often").is_err());
        cfg.set("trace_buffer", "0").unwrap(); // 0 = recorder off
                                               // access_log paths are environment-validated like snapshot_save.
        cfg.set("access_log", "/no/such/dir/access.log").unwrap();
        let e = cfg.validate().unwrap_err();
        assert!(e.message.contains("access_log"), "{e}");
        cfg.set("access_log", "/tmp").unwrap();
        assert!(cfg.validate().is_err(), "a directory is not a log file");
        cfg.set("access_log", "/tmp/t2v-access.log").unwrap();
        cfg.validate().unwrap();
    }

    #[test]
    fn cache_shards_derive_from_workers() {
        let mut cfg = ServeConfig::default();
        cfg.set("workers", "6").unwrap();
        assert_eq!(cfg.effective_cache_shards(), 8);
    }

    #[test]
    fn zero_workers_defers_to_machine_parallelism() {
        let cfg = ServeConfig::default();
        assert_eq!(cfg.workers, 0);
        assert_eq!(cfg.effective_workers(), t2v_parallel::thread_count());
        assert!(cfg.effective_shards() >= 1);
    }

    #[test]
    fn env_overrides_apply_and_win_over_file() {
        // Serialised by env-var choice: a key no other test uses.
        std::env::set_var("T2V_SERVE_QUEUE_CAPACITY", "9");
        let mut cfg = ServeConfig::default();
        cfg.apply_kv_text("queue_capacity=100").unwrap();
        cfg.apply_env().unwrap();
        assert_eq!(cfg.queue_capacity, 9);
        std::env::set_var("T2V_SERVE_QUEUE_CAPACITY", "bogus");
        assert!(cfg.apply_env().is_err());
        std::env::remove_var("T2V_SERVE_QUEUE_CAPACITY");
        // A variable naming no key (here a retired one) fails like a file
        // typo, and the error names the variable.
        std::env::set_var("T2V_SERVE_SHARDS", "4");
        let e = cfg.apply_env().unwrap_err();
        std::env::remove_var("T2V_SERVE_SHARDS");
        assert!(e.message.contains("T2V_SERVE_SHARDS"), "{e}");
        assert!(e.message.contains("unknown config key"), "{e}");
    }
}
