//! Server state and lifecycle: what a tenant is, how the state is built
//! at startup and swapped at runtime, and how a [`Server`] binds, runs and
//! stops.
//!
//! Thread model (DESIGN.md §7, §14): one epoll loop thread owns every
//! socket ([`crate::event`]), answers cache hits, validation errors and
//! every route that cannot block itself, and admits what waits — a miss, a
//! stream, a batch's misses — through [`crate::translate`] into the bounded
//! translation [`WorkerPool`], whose worker answers the connection; the
//! admin routes that build, drop or write run as jobs on the same pool.
//! Overload — a full queue or too many sockets — answers 503 immediately
//! instead of queueing unboundedly.

use crate::access_log::AccessLog;
use crate::breaker::{BreakerConfig, CircuitBreaker};
use crate::cache::ShardedTtlLruCache;
use crate::config::{ConfigError, ServeConfig};
use crate::event::EventDriver;
use crate::http;
use crate::metrics::{LabelledMetrics, Metrics, Scalar};
use crate::pool::WorkerPool;
use crate::routes::{begin, finish, route, write_read_error, Handled};
use crate::translate::{settle, Early};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use t2v_baselines::RgVisNet;
use t2v_core::{BackendRegistry, Translator};
use t2v_corpus::{generate, Corpus, Database};
use t2v_engine::Store;
use t2v_fault::{fire_delay, FaultPoint::ConnWriteStall};
use t2v_gred::{Gred, GredConfig};
use t2v_llm::{LlmConfig, SimulatedChatModel};
use t2v_store::{EmbedderPool, LibrarySource, Provenance, SnapshotError};
use t2v_tenant::{snapshot_filename, CorpusSpec, RcuCell, TenantSpec, DEFAULT_TENANT_ID};
use t2v_trace::Recorder;

/// Why the server could not start. Every variant prints as one line and
/// exits cleanly in the binaries — startup problems are operator errors or
/// environment damage, not panics.
#[derive(Debug)]
pub enum StartupError {
    /// A knob that parsed cleanly points at an environment that cannot
    /// work (missing snapshot_save parent, absent tenant_dir, ...). Caught
    /// by `ServeConfig::validate` *before* any expensive build.
    Config(ConfigError),
    /// The library snapshot could not be loaded or trusted.
    Snapshot(SnapshotError),
    /// The startup tenant set could not be materialised (catalog scan
    /// failure, per-tenant snapshot failure, ...).
    Tenant(String),
    /// Binding the listen address (or other socket setup) failed.
    Io(std::io::Error),
}

impl std::fmt::Display for StartupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StartupError::Config(e) => write!(f, "config: {e}"),
            StartupError::Snapshot(e) => write!(f, "library snapshot: {e}"),
            StartupError::Tenant(e) => write!(f, "tenant: {e}"),
            StartupError::Io(e) => write!(f, "cannot bind: {e}"),
        }
    }
}

impl std::error::Error for StartupError {}

impl From<SnapshotError> for StartupError {
    fn from(e: SnapshotError) -> Self {
        StartupError::Snapshot(e)
    }
}

impl From<std::io::Error> for StartupError {
    fn from(e: std::io::Error) -> Self {
        StartupError::Io(e)
    }
}

/// One servable database: schema, synthesized rows, and the fingerprint that
/// scopes cache entries to exactly this (schema, data) pair.
pub struct DbEntry {
    pub db: Database,
    pub store: Store,
    pub fingerprint: u64,
}

/// Cache key: tenant epoch × backend index × normalised NLQ × database
/// fingerprint × response shape. The backend index namespaces the cache
/// per backend — the same question through different models must never
/// share an entry — and the tenant epoch namespaces it per *attachment*:
/// every attach mints a fresh epoch, so tenants can never cross-hit, and a
/// detach-then-reattach cycle can never resurrect stale entries (the old
/// epoch's entries simply age out of the LRU).
pub type CacheKey = (u32, u16, Box<str>, u64, bool);

/// One tenant's complete serving runtime: its corpus's backends, GRED
/// pipeline, databases, library provenance, and metrics handle. Immutable
/// once built — attach/detach swaps whole `Arc<TenantRuntime>`s in and out
/// of the RCU table, never mutates one in place.
pub struct TenantRuntime {
    /// The tenant id (`default` for the implicit tenant the unprefixed
    /// `/v1/*` routes serve).
    pub id: String,
    /// Unique per attachment within the process — the cache-key namespace.
    pub epoch: u32,
    /// Canonical `profile:seed` label of the corpus this tenant serves.
    pub corpus_label: String,
    pub gred: Gred<SimulatedChatModel>,
    pub registry: BackendRegistry,
    pub dbs: HashMap<String, Arc<DbEntry>>,
    /// How this tenant's embedding library materialised.
    pub library_provenance: Provenance,
    /// Fingerprint of the training split the tenant's library covers.
    pub library_fingerprint: u64,
    /// Per-backend circuit breakers, parallel to `registry` order. A
    /// backend whose breaker is open fast-fails (or degrades) instead of
    /// queueing doomed work; see DESIGN.md §11.
    pub breakers: Vec<Arc<CircuitBreaker>>,
    /// Lock-free recording handle into the `tenant="<id>"` counter family.
    pub metrics: Arc<LabelledMetrics>,
    /// Only the default tenant records into the `backend="<id>"` metric
    /// families (registered at startup for a fixed backend list).
    pub is_default: bool,
}

/// The immutable tenant set readers resolve against, in attach order
/// (default first). Swapped wholesale through [`RcuCell`] on admin
/// mutations; linear lookup — tenant counts are dozens, not thousands, and
/// a scan over inline `Arc`s beats a hash probe at that size.
pub struct TenantTable {
    list: Vec<Arc<TenantRuntime>>,
}

impl TenantTable {
    pub fn get(&self, id: &str) -> Option<&Arc<TenantRuntime>> {
        self.list.iter().find(|t| t.id == id)
    }

    pub fn iter(&self) -> impl Iterator<Item = &Arc<TenantRuntime>> {
        self.list.iter()
    }

    pub fn len(&self) -> usize {
        self.list.len()
    }

    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }
}

/// A runtime attach request (the admin route's parsed body).
pub struct AttachRequest {
    pub id: String,
    pub corpus: CorpusSpec,
    /// Load the tenant's library from this verified snapshot instead of
    /// building it.
    pub snapshot: Option<PathBuf>,
    /// Backends to register for the tenant (default: the server's
    /// configured backend list).
    pub backends: Option<String>,
}

/// Why an admin tenant mutation was refused.
#[derive(Debug)]
pub enum TenantAdminError {
    /// Attach of an id that is already serving.
    Duplicate(String),
    /// Detach/lookup of an id that is not serving.
    Unknown(String),
    /// The default tenant cannot be detached.
    Undetachable,
    /// The tenant's snapshot could not be loaded or trusted.
    Snapshot(SnapshotError),
    /// A malformed id or backend list.
    Invalid(String),
}

impl std::fmt::Display for TenantAdminError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TenantAdminError::Duplicate(id) => write!(f, "tenant '{id}' is already attached"),
            TenantAdminError::Unknown(id) => write!(f, "unknown tenant '{id}'"),
            TenantAdminError::Undetachable => {
                write!(f, "the '{DEFAULT_TENANT_ID}' tenant cannot be detached")
            }
            TenantAdminError::Snapshot(e) => write!(f, "snapshot: {e}"),
            TenantAdminError::Invalid(m) => write!(f, "{m}"),
        }
    }
}

impl TenantAdminError {
    /// Stable wire code for the structured error envelope.
    pub fn code(&self) -> &'static str {
        match self {
            TenantAdminError::Duplicate(_) => "duplicate_tenant",
            TenantAdminError::Unknown(_) => "unknown_tenant",
            TenantAdminError::Undetachable => "undetachable",
            TenantAdminError::Snapshot(_) => "snapshot_error",
            TenantAdminError::Invalid(_) => "bad_request",
        }
    }

    pub(crate) fn status(&self) -> u16 {
        match self {
            TenantAdminError::Duplicate(_) => 409,
            TenantAdminError::Unknown(_) => 404,
            TenantAdminError::Undetachable => 400,
            TenantAdminError::Snapshot(_) => 422,
            TenantAdminError::Invalid(_) => 400,
        }
    }
}

/// Everything the request path reads. Shared read-only across all threads
/// — except the tenant table, which admin routes swap RCU-style (readers
/// never lock on the fast path; see `t2v_tenant::RcuCell`).
pub struct ServerState {
    pub config: ServeConfig,
    /// The default tenant's GRED pipeline (shared `Arc` internals with
    /// `default_tenant` — kept as a field for the pre-tenant API surface).
    pub gred: Gred<SimulatedChatModel>,
    /// The default tenant's registry (same sharing note as `gred`).
    pub registry: BackendRegistry,
    /// The default tenant's databases (same sharing note as `gred`).
    pub dbs: HashMap<String, Arc<DbEntry>>,
    /// One translation cache across all tenants, namespaced by the tenant
    /// epoch in [`CacheKey`]: global capacity stays bounded no matter how
    /// many tenants attach, and a detached tenant's entries age out of the
    /// shared LRU instead of needing an eager purge.
    pub cache: ShardedTtlLruCache<CacheKey, Arc<Vec<u8>>>,
    pub metrics: Arc<Metrics>,
    /// The implicit tenant the unprefixed `/v1/*` routes serve.
    pub default_tenant: Arc<TenantRuntime>,
    /// Flight recorder for completed request traces (`None` when
    /// `trace_buffer=0`); backs `GET /v1/admin/trace/*`. See DESIGN.md §12.
    pub recorder: Option<Recorder>,
    /// Structured JSON access log (`None` when `access_log=` is unset).
    /// `Arc`-shared with the observability sampler thread, which appends
    /// SLO state-transition lines between request lines.
    pub access_log: Option<Arc<AccessLog>>,
    /// The live tenant table (default + attached), RCU-swapped by admin
    /// mutations.
    tenants: RcuCell<TenantTable>,
    /// Serialises attach/detach and owns the embedder dedup pool (tenants
    /// sharing an embedder fingerprint share one table in memory).
    admin: Mutex<EmbedderPool>,
    /// Mints cache-key epochs for attachments (0 is the default tenant).
    next_epoch: AtomicU32,
}

impl ServerState {
    /// Generate the configured corpus, prepare every configured backend
    /// over it, synthesize the execution stores. The expensive part of
    /// startup (the library build, unless a snapshot supplies it).
    pub fn build(config: ServeConfig) -> Result<ServerState, StartupError> {
        // Environment validation runs before the corpus exists: a broken
        // snapshot_save path must cost milliseconds, not a full build.
        config.validate().map_err(StartupError::Config)?;
        let corpus = generate(&config.corpus.corpus_config());
        ServerState::from_corpus(&corpus, config)
    }

    /// Like [`ServerState::build`] for an already-generated corpus (tests
    /// and benches reuse one corpus across servers).
    ///
    /// The default tenant's embedding library resolves through the
    /// [`LibrarySource`] seam: `library_snapshot=` loads the snapshot
    /// (falling back to a build only when the file does not exist — corrupt
    /// or mismatched snapshots fail startup loudly), and `snapshot_save=`
    /// writes a freshly built library through to disk so the *next* restart
    /// is warm. Startup tenants (`tenants=` / `tenant_dir=`) materialise
    /// after the default, sharing embedder tables where fingerprints match.
    pub fn from_corpus(corpus: &Corpus, config: ServeConfig) -> Result<ServerState, StartupError> {
        config.validate().map_err(StartupError::Config)?;
        let source = if config.library_snapshot.is_empty() {
            LibrarySource::Build
        } else {
            LibrarySource::SnapshotOrBuild {
                path: config.library_snapshot.clone().into(),
            }
        };
        let mut embedder_pool = EmbedderPool::new();
        let mut resolved = source.resolve(corpus, &t2v_embed::EmbedConfig::default())?;
        embedder_pool.adopt(&mut resolved);
        let mut snapshots_written = 0u64;
        if resolved.provenance == Provenance::Built && !config.snapshot_save.is_empty() {
            t2v_store::save(&config.snapshot_save, &resolved.library, &resolved.embedder)?;
            snapshots_written = 1;
        }
        let metrics = Arc::new(Metrics::with_backends(&config.backend_ids()));
        let default_tenant = Arc::new(build_tenant_runtime(
            DEFAULT_TENANT_ID,
            0,
            config.corpus.label(),
            corpus,
            resolved,
            &config,
            &metrics,
        ));
        let cache = ShardedTtlLruCache::new(
            config.cache_capacity,
            config.cache_ttl(),
            config.effective_cache_shards(),
        );
        let shards = cache.shard_count() as u64;
        metrics
            .scalar(Scalar::CacheShards)
            .store(shards, Ordering::Relaxed);
        metrics.set_library_info(
            default_tenant.library_fingerprint,
            default_tenant.library_provenance.label(),
            default_tenant.gred.library().len(),
        );
        let written = metrics.scalar(Scalar::SnapshotsWritten);
        written.fetch_add(snapshots_written, Ordering::Relaxed);

        // Startup tenants: declared by the tenants= knob (snapshots pulled
        // from tenant_dir when the conventionally-named file exists), or —
        // with no declarations — by scanning tenant_dir as a catalog.
        let mut list = vec![Arc::clone(&default_tenant)];
        let mut next_epoch = 1u32;
        for (spec, tenant_source) in startup_tenants(&config)? {
            let tenant_corpus = generate(&spec.corpus.corpus_config());
            let mut tenant_resolved = tenant_source
                .resolve(&tenant_corpus, &t2v_embed::EmbedConfig::default())
                .map_err(|e| StartupError::Tenant(format!("'{}': {e}", spec.id)))?;
            embedder_pool.adopt(&mut tenant_resolved);
            list.push(Arc::new(build_tenant_runtime(
                &spec.id,
                next_epoch,
                spec.corpus.label(),
                &tenant_corpus,
                tenant_resolved,
                &config,
                &metrics,
            )));
            next_epoch += 1;
        }

        let recorder = (config.trace_buffer > 0).then(|| Recorder::new(config.trace_buffer));
        let access_log = if config.access_log.is_empty() {
            None
        } else {
            // validate() already vetted the parent directory; an open
            // failure here (permissions, races) still fails startup loudly.
            // Rotates at 64 MiB and keeps 3 generations.
            Some(Arc::new(AccessLog::open(&config.access_log, 64, 3)?))
        };

        Ok(ServerState {
            gred: default_tenant.gred.clone(),
            registry: default_tenant.registry.clone(),
            dbs: default_tenant.dbs.clone(),
            cache,
            metrics,
            default_tenant,
            recorder,
            access_log,
            tenants: RcuCell::new(TenantTable { list }),
            admin: Mutex::new(embedder_pool),
            next_epoch: AtomicU32::new(next_epoch),
            config,
        })
    }

    /// The live tenant table (lock-free on the reader fast path).
    pub fn tenants(&self) -> Arc<TenantTable> {
        self.tenants.load()
    }

    /// Attach a tenant to the running server: generate its corpus, resolve
    /// its library (verified snapshot or fresh build), construct its
    /// backend registry, and RCU-swap it into the table. In-flight requests
    /// never block on this — they keep reading the old table until the swap
    /// lands. This is also the backend hot-registration path: a fresh
    /// registry (any configured backend subset) materialises without a
    /// restart.
    pub fn attach_tenant(
        &self,
        req: &AttachRequest,
    ) -> Result<Arc<TenantRuntime>, TenantAdminError> {
        t2v_tenant::validate_tenant_id(&req.id)
            .map_err(|e| TenantAdminError::Invalid(e.message))?;
        let backends = match &req.backends {
            None => self.config.backends.clone(),
            Some(list) => {
                // Borrow the config grammar so the admin route accepts
                // exactly what the backends= knob accepts.
                let mut probe = self.config.clone();
                probe
                    .set("backends", list)
                    .map_err(|e| TenantAdminError::Invalid(e.message))?;
                probe.backends
            }
        };
        // The admin mutex serialises the whole read-build-swap sequence
        // (and guards the embedder pool); readers never touch it.
        let mut pool = self.admin.lock().expect("admin lock poisoned");
        if self.tenants.load().get(&req.id).is_some() {
            return Err(TenantAdminError::Duplicate(req.id.clone()));
        }
        let corpus = generate(&req.corpus.corpus_config());
        let source = match &req.snapshot {
            Some(path) => LibrarySource::Snapshot { path: path.clone() },
            None => LibrarySource::Build,
        };
        let mut resolved = source
            .resolve(&corpus, &t2v_embed::EmbedConfig::default())
            .map_err(TenantAdminError::Snapshot)?;
        pool.adopt(&mut resolved);
        let mut tenant_config = self.config.clone();
        tenant_config.backends = backends;
        let epoch = self.next_epoch.fetch_add(1, Ordering::AcqRel);
        let runtime = Arc::new(build_tenant_runtime(
            &req.id,
            epoch,
            req.corpus.label(),
            &corpus,
            resolved,
            &tenant_config,
            &self.metrics,
        ));
        let published = Arc::clone(&runtime);
        self.tenants.update(move |table| {
            let mut list = table.list.clone();
            list.push(Arc::clone(&published));
            TenantTable { list }
        });
        Ok(runtime)
    }

    /// Detach a tenant: RCU-swap a table without it. Translations already
    /// in flight hold their own `Arc<TenantRuntime>` and complete normally;
    /// the next request for the id gets a structured 404. The tenant's
    /// cache entries are left to age out of the shared LRU (their epoch is
    /// never minted again).
    pub fn detach_tenant(&self, id: &str) -> Result<(), TenantAdminError> {
        if id == DEFAULT_TENANT_ID {
            return Err(TenantAdminError::Undetachable);
        }
        let _pool = self.admin.lock().expect("admin lock poisoned");
        if self.tenants.load().get(id).is_none() {
            return Err(TenantAdminError::Unknown(id.to_string()));
        }
        self.tenants.update(|table| TenantTable {
            list: table.list.iter().filter(|t| t.id != id).cloned().collect(),
        });
        self.metrics.drop_tenant(id);
        Ok(())
    }
}

/// Build one tenant's runtime from its resolved library: GRED over it, and
/// RGVisNet's index over the tenant's own corpus.
fn build_tenant_runtime(
    id: &str,
    epoch: u32,
    corpus_label: String,
    corpus: &Corpus,
    resolved: t2v_store::ResolvedLibrary,
    config: &ServeConfig,
    metrics: &Metrics,
) -> TenantRuntime {
    let backend_ids = config.backend_ids();
    let tenant_metrics = metrics.register_tenant(id);
    let gred = Gred::from_parts(
        Arc::clone(&resolved.embedder),
        Arc::clone(&resolved.library),
        SimulatedChatModel::new(LlmConfig::default()),
        GredConfig::default(),
    );
    let mut registry = BackendRegistry::new();
    for backend_id in &backend_ids {
        let backend: Arc<dyn Translator> = match *backend_id {
            "gred" => Arc::new(gred.clone()),
            "rgvisnet" => Arc::new(RgVisNet::build(corpus)),
            other => unreachable!("config validated backend id '{other}'"),
        };
        registry.register(*backend_id, backend);
    }
    // One breaker per backend, and the gauge cells go straight into the
    // tenant's metric family so `/metrics` renders
    // `t2v_breaker_state{tenant,backend}` without ever touching the
    // breaker's lock.
    let breakers: Vec<Arc<CircuitBreaker>> = backend_ids
        .iter()
        .map(|_| {
            Arc::new(CircuitBreaker::new(BreakerConfig {
                window: config.breaker_window,
                min_samples: config.breaker_min_samples,
                threshold_pct: 50,
                open_ms: config.breaker_open_ms,
            }))
        })
        .collect();
    let _ = tenant_metrics.breaker_states.set(
        backend_ids
            .iter()
            .zip(&breakers)
            .map(|(id, b)| (id.to_string(), b.state_cell()))
            .collect(),
    );
    let dbs = corpus
        .databases
        .iter()
        .map(|db| {
            let store = Store::synthesize(db, config.store_seed, config.store_rows);
            let fingerprint = db_fingerprint(db, config.store_seed, config.store_rows);
            (
                db.id.clone(),
                Arc::new(DbEntry {
                    db: db.clone(),
                    store,
                    fingerprint,
                }),
            )
        })
        .collect();
    TenantRuntime {
        id: id.to_string(),
        epoch,
        corpus_label,
        gred,
        registry,
        dbs,
        library_provenance: resolved.provenance,
        library_fingerprint: resolved.corpus_fingerprint,
        breakers,
        metrics: tenant_metrics,
        // Epoch 0 is only ever the startup default tenant's.
        is_default: epoch == 0,
    }
}

/// The startup tenant set: `(spec, library source)` pairs, derived from
/// the `tenants=` and `tenant_dir=` knobs.
fn startup_tenants(config: &ServeConfig) -> Result<Vec<(TenantSpec, LibrarySource)>, StartupError> {
    let declared = config.tenant_specs();
    if !declared.is_empty() {
        // Declared tenants: prefer the conventionally-named catalog
        // snapshot when one exists (strict — a present-but-broken file
        // fails startup), build otherwise.
        return Ok(declared
            .into_iter()
            .map(|spec| {
                let source = if config.tenant_dir.is_empty() {
                    LibrarySource::Build
                } else {
                    let path =
                        std::path::Path::new(&config.tenant_dir).join(snapshot_filename(&spec));
                    if path.exists() {
                        LibrarySource::Snapshot { path }
                    } else {
                        LibrarySource::Build
                    }
                };
                (spec, source)
            })
            .collect());
    }
    if config.tenant_dir.is_empty() {
        return Ok(Vec::new());
    }
    // Catalog mode: every conforming snapshot in the directory declares a
    // tenant; corrupt conforming files fail the whole scan loudly.
    let entries = t2v_tenant::scan_catalog(&config.tenant_dir)
        .map_err(|e| StartupError::Tenant(e.to_string()))?;
    Ok(entries
        .into_iter()
        .map(|e| (e.spec, LibrarySource::Snapshot { path: e.path }))
        .collect())
}

/// FNV-1a over everything that determines a translation + execution result
/// for a database: id, rendered schema, and the store synthesis parameters.
pub fn db_fingerprint(db: &Database, store_seed: u64, store_rows: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    eat(db.id.as_bytes());
    eat(&[0xff]);
    eat(db.render_prompt_schema().as_bytes());
    eat(&store_seed.to_le_bytes());
    eat(&(store_rows as u64).to_le_bytes());
    h
}

/// What the event loop shares with every in-flight request.
pub(crate) struct Shared {
    pub(crate) state: Arc<ServerState>,
    /// The translation pool: bounded, `t2v-worker-*`. It also runs the
    /// admin routes that build, drop or write.
    pub(crate) pool: WorkerPool,
    pub(crate) shutdown: AtomicBool,
    /// The self-contained ops plane (ring-buffer TSDB, SLO burn-rate
    /// engine, stage profiler); `None` when `obs_sample_ms=0` and
    /// `obs_profile_hz=0`. See DESIGN.md §15.
    pub(crate) obs: Option<Arc<t2v_obs::ObsEngine>>,
    /// Event-loop occupancy, published by the `t2v-event` thread every
    /// ~250ms. Read by `/v1/admin/status`.
    pub(crate) event_stats: EventStats,
}

/// Connection-state census of the epoll event loop, refreshed by the loop
/// itself so the status endpoint never has to lock the connection table.
#[derive(Default)]
pub(crate) struct EventStats {
    /// Connections currently accumulating request bytes.
    pub(crate) reading: AtomicU64,
    /// Connections with a request in flight: parked on the pool, or an
    /// admin job.
    pub(crate) dispatched: AtomicU64,
    /// Connections flushing a response under write backpressure.
    pub(crate) writing: AtomicU64,
    /// Idle keep-alive connections parked between requests.
    pub(crate) keep_alive: AtomicU64,
    /// Read buffers currently parked in the loop's buffer pool.
    pub(crate) pool_buffers: AtomicU64,
    /// 1 while the loop is in its shutdown drain window.
    pub(crate) draining: AtomicU64,
}

/// A running server. Bind with [`Server::spawn`]; stop with
/// [`Server::shutdown`].
pub struct Server {
    shared: Arc<Shared>,
    driver: EventDriver,
    addr: SocketAddr,
}

impl Server {
    /// Bind `state.config.addr` and start serving.
    pub fn spawn(state: Arc<ServerState>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&state.config.addr)?;
        let addr = listener.local_addr()?;
        let config = &state.config;
        // Arm the deterministic fault plan, if one is configured. Some
        // injection points live in crates that know nothing about server
        // instances (`t2v-store`'s snapshot reads), so arming is
        // process-global — the knob exists for chaos drills, which run
        // one server per process. The spec already parsed when the knob
        // was set; a failure here means the field was mutated directly,
        // and silently serving unfaulted is the safe answer.
        if !config.fault_plan.is_empty() {
            if let Ok(plan) = t2v_fault::FaultPlan::parse(&config.fault_plan) {
                t2v_fault::arm(&plan);
            }
        }
        let pool = WorkerPool::new(
            config.effective_workers(),
            config.effective_shards(),
            config.queue_capacity,
            Arc::clone(&state.metrics),
        );
        let obs = build_obs(&state);
        let shared = Arc::new(Shared {
            state,
            pool,
            shutdown: AtomicBool::new(false),
            obs,
            event_stats: EventStats::default(),
        });
        let driver = EventDriver::spawn(Arc::clone(&shared), listener)?;
        Ok(Server {
            shared,
            driver,
            addr,
        })
    }

    /// The bound address (useful with `addr = 127.0.0.1:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn state(&self) -> &ServerState {
        &self.shared.state
    }

    /// Orderly stop: the event loop drains (idle sockets close at once,
    /// in-flight requests finish their response), then the translation
    /// pool and the ops plane stop.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.driver.shutdown();
        self.shared.pool.shutdown();
        if let Some(obs) = &self.shared.obs {
            obs.stop();
        }
    }

    /// The differential oracle for the event loop (`tests/event_net.rs`):
    /// answer the request bytes of one connection with the blocking
    /// one-shot parser and the same stages, no socket involved — what
    /// waits is started and ended as the loop does it, and only waited for
    /// here ([`settle`]); an admin job runs here. A write stall fires where
    /// the loop fires it, and holds nothing back. Returns every byte the
    /// connection would have received before it closed.
    #[doc(hidden)]
    pub fn answer_in_memory(&self, raw: &[u8]) -> Vec<u8> {
        let shared = &self.shared;
        let mut reader = raw;
        let mut out = Vec::new();
        let max_body = shared.state.config.max_body_bytes;
        // Running out of bytes is the peer's clean EOF between requests.
        while !reader.is_empty() {
            let t0 = Instant::now();
            match http::read_request(&mut reader, max_body) {
                Ok(req) => {
                    let mut begun = begin(shared, &req, t0, t0.elapsed());
                    let (route, early) = route(shared, &req, &mut begun);
                    let scope = begun.trace.scope();
                    let (handled, late) = match early {
                        Early::Reply(resp) => (Handled::Reply(resp), false),
                        Early::Wait(wait) => (settle(shared, wait, &mut out), true),
                        Early::Job(job) => (Handled::Reply(job(&shared.state, &req)), true),
                    };
                    if late && matches!(handled, Handled::Reply(_)) {
                        begun.stall = fire_delay(ConnWriteStall);
                    }
                    drop(scope);
                    let write_now = |log: Arc<AccessLog>, line: String| log.write_line(&line);
                    if !finish(shared, &req, begun, route, handled, &mut out, write_now) {
                        break;
                    }
                }
                Err(err) => {
                    write_read_error(&self.shared, &err, &mut out);
                    break;
                }
            }
        }
        out
    }
}

/// Construct and start the ops plane from the `obs_*` / `slo*` knobs.
/// Returns `None` when both cadence knobs are zero — the request path then
/// carries no observability overhead beyond the atomics it already bumps.
fn build_obs(state: &Arc<ServerState>) -> Option<Arc<t2v_obs::ObsEngine>> {
    let config = &state.config;
    if config.obs_sample_ms == 0 && config.obs_profile_hz == 0 {
        return None;
    }
    // The spec parsed when the knob was set (same contract as fault_plan);
    // a parse failure here means the field was mutated directly, and an
    // SLO-less ops plane is the safe answer.
    let slos = t2v_obs::parse_slos(&config.slo).unwrap_or_default();
    let windows = t2v_obs::BurnWindows {
        fast_ms: config.slo_fast_s.saturating_mul(1000),
        slow_ms: config.slo_slow_s.saturating_mul(1000),
        ..t2v_obs::BurnWindows::default()
    };
    let engine = Arc::new(t2v_obs::ObsEngine::new(t2v_obs::ObsConfig {
        sample_ms: config.obs_sample_ms,
        retention_s: 900,
        profile_hz: config.obs_profile_hz,
        slos,
        sources: crate::metrics::slo_sources(),
        windows,
    }));
    // The collector captures only the metrics registry (not the server
    // state) so the engine can never keep tenants or caches alive.
    let metrics = Arc::clone(&state.metrics);
    let collector: t2v_obs::Collector = Box::new(move || metrics.collect());
    // SLO state flips land in the access log between request lines, so an
    // operator tailing it sees "when did it start burning" in context.
    let sink: Option<t2v_obs::TransitionSink> = state.access_log.as_ref().map(|log| {
        let log = Arc::clone(log);
        Box::new(move |t: &t2v_obs::SloTransition| {
            log.write_line(&crate::access_log::render_slo_transition(
                t2v_obs::unix_ms(),
                &t.slo,
                t.firing,
                t.fast_burn,
                t.slow_burn,
            ));
        }) as t2v_obs::TransitionSink
    });
    engine.start(collector, sink);
    Some(engine)
}

/// Convenience: build state from config and spawn, one call.
pub fn serve(config: ServeConfig) -> Result<Server, StartupError> {
    let state = Arc::new(ServerState::build(config)?);
    Server::spawn(state).map_err(StartupError::Io)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::{normalize_nlq, translate_body};
    use t2v_engine::Json;

    fn gred_only_state() -> (t2v_corpus::Corpus, ServerState) {
        let corpus = generate(&t2v_corpus::CorpusConfig::tiny(7));
        let mut config = ServeConfig::default();
        config.set("backends", "gred").unwrap();
        let state = ServerState::from_corpus(&corpus, config).expect("no snapshot configured");
        (corpus, state)
    }

    #[test]
    fn normalization_lowercases_and_collapses_whitespace() {
        assert_eq!(
            normalize_nlq("  Show   ME\tthe  Wages "),
            "show me the wages"
        );
        assert_eq!(normalize_nlq(""), "");
        assert_eq!(normalize_nlq("   "), "");
        assert_eq!(normalize_nlq("É é"), "é é");
    }

    #[test]
    fn fingerprints_separate_dbs_and_store_params() {
        let corpus = generate(&t2v_corpus::CorpusConfig::tiny(7));
        let a = db_fingerprint(&corpus.databases[0], 7, 30);
        let b = db_fingerprint(&corpus.databases[1], 7, 30);
        let a_rows = db_fingerprint(&corpus.databases[0], 7, 31);
        let a_seed = db_fingerprint(&corpus.databases[0], 8, 30);
        assert_ne!(a, b);
        assert_ne!(a, a_rows);
        assert_ne!(a, a_seed);
        assert_eq!(a, db_fingerprint(&corpus.databases[0], 7, 30));
    }

    #[test]
    fn translate_body_is_deterministic_and_parses() {
        let (corpus, state) = gred_only_state();
        let ex = &corpus.dev[0];
        let entry = state.dbs.get(&corpus.databases[ex.db].id).unwrap();
        let backend = Arc::clone(state.registry.get("gred").unwrap());
        let nlq = normalize_nlq(&ex.nlq);
        let a = translate_body(backend.as_ref(), "gred", &nlq, entry, true);
        let b = translate_body(backend.as_ref(), "gred", &nlq, entry, true);
        assert_eq!(a, b, "same inputs must serialise identical bytes");
        let doc = Json::parse(std::str::from_utf8(&a).unwrap()).unwrap();
        assert_eq!(doc.get("backend").and_then(Json::as_str), Some("gred"));
        let dvq = doc.get("dvq").and_then(Json::as_str).expect("a DVQ");
        t2v_dvq::parse(dvq).unwrap();
        assert!(doc.get("vegalite").is_some());
        // Stages are the full GRED pipeline, name + dvq only (no timings —
        // body bytes must be clock-independent for cache identity).
        let Some(Json::Arr(stages)) = doc.get("stages") else {
            panic!("stages array");
        };
        assert_eq!(stages.len(), 3);
        assert_eq!(
            stages[0].get("name").and_then(Json::as_str),
            Some("generator")
        );
        assert!(stages[0].get("micros").is_none());
    }

    #[test]
    fn translate_body_matches_the_raw_gred_pipeline() {
        // The acceptance bar: the /v1 surface serves byte-serialisations of
        // exactly what the pre-redesign pipeline computed.
        let (corpus, state) = gred_only_state();
        for ex in corpus.dev.iter().take(5) {
            let entry = state.dbs.get(&corpus.databases[ex.db].id).unwrap();
            let backend = Arc::clone(state.registry.get("gred").unwrap());
            let nlq = normalize_nlq(&ex.nlq);
            let body = translate_body(backend.as_ref(), "gred", &nlq, entry, false);
            let doc = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
            let legacy = state.gred.translate(&nlq, &entry.db);
            assert_eq!(
                doc.get("dvq").and_then(Json::as_str),
                legacy.final_dvq(),
                "served DVQ must equal the raw pipeline's"
            );
        }
    }

    #[test]
    fn translation_errors_are_structured_objects() {
        let (_corpus, state) = gred_only_state();
        let entry = state.dbs.values().next().unwrap();
        // A mute backend produces a structured no_output error body.
        let mute = t2v_core::FnBackend::new("mute", |_: &str, _: &Database| None);
        let body = translate_body(&mute, "mute", "show wages", entry, false);
        let doc = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert!(matches!(doc.get("dvq"), Some(Json::Null)));
        let err = doc.get("error").expect("error object");
        assert_eq!(err.get("code").and_then(Json::as_str), Some("no_output"));
        assert!(err
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("mute"));
    }
}
