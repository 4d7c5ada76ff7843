//! # t2v-serve — the concurrent multi-backend translation service
//!
//! Serves every registered [`t2v_core::Translator`] backend — GRED plus
//! the baselines — behind one versioned HTTP/1.1 surface (std-only;
//! DESIGN.md §7–§8):
//!
//! * `POST /v1/translate` — `{"nlq", "db", "backend"?, "vegalite"?,
//!   "stream"?}` → the staged DVQ outputs (plus an executed Vega-Lite spec
//!   on request); `"stream": true` switches to NDJSON stage streaming,
//! * `POST /v1/translate/batch` — `{"requests": [...]}` → `{"results":
//!   [...]}` in order,
//! * `GET /v1/backends` — capability metadata of every registered backend
//!   plus the loaded library's provenance (fingerprint, built vs
//!   snapshot-loaded, entry count),
//! * `POST /v1/admin/snapshot` — persist the live embedding library as a
//!   `t2v-store` artifact for instant warm restarts,
//! * `/v1/t/{tenant}/translate` (+ `/batch`, `/backends`) — **multi-tenant
//!   serving** (DESIGN.md §10): every tenant is a full corpus + library +
//!   backend registry, materialised from the `tenants=` knob or a
//!   `tenant_dir=` snapshot catalog, living in an RCU-swapped
//!   [`TenantTable`] (readers never lock); the unprefixed `/v1/*` routes
//!   are the implicit `default` tenant, byte-identical to the pre-tenant
//!   surface,
//! * `POST /v1/admin/tenants/attach`, `DELETE /v1/admin/tenants/detach`,
//!   `GET /v1/admin/tenants` — hot attach/detach without a restart
//!   (attach builds a fresh backend registry, which is also the backend
//!   hot-registration path),
//! * `GET /healthz`, `GET /metrics` — liveness and Prometheus counters
//!   (request counters by route, per-backend translation/cache/error
//!   counters and pool shares, cache shard count, library provenance).
//!
//! One epoll loop ([`event`]) is the only transport and answers cache hits
//! itself; whatever may block takes the same staged path through `routes` on
//! a dispatch thread, every cold translation the same admission stage in
//! [`translate`] (breaker → pool → wait under the deadline; DESIGN.md §11).
//!
//! Backed by a sharded bounded worker pool (503 on overload, never an
//! unbounded queue), a sharded LRU+TTL cache keyed by `(backend,
//! normalised NLQ, db fingerprint, response shape)` whose hits are
//! byte-identical to cold translations, and one retrieval route: the
//! worker that runs a GRED translation runs its two top-k scans itself
//! (exact flat, or the tenant's IVF index under `ann=on`). Failures are
//! structured `{"error": {"code", "message"}}` objects from the
//! [`t2v_core::TranslateError`] taxonomy.
//!
//! ```no_run
//! use t2v_serve::{serve, ServeConfig};
//!
//! let mut config = ServeConfig::default();
//! config.set("addr", "127.0.0.1:7890").unwrap();
//! config.set("backends", "gred,rgvisnet").unwrap();
//! let server = serve(config).unwrap();
//! println!("listening on {}", server.addr());
//! ```
//!
//! Every knob is a `key=value` line (file) or `T2V_SERVE_*` variable (env);
//! see [`ServeConfig`] and DESIGN.md §7.

pub mod access_log;
mod admin;
pub mod breaker;
pub mod cache;
pub mod config;
pub mod event;
pub mod http;
pub mod metrics;
pub mod pool;
mod routes;
pub mod server;
pub mod translate;

pub use access_log::AccessLog;
pub use breaker::{Admission, BreakerConfig, BreakerState, CircuitBreaker};
pub use cache::{CacheStats, Lookup, ShardedTtlLruCache, TtlLruCache};
pub use config::{ConfigError, CorpusProfile, ServeConfig, KNOWN_BACKENDS};
pub use http::{Body, Request, Response};
pub use metrics::{LabelledMetrics, Metrics, Route};
pub use pool::{OneShot, SubmitError, WorkerPool};
pub use server::{
    db_fingerprint, serve, AttachRequest, CacheKey, DbEntry, Server, ServerState, StartupError,
    TenantAdminError, TenantRuntime, TenantTable,
};
pub use translate::{normalize_nlq, render_translation, translate_body, Reply};
