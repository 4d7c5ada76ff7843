//! `servebench` — closed-loop load generator for `t2v-serve`.
//!
//! Spawns the service on a loopback port, then drives `POST /v1/translate`
//! with N concurrent keep-alive clients for a fixed duration, across two
//! scenario axes:
//!
//! * **backend** (`--backends gred,rgvisnet,...`) — which registered
//!   translator serves the traffic (backend selection on every request);
//! * **cache mode** — *hot* (default config; clients cycle a working set of
//!   distinct queries, so steady state is mostly cache hits — the "millions
//!   of users asking popular questions" shape) vs *cold* (cache disabled;
//!   every request runs the full model — the worst-case all-unique-traffic
//!   shape);
//! * **tenants** (`--tenants N`) — one server carrying the default tenant
//!   plus N extras (corpora `tiny:101..`), every client pinned to its
//!   tenant's `/v1/t/{id}/translate` route: the cost of tenancy itself
//!   (table resolution, per-epoch cache namespacing) under both cache
//!   modes, reported per tenant under `serving.tenants`.
//!
//! * **trace** (`--trace`) — the observability tax (DESIGN.md §12): the
//!   same hot/cold load twice, once with the flight recorder fully off
//!   (`trace_sample=0 trace_force_slow_ms=0 trace_buffer=0` — the id
//!   header still rides every response) and once fully on
//!   (`trace_sample=1` — every request records its span tree and lands in
//!   the recorder), reporting the throughput/latency overhead under
//!   `serving.trace_overhead`; `--trace` runs *only* this axis.
//!
//! * **obs** (`--obs`) — the ops-plane tax (DESIGN.md §15): the same
//!   hot/cold load with the whole ops plane off (`obs_sample_ms=0
//!   obs_profile_hz=0`) vs fully on (sampler at 250 ms, profiler at 97 Hz,
//!   three SLOs burning, full tracing so the profiler has stacks to walk),
//!   reported under `serving.obs_overhead`; the acceptance budget is ≤3%.
//!   `--obs` runs *only* this axis.
//!
//! * **open-loop concurrency** (`--open-loop [--connections N]`) — the
//!   C10k axis (DESIGN.md §14): N keep-alive connections held open against
//!   one server while a small bounded set of in-flight requests sweeps
//!   round-robin across *all* of them, so every socket carries traffic but
//!   almost all are idle at any instant — the fleet-of-dashboards shape the
//!   event loop exists for. Runs a connection-count grid (100 / 1 000 /
//!   N), reporting per-cell p50/p95/p99 under `serving.concurrency.event`;
//!   `--open-loop` runs *only* this axis (the others' rows are preserved).
//!
//! * **chaos** (`--chaos`) — a deterministic fault storm (DESIGN.md §11):
//!   baseline traffic, then `t2v-fault` arms `backend.error` against the
//!   live server so every worker job fails and the circuit breaker opens
//!   (fast 503s), then the plan disarms and a probe loop measures how long
//!   the breaker takes to serve the first clean 200 again. Reports storm
//!   error rate, storm p99, and recovery time under `serving.chaos`;
//!   `--chaos` runs *only* this axis (the others' rows are preserved).
//!
//! Reports throughput and a client-side latency distribution (p50/p95/p99),
//! and merges a `serving` section into `BENCH_perf.json` — top-level
//! `hot`/`cold` rows for the first backend (GRED, the reference numbers)
//! plus per-backend rows under `serving.backends`, per-tenant rows under
//! `serving.tenants`, and fault-storm rows under `serving.chaos` — without
//! disturbing the sections `perfsnap` owns.
//!
//! Every merge stamps `serving.build` with the crate version and `git
//! describe` output, so a BENCH_perf.json row is traceable to the exact
//! tree that produced it.
//!
//! Usage: `cargo run --release -p t2v-bench --bin servebench
//!         [--quick] [--clients N] [--secs S] [--backends a,b]
//!         [--tenants N] [--chaos] [--trace] [--obs]
//!         [--open-loop] [--connections N] [--out PATH]`

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use t2v_corpus::{generate, CorpusConfig};
use t2v_engine::Json;
use t2v_serve::{ServeConfig, Server, ServerState};

struct ClientStats {
    latencies_ns: Vec<u64>,
    ok: u64,
    cache_hits: u64,
    rejected: u64,
    other: u64,
}

struct Scenario {
    backend: String,
    mode: &'static str,
    /// Which retrieval index served the scenario (`flat` or an `ivf(...)`
    /// label) — cold rows are meaningless without knowing what scanned.
    index: String,
    requests: u64,
    rps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    mean_us: f64,
    cache_hit_rate: f64,
    rejected: u64,
    other_errors: u64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let chaos = args.iter().any(|a| a == "--chaos");
    let trace_axis = args.iter().any(|a| a == "--trace");
    let obs_axis = args.iter().any(|a| a == "--obs");
    let open_loop = args.iter().any(|a| a == "--open-loop");
    let connections: usize = flag(&args, "--connections").unwrap_or(10_000);
    let clients: usize = flag(&args, "--clients").unwrap_or(8);
    let secs: u64 = flag(&args, "--secs").unwrap_or(if quick { 1 } else { 4 });
    let tenant_count: usize = flag(&args, "--tenants").unwrap_or(0);
    let backends_arg = args
        .iter()
        .position(|a| a == "--backends")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "gred,rgvisnet".to_string());
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_perf.json".to_string());
    let backend_ids: Vec<String> = {
        // Borrow the config parser for validation + ordering.
        let mut probe = ServeConfig::default();
        if let Err(e) = probe.set("backends", &backends_arg) {
            eprintln!("servebench: --backends: {}", e.message);
            std::process::exit(2);
        }
        probe.backend_ids().iter().map(|s| s.to_string()).collect()
    };

    println!(
        "servebench: {clients} closed-loop clients × {secs}s per scenario, backends [{}] ({} threads)",
        backend_ids.join(", "),
        t2v_parallel::thread_count()
    );
    let corpus = generate(&CorpusConfig::tiny(7));

    if open_loop {
        let report = run_concurrency(&corpus, clients, Duration::from_secs(secs), connections);
        for row in &report.rows {
            println!(
                "  c={:<6} {:>8.0} req/s  p50 {:>8.1} µs  p95 {:>8.1} µs  p99 {:>8.1} µs  503s {}  errors {}  conn failures {}",
                row.connections, row.rps, row.p50_us, row.p95_us, row.p99_us,
                row.rejected, row.other_errors, row.conn_failures
            );
        }
        merge_report(
            &out_path,
            clients,
            secs,
            MergeSections {
                concurrency: Some(&report),
                ..Default::default()
            },
        );
        println!("merged serving.concurrency section into {out_path}");
        return;
    }

    if chaos {
        let report = run_chaos(&corpus, clients, Duration::from_secs(secs));
        println!(
            "  chaos/baseline {:>8.0} req/s  p99 {:>8.1} µs  errors {:.1}%",
            report.baseline.rps,
            report.baseline.p99_us,
            error_rate(&report.baseline) * 100.0
        );
        println!(
            "  chaos/storm    {:>8.0} req/s  p99 {:>8.1} µs  errors {:.1}%  (500s+503s: {})",
            report.storm.rps,
            report.storm.p99_us,
            error_rate(&report.storm) * 100.0,
            report.storm.rejected + report.storm.other_errors
        );
        println!(
            "  chaos/recovery {:>8.1} ms to first clean 200",
            report.recovery_ms
        );
        println!(
            "  chaos/post     {:>8.0} req/s  p99 {:>8.1} µs  errors {:.1}%",
            report.post.rps,
            report.post.p99_us,
            error_rate(&report.post) * 100.0
        );
        merge_report(
            &out_path,
            clients,
            secs,
            MergeSections {
                chaos: Some(&report),
                ..Default::default()
            },
        );
        println!("merged serving.chaos section into {out_path}");
        return;
    }

    if trace_axis {
        let rounds = if quick { 2 } else { 3 };
        let report = run_trace_overhead(&corpus, clients, Duration::from_secs(secs), rounds);
        for row in &report.rows {
            println!(
                "  trace/{:<4} off {:>8.0} req/s (mean {:>7.1} µs)  on {:>8.0} req/s (mean {:>7.1} µs)  overhead {:>+5.1}%",
                row.mode, row.off.rps, row.off.mean_us, row.on.rps, row.on.mean_us, row.overhead_pct
            );
        }
        merge_report(
            &out_path,
            clients,
            secs,
            MergeSections {
                trace: Some(&report),
                ..Default::default()
            },
        );
        println!("merged serving.trace_overhead section into {out_path}");
        return;
    }

    if obs_axis {
        // The cold arm runs at ~1.5k req/s where run-to-run variance can
        // exceed the ≤3% budget being measured; extra rounds let the
        // best-of protocol converge on the true floor of each arm.
        let rounds = if quick { 2 } else { 5 };
        // Few closed-loop clients: with N clients queued on one core every
        // scheduler hiccup is amplified N× into mean latency, and the ±3%
        // question disappears under ±8% queueing noise. Two clients keep
        // the server busy while measuring service time, not queue time.
        let obs_clients = clients.min(2);
        let report = run_obs_overhead(&corpus, obs_clients, Duration::from_secs(secs), rounds);
        for row in &report.rows {
            println!(
                "  obs/{:<4}   off {:>8.0} req/s (mean {:>7.1} µs)  on {:>8.0} req/s (mean {:>7.1} µs)  overhead {:>+5.1}%",
                row.mode, row.off.rps, row.off.mean_us, row.on.rps, row.on.mean_us, row.overhead_pct
            );
        }
        merge_report(
            &out_path,
            clients,
            secs,
            MergeSections {
                obs: Some(&report),
                ..Default::default()
            },
        );
        println!("merged serving.obs_overhead section into {out_path}");
        return;
    }

    let mut scenarios: Vec<Scenario> = Vec::new();
    for id in &backend_ids {
        for (mode, cache) in [("hot", true), ("cold", false)] {
            let mut config = ServeConfig::default();
            config.set("addr", "127.0.0.1:0").unwrap();
            config.set("backends", id).unwrap();
            if !cache {
                config.set("cache_capacity", "0").unwrap();
            }
            let state = Arc::new(
                ServerState::from_corpus(&corpus, config).expect("servebench state builds"),
            );
            let server = Server::spawn(Arc::clone(&state)).expect("bind loopback");
            scenarios.push(run_scenario(
                id,
                mode,
                "/v1/translate",
                &corpus,
                &server,
                clients,
                Duration::from_secs(secs),
            ));
            server.shutdown();
        }
    }

    // Tenant axis: one server, default + N tenants, every scenario pinned
    // to one tenant's route so the rows separate tenancy cost per tenant.
    let mut tenant_scenarios: Vec<(String, Scenario)> = Vec::new();
    if tenant_count > 0 {
        let specs: Vec<t2v_tenant::TenantSpec> = (0..tenant_count)
            .map(|i| t2v_tenant::TenantSpec {
                id: format!("t{}", i + 1),
                corpus: t2v_tenant::parse_corpus_spec(&format!("tiny:{}", 101 + i)).unwrap(),
            })
            .collect();
        let tenants_knob = specs
            .iter()
            .map(t2v_tenant::TenantSpec::entry)
            .collect::<Vec<_>>()
            .join(",");
        println!(
            "servebench: tenants axis — default + [{}], per-tenant routes",
            tenants_knob
        );
        for (mode, cache) in [("hot", true), ("cold", false)] {
            let mut config = ServeConfig::default();
            config.set("addr", "127.0.0.1:0").unwrap();
            config.set("backends", "gred").unwrap();
            config.set("tenants", &tenants_knob).unwrap();
            if !cache {
                config.set("cache_capacity", "0").unwrap();
            }
            let state =
                Arc::new(ServerState::build(config).expect("servebench tenant state builds"));
            let server = Server::spawn(Arc::clone(&state)).expect("bind loopback");
            // Default tenant first (the unprefixed route), then each extra
            // on its scoped route, each driven with its *own* corpus's
            // queries.
            tenant_scenarios.push((
                "default".to_string(),
                run_scenario(
                    "gred",
                    mode,
                    "/v1/translate",
                    &corpus,
                    &server,
                    clients,
                    Duration::from_secs(secs),
                ),
            ));
            for spec in &specs {
                let tenant_corpus = generate(&spec.corpus.corpus_config());
                tenant_scenarios.push((
                    spec.id.clone(),
                    run_scenario(
                        "gred",
                        mode,
                        &format!("/v1/t/{}/translate", spec.id),
                        &tenant_corpus,
                        &server,
                        clients,
                        Duration::from_secs(secs),
                    ),
                ));
            }
            server.shutdown();
        }
    }

    for (tenant, s) in &tenant_scenarios {
        println!(
            "  tenant {:<8}/{:<4} {:>8.0} req/s  p50 {:>8.1} µs  p95 {:>8.1} µs  p99 {:>8.1} µs  hits {:>5.1}%  503s {}  errors {}",
            tenant, s.mode, s.rps, s.p50_us, s.p95_us, s.p99_us, s.cache_hit_rate * 100.0, s.rejected, s.other_errors
        );
    }
    for s in &scenarios {
        println!(
            "  {:<12}/{:<4} {:>8.0} req/s  p50 {:>8.1} µs  p95 {:>8.1} µs  p99 {:>8.1} µs  mean {:>8.1} µs  hits {:>5.1}%  503s {}  errors {}",
            s.backend, s.mode, s.rps, s.p50_us, s.p95_us, s.p99_us, s.mean_us, s.cache_hit_rate * 100.0, s.rejected, s.other_errors
        );
    }

    merge_report(
        &out_path,
        clients,
        secs,
        MergeSections {
            scenarios: &scenarios,
            tenant_scenarios: &tenant_scenarios,
            ..Default::default()
        },
    );
    println!("merged serving section into {out_path}");
}

struct TraceOverheadRow {
    mode: &'static str,
    off: Scenario,
    on: Scenario,
    /// Relative mean-latency cost of full tracing, in percent (negative =
    /// measured faster with tracing on, i.e. inside run-to-run noise).
    overhead_pct: f64,
}

struct TraceReport {
    rows: Vec<TraceOverheadRow>,
}

/// The trace axis: the same closed-loop load with the recorder fully off
/// (sampling, slow-trigger, and buffer all zeroed — requests still get an
/// id header) and fully on (`trace_sample=1`: every request records its
/// span tree and is stored in the flight recorder). The per-mode overhead
/// is the relative mean-latency increase; the acceptance budget is ≤3%.
///
/// The signal is small (single-digit microseconds per request), so one
/// off/on pair is dominated by scheduler noise on small machines. The axis
/// interleaves `rounds` off/on pairs and compares the *best* mean of each
/// arm: transient slowdowns (a GC-less runtime still shares the core with
/// the kernel) inflate some rounds, but the minimum mean is the run where
/// the arm got the machine to itself, which is the honest cost comparison.
fn run_trace_overhead(
    corpus: &t2v_corpus::Corpus,
    clients: usize,
    secs: Duration,
    rounds: usize,
) -> TraceReport {
    println!(
        "servebench: trace axis — recorder off vs on, hot and cold ({rounds} interleaved rounds)"
    );
    let run = |mode: &'static str, cache: bool, on: bool| -> Scenario {
        let mut config = ServeConfig::default();
        config.set("addr", "127.0.0.1:0").unwrap();
        config.set("backends", "gred").unwrap();
        if !cache {
            config.set("cache_capacity", "0").unwrap();
        }
        if on {
            config.set("trace_sample", "1").unwrap();
        } else {
            config.set("trace_sample", "0").unwrap();
            config.set("trace_force_slow_ms", "0").unwrap();
            config.set("trace_buffer", "0").unwrap();
        }
        let state =
            Arc::new(ServerState::from_corpus(corpus, config).expect("trace axis state builds"));
        let server = Server::spawn(Arc::clone(&state)).expect("bind loopback");
        let s = run_scenario(
            "gred",
            mode,
            "/v1/translate",
            corpus,
            &server,
            clients,
            secs,
        );
        server.shutdown();
        s
    };
    let best = |mut runs: Vec<Scenario>| -> Scenario {
        let mut best = runs.pop().expect("at least one round");
        for s in runs {
            if s.mean_us > 0.0 && (best.mean_us == 0.0 || s.mean_us < best.mean_us) {
                best = s;
            }
        }
        best
    };
    let rows = [("hot", true), ("cold", false)]
        .into_iter()
        .map(|(mode, cache)| {
            let mut offs = Vec::with_capacity(rounds);
            let mut ons = Vec::with_capacity(rounds);
            for _ in 0..rounds.max(1) {
                offs.push(run(mode, cache, false));
                ons.push(run(mode, cache, true));
            }
            let off = best(offs);
            let on = best(ons);
            let overhead_pct = if off.mean_us > 0.0 {
                (on.mean_us / off.mean_us - 1.0) * 100.0
            } else {
                0.0
            };
            TraceOverheadRow {
                mode,
                off,
                on,
                overhead_pct,
            }
        })
        .collect();
    TraceReport { rows }
}

/// The obs axis: the same interleaved best-of-rounds protocol as the trace
/// axis, but toggling the entire ops plane. Both arms run full tracing
/// (`trace_sample=1`) — the tracing tax is the `--trace` axis's business,
/// and the profiler needs real span stacks to walk — so the delta here
/// isolates the ops plane itself. *Off* is a traced server with no
/// sampler, no profiler, and no SLO engine; *on* adds the sampler at a
/// 250 ms cadence, the stage profiler at 97 Hz, and three evaluated SLOs —
/// the most expensive observability posture an operator can configure.
/// The acceptance budget for the mean-latency overhead is ≤3%.
fn run_obs_overhead(
    corpus: &t2v_corpus::Corpus,
    clients: usize,
    secs: Duration,
    rounds: usize,
) -> TraceReport {
    println!(
        "servebench: obs axis — ops plane off vs on, hot and cold ({rounds} interleaved rounds)"
    );
    let run = |mode: &'static str, cache: bool, on: bool| -> Scenario {
        let mut config = ServeConfig::default();
        config.set("addr", "127.0.0.1:0").unwrap();
        config.set("backends", "gred").unwrap();
        if !cache {
            config.set("cache_capacity", "0").unwrap();
        }
        config.set("trace_sample", "1").unwrap();
        if on {
            config.set("obs_sample_ms", "250").unwrap();
            config.set("obs_profile_hz", "97").unwrap();
            config
                .set("slo", "availability:0.999;latency:p99<5ms;cache_hit:0.7")
                .unwrap();
        } else {
            config.set("obs_sample_ms", "0").unwrap();
            config.set("obs_profile_hz", "0").unwrap();
        }
        let state =
            Arc::new(ServerState::from_corpus(corpus, config).expect("obs axis state builds"));
        let server = Server::spawn(Arc::clone(&state)).expect("bind loopback");
        let s = run_scenario(
            "gred",
            mode,
            "/v1/translate",
            corpus,
            &server,
            clients,
            secs,
        );
        server.shutdown();
        s
    };
    let best = |mut runs: Vec<Scenario>| -> Scenario {
        let mut best = runs.pop().expect("at least one round");
        for s in runs {
            if s.mean_us > 0.0 && (best.mean_us == 0.0 || s.mean_us < best.mean_us) {
                best = s;
            }
        }
        best
    };
    let rows = [("hot", true), ("cold", false)]
        .into_iter()
        .map(|(mode, cache)| {
            let mut offs = Vec::with_capacity(rounds);
            let mut ons = Vec::with_capacity(rounds);
            for _ in 0..rounds.max(1) {
                offs.push(run(mode, cache, false));
                ons.push(run(mode, cache, true));
            }
            let off = best(offs);
            let on = best(ons);
            let overhead_pct = if off.mean_us > 0.0 {
                (on.mean_us / off.mean_us - 1.0) * 100.0
            } else {
                0.0
            };
            TraceOverheadRow {
                mode,
                off,
                on,
                overhead_pct,
            }
        })
        .collect();
    TraceReport { rows }
}

struct ChaosReport {
    baseline: Scenario,
    storm: Scenario,
    recovery_ms: f64,
    post: Scenario,
}

fn error_rate(s: &Scenario) -> f64 {
    if s.requests == 0 {
        0.0
    } else {
        (s.rejected + s.other_errors) as f64 / s.requests as f64
    }
}

/// The chaos axis: measure the failure domain end to end. Cache off so every
/// request exercises the worker path; fast breaker knobs so open/half-open
/// transitions happen inside a bench-sized run. Phases: clean baseline →
/// armed `backend.error` storm (500s until the breaker opens, then fast
/// 503s) → disarm and probe until the first clean 200 (recovery time) →
/// clean post-storm traffic proving full service is restored.
fn run_chaos(corpus: &t2v_corpus::Corpus, clients: usize, secs: Duration) -> ChaosReport {
    let mut config = ServeConfig::default();
    config.set("addr", "127.0.0.1:0").unwrap();
    config.set("backends", "gred").unwrap();
    config.set("cache_capacity", "0").unwrap();
    config.set("breaker_window", "8").unwrap();
    config.set("breaker_min_samples", "4").unwrap();
    config.set("breaker_threshold_pct", "50").unwrap();
    config.set("breaker_open_ms", "250").unwrap();
    config.set("degrade_stale", "false").unwrap();
    let state = Arc::new(ServerState::from_corpus(corpus, config).expect("chaos state builds"));
    let server = Server::spawn(Arc::clone(&state)).expect("bind loopback");

    println!("servebench: chaos axis — baseline, storm, recovery, post");
    let baseline = run_scenario(
        "gred",
        "baseline",
        "/v1/translate",
        corpus,
        &server,
        clients,
        secs,
    );

    let plan = t2v_fault::FaultPlan::parse("seed=7;backend.error:backend=gred")
        .expect("chaos fault plan parses");
    t2v_fault::arm(&plan);
    let storm = run_scenario(
        "gred",
        "storm",
        "/v1/translate",
        corpus,
        &server,
        clients,
        secs,
    );

    // Recovery: the instant the storm lifts, how long until the first clean
    // 200? Bounded by the breaker cool-down (250 ms) plus one probe.
    t2v_fault::disarm();
    let disarmed = Instant::now();
    let recovery_ms = {
        let ex = &corpus.dev[0];
        let body = Json::obj([
            ("nlq", Json::str(ex.nlq.as_str())),
            ("db", Json::str(corpus.databases[ex.db].id.as_str())),
            ("backend", Json::str("gred")),
        ])
        .compact();
        let req = format!(
            "POST /v1/translate HTTP/1.1\r\nHost: servebench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
        .into_bytes();
        let stream = TcpStream::connect(server.addr()).expect("connect for recovery probe");
        stream
            .set_read_timeout(Some(Duration::from_secs(70)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut writer = stream;
        let deadline = disarmed + Duration::from_secs(30);
        loop {
            writer.write_all(&req).expect("write recovery probe");
            match read_response(&mut reader) {
                Some((200, _)) => break disarmed.elapsed().as_secs_f64() * 1e3,
                Some(_) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => break f64::NAN, // wedged — the report will show it
            }
        }
    };

    let post = run_scenario(
        "gred",
        "post",
        "/v1/translate",
        corpus,
        &server,
        clients,
        secs,
    );
    server.shutdown();
    ChaosReport {
        baseline,
        storm,
        recovery_ms,
        post,
    }
}

fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn run_scenario(
    backend: &str,
    mode: &'static str,
    path: &str,
    corpus: &t2v_corpus::Corpus,
    server: &Server,
    clients: usize,
    duration: Duration,
) -> Scenario {
    let addr = server.addr();
    // Attribute the rows to the index that actually served them: the
    // pinned tenant's for `/v1/t/{id}/...` routes, the default tenant's
    // otherwise.
    let index = {
        let state = server.state();
        let table = state.tenants();
        let runtime = path
            .strip_prefix("/v1/t/")
            .and_then(|rest| rest.split('/').next())
            .and_then(|id| table.get(id))
            .unwrap_or(&state.default_tenant);
        runtime.index_kind().label()
    };
    // Working set: enough distinct queries that the prompt cache key space
    // is realistic, few enough that the hot scenario actually re-hits them.
    // Every request names its backend explicitly, exercising the /v1
    // selection path (tenant scenarios additionally pin the tenant route).
    let requests: Vec<Vec<u8>> = corpus
        .dev
        .iter()
        .take(64)
        .map(|ex| {
            let body = Json::obj([
                ("nlq", Json::str(ex.nlq.as_str())),
                ("db", Json::str(corpus.databases[ex.db].id.as_str())),
                ("backend", Json::str(backend)),
            ])
            .compact();
            format!(
                "POST {path} HTTP/1.1\r\nHost: servebench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            )
            .into_bytes()
        })
        .collect();

    let stop = AtomicBool::new(false);
    let total = AtomicU64::new(0);
    let all: Vec<ClientStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let requests = &requests;
                let stop = &stop;
                let total = &total;
                s.spawn(move || client_loop(addr, requests, c, stop, total))
            })
            .collect();
        std::thread::sleep(duration);
        stop.store(true, Ordering::Release);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut latencies: Vec<u64> = Vec::new();
    let (mut ok, mut hits, mut rejected, mut other) = (0u64, 0u64, 0u64, 0u64);
    for c in all {
        latencies.extend(c.latencies_ns);
        ok += c.ok;
        hits += c.cache_hits;
        rejected += c.rejected;
        other += c.other;
    }
    latencies.sort_unstable();
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() as f64 * p).ceil() as usize).clamp(1, latencies.len()) - 1;
        latencies[idx] as f64 / 1e3
    };
    let mean_us = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<u64>() as f64 / latencies.len() as f64 / 1e3
    };
    let n = total.load(Ordering::Relaxed);
    Scenario {
        backend: backend.to_string(),
        mode,
        index,
        requests: n,
        rps: n as f64 / duration.as_secs_f64(),
        p50_us: pct(0.50),
        p95_us: pct(0.95),
        p99_us: pct(0.99),
        mean_us,
        cache_hit_rate: if ok == 0 {
            0.0
        } else {
            hits as f64 / ok as f64
        },
        rejected,
        other_errors: other,
    }
}

fn client_loop(
    addr: std::net::SocketAddr,
    requests: &[Vec<u8>],
    client_id: usize,
    stop: &AtomicBool,
    total: &AtomicU64,
) -> ClientStats {
    let mut stats = ClientStats {
        latencies_ns: Vec::with_capacity(16 * 1024),
        ok: 0,
        cache_hits: 0,
        rejected: 0,
        other: 0,
    };
    let stream = TcpStream::connect(addr).expect("connect to server");
    stream
        .set_read_timeout(Some(Duration::from_secs(70)))
        .unwrap();
    let _ = stream.set_nodelay(true);
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    // Offset each client so they don't march through the working set in
    // lockstep (which would serialise on identical cache keys).
    let mut i = client_id * 7;
    while !stop.load(Ordering::Acquire) {
        let req = &requests[i % requests.len()];
        i += 1;
        let t0 = Instant::now();
        if writer.write_all(req).is_err() {
            break;
        }
        let Some((status, cache_hit)) = read_response(&mut reader) else {
            break;
        };
        stats.latencies_ns.push(t0.elapsed().as_nanos() as u64);
        total.fetch_add(1, Ordering::Relaxed);
        match status {
            200 => {
                stats.ok += 1;
                if cache_hit {
                    stats.cache_hits += 1;
                }
            }
            503 => stats.rejected += 1,
            _ => stats.other += 1,
        }
    }
    stats
}

/// Read one HTTP/1.1 response; returns (status, x-t2v-cache==hit).
fn read_response<R: BufRead>(reader: &mut R) -> Option<(u16, bool)> {
    let mut line = String::new();
    if reader.read_line(&mut line).ok()? == 0 {
        return None;
    }
    let status: u16 = line.split(' ').nth(1)?.parse().ok()?;
    let mut content_length = 0usize;
    let mut cache_hit = false;
    loop {
        line.clear();
        reader.read_line(&mut line).ok()?;
        let trimmed = line.trim_end();
        if trimmed.is_empty() {
            break;
        }
        let (name, value) = trimmed.split_once(':')?;
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().ok()?;
        } else if name.eq_ignore_ascii_case("x-t2v-cache") {
            cache_hit = value.trim() == "hit";
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).ok()?;
    Some((status, cache_hit))
}

fn scenario_json(s: &Scenario) -> Json {
    let round1 = |x: f64| (x * 10.0).round() / 10.0;
    let round3 = |x: f64| (x * 1000.0).round() / 1000.0;
    Json::obj([
        ("index", Json::str(s.index.as_str())),
        ("requests", Json::Num(s.requests as f64)),
        ("rps", Json::Num(round1(s.rps))),
        ("p50_us", Json::Num(round1(s.p50_us))),
        ("p95_us", Json::Num(round1(s.p95_us))),
        ("p99_us", Json::Num(round1(s.p99_us))),
        ("mean_us", Json::Num(round1(s.mean_us))),
        ("cache_hit_rate", Json::Num(round3(s.cache_hit_rate))),
        ("rejected_503", Json::Num(s.rejected as f64)),
        ("other_errors", Json::Num(s.other_errors as f64)),
    ])
}

struct ConcRow {
    connections: usize,
    requests: u64,
    rps: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    mean_us: f64,
    rejected: u64,
    other_errors: u64,
    /// Sockets that failed to connect or died mid-run (client-side view of
    /// sheds, reaps, and resets — zero on a healthy run).
    conn_failures: u64,
}

struct ConcReport {
    /// One row per grid cell, ascending connection count.
    rows: Vec<ConcRow>,
}

/// The open-loop concurrency axis: hold `connections` keep-alive sockets
/// open and sweep a small bounded in-flight set (`clients` driver threads,
/// one blocking request each) round-robin across all of them. Most sockets
/// are idle at any instant — exactly the many-dashboards shape — so the
/// measured quantity is how request latency degrades as the *open socket
/// count* grows.
fn run_concurrency(
    corpus: &t2v_corpus::Corpus,
    clients: usize,
    secs: Duration,
    connections: usize,
) -> ConcReport {
    // Client and server share one process, so every benched connection costs
    // two fds. Clamp to the soft RLIMIT_NOFILE — loudly, never silently —
    // when the requested count cannot fit.
    let connections = match nofile_soft_limit() {
        Some(limit) if connections > limit.saturating_sub(128) / 2 => {
            let usable = limit.saturating_sub(128) / 2;
            println!(
                "servebench: RLIMIT_NOFILE is {limit}; clamping --connections {connections} -> {usable} \
                 (2 fds per benched socket + headroom)"
            );
            usable.max(1)
        }
        _ => connections,
    };
    let grid: Vec<usize> = {
        let mut g: Vec<usize> = [100, 1000, connections]
            .into_iter()
            .filter(|&c| c > 0 && c <= connections)
            .collect();
        g.sort_unstable();
        g.dedup();
        g
    };
    println!(
        "servebench: open-loop concurrency axis — {} sockets grid {:?}, {clients} in flight",
        connections, grid
    );
    let mut config = ServeConfig::default();
    config.set("addr", "127.0.0.1:0").unwrap();
    config.set("backends", "gred").unwrap();
    config
        .set("max_connections", &(connections + 128).to_string())
        .unwrap();
    let state =
        Arc::new(ServerState::from_corpus(corpus, config).expect("concurrency axis state builds"));
    let mut rows = Vec::with_capacity(grid.len());
    for &count in &grid {
        // Fresh server per cell: connection gauges start from zero and
        // a straggler socket from the previous cell can't leak in.
        let server = Server::spawn(Arc::clone(&state)).expect("bind loopback");
        rows.push(run_concurrency_cell(corpus, &server, clients, secs, count));
        server.shutdown();
    }
    ConcReport { rows }
}

fn run_concurrency_cell(
    corpus: &t2v_corpus::Corpus,
    server: &Server,
    clients: usize,
    secs: Duration,
    connections: usize,
) -> ConcRow {
    let addr = server.addr();
    let requests: Vec<Vec<u8>> = corpus
        .dev
        .iter()
        .take(64)
        .map(|ex| {
            let body = Json::obj([
                ("nlq", Json::str(ex.nlq.as_str())),
                ("db", Json::str(corpus.databases[ex.db].id.as_str())),
                ("backend", Json::str("gred")),
            ])
            .compact();
            format!(
                "POST /v1/translate HTTP/1.1\r\nHost: servebench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
                body.len(),
                body
            )
            .into_bytes()
        })
        .collect();

    let drivers = clients.clamp(1, connections);
    let stop = AtomicBool::new(false);
    // The timed window opens only after *every* socket is established —
    // connect cost must not eat into the measurement.
    let ready = std::sync::Barrier::new(drivers + 1);
    let all: Vec<(ClientStats, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..drivers)
            .map(|d| {
                let requests = &requests;
                let stop = &stop;
                let ready = &ready;
                // Driver d owns sockets d, d+drivers, d+2*drivers, ...
                let share = connections / drivers + usize::from(d < connections % drivers);
                s.spawn(move || open_loop_driver(addr, requests, d, share, stop, ready))
            })
            .collect();
        ready.wait();
        std::thread::sleep(secs);
        stop.store(true, Ordering::Release);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut latencies: Vec<u64> = Vec::new();
    let (mut ok, mut rejected, mut other, mut conn_failures) = (0u64, 0u64, 0u64, 0u64);
    for (c, failures) in all {
        latencies.extend(c.latencies_ns);
        ok += c.ok;
        rejected += c.rejected;
        other += c.other;
        conn_failures += failures;
    }
    latencies.sort_unstable();
    let pct = |p: f64| -> f64 {
        if latencies.is_empty() {
            return 0.0;
        }
        let idx = ((latencies.len() as f64 * p).ceil() as usize).clamp(1, latencies.len()) - 1;
        latencies[idx] as f64 / 1e3
    };
    let n = ok + rejected + other;
    let row = ConcRow {
        connections,
        requests: n,
        rps: n as f64 / secs.as_secs_f64(),
        p50_us: pct(0.50),
        p95_us: pct(0.95),
        p99_us: pct(0.99),
        mean_us: if latencies.is_empty() {
            0.0
        } else {
            latencies.iter().sum::<u64>() as f64 / latencies.len() as f64 / 1e3
        },
        rejected,
        other_errors: other,
        conn_failures,
    };
    println!(
        "  c{connections}: {:.0} req/s over {} sockets (p99 {:.1} µs, {} failures)",
        row.rps, connections, row.p99_us, conn_failures
    );
    row
}

/// The process's soft open-file limit, from `/proc/self/limits` (the axis
/// is Linux-only already — the event driver is epoll). `None` when the file
/// is unreadable or unparseable.
fn nofile_soft_limit() -> Option<usize> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

/// One open-loop driver thread: establish `share` keep-alive sockets, then
/// cycle through them forever, one blocking request at a time, so every
/// socket sees traffic while the rest stay parked on the server.
fn open_loop_driver(
    addr: std::net::SocketAddr,
    requests: &[Vec<u8>],
    driver_id: usize,
    share: usize,
    stop: &AtomicBool,
    ready: &std::sync::Barrier,
) -> (ClientStats, u64) {
    let mut stats = ClientStats {
        latencies_ns: Vec::with_capacity(4096),
        ok: 0,
        cache_hits: 0,
        rejected: 0,
        other: 0,
    };
    let mut failures = 0u64;
    let mut socks: Vec<Option<TcpStream>> = Vec::with_capacity(share);
    for _ in 0..share {
        match TcpStream::connect(addr) {
            Ok(s) => {
                let _ = s.set_read_timeout(Some(Duration::from_secs(70)));
                let _ = s.set_nodelay(true);
                socks.push(Some(s));
            }
            Err(_) => {
                failures += 1;
                socks.push(None);
            }
        }
    }
    ready.wait();
    let mut i = driver_id * 13;
    let mut slot = 0usize;
    while !stop.load(Ordering::Acquire) && !socks.is_empty() {
        let idx = slot % socks.len();
        slot += 1;
        let Some(stream) = socks[idx].as_mut() else {
            // A dead slot: reconnect so the target socket count recovers.
            match TcpStream::connect(addr) {
                Ok(s) => {
                    let _ = s.set_read_timeout(Some(Duration::from_secs(70)));
                    let _ = s.set_nodelay(true);
                    socks[idx] = Some(s);
                }
                Err(_) => failures += 1,
            }
            continue;
        };
        let req = &requests[i % requests.len()];
        i += 1;
        let t0 = Instant::now();
        if stream.write_all(req).is_err() {
            failures += 1;
            socks[idx] = None;
            continue;
        }
        // One response is outstanding on this socket and nothing else, so a
        // throwaway buffered reader never strands bytes between requests.
        let mut reader = BufReader::with_capacity(4096, &*stream);
        let Some((status, cache_hit)) = read_response(&mut reader) else {
            failures += 1;
            socks[idx] = None;
            continue;
        };
        stats.latencies_ns.push(t0.elapsed().as_nanos() as u64);
        match status {
            200 => {
                stats.ok += 1;
                if cache_hit {
                    stats.cache_hits += 1;
                }
            }
            503 => stats.rejected += 1,
            _ => stats.other += 1,
        }
    }
    (stats, failures)
}

/// Merge the `serving` section into the perf report, leaving everything else
/// (perfsnap's sections) untouched. The first benched backend's hot/cold
/// rows keep the original top-level layout (the ROADMAP reference numbers);
/// every backend additionally gets a row under `serving.backends.<id>`, the
/// `--tenants` axis writes per-tenant rows under `serving.tenants.<id>`, and
/// `--chaos` writes fault-storm rows under `serving.chaos`. Axes that did
/// not run this invocation keep their rows from the previous report.
/// The axes a servebench invocation actually measured; everything left at
/// `Default` is preserved from the prior report rather than overwritten.
#[derive(Default)]
struct MergeSections<'a> {
    scenarios: &'a [Scenario],
    tenant_scenarios: &'a [(String, Scenario)],
    chaos: Option<&'a ChaosReport>,
    trace: Option<&'a TraceReport>,
    /// The `--obs` axis reuses the trace-report shape (off/on/overhead).
    obs: Option<&'a TraceReport>,
    concurrency: Option<&'a ConcReport>,
}

fn merge_report(out_path: &str, clients: usize, secs: u64, sections: MergeSections<'_>) {
    let MergeSections {
        scenarios,
        tenant_scenarios,
        chaos,
        trace,
        obs,
        concurrency,
    } = sections;
    let mut doc = std::fs::read_to_string(out_path)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .unwrap_or_else(|| Json::Obj(Default::default()));
    let mut serving = Json::obj([
        ("clients", Json::Num(clients as f64)),
        ("secs_per_scenario", Json::Num(secs as f64)),
        ("threads", Json::Num(t2v_parallel::thread_count() as f64)),
        (
            "build",
            Json::obj([
                ("version", Json::str(env!("CARGO_PKG_VERSION"))),
                ("git", Json::str(t2v_bench::git_describe())),
            ]),
        ),
    ]);
    if let Some(first) = scenarios.first() {
        for s in scenarios.iter().filter(|s| s.backend == first.backend) {
            serving.set(s.mode, scenario_json(s));
        }
        let mut backends = Json::Obj(Default::default());
        for s in scenarios {
            let mut row = match backends.get(&s.backend) {
                Some(existing) => existing.clone(),
                None => Json::Obj(Default::default()),
            };
            row.set(s.mode, scenario_json(s));
            backends.set(&s.backend, row);
        }
        serving.set("backends", backends);
    } else if let Some(prior) = doc.get("serving") {
        // A --chaos-only run: keep the load axes from the previous report.
        for key in ["hot", "cold", "backends"] {
            if let Some(v) = prior.get(key) {
                serving.set(key, v.clone());
            }
        }
    }
    if tenant_scenarios.is_empty() {
        // Keep the previous run's tenant rows — reruns without --tenants
        // must not erase the axis.
        if let Some(prior) = doc.get("serving").and_then(|s| s.get("tenants")) {
            serving.set("tenants", prior.clone());
        }
    } else {
        let mut tenants = Json::Obj(Default::default());
        for (tenant, s) in tenant_scenarios {
            let mut row = match tenants.get(tenant) {
                Some(existing) => existing.clone(),
                None => Json::Obj(Default::default()),
            };
            row.set(s.mode, scenario_json(s));
            tenants.set(tenant, row);
        }
        serving.set("tenants", tenants);
    }
    match chaos {
        Some(report) => {
            let round1 = |x: f64| (x * 10.0).round() / 10.0;
            let phase = |s: &Scenario| {
                let mut row = scenario_json(s);
                row.set(
                    "error_rate",
                    Json::Num((error_rate(s) * 1000.0).round() / 1000.0),
                );
                row
            };
            serving.set(
                "chaos",
                Json::obj([
                    ("baseline", phase(&report.baseline)),
                    ("storm", phase(&report.storm)),
                    ("recovery_ms", Json::Num(round1(report.recovery_ms))),
                    ("post", phase(&report.post)),
                ]),
            );
        }
        None => {
            if let Some(prior) = doc.get("serving").and_then(|s| s.get("chaos")) {
                serving.set("chaos", prior.clone());
            }
        }
    }
    match trace {
        Some(report) => {
            let round1 = |x: f64| (x * 10.0).round() / 10.0;
            let mut rows = Json::Obj(Default::default());
            for row in &report.rows {
                rows.set(
                    row.mode,
                    Json::obj([
                        ("recorder_off", scenario_json(&row.off)),
                        ("recorder_on", scenario_json(&row.on)),
                        ("overhead_pct", Json::Num(round1(row.overhead_pct))),
                    ]),
                );
            }
            serving.set("trace_overhead", rows);
        }
        None => {
            if let Some(prior) = doc.get("serving").and_then(|s| s.get("trace_overhead")) {
                serving.set("trace_overhead", prior.clone());
            }
        }
    }
    match obs {
        Some(report) => {
            let round1 = |x: f64| (x * 10.0).round() / 10.0;
            let mut rows = Json::Obj(Default::default());
            for row in &report.rows {
                rows.set(
                    row.mode,
                    Json::obj([
                        ("obs_off", scenario_json(&row.off)),
                        ("obs_on", scenario_json(&row.on)),
                        ("overhead_pct", Json::Num(round1(row.overhead_pct))),
                    ]),
                );
            }
            serving.set("obs_overhead", rows);
        }
        None => {
            if let Some(prior) = doc.get("serving").and_then(|s| s.get("obs_overhead")) {
                serving.set("obs_overhead", prior.clone());
            }
        }
    }
    match concurrency {
        Some(report) => {
            let round1 = |x: f64| (x * 10.0).round() / 10.0;
            let mut cells = Json::Obj(Default::default());
            for row in &report.rows {
                cells.set(
                    &format!("c{}", row.connections),
                    Json::obj([
                        ("connections", Json::Num(row.connections as f64)),
                        ("requests", Json::Num(row.requests as f64)),
                        ("rps", Json::Num(round1(row.rps))),
                        ("p50_us", Json::Num(round1(row.p50_us))),
                        ("p95_us", Json::Num(round1(row.p95_us))),
                        ("p99_us", Json::Num(round1(row.p99_us))),
                        ("mean_us", Json::Num(round1(row.mean_us))),
                        ("rejected_503", Json::Num(row.rejected as f64)),
                        ("other_errors", Json::Num(row.other_errors as f64)),
                        ("conn_failures", Json::Num(row.conn_failures as f64)),
                    ]),
                );
            }
            // The whole section is replaced, under the path the rows have
            // had since they were first recorded (`concurrency.event`).
            serving.set("concurrency", Json::obj([("event", cells)]));
        }
        None => {
            if let Some(prior) = doc.get("serving").and_then(|s| s.get("concurrency")) {
                serving.set("concurrency", prior.clone());
            }
        }
    }
    doc.set("serving", serving);
    let mut text = doc.pretty();
    text.push('\n');
    std::fs::write(out_path, text).expect("write perf report");
}
