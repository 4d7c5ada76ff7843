//! `serve_hot` and `serve_miss`: the server in this process, one or two
//! closed-loop keep-alive clients against it over loopback.

use crate::client::{prom_value, Conn};
use crate::inputs::{self, Request, TextInputs};
use crate::procfs::{Group, LOADGEN_PREFIX};
use crate::runner::{self, Timed, WindowLog};
use crate::spans::{self, ServerTrace, Span, SpanBuf};
use crate::stats;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};
use t2v_engine::Json;
use t2v_serve::{translate_body, ServeConfig, Server, ServerState};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 64 questions cycled under the default 4096-entry cache.
    Hot,
    /// A scan over every distinct question under a 256-entry cache.
    Miss,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Hot => "serve_hot",
            Kind::Miss => "serve_miss",
        }
    }

    pub fn cache_capacity(self) -> usize {
        match self {
            Kind::Hot => ServeConfig::default().cache_capacity,
            Kind::Miss => 256,
        }
    }
}

/// One in 64 responses is compared with the oracle while timing.
const CHECK_EVERY: u64 = 64;

/// Traced responses kept per client; the traced phase ends there if the
/// clock has not ended it first.
const MAX_TRACED_OPS: usize = 8192;

/// A booted server with the inputs it serves.
pub struct Setup {
    pub inputs: TextInputs,
    pub requests: Vec<Request>,
    pub state: Arc<ServerState>,
    pub server: Server,
    pub setup_s: f64,
}

/// Everything before warm-up: corpus and rob generation, library and backend
/// build, server spawn.
pub fn set_up(kind: Kind, seed: u64) -> Result<Setup, String> {
    let t = Instant::now();
    let inputs = inputs::text_inputs(seed);
    let requests = match kind {
        Kind::Hot => inputs::hot_requests(&inputs),
        Kind::Miss => inputs::miss_requests(&inputs),
    };
    let mut config = ServeConfig::default();
    let knob = |config: &mut ServeConfig, k: &str, v: &str| {
        config
            .set(k, v)
            .map_err(|e| format!("config {k}={v}: {}", e.message))
    };
    knob(&mut config, "addr", "127.0.0.1:0")?;
    knob(&mut config, "backends", "gred")?;
    knob(
        &mut config,
        "cache_capacity",
        &kind.cache_capacity().to_string(),
    )?;
    let state = Arc::new(
        ServerState::from_corpus(&inputs.corpus, config)
            .map_err(|e| format!("server state: {e}"))?,
    );
    let server = Server::spawn(Arc::clone(&state)).map_err(|e| format!("server spawn: {e}"))?;
    Ok(Setup {
        inputs,
        requests,
        state,
        server,
        setup_s: t.elapsed().as_secs_f64(),
    })
}

impl Setup {
    /// What the server must answer to each request: the same pipeline run
    /// in-process with direct retrieval — no socket, cache, pool or batcher.
    pub fn oracle(&self) -> Result<Vec<Vec<u8>>, String> {
        t2v_parallel::par_map(&self.requests, |r| {
            let entry = self
                .state
                .dbs
                .get(&r.db)
                .ok_or_else(|| format!("database '{}' is not in the server catalog", r.db))?;
            Ok(translate_body(
                &self.state.gred,
                "gred",
                &r.nlq,
                entry,
                false,
            ))
        })
        .into_iter()
        .collect()
    }
}

/// The server's own counters, scraped from `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    pub hits: f64,
    pub misses: f64,
    pub rejected: f64,
    pub batches: f64,
    pub batched_lookups: f64,
    pub queue_wait_sum_s: f64,
    pub queue_wait_count: f64,
}

impl Counters {
    pub fn parse(text: &str) -> Result<Counters, String> {
        let v =
            |name: &str| prom_value(text, name).ok_or_else(|| format!("/metrics has no {name}"));
        Ok(Counters {
            hits: v("t2v_cache_hits_total")?,
            misses: v("t2v_cache_misses_total")?,
            rejected: v("t2v_rejected_total")?,
            batches: v("t2v_batches_total")?,
            batched_lookups: v("t2v_batched_lookups_total")?,
            queue_wait_sum_s: v("t2v_queue_wait_seconds_sum")?,
            queue_wait_count: v("t2v_queue_wait_seconds_count")?,
        })
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            rejected: self.rejected - earlier.rejected,
            batches: self.batches - earlier.batches,
            batched_lookups: self.batched_lookups - earlier.batched_lookups,
            queue_wait_sum_s: self.queue_wait_sum_s - earlier.queue_wait_sum_s,
            queue_wait_count: self.queue_wait_count - earlier.queue_wait_count,
        }
    }

    pub fn to_json(self) -> Json {
        Json::obj([
            ("cache_hits", Json::Num(self.hits)),
            ("cache_misses", Json::Num(self.misses)),
            ("rejected", Json::Num(self.rejected)),
            ("batches", Json::Num(self.batches)),
            ("batched_lookups", Json::Num(self.batched_lookups)),
            ("queue_wait_sum_s", Json::Num(self.queue_wait_sum_s)),
            ("queue_wait_count", Json::Num(self.queue_wait_count)),
        ])
    }

    pub fn hit_share(&self) -> f64 {
        ratio(self.hits, self.hits + self.misses)
    }
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The cache-hit share each workload must show to be the workload it says
/// it is.
pub fn hit_share_ok(kind: Kind, share: f64) -> bool {
    match kind {
        Kind::Hot => share >= 0.99,
        Kind::Miss => share <= 0.02,
    }
}

/// `/v1/admin/status` must say the default tenant retrieves by flat scan.
pub fn index_label(status: &str) -> Result<String, String> {
    let doc = Json::parse(status).map_err(|e| format!("/v1/admin/status: {e:?}"))?;
    doc.get("tenants")
        .and_then(Json::as_arr)
        .and_then(|t| t.first())
        .and_then(|t| t.get("index"))
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| "/v1/admin/status names no tenant index".to_string())
}

/// Send every request once, split over `clients` connections, and compare
/// each reply with the oracle. Doubles as the warm-up: it leaves the cache
/// full.
pub fn precheck(
    addr: SocketAddr,
    requests: &[Request],
    expected: &[Vec<u8>],
    clients: usize,
) -> Result<Check, String> {
    let parts: Vec<Result<Check, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                std::thread::Builder::new()
                    .name(format!("{}-{c}", client_name()))
                    .spawn_scoped(scope, move || {
                        let mut conn =
                            Conn::connect(addr).map_err(|e| format!("precheck connect: {e}"))?;
                        let mut check = Check::default();
                        for (r, want) in requests.iter().zip(expected).skip(c).step_by(clients) {
                            check.attempted += 1;
                            match conn.roundtrip(&r.wire) {
                                Ok(200) => check.compare(&conn.body, want),
                                Ok(_) => check.failed += 1,
                                Err(e) => return Err(format!("precheck: {e}")),
                            }
                        }
                        Ok(check)
                    })
                    .expect("spawn precheck thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("precheck thread panicked".to_string()))
            })
            .collect()
    });
    let mut all = Check::default();
    for part in parts {
        all.merge(&part?);
    }
    Ok(all)
}

/// Outcome of comparing replies with the oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Check {
    pub attempted: u64,
    /// Refused, errored, or not the oracle's answer.
    pub failed: u64,
    pub compared: u64,
    pub equal: u64,
}

impl Check {
    fn compare(&mut self, got: &[u8], want: &[u8]) {
        self.compared += 1;
        if got == want {
            self.equal += 1;
        } else {
            self.failed += 1;
        }
    }

    pub fn merge(&mut self, other: &Check) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.compared += other.compared;
        self.equal += other.equal;
    }

    pub fn quality(&self) -> f64 {
        ratio(self.equal as f64, self.compared as f64)
    }
}

/// Which requests each client cycles. Hot: everyone cycles the whole working
/// set, offset so they do not march in lockstep. Miss: the scan is
/// partitioned, so no client warms another's keys.
pub fn partition(kind: Kind, requests: usize, clients: usize) -> Vec<Vec<usize>> {
    (0..clients)
        .map(|c| match kind {
            Kind::Hot => (0..requests).map(|i| (i + c * 7) % requests).collect(),
            Kind::Miss => (0..requests).filter(|i| i % clients == c).collect(),
        })
        .collect()
}

/// Requests each client sends before the clock starts. The pre-check has
/// already filled the cache; this only warms the connection and, on Hot,
/// passes once over the working set.
const WARM_UP_OPS: usize = 64;

/// What one client brings back besides its window log.
pub struct ClientOut {
    pub check: Check,
    /// Position in the client's cycle after its last op, for a phase that
    /// follows.
    pub next: usize,
}

/// Timed, untraced traffic plus the server's counters over the same phase.
pub struct Measured {
    pub timed: Timed<ClientOut>,
    pub counters: Counters,
}

impl Measured {
    pub fn check(&self) -> Check {
        let mut all = Check::default();
        for w in &self.timed.workers {
            all.merge(&w.check);
        }
        all
    }
}

/// A fresh connection per scrape: the server reaps one left idle through a
/// whole phase.
fn scrape(addr: SocketAddr) -> Result<Counters, String> {
    let mut admin = Conn::connect(addr).map_err(|e| format!("admin connect: {e}"))?;
    Counters::parse(
        &admin
            .get("/metrics")
            .map_err(|e| format!("/metrics: {e}"))?,
    )
}

fn client_name() -> String {
    format!("{LOADGEN_PREFIX}client")
}

/// Run the closed loop for `windows × window`, one client per cycle of
/// [`partition`].
pub fn measure(
    setup: &Setup,
    kind: Kind,
    expected: &[Vec<u8>],
    clients: usize,
    windows: usize,
    window: Duration,
) -> Result<Measured, String> {
    let addr = setup.server.addr();
    let requests = &setup.requests;
    let cycles = partition(kind, requests.len(), clients);
    let before = scrape(addr)?;
    let timed = runner::run(
        &client_name(),
        clients,
        windows,
        window,
        |id| {
            let mut conn = Conn::connect(addr).map_err(|e| format!("client {id} connect: {e}"))?;
            let warm = cycles[id].len().min(WARM_UP_OPS);
            for &i in &cycles[id][..warm] {
                conn.roundtrip(&requests[i].wire)
                    .map_err(|e| format!("client {id} warm-up: {e}"))?;
            }
            Ok((conn, warm))
        },
        |id, (mut conn, warm), clock| {
            let cycle = &cycles[id];
            let mut log = WindowLog::new(windows, 1 << 18);
            let mut out = ClientOut {
                check: Check::default(),
                next: warm,
            };
            for n in 0u64.. {
                let i = cycle[out.next % cycle.len()];
                let t0 = Instant::now();
                let status = conn.roundtrip(&requests[i].wire);
                let t1 = Instant::now();
                let Some(k) = clock.window_of(t1) else {
                    break;
                };
                out.check.attempted += 1;
                let failed_before = out.check.failed;
                match status {
                    Ok(200) if n % CHECK_EVERY == 0 => out.check.compare(&conn.body, &expected[i]),
                    Ok(200) => {}
                    _ => out.check.failed += 1,
                }
                log.record(
                    k,
                    out.check.failed == failed_before,
                    t1.duration_since(t0).as_nanos() as u64,
                );
                // A broken connection cannot carry the next request.
                status.map_err(|e| format!("client {id}: {e}"))?;
                out.next += 1;
            }
            Ok((log, out))
        },
    )?;
    let counters = scrape(addr)?.since(&before);
    Ok(Measured { timed, counters })
}

/// One traced reply as it came off the wire.
struct RawTraced {
    request: usize,
    t0_ns: u64,
    t1_ns: u64,
    body: Vec<u8>,
}

/// What the traced phase yields.
pub struct Traced {
    pub spans: SpanBuf,
    /// Client-side latency of every traced op, nanoseconds.
    pub latencies_ns: Vec<u64>,
    pub traces: Vec<ServerTrace>,
    pub check: Check,
    /// `resp.write` spans fetched from the flight recorder (the inline tree
    /// is sealed before the write it rides in).
    pub resp_write_ns: Vec<u64>,
}

/// Split a traced body into the plain body and its `"trace"` object. The
/// server splices `,"trace":{...}` before the closing brace, after the cache.
pub fn split_traced_body(body: &[u8]) -> Result<(Vec<u8>, Json), String> {
    const MARK: &[u8] = b",\"trace\":";
    let at = body
        .windows(MARK.len())
        .rposition(|w| w == MARK)
        .ok_or("traced reply carries no trace")?;
    let tree = std::str::from_utf8(&body[at + MARK.len()..body.len() - 1])
        .map_err(|_| "trace is not UTF-8".to_string())?;
    let mut plain = body[..at].to_vec();
    plain.push(b'}');
    Ok((
        plain,
        Json::parse(tree).map_err(|e| format!("trace JSON: {e:?}"))?,
    ))
}

/// The same closed loop with `X-T2V-Trace: 1` on every request, one client
/// per entry of `resume_at`, for `duration` or [`MAX_TRACED_OPS`] each.
pub fn traced(
    setup: &Setup,
    kind: Kind,
    expected: &[Vec<u8>],
    resume_at: &[usize],
    duration: Duration,
) -> Result<Traced, String> {
    let addr = setup.server.addr();
    let requests = &setup.requests;
    let clients = resume_at.len();
    let cycles = partition(kind, requests.len(), clients);
    let timed = runner::run(
        &client_name(),
        clients,
        1,
        duration,
        |id| Conn::connect(addr).map_err(|e| format!("client {id} connect: {e}")),
        |id, mut conn, clock| {
            let mut log = WindowLog::new(1, MAX_TRACED_OPS);
            let mut raw = Vec::with_capacity(MAX_TRACED_OPS);
            // Resume the untraced phase's cycle, so Miss stays a scan.
            for n in 0..MAX_TRACED_OPS {
                let i = cycles[id][(resume_at[id] + n) % cycles[id].len()];
                let t0 = Instant::now();
                let status = conn
                    .roundtrip(&requests[i].wire_traced)
                    .map_err(|e| format!("client {id}: {e}"))?;
                let t1 = Instant::now();
                let Some(k) = clock.window_of(t1) else {
                    break;
                };
                log.record(k, status == 200, t1.duration_since(t0).as_nanos() as u64);
                raw.push(RawTraced {
                    request: i,
                    t0_ns: t0.duration_since(clock.start()).as_nanos() as u64,
                    t1_ns: t1.duration_since(clock.start()).as_nanos() as u64,
                    body: if status == 200 {
                        conn.body.clone()
                    } else {
                        Vec::new()
                    },
                });
            }
            Ok((log, raw))
        },
    )?;

    let mut out = Traced {
        spans: SpanBuf::with_capacity(clients * MAX_TRACED_OPS * (2 + t2v_trace::MAX_SPANS)),
        latencies_ns: Vec::new(),
        traces: Vec::new(),
        check: Check::default(),
        resp_write_ns: Vec::new(),
    };
    let mut op = 0u64;
    // When each kept trace's reply arrived, parallel to `out.traces`.
    let mut arrived_ns = Vec::new();
    for client in timed.workers {
        for r in client {
            op += 1;
            out.check.attempted += 1;
            if r.body.is_empty() {
                out.check.failed += 1;
                continue;
            }
            let (plain, tree) = split_traced_body(&r.body)?;
            out.check.compare(&plain, &expected[r.request]);
            let trace = spans::parse_server_trace(&tree)?;
            let root = out.spans.push(Span {
                op,
                name: spans::ROOT,
                start_ns: r.t0_ns,
                end_ns: r.t1_ns,
                parent: None,
            });
            if let Some(root) = root {
                spans::attach_server_trace(&mut out.spans, op, root, &trace);
            }
            out.latencies_ns.push(r.t1_ns - r.t0_ns);
            arrived_ns.push(r.t1_ns);
            out.traces.push(trace);
        }
    }

    // The newest traces are still in the flight recorder; their stored copy
    // has the resp.write span the inline copy cannot. Newest over all
    // clients: the recorder keeps a short ring per storing thread, so a
    // client that ran on after another had stopped has pushed the other's
    // traces out.
    let mut admin = Conn::connect(addr).map_err(|e| format!("admin connect: {e}"))?;
    let keep = setup.state.config.trace_buffer.min(256);
    for i in newest_first(&arrived_ns).into_iter().take(keep) {
        let Ok(text) = admin.get(&format!("/v1/admin/trace/{}", out.traces[i].id)) else {
            continue; // evicted already
        };
        let stored = Json::parse(&text)
            .map_err(|e| format!("stored trace JSON: {e:?}"))
            .and_then(|j| spans::parse_server_trace(&j))?;
        out.resp_write_ns.push(stored.stage_ns("serve.resp.write"));
    }
    Ok(out)
}

/// Indices of `arrived_ns`, latest arrival first.
fn newest_first(arrived_ns: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..arrived_ns.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(arrived_ns[i]));
    order
}

/// Per-layer numbers read off the server's surfaces during an untraced phase
/// and a traced one.
pub fn layer_metrics(
    reference: &Measured,
    traced: &Traced,
    out: &mut std::collections::BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let ops = reference.timed.ok_ops() as f64;
    let us_per_op = |ns: u64| ratio(ns as f64 / 1e3, ops);
    let cpu = &reference.timed.cpu_total;
    out.insert(
        "loadgen.cpu_us_per_op",
        us_per_op(cpu.group(Group::Loadgen)),
    );
    out.insert(
        "serve.event_cpu_us_per_op",
        us_per_op(cpu.group(Group::Event)),
    );
    out.insert(
        "serve.dispatch_cpu_us_per_op",
        us_per_op(cpu.group(Group::Dispatch)),
    );
    out.insert(
        "serve.worker_cpu_us_per_op",
        us_per_op(cpu.group(Group::Worker)),
    );
    out.insert(
        "serve.batcher_cpu_us_per_op",
        us_per_op(cpu.group(Group::Batcher)),
    );
    out.insert("obs.cpu_us_per_op", us_per_op(cpu.group(Group::Obs)));
    out.insert(
        "parallel.transient_cpu_us_per_op",
        us_per_op(cpu.transient_ns),
    );

    let c = &reference.counters;
    out.insert("serve.cache.hit_share", c.hit_share());
    out.insert(
        "serve.batch.lookups_per_batch",
        ratio(c.batched_lookups, c.batches),
    );
    out.insert(
        "serve.queue_wait_mean_us",
        ratio(c.queue_wait_sum_s * 1e6, c.queue_wait_count),
    );
    out.insert(
        "serve.rejected_share",
        ratio(c.rejected, c.hits + c.misses + c.rejected),
    );

    let p50_us = |samples: &[u64]| stats::median_ns(samples).map(|ns| ns / 1e3);
    let stage =
        |name: &str| -> Vec<u64> { traced.traces.iter().map(|t| t.stage_ns(name)).collect() };
    for (metric, span) in [
        ("serve.stage.conn_read_us", "serve.conn.read"),
        ("serve.stage.queue_wait_us", "serve.queue.wait"),
        ("serve.stage.cache_lookup_us", "serve.cache.lookup"),
        ("serve.stage.embed_us", "embed.embed"),
        ("serve.stage.retrieve_us", "embed.retrieve"),
        ("serve.stage.backend_translate_us", "gred.translate"),
    ] {
        out.insert(metric, p50_us(&stage(span)).ok_or("no traced op")?);
    }
    let write_us = p50_us(&traced.resp_write_ns).ok_or("the flight recorder kept no traced op")?;
    out.insert("serve.stage.resp_write_us", write_us);
    // Per op: what the root's children (plus the write that follows the
    // sealed tree) leave of the client's wall time.
    let shares: Vec<f64> = traced
        .traces
        .iter()
        .zip(&traced.latencies_ns)
        .map(|(t, &client_ns)| 1.0 - (t.top_level_ns() as f64 + write_us * 1e3) / client_ns as f64)
        .collect();
    out.insert(
        "serve.stage.unattributed_share",
        stats::median(&shares).ok_or("no traced op")?,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_clients_share_the_set_and_miss_clients_split_it() {
        let hot = partition(Kind::Hot, 64, 2);
        assert_eq!(hot[0].len(), 64);
        assert_eq!(hot[1][0], 7);
        let mut sorted = hot[1].clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        let miss = partition(Kind::Miss, 9, 2);
        assert_eq!(miss, vec![vec![0, 2, 4, 6, 8], vec![1, 3, 5, 7]]);
        assert_eq!(partition(Kind::Miss, 5, 1), vec![vec![0, 1, 2, 3, 4]]);
    }

    #[test]
    fn hit_share_guards_sit_on_the_right_side_of_each_workload() {
        assert!(hit_share_ok(Kind::Hot, 0.995));
        assert!(!hit_share_ok(Kind::Hot, 0.98));
        assert!(hit_share_ok(Kind::Miss, 0.0));
        assert!(!hit_share_ok(Kind::Miss, 0.05));
    }

    #[test]
    fn counters_come_from_metrics_text_and_subtract() {
        let text = |hits: u32, misses: u32| {
            format!(
                "t2v_cache_hits_total {hits}\nt2v_cache_misses_total {misses}\nt2v_rejected_total 0\n\
                 t2v_batches_total 4\nt2v_batched_lookups_total 6\n\
                 t2v_queue_wait_seconds_sum 0.5\nt2v_queue_wait_seconds_count 10\n"
            )
        };
        let a = Counters::parse(&text(10, 10)).unwrap();
        let b = Counters::parse(&text(109, 11)).unwrap();
        let d = b.since(&a);
        assert_eq!((d.hits, d.misses), (99.0, 1.0));
        assert_eq!(d.hit_share(), 0.99);
        assert_eq!(Counters::default().hit_share(), 0.0);
        assert!(Counters::parse("t2v_cache_hits_total 1\n")
            .unwrap_err()
            .contains("t2v_cache_misses_total"));
    }

    #[test]
    fn status_document_yields_the_index_label() {
        let status = r#"{"tenants":[{"id":"default","index":"flat","rows":6100}]}"#;
        assert_eq!(index_label(status).unwrap(), "flat");
        assert!(index_label(r#"{"tenants":[]}"#).is_err());
    }

    #[test]
    fn traced_body_splits_into_the_cached_bytes_and_the_tree() {
        let body =
            br#"{"dvq":"Visualize BAR","nlq":"a ,\"trace\": b","trace":{"id":"x","spans":[]}}"#;
        let (plain, tree) = split_traced_body(body).unwrap();
        assert_eq!(plain, br#"{"dvq":"Visualize BAR","nlq":"a ,\"trace\": b"}"#);
        assert_eq!(tree.get("id").and_then(Json::as_str), Some("x"));
        assert!(split_traced_body(br#"{"dvq":null}"#).is_err());
    }

    #[test]
    fn recorder_lookups_start_with_the_latest_reply_of_any_client() {
        // Client 0 (first three) ran on after client 1 (last two) had stopped.
        assert_eq!(newest_first(&[10, 30, 50, 20, 40]), vec![2, 4, 1, 3, 0]);
        assert!(newest_first(&[]).is_empty());
    }

    #[test]
    fn a_wrong_answer_is_a_failed_op_and_lowers_quality() {
        let mut c = Check {
            attempted: 2,
            ..Check::default()
        };
        c.compare(b"same", b"same");
        c.compare(b"got", b"want");
        assert_eq!((c.failed, c.compared, c.equal), (1, 2, 1));
        assert_eq!(c.quality(), 0.5);
    }
}
