//! Ops-plane integration tests: a real loopback server with the sampler,
//! SLO engine, and stage profiler running. Fault arming is process-global
//! and so is the trace stack-export flag, so every test serialises on the
//! `FAULTS` lock and disarms on drop (the failure_domains.rs discipline).

use std::collections::HashMap;
use std::io::{BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use t2v_corpus::{generate, CorpusConfig};
use t2v_engine::Json;
use t2v_serve::{ServeConfig, Server, ServerState};

static FAULTS: Mutex<()> = Mutex::new(());

/// Holds the global fault lock for one test and guarantees the plan is
/// disarmed however the test exits.
struct FaultSession(#[allow(dead_code)] MutexGuard<'static, ()>);

impl FaultSession {
    fn begin() -> FaultSession {
        FaultSession(FAULTS.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl Drop for FaultSession {
    fn drop(&mut self) {
        t2v_fault::disarm();
    }
}

struct Reply {
    status: u16,
    body: Vec<u8>,
}

impl Reply {
    fn json(&self) -> Json {
        Json::parse(std::str::from_utf8(&self.body).expect("UTF-8 body")).expect("JSON body")
    }

    fn text(&self) -> String {
        String::from_utf8(self.body.clone()).expect("UTF-8 body")
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(server: &Server) -> Client {
        let stream = TcpStream::connect(server.addr()).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> Reply {
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer
            .write_all(raw.as_bytes())
            .expect("write request");
        self.read_reply().expect("read response")
    }

    fn translate(&mut self, nlq: &str, db: &str) -> Reply {
        let body = Json::obj([
            ("nlq", Json::str(nlq)),
            ("db", Json::str(db)),
            ("backend", Json::str("gred")),
        ])
        .compact();
        self.request("POST", "/v1/translate", &body)
    }

    fn read_reply(&mut self) -> Option<Reply> {
        use std::io::BufRead as _;
        let mut line = String::new();
        if self.reader.read_line(&mut line).ok()? == 0 {
            return None;
        }
        let status: u16 = line.split(' ').nth(1)?.parse().ok()?;
        let mut headers = HashMap::new();
        loop {
            line.clear();
            self.reader.read_line(&mut line).ok()?;
            let t = line.trim_end();
            if t.is_empty() {
                break;
            }
            let (k, v) = t.split_once(':')?;
            headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
        }
        let len: usize = headers
            .get("content-length")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body).ok()?;
        Some(Reply { status, body })
    }
}

/// Spawn a gred-only server over tiny(7); tweaks override anything.
fn spawn_server(tweaks: &[(&str, &str)]) -> (t2v_corpus::Corpus, Server) {
    let corpus = generate(&CorpusConfig::tiny(7));
    let mut config = ServeConfig::default();
    config.set("addr", "127.0.0.1:0").unwrap();
    config.set("backends", "gred").unwrap();
    for (k, v) in tweaks {
        config.set(k, v).unwrap();
    }
    let state = Arc::new(ServerState::from_corpus(&corpus, config).expect("state builds"));
    let server = Server::spawn(state).expect("bind loopback");
    (corpus, server)
}

fn db0(corpus: &t2v_corpus::Corpus) -> String {
    corpus.databases[0].id.clone()
}

/// One SLO entry out of `/v1/admin/alerts` by name.
fn slo_entry(alerts: &Json, name: &str) -> Option<Json> {
    alerts
        .get("slos")?
        .as_arr()?
        .iter()
        .find_map(|s| (s.get("name").and_then(Json::as_str) == Some(name)).then(|| s.clone()))
}

// ---------------------------------------------------------------------------
// SLO burn-rate alerting, end to end
// ---------------------------------------------------------------------------

/// A `backend.error` storm must push the availability fast-window burn over
/// the threshold and fire the alert with coherent budget math; disarming
/// the fault and sending clean traffic must clear it (the fast window
/// recovers first — exactly the Google-SRE multi-window behaviour the
/// engine implements).
#[test]
fn availability_alert_fires_on_error_storm_and_clears_after_disarm() {
    let _session = FaultSession::begin();
    let log_path = std::env::temp_dir().join(format!("t2v-obs-e2e-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&log_path);
    let (corpus, server) = spawn_server(&[
        ("obs_sample_ms", "25"),
        ("obs_profile_hz", "0"),
        ("slo", "availability:0.999"),
        ("slo_fast_s", "1"),
        ("slo_slow_s", "3"),
        // The breaker will open under the storm (its fast-fail 503s are
        // 5xx too, so the burn math is unaffected); a short open window
        // lets the post-disarm probe close it quickly.
        ("breaker_open_ms", "100"),
        ("access_log", log_path.to_str().unwrap()),
        ("fault_plan", "seed=31;backend.error:backend=gred"),
    ]);
    let db = db0(&corpus);
    let mut client = Client::connect(&server);

    // Storm failing requests until the alert fires: every translate is an
    // injected 500 (or, once the breaker opens, a fast-fail 503 — 5xx
    // either way). The interleaved alert polls are 200s, which only
    // dilutes — never zeroes — the error fraction.
    let deadline = Instant::now() + Duration::from_secs(15);
    let mut firing = None;
    let mut i = 0u32;
    while firing.is_none() {
        assert!(Instant::now() < deadline, "alert never fired");
        for _ in 0..10 {
            let r = client.translate(&format!("show wages storm {i}"), &db);
            assert!(r.status >= 500, "stormed requests fail: {}", r.status);
            i += 1;
        }
        let alerts = client.request("GET", "/v1/admin/alerts", "");
        assert_eq!(alerts.status, 200);
        let parsed = alerts.json();
        let slo = slo_entry(&parsed, "availability").expect("availability SLO listed");
        if slo.get("firing").and_then(Json::as_bool) == Some(true) {
            firing = Some((parsed, slo));
        }
    }
    let (alerts, slo) = firing.unwrap();

    // Budget math: a near-total error storm against a 0.1% budget burns
    // orders of magnitude over the 14.4x page threshold, and the slow
    // window (also storming) has overspent the budget outright.
    assert_eq!(alerts.get("firing").and_then(Json::as_f64), Some(1.0));
    let fast = slo.get("fast_burn").and_then(Json::as_f64).unwrap();
    let slow = slo.get("slow_burn").and_then(Json::as_f64).unwrap();
    let remaining = slo.get("budget_remaining").and_then(Json::as_f64).unwrap();
    assert!(fast > 100.0, "storm fast burn should dwarf 14.4x: {fast}");
    assert!(slow > 14.4, "firing requires the slow window too: {slow}");
    assert!(remaining < 0.0, "storm overspends the budget: {remaining}");

    // The burn gauges ride the existing Prometheus surface.
    let metrics = client.request("GET", "/metrics", "").text();
    assert!(metrics.contains("t2v_slo_burn_rate{slo=\"availability\",window=\"fast\"}"));
    assert!(metrics.contains("t2v_slo_burn_rate{slo=\"availability\",window=\"slow\"}"));
    assert!(metrics.contains("t2v_slo_error_budget_remaining{slo=\"availability\"}"));

    // Disarm and send clean traffic: the fast window drains within ~1s and
    // the alert clears (the slow window may still be over threshold). The
    // first few replies can still be breaker 503s until its probe closes
    // it, so only the clearing itself is asserted.
    t2v_fault::disarm();
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        assert!(Instant::now() < deadline, "alert never cleared");
        for _ in 0..10 {
            client.translate(&format!("show wages clean {i}"), &db);
            i += 1;
        }
        let alerts = client.request("GET", "/v1/admin/alerts", "").json();
        let slo = slo_entry(&alerts, "availability").expect("availability SLO listed");
        if slo.get("firing").and_then(Json::as_bool) == Some(false) {
            break;
        }
    }

    // Both state flips landed in the access log as structured lines.
    server.shutdown();
    let log = std::fs::read_to_string(&log_path).expect("access log readable");
    let flips: Vec<&str> = log
        .lines()
        .filter(|l| l.contains("\"event\":\"slo-transition\""))
        .collect();
    assert!(
        flips.iter().any(|l| l.contains("\"firing\":true")),
        "fire transition logged:\n{log}"
    );
    assert!(
        flips.iter().any(|l| l.contains("\"firing\":false")),
        "clear transition logged:\n{log}"
    );
    let _ = std::fs::remove_file(&log_path);
}

// ---------------------------------------------------------------------------
// stage-occupancy profiler, end to end
// ---------------------------------------------------------------------------

/// With an `embed.latency` fault armed, worker threads spend their time
/// inside the embed stage — the profile over the loaded window must be
/// dominated by a folded stack ending in `embed`.
#[test]
fn profile_under_embed_latency_fault_is_dominated_by_the_embed_stage() {
    let _session = FaultSession::begin();
    let (corpus, server) = spawn_server(&[
        ("obs_sample_ms", "50"),
        ("obs_profile_hz", "997"),
        ("trace_sample", "1"),
        ("fault_plan", "seed=32;embed.latency:ms=60"),
    ]);
    let db = db0(&corpus);
    let mut client = Client::connect(&server);

    // Cache-missing translations, each parked 60 ms inside both of its
    // embed spans (the question, then the generated DVQ): ~2 s of load for
    // the ~1kHz sampler, with the injected stall dwarfing GRED's real
    // compute.
    for i in 0..15 {
        let r = client.translate(&format!("show wages profiled {i}"), &db);
        assert_eq!(r.status, 200);
    }

    let profile = client.request("GET", "/v1/admin/profile?seconds=30", "");
    assert_eq!(profile.status, 200);
    let folded = profile.text();
    let mut total = 0u64;
    let mut embed = 0u64;
    let mut best: Option<(&str, u64)> = None;
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("folded `stack count` line");
        let count: u64 = count.parse().expect("sample count");
        total += count;
        if stack.ends_with("embed") {
            embed += count;
        }
        if best.is_none_or(|(_, c)| count > c) {
            best = Some((stack, count));
        }
    }
    assert!(total > 0, "profiler sampled nothing:\n{folded}");
    // The worker's stack is `request;backend.translate;embed` for the whole
    // injected stall; the only comparable occupancy is the dispatch thread
    // parked at `request` waiting on the worker. Embed must hold a dominant
    // share and be the deepest-stack leader.
    assert!(
        embed * 4 >= total,
        "embed stage should dominate the profile:\n{folded}"
    );
    let deepest = folded
        .lines()
        .filter(|l| l.contains(';'))
        .max_by_key(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap());
    assert!(
        deepest.is_some_and(|l| l.contains("embed")),
        "dominant multi-stage stack should be the embed stall:\n{folded}"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------------
// the TSDB admin surface
// ---------------------------------------------------------------------------

/// The TSDB endpoint serves an index and windowed per-series queries while
/// sampling, and the whole ops surface 404s cleanly when switched off.
#[test]
fn tsdb_endpoint_serves_series_and_the_ops_surface_gates_on_its_knobs() {
    let _session = FaultSession::begin();
    let (corpus, server) = spawn_server(&[("obs_sample_ms", "25"), ("obs_profile_hz", "0")]);
    let db = db0(&corpus);
    let mut client = Client::connect(&server);
    for i in 0..3 {
        assert_eq!(
            client.translate(&format!("show wages {i}"), &db).status,
            200
        );
    }

    // Poll the index until the sampler has swept at least once.
    let deadline = Instant::now() + Duration::from_secs(5);
    let series = loop {
        let index = client.request("GET", "/v1/admin/tsdb", "");
        assert_eq!(index.status, 200);
        let parsed = index.json();
        let names: Vec<String> = parsed
            .get("series")
            .and_then(Json::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(|s| Json::as_str(s).map(str::to_string))
                    .collect()
            })
            .unwrap_or_default();
        if !names.is_empty() {
            break names;
        }
        assert!(Instant::now() < deadline, "sampler never swept");
        std::thread::sleep(Duration::from_millis(10));
    };
    // Series are keyed by their `/metrics` exposition keys.
    for key in [
        "t2v_http_requests_total",
        "t2v_http_requests_total{status=\"5xx\"}",
        "t2v_cache_hits_total",
        "t2v_request_seconds_bucket{le=\"0.005\"}",
        "t2v_request_seconds_count",
    ] {
        assert!(series.iter().any(|s| s == key), "{key} in {series:?}");
    }

    // A windowed query returns points plus delta/rate over the window.
    std::thread::sleep(Duration::from_millis(60)); // at least two samples
    let q = client.request(
        "GET",
        "/v1/admin/tsdb?series=t2v_http_requests_total&window=60&step=1",
        "",
    );
    assert_eq!(q.status, 200);
    let parsed = q.json();
    let points = parsed.get("points").and_then(Json::as_arr).unwrap().len();
    assert!(points >= 2, "expected >=2 points, got {points}");
    assert!(parsed.get("delta").and_then(Json::as_f64).is_some());
    assert!(parsed.get("rate").and_then(Json::as_f64).is_some());
    // A labelled key is addressable percent-encoded.
    let bucket = "t2v_request_seconds_bucket%7Ble%3D%220.005%22%7D";
    let q = client.request("GET", &format!("/v1/admin/tsdb?series={bucket}"), "");
    assert_eq!(q.status, 200);
    let named = q
        .json()
        .get("series")
        .and_then(Json::as_str)
        .map(str::to_string);
    assert_eq!(
        named.as_deref(),
        Some("t2v_request_seconds_bucket{le=\"0.005\"}")
    );

    // Unknown series and malformed windows answer structured errors.
    assert_eq!(
        client
            .request("GET", "/v1/admin/tsdb?series=no.such", "")
            .status,
        404
    );
    assert_eq!(
        client
            .request(
                "GET",
                "/v1/admin/tsdb?series=t2v_cache_hits_total&window=0",
                ""
            )
            .status,
        400
    );
    // No SLOs configured and no profiler: those surfaces say so.
    assert_eq!(client.request("GET", "/v1/admin/alerts", "").status, 404);
    assert_eq!(client.request("GET", "/v1/admin/profile", "").status, 404);

    // The status page carries the event-loop census satellite.
    let status = client.request("GET", "/v1/admin/status", "").json();
    let event = status.get("event").expect("event section");
    assert_eq!(event.get("draining").and_then(Json::as_bool), Some(false));
    assert!(event.get("keep_alive").and_then(Json::as_f64).is_some());
    server.shutdown();

    // With both cadence knobs zero there is no ops plane at all.
    let (_, server) = spawn_server(&[("obs_sample_ms", "0"), ("obs_profile_hz", "0")]);
    let mut client = Client::connect(&server);
    assert_eq!(client.request("GET", "/v1/admin/tsdb", "").status, 404);
    assert_eq!(client.request("GET", "/v1/admin/alerts", "").status, 404);
    assert_eq!(client.request("GET", "/v1/admin/profile", "").status, 404);
    server.shutdown();
}
