//! Failure-domain integration tests: arm deterministic fault plans against
//! a real loopback server and assert every failure mode yields a fast,
//! structured answer — never a hang, never a torn body. Fault arming is
//! process-global, so every test takes the `FAULTS` lock and disarms on
//! drop; this file stays a dedicated test binary for the same reason.

use std::collections::HashMap;
use std::io::{BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use t2v_corpus::{generate, CorpusConfig};
use t2v_engine::Json;
use t2v_fault::{FaultPlan, FaultPoint};
use t2v_serve::{ServeConfig, Server, ServerState};

// ---------------------------------------------------------------------------
// fault-plan serialisation
// ---------------------------------------------------------------------------

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

// ---------------------------------------------------------------------------
// tiny test client (the loopback.rs idiom)
// ---------------------------------------------------------------------------

struct Reply {
    status: u16,
    headers: HashMap<String, String>,
    body: Vec<u8>,
}

impl Reply {
    fn json(&self) -> Json {
        Json::parse(std::str::from_utf8(&self.body).expect("UTF-8 body")).expect("JSON body")
    }

    fn error_code(&self) -> String {
        self.json()
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    }

    fn degraded(&self) -> Option<String> {
        self.json()
            .get("degraded")
            .and_then(Json::as_str)
            .map(str::to_string)
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

    fn request(&mut self, method: &str, path: &str, extra_headers: &str, body: &str) -> Reply {
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\n{extra_headers}Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer
            .write_all(raw.as_bytes())
            .expect("write request");
        self.read_reply().expect("read response")
    }

    fn translate(&mut self, nlq: &str, db: &str, backend: &str) -> Reply {
        self.translate_with_headers(nlq, db, backend, "")
    }

    fn translate_with_headers(
        &mut self,
        nlq: &str,
        db: &str,
        backend: &str,
        extra_headers: &str,
    ) -> Reply {
        let body = Json::obj([
            ("nlq", Json::str(nlq)),
            ("db", Json::str(db)),
            ("backend", Json::str(backend)),
        ])
        .compact();
        self.request("POST", "/v1/translate", extra_headers, &body)
    }

    /// A streaming translate request: every NDJSON line up to EOF.
    fn translate_streamed(mut self, nlq: &str, db: &str, extra_headers: &str) -> Vec<Json> {
        let body = Json::obj([
            ("nlq", Json::str(nlq)),
            ("db", Json::str(db)),
            ("stream", Json::Bool(true)),
        ])
        .compact();
        let raw = format!(
            "POST /v1/translate HTTP/1.1\r\nHost: test\r\n{extra_headers}Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer
            .write_all(raw.as_bytes())
            .expect("write request");
        let mut text = String::new();
        self.reader.read_to_string(&mut text).expect("read to EOF");
        let (head, lines) = text.split_once("\r\n\r\n").expect("response head");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        lines
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| Json::parse(l).expect("NDJSON line"))
            .collect()
    }

    fn metrics(&mut self) -> String {
        let reply = self.request("GET", "/metrics", "", "");
        String::from_utf8(reply.body).expect("metrics are UTF-8")
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
        Some(Reply {
            status,
            headers,
            body,
        })
    }
}

/// Spawn a gred-only server over tiny(7) with fast-breaker defaults;
/// tweaks override anything (including arming a `fault_plan`).
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

/// The value of one sample (`name` or `name{labels}`) in a `/metrics` page.
fn counter(metrics: &str, name: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no {name} in:\n{metrics}"))
}

// ---------------------------------------------------------------------------
// the tests
// ---------------------------------------------------------------------------

#[test]
fn injected_errors_are_structured_500s_and_open_the_breaker() {
    let _session = FaultSession::begin();
    let (corpus, server) = spawn_server(&[
        ("fault_plan", "seed=11;backend.error:backend=gred"),
        ("breaker_window", "4"),
        ("breaker_min_samples", "2"),
        ("breaker_open_ms", "60000"),
    ]);
    let db = db0(&corpus);
    let mut client = Client::connect(&server);

    // Every worker job errors: the first two are structured 500 `internal`
    // bodies (with the usual envelope fields), then the breaker is open
    // and requests fast-fail 503 `backend_unavailable` with Retry-After —
    // no request ever hangs or gets a torn body.
    for i in 0..2 {
        let reply = client.translate(&format!("show wages number {i}"), &db, "gred");
        assert_eq!(reply.status, 500, "request {i}");
        assert_eq!(reply.error_code(), "internal");
    }
    let rejected = client.translate("show wages rejected", &db, "gred");
    assert_eq!(rejected.status, 503);
    assert_eq!(rejected.error_code(), "backend_unavailable");
    assert!(
        rejected.headers.contains_key("retry-after"),
        "open-breaker rejections advertise Retry-After"
    );

    let metrics = client.metrics();
    assert!(
        metrics.contains("t2v_breaker_state{tenant=\"default\",backend=\"gred\"} 1"),
        "breaker gauge must read open:\n{metrics}"
    );
    assert!(metrics.contains("t2v_faults_injected_total{point=\"backend.error\"}"));
    assert!(metrics.contains("t2v_breaker_opens_total 1"));
    server.shutdown();
}

#[test]
fn breaker_recovers_through_a_probe_once_the_fault_budget_is_spent() {
    let _session = FaultSession::begin();
    let (corpus, server) = spawn_server(&[
        ("fault_plan", "seed=12;backend.error:backend=gred,count=2"),
        ("breaker_window", "4"),
        ("breaker_min_samples", "2"),
        ("breaker_open_ms", "150"),
    ]);
    let db = db0(&corpus);
    let mut client = Client::connect(&server);

    for i in 0..2 {
        assert_eq!(
            client
                .translate(&format!("show age {i}"), &db, "gred")
                .status,
            500
        );
    }
    assert_eq!(client.translate("show age open", &db, "gred").status, 503);

    // Cool-down elapses; the next request is the half-open probe. The
    // fault budget is spent, so it succeeds and closes the breaker.
    std::thread::sleep(Duration::from_millis(200));
    let probe = client.translate("show age probe", &db, "gred");
    assert_eq!(probe.status, 200, "probe: {}", probe.error_code());
    let healthy = client.translate("show age healthy", &db, "gred");
    assert_eq!(healthy.status, 200);
    let metrics = client.metrics();
    assert!(
        metrics.contains("t2v_breaker_state{tenant=\"default\",backend=\"gred\"} 0"),
        "breaker gauge must read closed again:\n{metrics}"
    );
    server.shutdown();
}

#[test]
fn deadlines_turn_slow_translations_into_fast_504s() {
    let _session = FaultSession::begin();
    let (corpus, server) = spawn_server(&[("fault_plan", "retrieve.latency:ms=200")]);
    let db = db0(&corpus);
    let mut client = Client::connect(&server);

    // The header lowers the (default 30 s) budget to 60 ms; the worker's
    // two retrievals sleep 400 ms, so the wait expires and answers a
    // structured 504 — in far less time than the translation would have
    // taken to matter.
    let t0 = Instant::now();
    let reply =
        client.translate_with_headers("show wages", &db, "gred", "X-T2V-Deadline-Ms: 60\r\n");
    assert_eq!(reply.status, 504);
    assert_eq!(reply.error_code(), "deadline_exceeded");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "a deadline must answer fast, took {:?}",
        t0.elapsed()
    );

    // The header can only lower the budget, never raise it past the knob.
    let (corpus2, server2) = spawn_server(&[
        ("fault_plan", "retrieve.latency:ms=200"),
        ("deadline_ms", "60"),
    ]);
    let mut client2 = Client::connect(&server2);
    let reply2 = client2.translate_with_headers(
        "show wages",
        &db0(&corpus2),
        "gred",
        "X-T2V-Deadline-Ms: 60000\r\n",
    );
    assert_eq!(reply2.status, 504, "a header must not raise deadline_ms");
    let metrics = client2.metrics();
    assert!(metrics.contains("t2v_deadline_exceeded_total"));
    server.shutdown();
    server2.shutdown();
}

/// A stream whose budget runs out mid-relay ends with the same 504 line a
/// single request would answer — never with silence — and is counted and
/// traced by that line, not by its 200 head.
#[test]
fn a_stream_that_runs_out_of_deadline_ends_with_a_504_line() {
    let _session = FaultSession::begin();
    let (corpus, server) = spawn_server(&[("fault_plan", "retrieve.latency:ms=400")]);
    let db = db0(&corpus);
    let failed = "t2v_http_requests_total{route=\"translate\",status=\"5xx\"}";
    let failed_before = counter(&Client::connect(&server).metrics(), failed);

    let t0 = Instant::now();
    let lines = Client::connect(&server).translate_streamed(
        "show wages by name",
        &db,
        "X-T2V-Deadline-Ms: 100\r\n",
    );
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "a deadline must end the stream fast, took {:?}",
        t0.elapsed()
    );
    let last = lines.last().expect("the stream ends with a final line");
    let code = last.get("error").and_then(|e| e.get("code"));
    assert_eq!(
        code.and_then(Json::as_str),
        Some("deadline_exceeded"),
        "{lines:?}"
    );
    let metrics = Client::connect(&server).metrics();
    assert!(counter(&metrics, "t2v_deadline_exceeded_total") >= 1.0);
    assert_eq!(
        counter(&metrics, failed) - failed_before,
        1.0,
        "the 5xx class moved"
    );
    // The flight recorder keeps failed traces; the stream's says 504.
    let recent = Client::connect(&server)
        .request("GET", "/v1/admin/trace/recent", "", "")
        .json();
    let statuses: Vec<f64> = recent
        .get("traces")
        .and_then(Json::as_arr)
        .expect("traces")
        .iter()
        .filter_map(|t| t.get("status").and_then(Json::as_f64))
        .collect();
    assert!(statuses.contains(&504.0), "{statuses:?}");
    server.shutdown();
}

#[test]
fn overload_sheds_with_503_instead_of_queueing() {
    let _session = FaultSession::begin();
    // One throttled worker (two 75 ms retrievals per translation), a queue
    // of one, no cache: with 8 simultaneous requests, at most 2 can be in
    // the system — the rest MUST see 503 + Retry-After.
    let (corpus, server) = spawn_server(&[
        ("workers", "1"),
        ("queue_capacity", "1"),
        ("cache_capacity", "0"),
        ("fault_plan", "retrieve.latency:ms=75"),
    ]);
    let statuses: Vec<(u16, bool)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let corpus = &corpus;
                let server = &server;
                s.spawn(move || {
                    let mut client = Client::connect(server);
                    let ex = &corpus.dev[i % 4];
                    let r = client.translate(&ex.nlq, &corpus.databases[ex.db].id, "gred");
                    let retry_after = r.headers.contains_key("retry-after");
                    (r.status, retry_after)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let ok = statuses.iter().filter(|(s, _)| *s == 200).count();
    let shed = statuses.iter().filter(|(s, _)| *s == 503).count();
    assert_eq!(ok + shed, 8, "only 200s and 503s expected: {statuses:?}");
    assert!(ok >= 1, "at least one request must be served");
    assert!(shed >= 1, "overload must shed at least one request");
    for (status, retry_after) in &statuses {
        if *status == 503 {
            assert!(retry_after, "503 must carry Retry-After");
        }
    }
    server.shutdown();
}

#[test]
fn worker_panics_answer_structured_errors_instead_of_hanging() {
    let _session = FaultSession::begin();
    let (corpus, server) = spawn_server(&[
        ("fault_plan", "seed=13;backend.panic:backend=gred,count=1"),
        ("breaker_window", "0"),
    ]);
    let db = db0(&corpus);
    let mut client = Client::connect(&server);

    // The injected panic unwinds the worker job; the reply guard answers
    // the caller with a structured 500 immediately — the old behaviour was
    // a 60 s timeout with a bare "translation timed out".
    let t0 = Instant::now();
    let reply = client.translate("show wages panic", &db, "gred");
    assert_eq!(reply.status, 500);
    assert_eq!(reply.error_code(), "internal");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "panic replies must be fast, took {:?}",
        t0.elapsed()
    );

    // The budget is spent: the pool survived and serves normally.
    let ok = client.translate("show wages recovered", &db, "gred");
    assert_eq!(ok.status, 200);
    let metrics = client.metrics();
    assert!(metrics.contains("t2v_worker_panics_total 1"), "{metrics}");
    server.shutdown();
}

#[test]
fn open_breaker_serves_marked_stale_cache_bodies() {
    let _session = FaultSession::begin();
    let (corpus, server) = spawn_server(&[
        ("cache_ttl_secs", "1"),
        ("breaker_window", "4"),
        ("breaker_min_samples", "2"),
        ("breaker_open_ms", "60000"),
    ]);
    let db = db0(&corpus);
    let mut client = Client::connect(&server);

    // Warm the cache while healthy, then let the entry expire.
    let warm = client.translate("show all wages", &db, "gred");
    assert_eq!(warm.status, 200);
    assert!(warm.degraded().is_none());
    std::thread::sleep(Duration::from_millis(1100));

    // A fault storm opens the breaker: the warm 200 plus one failure puts
    // the rolling window at 50% errors, right on the threshold.
    t2v_fault::arm(&FaultPlan::parse("seed=14;backend.error:backend=gred").unwrap());
    assert_eq!(client.translate("show salary 0", &db, "gred").status, 500);

    // ...and the warmed query degrades to its expired entry, marked both
    // in the body and on the wire, instead of failing.
    let stale = client.translate("show all wages", &db, "gred");
    assert_eq!(stale.status, 200);
    assert_eq!(stale.degraded().as_deref(), Some("stale_cache"));
    assert_eq!(
        stale.headers.get("x-t2v-degraded").map(String::as_str),
        Some("stale_cache")
    );
    assert!(stale.json().get("dvq").is_some(), "stale bodies stay whole");
    let metrics = client.metrics();
    assert!(metrics.contains("t2v_degraded_total 1"), "{metrics}");
    server.shutdown();
}

#[test]
fn open_breaker_falls_back_to_the_gred_backend() {
    let _session = FaultSession::begin();
    let (corpus, server) = spawn_server(&[
        ("backends", "gred,rgvisnet"),
        ("fault_plan", "seed=15;backend.error:backend=rgvisnet"),
        ("breaker_window", "4"),
        ("breaker_min_samples", "2"),
        ("breaker_open_ms", "60000"),
    ]);
    let db = db0(&corpus);
    let mut client = Client::connect(&server);

    for i in 0..2 {
        let r = client.translate(&format!("show part {i}"), &db, "rgvisnet");
        assert_eq!(r.status, 500, "request {i}: {}", r.error_code());
    }
    // rgvisnet's breaker is open; gred's is closed — the ladder reroutes
    // and says so in the body, the degraded marker, and the backend header.
    let fallback = client.translate("show part fallback", &db, "rgvisnet");
    assert_eq!(fallback.status, 200, "{}", fallback.error_code());
    assert_eq!(fallback.degraded().as_deref(), Some("fallback:gred"));
    assert_eq!(
        fallback.json().get("backend").and_then(Json::as_str),
        Some("gred")
    );
    assert_eq!(
        fallback.headers.get("x-t2v-backend").map(String::as_str),
        Some("gred")
    );
    server.shutdown();
}

/// A batch item behind an open breaker walks the single endpoint's
/// ladder, and a duplicate item reuses its first's outcome.
#[test]
fn batch_items_degrade_like_single_requests() {
    let _session = FaultSession::begin();
    let (corpus, server) = spawn_server(&[
        ("backends", "gred,rgvisnet"),
        ("fault_plan", "seed=20;backend.error:backend=rgvisnet"),
        ("breaker_window", "4"),
        ("breaker_min_samples", "2"),
        ("breaker_open_ms", "60000"),
    ]);
    let db = db0(&corpus);
    let mut client = Client::connect(&server);
    for i in 0..2 {
        let r = client.translate(&format!("show part {i}"), &db, "rgvisnet");
        assert_eq!(r.status, 500, "request {i}: {}", r.error_code());
    }
    let degraded_before = counter(&client.metrics(), "t2v_degraded_total");

    let item = |nlq: &str, backend: &str| {
        Json::obj([
            ("nlq", Json::str(nlq)),
            ("db", Json::str(db.as_str())),
            ("backend", Json::str(backend)),
        ])
    };
    let body = Json::obj([(
        "requests",
        Json::Arr(vec![
            item("show part fallback", "rgvisnet"),
            item("show part fallback", "rgvisnet"),
            item("show every part", "gred"),
        ]),
    )])
    .compact();
    let reply = client.request("POST", "/v1/translate/batch", "", &body);
    assert_eq!(reply.status, 200);
    let doc = reply.json();
    let Some(Json::Arr(results)) = doc.get("results") else {
        panic!("results array");
    };
    assert_eq!(results.len(), 3);
    let field = |r: &Json, name: &str| r.get(name).and_then(Json::as_str).map(str::to_string);
    for r in &results[..2] {
        assert_eq!(
            field(r, "degraded").as_deref(),
            Some("fallback:gred"),
            "{r:?}"
        );
        assert_eq!(field(r, "backend").as_deref(), Some("gred"), "{r:?}");
    }
    let clean = &results[2];
    assert!(
        clean.get("error").is_none() && clean.get("degraded").is_none(),
        "{clean:?}"
    );
    assert_eq!(field(clean, "backend").as_deref(), Some("gred"));
    let degraded_after = counter(&client.metrics(), "t2v_degraded_total");
    assert_eq!(
        degraded_after - degraded_before,
        1.0,
        "the duplicate reuses the first outcome"
    );
    server.shutdown();
}

#[test]
fn batch_path_retries_transient_internal_errors() {
    let _session = FaultSession::begin();
    let (corpus, server) = spawn_server(&[
        ("fault_plan", "seed=16;backend.error:backend=gred,count=1"),
        ("breaker_window", "0"),
    ]);
    let db = db0(&corpus);
    let mut client = Client::connect(&server);

    // One injected failure, then the budget is dry: the batch's retry turns
    // a would-be inline error into a clean result.
    let body = format!("{{\"requests\": [{{\"nlq\": \"show every wage\", \"db\": \"{db}\"}}]}}");
    let reply = client.request("POST", "/v1/translate/batch", "", &body);
    assert_eq!(reply.status, 200);
    let doc = reply.json();
    let Some(Json::Arr(results)) = doc.get("results") else {
        panic!("results array");
    };
    assert_eq!(results.len(), 1);
    assert!(
        results[0].get("error").is_none(),
        "retry should have cleared the injected failure: {:?}",
        results[0]
    );
    let metrics = client.metrics();
    assert!(metrics.contains("t2v_batch_retries_total 1"), "{metrics}");
    server.shutdown();
}

#[test]
fn latency_faults_slow_but_never_break_translations() {
    let _session = FaultSession::begin();
    let (corpus, server) = spawn_server(&[(
        "fault_plan",
        "seed=17;embed.latency:ms=20;retrieve.latency:ms=15;conn.write_stall:ms=10",
    )]);
    let db = db0(&corpus);
    let mut client = Client::connect(&server);

    let reply = client.translate("show wages slowly", &db, "gred");
    assert_eq!(reply.status, 200);
    assert!(reply.degraded().is_none());
    let metrics = client.metrics();
    for point in ["embed.latency", "retrieve.latency", "conn.write_stall"] {
        assert!(
            metrics.contains(&format!("t2v_faults_injected_total{{point=\"{point}\"}}")),
            "missing {point} in:\n{metrics}"
        );
    }
    server.shutdown();
}

/// `embed.latency` delays the pipeline's embeddings — the question, then
/// the generated DVQ — and nothing else: a budget of two is spent by one
/// translation's two `embed` spans, not by the first of the ~120 lookups
/// the simulated model makes in its own embedding space, and the next
/// translation runs undelayed.
#[test]
fn embed_latency_fires_once_per_pipeline_embedding() {
    let _session = FaultSession::begin();
    let (corpus, server) = spawn_server(&[]);
    let db = db0(&corpus);
    let mut client = Client::connect(&server);
    let armed = t2v_fault::arm(&FaultPlan::parse("seed=19;embed.latency:ms=20,count=2").unwrap());

    let mut embed_ms = |nlq: &str| -> Vec<f64> {
        let reply = client.translate_with_headers(nlq, &db, "gred", "X-T2V-Trace: 1\r\n");
        assert_eq!(reply.status, 200);
        let doc = reply.json();
        let spans = doc.get("trace").and_then(|t| t.get("spans")).cloned();
        let spans = spans.as_ref().and_then(Json::as_arr).expect("inline spans");
        spans
            .iter()
            .filter(|s| s.get("stage").and_then(Json::as_str) == Some("embed"))
            .map(|s| s.get("dur_ms").and_then(Json::as_f64).expect("dur_ms"))
            .collect()
    };

    let delayed = embed_ms("show wages with both embeddings stalled");
    assert_eq!(delayed.len(), 2, "{delayed:?}");
    assert!(delayed.iter().all(|&ms| ms >= 20.0), "{delayed:?}");
    assert_eq!(armed.fired(FaultPoint::EmbedLatency), 2);

    let clean = embed_ms("show wages once the budget is spent");
    assert_eq!(clean.len(), 2, "{clean:?}");
    assert!(clean.iter().all(|&ms| ms < 20.0), "{clean:?}");
    assert_eq!(armed.fired(FaultPoint::EmbedLatency), 2);
    server.shutdown();
}

#[test]
fn corrupted_snapshot_reads_fail_with_structured_errors() {
    let _session = FaultSession::begin();
    let (_corpus, server) = spawn_server(&[]);
    let dir = std::env::temp_dir().join(format!("t2v-faults-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("library.t2vsnap");
    let state = server.state();
    t2v_store::save(&path, state.gred.library(), state.gred.embedder()).expect("save snapshot");

    // Healthy read first, then the armed corruption flips one payload byte
    // and the checksum must catch it — a structured error, not garbage data.
    assert!(t2v_store::load(&path).is_ok());
    t2v_fault::arm(&FaultPlan::parse("seed=18;snapshot.corrupt:count=1").unwrap());
    let err = t2v_store::load(&path).expect_err("corrupted read must fail");
    assert!(!err.to_string().is_empty());
    // Budget spent: the next read is clean again.
    assert!(t2v_store::load(&path).is_ok());
    std::fs::remove_dir_all(&dir).ok();
    server.shutdown();
}
