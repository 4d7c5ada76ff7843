//! End-to-end tracing: a traced loopback request returns `x-t2v-trace-id`,
//! the opt-in header inlines the span tree, the flight recorder serves the
//! same trace back over `/v1/admin/trace/{id}`, `recent` filters work, the
//! access log carries a cross-referencable JSON line, and
//! `/v1/admin/status` snapshots the runtime (DESIGN.md §12).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use t2v_corpus::{generate, CorpusConfig};
use t2v_engine::Json;
use t2v_serve::{ServeConfig, Server, ServerState};

struct Reply {
    status: u16,
    headers: HashMap<String, String>,
    body: Vec<u8>,
}

impl Reply {
    fn json(&self) -> Json {
        Json::parse(std::str::from_utf8(&self.body).expect("UTF-8 body")).expect("JSON body")
    }

    fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(name).map(String::as_str)
    }

    fn error_code(&self) -> String {
        self.json()
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .expect("error code")
            .to_string()
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

    /// One request with arbitrary extra headers (how a client opts into an
    /// inline trace).
    fn request_with(
        &mut self,
        method: &str,
        path: &str,
        extra_headers: &[(&str, &str)],
        body: &str,
    ) -> Reply {
        let mut raw = format!("{method} {path} HTTP/1.1\r\nHost: test\r\n");
        for (k, v) in extra_headers {
            raw.push_str(&format!("{k}: {v}\r\n"));
        }
        raw.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
        self.writer.write_all(raw.as_bytes()).expect("write");
        self.read_reply().expect("read response")
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> Reply {
        self.request_with(method, path, &[], body)
    }

    fn translate_traced(&mut self, nlq: &str, db: &str) -> Reply {
        let body = Json::obj([("nlq", Json::str(nlq)), ("db", Json::str(db))]).compact();
        self.request_with("POST", "/v1/translate", &[("X-T2V-Trace", "1")], &body)
    }

    fn read_reply(&mut self) -> Option<Reply> {
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

/// Span stages present in a trace JSON object, in recorded order.
fn stages(trace: &Json) -> Vec<String> {
    trace
        .get("spans")
        .and_then(Json::as_arr)
        .expect("spans array")
        .iter()
        .map(|s| s.get("stage").and_then(Json::as_str).unwrap().to_string())
        .collect()
}

/// Span arithmetic of a recorded trace: the root span spans the whole
/// request, every span fits inside it, and the direct children of the root
/// account for the request's latency without exceeding it — whichever
/// threads the request crossed.
fn assert_span_arithmetic(full: &Json) {
    let total_ms = full.get("total_ms").and_then(Json::as_f64).unwrap();
    let spans = full.get("spans").and_then(Json::as_arr).unwrap();
    assert_eq!(
        spans[0].get("stage").and_then(Json::as_str),
        Some("request")
    );
    assert!(spans[0].get("parent").unwrap().as_f64().is_none());
    assert_eq!(
        spans[0].get("dur_ms").and_then(Json::as_f64),
        Some(total_ms)
    );
    let mut direct_children_ms = 0.0;
    for s in &spans[1..] {
        let start = s.get("start_ms").and_then(Json::as_f64).unwrap();
        let dur = s.get("dur_ms").and_then(Json::as_f64).unwrap();
        assert!(
            start + dur <= total_ms * 1.05 + 0.5,
            "span fits in the request window"
        );
        let parent = s.get("parent").and_then(Json::as_f64).unwrap() as usize;
        assert!(parent < spans.len(), "parent index in range");
        if parent == 0 {
            direct_children_ms += dur;
        }
    }
    assert!(
        direct_children_ms <= total_ms * 1.05 + 0.5,
        "non-overlapping stage durations sum to at most the request latency \
         ({direct_children_ms:.3}ms of {total_ms:.3}ms)"
    );
}

#[test]
fn traced_request_covers_every_stage_and_reaches_recorder_and_access_log() {
    let dir = std::env::temp_dir().join(format!("t2v-trace-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("access.log");
    let (corpus, server) = spawn_server(&[
        ("trace_sample", "1"),
        ("trace_buffer", "64"),
        ("access_log", log_path.to_str().unwrap()),
    ]);
    let ex = &corpus.dev[0];
    let db = corpus.databases[ex.db].id.clone();

    let mut client = Client::connect(&server);
    let reply = client.translate_traced(&ex.nlq, &db);
    assert_eq!(reply.status, 200, "traced translate succeeds");

    // (1) the id rides the response header, 32 lowercase hex chars.
    let id = reply.header("x-t2v-trace-id").expect("trace id header");
    assert_eq!(id.len(), 32);
    assert!(id.chars().all(|c| c.is_ascii_hexdigit()));
    let id = id.to_string();

    // (2) the opt-in header splices the span tree into the JSON body —
    // alongside, not instead of, the translation itself.
    let doc = reply.json();
    assert!(doc.get("dvq").is_some(), "translation still present");
    let inline = doc.get("trace").expect("inline trace object");
    assert_eq!(inline.get("id").and_then(Json::as_str), Some(id.as_str()));
    let inline_stages = stages(inline);
    for want in [
        "request",
        "conn.read",
        "queue.wait",
        "cache.lookup",
        "embed",
        "retrieve",
        "backend.translate",
    ] {
        assert!(
            inline_stages.iter().any(|s| s == want),
            "inline trace has {want} (got {inline_stages:?})"
        );
    }

    // (3) the flight recorder serves the same trace back, now including the
    // resp.write span sealed after the body went out.
    let reply = client.request("GET", &format!("/v1/admin/trace/{id}"), "");
    assert_eq!(reply.status, 200);
    let full = reply.json();
    assert_eq!(full.get("id").and_then(Json::as_str), Some(id.as_str()));
    assert_eq!(full.get("tenant").and_then(Json::as_str), Some("default"));
    assert_eq!(full.get("backend").and_then(Json::as_str), Some("gred"));
    assert_eq!(full.get("status").and_then(Json::as_f64), Some(200.0));
    let full_stages = stages(&full);
    for want in [
        "request",
        "conn.read",
        "queue.wait",
        "cache.lookup",
        "embed",
        "retrieve",
        "backend.translate",
        "resp.write",
    ] {
        assert!(
            full_stages.iter().any(|s| s == want),
            "recorded trace has {want} (got {full_stages:?})"
        );
    }

    assert_span_arithmetic(&full);

    // A GRED miss embeds twice and retrieves twice (question, then the
    // generated DVQ), all under backend.translate — and that is every
    // embed span there is: the model's own schema-linking lookups carry
    // none, so the tree fits its slots with nothing dropped.
    assert!(full.get("dropped_spans").is_none(), "{full:?}");
    let spans = full.get("spans").and_then(Json::as_arr).unwrap();
    let backend = full_stages
        .iter()
        .position(|s| s == "backend.translate")
        .unwrap();
    for stage in ["embed", "retrieve"] {
        let parents: Vec<f64> = spans
            .iter()
            .filter(|s| s.get("stage").and_then(Json::as_str) == Some(stage))
            .map(|s| s.get("parent").and_then(Json::as_f64).unwrap())
            .collect();
        assert_eq!(parents, [backend as f64; 2], "{stage} spans");
    }

    // (4) `recent` lists it newest-first, and the filters hold.
    let reply = client.request("GET", "/v1/admin/trace/recent?tenant=default&min_ms=0", "");
    assert_eq!(reply.status, 200);
    let recent = reply.json();
    assert!(recent.get("count").and_then(Json::as_f64).unwrap() >= 1.0);
    let listed = recent.get("traces").and_then(Json::as_arr).unwrap();
    assert!(
        listed
            .iter()
            .any(|t| t.get("id").and_then(Json::as_str) == Some(id.as_str())),
        "trace listed under its tenant"
    );
    let reply = client.request("GET", "/v1/admin/trace/recent?tenant=nobody", "");
    assert_eq!(
        reply.json().get("count").and_then(Json::as_f64),
        Some(0.0),
        "tenant filter excludes everything else"
    );

    // (5) the access log has a matching JSON line with per-stage timings.
    let text = std::fs::read_to_string(&log_path).expect("access log written");
    let line = text
        .lines()
        .find(|l| l.contains(&id))
        .expect("log line for the traced request");
    let entry = Json::parse(line).expect("log line is valid JSON");
    assert_eq!(entry.get("tenant").and_then(Json::as_str), Some("default"));
    assert_eq!(
        entry.get("path").and_then(Json::as_str),
        Some("/v1/translate")
    );
    assert_eq!(entry.get("status").and_then(Json::as_f64), Some(200.0));
    assert!(
        entry
            .get("stages_ms")
            .and_then(|s| s.get("backend.translate"))
            .is_some(),
        "per-stage timings in the log line"
    );

    // (6) a second identical query is a cache hit — visible in its trace,
    // which never left the loop thread (the miss above was finished by its
    // worker): the same arithmetic holds for its recorded copy.
    let reply = client.translate_traced(&ex.nlq, &db);
    assert_eq!(reply.status, 200);
    let hit = reply.json();
    let inline = hit.get("trace").expect("inline trace object");
    assert_eq!(inline.get("cache").and_then(Json::as_str), Some("hit"));
    let hit_id = inline.get("id").and_then(Json::as_str).unwrap();
    let reply = client.request("GET", &format!("/v1/admin/trace/{hit_id}"), "");
    assert_eq!(reply.status, 200);
    let full = reply.json();
    assert_eq!(
        stages(&full),
        ["request", "conn.read", "cache.lookup", "resp.write"]
    );
    assert_span_arithmetic(&full);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn streamed_request_keeps_its_backend_in_the_record() {
    let dir = std::env::temp_dir().join(format!("t2v-trace-stream-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("access.log");
    let (corpus, server) = spawn_server(&[
        ("trace_sample", "1"),
        ("trace_buffer", "64"),
        ("access_log", log_path.to_str().unwrap()),
    ]);
    let ex = &corpus.dev[0];
    let db = corpus.databases[ex.db].id.clone();

    // An NDJSON stream is EOF-delimited: read until the server closes.
    let body = Json::obj([
        ("nlq", Json::str(&ex.nlq)),
        ("db", Json::str(&db)),
        ("stream", Json::Bool(true)),
    ])
    .compact();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "POST /v1/translate HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut streamed = String::new();
    stream.read_to_string(&mut streamed).expect("read to eof");
    assert!(streamed.starts_with("HTTP/1.1 200"), "{streamed}");
    assert!(streamed.contains("\"stage\""), "{streamed}");

    // The only trace recorded so far is the stream's, and it names the
    // backend that served it — the endpoint wrote its own body, so there
    // was no response header to read the backend from.
    let mut client = Client::connect(&server);
    let recent = client.request("GET", "/v1/admin/trace/recent", "").json();
    let traces = recent.get("traces").and_then(Json::as_arr).unwrap();
    assert_eq!(traces.len(), 1, "{recent:?}");
    assert_eq!(
        traces[0].get("backend").and_then(Json::as_str),
        Some("gred")
    );
    // The worker that ended the stream posts its line to the log's writer
    // thread, so the line may trail the stream's EOF by a moment.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let line = loop {
        let text = std::fs::read_to_string(&log_path).unwrap_or_default();
        let line = text
            .lines()
            .find(|l| l.contains("\"path\":\"/v1/translate\""))
            .map(str::to_string);
        if let Some(line) = line {
            break line;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no log line for the streamed request in {text:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(
        Json::parse(&line)
            .expect("valid JSON")
            .get("backend")
            .and_then(Json::as_str),
        Some("gred")
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn admin_trace_endpoints_fail_cleanly() {
    // Recorder armed: malformed vs unknown ids are distinct failures.
    let (_corpus, server) = spawn_server(&[("trace_buffer", "16")]);
    let mut client = Client::connect(&server);
    let reply = client.request("GET", "/v1/admin/trace/not-hex", "");
    assert_eq!(reply.status, 400);
    let reply = client.request(
        "GET",
        "/v1/admin/trace/00000000000000000000000000000000",
        "",
    );
    assert_eq!(reply.status, 404);
    assert_eq!(reply.error_code(), "unknown_trace");
    let reply = client.request("GET", "/v1/admin/trace/recent?min_ms=abc", "");
    assert_eq!(reply.status, 400);
    let reply = client.request_with("POST", "/v1/admin/trace/recent", &[], "");
    assert_eq!(reply.status, 405);

    // Recorder disabled: the endpoints say so instead of 404-ing opaquely.
    let (_corpus, server) = spawn_server(&[("trace_buffer", "0")]);
    let mut client = Client::connect(&server);
    let reply = client.request(
        "GET",
        "/v1/admin/trace/00000000000000000000000000000000",
        "",
    );
    assert_eq!(reply.status, 404);
    assert_eq!(reply.error_code(), "recorder_disabled");
    let reply = client.request("GET", "/v1/admin/trace/recent", "");
    assert_eq!(reply.error_code(), "recorder_disabled");
}

#[test]
fn untraced_requests_still_carry_an_id_but_no_body_trace() {
    // Sampling off entirely: the id header still rides every response (so a
    // support ticket can always quote one), but nothing lands in the body.
    let (corpus, server) = spawn_server(&[("trace_sample", "0"), ("trace_buffer", "0")]);
    let ex = &corpus.dev[0];
    let db = corpus.databases[ex.db].id.clone();
    let mut client = Client::connect(&server);
    let body = Json::obj([("nlq", Json::str(&ex.nlq)), ("db", Json::str(&db))]).compact();
    let reply = client.request("POST", "/v1/translate", &body);
    assert_eq!(reply.status, 200);
    assert!(reply.header("x-t2v-trace-id").is_some());
    assert!(reply.json().get("trace").is_none());
}

#[test]
fn admin_status_snapshots_pool_cache_breakers_and_build() {
    let (corpus, server) = spawn_server(&[("trace_buffer", "32")]);
    let ex = &corpus.dev[0];
    let db = corpus.databases[ex.db].id.clone();
    let mut client = Client::connect(&server);
    // One miss then one hit so the cache section has something to say.
    let body = Json::obj([("nlq", Json::str(&ex.nlq)), ("db", Json::str(&db))]).compact();
    assert_eq!(client.request("POST", "/v1/translate", &body).status, 200);
    assert_eq!(client.request("POST", "/v1/translate", &body).status, 200);

    let reply = client.request("GET", "/v1/admin/status", "");
    assert_eq!(reply.status, 200);
    let doc = reply.json();

    let build = doc.get("build").expect("build section");
    assert!(build.get("version").and_then(Json::as_str).is_some());
    assert_eq!(
        build.get("snapshot_format").and_then(Json::as_f64),
        Some(t2v_store::FORMAT_VERSION as f64)
    );

    let pool = doc.get("pool").expect("pool section");
    assert!(pool.get("workers").and_then(Json::as_f64).unwrap() >= 1.0);
    assert!(pool.get("queue_capacity").and_then(Json::as_f64).unwrap() >= 1.0);
    assert_eq!(pool.get("queue_depth").and_then(Json::as_f64), Some(0.0));

    let cache = doc.get("cache").expect("cache section");
    assert!(cache.get("entries").and_then(Json::as_f64).unwrap() >= 1.0);
    assert!(cache.get("hits").and_then(Json::as_f64).unwrap() >= 1.0);
    assert!(cache.get("misses").and_then(Json::as_f64).unwrap() >= 1.0);
    let rate = cache.get("hit_rate").and_then(Json::as_f64).unwrap();
    assert!(rate > 0.0 && rate < 1.0);

    let trace = doc.get("trace").expect("trace section");
    assert_eq!(trace.get("capacity").and_then(Json::as_f64), Some(32.0));

    let tenants = doc.get("tenants").and_then(Json::as_arr).expect("tenants");
    let default = tenants
        .iter()
        .find(|t| t.get("id").and_then(Json::as_str) == Some("default"))
        .expect("default tenant listed");
    assert_eq!(default.get("index").and_then(Json::as_str), Some("flat"));
    let rows = server.state().gred.library().len() as f64;
    assert_eq!(default.get("rows").and_then(Json::as_f64), Some(rows));
    let breakers = default
        .get("breakers")
        .and_then(Json::as_arr)
        .expect("breakers");
    let gred = breakers
        .iter()
        .find(|b| b.get("backend").and_then(Json::as_str) == Some("gred"))
        .expect("gred breaker");
    assert_eq!(gred.get("state").and_then(Json::as_str), Some("closed"));
}
