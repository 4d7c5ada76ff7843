//! Event-driver integration tests: slow-loris and partial-read robustness
//! against the epoll connection layer, idle reaping, graceful drain, the
//! `max_connections` shed at accept, the loop-thread contract (inline
//! answers never sleep, never touch a file, stay flat and fair under
//! pipelining), and the differential contract —
//! the event loop over loopback answers byte-identically to the blocking
//! one-shot parser + handler (`Server::answer_in_memory`) for the same
//! request bytes. Fault arming is process-global and an armed
//! `conn.write_stall` reaches every response, so every test holds the
//! `FAULTS` lock.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use t2v_corpus::{generate, CorpusConfig};
use t2v_engine::Json;
use t2v_fault::FaultPlan;
use t2v_serve::metrics::Scalar;
use t2v_serve::{ServeConfig, Server, ServerState};

static FAULTS: Mutex<()> = Mutex::new(());

/// Holds the global fault lock for one test and guarantees the plan is
/// disarmed however the test exits (the failure_domains.rs idiom).
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

/// Spawn a gred-only server over tiny(7); tweaks override anything.
fn spawn_server(tweaks: &[(&str, &str)]) -> (t2v_corpus::Corpus, Server) {
    let corpus = generate(&CorpusConfig::tiny(7));
    let server = spawn_over(&corpus, tweaks);
    (corpus, server)
}

fn spawn_over(corpus: &t2v_corpus::Corpus, tweaks: &[(&str, &str)]) -> Server {
    let mut config = ServeConfig::default();
    config.set("addr", "127.0.0.1:0").unwrap();
    config.set("backends", "gred").unwrap();
    for (k, v) in tweaks {
        config.set(k, v).unwrap();
    }
    let state = Arc::new(ServerState::from_corpus(corpus, config).expect("state builds"));
    Server::spawn(state).expect("bind loopback")
}

fn db0(corpus: &t2v_corpus::Corpus) -> String {
    corpus.databases[0].id.clone()
}

fn translate_raw(nlq: &str, db: &str, close: bool) -> Vec<u8> {
    let body = Json::obj([("nlq", Json::str(nlq)), ("db", Json::str(db))]).compact();
    request_raw("POST", "/v1/translate", &body, close)
}

fn request_raw(method: &str, path: &str, body: &str, close: bool) -> Vec<u8> {
    let conn = if close { "Connection: close\r\n" } else { "" };
    request_with(method, path, conn, body)
}

/// A raw request with arbitrary extra header lines (each `\r\n`-terminated).
fn request_with(method: &str, path: &str, headers: &str, body: &str) -> Vec<u8> {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\n{headers}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One `Content-Length`-framed response off a keep-alive connection, as raw
/// bytes; `None` at EOF.
fn read_response(reader: &mut BufReader<TcpStream>) -> Option<Vec<u8>> {
    let mut raw = Vec::new();
    let mut len = 0usize;
    loop {
        let start = raw.len();
        if reader.read_until(b'\n', &mut raw).ok()? == 0 {
            return None;
        }
        let line = String::from_utf8_lossy(&raw[start..]).to_ascii_lowercase();
        if let Some(v) = line.strip_prefix("content-length:") {
            len = v.trim().parse().ok()?;
        }
        if line == "\r\n" {
            break;
        }
    }
    let head = raw.len();
    raw.resize(head + len, 0);
    reader.read_exact(&mut raw[head..]).ok()?;
    Some(raw)
}

/// Send `requests` one at a time on one keep-alive connection, each only
/// after the previous response arrived; every byte received, concatenated.
fn exchange(server: &Server, requests: &[Vec<u8>]) -> Vec<u8> {
    let mut stream = connect(server);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut out = Vec::new();
    for raw in requests {
        stream.write_all(raw).expect("write request");
        out.extend(read_response(&mut reader).expect("a response per request"));
    }
    out
}

/// Every value of one response header across a (possibly multi-response)
/// byte stream, in wire order.
fn header_values(bytes: &[u8], name: &str) -> Vec<String> {
    let prefix = format!("{name}:");
    String::from_utf8_lossy(bytes)
        .lines()
        .filter_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix(&prefix)
                .map(|v| v.trim().to_string())
        })
        .collect()
}

/// The body of a single raw response, parsed as JSON.
fn json_body(raw: &[u8]) -> Json {
    let at = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("head/body separator");
    Json::parse(std::str::from_utf8(&raw[at + 4..]).expect("UTF-8 body")).expect("JSON body")
}

fn metric(server: &Server, name: &str) -> u64 {
    let text = metrics_text(server);
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no {name} in:\n{text}"))
}

fn connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
}

/// Send one raw request on a fresh connection and read until the server
/// closes — the whole response, exactly as it hit the wire.
fn roundtrip_to_eof(server: &Server, raw: &[u8]) -> Vec<u8> {
    let mut stream = connect(server);
    stream.write_all(raw).expect("write request");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read to eof");
    out
}

fn status_of(bytes: &[u8]) -> u16 {
    let line = bytes.split(|&b| b == b'\n').next().unwrap_or(&[]);
    std::str::from_utf8(line)
        .ok()
        .and_then(|l| l.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// Normalise the per-request volatility out of a raw response: the
/// `x-t2v-trace-id` header (random id per request) and NDJSON stage
/// `"micros"` timings. Everything else must match byte-for-byte.
fn scrub(bytes: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bytes.len());
    let mut rest = bytes;
    while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
        let (line, tail) = rest.split_at(nl + 1);
        if !line.to_ascii_lowercase().starts_with(b"x-t2v-trace-id:") {
            out.extend_from_slice(line);
        }
        rest = tail;
    }
    out.extend_from_slice(rest);
    scrub_micros(&out)
}

fn scrub_micros(bytes: &[u8]) -> Vec<u8> {
    const KEY: &[u8] = b"\"micros\":";
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i..].starts_with(KEY) {
            out.extend_from_slice(KEY);
            out.push(b'0');
            i += KEY.len();
            while i < bytes.len()
                && matches!(bytes[i], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                i += 1;
            }
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    out
}

/// The differential assertion: both byte streams equal after [`scrub`].
fn same(name: &str, event: &[u8], oracle: &[u8]) {
    let (a, b) = (scrub(event), scrub(oracle));
    assert_eq!(
        a,
        b,
        "case {name} diverged:\n--- event ---\n{}\n--- oracle ---\n{}",
        String::from_utf8_lossy(&a),
        String::from_utf8_lossy(&b)
    );
}

fn metrics_text(server: &Server) -> String {
    let raw = roundtrip_to_eof(server, &request_raw("GET", "/metrics", "", true));
    String::from_utf8_lossy(&raw).into_owned()
}

// ---------------------------------------------------------------------------
// slow-loris and partial reads
// ---------------------------------------------------------------------------

#[test]
fn byte_at_a_time_request_still_gets_a_full_answer() {
    let _session = FaultSession::begin();
    let (corpus, server) = spawn_server(&[]);
    let raw = translate_raw("show all wages", &db0(&corpus), true);
    let mut stream = connect(&server);
    // A well-behaved but glacial client: one byte per write, with a real
    // pause every few bytes so the loop sees many partial reads.
    for (i, b) in raw.iter().enumerate() {
        stream.write_all(std::slice::from_ref(b)).expect("write");
        if i % 24 == 0 {
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read");
    assert_eq!(status_of(&out), 200, "{}", String::from_utf8_lossy(&out));
    server.shutdown();
}

#[test]
fn truncated_head_then_close_answers_400() {
    let _session = FaultSession::begin();
    let (_corpus, server) = spawn_server(&[]);
    let mut stream = connect(&server);
    stream
        .write_all(b"POST /v1/translate HTTP/1.1\r\nHost: te")
        .unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read");
    assert_eq!(status_of(&out), 400, "{}", String::from_utf8_lossy(&out));
    assert!(
        String::from_utf8_lossy(&out).contains("truncated request"),
        "{}",
        String::from_utf8_lossy(&out)
    );
    server.shutdown();
}

#[test]
fn truncated_body_then_close_is_dropped_silently() {
    let _session = FaultSession::begin();
    let (_corpus, server) = spawn_server(&[]);
    let mut stream = connect(&server);
    // Full head promising 100 body bytes, then half the body and FIN: the
    // request can never complete, and there is no meaningful status to send
    // a peer that stopped mid-body — the server just drops the connection.
    stream
        .write_all(
            b"POST /v1/translate HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n{\"nlq\":",
        )
        .unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("read");
    assert!(
        out.is_empty(),
        "expected silent close, got {}",
        String::from_utf8_lossy(&out)
    );
    server.shutdown();
}

#[test]
fn immediate_close_without_bytes_is_not_an_error() {
    let _session = FaultSession::begin();
    let (_corpus, server) = spawn_server(&[]);
    for _ in 0..3 {
        let stream = connect(&server);
        drop(stream);
    }
    // The server survives and still answers.
    let raw = roundtrip_to_eof(&server, &request_raw("GET", "/healthz", "", true));
    assert_eq!(status_of(&raw), 200);
    server.shutdown();
}

#[test]
fn idle_keep_alive_connections_are_reaped() {
    let _session = FaultSession::begin();
    let (corpus, server) = spawn_server(&[("conn_idle_ms", "150")]);
    let mut stream = connect(&server);
    stream
        .write_all(&translate_raw("show all wages", &db0(&corpus), false))
        .unwrap();
    // Read the keep-alive response head (don't close — go idle instead).
    let mut buf = [0u8; 4096];
    let n = stream.read(&mut buf).expect("first read");
    assert_eq!(status_of(&buf[..n]), 200);

    // Well past the idle budget the server must close from its side.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).expect("reaped close");
    let metrics = metrics_text(&server);
    assert!(
        metrics.contains("t2v_conn_reaped_total 1"),
        "missing reap counter in:\n{metrics}"
    );
    server.shutdown();
}

#[test]
fn graceful_drain_finishes_in_flight_requests() {
    let _session = FaultSession::begin();
    let (corpus, server) = spawn_server(&[]);
    let db = db0(&corpus);
    // Armed only after startup, and on the one-shot write-stall point: it
    // fires exactly once per response, so the in-flight window is a known
    // ~600 ms (an embed-latency plan fires once per pipeline embedding,
    // so twice per GRED translation).
    t2v_fault::arm(&FaultPlan::parse("seed=29;conn.write_stall:ms=600").unwrap());
    let raw = translate_raw("show wages during drain", &db, true);
    let addr = server.addr();
    let worker = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(&raw).expect("write");
        let mut out = Vec::new();
        stream.read_to_end(&mut out).expect("read");
        out
    });
    // Let the request reach the backend (it stalls there for ~400 ms), then
    // shut down mid-flight: drain must deliver the finished response rather
    // than resetting the socket.
    std::thread::sleep(Duration::from_millis(120));
    server.shutdown();
    let out = worker.join().expect("client thread");
    assert_eq!(status_of(&out), 200, "{}", String::from_utf8_lossy(&out));
}

// ---------------------------------------------------------------------------
// differential: event loop over loopback ≡ in-memory oracle
// ---------------------------------------------------------------------------

#[test]
fn event_loop_answers_byte_identically_to_the_in_memory_oracle() {
    let _session = FaultSession::begin();
    let corpus = generate(&CorpusConfig::tiny(7));
    let tweaks = [("tenants", "acme:tiny:8"), ("trace_buffer", "64")];
    let event = spawn_over(&corpus, &tweaks);
    // A second server over the same corpus, driven without its sockets:
    // both see the same requests in the same order, so their caches evolve
    // identically.
    let oracle = spawn_over(&corpus, &tweaks);
    let db = db0(&corpus);

    let translate = Json::obj([
        ("nlq", Json::str("show all wages by year")),
        ("db", Json::str(&db)),
    ])
    .compact();
    let batch = Json::obj([(
        "requests",
        Json::Arr(vec![
            Json::obj([("nlq", Json::str("count singers")), ("db", Json::str(&db))]),
            Json::obj([("nlq", Json::str("missing db")), ("db", Json::str("nope"))]),
        ]),
    )])
    .compact();
    let stream_req = Json::obj([
        ("nlq", Json::str("show all wages by year")),
        ("db", Json::str(&db)),
        ("backend", Json::str("gred")),
        ("stream", Json::Bool(true)),
    ])
    .compact();

    // Each case is one raw request; both servers see the identical bytes and
    // must answer with identical bytes (volatile trace id / stage timings
    // scrubbed). Order matters — cache state evolves identically on both.
    // `legacy-redirect` pins the retired unversioned route to a plain 404.
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("healthz", request_raw("GET", "/healthz", "", true)),
        ("backends", request_raw("GET", "/v1/backends", "", true)),
        (
            "translate-cold",
            request_raw("POST", "/v1/translate", &translate, true),
        ),
        (
            "translate-hit",
            request_raw("POST", "/v1/translate", &translate, true),
        ),
        (
            "malformed-json",
            request_raw("POST", "/v1/translate", "{\"nlq\": ", true),
        ),
        ("not-found", request_raw("GET", "/v1/nope", "", true)),
        (
            "legacy-redirect",
            request_raw("POST", "/translate", &translate, true),
        ),
        (
            "batch",
            request_raw("POST", "/v1/translate/batch", &batch, true),
        ),
        (
            "ndjson-stream",
            request_raw("POST", "/v1/translate", &stream_req, true),
        ),
        (
            "method-not-allowed",
            request_raw("GET", "/v1/translate", "", true),
        ),
    ];
    for (name, raw) in &cases {
        let a = roundtrip_to_eof(&event, raw);
        same(name, &a, &oracle.answer_in_memory(raw));
        assert!(status_of(&a) > 0, "case {name} produced no status line");
        if *name == "legacy-redirect" {
            assert_eq!(status_of(&a), 404, "POST /translate is no route at all");
        }
    }

    // Truncated head: a half-close must produce the blocking reader's 400.
    let truncated: &[u8] = b"POST /v1/translate HT";
    let mut stream = connect(&event);
    stream.write_all(truncated).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut a = Vec::new();
    stream.read_to_end(&mut a).expect("read");
    assert_eq!(status_of(&a), 400);
    same("truncated-head", &a, &oracle.answer_in_memory(truncated));

    // Keep-alive pipelining: three requests on one connection, the last one
    // closing — the full multi-response byte stream must match.
    let mut pipelined = Vec::new();
    pipelined.extend_from_slice(&request_raw("POST", "/v1/translate", &translate, false));
    pipelined.extend_from_slice(&request_raw("GET", "/v1/backends", "", false));
    pipelined.extend_from_slice(&request_raw("GET", "/healthz", "", true));
    let a = roundtrip_to_eof(&event, &pipelined);
    same("pipelined", &a, &oracle.answer_in_memory(&pipelined));

    // ---- the early/late split: what the loop answers itself, what hops ----
    let ask = |nlq: &str, path: &str, close: bool| {
        let body = Json::obj([("nlq", Json::str(nlq)), ("db", Json::str(&db))]).compact();
        request_raw("POST", path, &body, close)
    };

    // One keep-alive connection, request by request: the cold one hops, the
    // two hits after it are answered on the loop thread.
    let inline_before = metric(&event, "t2v_inline_responses_total");
    let steps = [
        ask("count the employees", "/v1/translate", false),
        ask("count the employees", "/v1/translate", false),
        ask("count the employees", "/v1/translate", true),
    ];
    let a = exchange(&event, &steps);
    same(
        "cold-hit-hit",
        &a,
        &oracle.answer_in_memory(&steps.concat()),
    );
    assert_eq!(header_values(&a, "x-t2v-cache"), ["miss", "hit", "hit"]);
    assert_eq!(
        metric(&event, "t2v_inline_responses_total") - inline_before,
        2,
        "exactly the two hits were answered inline"
    );

    // Pipelined [hit, miss, hit]: the hit behind the miss waits for it —
    // `Dispatched` still parks the connection — so order holds.
    let burst = [
        ask("count the employees", "/v1/translate", false),
        ask("list every salary", "/v1/translate", false),
        ask("count the employees", "/v1/translate", true),
    ]
    .concat();
    let a = roundtrip_to_eof(&event, &burst);
    same("hit-miss-hit", &a, &oracle.answer_in_memory(&burst));
    assert_eq!(header_values(&a, "x-t2v-cache"), ["hit", "miss", "hit"]);

    // Tenant-scoped: cold, then an inline hit; an unknown tenant is an
    // inline 404.
    let tenant = [
        ask("count the employees", "/v1/t/acme/translate", false),
        ask("count the employees", "/v1/t/acme/translate", false),
        ask("count the employees", "/v1/t/nope/translate", true),
    ]
    .concat();
    let a = roundtrip_to_eof(&event, &tenant);
    same("tenant", &a, &oracle.answer_in_memory(&tenant));
    assert_eq!(header_values(&a, "x-t2v-cache"), ["miss", "hit"]);
    assert!(String::from_utf8_lossy(&a).contains("unknown_tenant"));

    // Inline 4xx answers keep the connection usable: a valid request
    // follows each on the same connection.
    let unknown_db = Json::obj([("nlq", Json::str("x")), ("db", Json::str("nope"))]).compact();
    let errors = [
        request_raw("POST", "/v1/translate", "{\"nlq\": ", false),
        ask("count the employees", "/v1/translate", false),
        request_raw("POST", "/v1/translate", &unknown_db, false),
        ask("count the employees", "/v1/translate", true),
    ]
    .concat();
    let a = roundtrip_to_eof(&event, &errors);
    same("inline-4xx", &a, &oracle.answer_in_memory(&errors));
    let text = String::from_utf8_lossy(&a).into_owned();
    assert!(text.contains("invalid JSON") && text.contains("unknown_database"));
    assert_eq!(header_values(&a, "x-t2v-cache"), ["hit", "hit"]);

    // A forced-trace hit: timings differ run to run, so compare the span
    // *set* — the inline tree is exactly `request` → `conn.read`,
    // `cache.lookup` on both — and the recorder's copy adds `resp.write`.
    let body = Json::obj([
        ("nlq", Json::str("count the employees")),
        ("db", Json::str(&db)),
    ])
    .compact();
    let traced = request_with("POST", "/v1/translate", "X-T2V-Trace: 1\r\n", &body);
    let get = |id: &str| request_raw("GET", &format!("/v1/admin/trace/{id}"), "", false);
    let stages = |trace: &Json| -> Vec<String> {
        let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
        spans
            .iter()
            .map(|s| s.get("stage").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    let mut stream = connect(&event);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream.write_all(&traced).unwrap();
    let hit = read_response(&mut reader).expect("traced hit");
    assert_eq!(header_values(&hit, "x-t2v-cache"), ["hit"]);
    let inline = json_body(&hit);
    let inline = inline.get("trace").expect("inline trace");
    assert_eq!(stages(inline), ["request", "conn.read", "cache.lookup"]);
    let oracle_hit = json_body(&oracle.answer_in_memory(&traced));
    assert_eq!(stages(oracle_hit.get("trace").unwrap()), stages(inline));
    // Same connection, next request: the loop stored the trace before it
    // parsed this one, so the record is there.
    let id = inline.get("id").and_then(Json::as_str).unwrap();
    stream.write_all(&get(id)).unwrap();
    let stored = read_response(&mut reader).expect("stored trace");
    assert_eq!(status_of(&stored), 200);
    assert_eq!(
        stages(&json_body(&stored)),
        ["request", "conn.read", "cache.lookup", "resp.write"]
    );

    event.shutdown();
    oracle.shutdown();

    // A stale entry behind an open breaker still degrades: the early stage
    // reports the expired entry as a miss, admission is refused and serves
    // it marked.
    let tweaks = [
        ("cache_ttl_secs", "1"),
        ("breaker_window", "4"),
        ("breaker_min_samples", "2"),
        ("breaker_open_ms", "60000"),
    ];
    let event = spawn_over(&corpus, &tweaks);
    let oracle = spawn_over(&corpus, &tweaks);
    let warm = ask("show all wages", "/v1/translate", true);
    same(
        "stale-warm",
        &roundtrip_to_eof(&event, &warm),
        &oracle.answer_in_memory(&warm),
    );
    std::thread::sleep(Duration::from_millis(1100));
    // The warm 200 plus one injected failure put each breaker's window at
    // its 50% threshold.
    t2v_fault::arm(&FaultPlan::parse("seed=14;backend.error:backend=gred").unwrap());
    let storm = ask("show salary 0", "/v1/translate", true);
    let a = roundtrip_to_eof(&event, &storm);
    same("stale-storm", &a, &oracle.answer_in_memory(&storm));
    assert_eq!(status_of(&a), 500);
    let a = roundtrip_to_eof(&event, &warm);
    same("stale-degraded", &a, &oracle.answer_in_memory(&warm));
    assert_eq!(status_of(&a), 200);
    assert_eq!(header_values(&a, "x-t2v-degraded"), ["stale_cache"]);
    assert_eq!(header_values(&a, "x-t2v-cache"), ["stale"]);
    event.shutdown();
    oracle.shutdown();
}

/// A miss whose deadline passes while its worker still translates is
/// answered 504 by the loop's timer; a hit pipelined behind it on the same
/// keep-alive connection follows the 504, and the worker's late reply never
/// reaches the wire — it is dropped and counted.
#[test]
fn a_504_keeps_pipelined_order_and_the_late_reply_never_reaches_the_wire() {
    let _session = FaultSession::begin();
    let (corpus, server) = spawn_server(&[]);
    let db = db0(&corpus);
    let hit = translate_raw("show all wages", &db, false);
    assert_eq!(
        status_of(&exchange(&server, std::slice::from_ref(&hit))),
        200,
        "warm the hit"
    );

    // The miss's two retrievals sleep 300 ms each; its budget is 60 ms.
    t2v_fault::arm(&FaultPlan::parse("seed=5;retrieve.latency:ms=300,count=2").unwrap());
    let body = Json::obj([
        ("nlq", Json::str("list every salary")),
        ("db", Json::str(&db)),
    ])
    .compact();
    let slow = request_with("POST", "/v1/translate", "X-T2V-Deadline-Ms: 60\r\n", &body);
    let mut stream = connect(&server);
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    stream.write_all(&[slow, hit].concat()).unwrap();
    let first = read_response(&mut reader).expect("the miss's answer");
    let second = read_response(&mut reader).expect("the hit's answer");
    assert_eq!(
        status_of(&first),
        504,
        "{}",
        String::from_utf8_lossy(&first)
    );
    assert_eq!(status_of(&second), 200);
    assert_eq!(header_values(&second, "x-t2v-cache"), ["hit"]);

    let late = || metric(&server, "t2v_late_replies_dropped_total");
    let deadline = Instant::now() + Duration::from_secs(10);
    while late() == 0 {
        assert!(
            Instant::now() < deadline,
            "the late reply was never counted"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The worker has let go of its reply: whatever the connection carries
    // next is one answer, to the next request.
    stream
        .write_all(&request_raw("GET", "/healthz", "", true))
        .unwrap();
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("read to eof");
    let text = String::from_utf8_lossy(&rest);
    assert_eq!(text.matches("HTTP/1.1 ").count(), 1, "{text}");
    assert_eq!(status_of(&rest), 200, "{text}");
    assert!(text.contains("\"status\":\"ok\""), "{text}");
    assert_eq!(late(), 1);
    server.shutdown();
}

/// A batch's deadline is the loop's timer too: items still translating
/// when it fires conclude as timed out, in order beside the item that hit,
/// and each of their late replies is dropped and counted.
#[test]
fn a_batch_out_of_deadline_concludes_its_open_items_as_timed_out() {
    let _session = FaultSession::begin();
    let (corpus, server) = spawn_server(&[("workers", "2")]);
    let db = db0(&corpus);
    let warm = exchange(&server, &[translate_raw("show all wages", &db, false)]);
    assert_eq!(status_of(&warm), 200, "warm the hit");

    // Every retrieval sleeps 300 ms; the batch's budget is 100 ms.
    t2v_fault::arm(&FaultPlan::parse("seed=5;retrieve.latency:ms=300").unwrap());
    let ask = |nlq: &str| Json::obj([("nlq", Json::str(nlq)), ("db", Json::str(&db))]);
    let items = ["show all wages", "list every salary", "count the staff"];
    let batch = Json::obj([("requests", Json::Arr(items.map(ask).to_vec()))]).compact();
    let raw = request_with(
        "POST",
        "/v1/translate/batch",
        "X-T2V-Deadline-Ms: 100\r\n",
        &batch,
    );
    let answer = exchange(&server, &[raw]);
    assert_eq!(
        status_of(&answer),
        200,
        "{}",
        String::from_utf8_lossy(&answer)
    );
    let doc = json_body(&answer);
    let results = doc.get("results").and_then(Json::as_arr).expect("results");
    let code = |r: &Json| {
        let code = r.get("error").and_then(|e| e.get("code"));
        code.and_then(Json::as_str).map(str::to_string)
    };
    let codes: Vec<Option<String>> = results.iter().map(code).collect();
    let timed_out = Some("deadline_exceeded".to_string());
    assert_eq!(codes, [None, timed_out.clone(), timed_out], "{results:?}");

    let late = || metric(&server, "t2v_late_replies_dropped_total");
    let deadline = Instant::now() + Duration::from_secs(10);
    while late() < 2 {
        assert!(
            Instant::now() < deadline,
            "late replies counted: {}",
            late()
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(late(), 2);
    server.shutdown();
}

/// The admin routes that build, drop or write are jobs on the translation
/// pool: with the pool full, one is refused at once with the pool's 503,
/// as a translation would be.
#[test]
fn a_full_pool_refuses_an_admin_job_with_its_503() {
    let _session = FaultSession::begin();
    let (corpus, server) = spawn_server(&[("workers", "1"), ("queue_capacity", "1")]);
    let db = db0(&corpus);
    // Every retrieval sleeps 800 ms: one miss holds the worker, the next
    // fills the one-job queue.
    let armed = t2v_fault::arm(&FaultPlan::parse("seed=9;retrieve.latency:ms=800").unwrap());
    let addr = server.addr();
    let misses: Vec<_> = ["list every salary", "count the staff"]
        .into_iter()
        .map(|nlq| {
            let raw = translate_raw(nlq, &db, true);
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.write_all(&raw).expect("write");
                let mut out = Vec::new();
                stream.read_to_end(&mut out).expect("read");
                out
            })
        })
        .collect();
    let queued = || server.state().metrics.get(Scalar::QueueDepth);
    let t0 = Instant::now();
    while armed.fired(t2v_fault::FaultPoint::RetrieveLatency) == 0 || queued() == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "the pool never filled"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let refused = roundtrip_to_eof(
        &server,
        &request_raw("POST", "/v1/admin/snapshot", "", true),
    );
    let text = String::from_utf8_lossy(&refused);
    assert_eq!(status_of(&refused), 503, "{text}");
    assert_eq!(header_values(&refused, "retry-after"), ["1"], "{text}");
    assert!(text.contains("server overloaded"), "{text}");
    for miss in misses {
        assert_eq!(status_of(&miss.join().expect("miss client")), 200);
    }
    server.shutdown();
}

// ---------------------------------------------------------------------------
// the loop-thread contract
// ---------------------------------------------------------------------------

#[test]
fn twenty_thousand_pipelined_hits_stay_flat_and_fair() {
    const BURST: usize = 20_000;
    let _session = FaultSession::begin();
    let (corpus, server) = spawn_server(&[]);
    let db = db0(&corpus);
    assert_eq!(
        status_of(&roundtrip_to_eof(
            &server,
            &translate_raw("show all wages", &db, true)
        )),
        200,
        "warm the key"
    );

    let mut burst = translate_raw("show all wages", &db, false).repeat(BURST);
    burst.extend(translate_raw("show all wages", &db, true));
    let mut stream = connect(&server);
    let reader = BufReader::new(stream.try_clone().unwrap());
    let answered = Arc::new(AtomicUsize::new(0));
    let progress = Arc::clone(&answered);
    // Responses must be drained while the burst is still being written, or
    // both sides fill their socket buffers and stop.
    let drain = std::thread::spawn(move || {
        let mut reader = reader;
        let mut last = Vec::new();
        while let Some(raw) = read_response(&mut reader) {
            assert_eq!(status_of(&raw), 200);
            assert_eq!(header_values(&raw, "x-t2v-cache"), ["hit"]);
            progress.fetch_add(1, Ordering::Relaxed);
            last = raw;
        }
        last
    });
    let started = Instant::now();
    let writer = std::thread::spawn(move || stream.write_all(&burst).expect("write burst"));

    // Mid-burst, a second connection must not wait for the first to finish.
    while answered.load(Ordering::Relaxed) < 100 {
        assert!(started.elapsed() < Duration::from_secs(60), "burst stalled");
        std::thread::yield_now();
    }
    let health = roundtrip_to_eof(&server, &request_raw("GET", "/healthz", "", true));
    let seen = answered.load(Ordering::Relaxed);
    assert_eq!(status_of(&health), 200);
    assert!(
        seen <= BURST,
        "/healthz was answered only after all {seen} pipelined responses"
    );

    writer.join().expect("writer thread");
    let last = drain.join().expect("drain thread");
    assert_eq!(answered.load(Ordering::Relaxed), BURST + 1);
    // In order: the one request that asked to close was answered last.
    assert_eq!(header_values(&last, "connection"), ["close"]);
    server.shutdown();
}

#[test]
fn a_write_stalled_hit_leaves_the_loop_serving_other_connections() {
    let _session = FaultSession::begin();
    let (corpus, server) = spawn_server(&[]);
    let db = db0(&corpus);
    let hit = translate_raw("show all wages", &db, false);
    let mut other = connect(&server);
    let mut other_reader = BufReader::new(other.try_clone().unwrap());
    other.write_all(&hit).unwrap();
    read_response(&mut other_reader).expect("warm the key");

    // One stall in the budget: the next finished reply takes it.
    let armed =
        t2v_fault::arm(&FaultPlan::parse("seed=3;conn.write_stall:count=1,ms=200").unwrap());
    let addr = server.addr();
    let stalled_request = translate_raw("show all wages", &db, true);
    let stalled = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let t0 = Instant::now();
        stream.write_all(&stalled_request).expect("write");
        let mut out = Vec::new();
        stream.read_to_end(&mut out).expect("read");
        (out, t0.elapsed())
    });
    // The point fires on the loop thread; the sleep must not happen there.
    while armed.fired(t2v_fault::FaultPoint::ConnWriteStall) == 0 {
        std::thread::yield_now();
    }
    for _ in 0..20 {
        let t0 = Instant::now();
        other.write_all(&hit).unwrap();
        let raw = read_response(&mut other_reader).expect("a hit while the other stalls");
        assert_eq!(header_values(&raw, "x-t2v-cache"), ["hit"]);
        assert!(
            t0.elapsed() < Duration::from_millis(50),
            "a hit waited {:?} behind another connection's write stall",
            t0.elapsed()
        );
    }
    let (out, took) = stalled.join().expect("stalled client");
    assert_eq!(status_of(&out), 200);
    assert_eq!(header_values(&out, "x-t2v-cache"), ["hit"]);
    assert!(
        took >= Duration::from_millis(200),
        "stall skipped: {took:?}"
    );
    assert_eq!(armed.fired(t2v_fault::FaultPoint::ConnWriteStall), 1);
    server.shutdown();
}

#[test]
fn an_inline_hit_still_reaches_the_access_log() {
    let _session = FaultSession::begin();
    let dir = std::env::temp_dir().join(format!("t2v-event-log-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("access.log");
    let (corpus, server) = spawn_server(&[("access_log", log_path.to_str().unwrap())]);
    let db = db0(&corpus);
    let raw = translate_raw("show all wages", &db, false);
    let a = exchange(&server, &[raw.clone(), raw]);
    assert_eq!(header_values(&a, "x-t2v-cache"), ["miss", "hit"]);

    // The hit's line is posted to the log's writer thread once the
    // response is framed, so it may trail the response by a moment.
    let deadline = Instant::now() + Duration::from_secs(10);
    let lines = loop {
        let text = std::fs::read_to_string(&log_path).unwrap_or_default();
        let lines: Vec<Json> = text.lines().filter_map(|l| Json::parse(l).ok()).collect();
        if lines.len() >= 2 {
            break lines;
        }
        assert!(Instant::now() < deadline, "access log has {text:?}");
        std::thread::sleep(Duration::from_millis(5));
    };
    let hit = lines
        .iter()
        .find(|l| l.get("cache").and_then(Json::as_str) == Some("hit"))
        .expect("a line for the hit");
    assert_eq!(
        hit.get("path").and_then(Json::as_str),
        Some("/v1/translate")
    );
    let Some(Json::Obj(stages)) = hit.get("stages_ms") else {
        panic!("stages_ms object in {hit:?}");
    };
    let keys: Vec<&str> = stages.keys().map(String::as_str).collect();
    assert_eq!(keys, ["cache.lookup", "conn.read", "resp.write"]);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The loop parses every body `max_body_bytes` lets in: a hit behind a
/// large body is answered on the loop like any other.
#[test]
fn oversized_bodies_are_answered_on_the_loop() {
    let _session = FaultSession::begin();
    let (corpus, server) = spawn_server(&[]);
    let db = db0(&corpus);
    let small = translate_raw("show all wages", &db, false);
    // The same question behind 20 KiB of ignored padding: inside
    // `max_body_bytes`.
    let padded = Json::obj([
        ("nlq", Json::str("show all wages")),
        ("db", Json::str(&db)),
        ("pad", Json::str("x".repeat(20 * 1024))),
    ])
    .compact();
    let big = request_raw("POST", "/v1/translate", &padded, false);
    let a = exchange(&server, &[small.clone(), small, big]);
    assert_eq!(header_values(&a, "x-t2v-cache"), ["miss", "hit", "hit"]);
    assert_eq!(
        metric(&server, "t2v_inline_responses_total"),
        2,
        "both hits, the small and the padded one, were answered on the loop"
    );
    server.shutdown();
}

/// A single translation with a large body is parsed, admitted and parked on
/// the loop like any other miss, so its deadline is the loop's timer and
/// its late reply is dropped and counted — no thread waits on the pool for
/// it.
#[test]
fn an_oversized_miss_is_parked_on_the_loop() {
    let _session = FaultSession::begin();
    let (corpus, server) = spawn_server(&[]);
    let db = db0(&corpus);
    let padded = |nlq: &str| {
        Json::obj([
            ("nlq", Json::str(nlq)),
            ("db", Json::str(&db)),
            ("pad", Json::str("x".repeat(20 * 1024))),
        ])
        .compact()
    };
    let fresh = request_raw("POST", "/v1/translate", &padded("show all wages"), false);
    let a = exchange(&server, &[fresh]);
    assert_eq!(status_of(&a), 200, "{}", String::from_utf8_lossy(&a));
    assert_eq!(header_values(&a, "x-t2v-cache"), ["miss"]);

    // The miss's two retrievals sleep 300 ms each; its budget is 60 ms.
    t2v_fault::arm(&FaultPlan::parse("seed=5;retrieve.latency:ms=300,count=2").unwrap());
    let headers = "X-T2V-Deadline-Ms: 60\r\n";
    let slow = request_with(
        "POST",
        "/v1/translate",
        headers,
        &padded("list every salary"),
    );
    let b = exchange(&server, &[slow]);
    assert_eq!(status_of(&b), 504, "{}", String::from_utf8_lossy(&b));
    let deadline = Instant::now() + Duration::from_secs(10);
    while metric(&server, "t2v_late_replies_dropped_total") == 0 {
        assert!(
            Instant::now() < deadline,
            "the late reply was never counted"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown();
}

/// A stream holds no thread while it waits: it is parked, and the worker
/// that translates it writes its lines. Four slow streams on a two-worker
/// server hold both workers and queue two jobs on the pool, and `/healthz`,
/// `/metrics`, the status page and their access-log lines still come at
/// once.
#[test]
fn slow_streams_leave_health_metrics_and_the_access_log_answering() {
    let _session = FaultSession::begin();
    let dir = std::env::temp_dir().join(format!("t2v-event-streams-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let log_path = dir.join("access.log");
    let log = log_path.to_str().unwrap();
    let (corpus, server) = spawn_server(&[("workers", "2"), ("access_log", log)]);
    let db = db0(&corpus);
    // Every retrieval sleeps 800 ms: each stream runs for over 1.6 s, the
    // two queued ones for over 3.2 s.
    let armed = t2v_fault::arm(&FaultPlan::parse("seed=9;retrieve.latency:ms=800").unwrap());
    let questions = [
        "show all wages",
        "list every salary",
        "count the staff",
        "show the budgets",
    ];
    let streams: Vec<_> = questions
        .into_iter()
        .map(|nlq| {
            let body = Json::obj([
                ("nlq", Json::str(nlq)),
                ("db", Json::str(&db)),
                ("stream", Json::Bool(true)),
            ])
            .compact();
            let raw = request_raw("POST", "/v1/translate", &body, true);
            let addr = server.addr();
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.write_all(&raw).expect("write");
                let mut out = Vec::new();
                stream.read_to_end(&mut out).expect("read");
                out
            })
        })
        .collect();
    // Both workers sleep in a retrieval; the other two streams' jobs queue.
    let t0 = Instant::now();
    while armed.fired(t2v_fault::FaultPoint::RetrieveLatency) < 2 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "the streams never started"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    for path in ["/healthz", "/metrics", "/v1/admin/status"] {
        let asked = Instant::now();
        let raw = roundtrip_to_eof(&server, &request_raw("GET", path, "", true));
        assert_eq!(status_of(&raw), 200, "{path}");
        assert!(
            asked.elapsed() < Duration::from_millis(500),
            "{path} waited {:?} behind the streams",
            asked.elapsed()
        );
    }
    let logged = Instant::now();
    loop {
        let text = std::fs::read_to_string(&log_path).unwrap_or_default();
        if text.contains("\"path\":\"/healthz\"") {
            break;
        }
        assert!(
            logged.elapsed() < Duration::from_millis(500),
            "no /healthz line in {text:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        streams.iter().all(|s| !s.is_finished()),
        "a stream ended before the probes: the bound above proves nothing"
    );
    for s in streams {
        let out = s.join().expect("stream client");
        let text = String::from_utf8_lossy(&out);
        assert_eq!(status_of(&out), 200, "{text}");
        assert!(text.trim_end().ends_with('}'), "{text}");
        assert!(text.contains("\"dvq\":\""), "{text}");
    }
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A stream or a batch holds no thread while the pool works for it. With
/// one worker held by a slow stream, a batch of cached questions is
/// answered on the loop and a second stream's 200 head is written when it
/// is admitted, its job queued behind the first: both come at once.
#[test]
fn a_stream_holding_the_only_worker_leaves_batches_and_stream_heads_answering() {
    let _session = FaultSession::begin();
    let (corpus, server) = spawn_server(&[("workers", "1")]);
    let db = db0(&corpus);
    let ask = |nlq: &str| Json::obj([("nlq", Json::str(nlq)), ("db", Json::str(&db))]);
    let stream_raw = |nlq: &str| {
        let mut body = ask(nlq);
        body.set("stream", Json::Bool(true));
        request_raw("POST", "/v1/translate", &body.compact(), true)
    };
    let cached = ["show all wages", "count the staff"];
    for nlq in cached {
        let warm = exchange(&server, &[translate_raw(nlq, &db, false)]);
        assert_eq!(status_of(&warm), 200, "warm {nlq}");
    }

    // Every retrieval sleeps 800 ms: the first stream holds the worker for
    // over 1.6 s.
    let armed = t2v_fault::arm(&FaultPlan::parse("seed=9;retrieve.latency:ms=800").unwrap());
    let first = stream_raw("list every salary");
    let addr = server.addr();
    let slow = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(&first).expect("write");
        let mut out = Vec::new();
        stream.read_to_end(&mut out).expect("read");
        out
    });
    let t0 = Instant::now();
    while armed.fired(t2v_fault::FaultPoint::RetrieveLatency) == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "the stream never started"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let batch =
        Json::obj([("requests", Json::Arr(cached.into_iter().map(ask).collect()))]).compact();
    let asked = Instant::now();
    let answer = roundtrip_to_eof(
        &server,
        &request_raw("POST", "/v1/translate/batch", &batch, true),
    );
    let batch_took = asked.elapsed();
    assert_eq!(
        status_of(&answer),
        200,
        "{}",
        String::from_utf8_lossy(&answer)
    );
    let results = json_body(&answer);
    let results = results
        .get("results")
        .and_then(Json::as_arr)
        .expect("results");
    assert_eq!(results.len(), 2);
    assert!(
        results.iter().all(|r| r.get("error").is_none()),
        "{results:?}"
    );

    let asked = Instant::now();
    let mut second = connect(&server);
    second.write_all(&stream_raw("show the budgets")).unwrap();
    let mut reader = BufReader::new(second);
    let mut head = Vec::new();
    while !head.ends_with(b"\r\n\r\n") {
        assert!(reader.read_until(b'\n', &mut head).expect("read head") > 0);
    }
    let head_took = asked.elapsed();
    let head = String::from_utf8_lossy(&head).into_owned();
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("application/x-ndjson"), "{head}");

    for (what, took) in [("the batch", batch_took), ("the stream head", head_took)] {
        assert!(
            took < Duration::from_millis(200),
            "{what} waited {took:?} behind a stream"
        );
    }
    assert!(
        !slow.is_finished(),
        "the first stream ended before the probes: the bounds above prove nothing"
    );
    let mut rest = String::new();
    reader
        .read_to_string(&mut rest)
        .expect("read the second stream");
    assert!(
        rest.trim_end().ends_with('}') && rest.contains("\"dvq\":\""),
        "{rest}"
    );
    let out = slow.join().expect("first stream client");
    assert_eq!(status_of(&out), 200, "{}", String::from_utf8_lossy(&out));
    server.shutdown();
}

/// A write stall that fires for a miss is slept on a dispatch thread, not
/// on the worker that answered it: with one worker, the next miss is
/// translated and answered while the first response still stalls.
#[test]
fn a_stalled_miss_leaves_its_worker_translating() {
    let _session = FaultSession::begin();
    let (corpus, server) = spawn_server(&[("workers", "1")]);
    let db = db0(&corpus);
    let plan = FaultPlan::parse("seed=3;conn.write_stall:count=1,ms=3000").unwrap();
    let armed = t2v_fault::arm(&plan);
    let first = translate_raw("show all wages", &db, true);
    let addr = server.addr();
    let stalled = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let t0 = Instant::now();
        stream.write_all(&first).expect("write");
        let mut out = Vec::new();
        stream.read_to_end(&mut out).expect("read");
        (out, t0.elapsed())
    });
    let t0 = Instant::now();
    while armed.fired(t2v_fault::FaultPoint::ConnWriteStall) == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "the stall never fired"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let next = exchange(&server, &[translate_raw("list every salary", &db, false)]);
    assert_eq!(status_of(&next), 200);
    assert_eq!(header_values(&next, "x-t2v-cache"), ["miss"]);
    assert!(
        !stalled.is_finished(),
        "the next miss was answered only after the stalled one"
    );
    let (out, took) = stalled.join().expect("stalled client");
    assert_eq!(status_of(&out), 200);
    assert_eq!(header_values(&out, "x-t2v-cache"), ["miss"]);
    assert!(
        took >= Duration::from_millis(3000),
        "stall skipped: {took:?}"
    );
    server.shutdown();
}

// ---------------------------------------------------------------------------
// capacity: max_connections sockets held, the next one shed at accept
// ---------------------------------------------------------------------------

#[test]
fn the_loop_holds_max_connections_sockets_and_sheds_the_next() {
    const MAX: usize = 128;
    let _session = FaultSession::begin();
    let (corpus, server) = spawn_server(&[("max_connections", "128")]);
    let raw = translate_raw("show all wages", &db0(&corpus), false);
    // In-process counters only: a `/metrics` scrape is a connection too,
    // and at capacity it would be shed.
    let metrics = &server.state().metrics;
    let active = || {
        metrics
            .scalar(Scalar::ConnectionsActive)
            .load(Ordering::Acquire)
    };

    let mut held: Vec<(TcpStream, BufReader<TcpStream>)> = (0..MAX)
        .map(|_| {
            let stream = connect(&server);
            let reader = BufReader::new(stream.try_clone().unwrap());
            (stream, reader)
        })
        .collect();
    // One question round-robin over every socket, twice: each socket
    // carries traffic, and by the second sweep the answer is cached.
    for sweep in 0..2 {
        for (i, (stream, reader)) in held.iter_mut().enumerate() {
            stream.write_all(&raw).expect("write request");
            let answer = read_response(reader).expect("an answer per socket");
            assert_eq!(status_of(&answer), 200, "sweep {sweep}, socket {i}");
            if sweep == 1 {
                assert_eq!(header_values(&answer, "x-t2v-cache"), ["hit"], "socket {i}");
            }
        }
    }
    assert_eq!(active(), MAX as u64);

    // One over capacity: the canned 503, then EOF, before any parsing.
    let rejected = metrics.get(Scalar::Rejected);
    let mut extra = connect(&server);
    let mut shed = Vec::new();
    extra.read_to_end(&mut shed).expect("read to eof");
    assert_eq!(
        String::from_utf8_lossy(&shed),
        String::from_utf8_lossy(t2v_serve::http::overload_response_bytes())
    );
    assert_eq!(metrics.get(Scalar::Rejected), rejected + 1);
    assert_eq!(
        active(),
        MAX as u64,
        "the shed socket left the count as it was"
    );

    drop(held);
    let deadline = Instant::now() + Duration::from_secs(10);
    while active() != 0 {
        assert!(
            Instant::now() < deadline,
            "{} sockets still counted",
            active()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    server.shutdown();
}
