//! Event-driver integration tests: slow-loris and partial-read robustness
//! against the epoll connection layer, idle reaping, graceful drain, and the
//! differential contract — the event loop over loopback answers
//! byte-identically to the blocking one-shot parser + handler
//! (`Server::answer_in_memory`) for the same request bytes.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;
use t2v_corpus::{generate, CorpusConfig};
use t2v_engine::Json;
use t2v_fault::FaultPlan;
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
    format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\n{conn}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
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

fn metrics_text(server: &Server) -> String {
    let raw = roundtrip_to_eof(server, &request_raw("GET", "/metrics", "", true));
    String::from_utf8_lossy(&raw).into_owned()
}

// ---------------------------------------------------------------------------
// slow-loris and partial reads
// ---------------------------------------------------------------------------

#[test]
fn byte_at_a_time_request_still_gets_a_full_answer() {
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
    // ~600 ms (an embed-latency plan would fire per embed call and could
    // push the request past the drain budget).
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
    let corpus = generate(&CorpusConfig::tiny(7));
    let event = spawn_over(&corpus, &[]);
    // A second server over the same corpus, driven without its sockets:
    // both see the same requests in the same order, so their caches evolve
    // identically.
    let oracle = spawn_over(&corpus, &[]);
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
        let a = scrub(&roundtrip_to_eof(&event, raw));
        let b = scrub(&oracle.answer_in_memory(raw));
        assert_eq!(
            a,
            b,
            "case {name} diverged:\n--- event ---\n{}\n--- oracle ---\n{}",
            String::from_utf8_lossy(&a),
            String::from_utf8_lossy(&b)
        );
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
    let a = scrub(&a);
    let b = scrub(&oracle.answer_in_memory(truncated));
    assert_eq!(status_of(&a), 400);
    assert_eq!(a, b, "truncated-head case diverged");

    // Keep-alive pipelining: three requests on one connection, the last one
    // closing — the full multi-response byte stream must match.
    let mut pipelined = Vec::new();
    pipelined.extend_from_slice(&request_raw("POST", "/v1/translate", &translate, false));
    pipelined.extend_from_slice(&request_raw("GET", "/v1/backends", "", false));
    pipelined.extend_from_slice(&request_raw("GET", "/healthz", "", true));
    let a = scrub(&roundtrip_to_eof(&event, &pipelined));
    let b = scrub(&oracle.answer_in_memory(&pipelined));
    assert_eq!(
        a,
        b,
        "pipelined case diverged:\n--- event ---\n{}\n--- oracle ---\n{}",
        String::from_utf8_lossy(&a),
        String::from_utf8_lossy(&b)
    );

    event.shutdown();
    oracle.shutdown();
}
