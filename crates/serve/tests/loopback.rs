//! Loopback integration tests: spawn the real server on an OS-assigned port
//! and drive it over real sockets — concurrency, caching byte-identity,
//! multi-backend routing, streaming, and malformed input.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;
use t2v_corpus::{generate, CorpusConfig};
use t2v_engine::Json;
use t2v_serve::{normalize_nlq, translate_body, ServeConfig, Server, ServerState};

// ---------------------------------------------------------------------------
// tiny test client
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

    fn cache(&self) -> Option<&str> {
        self.headers.get("x-t2v-cache").map(String::as_str)
    }

    /// The structured error envelope's (code, message).
    fn error(&self) -> (String, String) {
        let doc = self.json();
        let err = doc.get("error").expect("error object");
        (
            err.get("code").and_then(Json::as_str).unwrap().to_string(),
            err.get("message")
                .and_then(Json::as_str)
                .unwrap()
                .to_string(),
        )
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

    fn send_raw(&mut self, raw: &[u8]) -> Reply {
        self.writer.write_all(raw).expect("write request");
        self.read_reply().expect("read response")
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> Reply {
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.send_raw(raw.as_bytes())
    }

    fn translate(&mut self, nlq: &str, db: &str) -> Reply {
        let body = Json::obj([("nlq", Json::str(nlq)), ("db", Json::str(db))]).compact();
        self.request("POST", "/v1/translate", &body)
    }

    fn translate_with_backend(&mut self, nlq: &str, db: &str, backend: &str) -> Reply {
        let body = Json::obj([
            ("nlq", Json::str(nlq)),
            ("db", Json::str(db)),
            ("backend", Json::str(backend)),
        ])
        .compact();
        self.request("POST", "/v1/translate", &body)
    }

    /// Send a streaming translate request and read NDJSON lines until EOF.
    fn translate_streamed(mut self, nlq: &str, db: &str, backend: &str) -> (u16, Vec<Json>) {
        let body = Json::obj([
            ("nlq", Json::str(nlq)),
            ("db", Json::str(db)),
            ("backend", Json::str(backend)),
            ("stream", Json::Bool(true)),
        ])
        .compact();
        let raw = format!(
            "POST /v1/translate HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer.write_all(raw.as_bytes()).expect("write");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("status line");
        let status: u16 = line.split(' ').nth(1).unwrap().parse().unwrap();
        // Headers until blank line; streaming responses have no
        // Content-Length and announce Connection: close.
        let mut saw_close = false;
        loop {
            line.clear();
            self.reader.read_line(&mut line).unwrap();
            let t = line.trim_end();
            if t.is_empty() {
                break;
            }
            if t.eq_ignore_ascii_case("connection: close") {
                saw_close = true;
            }
            assert!(
                !t.to_ascii_lowercase().starts_with("content-length"),
                "streaming responses are EOF-delimited"
            );
        }
        assert!(saw_close, "streaming responses close the connection");
        let mut lines = Vec::new();
        loop {
            line.clear();
            if self.reader.read_line(&mut line).unwrap_or(0) == 0 {
                break;
            }
            let t = line.trim_end();
            if !t.is_empty() {
                lines.push(Json::parse(t).expect("NDJSON line"));
            }
        }
        (status, lines)
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

/// Spawn a server over the tiny(7) corpus. The helper registers only the
/// GRED backend by default (baseline training is exercised by the dedicated
/// multi-backend test, not by every spawn); tweaks override anything.
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

// ---------------------------------------------------------------------------
// the tests
// ---------------------------------------------------------------------------

#[test]
fn concurrent_clients_get_parseable_dvqs_and_byte_identical_cache_hits() {
    let (corpus, server) = spawn_server(&[]);
    let examples: Vec<(String, String)> = corpus
        .dev
        .iter()
        .take(12)
        .map(|ex| (ex.nlq.clone(), corpus.databases[ex.db].id.clone()))
        .collect();

    // Fan 6 clients over the examples concurrently; each asks every query
    // twice on a keep-alive connection.
    type KeyedBodies = Vec<(String, Vec<u8>, Vec<u8>)>;
    let outputs: Vec<KeyedBodies> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|c| {
                let examples = &examples;
                let server = &server;
                s.spawn(move || {
                    let mut client = Client::connect(server);
                    let mut seen = Vec::new();
                    for (nlq, db) in examples
                        .iter()
                        .skip(c * 2)
                        .chain(examples.iter().take(c * 2))
                    {
                        let first = client.translate(nlq, db);
                        assert_eq!(first.status, 200, "body: {:?}", first.json());
                        let second = client.translate(nlq, db);
                        assert_eq!(second.status, 200);
                        // The repeat is served from cache…
                        assert_eq!(second.cache(), Some("hit"));
                        seen.push((format!("{db}/{nlq}"), first.body, second.body));
                    }
                    seen
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // …and cache hits are byte-identical to the translation that filled the
    // entry — across *all* clients, not just within one connection.
    let mut canonical: HashMap<String, Vec<u8>> = HashMap::new();
    for per_client in outputs {
        for (key, first, second) in per_client {
            assert_eq!(first, second, "hit differs from miss for {key}");
            let entry = canonical
                .entry(key.clone())
                .or_insert_with(|| first.clone());
            assert_eq!(*entry, first, "clients disagree for {key}");
            // Every response carries a parseable DVQ (or a structured
            // error object).
            let doc = Json::parse(std::str::from_utf8(&first).unwrap()).unwrap();
            match doc.get("dvq") {
                Some(Json::Str(dvq)) => {
                    t2v_dvq::parse(dvq).expect("served DVQ must parse");
                }
                _ => {
                    let err = doc.get("error").expect("null dvq must carry an error");
                    err.get("code").expect("structured code");
                }
            }
        }
    }
    // What six concurrent clients were served is what the pipeline computes
    // alone, in-process, with direct retrieval (the benchmark's oracle).
    let state = server.state();
    for (nlq, db) in &examples {
        let entry = state.dbs.get(db).expect("catalog database");
        let oracle = translate_body(&state.gred, "gred", &normalize_nlq(nlq), entry, false);
        assert_eq!(
            canonical[&format!("{db}/{nlq}")],
            oracle,
            "served bytes differ from the direct oracle for {nlq}"
        );
    }
    server.shutdown();
}

#[test]
fn malformed_requests_get_structured_4xx_and_the_server_survives() {
    let (corpus, server) = spawn_server(&[]);
    let db = corpus.databases[0].id.clone();
    let mut c = Client::connect(&server);

    // Bad JSON → 400 (connection stays usable: these are clean requests).
    let r = c.request("POST", "/v1/translate", "{\"nlq\": ");
    assert_eq!(r.status, 400);
    assert_eq!(r.error().0, "bad_request");
    // Missing fields → 400.
    assert_eq!(c.request("POST", "/v1/translate", "{}").status, 400);
    assert_eq!(
        c.request("POST", "/v1/translate", "{\"nlq\": \"show wages\"}")
            .status,
        400
    );
    // Wrong types → 400.
    let bad_veg = format!("{{\"nlq\": \"x\", \"db\": \"{db}\", \"vegalite\": \"yes\"}}");
    assert_eq!(c.request("POST", "/v1/translate", &bad_veg).status, 400);
    let bad_stream = format!("{{\"nlq\": \"x\", \"db\": \"{db}\", \"stream\": 7}}");
    assert_eq!(c.request("POST", "/v1/translate", &bad_stream).status, 400);
    let bad_backend = format!("{{\"nlq\": \"x\", \"db\": \"{db}\", \"backend\": 3}}");
    assert_eq!(c.request("POST", "/v1/translate", &bad_backend).status, 400);
    // Whitespace-only NLQ → 400 with the taxonomy code.
    let blank = format!("{{\"nlq\": \"  \", \"db\": \"{db}\"}}");
    let r = c.request("POST", "/v1/translate", &blank);
    assert_eq!(r.status, 400);
    assert_eq!(r.error().0, "empty_query");
    // Unknown database → 404 with a useful structured message.
    let r = c.translate("show wages", "no_such_db");
    assert_eq!(r.status, 404);
    let (code, message) = r.error();
    assert_eq!(code, "unknown_database");
    assert!(message.contains("no_such_db"));
    // Unknown backend → 404 listing what is registered.
    let r = c.translate_with_backend("show wages", &db, "gpt99");
    assert_eq!(r.status, 404);
    let (code, message) = r.error();
    assert_eq!(code, "unknown_backend");
    assert!(message.contains("gpt99") && message.contains("gred"));
    // Unknown route → 404; wrong method on a real route → 405.
    assert_eq!(c.request("GET", "/nope", "").status, 404);
    assert_eq!(c.request("GET", "/v1/translate", "").status, 405);
    assert_eq!(c.request("GET", "/v1/translate/batch", "").status, 405);
    assert_eq!(c.request("POST", "/v1/backends", "").status, 405);
    assert_eq!(c.request("POST", "/healthz", "").status, 405);

    // Broken HTTP framing → 400, server closes that connection only.
    let mut broken = Client::connect(&server);
    let r = broken.send_raw(b"NONSENSE\r\n\r\n");
    assert_eq!(r.status, 400);
    // Oversized body → 413 (body never allocated).
    let mut big = Client::connect(&server);
    let r = big.send_raw(b"POST /v1/translate HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n");
    assert_eq!(r.status, 413);

    // After all of that, the server still translates and reports healthy.
    let mut fresh = Client::connect(&server);
    assert_eq!(fresh.request("GET", "/healthz", "").status, 200);
    let ok = fresh.translate(&corpus.dev[0].nlq, &corpus.databases[corpus.dev[0].db].id);
    assert_eq!(ok.status, 200);
    server.shutdown();
}

#[test]
fn healthz_and_metrics_reflect_traffic() {
    let (corpus, server) = spawn_server(&[]);
    let mut c = Client::connect(&server);

    let health = c.request("GET", "/healthz", "");
    assert_eq!(health.status, 200);
    let doc = health.json();
    assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(
        doc.get("databases").and_then(Json::as_f64),
        Some(corpus.databases.len() as f64)
    );
    assert_eq!(
        doc.get("library").and_then(Json::as_f64),
        Some(corpus.train.len() as f64)
    );
    assert_eq!(doc.get("backends").and_then(Json::as_f64), Some(1.0));

    let ex = &corpus.dev[0];
    let db = &corpus.databases[ex.db].id;
    assert_eq!(c.translate(&ex.nlq, db).cache(), Some("miss"));
    assert_eq!(c.translate(&ex.nlq, db).cache(), Some("hit"));
    assert_eq!(c.translate("", "").status, 400);

    let metrics = c.request("GET", "/metrics", "");
    assert_eq!(metrics.status, 200);
    let text = String::from_utf8(metrics.body).unwrap();
    assert!(text.contains("t2v_http_requests_total{route=\"translate\",status=\"2xx\"} 2"));
    assert!(text.contains("t2v_http_requests_total{route=\"translate\",status=\"4xx\"} 1"));
    assert!(text.contains("t2v_cache_hits_total 1"));
    assert!(text.contains("t2v_cache_misses_total 1"));
    assert!(text.contains("t2v_translate_seconds_count 1"));
    assert!(text.contains("t2v_connections_active 1"));
    // The sharded cache reports its shard count, derived from the workers…
    let shards = ServeConfig::default().effective_cache_shards();
    assert!(text.contains(&format!("t2v_cache_shards {shards}")));
    // …and the per-backend families carry the registered label.
    assert!(text.contains("t2v_backend_translations_total{backend=\"gred\"} 1"));
    assert!(text.contains("t2v_backend_cache_hits_total{backend=\"gred\"} 1"));
    assert!(text.contains("t2v_backend_cache_misses_total{backend=\"gred\"} 1"));
    assert!(text.contains("t2v_backend_errors_total{backend=\"gred\"} 0"));
    server.shutdown();
}

#[test]
fn the_inline_counter_says_which_thread_answered() {
    let (corpus, server) = spawn_server(&[]);
    let mut c = Client::connect(&server);
    let ex = &corpus.dev[0];
    let db = &corpus.databases[ex.db].id;
    let inline = |c: &mut Client| -> f64 {
        let text = String::from_utf8(c.request("GET", "/metrics", "").body).unwrap();
        text.lines()
            .find_map(|l| l.strip_prefix("t2v_inline_responses_total ")?.parse().ok())
            .expect("t2v_inline_responses_total in /metrics")
    };

    // Two identical requests: the miss is answered by its worker (the
    // scrapes by a dispatch thread), the hit where it was parsed.
    let before = inline(&mut c);
    assert_eq!(c.translate(&ex.nlq, db).cache(), Some("miss"));
    assert_eq!(c.translate(&ex.nlq, db).cache(), Some("hit"));
    assert_eq!(inline(&mut c) - before, 1.0);
    let status = c.request("GET", "/v1/admin/status", "").json();
    assert_eq!(
        status
            .get("event")
            .and_then(|e| e.get("inline"))
            .and_then(Json::as_f64),
        Some(before + 1.0)
    );
    server.shutdown();
}

#[test]
fn vegalite_responses_execute_and_cache_separately() {
    let (corpus, server) = spawn_server(&[]);
    let ex = &corpus.dev[0];
    let db = corpus.databases[ex.db].id.clone();
    let mut c = Client::connect(&server);
    let body = Json::obj([
        ("nlq", Json::str(ex.nlq.as_str())),
        ("db", Json::str(db.as_str())),
        ("vegalite", Json::Bool(true)),
    ])
    .compact();
    let with_spec = c.request("POST", "/v1/translate", &body);
    assert_eq!(with_spec.status, 200);
    let doc = with_spec.json();
    let spec = doc.get("vegalite").expect("vegalite requested");
    if !matches!(spec, Json::Null) {
        assert!(spec.get("mark").is_some(), "spec has a mark: {spec:?}");
    } else {
        doc.get("vegalite_error").expect("null spec carries why");
    }
    // The plain variant is a *different* cache entry (response shape is part
    // of the key) and must still be a miss.
    let plain = c.translate(&ex.nlq, &db);
    assert_eq!(plain.cache(), Some("miss"));
    assert!(plain.json().get("vegalite").is_none());
    // And repeating the vegalite request hits its own entry byte-for-byte.
    let again = c.request("POST", "/v1/translate", &body);
    assert_eq!(again.cache(), Some("hit"));
    assert_eq!(again.body, with_spec.body);
    server.shutdown();
}

#[test]
fn normalized_nlq_variants_share_one_cache_entry() {
    let (corpus, server) = spawn_server(&[]);
    let ex = &corpus.dev[1];
    let db = corpus.databases[ex.db].id.clone();
    let mut c = Client::connect(&server);
    let first = c.translate(&ex.nlq, &db);
    assert_eq!(first.cache(), Some("miss"));
    let shouty = format!("  {}  ", ex.nlq.to_uppercase());
    let second = c.translate(&shouty, &db);
    assert_eq!(
        second.cache(),
        Some("hit"),
        "case/whitespace variants normalise to one key"
    );
    assert_eq!(second.body, first.body);
    server.shutdown();
}

#[test]
fn batch_endpoint_preserves_order_and_inlines_item_errors() {
    let (corpus, server) = spawn_server(&[]);
    let mut c = Client::connect(&server);
    let ex0 = &corpus.dev[0];
    let ex1 = &corpus.dev[1];
    let db0 = corpus.databases[ex0.db].id.clone();
    let db1 = corpus.databases[ex1.db].id.clone();

    let item = |nlq: &str, db: &str| Json::obj([("nlq", Json::str(nlq)), ("db", Json::str(db))]);
    let batch = Json::obj([(
        "requests",
        Json::Arr(vec![
            item(&ex0.nlq, &db0),
            item("anything", "no_such_db"),
            item(&ex1.nlq, &db1),
            // Duplicate of item 0: must be answered (one shared cold
            // translation, not two) with the identical body.
            item(&ex0.nlq, &db0),
        ]),
    )])
    .compact();
    let r = c.request("POST", "/v1/translate/batch", &batch);
    assert_eq!(r.status, 200);
    let doc = r.json();
    let results = doc.get("results").and_then(Json::as_arr).unwrap();
    assert_eq!(results.len(), 4);
    // Item 0 and 2 translated; item 1 is an inline structured error.
    assert!(results[0].get("dvq").and_then(Json::as_str).is_some());
    assert_eq!(
        results[1]
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("unknown_database")
    );
    assert!(results[2].get("nlq").is_some());
    assert_eq!(results[3].compact(), results[0].compact());

    // Batch results share cache entries with the single endpoint: asking
    // item 0 alone is a hit with byte-identical body.
    let single = c.translate(&ex0.nlq, &db0);
    assert_eq!(single.cache(), Some("hit"));
    assert_eq!(
        Json::parse(std::str::from_utf8(&single.body).unwrap())
            .unwrap()
            .compact(),
        results[0].compact()
    );

    // Envelope errors: empty and oversized request lists.
    let r = c.request("POST", "/v1/translate/batch", "{\"requests\": []}");
    assert_eq!(r.status, 400);
    let many: Vec<Json> = (0..65).map(|_| item(&ex0.nlq, &db0)).collect();
    let r = c.request(
        "POST",
        "/v1/translate/batch",
        &Json::obj([("requests", Json::Arr(many))]).compact(),
    );
    assert_eq!(r.status, 400);
    server.shutdown();
}

#[test]
fn an_oversized_batch_is_refused_before_any_item_runs() {
    let (corpus, server) = spawn_server(&[]);
    let mut c = Client::connect(&server);
    let translations = |c: &mut Client| -> String {
        let text = String::from_utf8(c.request("GET", "/metrics", "").body).unwrap();
        text.lines()
            .find(|l| l.starts_with("t2v_backend_translations_total{backend=\"gred\"}"))
            .expect("gred translation counter in /metrics")
            .to_string()
    };
    let before = translations(&mut c);

    // 65 distinct questions: one past the limit, every one a cache miss.
    let items: Vec<Json> = (0..65)
        .map(|i| {
            let ex = &corpus.dev[i % corpus.dev.len()];
            let nlq = format!("{} {i}", ex.nlq);
            Json::obj([
                ("nlq", Json::str(&nlq)),
                ("db", Json::str(&corpus.databases[ex.db].id)),
            ])
        })
        .collect();
    let body = Json::obj([("requests", Json::Arr(items))]).compact();
    let r = c.request("POST", "/v1/translate/batch", &body);
    assert_eq!(r.status, 400);
    let (_, message) = r.error();
    assert!(
        message.contains("64"),
        "the message names the limit: {message}"
    );
    assert_eq!(translations(&mut c), before, "no item may have run");
    server.shutdown();
}

#[test]
fn streaming_emits_stages_then_the_cacheable_body() {
    let (corpus, server) = spawn_server(&[]);
    let ex = &corpus.dev[2];
    let db = corpus.databases[ex.db].id.clone();

    let (status, lines) = Client::connect(&server).translate_streamed(&ex.nlq, &db, "gred");
    assert_eq!(status, 200);
    assert!(
        lines.len() >= 2,
        "expected stage lines + final body, got {lines:?}"
    );
    // All but the last line are stage events, in pipeline order, carrying
    // timings (stream lines are not cached, so timings are allowed here).
    let stage_names: Vec<String> = lines[..lines.len() - 1]
        .iter()
        .map(|l| {
            let stage = l.get("stage").expect("stage line");
            assert!(stage.get("micros").is_some());
            stage
                .get("name")
                .and_then(Json::as_str)
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(stage_names, vec!["generator", "retuner", "debugger"]);
    let final_line = lines.last().unwrap();
    let streamed_dvq = final_line.get("dvq").and_then(Json::as_str).expect("dvq");
    t2v_dvq::parse(streamed_dvq).unwrap();

    // The final line is the same body a non-streamed request serves — and
    // the streamed translation populated the cache for it.
    let mut c = Client::connect(&server);
    let plain = c.translate(&ex.nlq, &db);
    assert_eq!(plain.status, 200);
    assert_eq!(plain.cache(), Some("hit"), "stream populated the cache");
    assert_eq!(plain.json().compact(), final_line.compact());
    server.shutdown();
}

/// `/v1/admin/status` and `/metrics` report one cache hit rate: a stream's
/// miss never touches the cache's own counters, so the status page reads
/// the registry's.
#[test]
fn status_and_metrics_count_the_same_cache_lookups() {
    let (corpus, server) = spawn_server(&[]);
    let ex = &corpus.dev[3];
    let db = corpus.databases[ex.db].id.clone();
    let mut c = Client::connect(&server);
    assert_eq!(c.translate(&ex.nlq, &db).cache(), Some("miss"));
    assert_eq!(c.translate(&ex.nlq, &db).cache(), Some("hit"));
    let (status, _) = Client::connect(&server).translate_streamed(&corpus.dev[4].nlq, &db, "gred");
    assert_eq!(status, 200);

    let text = String::from_utf8(c.request("GET", "/metrics", "").body).unwrap();
    let scraped = |name: &str| -> f64 {
        let value = text
            .lines()
            .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '));
        value
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no {name}"))
    };
    let (hits, misses) = (
        scraped("t2v_cache_hits_total"),
        scraped("t2v_cache_misses_total"),
    );
    assert_eq!(
        (hits, misses),
        (1.0, 2.0),
        "a hit, a miss and a stream's miss"
    );
    let status = c.request("GET", "/v1/admin/status", "").json();
    let cache = status.get("cache").expect("cache section");
    let field = |k: &str| cache.get(k).and_then(Json::as_f64);
    assert_eq!(field("hits"), Some(hits));
    assert_eq!(field("misses"), Some(misses));
    assert_eq!(field("hit_rate"), Some(hits / (hits + misses)));
    server.shutdown();
}

#[test]
fn snapshot_boot_serves_byte_identical_translations() {
    // The persistent-artifact acceptance path: build a server (write-through
    // snapshot), boot a second server from the snapshot, and require the
    // /v1 surface to be byte-identical between the two.
    let dir = std::env::temp_dir().join(format!("t2v-loopback-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("lib.t2vsnap");
    let snap_str = snap.to_str().unwrap().to_string();

    let (corpus, cold_server) = spawn_server(&[("snapshot_save", &snap_str)]);
    assert!(
        snap.exists(),
        "write-through must persist the built library"
    );
    t2v_store::verify(&snap).expect("write-through snapshot verifies");

    // Cold server reports built provenance; warm server reports snapshot.
    let mut c = Client::connect(&cold_server);
    let cold_backends = c.request("GET", "/v1/backends", "").json();
    let lib = cold_backends.get("library").expect("library object");
    assert_eq!(lib.get("source").and_then(Json::as_str), Some("built"));
    let fingerprint = lib
        .get("fingerprint")
        .and_then(Json::as_str)
        .expect("fingerprint")
        .to_string();
    assert!(fingerprint.starts_with("0x"));
    assert_eq!(
        lib.get("entries").and_then(Json::as_f64),
        Some(corpus.train.len() as f64)
    );

    let (_, warm_server) = spawn_server(&[("library_snapshot", &snap_str)]);
    let mut w = Client::connect(&warm_server);
    let warm_backends = w.request("GET", "/v1/backends", "").json();
    let warm_lib = warm_backends.get("library").unwrap();
    assert_eq!(
        warm_lib.get("source").and_then(Json::as_str),
        Some("snapshot")
    );
    assert_eq!(
        warm_lib.get("fingerprint").and_then(Json::as_str),
        Some(fingerprint.as_str()),
        "loaded artifact must carry the built fingerprint"
    );

    // Byte-identical translations (and Vega-Lite execution) across servers.
    for ex in corpus.dev.iter().take(8) {
        let db = &corpus.databases[ex.db].id;
        let body = Json::obj([
            ("nlq", Json::str(ex.nlq.as_str())),
            ("db", Json::str(db.as_str())),
            ("vegalite", Json::Bool(true)),
        ])
        .compact();
        let cold = c.request("POST", "/v1/translate", &body);
        let warm = w.request("POST", "/v1/translate", &body);
        assert_eq!(cold.status, 200);
        assert_eq!(warm.status, 200);
        assert_eq!(
            cold.body, warm.body,
            "snapshot-loaded server diverged on {:?}",
            ex.nlq
        );
    }

    // The warm server's metrics expose the provenance.
    let text = String::from_utf8(w.request("GET", "/metrics", "").body).unwrap();
    assert!(text.contains("source=\"snapshot\""));
    assert!(text.contains(&format!("fingerprint=\"{fingerprint}\"")));

    cold_server.shutdown();
    warm_server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn admin_snapshot_endpoint_persists_the_live_library() {
    let dir = std::env::temp_dir().join(format!("t2v-admin-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("admin.t2vsnap");
    let (corpus, server) = spawn_server(&[]);
    let mut c = Client::connect(&server);

    // No configured target and no body path: structured 400.
    let r = c.request("POST", "/v1/admin/snapshot", "");
    assert_eq!(r.status, 400);
    assert_eq!(r.error().0, "no_path");
    // Wrong method: 405.
    assert_eq!(c.request("GET", "/v1/admin/snapshot", "").status, 405);

    // Explicit path: the live library is persisted and verifiable.
    let body = Json::obj([("path", Json::str(snap.to_str().unwrap()))]).compact();
    let r = c.request("POST", "/v1/admin/snapshot", &body);
    assert_eq!(r.status, 200, "{:?}", r.json());
    let doc = r.json();
    assert_eq!(
        doc.get("entries").and_then(Json::as_f64),
        Some(corpus.train.len() as f64)
    );
    assert!(doc.get("bytes").and_then(Json::as_f64).unwrap() > 0.0);
    let manifest = t2v_store::verify(&snap).expect("admin snapshot verifies");
    assert_eq!(manifest.entries as usize, corpus.train.len());
    let text = String::from_utf8(c.request("GET", "/metrics", "").body).unwrap();
    assert!(text.contains("t2v_snapshots_written_total 1"));

    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_snapshot_fails_startup_with_structured_error() {
    let dir = std::env::temp_dir().join(format!("t2v-corrupt-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snap = dir.join("bad.t2vsnap");
    std::fs::write(&snap, b"NOTASNAPSHOT____definitely garbage").unwrap();

    let corpus = generate(&CorpusConfig::tiny(7));
    let mut config = ServeConfig::default();
    config.set("addr", "127.0.0.1:0").unwrap();
    config.set("backends", "gred").unwrap();
    config
        .set("library_snapshot", snap.to_str().unwrap())
        .unwrap();
    let err = ServerState::from_corpus(&corpus, config)
        .err()
        .expect("corrupt snapshot must not boot");
    let msg = err.to_string();
    assert!(
        msg.contains("not a t2v snapshot"),
        "diagnostic should name the cause, got: {msg}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn multi_backend_registry_serves_every_backend_with_namespaced_caching() {
    // The default registry: GRED and RGVisNet, the paper's strongest
    // baseline. This is the acceptance surface for the /v1 redesign.
    let default_backends = ServeConfig::default().backends;
    let (corpus, server) = spawn_server(&[("backends", &default_backends)]);
    let mut c = Client::connect(&server);

    // /v1/backends lists both with capability metadata, default first.
    let r = c.request("GET", "/v1/backends", "");
    assert_eq!(r.status, 200);
    let doc = r.json();
    assert_eq!(doc.get("default").and_then(Json::as_str), Some("gred"));
    let listed = doc.get("backends").and_then(Json::as_arr).unwrap();
    let ids: Vec<&str> = listed
        .iter()
        .map(|b| b.get("id").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(ids, vec!["gred", "rgvisnet"]);
    for b in listed {
        assert!(b.get("name").and_then(Json::as_str).is_some());
        assert!(b.get("kind").and_then(Json::as_str).is_some());
        assert!(!b.get("stages").and_then(Json::as_arr).unwrap().is_empty());
        assert!(b.get("deterministic").and_then(Json::as_bool).is_some());
    }
    let gred_info = &listed[0];
    assert_eq!(
        gred_info.get("kind").and_then(Json::as_str),
        Some("retrieval_augmented_llm")
    );

    // Every backend answers /v1/translate, deterministically, under its own
    // cache namespace.
    let ex = &corpus.dev[0];
    let db = corpus.databases[ex.db].id.clone();
    let mut bodies: Vec<Vec<u8>> = Vec::new();
    for id in &ids {
        let first = c.translate_with_backend(&ex.nlq, &db, id);
        assert_eq!(first.status, 200, "backend {id}: {:?}", first.json());
        assert_eq!(
            first.cache(),
            Some("miss"),
            "backend {id} must have its own cache namespace"
        );
        assert_eq!(
            first.headers.get("x-t2v-backend").map(String::as_str),
            Some(*id)
        );
        let doc = first.json();
        assert_eq!(doc.get("backend").and_then(Json::as_str), Some(*id));
        // Either a parseable DVQ or a structured taxonomy error.
        match doc.get("dvq") {
            Some(Json::Str(dvq)) => {
                t2v_dvq::parse(dvq)
                    .unwrap_or_else(|e| panic!("backend {id} served unparseable DVQ ({e}): {dvq}"));
            }
            _ => {
                let code = doc
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str)
                    .expect("structured error");
                assert!(
                    ["no_output", "invalid_output", "internal"].contains(&code),
                    "backend {id}: unexpected code {code}"
                );
            }
        }
        // Repeat: cache hit, byte-identical.
        let second = c.translate_with_backend(&ex.nlq, &db, id);
        assert_eq!(second.cache(), Some("hit"));
        assert_eq!(second.body, first.body);
        bodies.push(first.body);
    }
    // Distinct backends produced distinct cache entries (bodies differ at
    // least in their backend field).
    for i in 0..bodies.len() {
        for j in (i + 1)..bodies.len() {
            assert_ne!(bodies[i], bodies[j], "backends {i} and {j} share bytes");
        }
    }

    // GRED through the registry serves exactly the raw pipeline's output
    // (the redesign must not perturb the paper's system).
    let served = Json::parse(std::str::from_utf8(&bodies[0]).unwrap()).unwrap();
    let legacy = server
        .state()
        .gred
        .translate(&t2v_serve::normalize_nlq(&ex.nlq), &corpus.databases[ex.db]);
    assert_eq!(
        served.get("dvq").and_then(Json::as_str),
        legacy.final_dvq(),
        "registry GRED must match the raw pipeline byte-for-byte"
    );

    // Per-backend metrics carry every label.
    let text = String::from_utf8(c.request("GET", "/metrics", "").body).unwrap();
    for id in &ids {
        assert!(
            text.contains(&format!(
                "t2v_backend_translations_total{{backend=\"{id}\"}} 1"
            )),
            "missing translation count for {id}"
        );
        assert!(text.contains(&format!(
            "t2v_backend_cache_hits_total{{backend=\"{id}\"}} 1"
        )));
    }
    server.shutdown();
}

/// Nothing waits on a thread of its own: streams, batches and admin jobs
/// park like a single miss, so a default boot runs the loop and the
/// translation workers and no dispatch pool beside them. Other tests in
/// this binary run servers of their own alongside, so the census counts
/// distinct thread names, not threads.
#[test]
fn a_default_boot_runs_no_dispatch_thread() {
    let mut config = ServeConfig::default();
    config.set("addr", "127.0.0.1:0").unwrap();
    let workers = config.effective_workers();
    let state = Arc::new(ServerState::build(config).expect("the default state builds"));
    let server = Server::spawn(state).expect("bind loopback");
    let names: std::collections::BTreeSet<String> = std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect();
    let dispatch: Vec<&String> = names
        .iter()
        .filter(|n| n.starts_with("t2v-dispatch"))
        .collect();
    assert!(dispatch.is_empty(), "{dispatch:?}");
    for name in ["t2v-event".to_string()]
        .into_iter()
        .chain((0..workers).map(|i| format!("t2v-worker-{i}")))
    {
        assert!(names.contains(&name), "no {name} in {names:?}");
    }
    server.shutdown();
}
