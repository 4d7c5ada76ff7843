//! Multi-tenant loopback tests: the snapshot catalog, per-tenant routing
//! and byte-identity, cross-tenant cache isolation, and hot attach/detach
//! under concurrent in-flight translations.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use t2v_corpus::generate;
use t2v_engine::Json;
use t2v_serve::{ServeConfig, Server, ServerState};
use t2v_tenant::{parse_corpus_spec, snapshot_filename, TenantSpec};

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

    fn error_code(&self) -> String {
        self.json()
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .expect("structured error code")
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

    fn translate_at(&mut self, path: &str, nlq: &str, db: &str) -> Reply {
        let body = Json::obj([("nlq", Json::str(nlq)), ("db", Json::str(db))]).compact();
        self.request("POST", path, &body)
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

// ---------------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------------

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("t2v-tenants-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write a tenant's conventionally-named snapshot into `dir`.
fn write_tenant_snapshot(dir: &std::path::Path, id: &str, corpus_spec: &str) -> TenantSpec {
    let spec = TenantSpec {
        id: id.to_string(),
        corpus: parse_corpus_spec(corpus_spec).unwrap(),
    };
    let corpus = generate(&spec.corpus.corpus_config());
    let built = t2v_store::LibrarySource::Build
        .resolve(&corpus, &t2v_embed::EmbedConfig::default())
        .unwrap();
    t2v_store::save(
        dir.join(snapshot_filename(&spec)),
        &built.library,
        &built.embedder,
    )
    .unwrap();
    spec
}

/// Spawn a gred-only server with the given extra knobs.
fn spawn_server(tweaks: &[(&str, &str)]) -> Server {
    let mut config = ServeConfig::default();
    config.set("addr", "127.0.0.1:0").unwrap();
    config.set("backends", "gred").unwrap();
    for (k, v) in tweaks {
        config.set(k, v).unwrap();
    }
    let state = Arc::new(ServerState::build(config).expect("state builds"));
    Server::spawn(state).expect("bind loopback")
}

/// Disarms the process-wide fault plan however the test exits: a server
/// arms its `fault_plan` at spawn and nothing else disarms it.
struct FaultSession;

impl Drop for FaultSession {
    fn drop(&mut self) {
        t2v_fault::disarm();
    }
}

/// Dev examples (nlq, db id) of a corpus spec.
fn dev_examples(corpus_spec: &str, n: usize) -> Vec<(String, String)> {
    let corpus = generate(&parse_corpus_spec(corpus_spec).unwrap().corpus_config());
    corpus
        .dev
        .iter()
        .take(n)
        .map(|ex| (ex.nlq.clone(), corpus.databases[ex.db].id.clone()))
        .collect()
}

// ---------------------------------------------------------------------------
// the tests
// ---------------------------------------------------------------------------

/// The acceptance bar: a server booted from a two-snapshot catalog answers
/// `/v1/t/{a}/translate` and `/v1/t/{b}/translate` with responses
/// byte-identical to single-tenant servers built from each snapshot alone
/// — and the default tenant's unprefixed surface is untouched.
#[test]
fn two_snapshot_catalog_matches_single_tenant_servers_byte_for_byte() {
    let dir = temp_dir("catalog");
    write_tenant_snapshot(&dir, "acme", "tiny:8");
    write_tenant_snapshot(&dir, "globex", "tiny:11");
    let dir_str = dir.to_str().unwrap().to_string();

    let multi = spawn_server(&[("tenant_dir", &dir_str)]);
    let mut mc = Client::connect(&multi);

    // The table lists default + both catalog tenants, snapshot-sourced.
    let listed = mc.request("GET", "/v1/admin/tenants", "").json();
    let tenants = listed.get("tenants").and_then(Json::as_arr).unwrap();
    let ids: Vec<&str> = tenants
        .iter()
        .map(|t| t.get("id").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(ids, vec!["default", "acme", "globex"]);
    for t in &tenants[1..] {
        assert_eq!(t.get("source").and_then(Json::as_str), Some("snapshot"));
    }

    for (tenant, corpus_spec, snap_name) in [
        ("acme", "tiny:8", "acme@tiny-8.t2vsnap"),
        ("globex", "tiny:11", "globex@tiny-11.t2vsnap"),
    ] {
        // A single-tenant server over the same corpus, loading the same
        // snapshot through the pre-tenant knobs.
        let snap_path = dir.join(snap_name);
        let single = spawn_server(&[
            ("corpus", corpus_spec),
            ("library_snapshot", snap_path.to_str().unwrap()),
        ]);
        let mut sc = Client::connect(&single);
        for (nlq, db) in dev_examples(corpus_spec, 6) {
            let multi_reply = mc.translate_at(&format!("/v1/t/{tenant}/translate"), &nlq, &db);
            let single_reply = sc.translate_at("/v1/translate", &nlq, &db);
            assert_eq!(
                multi_reply.status,
                200,
                "{tenant}: {:?}",
                multi_reply.json()
            );
            assert_eq!(single_reply.status, 200);
            assert_eq!(
                multi_reply.body, single_reply.body,
                "tenant '{tenant}' diverged from its single-tenant server on {nlq:?}"
            );
        }
        // The tenant-scoped backends listing names the tenant and carries
        // the snapshot provenance.
        let b = mc
            .request("GET", &format!("/v1/t/{tenant}/backends"), "")
            .json();
        assert_eq!(b.get("tenant").and_then(Json::as_str), Some(tenant));
        assert_eq!(
            b.get("library")
                .and_then(|l| l.get("source"))
                .and_then(Json::as_str),
            Some("snapshot")
        );
        single.shutdown();
    }

    // The default tenant still serves the unprefixed routes normally.
    let (nlq, db) = dev_examples("tiny:7", 1).remove(0);
    let r = mc.translate_at("/v1/translate", &nlq, &db);
    assert_eq!(r.status, 200);

    multi.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Same NLQ against two tenants with different schemas: two distinct cold
/// translations, distinct cache entries, zero cross-tenant hits.
#[test]
fn cross_tenant_cache_isolation() {
    let server = spawn_server(&[("tenants", "acme:tiny:8,globex:tiny:11")]);
    let mut c = Client::connect(&server);

    // Both tiny corpora share database ids, so the same (nlq, db) pair is
    // valid for both tenants — the sharpest isolation probe.
    let (nlq, db) = dev_examples("tiny:8", 1).remove(0);

    let a1 = c.translate_at("/v1/t/acme/translate", &nlq, &db);
    assert_eq!(a1.status, 200);
    assert_eq!(a1.cache(), Some("miss"));
    let a2 = c.translate_at("/v1/t/acme/translate", &nlq, &db);
    assert_eq!(a2.cache(), Some("hit"));
    assert_eq!(a2.body, a1.body, "hit must be byte-identical to the miss");

    // The same question to the other tenant MUST be a cold miss (its own
    // schema, its own library), never a cross-tenant hit.
    let g1 = c.translate_at("/v1/t/globex/translate", &nlq, &db);
    assert_eq!(g1.status, 200);
    assert_eq!(g1.cache(), Some("miss"), "cache leaked across tenants");
    let g2 = c.translate_at("/v1/t/globex/translate", &nlq, &db);
    assert_eq!(g2.cache(), Some("hit"));
    assert_eq!(g2.body, g1.body);

    // And the default tenant's identical question is again its own entry.
    let d1 = c.translate_at("/v1/translate", &nlq, &db);
    assert_eq!(d1.cache(), Some("miss"));

    // Per-tenant metrics agree: exactly one hit per tenant that repeated,
    // none anywhere else.
    let text = String::from_utf8(c.request("GET", "/metrics", "").body).unwrap();
    assert!(text.contains("t2v_tenant_cache_hits_total{tenant=\"acme\"} 1"));
    assert!(text.contains("t2v_tenant_cache_misses_total{tenant=\"acme\"} 1"));
    assert!(text.contains("t2v_tenant_cache_hits_total{tenant=\"globex\"} 1"));
    assert!(text.contains("t2v_tenant_cache_hits_total{tenant=\"default\"} 0"));
    assert!(text.contains("t2v_tenant_translations_total{tenant=\"acme\"} 1"));
    assert!(text.contains("t2v_tenants 3"));
    server.shutdown();
}

/// Attach and detach while translations are in flight: no 5xx ever, the
/// detached tenant's in-flight work completes, and subsequent requests get
/// the structured 404.
#[test]
fn attach_and_detach_under_concurrent_inflight_translations() {
    // Slow translations (two 5 ms retrievals each) widen the attach/detach
    // race window; a roomy queue keeps overload 503s out of the picture so
    // any 5xx is a real tenancy bug.
    let _faults = FaultSession;
    let server = spawn_server(&[
        ("tenants", "acme:tiny:8"),
        ("cache_capacity", "0"),
        ("queue_capacity", "256"),
        ("fault_plan", "retrieve.latency:ms=5"),
    ]);
    let examples = dev_examples("tiny:8", 8);
    let served = AtomicU64::new(0);
    let gone = AtomicU64::new(0);

    std::thread::scope(|s| {
        let workers: Vec<_> = (0..4)
            .map(|w| {
                let examples = &examples;
                let server = &server;
                let served = &served;
                let gone = &gone;
                s.spawn(move || {
                    let mut client = Client::connect(server);
                    for i in 0..12 {
                        let (nlq, db) = &examples[(w * 5 + i) % examples.len()];
                        let r = client.translate_at("/v1/t/acme/translate", nlq, db);
                        match r.status {
                            200 => {
                                served.fetch_add(1, Ordering::Relaxed);
                            }
                            404 => {
                                // Only the structured unknown_tenant error
                                // is acceptable, and only post-detach.
                                assert_eq!(r.error_code(), "unknown_tenant");
                                gone.fetch_add(1, Ordering::Relaxed);
                            }
                            other => panic!("unexpected status {other} mid-detach"),
                        }
                    }
                })
            })
            .collect();

        // Let translations get in flight, then mutate the table under them.
        std::thread::sleep(Duration::from_millis(30));
        let mut admin = Client::connect(&server);
        let attach = admin.request(
            "POST",
            "/v1/admin/tenants/attach",
            "{\"id\": \"hotco\", \"corpus\": \"tiny:13\"}",
        );
        assert_eq!(attach.status, 200, "{:?}", attach.json());
        let detach = admin.request("DELETE", "/v1/admin/tenants/detach", "{\"id\": \"acme\"}");
        assert_eq!(detach.status, 200);
        for h in workers {
            h.join().unwrap();
        }
    });

    assert!(
        served.load(Ordering::Relaxed) > 0,
        "some acme translations must have served before the detach"
    );

    let mut c = Client::connect(&server);
    // acme is gone: structured 404. hotco (attached mid-flight) serves.
    let r = c.translate_at("/v1/t/acme/translate", &examples[0].0, &examples[0].1);
    assert_eq!(r.status, 404);
    assert_eq!(r.error_code(), "unknown_tenant");
    let (nlq, db) = dev_examples("tiny:13", 1).remove(0);
    let r = c.translate_at("/v1/t/hotco/translate", &nlq, &db);
    assert_eq!(
        r.status,
        200,
        "hot-attached tenant must serve: {:?}",
        r.json()
    );

    // The detached tenant's metrics family is dropped; hotco's exists.
    let text = String::from_utf8(c.request("GET", "/metrics", "").body).unwrap();
    assert!(!text.contains("tenant=\"acme\""));
    assert!(text.contains("t2v_tenant_translations_total{tenant=\"hotco\"} 1"));
    server.shutdown();
}

/// The admin surface validates input and keeps the table consistent.
#[test]
fn admin_attach_detach_validation_and_backend_hot_registration() {
    let server = spawn_server(&[]);
    let mut c = Client::connect(&server);

    // Malformed attaches: missing fields, bad id grammar, reserved id,
    // bad corpus, unknown backends.
    for (body, status) in [
        ("{}", 400),
        ("{\"id\": \"x\"}", 400),
        ("{\"id\": \"Bad Id\", \"corpus\": \"tiny:8\"}", 400),
        ("{\"id\": \"default\", \"corpus\": \"tiny:8\"}", 400),
        ("{\"id\": \"x\", \"corpus\": \"huge:1\"}", 400),
        (
            "{\"id\": \"x\", \"corpus\": \"tiny:8\", \"backends\": \"gpt99\"}",
            400,
        ),
        // A trained baseline is an evaluation row, not a served backend.
        (
            "{\"id\": \"x\", \"corpus\": \"tiny:8\", \"backends\": \"seq2vis\"}",
            400,
        ),
    ] {
        let r = c.request("POST", "/v1/admin/tenants/attach", body);
        assert_eq!(r.status, status, "body {body}: {:?}", r.json());
    }
    // A missing snapshot path is a structured 422, not a fallback build —
    // an attach that names an artifact must load exactly that artifact.
    let r = c.request(
        "POST",
        "/v1/admin/tenants/attach",
        "{\"id\": \"x\", \"corpus\": \"tiny:8\", \"snapshot\": \"/no/such.t2vsnap\"}",
    );
    assert_eq!(r.status, 422);
    assert_eq!(r.error_code(), "snapshot_error");

    // Backend hot-registration: the attached tenant gets a *fresh registry*
    // with its own backend set — no restart, and a backend the default
    // tenant never registered.
    let r = c.request(
        "POST",
        "/v1/admin/tenants/attach",
        "{\"id\": \"rgv\", \"corpus\": \"tiny:8\", \"backends\": \"rgvisnet\"}",
    );
    assert_eq!(r.status, 200, "{:?}", r.json());
    let b = c.request("GET", "/v1/t/rgv/backends", "").json();
    let ids: Vec<&str> = b
        .get("backends")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|x| x.get("id").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(ids, vec!["rgvisnet"]);
    assert_eq!(b.get("default").and_then(Json::as_str), Some("rgvisnet"));
    let (nlq, db) = dev_examples("tiny:8", 1).remove(0);
    let t = c.translate_at("/v1/t/rgv/translate", &nlq, &db);
    assert_eq!(t.status, 200);
    assert_eq!(
        t.json().get("backend").and_then(Json::as_str),
        Some("rgvisnet")
    );

    // Duplicate attach → 409; detach unknown → 404; wrong methods → 405.
    let r = c.request(
        "POST",
        "/v1/admin/tenants/attach",
        "{\"id\": \"rgv\", \"corpus\": \"tiny:9\"}",
    );
    assert_eq!(r.status, 409);
    assert_eq!(r.error_code(), "duplicate_tenant");
    let r = c.request("DELETE", "/v1/admin/tenants/detach", "{\"id\": \"nope\"}");
    assert_eq!(r.status, 404);
    assert_eq!(r.error_code(), "unknown_tenant");
    assert_eq!(c.request("GET", "/v1/admin/tenants/attach", "").status, 405);
    assert_eq!(c.request("POST", "/v1/admin/tenants", "").status, 405);
    assert_eq!(
        c.request("POST", "/v1/admin/tenants/detach", "{\"id\": \"rgv\"}")
            .status,
        405,
        "detach is DELETE"
    );

    // Healthz counts the attached tenant.
    let h = c.request("GET", "/healthz", "").json();
    assert_eq!(h.get("tenants").and_then(Json::as_f64), Some(2.0));
    server.shutdown();
}

/// `tenants=` declarations without a catalog build their libraries; with a
/// catalog dir, the conventionally-named snapshot wins.
#[test]
fn declared_tenants_prefer_catalog_snapshots() {
    let dir = temp_dir("declared");
    write_tenant_snapshot(&dir, "acme", "tiny:8");
    let dir_str = dir.to_str().unwrap().to_string();

    // acme has a catalog snapshot → loaded; fresh has none → built.
    let server = spawn_server(&[
        ("tenants", "acme:tiny:8,fresh:tiny:9"),
        ("tenant_dir", &dir_str),
    ]);
    let mut c = Client::connect(&server);
    let listed = c.request("GET", "/v1/admin/tenants", "").json();
    let tenants = listed.get("tenants").and_then(Json::as_arr).unwrap();
    let source_of = |id: &str| {
        tenants
            .iter()
            .find(|t| t.get("id").and_then(Json::as_str) == Some(id))
            .and_then(|t| t.get("source"))
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    assert_eq!(source_of("acme").as_deref(), Some("snapshot"));
    assert_eq!(source_of("fresh").as_deref(), Some("built"));
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A corrupt conforming snapshot in the catalog fails startup loudly.
#[test]
fn corrupt_catalog_snapshot_fails_startup() {
    let dir = temp_dir("corrupt");
    std::fs::write(dir.join("acme@tiny-8.t2vsnap"), b"garbage").unwrap();
    let mut config = ServeConfig::default();
    config.set("addr", "127.0.0.1:0").unwrap();
    config.set("backends", "gred").unwrap();
    config.set("tenant_dir", dir.to_str().unwrap()).unwrap();
    let err = ServerState::build(config).err().expect("must not boot");
    let msg = err.to_string();
    assert!(msg.contains("acme@tiny-8.t2vsnap"), "got: {msg}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The startup-ordering satellite: a snapshot_save under a missing parent
/// fails at config-validation time (before any corpus/library work).
#[test]
fn broken_snapshot_save_fails_before_the_build() {
    let mut config = ServeConfig::default();
    config.set("addr", "127.0.0.1:0").unwrap();
    config.set("backends", "gred").unwrap();
    config
        .set("snapshot_save", "/no/such/dir/lib.t2vsnap")
        .unwrap();
    let started = std::time::Instant::now();
    let err = ServerState::build(config).err().expect("must not boot");
    assert!(matches!(err, t2v_serve::StartupError::Config(_)), "{err:?}");
    assert!(err.to_string().contains("snapshot_save"), "{err}");
    // Validation precedes generation/build: failure is near-instant even
    // though a full build takes visible time on this corpus.
    assert!(
        started.elapsed() < Duration::from_millis(250),
        "config validation must run before the expensive build, took {:?}",
        started.elapsed()
    );
}
