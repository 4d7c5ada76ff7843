//! Allocations per cache hit, pinned. A counting global allocator sees
//! every heap allocation in the process while one keep-alive client sends
//! the same translate request 1 000 times to a warm `tiny(7)` server: every
//! one a fresh hit answered on the event loop. The client sends pre-built
//! bytes and reads into a fixed buffer, so the count is the server's.
//! A dedicated test binary: the allocator is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use t2v_corpus::{generate, CorpusConfig};
use t2v_engine::Json;
use t2v_serve::{ServeConfig, Server, ServerState};

/// Counts `alloc`, `alloc_zeroed` and `realloc` calls; frees are free.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const HITS: u64 = 1_000;

/// What one hit may allocate, counted across the whole process: parsing
/// the request, the key, the lookup, the head and the span recording the
/// flight recorder's slow/error net needs. Measured at 23.3 (23.32–23.34
/// over four runs; the 5 % sampled hits still seal a record), down from
/// 24.3 when every `writev` collected its slices in a fresh `Vec`, and
/// from 38.05 when every hit sealed one, decoded JSON strings per
/// character and formatted its head piece by piece.
const MAX_ALLOCS_PER_HIT: f64 = 24.3;

/// Send `request` and read exactly one response into `buf`; its length.
fn round_trip(stream: &mut TcpStream, request: &[u8], buf: &mut [u8]) -> usize {
    stream.write_all(request).expect("send");
    let mut got = 0;
    loop {
        let n = stream.read(&mut buf[got..]).expect("read");
        assert!(n > 0, "server hung up");
        got += n;
        if let Some(len) = framed_len(&buf[..got]) {
            assert_eq!(got, len, "one response, nothing pipelined behind it");
            return got;
        }
    }
}

/// Head plus `Content-Length` once the head is complete.
fn framed_len(bytes: &[u8]) -> Option<usize> {
    let head_end = bytes.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&bytes[..head_end]).expect("ASCII head");
    let body: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.parse().ok())
        .expect("Content-Length");
    (bytes.len() >= head_end + body).then_some(head_end + body)
}

#[test]
fn a_cache_hit_allocates_a_pinned_number_of_times() {
    let corpus = generate(&CorpusConfig::tiny(7));
    let mut config = ServeConfig::default();
    for (k, v) in [
        ("addr", "127.0.0.1:0"),
        ("backends", "gred"),
        ("obs_sample_ms", "0"),
        ("obs_profile_hz", "0"),
    ] {
        config.set(k, v).unwrap();
    }
    let state = Arc::new(ServerState::from_corpus(&corpus, config).expect("state builds"));
    let server = Server::spawn(state).expect("bind loopback");

    let ex = &corpus.dev[0];
    let db = &corpus.databases[ex.db].id;
    let body = Json::obj([("nlq", Json::str(&ex.nlq)), ("db", Json::str(db))]).compact();
    let request = format!(
        "POST /v1/translate HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut buf = vec![0u8; 1 << 16];

    // Warm-up: the miss that fills the cache, then a first hit.
    round_trip(&mut stream, &request, &mut buf);
    let hit_len = round_trip(&mut stream, &request, &mut buf);
    assert!(
        std::str::from_utf8(&buf[..hit_len])
            .unwrap()
            .contains("x-t2v-cache: hit"),
        "the warm-up left a cached answer"
    );

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..HITS {
        assert_eq!(round_trip(&mut stream, &request, &mut buf), hit_len);
    }
    let per_hit = (ALLOCS.load(Ordering::Relaxed) - before) as f64 / HITS as f64;
    drop(stream);
    server.shutdown();
    println!("allocations per hit: {per_hit:.2}");
    assert!(
        per_hit <= MAX_ALLOCS_PER_HIT,
        "a cache hit allocates {per_hit:.2} times, more than the pinned {MAX_ALLOCS_PER_HIT}"
    );
}
