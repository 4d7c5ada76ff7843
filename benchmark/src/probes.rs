//! Layers measured from outside: timed calls into each crate's public
//! functions, on the workload's own requests and corpus. The same probes run
//! in every traced run, so each workload's ledger carries them and a host
//! that moved shows in all four.

use crate::client::{canned_response, Conn, EchoPeer};
use crate::inputs::{Request, TextInputs};
use crate::stats;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use t2v_core::StageRecord;
use t2v_embed::TextEmbedder;
use t2v_gred::{DirectRetriever, EmbeddingLibrary};
use t2v_llm::{ChatModel, ChatParams, GenExample};
use t2v_perturb::RobVariant;
use t2v_serve::{
    db_fingerprint, http, normalize_nlq, translate_body, CacheKey, Metrics, OneShot, Response,
    ServerState, ShardedTtlLruCache, WorkerPool,
};

/// Wall time spent on one probe.
const BUDGET: Duration = Duration::from_millis(60);

/// Inputs a µs-scale probe rotates through, so it never replays one warm path.
const ROTATE: usize = 256;

/// A probe's result: the median and how many timed samples it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub samples: u64,
}

/// Median per-call nanoseconds of `f`. Calls are timed in batches of about
/// 100 µs so the clock reads cost nothing against nanosecond work; a call
/// that long is its own batch.
pub fn time_ns(budget: Duration, mut f: impl FnMut()) -> Sample {
    let t = Instant::now();
    f();
    let first = t.elapsed().as_nanos().max(1) as u64;
    let batch = (100_000 / first).clamp(1, 1 << 16);
    let mut per_call: Vec<f64> = Vec::new();
    let start = Instant::now();
    while per_call.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        per_call.push(t.elapsed().as_nanos() as f64 / batch as f64);
    }
    Sample {
        value: stats::median(&per_call).expect("at least three finite samples"),
        samples: per_call.len() as u64,
    }
}

fn scaled(s: Sample, divisor: f64) -> Sample {
    Sample {
        value: s.value / divisor,
        samples: s.samples,
    }
}

/// Median of single measurements (set-up-like steps run a few times).
fn median_of(runs: usize, mut f: impl FnMut() -> f64) -> Sample {
    let values: Vec<f64> = (0..runs).map(|_| f()).collect();
    Sample {
        value: stats::median(&values).expect("finite timings"),
        samples: runs as u64,
    }
}

pub type Ledger = BTreeMap<&'static str, Sample>;

/// What the probes need besides the corpus: an unspawned server state (for
/// the catalog, tenant table and cache configuration), the workload's
/// requests, and the cache capacity the workload runs under.
pub struct Ctx<'a> {
    pub inputs: &'a TextInputs,
    pub state: &'a ServerState,
    pub requests: &'a [Request],
    pub cache_capacity: usize,
}

/// Run every direct-call probe.
pub fn run(ctx: &Ctx<'_>) -> Result<Ledger, String> {
    let mut out = Ledger::new();
    serve_probes(ctx, &mut out)?;
    out.insert(
        "net.wake_roundtrip_us",
        wake_roundtrip().map_err(|e| format!("net probe: {e}"))?,
    );
    out.insert("trace.span_ns", trace_span());
    out.insert(
        "tenant.lookup_ns",
        time_ns(BUDGET, || {
            std::hint::black_box(
                ctx.state
                    .tenants()
                    .get(std::hint::black_box("default"))
                    .is_some(),
            );
        }),
    );
    model_probes(ctx, &mut out)?;
    out.insert(
        "loadgen.echo_p50_us",
        echo_roundtrip(ctx).map_err(|e| format!("echo probe: {e}"))?,
    );
    Ok(out)
}

fn serve_probes(ctx: &Ctx<'_>, out: &mut Ledger) -> Result<(), String> {
    let state = ctx.state;
    let config = &state.config;
    let requests = &ctx.requests[..ctx.requests.len().min(ROTATE)];
    let entry_of = |r: &Request| {
        state
            .dbs
            .get(&r.db)
            .ok_or_else(|| format!("database '{}' is not in the catalog", r.db))
    };
    let mut i = 0usize;
    let mut next = move || {
        i += 1;
        i % requests.len()
    };

    out.insert(
        "serve.http.parse_ns",
        time_ns(BUDGET, || {
            let r = &requests[next()];
            match http::parse_request(std::hint::black_box(&r.wire), config.max_body_bytes) {
                http::Parse::Complete(req, used) => {
                    std::hint::black_box((req, used));
                }
                _ => panic!("the server's parser refused a generated request"),
            }
        }),
    );

    let sample_body = Arc::new(translate_body(
        &state.gred,
        "gred",
        &requests[0].nlq,
        entry_of(&requests[0])?,
        false,
    ));
    let response = Response::json(200, Arc::clone(&sample_body))
        .with_header("x-t2v-backend", "gred")
        .with_header("x-t2v-cache", "hit")
        .with_header(
            "x-t2v-trace-id",
            t2v_trace::format_id(t2v_trace::new_trace_id()),
        );
    let mut sink: Vec<u8> = Vec::with_capacity(sample_body.len() + 512);
    out.insert(
        "serve.http.write_ns",
        time_ns(BUDGET, || {
            sink.clear();
            response
                .write_to(&mut sink, true)
                .expect("Vec writes cannot fail");
            std::hint::black_box(sink.len());
        }),
    );

    let entries: Vec<_> = requests.iter().map(entry_of).collect::<Result<_, _>>()?;
    out.insert(
        "serve.key_ns",
        time_ns(BUDGET, || {
            let j = next();
            std::hint::black_box((
                normalize_nlq(std::hint::black_box(&requests[j].nlq)),
                db_fingerprint(&entries[j].db, config.store_seed, config.store_rows),
            ));
        }),
    );

    // The cache as the server builds it, at the workload's capacity.
    let key = |nlq: &str, fingerprint: u64| -> CacheKey { (0, 0, nlq.into(), fingerprint, false) };
    let new_cache = || {
        ShardedTtlLruCache::<CacheKey, Arc<Vec<u8>>>::new(
            ctx.cache_capacity,
            config.cache_ttl(),
            config.effective_cache_shards(),
        )
    };
    let cache = new_cache();
    let resident: Vec<CacheKey> = requests
        .iter()
        .zip(&entries)
        .take(64.min(ctx.cache_capacity))
        .map(|(r, e)| key(&r.nlq, e.fingerprint))
        .collect();
    for k in &resident {
        cache.insert(k.clone(), Arc::clone(&sample_body));
    }
    let absent: Vec<CacheKey> = resident
        .iter()
        .map(|k| key(&format!("{} ?", k.2), k.3))
        .collect();
    out.insert(
        "serve.cache.lookup_hit_ns",
        time_ns(BUDGET, || {
            let k = &resident[next() % resident.len()];
            assert!(matches!(cache.lookup(k), t2v_serve::Lookup::Fresh(_)));
        }),
    );
    out.insert(
        "serve.cache.lookup_miss_ns",
        time_ns(BUDGET, || {
            let k = &absent[next() % absent.len()];
            assert!(matches!(cache.lookup(k), t2v_serve::Lookup::Miss));
        }),
    );
    // A ring twice the capacity: by the time a key comes round again it has
    // been evicted, so every insert into the full cache evicts one entry.
    // The key clone is inside the timing, as the server allocates its key.
    let full = new_cache();
    let ring: Vec<CacheKey> = (0..2 * ctx.cache_capacity)
        .map(|n| {
            key(
                &format!("{} #{n}", requests[n % requests.len()].nlq),
                n as u64,
            )
        })
        .collect();
    for k in &ring[..ctx.cache_capacity] {
        full.insert(k.clone(), Arc::clone(&sample_body));
    }
    let mut at = ctx.cache_capacity;
    out.insert(
        "serve.cache.insert_evict_ns",
        time_ns(BUDGET, || {
            full.insert(ring[at % ring.len()].clone(), Arc::clone(&sample_body));
            at += 1;
        }),
    );
    if full.stats().evicted == 0 {
        return Err("insert probe never evicted".to_string());
    }

    let pool = WorkerPool::new(
        config.effective_workers(),
        config.effective_shards(),
        config.queue_capacity,
        Arc::new(Metrics::with_backends(&["gred"])),
    );
    let pool_sample = time_ns(BUDGET, || {
        let done = OneShot::new();
        let tx = done.clone();
        pool.submit(move || tx.send(()))
            .expect("an idle pool accepts a job");
        done.recv_timeout(Duration::from_secs(5))
            .expect("no-op job completes");
    });
    pool.shutdown();
    out.insert("serve.pool.roundtrip_us", scaled(pool_sample, 1e3));

    out.insert(
        "serve.translate_body_us",
        scaled(
            time_ns(BUDGET * 3, || {
                let j = next();
                std::hint::black_box(translate_body(
                    &state.gred,
                    "gred",
                    &requests[j].nlq,
                    entries[j],
                    false,
                ));
            }),
            1e3,
        ),
    );
    Ok(())
}

/// `Waker::wake` on this thread → `Poller::wait` returns on a peer thread →
/// the peer wakes this thread's poller: two of the hops a request makes
/// between the event loop and a dispatch thread.
fn wake_roundtrip() -> std::io::Result<Sample> {
    use t2v_net::{Poller, Waker};
    let mut here = Poller::new()?;
    let wake_here = Arc::new(Waker::new(&here, 1)?);
    let mut there = Poller::new()?;
    let wake_there = Arc::new(Waker::new(&there, 2)?);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let peer = {
        let (wake_here, wake_there, stop) = (
            Arc::clone(&wake_here),
            Arc::clone(&wake_there),
            Arc::clone(&stop),
        );
        std::thread::Builder::new()
            .name("bench-wake-peer".to_string())
            .spawn(move || -> std::io::Result<()> {
                let mut events = Vec::with_capacity(4);
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    events.clear();
                    there.wait(&mut events, Some(Duration::from_secs(5)))?;
                    if !events.is_empty() {
                        wake_there.drain();
                        wake_here.wake();
                    }
                }
                Ok(())
            })?
    };
    let mut events = Vec::with_capacity(4);
    let mut failed = None;
    let sample = time_ns(BUDGET, || {
        wake_there.wake();
        events.clear();
        match here.wait(&mut events, Some(Duration::from_secs(5))) {
            Ok(n) if n > 0 => wake_here.drain(),
            Ok(_) => failed = Some(std::io::Error::other("wake never came back")),
            Err(e) => failed = Some(e),
        }
    });
    stop.store(true, std::sync::atomic::Ordering::Release);
    wake_there.wake();
    peer.join()
        .map_err(|_| std::io::Error::other("wake peer panicked"))??;
    match failed {
        Some(e) => Err(e),
        None => Ok(scaled(sample, 1e3)),
    }
}

/// `t2v_trace::span` open + drop under a recording trace. A trace has 24
/// span slots, so every 20 spans get a fresh trace, made outside the clock.
fn trace_span() -> Sample {
    const SPANS: u32 = 20;
    let mut per_span: Vec<f64> = Vec::new();
    let start = Instant::now();
    while per_span.len() < 3 || start.elapsed() < BUDGET {
        let trace = t2v_trace::Trace::start(t2v_trace::new_trace_id(), true);
        let scope = trace.scope();
        let t = Instant::now();
        for _ in 0..SPANS {
            drop(t2v_trace::span(t2v_trace::Stage::Embed));
        }
        per_span.push(t.elapsed().as_nanos() as f64 / f64::from(SPANS));
        drop(scope);
        let finished = trace.finish(200, "default", "gred", "miss", None);
        assert_eq!(finished.map(|f| f.dropped_spans), Some(0));
    }
    Sample {
        value: stats::median(&per_span).expect("finite timings"),
        samples: per_span.len() as u64,
    }
}

fn model_probes(ctx: &Ctx<'_>, out: &mut Ledger) -> Result<(), String> {
    let inputs = ctx.inputs;
    let gred = &ctx.state.gred;
    let library = gred.library();
    let embedder = gred.embedder();
    let requests = &ctx.requests[..ctx.requests.len().min(ROTATE)];
    let dbs: Vec<_> = requests
        .iter()
        .map(|r| {
            ctx.state
                .dbs
                .get(&r.db)
                .map(|e| &e.db)
                .ok_or_else(|| format!("database '{}' is not in the catalog", r.db))
        })
        .collect::<Result<_, _>>()?;
    let mut i = 0usize;
    let mut next = move || {
        i += 1;
        i % requests.len()
    };

    let mut scratch = vec![0f32; embedder.dims()];
    out.insert(
        "embed.embed_ns",
        time_ns(BUDGET, || {
            embedder.embed_into(std::hint::black_box(&requests[next()].nlq), &mut scratch);
            std::hint::black_box(&scratch);
        }),
    );
    let queries: Vec<Vec<f32>> = requests.iter().map(|r| embedder.embed(&r.nlq)).collect();
    out.insert(
        "embed.top_k_us",
        scaled(
            time_ns(BUDGET * 2, || {
                std::hint::black_box(library.nlq_index.top_k_prenormalized(&queries[next()], 10));
            }),
            1e3,
        ),
    );
    let row = library.nlq_index.get(0).ok_or("empty library")?;
    out.insert(
        "embed.dot_ns",
        time_ns(BUDGET, || {
            std::hint::black_box(t2v_embed::fused_dot(
                std::hint::black_box(&queries[next()]),
                std::hint::black_box(row),
            ));
        }),
    );

    out.insert(
        "gred.translate_us",
        scaled(
            time_ns(BUDGET * 3, || {
                let j = next();
                std::hint::black_box(gred.translate(&requests[j].nlq, dbs[j]));
            }),
            1e3,
        ),
    );
    // The stage clocks the pipeline already hands out, one translation each.
    let mut stage_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (r, db) in requests.iter().zip(&dbs) {
        gred.translate_observed(
            &r.nlq,
            db,
            &DirectRetriever(library),
            &mut |s: &StageRecord| {
                stage_us.entry(s.name).or_default().push(s.micros as f64);
            },
        );
    }
    for (metric, stage) in [
        ("gred.generator_us", "generator"),
        ("gred.retuner_us", "retuner"),
        ("gred.debugger_us", "debugger"),
    ] {
        let values = stage_us
            .get(stage)
            .ok_or_else(|| format!("no '{stage}' stage ran"))?;
        out.insert(
            metric,
            Sample {
                value: stats::median(values).expect("finite micros"),
                samples: values.len() as u64,
            },
        );
    }

    // A generation prompt as the pipeline assembles it, then the model alone.
    let prompts: Vec<_> = requests
        .iter()
        .zip(&dbs)
        .zip(&queries)
        .take(32)
        .map(|((r, db), q)| {
            let mut hits = library.nlq_index.top_k_prenormalized(q, gred.config.k);
            hits.reverse();
            let examples: Vec<GenExample<'_>> = hits
                .iter()
                .map(|h| {
                    let e = &library.entries[h.id];
                    GenExample {
                        db_id: (&*e.db_id).into(),
                        schema_text: (&*e.schema_text).into(),
                        nlq: (&*e.nlq).into(),
                        dvq: (&*e.dvq).into(),
                    }
                })
                .collect();
            t2v_llm::prompts::generation_prompt(&examples, &db.render_prompt_schema(), &r.nlq)
        })
        .collect();
    out.insert(
        "llm.generate_us",
        scaled(
            time_ns(BUDGET * 2, || {
                let p = &prompts[next() % prompts.len()];
                std::hint::black_box(gred.model().complete(p, &ChatParams::working()));
            }),
            1e3,
        ),
    );

    let dvqs: Vec<&str> = inputs
        .corpus
        .dev
        .iter()
        .take(ROTATE)
        .map(|e| &*e.dvq_text)
        .collect();
    let mut d = 0usize;
    out.insert(
        "dvq.parse_ns",
        time_ns(BUDGET, || {
            d += 1;
            t2v_dvq::parse(std::hint::black_box(dvqs[d % dvqs.len()])).expect("gold DVQs parse");
        }),
    );

    // Grading alone: cached predictions (the gold text) against their set.
    let set = &inputs.rob.original[..inputs.rob.original.len().min(64)];
    let cached: Vec<Option<String>> = set.iter().map(|e| Some(e.target_text.clone())).collect();
    out.insert(
        "eval.grade_us",
        scaled(
            time_ns(BUDGET, || {
                let run =
                    t2v_eval::evaluate_predictions("cached", RobVariant::Original, &cached, set)
                        .expect("lengths match");
                assert_eq!(run.accuracies.overall, 1.0);
            }),
            1e3 * set.len() as f64,
        ),
    );

    // Boot alternatives: build the library, or decode a snapshot of it.
    out.insert(
        "gred.library_build_ms",
        median_of(1, || {
            let t = Instant::now();
            std::hint::black_box(EmbeddingLibrary::build(
                &inputs.corpus,
                &TextEmbedder::default_model(),
            ));
            t.elapsed().as_secs_f64() * 1e3
        }),
    );
    let mut snapshot = Vec::new();
    out.insert(
        "store.encode_ms",
        median_of(3, || {
            let t = Instant::now();
            snapshot = t2v_store::encode(library, embedder);
            t.elapsed().as_secs_f64() * 1e3
        }),
    );
    let mut decode_error = None;
    out.insert(
        "store.decode_ms",
        median_of(3, || {
            let t = Instant::now();
            if let Err(e) = t2v_store::decode(&snapshot) {
                decode_error = Some(e.to_string());
            }
            t.elapsed().as_secs_f64() * 1e3
        }),
    );
    if let Some(e) = decode_error {
        return Err(format!("snapshot does not decode: {e}"));
    }
    out.insert(
        "store.snapshot_bytes",
        Sample {
            value: snapshot.len() as f64,
            samples: 1,
        },
    );
    out.insert(
        "corpus.generate_ms",
        Sample {
            value: inputs.corpus_ms,
            samples: 1,
        },
    );
    out.insert(
        "perturb.build_rob_ms",
        Sample {
            value: inputs.rob_ms,
            samples: 1,
        },
    );
    Ok(())
}

/// The workload's wire bytes against the bench-owned echo peer: loopback
/// plus one thread hop, none of the program's code. If this moves, the host
/// moved.
fn echo_roundtrip(ctx: &Ctx<'_>) -> std::io::Result<Sample> {
    let r = &ctx.requests[0];
    let body = ctx
        .state
        .dbs
        .get(&r.db)
        .map(|e| translate_body(&ctx.state.gred, "gred", &r.nlq, e, false))
        .unwrap_or_default();
    let peer = EchoPeer::spawn(r.wire.len(), canned_response(&body))?;
    let mut conn = Conn::connect(peer.addr)?;
    let mut failed = None;
    let mut latencies: Vec<u64> = Vec::with_capacity(1 << 16);
    let start = Instant::now();
    while start.elapsed() < BUDGET * 8 && failed.is_none() {
        let t = Instant::now();
        match conn.roundtrip(&r.wire) {
            Ok(200) => latencies.push(t.elapsed().as_nanos() as u64),
            Ok(s) => failed = Some(std::io::Error::other(format!("echo answered {s}"))),
            Err(e) => failed = Some(e),
        }
    }
    drop(conn);
    peer.join()?;
    if let Some(e) = failed {
        return Err(e);
    }
    Ok(Sample {
        value: stats::median_ns(&latencies)
            .ok_or_else(|| std::io::Error::other("no echo round trip"))?
            / 1e3,
        samples: latencies.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_batches_fast_calls_and_grows_with_the_work() {
        let mut calls = 0u64;
        let fast = time_ns(Duration::from_millis(5), || {
            calls += 1;
            std::hint::black_box(calls);
        });
        assert!(fast.samples >= 3 && calls > fast.samples);
        let spin = |n: u64| {
            time_ns(Duration::from_millis(10), || {
                let mut x = 0u64;
                for i in 0..n {
                    x = std::hint::black_box(x.wrapping_add(i));
                }
            })
            .value
        };
        // black_box is a hint: confirm time grows with the iteration count.
        assert!(spin(20_000) > 4.0 * spin(1_000));
    }
}
