//! The four workloads, each as a measured run (end-to-end metrics, tracing
//! off) and a traced run (the per-layer ledger), with the guards that fail a
//! run which is not the workload it claims to be.

use crate::affinity::OneCpu;
use crate::client::Conn;
use crate::inputs::{self, VECTOR_ROWS};
use crate::offline::{self, VARIANTS};
use crate::probes::{self, Ledger, Sample};
use crate::procfs;
use crate::schema::{END_TO_END, PER_LAYER};
use crate::serve::{self, Kind};
use crate::spans::{self, SpanBuf};
use crate::stats::{self, Window, WindowSummary};
use crate::Plan;
use std::collections::BTreeMap;
use std::sync::Arc;
use t2v_engine::Json;
use t2v_serve::{ServeConfig, ServerState};

/// One run's result, in the shape the driver reads.
pub struct Outcome {
    pub workload: &'static str,
    pub trace: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// How many timed samples each metric rests on.
    pub samples: BTreeMap<&'static str, u64>,
    /// Anything else worth keeping next to the numbers.
    pub detail: Json,
}

pub fn run(workload: &str, trace: bool, plan: &Plan) -> Result<Outcome, String> {
    match (workload, trace) {
        ("serve_hot", false) => serve_measured(Kind::Hot, plan),
        ("serve_hot", true) => serve_traced(Kind::Hot, plan),
        ("serve_miss", false) => serve_measured(Kind::Miss, plan),
        ("serve_miss", true) => serve_traced(Kind::Miss, plan),
        ("eval_rob", false) => eval_measured(plan),
        ("eval_rob", true) => eval_traced(plan),
        ("retrieve_large", false) => retrieve_measured(plan),
        ("retrieve_large", true) => retrieve_traced(plan),
        _ => Err(format!("unknown workload '{workload}'")),
    }
}

/// Set up repeatedly (see [`Plan`]); `setup_s` is the median, the last
/// set-up is kept for the run.
fn repeat_set_up<S>(
    plan: &Plan,
    mut set_up: impl FnMut() -> Result<S, String>,
    seconds: impl Fn(&S) -> f64,
    mut tear_down: impl FnMut(S),
) -> Result<(S, Sample), String> {
    let mut times: Vec<f64> = Vec::with_capacity(plan.setups_max);
    let mut last = None;
    while times.len() < plan.setups_min
        || (times.len() < plan.setups_max
            && times.iter().sum::<f64>() < plan.setup_budget.as_secs_f64())
    {
        if let Some(previous) = last.take() {
            tear_down(previous);
        }
        let s = set_up()?;
        times.push(seconds(&s));
        last = Some(s);
    }
    let value = stats::median(&times).ok_or("set-up time is not finite")?;
    Ok((
        last.expect("at least one set-up"),
        Sample {
            value,
            samples: times.len() as u64,
        },
    ))
}

/// The five end-to-end metrics from a window summary, quality and set-up.
fn end_to_end(
    summary: &WindowSummary,
    quality: f64,
    quality_samples: u64,
    setup: Sample,
) -> (BTreeMap<&'static str, f64>, BTreeMap<&'static str, u64>) {
    let values = [
        (
            "throughput_ops_s",
            summary.throughput_ops_s,
            summary.windows as u64,
        ),
        (
            "latency_p50_us",
            summary.latency_p50_us,
            summary.min_samples as u64,
        ),
        (
            "cpu_us_per_op",
            summary.cpu_us_per_op,
            summary.windows as u64,
        ),
        ("quality", quality, quality_samples),
        ("setup_s", setup.value, setup.samples),
    ];
    debug_assert_eq!(values.map(|v| v.0), END_TO_END.map(|(m, _)| m.name));
    (
        values.iter().map(|&(n, v, _)| (n, v)).collect(),
        values.iter().map(|&(n, _, s)| (n, s)).collect(),
    )
}

/// The tail of an untraced phase, reported only when the sample supports it.
fn tail_p99_us(windows: &[Window]) -> Result<Sample, String> {
    let summary = stats::median_of_windows(windows).ok_or("a window completed no op")?;
    if !summary.p99_supported {
        return Err(format!(
            "a window holds {} ops: p99 needs {} samples beyond it",
            summary.min_samples,
            stats::MIN_TAIL_SAMPLES
        ));
    }
    Ok(Sample {
        value: summary.latency_p99_us,
        samples: summary.min_samples as u64,
    })
}

fn windows_json(windows: &[Window]) -> Json {
    Json::Arr(
        windows
            .iter()
            .filter_map(Window::values)
            .map(|v| {
                Json::obj([
                    ("throughput_ops_s", Json::Num(v.throughput_ops_s)),
                    ("latency_p50_us", Json::Num(v.latency_p50_us)),
                    ("latency_p99_us", Json::Num(v.latency_p99_us)),
                    ("cpu_us_per_op", Json::Num(v.cpu_us_per_op)),
                    ("samples", Json::Num(v.samples as f64)),
                ])
            })
            .collect(),
    )
}

/// Closed-loop clients, never more than the processors they share with the
/// server. `serve_miss` takes two: they keep both processors of a 2-vCPU
/// guest awake, and ten same-code runs spread 7% (13% with one). `serve_hot`
/// has one processor (see [`confine`]) and so one client: two take turns on
/// it in an order the scheduler picks, and the same runs spread 25%.
fn client_count(kind: Kind, plan: &Plan) -> usize {
    match kind {
        Kind::Hot => 1,
        Kind::Miss => plan.nproc.clamp(1, 2),
    }
}

/// `serve_hot` runs on one processor, server and client both. A cache hit
/// is ≈ 25 µs of work between four thread hops; across processors each hop
/// waits for the guest to wake the other one (3 µs or 45 µs as the hypervisor
/// has it parked or not, milliseconds when the host is busy), and the run
/// measures that. `serve_miss` ops are long enough to keep both awake.
fn confine(kind: Kind) -> Result<Option<OneCpu>, String> {
    match kind {
        Kind::Hot => OneCpu::pin()
            .map(Some)
            .map_err(|e| format!("confining serve_hot to one processor: {e}")),
        Kind::Miss => Ok(None),
    }
}

fn serve_guards(setup: &serve::Setup) -> Result<(), String> {
    let mut admin =
        Conn::connect(setup.server.addr()).map_err(|e| format!("admin connect: {e}"))?;
    let status = admin
        .get("/v1/admin/status")
        .map_err(|e| format!("/v1/admin/status: {e}"))?;
    let label = serve::index_label(&status)?;
    if label != "flat" {
        return Err(format!(
            "the server retrieves by '{label}', not by flat scan"
        ));
    }
    Ok(())
}

fn hit_share_guard(kind: Kind, counters: &serve::Counters) -> Result<(), String> {
    let share = counters.hit_share();
    if !serve::hit_share_ok(kind, share) {
        return Err(format!(
            "{} saw a cache-hit share of {share:.4}: not the workload it claims to be",
            kind.name()
        ));
    }
    Ok(())
}

fn serve_measured(kind: Kind, plan: &Plan) -> Result<Outcome, String> {
    let clients = client_count(kind, plan);
    let confined = confine(kind)?;
    let (setup, setup_s) = repeat_set_up(
        plan,
        || serve::set_up(kind, plan.seed),
        |s| s.setup_s,
        |s| s.server.shutdown(),
    )?;
    serve_guards(&setup)?;
    let expected = setup.oracle()?;
    let pre = serve::precheck(setup.server.addr(), &setup.requests, &expected, clients)?;
    let measured = serve::measure(&setup, kind, &expected, clients, plan.windows, plan.window)?;
    setup.server.shutdown();
    hit_share_guard(kind, &measured.counters)?;
    let summary =
        stats::median_of_windows(&measured.timed.windows).ok_or("a window completed no request")?;
    let mut check = pre;
    check.merge(&measured.check());
    let (metrics, samples) = end_to_end(&summary, check.quality(), check.compared, setup_s);
    Ok(Outcome {
        workload: kind.name(),
        trace: false,
        correct: check.failed == 0,
        attempted: check.attempted,
        failed: check.failed,
        metrics,
        samples,
        detail: Json::obj([
            ("clients", Json::Num(clients as f64)),
            (
                "confined_to_cpu",
                confined.map_or(Json::Null, |c| Json::Num(c.cpu as f64)),
            ),
            ("distinct_requests", Json::Num(setup.requests.len() as f64)),
            ("cache_hit_share", Json::Num(measured.counters.hit_share())),
            ("windows", windows_json(&measured.timed.windows)),
        ]),
    })
}

/// Every per-layer name, zero until a layer the workload reaches fills it.
fn empty_ledger() -> BTreeMap<&'static str, f64> {
    PER_LAYER.iter().map(|m| (m.name, 0.0)).collect()
}

fn fill(
    metrics: &mut BTreeMap<&'static str, f64>,
    samples: &mut BTreeMap<&'static str, u64>,
    ledger: Ledger,
) {
    for (name, s) in ledger {
        metrics.insert(name, s.value);
        samples.insert(name, s.samples);
    }
}

fn process_metrics(metrics: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let (rss_mb, threads) = procfs::memory_and_threads().map_err(|e| format!("/proc: {e}"))?;
    metrics.insert("process.rss_mb", rss_mb);
    metrics.insert("process.threads", threads as f64);
    Ok(())
}

/// Self time per layer as a share of op time, and the JSONL dump: the
/// provenance stamp, the CPU (and server counter) deltas of the untraced
/// reference phase, then one line per span.
fn trace_report(
    plan: &Plan,
    workload: &str,
    reference: Json,
    buf: &SpanBuf,
) -> Result<(BTreeMap<String, f64>, Json), String> {
    let (by_layer, op_ns) = spans::self_time_by_layer(buf.spans());
    let shares: BTreeMap<String, f64> = by_layer
        .iter()
        .map(|(layer, ns)| (layer.clone(), serve::ratio(*ns as f64, op_ns as f64)))
        .collect();
    let mut text = Json::obj([
        ("kind", Json::str("provenance")),
        ("stamp", plan.stamp.clone()),
    ])
    .compact();
    text.push('\n');
    text.push_str(&reference.compact());
    text.push('\n');
    spans::write_jsonl(&mut text, buf.spans());
    std::fs::create_dir_all(&plan.results_dir)
        .and_then(|()| {
            std::fs::write(
                plan.results_dir.join(format!("trace-{workload}.jsonl")),
                text,
            )
        })
        .map_err(|e| format!("writing the trace: {e}"))?;
    let mut detail = Json::Obj(Default::default());
    for (layer, share) in &shares {
        detail.set(layer, Json::Num(*share));
    }
    Ok((
        shares,
        Json::obj([
            ("self_time_share_by_layer", detail),
            ("spans", Json::Num(buf.spans().len() as f64)),
            ("spans_dropped", Json::Num(buf.dropped as f64)),
        ]),
    ))
}

fn p50_us(latencies_ns: &[u64]) -> Result<f64, String> {
    stats::median_ns(latencies_ns)
        .map(|ns| ns / 1e3)
        .ok_or_else(|| "no op completed".to_string())
}

fn window_latencies(windows: &[Window]) -> Vec<u64> {
    windows
        .iter()
        .flat_map(|w| w.latencies_ns.iter().copied())
        .collect()
}

fn serve_traced(kind: Kind, plan: &Plan) -> Result<Outcome, String> {
    let clients = client_count(kind, plan);
    let _confined = confine(kind)?;
    let setup = serve::set_up(kind, plan.seed)?;
    serve_guards(&setup)?;
    let expected = setup.oracle()?;
    let mut check = serve::precheck(setup.server.addr(), &setup.requests, &expected, clients)?;

    // Tracing off first: thread CPU, server counters and the p50 the traced
    // phase is compared with.
    let reference = serve::measure(&setup, kind, &expected, clients, 1, plan.trace_phase)?;
    hit_share_guard(kind, &reference.counters)?;
    check.merge(&reference.check());
    let resume_at: Vec<usize> = reference.timed.workers.iter().map(|w| w.next).collect();
    let traced = serve::traced(&setup, kind, &expected, &resume_at, plan.trace_phase)?;
    check.merge(&traced.check);

    let mut metrics = empty_ledger();
    let mut samples = BTreeMap::new();
    process_metrics(&mut metrics)?;
    serve::layer_metrics(&reference, &traced, &mut metrics)?;
    let ledger = probes::run(&probes::Ctx {
        inputs: &setup.inputs,
        state: &setup.state,
        requests: &setup.requests,
        cache_capacity: kind.cache_capacity(),
    })?;
    setup.server.shutdown();
    fill(&mut metrics, &mut samples, ledger);

    let tail = tail_p99_us(&reference.timed.windows)?;
    metrics.insert("loadgen.latency_p99_us", tail.value);
    samples.insert("loadgen.latency_p99_us", tail.samples);
    let reference_p50 = p50_us(&window_latencies(&reference.timed.windows))?;
    let traced_p50 = p50_us(&traced.latencies_ns)?;
    metrics.insert(
        "loadgen.trace_overhead_share",
        traced_p50 / reference_p50 - 1.0,
    );
    metrics.insert(
        "loadgen.failed_share",
        serve::ratio(check.failed as f64, check.attempted as f64),
    );
    // What producing the same reply costs in-process, without socket, hops
    // or queue; the rest of the client's p50 is the overhead, named.
    let us = |name: &str| metrics[name] / 1e3;
    let in_process_us = us("serve.http.parse_ns")
        + us("serve.key_ns")
        + us("serve.http.write_ns")
        + match kind {
            Kind::Hot => us("serve.cache.lookup_hit_ns"),
            Kind::Miss => {
                us("serve.cache.lookup_miss_ns")
                    + metrics["serve.translate_body_us"]
                    + us("serve.cache.insert_evict_ns")
            }
        };
    metrics.insert("serve.overhead_us", reference_p50 - in_process_us);
    for name in ["loadgen.trace_overhead_share", "serve.overhead_us"] {
        samples.insert(name, traced.latencies_ns.len() as u64);
    }

    let snapshot = Json::obj([
        ("kind", Json::str("snapshot")),
        ("phase", Json::str("reference")),
        ("ops", Json::Num(reference.timed.ok_ops() as f64)),
        ("cpu_ns", reference.timed.cpu_total.to_json()),
        ("counters", reference.counters.to_json()),
    ]);
    let (shares, mut detail) = trace_report(plan, kind.name(), snapshot, &traced.spans)?;
    if kind == Kind::Hot {
        // The workload exists to keep the model idle; a span tree that says
        // otherwise means it is not measuring the hit path.
        let model: f64 = ["embed", "ann", "gred"]
            .iter()
            .filter_map(|l| shares.get(*l))
            .sum();
        if model >= 0.01 {
            return Err(format!(
                "serve_hot spent {model:.4} of op time in embed/ann/gred spans"
            ));
        }
    }
    detail.set("reference_p50_us", Json::Num(reference_p50));
    detail.set("traced_p50_us", Json::Num(traced_p50));
    detail.set("in_process_us", Json::Num(in_process_us));
    detail.set(
        "server_spans_dropped",
        Json::Num(traced.traces.iter().map(|t| t.dropped_spans).sum::<u64>() as f64),
    );
    Ok(Outcome {
        workload: kind.name(),
        trace: true,
        correct: check.failed == 0,
        attempted: check.attempted,
        failed: check.failed,
        metrics,
        samples,
        detail,
    })
}

/// How many passes come nearest to `seconds`, and over how much of each set. A full pass
/// over the four sets takes about seven seconds on the reference box; below
/// that the sets are cut, never the pass count below one.
fn eval_plan(seconds: u64) -> (usize, Option<usize>) {
    const PASS_SECONDS: u64 = 7;
    const SET: u64 = 1182;
    if seconds >= PASS_SECONDS {
        (((seconds + PASS_SECONDS / 2) / PASS_SECONDS) as usize, None)
    } else {
        (1, Some((SET * seconds / PASS_SECONDS).max(120) as usize))
    }
}

fn eval_consistency(passes: &[offline::Pass]) -> Result<(), String> {
    let first = &passes[0];
    match passes
        .iter()
        .position(|p| p.matches != first.matches || p.sizes != first.sizes)
    {
        Some(i) => Err(format!(
            "pass {i} graded {:?}/{:?}, the first {:?}/{:?}: accuracy must repeat exactly",
            passes[i].matches, passes[i].sizes, first.matches, first.sizes
        )),
        None => Ok(()),
    }
}

fn eval_measured(plan: &Plan) -> Result<Outcome, String> {
    let (setup, setup_s) = repeat_set_up(
        plan,
        || Ok(offline::eval_set_up(plan.seed)),
        |s| s.setup_s,
        drop,
    )?;
    let (passes, limit) = eval_plan(plan.seconds);
    // Warm-up by count: one untimed pass, which is also the first grading.
    let mut all = vec![offline::eval_pass(&setup, limit)?];
    for _ in 0..passes {
        all.push(offline::eval_pass(&setup, limit)?);
    }
    eval_consistency(&all)?;
    let timed: Vec<Window> = all[1..].iter().map(|p| p.window.clone()).collect();
    let summary = stats::median_of_windows(&timed).ok_or("a pass produced no prediction")?;
    let attempted: u64 = all.iter().map(|p| p.window.attempted).sum();
    let failed: u64 = all.iter().map(|p| p.window.failed).sum();
    let (metrics, samples) = end_to_end(
        &summary,
        all[0].quality(),
        all[0].sizes.iter().sum(),
        setup_s,
    );
    let mut accuracy = Json::Obj(Default::default());
    for (s, v) in VARIANTS.iter().enumerate() {
        accuracy.set(v.label(), Json::Num(all[0].accuracy(s)));
    }
    Ok(Outcome {
        workload: "eval_rob",
        trace: false,
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        samples,
        detail: Json::obj([
            ("passes", Json::Num(passes as f64)),
            (
                "examples_per_pass",
                Json::Num(all[0].sizes.iter().sum::<u64>() as f64),
            ),
            ("accuracy", accuracy),
            ("windows", windows_json(&timed)),
        ]),
    })
}

/// An unspawned server state over the shared corpus: the probes' way to the
/// catalog, tenant table and cache configuration on offline workloads.
fn probe_state(inputs: &inputs::TextInputs) -> Result<Arc<ServerState>, String> {
    let mut config = ServeConfig::default();
    config
        .set("backends", "gred")
        .map_err(|e| format!("config: {}", e.message))?;
    ServerState::from_corpus(&inputs.corpus, config)
        .map(Arc::new)
        .map_err(|e| format!("server state: {e}"))
}

fn eval_traced(plan: &Plan) -> Result<Outcome, String> {
    let setup = offline::eval_set_up(plan.seed);
    let (_, limit) = eval_plan(plan.seconds);
    let reference = offline::eval_pass(&setup, limit)?;
    let (buf, translate_ns) = offline::eval_replay(&setup, plan.trace_phase);

    let mut metrics = empty_ledger();
    let mut samples = BTreeMap::new();
    process_metrics(&mut metrics)?;
    let state = probe_state(&setup.inputs)?;
    let requests = inputs::hot_requests(&setup.inputs);
    fill(
        &mut metrics,
        &mut samples,
        probes::run(&probes::Ctx {
            inputs: &setup.inputs,
            state: &state,
            requests: &requests,
            cache_capacity: state.config.cache_capacity,
        })?,
    );
    for (s, name) in [
        "eval.accuracy.original",
        "eval.accuracy.nlq",
        "eval.accuracy.schema",
        "eval.accuracy.both",
    ]
    .into_iter()
    .enumerate()
    {
        metrics.insert(name, reference.accuracy(s));
        samples.insert(name, reference.sizes[s]);
    }
    let tail = tail_p99_us(std::slice::from_ref(&reference.window))?;
    metrics.insert("loadgen.latency_p99_us", tail.value);
    samples.insert("loadgen.latency_p99_us", tail.samples);
    let reference_p50 = p50_us(&reference.window.latencies_ns)?;
    let replay_p50 = p50_us(&translate_ns)?;
    metrics.insert(
        "loadgen.trace_overhead_share",
        replay_p50 / reference_p50 - 1.0,
    );
    samples.insert("loadgen.trace_overhead_share", translate_ns.len() as u64);
    metrics.insert(
        "loadgen.failed_share",
        serve::ratio(
            reference.window.failed as f64,
            reference.window.attempted as f64,
        ),
    );
    let cpu_us = reference.window.program_cpu_ns as f64 / 1e3 / reference.window.ok().max(1) as f64;
    let snapshot = Json::obj([
        ("kind", Json::str("snapshot")),
        ("phase", Json::str("reference")),
        ("ops", Json::Num(reference.window.ok() as f64)),
        (
            "program_cpu_ns",
            Json::Num(reference.window.program_cpu_ns as f64),
        ),
    ]);
    let (shares, mut detail) = trace_report(plan, "eval_rob", snapshot, &buf)?;
    offline_layers_only(&shares)?;
    detail.set("reference_p50_us", Json::Num(reference_p50));
    detail.set("replay_translate_p50_us", Json::Num(replay_p50));
    detail.set("reference_cpu_us_per_op", Json::Num(cpu_us));
    Ok(Outcome {
        workload: "eval_rob",
        trace: true,
        correct: reference.window.failed == 0,
        attempted: reference.window.attempted,
        failed: reference.window.failed,
        metrics,
        samples,
        detail,
    })
}

/// The offline workloads exist to leave `serve` and `net` idle.
fn offline_layers_only(shares: &BTreeMap<String, f64>) -> Result<(), String> {
    match shares.keys().find(|l| *l == "serve" || *l == "net") {
        Some(layer) => Err(format!("an offline workload recorded a {layer}.* span")),
        None => Ok(()),
    }
}

fn recall_guard(recall: f64) -> Result<(), String> {
    if recall < 0.95 {
        return Err(format!(
            "recall@10 is {recall:.4}, below 0.95: the index is not the one the workload times"
        ));
    }
    Ok(())
}

fn retrieve_rows(plan: &Plan) -> usize {
    // A smoke run keeps the shape (trained IVF over clustered rows) at a
    // tenth of the size.
    if plan.seconds < 5 {
        VECTOR_ROWS / 10
    } else {
        VECTOR_ROWS
    }
}

fn retrieve_measured(plan: &Plan) -> Result<Outcome, String> {
    let rows = retrieve_rows(plan);
    let (setup, setup_s) = repeat_set_up(
        plan,
        || offline::retrieve_set_up(plan.seed, rows),
        |s| s.setup_s,
        drop,
    )?;
    let truth = offline::retrieve_truth(&setup);
    recall_guard(truth.recall_at_10)?;
    let timed = offline::retrieve_measure(&setup, &truth, plan.windows, plan.window, false)?;
    let summary = stats::median_of_windows(&timed.windows).ok_or("a window completed no search")?;
    let attempted: u64 = timed.windows.iter().map(|w| w.attempted).sum();
    let failed: u64 = timed.windows.iter().map(|w| w.failed).sum();
    let (metrics, samples) = end_to_end(
        &summary,
        truth.recall_at_10,
        10 * truth.approx.len() as u64,
        setup_s,
    );
    Ok(Outcome {
        workload: "retrieve_large",
        trace: false,
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        samples,
        detail: Json::obj([
            ("rows", Json::Num(rows as f64)),
            ("cells", Json::Num(setup.ivf.cells() as f64)),
            ("nprobe", Json::Num(setup.ivf.default_nprobe() as f64)),
            ("train_s", Json::Num(setup.train_s)),
            (
                "searches_checked",
                Json::Num(timed.workers[0].0.compared as f64),
            ),
            ("windows", windows_json(&timed.windows)),
        ]),
    })
}

fn retrieve_traced(plan: &Plan) -> Result<Outcome, String> {
    let rows = retrieve_rows(plan);
    let setup = offline::retrieve_set_up(plan.seed, rows)?;
    let truth = offline::retrieve_truth(&setup);
    recall_guard(truth.recall_at_10)?;
    let reference = offline::retrieve_measure(&setup, &truth, 1, plan.trace_phase, false)?;
    let mut traced = offline::retrieve_measure(&setup, &truth, 1, plan.trace_phase, true)?;
    let (_, buf) = traced.workers.pop().ok_or("no caller")?;

    let mut metrics = empty_ledger();
    let mut samples = BTreeMap::new();
    process_metrics(&mut metrics)?;
    let reference_ns = window_latencies(&reference.windows);
    let reference_p50 = p50_us(&reference_ns)?;
    let traced_p50 = p50_us(&window_latencies(&traced.windows))?;
    let tail = tail_p99_us(&reference.windows)?;
    metrics.insert("loadgen.latency_p99_us", tail.value);
    samples.insert("loadgen.latency_p99_us", tail.samples);
    metrics.insert("ann.search_us", reference_p50);
    samples.insert("ann.search_us", reference_ns.len() as u64);
    metrics.insert("ann.recall_at_10", truth.recall_at_10);
    metrics.insert("ann.train_s", setup.train_s);
    metrics.insert("ann.index_bytes", setup.ivf.memory_bytes() as f64);
    // The exact scan the same dot kernel serves, over the same rows.
    let mut q = 0usize;
    let scan = probes::time_ns(std::time::Duration::from_millis(150), || {
        q += 1;
        std::hint::black_box(
            setup
                .vectors
                .flat
                .top_k_prenormalized(&setup.vectors.queries[q % setup.vectors.queries.len()], 10),
        );
    });
    metrics.insert("embed.flat_scan_ms", scan.value / 1e6);
    samples.insert("embed.flat_scan_ms", scan.samples);
    metrics.insert(
        "loadgen.trace_overhead_share",
        traced_p50 / reference_p50 - 1.0,
    );
    let attempted: u64 = reference
        .windows
        .iter()
        .chain(&traced.windows)
        .map(|w| w.attempted)
        .sum();
    let failed: u64 = reference
        .windows
        .iter()
        .chain(&traced.windows)
        .map(|w| w.failed)
        .sum();
    metrics.insert(
        "loadgen.failed_share",
        serve::ratio(failed as f64, attempted as f64),
    );

    let text = inputs::text_inputs(plan.seed);
    let state = probe_state(&text)?;
    let requests = inputs::hot_requests(&text);
    fill(
        &mut metrics,
        &mut samples,
        probes::run(&probes::Ctx {
            inputs: &text,
            state: &state,
            requests: &requests,
            cache_capacity: state.config.cache_capacity,
        })?,
    );
    let snapshot = Json::obj([
        ("kind", Json::str("snapshot")),
        ("phase", Json::str("reference")),
        ("ops", Json::Num(reference.ok_ops() as f64)),
        ("cpu_ns", reference.cpu_total.to_json()),
    ]);
    let (shares, mut detail) = trace_report(plan, "retrieve_large", snapshot, &buf)?;
    offline_layers_only(&shares)?;
    detail.set("rows", Json::Num(rows as f64));
    detail.set("reference_p50_us", Json::Num(reference_p50));
    detail.set("traced_p50_us", Json::Num(traced_p50));
    Ok(Outcome {
        workload: "retrieve_large",
        trace: true,
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        samples,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_plan_cuts_sets_before_it_cuts_passes() {
        assert_eq!(eval_plan(35), (5, None));
        assert_eq!(eval_plan(20), (3, None));
        assert_eq!(eval_plan(15), (2, None));
        assert_eq!(eval_plan(7), (1, None));
        assert_eq!(eval_plan(2), (1, Some(337)));
        assert_eq!(eval_plan(0), (1, Some(120)));
    }

    #[test]
    fn accuracy_that_moves_between_passes_fails_the_run() {
        let pass = |m: u64| offline::Pass {
            window: Window::default(),
            matches: [m, 1, 1, 1],
            sizes: [4, 4, 4, 4],
        };
        assert!(eval_consistency(&[pass(3), pass(3), pass(3)]).is_ok());
        assert!(eval_consistency(&[pass(3), pass(3), pass(2)])
            .unwrap_err()
            .contains("pass 2"));
    }

    #[test]
    fn guards_reject_the_wrong_workload() {
        assert!(recall_guard(0.951).is_ok());
        assert!(recall_guard(0.94).is_err());
        let shares = |l: &str| BTreeMap::from([(l.to_string(), 0.5)]);
        assert!(offline_layers_only(&shares("gred")).is_ok());
        assert!(offline_layers_only(&shares("serve")).is_err());
        let hot = serve::Counters {
            hits: 90.0,
            misses: 10.0,
            ..Default::default()
        };
        assert!(hit_share_guard(Kind::Hot, &hot).is_err());
        assert!(hit_share_guard(Kind::Miss, &hot).is_err());
    }

    #[test]
    fn unsupported_p99_refuses_to_report() {
        let window = |n: usize| Window {
            latencies_ns: vec![1_000; n],
            attempted: n as u64,
            failed: 0,
            wall_ns: 1_000_000_000,
            program_cpu_ns: 1,
        };
        assert!(tail_p99_us(&[window(999)])
            .unwrap_err()
            .contains("samples beyond"));
        assert_eq!(tail_p99_us(&[window(1000)]).unwrap().samples, 1000);
        assert!(tail_p99_us(&[]).is_err());
    }

    fn plan_with(budget_ms: u64, nproc: usize) -> Plan {
        Plan {
            seed: 7,
            seconds: 15,
            windows: 3,
            window: std::time::Duration::from_secs(5),
            trace_phase: std::time::Duration::from_secs(5),
            setups_min: 3,
            setups_max: 9,
            setup_budget: std::time::Duration::from_millis(budget_ms),
            nproc,
            results_dir: Default::default(),
            stamp: Json::Null,
        }
    }

    #[test]
    fn clients_never_outnumber_processors_and_hot_takes_one() {
        for (nproc, hot, miss) in [(1, 1, 1), (2, 1, 2), (8, 1, 2)] {
            let plan = plan_with(1500, nproc);
            assert_eq!(client_count(Kind::Hot, &plan), hot);
            assert_eq!(client_count(Kind::Miss, &plan), miss);
        }
    }

    #[test]
    fn cheap_set_ups_repeat_until_the_budget_and_dear_ones_three_times() {
        let plan = |budget_ms: u64| plan_with(budget_ms, 2);
        let mut torn_down = 0;
        let run = |plan: &Plan, cost: f64, torn_down: &mut usize| {
            let mut n = 0u32;
            repeat_set_up(
                plan,
                || {
                    n += 1;
                    Ok(n)
                },
                |&n| cost * f64::from(n),
                |_| *torn_down += 1,
            )
            .unwrap()
        };
        // 0.1, 0.2, 0.3, 0.4, 0.5 s add up to the 1.5 s budget.
        let (last, s) = run(&plan(1500), 0.1, &mut torn_down);
        assert_eq!((last, s.samples, torn_down), (5, 5, 4));
        assert!((s.value - 0.3).abs() < 1e-12);
        // Dear set-ups stop at the minimum, free ones at the maximum.
        assert_eq!(run(&plan(1500), 4.0, &mut torn_down).1.samples, 3);
        assert_eq!(run(&plan(1500), 0.0, &mut torn_down).1.samples, 9);
    }

    #[test]
    fn the_empty_ledger_names_every_per_layer_metric() {
        assert_eq!(empty_ledger().len(), PER_LAYER.len());
    }
}
