//! `eval_rob` and `retrieve_large`: no sockets, cache or pool — one caller
//! straight into the library crates.

use crate::inputs::{self, TextInputs, VectorInputs};
use crate::procfs::CpuSnapshot;
use crate::runner::{self, Timed, WindowLog};
use crate::spans::{self, Span, SpanBuf};
use crate::stats::Window;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use t2v_ann::{IvfConfig, IvfIndex};
use t2v_core::{
    BackendInfo, StageRecord, TranslateError, TranslateRequest, TranslateResponse, Translator,
};
use t2v_embed::Hit;
use t2v_gred::{default_gred, DirectRetriever, Gred, GredConfig};
use t2v_llm::SimulatedChatModel;
use t2v_perturb::RobVariant;

/// The thread offline ops run on. Not a load-generator name: its CPU is the
/// program's, the benchmark only calls.
pub const CALLER: &str = "t2v-caller";

pub const VARIANTS: [RobVariant; 4] = [
    RobVariant::Original,
    RobVariant::Nlq,
    RobVariant::Schema,
    RobVariant::Both,
];

pub struct EvalSetup {
    pub inputs: TextInputs,
    pub gred: Gred<SimulatedChatModel>,
    pub setup_s: f64,
}

/// Corpus and rob generation plus the library build behind `default_gred`.
pub fn eval_set_up(seed: u64) -> EvalSetup {
    let t = Instant::now();
    let inputs = inputs::text_inputs(seed);
    let gred = default_gred(&inputs.corpus, GredConfig::default());
    EvalSetup {
        inputs,
        gred,
        setup_s: t.elapsed().as_secs_f64(),
    }
}

/// A translator that clocks every call into the one it wraps: per-op latency
/// for a harness that only takes whole sets.
struct Clocked<'a> {
    inner: &'a dyn Translator,
    /// (latency ns, produced a DVQ) per call, in call order.
    calls: Mutex<Vec<(u64, bool)>>,
}

impl Translator for Clocked<'_> {
    fn info(&self) -> BackendInfo {
        self.inner.info()
    }

    fn translate(&self, req: &TranslateRequest<'_>) -> Result<TranslateResponse, TranslateError> {
        let t = Instant::now();
        let out = self.inner.translate(req);
        let ns = t.elapsed().as_nanos() as u64;
        self.calls
            .lock()
            .expect("no caller panics holding the log")
            .push((ns, out.is_ok()));
        out
    }
}

/// One pass of `evaluate_set` over the four sets.
#[derive(Debug, Clone)]
pub struct Pass {
    pub window: Window,
    /// Overall-match count and size of each set, in [`VARIANTS`] order.
    pub matches: [u64; 4],
    pub sizes: [u64; 4],
}

impl Pass {
    pub fn accuracy(&self, set: usize) -> f64 {
        self.matches[set] as f64 / self.sizes[set] as f64
    }

    /// Accuracy micro-averaged over the four sets.
    pub fn quality(&self) -> f64 {
        self.matches.iter().sum::<u64>() as f64 / self.sizes.iter().sum::<u64>() as f64
    }
}

/// Run `f` on a thread named [`CALLER`] and wait for it.
fn on_caller<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name(CALLER.to_string())
            .spawn_scoped(scope, f)
            .expect("spawn caller thread")
            .join()
            .expect("caller thread panicked")
    })
}

/// One timed pass; an op is one example, failed if no DVQ came back.
pub fn eval_pass(setup: &EvalSetup, limit: Option<usize>) -> Result<Pass, String> {
    let before = CpuSnapshot::take().map_err(|e| format!("/proc: {e}"))?;
    let t = Instant::now();
    let (calls, matches, sizes) = on_caller(|| {
        let clocked = Clocked {
            inner: &setup.gred,
            calls: Mutex::new(Vec::with_capacity(4 * setup.inputs.rob.original.len())),
        };
        let (mut matches, mut sizes) = ([0u64; 4], [0u64; 4]);
        for (s, variant) in VARIANTS.into_iter().enumerate() {
            let run = t2v_eval::evaluate_set(
                &clocked,
                &setup.inputs.corpus,
                &setup.inputs.rob,
                variant,
                limit,
            );
            matches[s] = run.records.iter().filter(|r| r.overall_match).count() as u64;
            sizes[s] = run.records.len() as u64;
        }
        (
            clocked.calls.into_inner().expect("log intact"),
            matches,
            sizes,
        )
    });
    let wall_ns = t.elapsed().as_nanos() as u64;
    let cpu = CpuSnapshot::take()
        .map_err(|e| format!("/proc: {e}"))?
        .since(&before);
    if calls.len() as u64 != sizes.iter().sum::<u64>() {
        return Err(format!(
            "harness made {} calls for {} examples",
            calls.len(),
            sizes.iter().sum::<u64>()
        ));
    }
    Ok(Pass {
        window: Window {
            latencies_ns: calls.iter().filter(|c| c.1).map(|c| c.0).collect(),
            attempted: calls.len() as u64,
            failed: calls.iter().filter(|c| !c.1).count() as u64,
            wall_ns,
            program_cpu_ns: cpu.program_ns(),
        },
        matches,
        sizes,
    })
}

/// The traced replay: each example taken layer by layer — embed, top-k,
/// the pipeline with its stage clocks, parse, grade — for `duration`,
/// round-robin over the four sets.
pub fn eval_replay(setup: &EvalSetup, duration: Duration) -> (SpanBuf, Vec<u64>) {
    const MAX_OPS: usize = 1 << 15;
    let (corpus, rob, gred) = (&setup.inputs.corpus, &setup.inputs.rob, &setup.gred);
    let library = gred.library();
    on_caller(|| {
        let mut buf = SpanBuf::with_capacity(MAX_OPS * 10);
        let mut translate_ns = Vec::with_capacity(MAX_OPS);
        let mut scratch = vec![0f32; gred.embedder().dims()];
        let start = Instant::now();
        let at = |t: Instant| t.duration_since(start).as_nanos() as u64;
        for op in 0..MAX_OPS {
            let variant = VARIANTS[op % 4];
            let set = rob.set(variant);
            let i = (op / 4) % set.len();
            let ex = &set[i];
            let db = rob.database(corpus, ex);
            let t_op = Instant::now();
            if t_op.duration_since(start) >= duration {
                break;
            }
            let mut children: Vec<(&'static str, u64, u64)> = Vec::with_capacity(8);
            let mut call = |name: &'static str, f: &mut dyn FnMut()| {
                let t0 = Instant::now();
                f();
                children.push((name, at(t0), at(Instant::now())));
            };
            call("embed.embed", &mut || {
                gred.embedder().embed_into(&ex.nlq, &mut scratch)
            });
            call("embed.top_k", &mut || {
                std::hint::black_box(
                    library
                        .nlq_index
                        .top_k_prenormalized(&scratch, gred.config.k),
                );
            });
            let mut stages: Vec<(&'static str, u64)> = Vec::with_capacity(3);
            let mut prediction = None;
            call("gred.translate", &mut || {
                let out = gred.translate_observed(
                    &ex.nlq,
                    db,
                    &DirectRetriever(library),
                    &mut |s: &StageRecord| {
                        stages.push((s.name, s.micros * 1000));
                    },
                );
                prediction = out.final_dvq().map(str::to_string);
            });
            call("dvq.parse", &mut || {
                if let Some(p) = &prediction {
                    std::hint::black_box(t2v_dvq::parse(p).is_ok());
                }
            });
            let cached = [prediction.clone()];
            call("eval.grade", &mut || {
                std::hint::black_box(
                    t2v_eval::evaluate_predictions("replay", variant, &cached, &set[i..=i]).is_ok(),
                );
            });
            let t_end = Instant::now();

            let Some(root) = buf.push(Span {
                op: op as u64,
                name: spans::ROOT,
                start_ns: at(t_op),
                end_ns: at(t_end),
                parent: None,
            }) else {
                break;
            };
            for &(name, start_ns, end_ns) in &children {
                let id = buf.push(Span {
                    op: op as u64,
                    name,
                    start_ns,
                    end_ns,
                    parent: Some(root),
                });
                if name == "gred.translate" {
                    translate_ns.push(end_ns - start_ns);
                    // The pipeline's own stage clocks, laid end to end.
                    let mut t = start_ns;
                    for &(stage, ns) in &stages {
                        buf.push(Span {
                            op: op as u64,
                            name: stage_span_name(stage),
                            start_ns: t,
                            end_ns: t + ns,
                            parent: id,
                        });
                        t += ns;
                    }
                }
            }
        }
        (buf, translate_ns)
    })
}

fn stage_span_name(stage: &str) -> &'static str {
    match stage {
        "generator" => "gred.generator",
        "retuner" => "gred.retuner",
        "debugger" => "gred.debugger",
        _ => "gred.stage",
    }
}

pub struct RetrieveSetup {
    pub vectors: VectorInputs,
    pub ivf: IvfIndex,
    pub train_s: f64,
    pub setup_s: f64,
}

/// Vector generation and IVF+SQ8 training.
pub fn retrieve_set_up(seed: u64, rows: usize) -> Result<RetrieveSetup, String> {
    let t = Instant::now();
    let vectors = inputs::vector_inputs(seed, rows);
    let t_train = Instant::now();
    let ivf = IvfIndex::train(&vectors.flat, &IvfConfig::default())
        .ok_or("IVF training declined: too few rows")?;
    Ok(RetrieveSetup {
        vectors,
        ivf,
        train_s: t_train.elapsed().as_secs_f64(),
        setup_s: t.elapsed().as_secs_f64(),
    })
}

fn ids(hits: &[Hit]) -> Vec<usize> {
    hits.iter().map(|h| h.id).collect()
}

/// What IVF returns for each query, and how much of the exact scan's top
/// ten it holds.
pub struct Truth {
    pub approx: Vec<Vec<usize>>,
    pub recall_at_10: f64,
}

pub fn retrieve_truth(setup: &RetrieveSetup) -> Truth {
    let flat = &setup.vectors.flat;
    let (mut overlap, mut total) = (0usize, 0usize);
    let approx = setup
        .vectors
        .queries
        .iter()
        .map(|q| {
            let exact = ids(&flat.top_k_prenormalized(q, 10));
            let approx = ids(&setup.ivf.search(flat, q, 10, 0));
            overlap += approx.iter().filter(|id| exact.contains(id)).count();
            total += exact.len();
            approx
        })
        .collect();
    Truth {
        approx,
        recall_at_10: overlap as f64 / total.max(1) as f64,
    }
}

/// Searches checked against [`Truth::approx`] while timing.
#[derive(Debug, Clone, Copy, Default)]
pub struct SearchCheck {
    pub compared: u64,
    pub equal: u64,
}

/// One caller searching the rotating queries for `windows × window`, after
/// one untimed pass over them. With `trace`, each op also leaves a root span
/// and an `ann.search` child.
pub fn retrieve_measure(
    setup: &RetrieveSetup,
    truth: &Truth,
    windows: usize,
    window: Duration,
    trace: bool,
) -> Result<Timed<(SearchCheck, SpanBuf)>, String> {
    const MAX_TRACED_OPS: usize = 1 << 15;
    let (flat, ivf, queries) = (&setup.vectors.flat, &setup.ivf, &setup.vectors.queries);
    runner::run(
        CALLER,
        1,
        windows,
        window,
        |_| {
            for q in queries {
                std::hint::black_box(ivf.search(flat, q, 10, 0));
            }
            Ok(())
        },
        |_, (), clock| {
            let mut log = WindowLog::new(windows, 1 << 16);
            let mut check = SearchCheck::default();
            let mut buf = SpanBuf::with_capacity(if trace { 2 * MAX_TRACED_OPS } else { 0 });
            for n in 0u64.. {
                let q = (n % queries.len() as u64) as usize;
                let t0 = Instant::now();
                let hits = ivf.search(flat, &queries[q], 10, 0);
                let t1 = Instant::now();
                let Some(k) = clock.window_of(t1) else {
                    break;
                };
                let mut ok = hits.len() == 10;
                if ok && n % 64 == 0 {
                    check.compared += 1;
                    ok = ids(&hits) == truth.approx[q];
                    check.equal += u64::from(ok);
                }
                log.record(k, ok, t1.duration_since(t0).as_nanos() as u64);
                if trace {
                    let (s, e) = (
                        t0.duration_since(clock.start()).as_nanos() as u64,
                        t1.duration_since(clock.start()).as_nanos() as u64,
                    );
                    // The root closes after the bookkeeping above, so its
                    // self time is the harness's own cost per op.
                    let end = Instant::now().duration_since(clock.start()).as_nanos() as u64;
                    let Some(root) = buf.push(Span {
                        op: n,
                        name: spans::ROOT,
                        start_ns: s,
                        end_ns: end,
                        parent: None,
                    }) else {
                        break;
                    };
                    buf.push(Span {
                        op: n,
                        name: "ann.search",
                        start_ns: s,
                        end_ns: e,
                        parent: Some(root),
                    });
                }
            }
            Ok((log, (check, buf)))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2v_core::FnBackend;
    use t2v_corpus::Database;

    #[test]
    fn clocked_translator_logs_every_call_and_whether_it_answered() {
        let inner = FnBackend::new("half", |nlq: &str, _: &Database| {
            nlq.len()
                .is_multiple_of(2)
                .then(|| "Visualize BAR SELECT a , b FROM t".to_string())
        });
        let clocked = Clocked {
            inner: &inner,
            calls: Mutex::new(Vec::new()),
        };
        let corpus = t2v_corpus::generate(&t2v_corpus::CorpusConfig::tiny(7));
        let db = &corpus.databases[0];
        assert!(clocked.predict("ab", db).is_some());
        assert!(clocked.predict("abc", db).is_none());
        assert_eq!(clocked.info().name, "half");
        let calls = clocked.calls.into_inner().unwrap();
        assert_eq!(
            calls.iter().map(|c| c.1).collect::<Vec<_>>(),
            vec![true, false]
        );
    }

    #[test]
    fn pass_quality_is_micro_averaged() {
        let pass = Pass {
            window: Window::default(),
            matches: [3, 1, 0, 0],
            sizes: [4, 4, 1, 1],
        };
        assert_eq!(pass.accuracy(0), 0.75);
        assert_eq!(pass.quality(), 0.4);
    }

    #[test]
    fn small_retrieve_workload_runs_checks_and_traces() {
        // Above the training threshold, small enough for a unit test.
        let setup = retrieve_set_up(3, t2v_ann::DEFAULT_MIN_ROWS + 2_000).unwrap();
        let truth = retrieve_truth(&setup);
        assert!(truth.recall_at_10 > 0.5);
        let timed = retrieve_measure(&setup, &truth, 2, Duration::from_millis(30), true).unwrap();
        assert_eq!(timed.windows.len(), 2);
        assert!(timed.windows.iter().all(|w| w.ok() > 0 && w.failed == 0));
        let (check, buf) = &timed.workers[0];
        assert!(check.compared > 0 && check.compared == check.equal);
        let (by_layer, op_ns) = spans::self_time_by_layer(buf.spans());
        assert!(by_layer["ann"] > 0 && by_layer["ann"] <= op_ns);
        assert!(by_layer.keys().all(|l| l == "ann" || l == "loadgen"));
    }
}
