//! The GRED pipeline (paper §4.2): NLQ-Retrieval Generator → DVQ-Retrieval
//! Retuner → Annotation-based Debugger.

use crate::library::{AnnotationStore, EmbeddingLibrary};
use std::sync::Arc;
use std::time::Instant;
use t2v_core::{
    BackendInfo, BackendKind, StageRecord, StageSink, Step, TranslateError, TranslateRequest,
    TranslateResponse, Translator,
};
use t2v_corpus::{Corpus, Database};
use t2v_embed::{Hit, TextEmbedder};
use t2v_llm::api::{ChatModel, ChatParams};
use t2v_llm::{extract_dvq, prompts, GenExample};

/// GRED hyperparameters. `k = 10` per §5.1. GRED always runs all three
/// stages; Table 4's ablated rows (`w/o RTN`, `w/o DBG`, `w/o RTN&DBG`) are
/// projections of one full pass ([`Gred::translate_ablations`]).
#[derive(Debug, Clone)]
pub struct GredConfig {
    /// Retrieval depth for both NLQ and DVQ retrieval.
    pub k: usize,
    /// Order examples by ascending similarity (most similar nearest the
    /// question) — the paper's choice. `false` gives the reversed ordering
    /// exercised by the prompt-order ablation bench.
    pub ascending_order: bool,
}

impl Default for GredConfig {
    fn default() -> Self {
        GredConfig {
            k: 10,
            ascending_order: true,
        }
    }
}

/// Intermediate and final outputs of one translation.
#[derive(Debug, Clone, PartialEq)]
pub struct GredOutput {
    pub dvq_gen: Option<String>,
    pub dvq_rtn: Option<String>,
    pub dvq_dbg: Option<String>,
}

impl GredOutput {
    /// The last stage that produced a DVQ.
    pub fn final_dvq(&self) -> Option<&str> {
        self.dvq_dbg
            .as_deref()
            .or(self.dvq_rtn.as_deref())
            .or(self.dvq_gen.as_deref())
    }
}

/// The retrieval seam between the pipeline and the embedding library.
///
/// [`Gred::translate_observed`] resolves its two top-k lookups through this
/// trait and brackets each call as [`Step::Retrieve`] for the caller's
/// observer. Every caller passes [`DirectRetriever`]; tests substitute
/// counting fakes through it. Queries are the embedder's output and
/// therefore already L2-normalised.
pub trait Retrieve {
    /// Top-k over the library's NLQ index.
    fn retrieve_nlq(&self, query: &[f32], k: usize) -> Vec<Hit>;
    /// Top-k over the library's DVQ index.
    fn retrieve_dvq(&self, query: &[f32], k: usize) -> Vec<Hit>;
}

/// The retriever: **exact** lookups straight into the library's flat
/// stores.
pub struct DirectRetriever<'a>(pub &'a EmbeddingLibrary);

impl Retrieve for DirectRetriever<'_> {
    fn retrieve_nlq(&self, query: &[f32], k: usize) -> Vec<Hit> {
        self.0.nlq_index.top_k_prenormalized(query, k)
    }

    fn retrieve_dvq(&self, query: &[f32], k: usize) -> Vec<Hit> {
        self.0.dvq_index.top_k_prenormalized(query, k)
    }
}

/// The assembled GRED system.
///
/// The heavyweight shared state (embedding library, annotation cache) sits
/// behind `Arc`s, so a `Gred` is a cheap shareable handle: `Clone` it into
/// every worker thread of a serving pool and they all read one library.
/// `Gred<M>` is `Send + Sync` whenever the model is (the simulated LLM is).
pub struct Gred<M: ChatModel> {
    pub config: GredConfig,
    embedder: Arc<TextEmbedder>,
    library: Arc<EmbeddingLibrary>,
    annotations: Arc<AnnotationStore>,
    model: M,
}

impl<M: ChatModel + Clone> Clone for Gred<M> {
    fn clone(&self) -> Self {
        Gred {
            config: self.config.clone(),
            embedder: Arc::clone(&self.embedder),
            library: Arc::clone(&self.library),
            annotations: Arc::clone(&self.annotations),
            model: self.model.clone(),
        }
    }
}

impl<M: ChatModel> Gred<M> {
    /// Preparatory phase: build the embedding library over `corpus.train`
    /// with `embedder` (the pre-trained text embedding model).
    pub fn prepare(corpus: &Corpus, embedder: TextEmbedder, model: M, config: GredConfig) -> Self {
        let library = EmbeddingLibrary::build(corpus, &embedder);
        Gred::from_parts(Arc::new(embedder), Arc::new(library), model, config)
    }

    /// Assemble a GRED over an already-resolved embedder + library — the
    /// provenance seam: callers decide whether the library was freshly
    /// built ([`EmbeddingLibrary::build`]) or restored from a persistent
    /// snapshot (`t2v-store`), and the pipeline behaves identically either
    /// way (conformance-tested in the store crate).
    pub fn from_parts(
        embedder: Arc<TextEmbedder>,
        library: Arc<EmbeddingLibrary>,
        model: M,
        config: GredConfig,
    ) -> Self {
        Gred {
            config,
            embedder,
            library,
            annotations: Arc::new(AnnotationStore::new()),
            model,
        }
    }

    pub fn library(&self) -> &EmbeddingLibrary {
        &self.library
    }

    pub fn embedder(&self) -> &TextEmbedder {
        &self.embedder
    }

    pub fn model(&self) -> &M {
        &self.model
    }

    /// Translate one NLQ against `db` with exact retrieval, reporting
    /// every stage's output.
    pub fn translate(&self, nlq: &str, db: &Database) -> GredOutput {
        self.translate_observed(nlq, db, &DirectRetriever(&self.library), &mut ())
    }

    /// The pipeline proper, with retrieval routed through `retriever`. It
    /// delivers each stage's [`StageRecord`] (output and wall-clock micros)
    /// to `observer` the moment the stage completes, and brackets its two
    /// embeddings ([`Step::Embed`]) and two retrievals ([`Step::Retrieve`])
    /// with `begin` / `end`. This is the seam behind the [`Translator`]
    /// impl and everything `t2v-serve` exposes of a translation: NDJSON
    /// stages, spans, latency fault points. Observation never changes the
    /// output.
    pub fn translate_observed(
        &self,
        nlq: &str,
        db: &Database,
        retriever: &impl Retrieve,
        observer: &mut (impl StageSink + ?Sized),
    ) -> GredOutput {
        let schema_text = db.render_prompt_schema();

        // ----- stage 1: NLQ-Retrieval Generator -----
        // The embedder's output is already L2-normalised, so retrieval can
        // skip its defensive renormalisation copy.
        let t0 = Instant::now();
        observer.begin(Step::Embed);
        let qv = self.embedder.embed(nlq);
        observer.end(Step::Embed);
        observer.begin(Step::Retrieve);
        let mut hits = retriever.retrieve_nlq(&qv, self.config.k);
        observer.end(Step::Retrieve);
        // `top_k` returns best-first (descending similarity); the paper
        // assembles the prompt in ascending order of similarity so the most
        // similar example lands next to the question.
        if self.config.ascending_order {
            hits.reverse();
        }
        // Borrow straight out of the library: no per-hit string clones.
        let examples: Vec<GenExample<'_>> = hits
            .iter()
            .map(|h| {
                let e = &self.library.entries[h.id];
                GenExample {
                    db_id: (&*e.db_id).into(),
                    schema_text: (&*e.schema_text).into(),
                    nlq: (&*e.nlq).into(),
                    dvq: (&*e.dvq).into(),
                }
            })
            .collect();
        let gen_answer = self.model.complete(
            &prompts::generation_prompt(&examples, &schema_text, nlq),
            &ChatParams::working(),
        );
        let dvq_gen = extract_dvq(&gen_answer);
        observer.stage(&StageRecord::new(
            "generator",
            dvq_gen.clone(),
            t0.elapsed().as_micros() as u64,
        ));
        let Some(dvq_gen) = dvq_gen else {
            return GredOutput {
                dvq_gen: None,
                dvq_rtn: None,
                dvq_dbg: None,
            };
        };

        // ----- stage 2: DVQ-Retrieval Retuner -----
        let t1 = Instant::now();
        observer.begin(Step::Embed);
        let dv = self.embedder.embed(&dvq_gen);
        observer.end(Step::Embed);
        observer.begin(Step::Retrieve);
        let hits = retriever.retrieve_dvq(&dv, self.config.k);
        observer.end(Step::Retrieve);
        let refs: Vec<&str> = hits
            .iter()
            .map(|h| &*self.library.entries[h.id].dvq)
            .collect();
        let answer = self.model.complete(
            &prompts::retune_prompt(&refs, &dvq_gen),
            &ChatParams::working(),
        );
        let dvq_rtn = extract_dvq(&answer);
        observer.stage(&StageRecord::new(
            "retuner",
            dvq_rtn.clone(),
            t1.elapsed().as_micros() as u64,
        ));

        // ----- stage 3: Annotation-based Debugger -----
        let t2 = Instant::now();
        let current = dvq_rtn.as_deref().unwrap_or(&dvq_gen);
        let dvq_dbg = self.debug_with(&schema_text, current, db);
        observer.stage(&StageRecord::new(
            "debugger",
            dvq_dbg.clone(),
            t2.elapsed().as_micros() as u64,
        ));

        GredOutput {
            dvq_gen: Some(dvq_gen),
            dvq_rtn,
            dvq_dbg,
        }
    }

    /// The Annotation-based Debugger alone: repair `dvq` against `db`'s
    /// schema and its annotation (generated on first use, then cached).
    pub fn debug(&self, dvq: &str, db: &Database) -> Option<String> {
        self.debug_with(&db.render_prompt_schema(), dvq, db)
    }

    // Inlined so `translate_observed` compiles its debugger stage in place.
    // Left out of line, the benchmark's `eval_rob` spent about a tenth more
    // CPU per translation (8 alternated pairs on a 2-vCPU host).
    #[inline(always)]
    fn debug_with(&self, schema_text: &str, dvq: &str, db: &Database) -> Option<String> {
        let annotations = self.annotations.annotation_for(db, &self.model);
        let answer = self.model.complete(
            &prompts::debug_prompt(schema_text, &annotations, dvq),
            &ChatParams::working(),
        );
        extract_dvq(&answer)
    }

    /// Table 4's four rows for one question, in the table's order: GRED,
    /// `w/o RTN&DBG`, `w/o RTN`, `w/o DBG`. Completions are pure functions
    /// of the prompt, so one full translation holds three of them, and
    /// `w/o RTN` (the debugger applied to `dvq_gen`) is the pass's own
    /// debugger output unless the retuner changed the DVQ; only then does
    /// it cost one more debugger call.
    pub fn translate_ablations(&self, nlq: &str, db: &Database) -> [Option<String>; 4] {
        let out = self.translate(nlq, db);
        let Some(gen) = out.dvq_gen.as_deref() else {
            return Default::default();
        };
        let no_rtn = match out.dvq_rtn.as_deref() {
            Some(rtn) if rtn != gen => self.debug(gen, db),
            _ => out.dvq_dbg.clone(),
        };
        let or_gen = |dvq: Option<String>| dvq.or_else(|| Some(gen.to_string()));
        [
            out.final_dvq().map(str::to_string),
            Some(gen.to_string()),
            or_gen(no_rtn),
            or_gen(out.dvq_rtn.clone()),
        ]
    }

    /// Convenience: translate and return only the final DVQ text.
    pub fn translate_final(&self, nlq: &str, db: &Database) -> Option<String> {
        self.translate(nlq, db).final_dvq().map(str::to_string)
    }
}

/// The backend name GRED reports.
const NAME: &str = "GRED";

/// The paper's contribution as a [`Translator`] backend: staged responses
/// report generator/retuner/debugger outputs with per-stage timings, and
/// streaming delivers each stage as the pipeline produces it.
impl<M: ChatModel + Send + Sync> Translator for Gred<M> {
    fn info(&self) -> BackendInfo {
        BackendInfo {
            name: NAME.to_string(),
            kind: BackendKind::RetrievalAugmentedLlm,
            stages: vec!["generator", "retuner", "debugger"],
            deterministic: true,
            description: format!(
                "retrieval-augmented LLM pipeline (k={}) over a {}-example embedding library",
                self.config.k,
                self.library.len()
            ),
        }
    }

    fn translate(&self, req: &TranslateRequest<'_>) -> Result<TranslateResponse, TranslateError> {
        self.translate_streamed(req, &mut ())
    }

    fn translate_streamed(
        &self,
        req: &TranslateRequest<'_>,
        sink: &mut dyn StageSink,
    ) -> Result<TranslateResponse, TranslateError> {
        req.validate()?;
        let mut collect = Collect {
            observer: sink,
            stages: Vec::new(),
        };
        let out = self.translate_observed(
            req.nlq,
            req.db,
            &DirectRetriever(&self.library),
            &mut collect,
        );
        let stages = collect.stages;
        match out.final_dvq() {
            Some(dvq) => Ok(TranslateResponse {
                backend: NAME.to_string(),
                dvq: dvq.to_string(),
                stages,
            }),
            None => Err(TranslateError::NoOutput {
                backend: NAME.to_string(),
                stages,
            }),
        }
    }
}

/// Passes everything on to the caller's observer and keeps each stage for
/// the response.
struct Collect<'a> {
    observer: &'a mut dyn StageSink,
    stages: Vec<StageRecord>,
}

impl StageSink for Collect<'_> {
    fn stage(&mut self, stage: &StageRecord) {
        self.observer.stage(stage);
        self.stages.push(stage.clone());
    }

    fn begin(&mut self, step: Step) {
        self.observer.begin(step);
    }

    fn end(&mut self, step: Step) {
        self.observer.end(step);
    }
}

/// Build the default GRED over a corpus with the simulated LLM.
pub fn default_gred(corpus: &Corpus, config: GredConfig) -> Gred<t2v_llm::SimulatedChatModel> {
    let embedder = TextEmbedder::default_model();
    let model = t2v_llm::SimulatedChatModel::new(t2v_llm::LlmConfig::default());
    Gred::prepare(corpus, embedder, model, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2v_corpus::{generate, CorpusConfig};

    fn fixture() -> (Corpus, Gred<t2v_llm::SimulatedChatModel>) {
        let corpus = generate(&CorpusConfig::tiny(7));
        let gred = default_gred(&corpus, GredConfig::default());
        (corpus, gred)
    }

    #[test]
    fn translate_produces_parseable_stages() {
        let (corpus, gred) = fixture();
        let ex = &corpus.dev[0];
        let out = gred.translate(&ex.nlq, &corpus.databases[ex.db]);
        let final_dvq = out.final_dvq().expect("pipeline must produce a DVQ");
        t2v_dvq::parse(final_dvq).unwrap();
        assert!(out.dvq_gen.is_some());
        assert!(out.dvq_rtn.is_some());
        assert!(out.dvq_dbg.is_some());
    }

    #[test]
    fn explicit_questions_on_original_schema_mostly_roundtrip() {
        let (corpus, gred) = fixture();
        let mut exact = 0;
        let total = 30usize;
        for ex in corpus.dev.iter().take(total) {
            if let Some(out) = gred.translate_final(&ex.nlq, &corpus.databases[ex.db]) {
                if let Ok(q) = t2v_dvq::parse(&out) {
                    let m = t2v_dvq::components::ComponentMatch::grade(&q, &ex.dvq);
                    if m.overall {
                        exact += 1;
                    }
                }
            }
        }
        assert!(
            exact * 2 >= total,
            "GRED should solve most unperturbed explicit questions, got {exact}/{total}"
        );
    }

    #[test]
    fn gred_handles_are_send_sync_and_cheap_to_clone() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Gred<t2v_llm::SimulatedChatModel>>();
        assert_send_sync::<EmbeddingLibrary>();

        let (corpus, gred) = fixture();
        let copy = gred.clone();
        // Clones share one library allocation, not a rebuilt copy.
        assert!(Arc::ptr_eq(&gred.library, &copy.library));
        assert!(Arc::ptr_eq(&gred.annotations, &copy.annotations));
        // And clones translate identically across threads.
        let ex = &corpus.dev[0];
        let db = &corpus.databases[ex.db];
        let want = gred.translate(&ex.nlq, db);
        let got = std::thread::scope(|s| s.spawn(|| copy.translate(&ex.nlq, db)).join().unwrap());
        assert_eq!(want, got);
    }

    #[test]
    fn translate_with_custom_retriever_matches_direct() {
        use std::cell::Cell;
        struct Counting<'a> {
            inner: DirectRetriever<'a>,
            nlq_calls: Cell<usize>,
            dvq_calls: Cell<usize>,
        }
        impl Retrieve for Counting<'_> {
            fn retrieve_nlq(&self, q: &[f32], k: usize) -> Vec<Hit> {
                self.nlq_calls.set(self.nlq_calls.get() + 1);
                self.inner.retrieve_nlq(q, k)
            }
            fn retrieve_dvq(&self, q: &[f32], k: usize) -> Vec<Hit> {
                self.dvq_calls.set(self.dvq_calls.get() + 1);
                self.inner.retrieve_dvq(q, k)
            }
        }
        /// Records the steps and stages it is shown, checking that every
        /// `begin` is closed by the matching `end` before anything else.
        #[derive(Default)]
        struct Recording {
            steps: Vec<Step>,
            open: Option<Step>,
            stages: Vec<StageRecord>,
        }
        impl StageSink for Recording {
            fn stage(&mut self, stage: &StageRecord) {
                assert_eq!(self.open, None, "a stage completed inside a step");
                self.stages.push(stage.clone());
            }
            fn begin(&mut self, step: Step) {
                assert_eq!(self.open.replace(step), None, "steps nest");
                self.steps.push(step);
            }
            fn end(&mut self, step: Step) {
                assert_eq!(self.open.take(), Some(step), "unpaired end");
            }
        }

        let (corpus, gred) = fixture();
        let four = [Step::Embed, Step::Retrieve, Step::Embed, Step::Retrieve];
        for ex in &corpus.dev[..8] {
            let db = &corpus.databases[ex.db];
            let counting = Counting {
                inner: DirectRetriever(gred.library()),
                nlq_calls: Cell::new(0),
                dvq_calls: Cell::new(0),
            };
            let mut observer = Recording::default();
            let via_seam = gred.translate_observed(&ex.nlq, db, &counting, &mut observer);
            assert_eq!(via_seam, gred.translate(&ex.nlq, db));
            assert_eq!((counting.nlq_calls.get(), counting.dvq_calls.get()), (1, 1));
            assert_eq!(observer.open, None, "a step was left open");
            assert_eq!(observer.steps, four);

            let req = TranslateRequest::new(&ex.nlq, db);
            let mut streamed: Vec<StageRecord> = Vec::new();
            gred.translate_streamed(&req, &mut |s: &StageRecord| streamed.push(s.clone()))
                .unwrap();
            assert_eq!(observer.stages.len(), streamed.len());
            assert!(observer
                .stages
                .iter()
                .zip(&streamed)
                .all(|(a, b)| a.same_output(b)));
        }
    }

    #[test]
    fn translator_api_is_byte_identical_to_legacy_pipeline() {
        let (corpus, gred) = fixture();
        for ex in corpus.dev.iter().take(8) {
            let db = &corpus.databases[ex.db];
            let legacy = gred.translate(&ex.nlq, db);
            let req = TranslateRequest::new(&ex.nlq, db);
            let resp = Translator::translate(&gred, &req).expect("GRED output");
            // The final DVQ and every stage output mirror GredOutput exactly.
            assert_eq!(Some(resp.dvq.as_str()), legacy.final_dvq());
            let stage = |name: &str| {
                resp.stages
                    .iter()
                    .find(|s| s.name == name)
                    .and_then(|s| s.dvq.clone())
            };
            assert_eq!(stage("generator"), legacy.dvq_gen);
            assert_eq!(stage("retuner"), legacy.dvq_rtn);
            assert_eq!(stage("debugger"), legacy.dvq_dbg);
            assert_eq!(resp.stages.len(), 3);

            // Streaming delivers exactly those stages, in pipeline order.
            let mut streamed: Vec<StageRecord> = Vec::new();
            let via_stream = gred
                .translate_streamed(&req, &mut |s: &StageRecord| streamed.push(s.clone()))
                .unwrap();
            assert!(via_stream.same_output(&resp));
            assert_eq!(streamed.len(), 3);
            assert!(streamed
                .iter()
                .zip(&via_stream.stages)
                .all(|(a, b)| a.same_output(b)));
        }
    }

    #[test]
    fn translation_is_deterministic() {
        let (corpus, gred) = fixture();
        let ex = &corpus.dev[2];
        let a = gred.translate(&ex.nlq, &corpus.databases[ex.db]);
        let b = gred.translate(&ex.nlq, &corpus.databases[ex.db]);
        assert_eq!(a, b);
    }
}
