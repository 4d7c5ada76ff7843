//! The translator backend API: one typed interface every text-to-vis system
//! in the workspace implements.
//!
//! A backend takes a [`TranslateRequest`] (NLQ + database) and produces a
//! staged [`TranslateResponse`]: one [`StageRecord`] per pipeline stage it
//! ran (GRED reports generator/retuner/debugger; single-shot models report
//! one `model` stage), plus the final DVQ. Failures are a structured
//! [`TranslateError`] with a stable machine-readable `code()` — the same
//! taxonomy the serving layer puts on the wire.
//!
//! The trait is object-safe: the eval harness, the bench binaries, and
//! `t2v-serve` all consume `&dyn Translator` (usually out of a
//! [`crate::BackendRegistry`]), so adding a backend is one `impl` plus one
//! `register` call.

use std::fmt;
use t2v_corpus::Database;

/// One translation request. Borrowed: backends never need ownership, and the
/// serving layer resolves the database id to a `&Database` before dispatch.
#[derive(Debug, Clone, Copy)]
pub struct TranslateRequest<'a> {
    pub nlq: &'a str,
    pub db: &'a Database,
}

impl<'a> TranslateRequest<'a> {
    pub fn new(nlq: &'a str, db: &'a Database) -> Self {
        TranslateRequest { nlq, db }
    }

    /// Shared input validation every backend applies before doing work.
    pub fn validate(&self) -> Result<(), TranslateError> {
        if self.nlq.trim().is_empty() {
            return Err(TranslateError::EmptyQuery);
        }
        Ok(())
    }
}

/// One pipeline stage's output.
///
/// `micros` is wall-clock observability data, not part of the translation
/// result: comparisons of translation *outputs* (byte-stability, cache
/// identity, conformance) must ignore it — see [`StageRecord::same_output`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageRecord {
    /// Stable stage name (`"generator"`, `"retuner"`, `"debugger"`,
    /// `"model"`, ...). Must appear in the backend's
    /// [`BackendInfo::stages`].
    pub name: &'static str,
    /// The DVQ this stage produced, if any (a stage may decline).
    pub dvq: Option<String>,
    /// Wall-clock duration of the stage, in microseconds.
    pub micros: u64,
}

impl StageRecord {
    pub fn new(name: &'static str, dvq: Option<String>, micros: u64) -> Self {
        StageRecord { name, dvq, micros }
    }

    /// Equality over the translation output (name + DVQ), ignoring timing.
    pub fn same_output(&self, other: &StageRecord) -> bool {
        self.name == other.name && self.dvq == other.dvq
    }
}

/// A successful translation: every stage that ran, plus the final DVQ
/// (guaranteed present — "no stage produced a DVQ" is
/// [`TranslateError::NoOutput`], not a success).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TranslateResponse {
    /// The backend's display name (from [`BackendInfo::name`]).
    pub backend: String,
    /// Stage outputs in execution order; never empty.
    pub stages: Vec<StageRecord>,
    /// The final DVQ text — by convention the last stage that produced one.
    pub dvq: String,
}

impl TranslateResponse {
    /// Total time across stages, in microseconds.
    pub fn total_micros(&self) -> u64 {
        self.stages.iter().map(|s| s.micros).sum()
    }

    /// Equality over translation output, ignoring stage timings.
    pub fn same_output(&self, other: &TranslateResponse) -> bool {
        self.backend == other.backend
            && self.dvq == other.dvq
            && self.stages.len() == other.stages.len()
            && self
                .stages
                .iter()
                .zip(&other.stages)
                .all(|(a, b)| a.same_output(b))
    }
}

/// Why a translation failed. Each variant has a stable wire code — the
/// serving layer serialises errors as `{"error": {"code", "message"}}` with
/// exactly these codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslateError {
    /// The NLQ was empty or whitespace-only.
    EmptyQuery,
    /// The backend ran but no stage produced a DVQ. Carries whatever stages
    /// did run, for diagnostics.
    NoOutput {
        backend: String,
        stages: Vec<StageRecord>,
    },
    /// The backend produced text that is not a parseable DVQ (trained
    /// baselines can decode garbage; validating backends surface it here
    /// instead of serving it). Carries the stages that ran, like
    /// [`TranslateError::NoOutput`].
    InvalidOutput {
        backend: String,
        text: String,
        reason: String,
        stages: Vec<StageRecord>,
    },
    /// An unexpected internal failure (a bug, not a property of the input).
    Internal { message: String },
}

impl TranslateError {
    /// Stable machine-readable code, used verbatim on the wire.
    pub fn code(&self) -> &'static str {
        match self {
            TranslateError::EmptyQuery => "empty_query",
            TranslateError::NoOutput { .. } => "no_output",
            TranslateError::InvalidOutput { .. } => "invalid_output",
            TranslateError::Internal { .. } => "internal",
        }
    }
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::EmptyQuery => write!(f, "the query is empty"),
            TranslateError::NoOutput { backend, .. } => {
                write!(f, "{backend} produced no DVQ")
            }
            TranslateError::InvalidOutput {
                backend, reason, ..
            } => write!(f, "{backend} produced an unparseable DVQ: {reason}"),
            TranslateError::Internal { message } => write!(f, "internal error: {message}"),
        }
    }
}

impl std::error::Error for TranslateError {}

/// What family of system a backend is — capability metadata for
/// `GET /v1/backends` and the bench labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Retrieval-augmented LLM pipeline (GRED).
    RetrievalAugmentedLlm,
    /// Trained attention seq2seq (with or without a copy head).
    Seq2Seq,
    /// Trained encoder–decoder transformer.
    Transformer,
    /// Prototype retrieval + revision (RGVisNet).
    RetrievalRevision,
    /// Anything else (test doubles, oracles).
    Other,
}

impl BackendKind {
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::RetrievalAugmentedLlm => "retrieval_augmented_llm",
            BackendKind::Seq2Seq => "seq2seq",
            BackendKind::Transformer => "transformer",
            BackendKind::RetrievalRevision => "retrieval_revision",
            BackendKind::Other => "other",
        }
    }
}

/// Static capability metadata a backend publishes about itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendInfo {
    /// Display name, e.g. `"GRED"` or `"Seq2Vis"`. Also used as the
    /// `model` label in evaluation reports.
    pub name: String,
    pub kind: BackendKind,
    /// Every stage name this backend may emit, in pipeline order.
    pub stages: Vec<&'static str>,
    /// Same request ⇒ same response (output-wise)? All workspace backends
    /// are deterministic; a live-LLM backend would not be.
    pub deterministic: bool,
    pub description: String,
}

/// One unit of work inside a stage that an observer can bracket with
/// [`StageSink::begin`] / [`StageSink::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Embedding one text (a question, a generated DVQ) for retrieval.
    Embed,
    /// One top-k lookup over a retrieval index.
    Retrieve,
}

/// The caller-owned observer of one translation. `stage` receives each
/// stage's output as it completes (`t2v-serve` streams them as NDJSON);
/// `begin` / `end` bracket each [`Step`] a pipeline takes (`t2v-serve`
/// opens its spans and polls its latency fault points there). The model
/// crates hold no trace or fault state of their own: what a translation
/// exposes goes through this hook. Closures work, observing stages only:
/// `&mut |s: &StageRecord| ...`.
pub trait StageSink {
    fn stage(&mut self, stage: &StageRecord);

    /// `step` is about to run. Steps never nest.
    fn begin(&mut self, _step: Step) {}

    /// `step` has finished.
    fn end(&mut self, _step: Step) {}
}

impl<F: FnMut(&StageRecord)> StageSink for F {
    fn stage(&mut self, stage: &StageRecord) {
        self(stage)
    }
}

/// The observer that observes nothing: pass `&mut ()`.
impl StageSink for () {
    fn stage(&mut self, _stage: &StageRecord) {}
}

/// A text-to-vis translation backend.
///
/// Object-safe and `Send + Sync`: registries hand out `Arc<dyn Translator>`
/// and serving pools call the same instance from many threads.
pub trait Translator: Send + Sync {
    /// Capability metadata (name, kind, stages).
    fn info(&self) -> BackendInfo;

    /// Translate one request, reporting every stage.
    fn translate(&self, req: &TranslateRequest<'_>) -> Result<TranslateResponse, TranslateError>;

    /// [`Translator::translate`], delivering each stage to `sink` as soon as
    /// it completes. The default emits all stages after the fact; staged
    /// pipelines (GRED, RGVisNet) override it to stream genuinely
    /// incrementally and to bracket their [`Step`]s. Implementations must
    /// emit exactly the stages of the returned response, in order.
    fn translate_streamed(
        &self,
        req: &TranslateRequest<'_>,
        sink: &mut dyn StageSink,
    ) -> Result<TranslateResponse, TranslateError> {
        let resp = self.translate(req)?;
        for stage in &resp.stages {
            sink.stage(stage);
        }
        Ok(resp)
    }

    /// Convenience for callers that only want the final DVQ text (`None` on
    /// any error) — the shape the evaluation harness grades.
    fn predict(&self, nlq: &str, db: &Database) -> Option<String> {
        self.translate(&TranslateRequest::new(nlq, db))
            .ok()
            .map(|r| r.dvq)
    }
}

/// Build a single-stage [`TranslateResponse`] (or [`TranslateError::NoOutput`])
/// from a `predict`-shaped result — the adapter every one-shot backend uses.
pub fn single_stage_response(
    backend: &str,
    stage: &'static str,
    dvq: Option<String>,
    micros: u64,
) -> Result<TranslateResponse, TranslateError> {
    match dvq {
        Some(dvq) => Ok(TranslateResponse {
            backend: backend.to_string(),
            stages: vec![StageRecord::new(stage, Some(dvq.clone()), micros)],
            dvq,
        }),
        None => Err(TranslateError::NoOutput {
            backend: backend.to_string(),
            stages: vec![StageRecord::new(stage, None, micros)],
        }),
    }
}

/// [`single_stage_response`] plus output validation: text that does not
/// parse as a DVQ becomes [`TranslateError::InvalidOutput`] — the adapter
/// for trained backends whose decoder can emit garbage.
pub fn validated_single_stage_response(
    backend: &str,
    stage: &'static str,
    dvq: Option<String>,
    micros: u64,
) -> Result<TranslateResponse, TranslateError> {
    match dvq {
        Some(text) => match t2v_dvq::parse(&text) {
            Ok(_) => single_stage_response(backend, stage, Some(text), micros),
            Err(e) => Err(TranslateError::InvalidOutput {
                backend: backend.to_string(),
                reason: e.to_string(),
                stages: vec![StageRecord::new(stage, Some(text.clone()), micros)],
                text,
            }),
        },
        None => single_stage_response(backend, stage, None, micros),
    }
}

/// A [`Translator`] wrapped around a plain `Fn(&str, &Database) ->
/// Option<String>` — for tests, oracles, and quick experiments.
pub struct FnBackend<F> {
    name: String,
    kind: BackendKind,
    f: F,
}

impl<F> FnBackend<F>
where
    F: Fn(&str, &Database) -> Option<String> + Send + Sync,
{
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnBackend {
            name: name.into(),
            kind: BackendKind::Other,
            f,
        }
    }
}

impl<F> Translator for FnBackend<F>
where
    F: Fn(&str, &Database) -> Option<String> + Send + Sync,
{
    fn info(&self) -> BackendInfo {
        BackendInfo {
            name: self.name.clone(),
            kind: self.kind,
            stages: vec!["model"],
            deterministic: true,
            description: format!("function-backed test translator '{}'", self.name),
        }
    }

    fn translate(&self, req: &TranslateRequest<'_>) -> Result<TranslateResponse, TranslateError> {
        req.validate()?;
        let t0 = std::time::Instant::now();
        let dvq = (self.f)(req.nlq, req.db);
        single_stage_response(&self.name, "model", dvq, t0.elapsed().as_micros() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2v_corpus::{generate, CorpusConfig};

    fn corpus() -> t2v_corpus::Corpus {
        generate(&CorpusConfig::tiny(7))
    }

    #[test]
    fn fn_backend_round_trips_and_validates() {
        let corpus = corpus();
        let db = &corpus.databases[0];
        let echo = FnBackend::new("echo", |nlq: &str, _db: &Database| Some(nlq.to_string()));
        let resp = echo
            .translate(&TranslateRequest::new("show wages", db))
            .unwrap();
        assert_eq!(resp.dvq, "show wages");
        assert_eq!(resp.stages.len(), 1);
        assert_eq!(resp.stages[0].name, "model");
        assert_eq!(echo.predict("show wages", db), Some("show wages".into()));

        let err = echo
            .translate(&TranslateRequest::new("   ", db))
            .unwrap_err();
        assert_eq!(err, TranslateError::EmptyQuery);
        assert_eq!(err.code(), "empty_query");
        assert_eq!(echo.predict("   ", db), None);
    }

    #[test]
    fn mute_backend_reports_no_output_with_stages() {
        let corpus = corpus();
        let db = &corpus.databases[0];
        let mute = FnBackend::new("mute", |_: &str, _: &Database| None);
        let err = mute
            .translate(&TranslateRequest::new("anything", db))
            .unwrap_err();
        match &err {
            TranslateError::NoOutput { backend, stages } => {
                assert_eq!(backend, "mute");
                assert_eq!(stages.len(), 1);
                assert_eq!(stages[0].dvq, None);
            }
            other => panic!("expected NoOutput, got {other:?}"),
        }
        assert_eq!(err.code(), "no_output");
        assert!(err.to_string().contains("mute"));
    }

    #[test]
    fn default_streaming_emits_exactly_the_response_stages() {
        let corpus = corpus();
        let db = &corpus.databases[0];
        let echo = FnBackend::new("echo", |nlq: &str, _: &Database| Some(nlq.to_string()));
        let mut seen: Vec<StageRecord> = Vec::new();
        let resp = echo
            .translate_streamed(
                &TranslateRequest::new("show wages", db),
                &mut |s: &StageRecord| seen.push(s.clone()),
            )
            .unwrap();
        assert_eq!(seen.len(), resp.stages.len());
        assert!(seen.iter().zip(&resp.stages).all(|(a, b)| a.same_output(b)));
    }

    #[test]
    fn same_output_ignores_timings() {
        let a = TranslateResponse {
            backend: "x".into(),
            stages: vec![StageRecord::new("model", Some("V".into()), 10)],
            dvq: "V".into(),
        };
        let mut b = a.clone();
        b.stages[0].micros = 99;
        assert_ne!(a, b);
        assert!(a.same_output(&b));
    }

    #[test]
    fn error_codes_are_stable() {
        assert_eq!(TranslateError::EmptyQuery.code(), "empty_query");
        assert_eq!(
            TranslateError::Internal {
                message: "boom".into()
            }
            .code(),
            "internal"
        );
        assert_eq!(
            TranslateError::NoOutput {
                backend: "b".into(),
                stages: Vec::new()
            }
            .code(),
            "no_output"
        );
        assert_eq!(
            BackendKind::RetrievalAugmentedLlm.label(),
            "retrieval_augmented_llm"
        );
    }
}
