//! Evaluation harness: run any text-to-vis model over an nvBench-Rob test
//! set and compute the paper's metrics.

use crate::metrics::{Accuracies, Tally};
use std::fmt;
use t2v_core::Translator;
use t2v_corpus::Corpus;
use t2v_perturb::{NvBenchRob, RobExample, RobVariant};

/// Per-example record kept for case studies and error analysis.
#[derive(Debug, Clone)]
pub struct PredictionRecord {
    pub base: usize,
    pub nlq: String,
    pub predicted: Option<String>,
    pub target: String,
    pub overall_match: bool,
}

/// Result of one (model, test set) evaluation.
#[derive(Debug, Clone)]
pub struct EvalRun {
    pub model: String,
    pub variant: RobVariant,
    pub accuracies: Accuracies,
    /// The integer counts `accuracies` divides by `n`.
    pub tally: Tally,
    pub records: Vec<PredictionRecord>,
}

/// Recoverable evaluation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A cached prediction file did not line up with the test set (e.g. a
    /// truncated run left fewer rows than targets).
    LengthMismatch { predictions: usize, targets: usize },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::LengthMismatch {
                predictions,
                targets,
            } => write!(
                f,
                "prediction/target length mismatch: {predictions} predictions vs {targets} targets"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// Grade one prediction against its gold example.
fn grade(predicted: Option<String>, ex: &RobExample) -> (Option<t2v_dvq::Dvq>, PredictionRecord) {
    let parsed = predicted.as_deref().and_then(|t| t2v_dvq::parse(t).ok());
    let overall = parsed
        .as_ref()
        .map(|p| t2v_dvq::components::ComponentMatch::grade(p, &ex.target).overall)
        .unwrap_or(false);
    let record = PredictionRecord {
        base: ex.base,
        nlq: ex.nlq.clone(),
        predicted,
        target: ex.target_text.clone(),
        overall_match: overall,
    };
    (parsed, record)
}

/// Fold graded examples into an [`EvalRun`] (input order preserved).
fn collect_run(
    model: String,
    variant: RobVariant,
    graded: Vec<(Option<t2v_dvq::Dvq>, PredictionRecord)>,
    set: &[RobExample],
) -> EvalRun {
    let mut tally = Tally::default();
    let mut records = Vec::with_capacity(graded.len());
    for ((parsed, record), ex) in graded.into_iter().zip(set) {
        tally.add(parsed.as_ref(), &ex.target);
        records.push(record);
    }
    EvalRun {
        model,
        variant,
        accuracies: tally.accuracies(),
        tally,
        records,
    }
}

/// Evaluate a backend on one variant's test set.
///
/// Any [`Translator`] works — `Gred`, a baseline, or an ad-hoc
/// [`t2v_core::FnBackend`]; predictions are the final DVQ of a successful
/// translation (`None` on any [`t2v_core::TranslateError`]).
pub fn evaluate_set(
    model: &dyn Translator,
    corpus: &Corpus,
    rob: &NvBenchRob,
    variant: RobVariant,
    limit: Option<usize>,
) -> EvalRun {
    let set = rob.set(variant);
    let n = limit.unwrap_or(set.len()).min(set.len());
    let graded = set[..n]
        .iter()
        .map(|ex| grade(model.predict(&ex.nlq, rob.database(corpus, ex)), ex))
        .collect();
    collect_run(model.info().name, variant, graded, &set[..n])
}

/// [`evaluate_set`] with predictions fanned across threads.
///
/// Records and tallies are produced in test-set order regardless of thread
/// scheduling, so the result is identical to the sequential harness for any
/// deterministic model. ([`Translator`] is `Send + Sync` by contract, so
/// any backend fans out.)
pub fn evaluate_set_parallel(
    model: &dyn Translator,
    corpus: &Corpus,
    rob: &NvBenchRob,
    variant: RobVariant,
    limit: Option<usize>,
) -> EvalRun {
    let set = rob.set(variant);
    let n = limit.unwrap_or(set.len()).min(set.len());
    let graded = t2v_parallel::par_map(&set[..n], |ex| {
        grade(model.predict(&ex.nlq, rob.database(corpus, ex)), ex)
    });
    collect_run(model.info().name, variant, graded, &set[..n])
}

/// Evaluate a model from pre-computed predictions (used when predictions are
/// cached on disk between runs).
///
/// Returns [`EvalError::LengthMismatch`] instead of panicking when a cached
/// prediction file has been truncated or padded relative to the test set.
pub fn evaluate_predictions(
    model_name: &str,
    variant: RobVariant,
    predictions: &[Option<String>],
    set: &[RobExample],
) -> Result<EvalRun, EvalError> {
    if predictions.len() != set.len() {
        return Err(EvalError::LengthMismatch {
            predictions: predictions.len(),
            targets: set.len(),
        });
    }
    let graded = predictions
        .iter()
        .zip(set)
        .map(|(p, ex)| grade(p.clone(), ex))
        .collect();
    Ok(collect_run(model_name.to_string(), variant, graded, set))
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2v_core::FnBackend;
    use t2v_corpus::{generate, CorpusConfig, Database};
    use t2v_perturb::build_rob;

    /// An oracle that always answers with the gold DVQ.
    fn oracle(rob: &NvBenchRob, variant: RobVariant) -> impl Translator + '_ {
        FnBackend::new("oracle", move |nlq: &str, _db: &Database| {
            rob.set(variant)
                .iter()
                .find(|e| e.nlq == nlq)
                .map(|e| e.target_text.clone())
        })
    }

    /// A model that always fails.
    fn mute() -> impl Translator {
        FnBackend::new("mute", |_: &str, _: &Database| None)
    }

    #[test]
    fn oracle_scores_hundred_percent() {
        let corpus = generate(&CorpusConfig::tiny(7));
        let rob = build_rob(&corpus, 1);
        let oracle = oracle(&rob, RobVariant::Both);
        let run = evaluate_set(&oracle, &corpus, &rob, RobVariant::Both, Some(25));
        assert_eq!(run.accuracies.overall, 1.0);
        assert_eq!(run.accuracies.n, 25);
    }

    #[test]
    fn mute_scores_zero() {
        let corpus = generate(&CorpusConfig::tiny(7));
        let rob = build_rob(&corpus, 1);
        let run = evaluate_set(&mute(), &corpus, &rob, RobVariant::Nlq, Some(10));
        assert_eq!(run.accuracies.overall, 0.0);
        assert_eq!(run.records.len(), 10);
        assert!(run.records.iter().all(|r| !r.overall_match));
    }

    #[test]
    fn cached_predictions_match_live_run() {
        let corpus = generate(&CorpusConfig::tiny(7));
        let rob = build_rob(&corpus, 1);
        let set = &rob.set(RobVariant::Schema)[..10];
        let preds: Vec<Option<String>> = set.iter().map(|e| Some(e.target_text.clone())).collect();
        let run = evaluate_predictions("cached", RobVariant::Schema, &preds, set).unwrap();
        assert_eq!(run.accuracies.overall, 1.0);
    }

    #[test]
    fn truncated_prediction_file_fails_gracefully() {
        let corpus = generate(&CorpusConfig::tiny(7));
        let rob = build_rob(&corpus, 1);
        let set = &rob.set(RobVariant::Schema)[..10];
        let preds: Vec<Option<String>> = set
            .iter()
            .take(6)
            .map(|e| Some(e.target_text.clone()))
            .collect();
        let err = evaluate_predictions("cached", RobVariant::Schema, &preds, set).unwrap_err();
        assert_eq!(
            err,
            EvalError::LengthMismatch {
                predictions: 6,
                targets: 10
            }
        );
        assert!(err.to_string().contains("length mismatch"));
    }

    #[test]
    fn parallel_evaluation_matches_sequential() {
        let corpus = generate(&CorpusConfig::tiny(7));
        let rob = build_rob(&corpus, 1);
        let oracle = oracle(&rob, RobVariant::Nlq);
        let seq = evaluate_set(&oracle, &corpus, &rob, RobVariant::Nlq, Some(30));
        let par = evaluate_set_parallel(&oracle, &corpus, &rob, RobVariant::Nlq, Some(30));
        assert_eq!(seq.accuracies, par.accuracies);
        assert_eq!(seq.records.len(), par.records.len());
        for (a, b) in seq.records.iter().zip(&par.records) {
            assert_eq!(a.base, b.base);
            assert_eq!(a.predicted, b.predicted);
            assert_eq!(a.overall_match, b.overall_match);
        }
    }
}
