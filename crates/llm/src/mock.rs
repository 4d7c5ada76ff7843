//! The simulated chat model: dispatches incoming prompts to the annotate /
//! generate / retune / debug behaviours.
//!
//! Determinism: `temperature=0.0` in the paper; here every stochastic
//! decision is seeded from `config.seed` hashed with the prompt content, so
//! identical calls return identical completions across runs.
//!
//! Completions are pure functions of `(messages, params)`. The model keeps
//! one [`ContextMemo`] of what it derives from prompt context — embeddings
//! of example questions, schema names and annotation descriptors, and the
//! style evidence of reference DVQs — but a memoised value has the bits a
//! fresh derivation would, so no answer depends on which prompts came
//! before (`tests/golden_translate.rs` checks this in both call orders).

use crate::annotate::annotate_schema;
use crate::api::{ChatMessage, ChatModel, ChatParams};
use crate::debug::debug_dvq;
use crate::generate::{generate_dvq, GenContext};
use crate::memo::ContextMemo;
use crate::parse;
use crate::patterns::PatternKnowledge;
use crate::retune::retune_dvq;
use std::sync::Arc;
use t2v_corpus::Lexicon;
use t2v_embed::{EmbedConfig, TextEmbedder};

/// Competence knobs of the simulated LLM. Defaults are calibrated so the
/// experiment suite reproduces the shape of the paper's Tables 1-4.
#[derive(Debug, Clone)]
pub struct LlmConfig {
    pub seed: u64,
    /// Internal semantic space (synonym knowledge) of the model.
    pub embed: EmbedConfig,
    /// Linking score below which the model copies the prompt's column name.
    pub link_threshold: f32,
    /// Probability of copying an explicitly mentioned column token verbatim
    /// instead of semantically linking it (the paper's lexical-matching
    /// overreliance, §3).
    pub copy_bias: f64,
    /// Attention advantage of late prompt positions (why ascending-similarity
    /// example order helps, §4.2).
    pub recency_bias: f32,
    /// Fraction of paraphrase phrasings the model understands.
    pub paraphrase_coverage: f64,
    /// Probability the Retuner actually applies the style instruction.
    pub retune_fidelity: f64,
    /// Probability the Debugger "fixes" an already-correct column.
    pub debugger_overcorrect: f64,
    /// Probability a column annotation omits its canonical-synonym anchor.
    pub annotation_noise: f64,
}

impl Default for LlmConfig {
    fn default() -> Self {
        LlmConfig {
            seed: 0x6bed,
            embed: EmbedConfig {
                lexicon_coverage: 0.88,
                seed: 0x6bed ^ 0xe,
                ..EmbedConfig::default()
            },
            link_threshold: 0.30,
            copy_bias: 0.32,
            recency_bias: 0.35,
            paraphrase_coverage: 0.90,
            retune_fidelity: 0.95,
            debugger_overcorrect: 0.04,
            annotation_noise: 0.08,
        }
    }
}

/// The simulated GPT-3.5-Turbo. `Clone` is cheap enough to hand one copy to
/// each worker thread of a serving pool; completions are pure functions of
/// `(messages, params)` so clones are interchangeable. Clones share one
/// context memo, which only this model's embedder fills and reads.
#[derive(Debug, Clone)]
pub struct SimulatedChatModel {
    config: LlmConfig,
    embedder: TextEmbedder,
    knowledge: PatternKnowledge,
    memo: Arc<ContextMemo>,
}

impl SimulatedChatModel {
    pub fn new(config: LlmConfig) -> Self {
        SimulatedChatModel::with_memo(config, ContextMemo::new())
    }

    /// A model whose memo clears at `cap` entries.
    #[cfg(test)]
    pub(crate) fn with_memo_cap(config: LlmConfig, cap: usize) -> Self {
        SimulatedChatModel::with_memo(config, ContextMemo::with_cap(cap))
    }

    fn with_memo(config: LlmConfig, memo: ContextMemo) -> Self {
        let embedder = TextEmbedder::new(Lexicon::builtin(), config.embed.clone());
        let knowledge = PatternKnowledge::sample(config.seed, config.paraphrase_coverage);
        SimulatedChatModel {
            config,
            embedder,
            knowledge,
            memo: Arc::new(memo),
        }
    }

    pub fn config(&self) -> &LlmConfig {
        &self.config
    }

    pub fn embedder(&self) -> &TextEmbedder {
        &self.embedder
    }

    fn call_seed(&self, prompt: &str) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in prompt.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^ self.config.seed
    }
}

impl ChatModel for SimulatedChatModel {
    fn complete(&self, messages: &[ChatMessage], _params: &ChatParams) -> String {
        let prompt: String = messages
            .iter()
            .map(|m| m.content.as_str())
            .collect::<Vec<_>>()
            .join("\n");
        let seed = self.call_seed(&prompt);

        if prompt.contains("Given Natural Language Questions, Generate DVQs") {
            if let Some(parsed) = parse::parse_generation(&prompt) {
                let ctx = GenContext {
                    embedder: &self.embedder,
                    memo: Some(&self.memo),
                    knowledge: &self.knowledge,
                    link_threshold: self.config.link_threshold,
                    copy_bias: self.config.copy_bias,
                    recency_bias: self.config.recency_bias,
                    seed,
                };
                return generate_dvq(&parsed, &ctx);
            }
        }
        if prompt.contains("mimic the style") {
            if let Some((refs, original)) = parse::parse_retune(&prompt) {
                return retune_dvq(
                    &refs,
                    original,
                    self.config.retune_fidelity,
                    seed,
                    Some(&self.memo),
                );
            }
        }
        if prompt.contains("replace the column names in the Data Visualization Query") {
            if let Some((schema, annotations, original)) = parse::parse_debug(&prompt) {
                return debug_dvq(
                    &schema,
                    annotations,
                    original,
                    &self.embedder,
                    Some(&self.memo),
                    self.config.debugger_overcorrect,
                    seed,
                );
            }
        }
        if prompt.contains("generate detailed natural language annotations") {
            if let Some(schema) = parse::parse_annotation_request(&prompt) {
                return annotate_schema(
                    &schema,
                    &self.embedder,
                    self.config.annotation_noise,
                    seed,
                );
            }
        }
        String::new()
    }
}

/// Extract the DVQ text from any of the model's answer formats
/// (`A: ...`, `### Modified DVQ:\n# ...`, `### Revised DVQ:\n# ...`).
pub fn extract_dvq(answer: &str) -> Option<String> {
    for line in answer.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("A:") {
            let rest = rest.trim();
            if rest.starts_with("Visualize") {
                return Some(rest.to_string());
            }
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim();
            if rest.starts_with("Visualize") {
                return Some(rest.to_string());
            }
        }
        if line.starts_with("Visualize") {
            return Some(line.to_string());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompts;
    use t2v_corpus::{generate, Corpus, CorpusConfig};

    #[test]
    fn dispatches_all_four_prompt_kinds() {
        let corpus = generate(&CorpusConfig::tiny(7));
        let model = SimulatedChatModel::new(LlmConfig::default());
        let db = &corpus.databases[0];

        // Annotation.
        let ann = model.complete(&prompts::annotation_prompt(db), &ChatParams::annotation());
        assert!(ann.contains("Table "), "{ann}");

        // Generation.
        let ex = &corpus.train[0];
        let gen_ex = prompts::GenExample {
            db_id: corpus.databases[ex.db].id.clone().into(),
            schema_text: corpus.databases[ex.db].render_prompt_schema().into(),
            nlq: ex.nlq.clone().into(),
            dvq: ex.dvq_text.clone().into(),
        };
        let gen = model.complete(
            &prompts::generation_prompt(&[gen_ex], &db.render_prompt_schema(), &corpus.dev[0].nlq),
            &ChatParams::working(),
        );
        let dvq = extract_dvq(&gen).expect("generation must answer with a DVQ");
        t2v_dvq::parse(&dvq).unwrap();

        // Retune.
        let ret = model.complete(
            &prompts::retune_prompt(
                &[corpus.train[1].dvq_text.clone()],
                &corpus.train[2].dvq_text,
            ),
            &ChatParams::working(),
        );
        assert!(extract_dvq(&ret).is_some());

        // Debug.
        let dbg = model.complete(
            &prompts::debug_prompt(&db.render_prompt_schema(), &ann, &corpus.train[3].dvq_text),
            &ChatParams::working(),
        );
        assert!(extract_dvq(&dbg).is_some());
    }

    #[test]
    fn completions_are_deterministic() {
        let corpus = generate(&CorpusConfig::tiny(7));
        let model = SimulatedChatModel::new(LlmConfig::default());
        let msgs = prompts::annotation_prompt(&corpus.databases[2]);
        let a = model.complete(&msgs, &ChatParams::annotation());
        let b = model.complete(&msgs, &ChatParams::annotation());
        assert_eq!(a, b);
    }

    /// The three prompts of one GRED translation of `question` on `tiny(7)`
    /// database `db`, around a fixed context: the database's schema and
    /// annotations, ten training examples and their DVQs as references.
    /// The retuner and the debugger are handed `dvq`.
    fn translation_prompts(
        corpus: &Corpus,
        annotations: &str,
        db: usize,
        question: &str,
        dvq: &str,
    ) -> [Vec<ChatMessage>; 3] {
        let schema = corpus.databases[db].render_prompt_schema();
        let shots = &corpus.train[..10];
        let examples: Vec<prompts::GenExample> = shots
            .iter()
            .map(|e| prompts::GenExample {
                db_id: corpus.databases[e.db].id.as_str().into(),
                schema_text: corpus.databases[e.db].render_prompt_schema().into(),
                nlq: e.nlq.as_str().into(),
                dvq: e.dvq_text.as_str().into(),
            })
            .collect();
        let refs: Vec<&str> = shots.iter().map(|e| e.dvq_text.as_str()).collect();
        [
            prompts::generation_prompt(&examples, &schema, question),
            prompts::retune_prompt(&refs, dvq),
            prompts::debug_prompt(&schema, annotations, dvq),
        ]
    }

    fn answers(model: &SimulatedChatModel, prompts: &[Vec<ChatMessage>]) -> Vec<String> {
        prompts
            .iter()
            .map(|p| model.complete(p, &ChatParams::working()))
            .collect()
    }

    /// Every dev question on `tiny(7)`'s first three databases, as the
    /// prompts of its translation with its gold DVQ under repair.
    fn dev_prompts(corpus: &Corpus, model: &SimulatedChatModel) -> Vec<Vec<ChatMessage>> {
        let annotations: Vec<String> = corpus.databases[..3]
            .iter()
            .map(|db| model.complete(&prompts::annotation_prompt(db), &ChatParams::annotation()))
            .collect();
        corpus
            .dev
            .iter()
            .filter(|e| e.db < 3)
            .flat_map(|e| {
                translation_prompts(corpus, &annotations[e.db], e.db, &e.nlq, &e.dvq_text)
            })
            .collect()
    }

    #[test]
    fn memo_stops_growing_once_the_context_has_been_read() {
        let corpus = generate(&CorpusConfig::tiny(7));
        // Every retune reads its references.
        let model = SimulatedChatModel::new(LlmConfig {
            retune_fidelity: 1.0,
            ..LlmConfig::default()
        });
        let db = &corpus.databases[0];
        let annotations =
            model.complete(&prompts::annotation_prompt(db), &ChatParams::annotation());
        // The first call names a table ("from the ... records") and repairs
        // a stale column and a stale table: it reads every context text.
        let first = translation_prompts(
            &corpus,
            &annotations,
            0,
            &format!(
                "Show the number of rows from the {} records.",
                db.tables[0].name
            ),
            "Visualize BAR SELECT stale_col , COUNT(stale_col) FROM stale_table GROUP BY stale_col",
        );
        answers(&model, &first);
        let after_first = model.memo.len();

        let mut context: std::collections::HashSet<String> =
            corpus.train[..10].iter().map(|e| e.nlq.clone()).collect();
        let lookup = parse::parse_annotations(&annotations);
        for t in &db.tables {
            context.insert(t.name.clone());
            for c in &t.columns {
                context.insert(c.name.clone());
                if let Some((_, d)) = lookup.iter().find(|(n, _)| n.eq_ignore_ascii_case(&c.name)) {
                    context.insert(format!("{} {d}", c.name));
                }
            }
        }
        let references: std::collections::HashSet<&str> = corpus.train[..10]
            .iter()
            .map(|e| e.dvq_text.as_str())
            .collect();
        assert_eq!(after_first, (context.len(), references.len()));

        let mut asked = 0;
        for e in corpus.dev.iter().filter(|e| e.db == 0) {
            let prompts = translation_prompts(&corpus, &annotations, 0, &e.nlq, &e.dvq_text);
            answers(&model, &prompts);
            assert_eq!(model.memo.len(), after_first, "{}", e.nlq);
            asked += 1;
        }
        assert!(asked > 3, "too few questions on database 0");
        for key in model.memo.row_keys() {
            assert!(context.contains(&key), "{key:?} is not prompt context");
        }
    }

    #[test]
    fn clones_share_one_memo() {
        let corpus = generate(&CorpusConfig::tiny(7));
        let model = SimulatedChatModel::new(LlmConfig::default());
        let clone = model.clone();
        assert!(Arc::ptr_eq(&model.memo, &clone.memo));
        let prompts = dev_prompts(&corpus, &clone);
        assert_eq!(model.memo.len(), (0, 0), "annotation reads no context");
        let cold = answers(&clone, &prompts[..3]);
        let filled = model.memo.len();
        assert!(filled.0 > 0 && filled.1 > 0, "{filled:?}");
        assert_eq!(answers(&model, &prompts[..3]), cold);
        assert_eq!(model.memo.len(), filled);
    }

    /// A warm memo is never read by another model: `ablations` builds
    /// models with other embedders in one process, one after another.
    #[test]
    fn another_model_never_reads_a_warm_memo() {
        let corpus = generate(&CorpusConfig::tiny(7));
        let half = LlmConfig {
            embed: EmbedConfig {
                lexicon_coverage: 0.5,
                ..LlmConfig::default().embed
            },
            ..LlmConfig::default()
        };
        let before = SimulatedChatModel::new(half.clone());
        let prompts = dev_prompts(&corpus, &before);
        let want = answers(&before, &prompts);

        let default = SimulatedChatModel::new(LlmConfig::default());
        answers(&default, &prompts);
        let after = SimulatedChatModel::new(half);
        assert_eq!(answers(&after, &prompts), want);

        // Every row a memo holds is its own embedder's, whichever model
        // read the prompts first; and the two embedders disagree on some
        // of them, so reading the other model's rows would move scores.
        let mut disagree = 0;
        for model in [&default, &after] {
            for key in model.memo.row_keys() {
                let mut held = vec![0.0; model.embedder.dims()];
                model.memo.scatter_row(&key, &mut held).expect("a held key");
                assert_eq!(held, model.embedder.embed(&key), "{key:?}");
                disagree += usize::from(default.embedder.embed(&key) != after.embedder.embed(&key));
            }
        }
        assert!(
            disagree > 0,
            "the two embedders agree on every memoised text"
        );
    }

    #[test]
    fn a_capped_memo_clears_and_answers_the_same() {
        let corpus = generate(&CorpusConfig::tiny(7));
        let fresh = SimulatedChatModel::new(LlmConfig::default());
        let capped = SimulatedChatModel::with_memo_cap(LlmConfig::default(), 8);
        let prompts = dev_prompts(&corpus, &fresh);
        for p in &prompts {
            assert_eq!(
                capped.complete(p, &ChatParams::working()),
                fresh.complete(p, &ChatParams::working())
            );
            let (rows, styles) = capped.memo.len();
            assert!(rows <= 8 && styles <= 8, "{rows} rows, {styles} styles");
        }
        let (rows, styles) = fresh.memo.len();
        assert!(
            rows > 8 && styles > 8,
            "the capped memo never filled: {rows}, {styles}"
        );
    }

    #[test]
    fn unknown_prompt_returns_empty() {
        let model = SimulatedChatModel::new(LlmConfig::default());
        let out = model.complete(
            &[ChatMessage::user("What is the meaning of life?")],
            &ChatParams::working(),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn extract_dvq_handles_all_formats() {
        assert_eq!(
            extract_dvq("A: Visualize BAR SELECT a , b FROM t").unwrap(),
            "Visualize BAR SELECT a , b FROM t"
        );
        assert_eq!(
            extract_dvq("### Modified DVQ:\n# Visualize PIE SELECT a , b FROM t").unwrap(),
            "Visualize PIE SELECT a , b FROM t"
        );
        assert!(extract_dvq("no dvq here").is_none());
    }
}
