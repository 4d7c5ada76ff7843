//! The simulated chat model: dispatches incoming prompts to the annotate /
//! generate / retune / debug behaviours.
//!
//! Determinism: `temperature=0.0` in the paper; here every stochastic
//! decision is seeded from `config.seed` hashed with the prompt content, so
//! identical calls return identical completions across runs.

use crate::annotate::annotate_schema;
use crate::api::{ChatMessage, ChatModel, ChatParams};
use crate::debug::debug_dvq;
use crate::generate::{generate_dvq, GenContext};
use crate::parse;
use crate::patterns::PatternKnowledge;
use crate::retune::retune_dvq;
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
/// `(messages, params)` so clones are interchangeable.
#[derive(Debug, Clone)]
pub struct SimulatedChatModel {
    config: LlmConfig,
    embedder: TextEmbedder,
    knowledge: PatternKnowledge,
}

impl SimulatedChatModel {
    pub fn new(config: LlmConfig) -> Self {
        let embedder = TextEmbedder::new(Lexicon::builtin(), config.embed.clone());
        let knowledge = PatternKnowledge::sample(config.seed, config.paraphrase_coverage);
        SimulatedChatModel {
            config,
            embedder,
            knowledge,
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
                return retune_dvq(&refs, original, self.config.retune_fidelity, seed);
            }
        }
        if prompt.contains("replace the column names in the Data Visualization Query") {
            if let Some((schema, annotations, original)) = parse::parse_debug(&prompt) {
                return debug_dvq(
                    &schema,
                    annotations,
                    original,
                    &self.embedder,
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
    use t2v_corpus::{generate, CorpusConfig};

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
