//! # t2v-llm — the simulated chat LLM
//!
//! GRED (the paper's contribution) treats GPT-3.5-Turbo as a black-box
//! prompt→text function invoked with the prompts of Appendix C. This crate
//! supplies that black box:
//!
//! * [`api`] — a chat-completion interface mirroring `openai.ChatCompletion`
//!   (roles, temperature/frequency/presence parameters from §5.1);
//! * [`prompts`] — renderers for the four Appendix C prompt layouts;
//! * [`mock`] — [`mock::SimulatedChatModel`], a deterministic model that
//!   *reads the rendered prompt text* and implements in-context learning:
//!   template induction with recency-biased attention ([`generate`]),
//!   style mimicry ([`retune`]), annotation-guided schema repair ([`debug`])
//!   and schema annotation ([`annotate`]);
//! * [`memo`] — the model's context memo: the embeddings of the prompt's
//!   example questions, schema names and annotation descriptors, and the
//!   style evidence of its reference DVQs, derived once per model instead
//!   of once per call. Completions are still pure functions of the prompt:
//!   a memoised value has the bits of a fresh one, and nothing derived from
//!   the question is kept;
//! * controlled error sources — imperfect synonym knowledge
//!   (embedding lexicon coverage), unknown paraphrase phrasings
//!   ([`patterns::PatternKnowledge`]), stale-name hallucination below the
//!   linking threshold, retune infidelity and debugger over-correction —
//!   each exercised by the ablation experiments.

pub mod annotate;
pub mod api;
pub mod debug;
pub mod generate;
pub mod linker;
pub mod memo;
pub mod mock;
pub mod parse;
pub mod patterns;
pub mod prompts;
pub mod retune;

pub use api::{ChatMessage, ChatModel, ChatParams, Role};
pub use mock::{extract_dvq, LlmConfig, SimulatedChatModel};
pub use prompts::GenExample;
