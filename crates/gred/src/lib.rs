//! # t2v-gred — the paper's contribution
//!
//! GRED is a retrieval-augmented generation framework for robust
//! text-to-visualization translation. Its pipeline (paper Figure 4):
//!
//! 1. **NLQ-Retrieval Generator** — embed the incoming question, retrieve
//!    the top-K most similar training questions, assemble their (schema,
//!    NLQ, DVQ) triples into a few-shot prompt in *ascending* similarity
//!    order, and ask the LLM for `DVQ_gen`. Counters natural-language
//!    variance.
//! 2. **DVQ-Retrieval Retuner** — embed `DVQ_gen`, retrieve the top-K most
//!    similar training DVQs, and ask the LLM to restyle `DVQ_gen` after them
//!    (null-test spelling, `!=` vs `<>`, aliasing, explicit `ASC`), yielding
//!    `DVQ_rtn`. Counters programming-style drift.
//! 3. **Annotation-based Debugger** — pair the target schema with LLM-
//!    generated natural-language annotations and ask the LLM to replace the
//!    column names in `DVQ_rtn` that do not exist in the schema, yielding
//!    `DVQ_dbg`. Counters data-schema variance.
//!
//! The preparatory phase ([`library`]) embeds the training split and caches
//! database annotations, exactly as §4.1 describes.
//!
//! GRED always runs all three stages. Table 4's ablated rows (`w/o RTN&DBG`,
//! `w/o RTN`, `w/o DBG`) are projections of one full pass
//! ([`Gred::translate_ablations`]): completions are pure functions of the
//! prompt, so only a question whose DVQ the retuner changed needs one more
//! debugger call.

pub mod library;
pub mod pipeline;

pub use library::{AnnotationStore, EmbeddingLibrary, LibEntry};
pub use pipeline::{default_gred, DirectRetriever, Gred, GredConfig, GredOutput, Retrieve};
