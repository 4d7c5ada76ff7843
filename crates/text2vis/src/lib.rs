//! # text2vis — robust text-to-visualization translation
//!
//! Facade over the full reproduction of *"Towards Robustness of
//! Text-to-Visualization Translation against Lexical and Phrasal
//! Variability"* (ICDE 2025): the DVQ language, a synthetic nvBench corpus,
//! the nvBench-Rob perturbation suite, an execution engine, embedding and
//! LLM substrates, the neural baselines, the GRED framework, the unified
//! [`t2v_core::Translator`] backend API every model implements, the
//! evaluation harness, the multi-backend `t2v-serve` service, and the
//! `t2v-store` persistent artifact store (with the `t2v-snapshot` CLI).
//!
//! ```
//! use text2vis::prelude::*;
//!
//! let corpus = generate(&CorpusConfig::tiny(7));
//! let gred = default_gred(&corpus, GredConfig::default());
//! let ex = &corpus.dev[0];
//! let dvq = gred
//!     .translate_final(&ex.nlq, &corpus.databases[ex.db])
//!     .expect("a DVQ");
//! assert!(dvq.starts_with("Visualize"));
//! ```

pub use t2v_baselines as baselines;
pub use t2v_core as core;
pub use t2v_corpus as corpus;
pub use t2v_dvq as dvq;
pub use t2v_embed as embed;
pub use t2v_engine as engine;
pub use t2v_eval as eval;
pub use t2v_gred as gred;
pub use t2v_llm as llm;
pub use t2v_neural as neural;
pub use t2v_perturb as perturb;
pub use t2v_serve as serve;
pub use t2v_store as store;
pub use t2v_tenant as tenant;

/// The most common imports in one place.
pub mod prelude {
    pub use t2v_core::{
        BackendInfo, BackendRegistry, TranslateError, TranslateRequest, TranslateResponse,
        Translator,
    };
    pub use t2v_corpus::{generate, Corpus, CorpusConfig, Database};
    pub use t2v_dvq::{parse, Dvq, Printer};
    pub use t2v_engine::{execute, Store};
    pub use t2v_eval::evaluate_set;
    pub use t2v_gred::{default_gred, Gred, GredConfig};
    pub use t2v_perturb::{build_rob, NvBenchRob, RobVariant};
    pub use t2v_serve::{serve, ServeConfig, Server, ServerState};
    pub use t2v_store::{LibrarySource, Provenance, SnapshotError};
    pub use t2v_tenant::{CorpusSpec, TenantSpec};
}
