//! # t2v-core — the unified translator backend API
//!
//! Every text-to-vis system in this workspace — the paper's GRED pipeline
//! and the three baselines it is compared against — is a [`Translator`]:
//! a typed [`TranslateRequest`] (NLQ + database) in, a staged
//! [`TranslateResponse`] (per-stage DVQs + timings) or a structured
//! [`TranslateError`] out. The eval harness, the bench binaries, and the
//! `t2v-serve` HTTP surface all consume the same object-safe
//! `dyn Translator`, usually through a [`BackendRegistry`] of named
//! `Arc<dyn Translator>` instances.
//!
//! This crate sits at the bottom of the dependency graph (only `t2v-corpus`
//! for [`t2v_corpus::Database`] and `t2v-dvq` for output validation), so
//! every model crate can implement the trait and every consumer crate can
//! accept it. The [`conformance`] module is the executable contract: a
//! property suite any backend must pass.
//!
//! ```
//! use std::sync::Arc;
//! use t2v_core::{BackendRegistry, FnBackend, TranslateRequest, Translator};
//! use t2v_corpus::{generate, CorpusConfig, Database};
//!
//! let corpus = generate(&CorpusConfig::tiny(7));
//! let gold = corpus.train[0].dvq_text.clone();
//! let mut registry = BackendRegistry::new();
//! registry.register(
//!     "oracle",
//!     Arc::new(FnBackend::new("oracle", move |_: &str, _: &Database| Some(gold.clone()))),
//! );
//! let (idx, id, backend) = registry.resolve(Some("oracle")).unwrap();
//! let resp = backend
//!     .translate(&TranslateRequest::new("show wages", &corpus.databases[0]))
//!     .unwrap();
//! assert_eq!((idx, id), (0, "oracle"));
//! assert!(!resp.stages.is_empty());
//! ```

pub mod api;
pub mod conformance;
pub mod registry;

pub use api::{
    single_stage_response, validated_single_stage_response, BackendInfo, BackendKind, FnBackend,
    StageRecord, StageSink, Step, TranslateError, TranslateRequest, TranslateResponse, Translator,
};
pub use registry::BackendRegistry;
