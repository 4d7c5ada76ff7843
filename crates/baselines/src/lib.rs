//! # t2v-baselines — prior text-to-vis models
//!
//! The systems the paper evaluates against GRED:
//!
//! * [`seq2vis::Seq2Vis`] — pointer-generator attention seq2seq (Luo et al.
//!   2021a), trained NLQ → DVQ;
//! * [`transformer_model::TransformerBaseline`] — schema-aware
//!   encoder–decoder transformer with a closed output vocabulary;
//! * [`rgvisnet::RgVisNet`] — prototype retrieval + lexical revision
//!   (Song et al. 2022), the pre-GRED state of the art.
//!
//! All trained on the synthetic nvBench training split with the paper's
//! no-cross-domain setup; all implement the [`t2v_core::Translator`]
//! backend trait, so the eval harness, the bench binaries, and `t2v-serve`
//! consume them interchangeably with GRED.

pub mod rgvisnet;
pub mod seq2vis;
pub mod tokenize;
pub mod transformer_model;

pub use rgvisnet::RgVisNet;
pub use seq2vis::{BaselineTrainConfig, Seq2Vis};
pub use transformer_model::TransformerBaseline;
