//! # t2v-bench — experiment harness
//!
//! Binaries regenerating every table and figure of the paper's evaluation
//! (see DESIGN.md's experiment index; Tables 1-4 and Figure 3 live in
//! [`tables`]). They accept `--seed`, `--profile paper|small|tiny`,
//! `--fresh` and `--limit`, and exit 2 on anything else; results go to
//! `results/`. Performance is measured by the repository benchmark
//! (`benchmark/`), not here.

pub mod context;
pub mod tables;

pub use context::{Ctx, ModelKind};
