//! # t2v-eval — metrics and evaluation harness
//!
//! Implements the paper's four metrics (Appendix A): **Vis Accuracy** (chart
//! type), **Axis Accuracy** (x/y expressions + axis sorting), **Data
//! Accuracy** (tables, joins, filters, grouping, binning, limits — style
//! sensitive) and **Overall Accuracy** (exact match). Every evaluated
//! system implements the [`t2v_core::Translator`] backend trait (the former
//! eval-only `Text2VisModel` trait is retired in its favour); the harness
//! consumes `&dyn Translator`, so the same backend objects serve traffic,
//! run benches, and get graded. Plus paper-style table rendering.

pub mod breakdown;
pub mod harness;
pub mod metrics;
pub mod report;

pub use breakdown::{by_chart, by_hardness, error_profile, Breakdown, ErrorProfile};
pub use harness::{
    evaluate_predictions, evaluate_set, evaluate_set_parallel, EvalError, EvalRun, PredictionRecord,
};
// Re-exported so downstream crates can name the backend API through eval.
pub use metrics::{Accuracies, Tally};
pub use report::{render_overall_table, render_table};
pub use t2v_core::{TranslateRequest, TranslateResponse, Translator};
