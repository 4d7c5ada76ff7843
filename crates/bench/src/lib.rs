//! # t2v-bench — experiment harness
//!
//! Binaries regenerating every table and figure of the paper's evaluation
//! (see DESIGN.md's experiment index; Tables 1-4 and Figure 3 live in
//! [`tables`]) plus `perfsnap`, the model hot-path snapshot. The experiment
//! binaries accept `--seed`, `--profile paper|small|tiny`, `--fresh` and
//! `--limit`, and exit 2 on anything else; results go to `results/`.

pub mod context;
pub mod tables;

pub use context::{Ctx, ModelKind};

/// `git describe` of the tree that produced the numbers (falls back to the
/// bare commit hash, then to "unknown" outside a work tree), so every
/// `BENCH_perf.json` section is attributable to an exact build.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}
