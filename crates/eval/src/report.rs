//! Paper-style table rendering for experiment results.

use crate::harness::EvalRun;
use crate::metrics::Accuracies;
use std::fmt::Write as _;

/// Render one of the paper's Tables 1-3: rows = models, columns = the four
/// metrics, with an optional `paper=` reference column for comparison.
pub fn render_table(title: &str, runs: &[&EvalRun], paper_reference: &[(&str, f64)]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== {title} ==");
    let _ = writeln!(
        s,
        "{:<24} {:>9} {:>9} {:>9} {:>9} {:>12}",
        "Model", "Vis Acc.", "Data Acc.", "Axis Acc.", "Acc.", "paper Acc."
    );
    for run in runs {
        let a = run.accuracies;
        let paper = paper_reference
            .iter()
            .find(|(m, _)| *m == run.model)
            .map(|(_, v)| format!("{v:>10.2}%"))
            .unwrap_or_else(|| format!("{:>11}", "-"));
        let _ = writeln!(
            s,
            "{:<24} {:>8.2}% {:>8.2}% {:>8.2}% {:>8.2}% {}",
            run.model,
            a.vis * 100.0,
            a.data * 100.0,
            a.axis * 100.0,
            a.overall * 100.0,
            paper
        );
    }
    s
}

/// One row of an overall-accuracy table: label, per-column accuracies, and
/// the paper's figure per column where it reports one.
pub type OverallRow<'a> = (&'a str, Vec<Accuracies>, Vec<Option<f64>>);

/// Render an overall-accuracy-only table (the paper's Table 4 / Figure 3).
pub fn render_overall_table(title: &str, columns: &[&str], rows: &[OverallRow<'_>]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== {title} ==");
    let _ = write!(s, "{:<24}", "Model");
    for c in columns {
        let _ = write!(s, " {c:>24}");
    }
    let _ = writeln!(s);
    for (name, accs, paper) in rows {
        let _ = write!(s, "{name:<24}");
        for (i, a) in accs.iter().enumerate() {
            let p = paper
                .get(i)
                .copied()
                .flatten()
                .map(|v| format!(" (paper {v:.2})"))
                .unwrap_or_default();
            let cell = format!("{:.2}%{}", a.overall * 100.0, p);
            let _ = write!(s, " {cell:>24}");
        }
        let _ = writeln!(s);
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2v_perturb::RobVariant;

    fn fake_run(model: &str, overall: f64) -> EvalRun {
        EvalRun {
            model: model.into(),
            variant: RobVariant::Both,
            accuracies: Accuracies {
                n: 10,
                vis: 0.9,
                data: overall,
                axis: overall,
                overall,
            },
            tally: Default::default(),
            records: vec![],
        }
    }

    #[test]
    fn table_includes_paper_reference() {
        let a = fake_run("GRED", 0.55);
        let b = fake_run("RGVisNet", 0.25);
        let out = render_table(
            "nvBench-Rob(nlq,schema)",
            &[&b, &a],
            &[("GRED", 54.85), ("RGVisNet", 24.81)],
        );
        assert!(out.contains("GRED"));
        assert!(out.contains("54.85"));
        assert!(out.contains("55.00%"));
    }

    #[test]
    fn overall_table_renders_columns() {
        let accs = vec![
            Accuracies {
                n: 5,
                vis: 1.0,
                data: 0.5,
                axis: 0.5,
                overall: 0.5,
            },
            Accuracies {
                n: 5,
                vis: 1.0,
                data: 0.4,
                axis: 0.4,
                overall: 0.4,
            },
        ];
        let out = render_overall_table(
            "Ablation",
            &["set-a", "set-b"],
            &[("GRED", accs, vec![Some(59.98), None])],
        );
        assert!(out.contains("set-a"));
        assert!(out.contains("50.00%"));
        assert!(out.contains("(paper 59.98)"));
        assert_eq!(out.matches("(paper").count(), 1, "{out}");
    }
}
