//! The four accuracy metrics of the paper (Appendix A): Vis, Data, Axis and
//! Overall accuracy.

use t2v_dvq::components::ComponentMatch;
use t2v_dvq::Dvq;

/// Aggregated accuracies over one test set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Accuracies {
    pub n: usize,
    pub vis: f64,
    pub data: f64,
    pub axis: f64,
    pub overall: f64,
}

impl Accuracies {
    /// Format like the paper's table cells.
    pub fn row(&self) -> String {
        format!(
            "{:>7.2}% {:>7.2}% {:>7.2}% {:>7.2}%",
            self.vis * 100.0,
            self.data * 100.0,
            self.axis * 100.0,
            self.overall * 100.0
        )
    }
}

/// Running tally of component matches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub n: usize,
    pub vis: usize,
    pub data: usize,
    pub axis: usize,
    pub overall: usize,
}

impl Tally {
    /// Grade one prediction. `None` (no output / unparseable) counts as a
    /// miss on every component, matching how the paper scores failures.
    pub fn add(&mut self, predicted: Option<&Dvq>, target: &Dvq) {
        self.n += 1;
        if let Some(p) = predicted {
            let m = ComponentMatch::grade(p, target);
            self.vis += m.vis as usize;
            self.data += m.data as usize;
            self.axis += m.axis as usize;
            self.overall += m.overall as usize;
        }
    }

    /// Grade a textual prediction (parse first).
    pub fn add_text(&mut self, predicted: Option<&str>, target: &Dvq) {
        let parsed = predicted.and_then(|t| t2v_dvq::parse(t).ok());
        self.add(parsed.as_ref(), target);
    }

    pub fn merge(&mut self, other: &Tally) {
        self.n += other.n;
        self.vis += other.vis;
        self.data += other.data;
        self.axis += other.axis;
        self.overall += other.overall;
    }

    pub fn accuracies(&self) -> Accuracies {
        let d = self.n.max(1) as f64;
        Accuracies {
            n: self.n,
            vis: self.vis as f64 / d,
            data: self.data as f64 / d,
            axis: self.axis as f64 / d,
            overall: self.overall as f64 / d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2v_dvq::parse;

    #[test]
    fn perfect_predictions_score_one() {
        let t = parse("Visualize BAR SELECT a , COUNT(a) FROM t GROUP BY a").unwrap();
        let mut tally = Tally::default();
        tally.add(Some(&t), &t);
        let acc = tally.accuracies();
        assert_eq!(acc.overall, 1.0);
        assert_eq!(acc.vis, 1.0);
    }

    #[test]
    fn missing_prediction_scores_zero_everywhere() {
        let t = parse("Visualize BAR SELECT a , COUNT(a) FROM t GROUP BY a").unwrap();
        let mut tally = Tally::default();
        tally.add(None, &t);
        let acc = tally.accuracies();
        assert_eq!(acc.overall, 0.0);
        assert_eq!(acc.vis, 0.0);
        assert_eq!(acc.n, 1);
    }

    #[test]
    fn component_credit_is_partial() {
        let t = parse("Visualize BAR SELECT a , COUNT(a) FROM t GROUP BY a").unwrap();
        let p = parse("Visualize PIE SELECT a , COUNT(a) FROM t GROUP BY a").unwrap();
        let mut tally = Tally::default();
        tally.add(Some(&p), &t);
        let acc = tally.accuracies();
        assert_eq!(acc.vis, 0.0);
        assert_eq!(acc.axis, 1.0);
        assert_eq!(acc.data, 1.0);
        assert_eq!(acc.overall, 0.0);
    }

    #[test]
    fn add_text_parses_or_misses() {
        let t = parse("Visualize BAR SELECT a , COUNT(a) FROM t GROUP BY a").unwrap();
        let mut tally = Tally::default();
        tally.add_text(Some("not a dvq"), &t);
        tally.add_text(
            Some("Visualize BAR SELECT a , COUNT(a) FROM t GROUP BY a"),
            &t,
        );
        let acc = tally.accuracies();
        assert_eq!(acc.n, 2);
        assert_eq!(acc.overall, 0.5);
    }

    #[test]
    fn merge_combines_counts() {
        let t = parse("Visualize BAR SELECT a , b FROM t").unwrap();
        let mut a = Tally::default();
        a.add(Some(&t), &t);
        let mut b = Tally::default();
        b.add(None, &t);
        a.merge(&b);
        assert_eq!(a.n, 2);
        assert_eq!(a.accuracies().overall, 0.5);
    }

    #[test]
    fn row_formats_percentages() {
        let t = parse("Visualize BAR SELECT a , b FROM t").unwrap();
        let mut tally = Tally::default();
        tally.add(Some(&t), &t);
        assert!(tally.accuracies().row().contains("100.00%"));
    }
}
