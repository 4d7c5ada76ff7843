//! Error analysis: accuracy broken down by query hardness and chart type.
//!
//! The paper reports aggregate numbers; this module supports the standard
//! follow-up analysis (which difficulty bucket / chart family drives the
//! collapse?). `qualsnap` writes all three for every evaluated cell into
//! `BENCH_quality.json`.

use crate::metrics::Tally;
use std::collections::BTreeMap;
use t2v_corpus::Corpus;
use t2v_dvq::ast::ChartType;
use t2v_dvq::hardness::Hardness;
use t2v_perturb::RobExample;

/// Match counts per group key.
#[derive(Debug, Clone)]
pub struct Breakdown<K> {
    pub groups: Vec<(K, Tally)>,
}

impl<K: std::fmt::Debug> Breakdown<K> {
    pub fn render(&self, title: &str) -> String {
        let mut s = format!("-- {title} --\n");
        for (k, t) in &self.groups {
            let a = t.accuracies();
            s.push_str(&format!(
                "{:<20} n={:<5} overall {:>6.2}%  data {:>6.2}%\n",
                format!("{k:?}"),
                a.n,
                a.overall * 100.0,
                a.data * 100.0
            ));
        }
        s
    }
}

/// Group predictions by the hardness of the *source* dev example.
pub fn by_hardness(
    corpus: &Corpus,
    set: &[RobExample],
    predictions: &[Option<String>],
) -> Breakdown<Hardness> {
    let mut tallies: BTreeMap<Hardness, Tally> = BTreeMap::new();
    for (ex, p) in set.iter().zip(predictions.iter()) {
        let h = corpus.dev[ex.base].hardness;
        tallies
            .entry(h)
            .or_default()
            .add_text(p.as_deref(), &ex.target);
    }
    Breakdown {
        groups: tallies.into_iter().collect(),
    }
}

/// Group predictions by the target chart type.
pub fn by_chart(set: &[RobExample], predictions: &[Option<String>]) -> Breakdown<ChartType> {
    let mut tallies: BTreeMap<ChartType, Tally> = BTreeMap::new();
    for (ex, p) in set.iter().zip(predictions.iter()) {
        tallies
            .entry(ex.target.chart)
            .or_default()
            .add_text(p.as_deref(), &ex.target);
    }
    Breakdown {
        groups: tallies.into_iter().collect(),
    }
}

/// Classify what went wrong for each miss: which component broke first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ErrorProfile {
    pub total: usize,
    pub exact: usize,
    pub no_output: usize,
    pub unparseable: usize,
    pub vis_wrong: usize,
    pub axis_wrong: usize,
    pub data_wrong: usize,
    /// Components all matched but the style key differed.
    pub style_only: usize,
}

/// Build an [`ErrorProfile`] over one prediction set.
pub fn error_profile(set: &[RobExample], predictions: &[Option<String>]) -> ErrorProfile {
    let mut p = ErrorProfile::default();
    for (ex, pred) in set.iter().zip(predictions.iter()) {
        p.total += 1;
        let Some(text) = pred else {
            p.no_output += 1;
            continue;
        };
        let Ok(q) = t2v_dvq::parse(text) else {
            p.unparseable += 1;
            continue;
        };
        let m = t2v_dvq::components::ComponentMatch::grade(&q, &ex.target);
        if m.overall {
            p.exact += 1;
        } else if !m.vis {
            p.vis_wrong += 1;
        } else if !m.axis {
            p.axis_wrong += 1;
        } else if !m.data {
            p.data_wrong += 1;
        } else {
            p.style_only += 1;
        }
    }
    p
}

impl ErrorProfile {
    pub fn render(&self) -> String {
        format!(
            "n={} exact={} no-output={} unparseable={} vis={} axis={} data={} style-only={}",
            self.total,
            self.exact,
            self.no_output,
            self.unparseable,
            self.vis_wrong,
            self.axis_wrong,
            self.data_wrong,
            self.style_only
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use t2v_corpus::{generate, CorpusConfig};
    use t2v_perturb::build_rob;

    #[test]
    fn breakdowns_partition_the_set() {
        let corpus = generate(&CorpusConfig::tiny(7));
        let rob = build_rob(&corpus, 1);
        let preds: Vec<Option<String>> = rob
            .original
            .iter()
            .map(|e| Some(e.target_text.clone()))
            .collect();
        let h = by_hardness(&corpus, &rob.original, &preds);
        let c = by_chart(&rob.original, &preds);
        let hn: usize = h.groups.iter().map(|(_, t)| t.n).sum();
        let cn: usize = c.groups.iter().map(|(_, t)| t.n).sum();
        assert_eq!(hn, rob.original.len());
        assert_eq!(cn, rob.original.len());
        assert!(h.groups.iter().all(|(_, t)| t.overall == t.n));
    }

    #[test]
    fn error_profile_classifies_misses() {
        let corpus = generate(&CorpusConfig::tiny(7));
        let rob = build_rob(&corpus, 1);
        let set = &rob.original[..4];
        let preds = vec![
            Some(set[0].target_text.clone()),                      // exact
            None,                                                  // no output
            Some("garbage".to_string()),                           // unparseable
            Some("Visualize PIE SELECT a , b FROM t".to_string()), // structural miss
        ];
        let p = error_profile(set, &preds);
        assert_eq!(p.total, 4);
        assert_eq!(p.exact, 1);
        assert_eq!(p.no_output, 1);
        assert_eq!(p.unparseable, 1);
        assert_eq!(p.exact + p.no_output + p.unparseable, 3);
        assert!(p.render().contains("n=4"));
    }

    #[test]
    fn render_is_humane() {
        let corpus = generate(&CorpusConfig::tiny(7));
        let rob = build_rob(&corpus, 1);
        let preds: Vec<Option<String>> = rob.original.iter().map(|_| None).collect();
        let h = by_hardness(&corpus, &rob.original, &preds);
        let out = h.render("by hardness");
        assert!(out.contains("by hardness"));
        assert!(out.contains("0.00%"));
    }
}
