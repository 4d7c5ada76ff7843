//! `--compare A.json B.json`: for every (workload, end-to-end metric) pair,
//! how much worse B's median is than A's, against the metric's bound.

use crate::schema::{END_TO_END, WORKLOADS};
use crate::stats;
use std::fmt::Write as _;
use t2v_engine::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// Within the bound, but the runs of one side spread wider than the
    /// bound, and B is not better on every run: the data cannot tell.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub median_a: f64,
    pub median_b: f64,
    /// Share of A's median by which B is worse (negative: better).
    pub worse_by: f64,
    /// Interquartile range over median of each side; `None` under two runs.
    pub spread_a: Option<f64>,
    pub spread_b: Option<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Interquartile range as a share of the median — the driver's spread.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = stats::quartiles(values)?;
    let m = stats::median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

pub fn judge(
    a: &[f64],
    b: &[f64],
    higher_is_better: bool,
    bound: f64,
) -> Option<(f64, f64, f64, Verdict)> {
    let (ma, mb) = (stats::median(a)?, stats::median(b)?);
    if ma == 0.0 {
        return None;
    }
    let worse_by = if higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let wide = |v: &[f64]| spread(v).is_some_and(|s| s > bound);
    let b_always_better = b.iter().all(|&y| {
        a.iter()
            .all(|&x| if higher_is_better { y > x } else { y < x })
    });
    let verdict = if worse_by > bound {
        Verdict::Regressed
    } else if (wide(a) || wide(b)) && !b_always_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    Some((ma, mb, worse_by, verdict))
}

/// Values of one end-to-end metric over a results file's measured runs of
/// one workload.
fn values(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    doc.get("runs")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|r| {
            r.get("workload").and_then(Json::as_str) == Some(workload)
                && r.get("trace").and_then(Json::as_f64) == Some(0.0)
        })
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// One row per pair present in both files.
pub fn compare(a: &Json, b: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        for (m, bound) in END_TO_END {
            let (va, vb) = (values(a, workload, m.name), values(b, workload, m.name));
            let Some((median_a, median_b, worse_by, verdict)) = judge(&va, &vb, m.higher, bound)
            else {
                continue;
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: m.name,
                median_a,
                median_b,
                worse_by,
                spread_a: spread(&va),
                spread_b: spread(&vb),
                bound,
                verdict,
            });
        }
    }
    rows
}

pub fn render(rows: &[Row]) -> String {
    let pct = |x: Option<f64>| x.map_or("     -".to_string(), |s| format!("{:>5.1}%", s * 100.0));
    let mut out = format!(
        "{:<15} {:<17} {:>14} {:>14} {:>8} {:>7} {:>7} {:>6}  verdict\n",
        "workload", "metric", "median A", "median B", "worse by", "iqr A", "iqr B", "bound"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "{:<15} {:<17} {:>14.4} {:>14.4} {:>+7.1}% {} {} {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.median_a,
            r.median_b,
            r.worse_by * 100.0,
            pct(r.spread_a),
            pct(r.spread_b),
            r.bound * 100.0,
            r.verdict.label()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let tight_a = [100.0, 101.0, 99.0, 100.0];
        // Lower is better: 5% worse is inside a 10% bound.
        let v = judge(&tight_a, &[105.0, 104.0, 106.0, 105.0], false, 0.10).unwrap();
        assert_eq!(v.3, Verdict::Ok);
        assert!((v.2 - 0.05).abs() < 1e-9);
        // 20% worse is not.
        assert_eq!(
            judge(&tight_a, &[120.0, 121.0, 119.0, 120.0], false, 0.10)
                .unwrap()
                .3,
            Verdict::Regressed
        );
        // Higher is better: a drop is a worsening.
        assert_eq!(
            judge(&tight_a, &[80.0, 81.0, 79.0, 80.0], true, 0.10)
                .unwrap()
                .3,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&tight_a, &[120.0, 121.0, 119.0, 120.0], true, 0.10)
                .unwrap()
                .3,
            Verdict::Ok
        );
        // Same medians, but one side spreads wider than the bound.
        let wide = [70.0, 100.0, 100.0, 130.0];
        assert_eq!(
            judge(&wide, &tight_a, false, 0.10).unwrap().3,
            Verdict::Unresolved
        );
        // ... unless every run of B beats every run of A.
        assert_eq!(
            judge(&wide, &[60.0, 61.0, 59.0, 60.0], false, 0.10)
                .unwrap()
                .3,
            Verdict::Ok
        );
        assert!(judge(&[], &tight_a, false, 0.1).is_none());
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(spread(&[5.0]), None);
        assert_eq!(spread(&[1.0, 1.0, 1.0]), Some(0.0));
    }

    fn doc(p50: &[f64]) -> Json {
        let runs = p50
            .iter()
            .map(|v| {
                let mut metrics = Json::Obj(Default::default());
                metrics.set(
                    "latency_p50_us",
                    Json::obj([("value", Json::Num(*v)), ("unit", Json::str("us"))]),
                );
                Json::obj([
                    ("workload", Json::str("serve_hot")),
                    ("trace", Json::Num(0.0)),
                    ("metrics", metrics),
                ])
            })
            .collect();
        Json::obj([("runs", Json::Arr(runs))])
    }

    #[test]
    fn compare_reads_results_files_and_skips_pairs_without_data() {
        let rows = compare(&doc(&[100.0, 102.0, 98.0]), &doc(&[130.0, 131.0, 129.0]));
        assert_eq!(rows.len(), 1);
        assert_eq!(
            (rows[0].workload.as_str(), rows[0].metric),
            ("serve_hot", "latency_p50_us")
        );
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert!(render(&rows).contains("regressed"));
    }
}
