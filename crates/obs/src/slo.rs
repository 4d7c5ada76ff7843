//! SLO declarations and multi-window burn-rate evaluation.
//!
//! Objectives come from the `slo=` config knob with the grammar
//! `availability:0.999;latency:p99<5ms;cache_hit:0.7` — malformed specs
//! are boot-time errors, same contract as `fault_plan=`. Evaluation
//! follows the Google SRE multi-window multi-burn-rate recipe: an alert
//! fires only while **both** a fast window (default 5m, catches the page)
//! and a slow window (default 1h, suppresses blips) burn error budget
//! faster than the threshold.

use crate::quantile::cumulative_at;
use crate::tsdb::Tsdb;
use std::sync::Mutex;

/// What an objective measures and its target.
#[derive(Debug, Clone, PartialEq)]
pub enum SloKind {
    /// Fraction of responses that must not be 5xx; budget `1 - target`.
    Availability { target: f64 },
    /// `quantile` of request latency must stay below `threshold_s`;
    /// budget `1 - quantile` of requests may be slower.
    Latency { quantile: f64, threshold_s: f64 },
    /// Cache hit rate must stay at or above `target`; budget `1 - target`
    /// of lookups may miss.
    CacheHit { target: f64 },
}

/// One parsed objective.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    pub name: String,
    pub kind: SloKind,
    /// Allowed error fraction: burn rate = observed error fraction / budget.
    pub budget: f64,
}

/// Which TSDB series feed each objective: keys the embedding server's
/// collector yields, which owns their spelling.
#[derive(Debug, Clone)]
pub struct SloSources {
    pub requests_total: String,
    pub requests_5xx: String,
    pub cache_hits: String,
    pub cache_misses: String,
    /// `(upper bound in seconds, series)` per finite latency bucket,
    /// ascending; empty disables the latency objective.
    pub latency_buckets: Vec<(f64, String)>,
    /// The latency histogram's total count (its `+Inf` bucket).
    pub latency_count: String,
}

/// Evaluation windows and the firing threshold.
#[derive(Debug, Clone, Copy)]
pub struct BurnWindows {
    pub fast_ms: u64,
    pub slow_ms: u64,
    /// Burn-rate multiple both windows must exceed to fire. 14.4 is the
    /// classic "2% of a 30-day budget in one hour" page threshold.
    pub threshold: f64,
}

impl Default for BurnWindows {
    fn default() -> BurnWindows {
        BurnWindows {
            fast_ms: 5 * 60 * 1000,
            slow_ms: 60 * 60 * 1000,
            threshold: 14.4,
        }
    }
}

/// Snapshot of one objective after an evaluation sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    pub name: String,
    pub firing: bool,
    /// Error-fraction / budget over each window; 0 when the window has
    /// too little data to judge.
    pub fast_burn: f64,
    pub slow_burn: f64,
    /// `1 - slow_burn`: fraction of the error budget left at the current
    /// slow-window error rate. Negative while burning past the budget.
    pub budget_remaining: f64,
    pub target: f64,
}

/// A firing-state flip produced by an evaluation sweep, for the access
/// log's `slo-transition` lines.
#[derive(Debug, Clone, PartialEq)]
pub struct SloTransition {
    pub slo: String,
    pub firing: bool,
    pub fast_burn: f64,
    pub slow_burn: f64,
}

/// Parse the `slo=` config value. Empty input means no objectives.
pub fn parse_slos(spec: &str) -> Result<Vec<SloSpec>, String> {
    let mut out: Vec<SloSpec> = Vec::new();
    for part in spec.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (name, value) = part
            .split_once(':')
            .ok_or_else(|| format!("slo objective '{part}' is missing ':'"))?;
        let (name, value) = (name.trim(), value.trim());
        if out.iter().any(|s| s.name == name) {
            return Err(format!("slo objective '{name}' declared twice"));
        }
        let spec = match name {
            "availability" => {
                let target = parse_target(name, value)?;
                SloSpec {
                    name: name.to_string(),
                    kind: SloKind::Availability { target },
                    budget: 1.0 - target,
                }
            }
            "cache_hit" => {
                let target = parse_target(name, value)?;
                SloSpec {
                    name: name.to_string(),
                    kind: SloKind::CacheHit { target },
                    budget: 1.0 - target,
                }
            }
            "latency" => {
                let (quantile, threshold_s) = parse_latency(value)?;
                SloSpec {
                    name: name.to_string(),
                    kind: SloKind::Latency {
                        quantile,
                        threshold_s,
                    },
                    budget: 1.0 - quantile,
                }
            }
            other => {
                return Err(format!(
                    "unknown slo objective '{other}' \
                     (expected availability, latency, or cache_hit)"
                ))
            }
        };
        out.push(spec);
    }
    Ok(out)
}

fn parse_target(name: &str, value: &str) -> Result<f64, String> {
    let target: f64 = value
        .parse()
        .map_err(|_| format!("slo {name} target '{value}' is not a number"))?;
    if !(target > 0.0 && target < 1.0) {
        return Err(format!(
            "slo {name} target must be in (0, 1), got '{value}'"
        ));
    }
    Ok(target)
}

/// Parse `p99<5ms` into `(0.99, 0.005)`.
fn parse_latency(value: &str) -> Result<(f64, f64), String> {
    let (q, threshold) = value
        .split_once('<')
        .ok_or_else(|| format!("slo latency '{value}' must look like p99<5ms"))?;
    let q = q.trim();
    let digits = q
        .strip_prefix('p')
        .ok_or_else(|| format!("slo latency quantile '{q}' must start with 'p'"))?;
    let pct: f64 = digits
        .parse()
        .map_err(|_| format!("slo latency quantile '{q}' is not a number"))?;
    if !(pct > 0.0 && pct < 100.0) {
        return Err(format!("slo latency quantile '{q}' must be in (p0, p100)"));
    }
    let quantile = pct / 100.0;
    let threshold = threshold.trim();
    let (num, scale) = if let Some(v) = threshold.strip_suffix("ms") {
        (v, 1e-3)
    } else if let Some(v) = threshold.strip_suffix("us") {
        (v, 1e-6)
    } else if let Some(v) = threshold.strip_suffix('s') {
        (v, 1.0)
    } else {
        return Err(format!(
            "slo latency threshold '{threshold}' needs a unit (us, ms, or s)"
        ));
    };
    let num: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("slo latency threshold '{threshold}' is not a number"))?;
    if num <= 0.0 {
        return Err(format!("slo latency threshold '{threshold}' must be > 0"));
    }
    Ok((quantile, num * scale))
}

/// Evaluates parsed objectives against the TSDB and tracks firing state.
/// Time is always injected (`now_ms`) so window math is testable under
/// synthetic clocks.
pub struct SloEngine {
    specs: Vec<SloSpec>,
    sources: SloSources,
    windows: BurnWindows,
    state: Mutex<State>,
}

struct State {
    firing: Vec<bool>,
    last: Vec<SloStatus>,
}

impl SloEngine {
    pub fn new(specs: Vec<SloSpec>, sources: SloSources, windows: BurnWindows) -> SloEngine {
        let n = specs.len();
        SloEngine {
            specs,
            sources,
            windows,
            state: Mutex::new(State {
                firing: vec![false; n],
                last: Vec::new(),
            }),
        }
    }

    pub fn specs(&self) -> &[SloSpec] {
        &self.specs
    }

    pub fn windows(&self) -> BurnWindows {
        self.windows
    }

    /// Re-evaluate every objective at `now_ms`. Returns the fresh
    /// statuses plus any firing-state transitions since the last sweep.
    pub fn evaluate(&self, tsdb: &Tsdb, now_ms: u64) -> (Vec<SloStatus>, Vec<SloTransition>) {
        let mut statuses = Vec::with_capacity(self.specs.len());
        let mut transitions = Vec::new();
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        for (i, spec) in self.specs.iter().enumerate() {
            let fast = self.error_fraction(tsdb, spec, self.windows.fast_ms, now_ms);
            let slow = self.error_fraction(tsdb, spec, self.windows.slow_ms, now_ms);
            let fast_burn = fast.map_or(0.0, |f| f / spec.budget);
            let slow_burn = slow.map_or(0.0, |f| f / spec.budget);
            let firing = fast_burn > self.windows.threshold && slow_burn > self.windows.threshold;
            if firing != state.firing[i] {
                state.firing[i] = firing;
                transitions.push(SloTransition {
                    slo: spec.name.clone(),
                    firing,
                    fast_burn,
                    slow_burn,
                });
            }
            statuses.push(SloStatus {
                name: spec.name.clone(),
                firing,
                fast_burn,
                slow_burn,
                budget_remaining: 1.0 - slow_burn,
                target: match spec.kind {
                    SloKind::Availability { target } | SloKind::CacheHit { target } => target,
                    SloKind::Latency { quantile, .. } => quantile,
                },
            });
        }
        state.last = statuses.clone();
        (statuses, transitions)
    }

    /// Statuses cached from the most recent `evaluate` sweep, for readers
    /// (`/v1/admin/alerts`, `/metrics` gauges) that must not re-run
    /// window math per request.
    pub fn last(&self) -> Vec<SloStatus> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .last
            .clone()
    }

    /// Observed error fraction for one objective over one window. `None`
    /// when the window lacks enough samples to judge — insufficient data
    /// never fires an alert.
    fn error_fraction(
        &self,
        tsdb: &Tsdb,
        spec: &SloSpec,
        window_ms: u64,
        now_ms: u64,
    ) -> Option<f64> {
        match &spec.kind {
            SloKind::Availability { .. } => {
                let total = tsdb.delta(&self.sources.requests_total, window_ms, now_ms)?;
                if total == 0 {
                    return None;
                }
                let bad = tsdb
                    .delta(&self.sources.requests_5xx, window_ms, now_ms)
                    .unwrap_or(0);
                Some(bad as f64 / total as f64)
            }
            SloKind::CacheHit { .. } => {
                let hits = tsdb.delta(&self.sources.cache_hits, window_ms, now_ms)?;
                let misses = tsdb.delta(&self.sources.cache_misses, window_ms, now_ms)?;
                let total = hits + misses;
                if total == 0 {
                    return None;
                }
                Some(misses as f64 / total as f64)
            }
            SloKind::Latency { threshold_s, .. } => {
                let buckets = &self.sources.latency_buckets;
                if buckets.is_empty() {
                    return None;
                }
                let bounds: Vec<f64> = buckets.iter().map(|(bound, _)| *bound).collect();
                let mut cumulative = Vec::with_capacity(buckets.len() + 1);
                for (_, series) in buckets {
                    cumulative.push(tsdb.delta(series, window_ms, now_ms)?);
                }
                let total = tsdb.delta(&self.sources.latency_count, window_ms, now_ms)?;
                cumulative.push(total);
                if total == 0 {
                    return None;
                }
                let fast = cumulative_at(*threshold_s, &bounds, &cumulative)?;
                Some(((total as f64 - fast) / total as f64).max(0.0))
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn parses_the_canonical_spec() {
        let specs = parse_slos("availability:0.999;latency:p99<5ms;cache_hit:0.7").unwrap();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].kind, SloKind::Availability { target: 0.999 });
        assert!((specs[0].budget - 0.001).abs() < 1e-12);
        assert_eq!(
            specs[1].kind,
            SloKind::Latency {
                quantile: 0.99,
                threshold_s: 0.005
            }
        );
        assert_eq!(specs[2].kind, SloKind::CacheHit { target: 0.7 });
        assert!(parse_slos("").unwrap().is_empty());
        assert!(parse_slos("latency:p99.9<250us").is_ok());
    }

    #[test]
    fn rejects_malformed_specs_at_parse_time() {
        for bad in [
            "availability",
            "availability:1.5",
            "availability:0",
            "uptime:0.9",
            "latency:p99",
            "latency:p99<5",
            "latency:p0<5ms",
            "latency:q99<5ms",
            "latency:p99<-5ms",
            "availability:0.9;availability:0.99",
        ] {
            assert!(parse_slos(bad).is_err(), "'{bad}' should be rejected");
        }
    }

    /// Sources spelled the way `t2v-serve` keys its sweep: `/metrics`
    /// exposition keys, over a three-bucket latency histogram.
    pub(crate) fn sources() -> SloSources {
        let bucket = |le: &str| format!("t2v_request_seconds_bucket{{le=\"{le}\"}}");
        SloSources {
            requests_total: "t2v_http_requests_total".to_string(),
            requests_5xx: "t2v_http_requests_total{status=\"5xx\"}".to_string(),
            cache_hits: "t2v_cache_hits_total".to_string(),
            cache_misses: "t2v_cache_misses_total".to_string(),
            latency_buckets: [(0.001, "0.001"), (0.005, "0.005"), (0.025, "0.025")]
                .map(|(bound, le)| (bound, bucket(le)))
                .to_vec(),
            latency_count: "t2v_request_seconds_count".to_string(),
        }
    }

    fn availability_engine(fast_ms: u64, slow_ms: u64) -> SloEngine {
        SloEngine::new(
            parse_slos("availability:0.999").unwrap(),
            sources(),
            BurnWindows {
                fast_ms,
                slow_ms,
                threshold: 14.4,
            },
        )
    }

    fn feed(tsdb: &Tsdb, t: u64, total: u64, bad: u64) {
        let s = sources();
        tsdb.record(t, &[(s.requests_total, total), (s.requests_5xx, bad)]);
    }

    #[test]
    fn fires_only_when_both_windows_burn_and_clears_when_fast_recovers() {
        let tsdb = Tsdb::new(1000, 600);
        let engine = availability_engine(5_000, 20_000);
        // 20 s of clean traffic: 100 req/s, no errors.
        for s in 0..=20u64 {
            feed(&tsdb, s * 1000, s * 100, 0);
        }
        let (st, tr) = engine.evaluate(&tsdb, 20_000);
        assert!(!st[0].firing);
        assert!(tr.is_empty());
        assert_eq!(st[0].fast_burn, 0.0);

        // Error storm: every request 5xx for 6 s. Fast window saturates
        // at error fraction 1.0 → burn 1000 against a 0.001 budget; the
        // slow window blends clean + storm traffic but still far exceeds
        // 14.4 (6 s of 100% errors over 20 s ≈ 0.23 fraction → burn 230).
        let mut total = 2000;
        let mut bad = 0;
        for s in 21..=26u64 {
            total += 100;
            bad += 100;
            feed(&tsdb, s * 1000, total, bad);
        }
        let (st, tr) = engine.evaluate(&tsdb, 26_000);
        assert!(st[0].firing, "storm should fire: {:?}", st[0]);
        assert_eq!(
            tr,
            vec![SloTransition {
                slo: "availability".to_string(),
                firing: true,
                fast_burn: st[0].fast_burn,
                slow_burn: st[0].slow_burn,
            }]
        );
        assert!((st[0].fast_burn - 1000.0).abs() < 1.0, "{:?}", st[0]);
        assert!(st[0].budget_remaining < 0.0);

        // Recovery: clean traffic pushes the fast window back under
        // threshold even while the slow window still remembers the storm.
        for s in 27..=40u64 {
            total += 100;
            feed(&tsdb, s * 1000, total, bad);
        }
        let (st, tr) = engine.evaluate(&tsdb, 40_000);
        assert!(!st[0].firing, "recovered: {:?}", st[0]);
        assert_eq!(tr.len(), 1);
        assert!(!tr[0].firing);
        assert_eq!(st[0].fast_burn, 0.0);
        assert!(st[0].slow_burn > 14.4, "slow window still burning");
    }

    #[test]
    fn insufficient_data_never_fires() {
        let tsdb = Tsdb::new(1000, 600);
        let engine = availability_engine(5_000, 20_000);
        // A single sample: no delta, no verdict.
        feed(&tsdb, 1_000, 100, 100);
        let (st, tr) = engine.evaluate(&tsdb, 1_000);
        assert!(!st[0].firing);
        assert!(tr.is_empty());
        assert_eq!(st[0].fast_burn, 0.0);
    }

    #[test]
    fn latency_objective_burns_on_slow_tail() {
        let engine = SloEngine::new(
            parse_slos("latency:p99<5ms").unwrap(),
            sources(),
            BurnWindows {
                fast_ms: 5_000,
                slow_ms: 5_000,
                threshold: 14.4,
            },
        );
        let tsdb = Tsdb::new(1000, 600);
        // t=0: empty. t=5s: 1000 requests, 400 slower than 5ms — error
        // fraction 0.4 against a 0.01 budget → burn 40.
        let s = sources();
        let sweep = |counts: [u64; 4]| -> Vec<(String, u64)> {
            let keys = s.latency_buckets.iter().map(|(_, key)| key);
            let keys = keys.chain([&s.latency_count]).cloned();
            keys.zip(counts).collect()
        };
        tsdb.record(0, &sweep([0, 0, 0, 0]));
        tsdb.record(5_000, &sweep([100, 600, 950, 1000]));
        let (st, _) = engine.evaluate(&tsdb, 5_000);
        assert!(st[0].firing, "{:?}", st[0]);
        assert!((st[0].fast_burn - 40.0).abs() < 1e-9, "{:?}", st[0]);
    }

    #[test]
    fn cache_hit_objective_burns_on_miss_rate() {
        let engine = SloEngine::new(
            parse_slos("cache_hit:0.7").unwrap(),
            sources(),
            BurnWindows {
                fast_ms: 5_000,
                slow_ms: 5_000,
                threshold: 2.0,
            },
        );
        let tsdb = Tsdb::new(1000, 600);
        let s = sources();
        let feed = |t: u64, hits: u64, misses: u64| {
            let sweep = [
                (s.cache_hits.clone(), hits),
                (s.cache_misses.clone(), misses),
            ];
            tsdb.record(t, &sweep);
        };
        feed(0, 0, 0);
        feed(5_000, 100, 900); // 90% miss rate vs 30% budget → burn 3.0
        let (st, _) = engine.evaluate(&tsdb, 5_000);
        assert!(st[0].firing, "{:?}", st[0]);
        assert!((st[0].fast_burn - 3.0).abs() < 1e-9);
    }
}
