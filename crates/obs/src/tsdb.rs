//! In-process ring-buffer time-series store.
//!
//! One fixed-size ring per series of `(timestamp_ms, value)` pairs, where
//! the value is the *raw* cumulative counter (or gauge level) as sampled
//! from the metrics registry. Deltas and rates are computed at query time
//! from pairs of samples, so the store never needs to know which series
//! are counters — and a ring of N samples bounds memory per series at
//! exactly N `(u64, u64)` pairs regardless of uptime.

use std::collections::HashMap;
use std::sync::Mutex;

/// One series' fixed-capacity ring. `head` is the next write slot; once
/// full, new samples overwrite the oldest.
struct Ring {
    t_ms: Vec<u64>,
    vals: Vec<u64>,
    head: usize,
    len: usize,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            t_ms: vec![0; capacity],
            vals: vec![0; capacity],
            head: 0,
            len: 0,
        }
    }

    fn push(&mut self, t_ms: u64, val: u64) {
        let cap = self.t_ms.len();
        self.t_ms[self.head] = t_ms;
        self.vals[self.head] = val;
        self.head = (self.head + 1) % cap;
        self.len = (self.len + 1).min(cap);
    }

    /// Samples at or after `from_ms`, oldest first.
    fn window(&self, from_ms: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        let cap = self.t_ms.len();
        let start = (self.head + cap - self.len) % cap;
        (0..self.len)
            .map(move |i| {
                let idx = (start + i) % cap;
                (self.t_ms[idx], self.vals[idx])
            })
            .filter(move |&(t, _)| t >= from_ms)
    }

    /// The first and last sample at or after `from_ms` — all a delta or a
    /// rate reads — or `None` with fewer than two.
    fn ends(&self, from_ms: u64) -> Option<[(u64, u64); 2]> {
        let mut pts = self.window(from_ms);
        let first = pts.next()?;
        Some([first, pts.last()?])
    }

    fn latest(&self) -> Option<(u64, u64)> {
        if self.len == 0 {
            return None;
        }
        let cap = self.t_ms.len();
        let idx = (self.head + cap - 1) % cap;
        Some((self.t_ms[idx], self.vals[idx]))
    }
}

/// Most points one `Tsdb::points` query returns, whatever its window and
/// step: a response renders on the serving loop, and at the 1 ms floor of
/// the sample cadence a 900 s window holds 900 000 samples.
const MAX_POINTS: usize = 1000;

/// The store: a map of named rings behind one mutex. The only writer is
/// the sampler thread (one lock per sweep); readers are admin queries and
/// SLO evaluations, far off any request hot path.
pub struct Tsdb {
    sample_ms: u64,
    retention_s: u64,
    capacity: usize,
    series: Mutex<HashMap<String, Ring>>,
}

impl Tsdb {
    /// `sample_ms` is the sweep cadence the sampler will use; `retention_s`
    /// sizes each ring so it holds that much history at that cadence.
    pub fn new(sample_ms: u64, retention_s: u64) -> Tsdb {
        let sample_ms = sample_ms.max(1);
        let capacity = (retention_s.saturating_mul(1000) / sample_ms).clamp(2, 1 << 20) as usize;
        Tsdb {
            sample_ms,
            retention_s,
            capacity,
            series: Mutex::new(HashMap::new()),
        }
    }

    pub fn sample_ms(&self) -> u64 {
        self.sample_ms
    }

    pub fn retention_s(&self) -> u64 {
        self.retention_s
    }

    /// Ring capacity per series (samples retained).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record one sweep: every `(name, value)` gets a sample stamped
    /// `now_ms`. Unknown names create their ring on first sight.
    pub fn record(&self, now_ms: u64, samples: &[(String, u64)]) {
        let mut series = lock(&self.series);
        for (name, val) in samples {
            series
                .entry(name.clone())
                .or_insert_with(|| Ring::new(self.capacity))
                .push(now_ms, *val);
        }
    }

    /// Every series name, sorted (the `/v1/admin/tsdb` index).
    pub fn series_names(&self) -> Vec<String> {
        let mut names: Vec<String> = lock(&self.series).keys().cloned().collect();
        names.sort();
        names
    }

    /// The spacing a [`Tsdb::points`] query over `window_ms` thins to when
    /// asked for `step_ms`: never finer than the sample cadence, nor finer
    /// than keeps the window within 1 000 points (points at least a step
    /// apart, plus the newest sample).
    pub fn step_ms(&self, window_ms: u64, step_ms: u64) -> u64 {
        step_ms
            .max(self.sample_ms)
            .max(window_ms.div_ceil(MAX_POINTS as u64 - 2))
    }

    /// Raw samples of `name` within the trailing window, oldest first,
    /// thinned so consecutive points are at least [`Tsdb::step_ms`] apart,
    /// and never more than 1 000 of them (the last sample is always kept).
    /// Walks the ring once without copying it.
    pub fn points(&self, name: &str, window_ms: u64, step_ms: u64, now_ms: u64) -> Vec<(u64, u64)> {
        let from = now_ms.saturating_sub(window_ms);
        let step = self.step_ms(window_ms, step_ms);
        let series = lock(&self.series);
        let Some(ring) = series.get(name) else {
            return Vec::new();
        };
        let mut out: Vec<(u64, u64)> = Vec::new();
        let mut newest = None;
        for p in ring.window(from) {
            newest = Some(p);
            let spaced = match out.last() {
                Some(&(t, _)) => step <= self.sample_ms || p.0 >= t.saturating_add(step),
                None => true,
            };
            // The cap leaves a slot for the newest sample; it only binds
            // when samples crowd closer than the cadence.
            if spaced && out.len() < MAX_POINTS - 1 {
                out.push(p);
            }
        }
        if let Some(newest) = newest.filter(|&p| out.last() != Some(&p)) {
            out.push(newest);
        }
        out
    }

    /// Counter increase over the trailing window: newest minus oldest
    /// sample in range. `None` without at least two samples. Saturating —
    /// in-process counters never reset, but a gauge queried as a delta
    /// must not underflow.
    pub fn delta(&self, name: &str, window_ms: u64, now_ms: u64) -> Option<u64> {
        let from = now_ms.saturating_sub(window_ms);
        let series = lock(&self.series);
        let [(_, first), (_, last)] = series.get(name)?.ends(from)?;
        Some(last.saturating_sub(first))
    }

    /// Per-second rate over the trailing window (counter semantics).
    pub fn rate(&self, name: &str, window_ms: u64, now_ms: u64) -> Option<f64> {
        let from = now_ms.saturating_sub(window_ms);
        let series = lock(&self.series);
        let [(t0, v0), (t1, v1)] = series.get(name)?.ends(from)?;
        if t1 <= t0 {
            return None;
        }
        Some(v1.saturating_sub(v0) as f64 / ((t1 - t0) as f64 / 1000.0))
    }

    /// The newest sample of `name` (gauge read).
    pub fn latest(&self, name: &str) -> Option<(u64, u64)> {
        lock(&self.series).get(name)?.latest()
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(tsdb: &Tsdb, name: &str, samples: &[(u64, u64)]) {
        for &(t, v) in samples {
            tsdb.record(t, &[(name.to_string(), v)]);
        }
    }

    #[test]
    fn capacity_derives_from_cadence_and_retention() {
        assert_eq!(Tsdb::new(1000, 900).capacity(), 900);
        assert_eq!(Tsdb::new(250, 60).capacity(), 240);
        assert_eq!(Tsdb::new(1000, 0).capacity(), 2, "floor of two samples");
    }

    #[test]
    fn delta_and_rate_use_window_endpoints() {
        let tsdb = Tsdb::new(1000, 60);
        fill(
            &tsdb,
            "reqs",
            &[(1_000, 10), (2_000, 30), (3_000, 60), (4_000, 100)],
        );
        // Full window: 100 - 10 over 3 s.
        assert_eq!(tsdb.delta("reqs", 60_000, 4_000), Some(90));
        assert_eq!(tsdb.rate("reqs", 60_000, 4_000), Some(30.0));
        // Trailing 2 s window sees only the last three samples.
        assert_eq!(tsdb.delta("reqs", 2_000, 4_000), Some(70));
        // One sample in range is not a delta.
        assert_eq!(tsdb.delta("reqs", 0, 4_000), None);
        assert_eq!(tsdb.delta("missing", 60_000, 4_000), None);
    }

    #[test]
    fn ring_overwrites_oldest_beyond_capacity() {
        let tsdb = Tsdb::new(1000, 3); // capacity 3
        fill(
            &tsdb,
            "c",
            &[(1_000, 1), (2_000, 2), (3_000, 3), (4_000, 4)],
        );
        let pts = tsdb.points("c", 60_000, 0, 4_000);
        assert_eq!(pts, vec![(2_000, 2), (3_000, 3), (4_000, 4)]);
        assert_eq!(tsdb.latest("c"), Some((4_000, 4)));
    }

    #[test]
    fn points_thin_to_step_and_keep_the_newest() {
        let tsdb = Tsdb::new(100, 60);
        let samples: Vec<(u64, u64)> = (0..10).map(|i| (i * 100, i)).collect();
        fill(&tsdb, "s", &samples);
        let pts = tsdb.points("s", 10_000, 300, 900);
        // Thinned to >= 300 ms apart, newest sample always present.
        assert_eq!(pts.first(), Some(&(0, 0)));
        assert_eq!(pts.last(), Some(&(900, 9)));
        for pair in pts.windows(2) {
            assert!(pair[1].0 - pair[0].0 >= 300 || pair[1] == (900, 9));
        }
    }

    /// At the 1 ms floor of the sample cadence a full 900 s ring holds
    /// 900 000 samples; a query over all of it, at the native step, comes
    /// back thinned to at most `MAX_POINTS`, evenly spaced, from the
    /// window's start to its newest sample.
    #[test]
    fn a_1ms_ring_answers_within_the_point_cap() {
        let tsdb = Tsdb::new(1, 900);
        assert_eq!(tsdb.capacity(), 900_000);
        let name = vec![("s".to_string(), 0)];
        for t in 1..=900_000u64 {
            tsdb.record(t, &name);
        }
        let newest = (900_000, 0);
        for window_ms in [900_000u64, 60_000, 1_000] {
            let step = tsdb.step_ms(window_ms, 0);
            let pts = tsdb.points("s", window_ms, 0, 900_000);
            assert!(
                pts.len() <= MAX_POINTS,
                "{} points over {window_ms} ms",
                pts.len()
            );
            assert_eq!(pts.last(), Some(&newest), "window {window_ms} ms");
            assert_eq!(
                pts[0].0,
                (900_000 - window_ms).max(1),
                "window {window_ms} ms"
            );
            let body = &pts[..pts.len() - 1];
            assert!(
                body.windows(2).all(|p| p[1].0 - p[0].0 == step),
                "step {step}"
            );
        }
        // A short window still answers at the native cadence.
        assert_eq!(tsdb.step_ms(500, 0), 1);
        assert_eq!(tsdb.points("s", 500, 0, 900_000).len(), 501);
        assert_eq!(tsdb.delta("s", 900_000, 900_000), Some(0));
        assert_eq!(tsdb.rate("s", 2, 900_000), Some(0.0));
    }

    #[test]
    fn gauge_delta_saturates_instead_of_underflowing() {
        let tsdb = Tsdb::new(1000, 60);
        fill(&tsdb, "g", &[(1_000, 50), (2_000, 10)]);
        assert_eq!(tsdb.delta("g", 60_000, 2_000), Some(0));
    }
}
