//! The benchmark's own arithmetic: percentile selection, the "ten samples
//! beyond" rule, and median-of-windows.

/// Samples a percentile must leave beyond it before it is reported
/// (choosing-metrics §1): a p99 over 500 samples is five points, not a
/// percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest value with at
/// least `p` of the samples at or below it. `None` on an empty slice.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    Some(sorted[rank - 1])
}

/// How many samples lie strictly beyond the nearest-rank `p` position.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((n as f64 * p).ceil() as usize).clamp(1, n)
}

/// Whether `n` samples support reporting percentile `p` at all.
pub fn tail_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_TAIL_SAMPLES
}

/// Median of unordered values (mean of the two middle ones for even counts).
/// `None` on an empty slice or when any value is not finite.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values order totally"));
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// Median of `u64` nanosecond samples, as f64 (sorts a copy).
pub fn median_ns(samples: &[u64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_unstable();
    percentile(&v, 0.5).map(|x| x as f64)
}

/// One measurement window: every successful op's latency plus the counters
/// taken at its two boundaries.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Per-op wall time of successful ops, nanoseconds, unordered.
    pub latencies_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    /// Wall time between the two boundary snapshots.
    pub wall_ns: u64,
    /// CPU the program (not the load generator) spent inside the window.
    pub program_cpu_ns: u64,
}

/// The per-window values every timing metric is a median of.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowValues {
    pub throughput_ops_s: f64,
    pub latency_p50_us: f64,
    pub latency_p99_us: f64,
    pub cpu_us_per_op: f64,
    pub samples: usize,
    pub p99_supported: bool,
}

impl Window {
    pub fn ok(&self) -> u64 {
        self.attempted - self.failed
    }

    /// `None` when the window holds no successful op or no wall time.
    pub fn values(&self) -> Option<WindowValues> {
        let ok = self.latencies_ns.len();
        if ok == 0 || self.wall_ns == 0 {
            return None;
        }
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        Some(WindowValues {
            throughput_ops_s: ok as f64 / (self.wall_ns as f64 / 1e9),
            latency_p50_us: percentile(&sorted, 0.50)? as f64 / 1e3,
            latency_p99_us: percentile(&sorted, 0.99)? as f64 / 1e3,
            cpu_us_per_op: self.program_cpu_ns as f64 / 1e3 / ok as f64,
            samples: ok,
            p99_supported: tail_supported(ok, 0.99),
        })
    }
}

/// Median over windows of each per-window value — the number reported.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSummary {
    pub throughput_ops_s: f64,
    pub latency_p50_us: f64,
    pub latency_p99_us: f64,
    pub cpu_us_per_op: f64,
    pub windows: usize,
    /// Smallest per-window sample count (what the percentiles rest on).
    pub min_samples: usize,
    pub p99_supported: bool,
}

/// `None` when any window is empty: a window without a successful op has no
/// latency, and dropping it would hide a stall.
pub fn median_of_windows(windows: &[Window]) -> Option<WindowSummary> {
    let values: Vec<WindowValues> = windows.iter().map(Window::values).collect::<Option<_>>()?;
    let col = |f: fn(&WindowValues) -> f64| median(&values.iter().map(f).collect::<Vec<_>>());
    Some(WindowSummary {
        throughput_ops_s: col(|v| v.throughput_ops_s)?,
        latency_p50_us: col(|v| v.latency_p50_us)?,
        latency_p99_us: col(|v| v.latency_p99_us)?,
        cpu_us_per_op: col(|v| v.cpu_us_per_op)?,
        windows: values.len(),
        min_samples: values.iter().map(|v| v.samples).min()?,
        p99_supported: values.iter().all(|v| v.p99_supported),
    })
}

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is what the driver's
/// acceptance check uses for spread.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 || values.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values order totally"));
    let n = v.len();
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Taken after the clamp, so the ends extrapolate as Python's do.
        let delta = pos as f64 - 4.0 * j as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), Some(50));
        assert_eq!(percentile(&v, 0.99), Some(99));
        assert_eq!(percentile(&v, 1.0), Some(100));
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&[7], 0.99), Some(7));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, ten beyond — the smallest supported count.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(tail_supported(1000, 0.99));
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert!(!tail_supported(999, 0.99));
        // The median of 20 samples has ten beyond it.
        assert!(tail_supported(20, 0.50));
        assert!(!tail_supported(19, 0.50));
        assert!(!tail_supported(0, 0.5));
    }

    #[test]
    fn median_handles_even_odd_and_bad_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[1.0, f64::NAN]), None);
    }

    fn window(latencies_us: &[u64], wall_s: f64, cpu_us: u64) -> Window {
        Window {
            latencies_ns: latencies_us.iter().map(|l| l * 1000).collect(),
            attempted: latencies_us.len() as u64,
            failed: 0,
            wall_ns: (wall_s * 1e9) as u64,
            program_cpu_ns: cpu_us * 1000,
        }
    }

    #[test]
    fn window_values_divide_by_successful_ops() {
        let w = window(&[10, 30, 20, 40], 2.0, 200);
        let v = w.values().unwrap();
        assert_eq!(v.throughput_ops_s, 2.0);
        assert_eq!(v.latency_p50_us, 20.0);
        assert_eq!(v.latency_p99_us, 40.0);
        assert_eq!(v.cpu_us_per_op, 50.0);
        assert!(!v.p99_supported);
        assert!(Window::default().values().is_none());
    }

    #[test]
    fn reported_number_is_the_median_window_not_the_pooled_one() {
        // One disturbed window must not move the reported p50: pooled over
        // all samples the median would still be 10, but the pooled p99 and
        // throughput would be dragged; per-window medians are not.
        let calm = window(&[10; 8], 1.0, 80);
        let noisy = window(&[500; 2], 1.0, 80);
        let s = median_of_windows(&[calm.clone(), noisy, calm]).unwrap();
        assert_eq!(s.latency_p50_us, 10.0);
        assert_eq!(s.latency_p99_us, 10.0);
        assert_eq!(s.throughput_ops_s, 8.0);
        assert_eq!(s.windows, 3);
        assert_eq!(s.min_samples, 2);
    }

    #[test]
    fn an_empty_window_voids_the_summary() {
        let w = window(&[10, 20], 1.0, 10);
        assert!(median_of_windows(&[w, Window::default()]).is_none());
        assert!(median_of_windows(&[]).is_none());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
