//! `t2v-obs` — a self-contained, std-only observability engine.
//!
//! Serving millions of users without an external metrics stack means the
//! process must be able to answer "is it healthy, and where is the time
//! going?" by itself. This crate provides the four pillars (DESIGN.md §15):
//!
//! * [`Tsdb`] — a ring-buffer time-series store a sampler thread fills by
//!   snapshotting the `AtomicU64` metrics registry every `obs_sample_ms`.
//! * [`SloEngine`] — Google-SRE multi-window burn-rate evaluation of
//!   `slo=` objectives against the TSDB.
//! * [`histogram_quantile`] — in-process quantile estimation over the
//!   sampled histogram bucket series.
//! * [`ProfileStore`] — stage-occupancy aggregation fed by a ~97 Hz
//!   sampler walking `t2v_trace`'s exported per-thread stage stacks.
//!
//! [`ObsEngine`] owns the stores plus the two background threads. The
//! embedding server hands it a *collector* closure (how to read the
//! metrics registry) and an optional *transition sink* (where SLO state
//! flips go — the access log); the engine never depends on `t2v-serve`.

mod profile;
mod quantile;
mod slo;
mod tsdb;

pub use profile::ProfileStore;
pub use quantile::{cumulative_at, histogram_quantile};
pub use slo::{
    parse_slos, BurnWindows, SloEngine, SloKind, SloSources, SloSpec, SloStatus, SloTransition,
};
pub use tsdb::Tsdb;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Snapshot of the metrics registry: `(series name, raw value)` pairs.
pub type Collector = Box<dyn Fn() -> Vec<(String, u64)> + Send + Sync>;

/// Called once per SLO firing-state flip, from the sampler thread.
pub type TransitionSink = Box<dyn Fn(&SloTransition) + Send + Sync>;

/// Everything `ObsEngine::new` needs, mirroring the config knobs.
pub struct ObsConfig {
    /// Sampler cadence; `0` disables the sampler (and with it the TSDB
    /// and SLO evaluation).
    pub sample_ms: u64,
    /// TSDB ring retention in seconds.
    pub retention_s: u64,
    /// Profiler cadence; `0` disables the stage-occupancy profiler.
    pub profile_hz: u32,
    /// Parsed SLO objectives (empty = no SLO engine).
    pub slos: Vec<SloSpec>,
    pub sources: SloSources,
    pub windows: BurnWindows,
}

/// The ops plane: stores plus sampler/profiler threads.
pub struct ObsEngine {
    tsdb: Arc<Tsdb>,
    slo: Option<Arc<SloEngine>>,
    profile: Arc<ProfileStore>,
    sample_ms: u64,
    profile_hz: u32,
    stop: Arc<AtomicBool>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl ObsEngine {
    pub fn new(cfg: ObsConfig) -> ObsEngine {
        let slo = if cfg.slos.is_empty() {
            None
        } else {
            Some(Arc::new(SloEngine::new(cfg.slos, cfg.sources, cfg.windows)))
        };
        ObsEngine {
            tsdb: Arc::new(Tsdb::new(cfg.sample_ms.max(1), cfg.retention_s)),
            slo,
            profile: Arc::new(ProfileStore::new(cfg.retention_s.max(1))),
            sample_ms: cfg.sample_ms,
            profile_hz: cfg.profile_hz,
            stop: Arc::new(AtomicBool::new(false)),
            threads: Mutex::new(Vec::new()),
        }
    }

    pub fn tsdb(&self) -> &Arc<Tsdb> {
        &self.tsdb
    }

    pub fn slo(&self) -> Option<&Arc<SloEngine>> {
        self.slo.as_ref()
    }

    pub fn profile(&self) -> &Arc<ProfileStore> {
        &self.profile
    }

    pub fn sample_ms(&self) -> u64 {
        self.sample_ms
    }

    pub fn profile_hz(&self) -> u32 {
        self.profile_hz
    }

    /// Start the background threads. The sampler sweeps `collector` into
    /// the TSDB every `sample_ms` and evaluates SLOs — the first sweep
    /// here, before `start` returns, so every configured SLO has a status
    /// from the moment the caller serves; the profiler walks exported
    /// stage stacks at `profile_hz`. Either is skipped when its cadence
    /// knob is zero. Call at most once.
    pub fn start(&self, collector: Collector, on_transition: Option<TransitionSink>) {
        let mut threads = lock(&self.threads);
        if self.sample_ms > 0 {
            let tsdb = Arc::clone(&self.tsdb);
            let slo = self.slo.clone();
            let stop = Arc::clone(&self.stop);
            let sample_ms = self.sample_ms;
            let sweep = move || {
                let now = unix_ms();
                tsdb.record(now, &collector());
                if let Some(slo) = &slo {
                    let (_, transitions) = slo.evaluate(&tsdb, now);
                    if let Some(sink) = &on_transition {
                        for t in &transitions {
                            sink(t);
                        }
                    }
                }
            };
            sweep();
            let handle = std::thread::Builder::new()
                .name("t2v-obs-sampler".to_string())
                .spawn(move || loop {
                    sleep_until_stop(&stop, sample_ms);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    sweep();
                })
                .expect("spawn obs sampler");
            threads.push(handle);
        }
        if self.profile_hz > 0 {
            let profile = Arc::clone(&self.profile);
            let stop = Arc::clone(&self.stop);
            let period = Duration::from_nanos(1_000_000_000 / self.profile_hz as u64);
            t2v_trace::set_stack_export(true);
            let handle = std::thread::Builder::new()
                .name("t2v-obs-profiler".to_string())
                .spawn(move || {
                    let mut folded = String::with_capacity(128);
                    while !stop.load(Ordering::Relaxed) {
                        let now = unix_ms();
                        for stack in t2v_trace::sample_stacks() {
                            folded.clear();
                            for (i, stage) in stack.stages.iter().enumerate() {
                                if i > 0 {
                                    folded.push(';');
                                }
                                folded.push_str(stage.name());
                            }
                            profile.record(now, &folded);
                        }
                        std::thread::sleep(period);
                    }
                    t2v_trace::set_stack_export(false);
                })
                .expect("spawn obs profiler");
            threads.push(handle);
        }
    }

    /// Stop and join the background threads. Idempotent.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
        let handles: Vec<JoinHandle<()>> = lock(&self.threads).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ObsEngine {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Sleep `ms`, waking early (within ~25 ms) if the stop flag flips so
/// shutdown never waits out a full sampling interval.
fn sleep_until_stop(stop: &AtomicBool, ms: u64) {
    let mut remaining = ms;
    while remaining > 0 && !stop.load(Ordering::Relaxed) {
        let chunk = remaining.min(25);
        std::thread::sleep(Duration::from_millis(chunk));
        remaining -= chunk;
    }
}

/// Wall-clock milliseconds since the Unix epoch (same clock the trace
/// layer stamps spans with).
pub fn unix_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::tests::sources;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn sampler_thread_sweeps_collector_and_fires_transition_sink() {
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        let engine = ObsEngine::new(ObsConfig {
            sample_ms: 10,
            retention_s: 60,
            profile_hz: 0,
            slos: parse_slos("availability:0.999").unwrap(),
            sources: sources(),
            windows: BurnWindows {
                fast_ms: 500,
                slow_ms: 1_000,
                threshold: 14.4,
            },
        });
        let transitions = Arc::new(Mutex::new(Vec::new()));
        let t2 = Arc::clone(&transitions);
        engine.start(
            Box::new(move || {
                let n = c2.fetch_add(100, Ordering::Relaxed) + 100;
                let s = sources();
                // Every request fails.
                vec![(s.requests_total, n), (s.requests_5xx, n)]
            }),
            Some(Box::new(move |t: &SloTransition| {
                lock(&t2).push(t.clone());
            })),
        );
        // Wait for the alert to fire (needs >= 2 samples per window).
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let last = engine.slo().unwrap().last();
            if last.first().is_some_and(|s| s.firing) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "alert never fired: {last:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        engine.stop();
        let tr = lock(&transitions);
        assert!(!tr.is_empty());
        assert!(tr[0].firing);
        assert!(engine.tsdb().latest(&sources().requests_total).is_some());
    }

    #[test]
    fn profiler_thread_folds_exported_stacks() {
        let engine = ObsEngine::new(ObsConfig {
            sample_ms: 0,
            retention_s: 60,
            profile_hz: 200,
            slos: Vec::new(),
            sources: sources(),
            windows: BurnWindows::default(),
        });
        engine.start(Box::new(Vec::new), None);
        // A worker thread holding an Embed span under a recorded trace.
        let stop = Arc::new(AtomicBool::new(false));
        let s2 = Arc::clone(&stop);
        let worker = std::thread::spawn(move || {
            let trace = t2v_trace::Trace::start(0xABCD, true);
            let _scope = trace.scope();
            let _span = t2v_trace::span(t2v_trace::Stage::Embed);
            while !s2.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let text = engine.profile().render(10, unix_ms());
            if text.contains("request;embed") {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "no embed stack sampled; got: {text:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::Relaxed);
        worker.join().unwrap();
        engine.stop();
        assert!(!t2v_trace::stack_export_enabled(), "export off after stop");
    }
}
