//! The timed phase every workload shares: worker threads that attribute each
//! op to a window by the clock, and a coordinator that snapshots CPU at the
//! window boundaries.

use crate::procfs::{CpuDelta, CpuSnapshot};
use crate::stats::Window;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Windows of the timed phase, as the workers see them.
pub struct Clock {
    start: OnceLock<Instant>,
    window: Duration,
    windows: usize,
    stop: AtomicBool,
}

impl Clock {
    /// Which window an op that completed at `t` belongs to; `None` once the
    /// phase is over (the op that straddles the end is not counted).
    pub fn window_of(&self, t: Instant) -> Option<usize> {
        let k = (t.duration_since(self.start()).as_nanos() / self.window.as_nanos()) as usize;
        (k < self.windows && !self.stop.load(Ordering::Relaxed)).then_some(k)
    }

    pub fn start(&self) -> Instant {
        *self.start.get().expect("the coordinator sets the start")
    }
}

/// A worker's per-window log. Latency vectors are reserved up front so the
/// timed loop does not allocate.
pub struct WindowLog {
    pub windows: Vec<Window>,
}

impl WindowLog {
    pub fn new(windows: usize, reserve: usize) -> WindowLog {
        WindowLog {
            windows: (0..windows)
                .map(|_| Window {
                    latencies_ns: Vec::with_capacity(reserve),
                    ..Window::default()
                })
                .collect(),
        }
    }

    /// Count one op in window `k`; only successful ops carry a latency.
    pub fn record(&mut self, k: usize, ok: bool, latency_ns: u64) {
        let w = &mut self.windows[k];
        w.attempted += 1;
        if ok {
            w.latencies_ns.push(latency_ns);
        } else {
            w.failed += 1;
        }
    }
}

/// What the timed phase measured, workers merged.
pub struct Timed<T> {
    pub windows: Vec<Window>,
    /// CPU over the whole phase, split by thread group.
    pub cpu_total: CpuDelta,
    /// Each worker's own result, in worker order.
    pub workers: Vec<T>,
}

impl<T> Timed<T> {
    pub fn ok_ops(&self) -> u64 {
        self.windows.iter().map(Window::ok).sum()
    }
}

/// Run `workers` threads named `{name}-{id}` through `windows × window`.
/// Each first runs `prepare` (connect, warm up) off the clock; all then
/// start together and run `work` until [`Clock::window_of`] says the phase is
/// over. `work` returns its per-window log plus anything else.
pub fn run<P: Send, T: Send>(
    name: &str,
    workers: usize,
    windows: usize,
    window: Duration,
    prepare: impl Fn(usize) -> Result<P, String> + Sync,
    work: impl Fn(usize, P, &Clock) -> Result<(WindowLog, T), String> + Sync,
) -> Result<Timed<T>, String> {
    let clock = Clock {
        start: OnceLock::new(),
        window,
        windows,
        stop: AtomicBool::new(false),
    };
    let ready = Barrier::new(workers + 1);
    let go = Barrier::new(workers + 1);
    // Workers outlive the last snapshot: a thread that has exited is gone
    // from /proc, and its CPU would be charged to the program.
    let done = Barrier::new(workers + 1);
    let (results, snaps) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|id| {
                let (clock, ready, go, done) = (&clock, &ready, &go, &done);
                let (prepare, work) = (&prepare, &work);
                std::thread::Builder::new()
                    .name(format!("{name}-{id}"))
                    .spawn_scoped(scope, move || {
                        let prepared = prepare(id);
                        // A worker that failed to prepare still meets the
                        // others at the barriers, then reports.
                        ready.wait();
                        go.wait();
                        let out = prepared.and_then(|p| work(id, p, clock));
                        done.wait();
                        out
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        ready.wait();
        let mut snaps = vec![CpuSnapshot::take()];
        let start = Instant::now();
        clock.start.set(start).expect("set once");
        go.wait();
        for k in 1..=windows {
            std::thread::sleep(
                (start + window * k as u32).saturating_duration_since(Instant::now()),
            );
            snaps.push(CpuSnapshot::take());
        }
        clock.stop.store(true, Ordering::Relaxed);
        done.wait();
        let results: Vec<Result<(WindowLog, T), String>> = handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("worker thread panicked".to_string()))
            })
            .collect();
        (results, snaps)
    });
    let snaps: Vec<CpuSnapshot> = snaps
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| format!("/proc: {e}"))?;
    let cpu: Vec<CpuDelta> = snaps.windows(2).map(|w| w[1].since(&w[0])).collect();
    let mut merged: Vec<Window> = cpu
        .iter()
        .map(|c| Window {
            wall_ns: window.as_nanos() as u64,
            program_cpu_ns: c.program_ns(),
            ..Window::default()
        })
        .collect();
    let mut outs = Vec::with_capacity(workers);
    for r in results {
        let (log, out) = r?;
        for (into, from) in merged.iter_mut().zip(log.windows) {
            into.latencies_ns.extend(from.latencies_ns);
            into.attempted += from.attempted;
            into.failed += from.failed;
        }
        outs.push(out);
    }
    Ok(Timed {
        windows: merged,
        cpu_total: snaps[windows].since(&snaps[0]),
        workers: outs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_land_in_the_window_they_complete_in_and_the_phase_ends_on_time() {
        let window = Duration::from_millis(40);
        let t = Instant::now();
        let timed = run(
            "bench-test",
            2,
            3,
            window,
            |id| Ok(id as u64),
            |_, base, clock| {
                let mut log = WindowLog::new(3, 1024);
                let mut n = 0u64;
                loop {
                    std::thread::sleep(Duration::from_millis(2));
                    let Some(k) = clock.window_of(Instant::now()) else {
                        break;
                    };
                    log.record(k, !n.is_multiple_of(5), 2_000_000);
                    n += 1;
                }
                Ok((log, base + n))
            },
        )
        .unwrap();
        assert!(t.elapsed() >= window * 3 && t.elapsed() < window * 6);
        assert_eq!(timed.windows.len(), 3);
        for w in &timed.windows {
            assert!(w.attempted > 0 && w.failed > 0);
            assert_eq!(w.latencies_ns.len() as u64, w.ok());
            assert_eq!(w.wall_ns, 40_000_000);
        }
        let counted: u64 = timed.windows.iter().map(|w| w.attempted).sum();
        assert_eq!(counted + 1, timed.workers.iter().sum::<u64>());
    }

    #[test]
    fn a_worker_that_cannot_prepare_fails_the_phase_without_hanging_it() {
        let out = run(
            "bench-test",
            2,
            1,
            Duration::from_millis(10),
            |id| {
                if id == 1 {
                    Err("no route".to_string())
                } else {
                    Ok(())
                }
            },
            |_, (), _| Ok((WindowLog::new(1, 1), ())),
        );
        assert_eq!(out.err().as_deref(), Some("no route"));
    }
}
