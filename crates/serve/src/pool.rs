//! A bounded worker pool — the CPU stage of the server.
//!
//! Named threads run jobs from one `Mutex<VecDeque>` + `Condvar` queue,
//! each job under [`contained`]. Translation jobs are pushed here so the
//! number of in-flight translations is bounded no matter how many sockets
//! are open: a full queue returns [`SubmitError::Overloaded`] and the
//! caller sheds load with a 503 instead of queueing unboundedly. The same
//! workers run the admin routes that build, drop or write (DESIGN.md §7).

use crate::metrics::{Metrics, Scalar};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

type Job = Box<dyn FnOnce() -> JobEnd + Send + 'static>;

/// How a job ended, for the pool's counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum JobEnd {
    /// It ran (a panic that escaped it included).
    Completed,
    /// It found its deadline spent and answered without running.
    Expired,
}

/// A one-value rendezvous between a waiting thread and a worker. Nothing
/// the server serves waits on one; tests and benchmark probes do.
pub struct OneShot<T> {
    inner: Arc<(Mutex<Option<T>>, Condvar)>,
}

impl<T> Clone for OneShot<T> {
    fn clone(&self) -> Self {
        OneShot {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> OneShot<T> {
    pub fn new() -> Self {
        OneShot {
            inner: Arc::new((Mutex::new(None), Condvar::new())),
        }
    }

    pub fn send(&self, value: T) {
        let (slot, cv) = &*self.inner;
        *lock(slot) = Some(value);
        cv.notify_all();
    }

    /// Block until a value arrives or `timeout` elapses.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<T> {
        let (slot, cv) = &*self.inner;
        let (mut guard, _) = cv
            .wait_timeout_while(lock(slot), timeout, |value| value.is_none())
            .unwrap_or_else(|e| e.into_inner());
        guard.take()
    }
}

impl<T> Default for OneShot<T> {
    fn default() -> Self {
        OneShot::new()
    }
}

#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity.
    Overloaded,
    /// The pool is shutting down.
    ShuttingDown,
}

/// The queue and the shutdown flag, under one lock: a worker checks the
/// flag and waits without a timeout, and cannot miss it being raised.
#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolInner {
    queue: Mutex<Queue>,
    cv: Condvar,
    capacity: usize,
    metrics: Arc<Metrics>,
    /// Jobs `submitted`, `completed`, `rejected` by `submit` and `expired`,
    /// in [`COUNTS`] order. Quiet, `submitted == completed + expired`.
    counts: [AtomicU64; 4],
}

/// The names of the pool's job counts, as `/v1/admin/status` reports them.
pub(crate) const COUNTS: [&str; 4] = ["submitted", "completed", "rejected", "expired"];
const SUBMITTED: usize = 0;
const COMPLETED: usize = 1;
const REJECTED: usize = 2;
const EXPIRED: usize = 3;

/// The pool handle. Dropping it without [`WorkerPool::shutdown`] detaches
/// the workers (they park on the condvar until process exit), so call
/// `shutdown` for an orderly stop.
pub struct WorkerPool {
    shared: Arc<PoolInner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawn `workers` threads named `t2v-worker-{i}` over one queue
    /// bounded at `shards` (clamped to `1..=workers`) × `queue_capacity`
    /// jobs. The server passes `ServeConfig::effective_shards`, one per
    /// four workers.
    pub fn new(
        workers: usize,
        shards: usize,
        queue_capacity: usize,
        metrics: Arc<Metrics>,
    ) -> WorkerPool {
        let workers = workers.max(1);
        let capacity = shards
            .clamp(1, workers)
            .saturating_mul(queue_capacity.max(1));
        let shared = Arc::new(PoolInner {
            queue: Mutex::default(),
            cv: Condvar::new(),
            capacity,
            metrics,
            counts: Default::default(),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("t2v-worker-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool thread")
            })
            .collect();
        WorkerPool {
            shared,
            workers: Mutex::new(handles),
        }
    }

    /// Enqueue `job`, or refuse it at once.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> Result<(), SubmitError> {
        self.submit_job(move || {
            job();
            JobEnd::Completed
        })
    }

    /// [`WorkerPool::submit`] for a job that says how it ended.
    pub(crate) fn submit_job(
        &self,
        job: impl FnOnce() -> JobEnd + Send + 'static,
    ) -> Result<(), SubmitError> {
        let refused = self.offer(Box::new(job));
        let count = if refused.is_ok() { SUBMITTED } else { REJECTED };
        self.shared.counts[count].fetch_add(1, Ordering::Relaxed);
        refused
    }

    fn offer(&self, job: Job) -> Result<(), SubmitError> {
        let mut queue = lock(&self.shared.queue);
        if queue.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if queue.jobs.len() >= self.shared.capacity {
            return Err(SubmitError::Overloaded);
        }
        queue.jobs.push_back(job);
        drop(queue);
        self.shared.cv.notify_one();
        Ok(())
    }

    /// Jobs waiting (observational; racy by nature).
    pub fn queue_depth(&self) -> usize {
        lock(&self.shared.queue).jobs.len()
    }

    /// The most jobs the queue holds.
    pub(crate) fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// The job counts, named as in [`COUNTS`] (observational; racy).
    pub(crate) fn counts(&self) -> [u64; 4] {
        self.shared
            .counts
            .each_ref()
            .map(|c| c.load(Ordering::Relaxed))
    }

    /// Stop accepting jobs and join the workers. Queued jobs that already
    /// made it in are still executed. `&self` so a pool shared behind an
    /// `Arc` can be stopped in place; idempotent.
    pub fn shutdown(&self) {
        lock(&self.shared.queue).shutdown = true;
        self.shared.cv.notify_all();
        for h in lock(&self.workers).drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolInner) {
    loop {
        let job = {
            let mut queue = lock(&shared.queue);
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.cv.wait(queue).unwrap_or_else(|e| e.into_inner());
            }
        };
        let end = contained(&shared.metrics, job);
        let count = if end == Some(JobEnd::Expired) {
            EXPIRED
        } else {
            COMPLETED
        };
        shared.counts[count].fetch_add(1, Ordering::Relaxed);
    }
}

/// Run `f` so that a panic takes down neither the thread (nothing respawns
/// one) nor the server: it is caught and counted. Pool jobs and the
/// loop's inline stage run this way.
pub(crate) fn contained<T>(metrics: &Metrics, f: impl FnOnce() -> T) -> Option<T> {
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok();
    if caught.is_none() {
        metrics.inc(Scalar::WorkerPanics);
    }
    caught
}

/// Poison-transparent lock: a panicking job poisons nothing we can't use —
/// the queue itself is always structurally valid.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Barrier;

    fn pool(workers: usize, shards: usize, cap: usize) -> WorkerPool {
        WorkerPool::new(workers, shards, cap, Arc::new(Metrics::with_backends(&[])))
    }

    #[test]
    fn executes_submitted_jobs() {
        // Queue capacity covers every job: workers may not drain at all
        // before the submit loop finishes on a single-core host.
        let p = pool(4, 2, 64);
        let counter = Arc::new(AtomicU64::new(0));
        let slots: Vec<OneShot<u64>> = (0..64).map(|_| OneShot::new()).collect();
        for (i, slot) in slots.iter().enumerate() {
            let counter = Arc::clone(&counter);
            let slot = slot.clone();
            p.submit(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                slot.send(i as u64);
            })
            .unwrap();
        }
        for (i, slot) in slots.iter().enumerate() {
            assert_eq!(slot.recv_timeout(Duration::from_secs(5)), Some(i as u64));
        }
        assert_eq!(counter.load(Ordering::Relaxed), 64);
        p.shutdown();
    }

    /// Gate every worker so nothing drains, then fill the queue: exactly
    /// `shards.clamp(1, workers) × queue_capacity` jobs wait, and the next
    /// is refused.
    #[test]
    fn overload_is_deterministic_when_workers_are_blocked() {
        // (workers, shards, queue_capacity) → jobs that queue.
        for (workers, shards, cap, queued) in [(1, 1, 2, 2), (5, 2, 2, 4)] {
            let p = pool(workers, shards, cap);
            let gate = Arc::new(Barrier::new(workers + 1));
            for _ in 0..workers {
                let (gate, started) = (Arc::clone(&gate), OneShot::new());
                let seen = started.clone();
                p.submit(move || {
                    started.send(());
                    gate.wait();
                })
                .unwrap();
                // Inside the gated job before the next one is offered.
                seen.recv_timeout(Duration::from_secs(5)).unwrap();
            }
            for _ in 0..queued {
                p.submit(|| {}).unwrap();
            }
            assert_eq!(p.queue_depth(), queued);
            assert_eq!(p.submit(|| {}).unwrap_err(), SubmitError::Overloaded);
            gate.wait(); // release the workers
            p.shutdown();
        }
    }

    /// Idle workers wait on the condvar without a timeout: `shutdown` must
    /// wake every one of them.
    #[test]
    fn shutdown_wakes_idle_workers() {
        let p = Arc::new(pool(4, 1, 8));
        // Let the workers reach their wait.
        std::thread::sleep(Duration::from_millis(20));
        let joined = OneShot::new();
        {
            let (p, joined) = (Arc::clone(&p), joined.clone());
            std::thread::spawn(move || {
                p.shutdown();
                joined.send(());
            });
        }
        let woke = joined.recv_timeout(Duration::from_secs(1));
        assert!(woke.is_some(), "shutdown left an idle worker waiting");
    }

    #[test]
    fn shutdown_rejects_new_jobs_but_runs_queued_ones() {
        let p = pool(1, 1, 8);
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..4 {
            let done = Arc::clone(&done);
            p.submit(move || {
                done.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        p.shutdown();
        assert_eq!(done.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn panicking_jobs_do_not_kill_workers() {
        let metrics = Arc::new(Metrics::with_backends(&[]));
        let p = WorkerPool::new(1, 1, 8, Arc::clone(&metrics));
        // Several panicking jobs in a row on the single worker…
        for _ in 0..3 {
            p.submit(|| panic!("job blew up")).unwrap();
        }
        // …and the same worker must still execute real work afterwards.
        let slot = OneShot::new();
        {
            let slot = slot.clone();
            p.submit(move || slot.send(42u64)).unwrap();
        }
        assert_eq!(slot.recv_timeout(Duration::from_secs(5)), Some(42));
        assert_eq!(metrics.get(Scalar::WorkerPanics), 3);
        p.shutdown();
    }

    /// Every job the pool takes ends counted once, as run or as expired;
    /// a refused one is counted apart and never runs.
    #[test]
    fn job_counts_conserve_what_was_submitted() {
        let p = pool(1, 1, 1);
        let gate = Arc::new(Barrier::new(2));
        let started = OneShot::new();
        {
            let (gate, started) = (Arc::clone(&gate), started.clone());
            p.submit(move || {
                started.send(());
                gate.wait();
            })
            .unwrap();
        }
        started.recv_timeout(Duration::from_secs(5)).unwrap();
        p.submit_job(|| JobEnd::Expired).unwrap();
        assert_eq!(p.submit(|| {}), Err(SubmitError::Overloaded));
        gate.wait();
        p.shutdown();
        let counts: Vec<(&str, u64)> = COUNTS.into_iter().zip(p.counts()).collect();
        assert_eq!(
            counts,
            [
                ("submitted", 2),
                ("completed", 1),
                ("rejected", 1),
                ("expired", 1)
            ]
        );
    }

    #[test]
    fn oneshot_timeout_expires_empty() {
        let slot: OneShot<()> = OneShot::new();
        assert_eq!(slot.recv_timeout(Duration::from_millis(10)), None);
    }
}
