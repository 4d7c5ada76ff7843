//! A sharded worker pool with bounded queues — the CPU stage of the server.
//!
//! Translation jobs are pushed here so the number of in-flight translations
//! is bounded no matter how many sockets are open. Each shard owns an
//! independent `Mutex<VecDeque>` + `Condvar` and a slice of the workers, so
//! queue contention divides by the shard count. Submission round-robins across shards and probes every shard
//! once before giving up; a full pool returns [`SubmitError::Overloaded`]
//! and the caller sheds load with a 503 instead of queueing unboundedly.

use crate::metrics::{Metrics, Scalar};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
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

/// A one-value rendezvous between a waiting thread and a worker.
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
    /// Every shard's queue is at capacity.
    Overloaded,
    /// The pool is shutting down.
    ShuttingDown,
}

struct Shard {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    capacity: usize,
}

struct PoolInner {
    shards: Vec<Shard>,
    shutdown: AtomicBool,
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
/// the workers (they park on their condvars until process exit), so call
/// `shutdown` for an orderly stop.
pub struct WorkerPool {
    shared: Arc<PoolInner>,
    next: AtomicUsize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawn `workers` threads over `shards` queues of `queue_capacity`
    /// each.
    pub fn new(
        workers: usize,
        shards: usize,
        queue_capacity: usize,
        metrics: Arc<Metrics>,
    ) -> WorkerPool {
        let workers = workers.max(1);
        let shards = shards.clamp(1, workers);
        let shared = Arc::new(PoolInner {
            shards: (0..shards)
                .map(|_| Shard {
                    queue: Mutex::new(VecDeque::with_capacity(queue_capacity.max(1))),
                    cv: Condvar::new(),
                    capacity: queue_capacity.max(1),
                })
                .collect(),
            shutdown: AtomicBool::new(false),
            metrics,
            counts: Default::default(),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("t2v-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w % shards))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            next: AtomicUsize::new(0),
            workers: Mutex::new(handles),
        }
    }

    /// Enqueue `job`, probing every shard once starting from the round-robin
    /// cursor. O(shards) worst case, lock-per-probe.
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
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        let shards = self.shared.shards.len();
        let start = self.next.fetch_add(1, Ordering::Relaxed);
        for probe in 0..shards {
            let shard = &self.shared.shards[(start + probe) % shards];
            let mut queue = lock(&shard.queue);
            if queue.len() < shard.capacity {
                queue.push_back(job);
                drop(queue);
                self.shared.metrics.inc(Scalar::QueueDepth);
                shard.cv.notify_one();
                return Ok(());
            }
        }
        Err(SubmitError::Overloaded)
    }

    /// Jobs waiting across all shards (observational; racy by nature).
    pub fn queue_depth(&self) -> usize {
        self.shared
            .shards
            .iter()
            .map(|s| lock(&s.queue).len())
            .sum()
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
        self.shared.shutdown.store(true, Ordering::Release);
        for shard in &self.shared.shards {
            shard.cv.notify_all();
        }
        for h in lock(&self.workers).drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &PoolInner, home: usize) {
    let shards = shared.shards.len();
    let shard = &shared.shards[home];
    loop {
        // Fast path: wait on the home shard. If it stays empty briefly, steal
        // a job from any other shard so one hot shard can't starve while
        // other workers idle.
        let job = {
            let mut queue = lock(&shard.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let (q, timeout) = shard
                    .cv
                    .wait_timeout(queue, Duration::from_millis(5))
                    .unwrap_or_else(|e| e.into_inner());
                queue = q;
                if timeout.timed_out() {
                    drop(queue);
                    if let Some(job) = steal(shared, home, shards) {
                        break job;
                    }
                    queue = lock(&shard.queue);
                }
            }
        };
        let depth = shared.metrics.scalar(Scalar::QueueDepth);
        depth.fetch_sub(1, Ordering::Relaxed);
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
/// one) nor the server: it is caught and counted. Pool and dispatch jobs
/// and the loop's inline stage run this way.
pub(crate) fn contained<T>(metrics: &Metrics, f: impl FnOnce() -> T) -> Option<T> {
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok();
    if caught.is_none() {
        metrics.inc(Scalar::WorkerPanics);
    }
    caught
}

fn steal(shared: &PoolInner, home: usize, shards: usize) -> Option<Job> {
    for probe in 1..shards {
        let shard = &shared.shards[(home + probe) % shards];
        if let Some(job) = lock(&shard.queue).pop_front() {
            return Some(job);
        }
    }
    None
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

    #[test]
    fn overload_is_deterministic_when_workers_are_blocked() {
        // 1 worker, 1 shard, queue of 2. Gate the worker so nothing drains.
        let p = pool(1, 1, 2);
        let gate = Arc::new(Barrier::new(2));
        let started = OneShot::new();
        {
            let gate = Arc::clone(&gate);
            let started = started.clone();
            p.submit(move || {
                started.send(());
                gate.wait();
            })
            .unwrap();
        }
        // Wait until the worker is inside the gated job, then fill the queue.
        started.recv_timeout(Duration::from_secs(5)).unwrap();
        p.submit(|| {}).unwrap();
        p.submit(|| {}).unwrap();
        assert_eq!(p.queue_depth(), 2);
        assert_eq!(p.submit(|| {}).unwrap_err(), SubmitError::Overloaded);
        gate.wait(); // release the worker
        p.shutdown();
    }

    #[test]
    fn workers_steal_across_shards() {
        // 2 workers × 2 shards; saturate shard 0 only — worker 1 (home
        // shard 1) must steal or the jobs take twice as long.
        let p = pool(2, 2, 64);
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..32 {
            let done = Arc::clone(&done);
            // Both submissions round-robin, so both shards get work; the
            // stealing path is exercised by the uneven finish order.
            p.submit(move || {
                std::thread::sleep(Duration::from_micros(200));
                done.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while done.load(Ordering::Relaxed) < 32 {
            assert!(std::time::Instant::now() < deadline, "jobs never finished");
            std::thread::sleep(Duration::from_millis(1));
        }
        p.shutdown();
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
