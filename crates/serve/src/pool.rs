//! A sharded worker pool with bounded queues — the CPU stage of the server.
//!
//! Connection threads do the blocking I/O; translation jobs are pushed here
//! so the number of in-flight translations is bounded no matter how many
//! sockets are open. Each shard owns an independent `Mutex<VecDeque>` +
//! `Condvar` and a slice of the workers, so queue contention divides by the
//! shard count. Submission round-robins across shards and probes every shard
//! once before giving up; a full pool returns [`SubmitError::Overloaded`]
//! and the caller sheds load with a 503 instead of queueing unboundedly.

use crate::metrics::{Metrics, Scalar};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A one-value rendezvous between a connection thread and a worker.
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
        let mut guard = lock(slot);
        let deadline = std::time::Instant::now() + timeout;
        while guard.is_none() {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return None;
            }
            let (g, _) = cv.wait_timeout(guard, left).unwrap_or_else(|e| {
                let (g, t) = e.into_inner();
                (g, t)
            });
            guard = g;
        }
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
    /// Every shard's queue is at capacity, or the submitting class has
    /// exhausted its weighted share of the pool.
    Overloaded,
    /// The pool is shutting down.
    ShuttingDown,
}

struct Shard {
    queue: Mutex<VecDeque<Job>>,
    cv: Condvar,
    capacity: usize,
}

/// Weighted admission budget for one submission class (one per backend in
/// the serving layer): at most `max` jobs of the class may be in the system
/// (queued or executing) at once, so a flood of cheap-backend traffic can
/// never squeeze the heavy backends out of the pool — shares are
/// proportional to the configured weights.
struct ClassBudget {
    in_flight: AtomicUsize,
    max: usize,
}

struct PoolShared {
    shards: Vec<Shard>,
    /// Per-class budgets; empty ⇒ no class-level admission control.
    classes: Vec<ClassBudget>,
    shutdown: AtomicBool,
    metrics: Arc<Metrics>,
}

/// Decrements a class's in-flight count when its job finishes (or is
/// dropped un-run: rejected submission, shutdown drain, worker panic — the
/// `Drop` runs in every case, so budgets can never leak).
struct InFlightGuard {
    shared: Arc<PoolShared>,
    class: usize,
}

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.shared.classes[self.class]
            .in_flight
            .fetch_sub(1, Ordering::AcqRel);
    }
}

/// The pool handle. Dropping it without [`WorkerPool::shutdown`] detaches
/// the workers (they park on their condvars until process exit), so call
/// `shutdown` for an orderly stop.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    next: AtomicUsize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawn `workers` threads over `shards` queues of `queue_capacity`
    /// each, with no class-level admission control.
    pub fn new(
        workers: usize,
        shards: usize,
        queue_capacity: usize,
        metrics: Arc<Metrics>,
    ) -> WorkerPool {
        WorkerPool::new_weighted(workers, shards, queue_capacity, &[], metrics)
    }

    /// [`WorkerPool::new`] with weighted submission classes: class `i` may
    /// hold at most `max(1, ⌊total · wᵢ / Σw⌋)` jobs in the system at once,
    /// where `total` is every queue slot plus every worker. Pass an empty
    /// slice for an unclassed pool.
    pub fn new_weighted(
        workers: usize,
        shards: usize,
        queue_capacity: usize,
        class_weights: &[u32],
        metrics: Arc<Metrics>,
    ) -> WorkerPool {
        let workers = workers.max(1);
        let shards = shards.clamp(1, workers);
        let total_slots = shards * queue_capacity.max(1) + workers;
        let weight_sum: u64 = class_weights.iter().map(|&w| w.max(1) as u64).sum();
        let shared = Arc::new(PoolShared {
            shards: (0..shards)
                .map(|_| Shard {
                    queue: Mutex::new(VecDeque::with_capacity(queue_capacity.max(1))),
                    cv: Condvar::new(),
                    capacity: queue_capacity.max(1),
                })
                .collect(),
            classes: class_weights
                .iter()
                .map(|&w| ClassBudget {
                    in_flight: AtomicUsize::new(0),
                    max: ((total_slots as u64 * w.max(1) as u64 / weight_sum.max(1)) as usize)
                        .max(1),
                })
                .collect(),
            shutdown: AtomicBool::new(false),
            metrics,
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
        self.enqueue(Box::new(job))
    }

    /// [`WorkerPool::submit`] under class `class`'s weighted budget. If the
    /// class is at its share, the job is shed with
    /// [`SubmitError::Overloaded`] even while other classes' slots are
    /// free. Classes beyond the configured weight vector (or any class on
    /// an unclassed pool) bypass admission control.
    pub fn submit_classed(
        &self,
        class: usize,
        job: impl FnOnce() + Send + 'static,
    ) -> Result<(), SubmitError> {
        let Some(budget) = self.shared.classes.get(class) else {
            return self.submit(job);
        };
        if budget.in_flight.fetch_add(1, Ordering::AcqRel) >= budget.max {
            budget.in_flight.fetch_sub(1, Ordering::AcqRel);
            return Err(SubmitError::Overloaded);
        }
        let guard = InFlightGuard {
            shared: Arc::clone(&self.shared),
            class,
        };
        // The guard rides inside the job: whether it runs, panics, or is
        // dropped unexecuted, the slot is released exactly once.
        self.enqueue(Box::new(move || {
            let _guard = guard;
            job();
        }))
    }

    /// The weighted in-system budget of `class`, if the pool is classed.
    pub fn class_share(&self, class: usize) -> Option<usize> {
        self.shared.classes.get(class).map(|c| c.max)
    }

    fn enqueue(&self, job: Job) -> Result<(), SubmitError> {
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

fn worker_loop(shared: &PoolShared, home: usize) {
    let shards = shared.shards.len();
    loop {
        // Fast path: wait on the home shard. If it stays empty briefly, steal
        // a job from any other shard so one hot shard can't starve while
        // other workers idle.
        let job = {
            let shard = &shared.shards[home];
            let mut queue = lock(&shard.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                let (q, timeout) = shard
                    .cv
                    .wait_timeout(queue, Duration::from_millis(5))
                    .unwrap_or_else(|e| e.into_inner());
                queue = q;
                if timeout.timed_out() {
                    drop(queue);
                    if let Some(job) = steal(shared, home, shards) {
                        break Some(job);
                    }
                    queue = lock(&shard.queue);
                }
            }
        };
        match job {
            Some(job) => {
                let depth = shared.metrics.scalar(Scalar::QueueDepth);
                depth.fetch_sub(1, Ordering::Relaxed);
                // A panicking job must not take the worker with it: with no
                // respawn, `workers` panics would silently drain the pool to
                // zero and wedge the server. Unwinding drops the job's
                // captured state, which is where fail-fast lives: the
                // serving layer rides a reply guard inside every job, so the
                // drop fulfils the caller's OneShot with a structured
                // `internal` error immediately instead of leaving the
                // connection thread to time out.
                if std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).is_err() {
                    shared.metrics.inc(Scalar::WorkerPanics);
                }
            }
            None => return,
        }
    }
}

fn steal(shared: &PoolShared, home: usize, shards: usize) -> Option<Job> {
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

    #[test]
    fn weighted_classes_get_proportional_shares() {
        // 2 workers + 2 shards × 8 slots = 18 in-system slots; weights 4:1
        // and 1:1 splits.
        let p = WorkerPool::new_weighted(2, 2, 8, &[4, 1], Arc::new(Metrics::with_backends(&[])));
        assert_eq!(p.class_share(0), Some((18 * 4) / 5)); // 14
        assert_eq!(p.class_share(1), Some(18 / 5).map(|s: usize| s.max(1))); // 3
        assert_eq!(p.class_share(2), None, "unknown class is unbudgeted");
        p.shutdown();

        // Tiny pools still give every class at least one slot.
        let p = WorkerPool::new_weighted(
            1,
            1,
            1,
            &[1, 1_000_000],
            Arc::new(Metrics::with_backends(&[])),
        );
        assert_eq!(p.class_share(0), Some(1));
        p.shutdown();
    }

    #[test]
    fn saturated_class_sheds_while_other_classes_still_run() {
        // One gated worker; class 0 budget is 1 of the 5 in-system slots,
        // class 1 gets the rest.
        let p = WorkerPool::new_weighted(1, 1, 4, &[1, 4], Arc::new(Metrics::with_backends(&[])));
        assert_eq!(p.class_share(0), Some(1));
        assert_eq!(p.class_share(1), Some(4));
        let gate = Arc::new(Barrier::new(2));
        let started = OneShot::new();
        {
            let gate = Arc::clone(&gate);
            let started = started.clone();
            p.submit_classed(0, move || {
                started.send(());
                gate.wait();
            })
            .unwrap();
        }
        started.recv_timeout(Duration::from_secs(5)).unwrap();
        // Class 0 is now at its share: more class-0 work is shed…
        assert_eq!(
            p.submit_classed(0, || {}).unwrap_err(),
            SubmitError::Overloaded
        );
        // …while class 1 still has queue room.
        let done = OneShot::new();
        {
            let done = done.clone();
            p.submit_classed(1, move || done.send(42u64)).unwrap();
        }
        gate.wait();
        assert_eq!(done.recv_timeout(Duration::from_secs(5)), Some(42));
        // The finished class-0 job released its slot: admission works again.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match p.submit_classed(0, || {}) {
                Ok(()) => break,
                Err(SubmitError::Overloaded) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("class slot never released: {e:?}"),
            }
        }
        p.shutdown();
    }

    #[test]
    fn panicking_classed_jobs_release_their_budget() {
        let p = WorkerPool::new_weighted(1, 1, 4, &[1, 1], Arc::new(Metrics::with_backends(&[])));
        let share = p.class_share(0).unwrap();
        for _ in 0..share {
            // Serialise: wait for each panic to be processed so the budget
            // check below races nothing.
            p.submit_classed(0, || panic!("boom")).unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let slot = OneShot::new();
            let s = slot.clone();
            match p.submit_classed(0, move || s.send(1u64)) {
                Ok(()) => {
                    assert_eq!(slot.recv_timeout(Duration::from_secs(5)), Some(1));
                    break;
                }
                Err(SubmitError::Overloaded) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(e) => panic!("panicked jobs leaked budget: {e:?}"),
            }
        }
        p.shutdown();
    }

    #[test]
    fn oneshot_timeout_expires_empty() {
        let slot: OneShot<()> = OneShot::new();
        assert_eq!(slot.recv_timeout(Duration::from_millis(10)), None);
    }
}
