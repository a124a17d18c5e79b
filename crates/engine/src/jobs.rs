//! A job-queue-shaped asynchronous submission API around the engine.
//!
//! [`ReplayEngine`] is synchronous by design: callers hand it a trace and
//! a bank and block until the tallies come back. A long-lived service
//! (`repro serve`) needs the opposite shape — accept a request now,
//! compute it later, and *refuse* work when the backlog is full rather
//! than queueing without bound. [`JobQueue`] provides that shape as a
//! bounded queue in front of a fixed pool of worker threads:
//!
//! * [`JobQueue::try_submit`] never blocks: it either enqueues the job
//!   and returns a [`JobTicket`] for its result, or reports
//!   [`SubmitError::QueueFull`] — the admission-control signal a server
//!   turns into a structured reject frame.
//! * Jobs are arbitrary `FnOnce() -> T` closures, so one queue can serve
//!   heterogeneous work (each `repro serve` job internally fans out on a
//!   [`ReplayEngine`], which owns the data parallelism; the queue only
//!   bounds how many jobs run concurrently).
//! * A job that panics poisons nothing: the panic is caught, the worker
//!   survives, and the job's ticket reports `None`.
//! * Dropping the queue is a graceful shutdown — already-queued jobs
//!   still run; only new submissions are refused.
//!
//! The module also owns the **engine epoch** ([`engine_epoch`]): a
//! build-time fingerprint of the predictor-semantics surface that
//! long-lived services fold into every persisted result-cache key, so a
//! daemon restarted on a binary with different semantics can never serve
//! bytes rendered by the old one.
//!
//! # Examples
//!
//! ```
//! use dvp_engine::JobQueue;
//!
//! let queue = JobQueue::new(2, 16);
//! let tickets: Vec<_> =
//!     (0..4u64).map(|i| queue.try_submit(move || i * i).expect("queue has room")).collect();
//! let squares: Vec<Option<u64>> = tickets.into_iter().map(JobTicket::wait).collect();
//! assert_eq!(squares, vec![Some(0), Some(1), Some(4), Some(9)]);
//! # use dvp_engine::JobTicket;
//! ```

use crate::ReplayEngine;
use dvp_trace::{fnv1a64, Fnv};
use std::collections::VecDeque;
use std::fmt;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// The compiled-in predictor-semantics revision.
///
/// Bump this constant whenever a change alters what any predictor,
/// tally, or rendered experiment output *means* — i.e. whenever the
/// committed goldens change. It is folded (together with the crate
/// versions) into [`compiled_epoch`], which versions every persisted
/// result-cache entry: bumping it makes every daemon and one-shot run
/// treat previously cached results as stale and recompute them.
pub const SEMANTICS_REVISION: u64 = 1;

/// Environment variable that overrides [`engine_epoch`].
///
/// Accepts a decimal `u64`, a `0x`-prefixed hex `u64`, or any other
/// string (which is hashed to a distinct epoch). Intended for tests and
/// CI to simulate "restarted on a different binary" without rebuilding;
/// production deployments should leave it unset.
pub const ENGINE_EPOCH_ENV: &str = "DVP_ENGINE_EPOCH";

/// The epoch baked into this binary: an FNV-1a 64 fingerprint of the
/// predictor-semantics surface — the `dvp-core` and `dvp-engine` crate
/// versions plus [`SEMANTICS_REVISION`]. Two binaries share a compiled
/// epoch exactly when their predictor semantics are interchangeable.
#[must_use]
pub fn compiled_epoch() -> u64 {
    let mut fnv = Fnv::new();
    fnv.update(b"dvp-core ");
    fnv.update(dvp_core::VERSION.as_bytes());
    fnv.update(b"\ndvp-engine ");
    fnv.update(env!("CARGO_PKG_VERSION").as_bytes());
    fnv.update(b"\nsemantics-revision ");
    fnv.update(&SEMANTICS_REVISION.to_le_bytes());
    fnv.finish()
}

/// The effective engine epoch: [`compiled_epoch`] unless
/// [`ENGINE_EPOCH_ENV`] is set, in which case the override is parsed as
/// decimal or `0x`-hex (any other value is hashed, so *every* distinct
/// override names a distinct epoch). Read at call time, not cached.
#[must_use]
pub fn engine_epoch() -> u64 {
    match std::env::var(ENGINE_EPOCH_ENV) {
        Ok(text) => parse_epoch_override(&text),
        Err(_) => compiled_epoch(),
    }
}

fn parse_epoch_override(text: &str) -> u64 {
    let trimmed = text.trim();
    if let Ok(n) = trimmed.parse::<u64>() {
        return n;
    }
    if let Some(hex) = trimmed.strip_prefix("0x").or_else(|| trimmed.strip_prefix("0X")) {
        if let Ok(n) = u64::from_str_radix(hex, 16) {
            return n;
        }
    }
    fnv1a64(trimmed.as_bytes())
}

/// A queued unit of work (the result channel is captured inside).
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Why [`JobQueue::try_submit`] refused a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The pending queue already holds `capacity` jobs. Retry later, or
    /// surface the rejection to the submitter (admission control).
    QueueFull {
        /// The queue's configured capacity.
        capacity: usize,
    },
    /// The queue is shutting down and accepts no new work.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            SubmitError::ShuttingDown => write!(f, "queue is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A handle to one submitted job's eventual result.
#[derive(Debug)]
pub struct JobTicket<T> {
    receiver: mpsc::Receiver<T>,
}

impl<T> JobTicket<T> {
    /// Blocks until the job completes and returns its result. `None`
    /// means the job panicked or was discarded before it could run.
    #[must_use]
    pub fn wait(self) -> Option<T> {
        self.receiver.recv().ok()
    }

    /// Like [`JobTicket::wait`], but gives up after `timeout`. `None`
    /// means timeout, panic, or a discarded job — callers that must
    /// distinguish should keep the ticket and retry.
    #[must_use]
    pub fn wait_timeout(&self, timeout: Duration) -> Option<T> {
        self.receiver.recv_timeout(timeout).ok()
    }
}

/// State shared between submitters and workers, guarded by one mutex.
struct QueueState {
    pending: VecDeque<Job>,
    running: usize,
    shutdown: bool,
}

struct QueueShared {
    state: Mutex<QueueState>,
    /// Signaled when a job is pushed or shutdown begins (workers wait).
    work: Condvar,
    /// Signaled when a job finishes (idle-waiters wait).
    idle: Condvar,
}

/// A bounded job queue over a fixed pool of worker threads — the
/// admission-controlled submission surface in front of a [`ReplayEngine`].
pub struct JobQueue {
    shared: Arc<QueueShared>,
    capacity: usize,
    workers: Vec<thread::JoinHandle<()>>,
}

impl fmt::Debug for JobQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobQueue")
            .field("workers", &self.workers.len())
            .field("capacity", &self.capacity)
            .field("queued", &self.queued())
            .field("running", &self.running())
            .finish()
    }
}

impl JobQueue {
    /// A queue served by `workers` threads (clamped to at least 1) that
    /// admits at most `capacity` *pending* (queued, not yet running)
    /// jobs. `capacity` 0 is a valid drain/reject-everything
    /// configuration: every submission is refused.
    #[must_use]
    pub fn new(workers: usize, capacity: usize) -> JobQueue {
        let shared = Arc::new(QueueShared {
            state: Mutex::new(QueueState { pending: VecDeque::new(), running: 0, shutdown: false }),
            work: Condvar::new(),
            idle: Condvar::new(),
        });
        let workers = (0..workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || JobQueue::worker_loop(&shared))
            })
            .collect();
        JobQueue { shared, capacity, workers }
    }

    fn worker_loop(shared: &QueueShared) {
        loop {
            let job = {
                let mut state = shared.state.lock().expect("queue mutex never poisoned");
                loop {
                    if let Some(job) = state.pending.pop_front() {
                        state.running += 1;
                        break job;
                    }
                    if state.shutdown {
                        return;
                    }
                    state = shared.work.wait(state).expect("queue mutex never poisoned");
                }
            };
            // A panicking job must not kill the worker: catch it, drop the
            // payload (the ticket's sender dies with the closure, so the
            // submitter observes `None`), and keep serving.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            let mut state = shared.state.lock().expect("queue mutex never poisoned");
            state.running -= 1;
            drop(state);
            shared.idle.notify_all();
        }
    }

    /// The maximum number of pending jobs.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs admitted but not yet started.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.shared.state.lock().expect("queue mutex never poisoned").pending.len()
    }

    /// Jobs currently executing on a worker.
    #[must_use]
    pub fn running(&self) -> usize {
        self.shared.state.lock().expect("queue mutex never poisoned").running
    }

    /// Submits a job without blocking: on admission the job will run on
    /// some worker and its result can be claimed through the returned
    /// [`JobTicket`].
    ///
    /// # Errors
    ///
    /// [`SubmitError::QueueFull`] when `capacity` jobs are already
    /// pending (running jobs do not count — they occupy workers, not
    /// queue slots), [`SubmitError::ShuttingDown`] after shutdown began.
    pub fn try_submit<T, F>(&self, job: F) -> Result<JobTicket<T>, SubmitError>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (sender, receiver) = mpsc::channel();
        let mut state = self.shared.state.lock().expect("queue mutex never poisoned");
        if state.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        if state.pending.len() >= self.capacity {
            return Err(SubmitError::QueueFull { capacity: self.capacity });
        }
        state.pending.push_back(Box::new(move || {
            let _ = sender.send(job());
        }));
        drop(state);
        self.shared.work.notify_one();
        Ok(JobTicket { receiver })
    }

    /// Blocks until no job is pending or running, or until `timeout`
    /// elapses; reports whether the queue went idle. Jobs submitted
    /// *after* the queue goes momentarily idle are not waited for.
    #[must_use]
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.shared.state.lock().expect("queue mutex never poisoned");
        while !(state.pending.is_empty() && state.running == 0) {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (next, _) = self
                .shared
                .idle
                .wait_timeout(state, deadline - now)
                .expect("queue mutex never poisoned");
            state = next;
        }
        true
    }
}

impl Drop for JobQueue {
    /// Graceful shutdown: already-pending jobs still run (workers drain
    /// the queue before exiting), new submissions are refused, and every
    /// worker thread is joined.
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("queue mutex never poisoned");
            state.shutdown = true;
        }
        self.shared.work.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl ReplayEngine {
    /// A [`JobQueue`] sized to this engine: one worker thread per engine
    /// worker, admitting at most `capacity` pending jobs. Each job may
    /// itself fan out on the engine, so a server typically wants fewer
    /// queue workers than cores — pass an explicit count to
    /// [`JobQueue::new`] for that.
    #[must_use]
    pub fn job_queue(&self, capacity: usize) -> JobQueue {
        JobQueue::new(self.workers(), capacity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn results_come_back_per_ticket() {
        let queue = JobQueue::new(3, 64);
        let tickets: Vec<JobTicket<usize>> =
            (0..20).map(|i| queue.try_submit(move || i * 2).expect("room")).collect();
        let results: Vec<Option<usize>> = tickets.into_iter().map(JobTicket::wait).collect();
        assert_eq!(results, (0..20).map(|i| Some(i * 2)).collect::<Vec<_>>());
    }

    #[test]
    fn capacity_bounds_pending_jobs_deterministically() {
        // One worker, blocked on a gate: the running job occupies no queue
        // slot, so exactly `capacity` more jobs are admitted.
        let queue = JobQueue::new(1, 2);
        let (gate_tx, gate_rx) = channel::<()>();
        let blocker = queue
            .try_submit(move || {
                gate_rx.recv().expect("gate opens");
                0u32
            })
            .expect("first job admitted");
        // Wait until the blocker actually occupies the worker (queued
        // would otherwise absorb one admission).
        while queue.running() == 0 {
            std::thread::yield_now();
        }
        let a = queue.try_submit(|| 1u32).expect("slot 1");
        let b = queue.try_submit(|| 2u32).expect("slot 2");
        let refused = queue.try_submit(|| 3u32);
        assert_eq!(refused.err(), Some(SubmitError::QueueFull { capacity: 2 }));
        assert_eq!(queue.queued(), 2);
        gate_tx.send(()).expect("blocker listens");
        assert_eq!(blocker.wait(), Some(0));
        assert_eq!(a.wait(), Some(1));
        assert_eq!(b.wait(), Some(2));
        assert!(queue.wait_idle(Duration::from_secs(60)));
        // Idle again: admissions resume.
        assert_eq!(queue.try_submit(|| 4u32).expect("room again").wait(), Some(4));
    }

    #[test]
    fn capacity_zero_refuses_everything() {
        let queue = JobQueue::new(2, 0);
        let refused = queue.try_submit(|| ());
        assert_eq!(refused.err(), Some(SubmitError::QueueFull { capacity: 0 }));
        assert!(queue.wait_idle(Duration::from_secs(1)));
    }

    #[test]
    fn panicking_job_reports_none_and_queue_survives() {
        let queue = JobQueue::new(1, 8);
        let bad: JobTicket<u32> =
            queue.try_submit(|| -> u32 { panic!("job panics on purpose") }).expect("admitted");
        assert_eq!(bad.wait(), None);
        let good = queue.try_submit(|| 7u32).expect("worker survived the panic");
        assert_eq!(good.wait(), Some(7));
    }

    #[test]
    fn drop_drains_pending_jobs() {
        let (tx, rx) = channel::<u32>();
        {
            let queue = JobQueue::new(1, 16);
            for i in 0..5u32 {
                let tx = tx.clone();
                queue
                    .try_submit(move || {
                        tx.send(i).expect("receiver outlives queue");
                    })
                    .expect("room");
            }
            // Dropping here must run all five jobs before returning.
        }
        let mut seen: Vec<u32> = rx.try_iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn wait_timeout_on_a_slow_job_returns_none_then_the_value() {
        let queue = JobQueue::new(1, 4);
        let (gate_tx, gate_rx) = channel::<()>();
        let ticket = queue
            .try_submit(move || {
                gate_rx.recv().expect("gate opens");
                42u32
            })
            .expect("admitted");
        assert_eq!(ticket.wait_timeout(Duration::from_millis(1)), None);
        gate_tx.send(()).expect("job listens");
        assert_eq!(ticket.wait(), Some(42));
    }

    #[test]
    fn compiled_epoch_is_stable_and_nonzero() {
        assert_ne!(compiled_epoch(), 0);
        assert_eq!(compiled_epoch(), compiled_epoch());
        // Every persisted result entry and committed `BENCH_*.json` names
        // this value: it moves only with a deliberate semantics bump, which
        // updates it here too.
        assert_eq!(format!("{:016x}", compiled_epoch()), "e31f9c4115dc4c4e");
    }

    #[test]
    fn epoch_overrides_parse_decimal_hex_and_hash_everything_else() {
        assert_eq!(parse_epoch_override("42"), 42);
        assert_eq!(parse_epoch_override(" 42 "), 42);
        assert_eq!(parse_epoch_override("0xff"), 255);
        assert_eq!(parse_epoch_override("0XFF"), 255);
        // Arbitrary strings map to distinct, deterministic epochs.
        let a = parse_epoch_override("build-a");
        let b = parse_epoch_override("build-b");
        assert_ne!(a, b);
        assert_eq!(a, parse_epoch_override("build-a"));
    }

    #[test]
    fn engine_sized_queue_uses_engine_workers() {
        let queue = ReplayEngine::sequential().job_queue(3);
        assert_eq!(queue.capacity(), 3);
        assert_eq!(queue.try_submit(|| 1u8).expect("room").wait(), Some(1));
    }
}
