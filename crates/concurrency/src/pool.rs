//! A fixed-size thread pool with a work-stealing scheduler.
//!
//! The paper's §4.4 lists *thread pools* among the optimisations that can be
//! modularised as aspects: the concurrency aspect spawns a thread per call
//! (Figure 12), and a separately pluggable optimisation aspect replaces that
//! with pooled execution. Both styles are exposed uniformly through
//! [`Executor`](crate::executor::Executor).
//!
//! # Scheduling
//!
//! The pool is a Cilk-style work-stealing scheduler: every worker owns a
//! LIFO deque, tasks submitted from outside the pool land in a shared FIFO
//! injector, and tasks spawned *by* a pool worker (divide-and-conquer
//! recursion generates these heavily) go to that worker's own deque, where
//! the LIFO pop keeps the most recently spawned — cache-hot — task first. Idle workers steal batches from the
//! injector or from a peer's deque, so a burst of nested spawns seeded on a
//! single worker spreads across the pool without any submitter-side routing.
//! Idle workers park on a condition variable behind an atomic sleeper count:
//! submitters skip the wakeup entirely while every worker is busy, which
//! keeps the submission fast path lock-free with respect to parking.
//!
//! [`ThreadPool::spawn_batch`] submits a whole pack of tasks with one
//! completion-tracker increment, one queue-lock acquisition and one wakeup —
//! the skeleton layer (farm, divide-and-conquer) uses it to submit
//! pack-granular batches instead of per-task sends.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::deque::{Injector, Steal, Stealer, Worker};
use parking_lot::{Condvar, Mutex};

use weavepar_weave::metrics::MetricsRegistry;

use crate::tracker::{CompletionTracker, TaskToken};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// One queued unit of work: the job plus its completion-tracker token, kept
/// side by side so the batch path does not re-box the job to attach the
/// token.
struct Task {
    token: TaskToken,
    job: Job,
}

impl Task {
    fn run(self) {
        let _token = self.token; // released when the job ends, even on panic
        (self.job)();
    }
}

/// Process-unique pool ids, so the thread-local worker context can tell
/// *which* pool's worker the current thread is.
static NEXT_POOL_ID: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// `(pool id, worker index)` of the pool worker running on this thread.
    static WORKER_CTX: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Always-on scheduler event counters, cheap relaxed atomics held in `Arc`s
/// so a metrics registry can bind them by name ([`ThreadPool::install_metrics`])
/// without the scheduler double-bookkeeping.
#[derive(Default)]
struct PoolStats {
    /// Task batches stolen from a peer worker's deque.
    steals: Arc<AtomicU64>,
    /// Times a worker parked on the condition variable.
    parks: Arc<AtomicU64>,
    /// Times a submitter issued a wakeup (notify) toward parked workers.
    wakeups: Arc<AtomicU64>,
}

/// Scheduler state shared by the pool handle and its workers.
struct StealCore {
    id: usize,
    /// FIFO entry queue for tasks submitted from outside the pool.
    injector: Injector<Task>,
    /// One LIFO deque per worker. Indexed by worker; a worker pushes nested
    /// spawns here and pops its own end, peers steal the other end.
    locals: Vec<Worker<Task>>,
    stealers: Vec<Stealer<Task>>,
    /// Number of workers currently parked (or about to park) — submitters
    /// only touch the park lock when this is non-zero.
    sleepers: AtomicUsize,
    shutdown: AtomicBool,
    park_lock: Mutex<()>,
    unpark: Condvar,
    stats: PoolStats,
}

impl StealCore {
    fn has_work(&self) -> bool {
        !self.injector.is_empty() || self.locals.iter().any(|w| !w.is_empty())
    }

    /// Wake one parked worker if any worker is parked.
    fn wake_one(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            self.stats.wakeups.fetch_add(1, Ordering::Relaxed);
            let _guard = self.park_lock.lock();
            self.unpark.notify_one();
        }
    }

    /// Wake every parked worker (batch submission, shutdown).
    fn wake_all(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            self.stats.wakeups.fetch_add(1, Ordering::Relaxed);
            let _guard = self.park_lock.lock();
            self.unpark.notify_all();
        }
    }

    /// Next task for worker `idx`: own deque first (LIFO — cache-hot nested
    /// spawns), then a batch from the injector, then a batch stolen from a
    /// peer (rotating the starting victim so thieves spread out).
    fn find_task(&self, idx: usize) -> Option<Task> {
        if let Some(task) = self.locals[idx].pop() {
            return Some(task);
        }
        loop {
            match self.injector.steal_batch_and_pop(&self.locals[idx]) {
                Steal::Success(task) => return Some(task),
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
        let n = self.stealers.len();
        for offset in 1..n {
            let victim = (idx + offset) % n;
            loop {
                match self.stealers[victim].steal_batch_and_pop(&self.locals[idx]) {
                    Steal::Success(task) => {
                        self.stats.steals.fetch_add(1, Ordering::Relaxed);
                        return Some(task);
                    }
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        None
    }

    fn worker_loop(self: &Arc<Self>, idx: usize) {
        WORKER_CTX.with(|ctx| ctx.set(Some((self.id, idx))));
        loop {
            if let Some(task) = self.find_task(idx) {
                // A panicking job must not kill the worker: the pool would
                // silently lose capacity (and a 1-worker pool would deadlock
                // every later caller).
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task.run()));
                continue;
            }
            // Park. The sleeper count is incremented under the park lock and
            // *before* the queues are re-checked; a submitter pushes first
            // and reads the count second. Whichever critical section runs
            // first, either the submitter observes the sleeper and notifies,
            // or this worker's re-check observes the pushed task — a missed
            // wakeup requires both to lose, which the lock ordering forbids.
            let mut guard = self.park_lock.lock();
            self.sleepers.fetch_add(1, Ordering::SeqCst);
            if self.has_work() {
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
                continue;
            }
            if self.shutdown.load(Ordering::SeqCst) {
                // Queues drained and the pool is going away.
                self.sleepers.fetch_sub(1, Ordering::SeqCst);
                return;
            }
            // The timeout is a pure backstop: a (theoretically impossible,
            // see above) missed wakeup would cost 10 ms of latency, never a
            // hang.
            self.stats.parks.fetch_add(1, Ordering::Relaxed);
            self.unpark.wait_for(&mut guard, Duration::from_millis(10));
            self.sleepers.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// A fixed set of worker threads consuming work-stealing deques.
pub struct ThreadPool {
    core: Arc<StealCore>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    tracker: CompletionTracker,
    size: usize,
    /// Batch-submission grain: a `spawn_batch` larger than this is pushed to
    /// the injector in chunks of `grain` tasks so stealers start draining
    /// before the whole pack is enqueued. `0` (the default) submits the
    /// batch whole. Held in a shared cell for runtime tuning.
    grain: Arc<AtomicU32>,
}

impl ThreadPool {
    /// Spawn `size` workers (at least one) named `{name}-{i}`.
    pub fn new(size: usize, name: &str) -> Arc<Self> {
        let size = size.max(1);
        let locals: Vec<Worker<Task>> = (0..size).map(|_| Worker::new_lifo()).collect();
        let stealers = locals.iter().map(|w| w.stealer()).collect();
        let core = Arc::new(StealCore {
            id: NEXT_POOL_ID.fetch_add(1, Ordering::Relaxed),
            injector: Injector::new(),
            locals,
            stealers,
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            park_lock: Mutex::new(()),
            unpark: Condvar::new(),
            stats: PoolStats::default(),
        });
        let workers = (0..size)
            .map(|i| {
                let core = core.clone();
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || core.worker_loop(i))
                    .expect("spawning pool worker")
            })
            .collect();
        Arc::new(ThreadPool {
            core,
            workers: Mutex::new(workers),
            tracker: CompletionTracker::new(),
            size,
            grain: Arc::new(AtomicU32::new(0)),
        })
    }

    /// The batch-submission grain cell (0 = submit batches whole), for
    /// binding to a tuning controller.
    pub fn batch_grain_cell(&self) -> Arc<AtomicU32> {
        self.grain.clone()
    }

    /// Number of workers.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Enqueue a job. Never blocks (unbounded queues). Called from a pool
    /// worker, the job goes to that worker's own deque (LIFO, cache-hot);
    /// called from anywhere else it goes to the shared injector.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        let task = Task { token: self.tracker.begin(), job: Box::new(job) };
        self.push_task(task);
    }

    /// Enqueue a whole pack of jobs: one tracker increment, one queue-lock
    /// acquisition and one wakeup for the entire batch. Semantically
    /// identical to calling [`spawn`](Self::spawn) once per job.
    pub fn spawn_batch<I>(&self, jobs: I)
    where
        I: IntoIterator,
        I::Item: FnOnce() + Send + 'static,
    {
        self.spawn_batch_boxed(jobs.into_iter().map(|j| Box::new(j) as Job).collect());
    }

    pub(crate) fn spawn_batch_boxed(&self, jobs: Vec<Job>) {
        if jobs.is_empty() {
            return;
        }
        let tokens = self.tracker.begin_many(jobs.len());
        let tasks = tokens.into_iter().zip(jobs).map(|(token, job)| Task { token, job });
        let core = &self.core;
        match WORKER_CTX.with(|ctx| ctx.get()) {
            Some((id, idx)) if id == core.id => {
                for task in tasks {
                    core.locals[idx].push(task);
                }
                core.wake_all();
            }
            _ => {
                let grain = self.grain.load(Ordering::Relaxed) as usize;
                if grain == 0 {
                    core.injector.push_batch(tasks);
                    core.wake_all();
                } else {
                    // Tuned grain: release the batch in chunks, waking
                    // workers per chunk so the first tasks start while
                    // the rest are still being enqueued.
                    let mut chunk = Vec::with_capacity(grain);
                    for task in tasks {
                        chunk.push(task);
                        if chunk.len() >= grain {
                            core.injector.push_batch(chunk.drain(..));
                            core.wake_all();
                        }
                    }
                    if !chunk.is_empty() {
                        core.injector.push_batch(chunk);
                        core.wake_all();
                    }
                }
            }
        }
    }

    fn push_task(&self, task: Task) {
        let core = &self.core;
        match WORKER_CTX.with(|ctx| ctx.get()) {
            Some((id, idx)) if id == core.id => core.locals[idx].push(task),
            _ => core.injector.push(task),
        }
        core.wake_one();
    }

    /// Jobs queued or running.
    pub fn in_flight(&self) -> usize {
        self.tracker.in_flight()
    }

    /// Block until every submitted job (including jobs submitted by other
    /// jobs) has finished.
    pub fn wait_idle(&self) {
        self.tracker.wait_idle();
    }

    /// The pool's completion tracker (shared with
    /// [`Executor`](crate::executor::Executor)).
    pub fn tracker(&self) -> &CompletionTracker {
        &self.tracker
    }

    /// Bind this pool's always-on scheduler counters into `registry` under
    /// `{prefix}.steals` / `{prefix}.parks` / `{prefix}.wakeups`, plus the
    /// live queue depth as the gauge `{prefix}.in_flight`. The scheduler
    /// keeps incrementing its own relaxed atomics; installation only names
    /// the cells, so an uninstalled pool pays nothing extra.
    pub fn install_metrics(&self, registry: &MetricsRegistry, prefix: &str) {
        let stats = &self.core.stats;
        registry.bind_counter(&format!("{prefix}.steals"), stats.steals.clone());
        registry.bind_counter(&format!("{prefix}.parks"), stats.parks.clone());
        registry.bind_counter(&format!("{prefix}.wakeups"), stats.wakeups.clone());
        registry.bind_gauge_usize(&format!("{prefix}.in_flight"), self.tracker.in_flight_cell());
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.core.shutdown.store(true, Ordering::SeqCst);
        {
            let _guard = self.core.park_lock.lock();
            self.core.unpark.notify_all();
        }
        // Take the handles out before joining: joining while holding the
        // `workers` mutex would deadlock a concurrent `Debug`-format or
        // `size()` caller for the whole shutdown.
        let handles = std::mem::take(self.workers.get_mut());
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("size", &self.size)
            .field("in_flight", &self.in_flight())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn runs_jobs() {
        let pool = ThreadPool::new(4, "steal");
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = counter.clone();
            pool.spawn(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn size_is_clamped_to_one() {
        let pool = ThreadPool::new(0, "tiny");
        assert_eq!(pool.size(), 1);
        let done = Arc::new(AtomicUsize::new(0));
        let d = done.clone();
        pool.spawn(move || {
            d.fetch_add(1, Ordering::Relaxed);
        });
        pool.wait_idle();
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn jobs_actually_run_in_parallel() {
        let pool = ThreadPool::new(4, "par");
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let (running, peak) = (running.clone(), peak.clone());
            pool.spawn(move || {
                let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(50));
                running.fetch_sub(1, Ordering::SeqCst);
            });
        }
        pool.wait_idle();
        assert!(peak.load(Ordering::SeqCst) >= 2, "no overlap observed");
    }

    #[test]
    fn nested_submission_is_tracked() {
        let pool = ThreadPool::new(4, "nested");
        let hits = Arc::new(AtomicUsize::new(0));
        let (p2, h2) = (pool.clone(), hits.clone());
        pool.spawn(move || {
            h2.fetch_add(1, Ordering::Relaxed);
            let h3 = h2.clone();
            p2.spawn(move || {
                h3.fetch_add(1, Ordering::Relaxed);
            });
        });
        pool.wait_idle();
        assert_eq!(hits.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn panicking_job_does_not_wedge_the_pool() {
        let pool = ThreadPool::new(1, "panicky");
        pool.spawn(|| panic!("boom"));
        assert!(pool.tracker().wait_idle_timeout(Duration::from_millis(500)));
        // The single worker survived the panic and keeps serving jobs.
        let ok = Arc::new(AtomicUsize::new(0));
        let ok2 = ok.clone();
        pool.spawn(move || {
            ok2.fetch_add(1, Ordering::Relaxed);
        });
        pool.wait_idle();
        assert_eq!(ok.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ThreadPool::new(2, "drop");
        let hits = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let h = hits.clone();
            pool.spawn(move || {
                h.fetch_add(1, Ordering::Relaxed);
            });
        }
        drop(pool);
        assert_eq!(hits.load(Ordering::Relaxed), 10, "queued jobs drain before drop completes");
    }

    #[test]
    fn spawn_batch_runs_every_job() {
        let pool = ThreadPool::new(4, "batch");
        let counter = Arc::new(AtomicUsize::new(0));
        pool.spawn_batch((0..250).map(|_| {
            let c = counter.clone();
            move || {
                c.fetch_add(1, Ordering::Relaxed);
            }
        }));
        pool.wait_idle();
        assert_eq!(counter.load(Ordering::Relaxed), 250);
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let pool = ThreadPool::new(2, "empty");
        pool.spawn_batch(std::iter::empty::<fn()>());
        pool.wait_idle();
        assert_eq!(pool.in_flight(), 0);
    }

    #[test]
    fn nested_spawns_seeded_on_one_worker_are_stolen() {
        // One externally submitted job fans out nested spawns; they all land
        // on that worker's local deque, so any parallelism proves stealing.
        let pool = ThreadPool::new(4, "thief");
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let p2 = pool.clone();
        let (r2, k2) = (running.clone(), peak.clone());
        pool.spawn(move || {
            for _ in 0..8 {
                let (r3, k3) = (r2.clone(), k2.clone());
                p2.spawn(move || {
                    let now = r3.fetch_add(1, Ordering::SeqCst) + 1;
                    k3.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(30));
                    r3.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        pool.wait_idle();
        assert!(
            peak.load(Ordering::SeqCst) >= 2,
            "idle peers must steal from the seeding worker's deque"
        );
    }

    #[test]
    fn installed_metrics_expose_scheduler_events() {
        let pool = ThreadPool::new(4, "metered");
        let reg = MetricsRegistry::new();
        pool.install_metrics(&reg, "pool");
        // Force park-then-wake: a submitter only issues (and counts) a wakeup
        // when it sees a parked worker, so wait until every worker has parked
        // before submitting anything.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while reg.snapshot().counter("pool.parks").unwrap() < pool.size() as u64
            || pool.core.sleepers.load(Ordering::SeqCst) < pool.size()
        {
            assert!(std::time::Instant::now() < deadline, "workers never parked");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Replay the stealing scenario: one externally submitted job fans out
        // nested spawns, so idle peers must steal.
        let p2 = pool.clone();
        pool.spawn(move || {
            for _ in 0..16 {
                p2.spawn(|| std::thread::sleep(Duration::from_millis(5)));
            }
        });
        pool.wait_idle();
        let snap = reg.snapshot();
        assert!(snap.counter("pool.steals").unwrap() >= 1, "peers must steal: {snap:?}");
        assert!(snap.counter("pool.parks").unwrap() >= 1, "idle workers park");
        assert!(snap.counter("pool.wakeups").unwrap() >= 1, "submitters wake sleepers");
        assert_eq!(snap.gauge("pool.in_flight"), Some(0), "idle pool has empty queue");
    }

    #[test]
    fn lifo_local_order_fifo_injector_order() {
        // Single worker: injector submissions run FIFO; nested spawns run
        // LIFO (most recent first). Observable only with one worker.
        let pool = ThreadPool::new(1, "order");
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let p2 = pool.clone();
        let o2 = order.clone();
        pool.spawn(move || {
            for i in 0..3 {
                let o3 = o2.clone();
                p2.spawn(move || o3.lock().push(i));
            }
        });
        pool.wait_idle();
        assert_eq!(*order.lock(), vec![2, 1, 0], "nested spawns pop LIFO");
    }
}
