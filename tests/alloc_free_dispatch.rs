//! Proof of the inline-value fast path: steady-state scalar-argument
//! dispatch through a plugged aspect chain performs **zero heap
//! allocations** (PR 9 tentpole acceptance).
//!
//! A counting wrapper around the system allocator is installed as the
//! global allocator for this test binary only. Each test warms the weaver
//! (first calls populate dispatch tables and advice-chain caches), then
//! counts allocations across a burst of steady-state calls.
//!
//! The window and the counter are per thread, so tests running in parallel
//! on other threads cannot leak allocations into a measurement. In exchange
//! each window also counts the method bodies that ran on the measuring
//! thread, and the tests assert every call was among them: a dispatch that
//! hopped to another thread could otherwise allocate there unseen.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use weavepar::prelude::*;
use weavepar::weaveable;

/// Counts this thread's allocations while its `COUNTING` flag is set;
/// delegates to [`System`].
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    /// `Alu` method bodies run on this thread inside its window.
    static BODIES: Cell<usize> = const { Cell::new(0) };
}

/// Bump `counter` if this thread is inside a measuring window. `try_with`
/// keeps allocations during thread-local teardown from panicking.
fn tick(counter: &'static std::thread::LocalKey<Cell<usize>>) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = counter.try_with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick(&ALLOCS);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick(&ALLOCS);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// What one measuring window saw on the calling thread.
struct Window {
    allocs: usize,
    bodies: usize,
}

/// Count the allocations `f` performs on the calling thread, and the `Alu`
/// method bodies it runs there.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (Window, T) {
    ALLOCS.with(|c| c.set(0));
    BODIES.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (Window { allocs: ALLOCS.with(Cell::get), bodies: BODIES.with(Cell::get) }, out)
}

struct Alu;

weaveable! {
    class Alu as AluProxy {
        fn new() -> Self { Alu }
        fn fma(&mut self, a: u64, b: u64, c: u64, d: u64) -> u64 {
            tick(&BODIES);
            a.wrapping_mul(b).wrapping_add(c).wrapping_mul(d | 1)
        }
        fn poke(&mut self, x: u64) -> u64 {
            tick(&BODIES);
            x.wrapping_add(1)
        }
    }
}

fn plugged_proxy(aspects: usize) -> AluProxy {
    let weaver = Weaver::new();
    for i in 0..aspects {
        weaver.plug(
            Aspect::named(format!("P{i}"))
                .around(Pointcut::call("Alu.*"), |inv: &mut Invocation| inv.proceed())
                .build(),
        );
    }
    AluProxy::construct(&weaver).unwrap()
}

#[test]
fn steady_state_scalar_dispatch_is_allocation_free() {
    let proxy = plugged_proxy(3);
    // Warm-up: the first calls build dispatch tables and advice chains.
    for i in 0..16 {
        proxy.fma(i, i + 1, i + 2, i + 3).unwrap();
        proxy.poke(i).unwrap();
    }
    let (window, sum) = count_allocs(|| {
        let mut sum = 0u64;
        for i in 0..1_000u64 {
            sum = sum.wrapping_add(proxy.fma(i, 3, 5, 7).unwrap());
            sum = sum.wrapping_add(proxy.poke(i).unwrap());
        }
        sum
    });
    assert_ne!(sum, 0, "calls really ran");
    assert_eq!(window.bodies, 2_000, "every call must run on the measuring thread");
    assert_eq!(
        window.allocs, 0,
        "steady-state scalar dispatch through 3 aspects must not allocate"
    );
}

#[test]
fn unwoven_proxy_dispatch_is_allocation_free() {
    let proxy = plugged_proxy(0);
    for i in 0..16 {
        proxy.poke(i).unwrap();
    }
    let (window, _) = count_allocs(|| {
        let mut sum = 0u64;
        for i in 0..1_000u64 {
            sum = sum.wrapping_add(proxy.poke(i).unwrap());
        }
        sum
    });
    assert_eq!(window.bodies, 1_000, "every call must run on the measuring thread");
    assert_eq!(window.allocs, 0, "bare proxy dispatch must not allocate");
}

#[test]
fn metered_dispatch_stays_allocation_free() {
    // The observability tentpole's bound: plugging the metrics aspect keeps
    // steady-state dispatch allocation-free. The aspect resolves its
    // counters and histogram once at build time, so the hot path is pure
    // relaxed-atomic bumps into pre-bound shards.
    let weaver = Weaver::new();
    let registry = MetricsRegistry::new();
    weaver.plug(metrics_aspect("Metrics", Pointcut::call("Alu.*"), &registry));
    weaver.plug(
        Aspect::named("P0")
            .around(Pointcut::call("Alu.*"), |inv: &mut Invocation| inv.proceed())
            .build(),
    );
    let proxy = AluProxy::construct(&weaver).unwrap();
    for i in 0..16 {
        proxy.poke(i).unwrap();
    }
    let (window, sum) = count_allocs(|| {
        let mut sum = 0u64;
        for i in 0..1_000u64 {
            sum = sum.wrapping_add(proxy.poke(i).unwrap());
        }
        sum
    });
    assert_ne!(sum, 0, "calls really ran");
    assert_eq!(window.bodies, 1_000, "every call must run on the measuring thread");
    assert_eq!(window.allocs, 0, "recording into the metrics registry must not allocate");
    // And the registry really saw the burst (warm-up + measured calls).
    assert_eq!(registry.snapshot().counter("Metrics.calls"), Some(1_016));
}

#[test]
fn wrong_type_take_keeps_inline_value_intact() {
    let mut args = weavepar::args![41u64];
    // A mistyped take must fail AND leave the argument in place. (The error
    // itself carries a formatted context string, so the failure path is
    // allowed to allocate; only the success path below must not.)
    assert!(args.take::<i64>(0).is_err());
    assert_eq!(*args.get::<u64>(0).expect("value still present after failed take"), 41);

    // The correctly typed round trip is allocation-free.
    let (window, value) = count_allocs(|| {
        let taken: u64 = args.take::<u64>(0).expect("correctly typed take succeeds");
        let ret = AnyValue::new(taken);
        *ret.downcast_ref::<u64>().expect("inline return")
    });
    assert_eq!(value, 41);
    assert_eq!(window.allocs, 0, "inline args round trip must not allocate");
}
