//! Join-point value costs on the inline-value fast path.
//!
//! Run with: `cargo bench -p weavepar-bench --bench joinpoint_values`
//!
//! Every join point carries its arguments and return as [`Value`]s; small
//! Copy payloads are stored inline in the tag word set (no heap). The
//! measured scenario is a scalar-argument method dispatched through the
//! paper's three-aspect pass-through stack: four `u64` arguments plus the
//! return are 5 values per call.
//!
//! Groups:
//! * `scalar_dispatch` — 4×u64 → u64 through 0 / 3 pass-through aspects;
//! * `value_roundtrip` — args!/take/ret! round trip with no weaver at all
//!   (the pure representation cost);
//! * `pack_split` — splitting a 64k-item pack into 50 chunks: CoW
//!   `split_chunks` (aliasing one allocation) vs eager per-chunk copies.
//!
//! That values stay inline, so dispatch does not allocate, is asserted
//! deterministically by tests rather than timed here: the counting-allocator
//! tests in `tests/alloc_free_dispatch.rs` and the `weave::value` unit tests
//! `scalars_are_inline_and_large_types_box` and `args_spill_beyond_inline_slots`.
//! Hand-rolled harness (same contract as the other benches): writes
//! `BENCH_values.json` at the workspace root; with `WEAVEPAR_BENCH_QUICK=1`
//! it runs a tiny smoke and skips the JSON (used by ci.sh).

use std::hint::black_box;
use std::time::Instant;

use weavepar::prelude::*;
use weavepar::{args, weaveable};

struct Knobs {
    rounds: usize,
    iters: usize,
    pack_items: usize,
    quick: bool,
}

impl Knobs {
    fn from_env() -> Self {
        if std::env::var("WEAVEPAR_BENCH_QUICK").is_ok_and(|v| v == "1") {
            Knobs { rounds: 3, iters: 2_000, pack_items: 4_096, quick: true }
        } else {
            Knobs { rounds: 15, iters: 150_000, pack_items: 65_536, quick: false }
        }
    }
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len().is_multiple_of(2) {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    }
}

/// Median ns/op over `rounds` rounds of `iters` ops each (one warmup round).
fn bench(rounds: usize, iters: usize, mut op: impl FnMut()) -> f64 {
    for _ in 0..iters {
        op();
    }
    let mut samples = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let start = Instant::now();
        for _ in 0..iters {
            op();
        }
        samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(samples)
}

struct Alu;

weaveable! {
    class Alu as AluProxy {
        fn new() -> Self { Alu }
        fn fma(&mut self, a: u64, b: u64, c: u64, d: u64) -> u64 {
            a.wrapping_mul(b).wrapping_add(c).wrapping_mul(d | 1)
        }
    }
}

fn proxy_with_aspects(aspects: usize) -> AluProxy {
    let weaver = Weaver::new();
    for i in 0..aspects {
        weaver.plug(
            Aspect::named(format!("P{i}"))
                .around(Pointcut::call("Alu.fma"), |inv: &mut Invocation| inv.proceed())
                .build(),
        );
    }
    AluProxy::construct(&weaver).unwrap()
}

/// Scalar dispatch ns/call through `aspects` pass-through aspects.
fn scalar_cell(knobs: &Knobs, aspects: usize) -> f64 {
    let proxy = proxy_with_aspects(aspects);
    bench(knobs.rounds, knobs.iters, || {
        black_box(proxy.fma(black_box(3), black_box(5), black_box(7), black_box(11)).unwrap());
    })
}

/// Pure representation round trip: build args, take one out, wrap a return.
fn roundtrip_cell(knobs: &Knobs) -> f64 {
    bench(knobs.rounds, knobs.iters, || {
        let mut a = args![black_box(3u64), black_box(5u64), black_box(7u64), black_box(11u64)];
        let x: u64 = a.take(0).unwrap();
        let ret = AnyValue::new(x.wrapping_mul(13));
        black_box(ret.downcast_ref::<u64>().copied().unwrap());
    })
}

fn main() {
    let _ = std::env::args();
    let knobs = Knobs::from_env();
    let mut cells = Vec::new();

    println!("== scalar_dispatch (median of {} rounds × {} calls) ==", knobs.rounds, knobs.iters);
    for aspects in [0usize, 3] {
        let ns = scalar_cell(&knobs, aspects);
        println!("{:>18} inline {ns:>9.1}", format!("{aspects}_aspects"));
        cells.push(format!(
            "    {{\"group\": \"scalar_dispatch\", \"aspects\": {aspects}, \"repr\": \"inline\", \"median_ns_per_call\": {ns:.1}}}"
        ));
    }

    println!("\n== value_roundtrip (no weaver) ==");
    let ns = roundtrip_cell(&knobs);
    println!("{:>18} inline {ns:>9.1}", "args_take_ret");
    cells.push(format!(
        "    {{\"group\": \"value_roundtrip\", \"repr\": \"inline\", \"median_ns_per_call\": {ns:.1}}}"
    ));

    println!("\n== pack_split ({} items into 50 chunks) ==", knobs.pack_items);
    let pack: Pack = (0..knobs.pack_items as u64).collect();
    let chunk = knobs.pack_items.div_ceil(50);
    let rounds = knobs.rounds.min(9);
    let iters = (knobs.iters / 1_000).max(10);
    let cow_ns = bench(rounds, iters, || {
        black_box(pack.split_chunks(chunk));
    });
    let copy_ns = bench(rounds, iters, || {
        let copies: Vec<Pack> = pack.as_slice().chunks(chunk).map(Pack::from_slice).collect();
        black_box(copies);
    });
    println!(
        "{:>18} cow {cow_ns:>12.1}  copy {copy_ns:>10.1}  speedup {:>6.2}x",
        "split_50",
        copy_ns / cow_ns.max(1e-9)
    );
    for (mode, ns) in [("cow", cow_ns), ("copy", copy_ns)] {
        cells.push(format!(
            "    {{\"group\": \"pack_split\", \"mode\": \"{mode}\", \"median_ns_per_split\": {ns:.1}}}"
        ));
    }

    if knobs.quick {
        println!("\nquick mode: skipping BENCH_values.json");
        return;
    }
    let json = format!(
        "{{\n  \"bench\": \"joinpoint_values\",\n  \"unit\": \"ns_per_call\",\n  \"rounds\": {},\n  \"cells\": [\n{}\n  ]\n}}\n",
        knobs.rounds,
        cells.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_values.json");
    std::fs::write(out, json).expect("write BENCH_values.json");
    println!("\nwrote {out}");
}
