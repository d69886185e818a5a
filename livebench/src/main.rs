//! Live benchmark of the weavepar concern stacks.
//!
//! ```text
//! cargo run --release --offline --manifest-path livebench/Cargo.toml -- \
//!     --workload sieve_coarse --seed 1 --seconds 20 --trace 0
//! ```
//!
//! A run builds one workload's stack, then drives it as a closed loop: one
//! caller issues one solve at a time, back to back, each checked against the
//! plain sequential core, with a timed sequential solve interleaved after
//! every woven one. `--trace 0` prints the end-to-end metrics. `--trace 1`
//! measures an untraced phase, then plugs pass-through probes at the
//! concern-band boundaries for a traced phase, times each layer's public
//! functions directly, replays one captured solve on the simulator, and
//! prints the per-layer metrics; its spans go to `livebench/out/`.
//!
//! `heat_dispatch` (the heartbeat alone: 240 000 join points per solve on
//! one thread, nothing but dispatch) is accepted here but not listed in
//! `BENCHMARK.json`. On a shared two-vCPU host its sequential core (1.3 to
//! 2.8 ms) and its woven solve slow down by different factors while the host
//! is busy, so its `speedup` spread over ten seeded 30 s runs reached the
//! 0.25 bound. Run it by hand to look at the weave layer alone.
//!
//! The last line of standard output is the result object; the line before
//! it records the host (core count, load, steal ticks, involuntary context
//! switches) so that a noisy run can be told apart from a slow program.

mod host;
mod layers;
mod probes;
mod workload;

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use host::{median, quantile, HostRecord};
use probes::{Probes, SolveFigures, Tracer};
use weavepar::prelude::MetricsRegistry;
use workload::{Input, Kind, Stack, WeaveOutcome};

/// Stacks assembled per run for the set-up figure (median reported).
const SETUP_REPS: usize = 11;
/// Fewest timed solves per loop, so that ten lie beyond the 90th percentile.
const MIN_SOLVES: usize = 100;
/// Spans kept in memory for the span file; later solves are reduced and
/// dropped.
const SPAN_CAP: usize = 200_000;
/// A solve whose CPU time is below this multiple of its wall time ran
/// (nearly) serially.
const SERIAL_RATIO: f64 = 1.2;

struct Options {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Corrupt every n-th solve's output before it is checked (0: never);
    /// exercises the failure accounting.
    corrupt_every: u64,
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("bad value for {flag}: {value}"))
}

fn parse_options() -> Result<Options, String> {
    let mut opts =
        Options { kind: Kind::SieveCoarse, seed: 1, seconds: 10.0, trace: false, corrupt_every: 0 };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => opts.seed = parse(&flag, &value)?,
            "--seconds" => opts.seconds = parse(&flag, &value)?,
            "--trace" => opts.trace = parse::<u8>(&flag, &value)? != 0,
            "--corrupt-every" => opts.corrupt_every = parse(&flag, &value)?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    opts.kind = Kind::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(opts)
}

/// Solves attempted and failed, over every checked solve of the run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    corrupt_every: u64,
}

impl Tally {
    /// Check one woven solve's outcome.
    fn check(&mut self, input: &Input, out: WeaveOutcome) {
        self.attempted += 1;
        let ok = match out {
            Ok(mut out) => {
                if self.corrupt_every > 0 && self.attempted.is_multiple_of(self.corrupt_every) {
                    out.corrupt();
                }
                input.check(&out)
            }
            Err(_) => false,
        };
        self.failed += u64::from(!ok);
    }
}

/// Per-solve samples of one closed loop.
#[derive(Default)]
struct Samples {
    wall_ms: Vec<f64>,
    cpu_ms: Vec<f64>,
    sequential_ms: Vec<f64>,
}

impl Samples {
    fn serial_share(&self) -> f64 {
        let serial =
            self.wall_ms.iter().zip(&self.cpu_ms).filter(|(w, c)| **c < SERIAL_RATIO * **w);
        serial.count() as f64 / self.wall_ms.len().max(1) as f64
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One woven solve, timed on the wall clock and the process CPU clock.
fn timed_solve(stack: &Stack, input: &Input, tally: &mut Tally, samples: &mut Samples) {
    let cpu = host::process_cpu();
    let start = Instant::now();
    let out = stack.solve(input);
    let wall = start.elapsed();
    samples.wall_ms.push(ms(wall));
    samples.cpu_ms.push(ms(host::process_cpu().saturating_sub(cpu)));
    tally.check(input, out);
}

/// Assemble the stack `SETUP_REPS` times, each with its first (untimed but
/// checked) solve; keep the last stack and return the set-up times.
fn set_up(kind: Kind, input: &Input, tally: &mut Tally) -> (Stack, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut stack = None;
    for _ in 0..SETUP_REPS {
        drop(stack.take());
        let start = Instant::now();
        let built = Stack::build(kind);
        let out = built.solve(input);
        times.push(start.elapsed().as_secs_f64());
        tally.check(input, out);
        stack = Some(built);
    }
    (stack.expect("at least one set-up"), times)
}

/// Closed loop for `budget` (and at least `MIN_SOLVES` solves). With
/// `sequential`, a timed solve of the plain core follows every woven one.
fn closed_loop(
    stack: &Stack,
    input: &Input,
    budget: Duration,
    sequential: bool,
    tally: &mut Tally,
    mut before_solve: impl FnMut(u64),
    mut after_solve: impl FnMut(),
) -> Samples {
    let mut samples = Samples::default();
    let deadline = Instant::now() + budget;
    while samples.wall_ms.len() < MIN_SOLVES || Instant::now() < deadline {
        before_solve(samples.wall_ms.len() as u64 + 1);
        timed_solve(stack, input, tally, &mut samples);
        after_solve();
        if sequential {
            let start = Instant::now();
            let out = std::hint::black_box(input.sequential());
            samples.sequential_ms.push(ms(start.elapsed()));
            debug_assert_eq!(out, input.reference);
        }
    }
    samples
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(opts: &Options, input: &Input, tally: &mut Tally) -> Vec<Metric> {
    let (stack, setup) = set_up(opts.kind, input, tally);
    let budget = Duration::from_secs_f64(opts.seconds);
    let s = closed_loop(&stack, input, budget, true, tally, |_| {}, || {});
    let solve_ms = median(&s.wall_ms);
    let ok_ratio = 1.0 - tally.failed as f64 / tally.attempted as f64;
    vec![
        ("solve_ms", solve_ms, "ms"),
        ("solve_p90_ms", quantile(&s.wall_ms, 0.9), "ms"),
        ("cpu_ms", median(&s.cpu_ms), "ms"),
        ("speedup", median(&s.sequential_ms) / solve_ms, "ratio"),
        ("setup_s", median(&setup), "s"),
        ("peak_rss_mib", host::peak_rss_mib(), "MiB"),
        ("ok_ratio", ok_ratio, "ratio"),
    ]
}

fn per_layer(opts: &Options, input: &Input, tally: &mut Tally) -> Vec<Metric> {
    let (stack, _) = set_up(opts.kind, input, tally);
    let phase = Duration::from_secs_f64(opts.seconds * 0.4);

    // Untraced phase: the reference for the trace overhead and the CPU split.
    let plain = closed_loop(&stack, input, phase, false, tally, |_| {}, || {});
    let solve_ms = median(&plain.wall_ms);
    let cpu_ms = median(&plain.cpu_ms);

    // Traced phase.
    let tracer = Arc::new(Tracer::default());
    let registry = MetricsRegistry::new();
    if let Some(fabric) = stack.fabric() {
        fabric.install_metrics(&registry, "fabric");
    }
    let fabric_calls = || registry.snapshot().counter("fabric.calls").unwrap_or(0);
    let calls_before = fabric_calls();
    let probes = Probes::plug(
        &tracer,
        stack.concerns(),
        stack.fabric(),
        opts.kind.probed(),
        opts.kind.kernel(),
    );
    let mut kept = Vec::new();
    let mut figures: Vec<SolveFigures> = Vec::new();
    let traced = closed_loop(
        &stack,
        input,
        phase,
        false,
        tally,
        |id| tracer.begin_solve(id),
        || {
            let mut spans = tracer.take_spans();
            figures.push(probes::reduce(&mut spans));
            if kept.len() + spans.len() <= SPAN_CAP {
                kept.extend(spans);
            }
        },
    );
    probes.unplug();
    let solves = traced.wall_ms.len() as f64;
    let calls = (fabric_calls() - calls_before) as f64 / solves;

    let gaps = |pick: fn(&SolveFigures) -> &Vec<f64>| {
        let all: Vec<f64> = figures.iter().flat_map(|f| pick(f).iter().copied()).collect();
        median(&all)
    };
    let per_solve =
        |pick: fn(&SolveFigures) -> f64| median(&figures.iter().map(pick).collect::<Vec<_>>());
    let kernel_share: Vec<f64> =
        figures.iter().zip(&traced.cpu_ms).map(|(f, cpu)| f.kernel_ms / cpu).collect();

    let path =
        PathBuf::from(format!("livebench/out/spans-{}-seed{}.tsv", opts.kind.name(), opts.seed));
    if let Err(e) = probes::write_spans(&path, &kept) {
        eprintln!("livebench: could not write {}: {e}", path.display());
    }

    // Direct layer timings and the simulator calibration.
    let calibration = layers::calibrate(&stack, input, solve_ms);
    tally.check(input, calibration.outcome);
    let kernel_budget = Duration::from_secs_f64(opts.seconds * 0.05);

    vec![
        ("weave.joinpoints", tracer.joinpoints.load(Ordering::Relaxed) as f64 / solves, "count"),
        ("weave.dispatch_ns", layers::dispatch_ns(), "ns"),
        ("skeletons.partition_self_ms", per_solve(|f| f.partition_self_ms), "ms"),
        ("skeletons.packs", tracer.packs.load(Ordering::Relaxed) as f64 / solves, "count"),
        ("concurrency.spawn_wait_us", gaps(|f| &f.spawn_gaps_us), "us"),
        ("concurrency.monitor_wait_us", gaps(|f| &f.monitor_gaps_us), "us"),
        ("concurrency.cores_busy", cpu_ms / solve_ms, "ratio"),
        ("concurrency.serial_solves", plain.serial_share(), "ratio"),
        ("middleware.calls", calls, "count"),
        ("middleware.bytes", tracer.bytes.load(Ordering::Relaxed) as f64 / solves, "bytes"),
        ("middleware.dist_self_ms", per_solve(|f| f.dist_self_ms), "ms"),
        ("middleware.roundtrip_us", layers::roundtrip_us(), "us"),
        ("middleware.codec_ms_per_mib", layers::codec_ms_per_mib(), "ms/MiB"),
        ("apps.kernel_ms", layers::kernel_ms(input, kernel_budget), "ms"),
        ("apps.kernel_share", median(&kernel_share), "ratio"),
        ("cluster.sim_over_live", calibration.sim_over_live, "ratio"),
        ("cluster.replay_ms", calibration.replay_ms, "ms"),
        ("trace.overhead", median(&traced.wall_ms) / solve_ms, "ratio"),
    ]
}

fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn main() {
    let opts = match parse_options() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("livebench: {e}");
            eprintln!(
                "usage: livebench --workload <sieve_coarse|sieve_fine|heat_dispatch> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // Input and reference generation are the benchmark's own work: outside
    // every timed region, set-up included.
    let input = Input::generate(opts.kind, opts.seed);
    let host = HostRecord::start();
    let mut tally = Tally { corrupt_every: opts.corrupt_every, ..Tally::default() };
    let metrics = if opts.trace {
        per_layer(&opts, &input, &mut tally)
    } else {
        end_to_end(&opts, &input, &mut tally)
    };
    println!("{{\"host\": {}}}", host.to_json());
    println!("{}", result_json(&tally, &metrics));
}
