//! Direct timings of single layers through their public functions, and the
//! simulator calibration against a live solve.

use std::hint::black_box;
use std::time::{Duration, Instant};

use weavepar::cluster::{simulate, ClusterConfig, MiddlewareProfile, Placement, SimParams};
use weavepar::prelude::*;
use weavepar::weave::Recorder;
use weavepar::{args, weaveable};
use weavepar_apps::sieve::{candidates, PrimeFilter};

use crate::host::{median, nproc};
use crate::workload::{Input, Stack, WeaveOutcome};

/// Paired rounds of a direct timing; the median of the rounds is reported.
const ROUNDS: usize = 21;

/// The smallest weaveable shape: sums an 8-element pack.
pub struct Summer;

weaveable! {
    class Summer as SummerProxy {
        fn new() -> Self { Summer }
        fn sum(&mut self, p: Pack) -> u64 { p.as_slice().iter().sum() }
    }
}

fn per_call_ns(calls: usize, f: impl Fn()) -> f64 {
    let start = Instant::now();
    for _ in 0..calls {
        f();
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// `weave.dispatch_ns`: a woven call through a three-aspect pass-through
/// stack on an 8-element pack, minus the direct call. Woven and direct
/// batches alternate, and the median of the per-round differences is taken.
pub fn dispatch_ns() -> f64 {
    const CALLS: usize = 5_000;
    let weaver = Weaver::new();
    for name in ["A", "B", "C"] {
        weaver.plug(
            Aspect::named(name)
                .around(Pointcut::call("Summer.sum"), |inv: &mut Invocation| inv.proceed())
                .build(),
        );
    }
    let proxy = SummerProxy::construct(&weaver).expect("construct Summer");
    let pack = Pack::from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
    let woven = || {
        black_box(proxy.sum(black_box(pack.clone())).expect("woven call"));
    };
    let plain = || {
        black_box(Summer.sum(black_box(pack.clone())));
    };
    per_call_ns(CALLS, woven);
    per_call_ns(CALLS, plain);
    let diffs: Vec<f64> =
        (0..ROUNDS).map(|_| per_call_ns(CALLS, woven) - per_call_ns(CALLS, plain)).collect();
    median(&diffs)
}

/// A one-node fabric hosting one filter, for the middleware timings.
fn filter_fabric() -> std::sync::Arc<InProcFabric> {
    let marshal = MarshalRegistry::new();
    marshal.register::<(u64, u64), ()>("PrimeFilter", "new");
    marshal.register::<(Pack,), Pack>("PrimeFilter", "filter");
    let fabric = InProcFabric::new(1, marshal);
    fabric.register_class::<PrimeFilter>();
    fabric
}

/// `middleware.roundtrip_us`: a replied `call_id` of a one-candidate filter
/// call on an in-process node.
pub fn roundtrip_us() -> f64 {
    const CALLS: usize = 500;
    let fabric = filter_fabric();
    let marshal = fabric.marshal();
    let ctor = marshal.encode_args("PrimeFilter", "new", &args![2u64, 3u64]).expect("encode");
    let filter = fabric.construct_on(0, "PrimeFilter", ctor).expect("construct remote filter");
    let method = marshal.method_id("PrimeFilter", "filter").expect("filter id");
    let call_args = args![Pack::from_slice(&[9])];
    let call = || {
        let frame = marshal.encode_args("PrimeFilter", "filter", &call_args).expect("encode");
        black_box(fabric.call_id(filter, method, frame, true).expect("remote call"));
    };
    per_call_ns(CALLS, call);
    let rounds: Vec<f64> = (0..ROUNDS).map(|_| per_call_ns(CALLS, call) / 1e3).collect();
    median(&rounds)
}

/// `middleware.codec_ms_per_mib`: encode plus decode of the coarse
/// candidate pack through the public marshal API, per MiB of wire bytes.
pub fn codec_ms_per_mib() -> f64 {
    const REPS: usize = 15;
    let fabric = filter_fabric();
    let marshal = fabric.marshal();
    let pack = args![Pack::from_vec(candidates(2_000_000))];
    let encoded = marshal.encode_args("PrimeFilter", "filter", &pack).expect("encode");
    let mib = encoded.len() as f64 / (1024.0 * 1024.0);
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let bytes = marshal.encode_args("PrimeFilter", "filter", &pack).expect("encode");
            black_box(marshal.decode_args("PrimeFilter", "filter", &bytes).expect("decode"));
            start.elapsed().as_secs_f64() * 1e3 / mib
        })
        .collect();
    median(&times)
}

/// `apps.kernel_ms`: the plain sequential core on the run's input, after a
/// warm-up, repeated for about `budget`.
pub fn kernel_ms(input: &Input, budget: Duration) -> f64 {
    black_box(input.sequential());
    let deadline = Instant::now() + budget;
    let mut times = Vec::new();
    while times.len() < 5 || Instant::now() < deadline {
        let start = Instant::now();
        black_box(input.sequential());
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    median(&times)
}

/// The simulator calibration: one solve captured with a measuring recorder
/// and replayed on one node with `nproc` cores and in-process link costs.
pub struct Calibration {
    /// Simulated makespan over the live untraced median solve.
    pub sim_over_live: f64,
    /// Wall time of the replay itself, ms.
    pub replay_ms: f64,
    /// What the captured solve returned (it is checked like any other).
    pub outcome: WeaveOutcome,
}

/// Capture one solve and replay it. Distribution is disabled for the
/// captured solve: node-side executions run on node threads outside the
/// client's trace context, and on one node with in-process links the
/// replay charges no middleware cost anyway.
pub fn calibrate(stack: &Stack, input: &Input, live_ms: f64) -> Calibration {
    let concerns = stack.concerns();
    let distributed = concerns.set_enabled(Concern::Distribution, false);
    let recorder = Recorder::measuring();
    concerns.weaver().set_recorder(Some(recorder.clone()));
    let out = stack.solve(input);
    concerns.weaver().set_recorder(None);
    if distributed {
        concerns.set_enabled(Concern::Distribution, true);
    }
    let trace = recorder.finish();
    let params = SimParams {
        cluster: ClusterConfig {
            nodes: 1,
            cores_per_node: nproc(),
            link_latency: 0.0,
            bandwidth: f64::INFINITY,
            cpu_speed: 1.0,
        },
        middleware: MiddlewareProfile::local(),
        placement: Placement::AllOn(0),
        client_node: 0,
        cpu_inflation: 1.0,
        packing: None,
    };
    let start = Instant::now();
    let report = simulate(&trace, &params);
    let replay_ms = start.elapsed().as_secs_f64() * 1e3;
    Calibration { sim_over_live: report.makespan * 1e3 / live_ms, replay_ms, outcome: out }
}
