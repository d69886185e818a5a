//! The three workloads: their seeded inputs, their concern stacks, one solve,
//! the plain sequential core, and the output check.

use std::sync::Arc;

use weavepar::prelude::*;
use weavepar_apps::heat::{heat_heartbeat_config, solve_sequential, RodProxy};
use weavepar_apps::sieve::{build_sieve, run_sieve, sequential_sieve, SieveConfig, SieveRun};

use crate::host::nproc;

/// Rod length, heartbeat blocks and iterations of `heat_dispatch`.
const ROD_LEN: u64 = 64;
const ROD_WORKERS: usize = 4;
const ROD_ITERATIONS: u64 = 20_000;
/// Largest distance allowed between a heat cell and the sequential core.
const HEAT_TOLERANCE: f64 = 1e-9;

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Table-1 `FarmRMI` at the paper's grain: 50 packs, `max` about 2M.
    SieveCoarse,
    /// Table-1 `FarmDRMI` with tiny messages: 4 000 packs of 25 candidates.
    SieveFine,
    /// The heartbeat alone: single-threaded join-point dispatch.
    HeatDispatch,
}

impl Kind {
    /// Every workload the command accepts. `BENCHMARK.json` lists the two
    /// sieve workloads; `heat_dispatch` is run by hand (see the crate docs).
    pub const ALL: [Kind; 3] = [Kind::SieveCoarse, Kind::SieveFine, Kind::HeatDispatch];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SieveCoarse => "sieve_coarse",
            Kind::SieveFine => "sieve_fine",
            Kind::HeatDispatch => "heat_dispatch",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The class whose calls the partition band splits into packs, and the
    /// method each pack calls.
    pub fn kernel(self) -> (&'static str, &'static str) {
        match self {
            Kind::SieveCoarse | Kind::SieveFine => ("PrimeFilter", "filter"),
            Kind::HeatDispatch => ("Rod", "step"),
        }
    }

    /// The join points the span probes follow: the application's own
    /// constructions and top-level calls, plus (for the sieve) every pack.
    pub fn probed(self) -> Pointcut {
        match self {
            Kind::SieveCoarse | Kind::SieveFine => Pointcut::any("PrimeFilter.*"),
            Kind::HeatDispatch => Pointcut::construct("Rod").or(Pointcut::call("Rod.run")),
        }
    }
}

/// Deterministic generator for the seeded inputs (SplitMix64).
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// What one solve returns, or the error it failed with.
pub type WeaveOutcome = WeaveResult<Output>;

/// What one solve returns.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// All primes up to `max`, in order.
    Primes(Vec<u64>),
    /// The rod's cells after the last iteration.
    Rod(Vec<f64>),
}

impl Output {
    /// Damage the output so the check must reject it (used by the failure
    /// accounting test).
    pub fn corrupt(&mut self) {
        match self {
            Output::Primes(p) => p.push(1),
            Output::Rod(r) => r[0] += 1.0,
        }
    }
}

/// The seeded input of one run, and the reference output for it.
pub struct Input {
    /// The workload.
    pub kind: Kind,
    /// Sieve bound.
    pub max: u64,
    /// Rod boundary temperatures (left, right).
    pub bounds: (f64, f64),
    /// The sequential core's output on this input.
    pub reference: Output,
}

impl Input {
    /// Make the input from the seed and compute its reference.
    pub fn generate(kind: Kind, seed: u64) -> Self {
        let mut rng = SplitMix(seed ^ 0x5EED_0000 ^ kind as u64);
        let max = match kind {
            // The paper's grain: max = 2M within ±0.25%.
            Kind::SieveCoarse => 1_995_000 + (rng.unit() * 10_000.0) as u64,
            // 99 976 ..= 100 000 odd candidates split into exactly 4 000
            // packs of 25, so pack and call counts never depend on the seed.
            Kind::SieveFine => 2 * (99_976 + rng.next() % 25) + 1,
            Kind::HeatDispatch => 0,
        };
        let bounds = (100.0 * rng.unit(), 100.0 * rng.unit());
        let mut input = Input { kind, max, bounds, reference: Output::Primes(Vec::new()) };
        input.reference = input.sequential();
        input
    }

    /// The plain sequential core on this input: no weaver, no aspects.
    pub fn sequential(&self) -> Output {
        match self.kind {
            Kind::SieveCoarse | Kind::SieveFine => Output::Primes(sequential_sieve(self.max)),
            Kind::HeatDispatch => Output::Rod(solve_sequential(
                ROD_LEN,
                0.0,
                self.bounds.0,
                self.bounds.1,
                ROD_ITERATIONS,
            )),
        }
    }

    /// Does `out` match the sequential core? Sieve output must be identical;
    /// every heat cell must lie within 1e-9 of the reference.
    pub fn check(&self, out: &Output) -> bool {
        match (&self.reference, out) {
            (Output::Primes(want), Output::Primes(got)) => want == got,
            (Output::Rod(want), Output::Rod(got)) => {
                want.len() == got.len()
                    && want.iter().zip(got).all(|(w, g)| (w - g).abs() <= HEAT_TOLERANCE)
            }
            _ => false,
        }
    }
}

/// An assembled concern stack for one workload.
pub enum Stack {
    /// A Table-1 sieve combination.
    Sieve(SieveRun),
    /// The heartbeat partition on its own.
    Heat(ConcernStack),
}

impl Stack {
    /// Assemble the workload's stack (node threads included).
    pub fn build(kind: Kind) -> Stack {
        let filters = nproc();
        match kind {
            Kind::SieveCoarse => Stack::Sieve(build_sieve(SieveConfig::farm_rmi(filters))),
            Kind::SieveFine => Stack::Sieve(build_sieve(SieveConfig {
                packs: 4_000,
                ..SieveConfig::farm_drmi(filters)
            })),
            Kind::HeatDispatch => {
                let stack = ConcernStack::new();
                stack.plug(
                    Concern::Partition,
                    heat_heartbeat_config(ROD_WORKERS).aspect("Partition.heartbeat"),
                );
                Stack::Heat(stack)
            }
        }
    }

    /// The concern stack.
    pub fn concerns(&self) -> &ConcernStack {
        match self {
            Stack::Sieve(run) => &run.stack,
            Stack::Heat(stack) => stack,
        }
    }

    /// The node fabric, when distribution is plugged.
    pub fn fabric(&self) -> Option<&Arc<InProcFabric>> {
        match self {
            Stack::Sieve(run) => run.fabric.as_ref(),
            Stack::Heat(_) => None,
        }
    }

    /// One solve of `input` through the woven stack.
    pub fn solve(&self, input: &Input) -> WeaveOutcome {
        match self {
            Stack::Sieve(run) => run_sieve(run, input.max).map(Output::Primes),
            Stack::Heat(stack) => {
                let (left, right) = input.bounds;
                let rod = RodProxy::construct(stack.weaver(), ROD_LEN, 0.0, left, right)?;
                rod.run(ROD_ITERATIONS).map(Output::Rod)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use weavepar_apps::sieve::candidates;

    #[test]
    fn inputs_follow_the_seed() {
        for kind in [Kind::SieveFine, Kind::HeatDispatch] {
            let a = Input::generate(kind, 7);
            let b = Input::generate(kind, 7);
            assert_eq!((a.max, a.bounds), (b.max, b.bounds));
            assert_eq!(a.reference, b.reference);
        }
    }

    #[test]
    fn fine_inputs_always_make_4000_packs_of_25() {
        for seed in 0..200 {
            let max = Input::generate(Kind::SieveFine, seed).max;
            let n = candidates(max).len();
            let chunk = n.div_ceil(4_000);
            assert_eq!((chunk, n.div_ceil(chunk)), (25, 4_000), "max {max}");
        }
    }

    #[test]
    fn check_rejects_a_corrupted_output() {
        let input = Input::generate(Kind::HeatDispatch, 3);
        let mut out = input.sequential();
        assert!(input.check(&out));
        out.corrupt();
        assert!(!input.check(&out));
    }
}
