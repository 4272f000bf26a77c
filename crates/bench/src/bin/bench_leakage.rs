//! Runs the timing-leakage measurement harness over the full
//! policy × interval × scenario matrix and writes `BENCH_leakage.json`:
//! the distinguishability sweep ([`leakage::sweep`]) plus the
//! leakage-vs-energy-delay scatter
//! ([`simcore::figures::leakage_energy_scatter`]) pricing each policy
//! on a real benchmark.
//!
//! ```text
//! bench_leakage [--trials N] [--insts N] [--out FILE]
//! ```
//!
//! Everything in the report is a deterministic function of the harness
//! seed — the binary deliberately takes no wall-clock timings, so the
//! artifact is byte-stable across hosts (modulo float formatting).

use leakage::{HarnessSpec, PolicyKind, Scenario, SweepReport, TABLE3_INTERVALS};
use serde::Serialize;
use simcore::figures::{leakage_energy_scatter, LeakageEnergyFigure};
use simcore::{Study, StudyConfig};
use specgen::Benchmark;

#[derive(Serialize)]
struct BenchReport {
    /// Trials per secret per (policy, interval, scenario) cell.
    trials: usize,
    /// Root seed of every trial and permutation null.
    seed: u64,
    /// The interval ladder measured (the paper's Table-3 menu).
    intervals: Vec<u64>,
    /// The full distinguishability sweep.
    sweep: SweepReport,
    /// Leakage vs. energy-delay scatter on the pricing benchmark.
    figure: LeakageEnergyFigure,
}

fn main() {
    let mut trials: usize = 24;
    let mut insts: u64 = 60_000;
    let mut out = String::from("BENCH_leakage.json");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trials" => {
                trials = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--trials needs a number"))
            }
            "--insts" => {
                insts = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--insts needs a number"))
            }
            "--out" => {
                out = it
                    .next()
                    .unwrap_or_else(|| die("--out needs a path"))
                    .to_string()
            }
            other => die(&format!("unknown argument {other}")),
        }
    }

    let spec = HarnessSpec {
        trials_per_secret: trials,
        ..HarnessSpec::default()
    };

    // Gate the artifact on the harness's own sanity check: a report in
    // which short-interval decay is not distinguishable from the
    // baseline would be measurement noise, not a result.
    leakage::self_test(&spec).unwrap_or_else(|e| die(&format!("harness self-test: {e}")));
    eprintln!("self-test passed: decay-short > baseline on the conflict trace");

    let sweep = leakage::sweep(&spec, &TABLE3_INTERVALS);
    eprintln!(
        "sweep: {} cells ({} policies x {} intervals x {} scenarios)",
        sweep.points.len(),
        PolicyKind::ALL.len(),
        TABLE3_INTERVALS.len(),
        Scenario::ALL.len()
    );

    let study = Study::new(StudyConfig {
        insts,
        ..StudyConfig::default()
    });
    let figure =
        leakage_energy_scatter(&study, "fig-leakage", Benchmark::ALL[0], 11, 110.0, &sweep)
            .unwrap_or_else(|e| die(&format!("energy-delay pricing: {e}")));
    eprintln!(
        "figure: {} scatter points on {}",
        figure.points.len(),
        figure.benchmark
    );

    let report = BenchReport {
        trials,
        seed: spec.seed,
        intervals: TABLE3_INTERVALS.to_vec(),
        sweep,
        figure,
    };
    let json =
        serde_json::to_string_pretty(&report).unwrap_or_else(|e| die(&format!("serialise: {e}")));
    // lint: allow(fs-boundary): bench artifact emission — a one-shot JSON report, not run persistence
    std::fs::write(&out, json).unwrap_or_else(|e| die(&format!("writing {out}: {e}")));
    eprintln!("wrote {out}");
}

fn die(msg: &str) -> ! {
    eprintln!("bench_leakage: {msg}");
    std::process::exit(1);
}
