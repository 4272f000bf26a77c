//! Policy × interval leakage sweep: the measurement matrix behind
//! `BENCH_leakage.json` and the leakage-vs-energy-delay figure.
//!
//! For each policy on the Table-3 interval ladder the sweep replays
//! seeded victim-trace pairs under both attacker scenarios, quantizes
//! the probe latencies, and reports the metric layer's
//! distinguishability scores. Everything is a pure function of
//! [`HarnessSpec::seed`].

use cachesim::{
    Cache, CacheConfig, DecayConfig, DecayPolicy, StandbyBehavior, MIN_DECAY_INTERVAL_CYCLES,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use units::{CycleHistogram, Cycles};

use crate::metrics::{quantize_all, ObservationSet};
use crate::observer::{run_trial, IntervalSwitch, Observer};
use crate::trace::{victim_trace, TraceKind, ASSOC, HIT_LATENCY_CYCLES, LINE_BYTES, NUM_SETS};

/// The paper's Table-3 decay-interval ladder, mirrored from
/// `simcore::config::SWEEP_INTERVALS` (this crate sits below simcore in
/// the dependency order, so the constant is duplicated and pinned by a
/// simcore unit test, `leakage_harness_ladder_matches_sweep_intervals`).
pub const TABLE3_INTERVALS: [u64; 7] = [1024, 2048, 4096, 8192, 16384, 32768, 65536];

/// Label-permutation rounds behind every reported p-value.
pub const PERM_ROUNDS: u32 = 200;

/// Absolute cycle at which the adaptive policy re-targets its interval.
const ADAPTIVE_SWITCH_AT: u64 = 256;

/// Linear latency-histogram geometry: 1-cycle buckets spanning a miss
/// plus the largest wake-up stall, with saturation beyond.
const HISTOGRAM_BUCKETS: usize = 144;

/// The leakage-control policies the harness measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// No leakage control: the reference point every channel is
    /// measured against.
    Baseline,
    /// Non-state-preserving gated-V_ss decay (data lost in standby).
    Decay,
    /// State-preserving drowsy mode (data retained, wake-up stall).
    Drowsy,
    /// Decay that halves its interval mid-trial — exercises the
    /// interval-switch path the model checker verifies.
    Adaptive,
}

impl PolicyKind {
    /// Every policy, in report order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Baseline,
        PolicyKind::Decay,
        PolicyKind::Drowsy,
        PolicyKind::Adaptive,
    ];

    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Baseline => "baseline",
            PolicyKind::Decay => "decay",
            PolicyKind::Drowsy => "drowsy",
            PolicyKind::Adaptive => "adaptive",
        }
    }

    /// The decay configuration this policy runs at `interval_cycles`
    /// (`None` for the baseline). Settle times follow Table 1 via
    /// `leakctl`: gated-V_ss sleeps in 30 cycles, drowsy in 3, both
    /// wake in 3; tags decay with the data in both.
    pub fn decay_config(self, interval_cycles: u64) -> Option<DecayConfig> {
        match self {
            PolicyKind::Baseline => None,
            PolicyKind::Decay | PolicyKind::Adaptive => Some(DecayConfig {
                interval_cycles,
                policy: DecayPolicy::NoAccess,
                tags_decay: true,
                behavior: StandbyBehavior::Losing,
                sleep_settle_cycles: 30,
                wake_settle_cycles: 3,
            }),
            PolicyKind::Drowsy => Some(DecayConfig {
                interval_cycles,
                policy: DecayPolicy::NoAccess,
                tags_decay: true,
                behavior: StandbyBehavior::Preserving,
                sleep_settle_cycles: 3,
                wake_settle_cycles: 3,
            }),
        }
    }

    /// The mid-trial interval change (adaptive only): halve, clamped to
    /// the minimum legal interval.
    pub fn interval_switch(self, interval_cycles: u64) -> Option<IntervalSwitch> {
        match self {
            PolicyKind::Adaptive => Some(IntervalSwitch {
                at_cycle: ADAPTIVE_SWITCH_AT,
                interval_cycles: (interval_cycles / 2).max(MIN_DECAY_INTERVAL_CYCLES),
            }),
            _ => None,
        }
    }

    fn index(self) -> u64 {
        // lint: allow(unwrap): ALL enumerates every variant by construction
        PolicyKind::ALL.iter().position(|&p| p == self).unwrap() as u64
    }
}

/// An attacker scenario: which observer watches which victim trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// The observer model.
    pub observer: Observer,
    /// The victim trace it watches.
    pub trace: TraceKind,
}

impl Scenario {
    /// The two scenarios the sweep measures: the decay-induced
    /// evict+time channel on the gap-conflict trace, and the classic
    /// contention channel via prime+probe on the set-select trace.
    pub const ALL: [Scenario; 2] = [
        Scenario {
            observer: Observer::EvictTime,
            trace: TraceKind::GapConflict,
        },
        Scenario {
            observer: Observer::PrimeProbe,
            trace: TraceKind::SetSelect,
        },
    ];

    /// Stable name for reports, `<trace>_<observer>`.
    pub fn name(self) -> String {
        format!("{}_{}", self.trace.name(), self.observer.name())
    }

    fn index(self) -> u64 {
        // lint: allow(unwrap): ALL enumerates both scenarios by construction
        Scenario::ALL.iter().position(|&s| s == self).unwrap() as u64
    }
}

/// Reproducibility knobs for one sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarnessSpec {
    /// Root seed; every trial RNG and permutation null derives from it.
    pub seed: u64,
    /// Trials per secret value per (policy, interval, scenario) cell.
    pub trials_per_secret: usize,
}

impl Default for HarnessSpec {
    fn default() -> Self {
        HarnessSpec {
            seed: 0x5EC2E7,
            trials_per_secret: 24,
        }
    }
}

/// The cache geometry every trial runs on: 4 sets × 2 ways × 64 B,
/// 1-cycle hits — small enough that the 2-set model-checker results are
/// one doubling away from exhaustively verified territory.
pub fn harness_cache_config() -> CacheConfig {
    CacheConfig {
        size_bytes: NUM_SETS * ASSOC * LINE_BYTES,
        assoc: ASSOC,
        line_bytes: LINE_BYTES,
        hit_latency: HIT_LATENCY_CYCLES as u32,
    }
}

/// FNV-style seed mixer: one u64 per (spec, policy, interval, scenario,
/// secret, trial) coordinate, stable across runs.
fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

fn trial_seed(
    spec: &HarnessSpec,
    policy: PolicyKind,
    interval: u64,
    scenario: Scenario,
    secret: bool,
    trial: usize,
) -> u64 {
    let mut h = mix(0xCBF2_9CE4_8422_2325, spec.seed);
    h = mix(h, policy.index());
    h = mix(h, interval);
    h = mix(h, scenario.index());
    h = mix(h, u64::from(secret));
    mix(h, trial as u64)
}

/// Runs every trial of one (policy, interval, scenario) cell and
/// returns the quantized observations plus the raw latency histogram.
pub fn collect(
    policy: PolicyKind,
    interval_cycles: u64,
    scenario: Scenario,
    spec: &HarnessSpec,
) -> (ObservationSet, CycleHistogram) {
    let mut observations = ObservationSet::new();
    let mut histogram = CycleHistogram::new(Cycles::new(1), HISTOGRAM_BUCKETS);
    for secret in [false, true] {
        for trial in 0..spec.trials_per_secret {
            let seed = trial_seed(spec, policy, interval_cycles, scenario, secret, trial);
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let trace = victim_trace(scenario.trace, secret, &mut rng);
            // lint: allow(unwrap): the fixed harness geometry is validated by its own test
            let mut cache =
                Cache::new(harness_cache_config(), policy.decay_config(interval_cycles))
                    .expect("harness geometry is valid");
            let latencies = run_trial(
                &mut cache,
                &trace,
                scenario.observer,
                scenario.trace.probe_at(),
                policy.interval_switch(interval_cycles),
            );
            for &l in &latencies {
                histogram.record(l);
            }
            observations.push(secret, quantize_all(&latencies));
        }
    }
    (observations, histogram)
}

/// One cell of the sweep matrix, serialized into `BENCH_leakage.json`.
#[derive(Debug, Clone, Serialize)]
pub struct LeakagePoint {
    /// [`PolicyKind::name`].
    pub policy: String,
    /// [`Scenario::name`].
    pub scenario: String,
    /// Decay interval of this cell (the baseline carries the ladder
    /// value it was measured against for alignment).
    pub interval_cycles: u64,
    /// Trials per secret value behind the estimates.
    pub trials_per_secret: usize,
    /// Distinct observation vectors (attacker-view partition size).
    pub partitions: usize,
    /// Min-entropy leakage bound, bits (`[0, 1]` for the 1-bit secret).
    pub min_entropy_bits: f64,
    /// Welch-t distinguishability score on per-trial means.
    pub welch_t: f64,
    /// Seeded-permutation p-value for the t score.
    pub p_value: f64,
    /// Linear 1-cycle-bucket histogram of every raw probe latency.
    pub latency_histogram: CycleHistogram,
}

/// Measures one (policy, interval, scenario) cell.
pub fn measure(
    policy: PolicyKind,
    interval_cycles: u64,
    scenario: Scenario,
    spec: &HarnessSpec,
) -> LeakagePoint {
    let (observations, histogram) = collect(policy, interval_cycles, scenario, spec);
    let perm_seed = mix(
        mix(mix(spec.seed, policy.index()), interval_cycles),
        scenario.index(),
    );
    LeakagePoint {
        policy: policy.name().to_string(),
        scenario: scenario.name(),
        interval_cycles,
        trials_per_secret: spec.trials_per_secret,
        partitions: observations.partition_count(),
        min_entropy_bits: observations.min_entropy_leakage_bits(),
        welch_t: observations.welch_t(),
        p_value: observations.permutation_p(perm_seed, PERM_ROUNDS),
        latency_histogram: histogram,
    }
}

/// The full sweep: every policy × interval × scenario cell.
#[derive(Debug, Clone, Serialize)]
pub struct SweepReport {
    /// Root seed the sweep derives from.
    pub seed: u64,
    /// Trials per secret per cell.
    pub trials_per_secret: usize,
    /// The interval ladder measured.
    pub intervals: Vec<u64>,
    /// All measured cells.
    pub points: Vec<LeakagePoint>,
}

/// Runs the sweep over `intervals` for all policies and scenarios.
pub fn sweep(spec: &HarnessSpec, intervals: &[u64]) -> SweepReport {
    let mut points = Vec::new();
    for &interval in intervals {
        for policy in PolicyKind::ALL {
            for scenario in Scenario::ALL {
                points.push(measure(policy, interval, scenario, spec));
            }
        }
    }
    SweepReport {
        seed: spec.seed,
        trials_per_secret: spec.trials_per_secret,
        intervals: intervals.to_vec(),
        points,
    }
}

/// The harness's own sanity gate: on the gap-conflict evict+time
/// scenario at the shortest Table-3 interval, the baseline must leak
/// (essentially) nothing and short-interval decay must leak clearly
/// more. The seeded blind-bug mutation collapses the observation
/// alphabet, which drives both scores to zero and makes this fail —
/// CI runs it both ways.
pub fn self_test(spec: &HarnessSpec) -> Result<(), String> {
    let interval = TABLE3_INTERVALS[0];
    let scenario = Scenario::ALL[0];
    let baseline = measure(PolicyKind::Baseline, interval, scenario, spec);
    let decay = measure(PolicyKind::Decay, interval, scenario, spec);
    if baseline.min_entropy_bits > 0.05 {
        return Err(format!(
            "baseline leaks {:.3} bits on the conflict trace; expected ~0",
            baseline.min_entropy_bits
        ));
    }
    if decay.min_entropy_bits < 0.5 {
        return Err(format!(
            "decay at interval {interval} leaks only {:.3} bits; expected > 0.5",
            decay.min_entropy_bits
        ));
    }
    if decay.min_entropy_bits <= baseline.min_entropy_bits {
        return Err("decay-short is not more distinguishable than baseline".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> HarnessSpec {
        HarnessSpec {
            trials_per_secret: 8,
            ..HarnessSpec::default()
        }
    }

    #[test]
    fn baseline_leaks_nothing_on_the_gap_conflict_trace() {
        let p = measure(PolicyKind::Baseline, 1024, Scenario::ALL[0], &quick_spec());
        assert_eq!(p.min_entropy_bits, 0.0);
        assert_eq!(p.partitions, 1);
    }

    #[test]
    fn short_interval_decay_and_drowsy_both_leak_the_gap() {
        for policy in [PolicyKind::Decay, PolicyKind::Drowsy, PolicyKind::Adaptive] {
            let p = measure(policy, 1024, Scenario::ALL[0], &quick_spec());
            assert!(
                p.min_entropy_bits > 0.5,
                "{} at 1024 leaks {:.3} bits",
                p.policy,
                p.min_entropy_bits
            );
            assert!(p.partitions >= 2);
        }
    }

    #[test]
    fn long_interval_decay_goes_quiet() {
        let p = measure(PolicyKind::Decay, 65536, Scenario::ALL[0], &quick_spec());
        assert_eq!(p.min_entropy_bits, 0.0, "no deadline inside the long gap");
    }

    #[test]
    fn prime_probe_sees_set_selection_on_the_baseline() {
        let p = measure(PolicyKind::Baseline, 1024, Scenario::ALL[1], &quick_spec());
        assert!(
            p.min_entropy_bits > 0.5,
            "contention channel should leak under no leakage control, got {:.3}",
            p.min_entropy_bits
        );
    }

    #[test]
    fn sweep_covers_the_full_matrix_deterministically() {
        let spec = HarnessSpec {
            trials_per_secret: 4,
            ..HarnessSpec::default()
        };
        let a = sweep(&spec, &TABLE3_INTERVALS[..2]);
        let b = sweep(&spec, &TABLE3_INTERVALS[..2]);
        assert_eq!(
            a.points.len(),
            2 * PolicyKind::ALL.len() * Scenario::ALL.len()
        );
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.min_entropy_bits, y.min_entropy_bits);
            assert_eq!(x.p_value, y.p_value);
            assert_eq!(x.partitions, y.partitions);
        }
    }
}
