//! `leakage-oracle` differential suite: every probe-latency vector the
//! harness measures on the production [`Cache`] must be bitwise equal
//! to a replay of the identical trial on the intentionally-simple
//! [`ReferenceCache`]. This is what makes the leakage numbers
//! trustworthy: the attacker's observations are a property of the
//! *modelled policy*, not of the optimized implementation.

use cachesim::Cache;
use leakage::{
    harness_cache_config, run_trial, victim_trace, HarnessSpec, PolicyKind, Scenario,
    TABLE3_INTERVALS,
};
use oracles::ReferenceCache;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Replays one trial on both implementations and returns the pair of
/// latency vectors.
fn replay(
    policy: PolicyKind,
    interval: u64,
    scenario: Scenario,
    secret: bool,
    seed: u64,
) -> (Vec<units::Cycles>, Vec<units::Cycles>) {
    let cfg = harness_cache_config();
    let decay = policy.decay_config(interval);
    let switch = policy.interval_switch(interval);

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let trace = victim_trace(scenario.trace, secret, &mut rng);

    let mut fast = Cache::new(cfg, decay).expect("valid geometry");
    let got = run_trial(
        &mut fast,
        &trace,
        scenario.observer,
        scenario.trace.probe_at(),
        switch,
    );

    let mut oracle = ReferenceCache::new(cfg, decay).expect("valid geometry");
    let want = run_trial(
        &mut oracle,
        &trace,
        scenario.observer,
        scenario.trace.probe_at(),
        switch,
    );

    (got, want)
}

#[test]
fn probe_timings_bitwise_match_the_reference_cache() {
    let mut trials = 0u32;
    for policy in PolicyKind::ALL {
        for &interval in &[
            TABLE3_INTERVALS[0],
            TABLE3_INTERVALS[2],
            TABLE3_INTERVALS[6],
        ] {
            for scenario in Scenario::ALL {
                for secret in [false, true] {
                    for seed in 0..4u64 {
                        let (got, want) =
                            replay(policy, interval, scenario, secret, 0xA11CE ^ (seed << 8));
                        assert_eq!(
                            got,
                            want,
                            "divergence: {policy:?} interval={interval} \
                             scenario={} secret={secret} seed={seed}",
                            scenario.name()
                        );
                        trials += 1;
                    }
                }
            }
        }
    }
    assert_eq!(
        trials,
        4 * 3 * 2 * 2 * 4,
        "the matrix must be fully covered"
    );
}

#[test]
fn observations_are_nontrivial_on_both_implementations() {
    // Guard against the differential suite passing vacuously on empty
    // vectors: every scenario observes at least one probe, and the
    // decay policy's long-gap trial really does include a slow probe.
    let (got, _) = replay(
        PolicyKind::Decay,
        TABLE3_INTERVALS[0],
        Scenario::ALL[0],
        true,
        7,
    );
    assert!(!got.is_empty());
    assert!(
        got.iter().any(|l| l.get() > 1),
        "expected a decayed (slow) probe"
    );
}

#[test]
fn full_spec_sweep_is_reference_exact_at_one_cell() {
    // One end-to-end cell at the default spec's trial count, both
    // implementations, to cover the sweep's exact seeding path.
    let spec = HarnessSpec::default();
    for trial in 0..spec.trials_per_secret.min(6) as u64 {
        let (got, want) = replay(
            PolicyKind::Drowsy,
            TABLE3_INTERVALS[1],
            Scenario::ALL[1],
            trial % 2 == 0,
            spec.seed.wrapping_add(trial),
        );
        assert_eq!(got, want);
    }
}
