//! Timing-leakage measurement harness for leakage-control policies.
//!
//! The paper evaluates decay (non-state-preserving) and drowsy
//! (state-preserving) control on energy and performance only — but both
//! inject *new* secret-dependent timing variation: decay turns a
//! secret-length idle gap into an induced miss, drowsy turns it into a
//! wake-up stall. Following Cañones/Köpf/Reineke (leakage of cache
//! algorithms must be measured, not assumed) and Hu & Lee (cache-state
//! change as the root channel), this crate measures that channel
//! directly instead of assuming it:
//!
//! * [`trace`] — seeded victim traces differing only in a one-bit
//!   secret (gap-conflict and set-select victims);
//! * [`observer`] — prime+probe and evict+time attacker models replayed
//!   against the study's `Cache` (or the dev-only `oracles` crate's
//!   `ReferenceCache` — the trials are generic, so the oracle suite can
//!   diff them bitwise);
//! * [`metrics`] — observation-partition count, min-entropy leakage,
//!   Welch-t distinguishability and its seeded-permutation null over
//!   the quantized probe-timing alphabet;
//! * [`sweep`] — the policy × Table-3-interval measurement matrix
//!   behind `BENCH_leakage.json` and the leakage-vs-energy-delay
//!   figure.
//!
//! All timing is simulated [`units::Cycles`]; wall-clock time is banned
//! from this crate by the `no-wallclock-in-leakage` lint rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod observer;
pub mod sweep;
pub mod trace;

pub use metrics::{quantize, quantize_all, welch_t_stat, ObservationSet};
pub use observer::{
    access_latency, attacker_addrs, run_trial, IntervalSwitch, Observer, ProbeTarget,
};
pub use sweep::{
    collect, harness_cache_config, measure, self_test, sweep, HarnessSpec, LeakagePoint,
    PolicyKind, Scenario, SweepReport, PERM_ROUNDS, TABLE3_INTERVALS,
};
pub use trace::{addr_of, victim_trace, TimedAccess, TraceKind};
