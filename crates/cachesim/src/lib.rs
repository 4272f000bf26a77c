//! # cachesim
//!
//! A cache-hierarchy timing simulator built for leakage-control studies.
//!
//! The crate provides the *mechanisms* of paper §2.3 — per-line
//! active/standby state, the hierarchical decay counters (a global counter
//! counting to one quarter of the decay interval plus two-bit per-line
//! counters), tag decay, settling times, and induced-vs-true miss
//! classification — while the *policies and physics* of specific techniques
//! (how much a standby line leaks, what transitions cost) live in the
//! `leakctl` crate. The split keeps this crate dependency-free and lets any
//! standby-based technique (gated-V_ss, drowsy, RBB) be expressed as a
//! [`StandbyBehavior`] plus a [`DecayConfig`].
//!
//! The crate's oracles are test code and do not ship here: the naive
//! full-sweep `ReferenceCache` lives in the dev-only `oracles` crate, and
//! the exhaustive mode-machine model checker is the `modelcheck`
//! integration test. They drive [`Cache`] from outside through
//! [`Cache::line_view`], [`Cache::wrap_phase`], [`Cache::probe`] and
//! [`Cache::clock`].
//!
//! ## Example
//!
//! ```
//! use cachesim::{Cache, CacheConfig, AccessKind, DecayConfig, StandbyBehavior, DecayPolicy};
//!
//! // A 64 KB, 2-way, 64 B-line cache with gated-Vss-style decay.
//! let decay = DecayConfig {
//!     interval_cycles: 4096,
//!     policy: DecayPolicy::NoAccess,
//!     tags_decay: true,
//!     behavior: StandbyBehavior::Losing,
//!     sleep_settle_cycles: 30,
//!     wake_settle_cycles: 3,
//! };
//! let mut cache = Cache::new(CacheConfig::l1_64k_2way(), Some(decay))?;
//! let r = cache.access(0x1000, AccessKind::Read, 0);
//! assert!(!r.hit); // cold miss
//! # Ok::<(), cachesim::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

#[cfg(feature = "audit")]
pub mod audit;
pub mod cache;
pub mod config;
pub mod decay;
pub mod hierarchy;
pub mod reuse;
pub mod stats;
mod wheel;

pub use cache::{AccessKind, AccessResult, Cache, LineDataView, LineView, MissKind};
pub use config::{CacheConfig, ConfigError};
pub use decay::{DecayConfig, DecayPolicy, LineMode, StandbyBehavior, MIN_DECAY_INTERVAL_CYCLES};
pub use hierarchy::{DataAccessOutcome, Hierarchy, HierarchyConfig};
pub use stats::{CacheStats, ModeCycles};
