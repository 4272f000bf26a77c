//! # bench
//!
//! The reproduction's output binaries:
//!
//! * `src/bin/figures.rs` — regenerates every table and figure of the paper
//!   as textual series (`cargo run --release -p bench --bin figures`);
//! * `src/bin/bench_leakage.rs` — the timing-leakage distinguishability
//!   sweep and leakage-vs-energy-delay scatter (`BENCH_leakage.json`).
//!
//! Performance is measured by the repository benchmark, `perfbench/`.

#![forbid(unsafe_code)]
