//! Whole-core oracle for the timing engine.
//!
//! `raw_runs_match_golden` replays every benchmark under no control,
//! drowsy and gated-V_ss at the default decay intervals and compares each
//! [`RawRun`] (`CoreStats` plus the L1D `CacheStats`) bitwise against
//! `tests/goldens/raw_runs_150k.json`. The golden was recorded with the
//! linear fetch booking that rescanned full cycles from a stale floor, so
//! any change to the calendars or the core that alters a single event
//! count or cycle fails here. Regenerate (only for an intended timing
//! change) with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test core_oracle
//! ```

use std::fs;
use std::path::PathBuf;

use leakctl::Technique;
use serde::{Serialize, Value};
use simcore::study::{execute, RawRun};
use simcore::{StudyConfig, DEFAULT_DROWSY_INTERVAL, DEFAULT_GATED_INTERVAL};
use specgen::Benchmark;
use uarch::core::table2_core;

/// The L2 hit latency of the recorded runs, cycles (Table 2).
const L2_LATENCY: u32 = 11;

/// Skipped full cycles of gzip's baseline run across the four slot
/// calendars (150 k instructions, trace seed 12345).
const GZIP_PROBE_STEPS: u64 = 109_081;

/// One recorded run of the golden file.
#[derive(Serialize)]
struct GoldenRun {
    benchmark: String,
    technique: String,
    interval: u64,
    run: RawRun,
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/raw_runs_150k.json")
}

fn updating_goldens() -> bool {
    std::env::var("UPDATE_GOLDENS").is_ok_and(|v| v == "1")
}

fn fresh_runs() -> Vec<GoldenRun> {
    let cfg = StudyConfig::default();
    assert_eq!(
        (cfg.insts, cfg.seed),
        (150_000, 12345),
        "golden operating point"
    );
    let techniques = [
        Technique::none(),
        Technique::drowsy(DEFAULT_DROWSY_INTERVAL),
        Technique::gated_vss(DEFAULT_GATED_INTERVAL),
    ];
    Benchmark::ALL
        .iter()
        .flat_map(|&benchmark| {
            techniques.iter().map(move |technique| GoldenRun {
                benchmark: benchmark.name().to_string(),
                technique: technique.kind.name().to_string(),
                interval: technique.interval_cycles,
                run: execute(benchmark, technique, &cfg, L2_LATENCY).expect("run executes"),
            })
        })
        .collect()
}

#[test]
fn raw_runs_match_golden() {
    let fresh = fresh_runs();
    let path = golden_path();
    if updating_goldens() {
        let text = serde_json::to_string_pretty(&fresh).expect("runs serialize");
        fs::write(&path, text + "\n").expect("write golden");
        return;
    }
    let text = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden {}: {e}\nregenerate with UPDATE_GOLDENS=1 cargo test --test core_oracle",
            path.display()
        )
    });
    let Value::Array(expected) = serde_json::from_str(&text).expect("checked-in golden parses")
    else {
        panic!("{} is not a JSON array", path.display())
    };
    assert_eq!(
        expected.len(),
        fresh.len(),
        "one golden run per benchmark x technique"
    );
    for (want, got) in expected.iter().zip(&fresh) {
        assert!(
            *want == got.to_value(),
            "{} {} drifted from {}\nwant {want:?}\ngot  {:?}",
            got.benchmark,
            got.technique,
            path.display(),
            got.to_value()
        );
    }
}

/// The four slot calendars' skipped full cycles must stay linear in the
/// instruction count, and no dispatch or issue booking may fall before
/// its calendar's 8192-cycle window: a clamped booking would change
/// timing no golden recorded. Runs every benchmark under every golden
/// technique; gzip's baseline count is pinned exactly.
#[test]
fn calendar_probe_steps_stay_linear() {
    let cfg = StudyConfig::default();
    let techniques = [
        Technique::none(),
        Technique::drowsy(DEFAULT_DROWSY_INTERVAL),
        Technique::gated_vss(DEFAULT_GATED_INTERVAL),
    ];
    let counts: Vec<(Benchmark, &Technique, u64, u64, u64)> = Benchmark::ALL
        .iter()
        .flat_map(|&benchmark| {
            techniques.iter().map(move |technique| {
                let mut core =
                    table2_core(L2_LATENCY, technique.decay_config()).expect("valid hierarchy");
                let mut trace = specgen::replay_trace(benchmark, cfg.seed, cfg.insts);
                let stats = core.run(&mut trace, cfg.insts);
                (
                    benchmark,
                    technique,
                    core.calendar_probe_steps(),
                    core.calendar_window_clamps(),
                    stats.committed,
                )
            })
        })
        .collect();
    let table: String = counts
        .iter()
        .map(|(b, t, steps, clamps, insts)| {
            format!(
                "\n  {} {}: {steps} probe steps, {clamps} window clamps / {insts} insts",
                b.name(),
                t.kind.name()
            )
        })
        .collect();
    let gzip = counts
        .iter()
        .find(|c| c.0 == Benchmark::Gzip && c.1.decay_config().is_none())
        .expect("gzip baseline ran");
    assert_eq!(
        gzip.2, GZIP_PROBE_STEPS,
        "gzip baseline calendar work drifted{table}"
    );
    assert!(
        counts
            .iter()
            .all(|&(.., steps, _, insts)| steps <= 2 * insts),
        "more than 2 calendar probe steps per instruction{table}"
    );
    assert!(
        counts.iter().all(|&(.., clamps, _)| clamps == 0),
        "a dispatch or issue request fell before its calendar window{table}"
    );
}
