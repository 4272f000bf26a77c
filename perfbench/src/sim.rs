//! The two simulation workloads, `ladder-sweep` and `heldout-seeds`.

use std::time::Instant;

use leakctl::TechniqueKind;
use serde::Value;
use simcore::study::technique_of;
use simcore::{
    figures, CompareRequest, FigureSeries, RunResult, Study, StudyConfig, Table3,
    DEFAULT_DROWSY_INTERVAL, DEFAULT_GATED_INTERVAL, SWEEP_INTERVALS,
};
use specgen::Benchmark;

use crate::trace::{derive, Trace};
use crate::util::{self, derive as derive_seed, Metrics, Outcome};

/// Worker threads of every study (the measuring host has two CPUs).
pub const THREADS: usize = 2;
/// How many times set-up is repeated; its median is `setup_s`.
pub const SETUP_REPS: u64 = 5;
/// The seed every paper figure in this repository is produced at, and
/// the one the model was tuned on.
pub const TUNING_SEED: u64 = 12_345;

/// Instruction budget of `ladder-sweep`: large enough that gzip's
/// fetch-calendar scan dominates (≈20× the other benchmarks' ns per
/// instruction at the tuning seed), small enough for several passes.
const LADDER_INSTS: u64 = 150_000;
/// Instruction budget of `heldout-seeds`: each stream replays only three
/// times, so generation is a fifth of the work.
const HELDOUT_INSTS: u64 = 50_000;
/// Held-out seeds per second of `--seconds`. Fixed from the argument,
/// not from elapsed time: the replay arena keeps every stream, so peak
/// memory must follow the work, not the host's speed.
const HELDOUT_SEEDS_PER_SECOND: u64 = 1;
/// `ladder-sweep` passes at least this often.
const LADDER_MIN_PASSES: usize = 2;

/// Seed-stream labels for [`util::derive`].
const SETUP_STREAM: u64 = 1;
const HELDOUT_STREAM: u64 = 2;

/// Figure digests recorded from earlier runs: `"<trace seed>@<insts>"`
/// → FNV-1a of the figure JSON, per workload.
const PINS: &str = include_str!("../pins.json");

fn pinned(workload: &str, trace_seed: u64, insts: u64) -> Option<String> {
    let pins = serde_json::from_str(PINS).expect("pins.json is valid JSON");
    match util::field(
        util::field(&pins, workload)?,
        &format!("{trace_seed}@{insts}"),
    )? {
        Value::Str(s) => Some(s.clone()),
        _ => None,
    }
}

fn config(seed: u64, insts: u64) -> StudyConfig {
    StudyConfig {
        seed,
        insts,
        ..StudyConfig::default()
    }
}

/// Set-up: a fresh study and a cold replay-arena fill of all eleven
/// streams, once per seed in `seeds`. Returns each repetition's seconds.
fn setup(seeds: &[u64], insts: u64) -> Vec<f64> {
    seeds
        .iter()
        .map(|&seed| {
            let t = Instant::now();
            let study = Study::with_threads(config(seed, insts), THREADS);
            for b in Benchmark::ALL {
                std::hint::black_box(specgen::replay_trace(b, study.config().seed, insts));
            }
            t.elapsed().as_secs_f64()
        })
        .collect()
}

fn setup_seeds(seed: u64, first: Option<u64>) -> Vec<u64> {
    let derived = (0..).map(|i| derive_seed(seed, SETUP_STREAM, i));
    first
        .into_iter()
        .chain(derived.filter(|&s| s != TUNING_SEED))
        .take(SETUP_REPS as usize)
        .collect()
}

/// Replay-arena size after this process's streams: every
/// `(benchmark, seed)` stream stays buffered.
pub fn arena_mb(seeds: usize, insts: u64) -> f64 {
    (seeds * Benchmark::ALL.len()) as f64
        * insts as f64
        * std::mem::size_of::<uarch::MicroOp>() as f64
        / 1e6
}

fn figure_digest(figs: &[&FigureSeries], table: Option<&Table3>) -> String {
    let mut parts: Vec<String> = figs.iter().map(|f| util::json(*f)).collect();
    if let Some(t) = table {
        parts.push(util::json(t));
    }
    format!("{:016x}", util::digest(parts.iter().map(String::as_bytes)))
}

/// The requests behind `figures::best_interval_figures`, in its order.
fn ladder_requests() -> Vec<CompareRequest> {
    let mut out = Vec::new();
    for b in Benchmark::ALL {
        for kind in [TechniqueKind::Drowsy, TechniqueKind::GatedVss] {
            for interval in SWEEP_INTERVALS {
                out.push(CompareRequest {
                    benchmark: b,
                    technique: technique_of(kind, interval),
                    l2_latency: 11,
                    temperature_c: 85.0,
                });
            }
        }
    }
    out
}

/// The requests behind `figures::savings_figure(.., 5, 110.0)`.
fn fig3_requests() -> Vec<CompareRequest> {
    Benchmark::ALL
        .into_iter()
        .flat_map(|b| {
            [
                technique_of(TechniqueKind::Drowsy, DEFAULT_DROWSY_INTERVAL),
                technique_of(TechniqueKind::GatedVss, DEFAULT_GATED_INTERVAL),
            ]
            .map(|technique| CompareRequest {
                benchmark: b,
                technique,
                l2_latency: 5,
                temperature_c: 110.0,
            })
        })
        .collect()
}

/// The best-interval pick `best_interval_figures` makes: highest net
/// savings, ties toward the longer interval.
fn best(sweep: &[RunResult]) -> RunResult {
    *sweep
        .iter()
        .max_by(|a, b| {
            a.net_savings_pct
                .total_cmp(&b.net_savings_pct)
                .then(a.interval.cmp(&b.interval))
        })
        .expect("sweeps are non-empty")
}

fn latency_detail(samples: usize) -> Vec<(String, Value)> {
    vec![
        ("latency_samples".into(), Value::UInt(samples as u64)),
        (
            "tail_percentile".into(),
            Value::Float(util::tail_percentile(samples)),
        ),
    ]
}

/// `ladder-sweep`: Figures 12/13 and Table 3 —
/// `figures::best_interval_figures(&study, 11, 85.0)`, 165 timing runs on
/// a fresh study with two workers per pass. The simulated input is the
/// paper's recorded configuration (trace seed [`TUNING_SEED`]), so every
/// pass is checked against its pinned digest; `--seed` derives the
/// extra set-up repetitions. See README.md for why the trace seed is
/// not drawn from `--seed` here.
pub fn ladder(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let cfg = config(TUNING_SEED, LADDER_INSTS);
    let setup_seeds = setup_seeds(seed, Some(TUNING_SEED));
    let setup_s = setup(&setup_seeds, LADDER_INSTS);
    let pin = pinned("ladder-sweep", cfg.seed, cfg.insts);

    let mut attempted = 0;
    let mut failed = 0;
    let mut pass_s = Vec::new();
    let mut digests = Vec::new();
    let mut last: Option<(Study, FigureSeries, FigureSeries, Table3)> = None;
    let started = Instant::now();
    loop {
        let study = Study::with_threads(cfg, THREADS);
        let t = Instant::now();
        let result = figures::best_interval_figures(&study, 11, 85.0);
        pass_s.push(t.elapsed().as_secs_f64());
        attempted += 1;
        match result {
            Ok((f12, f13, t3)) => {
                let d = figure_digest(&[&f12, &f13], Some(&t3));
                if pin.as_deref() != Some(d.as_str()) {
                    failed += 1;
                }
                digests.push(Value::Str(d));
                last = Some((study, f12, f13, t3));
            }
            Err(e) => {
                eprintln!("ladder-sweep: {e}");
                failed += 1;
            }
        }
        let enough = pass_s.len() >= LADDER_MIN_PASSES && started.elapsed().as_secs() >= seconds;
        if traced || enough {
            break;
        }
    }
    let mut detail = vec![
        ("trace_seed".into(), Value::UInt(cfg.seed)),
        ("insts".into(), Value::UInt(cfg.insts)),
        (
            "pinned_digest".into(),
            pin.clone().map_or(Value::Null, Value::Str),
        ),
        ("digests".into(), Value::Array(digests)),
        (
            "pass_s".into(),
            Value::Array(pass_s.iter().map(|&s| Value::Float(s)).collect()),
        ),
    ];
    detail.extend(latency_detail(pass_s.len()));
    if !traced {
        return Outcome {
            attempted,
            failed,
            metrics: util::end_to_end(&pass_s, &pass_s, &setup_s),
            detail,
        };
    }

    // Traced: re-derive the last pass twice; the counts must repeat and
    // every run and priced pick must equal the untraced program's.
    let Some((study, f12, f13, t3)) = last else {
        return Outcome {
            attempted,
            failed,
            metrics: Metrics::new(),
            detail,
        };
    };
    let requests = ladder_requests();
    let mut traces = [Trace::default(), Trace::default()];
    for trace in &mut traces {
        attempted += 1;
        match derive(study.ctx(), &requests, &study, THREADS, false, trace) {
            Ok(priced) => {
                let picks: Vec<RunResult> = priced
                    .chunks_exact(SWEEP_INTERVALS.len())
                    .map(best)
                    .collect();
                let table_ok =
                    t3.rows.iter().zip(picks.chunks_exact(2)).all(|(row, p)| {
                        row.1.get() == p[0].interval && row.2.get() == p[1].interval
                    });
                if picks != f12.results || picks != f13.results || !table_ok {
                    failed += 1;
                }
            }
            Err(e) => {
                eprintln!("ladder-sweep traced: {e}");
                failed += 1;
            }
        }
    }
    let [a, b] = traces;
    attempted += a.compared + b.compared + 1;
    failed += a.mismatches + b.mismatches + u64::from(a.counts != b.counts);
    let mut metrics = a.metrics(1.0);
    add_study_counters(&mut metrics, std::iter::once(&study), 1.0);
    metrics.insert(
        "specgen.arena_mb",
        (arena_mb(setup_seeds.len(), cfg.insts), "MB"),
    );
    metrics.insert("trace.overhead_s", (a.wall_s - pass_s[0], "s"));
    detail.push((
        "traced_counts_repeat".into(),
        Value::Bool(a.counts == b.counts),
    ));
    Outcome {
        attempted,
        failed,
        metrics,
        detail,
    }
}

/// `RunCache::counters` of the untraced passes' studies, per pass.
fn add_study_counters<'a>(m: &mut Metrics, studies: impl Iterator<Item = &'a Study>, passes: f64) {
    let mut sum = [0_u64; 4];
    for study in studies {
        let c = study.cache().counters();
        for (s, v) in sum
            .iter_mut()
            .zip([c.hits, c.misses, c.coalesced, c.executions])
        {
            *s += v;
        }
    }
    let names = [
        "study.cache_hits",
        "study.cache_misses",
        "study.coalesced",
        "study.executions",
    ];
    for (name, v) in names.into_iter().zip(sum) {
        m.insert(name, (v as f64 / passes, "count"));
    }
}

/// `heldout-seeds`: the Figure-3 default-interval comparison
/// (`figures::savings_figure(&study, "fig3", 5, 110.0)`, 33 timing runs)
/// on a fresh study for each of a fixed number of seeds derived from
/// `--seed`, never the tuning seed. Each seed's figure is one operation.
pub fn heldout(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let count = (seconds * HELDOUT_SEEDS_PER_SECOND).max(1) as usize;
    let seeds: Vec<u64> = (0..)
        .map(|i| derive_seed(seed, HELDOUT_STREAM, i))
        .filter(|&s| s != TUNING_SEED)
        .take(count)
        .collect();
    let setup_seeds = setup_seeds(seed, None);
    let setup_s = setup(&setup_seeds, HELDOUT_INSTS);

    let mut attempted = 0;
    let mut failed = 0;
    let mut seed_s = Vec::new();
    let mut per_seed = Vec::new();
    let mut done: Vec<(Study, FigureSeries)> = Vec::new();
    for &s in &seeds {
        let study = Study::with_threads(config(s, HELDOUT_INSTS), THREADS);
        let t = Instant::now();
        let result = figures::savings_figure(&study, "fig3", 5, 110.0);
        let dt = t.elapsed().as_secs_f64();
        seed_s.push(dt);
        attempted += 1;
        let mut entry = vec![
            ("seed".into(), Value::UInt(s)),
            ("seconds".into(), Value::Float(dt)),
        ];
        match result {
            Ok(fig) => {
                let d = figure_digest(&[&fig], None);
                let pin = pinned("heldout-seeds", s, HELDOUT_INSTS);
                if pin.as_ref().is_some_and(|p| *p != d) {
                    failed += 1;
                }
                entry.push(("digest".into(), Value::Str(d)));
                entry.push(("pinned".into(), Value::Bool(pin.is_some())));
                if traced {
                    done.push((study, fig));
                }
            }
            Err(e) => {
                eprintln!("heldout-seeds seed {s}: {e}");
                failed += 1;
            }
        }
        per_seed.push(Value::Object(entry));
    }
    let mut detail = vec![
        ("insts".into(), Value::UInt(HELDOUT_INSTS)),
        ("per_seed".into(), Value::Array(per_seed)),
    ];
    detail.extend(latency_detail(seed_s.len()));
    if !traced {
        return Outcome {
            attempted,
            failed,
            metrics: util::end_to_end(&seed_s, &seed_s, &setup_s),
            detail,
        };
    }

    let requests = fig3_requests();
    let mut traces = [Trace::default(), Trace::default()];
    for trace in &mut traces {
        for (study, fig) in &done {
            attempted += 1;
            match derive(study.ctx(), &requests, study, THREADS, true, trace) {
                Ok(priced) if priced == fig.results => {}
                Ok(_) => failed += 1,
                Err(e) => {
                    eprintln!("heldout-seeds traced: {e}");
                    failed += 1;
                }
            }
        }
    }
    let [a, b] = traces;
    attempted += a.compared + b.compared + 1;
    failed += a.mismatches + b.mismatches + u64::from(a.counts != b.counts);
    let passes = done.len().max(1) as f64;
    let mut metrics = a.metrics(passes);
    add_study_counters(&mut metrics, done.iter().map(|(study, _)| study), passes);
    metrics.insert(
        "specgen.arena_mb",
        (
            arena_mb(setup_seeds.len() + seeds.len(), HELDOUT_INSTS),
            "MB",
        ),
    );
    metrics.insert(
        "trace.overhead_s",
        ((a.wall_s - seed_s.iter().sum::<f64>()) / passes, "s"),
    );
    detail.push((
        "traced_counts_repeat".into(),
        Value::Bool(a.counts == b.counts),
    ));
    Outcome {
        attempted,
        failed,
        metrics,
        detail,
    }
}
