//! Prediction-vs-simulation fidelity harness.
//!
//! Two independent guards on the paper's headline claims:
//!
//! 1. **The knee oracle** ([`knee_oracle`]): the analytic
//!    [`KneePredictor`](simcore::analysis::KneePredictor) forecasts each
//!    benchmark's best decay interval from its reuse profile, the simulated
//!    sweep ([`best_interval_figures`]) finds the real optimum, and the two
//!    must agree within one power of two — for every benchmark, both
//!    techniques, at every L2 latency the paper studies. A systematic
//!    divergence means either the timing model or the economics drifted.
//! 2. **Golden data** ([`collect_goldens`] / [`diff_values`]): the full
//!    figure pipeline is snapshotted into a JSON tree and compared against
//!    a checked-in golden with per-metric relative tolerances, so *any*
//!    numeric drift in the reproduction is caught, not just drift that
//!    crosses a qualitative threshold.
//!
//! The comparison runs in the `serde::Value` domain: goldens are parsed
//! with `serde_json::from_str` and diffed tree-against-tree, which keeps
//! the tolerance logic in one place and the golden files human-readable.
//! `tests/fidelity.rs` wires both guards into the test suite, with an
//! `UPDATE_GOLDENS=1` regeneration path. This harness is test-only code:
//! it lives beside that suite, not in `simcore`.

use std::fmt::Write as _;

use leakctl::{Technique, TechniqueKind};
use serde::{Serialize, Value};
use specgen::Benchmark;

use simcore::adaptive::{run_adaptive_many, AdaptiveRequest, Controller};
use simcore::analysis::{profile_workload, BaselinePoint, KneePredictor};
use simcore::config::SWEEP_INTERVALS;
use simcore::figures::{best_interval_figures, perf_figure, savings_figure, FigureSeries};
use simcore::pricing;
use simcore::report::fmt_interval;
use simcore::study::{technique_of, Study, StudyError};

/// The L2 hit latencies the paper's sensitivity study sweeps (§5.2): the
/// crossover range over which gated-V_ss goes from winning to losing.
pub const ORACLE_L2_LATENCIES: [u32; 4] = [5, 8, 11, 17];

/// One benchmark × technique × L2-latency comparison of the predicted and
/// simulated best decay intervals.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct KneeRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Technique name (`drowsy` / `gated-vss`).
    pub technique: String,
    /// L2 hit latency, cycles.
    pub l2_latency: u32,
    /// The analytically predicted best interval.
    pub predicted: u64,
    /// The simulated sweep's best interval (Table 3).
    pub simulated: u64,
    /// Net savings the sweep found at the *predicted* interval, percent.
    pub predicted_savings_pct: f64,
    /// Net savings at the simulated optimum, percent.
    pub simulated_savings_pct: f64,
    /// The raw 99 %-CDF knee, before economics weighting.
    pub interval_99: u64,
}

impl KneeRow {
    /// Whether prediction and simulation agree within one power of two
    /// (both come from the power-of-two sweep menu, so the check is an
    /// exact ratio test).
    pub fn within_one_power_of_two(&self) -> bool {
        let (lo, hi) = if self.predicted <= self.simulated {
            (self.predicted, self.simulated)
        } else {
            (self.simulated, self.predicted)
        };
        lo.saturating_mul(2) >= hi
    }

    /// How many percentage points of net savings the prediction left on
    /// the table (0 when prediction and simulation agree).
    pub fn savings_delta_pct(&self) -> f64 {
        self.simulated_savings_pct - self.predicted_savings_pct
    }
}

/// The full oracle result: one [`KneeRow`] per benchmark × technique × L2
/// latency.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct KneeOracleReport {
    /// All comparisons, grouped by L2 latency then benchmark.
    pub rows: Vec<KneeRow>,
}

impl KneeOracleReport {
    /// The rows where prediction and simulation disagree by more than one
    /// power of two.
    pub fn mismatches(&self) -> Vec<&KneeRow> {
        self.rows
            .iter()
            .filter(|r| !r.within_one_power_of_two())
            .collect()
    }

    /// A structured mismatch report: benchmark, technique, latency,
    /// predicted vs simulated interval, and the savings delta — the
    /// message shown when the oracle assertion fails.
    pub fn render_mismatches(&self) -> String {
        let mismatches = self.mismatches();
        let mut out = format!(
            "{} of {} knee predictions off by more than one power of two\n",
            mismatches.len(),
            self.rows.len()
        );
        let _ = writeln!(
            out,
            "{:<10} {:<10} {:>3} {:>10} {:>10} {:>12}",
            "benchmark", "technique", "L2", "predicted", "simulated", "savings-cost"
        );
        for r in mismatches {
            let _ = writeln!(
                out,
                "{:<10} {:<10} {:>3} {:>10} {:>10} {:>11.2}%",
                r.benchmark,
                r.technique,
                r.l2_latency,
                fmt_interval(units::Cycles::new(r.predicted)),
                fmt_interval(units::Cycles::new(r.simulated)),
                r.savings_delta_pct()
            );
        }
        out
    }
}

/// Runs the prediction-vs-simulation oracle: profiles every benchmark,
/// predicts its best decay interval for both techniques at each latency in
/// `l2_latencies`, runs the simulated sweep, and reports the comparisons.
///
/// The predictor is fed each benchmark's *measured* baseline point — CPI
/// (the profile's time axis is instruction-approximated; the sweep's
/// baselines supply the cycles-per-instruction scale factor) and L1D miss
/// ratio (drives the MLP exposure model) — so prediction uses no
/// simulation output other than the baseline run every figure needs anyway.
///
/// # Errors
///
/// Returns [`StudyError`] if any simulation or pricing step fails.
pub fn knee_oracle(
    study: &Study,
    l2_latencies: &[u32],
    temperature_c: f64,
) -> Result<KneeOracleReport, StudyError> {
    let cfg = study.config();
    let predictor = KneePredictor::new(cfg, temperature_c)?;
    let profiles: Vec<_> = Benchmark::ALL
        .into_iter()
        .map(|b| profile_workload(b, cfg.insts, cfg.seed))
        .collect();
    let mut rows = Vec::new();
    for &l2 in l2_latencies {
        let (fig12, _fig13, table3) = best_interval_figures(study, l2, temperature_c)?;
        for (i, b) in Benchmark::ALL.into_iter().enumerate() {
            let (_, sim_drowsy, sim_gated) = table3.rows[i].clone();
            let (sim_drowsy, sim_gated) = (sim_drowsy.get(), sim_gated.get());
            for (kind, best, simulated) in [
                (TechniqueKind::Drowsy, &fig12.results[2 * i], sim_drowsy),
                (
                    TechniqueKind::GatedVss,
                    &fig12.results[2 * i + 1],
                    sim_gated,
                ),
            ] {
                let cpi = if best.base_ipc > 0.0 {
                    1.0 / best.base_ipc
                } else {
                    1.0
                };
                let baseline = study.baseline(b, l2)?;
                let accesses = baseline.l1d.accesses();
                let miss_ratio = if accesses > 0 {
                    // lint: allow(lossy-cast): counter-to-ratio conversion
                    baseline.l1d.misses() as f64 / accesses as f64
                } else {
                    0.0
                };
                let base = BaselinePoint { cpi, miss_ratio };
                let pred = predictor.predict(&profiles[i], kind, l2, base, &SWEEP_INTERVALS)?;
                // Savings at the predicted interval: a cache hit — the sweep
                // above already ran every menu interval.
                let at_pred =
                    study.compare(b, technique_of(kind, pred.predicted), l2, temperature_c)?;
                rows.push(KneeRow {
                    benchmark: b.name().to_string(),
                    technique: kind.name().to_string(),
                    l2_latency: l2,
                    predicted: pred.predicted,
                    simulated,
                    predicted_savings_pct: at_pred.net_savings_pct,
                    simulated_savings_pct: best.net_savings_pct,
                    interval_99: pred.interval_99,
                });
            }
        }
    }
    Ok(KneeOracleReport { rows })
}

/// One figure's golden data: the per-benchmark series without the per-run
/// diagnostics (which are regeneration detail, not paper claims).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GoldenFigure {
    /// Golden identifier (unique across the set, unlike `FigureSeries::id`
    /// which repeats across latitudes).
    pub id: String,
    /// Unit of the values.
    pub unit: String,
    /// Benchmark names, paper order.
    pub benchmarks: Vec<String>,
    /// Drowsy series.
    pub drowsy: Vec<f64>,
    /// Gated-V_ss series.
    pub gated: Vec<f64>,
    /// Average of the drowsy series.
    pub drowsy_avg: f64,
    /// Average of the gated series.
    pub gated_avg: f64,
}

impl GoldenFigure {
    fn of(id: impl Into<String>, fig: &FigureSeries) -> Self {
        GoldenFigure {
            id: id.into(),
            unit: fig.unit.clone(),
            benchmarks: fig.benchmarks.clone(),
            drowsy: fig.drowsy.clone(),
            gated: fig.gated.clone(),
            drowsy_avg: fig.drowsy_avg(),
            gated_avg: fig.gated_avg(),
        }
    }
}

/// Table 3 golden at one L2 latency.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GoldenTable {
    /// L2 hit latency, cycles.
    pub l2_latency: u32,
    /// `(benchmark, drowsy interval, gated interval)` rows.
    pub rows: Vec<(String, u64, u64)>,
}

/// One adaptive closed-loop comparison golden.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AdaptiveGolden {
    /// Benchmark name.
    pub benchmark: String,
    /// Controller name (`amc` / `feedback`).
    pub controller: String,
    /// Interval in force at the end of the run.
    pub final_interval: u64,
    /// Net savings vs the no-control baseline, percent.
    pub net_savings_pct: f64,
}

/// The whole golden snapshot of the figure pipeline at one study
/// configuration.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GoldenSet {
    /// Instructions per run the snapshot was taken at.
    pub insts: u64,
    /// Workload seed.
    pub seed: u64,
    /// Pricing temperature of the main figures, °C.
    pub temperature_c: f64,
    /// Default-interval and best-interval figures.
    pub figures: Vec<GoldenFigure>,
    /// Table 3 at each studied L2 latency.
    pub tables: Vec<GoldenTable>,
    /// Closed-loop adaptive comparisons (gated-V_ss, L2 = 11).
    pub adaptive: Vec<AdaptiveGolden>,
}

/// Snapshots the figure pipeline: savings/performance figures at the
/// default interval for every studied L2 latency, an 85 °C re-pricing
/// (the Figure 7/8 temperature study), the best-interval figures and
/// Table 3 per latency, and the closed-loop adaptive comparisons.
///
/// Every fixed-interval request re-uses the study's run cache, so calling
/// this after [`knee_oracle`] on the same `study` only prices — the
/// timing runs are shared.
///
/// # Errors
///
/// Returns [`StudyError`] if any simulation or pricing step fails.
pub fn collect_goldens(study: &Study, temperature_c: f64) -> Result<GoldenSet, StudyError> {
    let cfg = study.config();
    let mut figures = Vec::new();
    let mut tables = Vec::new();
    for &l2 in &ORACLE_L2_LATENCIES {
        let s = savings_figure(study, "default-savings", l2, temperature_c)?;
        figures.push(GoldenFigure::of(format!("savings-l2-{l2}"), &s));
        let p = perf_figure(study, "default-perf", l2, temperature_c)?;
        figures.push(GoldenFigure::of(format!("perf-l2-{l2}"), &p));
        let (fig12, fig13, t3) = best_interval_figures(study, l2, temperature_c)?;
        figures.push(GoldenFigure::of(format!("best-savings-l2-{l2}"), &fig12));
        figures.push(GoldenFigure::of(format!("best-perf-l2-{l2}"), &fig13));
        tables.push(GoldenTable {
            l2_latency: l2,
            rows: t3
                .rows
                .into_iter()
                .map(|(name, d, g)| (name, d.get(), g.get()))
                .collect(),
        });
    }
    // The temperature study: the same timing runs re-priced at 85 °C.
    let cool = savings_figure(study, "default-savings", 11, 85.0)?;
    figures.push(GoldenFigure::of("savings-l2-11-85c", &cool));

    // Closed-loop adaptive runs (fresh simulations; not cacheable because
    // the interval changes mid-run).
    let env = cfg.environment(temperature_c)?;
    let arrays = pricing::CacheArrays::table2_l1d();
    let window = (cfg.insts / 5).max(1);
    let combos: Vec<(Benchmark, Controller, &str)> = [Benchmark::Gzip, Benchmark::Gcc]
        .into_iter()
        .flat_map(|b| {
            [
                (b, Controller::AdaptiveModeControl, "amc"),
                (b, Controller::Feedback { setpoint: 0.01 }, "feedback"),
            ]
        })
        .collect();
    let requests: Vec<AdaptiveRequest> = combos
        .iter()
        .map(|&(benchmark, controller, _)| AdaptiveRequest {
            benchmark,
            kind: TechniqueKind::GatedVss,
            controller,
            window_insts: window,
        })
        .collect();
    let runs = run_adaptive_many(&requests, cfg, 11)?;
    let mut adaptive = Vec::new();
    for ((benchmark, _, name), run) in combos.into_iter().zip(runs) {
        let base = study.baseline(benchmark, 11)?;
        let p_base = pricing::price(&base, &Technique::none(), &env, &arrays)?;
        // The controllers keep the tags awake to observe induced misses;
        // price with the matching technique parameters.
        let tech = Technique {
            tags_decay: false,
            ..Technique::gated_vss(run.final_interval)
        };
        let p = pricing::price(&run.raw, &tech, &env, &arrays)?;
        adaptive.push(AdaptiveGolden {
            benchmark: benchmark.name().to_string(),
            controller: name.to_string(),
            final_interval: run.final_interval,
            net_savings_pct: pricing::net_savings(&p_base, &p) * 100.0,
        });
    }

    Ok(GoldenSet {
        insts: cfg.insts,
        seed: cfg.seed,
        temperature_c,
        figures,
        tables,
        adaptive,
    })
}

/// Per-metric relative tolerances for golden comparison.
///
/// Integer leaves (intervals, counts, seeds) always compare exactly; float
/// leaves compare with the relative tolerance of the first `per_metric`
/// entry whose key is a substring of the leaf's path, falling back to
/// `default_rel`. The comparison scale is `max(|expected|, 1.0)` — the
/// metrics are percents, so one unit is the natural floor and near-zero
/// values do not demand absurd absolute precision.
#[derive(Debug, Clone)]
pub struct Tolerances {
    /// Fallback relative tolerance.
    pub default_rel: f64,
    /// `(path substring, relative tolerance)` overrides, first match wins.
    pub per_metric: Vec<(&'static str, f64)>,
}

impl Default for Tolerances {
    /// The fidelity suite's defaults: results are bitwise-deterministic on
    /// one platform (the parallel engine is order-preserving), so the only
    /// slack needed is for cross-platform `libm` drift in the leakage
    /// model's `exp`/`ln` — parts in 10⁶ after percent-scale arithmetic.
    fn default() -> Self {
        Tolerances {
            default_rel: 1e-9,
            per_metric: vec![
                (".drowsy", 1e-6),
                (".gated", 1e-6),
                ("net_savings_pct", 1e-6),
                ("savings_delta_pct", 1e-6),
            ],
        }
    }
}

impl Tolerances {
    fn rel_for(&self, path: &str) -> f64 {
        self.per_metric
            .iter()
            .find(|(key, _)| path.contains(key))
            .map_or(self.default_rel, |&(_, tol)| tol)
    }
}

/// One golden mismatch: where in the tree, what the golden says, what the
/// pipeline produced.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenDiff {
    /// JSON-path-style location (`$.figures[3].gated[7]`).
    pub path: String,
    /// The golden (expected) value.
    pub expected: String,
    /// The freshly computed value.
    pub actual: String,
}

/// Diffs a freshly computed golden tree against the checked-in one.
/// Returns every mismatch (empty means the pipeline matches the golden).
pub fn diff_values(expected: &Value, actual: &Value, tol: &Tolerances) -> Vec<GoldenDiff> {
    let mut out = Vec::new();
    walk("$", expected, actual, tol, &mut out);
    out
}

/// Renders diffs for an assertion message.
pub fn render_diffs(diffs: &[GoldenDiff]) -> String {
    let mut out = format!("{} golden mismatches\n", diffs.len());
    for d in diffs.iter().take(50) {
        let _ = writeln!(
            out,
            "  {}: golden {} vs actual {}",
            d.path, d.expected, d.actual
        );
    }
    if diffs.len() > 50 {
        let _ = writeln!(out, "  … and {} more", diffs.len() - 50);
    }
    out
}

fn scalar(v: &Value) -> String {
    serde_json::to_string(&Raw(v)).unwrap_or_else(|_| String::from("?"))
}

// A tiny adapter so a borrowed Value can be rendered by the shim's
// serializer when producing diff messages.
struct Raw<'a>(&'a Value);

impl Serialize for Raw<'_> {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

fn walk(path: &str, expected: &Value, actual: &Value, tol: &Tolerances, out: &mut Vec<GoldenDiff>) {
    match (expected, actual) {
        (Value::Object(e), Value::Object(a)) => {
            for (key, ev) in e {
                match a.iter().find(|(k, _)| k == key) {
                    Some((_, av)) => walk(&format!("{path}.{key}"), ev, av, tol, out),
                    None => out.push(GoldenDiff {
                        path: format!("{path}.{key}"),
                        expected: scalar(ev),
                        actual: "<missing>".into(),
                    }),
                }
            }
            for (key, av) in a {
                if !e.iter().any(|(k, _)| k == key) {
                    out.push(GoldenDiff {
                        path: format!("{path}.{key}"),
                        expected: "<missing>".into(),
                        actual: scalar(av),
                    });
                }
            }
        }
        (Value::Array(e), Value::Array(a)) => {
            if e.len() != a.len() {
                out.push(GoldenDiff {
                    path: format!("{path}.len()"),
                    expected: e.len().to_string(),
                    actual: a.len().to_string(),
                });
                return;
            }
            for (i, (ev, av)) in e.iter().zip(a).enumerate() {
                walk(&format!("{path}[{i}]"), ev, av, tol, out);
            }
        }
        _ => {
            if !leaves_match(path, expected, actual, tol) {
                out.push(GoldenDiff {
                    path: path.to_string(),
                    expected: scalar(expected),
                    actual: scalar(actual),
                });
            }
        }
    }
}

fn leaves_match(path: &str, expected: &Value, actual: &Value, tol: &Tolerances) -> bool {
    match (numeric(expected), numeric(actual)) {
        // Two integer-kind leaves: exact.
        (Some((e, false)), Some((a, false))) => e == a,
        // Any float involved: relative tolerance on a percent-scale floor.
        (Some((e, _)), Some((a, _))) => {
            // lint: allow(raw-f64): tolerance arithmetic on dimensionless leaves
            (a - e).abs() <= tol.rel_for(path) * e.abs().max(1.0)
        }
        _ => expected == actual,
    }
}

/// `(value as f64, is_float_kind)` for numeric leaves.
fn numeric(v: &Value) -> Option<(f64, bool)> {
    // lint: allow(lossy-cast): golden integers are far below 2^53
    #[allow(clippy::cast_precision_loss)]
    match v {
        Value::UInt(u) => Some((*u as f64, false)),
        Value::Int(i) => Some((*i as f64, false)),
        Value::Float(f) => Some((*f, true)),
        _ => None,
    }
}

mod tests {
    use super::*;

    fn obj(entries: Vec<(&str, Value)>) -> Value {
        Value::Object(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    #[test]
    fn identical_trees_have_no_diffs() {
        let v = obj(vec![
            ("insts", Value::UInt(40_000)),
            (
                "figures",
                Value::Array(vec![obj(vec![("drowsy", Value::Float(42.5))])]),
            ),
        ]);
        assert!(diff_values(&v, &v, &Tolerances::default()).is_empty());
    }

    #[test]
    fn integer_leaves_compare_exactly() {
        let e = obj(vec![("interval", Value::UInt(4096))]);
        let a = obj(vec![("interval", Value::UInt(8192))]);
        let diffs = diff_values(&e, &a, &Tolerances::default());
        assert_eq!(diffs.len(), 1);
        assert_eq!(diffs[0].path, "$.interval");
    }

    #[test]
    fn float_leaves_use_the_per_metric_tolerance() {
        let e = obj(vec![("drowsy", Value::Array(vec![Value::Float(50.0)]))]);
        let within = obj(vec![(
            "drowsy",
            Value::Array(vec![Value::Float(50.0 + 2e-5)]),
        )]);
        let beyond = obj(vec![("drowsy", Value::Array(vec![Value::Float(50.01)]))]);
        let tol = Tolerances::default();
        assert!(diff_values(&e, &within, &tol).is_empty());
        assert_eq!(diff_values(&e, &beyond, &tol).len(), 1);
    }

    #[test]
    fn shape_changes_are_reported() {
        let e = obj(vec![("rows", Value::Array(vec![Value::UInt(1)]))]);
        let a = obj(vec![(
            "rows",
            Value::Array(vec![Value::UInt(1), Value::UInt(2)]),
        )]);
        let diffs = diff_values(&e, &a, &Tolerances::default());
        assert_eq!(diffs.len(), 1);
        assert!(diffs[0].path.ends_with("len()"));
        let missing = diff_values(&e, &obj(vec![]), &Tolerances::default());
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].actual, "<missing>");
    }

    #[test]
    fn knee_row_power_of_two_check_is_a_ratio_test() {
        let row = |predicted, simulated| KneeRow {
            benchmark: "gcc".into(),
            technique: "gated-vss".into(),
            l2_latency: 11,
            predicted,
            simulated,
            predicted_savings_pct: 60.0,
            simulated_savings_pct: 62.0,
            interval_99: 8192,
        };
        assert!(row(4096, 4096).within_one_power_of_two());
        assert!(row(4096, 8192).within_one_power_of_two());
        assert!(row(8192, 4096).within_one_power_of_two());
        assert!(!row(4096, 16384).within_one_power_of_two());
        assert!((row(4096, 8192).savings_delta_pct() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn mismatch_report_names_the_offenders() {
        let report = KneeOracleReport {
            rows: vec![KneeRow {
                benchmark: "mcf".into(),
                technique: "drowsy".into(),
                l2_latency: 17,
                predicted: 1024,
                simulated: 65536,
                predicted_savings_pct: 10.0,
                simulated_savings_pct: 55.0,
                interval_99: 65536,
            }],
        };
        assert_eq!(report.mismatches().len(), 1);
        let text = report.render_mismatches();
        assert!(text.contains("mcf"));
        assert!(text.contains("64k"));
        assert!(text.contains("45.00%"));
    }
}
