//! The traced derivation: re-executes a set of comparison requests by
//! calling each layer's public functions directly, timing every call
//! from outside, and checks each re-derived timing run bitwise against
//! the run the untraced program produced.
//!
//! Layer boundaries crossed here, in order: `specgen` (stream generation
//! and the replay arena), `cachesim` (`Hierarchy::new`), `uarch`
//! (`Core::run`), the audit layer (`Core::audit`), `parallel`
//! (`map_ordered` with per-item spans), and `pricing`
//! (`StudyCtx::price_pair`).

use std::collections::HashMap;
use std::thread::ThreadId;
use std::time::Instant;

use cachesim::{Hierarchy, HierarchyConfig};
use leakctl::{Technique, TechniqueKind};
use simcore::{CompareRequest, RawRun, RunKey, RunResult, Study, StudyCtx};
use specgen::{Benchmark, SpecTrace};
use uarch::{Core, CoreConfig, TraceSource};

use crate::util::Metrics;

/// Deterministic work counts of a traced derivation: identical on any
/// host, so two traced runs must agree on every one exactly.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub insts: u64,
    pub cycles: u64,
    pub l1d_accesses: u64,
    pub sleeps: u64,
    pub wakes: u64,
    pub induced_misses: u64,
    pub decay_writebacks: u64,
    pub l2_accesses: u64,
    pub streams_generated: u64,
    pub executions: u64,
}

impl Counts {
    fn add_run(&mut self, raw: &RawRun) {
        self.insts += raw.core.committed;
        self.cycles += raw.cycles.get();
        self.l1d_accesses += raw.l1d.accesses();
        self.sleeps += raw.l1d.sleeps;
        self.wakes += raw.l1d.wakes;
        self.induced_misses += raw.l1d.induced_misses;
        self.decay_writebacks += raw.l1d.decay_writebacks;
        self.l2_accesses += raw.core.l2_accesses;
        self.executions += 1;
    }
}

/// Layer times and counts of one or more traced derivations.
#[derive(Debug, Default)]
pub struct Trace {
    pub counts: Counts,
    /// Wall time of the derivations, seconds.
    pub wall_s: f64,
    /// Σ `Core::run` seconds.
    pub run_s: f64,
    /// Σ `Core::audit` seconds.
    pub audit_s: f64,
    /// Baseline `Core::run` ns per committed instruction, per benchmark.
    pub base_ns_per_inst: HashMap<Benchmark, Vec<f64>>,
    /// Per decay run: (decay `Core::run` − baseline `Core::run`) ns per
    /// committed instruction.
    pub decay_extra_ns: Vec<f64>,
    /// Σ item busy time inside `map_ordered`, and Σ workers × batch wall.
    pub busy_s: f64,
    pub capacity_s: f64,
    /// Σ per batch: batch end − the moment the first worker ran dry.
    pub straggler_s: f64,
    /// `SpecTrace::next_op` time and op count over regenerated streams.
    pub gen_s: f64,
    pub gen_ops: u64,
    /// Generation seconds of the streams the measured pass found cold.
    pub cold_gen_s: f64,
    /// `StudyCtx::price_pair` time and call count.
    pub price_s: f64,
    pub price_calls: u64,
    /// Runs and streams compared against the untraced program, and how
    /// many differed.
    pub compared: u64,
    pub mismatches: u64,
}

impl Trace {
    /// The per-layer metrics this trace measured.
    pub fn metrics(&self, passes: f64) -> Metrics {
        let c = &self.counts;
        let mut m = Metrics::new();
        let per_pass = |x: u64| x as f64 / passes;
        m.insert("uarch.run_s", (self.run_s / passes, "s"));
        m.insert("uarch.insts", (per_pass(c.insts), "count"));
        m.insert("uarch.cycles", (per_pass(c.cycles), "count"));
        if self.run_s > 0.0 {
            m.insert(
                "uarch.minst_per_s",
                (c.insts as f64 / self.run_s / 1e6, "Minst/s"),
            );
        }
        for b in Benchmark::ALL {
            if let Some(v) = self.base_ns_per_inst.get(&b) {
                m.insert(ns_per_inst_name(b), (crate::util::median(v), "ns"));
            }
        }
        if !self.decay_extra_ns.is_empty() {
            // The median: gzip's fetch-scan noise swamps a mean.
            m.insert(
                "cachesim.decay_ns_per_inst",
                (crate::util::median(&self.decay_extra_ns), "ns"),
            );
        }
        m.insert("cachesim.l1d_accesses", (per_pass(c.l1d_accesses), "count"));
        m.insert("cachesim.sleeps", (per_pass(c.sleeps), "count"));
        m.insert("cachesim.wakes", (per_pass(c.wakes), "count"));
        m.insert(
            "cachesim.induced_misses",
            (per_pass(c.induced_misses), "count"),
        );
        m.insert(
            "cachesim.decay_writebacks",
            (per_pass(c.decay_writebacks), "count"),
        );
        m.insert("cachesim.l2_accesses", (per_pass(c.l2_accesses), "count"));
        if self.capacity_s > 0.0 {
            m.insert(
                "parallel.utilization",
                (self.busy_s / self.capacity_s, "ratio"),
            );
        }
        m.insert("parallel.straggler_s", (self.straggler_s / passes, "s"));
        m.insert("audit.s", (self.audit_s / passes, "s"));
        if self.gen_ops > 0 {
            m.insert(
                "specgen.gen_ns_per_op",
                (self.gen_s * 1e9 / self.gen_ops as f64, "ns"),
            );
        }
        m.insert("specgen.replay_cold_s", (self.cold_gen_s / passes, "s"));
        m.insert(
            "specgen.streams_generated",
            (per_pass(c.streams_generated), "count"),
        );
        if self.price_calls > 0 {
            m.insert(
                "pricing.price_pair_us",
                (self.price_s * 1e6 / self.price_calls as f64, "us"),
            );
        }
        m.insert("pricing.calls", (self.price_calls as f64 / passes, "count"));
        m
    }
}

/// The per-benchmark metric name `uarch.ns_per_inst.<bench>`.
pub fn ns_per_inst_name(b: Benchmark) -> &'static str {
    match b {
        Benchmark::Gcc => "uarch.ns_per_inst.gcc",
        Benchmark::Gzip => "uarch.ns_per_inst.gzip",
        Benchmark::Parser => "uarch.ns_per_inst.parser",
        Benchmark::Vortex => "uarch.ns_per_inst.vortex",
        Benchmark::Gap => "uarch.ns_per_inst.gap",
        Benchmark::Perl => "uarch.ns_per_inst.perl",
        Benchmark::Twolf => "uarch.ns_per_inst.twolf",
        Benchmark::Bzip2 => "uarch.ns_per_inst.bzip2",
        Benchmark::Vpr => "uarch.ns_per_inst.vpr",
        Benchmark::Mcf => "uarch.ns_per_inst.mcf",
        Benchmark::Crafty => "uarch.ns_per_inst.crafty",
    }
}

/// One timing run to re-derive.
struct Spec {
    key: RunKey,
    benchmark: Benchmark,
    technique: Technique,
    l2_latency: u32,
}

/// One re-derived run with its spans.
struct Done {
    thread: ThreadId,
    start_s: f64,
    end_s: f64,
    run_s: f64,
    audit_s: f64,
    raw: RawRun,
}

/// Re-derives every timing run behind `requests` (in the order
/// `Study::compare_many` issues them) on `threads` workers, compares each
/// with the run cached in `reference`, and prices every request.
/// `cold` says whether the measured pass generated these streams itself
/// (they count toward `specgen.streams_generated` and
/// `specgen.replay_cold_s`) or found them already in the arena.
/// Returns the priced results in request order.
///
/// # Errors
///
/// Any engine error (hierarchy construction, failed audit, pricing).
pub fn derive(
    ctx: &StudyCtx,
    requests: &[CompareRequest],
    reference: &Study,
    threads: usize,
    cold: bool,
    trace: &mut Trace,
) -> Result<Vec<RunResult>, String> {
    let cfg = *ctx.config();
    let start = Instant::now();

    // specgen: regenerate every stream with the generator and check the
    // replay arena serves the identical ops.
    let mut benches: Vec<Benchmark> = Vec::new();
    for r in requests {
        if !benches.contains(&r.benchmark) {
            benches.push(r.benchmark);
        }
    }
    for &b in &benches {
        let t = Instant::now();
        let mut gen = SpecTrace::new(b, cfg.seed);
        let ops: Vec<_> = (0..cfg.insts).map_while(|_| gen.next_op()).collect();
        let dt = t.elapsed().as_secs_f64();
        trace.gen_s += dt;
        trace.gen_ops += ops.len() as u64;
        if cold {
            trace.cold_gen_s += dt;
            trace.counts.streams_generated += 1;
        }
        let mut replay = specgen::replay_trace(b, cfg.seed, cfg.insts);
        trace.compared += 1;
        if !ops.iter().all(|op| replay.next_op() == Some(*op)) {
            trace.mismatches += 1;
        }
    }

    // uarch + cachesim + audit, fanned out like the engine's batch path.
    let mut specs: Vec<Spec> = Vec::new();
    for r in requests {
        for technique in [Technique::none(), r.technique] {
            let key = RunKey::of(r.benchmark, &technique, r.l2_latency);
            if !specs.iter().any(|s| s.key == key) {
                specs.push(Spec {
                    key,
                    benchmark: r.benchmark,
                    technique,
                    l2_latency: r.l2_latency,
                });
            }
        }
    }
    let batch = Instant::now();
    let done = simcore::parallel::map_ordered(threads, &specs, |spec| {
        let item = Instant::now();
        let hierarchy = Hierarchy::new(HierarchyConfig::table2(
            spec.l2_latency,
            spec.technique.decay_config(),
        ))
        .map_err(|e| e.to_string())?;
        let mut core = Core::new(CoreConfig::table2(), hierarchy);
        let mut source = specgen::replay_trace(spec.benchmark, cfg.seed, cfg.insts);
        let t = Instant::now();
        let stats = core.run(&mut source, cfg.insts);
        let run_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        core.audit().map_err(|report| report.to_string())?;
        let audit_s = t.elapsed().as_secs_f64();
        Ok::<_, String>(Done {
            thread: std::thread::current().id(),
            start_s: (item - batch).as_secs_f64(),
            end_s: batch.elapsed().as_secs_f64(),
            run_s,
            audit_s,
            raw: RawRun {
                cycles: stats.cycles,
                core: stats,
                l1d: *core.hierarchy().l1d().stats(),
            },
        })
    })?;
    let batch_wall = batch.elapsed().as_secs_f64();
    let workers = threads.max(1).min(specs.len()).max(1);
    let mut last_end: HashMap<ThreadId, f64> = HashMap::new();
    let mut runs: HashMap<RunKey, RawRun> = HashMap::new();
    let mut base_run_s: HashMap<Benchmark, f64> = HashMap::new();
    for (spec, d) in specs.iter().zip(&done) {
        trace.busy_s += d.end_s - d.start_s;
        let end = last_end.entry(d.thread).or_insert(0.0);
        *end = end.max(d.end_s);
        trace.run_s += d.run_s;
        trace.audit_s += d.audit_s;
        trace.counts.add_run(&d.raw);
        trace.compared += 1;
        if reference.cache().get(&spec.key) != Some(d.raw) {
            trace.mismatches += 1;
        }
        if spec.technique.kind == TechniqueKind::None {
            base_run_s.insert(spec.benchmark, d.run_s);
            trace
                .base_ns_per_inst
                .entry(spec.benchmark)
                .or_default()
                .push(d.run_s * 1e9 / d.raw.core.committed.max(1) as f64);
        }
        runs.insert(spec.key, d.raw);
    }
    for (spec, d) in specs.iter().zip(&done) {
        if spec.technique.kind != TechniqueKind::None {
            let base = base_run_s.get(&spec.benchmark).copied().unwrap_or(0.0);
            trace
                .decay_extra_ns
                .push((d.run_s - base) * 1e9 / d.raw.core.committed.max(1) as f64);
        }
    }
    trace.capacity_s += workers as f64 * batch_wall;
    let first_idle = if last_end.len() < workers {
        0.0
    } else {
        last_end.values().copied().fold(f64::INFINITY, f64::min)
    };
    trace.straggler_s += batch_wall - first_idle;

    // pricing
    let mut priced = Vec::with_capacity(requests.len());
    for r in requests {
        let base = runs[&RunKey::of(r.benchmark, &Technique::none(), r.l2_latency)];
        let tech = runs[&RunKey::of(r.benchmark, &r.technique, r.l2_latency)];
        let t = Instant::now();
        let result = ctx
            .price_pair(
                &base,
                &tech,
                &r.technique,
                r.l2_latency,
                r.benchmark,
                r.temperature_c,
            )
            .map_err(|e| e.to_string())?;
        trace.price_s += t.elapsed().as_secs_f64();
        trace.price_calls += 1;
        priced.push(result);
    }
    trace.wall_s += start.elapsed().as_secs_f64();
    Ok(priced)
}
