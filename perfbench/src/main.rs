//! The repository benchmark. See `perfbench/README.md` for the workloads,
//! the metrics and which layer each per-layer metric attributes.
//!
//! ```text
//! perfbench --workload <ladder-sweep|heldout-seeds|serve-fleet>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <run-a.out> <run-b.out>
//! ```
//!
//! A run prints a `{"record": ...}` line (host, build, per-seed detail,
//! metrics) and then, as its last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports
//! the end-to-end metrics; `--trace 1` reports the per-layer metrics.

mod serve;
mod sim;
mod trace;
mod util;

use serde::Value;

use util::{field, Metrics, Raw};

/// End-to-end metrics: reported by every workload's untraced run.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "wall_s",
    "peak_rss_mb",
    "req_p50_ms",
    "req_tail_ms",
];

/// Per-layer metrics: reported by every workload's traced run, 0 where
/// the workload's measured path does not cross that layer.
const PER_LAYER: [(&str, &str); 53] = [
    ("uarch.run_s", "s"),
    ("uarch.ns_per_inst.gcc", "ns"),
    ("uarch.ns_per_inst.gzip", "ns"),
    ("uarch.ns_per_inst.parser", "ns"),
    ("uarch.ns_per_inst.vortex", "ns"),
    ("uarch.ns_per_inst.gap", "ns"),
    ("uarch.ns_per_inst.perl", "ns"),
    ("uarch.ns_per_inst.twolf", "ns"),
    ("uarch.ns_per_inst.bzip2", "ns"),
    ("uarch.ns_per_inst.vpr", "ns"),
    ("uarch.ns_per_inst.mcf", "ns"),
    ("uarch.ns_per_inst.crafty", "ns"),
    ("uarch.insts", "count"),
    ("uarch.cycles", "count"),
    ("uarch.minst_per_s", "Minst/s"),
    ("cachesim.decay_ns_per_inst", "ns"),
    ("cachesim.l1d_accesses", "count"),
    ("cachesim.sleeps", "count"),
    ("cachesim.wakes", "count"),
    ("cachesim.induced_misses", "count"),
    ("cachesim.decay_writebacks", "count"),
    ("cachesim.l2_accesses", "count"),
    ("parallel.utilization", "ratio"),
    ("parallel.straggler_s", "s"),
    ("audit.s", "s"),
    ("specgen.gen_ns_per_op", "ns"),
    ("specgen.replay_cold_s", "s"),
    ("specgen.streams_generated", "count"),
    ("specgen.arena_mb", "MB"),
    ("pricing.price_pair_us", "us"),
    ("pricing.calls", "count"),
    ("studyd.service_us.compare", "us"),
    ("studyd.service_us.interval_sweep", "us"),
    ("studyd.service_us.figure", "us"),
    ("studyd.wire_us", "us"),
    ("studyd.encode_us", "us"),
    ("studyd.parse_us", "us"),
    ("studyd.rejected_busy", "count"),
    ("fleet.recall_us", "us"),
    ("fleet.hits", "count"),
    ("fleet.rejected", "count"),
    ("runstore.recall_us", "us"),
    ("runstore.append_us", "us"),
    ("runstore.flush_s", "s"),
    ("runstore.hits", "count"),
    ("runstore.appends", "count"),
    ("runstore.verify_failures", "count"),
    ("study.cache_hits", "count"),
    ("study.cache_misses", "count"),
    ("study.coalesced", "count"),
    ("study.executions", "count"),
    ("trace.overhead_s", "s"),
    ("host.calibration_s", "s"),
];

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <ladder-sweep|heldout-seeds|serve-fleet> \
         --seed <n> --seconds <s> --trace <0|1>\n       perfbench compare <a> <b>"
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        match &args[1..] {
            [a, b] => compare(a, b),
            _ => usage("compare takes two run outputs"),
        }
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut traced = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        let number = || {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| usage(&format!("{flag} needs a whole number")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()),
            "--seconds" => seconds = Some(number().max(1)),
            "--trace" => traced = Some(number() != 0),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(traced)) =
        (workload, seed, seconds, traced)
    else {
        usage("--workload, --seed, --seconds and --trace are all required")
    };

    let build = util::build_stamp();
    if !util::is_measured_build(&build) {
        eprintln!(
            "perfbench: refusing to measure a build without audit or optimization: {}",
            util::json(&Raw(build))
        );
        std::process::exit(2);
    }
    let host = util::host_record();
    let outcome = match workload.as_str() {
        "ladder-sweep" => sim::ladder(seed, seconds, traced),
        "heldout-seeds" => sim::heldout(seed, seconds, traced),
        "serve-fleet" => serve::serve(seed, seconds, traced),
        other => usage(&format!("unknown workload {other}")),
    };

    let mut metrics = outcome.metrics;
    if let Some(Value::Float(c)) = field(&host, "calibration_s") {
        metrics.insert("host.calibration_s", (*c, "s"));
    }
    let reported: Vec<(&str, &str)> = if traced {
        PER_LAYER.to_vec()
    } else {
        END_TO_END
            .iter()
            .map(|&name| (name, metrics.get(name).map_or("", |m| m.1)))
            .collect()
    };
    let rendered = render(&metrics, &reported);
    let correct = outcome.failed == 0 && outcome.attempted > 0;

    let mut record = vec![
        ("workload".into(), Value::Str(workload)),
        ("seed".into(), Value::UInt(seed)),
        ("seconds".into(), Value::UInt(seconds)),
        ("trace".into(), Value::Bool(traced)),
        ("host".into(), host),
        ("build".into(), build),
        ("metrics".into(), rendered.clone()),
    ];
    record.extend(outcome.detail);
    println!(
        "{}",
        util::json(&Raw(Value::Object(vec![(
            "record".into(),
            Value::Object(record)
        )])))
    );
    println!(
        "{}",
        util::json(&Raw(Value::Object(vec![
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), Value::UInt(outcome.attempted)),
            ("failed".into(), Value::UInt(outcome.failed)),
            ("metrics".into(), rendered),
        ])))
    );
}

/// `{"name": {"value": v, "unit": u}, ...}` for every reported metric;
/// a layer the workload does not cross reads 0.
fn render(metrics: &Metrics, reported: &[(&'static str, &'static str)]) -> Value {
    Value::Object(
        reported
            .iter()
            .map(|&(name, unit)| {
                let (value, unit) = metrics.get(name).copied().unwrap_or((0.0, unit));
                (
                    name.to_string(),
                    Value::Object(vec![
                        ("value".into(), Value::Float(value)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The `{"record": ...}` line of a saved run output.
fn read_record(path: &str) -> Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| usage(&format!("reading {path}: {e}")));
    text.lines()
        .rev()
        .filter(|l| l.starts_with("{\"record\""))
        .find_map(|l| serde_json::from_str(l).ok())
        .and_then(|v| field(&v, "record").cloned())
        .unwrap_or_else(|| usage(&format!("{path} holds no run record")))
}

/// Prints two runs' metrics side by side with B/A, and for times also
/// B/A divided by the ratio of the hosts' calibration loops; refuses runs
/// of different builds or workloads.
fn compare(a: &str, b: &str) -> ! {
    let (ra, rb) = (read_record(a), read_record(b));
    for key in ["build", "workload", "seed", "seconds", "trace"] {
        if field(&ra, key) != field(&rb, key) {
            eprintln!("perfbench: refusing to compare runs whose {key} differs");
            std::process::exit(3);
        }
    }
    let number = |v: Option<&Value>| match v {
        Some(Value::Float(x)) => *x,
        Some(Value::UInt(x)) => *x as f64,
        _ => f64::NAN,
    };
    let calibration = |r: &Value| number(field(r, "host").and_then(|h| field(h, "calibration_s")));
    let host_ratio = calibration(&rb) / calibration(&ra);
    let (Some(Value::Object(ma)), Some(mb)) = (field(&ra, "metrics"), field(&rb, "metrics")) else {
        usage("run records carry no metrics")
    };
    println!(
        "{:<36} {:>14} {:>14} {:>8} {:>8}",
        "metric", "A", "B", "B/A", "B/A host"
    );
    for (name, va) in ma {
        let (x, y) = (
            number(field(va, "value")),
            number(field(mb, name).and_then(|v| field(v, "value"))),
        );
        let is_time = matches!(field(va, "unit"), Some(Value::Str(u)) if ["s", "ms", "us", "ns"].contains(&u.as_str()));
        let normalised = if is_time {
            format!("{:>8.3}", y / x / host_ratio)
        } else {
            String::new()
        };
        println!("{name:<36} {x:>14.6} {y:>14.6} {:>8.3} {normalised}", y / x);
    }
    std::process::exit(0)
}
