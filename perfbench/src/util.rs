//! Small std-only helpers shared by the workloads: statistics, seeded
//! randomness, digests, and the host/build record.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use serde::{Serialize, Value};

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// One finished workload run.
pub struct Outcome {
    /// Operations attempted (figures, seeds, requests, compared runs).
    pub attempted: u64,
    /// Operations that errored, exhausted retries, or mismatched.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Metrics,
    /// Workload-specific detail for the run record (per-seed results,
    /// sample counts).
    pub detail: Vec<(String, Value)>,
}

/// SplitMix64: a fixed, well-mixed map from the benchmark's `--seed` to
/// every derived seed, so the same argument always yields the same inputs.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `index`-th seed of `stream` derived from `seed`.
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    mix(mix(seed ^ mix(stream)) ^ index)
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = mix(state);
        let j = (state % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Arithmetic mean of `xs` (0 when empty).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail percentile this many samples supports: p99, or lower when
/// fewer than ten samples would lie beyond p99 (the highest percentile
/// with at least ten samples beyond it; the maximum below 20 samples).
pub fn tail_percentile(samples: usize) -> f64 {
    if samples < 20 {
        return 100.0;
    }
    (100.0 * (1.0 - 10.0 / samples as f64)).min(99.0)
}

/// Nearest-rank percentile `p` (0–100] of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The end-to-end metrics from one untraced run's operation latencies,
/// pass times and set-up repetitions (seconds each).
pub fn end_to_end(op_s: &[f64], pass_s: &[f64], setup_s: &[f64]) -> Metrics {
    let ms: Vec<f64> = op_s.iter().map(|s| s * 1e3).collect();
    let mut m = Metrics::new();
    m.insert("setup_s", (median(setup_s), "s"));
    m.insert("wall_s", (median(pass_s), "s"));
    m.insert("peak_rss_mb", (peak_rss_mb(), "MB"));
    m.insert("req_p50_ms", (median(&ms), "ms"));
    m.insert(
        "req_tail_ms",
        (percentile(&ms, tail_percentile(ms.len())), "ms"),
    );
    m
}

/// FNV-1a 64 over a sequence of byte strings (the run store's checksum).
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut bytes = Vec::new();
    for p in parts {
        bytes.extend_from_slice(p);
        bytes.push(0);
    }
    runstore::fnv1a64(&bytes)
}

/// JSON text of anything the serde shim serializes.
pub fn json<T: Serialize + ?Sized>(value: &T) -> String {
    serde_json::to_string(value).expect("the serde shim serializer is total")
}

/// Renders a raw [`Value`] (which does not implement `Serialize` itself).
pub struct Raw(pub Value);

impl Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

/// Peak resident set of this process, MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds for a fixed std-only integer loop: divide a run's times by
/// its host's figure to compare runs across hosts.
pub fn calibration_s() -> f64 {
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15_u64;
    let mut acc = 0_u64;
    for i in 0..black_box(50_000_000_u64) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x ^ i);
    }
    black_box(acc);
    start.elapsed().as_secs_f64()
}

/// The build this binary is: only an optimized build with the audit
/// layer compiled in is a measured build. The audit flag is read back
/// from the server's own stats, i.e. from how `studyd` was compiled.
pub fn build_stamp() -> Value {
    let audit_enabled = studyd::ServerStats::new()
        .report(0, Default::default(), None, None)
        .audit_enabled;
    Value::Object(vec![
        ("audit_enabled".into(), Value::Bool(audit_enabled)),
        ("optimized".into(), Value::Bool(!cfg!(debug_assertions))),
        (
            "profile".into(),
            Value::Str("release lto=thin codegen-units=1".into()),
        ),
    ])
}

/// Whether [`build_stamp`] describes a measured build.
pub fn is_measured_build(stamp: &Value) -> bool {
    field(stamp, "audit_enabled") == Some(&Value::Bool(true))
        && field(stamp, "optimized") == Some(&Value::Bool(true))
}

/// Field `name` of a JSON object value.
pub fn field<'a>(v: &'a Value, name: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

/// The host and source this run measured: parallelism, calibration
/// time, git revision (when the tree is a git checkout) and a digest of
/// every source file the benchmark builds from.
pub fn host_record() -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    Value::Object(vec![
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("calibration_s".into(), Value::Float(calibration_s())),
        ("git_rev".into(), Value::Str(git_rev)),
        (
            "source_digest".into(),
            Value::Str(format!("{:016x}", source_digest())),
        ),
    ])
}

/// FNV-1a over the sorted paths and contents of the sources the
/// benchmark compiles (`crates/`, `shims/`, the root manifests and the
/// benchmark itself).
fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in ["crates", "shims", "perfbench/src"] {
        collect(Path::new(root), &mut files);
    }
    for f in [
        "Cargo.toml",
        "Cargo.lock",
        "perfbench/Cargo.toml",
        "perfbench/Cargo.lock",
    ] {
        files.push(Path::new(f).to_path_buf());
    }
    files.sort();
    let mut parts: Vec<Vec<u8>> = Vec::new();
    for f in &files {
        parts.push(f.to_string_lossy().into_owned().into_bytes());
        parts.push(std::fs::read(f).unwrap_or_default());
    }
    digest(parts.iter().map(Vec::as_slice))
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                collect(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}
