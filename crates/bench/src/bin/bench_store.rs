//! Persistent run-store benchmark: one pipelined TCP client replays a
//! request menu against a store-backed `studyd` server in three phases —
//! **cold** (fresh store directory, every run simulated and persisted),
//! **warm** (same server again, served from the in-memory cache), and
//! **restart** (a fresh server on the same directory, every run recalled
//! from disk with zero simulator executions). Results land in
//! `BENCH_store.json` alongside the disk-tier counters of each phase.
//!
//! ```text
//! bench_store [--insts I] [--requests N] [--out FILE]
//! ```
//!
//! Exits non-zero if any phase's responses differ from a store-less
//! sequential [`Study`] reference, or if the restart phase executed the
//! simulator at all (`appends > 0` proves a computed run, because every
//! computed run appends when a store is attached).

use std::time::Instant;

use serde::{Serialize, Value};
use simcore::{Study, StudyConfig, StudyRequest};
use studyd::{Server, ServerConfig, StatsReport, StoreReport, TcpClient};
use units::Seconds;

#[derive(Serialize)]
struct PhaseReport {
    elapsed_seconds: Seconds,
    throughput_rps: f64,
    /// Disk-tier activity attributable to this phase: counter fields are
    /// per-phase deltas, `records`/`segments` are end-of-phase gauges.
    store: StoreReport,
}

#[derive(Serialize)]
struct StoreBenchReport {
    insts: u64,
    requests: usize,
    bitwise_equal_to_sequential: bool,
    cold: PhaseReport,
    warm: PhaseReport,
    restart: PhaseReport,
}

/// The replayed menu: overlapping compares plus one sweep, the same
/// shape the load generator uses, so the store holds a realistic mix of
/// baseline and technique runs.
fn menu(requests: usize) -> Vec<StudyRequest> {
    use leakctl::TechniqueKind;
    use specgen::Benchmark;
    let base = [
        StudyRequest::Compare {
            benchmark: Benchmark::Gzip,
            technique: TechniqueKind::Drowsy,
            interval: 2048,
            l2_latency: 11,
            temperature_c: 110.0,
        },
        StudyRequest::Compare {
            benchmark: Benchmark::Gzip,
            technique: TechniqueKind::GatedVss,
            interval: 2048,
            l2_latency: 11,
            temperature_c: 110.0,
        },
        StudyRequest::Compare {
            benchmark: Benchmark::Mcf,
            technique: TechniqueKind::Drowsy,
            interval: 4096,
            l2_latency: 11,
            temperature_c: 110.0,
        },
        StudyRequest::IntervalSweep {
            benchmark: Benchmark::Gcc,
            technique: TechniqueKind::Drowsy,
            intervals: vec![1024, 4096, 16384],
            l2_latency: 11,
            temperature_c: 110.0,
        },
    ];
    (0..requests)
        .map(|i| base[i % base.len()].clone())
        .collect()
}

fn main() {
    let mut insts: u64 = 20_000;
    let mut requests: usize = 6;
    let mut out = String::from("BENCH_store.json");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        fn num<T: std::str::FromStr>(v: Option<&String>, name: &str) -> T {
            v.and_then(|v| v.parse().ok())
                .unwrap_or_else(|| die(&format!("{name} needs a number")))
        }
        match a.as_str() {
            "--insts" => insts = num(it.next(), "--insts"),
            "--requests" => requests = num::<usize>(it.next(), "--requests").max(1),
            "--out" => {
                out = it
                    .next()
                    .unwrap_or_else(|| die("--out needs a path"))
                    .to_string()
            }
            other => die(&format!("unknown argument {other}")),
        }
    }

    let dir = std::env::temp_dir().join(format!("bench-store-{}", std::process::id()));
    // lint: allow(fs-boundary): scratch-directory housekeeping around the store under test
    let _ = std::fs::remove_dir_all(&dir);
    let study_cfg = StudyConfig {
        insts,
        ..StudyConfig::default()
    };
    let server_cfg = ServerConfig {
        workers: 2,
        queue_capacity: 2 * requests,
        store_path: Some(dir.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    };
    let requests_menu = menu(requests);

    // Cold + warm share one server: the warm pass measures the in-memory
    // cache sitting above an already-populated disk tier.
    let server = Server::start(study_cfg, &server_cfg)
        .unwrap_or_else(|e| die(&format!("starting cold server: {e}")));
    let addr = server.local_addr().to_string();
    let (cold_responses, cold_elapsed) = run_phase(&addr, &requests_menu);
    let after_cold = store_of(&server.stats_report());
    let (warm_responses, warm_elapsed) = run_phase(&addr, &requests_menu);
    let after_warm = store_of(&server.stats_report());
    server.shutdown();

    // Restart: a fresh server (empty memory cache) on the same
    // directory. Every timing run must come off disk.
    let server = Server::start(study_cfg, &server_cfg)
        .unwrap_or_else(|e| die(&format!("starting restart server: {e}")));
    let addr = server.local_addr().to_string();
    let (restart_responses, restart_elapsed) = run_phase(&addr, &requests_menu);
    let restart_store = store_of(&server.shutdown());

    // Store-less sequential reference with a cold cache.
    let sequential: Vec<Value> = {
        let study = Study::with_threads(
            StudyConfig {
                insts,
                ..StudyConfig::default()
            },
            1,
        );
        requests_menu
            .iter()
            .map(|r| {
                study
                    .serve(r)
                    .map(|resp| resp.to_value())
                    .unwrap_or_else(|e| die(&format!("sequential reference {r:?}: {e}")))
            })
            .collect()
    };
    let bitwise_equal = [&cold_responses, &warm_responses, &restart_responses]
        .iter()
        .all(|responses| **responses == sequential);

    let report = StoreBenchReport {
        insts,
        requests,
        bitwise_equal_to_sequential: bitwise_equal,
        cold: phase(cold_elapsed, requests, after_cold),
        warm: phase(
            warm_elapsed,
            requests,
            counter_delta(after_warm, after_cold),
        ),
        restart: phase(restart_elapsed, requests, restart_store),
    };
    let json =
        serde_json::to_string_pretty(&report).unwrap_or_else(|e| die(&format!("serialise: {e}")));
    // lint: allow(fs-boundary): bench artifact emission — a one-shot JSON report, not run persistence
    std::fs::write(&out, &json).unwrap_or_else(|e| die(&format!("writing {out}: {e}")));
    // lint: allow(fs-boundary): scratch-directory housekeeping around the store under test
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!(
        "bench_store: cold {:.3}s (appends {}), warm {:.3}s, restart {:.3}s (disk hits {}, appends {})",
        report.cold.elapsed_seconds.get(),
        report.cold.store.appends,
        report.warm.elapsed_seconds.get(),
        report.restart.elapsed_seconds.get(),
        report.restart.store.hits,
        report.restart.store.appends,
    );
    eprintln!("wrote {out}");

    if !bitwise_equal {
        die("store-backed responses differ from the sequential reference");
    }
    if report.cold.store.appends == 0 {
        die("cold phase persisted nothing — the store tier is not wired");
    }
    if report.restart.store.appends > 0 {
        die("restart phase executed the simulator instead of recalling from disk");
    }
    if report.restart.store.hits == 0 {
        die("restart phase never recalled from disk");
    }
}

fn run_phase(addr: &str, requests: &[StudyRequest]) -> (Vec<Value>, Seconds) {
    let mut client =
        TcpClient::connect(addr).unwrap_or_else(|e| die(&format!("connecting to {addr}: {e}")));
    let start = Instant::now();
    let responses = client
        .request_pipelined(requests)
        .unwrap_or_else(|e| die(&format!("pipelined batch: {e}")));
    (responses, Seconds::new(start.elapsed().as_secs_f64()))
}

fn store_of(report: &StatsReport) -> StoreReport {
    report
        .store
        .unwrap_or_else(|| die("server reports no store tier"))
}

fn phase(elapsed: Seconds, requests: usize, store: StoreReport) -> PhaseReport {
    PhaseReport {
        elapsed_seconds: elapsed,
        // Exact for any request count this binary can finish.
        throughput_rps: requests as f64 / elapsed.get().max(1e-9),
        store,
    }
}

/// Counter fields as `after - before`; `records`/`segments` are gauges
/// and keep their end-of-phase values.
fn counter_delta(after: StoreReport, before: StoreReport) -> StoreReport {
    StoreReport {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        verify_failures: after.verify_failures - before.verify_failures,
        appends: after.appends - before.appends,
        write_failures: after.write_failures - before.write_failures,
        torn_records: after.torn_records - before.torn_records,
        records: after.records,
        segments: after.segments,
    }
}

fn die(msg: &str) -> ! {
    eprintln!("bench_store: {msg}");
    std::process::exit(1)
}
