//! The `serve-fleet` workload: two in-process `studyd` nodes on loopback.
//!
//! Node A's store is warmed in set-up by an in-process study serving the
//! request menu. Each pass starts a fresh node B (empty store, peer A) and
//! drives it with two closed-loop `TcpClient` connections over a seeded
//! shuffle of the menu. On B the first touch of a run is a fleet recall
//! (A's disk recall, B's re-verify, a spill append to B's store); repeat
//! touches are memory hits; nothing is simulated.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use leakctl::TechniqueKind;
use runstore::{RecordId, RunStore};
use serde::{Serialize, Value};
use simcore::study::technique_of;
use simcore::{
    storebytes, CompareRequest, FigureMetric, RunKey, Study, StudyConfig, StudyRequest,
    StudyResponse, SWEEP_INTERVALS,
};
use specgen::Benchmark;
use studyd::{protocol, Backoff, Server, ServerConfig, StatsReport, TcpClient, WireReply};

use crate::sim::{arena_mb, SETUP_REPS, THREADS, TUNING_SEED};
use crate::trace::{derive, Trace};
use crate::util::{self, mean, Metrics, Outcome};

/// Instruction budget of the runs behind the menu: only set-up simulates,
/// so the budget sets set-up cost and nothing else.
const INSTS: u64 = 50_000;
/// Menu copies per pass: repeat touches outnumber first touches, which
/// then sit in the latency tail.
const COPIES_PER_PASS: usize = 4;
/// Passes run at least this often.
const MIN_PASSES: usize = 3;
/// Busy replies retried per request before it counts as failed.
const BUSY_RETRIES: u32 = 8;
const L2: u32 = 11;
const TEMP_C: f64 = 85.0;
/// Seed-stream label for the trace seed.
const TRACE_STREAM: u64 = 3;

/// Every menu entry: an `IntervalSweep` over all sweep intervals and a
/// `Compare` for each interval, for every benchmark × technique, plus
/// both default-interval figures.
fn menu() -> Vec<StudyRequest> {
    let mut out = Vec::new();
    for benchmark in Benchmark::ALL {
        for technique in [TechniqueKind::Drowsy, TechniqueKind::GatedVss] {
            out.push(StudyRequest::IntervalSweep {
                benchmark,
                technique,
                intervals: SWEEP_INTERVALS.to_vec(),
                l2_latency: L2,
                temperature_c: TEMP_C,
            });
            for interval in SWEEP_INTERVALS {
                out.push(StudyRequest::Compare {
                    benchmark,
                    technique,
                    interval,
                    l2_latency: L2,
                    temperature_c: TEMP_C,
                });
            }
        }
    }
    for metric in [FigureMetric::Savings, FigureMetric::PerfLoss] {
        out.push(StudyRequest::Figure {
            metric,
            l2_latency: L2,
            temperature_c: TEMP_C,
        });
    }
    out
}

/// `price_pair` calls one request costs the server.
fn pricings(request: &StudyRequest) -> u64 {
    match request {
        StudyRequest::Compare { .. } => 1,
        StudyRequest::IntervalSweep { intervals, .. } => intervals.len() as u64,
        StudyRequest::Figure { .. } => 2 * Benchmark::ALL.len() as u64,
        StudyRequest::Adaptive { .. } => 0,
    }
}

/// The compare requests covering every timing run of the menu.
fn menu_runs() -> Vec<CompareRequest> {
    let mut out = Vec::new();
    for benchmark in Benchmark::ALL {
        for kind in [TechniqueKind::Drowsy, TechniqueKind::GatedVss] {
            for interval in SWEEP_INTERVALS {
                out.push(CompareRequest {
                    benchmark,
                    technique: technique_of(kind, interval),
                    l2_latency: L2,
                    temperature_c: TEMP_C,
                });
            }
        }
    }
    out
}

fn die(msg: &str) -> ! {
    eprintln!("serve-fleet: {msg}");
    std::process::exit(1)
}

/// Node A, warmed: the study that warmed its store (the reference every
/// reply must equal) and that study's responses to the menu.
struct Warm {
    study: Study,
    responses: Vec<StudyResponse>,
    expected: Vec<Value>,
    server: Server,
}

/// One set-up: a fresh study on an empty store serves the whole menu
/// in-process (its batch path simulates every run on two workers), the
/// store is flushed, and node A starts on it.
fn warm(cfg: StudyConfig, dir: &Path, menu: &[StudyRequest]) -> Warm {
    let mut study = Study::with_threads(cfg, THREADS);
    let store = RunStore::open(dir).unwrap_or_else(|e| die(&format!("opening store: {e}")));
    study.attach_store(Arc::new(store));
    study
        .compare_many(&menu_runs())
        .unwrap_or_else(|e| die(&format!("warming: {e}")));
    let responses: Vec<StudyResponse> = menu
        .iter()
        .map(|r| {
            study
                .serve(r)
                .unwrap_or_else(|e| die(&format!("serving the menu in-process: {e}")))
        })
        .collect();
    let expected = responses.iter().map(Serialize::to_value).collect();
    study.flush_store();
    let server = Server::start(
        cfg,
        &ServerConfig {
            workers: 1,
            store_path: Some(dir.to_string_lossy().into_owned()),
            ..ServerConfig::default()
        },
    )
    .unwrap_or_else(|e| die(&format!("starting node A: {e}")));
    Warm {
        study,
        responses,
        expected,
        server,
    }
}

/// One pass's client-side results.
#[derive(Default)]
struct Pass {
    wall_s: f64,
    latency_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Traced passes only: `protocol::ok_line` and `protocol::parse_reply`
    /// seconds per reply.
    encode_s: Vec<f64>,
    parse_s: Vec<f64>,
    stats: Option<StatsReport>,
}

/// Sends `request` and waits for its reply, retrying `busy` replies up
/// to [`BUSY_RETRIES`] times.
fn exchange(client: &mut TcpClient, request: &StudyRequest) -> Result<Value, String> {
    let mut backoff = Backoff::new();
    for _ in 0..=BUSY_RETRIES {
        let id = client.send_study(request).map_err(|e| e.to_string())?;
        let (got, reply) = client.read_reply().map_err(|e| e.to_string())?;
        if got != id {
            return Err(format!("reply id {got} for request {id}"));
        }
        match reply {
            WireReply::Ok(value) => return Ok(value),
            WireReply::Busy { retry_after_ms, .. } => {
                std::thread::sleep(Duration::from_millis(backoff.next_delay(retry_after_ms)));
            }
            WireReply::Err(message) => return Err(message),
            WireReply::Stats(_) => return Err("stats reply to a study request".into()),
        }
    }
    Err("busy retries exhausted".into())
}

/// Starts a fresh node B on `dir` with peer A and runs the shuffled
/// request list through two closed-loop connections.
fn pass(
    cfg: StudyConfig,
    dir: &Path,
    peer: &str,
    menu: &[StudyRequest],
    warm: &Warm,
    order: &[usize],
    traced: bool,
) -> Pass {
    let node_b = Server::start(
        cfg,
        &ServerConfig {
            workers: THREADS,
            store_path: Some(dir.to_string_lossy().into_owned()),
            peers: vec![peer.to_string()],
            ..ServerConfig::default()
        },
    )
    .unwrap_or_else(|e| die(&format!("starting node B: {e}")));
    let addr = node_b.local_addr().to_string();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let parts: Vec<Pass> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Pass::default();
                    let mut client = TcpClient::connect(&addr)
                        .unwrap_or_else(|e| die(&format!("connecting to node B: {e}")));
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&m) = order.get(i) else { break };
                        let t = Instant::now();
                        let reply = exchange(&mut client, &menu[m]);
                        out.latency_s.push(t.elapsed().as_secs_f64());
                        out.attempted += 1;
                        if reply.as_ref() != Ok(&warm.expected[m]) {
                            if let Err(e) = &reply {
                                eprintln!("serve-fleet: request failed: {e}");
                            }
                            out.failed += 1;
                        }
                        if traced {
                            time_codec(&warm.responses[m], &mut out);
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| die("client thread panicked")))
            .collect()
    });
    let mut total = Pass {
        wall_s: start.elapsed().as_secs_f64(),
        ..Pass::default()
    };
    for p in parts {
        total.latency_s.extend(p.latency_s);
        total.encode_s.extend(p.encode_s);
        total.parse_s.extend(p.parse_s);
        total.attempted += p.attempted;
        total.failed += p.failed;
    }
    total.stats = Some(node_b.shutdown());
    total
}

/// Times the server's reply encoder and the client's reply parser on
/// `response`, from outside.
fn time_codec(response: &StudyResponse, out: &mut Pass) {
    let t = Instant::now();
    let line = protocol::ok_line(1, response);
    out.encode_s.push(t.elapsed().as_secs_f64());
    let t = Instant::now();
    let parsed = protocol::parse_reply(line.trim_end());
    out.parse_s.push(t.elapsed().as_secs_f64());
    if parsed.map(|(_, r)| r) != Ok(WireReply::Ok(response.to_value())) {
        out.failed += 1;
    }
}

fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    // The shared parent goes too once no other run uses it.
    if let Some(parent) = dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
}

/// A scratch directory inside the repository tree, unique to this process.
fn work_dir() -> PathBuf {
    PathBuf::from(format!("perfbench/.work/serve-{}", std::process::id()))
}

/// Node B's counters and service times from the plain pass, the wire
/// time left over, and the reply codec times from the traced pass.
fn server_metrics(plain: &Pass, traced_pass: &Pass) -> Metrics {
    let stats = plain.stats.as_ref().expect("every pass reports");
    let mut m = Metrics::new();
    let mut service_total = 0.0;
    let mut service_count = 0;
    for kind in &stats.kinds {
        let name = match kind.kind.as_str() {
            "compare" => "studyd.service_us.compare",
            "interval_sweep" => "studyd.service_us.interval_sweep",
            "figure" => "studyd.service_us.figure",
            _ => continue,
        };
        let h = &kind.latency;
        service_total += h.total_seconds.get();
        service_count += h.count;
        if h.count > 0 {
            m.insert(name, (h.total_seconds.get() * 1e6 / h.count as f64, "us"));
        }
    }
    m.insert(
        "studyd.wire_us",
        (
            (mean(&plain.latency_s) - service_total / service_count.max(1) as f64) * 1e6,
            "us",
        ),
    );
    m.insert(
        "studyd.encode_us",
        (mean(&traced_pass.encode_s) * 1e6, "us"),
    );
    m.insert("studyd.parse_us", (mean(&traced_pass.parse_s) * 1e6, "us"));
    m.insert(
        "studyd.rejected_busy",
        (stats.rejected_busy as f64, "count"),
    );
    if let Some(f) = &stats.fleet {
        m.insert("fleet.hits", (f.hits as f64, "count"));
        m.insert("fleet.rejected", (f.rejected as f64, "count"));
    }
    if let Some(s) = &stats.store {
        m.insert("runstore.hits", (s.hits as f64, "count"));
        m.insert("runstore.appends", (s.appends as f64, "count"));
        m.insert(
            "runstore.verify_failures",
            (s.verify_failures as f64, "count"),
        );
    }
    let c = stats.cache;
    m.insert("study.cache_hits", (c.hits as f64, "count"));
    m.insert("study.cache_misses", (c.misses as f64, "count"));
    m.insert("study.coalesced", (c.coalesced as f64, "count"));
    m.insert("study.executions", (c.executions as f64, "count"));
    m.insert("trace.overhead_s", (traced_pass.wall_s - plain.wall_s, "s"));
    m
}

/// The recall tiers, timed from outside: a peer recall from node A for
/// every run of the menu, the plain pass's node B store (closed by now)
/// reopened and recalled, and a scratch store appended to and flushed.
/// Every recalled record must equal the warming study's bytes. Returns
/// the recalls attempted and failed.
fn time_tiers(
    node_a: &Warm,
    peer: &str,
    cfg: &StudyConfig,
    work: &Path,
    m: &mut Metrics,
) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    let keys: Vec<RunKey> = {
        let mut keys = Vec::new();
        for r in menu_runs() {
            for t in [leakctl::Technique::none(), r.technique] {
                let k = RunKey::of(r.benchmark, &t, r.l2_latency);
                if !keys.contains(&k) {
                    keys.push(k);
                }
            }
        }
        keys
    };
    let hash = storebytes::config_hash(cfg);
    let peer_client = fleet::PeerClient::new(peer);
    let b_store = RunStore::open(work.join("b0"))
        .unwrap_or_else(|e| die(&format!("reopening node B's store: {e}")));
    let scratch = RunStore::open(work.join("scratch"))
        .unwrap_or_else(|e| die(&format!("opening scratch store: {e}")));
    let (mut fleet_s, mut recall_s, mut append_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut records = Vec::new();
    for key in &keys {
        let key_bytes = storebytes::encode_key(key);
        let id = RecordId::of(&key_bytes, hash);
        let expected = node_a
            .study
            .cache()
            .get(key)
            .map(|r| storebytes::encode_run(&r));
        attempted += 2;
        let t = Instant::now();
        let remote = peer_client.recall(id, &key_bytes);
        fleet_s.push(t.elapsed().as_secs_f64());
        let verified = remote
            .ok()
            .flatten()
            .and_then(|bytes| fleet::verify_remote_record(&bytes, id, &key_bytes));
        if verified.is_none() || verified != expected {
            failed += 1;
        }
        let t = Instant::now();
        let local = b_store.recall(id, &key_bytes);
        recall_s.push(t.elapsed().as_secs_f64());
        if local.is_none() || local != expected {
            failed += 1;
        }
        records.push((id, key_bytes, expected.unwrap_or_default()));
    }
    // Appends back to back, so the flush below waits on real writes.
    for (id, key_bytes, payload) in records {
        let t = Instant::now();
        scratch.append(id, key_bytes, payload);
        append_s.push(t.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    scratch.flush();
    m.insert("runstore.flush_s", (t.elapsed().as_secs_f64(), "s"));
    m.insert("fleet.recall_us", (mean(&fleet_s) * 1e6, "us"));
    m.insert("runstore.recall_us", (mean(&recall_s) * 1e6, "us"));
    m.insert("runstore.append_us", (mean(&append_s) * 1e6, "us"));
    (attempted, failed)
}

/// `serve-fleet`; see the module documentation.
pub fn serve(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let trace_seed = (0..)
        .map(|i| util::derive(seed, TRACE_STREAM, i))
        .find(|&s| s != TUNING_SEED)
        .expect("an endless seed stream");
    let cfg = StudyConfig {
        seed: trace_seed,
        insts: INSTS,
        ..StudyConfig::default()
    };
    let menu = menu();
    let work = work_dir();
    remove(&work);

    let mut setup_s = Vec::new();
    let mut node_a: Option<Warm> = None;
    for rep in 0..SETUP_REPS {
        if let Some(old) = node_a.take() {
            old.server.shutdown();
        }
        let t = Instant::now();
        node_a = Some(warm(cfg, &work.join(format!("a{rep}")), &menu));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let node_a = node_a.expect("set-up ran at least once");
    let peer = node_a.server.local_addr().to_string();

    let mut order_base: Vec<usize> = (0..menu.len())
        .cycle()
        .take(menu.len() * COPIES_PER_PASS)
        .collect();
    let mut passes: Vec<Pass> = Vec::new();
    let started = Instant::now();
    let planned = if traced { 2 } else { MIN_PASSES };
    while passes.len() < planned || (!traced && started.elapsed().as_secs() < seconds) {
        let index = passes.len() as u64;
        util::shuffle(&mut order_base, util::derive(seed, TRACE_STREAM + 1, index));
        let dir = work.join(format!("b{index}"));
        // A traced run's first pass is plain (its node B store is kept
        // for the recall timings); its second times the reply codec.
        let p = pass(
            cfg,
            &dir,
            &peer,
            &menu,
            &node_a,
            &order_base,
            traced && index == 1,
        );
        if !traced {
            remove(&dir);
        }
        passes.push(p);
    }

    let mut attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let mut failed: u64 = passes.iter().map(|p| p.failed).sum();
    let mut executions = 0;
    for p in &passes {
        let stats = p.stats.as_ref().expect("every pass reports");
        executions += stats.cache.executions;
        if !stats.audit_enabled {
            die("node B was built without the audit layer");
        }
    }
    let latency: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latency_s.iter().copied())
        .collect();
    let wall: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let detail = vec![
        ("trace_seed".into(), Value::UInt(trace_seed)),
        ("insts".into(), Value::UInt(INSTS)),
        ("passes".into(), Value::UInt(passes.len() as u64)),
        (
            "requests_per_pass".into(),
            Value::UInt(order_base.len() as u64),
        ),
        ("latency_samples".into(), Value::UInt(latency.len() as u64)),
        (
            "tail_percentile".into(),
            Value::Float(util::tail_percentile(latency.len())),
        ),
        ("node_b_executions".into(), Value::UInt(executions)),
        (
            "throughput_rps".into(),
            Value::Float(latency.len() as f64 / wall.iter().sum::<f64>()),
        ),
    ];

    if !traced {
        node_a.server.shutdown();
        remove(&work);
        return Outcome {
            attempted,
            failed: failed + executions,
            metrics: util::end_to_end(&latency, &wall, &setup_s),
            detail,
        };
    }

    // Traced: pass 0 is plain, pass 1 timed the reply codec inline.
    let mut m = server_metrics(&passes[0], &passes[1]);
    let (tier_attempted, tier_failed) = time_tiers(&node_a, &peer, &cfg, &work, &mut m);
    attempted += tier_attempted;
    failed += tier_failed;

    // The set-up's simulation, re-derived twice through the layer calls.
    let mut traces = [Trace::default(), Trace::default()];
    for trace in &mut traces {
        attempted += 1;
        if let Err(e) = derive(
            node_a.study.ctx(),
            &menu_runs(),
            &node_a.study,
            THREADS,
            false,
            trace,
        ) {
            eprintln!("serve-fleet traced: {e}");
            failed += 1;
        }
    }
    let [a, b] = traces;
    attempted += a.compared + b.compared + 1;
    failed += a.mismatches + b.mismatches + u64::from(a.counts != b.counts);
    let mut sim = a.metrics(1.0);
    // The server prices every request it serves: count the calls one
    // pass costs; their per-call time is the one measured from outside.
    sim.insert(
        "pricing.calls",
        (
            order_base.iter().map(|&i| pricings(&menu[i])).sum::<u64>() as f64,
            "count",
        ),
    );
    sim.insert("specgen.arena_mb", (arena_mb(1, INSTS), "MB"));
    // Simulation happens only in set-up here, so the simulation layers'
    // figures describe set-up; the served pass's own counters (node B's
    // `study.*`, zero executions) take precedence.
    for (k, v) in sim {
        m.entry(k).or_insert(v);
    }
    node_a.server.shutdown();
    remove(&work);
    Outcome {
        attempted,
        failed: failed + executions,
        metrics: m,
        detail,
    }
}
