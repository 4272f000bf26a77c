//! Parallel-engine contract: fanning timing runs across worker threads
//! must not change a single bit of any figure — scheduling only affects
//! *when* a run executes, never what it computes, and pricing stays
//! serial in request order.

use leakctl::{Technique, TechniqueKind};
use simcore::{figures, CompareRequest, Study, StudyConfig};
use specgen::Benchmark;

const INSTS: u64 = 40_000;

fn study(threads: usize) -> Study {
    Study::with_threads(
        StudyConfig {
            insts: INSTS,
            ..StudyConfig::default()
        },
        threads,
    )
}

#[test]
fn parallel_savings_figure_is_bitwise_equal_to_sequential() {
    let seq = figures::savings_figure(&study(1), "fig8", 11, 110.0).expect("sequential");
    let par = figures::savings_figure(&study(4), "fig8", 11, 110.0).expect("parallel");
    assert_eq!(
        seq, par,
        "4-thread figure must equal the 1-thread figure bit for bit"
    );
}

#[test]
fn parallel_best_interval_figures_are_bitwise_equal_to_sequential() {
    let seq = figures::best_interval_figures(&study(1), 11, 85.0).expect("sequential");
    let par = figures::best_interval_figures(&study(4), 11, 85.0).expect("parallel");
    assert_eq!(seq.0, par.0, "fig12 must match bit for bit");
    assert_eq!(seq.1, par.1, "fig13 must match bit for bit");
    assert_eq!(seq.2, par.2, "table3 must match");
}

#[test]
fn compare_many_equals_per_request_compare() {
    let par = study(8);
    let seq = study(1);
    let requests: Vec<CompareRequest> = Benchmark::ALL
        .into_iter()
        .flat_map(|benchmark| {
            [Technique::drowsy(2048), Technique::gated_vss(2048)].map(|technique| CompareRequest {
                benchmark,
                technique,
                l2_latency: 11,
                temperature_c: 110.0,
            })
        })
        .collect();
    let batch = par.compare_many(&requests).expect("batch");
    for (req, got) in requests.iter().zip(&batch) {
        let solo = seq
            .compare(
                req.benchmark,
                req.technique,
                req.l2_latency,
                req.temperature_c,
            )
            .expect("solo");
        assert_eq!(*got, solo, "{:?}/{:?}", req.benchmark, req.technique.kind);
    }
}

#[test]
fn interval_sweep_par_matches_sequential_sweep() {
    let intervals = [1024u64, 4096, 16384];
    let s = study(1);
    let seq = s
        .interval_sweep(
            Benchmark::Gzip,
            TechniqueKind::Drowsy,
            11,
            110.0,
            &intervals,
        )
        .expect("sequential sweep");
    let par = study(4)
        .interval_sweep(
            Benchmark::Gzip,
            TechniqueKind::Drowsy,
            11,
            110.0,
            &intervals,
        )
        .expect("parallel sweep");
    assert_eq!(seq, par);
}

#[test]
fn batch_reuses_cached_runs() {
    let s = study(4);
    let requests = [CompareRequest {
        benchmark: Benchmark::Gzip,
        technique: Technique::drowsy(4096),
        l2_latency: 11,
        temperature_c: 110.0,
    }];
    s.compare_many(&requests).expect("first batch");
    let after_first = s.cache().len();
    assert_eq!(after_first, 2, "one baseline + one technique run");
    // Re-pricing at another temperature must add zero timing runs.
    let reprice = [CompareRequest {
        temperature_c: 85.0,
        ..requests[0]
    }];
    s.compare_many(&reprice).expect("re-priced batch");
    assert_eq!(
        s.cache().len(),
        after_first,
        "re-pricing must not re-simulate"
    );
}
