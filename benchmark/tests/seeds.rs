//! Seed handling and repeatability of the benchmark's inputs and counts.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`
//! (the debug build works too, only slower).

use std::path::PathBuf;

use pq_benchmark::gen::{self, ColdStream, MixedStream, Op};
use pq_benchmark::run::{run, Options, Outcome};
use pq_benchmark::spec::{self, Workload};

/// The first `n` requests of `w` for `seed`, as wire lines, plus the
/// database text.
fn requests(w: Workload, seed: u64, n: usize) -> (String, Vec<String>) {
    let s = w.sizing();
    let data = gen::data(&s, seed);
    let lines = match w {
        Workload::ColdAnalytic => ColdStream::new(&s, seed).take(n).map(|q| q.line).collect(),
        Workload::MixedWrite => MixedStream::new(&data, &s, seed)
            .take(n)
            .map(|op| match op {
                Op::Query(q) => q.line,
                Op::Write(w) => w.line(),
            })
            .collect(),
    };
    (data.text, lines)
}

#[test]
fn the_same_seed_gives_the_same_requests() {
    for w in Workload::ALL {
        assert_eq!(requests(w, 7, 500), requests(w, 7, 500), "{}", w.name());
    }
}

#[test]
fn another_seed_changes_the_constants_and_the_data() {
    for w in Workload::ALL {
        let (data_a, lines_a) = requests(w, 7, 500);
        let (data_b, lines_b) = requests(w, 8, 500);
        assert_ne!(data_a, data_b, "{}: database", w.name());
        assert_ne!(lines_a, lines_b, "{}: requests", w.name());
    }
    // The cold-analytic texts differ in their selecting constants only: the
    // same templates appear in the same proportions.
    let s = Workload::ColdAnalytic.sizing();
    let kinds = |seed| {
        let mut k: Vec<usize> = ColdStream::new(&s, seed).take(90).map(|q| q.kind).collect();
        k.sort_unstable();
        k
    };
    assert_eq!(kinds(7), kinds(8));
}

#[test]
fn the_cold_pool_outgrows_the_caches_and_the_mixed_pool_fits() {
    let s = Workload::ColdAnalytic.sizing();
    let pool = gen::pool_size(Workload::ColdAnalytic, &s);
    assert!(pool >= 4 * spec::RESULT_CACHE_CAPACITY, "{pool}");
    let mixed = gen::pool_size(Workload::MixedWrite, &Workload::MixedWrite.sizing());
    assert!(mixed <= spec::PLAN_CACHE_CAPACITY / 2, "{mixed}");
}

fn counted_run(w: Workload, dir: &str) -> Outcome {
    let opts = Options {
        workload: w,
        seed: spec::DEFAULT_SEED,
        seconds: 600.0,
        trace: true,
        max_ops: Some(48),
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir),
    };
    let out = run(&opts).expect("the run completes");
    assert_eq!(out.failed, 0, "{}: {:?}", w.name(), out.failures);
    out
}

fn metric(out: &Outcome, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .1
}

#[test]
fn single_client_counts_repeat_exactly() {
    let a = counted_run(Workload::MixedWrite, "counts-mixed-a");
    let b = counted_run(Workload::MixedWrite, "counts-mixed-b");
    for name in [
        "wal.bytes_per_write",
        "ivm.delta_rows_per_write",
        "wal.snapshots",
    ] {
        assert_eq!(
            metric(&a, name).to_bits(),
            metric(&b, name).to_bits(),
            "{name}"
        );
    }
    assert!(metric(&a, "wal.bytes_per_write") > 0.0);
    let a = counted_run(Workload::ColdAnalytic, "counts-cold-a");
    let b = counted_run(Workload::ColdAnalytic, "counts-cold-b");
    let name = "cache.plan_hit_ratio";
    assert_eq!(
        metric(&a, name).to_bits(),
        metric(&b, name).to_bits(),
        "{name}"
    );
}

#[test]
fn spec_json_is_the_rendered_spec() {
    let committed = include_str!("../spec.json");
    assert_eq!(
        committed,
        spec::describe(),
        "regenerate with `pq-benchmark --describe`"
    );
}

#[test]
fn benchmark_json_is_the_rendered_catalogue() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    assert_eq!(
        text,
        spec::benchmark_json(),
        "regenerate with `pq-benchmark --benchmark-json`"
    );
    for w in Workload::ALL {
        assert!(
            w.why().len() <= 200 && !w.why().contains('\n'),
            "{}",
            w.name()
        );
    }
    assert!(spec::END_TO_END.iter().all(|m| m.3 <= 0.25));
}
