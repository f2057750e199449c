//! E6 — the Yannakakis baseline [18] that Theorem 2 extends: acyclic pure
//! CQs in poly(input + output), vs the naive evaluator, plus ablation A3
//! (the top-down dangling-tuple pass).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pq_bench::workloads::{chain_database, chain_query};
use pq_engine::naive;
use pq_engine::yannakakis::{self, EvalOptions};
use pq_engine::ExecutionContext;

fn chain_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("yannakakis/chain_vs_naive");
    group.sample_size(10);
    let q = chain_query(4);
    for n in [300usize, 600, 1200] {
        let db = chain_database(4, n, (n as i64) / 4, 21);
        group.bench_with_input(BenchmarkId::new("yannakakis", n), &n, |b, _| {
            b.iter(|| yannakakis::evaluate(&q, &db).unwrap().len())
        });
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |b, _| {
            b.iter(|| naive::evaluate(&q, &db).unwrap().len())
        });
    }
    group.finish();
}

fn emptiness_is_cheaper(c: &mut Criterion) {
    let mut group = c.benchmark_group("yannakakis/emptiness");
    group.sample_size(10);
    let q = chain_query(6);
    for n in [500usize, 2000] {
        let db = chain_database(6, n, (n as i64) / 4, 23);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| yannakakis::is_nonempty(&q, &db).unwrap())
        });
    }
    group.finish();
}

fn ablation_a3_downward_pass(c: &mut Criterion) {
    let mut group = c.benchmark_group("yannakakis/ablation_a3_downward");
    group.sample_size(10);
    // Skewed data: many dangling tuples in the middle relations.
    let q = chain_query(5);
    let db = chain_database(5, 1500, 60, 31);
    for (label, downward) in [("with_downward", true), ("without_downward", false)] {
        let opts = EvalOptions {
            downward_pass: downward,
        };
        group.bench_function(label, |b| {
            b.iter(|| {
                let ctx = ExecutionContext::unlimited();
                yannakakis::evaluate_with_options_governed(&q, &db, opts, &ctx)
                    .unwrap()
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    chain_queries,
    emptiness_is_cheaper,
    ablation_a3_downward_pass
);
criterion_main!(benches);
