//! The pinned benchmark configuration: workloads, their sizes, the service
//! configuration and the metric catalogue. `spec.json` in the package root
//! is the rendered form of this module (`pq-benchmark --describe`), and a
//! test keeps the two identical.

use std::path::Path;

use pq_core::PlannerOptions;
use pq_service::{DurabilityConfig, FsyncPolicy, RequestLimits, ServiceConfig};

/// The seed the benchmark is tuned and reported on.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for re-checking a claim.
pub const HOLDOUT_SEED: u64 = 20_261_017;

/// Worker threads of the service under test.
pub const WORKERS: usize = 2;
/// Intra-query threads of the service under test.
pub const INTRA_QUERY_THREADS: usize = 2;
/// Admission queue depth.
pub const QUEUE_DEPTH: usize = 64;
/// Plan-cache capacity (the service default).
pub const PLAN_CACHE_CAPACITY: usize = 256;
/// Result-cache capacity (the service default).
pub const RESULT_CACHE_CAPACITY: usize = 1024;
/// Cache shards (the service default).
pub const CACHE_SHARDS: usize = 8;
/// WAL appends between automatic snapshots.
pub const SNAPSHOT_EVERY: u64 = 64;
/// Times the set-up is repeated per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Database name every request addresses.
pub const DB: &str = "bench";

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cache-bypassing analytic queries over every engine.
    ColdAnalytic,
    /// One-row writes interleaved with cached reads and a live view.
    MixedWrite,
}

/// Closed-loop clients sending requests (mixed-write adds the connection
/// holding its `SUBSCRIBE` stream).
pub const CLIENTS: usize = 1;

/// Sizes of one workload's database and traffic.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Rows in each of `R0`..`R3` and in `E`.
    pub rows: usize,
    /// Value domain of `R0`..`R3` (`0..nodes`).
    pub nodes: i64,
    /// Value domain of the graph relation `E`.
    pub graph_nodes: i64,
    /// Rows of the unary hot set `F` the subscribed view starts from.
    pub hot_set: usize,
    /// One-row writes made after the read window (read-only workloads),
    /// on a database of [`PROBE`] sizes.
    pub probe_writes: usize,
}

/// The database a read-only workload's write probe runs on, in a service
/// of its own with the same configuration. It is larger than the
/// cold-analytic database so that a one-row write takes milliseconds of
/// work: on the small one a write takes half a millisecond, and its tail
/// is how fast a shared host wakes an idle thread.
pub const PROBE: Sizing = Sizing {
    rows: 5_000,
    nodes: 2_500,
    graph_nodes: 1_250,
    hot_set: 60,
    probe_writes: 0,
};

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 2] = [Workload::ColdAnalytic, Workload::MixedWrite];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdAnalytic => "cold-analytic",
            Workload::MixedWrite => "mixed-write",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists, in one sentence.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ColdAnalytic => {
                "1 client over 4500 texts, far more than the 1024+256 cache entries: analyze, plan \
                 and every engine do the work, so engine changes show and cache changes should not"
            }
            Workload::MixedWrite => {
                "1 client, a third of its operations one-row writes to 20000-row relations, plus a \
                 SUBSCRIBE stream: catalog, WAL, durable and view upkeep work and cached answers churn"
            }
        }
    }

    /// The pinned database and traffic sizes.
    pub fn sizing(self) -> Sizing {
        match self {
            Workload::ColdAnalytic => Sizing {
                rows: 1_000,
                nodes: 500,
                graph_nodes: 250,
                hot_set: 5,
                probe_writes: 1_600,
            },
            Workload::MixedWrite => Sizing {
                rows: 20_000,
                nodes: 10_000,
                graph_nodes: 5_000,
                hot_set: 250,
                probe_writes: 0,
            },
        }
    }
}

/// The pinned service configuration, durable under `dir`. Built field by
/// field: `ServiceConfig::default()` sizes its thread pool from the
/// environment and the core count.
pub fn service_config(dir: &Path) -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        intra_query_threads: INTRA_QUERY_THREADS,
        queue_depth: QUEUE_DEPTH,
        plan_cache_capacity: PLAN_CACHE_CAPACITY,
        result_cache_capacity: RESULT_CACHE_CAPACITY,
        cache_shards: CACHE_SHARDS,
        default_limits: RequestLimits::default(),
        planner: PlannerOptions {
            max_parallelism: INTRA_QUERY_THREADS,
            ..PlannerOptions::default()
        },
        durability: Some(DurabilityConfig {
            dir: dir.to_path_buf(),
            fsync: FsyncPolicy::Never,
            snapshot_every: SNAPSHOT_EVERY,
        }),
    }
}

/// How a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: name, unit, direction and regression bound.
pub type EndToEnd = (&'static str, &'static str, Better, f64);

/// The end-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [EndToEnd; 10] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("throughput_ops_s", "ops/s", Better::Higher, 0.25),
    ("query_p50_ms", "ms", Better::Lower, 0.25),
    ("query_p99_ms", "ms", Better::Lower, 0.25),
    ("write_p50_ms", "ms", Better::Lower, 0.25),
    ("write_p90_ms", "ms", Better::Lower, 0.25),
    ("delta_lag_p50_ms", "ms", Better::Lower, 0.25),
    ("delta_lag_p90_ms", "ms", Better::Lower, 0.25),
    ("wal_bytes_per_user_byte", "B/B", Better::Lower, 0.1),
    ("peak_rss_mb", "MB", Better::Lower, 0.25),
];

/// One per-layer metric: name, unit, direction, and the end-to-end metric
/// it should move on which workload.
pub type PerLayer = (&'static str, &'static str, Better, &'static str);

/// The per-layer metrics, printed with `--trace 1`, each paired with the
/// end-to-end metric it should move and the workload where it should.
pub const PER_LAYER: [PerLayer; 34] = [
    (
        "wire.overhead_us",
        "us",
        Better::Lower,
        "query_p50_ms,throughput_ops_s@mixed-write",
    ),
    (
        "protocol.parse_request_us",
        "us",
        Better::Lower,
        "query_p50_ms,throughput_ops_s@mixed-write",
    ),
    (
        "protocol.render_us",
        "us",
        Better::Lower,
        "query_p50_ms,throughput_ops_s@mixed-write",
    ),
    (
        "query.parse_us",
        "us",
        Better::Lower,
        "query_p50_ms@mixed-write",
    ),
    (
        "query.canonical_us",
        "us",
        Better::Lower,
        "query_p50_ms@mixed-write",
    ),
    (
        "analyze.us",
        "us",
        Better::Lower,
        "query_p50_ms@cold-analytic",
    ),
    (
        "core.plan_us",
        "us",
        Better::Lower,
        "query_p50_ms,query_p99_ms,throughput_ops_s@cold-analytic",
    ),
    (
        "core.execute_us.yannakakis",
        "us",
        Better::Lower,
        "query_p50_ms,query_p99_ms,throughput_ops_s@cold-analytic",
    ),
    (
        "core.execute_us.hypertree",
        "us",
        Better::Lower,
        "query_p50_ms,query_p99_ms,throughput_ops_s@cold-analytic",
    ),
    (
        "core.execute_us.colorcoding",
        "us",
        Better::Lower,
        "query_p50_ms,query_p99_ms,throughput_ops_s@cold-analytic",
    ),
    (
        "core.execute_us.naive",
        "us",
        Better::Lower,
        "query_p50_ms,query_p99_ms,throughput_ops_s@cold-analytic",
    ),
    (
        "core.execute_us.view-scan",
        "us",
        Better::Lower,
        "query_p50_ms@mixed-write",
    ),
    (
        "core.count_us",
        "us",
        Better::Lower,
        "query_p50_ms,query_p99_ms,throughput_ops_s@cold-analytic",
    ),
    (
        "engine.tuples_per_answer",
        "tuples/row",
        Better::Lower,
        "query_p99_ms,peak_rss_mb@cold-analytic",
    ),
    (
        "engine.ticks_per_query",
        "ticks",
        Better::Lower,
        "query_p99_ms,peak_rss_mb@cold-analytic",
    ),
    (
        "exec.tasks_run",
        "count",
        Better::Higher,
        "throughput_ops_s@cold-analytic",
    ),
    (
        "exec.peak_active",
        "count",
        Better::Higher,
        "throughput_ops_s@cold-analytic",
    ),
    (
        "cache.result_hit_ratio",
        "ratio",
        Better::Higher,
        "query_p50_ms,throughput_ops_s@mixed-write",
    ),
    (
        "cache.plan_hit_ratio",
        "ratio",
        Better::Higher,
        "query_p50_ms,throughput_ops_s@mixed-write",
    ),
    (
        "cache.semantic_hits",
        "count",
        Better::Higher,
        "query_p50_ms,throughput_ops_s@mixed-write",
    ),
    (
        "service.view_answered",
        "count",
        Better::Higher,
        "query_p50_ms,throughput_ops_s@mixed-write",
    ),
    (
        "service.query_us",
        "us",
        Better::Lower,
        "query_p50_ms,throughput_ops_s@mixed-write",
    ),
    (
        "service.write_us",
        "us",
        Better::Lower,
        "write_p50_ms,write_p90_ms,wal_bytes_per_user_byte@mixed-write",
    ),
    (
        "wal.bytes_per_write",
        "B/write",
        Better::Lower,
        "write_p50_ms,write_p90_ms,wal_bytes_per_user_byte@mixed-write",
    ),
    (
        "wal.snapshots",
        "count",
        Better::Lower,
        "write_p50_ms,write_p90_ms,wal_bytes_per_user_byte@mixed-write",
    ),
    (
        "durable.persist_us",
        "us",
        Better::Lower,
        "write_p50_ms,write_p90_ms,wal_bytes_per_user_byte@mixed-write",
    ),
    (
        "data.db_clone_us",
        "us",
        Better::Lower,
        "write_p50_ms@mixed-write,setup_s@all",
    ),
    (
        "data.insert_rows_us",
        "us",
        Better::Lower,
        "write_p50_ms@mixed-write,setup_s@all",
    ),
    (
        "data.load_us",
        "us",
        Better::Lower,
        "write_p50_ms@mixed-write,setup_s@all",
    ),
    (
        "ivm.maintain_us",
        "us",
        Better::Lower,
        "write_p50_ms,delta_lag_p50_ms@mixed-write",
    ),
    (
        "ivm.fallbacks",
        "count",
        Better::Lower,
        "write_p50_ms,delta_lag_p50_ms@mixed-write",
    ),
    (
        "ivm.delta_rows_per_write",
        "rows/write",
        Better::Lower,
        "write_p50_ms,delta_lag_p50_ms@mixed-write",
    ),
    (
        "trace.query_p50_overhead_ms",
        "ms",
        Better::Lower,
        "query_p50_ms@all",
    ),
    (
        "trace.throughput_overhead_ops_s",
        "ops/s",
        Better::Lower,
        "throughput_ops_s@all",
    ),
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 30;

/// The command that runs the benchmark from the repository root; the
/// workload, seed, seconds and trace flags follow it.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

fn joined<T>(items: &[T], render: impl Fn(&T) -> String) -> String {
    items.iter().map(render).collect::<Vec<_>>().join(",\n")
}

/// The rendered `BENCHMARK.json` at the repository root.
pub fn benchmark_json() -> String {
    let command = COMMAND.map(|c| format!("\"{c}\"")).join(", ");
    let workloads = joined(&Workload::ALL, |w| {
        format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
            w.name(),
            w.why()
        )
    });
    let e2e = joined(&END_TO_END, |(name, unit, better, bound)| {
        format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \"bound\": {bound}}}",
            better.as_str()
        )
    });
    let layers = joined(&PER_LAYER, |(name, unit, better, _)| {
        format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
            better.as_str()
        )
    });
    format!(
        "{{\n  \"command\": [{command}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{workloads}\n  ],\n  \"end_to_end\": [\n{e2e}\n  ],\n  \"per_layer\": [\n{layers}\n  ]\n}}\n"
    )
}

/// The rendered specification (`spec.json`): pinned service configuration,
/// seeds, per-workload sizes and reasons, and the metric pairings.
pub fn describe() -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"seeds\": {{\"default\": {DEFAULT_SEED}, \"holdout\": {HOLDOUT_SEED}}},\n"
    ));
    out.push_str(&format!(
        "  \"service\": {{\"workers\": {WORKERS}, \"intra_query_threads\": {INTRA_QUERY_THREADS}, \
         \"queue_depth\": {QUEUE_DEPTH}, \"plan_cache_capacity\": {PLAN_CACHE_CAPACITY}, \
         \"result_cache_capacity\": {RESULT_CACHE_CAPACITY}, \"cache_shards\": {CACHE_SHARDS}, \
         \"durability\": {{\"fsync\": \"never\", \"snapshot_every\": {SNAPSHOT_EVERY}}}, \
         \"transport\": \"pq_service::serve on 127.0.0.1:0\", \"setup_reps\": {SETUP_REPS}}},\n"
    ));
    out.push_str(&format!(
        "  \"write_probe\": {{\"service\": \"its own\", \"rows_per_relation\": {}, \"nodes\": {}, \
         \"graph_nodes\": {}, \"hot_set\": {}}},\n",
        PROBE.rows, PROBE.nodes, PROBE.graph_nodes, PROBE.hot_set
    ));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        let s = w.sizing();
        let pool = crate::gen::pool_size(w, &s);
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"clients\": {CLIENTS}, \"loop\": \"closed\", \
             \"rows_per_relation\": {}, \"nodes\": {}, \"graph_nodes\": {}, \"hot_set\": {}, \
             \"query_pool\": {pool}, \"plan_cache_capacity\": {PLAN_CACHE_CAPACITY}, \
             \"result_cache_capacity\": {RESULT_CACHE_CAPACITY}, \"probe_writes\": {}, \
             \"why\": \"{}\"}}{}\n",
            w.name(),
            s.rows,
            s.nodes,
            s.graph_nodes,
            s.hot_set,
            s.probe_writes,
            w.why(),
            if i + 1 < Workload::ALL.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (name, unit, better, bound)) in END_TO_END.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \"bound\": {bound}}}{}\n",
            better.as_str(),
            if i + 1 < END_TO_END.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better, moves)) in PER_LAYER.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \"moves\": \"{moves}\"}}{}\n",
            better.as_str(),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
