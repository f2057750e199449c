//! Parallel execution is *deterministic*: every engine's one entry point
//! returns byte-identical output whether its execution context carries a
//! pool of 1, 2, 4 or 8 threads — including the planner's dispatch — and
//! when the shared budget is exhausted, the depth limit is hit, or the run
//! is cancelled, the error kind matches the degree-1 (serial) run's.
//!
//! Each engine earns determinism differently (morsel order for the naive
//! engines, a level schedule for Yannakakis, fixed trial batches for color
//! coding, snapshot rounds for Datalog); this test pins the promise itself.

use pq_core::{plan, PlannerOptions};
use pq_data::{tuple, Database, Relation};
use pq_engine::colorcoding::{self, ColorCodingOptions};
use pq_engine::datalog_eval::{self, Strategy};
use pq_engine::{naive, naive_indexed, yannakakis};
use pq_engine::{CancellationToken, EngineError, ExecutionContext, ResourceKind};
use pq_exec::Pool;
use pq_query::{parse_cq, parse_datalog};

/// Pool degrees the suite sweeps. 1 runs every task inline on the caller;
/// 2, 4 and 8 exercise real fan-out (8 exceeds the core count of a small
/// machine, so workers interleave adversarially).
const DEGREES: [usize; 4] = [1, 2, 4, 8];

fn graph_db() -> Database {
    let mut db = Database::new();
    // A directed graph: two cycles joined by a chain, plus a fan — enough
    // structure that triangles, paths, and transitive closure are all
    // non-trivial.
    let mut edges = Vec::new();
    for i in 0..6 {
        edges.push(tuple![format!("a{i}"), format!("a{}", (i + 1) % 6)]);
    }
    for i in 0..5 {
        edges.push(tuple![format!("b{i}"), format!("b{}", (i + 1) % 5)]);
    }
    edges.push(tuple!["a0", "b0"]);
    for i in 0..8 {
        edges.push(tuple!["hub", format!("a{i}")]);
        edges.push(tuple![format!("b{}", i % 5), "hub"]);
    }
    db.add_table("E", ["x", "y"], edges).unwrap();

    let mut ep = Vec::new();
    for e in 0..10 {
        for p in 0..3 {
            ep.push(tuple![format!("e{e}"), format!("p{}", (e + p) % 7)]);
        }
    }
    db.add_table("EP", ["e", "p"], ep).unwrap();
    db
}

/// Render a relation as sorted `attr=value` lines — a canonical byte string
/// independent of any incidental in-memory ordering.
/// A denser graph for the deadline cases: the governor consults the wall
/// clock only every `TICKS_PER_CLOCK_CHECK` loop-head polls, so each worker
/// must see enough rows to cross that threshold before finishing.
fn dense_db(n: usize) -> Database {
    let mut db = Database::new();
    let mut edges = Vec::new();
    for i in 0..n {
        edges.push(tuple![format!("v{i}"), format!("v{}", (i + 1) % n)]);
        edges.push(tuple![format!("v{i}"), format!("v{}", (i * 2 + 1) % n)]);
        edges.push(tuple![format!("v{i}"), format!("v{}", (i * 3 + 2) % n)]);
    }
    db.add_table("E", ["x", "y"], edges).unwrap();
    db
}

fn rendered(r: &Relation) -> String {
    let mut lines: Vec<String> = r.iter().map(|t| format!("{t:?}")).collect();
    lines.sort();
    lines.join("\n")
}

/// A fresh unlimited context fanning out on a pool of `threads`.
fn on_pool(threads: usize) -> ExecutionContext {
    ExecutionContext::new().with_pool(Pool::new(threads))
}

fn kind_of(e: &EngineError) -> ResourceKind {
    match e {
        EngineError::ResourceExhausted { kind, .. } => *kind,
        other => panic!("expected resource exhaustion, got: {other}"),
    }
}

#[test]
fn every_parallel_engine_is_byte_identical_across_thread_counts() {
    let db = graph_db();
    let triangle = parse_cq("G(x, y, z) :- E(x, y), E(y, z), E(z, x).").unwrap();
    let path = parse_cq("G(x, z) :- E(x, y), E(y, z).").unwrap();
    let neq = parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap();
    let cc_opts = ColorCodingOptions::default();

    // (name, serial baseline, runner at a given pool degree).
    type Runner<'a> = Box<dyn Fn(usize) -> Relation + 'a>;
    let cases: Vec<(&str, Relation, Runner)> = vec![
        (
            "naive/triangle",
            naive::evaluate(&triangle, &db).unwrap(),
            Box::new(|t| naive::evaluate_governed(&triangle, &db, &on_pool(t)).unwrap()),
        ),
        (
            "naive_indexed/triangle",
            naive_indexed::evaluate(&triangle, &db).unwrap(),
            Box::new(|t| naive_indexed::evaluate_governed(&triangle, &db, &on_pool(t)).unwrap()),
        ),
        (
            "yannakakis/path",
            yannakakis::evaluate(&path, &db).unwrap(),
            Box::new(|t| yannakakis::evaluate_governed(&path, &db, &on_pool(t)).unwrap()),
        ),
        (
            "colorcoding/neq",
            colorcoding::evaluate(&neq, &db, &cc_opts).unwrap(),
            Box::new(|t| colorcoding::evaluate_governed(&neq, &db, &cc_opts, &on_pool(t)).unwrap()),
        ),
    ];

    for (name, serial, run) in &cases {
        let baseline = rendered(serial);
        assert!(!serial.is_empty(), "{name}: workload is degenerate");
        for threads in DEGREES {
            let out = run(threads);
            assert_eq!(*serial, out, "{name} differs at {threads} threads");
            assert_eq!(
                baseline,
                rendered(&out),
                "{name} bytes differ at {threads} threads"
            );
        }
    }
}

#[test]
fn parallel_datalog_reaches_the_serial_fixpoint_at_every_degree() {
    let db = graph_db();
    let tc = parse_datalog("T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z). ?- T").unwrap();
    for strategy in [Strategy::Naive, Strategy::SemiNaive] {
        let serial = datalog_eval::evaluate(&tc, &db, strategy).unwrap();
        assert!(!serial.is_empty());
        let baseline = rendered(&serial);
        for threads in DEGREES {
            let out =
                datalog_eval::evaluate_governed(&tc, &db, strategy, &on_pool(threads)).unwrap();
            assert_eq!(
                baseline,
                rendered(&out),
                "datalog {strategy:?} differs at {threads} threads"
            );
        }
    }
}

#[test]
fn planner_parallel_dispatch_is_byte_identical_across_thread_counts() {
    let db = graph_db();
    let queries = [
        "G(x, y, z) :- E(x, y), E(y, z), E(z, x).",
        "G(x, z) :- E(x, y), E(y, z).",
        "G(e) :- EP(e, p), EP(e, p2), p != p2.",
    ];
    let opts = PlannerOptions {
        max_parallelism: 8,
        ..PlannerOptions::default()
    };
    for src in queries {
        let q = parse_cq(src).unwrap();
        let p = plan(&q, &opts);
        let serial = p.execute(&q, &db).unwrap();
        let baseline = rendered(&serial);
        for threads in DEGREES {
            let out = p.execute_governed(&q, &db, &on_pool(threads)).unwrap();
            assert_eq!(
                baseline,
                rendered(&out),
                "{src} differs at {threads} threads"
            );
            assert_eq!(
                p.is_nonempty_governed(&q, &db, &on_pool(threads)).unwrap(),
                !serial.is_empty(),
                "{src} emptiness differs at {threads} threads"
            );
        }
    }
}

/// Shared-budget exhaustion and the recursion-depth limit surface the *same
/// error kind* as the serial run at every thread count — fan-out must not
/// turn a trip into a different failure (or worse, a partial answer).
#[test]
fn budget_exhaustion_matches_serial_error_kind_at_every_degree() {
    let db = graph_db();
    let triangle = parse_cq("G(x, y, z) :- E(x, y), E(y, z), E(z, x).").unwrap();
    let tc = parse_datalog("T(x, y) :- E(x, y). T(x, z) :- T(x, y), E(y, z). ?- T").unwrap();

    let serial_kind = kind_of(
        &naive::evaluate_governed(
            &triangle,
            &db,
            &ExecutionContext::new().with_tuple_budget(2),
        )
        .unwrap_err(),
    );
    assert_eq!(serial_kind, ResourceKind::TupleBudget);

    for threads in DEGREES {
        let budget = || on_pool(threads).with_tuple_budget(2);
        let e = naive::evaluate_governed(&triangle, &db, &budget()).unwrap_err();
        assert_eq!(kind_of(&e), serial_kind, "naive at {threads} threads");
        let e = naive_indexed::evaluate_governed(&triangle, &db, &budget()).unwrap_err();
        assert_eq!(kind_of(&e), serial_kind, "indexed at {threads} threads");
        let e =
            datalog_eval::evaluate_governed(&tc, &db, Strategy::SemiNaive, &budget()).unwrap_err();
        assert_eq!(kind_of(&e), serial_kind, "datalog at {threads} threads");
    }

    // Yannakakis charges per semijoin/join output; its serial trip point is
    // the same kind.
    let path = parse_cq("G(x, z) :- E(x, y), E(y, z).").unwrap();
    let serial_kind = kind_of(
        &yannakakis::evaluate_governed(&path, &db, &ExecutionContext::new().with_tuple_budget(1))
            .unwrap_err(),
    );
    for threads in DEGREES {
        let ctx = on_pool(threads).with_tuple_budget(1);
        let e = yannakakis::evaluate_governed(&path, &db, &ctx).unwrap_err();
        assert_eq!(kind_of(&e), serial_kind, "yannakakis at {threads} threads");
    }

    // Depth is an explicit argument of the recursive search, so every
    // chunk counts it from its own first atom: the K7 clique query (21
    // atoms, too wide for any join-based engine) needs far more levels
    // than the limit allows, at every degree.
    let mut atoms = Vec::new();
    for i in 0..7 {
        for j in (i + 1)..7 {
            atoms.push(format!("E(v{i}, v{j})"));
        }
    }
    let k7 = parse_cq(&format!("G :- {}.", atoms.join(", "))).unwrap();
    let shallow = |threads| on_pool(threads).with_max_depth(2);
    let serial_kind = kind_of(&naive::evaluate_governed(&k7, &db, &shallow(1)).unwrap_err());
    assert_eq!(serial_kind, ResourceKind::DepthLimit);
    for threads in DEGREES {
        let e = naive::evaluate_governed(&k7, &db, &shallow(threads)).unwrap_err();
        assert_eq!(
            kind_of(&e),
            serial_kind,
            "naive K7 depth at {threads} threads"
        );
    }
}

/// Cancellation mid-run (modelled by a token that trips before the first
/// poll — the only schedule that is deterministic at every thread count)
/// and an already-expired deadline both surface the serial error kind.
#[test]
fn cancellation_and_deadline_match_serial_error_kind_at_every_degree() {
    let triangle = parse_cq("G(x, y, z) :- E(x, y), E(y, z), E(z, x).").unwrap();
    let neq = parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap();
    let cc_opts = ColorCodingOptions::default();

    let cancelled = || {
        let token = CancellationToken::new();
        token.cancel();
        ExecutionContext::new().with_cancellation(token)
    };
    let expired = || ExecutionContext::new().with_deadline(std::time::Duration::ZERO);

    // The governor polls cancellation/clock every `TICKS_PER_CLOCK_CHECK`
    // cumulative ticks, so each workload must be big enough that the
    // degree-1 run provably trips — that serial baseline is what every
    // other degree is held to.
    let dense = dense_db(120);
    let mut ep_db = Database::new();
    let mut ep = Vec::new();
    for e in 0..80 {
        for p in 0..5 {
            ep.push(tuple![format!("e{e}"), format!("p{}", (e + p) % 11)]);
        }
    }
    ep_db.add_table("EP", ["e", "p"], ep).unwrap();

    let serial_cancel =
        kind_of(&naive::evaluate_governed(&triangle, &dense, &cancelled()).unwrap_err());
    assert_eq!(serial_cancel, ResourceKind::Cancelled);
    assert_eq!(
        kind_of(&naive_indexed::evaluate_governed(&triangle, &dense, &cancelled()).unwrap_err()),
        ResourceKind::Cancelled
    );
    assert_eq!(
        kind_of(&colorcoding::evaluate_governed(&neq, &ep_db, &cc_opts, &cancelled()).unwrap_err()),
        ResourceKind::Cancelled
    );
    let serial_timeout =
        kind_of(&naive::evaluate_governed(&triangle, &dense, &expired()).unwrap_err());
    assert_eq!(serial_timeout, ResourceKind::Timeout);

    for threads in DEGREES {
        let pool = || Pool::new(threads);
        let e = naive::evaluate_governed(&triangle, &dense, &cancelled().with_pool(pool()))
            .unwrap_err();
        assert_eq!(kind_of(&e), serial_cancel, "naive cancel at {threads}");
        let e = naive_indexed::evaluate_governed(&triangle, &dense, &cancelled().with_pool(pool()))
            .unwrap_err();
        assert_eq!(kind_of(&e), serial_cancel, "indexed cancel at {threads}");
        let ctx = cancelled().with_pool(pool());
        let e = colorcoding::evaluate_governed(&neq, &ep_db, &cc_opts, &ctx).unwrap_err();
        assert_eq!(
            kind_of(&e),
            serial_cancel,
            "colorcoding cancel at {threads}"
        );

        let e =
            naive::evaluate_governed(&triangle, &dense, &expired().with_pool(pool())).unwrap_err();
        assert_eq!(kind_of(&e), serial_timeout, "naive deadline at {threads}");
    }
}
