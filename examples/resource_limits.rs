//! Resource limits & graceful degradation: evaluate under a deadline, a
//! tuple budget, and cancellation — on one thread or fanned out on a pool
//! under the same governor — and watch the planner's fallback chain recover
//! from an engine that gives up.
//!
//! Run with: `cargo run --release --example resource_limits`

use std::time::Duration;

use pq_core::evaluate_with_fallback;
use pq_data::{tuple, Database};
use pq_engine::governor::{CancellationToken, ExecutionContext};
use pq_engine::{naive, EngineError};
use pq_query::parse_cq;

fn main() {
    // A path graph large enough that a generous evaluation does real work.
    let mut db = Database::new();
    let n = 500i64;
    db.add_table("E", ["a", "b"], (0..n - 1).map(|i| tuple![i, i + 1]))
        .unwrap();
    let q = parse_cq("G(x, z) :- E(x, y), E(y, z).").unwrap();

    // 1. Unlimited: the ungoverned entry point.
    let full = naive::evaluate(&q, &db).unwrap();
    println!("unlimited:     {} answer tuples", full.len());

    // 2. A generous governor changes nothing.
    let roomy = ExecutionContext::new()
        .with_deadline(Duration::from_secs(10))
        .with_tuple_budget(1_000_000);
    let same = naive::evaluate_governed(&q, &db, &roomy).unwrap();
    println!(
        "roomy budget:  {} answer tuples ({} ticks, {} tuples charged)",
        same.len(),
        roomy.ticks(),
        roomy.tuples_materialized()
    );
    assert_eq!(full, same);

    // 3. The same kind of governor carrying a 4-thread pool: every worker
    //    charges its one budget and deadline, and the answer is identical.
    let wide = ExecutionContext::new()
        .with_tuple_budget(1_000_000)
        .with_pool(pq_exec::Pool::new(4));
    let par = naive::evaluate_governed(&q, &db, &wide).unwrap();
    println!(
        "4 threads:     {} answer tuples ({} tuples charged)",
        par.len(),
        wide.tuples_materialized()
    );
    assert_eq!(full, par);
    assert_eq!(wide.tuples_materialized(), roomy.tuples_materialized());

    // 4. A tuple budget smaller than the answer: structured failure, not a
    //    truncated relation.
    let tight = ExecutionContext::new().with_tuple_budget(100);
    match naive::evaluate_governed(&q, &db, &tight) {
        Err(e @ EngineError::ResourceExhausted { .. }) => {
            println!("tight budget:  {e}");
        }
        other => panic!("expected exhaustion, got {other:?}"),
    }

    // 5. An already-expired deadline.
    let expired = ExecutionContext::new().with_deadline(Duration::ZERO);
    let err = naive::evaluate_governed(&q, &db, &expired).unwrap_err();
    println!("zero deadline: {err}");

    // 6. Cooperative cancellation (here: cancelled up front; in real use,
    //    another thread flips the token mid-evaluation).
    let token = CancellationToken::new();
    token.cancel();
    let cancelled = ExecutionContext::new().with_cancellation(token);
    let err = naive::evaluate_governed(&q, &db, &cancelled).unwrap_err();
    println!("cancelled:     {err}");

    // 7. The planner's graceful degradation: a cyclic (W[1]-hard) query is
    //    Unsupported by the structure-exploiting engines; the fallback chain
    //    records each attempt and lands on an engine that can answer it.
    let mut tri = Database::new();
    tri.add_table("R", ["a", "b"], [tuple![1, 2], tuple![2, 3], tuple![3, 1]])
        .unwrap();
    let cyclic = parse_cq("G :- R(x, y), R(y, z), R(z, x).").unwrap();
    let ctx = ExecutionContext::new().with_tuple_budget(10_000);
    let out = evaluate_with_fallback(&cyclic, &tri, &ctx).unwrap();
    println!("fallback trail for a cyclic query:");
    for a in &out.attempts {
        match &a.error {
            Some(e) => println!("  {:>13}: gave up ({e})", a.engine),
            None => println!("  {:>13}: ok — {} tuple(s)", a.engine, out.result.len()),
        }
    }
}
