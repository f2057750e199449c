//! The traced replay: after a traced request's reply arrives, call the
//! public function of each layer the service ran for it, on the same
//! snapshot, and record a span around each call.
//!
//! Span tree per request (self time in parentheses):
//!
//! ```text
//! request                 client RTT            (wire overhead)
//! └─ service.query        server `micros=`      (service glue)
//!    ├─ query.parse       parse_cq + validate
//!    ├─ query.canonical   canonical_form
//!    ├─ core.plan         pq_core::plan         (plan without analyze)
//!    │  └─ analyze        pq_analyze::analyze
//!    └─ core.execute.<engine> | core.count
//! replay                  bookkeeping of the replay itself
//! ├─ protocol.parse_request
//! └─ protocol.render
//! ```
//!
//! Only the layers the service ran are children of `service.query`: the
//! plan for a cold reply, the execution for a cold or plan-cache reply.
//! When the replay needs a plan the service took from its cache, that
//! `core.plan` span hangs under `replay` instead. Self time counts child
//! durations, so the children need not lie inside their parent's interval.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pq_core::{plan, plan_count, view_scan, EngineChoice, PlannerOptions};
use pq_data::Relation;
use pq_engine::governor::ExecutionContext;
use pq_query::{canonical_form, parse_cq, ConjunctiveQuery};
use pq_service::protocol::{render_query_response, Request};
use pq_service::{parse_request, CacheOutcome, QueryResponse, QueryService};

use crate::spec::DB;
use crate::trace::Trace;
use crate::wire::{self, Cache, QueryHeader};

/// What the replay needs besides the request.
pub struct ReplayCtx {
    /// The service under test (for snapshots and view answers).
    pub svc: Arc<QueryService>,
    /// The planner options the service plans with.
    pub planner: PlannerOptions,
    /// The registered view, as the service names it.
    pub view_shapes: Vec<(String, ConjunctiveQuery)>,
    /// The subscription whose view answers view-scan replies.
    pub view_sub: Option<u64>,
}

/// Engine counters summed over replayed executions.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayTotals {
    /// `ExecutionContext::tuples_materialized` over enumerating executions.
    pub tuples_materialized: u64,
    /// Answer rows of those executions.
    pub answer_rows: u64,
    /// `ExecutionContext::ticks` over those executions.
    pub ticks: u64,
    /// Enumerating executions replayed.
    pub executions: u64,
    /// Replayed answers that differ from the wire reply.
    pub mismatches: u64,
}

impl ReplayTotals {
    /// Add another log's totals.
    pub fn add(&mut self, o: &ReplayTotals) {
        self.tuples_materialized += o.tuples_materialized;
        self.answer_rows += o.answer_rows;
        self.ticks += o.ticks;
        self.executions += o.executions;
        self.mismatches += o.mismatches;
    }
}

fn engine_span(choice: &EngineChoice) -> &'static str {
    match choice {
        EngineChoice::Yannakakis => "core.execute.yannakakis",
        EngineChoice::Hypertree(_) => "core.execute.hypertree",
        EngineChoice::ColorCoding(_) => "core.execute.colorcoding",
        EngineChoice::Naive => "core.execute.naive",
        EngineChoice::ViewScan { .. } => "core.execute.view-scan",
        _ => "core.execute.other",
    }
}

/// Replay one `QUERY` whose reply (`header`, `rows`) arrived at `done`
/// after being sent at `sent`.
///
/// # Errors
/// A request or reply the replay cannot interpret.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)]
pub fn replay_query(
    ctx: &ReplayCtx,
    trace: &mut Trace,
    totals: &mut ReplayTotals,
    id: u64,
    line: &str,
    header: &QueryHeader,
    rows: &[String],
    sent: Instant,
    done: Instant,
) -> Result<(), String> {
    let first = trace.spans.len();
    let request = trace.record("request", sent, done, None, id);
    let served_from = done
        .checked_sub(Duration::from_micros(header.micros))
        .unwrap_or(sent)
        .max(sent);
    let service = trace.record("service.query", served_from, done, Some(request), id);
    let root = trace.open("replay", None, id);

    let parsed = trace.time("protocol.parse_request", Some(root), id, || {
        parse_request(line)
    });
    let Ok(Request::Query { src, count, .. }) = parsed else {
        return Err("not a QUERY".to_string());
    };
    let q = trace
        .time("query.parse", Some(service), id, || {
            let q = parse_cq(&src)?;
            q.validate()?;
            Ok::<_, pq_query::QueryError>(q)
        })
        .map_err(|e| e.to_string())?;
    trace.time("query.canonical", Some(service), id, || {
        std::hint::black_box(canonical_form(&q));
    });

    let mut label: &'static str = "replayed";
    if header.cache != Cache::Result {
        let snap = ctx.svc.snapshot(DB).map_err(|e| e.to_string())?;
        let plan_parent = if header.cache == Cache::Cold {
            service
        } else {
            root
        };
        // `plan` runs `analyze` itself; an untimed first call warms the
        // caches so the timed `analyze` and `plan` calls start alike and
        // the plan's self time is its own work.
        std::hint::black_box(pq_analyze::analyze(&q, &ctx.planner.analysis));
        let a0 = Instant::now();
        std::hint::black_box(pq_analyze::analyze(&q, &ctx.planner.analysis));
        let a1 = Instant::now();
        let ec = ExecutionContext::new();
        if count.is_some() {
            let cp = plan_count(&q, &ctx.planner);
            let p1 = Instant::now();
            let plan_span = trace.record("core.plan", a1, p1, Some(plan_parent), id);
            trace.record("analyze", a0, a1, Some(plan_span), id);
            label = cp.engine;
            let c = trace
                .time("core.count", Some(service), id, || {
                    cp.execute_governed(&q, &snap.db, &ec)
                })
                .map_err(|e| e.to_string())?;
            if rows.first().map(String::as_str) != Some(c.distinct.to_string().as_str()) {
                totals.mismatches += 1;
            }
        } else {
            let p = plan(&q, &ctx.planner);
            let p1 = Instant::now();
            let plan_span = trace.record("core.plan", a1, p1, Some(plan_parent), id);
            trace.record("analyze", a0, a1, Some(plan_span), id);
            label = p.engine;
            let answer = if header.engine == "view-scan" {
                let eff = p.analysis.effective(&q);
                let limit = ctx.planner.analysis.containment_atom_limit;
                trace.time("core.execute.view-scan", Some(service), id, || {
                    let m = pq_analyze::match_against_views(eff, &ctx.view_shapes, limit)
                        .ok_or("no view matches a view-scan reply")?;
                    let view = ctx
                        .view_sub
                        .and_then(|sub| ctx.svc.answer_rows(DB, sub))
                        .ok_or("view answer unavailable")?;
                    view_scan(eff, &view, &m.projection).map_err(|e| e.to_string())
                })?
            } else {
                let out = trace
                    .time(engine_span(&p.choice), Some(service), id, || {
                        p.execute_governed(&q, &snap.db, &ec)
                    })
                    .map_err(|e| e.to_string())?;
                totals.tuples_materialized += ec.tuples_materialized();
                totals.ticks += ec.ticks();
                totals.executions += 1;
                totals.answer_rows += out.len() as u64;
                out
            };
            let replayed: Vec<String> = answer
                .canonical_rows()
                .iter()
                .map(wire::render_row)
                .collect();
            if wire::rows_hash(&replayed) != wire::rows_hash(rows) {
                totals.mismatches += 1;
            }
        }
    }

    // Render the reply again from the rows that came over the wire.
    let relation = Relation::with_tuples(header.attrs.iter().cloned(), wire::parse_rows(rows))
        .map_err(|e| e.to_string())?;
    let response = QueryResponse {
        rows: Arc::new(relation),
        engine: label,
        cache: match header.cache {
            Cache::Cold => CacheOutcome::Miss,
            Cache::Plan => CacheOutcome::PlanHit,
            Cache::Result => CacheOutcome::ResultHit,
        },
        generation: 1,
        epoch: header.epoch,
        latency: Duration::from_micros(header.micros),
    };
    trace.time("protocol.render", Some(root), id, || {
        std::hint::black_box(render_query_response(&response));
    });
    trace.close(root);
    trace.end_request(first);
    Ok(())
}
