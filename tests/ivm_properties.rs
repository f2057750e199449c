//! Property tests for incremental view maintenance (`pq-ivm` wired through
//! `pq-service`): under random interleaved insert/delete sequences, every
//! maintained view answer must be byte-identical to a from-scratch
//! recompute after **every** mutation — for counting-maintained CQ views,
//! nonrecursive programs, and DRed-maintained recursive programs alike —
//! and the pushed delta stream must reconstruct the same answer on the
//! client side. Both the serial service and one with intra-query
//! parallelism (4 exec threads) are held to the same oracle.

use std::collections::BTreeSet;

use proptest::prelude::*;

use pq_data::{tuple, Database, Tuple};
use pq_engine::datalog_eval::{self, Strategy as EvalStrategy};
use pq_engine::naive;
use pq_query::{parse_cq, parse_datalog};
use pq_service::{QueryService, ServiceConfig, Subscription};

/// The view family under test: a join CQ (counting), a CQ with `≠` and `<`
/// filters (counting with post-filters), a nonrecursive two-stratum program
/// (counting across strata), and recursive transitive closure (DRed).
const VIEWS: &[&str] = &[
    "V(x, z) :- R(x, y), S(y, z).",
    "V(x, z) :- R(x, y), S(y, z), x != z, z < 6.",
    "A(x, z) :- R(x, y), S(y, z).\nG(x) :- A(x, z), S(z, w).\n?- G",
    "T(x, y) :- E(x, y).\nT(x, z) :- E(x, y), T(y, z).\n?- T",
];

/// One random mutation: which relation, insert-vs-delete, and the rows.
#[derive(Debug, Clone)]
struct Mutation {
    relation: &'static str,
    delete: bool,
    rows: Vec<(i64, i64)>,
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    (
        0..3usize,
        any::<bool>(),
        // A small value domain so deletions frequently hit existing rows
        // and insertions frequently create extra derivations.
        prop::collection::vec((0..6i64, 0..6i64), 1..4),
    )
        .prop_map(|(rel, delete, rows)| Mutation {
            relation: ["R", "S", "E"][rel],
            delete,
            rows,
        })
}

fn arb_rows() -> impl Strategy<Value = Vec<(i64, i64)>> {
    prop::collection::vec((0..6i64, 0..6i64), 0..10)
}

fn build_db(r: &[(i64, i64)], s: &[(i64, i64)], e: &[(i64, i64)]) -> Database {
    let mut db = Database::new();
    db.add_table("R", ["a", "b"], r.iter().map(|&(a, b)| tuple![a, b]))
        .unwrap();
    db.add_table("S", ["b", "c"], s.iter().map(|&(b, c)| tuple![b, c]))
        .unwrap();
    db.add_table("E", ["x", "y"], e.iter().map(|&(x, y)| tuple![x, y]))
        .unwrap();
    db
}

/// From-scratch recompute of `src` (CQ or Datalog program) against `db`.
fn recompute(src: &str, db: &Database) -> (Vec<String>, Vec<Tuple>) {
    let rel = if src.contains("?-") {
        let p = parse_datalog(src).unwrap();
        datalog_eval::evaluate(&p, db, EvalStrategy::SemiNaive).unwrap()
    } else {
        let q = parse_cq(src).unwrap();
        naive::evaluate(&q, db).unwrap()
    };
    (rel.attrs().to_vec(), rel.canonical_rows())
}

/// A client-side mirror reconstructed from the initial answer plus the
/// pushed deltas — checks the *stream*, not just the registry's state.
struct Mirror {
    sub: Subscription,
    view: &'static str,
    rows: BTreeSet<Tuple>,
}

impl Mirror {
    fn drain_and_check(&mut self, svc: &QueryService) {
        while let Ok(update) = self.sub.updates.try_recv() {
            assert!(!update.dropped, "no view should drop in this workload");
            for t in update.added {
                assert!(self.rows.insert(t), "duplicate +row pushed");
            }
            for t in &update.removed {
                assert!(self.rows.remove(t), "-row for a row the mirror lacks");
            }
        }
        let snap = svc.snapshot("d").unwrap();
        let (attrs, fresh) = recompute(self.view, &snap.db);
        let maintained = svc.answer_rows("d", self.sub.id).unwrap();
        assert_eq!(maintained.attrs(), attrs, "{}: attrs drifted", self.view);
        assert_eq!(
            maintained.canonical_rows(),
            fresh,
            "{}: maintained answer != recompute",
            self.view
        );
        let mirrored: Vec<Tuple> = self.rows.iter().cloned().collect();
        assert_eq!(
            mirrored, fresh,
            "{}: delta stream reconstructed a different answer",
            self.view
        );
    }
}

fn run_workload(
    intra_query_threads: usize,
    r: &[(i64, i64)],
    s: &[(i64, i64)],
    e: &[(i64, i64)],
    mutations: &[Mutation],
) {
    let svc = QueryService::new(ServiceConfig {
        workers: 2,
        intra_query_threads,
        ..ServiceConfig::default()
    });
    svc.load_database("d", build_db(r, s, e)).unwrap();
    let mut mirrors: Vec<Mirror> = VIEWS
        .iter()
        .map(|view| {
            let sub = svc.subscribe("d", view).unwrap();
            let rows = sub.rows.canonical_rows().into_iter().collect();
            Mirror { sub, view, rows }
        })
        .collect();
    for m in mutations {
        let rows: Vec<Tuple> = m.rows.iter().map(|&(a, b)| tuple![a, b]).collect();
        let summary = if m.delete {
            svc.delete_rows("d", m.relation, rows).unwrap()
        } else {
            svc.insert_rows("d", m.relation, rows).unwrap()
        };
        assert_eq!(summary.fallbacks, 0, "no budget is set, nothing may trip");
        for mirror in &mut mirrors {
            mirror.drain_and_check(&svc);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Serial service: maintained answers and delta streams track the
    /// from-scratch oracle through every mutation.
    #[test]
    fn maintained_views_match_recompute_serially(
        r in arb_rows(),
        s in arb_rows(),
        e in arb_rows(),
        mutations in prop::collection::vec(arb_mutation(), 1..8),
    ) {
        run_workload(1, &r, &s, &e, &mutations);
    }

    /// Same oracle with intra-query parallelism: maintenance passes and
    /// their fallback recomputes must be invisible to the caller at any
    /// exec-pool width.
    #[test]
    fn maintained_views_match_recompute_on_a_four_thread_pool(
        r in arb_rows(),
        s in arb_rows(),
        e in arb_rows(),
        mutations in prop::collection::vec(arb_mutation(), 1..6),
    ) {
        run_workload(4, &r, &s, &e, &mutations);
    }
}

/// Deterministic regression companion to the random suites: a mixed batch
/// whose insertions and deletions partially cancel, applied through the
/// service in both orders.
#[test]
fn mixed_batches_net_out() {
    let svc = QueryService::with_defaults();
    svc.load_database("d", build_db(&[(1, 2)], &[(2, 3)], &[]))
        .unwrap();
    let sub = svc.subscribe("d", VIEWS[0]).unwrap();
    assert_eq!(sub.rows.canonical_rows(), vec![tuple![1, 3]]);
    svc.insert_rows("d", "R", vec![tuple![4, 2], tuple![1, 2]])
        .unwrap();
    svc.delete_rows("d", "R", vec![tuple![4, 2], tuple![9, 9]])
        .unwrap();
    let snap = svc.snapshot("d").unwrap();
    let (_, fresh) = recompute(VIEWS[0], &snap.db);
    assert_eq!(
        svc.answer_rows("d", sub.id).unwrap().canonical_rows(),
        fresh
    );
    assert_eq!(fresh, vec![tuple![1, 3]]);
}
