//! Reusable semi-naive Δ-rule machinery.
//!
//! Generalized out of [`crate::datalog_eval`]'s semi-naive fixpoint so that
//! incremental view maintenance (the `pq-ivm` crate) can drive the *same*
//! delta propagation from an arbitrary seed — a freshly inserted batch of
//! EDB rows — instead of only from round 0 of a fixpoint. The invariant both
//! callers rely on: given a working database closed under the program's
//! rules *except* for the seed tuples (which are already present in `work`),
//! [`propagate`] re-establishes closure and reports exactly the tuples it
//! added.
//!
//! Rule application is monotone, so propagation from a seed `S` over state
//! `W ⊇ S` derives precisely `lfp(W) \ W` — the new tuples a subscriber
//! must be told about.

use std::collections::{BTreeMap, BTreeSet};

use pq_data::{Database, Relation, Tuple};
use pq_query::{Atom, ConjunctiveQuery, DatalogProgram, Rule};

use crate::datalog_eval::FixpointStats;
use crate::error::Result;
use crate::governor::ExecutionContext;
use crate::naive;

/// Engine name reported in resource-exhaustion errors.
const ENGINE: &str = "datalog";

/// The reserved scaffolding name for the delta of `rel`.
pub fn delta_relation_name(rel: &str) -> String {
    format!("Δ{rel}")
}

/// View a rule as the conjunctive query its body computes.
pub fn rule_to_cq(rule: &Rule) -> ConjunctiveQuery {
    ConjunctiveQuery::new(
        rule.head.relation.clone(),
        rule.head.terms.iter().cloned(),
        rule.body.iter().cloned(),
    )
}

/// The rule's CQ with body atom `i` redirected at that relation's delta —
/// the Δ-rule of semi-naive evaluation.
pub fn delta_rule_cq(rule: &Rule, i: usize) -> ConjunctiveQuery {
    let batom = &rule.body[i];
    let mut body = rule.body.clone();
    body[i] = Atom::new(
        delta_relation_name(&batom.relation),
        batom.terms.iter().cloned(),
    );
    ConjunctiveQuery::new(
        rule.head.relation.clone(),
        rule.head.terms.iter().cloned(),
        body,
    )
}

/// An empty relation with positional attributes `c0..cN` — the header
/// convention for every IDB (and Δ scaffolding) relation.
pub fn positional_relation(arity: usize) -> Relation {
    Relation::new((0..arity).map(|i| format!("c{i}"))).expect("positional attrs distinct")
}

/// Head arities of the program's IDB relations.
pub fn idb_arities(p: &DatalogProgram) -> BTreeMap<String, usize> {
    let mut m = BTreeMap::new();
    for r in &p.rules {
        m.insert(r.head.relation.clone(), r.head.arity());
    }
    m
}

/// One rule evaluation of a fixpoint round: rule `.0`, with body atom `.1`
/// redirected at its relation's delta (`None`: the whole rule).
pub(crate) type RuleJob = (usize, Option<usize>);

/// Evaluate one round of rule jobs against `work` *as of the start of the
/// round*, one pool task per job, and insert the derived head tuples in job
/// order. Returns the newly inserted tuples per head relation. The result
/// does not depend on the pool degree; a degree-1 pool runs the jobs in
/// order on the caller.
pub(crate) fn run_round(
    p: &DatalogProgram,
    work: &mut Database,
    jobs: &[RuleJob],
    stats: &mut FixpointStats,
    ctx: &ExecutionContext,
) -> Result<BTreeMap<String, Vec<Tuple>>> {
    let snapshot: &Database = work;
    let derived: Vec<Relation> = ctx.pool().try_run(jobs, |_, &(ri, delta_atom)| {
        ctx.tick(ENGINE)?;
        let rule = &p.rules[ri];
        let cq = match delta_atom {
            None => rule_to_cq(rule),
            Some(i) => delta_rule_cq(rule, i),
        };
        naive::evaluate_governed(&cq, snapshot, ctx)
    })?;
    stats.rule_evaluations += jobs.len();
    let mut fresh: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
    for (&(ri, _), d) in jobs.iter().zip(derived) {
        stats.rule_eval_counts[ri] += 1;
        let head = &p.rules[ri].head.relation;
        let target = work.relation_mut(head)?;
        for t in d.iter() {
            if target.insert(t.clone())? {
                ctx.charge_tuples(ENGINE, 1)?;
                fresh.entry(head.clone()).or_default().push(t.clone());
            }
        }
    }
    Ok(fresh)
}

/// Propagate a delta to fixpoint by semi-naive Δ-rule evaluation.
///
/// `seed` maps relation names (EDB *or* IDB — an inserted batch of base
/// rows and a freshly derived round both work) to tuples that are already
/// present in `work`. Each round registers the current delta under reserved
/// `Δname` relations, evaluates every rule once per body atom with a
/// nonempty delta (that atom redirected at the delta) against the
/// round-start state, and inserts the new head tuples — which become the
/// next delta. Scaffolding relations are removed before returning.
///
/// Returns every tuple inserted into `work`, per IDB relation (the seed
/// itself is not included). `stats.rule_eval_counts` must have one slot per
/// rule of `p`.
///
/// # Errors
/// Propagates evaluation errors, including
/// [`crate::EngineError::ResourceExhausted`] from `ctx` — in which case
/// `work` is left partially advanced (callers either discard it or fall
/// back to recomputation).
pub fn propagate(
    p: &DatalogProgram,
    work: &mut Database,
    seed: BTreeMap<String, Vec<Tuple>>,
    stats: &mut FixpointStats,
    ctx: &ExecutionContext,
) -> Result<BTreeMap<String, Vec<Tuple>>> {
    let mut delta = seed;
    let mut grown: BTreeMap<String, Vec<Tuple>> = BTreeMap::new();
    let mut scaffolding: BTreeSet<String> = BTreeSet::new();

    while delta.values().any(|v| !v.is_empty()) {
        stats.rounds += 1;

        // Register the delta relations under reserved names.
        for (name, tuples) in &delta {
            let mut rel = positional_relation(work.relation(name)?.arity());
            for t in tuples {
                rel.insert(t.clone())?;
            }
            let dname = delta_relation_name(name);
            scaffolding.insert(dname.clone());
            work.set_relation(dname, rel);
        }

        let mut jobs: Vec<RuleJob> = Vec::new();
        for (ri, rule) in p.rules.iter().enumerate() {
            for (i, batom) in rule.body.iter().enumerate() {
                if delta.get(&batom.relation).is_some_and(|t| !t.is_empty()) {
                    jobs.push((ri, Some(i)));
                }
            }
        }
        delta = run_round(p, work, &jobs, stats, ctx)?;
        for (name, tuples) in &delta {
            grown
                .entry(name.clone())
                .or_default()
                .extend(tuples.iter().cloned());
        }
    }

    for name in scaffolding {
        work.remove_relation(&name);
    }
    Ok(grown)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datalog_eval::{evaluate, Strategy};
    use pq_data::tuple;
    use pq_query::parse_datalog;

    fn tc_program() -> DatalogProgram {
        parse_datalog(
            "T(x, y) :- E(x, y).\n\
             T(x, z) :- E(x, y), T(y, z).\n\
             ?- T",
        )
        .unwrap()
    }

    /// Materialize the fixpoint, insert one base edge, propagate from the
    /// seed — the result must match recomputation from scratch, and the
    /// reported growth must be exactly the difference.
    #[test]
    fn seeded_propagation_matches_recomputation() {
        let p = tc_program();
        let mut db = Database::new();
        db.add_table("E", ["a", "b"], (0..4i64).map(|i| tuple![i, i + 1]))
            .unwrap();

        // Build the closed working database by hand.
        let mut work = db.clone();
        work.set_relation("T", positional_relation(2));
        let full = evaluate(&p, &db, Strategy::SemiNaive).unwrap();
        for t in full.iter() {
            work.relation_mut("T").unwrap().insert(t.clone()).unwrap();
        }
        let before = work.relation("T").unwrap().len();

        // Insert edge 4→5 and propagate from it.
        let added = work.insert_rows("E", [tuple![4, 5]]).unwrap();
        let mut stats = FixpointStats {
            rule_eval_counts: vec![0; p.rules.len()],
            ..FixpointStats::default()
        };
        let grown = propagate(
            &p,
            &mut work,
            BTreeMap::from([("E".to_string(), added)]),
            &mut stats,
            &ExecutionContext::unlimited(),
        )
        .unwrap();

        let mut db2 = db.clone();
        db2.insert_rows("E", [tuple![4, 5]]).unwrap();
        let expected = evaluate(&p, &db2, Strategy::SemiNaive).unwrap();
        let maintained = work.relation("T").unwrap();
        assert_eq!(maintained.canonical_rows(), expected.canonical_rows());
        assert_eq!(grown["T"].len(), maintained.len() - before);
        // Scaffolding is cleaned up.
        assert!(!work.has_relation("ΔE"));
        assert!(!work.has_relation("ΔT"));
    }

    #[test]
    fn empty_seed_is_a_no_op() {
        let p = tc_program();
        let mut work = Database::new();
        work.add_table("E", ["a", "b"], [tuple![0, 1]]).unwrap();
        work.set_relation("T", positional_relation(2));
        let mut stats = FixpointStats {
            rule_eval_counts: vec![0; p.rules.len()],
            ..FixpointStats::default()
        };
        let grown = propagate(
            &p,
            &mut work,
            BTreeMap::new(),
            &mut stats,
            &ExecutionContext::unlimited(),
        )
        .unwrap();
        assert!(grown.is_empty());
        assert_eq!(stats.rounds, 0);
    }
}
