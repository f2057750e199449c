//! Compiling first-order queries to relational algebra.
//!
//! Section 3 equates languages with algebra fragments: conjunctive queries
//! are "selection, projection, join, renaming", positive queries add union,
//! and "first-order queries add negation (set difference in algebra)". This
//! module makes that equation executable: a first-order formula is compiled
//! to a plan over σ/π/⋈/∪/− with the *active-domain* semantics (negation
//! and universal quantification complement against the active domain), and
//! the result provably agrees with the recursive evaluator
//! ([`crate::fo_eval`]) — which the test suite checks.
//!
//! The compiler works on arbitrary formulas, not just safe-range ones:
//! every subformula is evaluated as a relation over its free variables,
//! with quantifier-free negation handled by complementing against the
//! product of active-domain columns. That costs `O(n^{free vars})` space in
//! the worst case — the `n^v` shape of Vardi's bounded-variable analysis
//! \[17\], visible here as plan width.

use pq_data::{Database, Relation, Tuple, Value};
use pq_query::{FoFormula, FoQuery, Term};

use crate::binding::head_attrs;
use crate::error::{EngineError, Result};
use crate::fo_eval::evaluation_domain;
use crate::governor::ExecutionContext;

/// Engine name reported in resource-exhaustion errors.
const ENGINE: &str = "algebra";

/// A relational algebra plan (exposed so callers can inspect / display it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    /// Scan a stored relation, with per-position terms to match (constants
    /// select, repeated variables select equality, variables project).
    AtomScan {
        /// The relation name.
        relation: String,
        /// The atom's argument terms.
        terms: Vec<Term>,
    },
    /// Natural join of subplans (conjunction).
    Join(Vec<Plan>),
    /// Union of subplans padded to a common header (disjunction).
    Union(Vec<Plan>),
    /// Complement of the subplan against the active-domain product over
    /// `columns` (negation).
    Complement {
        /// The output columns.
        columns: Vec<String>,
        /// The plan being complemented.
        inner: Box<Plan>,
    },
    /// Project away one column (existential quantification).
    ProjectOut {
        /// The variable being quantified away.
        var: String,
        /// The subplan.
        inner: Box<Plan>,
    },
    /// Division-style universal quantification: tuples whose extension by
    /// *every* domain value is in the subplan.
    ForAll {
        /// The universally quantified variable.
        var: String,
        /// The subplan.
        inner: Box<Plan>,
    },
    /// The full active-domain product over the given columns (used for
    /// formulas with free variables that the subformula does not constrain).
    DomainProduct(Vec<String>),
}

impl Plan {
    /// The output columns of the plan.
    pub fn columns(&self) -> Vec<String> {
        match self {
            Plan::AtomScan { terms, .. } => {
                let mut cols = Vec::new();
                for t in terms {
                    if let Term::Var(v) = t {
                        if !cols.contains(v) {
                            cols.push(v.clone());
                        }
                    }
                }
                cols
            }
            Plan::Join(ps) => {
                let mut cols = Vec::new();
                for p in ps {
                    for c in p.columns() {
                        if !cols.contains(&c) {
                            cols.push(c);
                        }
                    }
                }
                cols
            }
            Plan::Union(ps) => ps.first().map(Plan::columns).unwrap_or_default(),
            Plan::Complement { columns, .. } => columns.clone(),
            Plan::ProjectOut { var, inner } => {
                inner.columns().into_iter().filter(|c| c != var).collect()
            }
            Plan::ForAll { var, inner } => {
                inner.columns().into_iter().filter(|c| c != var).collect()
            }
            Plan::DomainProduct(cols) => cols.clone(),
        }
    }

    /// Count of operator nodes (for plan statistics).
    pub fn num_operators(&self) -> usize {
        match self {
            Plan::AtomScan { .. } | Plan::DomainProduct(_) => 1,
            Plan::Join(ps) | Plan::Union(ps) => {
                1 + ps.iter().map(Plan::num_operators).sum::<usize>()
            }
            Plan::Complement { inner, .. }
            | Plan::ProjectOut { inner, .. }
            | Plan::ForAll { inner, .. } => 1 + inner.num_operators(),
        }
    }
}

impl std::fmt::Display for Plan {
    /// An EXPLAIN-style indented tree.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn go(p: &Plan, depth: usize, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            let pad = "  ".repeat(depth);
            match p {
                Plan::AtomScan { relation, terms } => {
                    let args: Vec<String> = terms.iter().map(|t| t.to_string()).collect();
                    writeln!(f, "{pad}scan {relation}({})", args.join(", "))
                }
                Plan::Join(ps) => {
                    writeln!(f, "{pad}join")?;
                    ps.iter().try_for_each(|c| go(c, depth + 1, f))
                }
                Plan::Union(ps) => {
                    writeln!(f, "{pad}union")?;
                    ps.iter().try_for_each(|c| go(c, depth + 1, f))
                }
                Plan::Complement { columns, inner } => {
                    writeln!(f, "{pad}complement over [{}]", columns.join(", "))?;
                    go(inner, depth + 1, f)
                }
                Plan::ProjectOut { var, inner } => {
                    writeln!(f, "{pad}project-out {var}   (∃{var})")?;
                    go(inner, depth + 1, f)
                }
                Plan::ForAll { var, inner } => {
                    writeln!(f, "{pad}divide-by {var}    (∀{var})")?;
                    go(inner, depth + 1, f)
                }
                Plan::DomainProduct(cols) => {
                    writeln!(f, "{pad}domain × [{}]", cols.join(", "))
                }
            }
        }
        go(self, 0, f)
    }
}

/// Compile a formula into a plan whose output columns are exactly the
/// formula's free variables (order unspecified; empty for sentences).
pub fn compile(f: &FoFormula) -> Plan {
    match f {
        FoFormula::Atom(a) => Plan::AtomScan {
            relation: a.relation.clone(),
            terms: a.terms.clone(),
        },
        FoFormula::And(fs) => Plan::Join(fs.iter().map(compile).collect()),
        FoFormula::Or(fs) => {
            // Pad each disjunct to the union of free variables.
            let mut cols: Vec<String> = Vec::new();
            for g in fs {
                for v in g.free_variables() {
                    if !cols.contains(&v) {
                        cols.push(v);
                    }
                }
            }
            Plan::Union(fs.iter().map(|g| pad_to(compile(g), &cols)).collect())
        }
        FoFormula::Not(g) => {
            let cols: Vec<String> = g.free_variables().into_iter().collect();
            Plan::Complement {
                columns: cols,
                inner: Box::new(compile(g)),
            }
        }
        FoFormula::Exists(v, g) => {
            let inner = ensure_column(compile(g), v);
            Plan::ProjectOut {
                var: v.clone(),
                inner: Box::new(inner),
            }
        }
        FoFormula::Forall(v, g) => {
            let inner = ensure_column(compile(g), v);
            Plan::ForAll {
                var: v.clone(),
                inner: Box::new(inner),
            }
        }
    }
}

/// Pad a plan with domain columns so its header covers `cols`.
fn pad_to(p: Plan, cols: &[String]) -> Plan {
    let have = p.columns();
    let missing: Vec<String> = cols.iter().filter(|c| !have.contains(c)).cloned().collect();
    if missing.is_empty() {
        p
    } else {
        Plan::Join(vec![p, Plan::DomainProduct(missing)])
    }
}

/// Guarantee that `v` appears as a column (a vacuous quantifier ranges over
/// the whole domain).
fn ensure_column(p: Plan, v: &str) -> Plan {
    if p.columns().iter().any(|c| c == v) {
        p
    } else {
        Plan::Join(vec![p, Plan::DomainProduct(vec![v.to_string()])])
    }
}

/// Execute a plan over a database and an explicit active domain.
pub fn execute(plan: &Plan, db: &Database, dom: &[Value]) -> Result<Relation> {
    execute_governed(plan, db, dom, &ExecutionContext::unlimited())
}

/// [`execute`] under the resource limits of `ctx`: each operator node ticks
/// the clock, counts against the recursion-depth limit, and charges its
/// materialized output to the tuple budget.
pub fn execute_governed(
    plan: &Plan,
    db: &Database,
    dom: &[Value],
    ctx: &ExecutionContext,
) -> Result<Relation> {
    run(plan, db, dom, ctx, 0)
}

/// One operator node of [`execute_governed`], `depth` nodes below the root.
fn run(
    plan: &Plan,
    db: &Database,
    dom: &[Value],
    ctx: &ExecutionContext,
    depth: usize,
) -> Result<Relation> {
    let depth = ctx.descend(depth, ENGINE)?;
    ctx.tick(ENGINE)?;
    match plan {
        Plan::AtomScan { relation, terms } => {
            let atom = pq_query::Atom::new(relation.clone(), terms.iter().cloned());
            crate::yannakakis::atom_relation_governed(&atom, db, ctx)
        }
        Plan::Join(ps) => {
            let mut parts = ps.iter().map(|p| run(p, db, dom, ctx, depth));
            let first = parts.next().ok_or_else(|| {
                EngineError::Unsupported("empty conjunction has no free columns".into())
            })??;
            parts.try_fold(first, |acc, r| {
                let joined = acc.natural_join(&r?)?;
                ctx.charge_tuples(ENGINE, joined.len() as u64)?;
                Ok(joined)
            })
        }
        Plan::Union(ps) => {
            let mut out: Option<Relation> = None;
            for p in ps {
                let r = run(p, db, dom, ctx, depth)?;
                out = Some(match out {
                    None => r,
                    Some(acc) => {
                        // Align column order before union.
                        let cols: Vec<&str> = acc.attrs().iter().map(String::as_str).collect();
                        let unioned = acc.union(&r.project(&cols)?)?;
                        ctx.charge_tuples(ENGINE, unioned.len() as u64)?;
                        unioned
                    }
                });
            }
            out.ok_or_else(|| EngineError::Unsupported("empty disjunction".into()))
        }
        Plan::Complement { columns, inner } => {
            let r = run(inner, db, dom, ctx, depth)?;
            let full = run(&Plan::DomainProduct(columns.clone()), db, dom, ctx, depth)?;
            let cols: Vec<&str> = full.attrs().iter().map(String::as_str).collect();
            let diff = full.difference(&r.project(&cols)?)?;
            ctx.charge_tuples(ENGINE, diff.len() as u64)?;
            Ok(diff)
        }
        Plan::ProjectOut { var, inner } => {
            let r = run(inner, db, dom, ctx, depth)?;
            let cols: Vec<&str> = r
                .attrs()
                .iter()
                .filter(|a| *a != var)
                .map(String::as_str)
                .collect();
            let projected = r.project(&cols)?;
            ctx.charge_tuples(ENGINE, projected.len() as u64)?;
            Ok(projected)
        }
        Plan::ForAll { var, inner } => {
            let r = run(inner, db, dom, ctx, depth)?;
            // Division: group by the other columns; keep groups covering dom.
            let keep: Vec<&str> = r
                .attrs()
                .iter()
                .filter(|a| *a != var)
                .map(String::as_str)
                .collect();
            let var_pos = r.attr_pos_checked(var)?;
            let keep_pos: Vec<usize> = keep
                .iter()
                .map(|c| r.attr_pos(c).expect("own column"))
                .collect();
            let mut counts: std::collections::HashMap<Tuple, std::collections::BTreeSet<Value>> =
                std::collections::HashMap::new();
            for t in r.iter() {
                ctx.tick(ENGINE)?;
                counts
                    .entry(t.project(&keep_pos))
                    .or_default()
                    .insert(t[var_pos].clone());
            }
            let mut out = Relation::new(keep.iter().map(|s| s.to_string()))?;
            for (group, vals) in counts {
                if vals.len() == dom.len() {
                    out.insert(group)?;
                }
            }
            // A Boolean ∀ (no other columns): true iff the single group
            // covers the domain; with no rows at all it is true only when
            // the domain is empty.
            if keep.is_empty() && r.is_empty() && dom.is_empty() {
                out.insert(Tuple::default())?;
            }
            Ok(out)
        }
        Plan::DomainProduct(cols) => {
            let mut out = Relation::new(cols.iter().cloned())?;
            let mut stack: Vec<Vec<Value>> = vec![Vec::new()];
            for _ in cols {
                let mut next = Vec::new();
                for partial in &stack {
                    for v in dom {
                        ctx.tick(ENGINE)?;
                        let mut p = partial.clone();
                        p.push(v.clone());
                        next.push(p);
                    }
                }
                ctx.charge_tuples(ENGINE, next.len() as u64)?;
                stack = next;
            }
            for row in stack {
                out.insert(Tuple::new(row))?;
            }
            Ok(out)
        }
    }
}

/// Evaluate a first-order query by compiling to algebra and executing.
/// Agrees with [`crate::fo_eval::evaluate`] on every query (tested).
pub fn evaluate(q: &FoQuery, db: &Database) -> Result<Relation> {
    evaluate_governed(q, db, &ExecutionContext::unlimited())
}

/// [`evaluate`] under the resource limits of `ctx`.
pub fn evaluate_governed(q: &FoQuery, db: &Database, ctx: &ExecutionContext) -> Result<Relation> {
    q.validate().map_err(EngineError::Query)?;
    let dom: Vec<Value> = evaluation_domain(&q.formula, db);
    let plan = compile(&q.formula);
    let rel = execute_governed(&plan, db, &dom, ctx)?;
    // Materialize the head terms.
    let mut out = Relation::new(head_attrs(&q.head_terms))?;
    if q.head_terms.is_empty() {
        if !rel.is_empty() {
            out.insert(Tuple::default())?;
        }
        return Ok(out);
    }
    for t in rel.iter() {
        ctx.tick(ENGINE)?;
        let vals = q.head_terms.iter().map(|term| match term {
            Term::Const(c) => c.clone(),
            Term::Var(v) => {
                let pos = rel.attr_pos(v).expect("head var free in formula");
                t[pos].clone()
            }
        });
        ctx.charge_tuples(ENGINE, 1)?;
        out.insert(Tuple::new(vals))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fo_eval;
    use pq_data::tuple;
    use pq_query::parse_fo;

    fn db() -> Database {
        let mut d = Database::new();
        d.add_table("E", ["a", "b"], [tuple![1, 2], tuple![2, 3], tuple![3, 1]])
            .unwrap();
        d.add_table("L", ["a"], [tuple![1], tuple![2]]).unwrap();
        d
    }

    fn check(src: &str) {
        let q = parse_fo(src).unwrap();
        let d = db();
        let via_algebra = evaluate(&q, &d).unwrap();
        let via_recursion = fo_eval::evaluate(&q, &d).unwrap();
        assert_eq!(
            via_algebra.canonical_rows(),
            via_recursion.canonical_rows(),
            "{src}"
        );
    }

    #[test]
    fn conjunctive_fragment() {
        check("G(x, z) := exists y. (E(x, y) & E(y, z))");
        check("G(x) := E(x, 2)");
        check("G(x) := E(x, x)");
    }

    #[test]
    fn union_fragment() {
        check("G(x) := L(x) | exists y. E(y, x)");
        check("G(x, y) := E(x, y) | E(y, x)");
    }

    #[test]
    fn negation_as_difference() {
        check("G(x) := L(x) & !exists y. E(x, y)");
        check("G(x, y) := !E(x, y) & L(x) & L(y)");
        check("G(x) := !L(x) & exists y. E(x, y)");
    }

    #[test]
    fn universal_quantification_as_division() {
        // Nodes x such that every node y with E(x,y) is in L.
        check("G(x) := L(x) & forall y. (!E(x, y) | L(y))");
        // Boolean: all nodes have an out-edge (true on the 3-cycle).
        check("Q := forall x. exists y. E(x, y)");
        // Boolean false case.
        check("Q := forall x. E(x, x)");
    }

    #[test]
    fn variable_reuse_across_scopes() {
        check("Q := exists x. (E(x, 2) & exists x. E(2, x))");
        check("Q := exists y. (E(1, y) & forall x. (!E(y, x) | E(x, x) | L(x)))");
    }

    #[test]
    fn plan_statistics() {
        let q = parse_fo("G(x) := L(x) & !exists y. E(x, y)").unwrap();
        let plan = compile(&q.formula);
        assert!(plan.num_operators() >= 4);
        assert_eq!(plan.columns(), vec!["x"]);
    }

    #[test]
    fn plan_display_is_an_indented_tree() {
        let q = parse_fo("G(x) := L(x) & !exists y. E(x, y)").unwrap();
        let text = compile(&q.formula).to_string();
        assert!(text.contains("join"));
        assert!(text.contains("scan L(x)"));
        assert!(text.contains("complement over [x]"));
        assert!(text.contains("project-out y"));
    }

    #[test]
    fn theta_tower_queries_agree() {
        // A hand-built θ-style query (the R7 shape) exercising deep
        // ∃/∀/¬ nesting over a circuit-wiring relation.
        let theta_query =
            || "Q := exists x1. exists y. (C(6, y) & forall x. (!C(y, x) | C(x, x1)))";
        let mut d = Database::new();
        d.add_table(
            "C",
            ["a", "b"],
            [
                tuple![6, 4],
                tuple![6, 5],
                tuple![4, 0],
                tuple![4, 1],
                tuple![5, 2],
                tuple![0, 0],
                tuple![1, 1],
                tuple![2, 2],
            ],
        )
        .unwrap();
        let q = parse_fo(theta_query()).unwrap();
        let via_algebra = evaluate(&q, &d).unwrap();
        let via_recursion = fo_eval::evaluate(&q, &d).unwrap();
        assert_eq!(via_algebra.canonical_rows(), via_recursion.canonical_rows());
    }
}
