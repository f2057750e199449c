//! First-order query evaluation over the active domain.
//!
//! The textbook recursive evaluator: quantifiers range over the active
//! domain of the database plus the constants of the query. Its running time
//! is `O(q · n^v)` — polynomial for fixed `v`, with `v` in the exponent,
//! matching Vardi's bounded-variable analysis \[17\] that motivates the
//! paper's parameter-`v` column. Theorem 1(3) says this exponent is likely
//! unavoidable (W\[P\]-hardness).

use std::collections::BTreeSet;

use pq_data::{Database, Relation, Tuple, Value};
use pq_query::{FoFormula, FoQuery, Term};

use crate::binding::{head_attrs, Binding};
use crate::error::{EngineError, Result};
use crate::governor::ExecutionContext;

/// Engine name reported in resource-exhaustion errors.
const ENGINE: &str = "fo";

/// The evaluation domain: active domain of `db` plus the constants of `f`.
pub fn evaluation_domain(f: &FoFormula, db: &Database) -> Vec<Value> {
    let mut dom: BTreeSet<Value> = db.active_domain();
    collect_constants(f, &mut dom);
    dom.into_iter().collect()
}

fn collect_constants(f: &FoFormula, out: &mut BTreeSet<Value>) {
    match f {
        FoFormula::Atom(a) => {
            for t in &a.terms {
                if let Term::Const(c) = t {
                    out.insert(c.clone());
                }
            }
        }
        FoFormula::Not(g) => collect_constants(g, out),
        FoFormula::And(fs) | FoFormula::Or(fs) => {
            for g in fs {
                collect_constants(g, out);
            }
        }
        FoFormula::Exists(_, g) | FoFormula::Forall(_, g) => collect_constants(g, out),
    }
}

/// Does `f` hold in `db` under `binding`? Every free variable of `f` must be
/// bound.
pub fn holds(f: &FoFormula, db: &Database, binding: &Binding) -> Result<bool> {
    holds_governed(f, db, binding, &ExecutionContext::unlimited())
}

/// [`holds`] under the resource limits of `ctx`. The recursion depth follows
/// the formula's connective nesting, so the depth limit bounds it directly.
pub fn holds_governed(
    f: &FoFormula,
    db: &Database,
    binding: &Binding,
    ctx: &ExecutionContext,
) -> Result<bool> {
    let dom = evaluation_domain(f, db);
    holds_in(f, db, &dom, &mut binding.clone(), ctx, 0)
}

fn holds_in(
    f: &FoFormula,
    db: &Database,
    dom: &[Value],
    binding: &mut Binding,
    ctx: &ExecutionContext,
    depth: usize,
) -> Result<bool> {
    let depth = ctx.descend(depth, ENGINE)?;
    match f {
        FoFormula::Atom(a) => {
            ctx.note_atom();
            ctx.tick(ENGINE)?;
            let rel = db.relation(&a.relation)?;
            if rel.arity() != a.arity() {
                return Err(EngineError::Unsupported(format!(
                    "atom {a} arity mismatch with relation `{}`",
                    a.relation
                )));
            }
            let mut vals = Vec::with_capacity(a.terms.len());
            for t in &a.terms {
                match t {
                    Term::Const(c) => vals.push(c.clone()),
                    Term::Var(v) => match binding.get(v) {
                        Some(val) => vals.push(val.clone()),
                        None => {
                            return Err(EngineError::Unsupported(format!(
                                "free variable `{v}` during first-order evaluation"
                            )))
                        }
                    },
                }
            }
            Ok(rel.contains(&Tuple::new(vals)))
        }
        FoFormula::Not(g) => Ok(!holds_in(g, db, dom, binding, ctx, depth)?),
        FoFormula::And(fs) => {
            for g in fs {
                if !holds_in(g, db, dom, binding, ctx, depth)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        FoFormula::Or(fs) => {
            for g in fs {
                if holds_in(g, db, dom, binding, ctx, depth)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        FoFormula::Exists(v, g) => {
            let saved = binding.get(v).cloned();
            for val in dom {
                ctx.tick(ENGINE)?;
                binding.insert(v.clone(), val.clone());
                if holds_in(g, db, dom, binding, ctx, depth)? {
                    restore(binding, v, saved);
                    return Ok(true);
                }
            }
            restore(binding, v, saved);
            Ok(false)
        }
        FoFormula::Forall(v, g) => {
            let saved = binding.get(v).cloned();
            for val in dom {
                ctx.tick(ENGINE)?;
                binding.insert(v.clone(), val.clone());
                if !holds_in(g, db, dom, binding, ctx, depth)? {
                    restore(binding, v, saved);
                    return Ok(false);
                }
            }
            restore(binding, v, saved);
            Ok(true)
        }
    }
}

fn restore(binding: &mut Binding, v: &str, saved: Option<Value>) {
    match saved {
        Some(val) => {
            binding.insert(v.to_string(), val);
        }
        None => {
            binding.remove(v);
        }
    }
}

/// Is a closed (Boolean) first-order query true?
pub fn query_holds(q: &FoQuery, db: &Database) -> Result<bool> {
    query_holds_governed(q, db, &ExecutionContext::unlimited())
}

/// [`query_holds`] under the resource limits of `ctx`.
pub fn query_holds_governed(q: &FoQuery, db: &Database, ctx: &ExecutionContext) -> Result<bool> {
    if !q.formula.free_variables().is_empty() {
        return Err(EngineError::Unsupported(
            "query_holds requires a closed formula; use evaluate for free variables".into(),
        ));
    }
    holds_governed(&q.formula, db, &Binding::new(), ctx)
}

/// Evaluate a first-order query: enumerate head-variable bindings over the
/// evaluation domain and keep those satisfying the formula. `O(n^{|Z|})`
/// head candidates, each checked in `O(q·n^v)`.
pub fn evaluate(q: &FoQuery, db: &Database) -> Result<Relation> {
    evaluate_governed(q, db, &ExecutionContext::unlimited())
}

/// [`evaluate`] under the resource limits of `ctx`.
pub fn evaluate_governed(q: &FoQuery, db: &Database, ctx: &ExecutionContext) -> Result<Relation> {
    q.validate()?;
    evaluate_active_domain_governed(q, db, ctx)
}

/// Like [`evaluate`] but without the head-freeness validation: head
/// variables that do not occur in the formula simply range over the active
/// domain (the usual active-domain semantics). Used for the unsafe disjuncts
/// arising in the union-of-CQs expansion of positive queries.
pub fn evaluate_active_domain(q: &FoQuery, db: &Database) -> Result<Relation> {
    evaluate_active_domain_governed(q, db, &ExecutionContext::unlimited())
}

/// [`evaluate_active_domain`] under the resource limits of `ctx`.
pub fn evaluate_active_domain_governed(
    q: &FoQuery,
    db: &Database,
    ctx: &ExecutionContext,
) -> Result<Relation> {
    let dom = evaluation_domain(&q.formula, db);
    let head_vars: Vec<&str> = {
        let mut seen = Vec::new();
        for t in &q.head_terms {
            if let Some(v) = t.as_var() {
                if !seen.contains(&v) {
                    seen.push(v);
                }
            }
        }
        seen
    };
    let mut out = Relation::new(head_attrs(&q.head_terms))?;
    let mut binding = Binding::new();
    enumerate_heads(q, db, &dom, &head_vars, 0, &mut binding, ctx, &mut out, 0)?;
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn enumerate_heads(
    q: &FoQuery,
    db: &Database,
    dom: &[Value],
    head_vars: &[&str],
    i: usize,
    binding: &mut Binding,
    ctx: &ExecutionContext,
    out: &mut Relation,
    depth: usize,
) -> Result<()> {
    let depth = ctx.descend(depth, ENGINE)?;
    if i == head_vars.len() {
        if holds_in(&q.formula, db, dom, binding, ctx, depth)? {
            let vals = q.head_terms.iter().map(|t| match t {
                Term::Const(c) => c.clone(),
                Term::Var(v) => binding.get(v).expect("head var bound").clone(),
            });
            ctx.charge_tuples(ENGINE, 1)?;
            out.insert(Tuple::new(vals))?;
        }
        return Ok(());
    }
    for val in dom {
        ctx.tick(ENGINE)?;
        binding.insert(head_vars[i].to_string(), val.clone());
        enumerate_heads(q, db, dom, head_vars, i + 1, binding, ctx, out, depth)?;
    }
    binding.remove(head_vars[i]);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_data::tuple;
    use pq_query::parse_fo;

    fn edge_db() -> Database {
        let mut db = Database::new();
        db.add_table("E", ["a", "b"], [tuple![1, 2], tuple![2, 3], tuple![3, 1]])
            .unwrap();
        db
    }

    #[test]
    fn existential_queries() {
        let q = parse_fo("Q := exists x. exists y. E(x, y)").unwrap();
        assert!(query_holds(&q, &edge_db()).unwrap());
        let q2 = parse_fo("Q := exists x. E(x, x)").unwrap();
        assert!(!query_holds(&q2, &edge_db()).unwrap());
    }

    #[test]
    fn universal_queries() {
        // Every node with an outgoing edge: ∀x (∃y E(x,y) | !∃y E(x,y)) — tautology.
        let q = parse_fo("Q := forall x. (exists y. E(x, y) | !exists y. E(x, y))").unwrap();
        assert!(query_holds(&q, &edge_db()).unwrap());
        // Every node has an out-edge (true in the 3-cycle).
        let q2 = parse_fo("Q := forall x. exists y. E(x, y)").unwrap();
        assert!(query_holds(&q2, &edge_db()).unwrap());
        // Every node has a self-loop (false).
        let q3 = parse_fo("Q := forall x. E(x, x)").unwrap();
        assert!(!query_holds(&q3, &edge_db()).unwrap());
    }

    #[test]
    fn negation_is_complementary() {
        let q = parse_fo("Q := exists x. E(x, x)").unwrap();
        let nq = parse_fo("Q := !exists x. E(x, x)").unwrap();
        let db = edge_db();
        assert_ne!(
            query_holds(&q, &db).unwrap(),
            query_holds(&nq, &db).unwrap()
        );
    }

    #[test]
    fn variable_reuse_across_scopes() {
        // ∃x (E(x,…) …) with x re-quantified inside — the θ-tower pattern.
        let q = parse_fo("Q := exists x. (E(x, 2) & exists x. E(2, x))").unwrap();
        assert!(query_holds(&q, &edge_db()).unwrap());
    }

    #[test]
    fn evaluate_with_free_head_variables() {
        // Nodes with no incoming edge from 3: x such that ¬E(3,x) — i.e. 2, 3.
        let q = parse_fo("G(x) := !E(3, x) & exists y. E(x, y)").unwrap();
        let out = evaluate(&q, &edge_db()).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.contains(&tuple![2]));
        assert!(out.contains(&tuple![3]));
    }

    #[test]
    fn query_constants_extend_domain() {
        let mut db = Database::new();
        db.add_table("E", ["a", "b"], []).unwrap();
        // Domain is empty but the constant 5 appears in the query: ∃x !E(x,x)
        // should range over {5}.
        let q = parse_fo("Q := exists x. !E(x, 5)").unwrap();
        assert!(query_holds(&q, &db).unwrap());
    }

    #[test]
    fn free_variable_errors() {
        let q = parse_fo("Q := E(x, y)").unwrap();
        assert!(matches!(
            query_holds(&q, &edge_db()),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn unsafe_head_rejected_in_evaluate() {
        let q = parse_fo("G(z) := exists x. exists y. E(x, y)").unwrap();
        assert!(evaluate(&q, &edge_db()).is_err());
    }
}
