//! The naive backtracking evaluator — the `n^q` baseline.
//!
//! This is the generic query-evaluation algorithm whose running time has the
//! query size "inherently in the exponent" (the paper's central observation
//! about data complexity: polynomial time in that setting means time `n^q`).
//! It handles the full extended conjunctive-query class — relational atoms,
//! `≠` atoms, and `<`/`≤` comparisons — and doubles as the ground-truth
//! oracle for testing every smarter engine in this workspace.

use std::collections::BTreeSet;
use std::ops::Range;

use pq_data::{Database, Relation, Tuple, Value};
use pq_exec::Verdict;
use pq_query::{Atom, CmpOp, ConjunctiveQuery, QueryError, Term};

use crate::binding::{apply_term, bindings_to_output, Binding};
use crate::error::{EngineError, Result};
use crate::governor::{CancellationToken, ExecutionContext};

/// Engine name reported in resource-exhaustion errors.
const ENGINE: &str = "naive";

/// Evaluate `Q(d)` by backtracking search. Time `O(n^{|atoms|})` in the
/// worst case — exactly the exponential dependence on the parameter that
/// Theorems 1 and 3 say is (likely) unavoidable in general.
pub fn evaluate(q: &ConjunctiveQuery, db: &Database) -> Result<Relation> {
    evaluate_governed(q, db, &ExecutionContext::unlimited())
}

/// [`evaluate`] under the resource limits of `ctx`, fanned out on its pool.
///
/// The search picks a first atom and explores one independent subtree per
/// tuple of it; the tuples are split into contiguous chunks, one pool task
/// each, and the per-chunk bindings are concatenated in chunk order. That
/// is the serial scan order, so the output is identical at any pool degree.
pub fn evaluate_governed(
    q: &ConjunctiveQuery,
    db: &Database,
    ctx: &ExecutionContext,
) -> Result<Relation> {
    check_safety(q)?;
    let s = Search::new(q, db, ctx, None)?;
    let mut bindings = Vec::new();
    let Some((first, rows, chunks)) = s.first_atom_chunks() else {
        s.recurse(
            &mut [],
            &mut Binding::new(),
            &mut |b| {
                bindings.push(b.clone());
                true
            },
            0,
        )?;
        return bindings_to_output(q, bindings);
    };
    let parts: Vec<Vec<Binding>> = ctx.pool().try_run(&chunks, |_, range| {
        let mut local = Vec::new();
        s.chunk(first, &rows[range.clone()], &mut |b| {
            local.push(b.clone());
            true // keep searching
        })?;
        Ok::<_, EngineError>(local)
    })?;
    bindings_to_output(q, parts.into_iter().flatten())
}

/// Is `Q(d)` nonempty? Stops at the first satisfying instantiation.
pub fn is_nonempty(q: &ConjunctiveQuery, db: &Database) -> Result<bool> {
    is_nonempty_governed(q, db, &ExecutionContext::unlimited())
}

/// [`is_nonempty`] under the resource limits of `ctx`: the chunks of
/// [`evaluate_governed`] race on the pool, and the first witness stops the
/// others through a race-scoped [`CancellationToken`] the search checks at
/// every tuple.
pub fn is_nonempty_governed(
    q: &ConjunctiveQuery,
    db: &Database,
    ctx: &ExecutionContext,
) -> Result<bool> {
    // Emptiness does not require head safety (the head plays no role).
    let race = CancellationToken::new();
    let s = Search::new(q, db, ctx, Some(&race))?;
    let Some((first, rows, chunks)) = s.first_atom_chunks() else {
        let mut found = false;
        s.recurse(
            &mut [],
            &mut Binding::new(),
            &mut |_| {
                found = true;
                false
            },
            0,
        )?;
        return Ok(found);
    };
    let hit = ctx.pool().find_first(&chunks, |_, range| {
        let mut found = false;
        match s.chunk(first, &rows[range.clone()], &mut |_| {
            found = true;
            false // stop
        }) {
            Ok(()) if found => {
                race.cancel();
                Verdict::Hit(())
            }
            Ok(()) => Verdict::Miss,
            Err(e) => Verdict::Abort(e),
        }
    })?;
    Ok(hit.is_some())
}

/// The decision problem of Section 3: is `t ∈ Q(d)`? Implemented exactly as
/// the paper prescribes — substitute the constants of `t` into the query and
/// test the resulting Boolean query.
pub fn decide(q: &ConjunctiveQuery, db: &Database, t: &Tuple) -> Result<bool> {
    match q.bind_head(t)? {
        None => Ok(false),
        Some(bq) => is_nonempty(&bq, db),
    }
}

/// Head and constraint variables must occur in relational atoms so that all
/// of them get bound by the search.
pub(crate) fn check_safety(q: &ConjunctiveQuery) -> Result<()> {
    let body: BTreeSet<&str> = q.atom_variables().into_iter().collect();
    for v in q.head_variables() {
        if !body.contains(v) {
            return Err(EngineError::Query(QueryError::UnsafeHeadVariable(
                v.to_string(),
            )));
        }
    }
    for v in q
        .neqs
        .iter()
        .flat_map(|n| n.variables())
        .chain(q.comparisons.iter().flat_map(|c| c.variables()))
    {
        if !body.contains(v) {
            return Err(EngineError::Query(QueryError::UnsafeConstraintVariable(
                v.to_string(),
            )));
        }
    }
    Ok(())
}

/// Check every constraint whose variables are all bound; constraints with
/// unbound variables are deferred (they will be re-checked when complete).
/// Constant-constant constraints (which arise from head substitution) are
/// decided immediately.
pub(crate) fn constraints_hold(q: &ConjunctiveQuery, b: &Binding) -> bool {
    for n in &q.neqs {
        if let (Some(l), Some(r)) = (apply_term(&n.left, b), apply_term(&n.right, b)) {
            if l == r {
                return false;
            }
        }
    }
    for c in &q.comparisons {
        if let (Some(l), Some(r)) = (apply_term(&c.left, b), apply_term(&c.right, b)) {
            if !c.op.eval(&l, &r) {
                return false;
            }
        }
    }
    true
}

/// One backtracking search over atom instantiations. Visitors are called on
/// every satisfying binding; returning `false` stops the search.
struct Search<'a> {
    q: &'a ConjunctiveQuery,
    /// The body relations, resolved up front so missing tables error out
    /// deterministically.
    rels: Vec<&'a Relation>,
    ctx: &'a ExecutionContext,
    /// An emptiness race: once another chunk has found a witness, this
    /// search stops without error.
    race: Option<&'a CancellationToken>,
}

impl<'a> Search<'a> {
    fn new(
        q: &'a ConjunctiveQuery,
        db: &'a Database,
        ctx: &'a ExecutionContext,
        race: Option<&'a CancellationToken>,
    ) -> Result<Self> {
        let rels = q
            .atoms
            .iter()
            .map(|a| db.relation(&a.relation))
            .collect::<pq_data::Result<_>>()?;
        Ok(Search { q, rels, ctx, race })
    }

    /// The greedy join-order rule: the unused atom with the most bound
    /// terms, ties broken by smaller relation.
    fn pick_next(&self, used: &[bool], binding: &Binding) -> Option<usize> {
        (0..self.q.atoms.len())
            .filter(|&i| !used[i])
            .max_by_key(|&i| {
                let bound = self.q.atoms[i]
                    .terms
                    .iter()
                    .filter(|t| match t {
                        Term::Var(v) => binding.contains_key(v),
                        Term::Const(_) => true,
                    })
                    .count();
                (bound, usize::MAX - self.rels[i].len())
            })
    }

    /// The first atom the search picks, its tuples, and their split into
    /// contiguous chunks (four per pool worker, to absorb skew); `None`
    /// when the body has no atoms.
    #[allow(clippy::type_complexity)]
    fn first_atom_chunks(&self) -> Option<(usize, Vec<&'a Tuple>, Vec<Range<usize>>)> {
        let first = self.pick_next(&vec![false; self.q.atoms.len()], &Binding::new())?;
        self.ctx.note_atom();
        let rel: &'a Relation = self.rels[first];
        let rows: Vec<&'a Tuple> = rel.iter().collect();
        let chunks = pq_exec::morsels(rows.len(), self.ctx.pool().threads() * 4);
        Some((first, rows, chunks))
    }

    /// One pool task: the search below `rows`, a chunk of the first atom's
    /// tuples, reporting bindings to `visit` in scan order.
    fn chunk(
        &self,
        first: usize,
        rows: &[&'a Tuple],
        visit: &mut impl FnMut(&Binding) -> bool,
    ) -> Result<()> {
        let depth = self.ctx.descend(0, ENGINE)?;
        let mut used = vec![false; self.q.atoms.len()];
        self.scan(
            first,
            rows.iter().copied(),
            &mut used,
            &mut Binding::new(),
            visit,
            depth,
        )?;
        Ok(())
    }

    /// Pick the next atom and scan it; at a complete binding, visit it.
    fn recurse(
        &self,
        used: &mut [bool],
        binding: &mut Binding,
        visit: &mut impl FnMut(&Binding) -> bool,
        depth: usize,
    ) -> Result<bool> {
        let depth = self.ctx.descend(depth, ENGINE)?;
        let Some(i) = self.pick_next(used, binding) else {
            // All atoms matched; constraints are fully bound by safety.
            self.ctx.charge_tuples(ENGINE, 1)?;
            return Ok(visit(binding));
        };
        self.ctx.note_atom();
        let rel: &'a Relation = self.rels[i];
        self.scan(i, rel.iter(), used, binding, visit, depth)
    }

    /// Try every tuple of `rows` for atom `i`. Returns the visitor's
    /// keep-going flag (also `false` once the race is decided).
    fn scan(
        &self,
        i: usize,
        rows: impl IntoIterator<Item = &'a Tuple>,
        used: &mut [bool],
        binding: &mut Binding,
        visit: &mut impl FnMut(&Binding) -> bool,
        depth: usize,
    ) -> Result<bool> {
        used[i] = true;
        let mut keep_going = true;
        for t in rows {
            self.ctx.tick(ENGINE)?;
            if self.race.is_some_and(CancellationToken::is_cancelled)
                || !self.try_tuple(used, binding, visit, i, t, depth)?
            {
                keep_going = false;
                break;
            }
        }
        used[i] = false;
        Ok(keep_going)
    }

    /// One step of the search: unify atom `i` against tuple `t` under
    /// `binding`, and on success (constraints permitting) recurse into the
    /// remaining atoms. Returns the visitor's keep-going flag. The binding
    /// is restored before returning.
    fn try_tuple(
        &self,
        used: &mut [bool],
        binding: &mut Binding,
        visit: &mut impl FnMut(&Binding) -> bool,
        i: usize,
        t: &Tuple,
        depth: usize,
    ) -> Result<bool> {
        let Some(newly_bound) = unify(&self.q.atoms[i], t, binding) else {
            return Ok(true);
        };
        let keep_going = if constraints_hold(self.q, binding) {
            self.recurse(used, binding, visit, depth)?
        } else {
            true
        };
        undo(binding, &newly_bound);
        Ok(keep_going)
    }
}

/// Extend `binding` so that `atom` maps onto `t`, returning the variables
/// it bound (for [`undo`]), or `None` — with `binding` unchanged — when they
/// clash.
pub(crate) fn unify<'q>(atom: &'q Atom, t: &Tuple, binding: &mut Binding) -> Option<Vec<&'q str>> {
    // Reject on a constant or an already-bound variable before binding
    // anything: most probed tuples fail, and then fail without a binding
    // insert and undo.
    let clash = atom
        .terms
        .iter()
        .zip(t.iter())
        .any(|(term, val)| match term {
            Term::Const(c) => c != val,
            Term::Var(v) => binding.get(v.as_str()).is_some_and(|b| b != val),
        });
    if clash {
        return None;
    }
    // Only a variable repeated within the atom can still clash.
    let mut newly_bound: Vec<&str> = Vec::new();
    for (term, val) in atom.terms.iter().zip(t.iter()) {
        let Term::Var(v) = term else { continue };
        match binding.get(v.as_str()) {
            Some(existing) if existing != val => {
                undo(binding, &newly_bound);
                return None;
            }
            Some(_) => {}
            None => {
                binding.insert(v.clone(), val.clone());
                newly_bound.push(v);
            }
        }
    }
    Some(newly_bound)
}

/// Unbind `vars` again (backtracking).
pub(crate) fn undo(binding: &mut Binding, vars: &[&str]) {
    for v in vars {
        binding.remove(*v);
    }
}

/// Evaluate a comparison between two constants (helper shared with the
/// comparison-preprocessing module).
pub fn eval_const_cmp(op: CmpOp, l: &Value, r: &Value) -> bool {
    op.eval(l, r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pq_data::tuple;
    use pq_query::{atom, parse_cq, Neq};

    fn edge_db() -> Database {
        let mut db = Database::new();
        db.add_table(
            "E",
            ["a", "b"],
            [tuple![1, 2], tuple![2, 3], tuple![3, 1], tuple![1, 3]],
        )
        .unwrap();
        db
    }

    #[test]
    fn path_query_finds_all_two_paths() {
        let q = parse_cq("P(x, z) :- E(x, y), E(y, z).").unwrap();
        let out = evaluate(&q, &edge_db()).unwrap();
        // 1→2→3, 2→3→1, 3→1→2, 3→1→3, 1→3→1
        assert_eq!(out.len(), 5);
        assert!(!out.contains(&tuple![1, 2]));
        assert!(out.contains(&tuple![1, 3]));
        assert!(out.contains(&tuple![3, 3]));
    }

    #[test]
    fn triangle_query_boolean() {
        let q = parse_cq("T :- E(x, y), E(y, z), E(z, x).").unwrap();
        assert!(is_nonempty(&q, &edge_db()).unwrap()); // 1→2→3→1
    }

    #[test]
    fn neq_filters_solutions() {
        // employees on >1 project
        let mut db = Database::new();
        db.add_table(
            "EP",
            ["e", "p"],
            [
                tuple!["ann", "p1"],
                tuple!["ann", "p2"],
                tuple!["bob", "p1"],
            ],
        )
        .unwrap();
        let q = parse_cq("G(e) :- EP(e, p), EP(e, p2), p != p2.").unwrap();
        let out = evaluate(&q, &db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple!["ann"]));
    }

    #[test]
    fn comparisons_filter_solutions() {
        let mut db = Database::new();
        db.add_table(
            "EM",
            ["e", "m"],
            [tuple!["ann", "bob"], tuple!["cid", "bob"]],
        )
        .unwrap();
        db.add_table(
            "ES",
            ["e", "s"],
            [tuple!["ann", 120], tuple!["bob", 100], tuple!["cid", 90]],
        )
        .unwrap();
        let q = parse_cq("G(e) :- EM(e, m), ES(e, s), ES(m, s2), s2 < s.").unwrap();
        let out = evaluate(&q, &db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple!["ann"]));
    }

    #[test]
    fn decide_substitutes_head_constants() {
        let q = parse_cq("P(x, z) :- E(x, y), E(y, z).").unwrap();
        let db = edge_db();
        assert!(decide(&q, &db, &tuple![1, 3]).unwrap());
        assert!(!decide(&q, &db, &tuple![2, 2]).unwrap());
    }

    #[test]
    fn repeated_variables_in_atom_enforce_equality() {
        let mut db = Database::new();
        db.add_table("R", ["a", "b"], [tuple![1, 1], tuple![1, 2]])
            .unwrap();
        let q = parse_cq("G(x) :- R(x, x).").unwrap();
        let out = evaluate(&q, &db).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&tuple![1]));
    }

    #[test]
    fn constants_in_atoms_select() {
        let q = parse_cq("G(y) :- E(1, y).").unwrap();
        let out = evaluate(&q, &edge_db()).unwrap();
        assert_eq!(out.len(), 2); // 1→2, 1→3
    }

    #[test]
    fn unknown_relation_errors() {
        let q = parse_cq("G(x) :- Nope(x).").unwrap();
        assert!(matches!(
            evaluate(&q, &edge_db()),
            Err(EngineError::Data(_))
        ));
    }

    #[test]
    fn unsafe_head_errors() {
        let q = parse_cq("G(w) :- E(x, y).").unwrap();
        assert!(matches!(
            evaluate(&q, &edge_db()),
            Err(EngineError::Query(QueryError::UnsafeHeadVariable(_)))
        ));
    }

    #[test]
    fn neq_same_variable_is_unsatisfiable() {
        let q = ConjunctiveQuery::boolean("G", [atom!("E"; var "x", var "y")])
            .with_neqs([Neq::new(Term::var("x"), Term::var("x"))]);
        assert!(!is_nonempty(&q, &edge_db()).unwrap());
    }

    #[test]
    fn clique_query_matches_graph() {
        // k=3 clique query on a graph with exactly one triangle (as directed
        // pairs both ways).
        let mut db = Database::new();
        let mut rows = Vec::new();
        for (a, b) in [(1, 2), (2, 3), (1, 3), (3, 4)] {
            rows.push(tuple![a, b]);
            rows.push(tuple![b, a]);
        }
        db.add_table("G", ["a", "b"], rows).unwrap();
        let q = parse_cq("P :- G(x1, x2), G(x1, x3), G(x2, x3).").unwrap();
        assert!(is_nonempty(&q, &db).unwrap());
        let q4 =
            parse_cq("P :- G(x1,x2), G(x1,x3), G(x1,x4), G(x2,x3), G(x2,x4), G(x3,x4).").unwrap();
        assert!(!is_nonempty(&q4, &db).unwrap());
    }

    #[test]
    fn empty_body_is_an_error_for_evaluate() {
        // Head variable can't be bound without atoms.
        let q = ConjunctiveQuery::new("G", [Term::var("x")], []);
        assert!(evaluate(&q, &edge_db()).is_err());
        // A boolean query with an empty body is vacuously true.
        let qb = ConjunctiveQuery::boolean("G", []);
        assert!(is_nonempty(&qb, &edge_db()).unwrap());
    }
}
