//! The naive evaluator with per-column hash indexes.
//!
//! The paper's point is that the `n^q` exponent of generic evaluation is
//! *inherent* — not an artifact of sloppy engineering. This engine makes
//! that claim testable: it is the same backtracking search as
//! [`crate::naive`], but each atom probe goes through a hash index on a
//! bound column instead of a relation scan. Constant factors drop
//! dramatically; the fitted exponent stays put (bench
//! `thm1/cq_clique_naive` vs `thm1/cq_clique_indexed`).

use std::collections::HashMap;
use std::ops::Range;

use pq_data::{Database, Relation, Value};
use pq_exec::Verdict;
use pq_query::{ConjunctiveQuery, Term};

use crate::binding::{bindings_to_output, Binding};
use crate::error::{EngineError, Result};
use crate::governor::{CancellationToken, ExecutionContext};
use crate::naive::{check_safety, constraints_hold, undo, unify};

/// Engine name reported in resource-exhaustion errors.
const ENGINE: &str = "naive-indexed";

/// A relation wrapped with one hash index per column.
struct Indexed<'a> {
    rel: &'a Relation,
    by_col: Vec<HashMap<&'a Value, Vec<usize>>>,
}

impl<'a> Indexed<'a> {
    fn build(rel: &'a Relation) -> Indexed<'a> {
        let mut by_col: Vec<HashMap<&Value, Vec<usize>>> = vec![HashMap::new(); rel.arity()];
        for (ri, t) in rel.iter().enumerate() {
            for (ci, v) in t.iter().enumerate() {
                by_col[ci].entry(v).or_default().push(ri);
            }
        }
        Indexed { rel, by_col }
    }

    /// Row ids whose column `c` equals `v` (empty slice when absent).
    fn probe(&self, c: usize, v: &Value) -> &[usize] {
        self.by_col[c].get(v).map(Vec::as_slice).unwrap_or(&[])
    }
}

/// Evaluate with indexes; result identical to [`crate::naive::evaluate`].
pub fn evaluate(q: &ConjunctiveQuery, db: &Database) -> Result<Relation> {
    evaluate_governed(q, db, &ExecutionContext::unlimited())
}

/// [`evaluate`] under the resource limits of `ctx`, fanned out on its pool
/// by first-atom chunks exactly like [`crate::naive::evaluate_governed`]:
/// identical output at any pool degree.
pub fn evaluate_governed(
    q: &ConjunctiveQuery,
    db: &Database,
    ctx: &ExecutionContext,
) -> Result<Relation> {
    check_safety(q)?;
    let rels = resolve(q, db)?;
    let s = Search {
        q,
        rels: &rels,
        ctx,
        race: None,
    };
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
            true
        })?;
        Ok::<_, EngineError>(local)
    })?;
    bindings_to_output(q, parts.into_iter().flatten())
}

/// Emptiness with indexes.
pub fn is_nonempty(q: &ConjunctiveQuery, db: &Database) -> Result<bool> {
    is_nonempty_governed(q, db, &ExecutionContext::unlimited())
}

/// [`is_nonempty`] under the resource limits of `ctx`: racing chunks, the
/// first witness stops the rest.
pub fn is_nonempty_governed(
    q: &ConjunctiveQuery,
    db: &Database,
    ctx: &ExecutionContext,
) -> Result<bool> {
    let rels = resolve(q, db)?;
    let race = CancellationToken::new();
    let s = Search {
        q,
        rels: &rels,
        ctx,
        race: Some(&race),
    };
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
            false
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

/// The body relations of `q`, each with its column indexes.
fn resolve<'a>(q: &ConjunctiveQuery, db: &'a Database) -> Result<Vec<Indexed<'a>>> {
    q.atoms
        .iter()
        .map(|a| Ok(Indexed::build(db.relation(&a.relation)?)))
        .collect()
}

/// A term is "bound" when it is a constant or a bound variable.
fn bound_value<'b>(t: &'b Term, binding: &'b Binding) -> Option<&'b Value> {
    match t {
        Term::Const(c) => Some(c),
        Term::Var(v) => binding.get(v.as_str()),
    }
}

/// The indexed backtracking search; see `naive::Search`, whose structure
/// (and chunked fan-out) this mirrors with index probes for scans.
struct Search<'a> {
    q: &'a ConjunctiveQuery,
    rels: &'a [Indexed<'a>],
    ctx: &'a ExecutionContext,
    race: Option<&'a CancellationToken>,
}

impl<'a> Search<'a> {
    /// The greedy join-order rule (most bound terms, ties by smaller
    /// relation).
    fn pick_next(&self, used: &[bool], binding: &Binding) -> Option<usize> {
        (0..self.q.atoms.len())
            .filter(|&i| !used[i])
            .max_by_key(|&i| {
                let bound = self.q.atoms[i]
                    .terms
                    .iter()
                    .filter(|t| bound_value(t, binding).is_some())
                    .count();
                (bound, usize::MAX - self.rels[i].rel.len())
            })
    }

    /// Candidate rows for atom `i` under `binding`: probe the index on the
    /// first bound position, falling back to a full scan when nothing is
    /// bound.
    fn candidate_rows(&self, i: usize, binding: &Binding) -> Vec<usize> {
        let probe = self.q.atoms[i]
            .terms
            .iter()
            .enumerate()
            .find_map(|(c, t)| bound_value(t, binding).map(|v| (c, v.clone())));
        match &probe {
            Some((c, v)) => self.rels[i].probe(*c, v).to_vec(),
            None => (0..self.rels[i].rel.len()).collect(),
        }
    }

    /// The first atom, its candidate rows, and their chunks (four per pool
    /// worker); `None` when the body has no atoms.
    #[allow(clippy::type_complexity)]
    fn first_atom_chunks(&self) -> Option<(usize, Vec<usize>, Vec<Range<usize>>)> {
        let first = self.pick_next(&vec![false; self.q.atoms.len()], &Binding::new())?;
        self.ctx.note_atom();
        let rows = self.candidate_rows(first, &Binding::new());
        let chunks = pq_exec::morsels(rows.len(), self.ctx.pool().threads() * 4);
        Some((first, rows, chunks))
    }

    /// One pool task: the search below a chunk of the first atom's rows.
    fn chunk(
        &self,
        first: usize,
        rows: &[usize],
        visit: &mut impl FnMut(&Binding) -> bool,
    ) -> Result<()> {
        let depth = self.ctx.descend(0, ENGINE)?;
        let mut used = vec![false; self.q.atoms.len()];
        self.scan(first, rows, &mut used, &mut Binding::new(), visit, depth)?;
        Ok(())
    }

    fn recurse(
        &self,
        used: &mut [bool],
        binding: &mut Binding,
        visit: &mut impl FnMut(&Binding) -> bool,
        depth: usize,
    ) -> Result<bool> {
        let depth = self.ctx.descend(depth, ENGINE)?;
        let Some(i) = self.pick_next(used, binding) else {
            self.ctx.charge_tuples(ENGINE, 1)?;
            return Ok(visit(binding));
        };
        self.ctx.note_atom();
        let rows = self.candidate_rows(i, binding);
        self.scan(i, &rows, used, binding, visit, depth)
    }

    /// Try every row of `rows` for atom `i`; returns the keep-going flag.
    fn scan(
        &self,
        i: usize,
        rows: &[usize],
        used: &mut [bool],
        binding: &mut Binding,
        visit: &mut impl FnMut(&Binding) -> bool,
        depth: usize,
    ) -> Result<bool> {
        used[i] = true;
        let mut keep_going = true;
        for &ri in rows {
            self.ctx.tick(ENGINE)?;
            if self.race.is_some_and(CancellationToken::is_cancelled)
                || !self.try_row(used, binding, visit, i, ri, depth)?
            {
                keep_going = false;
                break;
            }
        }
        used[i] = false;
        Ok(keep_going)
    }

    /// Unify atom `i` against row `ri` and recurse; see `naive::Search`.
    fn try_row(
        &self,
        used: &mut [bool],
        binding: &mut Binding,
        visit: &mut impl FnMut(&Binding) -> bool,
        i: usize,
        ri: usize,
        depth: usize,
    ) -> Result<bool> {
        let t = &self.rels[i].rel.tuples()[ri];
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use pq_data::tuple;
    use pq_query::parse_cq;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_db(seed: u64) -> Database {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut db = Database::new();
        for name in ["E", "R"] {
            let rows = (0..rng.gen_range(8..30))
                .map(|_| tuple![rng.gen_range(0..6i64), rng.gen_range(0..6i64)]);
            db.add_table(name, ["a", "b"], rows).unwrap();
        }
        db
    }

    #[test]
    fn agrees_with_naive_on_battery() {
        for seed in 0..6 {
            let db = random_db(seed);
            for src in [
                "G(x, z) :- E(x, y), E(y, z).",
                "G :- E(x, y), E(y, z), E(z, x).",
                "G(x) :- E(x, y), R(y, z), x != z.",
                "G(x) :- E(x, 3).",
                "G(x, y) :- E(x, y), R(x, y), x < y.",
                "G(x) :- E(x, x).",
            ] {
                let q = parse_cq(src).unwrap();
                assert_eq!(
                    evaluate(&q, &db).unwrap(),
                    naive::evaluate(&q, &db).unwrap(),
                    "seed {seed}: {src}"
                );
                assert_eq!(
                    is_nonempty(&q, &db).unwrap(),
                    naive::is_nonempty(&q, &db).unwrap(),
                    "seed {seed}: {src}"
                );
            }
        }
    }

    /// A clique instance without depending on pq-wtheory (dependency
    /// direction: wtheory depends on engine).
    fn clique(n: i64, k: usize, seed: u64) -> (Database, ConjunctiveQuery) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                if rng.gen_bool(0.4) {
                    rows.push(tuple![a, b]);
                    rows.push(tuple![b, a]);
                }
            }
        }
        let mut db = Database::new();
        db.add_table("G", ["a", "b"], rows).unwrap();
        let mut atoms = Vec::new();
        for i in 1..=k {
            for j in i + 1..=k {
                atoms.push(format!("G(x{i}, x{j})"));
            }
        }
        let q = parse_cq(&format!("P :- {}.", atoms.join(", "))).unwrap();
        (db, q)
    }

    #[test]
    fn clique_queries_agree_and_probe_indexes() {
        for seed in 0..4 {
            let (db, q) = clique(10, 3, seed);
            assert_eq!(
                is_nonempty(&q, &db).unwrap(),
                naive::is_nonempty(&q, &db).unwrap(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn errors_match_naive() {
        let db = random_db(1);
        let q = parse_cq("G(w) :- E(x, y).").unwrap();
        assert!(evaluate(&q, &db).is_err());
        let q2 = parse_cq("G(x) :- Nope(x).").unwrap();
        assert!(evaluate(&q2, &db).is_err());
    }
}
