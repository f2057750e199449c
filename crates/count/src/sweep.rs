//! The semiring Yannakakis sweep shared by the acyclic and decomposed
//! counting engines.
//!
//! Input: a hypergraph whose edges are the nodes of a join tree (atom
//! hypergraph + GYO join tree, or bag hypergraph + decomposition tree) and
//! one set-semantics relation per node. The sweep annotates every tuple
//! with multiplicity 1, then walks the tree bottom-up: each child is
//! marginalized onto its connecting variables plus any tracked `z`
//! variables below it ([`zj_vars`], summing multiplicities over the
//! variables projected away) and multiplied into its parent. Because every
//! variable's occurrences form a connected subtree (the join-tree
//! property), each satisfying assignment of *all* variables is counted
//! exactly once, so the root — marginalized onto `z` — holds, per
//! `z`-projection, the exact number of satisfying assignments extending it.
//!
//! With `z = ∅` this is Chen–Mengel counting without enumeration: time
//! polynomial in the input alone, answer sets be damned. With `z` = the
//! head variables it is per-projection counting: cost bounded by input ×
//! distinct projections, the honest price of projection (#W[1]-hardness)
//! without paying full enumeration.
//!
//! Overflow note: all multiplicities are ≥ 1, so any partial sum or
//! partial product is bounded by its final value. Whether a sweep overflows
//! therefore does not depend on the order children are folded in — every
//! pool degree agrees on success, value, *and* failure.

use std::collections::BTreeSet;

use pq_data::Relation;
use pq_engine::governor::ExecutionContext;
use pq_hypergraph::{Hypergraph, JoinTree};

use crate::counted::CountedRelation;
use crate::Result;

/// The variables child `j` hands its parent `u`: the connecting variables
/// `U_j ∩ U_u` plus every tracked variable of `z` occurring in the subtree
/// `T[j]` (in vertex-index order — deterministic).
fn zj_vars(hg: &Hypergraph, tree: &JoinTree, j: usize, u: usize, z: &[String]) -> Vec<String> {
    let mut keep: BTreeSet<usize> = hg.edge(j).intersection(hg.edge(u)).copied().collect();
    for &v in &tree.subtree_vertices(hg, j) {
        if z.iter().any(|s| s == hg.label(v)) {
            keep.insert(v);
        }
    }
    keep.iter().map(|&v| hg.label(v).to_string()).collect()
}

/// The counted sweep: returns the root counted relation over `z` (empty
/// when the query is empty on this database).
///
/// Levels of the tree ([`JoinTree::levels`]) are processed deepest first:
/// the child marginals of one level are computed as one pool task per node
/// (in node order), then folded into their parents in ascending node order.
/// Multiplicity algebra is commutative and all weights are ≥ 1, so the
/// result — and the overflow verdict — is the same at any pool degree.
pub(crate) fn counted_sweep(
    hg: &Hypergraph,
    tree: &JoinTree,
    node_rels: &[Relation],
    z: &[String],
    ctx: &ExecutionContext,
    engine: &'static str,
) -> Result<CountedRelation> {
    let mut rels: Vec<Option<CountedRelation>> = node_rels
        .iter()
        .map(|r| Some(CountedRelation::from_relation(r)))
        .collect();
    for level in tree.levels().iter().rev() {
        for &j in level {
            if rels[j].as_ref().expect("node visited once").is_empty() {
                return CountedRelation::new(z.iter().map(String::clone));
            }
        }
        // Root level: nothing to marginalize into a parent.
        if level.len() == 1 && tree.parent(level[0]).is_none() {
            continue;
        }
        let marginals: Vec<CountedRelation> = ctx.pool().try_run(level, |_, &j| {
            let u = tree.parent(j).expect("non-root levels have parents");
            let child = rels[j].as_ref().expect("node visited once");
            let m = child.project_sum(&zj_vars(hg, tree, j, u, z), ctx, engine)?;
            ctx.charge_tuples(engine, m.len() as u64)?;
            Ok::<_, crate::CountError>(m)
        })?;
        for (&j, marginal) in level.iter().zip(&marginals) {
            rels[j] = None;
            let u = tree.parent(j).expect("non-root levels have parents");
            let parent = rels[u].take().expect("parent not yet visited");
            let joined = parent.join_multiply(marginal, ctx, engine)?;
            ctx.charge_tuples(engine, joined.len() as u64)?;
            rels[u] = Some(joined);
        }
    }
    let root = rels[tree.root()].take().expect("root remains");
    let out = root.project_sum(z, ctx, engine)?;
    ctx.charge_tuples(engine, out.len() as u64)?;
    Ok(out)
}

/// Partition-and-sum total of a counted relation over the pool:
/// multiplicity chunks (in row order) are summed per task and the partials
/// folded in chunk order — deterministic, and since all terms are
/// non-negative the overflow verdict does not depend on the chunking.
pub(crate) fn total(
    cr: &CountedRelation,
    ctx: &ExecutionContext,
    engine: &'static str,
) -> Result<u128> {
    let pool = ctx.pool();
    let counts: Vec<u128> = cr.iter().map(|(_, c)| c).collect();
    let chunks = pq_exec::morsels(counts.len(), pool.threads().saturating_mul(4).max(1));
    let partials: Vec<u128> = pool.try_run(&chunks, |_, r| {
        counts[r.clone()]
            .iter()
            .try_fold(0u128, |a, &b| a.checked_add(b))
            .ok_or(crate::CountError::Overflow { engine })
    })?;
    partials
        .into_iter()
        .try_fold(0u128, |a, b| a.checked_add(b))
        .ok_or(crate::CountError::Overflow { engine })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zj_vars_track_connecting_and_z_vars() {
        let hg = Hypergraph::from_edges([vec!["x", "y"], vec!["y", "z"], vec!["z", "w"]]);
        // path 0 -> 1 -> 2, root 2
        let t = JoinTree::from_parents(vec![Some(1), Some(2), None]);
        // No tracked vars: just the connector.
        assert_eq!(zj_vars(&hg, &t, 0, 1, &[]), vec!["y".to_string()]);
        // Tracking x keeps it through the join even though the parent
        // lacks it.
        assert_eq!(
            zj_vars(&hg, &t, 0, 1, &["x".to_string()]),
            vec!["x".to_string(), "y".to_string()]
        );
    }
}
