//! Join trees.
//!
//! A *join tree* `T` for a hypergraph `H` (Section 5) has the hyperedges as
//! its nodes, and for every vertex `x`, the set of nodes whose edges contain
//! `x` induces a connected subtree `T_x`. The Theorem 2 algorithms do one
//! bottom-up and one top-down pass over such a tree.

use std::collections::BTreeSet;

use crate::hypergraph::Hypergraph;

/// A rooted join tree over the edges `0..n` of a hypergraph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinTree {
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>,
    root: usize,
}

impl JoinTree {
    /// Assemble a tree from parent pointers; exactly one node must have no
    /// parent (the root), and the parent relation must be acyclic and span
    /// all nodes.
    ///
    /// # Panics
    /// Panics when the parent vector does not describe a rooted tree; callers
    /// construct it from a GYO reduction, which guarantees this shape.
    pub fn from_parents(parent: Vec<Option<usize>>) -> Self {
        let n = parent.len();
        assert!(n > 0, "join tree needs at least one node");
        let roots: Vec<usize> = (0..n).filter(|&i| parent[i].is_none()).collect();
        assert_eq!(roots.len(), 1, "exactly one root expected, got {roots:?}");
        let root = roots[0];
        let mut children = vec![Vec::new(); n];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[*p].push(i);
            }
        }
        let t = JoinTree {
            parent,
            children,
            root,
        };
        // Reachability check: the parent pointers must form one tree.
        assert_eq!(t.bottom_up().len(), n, "parent pointers contain a cycle");
        t
    }

    /// The root node.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Number of nodes (= hyperedges of the underlying hypergraph).
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
    }

    /// Parent of `n`, or `None` for the root.
    pub fn parent(&self, n: usize) -> Option<usize> {
        self.parent[n]
    }

    /// Children of `n`.
    pub fn children(&self, n: usize) -> &[usize] {
        &self.children[n]
    }

    /// All nodes in *bottom-up* order: every node appears after all of its
    /// children (the root is last). This is the processing order of
    /// Algorithm 1 and of Step 2 of Algorithm 2.
    pub fn bottom_up(&self) -> Vec<usize> {
        let mut order = self.top_down();
        order.reverse();
        order
    }

    /// All nodes in *top-down* (preorder) order: every node appears before
    /// its children (the root is first). This is the processing order of
    /// Step 1 of Algorithm 2.
    pub fn top_down(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.parent.len());
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            order.push(n);
            for &c in &self.children[n] {
                stack.push(c);
            }
        }
        order
    }

    /// Nodes grouped by depth: `levels()[0]` is `[root]`, deeper levels
    /// follow, each in ascending node order. Processing levels deepest-first
    /// is a valid bottom-up schedule (every node's children sit one level
    /// deeper), and the nodes of one level have disjoint subtrees, so the
    /// level-scheduled sweeps of the evaluation and counting engines process
    /// each level's nodes concurrently.
    pub fn levels(&self) -> Vec<Vec<usize>> {
        let mut depth = vec![0usize; self.num_nodes()];
        for n in self.top_down() {
            if let Some(u) = self.parent[n] {
                depth[n] = depth[u] + 1;
            }
        }
        let max_depth = depth.iter().copied().max().unwrap_or(0);
        let mut lv = vec![Vec::new(); max_depth + 1];
        for (n, &d) in depth.iter().enumerate() {
            lv[d].push(n);
        }
        lv
    }

    /// The nodes of the subtree `T[n]` rooted at `n` (including `n`).
    pub fn subtree_nodes(&self, n: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let mut stack = vec![n];
        while let Some(m) = stack.pop() {
            out.push(m);
            stack.extend_from_slice(&self.children[m]);
        }
        out
    }

    /// `at(T[n])`: the set of hypergraph vertices appearing at nodes of the
    /// subtree rooted at `n` (the paper's attribute set of `T[j]`).
    pub fn subtree_vertices(&self, hg: &Hypergraph, n: usize) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        for m in self.subtree_nodes(n) {
            out.extend(hg.edge(m).iter().copied());
        }
        out
    }

    /// Check the join-tree property against `hg`: for every vertex, the nodes
    /// whose edges contain it form a connected subtree.
    pub fn verify(&self, hg: &Hypergraph) -> bool {
        if hg.num_edges() != self.num_nodes() {
            return false;
        }
        for v in 0..hg.num_vertices() {
            let holders: BTreeSet<usize> = hg
                .edges()
                .iter()
                .enumerate()
                .filter(|(_, e)| e.contains(&v))
                .map(|(i, _)| i)
                .collect();
            if holders.len() <= 1 {
                continue;
            }
            // Connectivity within `holders` under the tree adjacency.
            let start = *holders.iter().next().expect("nonempty");
            let mut seen = BTreeSet::from([start]);
            let mut stack = vec![start];
            while let Some(n) = stack.pop() {
                let mut nbrs: Vec<usize> = self.children[n].clone();
                if let Some(p) = self.parent[n] {
                    nbrs.push(p);
                }
                for m in nbrs {
                    if holders.contains(&m) && seen.insert(m) {
                        stack.push(m);
                    }
                }
            }
            if seen != holders {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_tree() -> JoinTree {
        // 0 -> 1 -> 2 (root 2)
        JoinTree::from_parents(vec![Some(1), Some(2), None])
    }

    #[test]
    fn orders_respect_parenthood() {
        let t = path_tree();
        assert_eq!(t.root(), 2);
        assert_eq!(t.top_down(), vec![2, 1, 0]);
        assert_eq!(t.bottom_up(), vec![0, 1, 2]);
    }

    #[test]
    fn subtree_queries() {
        let t = JoinTree::from_parents(vec![None, Some(0), Some(0), Some(1)]);
        let mut s = t.subtree_nodes(1);
        s.sort();
        assert_eq!(s, vec![1, 3]);
        assert_eq!(t.children(0), &[1, 2]);
    }

    #[test]
    fn levels_group_by_depth() {
        // 1 -> 0 <- 2, 3 -> 1  (root 0)
        let t = JoinTree::from_parents(vec![None, Some(0), Some(0), Some(1)]);
        assert_eq!(t.levels(), vec![vec![0], vec![1, 2], vec![3]]);
        assert_eq!(path_tree().levels(), vec![vec![2], vec![1], vec![0]]);
    }

    #[test]
    #[should_panic(expected = "exactly one root")]
    fn two_roots_rejected() {
        let _ = JoinTree::from_parents(vec![None, None]);
    }

    #[test]
    fn verify_accepts_path_join_tree() {
        let hg = Hypergraph::from_edges([vec!["x", "y"], vec!["y", "z"], vec!["z", "w"]]);
        let t = path_tree();
        assert!(t.verify(&hg));
    }

    #[test]
    fn verify_rejects_disconnected_occurrence() {
        // vertex y occurs in nodes 0 and 2 but not 1 — not a join tree when
        // the tree is the path 0-1-2.
        let hg = Hypergraph::from_edges([vec!["x", "y"], vec!["x", "z"], vec!["y", "z"]]);
        let t = path_tree();
        assert!(!t.verify(&hg));
    }

    #[test]
    fn subtree_vertices_accumulate() {
        let hg = Hypergraph::from_edges([vec!["x", "y"], vec!["y", "z"], vec!["z", "w"]]);
        let t = path_tree();
        let at = t.subtree_vertices(&hg, 1);
        let labels: Vec<&str> = at.iter().map(|&v| hg.label(v)).collect();
        assert_eq!(labels, vec!["x", "y", "z"]);
    }
}
