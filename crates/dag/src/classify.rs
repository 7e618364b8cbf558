//! Classification of the precedence-graph families for which the paper proves
//! improved approximation ratios (Table 1): independent jobs, chains,
//! in-/out-trees (forests) and series-parallel orders.

use crate::graph::{Dag, NodeId};
use serde::{Deserialize, Serialize};

/// The graph families distinguished by the paper's analysis, from most to
/// least restrictive. [`Dag::classify`] returns the most specific class that
/// applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GraphClass {
    /// No precedence constraints at all (Theorem 5).
    Independent,
    /// A single chain (each node has at most one predecessor and successor and
    /// the graph is connected as one path). Chains are trees, hence SP.
    Chain,
    /// An out-forest: every node has at most one predecessor (Theorem 3/4).
    OutTree,
    /// An in-forest: every node has at most one successor (Theorem 3/4).
    InTree,
    /// A series-parallel order (Theorem 3/4).
    SeriesParallel,
    /// Anything else (Theorems 1/2).
    General,
}

impl GraphClass {
    /// Human-readable label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            GraphClass::Independent => "independent",
            GraphClass::Chain => "chain",
            GraphClass::OutTree => "out-tree",
            GraphClass::InTree => "in-tree",
            GraphClass::SeriesParallel => "series-parallel",
            GraphClass::General => "general",
        }
    }

    /// `true` if the class is covered by the SP/tree FPTAS of Lemma 7
    /// (everything except [`GraphClass::General`]; independent jobs are also
    /// SP but have their own, stronger allocator).
    pub fn admits_sp_fptas(&self) -> bool {
        !matches!(self, GraphClass::General)
    }
}

impl std::fmt::Display for GraphClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl Dag {
    /// `true` iff the graph has no edges.
    pub fn is_independent(&self) -> bool {
        self.num_edges() == 0
    }

    /// `true` iff every node has at most one immediate predecessor
    /// (the graph is a forest of out-trees rooted at its sources).
    pub fn is_out_forest(&self) -> bool {
        (0..self.num_nodes()).all(|v| self.in_degree(v) <= 1)
    }

    /// `true` iff every node has at most one immediate successor
    /// (a forest of in-trees).
    pub fn is_in_forest(&self) -> bool {
        (0..self.num_nodes()).all(|v| self.out_degree(v) <= 1)
    }

    /// `true` iff the graph is a disjoint union of chains.
    pub fn is_chain_forest(&self) -> bool {
        self.is_out_forest() && self.is_in_forest()
    }

    /// `true` iff the graph is one single chain covering all nodes.
    pub fn is_single_chain(&self) -> bool {
        self.num_nodes() > 0 && self.is_chain_forest() && self.num_edges() + 1 == self.num_nodes()
    }

    /// Returns the most specific [`GraphClass`] describing this DAG.
    ///
    /// Series-parallel membership is decided by [`crate::sp::SpDecomposition`],
    /// reached only by graphs that are not forests. It builds the transitive
    /// closure and its reverse (`O(n·m/64)` word operations and `n²/4`
    /// bytes), then costs `O(k·⌈n/64⌉)` word operations per set of `k` nodes
    /// it splits (see the [`crate::sp`] module docs); all other checks are
    /// linear.
    pub fn classify(&self) -> GraphClass {
        if self.is_independent() {
            return GraphClass::Independent;
        }
        if self.is_single_chain() {
            return GraphClass::Chain;
        }
        if self.is_out_forest() {
            return GraphClass::OutTree;
        }
        if self.is_in_forest() {
            return GraphClass::InTree;
        }
        if crate::sp::SpDecomposition::decompose(self).is_ok() {
            return GraphClass::SeriesParallel;
        }
        GraphClass::General
    }

    /// Roots of an out-forest (nodes without predecessors). For a general DAG
    /// this simply returns the sources.
    pub fn roots(&self) -> Vec<NodeId> {
        self.sources()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_class() {
        assert_eq!(Dag::independent(4).classify(), GraphClass::Independent);
        assert!(Dag::independent(4).is_independent());
    }

    #[test]
    fn chain_class() {
        let g = Dag::chain(5);
        assert!(g.is_single_chain());
        assert_eq!(g.classify(), GraphClass::Chain);
    }

    #[test]
    fn chain_forest_but_not_single_chain() {
        // Two disjoint chains 0->1 and 2->3.
        let g = Dag::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(g.is_chain_forest());
        assert!(!g.is_single_chain());
        assert_eq!(g.classify(), GraphClass::OutTree);
    }

    #[test]
    fn out_tree_class() {
        // Root 0 with children 1,2; 1 has children 3,4.
        let g = Dag::from_edges(5, &[(0, 1), (0, 2), (1, 3), (1, 4)]).unwrap();
        assert!(g.is_out_forest());
        assert!(!g.is_in_forest());
        assert_eq!(g.classify(), GraphClass::OutTree);
    }

    #[test]
    fn in_tree_class() {
        // Leaves 0,1 join into 2; 2,3 join into 4.
        let g = Dag::from_edges(5, &[(0, 2), (1, 2), (2, 4), (3, 4)]).unwrap();
        assert!(g.is_in_forest());
        assert!(!g.is_out_forest());
        assert_eq!(g.classify(), GraphClass::InTree);
    }

    #[test]
    fn diamond_is_series_parallel() {
        let g = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        assert_eq!(g.classify(), GraphClass::SeriesParallel);
    }

    #[test]
    fn n_graph_is_general() {
        // The forbidden "N": 0->2, 1->2, 1->3 (0 and 3 incomparable, 1 before
        // both 2 and 3, 0 only before 2).
        let g = Dag::from_edges(4, &[(0, 2), (1, 2), (1, 3)]).unwrap();
        assert_eq!(g.classify(), GraphClass::General);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(GraphClass::Independent.label(), "independent");
        assert_eq!(GraphClass::General.to_string(), "general");
        assert!(GraphClass::OutTree.admits_sp_fptas());
        assert!(!GraphClass::General.admits_sp_fptas());
    }
}
