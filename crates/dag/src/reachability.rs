//! Reachability, transitive closure and transitive reduction.
//!
//! The series-parallel recogniser works on the *partial order* induced by the
//! DAG, i.e. its transitive closure. Closure rows are stored as dense bitsets
//! (`Vec<u64>` words) so that the recogniser's repeated comparability queries
//! stay cheap even for a few thousand jobs.

use crate::graph::{Dag, NodeId};

/// Dense transitive-closure matrix of a [`Dag`].
///
/// `reaches(u, v)` answers "is there a directed path from `u` to `v`?" (with
/// `u != v`; a node does not reach itself).
#[derive(Debug, Clone)]
pub struct Reachability {
    n: usize,
    words: usize,
    /// Row-major bitset: bit `v` of row `u` is set iff `u` reaches `v`.
    bits: Vec<u64>,
}

impl Reachability {
    /// Computes the transitive closure of `dag` in reverse topological order.
    pub fn new(dag: &Dag) -> Self {
        let n = dag.num_nodes();
        let words = n.div_ceil(64);
        let mut bits = vec![0u64; n * words];
        let order = dag.topological_order();
        // Row u = union of rows of successors, plus the successors
        // themselves, built on one scratch row to appease the borrow checker.
        let mut row = vec![0u64; words];
        for &u in order.iter().rev() {
            row.fill(0);
            for &v in dag.successors(u) {
                row[v / 64] |= 1u64 << (v % 64);
                let src = &bits[v * words..(v + 1) * words];
                for (r, s) in row.iter_mut().zip(src.iter()) {
                    *r |= *s;
                }
            }
            bits[u * words..(u + 1) * words].copy_from_slice(&row);
        }
        Reachability { n, words, bits }
    }

    /// Row `u` of the closure as bitset words: bit `v % 64` of word `v / 64`
    /// is set iff `u` reaches `v`.
    #[inline]
    pub(crate) fn row(&self, u: NodeId) -> &[u64] {
        &self.bits[u * self.words..(u + 1) * self.words]
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Returns `true` iff there is a directed path from `u` to `v` (`u != v`).
    #[inline]
    pub fn reaches(&self, u: NodeId, v: NodeId) -> bool {
        debug_assert!(u < self.n && v < self.n);
        (self.bits[u * self.words + v / 64] >> (v % 64)) & 1 == 1
    }

    /// Returns `true` iff `u` and `v` are comparable in the induced partial
    /// order (one reaches the other). A node is *not* comparable to itself by
    /// this definition.
    #[inline]
    pub fn comparable(&self, u: NodeId, v: NodeId) -> bool {
        u != v && (self.reaches(u, v) || self.reaches(v, u))
    }

    /// Number of ordered pairs `(u, v)` with `u` reaching `v`.
    pub fn num_reachable_pairs(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// All descendants of `u` (nodes reachable from `u`), ascending.
    pub fn descendants(&self, u: NodeId) -> Vec<NodeId> {
        (0..self.n).filter(|&v| self.reaches(u, v)).collect()
    }

    /// All ancestors of `v` (nodes that reach `v`), ascending.
    pub fn ancestors(&self, v: NodeId) -> Vec<NodeId> {
        (0..self.n).filter(|&u| self.reaches(u, v)).collect()
    }
}

impl Dag {
    /// Computes the transitive closure as a [`Reachability`] matrix.
    pub fn reachability(&self) -> Reachability {
        Reachability::new(self)
    }

    /// Returns the transitive reduction of the DAG: the unique minimal edge
    /// set with the same reachability relation. An edge `u -> v` is redundant
    /// iff some other successor of `u` reaches `v`.
    pub fn transitive_reduction(&self) -> Dag {
        let reach = self.reachability();
        let mut keep = Vec::new();
        for (u, v) in self.edges() {
            let redundant = self
                .successors(u)
                .iter()
                .any(|&w| w != v && reach.reaches(w, v));
            if !redundant {
                keep.push((u, v));
            }
        }
        Dag::from_edges(self.num_nodes(), &keep)
            .expect("a subset of the edges of a DAG is still a DAG")
    }

    /// Returns the transitive closure as an explicit DAG (every reachable pair
    /// becomes an edge). Mostly useful for tests and the SP recogniser.
    pub fn transitive_closure(&self) -> Dag {
        let reach = self.reachability();
        let mut edges = Vec::new();
        for u in 0..self.num_nodes() {
            for v in 0..self.num_nodes() {
                if reach.reaches(u, v) {
                    edges.push((u, v));
                }
            }
        }
        Dag::from_edges(self.num_nodes(), &edges).expect("the closure of a DAG is a DAG")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn diamond_reachability() {
        let r = diamond().reachability();
        assert!(r.reaches(0, 3));
        assert!(r.reaches(0, 1));
        assert!(!r.reaches(1, 2));
        assert!(!r.reaches(3, 0));
        assert!(!r.reaches(0, 0));
        assert!(r.comparable(0, 3));
        assert!(!r.comparable(1, 2));
        assert!(!r.comparable(2, 2));
    }

    #[test]
    fn chain_reachability_counts() {
        let g = Dag::chain(5);
        let r = g.reachability();
        // 4+3+2+1 reachable pairs
        assert_eq!(r.num_reachable_pairs(), 10);
        assert_eq!(r.descendants(0), vec![1, 2, 3, 4]);
        assert_eq!(r.ancestors(4), vec![0, 1, 2, 3]);
    }

    #[test]
    fn independent_reachability_empty() {
        let r = Dag::independent(3).reachability();
        assert_eq!(r.num_reachable_pairs(), 0);
        assert!(r.descendants(0).is_empty());
    }

    #[test]
    fn transitive_reduction_removes_shortcut() {
        // 0->1->2 plus shortcut 0->2; the reduction drops 0->2.
        let g = Dag::from_edges(3, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        let red = g.transitive_reduction();
        assert_eq!(red.num_edges(), 2);
        assert!(red.has_edge(0, 1));
        assert!(red.has_edge(1, 2));
        assert!(!red.has_edge(0, 2));
    }

    #[test]
    fn transitive_reduction_preserves_reachability() {
        let g = Dag::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (0, 3),
                (3, 4),
                (1, 4),
                (4, 5),
            ],
        )
        .unwrap();
        let red = g.transitive_reduction();
        let r1 = g.reachability();
        let r2 = red.reachability();
        for u in 0..6 {
            for v in 0..6 {
                assert_eq!(r1.reaches(u, v), r2.reaches(u, v), "pair {u}->{v}");
            }
        }
        assert!(red.num_edges() <= g.num_edges());
    }

    #[test]
    fn transitive_closure_adds_shortcut() {
        let g = Dag::chain(4);
        let clo = g.transitive_closure();
        assert_eq!(clo.num_edges(), 6);
        assert!(clo.has_edge(0, 3));
    }

    #[test]
    fn closure_of_reduction_matches_closure() {
        let g = diamond();
        let a = g.transitive_closure();
        let b = g.transitive_reduction().transitive_closure();
        assert_eq!(a, b);
    }

    #[test]
    fn large_chain_bitset_boundaries() {
        // Exercises multi-word bitset rows (n > 64).
        let g = Dag::chain(130);
        let r = g.reachability();
        assert!(r.reaches(0, 129));
        assert!(r.reaches(63, 64));
        assert!(r.reaches(64, 128));
        assert!(!r.reaches(129, 0));
        assert_eq!(r.num_reachable_pairs(), 130 * 129 / 2);
    }
}
