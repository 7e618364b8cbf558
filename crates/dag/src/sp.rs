//! Series-parallel decomposition of precedence graphs.
//!
//! The paper proves improved ratios (Theorems 3 and 4) when the precedence
//! constraints form a *series-parallel graph or tree*, using the FPTAS of
//! Lepère, Trystram and Woeginger (Lemma 7). That FPTAS is a dynamic program
//! over the series-parallel decomposition, which this module computes.
//!
//! ## Modelling note
//!
//! We work with **series-parallel partial orders** (a.k.a. N-free orders):
//! * a single job is series-parallel;
//! * the *series* composition `S(G1, …, Gk)` puts every job of `Gi` before
//!   every job of `Gj` for `i < j`;
//! * the *parallel* composition `P(G1, …, Gk)` is the disjoint union.
//!
//! This is the standard formulation the Lepère et al. dynamic program is
//! stated for; it contains chains, in-/out-trees (forests) and independent
//! sets, and the cost recurrences (`C` adds under series and maxes under
//! parallel, `A` always adds) are exactly those used by the FPTAS. The
//! two-terminal "merged source/sink" definition quoted in the paper describes
//! the same family up to the bookkeeping of shared endpoint jobs; we document
//! this substitution in `DESIGN.md`.
//!
//! Recognition follows Valdes–Tarjan–Lawler: a partial order is
//! series-parallel iff it can be recursively split either into the connected
//! components of its *comparability* graph (parallel composition) or into the
//! linearly-ordered connected components of its *incomparability* graph
//! (series composition); otherwise it contains the forbidden "N" sub-order.
//!
//! ## Cost
//!
//! The recogniser builds the transitive closure and its reverse once, as
//! bitset rows of `⌈n/64⌉` words each. Every set it splits is convex (it
//! holds every node on a path between two of its nodes), so the components
//! of its comparability graph are those of its induced edges, found in time
//! linear in the edges. The incomparability components come from a search
//! that takes each node's unvisited incomparable set a word at a time, as the
//! set's mask minus the node's two closure rows. Ordering and checking the
//! series components also works on whole words. A set of `k` nodes thus
//! costs `O(k·⌈n/64⌉)` word operations, where the pairwise scan it replaced
//! made `O(k²)` `comparable` calls. Components keep their numbering by
//! first node and their nodes' input order, so the expression is the one
//! the pairwise scan gives: the test-only `reference` submodule keeps that
//! scan, and `decompose_is_pinned_to_the_reference` compares the two.

use crate::error::DagError;
use crate::graph::{Dag, DagBuilder, NodeId};
use crate::reachability::Reachability;
use crate::Result;
use serde::{Deserialize, Serialize};

#[cfg(test)]
mod reference;

/// A series-parallel decomposition expression whose leaves are jobs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SpExpr {
    /// A single job.
    Job(NodeId),
    /// Series composition: every job of child `i` precedes every job of child
    /// `i + 1`.
    Series(Vec<SpExpr>),
    /// Parallel composition: children are mutually unordered.
    Parallel(Vec<SpExpr>),
}

impl SpExpr {
    /// Builds a series composition, flattening nested series children.
    pub fn series(children: Vec<SpExpr>) -> SpExpr {
        let mut flat = Vec::with_capacity(children.len());
        for c in children {
            match c {
                SpExpr::Series(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            flat.pop().expect("length checked")
        } else {
            SpExpr::Series(flat)
        }
    }

    /// Builds a parallel composition, flattening nested parallel children.
    pub fn parallel(children: Vec<SpExpr>) -> SpExpr {
        let mut flat = Vec::with_capacity(children.len());
        for c in children {
            match c {
                SpExpr::Parallel(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        if flat.len() == 1 {
            flat.pop().expect("length checked")
        } else {
            SpExpr::Parallel(flat)
        }
    }

    /// All jobs appearing in the expression, in left-to-right order.
    pub fn jobs(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.collect_jobs(&mut out);
        out
    }

    fn collect_jobs(&self, out: &mut Vec<NodeId>) {
        match self {
            SpExpr::Job(j) => out.push(*j),
            SpExpr::Series(cs) | SpExpr::Parallel(cs) => {
                for c in cs {
                    c.collect_jobs(out);
                }
            }
        }
    }

    /// Number of jobs in the expression.
    pub fn num_jobs(&self) -> usize {
        match self {
            SpExpr::Job(_) => 1,
            SpExpr::Series(cs) | SpExpr::Parallel(cs) => cs.iter().map(SpExpr::num_jobs).sum(),
        }
    }

    /// Depth of the expression tree (a single job has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            SpExpr::Job(_) => 1,
            SpExpr::Series(cs) | SpExpr::Parallel(cs) => {
                1 + cs.iter().map(SpExpr::depth).max().unwrap_or(0)
            }
        }
    }

    /// Minimal (source) jobs of the induced order.
    pub fn minimal_jobs(&self) -> Vec<NodeId> {
        match self {
            SpExpr::Job(j) => vec![*j],
            SpExpr::Series(cs) => cs.first().map(SpExpr::minimal_jobs).unwrap_or_default(),
            SpExpr::Parallel(cs) => cs.iter().flat_map(SpExpr::minimal_jobs).collect(),
        }
    }

    /// Maximal (sink) jobs of the induced order.
    pub fn maximal_jobs(&self) -> Vec<NodeId> {
        match self {
            SpExpr::Job(j) => vec![*j],
            SpExpr::Series(cs) => cs.last().map(SpExpr::maximal_jobs).unwrap_or_default(),
            SpExpr::Parallel(cs) => cs.iter().flat_map(SpExpr::maximal_jobs).collect(),
        }
    }

    /// Builds the (transitively reduced) DAG induced by the expression over
    /// `num_nodes` jobs. Jobs not mentioned in the expression become isolated
    /// nodes.
    pub fn to_dag(&self, num_nodes: usize) -> Result<Dag> {
        let mut builder = DagBuilder::new(num_nodes);
        self.add_edges(&mut builder)?;
        builder.build()
    }

    fn add_edges(&self, builder: &mut DagBuilder) -> Result<()> {
        match self {
            SpExpr::Job(_) => Ok(()),
            SpExpr::Parallel(cs) => {
                for c in cs {
                    c.add_edges(builder)?;
                }
                Ok(())
            }
            SpExpr::Series(cs) => {
                for c in cs {
                    c.add_edges(builder)?;
                }
                for w in cs.windows(2) {
                    for &u in &w[0].maximal_jobs() {
                        for &v in &w[1].minimal_jobs() {
                            builder.add_edge(u, v)?;
                        }
                    }
                }
                Ok(())
            }
        }
    }
}

/// The result of successfully decomposing a DAG into a series-parallel
/// expression.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpDecomposition {
    /// The decomposition expression; its leaves are exactly the DAG's nodes.
    pub expr: SpExpr,
}

impl SpDecomposition {
    /// Attempts to decompose `dag` as a series-parallel order.
    ///
    /// Returns [`DagError::NotSeriesParallel`] if the induced partial order
    /// contains the forbidden "N" pattern, and [`DagError::EmptyGraph`] for a
    /// graph without nodes.
    pub fn decompose(dag: &Dag) -> Result<SpDecomposition> {
        if dag.num_nodes() == 0 {
            return Err(DagError::EmptyGraph);
        }
        let all: Vec<NodeId> = (0..dag.num_nodes()).collect();
        let expr = Splitter::new(dag).decompose_set(&all)?;
        Ok(SpDecomposition { expr })
    }

    /// Verifies that the decomposition's leaves are exactly `0..num_nodes`,
    /// each appearing once.
    pub fn covers_all_jobs(&self, num_nodes: usize) -> bool {
        let mut seen = vec![false; num_nodes];
        for j in self.expr.jobs() {
            if j >= num_nodes || seen[j] {
                return false;
            }
            seen[j] = true;
        }
        seen.into_iter().all(|s| s)
    }
}

/// The closure rows and the scratch space of one decomposition.
struct Splitter<'a> {
    dag: &'a Dag,
    /// Bit `v` of row `u` is set iff `u` reaches `v`.
    descendants: Reachability,
    /// Bit `v` of row `u` is set iff `v` reaches `u`.
    ancestors: Reachability,
    /// A bitset over every node, all zero between the steps of a split.
    mask: Vec<u64>,
    /// The component of each node of the set being split.
    label: Vec<usize>,
    stack: Vec<NodeId>,
    /// The mask's words that may still hold a node.
    active: Vec<usize>,
}

impl<'a> Splitter<'a> {
    fn new(dag: &'a Dag) -> Self {
        let n = dag.num_nodes();
        Splitter {
            dag,
            descendants: dag.reachability(),
            ancestors: dag.reversed().reachability(),
            mask: vec![0; n.div_ceil(64)],
            label: vec![0; n],
            stack: Vec::new(),
            active: Vec::new(),
        }
    }

    /// Recursive Valdes–Tarjan–Lawler style decomposition of the sub-order
    /// induced by `nodes`, a convex set (it holds every node on a path
    /// between two of its nodes): the whole graph, and each component of a
    /// split of a convex set.
    fn decompose_set(&mut self, nodes: &[NodeId]) -> Result<SpExpr> {
        debug_assert!(!nodes.is_empty());
        if nodes.len() == 1 {
            return Ok(SpExpr::Job(nodes[0]));
        }

        // --- Parallel split: connected components of the comparability
        // graph, which on a convex set are those of the induced edges ---
        let comp_components = self.induced_components(nodes);
        if comp_components.len() > 1 {
            let children = comp_components
                .iter()
                .map(|c| self.decompose_set(c))
                .collect::<Result<Vec<_>>>()?;
            return Ok(SpExpr::parallel(children));
        }

        // --- Series split: connected components of the incomparability
        // graph, put in order and checked ---
        let incomp_components = self.incomparability_components(nodes);
        if incomp_components.len() > 1 {
            let ordered = self.series_order(incomp_components)?;
            let children = ordered
                .iter()
                .map(|c| self.decompose_set(c))
                .collect::<Result<Vec<_>>>()?;
            return Ok(SpExpr::series(children));
        }

        Err(DagError::NotSeriesParallel)
    }

    /// The weakly connected components of the edges induced on `nodes`.
    fn induced_components(&mut self, nodes: &[NodeId]) -> Vec<Vec<NodeId>> {
        self.set_bits(nodes);
        let mut count = 0;
        for &start in nodes {
            if !self.take(start, count) {
                continue;
            }
            while let Some(u) = self.stack.pop() {
                let dag = self.dag;
                for &w in dag.successors(u).iter().chain(dag.predecessors(u)) {
                    self.take(w, count);
                }
            }
            count += 1;
        }
        self.group(nodes, count)
    }

    /// The connected components of the incomparability graph on `nodes`,
    /// found a word at a time: a node's neighbours are the unvisited nodes
    /// of the set outside its closure rows. Words drop out of the scan once
    /// every node in them is visited.
    fn incomparability_components(&mut self, nodes: &[NodeId]) -> Vec<Vec<NodeId>> {
        self.set_bits(nodes);
        self.active.clear();
        self.active.extend(word_range(nodes.iter().copied()));
        let mut count = 0;
        for &start in nodes {
            if !self.take(start, count) {
                continue;
            }
            while let Some(u) = self.stack.pop() {
                let (down, up) = (self.descendants.row(u), self.ancestors.row(u));
                let mut i = 0;
                while i < self.active.len() {
                    let w = self.active[i];
                    let mut fresh = self.mask[w] & !(down[w] | up[w]);
                    self.mask[w] &= !fresh;
                    while fresh != 0 {
                        let v = w * 64 + fresh.trailing_zeros() as usize;
                        self.label[v] = count;
                        self.stack.push(v);
                        fresh &= fresh - 1;
                    }
                    if self.mask[w] == 0 {
                        self.active.swap_remove(i);
                    } else {
                        i += 1;
                    }
                }
            }
            count += 1;
        }
        self.group(nodes, count)
    }

    /// Orders the series components by how many other components' first
    /// nodes precede their own first node (an integer key, so the stable
    /// sort never sees an inconsistent comparator even on malformed
    /// inputs), then checks that every node of each component reaches every
    /// node of the components after it.
    fn series_order(&mut self, components: Vec<Vec<NodeId>>) -> Result<Vec<Vec<NodeId>>> {
        let reps: Vec<NodeId> = components.iter().map(|c| c[0]).collect();
        let words = word_range(reps.iter().copied());
        self.set_bits(&reps);
        let mut keyed: Vec<(usize, Vec<NodeId>)> = components
            .into_iter()
            .map(|c| {
                let up = self.ancestors.row(c[0]);
                let preceding = words
                    .clone()
                    .map(|w| (up[w] & self.mask[w]).count_ones() as usize)
                    .sum();
                (preceding, c)
            })
            .collect();
        self.mask[words].fill(0);
        keyed.sort_by_key(|(k, _)| *k);
        let ordered: Vec<Vec<NodeId>> = keyed.into_iter().map(|(_, c)| c).collect();

        // `mask` holds the components after the one being checked.
        let words = word_range(ordered.iter().flatten().copied());
        let (last, rest) = ordered.split_last().expect("a series split has components");
        self.set_bits(last);
        for component in rest.iter().rev() {
            for &u in component {
                let down = self.descendants.row(u);
                if words.clone().any(|w| self.mask[w] & !down[w] != 0) {
                    return Err(DagError::NotSeriesParallel);
                }
            }
            self.set_bits(component);
        }
        self.mask[words].fill(0);
        Ok(ordered)
    }

    /// Clears `v` from the mask and labels it `component` if it was set.
    #[inline]
    fn take(&mut self, v: NodeId, component: usize) -> bool {
        let (w, bit) = (v / 64, 1u64 << (v % 64));
        if self.mask[w] & bit == 0 {
            return false;
        }
        self.mask[w] &= !bit;
        self.label[v] = component;
        self.stack.push(v);
        true
    }

    fn set_bits(&mut self, nodes: &[NodeId]) {
        for &v in nodes {
            self.mask[v / 64] |= 1 << (v % 64);
        }
    }

    /// `nodes` grouped by label, each group in `nodes` order. Labels count
    /// up from 0 in the order of each component's first node in `nodes`.
    fn group(&self, nodes: &[NodeId], count: usize) -> Vec<Vec<NodeId>> {
        let mut out = vec![Vec::new(); count];
        for &v in nodes {
            out[self.label[v]].push(v);
        }
        out
    }
}

/// The words of a node bitset that hold `nodes`.
fn word_range(nodes: impl IntoIterator<Item = NodeId>) -> std::ops::Range<usize> {
    let (lo, hi) = nodes
        .into_iter()
        .fold((usize::MAX, 0), |(lo, hi), v| (lo.min(v), hi.max(v)));
    lo / 64..hi / 64 + 1
}

impl Dag {
    /// `true` iff the precedence graph is a series-parallel order.
    pub fn is_series_parallel(&self) -> bool {
        self.num_nodes() == 0 || SpDecomposition::decompose(self).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Dag {
        Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn single_job() {
        let g = Dag::independent(1);
        let d = SpDecomposition::decompose(&g).unwrap();
        assert_eq!(d.expr, SpExpr::Job(0));
        assert!(d.covers_all_jobs(1));
    }

    #[test]
    fn independent_is_parallel() {
        let g = Dag::independent(3);
        let d = SpDecomposition::decompose(&g).unwrap();
        match &d.expr {
            SpExpr::Parallel(cs) => assert_eq!(cs.len(), 3),
            other => panic!("expected parallel, got {other:?}"),
        }
        assert!(d.covers_all_jobs(3));
    }

    #[test]
    fn chain_is_series() {
        let g = Dag::chain(4);
        let d = SpDecomposition::decompose(&g).unwrap();
        match &d.expr {
            SpExpr::Series(cs) => assert_eq!(cs.len(), 4),
            other => panic!("expected series, got {other:?}"),
        }
    }

    #[test]
    fn diamond_decomposes() {
        let d = SpDecomposition::decompose(&diamond()).unwrap();
        assert!(d.covers_all_jobs(4));
        assert_eq!(d.expr.num_jobs(), 4);
        // Root must be a series with the fork in the middle.
        match &d.expr {
            SpExpr::Series(cs) => {
                assert_eq!(cs.len(), 3);
                assert_eq!(cs[0], SpExpr::Job(0));
                assert_eq!(cs[2], SpExpr::Job(3));
                match &cs[1] {
                    SpExpr::Parallel(ps) => assert_eq!(ps.len(), 2),
                    other => panic!("middle should be parallel, got {other:?}"),
                }
            }
            other => panic!("expected series root, got {other:?}"),
        }
    }

    #[test]
    fn n_graph_rejected() {
        let g = Dag::from_edges(4, &[(0, 2), (1, 2), (1, 3)]).unwrap();
        assert_eq!(
            SpDecomposition::decompose(&g).unwrap_err(),
            DagError::NotSeriesParallel
        );
        assert!(!g.is_series_parallel());
    }

    #[test]
    fn out_tree_decomposes() {
        let g = Dag::from_edges(7, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)]).unwrap();
        let d = SpDecomposition::decompose(&g).unwrap();
        assert!(d.covers_all_jobs(7));
    }

    #[test]
    fn empty_graph_error() {
        assert_eq!(
            SpDecomposition::decompose(&Dag::independent(0)).unwrap_err(),
            DagError::EmptyGraph
        );
        assert!(Dag::independent(0).is_series_parallel());
    }

    #[test]
    fn expression_roundtrip_to_dag() {
        // S(0, P(1, S(2, 3)), 4)
        let expr = SpExpr::series(vec![
            SpExpr::Job(0),
            SpExpr::parallel(vec![
                SpExpr::Job(1),
                SpExpr::series(vec![SpExpr::Job(2), SpExpr::Job(3)]),
            ]),
            SpExpr::Job(4),
        ]);
        let dag = expr.to_dag(5).unwrap();
        assert!(dag.is_series_parallel());
        let reach = dag.reachability();
        assert!(reach.reaches(0, 1));
        assert!(reach.reaches(0, 4));
        assert!(reach.reaches(2, 3));
        assert!(reach.reaches(3, 4));
        assert!(!reach.comparable(1, 2));
        assert!(!reach.comparable(1, 3));
        // Re-decomposition covers all jobs.
        let d = SpDecomposition::decompose(&dag).unwrap();
        assert!(d.covers_all_jobs(5));
    }

    #[test]
    fn series_flattening() {
        let e = SpExpr::series(vec![
            SpExpr::series(vec![SpExpr::Job(0), SpExpr::Job(1)]),
            SpExpr::Job(2),
        ]);
        match e {
            SpExpr::Series(cs) => assert_eq!(cs.len(), 3),
            other => panic!("expected flattened series, got {other:?}"),
        }
    }

    #[test]
    fn parallel_flattening_and_singleton() {
        let e = SpExpr::parallel(vec![SpExpr::Job(7)]);
        assert_eq!(e, SpExpr::Job(7));
        let e2 = SpExpr::parallel(vec![
            SpExpr::parallel(vec![SpExpr::Job(0), SpExpr::Job(1)]),
            SpExpr::Job(2),
        ]);
        assert_eq!(e2.num_jobs(), 3);
    }

    #[test]
    fn minimal_maximal_jobs() {
        let expr = SpExpr::series(vec![
            SpExpr::parallel(vec![SpExpr::Job(0), SpExpr::Job(1)]),
            SpExpr::Job(2),
        ]);
        let mut mins = expr.minimal_jobs();
        mins.sort_unstable();
        assert_eq!(mins, vec![0, 1]);
        assert_eq!(expr.maximal_jobs(), vec![2]);
        assert_eq!(expr.depth(), 3);
    }

    /// SplitMix64, the fixed-seed generator of the decomposition pin.
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `lo..=hi`.
        fn range(&mut self, lo: usize, hi: usize) -> usize {
            lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
        }

        fn shuffled(&mut self, n: usize) -> Vec<NodeId> {
            let mut ids: Vec<NodeId> = (0..n).collect();
            for i in (1..n).rev() {
                ids.swap(i, self.range(0, i));
            }
            ids
        }
    }

    /// A random SP expression over `jobs`, split at random points.
    fn random_expr(rng: &mut Rng, jobs: &[NodeId]) -> SpExpr {
        if jobs.len() == 1 {
            return SpExpr::Job(jobs[0]);
        }
        let parts = rng.range(2, jobs.len().min(4));
        let mut cuts: Vec<usize> = (0..parts - 1)
            .map(|_| rng.range(1, jobs.len() - 1))
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut children = Vec::new();
        let mut from = 0;
        for cut in cuts.into_iter().chain(std::iter::once(jobs.len())) {
            children.push(random_expr(rng, &jobs[from..cut]));
            from = cut;
        }
        if rng.range(0, 1) == 0 {
            SpExpr::series(children)
        } else {
            SpExpr::parallel(children)
        }
    }

    /// A random SP order on `n` shuffled ids, with some transitive edges
    /// added half the time (the order, and so its decomposition, is the
    /// same either way).
    fn random_sp(rng: &mut Rng, n: usize) -> Dag {
        let ids = rng.shuffled(n);
        let dag = random_expr(rng, &ids).to_dag(n).unwrap();
        if rng.range(0, 1) == 0 {
            return dag;
        }
        let reach = dag.reachability();
        let mut edges: Vec<(NodeId, NodeId)> = dag.edges().collect();
        for _ in 0..n {
            let (u, v) = (rng.range(0, n - 1), rng.range(0, n - 1));
            if reach.reaches(u, v) {
                edges.push((u, v));
            }
        }
        Dag::from_edges(n, &edges).unwrap()
    }

    /// A random out-forest on `n` shuffled ids: each node but the first
    /// hangs under an earlier one, or starts a new tree one time in ten.
    fn random_out_forest(rng: &mut Rng, n: usize) -> Dag {
        let ids = rng.shuffled(n);
        let mut edges = Vec::new();
        for i in 1..n {
            if rng.range(0, 9) != 0 {
                edges.push((ids[rng.range(0, i - 1)], ids[i]));
            }
        }
        Dag::from_edges(n, &edges).unwrap()
    }

    fn random_chain(rng: &mut Rng, n: usize) -> Dag {
        let ids = rng.shuffled(n);
        let edges: Vec<(NodeId, NodeId)> = ids.windows(2).map(|w| (w[0], w[1])).collect();
        Dag::from_edges(n, &edges).unwrap()
    }

    /// `stages` layers of `width` shuffled ids between join nodes.
    fn random_fork_join(rng: &mut Rng, width: usize, stages: usize) -> Dag {
        let n = stages * (width + 1) + 1;
        let ids = rng.shuffled(n);
        let mut edges = Vec::new();
        for s in 0..stages {
            let join = ids[s * (width + 1)];
            let next = ids[(s + 1) * (width + 1)];
            for k in 1..=width {
                edges.push((join, ids[s * (width + 1) + k]));
                edges.push((ids[s * (width + 1) + k], next));
            }
        }
        Dag::from_edges(n, &edges).unwrap()
    }

    /// A random DAG on `n` shuffled ids: each forward pair is an edge with
    /// probability `per_mille`/1000. Most are not series-parallel.
    fn random_dag(rng: &mut Rng, n: usize, per_mille: usize) -> Dag {
        let ids = rng.shuffled(n);
        let mut edges = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                if rng.range(1, 1000) <= per_mille {
                    edges.push((ids[i], ids[j]));
                }
            }
        }
        Dag::from_edges(n, &edges).unwrap()
    }

    #[test]
    fn decompose_is_pinned_to_the_reference() {
        let mut rng = Rng(0x005e_71e5);
        let (mut ok, mut err) = (0, 0);
        for k in 0..600 {
            let n = rng.range(1, if k % 5 == 0 { 200 } else { 70 });
            let dag = match k % 6 {
                0 | 1 => random_sp(&mut rng, n),
                2 => random_out_forest(&mut rng, n),
                3 => random_out_forest(&mut rng, n).reversed(),
                4 if k % 4 == 0 => random_chain(&mut rng, n),
                4 => {
                    let (width, stages) = (rng.range(1, 12), rng.range(1, 6));
                    random_fork_join(&mut rng, width, stages)
                }
                _ => random_dag(&mut rng, n, [20, 60, 150][k % 3]),
            };
            let got = SpDecomposition::decompose(&dag);
            assert_eq!(
                got,
                reference::decompose_reference(&dag),
                "graph {k}: {dag:?}"
            );
            match got {
                Ok(d) => {
                    assert!(d.covers_all_jobs(dag.num_nodes()));
                    ok += 1;
                }
                Err(_) => err += 1,
            }
        }
        assert!(ok >= 400 && err >= 50, "{ok} series-parallel, {err} not");
    }

    #[test]
    fn decompose_matches_original_order() {
        // Build a moderately complex SP dag and check the decomposition
        // reproduces exactly the same partial order.
        let expr = SpExpr::series(vec![
            SpExpr::Job(0),
            SpExpr::parallel(vec![
                SpExpr::series(vec![SpExpr::Job(1), SpExpr::Job(2)]),
                SpExpr::series(vec![
                    SpExpr::Job(3),
                    SpExpr::parallel(vec![SpExpr::Job(4), SpExpr::Job(5)]),
                ]),
            ]),
            SpExpr::Job(6),
        ]);
        let dag = expr.to_dag(7).unwrap();
        let decomp = SpDecomposition::decompose(&dag).unwrap();
        let rebuilt = decomp.expr.to_dag(7).unwrap();
        assert_eq!(
            dag.transitive_closure(),
            rebuilt.transitive_closure(),
            "decomposition must induce the same partial order"
        );
    }
}
