//! The decomposition `SpDecomposition::decompose` replaced, kept for tests
//! only: every recursion level finds its components with the O(k²) pairwise
//! scan of `comparable`, and the series split orders and checks its
//! components pair by pair. Kept as it was apart from renames and never
//! improved; `decompose_is_pinned_to_the_reference` pins the production
//! decomposition to it.

use crate::error::DagError;
use crate::graph::{Dag, NodeId};
use crate::reachability::Reachability;
use crate::sp::{SpDecomposition, SpExpr};
use crate::Result;

/// The former `SpDecomposition::decompose`.
pub(crate) fn decompose_reference(dag: &Dag) -> Result<SpDecomposition> {
    if dag.num_nodes() == 0 {
        return Err(DagError::EmptyGraph);
    }
    let reach = dag.reachability();
    let all: Vec<NodeId> = (0..dag.num_nodes()).collect();
    let expr = decompose_set_reference(&all, &reach)?;
    Ok(SpDecomposition { expr })
}

/// Recursive Valdes–Tarjan–Lawler style decomposition of the sub-order induced
/// by `nodes`.
fn decompose_set_reference(nodes: &[NodeId], reach: &Reachability) -> Result<SpExpr> {
    debug_assert!(!nodes.is_empty());
    if nodes.len() == 1 {
        return Ok(SpExpr::Job(nodes[0]));
    }

    // --- Parallel split: connected components of the comparability graph ---
    let comp_components = components_reference(nodes, |u, v| reach.comparable(u, v));
    if comp_components.len() > 1 {
        let children = comp_components
            .into_iter()
            .map(|c| decompose_set_reference(&c, reach))
            .collect::<Result<Vec<_>>>()?;
        return Ok(SpExpr::parallel(children));
    }

    // --- Series split: connected components of the incomparability graph ---
    let incomp_components = components_reference(nodes, |u, v| !reach.comparable(u, v));
    if incomp_components.len() > 1 {
        // Order components by how many other components precede them (an
        // integer key, so the sort never sees an inconsistent comparator even
        // on malformed inputs), then verify every cross pair agrees.
        let reps: Vec<NodeId> = incomp_components.iter().map(|c| c[0]).collect();
        let mut keyed: Vec<(usize, Vec<NodeId>)> = incomp_components
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let preceding = reps
                    .iter()
                    .enumerate()
                    .filter(|&(j, &r)| j != i && reach.reaches(r, c[0]))
                    .count();
                (preceding, c)
            })
            .collect();
        keyed.sort_by_key(|(k, _)| *k);
        let ordered: Vec<Vec<NodeId>> = keyed.into_iter().map(|(_, c)| c).collect();
        for i in 0..ordered.len() {
            for j in (i + 1)..ordered.len() {
                for &u in &ordered[i] {
                    for &v in &ordered[j] {
                        if !reach.reaches(u, v) {
                            return Err(DagError::NotSeriesParallel);
                        }
                    }
                }
            }
        }
        let children = ordered
            .into_iter()
            .map(|c| decompose_set_reference(&c, reach))
            .collect::<Result<Vec<_>>>()?;
        return Ok(SpExpr::series(children));
    }

    Err(DagError::NotSeriesParallel)
}

/// Connected components of the undirected graph over `nodes` whose adjacency
/// is given by `adjacent`. Components are returned with their nodes in the
/// original relative order.
fn components_reference<F>(nodes: &[NodeId], adjacent: F) -> Vec<Vec<NodeId>>
where
    F: Fn(NodeId, NodeId) -> bool,
{
    let k = nodes.len();
    let mut comp = vec![usize::MAX; k];
    let mut num_comp = 0usize;
    for start in 0..k {
        if comp[start] != usize::MAX {
            continue;
        }
        let id = num_comp;
        num_comp += 1;
        let mut stack = vec![start];
        comp[start] = id;
        while let Some(i) = stack.pop() {
            for j in 0..k {
                if comp[j] == usize::MAX && adjacent(nodes[i], nodes[j]) {
                    comp[j] = id;
                    stack.push(j);
                }
            }
        }
    }
    let mut out = vec![Vec::new(); num_comp];
    for (i, &c) in comp.iter().enumerate() {
        out[c].push(nodes[i]);
    }
    out
}
