//! A complete scheduling problem instance.

use crate::allocation::SystemConfig;
use crate::error::ModelError;
use crate::job::MoldableJob;
use crate::profile::JobProfile;
use crate::Result;
use mrls_dag::{Dag, GraphClass};
use serde::{Deserialize, Serialize};

/// A multi-resource moldable scheduling instance: the platform, the precedence
/// DAG, and one moldable job per DAG node.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    /// Resource capacities `P(1), …, P(d)`.
    pub system: SystemConfig,
    /// Precedence constraints; node `j` corresponds to `jobs[j]`.
    pub dag: Dag,
    /// The moldable jobs.
    pub jobs: Vec<MoldableJob>,
}

impl Instance {
    /// Creates an instance, checking that the job list matches the DAG.
    pub fn new(system: SystemConfig, dag: Dag, jobs: Vec<MoldableJob>) -> Result<Self> {
        if dag.num_nodes() != jobs.len() {
            return Err(ModelError::JobCountMismatch {
                dag_nodes: dag.num_nodes(),
                jobs: jobs.len(),
            });
        }
        Ok(Instance { system, dag, jobs })
    }

    /// The sub-instance over the jobs `ids` (strictly ascending) on
    /// `system`: job `i` of the result is job `ids[i]`, and every edge
    /// between two of them is kept. Costs O(sub-instance), not O(world).
    pub fn induced(&self, ids: &[usize], system: SystemConfig) -> Instance {
        let (dag, _) = self.dag.induced_subgraph_sorted(ids);
        let jobs = ids.iter().map(|&j| self.jobs[j].clone()).collect();
        Instance { system, dag, jobs }
    }

    /// Number of jobs `n`.
    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Number of resource types `d`.
    pub fn num_resource_types(&self) -> usize {
        self.system.num_resource_types()
    }

    /// Builds the non-dominated profile of every job (Equation 2). This is
    /// the input Phase 1 of the scheduling algorithm consumes.
    pub fn profiles(&self) -> Result<Vec<JobProfile>> {
        self.jobs
            .iter()
            .enumerate()
            .map(|(j, job)| job.profile(&self.system, j))
            .collect()
    }

    /// Classification of the precedence graph (drives which specialised
    /// allocator and which theorem applies).
    pub fn graph_class(&self) -> GraphClass {
        self.dag.classify()
    }

    /// Serialises the instance to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("instances are always serialisable")
    }

    /// Parses an instance from JSON.
    pub fn from_json(s: &str) -> std::result::Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exectime::ExecTimeSpec;
    use mrls_dag::Dag;

    fn jobs(n: usize) -> Vec<MoldableJob> {
        (0..n)
            .map(|i| {
                MoldableJob::new(
                    i,
                    ExecTimeSpec::Amdahl {
                        seq: 0.5,
                        work: vec![4.0, 2.0],
                    },
                )
            })
            .collect()
    }

    #[test]
    fn construction_checks_job_count() {
        let system = SystemConfig::new(vec![4, 4]).unwrap();
        let err = Instance::new(system.clone(), Dag::chain(3), jobs(2)).unwrap_err();
        assert!(matches!(err, ModelError::JobCountMismatch { .. }));
        let ok = Instance::new(system, Dag::chain(3), jobs(3)).unwrap();
        assert_eq!(ok.num_jobs(), 3);
        assert_eq!(ok.num_resource_types(), 2);
    }

    #[test]
    fn profiles_one_per_job() {
        let system = SystemConfig::new(vec![4, 4]).unwrap();
        let inst = Instance::new(system, Dag::independent(4), jobs(4)).unwrap();
        let profiles = inst.profiles().unwrap();
        assert_eq!(profiles.len(), 4);
        assert!(profiles.iter().all(|p| !p.is_empty()));
    }

    #[test]
    fn graph_class_passthrough() {
        let system = SystemConfig::new(vec![4, 4]).unwrap();
        let inst = Instance::new(system, Dag::independent(3), jobs(3)).unwrap();
        assert_eq!(inst.graph_class(), mrls_dag::GraphClass::Independent);
    }

    #[test]
    fn induced_keeps_order_inner_edges_and_the_given_system() {
        let system = SystemConfig::new(vec![4, 4]).unwrap();
        let dag = Dag::from_edges(5, &[(0, 2), (1, 2), (2, 4), (3, 4), (0, 3)]).unwrap();
        let inst = Instance::new(system, dag, jobs(5)).unwrap();
        let small = SystemConfig::new(vec![2, 3]).unwrap();
        let sub = inst.induced(&[0, 2, 4], small.clone());
        assert_eq!(sub.system, small);
        let names: Vec<&str> = sub.jobs.iter().map(|j| j.name.as_str()).collect();
        assert_eq!(names, ["job0", "job2", "job4"]);
        // (0, 2) and (2, 4) are kept; (1, 2), (3, 4) and (0, 3) lose an end.
        assert_eq!(sub.dag.edges().collect::<Vec<_>>(), [(0, 1), (1, 2)]);
        let empty = inst.induced(&[], inst.system.clone());
        assert_eq!((empty.num_jobs(), empty.dag.num_nodes()), (0, 0));
        assert_eq!(empty.system, inst.system);
    }

    #[test]
    fn json_roundtrip() {
        let system = SystemConfig::new(vec![4, 4]).unwrap();
        let inst = Instance::new(system, Dag::chain(3), jobs(3)).unwrap();
        let json = inst.to_json();
        let back = Instance::from_json(&json).unwrap();
        assert_eq!(inst, back);
    }
}
