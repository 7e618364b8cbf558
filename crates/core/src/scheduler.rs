//! The complete two-phase multi-resource scheduling algorithm.
//!
//! [`MrlsScheduler`] wires together Phase 1 (resource allocation + the
//! µ-adjustment of Equation 5) and Phase 2 (multi-resource list scheduling),
//! picking the allocator and the parameters `µ`, `ρ`, `ε` according to the
//! graph class exactly as the theorems prescribe:
//!
//! | graph class          | allocator                 | parameters            | guarantee (Table 1) |
//! |-----------------------|---------------------------|-----------------------|---------------------|
//! | general DAG           | LP relaxation + rounding  | Theorem 1/2 `µ*, ρ*`  | `φd + 2√(φd) + 1`, `d + O(d^{2/3})` |
//! | series-parallel / tree| SP FPTAS                  | Theorem 3/4 `µ*`      | `(1+ε)(φd+1)`, `(1+ε)(d+2√(d−1))` |
//! | independent           | exact `L_min` allocator   | Theorem 5 `µ*`        | `1.619d+1`, `d+2√(d−1)` |

use crate::allocators::heuristics::HeuristicRule;
use crate::allocators::{
    adjust_allocation, Allocator, HeuristicAllocator, IndependentOptimalAllocator,
    LpRoundingAllocator, SpFptasAllocator,
};
use crate::bounds::{combinatorial_lower_bound, LowerBounds};
use crate::list_scheduler::ListScheduler;
use crate::priority::PriorityRule;
use crate::schedule::Schedule;
use crate::theory;
use crate::Result;
use mrls_dag::GraphClass;
use mrls_model::{AllocationDecision, Instance, JobProfile};
use serde::{Deserialize, Serialize};

/// Which Phase-1 allocator to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AllocatorKind {
    /// Pick automatically from the graph class (the paper's recipe).
    Auto,
    /// Always use the LP relaxation + rounding (general DAGs, Theorems 1/2).
    LpRounding,
    /// Always use the SP/tree FPTAS (Theorems 3/4); errors if the graph is
    /// not series-parallel.
    SpFptas,
    /// Always use the exact independent-job allocator (Theorem 5); errors if
    /// the graph has edges.
    IndependentOptimal,
    /// Per-job fastest allocation (baseline).
    MinTime,
    /// Per-job cheapest allocation (baseline).
    MinArea,
    /// Per-job `min max(t, a)` allocation (baseline).
    MinLocalMax,
}

/// Configuration of the two-phase scheduler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MrlsConfig {
    /// Phase-1 allocator selection.
    pub allocator: AllocatorKind,
    /// Rounding parameter `ρ ∈ (0,1)`; `None` = use the theorem value.
    pub rho: Option<f64>,
    /// Adjustment parameter `µ ∈ (0, 0.5)`; `None` = use the theorem value.
    pub mu: Option<f64>,
    /// FPTAS slack `ε` for SP graphs/trees.
    pub epsilon: f64,
    /// Whether to apply the µ-adjustment (Equation 5). Disabling it is only
    /// useful for ablation studies; the guarantees require it.
    pub apply_adjustment: bool,
    /// Ready-queue priority rule for Phase 2.
    pub priority: PriorityRule,
}

impl Default for MrlsConfig {
    fn default() -> Self {
        MrlsConfig {
            allocator: AllocatorKind::Auto,
            rho: None,
            mu: None,
            epsilon: 0.1,
            apply_adjustment: true,
            priority: PriorityRule::CriticalPath,
        }
    }
}

/// The parameters the scheduler actually used, plus the matching guarantee.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResolvedParams {
    /// The graph class that drove the choices.
    pub graph_class: String,
    /// The allocator that was used.
    pub allocator: String,
    /// The adjustment parameter µ.
    pub mu: f64,
    /// The rounding parameter ρ (only meaningful for the LP allocator).
    pub rho: f64,
    /// The FPTAS slack ε (only meaningful for the SP allocator).
    pub epsilon: f64,
    /// The approximation ratio guaranteed by the matching theorem.
    pub ratio_guarantee: f64,
}

/// The complete output of the two-phase algorithm.
#[derive(Debug, Clone)]
pub struct ScheduleResult {
    /// The initial allocation decision `p′` (before adjustment).
    pub initial_decision: AllocationDecision,
    /// The final allocation decision `p` (after the µ-adjustment).
    pub decision: AllocationDecision,
    /// Which jobs were adjusted.
    pub adjusted: Vec<bool>,
    /// The Phase-2 schedule.
    pub schedule: Schedule,
    /// The certified lower bound: the largest of the bounds over the
    /// candidate sets, capped at `L(p)` of `decision` (Lemma 1), so it never
    /// exceeds the makespan of a schedule of `decision`.
    pub lower_bound: f64,
    /// All individual lower bounds; `best` is `lower_bound`.
    pub lower_bounds: LowerBounds,
    /// The resolved parameters and the theoretical guarantee.
    pub params: ResolvedParams,
}

impl ScheduleResult {
    /// The measured approximation ratio `T / LB` (an upper bound on the true
    /// ratio `T / T_opt`).
    pub fn measured_ratio(&self) -> f64 {
        if self.lower_bound <= 0.0 {
            1.0
        } else {
            self.schedule.makespan / self.lower_bound
        }
    }
}

/// The two-phase multi-resource scheduler.
#[derive(Debug, Clone)]
pub struct MrlsScheduler {
    config: MrlsConfig,
}

impl MrlsScheduler {
    /// Creates a scheduler with the given configuration.
    pub fn new(config: MrlsConfig) -> Self {
        MrlsScheduler { config }
    }

    /// Creates a scheduler with the default (paper-faithful) configuration.
    pub fn with_defaults() -> Self {
        MrlsScheduler::new(MrlsConfig::default())
    }

    /// The configuration in use.
    pub fn config(&self) -> &MrlsConfig {
        &self.config
    }

    /// Runs both phases on `instance`. Adds the number of jobs it profiled
    /// to the obs counter `plan.profiles.jobs` and the number of profile
    /// points they kept to `plan.profiles.points`.
    pub fn schedule(&self, instance: &Instance) -> Result<ScheduleResult> {
        let profiles = instance.profiles()?;
        if mrls_obs::enabled() {
            mrls_obs::counter_add("plan.profiles.jobs", profiles.len() as u64);
            let points = profiles.iter().map(|p| p.len() as u64).sum();
            mrls_obs::counter_add("plan.profiles.points", points);
        }
        self.schedule_with_profiles(instance, &profiles)
    }

    /// Runs both phases using pre-computed profiles (useful when the caller
    /// evaluates several configurations on the same instance).
    pub fn schedule_with_profiles(
        &self,
        instance: &Instance,
        profiles: &[JobProfile],
    ) -> Result<ScheduleResult> {
        let d = instance.num_resource_types();
        let class = instance.graph_class();
        let kind = self.resolve_allocator_kind(class);

        // Theorem-driven parameter defaults.
        let (default_mu, default_rho) = match kind {
            AllocatorKind::LpRounding => theory::general_params(d),
            AllocatorKind::SpFptas => {
                let mu = if d >= 4 {
                    theory::theorem4_mu_star(d)
                } else {
                    theory::mu_a()
                };
                (mu, theory::general_params(d).1)
            }
            AllocatorKind::IndependentOptimal => {
                (theory::independent_mu_star(d), theory::general_params(d).1)
            }
            _ => theory::general_params(d),
        };
        let mu = self.config.mu.unwrap_or(default_mu);
        let rho = self.config.rho.unwrap_or(default_rho);
        let epsilon = self.config.epsilon;

        // Phase 1: initial allocation p', each call counted under the kind
        // it resolved to (failed calls included).
        let (initial_decision, allocator_name, certified_lb): (
            AllocationDecision,
            &str,
            Option<f64>,
        ) = match kind {
            AllocatorKind::LpRounding => {
                mrls_obs::counter_add("plan.allocator.lp_rounding", 1);
                let alloc = LpRoundingAllocator::new(rho)?;
                let frac = LpRoundingAllocator::solve_relaxation(instance, profiles)?;
                let decision = alloc.round(profiles, &frac);
                (decision, alloc.name(), Some(frac.objective))
            }
            AllocatorKind::SpFptas => {
                mrls_obs::counter_add("plan.allocator.sp_fptas", 1);
                let alloc = SpFptasAllocator::new(epsilon)?;
                let (decision, _) = alloc.solve(instance, profiles)?;
                let lb = instance
                    .lower_bound_of(&decision)
                    .map(|l| l / (1.0 + alloc.effective_epsilon()))
                    .ok();
                (decision, alloc.name(), lb)
            }
            AllocatorKind::IndependentOptimal => {
                mrls_obs::counter_add("plan.allocator.independent_optimal", 1);
                let (decision, lmin) = IndependentOptimalAllocator::solve(instance, profiles)?;
                (decision, "independent-optimal", Some(lmin))
            }
            AllocatorKind::MinTime => {
                mrls_obs::counter_add("plan.allocator.min_time", 1);
                let alloc = HeuristicAllocator::new(HeuristicRule::MinTime);
                (alloc.allocate(instance, profiles)?, alloc.name(), None)
            }
            AllocatorKind::MinArea => {
                mrls_obs::counter_add("plan.allocator.min_area", 1);
                let alloc = HeuristicAllocator::new(HeuristicRule::MinArea);
                (alloc.allocate(instance, profiles)?, alloc.name(), None)
            }
            AllocatorKind::MinLocalMax => {
                mrls_obs::counter_add("plan.allocator.min_local_max", 1);
                let alloc = HeuristicAllocator::new(HeuristicRule::MinLocalMax);
                (alloc.allocate(instance, profiles)?, alloc.name(), None)
            }
            AllocatorKind::Auto => unreachable!("Auto is resolved above"),
        };

        // Adjustment (Equation 5).
        let (decision, adjusted) = if self.config.apply_adjustment && !initial_decision.is_empty() {
            let out = adjust_allocation(instance, &initial_decision, mu)?;
            (out.decision, out.adjusted)
        } else {
            (
                initial_decision.clone(),
                vec![false; initial_decision.len()],
            )
        };

        // Phase 2: list scheduling.
        let schedule =
            ListScheduler::new(self.config.priority.clone()).schedule(instance, &decision)?;

        // Lower bounds for normalisation. Each is taken over the candidate
        // sets, which the µ-adjustment can leave: a capped non-monotone job
        // can run faster than at any candidate. L(p) of the returned
        // decision bounds every schedule of it (Lemma 1), so the reported
        // bound is capped there. Without the adjustment `p` lies in the
        // candidate sets, and the cap binds only by rounding (the LP's
        // optimum can exceed the exact critical path by a few ulps).
        let mut lower_bounds = combinatorial_lower_bound(instance, profiles);
        if let Some(lb) = certified_lb {
            lower_bounds.lp_bound = Some(lb);
            lower_bounds.best = lower_bounds.best.max(lb);
        }
        if let Ok(l) = instance.lower_bound_of(&decision) {
            if l < lower_bounds.best {
                lower_bounds.best = l;
                mrls_obs::counter_add("plan.lower_bound.capped", 1);
            }
        }

        let ratio_guarantee = match kind {
            AllocatorKind::IndependentOptimal => theory::independent_ratio(d),
            AllocatorKind::SpFptas => {
                theory::sp_ratio(d, SpFptasAllocator::new(epsilon)?.effective_epsilon())
            }
            _ => theory::general_ratio(d),
        };

        Ok(ScheduleResult {
            initial_decision,
            decision,
            adjusted,
            schedule,
            lower_bound: lower_bounds.best,
            lower_bounds: lower_bounds.clone(),
            params: ResolvedParams {
                graph_class: class.label().to_string(),
                allocator: allocator_name.to_string(),
                mu,
                rho,
                epsilon,
                ratio_guarantee,
            },
        })
    }

    fn resolve_allocator_kind(&self, class: GraphClass) -> AllocatorKind {
        match self.config.allocator {
            AllocatorKind::Auto => match class {
                GraphClass::Independent => AllocatorKind::IndependentOptimal,
                GraphClass::Chain
                | GraphClass::OutTree
                | GraphClass::InTree
                | GraphClass::SeriesParallel => AllocatorKind::SpFptas,
                GraphClass::General => AllocatorKind::LpRounding,
            },
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrls_dag::Dag;
    use mrls_model::{ExecTimeSpec, MoldableJob, SystemConfig};

    fn instance(dag: Dag, caps: Vec<u64>) -> Instance {
        let n = dag.num_nodes();
        let d = caps.len();
        let jobs: Vec<MoldableJob> = (0..n)
            .map(|j| {
                MoldableJob::new(
                    j,
                    ExecTimeSpec::Amdahl {
                        seq: 1.0,
                        work: vec![8.0; d],
                    },
                )
            })
            .collect();
        Instance::new(SystemConfig::new(caps).unwrap(), dag, jobs).unwrap()
    }

    #[test]
    fn general_dag_respects_theorem1_guarantee() {
        // A non-SP graph ("N" plus extra structure) on a system with
        // P_min >= 7, as Theorem 1 requires.
        let dag = Dag::from_edges(6, &[(0, 2), (1, 2), (1, 3), (2, 4), (3, 5)]).unwrap();
        let inst = instance(dag, vec![8, 8]);
        let result = MrlsScheduler::with_defaults().schedule(&inst).unwrap();
        assert_eq!(result.params.graph_class, "general");
        assert_eq!(result.params.allocator, "lp-rounding");
        assert!(result.measured_ratio() <= result.params.ratio_guarantee + 1e-6);
        // Makespan dominates the lower bound.
        assert!(result.schedule.makespan + 1e-9 >= result.lower_bound);
    }

    #[test]
    fn sp_dag_uses_fptas_and_respects_guarantee() {
        let dag = Dag::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let inst = instance(dag, vec![8, 8]);
        let result = MrlsScheduler::with_defaults().schedule(&inst).unwrap();
        assert_eq!(result.params.allocator, "sp-fptas");
        assert!(result.measured_ratio() <= result.params.ratio_guarantee + 1e-6);
    }

    #[test]
    fn independent_jobs_use_exact_allocator() {
        let inst = instance(Dag::independent(6), vec![8, 8]);
        let result = MrlsScheduler::with_defaults().schedule(&inst).unwrap();
        assert_eq!(result.params.allocator, "independent-optimal");
        assert_eq!(result.params.graph_class, "independent");
        assert!(result.measured_ratio() <= result.params.ratio_guarantee + 1e-6);
    }

    #[test]
    fn forcing_lp_on_sp_graph_works_too() {
        let dag = Dag::chain(4);
        let inst = instance(dag, vec![8]);
        let config = MrlsConfig {
            allocator: AllocatorKind::LpRounding,
            ..MrlsConfig::default()
        };
        let result = MrlsScheduler::new(config).schedule(&inst).unwrap();
        assert_eq!(result.params.allocator, "lp-rounding");
        assert!(result.measured_ratio() <= theory::theorem1_ratio(1) + 1e-6);
    }

    #[test]
    fn heuristic_allocators_produce_valid_schedules() {
        let dag = Dag::from_edges(5, &[(0, 2), (1, 2), (2, 3), (2, 4)]).unwrap();
        let inst = instance(dag, vec![8, 8]);
        for kind in [
            AllocatorKind::MinTime,
            AllocatorKind::MinArea,
            AllocatorKind::MinLocalMax,
        ] {
            let config = MrlsConfig {
                allocator: kind,
                ..MrlsConfig::default()
            };
            let result = MrlsScheduler::new(config).schedule(&inst).unwrap();
            assert!(result.schedule.makespan > 0.0);
            assert!(result.schedule.makespan + 1e-9 >= result.lower_bounds.critical_path_bound);
        }
    }

    #[test]
    fn adjustment_flags_and_caps() {
        // Force the min-time allocator (full machine per job) so the
        // adjustment must kick in.
        let inst = instance(Dag::independent(4), vec![10, 10]);
        let config = MrlsConfig {
            allocator: AllocatorKind::MinTime,
            ..MrlsConfig::default()
        };
        let result = MrlsScheduler::new(config).schedule(&inst).unwrap();
        assert!(result.adjusted.iter().all(|&a| a));
        let cap = (result.params.mu * 10.0).ceil() as u64;
        for alloc in &result.decision {
            assert!(alloc[0] <= cap && alloc[1] <= cap);
        }
        // Disabling the adjustment keeps the initial decision.
        let config2 = MrlsConfig {
            allocator: AllocatorKind::MinTime,
            apply_adjustment: false,
            ..MrlsConfig::default()
        };
        let result2 = MrlsScheduler::new(config2).schedule(&inst).unwrap();
        assert_eq!(result2.decision, result2.initial_decision);
    }

    #[test]
    fn explicit_parameters_override_defaults() {
        let inst = instance(Dag::chain(3), vec![8, 8]);
        let config = MrlsConfig {
            allocator: AllocatorKind::LpRounding,
            rho: Some(0.3),
            mu: Some(0.25),
            ..MrlsConfig::default()
        };
        let result = MrlsScheduler::new(config).schedule(&inst).unwrap();
        assert!((result.params.rho - 0.3).abs() < 1e-12);
        assert!((result.params.mu - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_instance_is_fine() {
        let inst = instance(Dag::independent(0), vec![8]);
        let result = MrlsScheduler::with_defaults().schedule(&inst).unwrap();
        assert_eq!(result.schedule.makespan, 0.0);
        assert_eq!(result.measured_ratio(), 1.0);
    }

    #[test]
    fn ratio_guarantee_matches_class() {
        let d = 2;
        let general = instance(
            Dag::from_edges(4, &[(0, 2), (1, 2), (1, 3)]).unwrap(),
            vec![8, 8],
        );
        let r = MrlsScheduler::with_defaults().schedule(&general).unwrap();
        assert!((r.params.ratio_guarantee - theory::general_ratio(d)).abs() < 1e-9);
        let independent = instance(Dag::independent(3), vec![8, 8]);
        let r = MrlsScheduler::with_defaults()
            .schedule(&independent)
            .unwrap();
        assert!((r.params.ratio_guarantee - theory::independent_ratio(d)).abs() < 1e-9);
    }
}
