//! Seeded input generation: every input of every workload is drawn here from
//! the `--seed` argument, so the program only ever sees generated inputs and
//! the same seed gives the same inputs.

use mrls_dag::GraphClass;
use mrls_model::{AllocationSpace, Instance, MoldableJob};
use mrls_workload::{DagRecipe, InstanceRecipe, JobRecipe, SpeedupFamily, SystemRecipe};

/// Resource types of every generated machine.
pub const D: usize = 3;
/// Capacity of every resource type.
pub const P: u64 = 16;

/// The job recipe of `mrls generate` / `mrls schedule`: mixed speedup
/// families, work 10–80, powers-of-two allocations.
pub fn job_recipe() -> JobRecipe {
    JobRecipe {
        family: SpeedupFamily::Mixed,
        work_range: (10.0, 80.0),
        seq_fraction_range: (0.0, 0.2),
        space: AllocationSpace::PowersOfTwo,
        heavy_kind_factor: 2.0,
    }
}

/// A sub-seed per `(seed, stream, index)`, so adding a case never shifts the
/// inputs of the others (splitmix64 finaliser).
pub fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn generate(dag: DagRecipe, seed: u64) -> Instance {
    InstanceRecipe {
        system: SystemRecipe::Uniform { d: D, p: P },
        dag,
        jobs: job_recipe(),
    }
    .generate(seed)
    .instance
}

/// A random layered DAG of `n` jobs that is of the general class (drawn
/// again from the next sub-seed until it is, deterministically).
fn general_layered(n: usize, seed: u64, stream: u64) -> Instance {
    (0..)
        .map(|k| {
            generate(
                DagRecipe::RandomLayered {
                    n,
                    layers: (n as f64).sqrt().ceil() as usize,
                    edge_prob: 0.3,
                },
                sub_seed(seed, stream, k),
            )
        })
        .find(|i| i.graph_class() == GraphClass::General)
        .expect("random layered DAGs are general with positive probability")
}

/// One instance of the `plan` suite.
pub struct PlanCase {
    pub label: &'static str,
    pub instance: Instance,
}

/// One pass of the `plan` suite: every graph class of the paper's Table 1
/// except the independent bag, at sizes where each Phase-1 allocator and the
/// list scheduler do real work. Every pass draws its own instances, and the
/// classes whose planning time depends most on the drawn structure (trees,
/// random SP) come several to a pass, so no single draw sets a run's figures.
pub fn plan_suite(seed: u64, pass: u64) -> Vec<PlanCase> {
    let mut cases = Vec::new();
    let mut add = |label, dag: DagRecipe, stream: u64| {
        cases.push(PlanCase {
            label,
            instance: generate(dag, sub_seed(seed, stream, pass)),
        })
    };
    for k in 0..2 {
        let tree = DagRecipe::RandomOutTree {
            n: 2500,
            max_children: 3,
        };
        add("out-tree", tree, 1 + k);
        let tree = DagRecipe::RandomInTree {
            n: 2500,
            max_children: 3,
        };
        add("in-tree", tree, 3 + k);
    }
    for k in 0..4 {
        let sp = DagRecipe::RandomSeriesParallel {
            n: 250,
            series_prob: 0.5,
        };
        add("series-parallel", sp, 5 + k);
    }
    add("chain", DagRecipe::Chain { n: 300 }, 9);
    let fork_join = DagRecipe::ForkJoin {
        width: 50,
        stages: 4,
    };
    add("fork-join", fork_join, 10);
    let epigenomics = DagRecipe::Epigenomics {
        branches: 8,
        depth: 6,
    };
    add("epigenomics", epigenomics, 11);
    for k in 0..4 {
        add("cholesky", DagRecipe::Cholesky { tiles: 4 }, 13 + k);
    }
    for k in 0..4 {
        cases.push(PlanCase {
            label: "general",
            instance: general_layered(20, sub_seed(seed, pass, 0), 17 + k),
        });
    }
    cases
}

/// The independent bag of the `plan` suite, shared by every pass (its
/// validation is quadratic in its size, so it is drawn and checked once).
pub fn plan_bag(seed: u64) -> PlanCase {
    PlanCase {
        label: "independent",
        instance: generate(DagRecipe::Independent { n: 20_000 }, sub_seed(seed, 12, 0)),
    }
}

/// Smaller instances of every class, scheduled before timing starts so
/// lazy set-up and caches are warm (and the set-up time is long enough to
/// measure).
pub fn plan_warmup(seed: u64) -> Vec<Instance> {
    let mut out = vec![
        generate(
            DagRecipe::RandomOutTree {
                n: 1000,
                max_children: 3,
            },
            sub_seed(seed, 20, 0),
        ),
        generate(DagRecipe::Independent { n: 5000 }, sub_seed(seed, 21, 0)),
        generate(DagRecipe::Chain { n: 100 }, sub_seed(seed, 22, 0)),
        generate(DagRecipe::Cholesky { tiles: 4 }, sub_seed(seed, 23, 0)),
    ];
    for k in 0..2 {
        let sp = DagRecipe::RandomSeriesParallel {
            n: 150,
            series_prob: 0.5,
        };
        out.push(generate(sp, sub_seed(seed, 24, k)));
        out.push(general_layered(20, seed, 26 + k));
    }
    out
}

/// One `SubmitDag` payload.
pub struct DagSubmission {
    pub jobs: Vec<MoldableJob>,
    pub edges: Vec<(usize, usize)>,
}

impl DagSubmission {
    fn from_instance(instance: Instance) -> Self {
        DagSubmission {
            edges: instance.dag.edges().collect(),
            jobs: instance.jobs,
        }
    }
}

/// The `serve-dag` stream: tiled-Cholesky DAGs with 3 and 4 tile columns
/// (10 and 20 jobs) and general layered DAGs of 12–20 jobs, in turn, with
/// seeded job parameters and layered shapes.
pub fn dag_stream(seed: u64, count: usize) -> Vec<DagSubmission> {
    (0..count as u64)
        .map(|i| {
            let s = sub_seed(seed, 30, i);
            let instance = match i % 3 {
                0 => generate(DagRecipe::Cholesky { tiles: 3 }, s),
                1 => generate(DagRecipe::Cholesky { tiles: 4 }, s),
                _ => general_layered(12 + (s % 9) as usize, seed, 1000 + i),
            };
            DagSubmission::from_instance(instance)
        })
        .collect()
}

/// The `serve-jobs` stream: independent singleton jobs.
pub fn job_stream(seed: u64, count: usize) -> Vec<MoldableJob> {
    generate(DagRecipe::Independent { n: count }, sub_seed(seed, 40, 0)).jobs
}
