//! The `plan` workload: offline `MrlsScheduler::schedule` over a seeded suite
//! covering every graph class, in whole passes, plus the traced replica that
//! calls the pieces of `schedule` one by one.

use crate::inputs::{self, PlanCase};
use crate::report::Report;
use crate::tracer::Tracer;
use crate::{peak_rss_mib, stats, Args, SETUP_REPS};
use mrls_analysis::validate_schedule;
use mrls_core::allocators::{
    adjust_allocation, IndependentOptimalAllocator, LpRoundingAllocator, SpFptasAllocator,
};
use mrls_core::bounds::combinatorial_lower_bound;
use mrls_core::{theory, ListScheduler, MrlsConfig, MrlsScheduler, ScheduleResult};
use mrls_dag::GraphClass;
use mrls_model::{Instance, JobProfile};
use std::hint::black_box;
use std::time::Instant;

/// Passes whose instances (with the bag) the makespan ratio averages: a
/// fixed set, so the ratio does not depend on how many passes a machine
/// completes in `--seconds`.
const QUALITY_PASSES: usize = 3;

/// Draws the first pass's suite and the bag and warms up, `SETUP_REPS`
/// times; returns the last draw and the median set-up time.
fn setup(args: &Args, scheduler: &MrlsScheduler) -> Result<(Vec<PlanCase>, PlanCase, f64), String> {
    let mut times = Vec::new();
    let mut drawn = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        drawn = Some((
            inputs::plan_suite(args.seed, 0),
            inputs::plan_bag(args.seed),
        ));
        for w in inputs::plan_warmup(args.seed) {
            black_box(
                scheduler
                    .schedule(&w)
                    .map_err(|e| format!("warm-up: {e}"))?,
            );
        }
        times.push(t.elapsed().as_secs_f64());
    }
    let (suite, bag) = drawn.expect("at least one set-up");
    Ok((suite, bag, stats::percentile(&times, 0.5)))
}

/// Checks one schedule: valid against its instance, makespan at least the
/// certified lower bound, measured ratio within the theorem's guarantee.
fn check(case: &PlanCase, r: &ScheduleResult) -> Result<(), String> {
    let report = validate_schedule(&case.instance, &r.schedule);
    if !report.is_valid() {
        return Err(format!(
            "{}: schedule fails validation: {report:?}",
            case.label
        ));
    }
    if r.schedule.makespan + 1e-9 < r.lower_bound {
        return Err(format!(
            "{}: makespan {} below the certified lower bound {}",
            case.label, r.schedule.makespan, r.lower_bound
        ));
    }
    if r.measured_ratio() > r.params.ratio_guarantee + 1e-6 {
        return Err(format!(
            "{}: measured ratio {} exceeds the guarantee {}",
            case.label,
            r.measured_ratio(),
            r.params.ratio_guarantee
        ));
    }
    Ok(())
}

pub fn run(args: &Args) -> Result<Report, String> {
    let scheduler = MrlsScheduler::with_defaults();
    let (mut suite, bag, setup_s) = setup(args, &scheduler)?;
    let mut report = Report::new(header(args, &suite, &bag));
    if args.trace {
        traced(args, &scheduler, suite, &bag, &mut report)?;
        return Ok(report);
    }

    // Whole passes until `--seconds` ran out, each over its own draw plus the
    // shared bag; only the `schedule` calls are timed. Each pass's results
    // are checked right after it (so the footprint does not grow with the
    // number of passes); the bag's must repeat bit for bit and is checked
    // once, at the end.
    let mut pass_ms = Vec::new();
    let (mut jobs, mut wall_s) = (0usize, 0.0f64);
    let mut ratios = Vec::new();
    let mut bag_result: Option<ScheduleResult> = None;
    let start = Instant::now();
    loop {
        let mut pass_s = 0.0;
        let mut results = Vec::with_capacity(suite.len() + 1);
        for case in suite.iter().chain(std::iter::once(&bag)) {
            let t = Instant::now();
            let result = scheduler.schedule(black_box(&case.instance));
            let dt = t.elapsed().as_secs_f64();
            report.attempted += 1;
            if result.is_ok() {
                pass_s += dt;
                jobs += case.instance.num_jobs();
            }
            results.push(result);
        }
        wall_s += pass_s;
        pass_ms.push(pass_s * 1e3);
        match results.pop().expect("the bag ends every pass") {
            Ok(r) => match &bag_result {
                None => bag_result = Some(r),
                Some(f) if f.schedule.makespan.to_bits() == r.schedule.makespan.to_bits() => {}
                Some(_) => {
                    report.failed += 1;
                    report.violate("independent bag: makespan differs between passes".into());
                }
            },
            Err(e) => {
                report.failed += 1;
                report.violate(format!("independent bag: schedule failed: {e}"));
            }
        }
        for (case, result) in suite.iter().zip(results) {
            match result.map_err(|e| format!("{}: schedule failed: {e}", case.label)) {
                Ok(r) => match check(case, &r) {
                    Ok(()) if pass_ms.len() <= QUALITY_PASSES => ratios.push(r.measured_ratio()),
                    Ok(()) => {}
                    Err(e) => {
                        report.failed += 1;
                        report.violate(e);
                    }
                },
                Err(e) => {
                    report.failed += 1;
                    report.violate(e);
                }
            }
        }
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        suite = inputs::plan_suite(args.seed, pass_ms.len() as u64);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let passes = pass_ms.len();
    if let Some(r) = &bag_result {
        match check(&bag, r) {
            Ok(()) => ratios.push(r.measured_ratio()),
            Err(e) => {
                report.failed += 1;
                report.violate(e);
            }
        }
    }
    let rate = jobs as f64 / wall_s;
    let (p50, p80) = (
        stats::percentile(&pass_ms, 0.5),
        stats::percentile(&pass_ms, 0.8),
    );
    let ratio = stats::mean(&ratios);
    report.metric(
        "setup_s",
        setup_s,
        format!("median of {SETUP_REPS} set-ups"),
    );
    report.metric("peak_rss_mb", peak_rss_mib(), "VmHWM".into());
    report.line(
        "plan_jobs_per_s",
        rate,
        "jobs/s",
        format!("{jobs} jobs in {passes} passes, {elapsed:.1} s"),
    );
    report.metric("jobs_per_s", rate, "= plan_jobs_per_s".into());
    report.pct("pass_ms_p50", p50, "ms", passes);
    report.pct("pass_ms_p80", p80, "ms", passes);
    report.metric("latency_p50_ms", p50, "= pass_ms_p50".into());
    report.metric("latency_tail_ms", p80, "= pass_ms_p80".into());
    report.line(
        "makespan_ratio",
        ratio,
        "x",
        format!("n={} instances", ratios.len()),
    );
    report.metric("quality_ratio", ratio, "= makespan_ratio".into());
    report.line(
        "bench.gen_late_ms_max",
        0.0,
        "ms",
        "closed loop: nothing is due".into(),
    );
    Ok(report)
}

fn header(args: &Args, suite: &[PlanCase], bag: &PlanCase) -> String {
    let mut h = format!(
        "perfbench plan  seed={} seconds={} trace={}\n  pass 0:",
        args.seed, args.seconds, args.trace as u8
    );
    for c in suite.iter().chain(std::iter::once(bag)) {
        h.push_str(&format!(" {}({})", c.label, c.instance.num_jobs()));
    }
    h
}

/// What the replica counted, besides span times.
#[derive(Default)]
pub struct PlanCounts {
    profile_points: u64,
    lp_vars: u64,
    lp_rows: u64,
    /// The `LIST_COUNTERS` totals, in order.
    list: [u64; 3],
}

/// The obs counters the per-layer report reads after each list schedule.
const LIST_COUNTERS: [&str; 3] = [
    "core.ready_queue.jobs_visited",
    "core.placement.passes",
    "core.slotset.splits",
];

/// Runs the pieces `MrlsScheduler::schedule` composes, one by one, each in
/// its own span under one `plan.schedule` span per instance. Mirrors the
/// default configuration (allocator by graph class, theorem parameters, the
/// µ-adjustment, critical-path list scheduling, combinatorial bounds).
/// Returns the makespan, which the caller compares against `schedule`'s.
pub fn replica(
    tr: &mut Tracer,
    instance: &Instance,
    request: u64,
    counts: &mut PlanCounts,
) -> Result<f64, String> {
    let config = MrlsConfig::default();
    let d = instance.num_resource_types();
    let root = tr.begin("plan.schedule", request);
    let class = tr.time("dag.classify", request, || instance.graph_class());
    let profiles = tr
        .time("model.profiles", request, || instance.profiles())
        .map_err(|e| e.to_string())?;
    counts.profile_points += profiles.iter().map(|p| p.len() as u64).sum::<u64>();
    let (decision, mu) = match class {
        GraphClass::General => {
            let (mu, rho) = theory::general_params(d);
            let alloc = LpRoundingAllocator::new(rho).map_err(|e| e.to_string())?;
            let frac = tr
                .time("lp.solve", request, || {
                    LpRoundingAllocator::solve_relaxation(instance, &profiles)
                })
                .map_err(|e| e.to_string())?;
            let (vars, rows) = lp_size(instance, &profiles);
            counts.lp_vars += vars;
            counts.lp_rows += rows;
            let decision = tr.time("core.alloc.round", request, || {
                alloc.round(&profiles, &frac)
            });
            (decision, mu)
        }
        GraphClass::Independent => {
            let (decision, _) = tr
                .time("core.alloc.independent", request, || {
                    IndependentOptimalAllocator::solve(instance, &profiles)
                })
                .map_err(|e| e.to_string())?;
            (decision, theory::independent_mu_star(d))
        }
        _ => {
            let mu = if d >= 4 {
                theory::theorem4_mu_star(d)
            } else {
                theory::mu_a()
            };
            let alloc = SpFptasAllocator::new(config.epsilon).map_err(|e| e.to_string())?;
            let (decision, _) = tr
                .time("core.alloc.sp_fptas", request, || {
                    alloc.solve(instance, &profiles)
                })
                .map_err(|e| e.to_string())?;
            // `schedule` certifies the FPTAS lower bound from the decision;
            // that work stays in the parent span (glue).
            black_box(instance.lower_bound_of(&decision).ok());
            (decision, mu)
        }
    };
    let adjusted = tr
        .time("core.alloc.adjust", request, || {
            adjust_allocation(instance, &decision, mu)
        })
        .map_err(|e| e.to_string())?;
    let _ = mrls_obs::take();
    let schedule = tr
        .time("core.list.schedule", request, || {
            ListScheduler::new(config.priority.clone()).schedule(instance, &adjusted.decision)
        })
        .map_err(|e| e.to_string())?;
    let obs = mrls_obs::take();
    for (total, name) in counts.list.iter_mut().zip(LIST_COUNTERS) {
        *total += obs.counters.get(name).copied().unwrap_or(0);
    }
    black_box(tr.time("core.bounds", request, || {
        combinatorial_lower_bound(instance, &profiles)
    }));
    tr.end(root);
    Ok(schedule.makespan)
}

/// Variables and constraint rows of the LP relaxation `solve_relaxation`
/// builds: one weight per profile point plus one finish time per job and the
/// makespan; one convexity row per job, one completion row per predecessor
/// (one for a source), one `L >= f_j` row per job and the area row.
fn lp_size(instance: &Instance, profiles: &[JobProfile]) -> (u64, u64) {
    let n = instance.num_jobs() as u64;
    let points: u64 = profiles.iter().map(|p| p.len() as u64).sum();
    let completion: u64 = (0..instance.num_jobs())
        .map(|j| instance.dag.predecessors(j).len().max(1) as u64)
        .sum();
    (points + n + 1, n + completion + n + 1)
}

/// Per-layer figures of one replica pass set, scaled to one pass.
pub fn layer_figures(tr: &Tracer, counts: &PlanCounts, passes: usize, report: &mut Report) {
    let own = tr.self_ms();
    let per = |name: &str| own.get(name).copied().unwrap_or(0.0) / passes as f64;
    let layers = [
        ("dag.classify_ms", "dag.classify"),
        ("model.profiles_ms", "model.profiles"),
        ("lp.solve_ms", "lp.solve"),
        ("core.alloc.sp_fptas_ms", "core.alloc.sp_fptas"),
        ("core.alloc.independent_ms", "core.alloc.independent"),
        ("core.alloc.round_ms", "core.alloc.round"),
        ("core.alloc.adjust_ms", "core.alloc.adjust"),
        ("core.list.schedule_ms", "core.list.schedule"),
        ("core.bounds_ms", "core.bounds"),
        ("plan.glue_ms", "plan.schedule"),
    ];
    let mut sum = 0.0;
    for (metric, span) in layers {
        sum += per(span);
        report.layer(metric, per(span), "per pass over the instances".into());
    }
    let wall = tr.total_ms().get("plan.schedule").copied().unwrap_or(0.0) / passes as f64;
    report.layer(
        "plan.wall_ms",
        wall,
        format!("traced planning wall per pass; layers + glue = {sum:.4}"),
    );
    let per_count = |v: u64| (v as f64) / passes as f64;
    report.layer(
        "model.profile_points",
        per_count(counts.profile_points),
        "per pass".into(),
    );
    report.layer(
        "lp.vars",
        per_count(counts.lp_vars),
        "per pass, general instances".into(),
    );
    report.layer(
        "lp.rows",
        per_count(counts.lp_rows),
        "per pass, general instances".into(),
    );
    for (name, total) in LIST_COUNTERS.into_iter().zip(counts.list) {
        report.layer(name, per_count(total), "per pass (mrls_obs)".into());
    }
}

/// The traced run: per instance, the real `schedule` (obs off, for the
/// overhead baseline) and then the replica (spans and obs counters on).
fn traced(
    args: &Args,
    scheduler: &MrlsScheduler,
    mut suite: Vec<PlanCase>,
    bag: &PlanCase,
    report: &mut Report,
) -> Result<(), String> {
    let mut tr = Tracer::new();
    let mut counts = PlanCounts::default();
    let (mut real_s, mut replica_s) = (0.0f64, 0.0f64);
    let mut mismatches = 0usize;
    let mut passes = 0usize;
    let start = Instant::now();
    loop {
        for (k, case) in suite.iter().chain(std::iter::once(bag)).enumerate() {
            report.attempted += 1;
            mrls_obs::set_enabled(false);
            let t = Instant::now();
            let real = scheduler.schedule(black_box(&case.instance));
            real_s += t.elapsed().as_secs_f64();
            mrls_obs::set_enabled(true);
            let t = Instant::now();
            let replica = replica(&mut tr, &case.instance, k as u64, &mut counts);
            replica_s += t.elapsed().as_secs_f64();
            match (real, replica) {
                (Ok(r), Ok(m)) => {
                    if r.schedule.makespan.to_bits() != m.to_bits() {
                        mismatches += 1;
                    }
                }
                (real, replica) => {
                    report.failed += 1;
                    report.violate(format!(
                        "{}: schedule {:?} / replica {:?}",
                        case.label,
                        real.err().map(|e| e.to_string()),
                        replica.err()
                    ));
                }
            }
        }
        passes += 1;
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        suite = inputs::plan_suite(args.seed, passes as u64);
    }
    mrls_obs::set_enabled(false);
    if mismatches > 0 {
        eprintln!(
            "perfbench: warning: the traced replica's makespan differs from \
             `schedule` on {mismatches} calls; the per-layer split no longer \
             mirrors `schedule`"
        );
    }
    layer_figures(&tr, &counts, passes, report);
    report.layer(
        "bench.trace_overhead_pct",
        (replica_s - real_s) / real_s * 100.0,
        format!("traced replica vs `schedule`, {passes} passes"),
    );
    report.layer(
        "bench.gen_late_ms_max",
        0.0,
        "closed loop: nothing is due".into(),
    );
    let path = crate::out_dir().join("trace-plan.json");
    tr.write_chrome(&path, "perfbench plan")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    report.line(
        "spans",
        tr.len() as f64,
        "count",
        format!("written to {}", path.display()),
    );
    Ok(())
}
