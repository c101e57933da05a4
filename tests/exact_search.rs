//! Equivalence and regression tests for the breakpoint-exact dual search
//! (the `mrt` solver in `SearchMode::Exact`) against the classical midpoint
//! bisection, plus
//! the allocation-free probe invariant of the reusable `ProbeWorkspace`.

use malleable_core::breakpoints;
use malleable_core::prelude::*;
use malleable_core::RigidBuilds;
use proptest::prelude::*;
use workload::{WorkloadConfig, WorkloadGenerator};

/// The `mrt` solver in `mode`, from a fresh workspace.
fn solve(inst: &Instance, mode: SearchMode) -> SolveOutcome {
    MrtSolver
        .solve(&SolveRequest::new(inst).with_mode(mode))
        .unwrap()
}

fn mixed_instance(tasks: usize, processors: usize, seed: u64) -> Instance {
    WorkloadGenerator::new(WorkloadConfig::mixed(tasks, processors, seed))
        .generate()
        .unwrap()
}

fn wide_instance(tasks: usize, processors: usize, seed: u64) -> Instance {
    WorkloadGenerator::new(WorkloadConfig::wide_tasks(tasks, processors, seed))
        .generate()
        .unwrap()
}

fn sequential_instance(tasks: usize, processors: usize, seed: u64) -> Instance {
    WorkloadGenerator::new(WorkloadConfig::sequential_heavy(tasks, processors, seed))
        .generate()
        .unwrap()
}

/// `⌈log₂(n·m)⌉ + O(1)`: the probe budget the exact search must respect.
/// The additive constant covers the upper-end validation probe and the
/// bounded quality-descent phase.
fn probe_budget(tasks: usize, processors: usize) -> usize {
    ((tasks * processors) as f64).log2().ceil() as usize
        + malleable_core::dual::EXACT_QUALITY_PROBES
        + 2
}

#[test]
fn exact_search_is_never_worse_than_bisection() {
    for (family, build) in [
        ("mixed", mixed_instance as fn(usize, usize, u64) -> Instance),
        ("wide", wide_instance),
        ("sequential", sequential_instance),
    ] {
        for seed in 0..6u64 {
            let inst = build(18, 12, seed);
            let bisect = solve(&inst, SearchMode::Bisect);
            let exact = solve(&inst, SearchMode::Exact);
            assert!(exact.schedule.validate(&inst).is_ok());
            // Only *feasibility* is piecewise-constant between breakpoints;
            // branch quality (the two-shelf construction in particular) moves
            // continuously with ω, so the two searches sample slightly
            // different interior points and strict per-instance dominance is
            // not a theorem.  The exact mode's quality descent closes the gap
            // to well under 1% across the seeded families.
            assert!(
                exact.schedule.makespan() <= bisect.schedule.makespan() * 1.01 + 1e-9,
                "{family}/{seed}: exact {} worse than bisect {}",
                exact.schedule.makespan(),
                bisect.schedule.makespan()
            );
            assert!(
                exact.lower_bound >= bisect.lower_bound - 1e-9,
                "{family}/{seed}: exact bound {} below bisect bound {}",
                exact.lower_bound,
                bisect.lower_bound
            );
            assert!(exact.schedule.makespan() >= exact.lower_bound - 1e-9);
        }
    }
}

#[test]
fn exact_certified_bound_sits_on_a_breakpoint() {
    for seed in 0..6u64 {
        let inst = mixed_instance(20, 10, seed);
        let result = solve(&inst, SearchMode::Exact);
        let static_lb = malleable_core::bounds::lower_bound(&inst);
        let on_breakpoint = breakpoints::collect(&inst)
            .iter()
            .any(|&b| (b - result.lower_bound).abs() <= 1e-12);
        assert!(
            on_breakpoint || (result.lower_bound - static_lb).abs() <= 1e-12,
            "seed {seed}: certified bound {} is neither a breakpoint nor the static bound",
            result.lower_bound
        );
    }
}

#[test]
fn exact_search_respects_the_probe_budget() {
    for (tasks, processors) in [(20, 8), (50, 16), (80, 32)] {
        for seed in 0..4u64 {
            let inst = mixed_instance(tasks, processors, seed);
            let result = solve(&inst, SearchMode::Exact);
            let budget = probe_budget(tasks, processors);
            assert!(
                result.probes <= budget,
                "n={tasks} m={processors} seed={seed}: {} probes exceed budget {budget}",
                result.probes
            );
        }
    }
}

#[test]
fn exact_uses_at_most_half_the_probes_of_bisection() {
    // ≥ 2× fewer oracle probes per solve, on a small machine and at
    // n = 200 / m = 64.
    for (tasks, processors, seeds) in [(60, 16, 0..4u64), (200, 64, 0..3)] {
        for seed in seeds {
            let inst = mixed_instance(tasks, processors, seed);
            let bisect = solve(&inst, SearchMode::Bisect);
            let exact = solve(&inst, SearchMode::Exact);
            assert!(
                2 * exact.probes <= bisect.probes,
                "n={tasks} m={processors} seed {seed}: exact used {} probes vs bisect {}",
                exact.probes,
                bisect.probes
            );
        }
    }
}

#[test]
fn workspace_probes_are_allocation_free_in_steady_state() {
    // The invariant is observed purely through the telemetry counters that
    // `EpochReplan` publishes per solve (`workspace.probes` /
    // `workspace.grow_events` deltas) — the same path the CLI and the
    // probe report read — rather than by poking the workspace directly.
    use online::policy::EpochReplan;
    use telemetry::{names, CollectingRecorder, SharedRecorder};
    use workload::{ArrivalPattern, ArrivalTrace, TraceConfig};

    let trace = ArrivalTrace::generate(&TraceConfig {
        workload: WorkloadConfig::mixed(40, 16, 7),
        pattern: ArrivalPattern::Bursty {
            burst_size: 8,
            burst_gap: 2.0,
        },
    })
    .unwrap();

    // Warm-up run: the first epochs size every workspace buffer.
    let warmup = CollectingRecorder::shared();
    let mut policy = EpochReplan::mrt(1.0)
        .unwrap()
        .with_recorder(warmup.clone() as SharedRecorder);
    online::run_recorded(&trace, &mut policy, warmup.as_ref()).unwrap();
    assert!(warmup.counter(names::WORKSPACE_PROBES) > 0);
    // A probe builds at most the three rigid branch schedules.
    let builds = warmup.counter(names::WORKSPACE_RIGID_BUILDS);
    assert!(builds > 0 && builds <= 3 * warmup.counter(names::WORKSPACE_PROBES));

    // Steady state: replaying the identical trace on the warm policy (the
    // engine is deterministic, so every epoch's pending set recurs) must
    // not grow a single buffer.
    let steady = CollectingRecorder::shared();
    let mut policy = policy.with_recorder(steady.clone() as SharedRecorder);
    online::run_recorded(&trace, &mut policy, steady.as_ref()).unwrap();
    assert!(steady.counter(names::WORKSPACE_PROBES) > 0);
    assert_eq!(
        steady.counter(names::WORKSPACE_GROW_EVENTS),
        0,
        "steady-state probes grew workspace buffers"
    );
}

#[test]
fn offline_probes_at_benchmark_size_are_allocation_free_in_steady_state() {
    // The offline benchmark's size: after one warm-up probe at the largest
    // guess, the probes of a bisection between the static bounds — wider
    // canonical allotments, both list branches, the θ-allotment cache, the
    // kept rigid schedules — must not grow a single workspace buffer.
    let scheduler = MrtScheduler::default();
    for (family, build) in [
        ("mixed", mixed_instance as fn(usize, usize, u64) -> Instance),
        ("wide", wide_instance),
        ("sequential", sequential_instance),
    ] {
        let inst = build(1000, 64, 1);
        let (mut lo, mut hi) = (lower_bound(&inst), upper_bound(&inst));
        let mut workspace = ProbeWorkspace::new();
        scheduler.probe_with_workspace(&inst, hi, &mut workspace);
        let warm = workspace.grow_events();
        for _ in 0..24 {
            let mid = 0.5 * (lo + hi);
            if scheduler
                .probe_with_workspace(&inst, mid, &mut workspace)
                .is_feasible()
            {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        assert_eq!(workspace.probes(), 25, "{family}");
        assert_eq!(
            workspace.grow_events(),
            warm,
            "{family}: steady-state probes grew workspace buffers"
        );
        // Every probe of this bisection sees the same canonical allotment,
        // so each rigid branch is built once, and the malleable list never:
        // its θ-allotment is that allotment, already in parallel-first
        // order, so its schedule would be the canonical list schedule.
        assert_eq!(
            workspace.rigid_builds(),
            RigidBuilds {
                canonical_list: 1,
                malleable_list: 0,
                level_packing: 1,
            },
            "{family}: rigid schedules built over 25 probes"
        );
    }

    // Whole solves at n = 200 / m = 64: once an exact and a bisection solve
    // have sized the workspace, repeating them grows nothing.
    let inst = mixed_instance(200, 64, 0);
    let mut workspace = ProbeWorkspace::new();
    let solve_both = |workspace: &mut ProbeWorkspace| {
        for mode in [SearchMode::Exact, SearchMode::Bisect] {
            let request = SolveRequest::new(&inst).with_mode(mode);
            MrtSolver.solve_with_workspace(&request, workspace).unwrap();
        }
    };
    solve_both(&mut workspace);
    let warm = workspace.grow_events();
    solve_both(&mut workspace);
    assert_eq!(
        workspace.grow_events(),
        warm,
        "steady-state solves grew buffers"
    );
    // A probe at an unchanged allotment rebuilds no rigid schedule: probe
    // every guess of a bisection between the static bounds twice.
    let (mut lo, mut hi) = (lower_bound(&inst), upper_bound(&inst));
    for _ in 0..24 {
        let mid = 0.5 * (lo + hi);
        let feasible = scheduler
            .probe_with_workspace(&inst, mid, &mut workspace)
            .is_feasible();
        let built = workspace.rigid_builds().total();
        scheduler.probe_with_workspace(&inst, mid, &mut workspace);
        assert_eq!(
            workspace.rigid_builds().total(),
            built,
            "repeat probe at {mid}"
        );
        if feasible {
            hi = mid;
        } else {
            lo = mid;
        }
    }
}

/// `mrt` without warm-start support: the epoch re-planner then seeds no
/// search interval, and the default [`Solver::solve_with_workspace`] solves
/// every epoch from a fresh workspace — a fully cold baseline.
struct ColdMrt;

impl Solver for ColdMrt {
    fn name(&self) -> &'static str {
        "mrt-cold"
    }

    fn capabilities(&self) -> SolverCapabilities {
        SolverCapabilities {
            supports_warm_start: false,
            ..MrtSolver.capabilities()
        }
    }

    fn solve(&self, request: &SolveRequest<'_>) -> malleable_core::Result<SolveOutcome> {
        MrtSolver.solve(request)
    }
}

#[test]
fn warm_started_epoch_replan_stays_valid_and_competitive() {
    use online::policy::EpochReplan;
    use std::sync::Arc;
    use workload::{ArrivalPattern, ArrivalTrace, TraceConfig};

    let poisson = |tasks, processors, seed| {
        ArrivalTrace::generate(&TraceConfig {
            workload: WorkloadConfig::mixed(tasks, processors, seed),
            pattern: ArrivalPattern::Poisson { rate: 6.0 },
        })
        .unwrap()
    };

    // At 400 tasks the warm-started exact re-planner lands within 5% of the
    // cold bisection baseline's makespan.
    for seed in 0..3 {
        let trace = poisson(400, 32, seed);
        let mut cold = EpochReplan::with_solver(1.0, Arc::new(ColdMrt))
            .unwrap()
            .with_search(SearchMode::Bisect);
        let cold = online::run(&trace, &mut cold).unwrap().makespan;
        let warm = online::run(&trace, &mut EpochReplan::mrt(1.0).unwrap())
            .unwrap()
            .makespan;
        let drift = warm / cold;
        assert!((0.95..=1.05).contains(&drift), "seed {seed}: drift {drift}");
    }

    let trace = poisson(80, 16, 11);

    let mut warm_exact = EpochReplan::mrt(1.0).unwrap();
    let warm = online::run(&trace, &mut warm_exact).unwrap();
    assert!(online::validate_against_trace(&trace, &warm.schedule).is_empty());

    let mut cold_bisect = EpochReplan::with_solver(1.0, Arc::new(MrtSolver))
        .unwrap()
        .with_search(SearchMode::Bisect);
    let cold = online::run(&trace, &mut cold_bisect).unwrap();
    assert!(online::validate_against_trace(&trace, &cold.schedule).is_empty());

    // Competitive quality unchanged up to search slack.
    let warm_report = online::competitive_report(&trace, &warm).unwrap();
    let cold_report = online::competitive_report(&trace, &cold).unwrap();
    let (warm_ratio, cold_ratio) = (
        warm_report.ratio_vs_lower_bound.unwrap(),
        cold_report.ratio_vs_lower_bound.unwrap(),
    );
    assert!(
        warm_ratio <= cold_ratio * 1.05 + 1e-9,
        "warm {warm_ratio} vs cold {cold_ratio}"
    );
    // The warm-started exact path does strictly less oracle work.
    assert!(
        warm_exact.probes() < cold_bisect.probes(),
        "warm path used {} probes vs cold {}",
        warm_exact.probes(),
        cold_bisect.probes()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Across the seeded mixed-instance families: the exact search returns a
    /// makespan no worse than the bisection search's, a certified bound no
    /// lower, and stays within the probe budget.
    #[test]
    fn exact_search_dominates_generic(seed in 0u64..200, tasks in 4usize..30, m in 4usize..20) {
        let inst = mixed_instance(tasks, m, seed);
        let bisect = solve(&inst, SearchMode::Bisect);
        let exact = solve(&inst, SearchMode::Exact);
        prop_assert!(exact.schedule.validate(&inst).is_ok());
        // See `exact_search_is_never_worse_than_bisection` for why a 1%
        // slack is needed: quality is not piecewise-constant between
        // breakpoints, only feasibility is.
        prop_assert!(exact.schedule.makespan() <= bisect.schedule.makespan() * 1.01 + 1e-9,
            "exact {} > bisect {}", exact.schedule.makespan(), bisect.schedule.makespan());
        prop_assert!(exact.lower_bound >= bisect.lower_bound - 1e-9);
        prop_assert!(exact.probes <= probe_budget(tasks, m));
    }
}
