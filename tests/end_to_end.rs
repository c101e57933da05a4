//! End-to-end pipeline tests: workload generation → scheduling → simulation.

use malleable_core::bounds;
use malleable_core::prelude::*;
use simulator::simulate;
use workload::{WorkloadConfig, WorkloadGenerator};

/// The baselines the √3 algorithm is measured against (§1).
const BASELINES: [&str; 3] = ["ludwig", "gang", "lpt"];

fn solve(name: &str, instance: &Instance) -> Schedule {
    solver::default_registry()
        .get(name)
        .unwrap()
        .solve(&SolveRequest::new(instance))
        .unwrap()
        .schedule
}

fn schedule_and_check(instance: &Instance) -> SolveOutcome {
    let result = MrtSolver
        .solve(&SolveRequest::new(instance))
        .expect("MRT scheduling succeeds");
    result
        .schedule
        .validate(instance)
        .unwrap_or_else(|e| panic!("{e}"));
    let trace = simulate(instance, &result.schedule);
    assert!((trace.makespan - result.schedule.makespan()).abs() < 1e-9);
    assert!(trace.peak_busy <= instance.processors());
    result
}

#[test]
fn mixed_workloads_schedule_cleanly() {
    for seed in 0..10u64 {
        let instance = WorkloadGenerator::new(WorkloadConfig::mixed(30, 16, seed))
            .generate()
            .unwrap();
        let result = schedule_and_check(&instance);
        assert!(result.ratio() <= malleable_core::SQRT3 + 0.02);
    }
}

#[test]
fn wide_task_workloads_exercise_the_knapsack_branch() {
    for seed in 0..10u64 {
        let instance = WorkloadGenerator::new(WorkloadConfig::wide_tasks(24, 32, seed))
            .generate()
            .unwrap();
        let result = schedule_and_check(&instance);
        assert!(
            result.ratio() <= malleable_core::SQRT3 + 0.02,
            "seed {seed}: ratio {}",
            result.ratio()
        );
    }
}

#[test]
fn sequential_heavy_workloads_degenerate_to_lpt_quality() {
    for seed in 0..10u64 {
        let instance = WorkloadGenerator::new(WorkloadConfig::sequential_heavy(60, 8, seed))
            .generate()
            .unwrap();
        let result = schedule_and_check(&instance);
        // LPT territory: the ratio should be well below the malleable bound.
        assert!(
            result.ratio() <= 1.5,
            "seed {seed}: ratio {}",
            result.ratio()
        );
    }
}

#[test]
fn mrt_never_loses_badly_to_any_baseline() {
    // The √3 algorithm may be beaten on specific instances by a specialised
    // baseline (e.g. gang scheduling on perfectly parallel work), but it must
    // stay within its guarantee of the *best* baseline everywhere.
    for seed in 0..8u64 {
        let instance = WorkloadGenerator::new(WorkloadConfig::mixed(25, 16, 100 + seed))
            .generate()
            .unwrap();
        let mrt = schedule_and_check(&instance);
        let best_baseline = BASELINES
            .iter()
            .map(|name| solve(name, &instance).makespan())
            .fold(f64::INFINITY, f64::min);
        assert!(
            mrt.schedule.makespan() <= malleable_core::SQRT3 * best_baseline + 1e-9,
            "seed {seed}: MRT {} vs best baseline {best_baseline}",
            mrt.schedule.makespan()
        );
    }
}

#[test]
fn baselines_are_valid_on_every_family() {
    for seed in 0..5u64 {
        for config in [
            WorkloadConfig::mixed(20, 8, seed),
            WorkloadConfig::wide_tasks(15, 16, seed),
            WorkloadConfig::sequential_heavy(30, 4, seed),
        ] {
            let instance = WorkloadGenerator::new(config).generate().unwrap();
            for name in BASELINES {
                let schedule = solve(name, &instance);
                schedule
                    .validate(&instance)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
                assert!(schedule.makespan() >= bounds::lower_bound(&instance) - 1e-9);
            }
        }
    }
}

#[test]
fn single_processor_machines_are_handled() {
    let instance = WorkloadGenerator::new(WorkloadConfig::sequential_heavy(12, 1, 3))
        .generate()
        .unwrap();
    let result = schedule_and_check(&instance);
    // On one processor every schedule is a permutation: makespan = total work.
    assert!((result.schedule.makespan() - instance.total_sequential_work()).abs() < 1e-6);
}

#[test]
fn tiny_instances_are_handled() {
    let instance =
        Instance::from_profiles(vec![SpeedupProfile::sequential(0.5).unwrap()], 4).unwrap();
    let result = schedule_and_check(&instance);
    assert!((result.schedule.makespan() - 0.5).abs() < 1e-9);
}
