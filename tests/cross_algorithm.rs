//! Cross-algorithm structural tests: every scheduler in the workspace agrees
//! on validity, and the paper's structural claims (two shelves, two levels,
//! canonical compression) are visible in the produced schedules.

use malleable_core::bounds;
use malleable_core::canonical::CanonicalAllotment;
use malleable_core::prelude::*;
use malleable_core::two_shelf::{self, TwoShelfParams};
use workload::{WorkloadConfig, WorkloadGenerator};

#[test]
fn every_algorithm_schedules_every_task_exactly_once() {
    let registry = solver::default_registry();
    for seed in 0..6u64 {
        let instance = WorkloadGenerator::new(WorkloadConfig::mixed(18, 8, seed))
            .generate()
            .unwrap();
        let omega = bounds::upper_bound(&instance);
        let canonical = CanonicalAllotment::compute(&instance, omega).unwrap();

        let mut schedules: Vec<(String, Schedule)> = vec![
            (
                "canonical-list".into(),
                CanonicalListAlgorithm::default()
                    .build(&instance, omega)
                    .unwrap(),
            ),
            (
                "malleable-list".into(),
                MalleableListAlgorithm::default()
                    .build(&instance, omega)
                    .unwrap(),
            ),
            (
                "level-packing".into(),
                malleable_core::mrt::level_packing_schedule(&instance, &canonical),
            ),
        ];
        for handle in registry.solvers() {
            let outcome = handle.solve(&SolveRequest::new(&instance)).unwrap();
            schedules.push((handle.name().into(), outcome.schedule));
        }
        if let Some(ts) = two_shelf::build(&instance, omega, TwoShelfParams::default()).unwrap() {
            schedules.push(("two-shelf".into(), ts.schedule));
        }

        for (name, schedule) in schedules {
            assert_eq!(
                schedule.len(),
                instance.task_count(),
                "{name} missed or duplicated tasks"
            );
            schedule
                .validate(&instance)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}

#[test]
fn two_shelf_schedules_have_exactly_two_start_bands() {
    // In a λ-schedule every start time is either 0 (first shelf) or ω (second
    // shelf) or, for the First-Fit-stacked small tasks, at ω plus the heights
    // of the tasks below them — never anything below ω other than 0 and the
    // stacked offsets inside shelf 1 of the trivial construction.
    for seed in 0..8u64 {
        let instance = WorkloadGenerator::new(WorkloadConfig::wide_tasks(16, 24, seed))
            .generate()
            .unwrap();
        let lb = bounds::lower_bound(&instance);
        let omega = lb * 1.1;
        if let Ok(Some(ts)) = two_shelf::build(&instance, omega, TwoShelfParams::default()) {
            for entry in ts.schedule.entries() {
                let in_first_shelf = entry.finish() <= omega + 1e-6;
                let in_second_shelf = entry.start >= omega - 1e-6;
                assert!(
                    in_first_shelf || in_second_shelf,
                    "seed {seed}: task {} straddles the shelf boundary (start {}, finish {})",
                    entry.task,
                    entry.start,
                    entry.finish()
                );
            }
            assert!(ts.schedule.makespan() <= (1.0 + malleable_core::LAMBDA_SQRT3) * omega + 1e-6);
        }
    }
}

#[test]
fn canonical_compression_only_grows_processor_counts() {
    // Tasks moved to the second shelf are compressed: they use at least their
    // canonical processor count.
    for seed in 0..8u64 {
        let instance = WorkloadGenerator::new(WorkloadConfig::wide_tasks(14, 16, 40 + seed))
            .generate()
            .unwrap();
        let omega = bounds::lower_bound(&instance) * 1.05;
        let canonical = match CanonicalAllotment::compute(&instance, omega) {
            Ok(c) => c,
            Err(_) => continue,
        };
        if let Some(ts) =
            two_shelf::build_with_canonical(&instance, &canonical, TwoShelfParams::default())
        {
            for entry in ts.schedule.entries() {
                if ts.gamma.contains(&entry.task) {
                    assert!(
                        entry.processors.count >= canonical.allotment.processors(entry.task),
                        "compressed task {} uses fewer processors than its canonical count",
                        entry.task
                    );
                }
            }
        }
    }
}

#[test]
fn list_schedules_start_their_first_level_at_time_zero() {
    // The first level of the canonical list schedule (the tasks placed while
    // processors are still free at time 0) must all start at 0 — this is the
    // structural property the paper's §3 analysis rests on.
    let instance = WorkloadGenerator::new(WorkloadConfig::mixed(20, 10, 3))
        .generate()
        .unwrap();
    let omega = bounds::upper_bound(&instance);
    let schedule = CanonicalListAlgorithm::default()
        .build(&instance, omega)
        .unwrap();
    let starters = schedule
        .entries()
        .iter()
        .filter(|e| e.start <= 1e-12)
        .map(|e| e.processors.count)
        .sum::<usize>();
    assert!(starters >= 1, "someone must start at time zero");
    assert!(starters <= instance.processors());
}

#[test]
fn mrt_beats_or_matches_its_own_branches() {
    // The combined scheduler keeps the best branch, so it can never be worse
    // than the canonical list or the malleable list run in isolation at the
    // same guess.
    for seed in 0..6u64 {
        let instance = WorkloadGenerator::new(WorkloadConfig::mixed(22, 12, 70 + seed))
            .generate()
            .unwrap();
        let omega = bounds::upper_bound(&instance);
        let scheduler = MrtScheduler::default();
        let (outcome, _) = scheduler.probe_with_report(&instance, omega);
        let combined = match outcome {
            DualOutcome::Feasible(s) => s,
            DualOutcome::Infeasible => panic!("generous ω rejected"),
        };
        let canonical = CanonicalListAlgorithm::default()
            .build(&instance, omega)
            .unwrap();
        let mla = MalleableListAlgorithm::default()
            .build(&instance, omega)
            .unwrap();
        assert!(combined.makespan() <= canonical.makespan() + 1e-9);
        assert!(combined.makespan() <= mla.makespan() + 1e-9);
    }
}
