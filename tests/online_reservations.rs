//! Workspace-level tests of the interval-reservation resource model:
//! property tests over random traces for backfilling, departures and
//! preemptive re-planning, plus the parity pin of the reservation timeline's
//! frontier mode against `ProcessorTimeline` on the offline list algorithms.

use malleable_core::bounds;
use malleable_core::prelude::*;
use online::policy::{EpochReplan, GreedyList, PolicyKind, PolicyOptions};
use packing::reservations::{HolePolicy, ReservationTimeline};
use packing::timeline::TieBreak;
use proptest::prelude::*;
use workload::{ArrivalPattern, ArrivalTrace, DeparturePolicy, TraceConfig, WorkloadConfig};

fn trace(tasks: usize, processors: usize, seed: u64, bursty: bool) -> ArrivalTrace {
    let pattern = if bursty {
        ArrivalPattern::Bursty {
            burst_size: (tasks / 4).max(2),
            burst_gap: 3.0,
        }
    } else {
        ArrivalPattern::Poisson { rate: 4.0 }
    };
    ArrivalTrace::generate(&TraceConfig {
        workload: WorkloadConfig::mixed(tasks, processors, seed),
        pattern,
    })
    .unwrap()
}

// Every policy × option combination on a departure-bearing trace: the
// schedule passes its trace record — the structural checks, with departed
// tasks absent, and the online conditions: no task starts before its
// arrival or after its departure.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn backfilled_and_preempted_schedules_validate(
        tasks in 12usize..30,
        seed in 0u64..1000,
        patience in 1.0f64..6.0,
        bursty in 0usize..2,
    ) {
        let trace = trace(tasks, 8, seed, bursty == 1)
            .with_departures(DeparturePolicy::Patience { mean: patience }, seed)
            .unwrap();
        let registry = solver::default_registry();
        let combos = [
            PolicyOptions { backfill: true, ..PolicyOptions::default() },
            PolicyOptions { preempt_queued: true, ..PolicyOptions::default() },
            PolicyOptions { backfill: true, preempt_queued: true, ..PolicyOptions::default() },
        ];
        for kind in [
            PolicyKind::Greedy,
            PolicyKind::Epoch { period: 1.0, solver: registry.get("mrt").unwrap() },
            PolicyKind::Batch { solver: registry.get("list").unwrap() },
        ] {
            for options in &combos {
                let mut policy = kind.build_with(options.clone()).unwrap();
                let result = online::run(&trace, policy.as_mut()).unwrap();
                let violations = online::validate_against_trace(&trace, &result.schedule);
                prop_assert!(
                    violations.is_empty(),
                    "{} {options:?}: {violations:?}", result.policy
                );
                // The record lets only tasks with a deadline be absent.
                prop_assert_eq!(result.schedule.len() + result.departed, trace.len());
            }
        }
    }
}

/// Backfilling never worsens the makespan *in the mean* over a seed sweep,
/// per policy and arrival pattern, and per-trace regressions are rare and
/// bounded.
///
/// A strict per-trace "never worse" is provably false for *any* list-type
/// engine: placing a task earlier (here: inside a hole) can re-shape the
/// downstream frontier and lengthen the final schedule — the classical
/// Graham scheduling anomaly.  What the reservation model does guarantee is
/// per-*decision* domination (the hole-aware window never starts later than
/// the frontier window on the same machine state — pinned by a property
/// test in `packing::reservations`); at whole-trace level the honest claim
/// is statistical, and this test pins it deterministically.
#[test]
fn backfilling_dominates_on_average() {
    let registry = solver::default_registry();
    for (policy_label, kind) in [
        ("greedy", PolicyKind::Greedy),
        (
            "epoch-mrt",
            PolicyKind::Epoch {
                period: 1.0,
                solver: registry.get("mrt").unwrap(),
            },
        ),
    ] {
        for bursty in [false, true] {
            let mut frontier_sum = 0.0;
            let mut backfill_sum = 0.0;
            let mut worse = 0usize;
            let seeds = 20u64;
            for seed in 0..seeds {
                let trace = trace(32, 8, seed, bursty);
                let frontier = {
                    let mut policy = kind.build().unwrap();
                    online::run(&trace, policy.as_mut()).unwrap()
                };
                let backfill = {
                    let mut policy = kind
                        .build_with(PolicyOptions {
                            backfill: true,
                            ..PolicyOptions::default()
                        })
                        .unwrap();
                    online::run(&trace, policy.as_mut()).unwrap()
                };
                assert!(backfill
                    .schedule
                    .validate(&trace.instance().unwrap())
                    .is_ok());
                frontier_sum += frontier.makespan;
                backfill_sum += backfill.makespan;
                if backfill.makespan > frontier.makespan + 1e-9 {
                    worse += 1;
                }
            }
            assert!(
                backfill_sum <= frontier_sum + 1e-9,
                "{policy_label}/bursty={bursty}: backfill mean {} vs frontier mean {}",
                backfill_sum / seeds as f64,
                frontier_sum / seeds as f64
            );
            assert!(
                worse <= seeds as usize / 5,
                "{policy_label}/bursty={bursty}: {worse}/{seeds} anomalous traces"
            );
        }
    }
}

// Departures only ever remove work: with departures enabled the engine
// schedules a subset of the tasks, never starts one after its deadline, and
// the makespan never exceeds the departure-free run.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn departures_remove_work_monotonically(
        tasks in 10usize..30,
        seed in 0u64..1000,
        patience in 0.5f64..4.0,
    ) {
        let base = trace(tasks, 8, seed, true);
        let departing = base
            .clone()
            .with_departures(DeparturePolicy::Patience { mean: patience }, seed)
            .unwrap();
        let mut policy = EpochReplan::mrt(1.0).unwrap();
        let full = online::run(&base, &mut policy).unwrap();
        let mut policy = EpochReplan::mrt(1.0).unwrap();
        let dropped = online::run(&departing, &mut policy).unwrap();
        prop_assert!(dropped.schedule.len() <= full.schedule.len());
        prop_assert_eq!(dropped.schedule.len() + dropped.departed, departing.len());
        prop_assert!(online::validate_against_trace(&departing, &dropped.schedule).is_empty());
    }
}

/// The parity pin of the tentpole: replaying the exact placement sequences
/// the offline list algorithms commit through `ProcessorTimeline` into a
/// frontier-mode `ReservationTimeline` reproduces every placement
/// bit-for-bit — zero behavioural drift for the offline algorithms.
#[test]
fn reservation_frontier_mode_matches_offline_list_algorithms() {
    use workload::WorkloadGenerator;
    for seed in 0..8u64 {
        let instance = WorkloadGenerator::new(WorkloadConfig::mixed(18, 8, 300 + seed))
            .generate()
            .unwrap();
        // The canonical list construction at the guaranteed-feasible bound —
        // the same path the `list` solver and the §3 analysis use.
        let omega = bounds::upper_bound(&instance);
        let allotment = Allotment::canonical(&instance, omega).unwrap();
        for order in [
            ListOrder::DecreasingAllottedTime,
            ListOrder::DecreasingSequentialTime,
            ListOrder::ParallelFirst,
            ListOrder::AsGiven,
        ] {
            let schedule = schedule_rigid(&instance, &allotment, order);
            let mut reservations = ReservationTimeline::new(8, HolePolicy::FrontierOnly);
            // Entries are pushed in commit order; replay that order.
            for entry in schedule.entries() {
                let (window, _) = reservations.place(
                    entry.processors.count,
                    entry.duration,
                    TieBreak::PaperConvention,
                );
                assert_eq!(
                    (window.first, window.start),
                    (entry.processors.first, entry.start),
                    "seed {seed} {order:?}: drift on task {}",
                    entry.task
                );
            }
            assert!((reservations.makespan() - schedule.makespan()).abs() < 1e-12);
        }
    }
}

/// The preemption acceptance scenario at workspace level: on a bursty trace
/// whose early epochs queue malleable work behind sequential work, the
/// preemptive re-planner validates and never loses to its non-preemptive
/// twin on the engine's own shipped example (see
/// `online::engine` unit tests for the hand-computed version).
#[test]
fn preemptive_epoch_replanning_validates_on_random_bursts() {
    for seed in 0..6u64 {
        let trace = trace(24, 8, 400 + seed, true);
        let instance = trace.instance().unwrap();
        let plain = {
            let mut policy = EpochReplan::mrt(1.0).unwrap();
            online::run(&trace, &mut policy).unwrap()
        };
        let preemptive = {
            let mut policy = EpochReplan::mrt(1.0).unwrap().with_preempt_queued(true);
            online::run(&trace, &mut policy).unwrap()
        };
        for result in [&plain, &preemptive] {
            let violations = online::validate_against_trace(&trace, &result.schedule);
            assert!(violations.is_empty(), "seed {seed}: {violations:?}");
            assert_eq!(result.schedule.len(), trace.len(), "seed {seed}");
        }
        // Preemption must never break the certified offline bound.
        let offline = MrtSolver.solve(&SolveRequest::new(&instance)).unwrap();
        assert!(preemptive.makespan >= offline.lower_bound - 1e-9);
    }
}

// Mid-execution re-allotment across every speed-up profile generator and
// arrival pattern: any sequence of re-allotments the engine performs
// conserves total work within 1e-6 (checked per task on the piecewise
// schedule), and the trace record accepts every engine-produced piecewise
// schedule: per-segment feasibility, work conservation and the online
// conditions.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn reallotted_schedules_conserve_work_and_validate(
        tasks in 10usize..26,
        seed in 0u64..1000,
        family in 0usize..3,
        bursty in 0usize..2,
        with_departures in 0usize..2,
        backfill in 0usize..2,
    ) {
        // Each workload family draws from a different mix of the speed-up
        // generators (Amdahl, power-law, communication-overhead, step,
        // linear, sequential).
        let workload = match family {
            0 => WorkloadConfig::mixed(tasks, 8, seed),
            1 => WorkloadConfig::wide_tasks(tasks, 8, seed),
            _ => WorkloadConfig::sequential_heavy(tasks, 8, seed),
        };
        let pattern = if bursty == 1 {
            ArrivalPattern::Bursty { burst_size: (tasks / 3).max(2), burst_gap: 2.0 }
        } else {
            ArrivalPattern::Poisson { rate: 4.0 }
        };
        let mut trace = ArrivalTrace::generate(&TraceConfig { workload, pattern }).unwrap();
        if with_departures == 1 {
            trace = trace
                .with_departures(DeparturePolicy::Patience { mean: 4.0 }, seed)
                .unwrap();
        }
        let instance = trace.instance().unwrap();
        let registry = solver::default_registry();
        let options = PolicyOptions {
            backfill: backfill == 1,
            preempt_queued: true,
            preempt_running: true,
            ..PolicyOptions::default()
        };
        let kind = PolicyKind::Epoch { period: 1.0, solver: registry.get("mrt").unwrap() };
        let mut policy = kind.build_with(options).unwrap();
        let result = online::run(&trace, policy.as_mut()).unwrap();
        // The trace record: per-segment feasibility, per-task work
        // conservation within 1e-6, arrival/departure bounds, overlaps.
        let violations = online::validate_against_trace(&trace, &result.schedule);
        prop_assert!(violations.is_empty(), "{}: {violations:?}", result.policy);
        // Re-allotment never breaks the certified offline bound when no
        // task departed (the executed set is then the full instance).
        if result.departed == 0 {
            let offline = MrtSolver.solve(&SolveRequest::new(&instance)).unwrap();
            prop_assert!(result.makespan >= offline.lower_bound - 1e-9);
        }
    }
}

/// Backfill strictly beats the frontier engine on mixed traffic whose wide
/// tasks carve staircase holes (the deterministic end-to-end version of the
/// bench gate), for both the greedy and the epoch re-planning policy.
#[test]
fn backfill_strictly_improves_on_hole_heavy_traces() {
    let trace = ArrivalTrace::generate(&TraceConfig {
        workload: WorkloadConfig::mixed(40, 8, 0),
        pattern: ArrivalPattern::Poisson { rate: 4.0 },
    })
    .unwrap();
    let registry = solver::default_registry();
    let mut policy = EpochReplan::with_solver(1.0, registry.get("mrt").unwrap()).unwrap();
    let frontier = online::run(&trace, &mut policy).unwrap();
    let mut policy = EpochReplan::with_solver(1.0, registry.get("mrt").unwrap())
        .unwrap()
        .with_backfill(true);
    let backfill = online::run(&trace, &mut policy).unwrap();
    assert!(
        backfill.makespan < frontier.makespan - 1e-9,
        "no strict improvement: backfill {} vs frontier {}",
        backfill.makespan,
        frontier.makespan
    );
    assert!(backfill
        .schedule
        .validate(&trace.instance().unwrap())
        .is_ok());
    // The greedy policy profits too on the same trace.
    let frontier = online::run(&trace, &mut GreedyList::new()).unwrap();
    let backfill = online::run(&trace, &mut GreedyList::backfilling()).unwrap();
    assert!(
        backfill.makespan <= frontier.makespan + 1e-9,
        "greedy backfill regressed: {} vs {}",
        backfill.makespan,
        frontier.makespan
    );
}
