//! Workspace-level tests of the fault-tolerant online engine: a
//! hand-computed crash-recovery scenario checked through its run record,
//! property tests sweeping random seeded
//! fault plans over bursty traces, and the `std::error::Error` conformance
//! of the workspace's typed errors (they must box through `?`).

use std::collections::HashSet;

use malleable_core::{check, MalleableTask, SpeedupProfile};
use online::policy::{EpochReplan, GreedyList, OnlinePolicy};
use packing::reservations::{HolePolicy, ReservationError, ReservationTimeline};
use proptest::prelude::*;
use workload::{
    Arrival, ArrivalPattern, ArrivalTrace, DeparturePolicy, FaultConfig, FaultPlan, RetryPolicy,
    TraceConfig, WorkloadConfig,
};

/// A crash mid-execution, worked out by hand.  One linear task of work 6 on
/// 2 processors commits as `[0, 3) × 2`.  Processor 1 dies at t=1 with a
/// third of the work done (linear speed-up), so the conserved residual
/// (remaining 2/3 of the work, sequential time 6) restarts on processor 0
/// alone: `[1, 5) × 1`, makespan 5.
#[test]
fn crash_recovery_scenario_is_exact() {
    let trace = ArrivalTrace::new(
        2,
        vec![Arrival::new(
            0.0,
            MalleableTask::new(SpeedupProfile::linear(6.0, 2).unwrap()),
        )],
    )
    .unwrap();
    let plan = FaultPlan::empty(2, 16.0).with_outage(1, 1.0, 10.0);
    let result = online::run_with_faults(
        &trace,
        &mut GreedyList::new(),
        &plan,
        RetryPolicy::default(),
        None,
    )
    .unwrap();

    assert_eq!(result.crashes, 1);
    assert_eq!(result.repairs, 1);
    assert!((result.makespan - 5.0).abs() < 1e-9);
    assert_eq!(
        result.schedule.len(),
        2,
        "one conserved head + one residual"
    );
    let entries = result.schedule.entries();
    assert!((entries[0].start).abs() < 1e-9);
    assert!((entries[0].duration - 1.0).abs() < 1e-9);
    assert_eq!(entries[0].processors.count, 2);
    assert!((entries[1].start - 1.0).abs() < 1e-9);
    assert!((entries[1].duration - 4.0).abs() < 1e-9);
    assert_eq!(entries[1].processors.count, 1);

    // Nothing was lost: the two segments conserve the task's work, which
    // the run record checks below.
    assert!(result.wasted.is_empty());
    assert!((result.goodput_fraction() - 1.0).abs() < 1e-12);

    // Capacity lost to the outage: processor 1 from t=1 to the makespan,
    // so the integral is 2×5 − 4 = 6 — exactly the busy time, hence a
    // time-weighted utilisation of 1 while the nominal figure sees the
    // machine 60% idle.
    assert!((result.capacity_integral - 6.0).abs() < 1e-9);
    assert!((result.time_weighted_utilization() - 1.0).abs() < 1e-9);
    assert!((result.nominal_utilization() - 0.6).abs() < 1e-9);
    assert_eq!(check(&result.record(&trace)), vec![]);
}

fn bursty_trace(tasks: usize, processors: usize, seed: u64) -> ArrivalTrace {
    ArrivalTrace::generate(&TraceConfig {
        workload: WorkloadConfig::mixed(tasks, processors, seed),
        pattern: ArrivalPattern::Bursty {
            burst_size: 8,
            burst_gap: 2.0,
        },
    })
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Random seeded fault plans over bursty traces, with and without
    /// departure deadlines, under both the greedy and the epoch re-planning
    /// policies: the fault-aware validator passes (no overlap among
    /// executed or wasted segments, nothing placed inside an outage), every
    /// submitted task is accounted for, and the degradation figures stay
    /// within their ranges.
    #[test]
    fn seeded_fault_plans_degrade_gracefully(
        tasks in 16usize..36,
        seed in 0u64..1000,
        mtbf in 5.0f64..40.0,
        failure_rate in 0.0f64..0.3,
        patience in 0usize..2,
        epoch in 0usize..2,
    ) {
        let mut trace = bursty_trace(tasks, 8, seed);
        if patience == 1 {
            trace = trace
                .with_departures(DeparturePolicy::Patience { mean: 6.0 }, seed)
                .unwrap();
        }
        let retry = RetryPolicy::default();
        let horizon = (trace.last_arrival() + 1.0) * 4.0;
        let plan = FaultPlan::generate(
            &FaultConfig::new(8, trace.len(), horizon, seed)
                .with_crashes(mtbf, 2.0)
                .with_task_failures(failure_rate, retry.max_attempts),
        )
        .unwrap();
        let mut policy: Box<dyn OnlinePolicy> = if epoch == 1 {
            Box::new(EpochReplan::mrt(1.0).unwrap())
        } else {
            Box::new(GreedyList::new())
        };
        let result =
            online::run_with_faults(&trace, policy.as_mut(), &plan, retry, None).unwrap();

        let violations = check(&result.record(&trace));
        prop_assert!(violations.is_empty(), "{violations:?}");

        // No lost tasks: completed + departed + abandoned partitions the
        // submissions.
        let completed: HashSet<usize> =
            result.schedule.entries().iter().map(|e| e.task).collect();
        prop_assert_eq!(
            completed.len() + result.departed + result.abandoned.len(),
            trace.len()
        );
        prop_assert_eq!(result.abandoned.len(), result.retries_exhausted);

        // The degradation figures: goodput and both utilisations are
        // proper fractions, and the online capacity bounds the busy time.
        let goodput = result.goodput_fraction();
        prop_assert!((0.0..=1.0 + 1e-9).contains(&goodput), "goodput {}", goodput);
        prop_assert!(result.wasted_integral >= -1e-9);
        prop_assert!(
            result.busy_integral <= result.capacity_integral + 1e-6,
            "busy {} exceeds online capacity {}",
            result.busy_integral,
            result.capacity_integral
        );
        let tw = result.time_weighted_utilization();
        prop_assert!((0.0..=1.0 + 1e-6).contains(&tw), "utilisation {}", tw);
        prop_assert!(result.nominal_utilization() <= tw + 1e-9);
    }
}

// A quiet plan (no outages, no failures) must reproduce the fault-free run
// bit for bit, whatever the trace.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn quiet_plans_are_observationally_fault_free(
        tasks in 12usize..24,
        seed in 0u64..1000,
    ) {
        let trace = bursty_trace(tasks, 8, seed);
        let baseline = online::run(&trace, &mut GreedyList::new()).unwrap();
        let plan = FaultPlan::empty(8, (trace.last_arrival() + 1.0) * 4.0);
        prop_assert!(plan.is_quiet());
        let faulted = online::run_with_faults(
            &trace,
            &mut GreedyList::new(),
            &plan,
            RetryPolicy::default(),
            None,
        )
        .unwrap();
        prop_assert_eq!(baseline.schedule.len(), faulted.schedule.len());
        prop_assert!((baseline.makespan - faulted.makespan).abs() < 1e-12);
        prop_assert!((faulted.goodput_fraction() - 1.0).abs() < 1e-12);
    }
}

/// The workspace's typed errors implement `std::error::Error` + `Display`:
/// they must flow through `?` into a `Box<dyn Error>` (the conventional
/// application-level error sink) and keep their messages.
#[test]
fn typed_errors_box_through_question_mark() {
    fn double_cancel() -> Result<(), Box<dyn std::error::Error>> {
        let mut timeline = ReservationTimeline::new(2, HolePolicy::default());
        let id = timeline.reserve(0, 1, 0.0, 1.0);
        timeline.cancel(id)?;
        timeline.cancel(id)?;
        Ok(())
    }
    let err = double_cancel().unwrap_err();
    assert!(
        err.to_string().contains("already cancelled"),
        "unexpected message: {err}"
    );
    assert!(err.downcast_ref::<ReservationError>().is_some());

    fn invalid_profile() -> Result<(), Box<dyn std::error::Error>> {
        SpeedupProfile::sequential(-1.0)?;
        Ok(())
    }
    let err = invalid_profile().unwrap_err();
    assert!(
        err.downcast_ref::<malleable_core::Error>().is_some(),
        "expected a malleable_core::Error, got: {err}"
    );
    assert!(
        err.to_string().contains("invalid"),
        "unexpected message: {err}"
    );
}
