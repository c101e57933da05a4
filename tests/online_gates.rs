//! The online engine's evaluation gates, on small seeded trace suites: every
//! policy's schedules validate across the classical trace families,
//! backfilling never loses to the frontier-only engine, mid-execution
//! re-allotment beats queued-only preemption under bursty overload, a
//! recorded re-allotting run stays violation-free, and seeded faults degrade
//! gracefully — including a forced solver fault absorbed by the fallback
//! ladder.

use std::collections::HashSet;
use std::sync::Arc;

use online::policy::{BatchUntilIdle, EpochReplan, GreedyList, OnlinePolicy};
use solver::{FallbackSolver, FaultInjectingSolver, SolverFaultMode};
use telemetry::{CollectingRecorder, SharedRecorder};
use workload::{
    ArrivalPattern, ArrivalTrace, DeparturePolicy, FaultConfig, FaultPlan, RetryPolicy,
    TraceConfig, WorkloadConfig,
};

/// The seeds every gate sweeps.
const SEEDS: std::ops::Range<u64> = 0..2;

/// A seed-parameterised trace generator: `tasks` tasks of one workload
/// family on `processors` processors, optionally with exponential departure
/// patience of the given mean.
struct Family {
    name: &'static str,
    tasks: usize,
    processors: usize,
    pattern: ArrivalPattern,
    workload: fn(usize, usize, u64) -> WorkloadConfig,
    patience: Option<f64>,
}

impl Family {
    fn trace(&self, seed: u64) -> ArrivalTrace {
        let trace = ArrivalTrace::generate(&TraceConfig {
            workload: (self.workload)(self.tasks, self.processors, seed),
            pattern: self.pattern,
        })
        .unwrap();
        let trace = match self.patience {
            Some(mean) => trace
                .with_departures(DeparturePolicy::Patience { mean }, seed)
                .unwrap(),
            None => trace,
        };
        assert_eq!(trace.len(), self.tasks, "{}", self.name);
        assert_eq!(
            trace.has_departures(),
            self.patience.is_some(),
            "{}",
            self.name
        );
        trace
    }
}

const fn bursty(
    name: &'static str,
    processors: usize,
    burst_size: usize,
    burst_gap: f64,
    patience: Option<f64>,
) -> Family {
    Family {
        name,
        tasks: 96,
        processors,
        pattern: ArrivalPattern::Bursty {
            burst_size,
            burst_gap,
        },
        workload: WorkloadConfig::mixed,
        patience,
    }
}

/// The classical families: light and heavy Poisson traffic, and synchronised
/// bursts of wide tasks.
const CLASSICAL: [Family; 3] = [
    Family {
        name: "poisson-light",
        tasks: 120,
        processors: 16,
        pattern: ArrivalPattern::Poisson { rate: 1.0 },
        workload: WorkloadConfig::mixed,
        patience: None,
    },
    Family {
        name: "poisson-heavy",
        tasks: 120,
        processors: 16,
        pattern: ArrivalPattern::Poisson { rate: 8.0 },
        workload: WorkloadConfig::mixed,
        patience: None,
    },
    Family {
        name: "bursty-wide",
        tasks: 90,
        processors: 16,
        pattern: ArrivalPattern::Bursty {
            burst_size: 18,
            burst_gap: 4.0,
        },
        workload: WorkloadConfig::wide_tasks,
        patience: None,
    },
];

/// Synchronised bursts of mixed traffic: staircase holes below the frontier.
const BURSTY_MIXED: Family = bursty("bursty-mixed", 16, 16, 3.0, None);
const BURSTY_DEPARTURES: Family = bursty("bursty-departures", 16, 16, 3.0, Some(6.0));

/// Large bursts on a small machine: every burst lands while wide tasks of
/// the previous one still run, the regime where re-allotting running
/// commitments pays off.
const BURSTY_OVERLOAD: [Family; 2] = [
    bursty("bursty-overload", 8, 24, 2.0, None),
    bursty("bursty-overload-departures", 8, 24, 2.0, Some(12.0)),
];

fn mrt() -> malleable_core::SolverHandle {
    solver::default_registry().get("mrt").unwrap()
}

fn epoch_mrt() -> EpochReplan {
    EpochReplan::with_solver(1.0, mrt()).unwrap()
}

/// What a seed sweep of one policy on one family observed.
struct Sweep {
    /// `ratio_vs_lower_bound` of every seed that has one (a run whose tasks
    /// all departed has none).
    ratios: Vec<f64>,
    /// Running commitments truncated across the sweep.
    reallotted: usize,
}

/// Run a fresh policy from `build` on every seed of `family`.  Every
/// schedule, piecewise re-allotted ones included, must pass the trace
/// record's checks, and every run must have a competitive report.
fn sweep(family: &Family, build: &dyn Fn() -> Box<dyn OnlinePolicy>) -> Sweep {
    let mut sweep = Sweep {
        ratios: Vec::new(),
        reallotted: 0,
    };
    for seed in SEEDS {
        let trace = family.trace(seed);
        let mut policy = build();
        let result = online::run(&trace, policy.as_mut()).unwrap();
        let violations = online::validate_against_trace(&trace, &result.schedule);
        assert!(
            violations.is_empty(),
            "{} seed {seed}, {}: {violations:?}",
            family.name,
            result.policy
        );
        let report = online::competitive_report(&trace, &result).unwrap();
        sweep.ratios.extend(report.ratio_vs_lower_bound);
        sweep.reallotted += result.reallotted;
    }
    sweep
}

fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[test]
fn every_policy_validates_on_the_classical_families() {
    let ludwig = || solver::default_registry().get("ludwig").unwrap();
    let policies: [&dyn Fn() -> Box<dyn OnlinePolicy>; 4] = [
        &|| Box::new(GreedyList::new()),
        &|| Box::new(epoch_mrt()),
        &|| Box::new(EpochReplan::with_solver(1.0, ludwig()).unwrap()),
        &|| Box::new(BatchUntilIdle::with_solver(mrt())),
    ];
    for family in &CLASSICAL {
        for build in policies {
            let runs = sweep(family, build);
            assert_eq!(runs.ratios.len(), SEEDS.count(), "{}", family.name);
        }
    }
}

#[test]
fn backfill_never_loses_to_the_frontier_on_bursty_mixed() {
    let frontier = sweep(&BURSTY_MIXED, &|| Box::new(epoch_mrt()));
    let backfill = sweep(&BURSTY_MIXED, &|| Box::new(epoch_mrt().with_backfill(true)));
    let (frontier, backfill) = (
        mean(&frontier.ratios).unwrap(),
        mean(&backfill.ratios).unwrap(),
    );
    assert!(
        backfill <= frontier + 1e-9,
        "backfill mean ratio {backfill} exceeds the frontier's {frontier}"
    );
}

#[test]
fn running_reallotment_beats_queued_preemption_under_overload() {
    let queued_only = || epoch_mrt().with_preempt_queued(true);
    for family in &BURSTY_OVERLOAD {
        let queued = sweep(family, &|| Box::new(queued_only()));
        let running = sweep(family, &|| {
            Box::new(queued_only().with_preempt_running(true))
        });
        // Seeds without a ratio are left out of both means; a family with
        // no ratio at all has nothing to compare.
        if let (Some(q), Some(r)) = (mean(&queued.ratios), mean(&running.ratios)) {
            assert!(
                r < q - 1e-9,
                "{}: re-allotting mean ratio {r} does not beat queued-only {q}",
                family.name
            );
            assert!(running.reallotted > 0, "{}: nothing truncated", family.name);
        }
    }
}

#[test]
fn a_recorded_reallotting_run_has_no_invariant_violations() {
    let recorder = CollectingRecorder::shared();
    let mut policy = epoch_mrt()
        .with_preempt_queued(true)
        .with_preempt_running(true)
        .with_recorder(recorder.clone() as SharedRecorder);
    let trace = BURSTY_MIXED.trace(0);
    let epoch = policy.epoch();
    let result = online::run_recorded(&trace, &mut policy, recorder.as_ref()).unwrap();
    let summary = online::summarize(&recorder, &result, epoch);
    assert_eq!(summary.invariant_violations, 0);
}

#[test]
fn seeded_faults_lose_no_task_and_at_most_double_the_makespan() {
    // (mean time between failures, per-attempt failure rate); repairs take
    // 2 time units on average.
    let intensities = [(None, 0.0), (Some(24.0), 0.05), (Some(10.0), 0.2)];
    let retry = RetryPolicy::default();
    for family in [&BURSTY_MIXED, &BURSTY_DEPARTURES] {
        let mut fault_free = None;
        for (mtbf, failure_rate) in intensities {
            let mut makespans = Vec::new();
            for seed in SEEDS {
                let trace = family.trace(seed);
                let horizon = (trace.last_arrival() + 1.0) * 4.0;
                let plan = match mtbf {
                    Some(mtbf) => FaultPlan::generate(
                        &FaultConfig::new(trace.processors(), trace.len(), horizon, seed)
                            .with_crashes(mtbf, 2.0)
                            .with_task_failures(failure_rate, retry.max_attempts),
                    )
                    .unwrap(),
                    None => FaultPlan::empty(trace.processors(), horizon),
                };
                let mut policy = EpochReplan::mrt(1.0).unwrap();
                let result =
                    online::run_with_faults(&trace, &mut policy, &plan, retry, None).unwrap();
                let label = format!("{} mtbf {mtbf:?} seed {seed}", family.name);
                assert_eq!(
                    malleable_core::check(&result.record(&trace)),
                    vec![],
                    "{label}"
                );
                let completed: HashSet<usize> =
                    result.schedule.entries().iter().map(|e| e.task).collect();
                assert_eq!(
                    completed.len() + result.departed + result.abandoned.len(),
                    trace.len(),
                    "{label}: tasks lost"
                );
                makespans.push(result.makespan);
            }
            let mean_makespan = mean(&makespans).unwrap();
            match fault_free {
                None => fault_free = Some(mean_makespan),
                Some(baseline) if family.patience.is_none() => assert!(
                    mean_makespan <= 2.0 * baseline + 1e-9,
                    "{} mtbf {mtbf:?}: mean makespan {mean_makespan} exceeds twice the \
                     fault-free {baseline}",
                    family.name
                ),
                Some(_) => {}
            }
        }
    }
}

#[test]
fn a_forced_solver_fault_degrades_exactly_one_epoch() {
    let recorder = CollectingRecorder::shared();
    let ladder = Arc::new(
        FallbackSolver::new(Arc::new(FaultInjectingSolver::new(
            mrt(),
            1,
            SolverFaultMode::Error,
        )))
        .with_recorder(recorder.clone() as SharedRecorder),
    );
    let mut policy = EpochReplan::with_solver(1.0, ladder.clone()).unwrap();
    let trace = BURSTY_MIXED.trace(0);
    let epoch = policy.epoch();
    let result = online::run_recorded(&trace, &mut policy, recorder.as_ref()).unwrap();
    assert!(online::validate_against_trace(&trace, &result.schedule).is_empty());
    let summary = online::summarize(&recorder, &result, epoch);
    assert_eq!(ladder.degraded(), 1);
    assert_eq!(summary.solver_degraded, 1);
    assert_eq!(summary.invariant_violations, 0);
}
