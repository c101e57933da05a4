//! Workspace-level tests of the online scheduling engine: deterministic
//! traces with exactly known makespans per policy, and cross-checks of every
//! policy against the offline MRT solver and the trace record's checks.

use malleable_core::{MalleableTask, MrtSolver, SolveRequest, Solver, SpeedupProfile};
use online::policy::{BatchUntilIdle, EpochReplan, GreedyList, PolicyKind};
use workload::{Arrival, ArrivalPattern, ArrivalTrace, TraceConfig, WorkloadConfig};

fn sequential(at: f64, duration: f64) -> Arrival {
    Arrival::new(
        at,
        MalleableTask::new(SpeedupProfile::sequential(duration).unwrap()),
    )
}

fn linear(at: f64, work: f64, width: usize) -> Arrival {
    Arrival::new(
        at,
        MalleableTask::new(SpeedupProfile::linear(work, width).unwrap()),
    )
}

/// A hand-computable trace on 2 processors:
///   t=0: linear task of work 4 (2 time units on the whole machine)
///   t=1: two sequential tasks of 1 time unit each
fn known_trace() -> ArrivalTrace {
    ArrivalTrace::new(
        2,
        vec![
            linear(0.0, 4.0, 2),
            sequential(1.0, 1.0),
            sequential(1.0, 1.0),
        ],
    )
    .unwrap()
}

#[test]
fn greedy_makespan_is_exact_on_the_known_trace() {
    // Greedy: task 0 takes both processors over [0, 2] (width 2 minimises its
    // finish).  The sequential tasks arriving at t=1 each wait for a free
    // processor and run over [2, 3] in parallel.
    let trace = known_trace();
    let result = online::run(&trace, &mut GreedyList::new()).unwrap();
    assert!(
        (result.makespan - 3.0).abs() < 1e-9,
        "got {}",
        result.makespan
    );
    assert!((result.mean_flow_time - 2.0).abs() < 1e-9);
}

#[test]
fn epoch_mrt_makespan_is_exact_on_the_known_trace() {
    // Epoch 1.0: arrivals at a tick instant are queued before the tick fires
    // (arrival → completion → departure → tick event order), so the t=1
    // batch holds all three tasks.  Offline MRT packs them into the area-bound optimum of 3
    // time units (linear task on both processors, then the two sequential
    // tasks in parallel); committed at t=1 the last completion is at 4.
    let trace = known_trace();
    let mut policy = EpochReplan::mrt(1.0).unwrap();
    let result = online::run(&trace, &mut policy).unwrap();
    assert_eq!(result.replans, 1);
    assert!(
        (result.makespan - 4.0).abs() < 1e-9,
        "got {}",
        result.makespan
    );
}

#[test]
fn batch_until_idle_makespan_is_exact_on_the_known_trace() {
    // Batch: task 0 starts immediately ([0, 2]).  The sequential tasks wait
    // for the drain at t=2, then run in parallel over [2, 3].
    let trace = known_trace();
    let mut policy = BatchUntilIdle::default();
    let result = online::run(&trace, &mut policy).unwrap();
    assert_eq!(result.replans, 2);
    assert!(
        (result.makespan - 3.0).abs() < 1e-9,
        "got {}",
        result.makespan
    );
}

#[test]
fn staggered_sequential_arrivals_have_exact_greedy_makespans() {
    // One processor, arrivals back to back with a gap: the makespan is the
    // end of the second busy period.
    //   t=0: 2.0  → [0, 2]
    //   t=1: 0.5  → [2, 2.5]
    //   t=4: 1.0  → [4, 5]   (machine idle over [2.5, 4])
    let trace = ArrivalTrace::new(
        1,
        vec![
            sequential(0.0, 2.0),
            sequential(1.0, 0.5),
            sequential(4.0, 1.0),
        ],
    )
    .unwrap();
    let result = online::run(&trace, &mut GreedyList::new()).unwrap();
    assert!((result.makespan - 5.0).abs() < 1e-9);
    assert!((result.max_flow_time - 2.0).abs() < 1e-9);
}

fn trace_families() -> Vec<(&'static str, ArrivalTrace)> {
    let mut traces = Vec::new();
    for (name, workload, pattern) in [
        (
            "poisson-mixed",
            WorkloadConfig::mixed(50, 8, 21),
            ArrivalPattern::Poisson { rate: 3.0 },
        ),
        (
            "poisson-wide",
            WorkloadConfig::wide_tasks(30, 16, 22),
            ArrivalPattern::Poisson { rate: 2.0 },
        ),
        (
            "bursty-sequential",
            WorkloadConfig::sequential_heavy(60, 8, 23),
            ArrivalPattern::Bursty {
                burst_size: 12,
                burst_gap: 3.0,
            },
        ),
    ] {
        traces.push((
            name,
            ArrivalTrace::generate(&TraceConfig { workload, pattern }).unwrap(),
        ));
    }
    traces
}

fn all_policies() -> Vec<PolicyKind> {
    // The offline planning oracles are resolved through the same registry
    // the CLI and the benches use.
    let registry = solver::default_registry();
    let get = |name: &str| registry.get(name).expect("registered solver");
    vec![
        PolicyKind::Greedy,
        PolicyKind::Epoch {
            period: 1.0,
            solver: get("mrt"),
        },
        PolicyKind::Epoch {
            period: 2.0,
            solver: get("ludwig"),
        },
        PolicyKind::Batch { solver: get("mrt") },
        PolicyKind::Batch {
            solver: get("list"),
        },
    ]
}

#[test]
fn every_policy_dominates_the_offline_run_and_validates() {
    for (family, trace) in trace_families() {
        let instance = trace.instance().unwrap();
        let offline = MrtSolver.solve(&SolveRequest::new(&instance)).unwrap();
        for kind in all_policies() {
            let mut policy = kind.build().unwrap();
            let result = online::run(&trace, policy.as_mut()).unwrap();

            // Every committed schedule passes its trace record, so no task
            // starts before its arrival, and each task runs once.
            let violations = online::validate_against_trace(&trace, &result.schedule);
            assert!(
                violations.is_empty(),
                "{family}/{}: {violations:?}",
                result.policy
            );
            assert_eq!(result.schedule.len(), trace.len(), "{family}");

            // Online can never beat the certified offline lower bound — that
            // is a theorem.  The stronger comparison against the offline MRT
            // *makespan* below is empirical, not a theorem (MRT is itself a
            // √3-approximation): it is a golden-value regression check that
            // holds on these three fixed traces, and everything feeding it —
            // workload generator, vendored RNG, MRT search — is deterministic
            // in-repo, so it can only change when behaviour changes.
            assert!(
                result.makespan >= offline.lower_bound - 1e-9,
                "{family}/{}: makespan {} below the certified bound {}",
                result.policy,
                result.makespan,
                offline.lower_bound
            );
            assert!(
                result.makespan >= offline.schedule.makespan() - 1e-9,
                "{family}/{}: online makespan {} below offline MRT {}",
                result.policy,
                result.makespan,
                offline.schedule.makespan()
            );
        }
    }
}

#[test]
fn engine_runs_are_deterministic() {
    let trace = ArrivalTrace::generate(&TraceConfig {
        workload: WorkloadConfig::mixed(40, 8, 5),
        pattern: ArrivalPattern::Poisson { rate: 4.0 },
    })
    .unwrap();
    let run_once = || {
        let mut policy = EpochReplan::mrt(0.75).unwrap();
        online::run(&trace, &mut policy).unwrap()
    };
    let a = run_once();
    let b = run_once();
    assert_eq!(a.schedule.entries(), b.schedule.entries());
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.replans, b.replans);
}

#[test]
fn competitive_reports_are_finite_on_every_family() {
    for (family, trace) in trace_families() {
        let mut policy = EpochReplan::mrt(1.0).unwrap();
        let result = online::run(&trace, &mut policy).unwrap();
        let report = online::competitive_report(&trace, &result).unwrap();
        let vs_offline = report.ratio_vs_offline.expect("tasks executed");
        let vs_lb = report.ratio_vs_lower_bound.expect("tasks executed");
        assert!(
            vs_offline.is_finite() && vs_offline >= 1.0 - 1e-9,
            "{family}: ratio vs offline {vs_offline}"
        );
        assert!(
            vs_lb.is_finite() && vs_lb >= 1.0 - 1e-9,
            "{family}: ratio vs LB {vs_lb}"
        );
    }
}
