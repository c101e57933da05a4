//! The benchmark's wrappers and hooks are pass-through: a wrapped run makes
//! bit-identical decisions to an unwrapped one.

use std::sync::Arc;

use benchmark::spans::Tracer;
use benchmark::wrappers::{
    Checkpoints, CountingRecorder, PlacementCheckpoints, TimedOracle, TimedPolicy, TimedSolver,
};
use hetero::{run_classed, ClassedCluster, ClassedEngineOptions};
use malleable_core::prelude::*;
use online::policy::EpochReplan;
use online::{CollectingSink, ShardedConfig};
use telemetry::SpanTimer;
use workload::{ArrivalPattern, ArrivalTrace, TraceConfig, WorkloadConfig, WorkloadGenerator};

fn mrt() -> SolverHandle {
    solver::default_registry().get("mrt").unwrap()
}

/// Every field of every entry, floats by bit pattern.
fn entries(schedule: &Schedule) -> Vec<(usize, u64, u64, usize, usize)> {
    schedule
        .entries()
        .iter()
        .map(|e| {
            (
                e.task,
                e.start.to_bits(),
                e.duration.to_bits(),
                e.processors.first,
                e.processors.count,
            )
        })
        .collect()
}

fn trace(pattern: ArrivalPattern, n: usize, m: usize, seed: u64) -> ArrivalTrace {
    ArrivalTrace::generate(&TraceConfig {
        workload: WorkloadConfig::mixed(n, m, seed),
        pattern,
    })
    .unwrap()
}

/// The two epoch policies the online workloads run.
fn policies(solver: SolverHandle) -> [EpochReplan; 2] {
    let plain = EpochReplan::with_solver(1.0, solver).unwrap();
    let reallot = plain.clone().with_backfill(true).with_preempt_running(true);
    [plain, reallot]
}

#[test]
fn timing_policy_and_solver_wrappers_change_no_online_decision() {
    let traces = [
        trace(ArrivalPattern::Poisson { rate: 4.0 }, 150, 16, 3),
        trace(
            ArrivalPattern::Bursty {
                burst_size: 16,
                burst_gap: 5.0,
            },
            120,
            16,
            4,
        ),
    ];
    for trace in &traces {
        for k in 0..2 {
            // Policies keep warm state across epochs: a fresh one per run.
            let fresh = || policies(mrt())[k].clone();
            let expected = online::run(trace, &mut fresh()).unwrap();
            // Untraced timing wrapper around the plain solver.
            let mut timed = TimedPolicy::new(fresh(), SpanTimer::start(), None);
            let got = online::run(trace, &mut timed).unwrap();
            // Traced wrapper around the timing solver, through the recorded
            // engine with the counting recorder.
            let tracer = Tracer::new();
            let wrapped = policies(TimedSolver::new(mrt(), Arc::new(Tracer::new())))[k].clone();
            let mut traced = TimedPolicy::new(wrapped, SpanTimer::start(), Some(&tracer));
            let recorder = CountingRecorder::shared();
            let recorded = online::run_recorded(trace, &mut traced, recorder.as_ref()).unwrap();
            for result in [&got, &recorded] {
                assert_eq!(entries(&result.schedule), entries(&expected.schedule));
                assert_eq!(result.makespan.to_bits(), expected.makespan.to_bits());
                assert_eq!(result.replans, expected.replans);
                assert_eq!(result.events, expected.events);
            }
            assert_eq!(timed.into_log().returns_ns.len(), expected.replans);
            assert!(recorder.count(telemetry::names::TIMELINE_RESERVATIONS) > 0);
        }
    }
}

#[test]
fn timing_oracle_reproduces_the_registry_solver() {
    let configs: [fn(usize, usize, u64) -> WorkloadConfig; 3] = [
        WorkloadConfig::mixed,
        WorkloadConfig::wide_tasks,
        WorkloadConfig::sequential_heavy,
    ];
    for (seed, config) in configs.iter().enumerate() {
        let instance = WorkloadGenerator::new(config(60, 16, seed as u64))
            .generate()
            .unwrap();
        let expected = mrt().solve(&SolveRequest::new(&instance)).unwrap();
        let tracer = Tracer::new();
        let oracle = TimedOracle::new(MrtScheduler::default(), &tracer);
        let got = DualSearch::default()
            .solve_guided(
                &instance,
                &oracle,
                SearchMode::default(),
                None,
                &mut ProbeWorkspace::new(),
            )
            .unwrap();
        assert_eq!(entries(&got.schedule), entries(&expected.schedule));
        assert_eq!(
            got.schedule.makespan().to_bits(),
            expected.makespan().to_bits()
        );
        assert_eq!(got.probes, expected.probes);
        assert_eq!(
            got.certified_lower_bound.to_bits(),
            expected.lower_bound.to_bits()
        );
        assert_eq!(oracle.into_probes().len(), expected.probes);
    }
}

#[test]
fn sharded_and_classed_hooks_change_no_decision() {
    let pattern = ArrivalPattern::Bursty {
        burst_size: 40,
        burst_gap: 2.0,
    };
    let trace = trace(pattern, 400, 16, 5);
    let run = |solver: SolverHandle| {
        let mut sink = CollectingSink::new(16);
        let result =
            online::run_sharded(&trace, &ShardedConfig::new(2, 1.0, solver), &mut sink, None)
                .unwrap();
        (
            entries(&sink.into_schedule()),
            result.mean_flow_time.to_bits(),
        )
    };
    let timed = TimedSolver::new(mrt(), Arc::new(Tracer::new()));
    assert_eq!(run(mrt()), run(Arc::clone(&timed) as SolverHandle));
    assert!(!timed.samples().is_empty());

    let cluster = ClassedCluster::from_spec("old=8x1.0,new=4x2.5").unwrap();
    let trace = self::trace(pattern, 300, 12, 6);
    let expected = run_classed(&trace, &cluster, &ClassedEngineOptions::default()).unwrap();
    let checkpoints = Arc::new(Checkpoints::new(SpanTimer::start(), 10));
    let options = ClassedEngineOptions {
        recorder: Some(Arc::new(PlacementCheckpoints(Arc::clone(&checkpoints)))),
        ..ClassedEngineOptions::default()
    };
    let got = run_classed(&trace, &cluster, &options).unwrap();
    assert_eq!(entries(&got.schedule), entries(&expected.schedule));
    assert!(checkpoints.calls() >= 300);
}
