//! The classed online engine: epoch-driven scheduling of an arrival trace
//! over per-class reservation pools.
//!
//! Each machine class owns one [`MachineState`] (its contiguous slice of
//! the global processor axis).  Arrivals queue until the next epoch
//! boundary; every epoch with new arrivals re-solves the whole queued set —
//! assignment (which class) and allotment (how many processors within the
//! class) — and commits the plan.  Commitments that have not started by the
//! next re-solve are revoked and re-planned, so **queued tasks may migrate
//! between classes** as the arrival picture changes; commitments that are
//! already executing stay where they are (running tasks never migrate).
//!
//! Telemetry: every cross-class re-assignment emits a
//! [`TelemetryEvent::ClassMigration`] and bumps
//! [`names::CLASS_MIGRATIONS`]; the end of the run emits one
//! [`TelemetryEvent::ClassUtilization`] per class.

use malleable_core::dual::SearchMode;
use malleable_core::eps::approx_le;
use malleable_core::validate::{check, RunRecord, TaskWindow};
use malleable_core::{
    MrtSolver, ProcessorRange, Result, Schedule, ScheduledTask, SolveRequest, Solver,
};
use online::MachineState;
use telemetry::{names, SharedRecorder, TelemetryEvent};
use workload::ArrivalTrace;

use crate::cluster::ClassedCluster;
use crate::instance::HeteroInstance;
use crate::profile::ClassedSpeedupProfile;
use crate::solver::AssignStrategy;

/// Tuning knobs of one classed engine run.
#[derive(Clone)]
pub struct ClassedEngineOptions {
    /// Re-solve period (simulated time).
    pub epoch: f64,
    /// Task → class assignment strategy used at every re-solve.
    pub strategy: AssignStrategy,
    /// Dual-search mode of the per-class allotment solves.
    pub search: SearchMode,
    /// Optional telemetry sink.
    pub recorder: Option<SharedRecorder>,
}

impl Default for ClassedEngineOptions {
    fn default() -> Self {
        ClassedEngineOptions {
            epoch: 1.0,
            strategy: AssignStrategy::Lp,
            search: SearchMode::Exact,
            recorder: None,
        }
    }
}

/// The outcome of one classed engine run.
#[derive(Debug, Clone)]
pub struct ClassedRunResult {
    /// The cluster the run executed on.
    pub cluster: ClassedCluster,
    /// Final commitments on the global processor axis (durations are
    /// class-scaled, so the identical-machines `Schedule::validate` does
    /// not apply; see [`ClassedRunResult::check`]).
    pub schedule: Schedule,
    /// Completion time of the last task.
    pub makespan: f64,
    /// Mean flow time (completion − arrival).
    pub mean_flow_time: f64,
    /// Queued-task re-assignments between classes across all re-solves.
    pub migrations: usize,
    /// Planning rounds (epochs that re-solved).
    pub replans: usize,
    /// Per-class integral of busy processors (Σ `count × duration` of the
    /// final commitments inside the class).
    pub class_busy: Vec<f64>,
}

impl ClassedRunResult {
    /// Utilisation of class `class` over the makespan horizon.
    pub fn class_utilization(&self, class: usize) -> f64 {
        let count = self.cluster.classes()[class].count as f64;
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.class_busy[class] / (count * self.makespan)
    }

    /// The record of this run of `trace`: each task is released at its
    /// arrival and runs exactly once (the engine models no departures), for
    /// its profile time over its class's speed, one slice per class.
    pub fn record<'a>(&'a self, trace: &'a ArrivalTrace) -> RunRecord<'a> {
        let tasks = trace.arrivals().iter().map(|arrival| TaskWindow {
            profile: &arrival.task.profile,
            release: arrival.at,
            latest_start: f64::INFINITY,
            may_be_absent: false,
        });
        RunRecord::new(
            self.cluster.total_processors(),
            tasks.collect(),
            &self.schedule,
        )
        .with_faults(&[], &[], self.makespan)
        .with_slices(self.cluster.slices())
    }

    /// Validate a classed run against its trace through
    /// [`ClassedRunResult::record`]: the `Display` text of each violation
    /// (empty = valid).
    pub fn check(&self, trace: &ArrivalTrace) -> Vec<String> {
        check(&self.record(trace))
            .iter()
            .map(ToString::to_string)
            .collect()
    }
}

struct Committed {
    class: usize,
    reservation: packing::ReservationId,
    first: usize,
    count: usize,
    start: f64,
    duration: f64,
}

enum TaskState {
    Queued { last_class: Option<usize> },
    Committed(Committed),
}

/// Run an arrival trace through the classed engine.  The trace's machine
/// size must equal the cluster's total processor count.
pub fn run_classed(
    trace: &ArrivalTrace,
    cluster: &ClassedCluster,
    options: &ClassedEngineOptions,
) -> Result<ClassedRunResult> {
    if trace.processors() != cluster.total_processors() {
        return Err(malleable_core::Error::InvalidConfig {
            key: "machine-classes",
            message: format!(
                "cluster has {} processors but the trace has {}",
                cluster.total_processors(),
                trace.processors()
            ),
        });
    }
    assert!(
        options.epoch.is_finite() && options.epoch > 0.0,
        "epoch must be positive, got {}",
        options.epoch
    );
    let recorder: SharedRecorder = options
        .recorder
        .clone()
        .unwrap_or_else(|| std::sync::Arc::new(telemetry::NoopRecorder));
    let n = trace.len();
    let mut machines: Vec<MachineState> = cluster
        .classes()
        .iter()
        .map(|c| MachineState::new(c.count))
        .collect();
    let mut states: Vec<Option<TaskState>> = (0..n).map(|_| None).collect();
    let mut admitted = 0usize;
    let mut replans = 0usize;
    let mut migrations = 0usize;
    let mut now = 0.0f64;

    while admitted < n || states.iter().any(|s| s.is_none()) {
        for machine in &mut machines {
            machine.advance_to(now);
        }
        // Admit everything that has arrived by this epoch boundary.
        let mut fresh = 0usize;
        while admitted < n && approx_le(trace.arrivals()[admitted].at, now) {
            states[admitted] = Some(TaskState::Queued { last_class: None });
            admitted += 1;
            fresh += 1;
        }
        if fresh > 0 {
            // Revoke commitments that have not started: they re-enter the
            // queue and may land in a different class.
            for (task, state) in states.iter_mut().enumerate() {
                if let Some(TaskState::Committed(c)) = state {
                    if !approx_le(c.start, now) {
                        machines[c.class].revoke(c.reservation).map_err(|e| {
                            malleable_core::Error::InvariantViolated {
                                context: "classed-revoke-queued",
                                message: format!("task {task}: {e}"),
                            }
                        })?;
                        *state = Some(TaskState::Queued {
                            last_class: Some(c.class),
                        });
                    }
                }
            }
            // Re-solve the queued set: assignment, then per-class allotment.
            let queued: Vec<usize> = states
                .iter()
                .enumerate()
                .filter(|(_, s)| matches!(s, Some(TaskState::Queued { .. })))
                .map(|(task, _)| task)
                .collect();
            let profiles: Vec<ClassedSpeedupProfile> = queued
                .iter()
                .map(|&task| {
                    ClassedSpeedupProfile::from_speeds(
                        trace.arrivals()[task].task.profile.clone(),
                        cluster,
                    )
                })
                .collect();
            let hetero = HeteroInstance::new(cluster.clone(), profiles)?;
            let assignment = options.strategy.assign(&hetero);
            replans += 1;
            for (local, &task) in queued.iter().enumerate() {
                let Some(TaskState::Queued { last_class }) = &states[task] else {
                    unreachable!("queued list was just built from the states")
                };
                if let Some(prev) = last_class {
                    if *prev != assignment[local] {
                        migrations += 1;
                        recorder.add(names::CLASS_MIGRATIONS, 1);
                        if recorder.enabled() {
                            recorder.event(TelemetryEvent::ClassMigration {
                                time: now,
                                task: task as u64,
                                from_class: cluster.classes()[*prev].name.clone(),
                                to_class: cluster.classes()[assignment[local]].name.clone(),
                            });
                        }
                    }
                }
            }
            for (class, machine) in machines.iter_mut().enumerate() {
                let locals: Vec<usize> = (0..queued.len())
                    .filter(|&local| assignment[local] == class)
                    .collect();
                if locals.is_empty() {
                    continue;
                }
                let ids: Vec<usize> = locals.iter().map(|&local| queued[local]).collect();
                let class_instance = hetero.class_instance(class, &locals)?;
                let request = SolveRequest::new(&class_instance).with_mode(options.search);
                let outcome = MrtSolver.solve(&request)?;
                // Commit in the offline plan's start order so the relative
                // shape survives the greedy re-packing.
                let mut entries: Vec<&ScheduledTask> = outcome.schedule.entries().iter().collect();
                entries.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.task.cmp(&b.task)));
                for entry in entries {
                    let placement = machine.place_earliest(entry.processors.count, entry.duration);
                    recorder.add(names::PLACEMENTS, 1);
                    states[ids[entry.task]] = Some(TaskState::Committed(Committed {
                        class,
                        reservation: placement.reservation,
                        first: placement.first,
                        count: placement.count,
                        start: placement.start,
                        duration: entry.duration,
                    }));
                }
            }
        }
        now += options.epoch;
    }

    // Assemble the final schedule on the global axis.
    let mut schedule = Schedule::new(cluster.total_processors());
    let mut class_busy = vec![0.0f64; cluster.class_count()];
    let mut makespan = 0.0f64;
    let mut flow_sum = 0.0f64;
    for (task, state) in states.iter().enumerate() {
        let Some(TaskState::Committed(c)) = state else {
            unreachable!("the loop only terminates once every task is committed")
        };
        let global_first = cluster.class_range(c.class).first + c.first;
        schedule.push(ScheduledTask {
            task,
            start: c.start,
            duration: c.duration,
            processors: ProcessorRange::new(global_first, c.count),
        });
        class_busy[c.class] += c.count as f64 * c.duration;
        makespan = makespan.max(c.start + c.duration);
        flow_sum += c.start + c.duration - trace.arrivals()[task].at;
    }
    if recorder.enabled() {
        for (class, busy) in class_busy.iter().enumerate() {
            recorder.event(TelemetryEvent::ClassUtilization {
                class: cluster.classes()[class].name.clone(),
                busy: *busy,
                capacity: cluster.classes()[class].count as f64 * makespan,
            });
        }
    }
    recorder.add(names::REPLANS, replans as u64);
    Ok(ClassedRunResult {
        cluster: cluster.clone(),
        schedule,
        makespan,
        mean_flow_time: if n > 0 { flow_sum / n as f64 } else { 0.0 },
        migrations,
        replans,
        class_busy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleable_core::validate::Violation;
    use telemetry::CollectingRecorder;
    use workload::{classed_trace, parse_class_specs, FaultPlan, RetryPolicy};

    fn cluster(spec: &str) -> ClassedCluster {
        ClassedCluster::from_spec(spec).unwrap()
    }

    fn trace(spec: &str, tasks: usize, seed: u64) -> ArrivalTrace {
        classed_trace(&parse_class_specs(spec).unwrap(), tasks, seed).unwrap()
    }

    #[test]
    fn classed_run_is_valid_and_deterministic() {
        let spec = "old=8x1.0,new=4x2.0";
        let cluster = cluster(spec);
        let trace = trace(spec, 24, 3);
        let a = run_classed(&trace, &cluster, &ClassedEngineOptions::default()).unwrap();
        let b = run_classed(&trace, &cluster, &ClassedEngineOptions::default()).unwrap();
        assert!(a.check(&trace).is_empty(), "{:?}", a.check(&trace));
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.migrations, b.migrations);
        assert_eq!(a.schedule.len(), trace.len());
        assert!(a.replans > 0);
        assert!(a.makespan > 0.0);
    }

    #[test]
    fn uniform_cluster_run_matches_identical_machine_durations() {
        let cluster = ClassedCluster::uniform(8).unwrap();
        let trace = trace("only=8x1.0", 16, 5);
        let result = run_classed(&trace, &cluster, &ClassedEngineOptions::default()).unwrap();
        assert!(result.check(&trace).is_empty());
        for entry in result.schedule.entries() {
            let base = trace.arrivals()[entry.task]
                .task
                .profile
                .time(entry.processors.count);
            assert_eq!(entry.duration, base);
        }
    }

    #[test]
    fn recorder_sees_migrations_and_per_class_utilisation() {
        let spec = "old=8x1.0,new=4x2.5";
        let cluster = cluster(spec);
        let trace = trace(spec, 32, 11);
        let recorder = CollectingRecorder::shared();
        let options = ClassedEngineOptions {
            recorder: Some(recorder.clone() as SharedRecorder),
            ..ClassedEngineOptions::default()
        };
        let result = run_classed(&trace, &cluster, &options).unwrap();
        assert!(result.check(&trace).is_empty());
        let events = recorder.events();
        let utilisations = events
            .iter()
            .filter(|e| matches!(e, TelemetryEvent::ClassUtilization { .. }))
            .count();
        assert_eq!(utilisations, 2);
        let migrations = events
            .iter()
            .filter(|e| matches!(e, TelemetryEvent::ClassMigration { .. }))
            .count();
        assert_eq!(migrations, result.migrations);
        assert_eq!(recorder.counter(names::CLASS_MIGRATIONS), migrations as u64);
        for class in 0..2 {
            let u = result.class_utilization(class);
            assert!((0.0..=1.0 + 1e-9).contains(&u), "class {class}: {u}");
        }
    }

    #[test]
    fn lp_strategy_beats_the_class_blind_baseline_on_an_asymmetric_cluster() {
        let spec = "old=8x1.0,new=4x2.5";
        let cluster = cluster(spec);
        let mut lp_wins = 0.0f64;
        let mut blind_wins = 0.0f64;
        for seed in 0..4 {
            let trace = trace(spec, 28, seed);
            let lp = run_classed(&trace, &cluster, &ClassedEngineOptions::default()).unwrap();
            let blind = run_classed(
                &trace,
                &cluster,
                &ClassedEngineOptions {
                    strategy: AssignStrategy::ClassBlind,
                    ..ClassedEngineOptions::default()
                },
            )
            .unwrap();
            assert!(lp.check(&trace).is_empty());
            assert!(blind.check(&trace).is_empty());
            lp_wins += lp.makespan;
            blind_wins += blind.makespan;
        }
        assert!(
            lp_wins < blind_wins - 1e-9,
            "lp mean {lp_wins} vs blind mean {blind_wins}"
        );
    }

    #[test]
    fn segments_outside_the_machine_are_reported_without_panicking() {
        // Task 0 runs on processor m + 1 in a classed run, and wastes an
        // attempt there in a fault run.
        let spec = "old=8x1.0,new=4x2.0";
        let trace = trace(spec, 6, 3);
        let block = ProcessorRange::new(13, 1);
        let outside = ScheduledTask {
            task: 0,
            start: 0.0,
            duration: 1.0,
            processors: block,
        };
        let options = ClassedEngineOptions::default();
        let mut classed = run_classed(&trace, &cluster(spec), &options).unwrap();
        let mut moved = Schedule::new(classed.schedule.processors());
        for &entry in classed.schedule.entries() {
            moved.push(if entry.task == 0 { outside } else { entry });
        }
        classed.schedule = moved;
        let (plan, retry) = (FaultPlan::empty(12, 16.0), RetryPolicy::default());
        let mut greedy = online::policy::GreedyList::new();
        let mut faulted = online::run_with_faults(&trace, &mut greedy, &plan, retry, None).unwrap();
        faulted.wasted.push(outside);
        let outside = Violation::OutOfMachine { task: 0, block };
        for found in [&classed.record(&trace), &faulted.record(&trace)].map(check) {
            assert!(found.contains(&outside), "{found:?}");
        }
        assert!(classed
            .check(&trace)
            .iter()
            .any(|m| m.contains("beyond the machine")));
    }

    #[test]
    fn mismatched_trace_and_cluster_are_rejected() {
        let cluster = cluster("old=8x1.0,new=4x2.0");
        let trace = trace("only=8x1.0", 8, 1);
        assert!(run_classed(&trace, &cluster, &ClassedEngineOptions::default()).is_err());
    }
}
