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
//! # Only the previous plan can be revoked
//!
//! Every replan commits its whole queue and revokes every older commitment
//! that has not started.  A commitment made before the previous replan had
//! therefore started by then, or that replan would have revoked and
//! re-queued it; only the previous replan's queue can still hold
//! commitments that have not started.  A replan scans just that queue and
//! builds its own from the revoked tasks plus the fresh arrivals, both in
//! ascending task order — the order a scan of every task would give — so a
//! replan costs `O(queue)` bookkeeping, not `O(n)`.  A replan that left a
//! queued task uncommitted would hide it from the next one, so the engine
//! returns [`Error::InvariantViolated`] at that replan instead.
//!
//! Telemetry: every cross-class re-assignment emits a
//! [`TelemetryEvent::ClassMigration`] and bumps
//! [`names::CLASS_MIGRATIONS`]; the end of the run emits one
//! [`TelemetryEvent::ClassUtilization`] per class.  A run with a recorder
//! samples [`names::DECISION_NS`] once per replan (revocation, assignment,
//! class solves and commits), [`names::SOLVE_NS`] and
//! [`names::SOLVE_PROBES`] once per non-empty class solve, and adds one to
//! [`names::REVOCATIONS`] per revoked commitment; the decision time minus
//! its class solves is what the assignment and the bookkeeping cost.

use malleable_core::dual::SearchMode;
use malleable_core::eps::approx_le;
use malleable_core::validate::{check, RunRecord, TaskWindow};
use malleable_core::{
    Error, MrtSolver, ProcessorRange, Result, Schedule, ScheduledTask, SolveRequest, Solver,
};
use online::MachineState;
use telemetry::{names, SharedRecorder, SpanTimer, TelemetryEvent};
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
        let tasks = trace
            .releases()
            .iter()
            .zip(trace.instance().tasks())
            .map(|(release, task)| TaskWindow {
                profile: &task.profile,
                release: release.at,
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

/// Where and when a planned task runs on its class pool.
struct Committed {
    class: usize,
    reservation: packing::ReservationId,
    first: usize,
    count: usize,
    start: f64,
    duration: f64,
}

/// Run an arrival trace through the classed engine.  The trace's machine
/// size must equal the cluster's total processor count, and the epoch must
/// be positive and finite.
pub fn run_classed(
    trace: &ArrivalTrace,
    cluster: &ClassedCluster,
    options: &ClassedEngineOptions,
) -> Result<ClassedRunResult> {
    if trace.processors() != cluster.total_processors() {
        return Err(Error::InvalidConfig {
            key: "machine-classes",
            message: format!(
                "cluster has {} processors but the trace has {}",
                cluster.total_processors(),
                trace.processors()
            ),
        });
    }
    if !(options.epoch.is_finite() && options.epoch > 0.0) {
        return Err(Error::InvalidParameter {
            name: "epoch",
            value: options.epoch,
        });
    }
    let timed = options.recorder.is_some();
    let recorder: SharedRecorder = options
        .recorder
        .clone()
        .unwrap_or_else(|| std::sync::Arc::new(telemetry::NoopRecorder));
    let (instance, releases) = (trace.instance(), trace.releases());
    let n = trace.len();
    let mut machines: Vec<MachineState> = cluster
        .classes()
        .iter()
        .map(|c| MachineState::new(c.count))
        .collect();
    // The current commitment of every planned task.
    let mut commitments: Vec<Option<Committed>> = (0..n).map(|_| None).collect();
    // The previous replan's queue, in ascending order: the only tasks whose
    // commitments may not have started yet.
    let mut planned: Vec<usize> = Vec::new();
    // This replan's queue, ascending, and per entry the class of the
    // commitment it lost (`None` for a fresh arrival).
    let mut queue: Vec<usize> = Vec::new();
    let mut last_class: Vec<Option<usize>> = Vec::new();
    let mut admitted = 0usize;
    let mut replans = 0usize;
    let mut migrations = 0usize;
    let mut now = 0.0f64;

    while admitted < n {
        for machine in &mut machines {
            machine.advance_to(now);
        }
        // Admit everything that has arrived by this epoch boundary.
        let fresh = admitted;
        while admitted < n && approx_le(releases[admitted].at, now) {
            admitted += 1;
        }
        if admitted > fresh {
            let decision = timed.then(SpanTimer::start);
            // Revoke the previous plan's commitments that have not started:
            // they re-enter the queue and may land in a different class.
            queue.clear();
            last_class.clear();
            for &task in &planned {
                let Some(c) = commitments[task].take_if(|c| !approx_le(c.start, now)) else {
                    continue;
                };
                machines[c.class]
                    .revoke(c.reservation)
                    .map_err(|e| Error::InvariantViolated {
                        context: "classed-revoke-queued",
                        message: format!("task {task}: {e}"),
                    })?;
                recorder.add(names::REVOCATIONS, 1);
                queue.push(task);
                last_class.push(Some(c.class));
            }
            queue.extend(fresh..admitted);
            last_class.resize(queue.len(), None);
            // Re-solve the queued set: assignment, then per-class allotment.
            let profiles: Vec<ClassedSpeedupProfile> = queue
                .iter()
                .map(|&task| {
                    ClassedSpeedupProfile::from_speeds(instance.task(task).profile.clone(), cluster)
                })
                .collect();
            let hetero = HeteroInstance::new(cluster.clone(), profiles)?;
            let assignment = options.strategy.assign(&hetero);
            replans += 1;
            for (local, prev) in last_class.iter().enumerate() {
                let Some(prev) = *prev else { continue };
                if prev != assignment[local] {
                    migrations += 1;
                    recorder.add(names::CLASS_MIGRATIONS, 1);
                    if recorder.enabled() {
                        recorder.event(TelemetryEvent::ClassMigration {
                            time: now,
                            task: queue[local] as u64,
                            from_class: cluster.classes()[prev].name.clone(),
                            to_class: cluster.classes()[assignment[local]].name.clone(),
                        });
                    }
                }
            }
            for (class, machine) in machines.iter_mut().enumerate() {
                let locals: Vec<usize> = (0..queue.len())
                    .filter(|&local| assignment[local] == class)
                    .collect();
                if locals.is_empty() {
                    continue;
                }
                let solve = timed.then(SpanTimer::start);
                let class_instance = hetero.class_instance(class, &locals)?;
                let request = SolveRequest::new(&class_instance).with_mode(options.search);
                let outcome = MrtSolver.solve(&request)?;
                if let Some(solve) = solve {
                    recorder.sample(names::SOLVE_NS, solve.elapsed_ns());
                    recorder.sample(names::SOLVE_PROBES, outcome.probes as u64);
                }
                // Commit in the offline plan's start order so the relative
                // shape survives the greedy re-packing.
                let mut entries: Vec<&ScheduledTask> = outcome.schedule.entries().iter().collect();
                entries.sort_by(|a, b| a.start.total_cmp(&b.start).then(a.task.cmp(&b.task)));
                for entry in entries {
                    let placement = machine.place_earliest(entry.processors.count, entry.duration);
                    recorder.add(names::PLACEMENTS, 1);
                    commitments[queue[locals[entry.task]]] = Some(Committed {
                        class,
                        reservation: placement.reservation,
                        first: placement.first,
                        count: placement.count,
                        start: placement.start,
                        duration: entry.duration,
                    });
                }
            }
            // The next replan revokes from this queue only, so a task it
            // leaves uncommitted would be lost.
            if let Some(&task) = queue.iter().find(|&&task| commitments[task].is_none()) {
                return Err(Error::InvariantViolated {
                    context: "classed-uncommitted",
                    message: format!("task {task} has no commitment after the replan at {now}"),
                });
            }
            std::mem::swap(&mut planned, &mut queue);
            if let Some(decision) = decision {
                recorder.sample(names::DECISION_NS, decision.elapsed_ns());
            }
        }
        now += options.epoch;
    }

    // Assemble the final schedule on the global axis.
    let mut schedule = Schedule::new(cluster.total_processors());
    let mut class_busy = vec![0.0f64; cluster.class_count()];
    let mut makespan = 0.0f64;
    let mut flow_sum = 0.0f64;
    // Every task was queued by the replan that admitted it, and every replan
    // commits its whole queue, so each task holds exactly one commitment.
    for (task, c) in commitments.iter().enumerate() {
        let Some(c) = c else { continue };
        let global_first = cluster.class_range(c.class).first + c.first;
        schedule.push(ScheduledTask {
            task,
            start: c.start,
            duration: c.duration,
            processors: ProcessorRange::new(global_first, c.count),
        });
        class_busy[c.class] += c.count as f64 * c.duration;
        makespan = makespan.max(c.start + c.duration);
        flow_sum += c.start + c.duration - releases[task].at;
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
            let base = trace.instance().time(entry.task, entry.processors.count);
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
        // Equal total capacity on both sides, so the win is pure class
        // awareness: the LP assignment's mean makespan over the classed
        // lower bound must beat the speed-blind assignment's.
        let spec = "old=8x1.0,new=4x2.5";
        let cluster = cluster(spec);
        for tasks in [28, 48] {
            let (mut lp_sum, mut blind_sum) = (0.0f64, 0.0f64);
            for seed in 0..4 {
                let trace = trace(spec, tasks, seed);
                let lower_bound = HeteroInstance::from_instance(trace.instance(), cluster.clone())
                    .unwrap()
                    .lower_bound();
                let [lp, _, blind] = [
                    AssignStrategy::Lp,
                    AssignStrategy::GreedyDensity,
                    AssignStrategy::ClassBlind,
                ]
                .map(|strategy| {
                    let options = ClassedEngineOptions {
                        strategy,
                        ..ClassedEngineOptions::default()
                    };
                    let result = run_classed(&trace, &cluster, &options).unwrap();
                    let violations = result.check(&trace);
                    assert!(
                        violations.is_empty(),
                        "{strategy:?} {tasks}/{seed}: {violations:?}"
                    );
                    result.makespan / lower_bound
                });
                lp_sum += lp;
                blind_sum += blind;
            }
            let (lp, blind) = (lp_sum / 4.0, blind_sum / 4.0);
            assert!(
                lp < blind - 1e-9,
                "{tasks} tasks: lp mean ratio {lp} vs blind {blind}"
            );
        }
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
    fn bad_epochs_are_rejected() {
        let spec = "old=2x1.0,new=2x2.0";
        let trace = trace(spec, 20, 3);
        for epoch in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let options = ClassedEngineOptions {
                epoch,
                ..ClassedEngineOptions::default()
            };
            match run_classed(&trace, &cluster(spec), &options) {
                Err(Error::InvalidParameter { name, value }) => {
                    assert_eq!(name, "epoch");
                    assert_eq!(value.to_bits(), epoch.to_bits());
                }
                other => panic!("epoch {epoch}: expected InvalidParameter, got {other:?}"),
            }
        }
    }

    /// The recorded split of a run into replans, class solves and
    /// revocations.
    fn recorded(
        spec: &str,
        tasks: usize,
        seed: u64,
    ) -> (ClassedRunResult, std::sync::Arc<CollectingRecorder>) {
        let recorder = CollectingRecorder::shared();
        let options = ClassedEngineOptions {
            recorder: Some(recorder.clone() as SharedRecorder),
            ..ClassedEngineOptions::default()
        };
        let result = run_classed(&trace(spec, tasks, seed), &cluster(spec), &options).unwrap();
        (result, recorder)
    }

    fn samples(recorder: &CollectingRecorder, name: &str) -> u64 {
        recorder.histogram(name).map_or(0, |h| h.count())
    }

    #[test]
    fn recorded_runs_explain_their_replans() {
        for (spec, classes) in [("old=8x1.0,new=4x2.5", 2), ("only=8x1.0", 1)] {
            let (result, recorder) = recorded(spec, 48, 11);
            let replans = result.replans as u64;
            assert_eq!(samples(&recorder, names::DECISION_NS), replans, "{spec}");
            // One solve per class that the replan assigned a task to: every
            // replan of one class, and some replans of two.
            let solves = samples(&recorder, names::SOLVE_NS);
            assert_eq!(samples(&recorder, names::SOLVE_PROBES), solves, "{spec}");
            if classes == 1 {
                assert_eq!(solves, replans, "{spec}");
            } else {
                assert!(
                    replans < solves && solves <= 2 * replans,
                    "{spec}: {solves}"
                );
            }
            let revocations = recorder.counter(names::REVOCATIONS);
            assert!(revocations >= result.migrations as u64, "{spec}");
            if classes == 2 {
                assert!(result.migrations > 0, "{spec}: nothing migrated");
            }
            // Everything but the wall-clock samples repeats.
            let (again, repeat) = recorded(spec, 48, 11);
            assert_eq!(again.replans, result.replans);
            assert_eq!(repeat.counters(), recorder.counters(), "{spec}");
            for name in [names::DECISION_NS, names::SOLVE_NS, names::SOLVE_PROBES] {
                assert_eq!(samples(&repeat, name), samples(&recorder, name), "{spec}");
            }
            let probes =
                |r: &CollectingRecorder| r.histogram(names::SOLVE_PROBES).map(|h| h.mean());
            assert_eq!(probes(&repeat), probes(&recorder), "{spec}");
        }
    }

    #[test]
    fn mismatched_trace_and_cluster_are_rejected() {
        let cluster = cluster("old=8x1.0,new=4x2.0");
        let trace = trace("only=8x1.0", 8, 1);
        assert!(run_classed(&trace, &cluster, &ClassedEngineOptions::default()).is_err());
    }
}
