//! Pass-through wrappers that time the calls into one layer from outside.
//!
//! Each wrapper forwards every call unchanged to the value it wraps and only
//! reads the clock around it, so a wrapped run makes exactly the same
//! decisions as an unwrapped one (pinned by `tests/parity.rs`).  Every clock
//! read goes through `telemetry::SpanTimer`, the workspace's single clock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use malleable_core::prelude::*;
use online::machine::MachineState;
use online::policy::{Commitment, OnlinePolicy, PendingTask, Trigger};
use online::{PlacementSink, StreamedPlacement};
use packing::reservations::TimelineStats;
use telemetry::{Recorder, SharedRecorder, SpanTimer, TelemetryEvent};

use crate::spans::Tracer;

/// What the timing policy wrapper saw over one run.
#[derive(Debug, Clone, Default)]
pub struct PlanLog {
    /// Nanoseconds on the pass clock at which each `plan` call returned.
    pub returns_ns: Vec<u64>,
    /// Pending tasks handed to `plan`, summed over calls.
    pub pending: u64,
    /// Commitments returned by `plan`, summed over calls.
    pub commitments: u64,
    /// The machine's reservation-timeline counters after the last call.
    pub timeline: TimelineStats,
}

/// An [`OnlinePolicy`] that forwards to `inner` and records when each `plan`
/// call returns.  With a tracer it also opens an `online.policy` span per
/// call and tallies the pending sets and commitments.
pub struct TimedPolicy<'a, P> {
    inner: P,
    clock: SpanTimer,
    tracer: Option<&'a Tracer>,
    log: PlanLog,
}

impl<'a, P: OnlinePolicy> TimedPolicy<'a, P> {
    /// Wrap `inner`; plan returns are measured on `clock`.
    pub fn new(inner: P, clock: SpanTimer, tracer: Option<&'a Tracer>) -> Self {
        TimedPolicy {
            inner,
            clock,
            tracer,
            log: PlanLog::default(),
        }
    }

    /// The record of the run so far.
    pub fn into_log(self) -> PlanLog {
        self.log
    }
}

impl<P: OnlinePolicy> OnlinePolicy for TimedPolicy<'_, P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn epoch(&self) -> Option<f64> {
        self.inner.epoch()
    }

    fn backfill(&self) -> bool {
        self.inner.backfill()
    }

    fn preempt_queued(&self) -> bool {
        self.inner.preempt_queued()
    }

    fn preempt_running(&self) -> bool {
        self.inner.preempt_running()
    }

    fn delta_planning(&self) -> bool {
        self.inner.delta_planning()
    }

    fn should_plan(&self, trigger: Trigger, machine: &MachineState) -> bool {
        self.inner.should_plan(trigger, machine)
    }

    fn plan(
        &mut self,
        instance: &Instance,
        pending: &[PendingTask],
        machine: &mut MachineState,
    ) -> Result<Vec<Commitment>> {
        let commitments = match self.tracer {
            Some(tracer) => {
                let inner = &mut self.inner;
                tracer.span("online.policy", || inner.plan(instance, pending, machine))
            }
            None => self.inner.plan(instance, pending, machine),
        };
        self.log.returns_ns.push(self.clock.elapsed_ns());
        if self.tracer.is_some() {
            self.log.pending += pending.len() as u64;
            if let Ok(c) = &commitments {
                self.log.commitments += c.len() as u64;
            }
            self.log.timeline = machine.timeline_stats();
        }
        commitments
    }

    fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.inner.set_recorder(recorder);
    }

    fn solver_name(&self) -> String {
        self.inner.solver_name()
    }

    fn warm_start(&self) -> bool {
        self.inner.warm_start()
    }

    fn probes_issued(&self) -> usize {
        self.inner.probes_issued()
    }
}

/// One solve seen by [`TimedSolver`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveSample {
    /// Wall nanoseconds inside the wrapped solver.
    pub ns: u64,
    /// Oracle probes the solve reported (`SolveOutcome::probes`).
    pub probes: usize,
    /// Tasks in the solved instance.
    pub tasks: usize,
}

/// A [`Solver`] that forwards to `inner`, opens a `solver` span per solve
/// and keeps the solve time, probe count and task count.  Safe to share
/// between the shard workers.
pub struct TimedSolver {
    inner: SolverHandle,
    tracer: Arc<Tracer>,
    samples: Mutex<Vec<SolveSample>>,
}

impl TimedSolver {
    /// Wrap a solver handle.
    pub fn new(inner: SolverHandle, tracer: Arc<Tracer>) -> Arc<Self> {
        Arc::new(TimedSolver {
            inner,
            tracer,
            samples: Mutex::new(Vec::new()),
        })
    }

    /// Every solve so far, in completion order.
    pub fn samples(&self) -> Vec<SolveSample> {
        self.samples
            .lock()
            .expect("no thread panics while holding the samples")
            .clone()
    }

    fn timed(
        &self,
        request: &SolveRequest<'_>,
        solve: impl FnOnce() -> Result<SolveOutcome>,
    ) -> Result<SolveOutcome> {
        let timer = SpanTimer::start();
        let outcome = self.tracer.span("solver", solve);
        let ns = timer.elapsed_ns();
        if let Ok(o) = &outcome {
            self.samples
                .lock()
                .expect("no thread panics while holding the samples")
                .push(SolveSample {
                    ns,
                    probes: o.probes,
                    tasks: request.instance.task_count(),
                });
        }
        outcome
    }
}

impl Solver for TimedSolver {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn capabilities(&self) -> SolverCapabilities {
        self.inner.capabilities()
    }

    fn solve(&self, request: &SolveRequest<'_>) -> Result<SolveOutcome> {
        self.timed(request, || self.inner.solve(request))
    }

    fn solve_with_workspace(
        &self,
        request: &SolveRequest<'_>,
        workspace: &mut ProbeWorkspace,
    ) -> Result<SolveOutcome> {
        self.timed(request, || {
            self.inner.solve_with_workspace(request, workspace)
        })
    }
}

/// One oracle probe seen by [`TimedOracle`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeSample {
    /// The guess ω.
    pub omega: f64,
    /// Makespan of the returned schedule; `None` when ω was rejected.
    pub makespan: Option<f64>,
}

/// A [`DualApproximation`] that forwards to `inner` (the MRT scheduler),
/// opens a `dual.probe` span per probe and keeps every probed guess with
/// its outcome.
pub struct TimedOracle<'a, D> {
    inner: D,
    tracer: &'a Tracer,
    probes: RefCell<Vec<ProbeSample>>,
}

impl<'a, D: DualApproximation> TimedOracle<'a, D> {
    /// Wrap an oracle.
    pub fn new(inner: D, tracer: &'a Tracer) -> Self {
        TimedOracle {
            inner,
            tracer,
            probes: RefCell::new(Vec::new()),
        }
    }

    /// Every probe so far, in order.
    pub fn into_probes(self) -> Vec<ProbeSample> {
        self.probes.into_inner()
    }

    fn timed(&self, omega: f64, probe: impl FnOnce() -> DualOutcome) -> DualOutcome {
        let outcome = self.tracer.span("dual.probe", probe);
        let makespan = match &outcome {
            DualOutcome::Feasible(schedule) => Some(schedule.makespan()),
            DualOutcome::Infeasible => None,
        };
        self.probes
            .borrow_mut()
            .push(ProbeSample { omega, makespan });
        outcome
    }
}

impl<D: DualApproximation> DualApproximation for TimedOracle<'_, D> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn guarantee(&self, instance: &Instance) -> f64 {
        self.inner.guarantee(instance)
    }

    fn probe(&self, instance: &Instance, omega: f64) -> DualOutcome {
        self.timed(omega, || self.inner.probe(instance, omega))
    }

    fn probe_with_workspace(
        &self,
        instance: &Instance,
        omega: f64,
        workspace: &mut ProbeWorkspace,
    ) -> DualOutcome {
        self.timed(omega, || {
            self.inner.probe_with_workspace(instance, omega, workspace)
        })
    }
}

/// A [`Recorder`] that keeps only counter totals and histogram sample
/// counts.  It reports itself disabled, so the engines skip building event
/// payloads and pay one call per counter update.
#[derive(Debug, Default)]
pub struct CountingRecorder {
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl CountingRecorder {
    /// An empty recorder behind a shareable handle.
    pub fn shared() -> Arc<CountingRecorder> {
        Arc::new(CountingRecorder::default())
    }

    /// Total of a counter, or number of samples of a histogram.
    pub fn count(&self, name: &str) -> u64 {
        self.counts
            .lock()
            .expect("no thread panics while holding the counters")
            .get(name)
            .copied()
            .unwrap_or(0)
    }
}

impl Recorder for CountingRecorder {
    fn enabled(&self) -> bool {
        false
    }

    fn event(&self, _event: TelemetryEvent) {}

    fn add(&self, counter: &'static str, delta: u64) {
        *self
            .counts
            .lock()
            .expect("no thread panics while holding the counters")
            .entry(counter)
            .or_insert(0) += delta;
    }

    fn sample(&self, histogram: &'static str, _value: u64) {
        self.add(histogram, 1);
    }
}

/// Reads the pass clock once every `stride` calls to [`Checkpoints::tick`].
///
/// The calls come from a deterministic sequence (placements in commit
/// order), so the checkpoints fall on the same work in every pass.
#[derive(Debug)]
pub struct Checkpoints {
    clock: SpanTimer,
    stride: u64,
    calls: AtomicU64,
    times: Mutex<Vec<u64>>,
}

impl Checkpoints {
    /// Checkpoints every `stride` calls (at least 1), on `clock`.
    pub fn new(clock: SpanTimer, stride: u64) -> Self {
        Checkpoints {
            clock,
            stride: stride.max(1),
            calls: AtomicU64::new(0),
            times: Mutex::new(Vec::new()),
        }
    }

    /// Count one call; read the clock if it completes a stride.
    pub fn tick(&self) {
        let calls = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        if calls.is_multiple_of(self.stride) {
            let now = self.clock.elapsed_ns();
            self.times
                .lock()
                .expect("no thread panics while holding the checkpoints")
                .push(now);
        }
    }

    /// Calls counted so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// The checkpoint times so far.
    pub fn times(&self) -> Vec<u64> {
        self.times
            .lock()
            .expect("no thread panics while holding the checkpoints")
            .clone()
    }
}

/// Counts placements into [`Checkpoints`] as they stream out of the sharded
/// engine, and discards them.
pub struct CheckpointSink<'a>(pub &'a Checkpoints);

impl PlacementSink for CheckpointSink<'_> {
    fn place(&mut self, _placement: &StreamedPlacement) {
        self.0.tick();
    }
}

/// A recorder for the classed engine that counts its placements into
/// [`Checkpoints`] and drops everything else; like [`CountingRecorder`] it
/// reports itself disabled.
pub struct PlacementCheckpoints(pub Arc<Checkpoints>);

impl Recorder for PlacementCheckpoints {
    fn enabled(&self) -> bool {
        false
    }

    fn event(&self, _event: TelemetryEvent) {}

    fn add(&self, counter: &'static str, delta: u64) {
        if counter == telemetry::names::PLACEMENTS {
            for _ in 0..delta {
                self.0.tick();
            }
        }
    }

    fn sample(&self, _histogram: &'static str, _value: u64) {}
}
