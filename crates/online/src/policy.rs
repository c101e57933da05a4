//! Pluggable online scheduling policies.
//!
//! A policy answers two questions for the engine: *when* should the pending
//! queue be planned (in reaction to which events), and *how* are the pending
//! tasks mapped onto the machine.  Three policies are provided:
//!
//! * [`GreedyList`] — plan every task the moment it arrives, at the
//!   processor count minimising its completion time on the current frontier
//!   (the online analogue of the §3 list algorithms);
//! * [`EpochReplan`] — collect arrivals and re-plan on a fixed epoch grid by
//!   invoking an offline solver on the whole pending set, committing its
//!   shelf schedule after the machine's free horizon;
//! * [`BatchUntilIdle`] — collect arrivals while the machine is busy and
//!   plan the whole batch the instant it drains (the classical batch-mode
//!   online-to-offline reduction, as in Shmoys–Wein–Williamson).
//!
//! The offline-driven policies hold a [`SolverHandle`] — any implementation
//! of the unified `malleable_core::solver::Solver` trait, typically resolved
//! by name from the workspace `solver` crate's registry.  The policy adapts
//! to the solver's capabilities: when the solver supports warm starts, the
//! probe workspace and the previous epoch's accepted guess are threaded into
//! every solve.
//!
//! Three resource-model capabilities ride on the policies: **backfill**
//! (every policy's `backfill` field) switches the machine to the
//! interval-reservation model so placements first-fit into idle holes below
//! the frontier; **preempt-queued** ([`EpochReplan`] only) makes the engine
//! revoke not-yet-started commitments at every epoch boundary and re-solve
//! them jointly with the new arrivals; and **preempt-running**
//! ([`EpochReplan`] only) additionally truncates *running* commitments at
//! the boundary — the executed segment stays on the books and the task
//! re-enters the pending set as a residual ([`workload::residual`]), so the
//! solver may shrink, widen or move the unexecuted tail.  True malleable
//! re-allotment mid-execution, with work conserved under the speed-up model.
//! Each policy is built directly: `GreedyList { backfill }`,
//! `EpochReplan::with_solver(..)` and its `with_*` builders, and
//! `BatchUntilIdle::with_solver(..).with_backfill(..)`.

use std::sync::Arc;

use crate::machine::{MachineState, ReservationId};
use ::telemetry::{names, SharedRecorder, SpanTimer};
use malleable_core::prelude::*;

/// A task waiting in the pending queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PendingTask {
    /// Global task id (= arrival index of the trace).
    pub id: TaskId,
    /// When the task arrived.
    pub arrived_at: f64,
    /// Fraction of the task's work still unexecuted: `1.0` for a fresh
    /// arrival, less for a *residual* — a running task preempted
    /// mid-execution and handed back for re-allotment.  Policies plan the
    /// residual task (the profile scaled by this fraction, see
    /// [`workload::residual`]), so work executed at the old allotment is
    /// conserved.
    pub remaining: f64,
}

impl PendingTask {
    /// A fresh (fully unexecuted) pending task.
    pub fn new(id: TaskId, arrived_at: f64) -> Self {
        PendingTask {
            id,
            arrived_at,
            remaining: 1.0,
        }
    }
}

/// One scheduling decision: a task pinned to a processor block and a start
/// time.  A commitment is revocable while it is still queued (the engine
/// revokes on task departures and, under preemptive re-planning, at epoch
/// boundaries); once the task has started it runs to completion unless the
/// policy opts into mid-execution re-allotment
/// ([`OnlinePolicy::preempt_running`]), in which case an epoch boundary may
/// truncate the commitment and re-plan the task's residual.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Commitment {
    /// Global task id.
    pub task: TaskId,
    /// Start time on the global timeline.
    pub start: f64,
    /// Execution time at the committed processor count.
    pub duration: f64,
    /// First processor of the contiguous block.
    pub first: usize,
    /// Number of processors.
    pub count: usize,
    /// Handle for revoking the commitment while it is still queued.
    pub reservation: ReservationId,
}

/// The event class that triggered a planning opportunity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// A task arrived.
    Arrival,
    /// A committed task finished.
    Completion,
    /// A task departed (withdrawn from the pending queue or revoked while
    /// still queued).
    Departure,
    /// A fault event fired (a task attempt failed, a processor crashed and
    /// displaced work, or a processor was repaired) — fault runs only.
    /// Immediate policies treat it like an arrival so displaced work is
    /// re-placed at once; epoch policies wait for the next tick.
    Fault,
    /// An epoch boundary fired.
    EpochTick,
}

/// An online scheduling policy.
///
/// The engine calls [`OnlinePolicy::should_plan`] after every event; when it
/// returns `true` (and tasks are pending) it calls [`OnlinePolicy::plan`],
/// which commits the pending tasks into the machine and returns the
/// commitments for the engine to record.
pub trait OnlinePolicy {
    /// Human-readable name used in reports.
    fn name(&self) -> String;

    /// Epoch period, for policies driven by a periodic tick.
    fn epoch(&self) -> Option<f64> {
        None
    }

    /// Whether the engine should run the machine in backfill mode: new
    /// placements first-fit into idle holes below the processor frontier
    /// instead of always waiting for it.  Defaults to the frontier-only
    /// model of the paper's list schedules.
    fn backfill(&self) -> bool {
        false
    }

    /// Whether the engine should, at every epoch tick, revoke commitments
    /// that have not started yet and hand their tasks back to this policy as
    /// part of the pending set (preemptive re-allotment of *queued* work).
    fn preempt_queued(&self) -> bool {
        false
    }

    /// Whether the engine should, at every epoch tick with fresh work,
    /// additionally truncate *running* commitments at the clock and hand
    /// their tasks back as residuals — mid-execution re-allotment: the
    /// executed segment stays on the books, the unexecuted tail (profile
    /// scaled by the remaining work fraction) is re-solved jointly with the
    /// pending set and may restart at a different allotment.  Implies the
    /// queued preemption of [`OnlinePolicy::preempt_queued`].
    fn preempt_running(&self) -> bool {
        false
    }

    /// Whether the engine should apply *structural delta-planning* at epoch
    /// boundaries: when an epoch added only new arrivals since the previous
    /// plan (no departures, no faults), skip the preemptive
    /// revocation/truncation pass and plan just the fresh arrivals against
    /// the surviving schedule.  Epochs that saw structural changes fall back
    /// to the full preemptive re-solve.  Only meaningful together with
    /// [`OnlinePolicy::preempt_queued`]/[`OnlinePolicy::preempt_running`];
    /// off by default.
    fn delta_planning(&self) -> bool {
        false
    }

    /// Whether the pending queue should be planned in reaction to `trigger`.
    fn should_plan(&self, trigger: Trigger, machine: &MachineState) -> bool;

    /// Plan (and commit) every pending task.  Implementations must commit
    /// each returned placement into `machine` and never start a task before
    /// `machine.now()` or before its arrival.
    fn plan(
        &mut self,
        instance: &Instance,
        pending: &[PendingTask],
        machine: &mut MachineState,
    ) -> Result<Vec<Commitment>>;

    /// Attach a telemetry recorder.  Policies with an inner solve pipeline
    /// ([`EpochReplan`]) feed it probe and workspace counters; the default
    /// implementation ignores the handle.
    fn set_recorder(&mut self, recorder: SharedRecorder) {
        let _ = recorder;
    }

    /// Registry name of the offline solver behind this policy — the
    /// telemetry identity stamped on solve-span events.  Policies without an
    /// inner solver report their own name.
    fn solver_name(&self) -> String {
        self.name()
    }

    /// Whether the *next* solve will be seeded from cross-epoch warm state
    /// (telemetry only; `false` for policies without warm starts).
    fn warm_start(&self) -> bool {
        false
    }

    /// Cumulative oracle probes issued by this policy's solves so far
    /// (0 for probe-free policies).  The engine diffs consecutive values to
    /// attribute probes to individual solve spans.
    fn probes_issued(&self) -> usize {
        0
    }
}

/// The pending tasks as offline tasks, as if released together on an empty
/// machine.  Residual tasks (preempted mid-execution, `remaining < 1`) enter
/// with their profile scaled by the remaining work fraction, so the solver
/// sees exactly the unexecuted tails.
fn pending_tasks(instance: &Instance, pending: &[PendingTask]) -> Result<Vec<MalleableTask>> {
    pending
        .iter()
        .map(|p| workload::residual_task(instance.task(p.id), p.remaining))
        .collect()
}

/// The offline sub-instance of an epoch's `tasks`, planned against the
/// machine's widest contiguous online block: during an outage the offline
/// oracle must not allot more processors than any window the machine can
/// actually serve.
pub(crate) fn epoch_instance(
    tasks: Vec<MalleableTask>,
    machine: &MachineState,
) -> Result<Instance> {
    Instance::new(tasks, machine.max_contiguous_online().max(1))
}

/// Replay an offline schedule of the pending sub-instance onto the live
/// machine frontier, preserving the offline processor counts and priorities.
///
/// The offline schedule assumes an empty machine, so its placements cannot be
/// committed verbatim while earlier commitments are still running.  Instead
/// of a barrier shift past the free horizon (which idles the whole machine
/// between planning rounds), each task keeps its offline *processor count*
/// and *priority* and is list-scheduled onto the earliest contiguous window —
/// the same engine the offline list algorithms use, so the replay is
/// work-conserving with respect to the frontier and exactly reproduces the
/// offline schedule when the machine is empty.  `id` maps a task of the
/// offline schedule to the id its commitment carries; `order` is the
/// caller's buffer for the replay order, kept across plans.
fn replay_offline(
    offline: &Schedule,
    machine: &mut MachineState,
    order: &mut Vec<usize>,
    id: impl Fn(usize) -> TaskId,
) -> Vec<Commitment> {
    let entries = offline.entries();
    // Replay in offline start order (ties: wider tasks first, then task id,
    // for determinism), the priority the offline schedule chose.
    order.clear();
    order.extend(0..entries.len());
    order.sort_by(|&a, &b| {
        let (a, b) = (&entries[a], &entries[b]);
        a.start
            .total_cmp(&b.start)
            .then(b.processors.count.cmp(&a.processors.count))
            .then(a.task.cmp(&b.task))
    });
    let mut commitments = Vec::with_capacity(entries.len());
    for entry in order.iter().map(|&index| &entries[index]) {
        let placement = machine.place_earliest(entry.processors.count, entry.duration);
        commitments.push(Commitment {
            task: id(entry.task),
            start: placement.start,
            duration: entry.duration,
            first: placement.first,
            count: entry.processors.count,
            reservation: placement.reservation,
        });
    }
    commitments
}

/// Immediate list scheduling: every arrival is planned on the spot at the
/// processor count minimising its completion time on the current machine
/// state (the frontier, or with [`GreedyList::backfilling`] the earliest
/// fitting hole).
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyList {
    /// First-fit new arrivals into idle holes below the frontier.
    pub backfill: bool,
}

impl GreedyList {
    /// The classical frontier-only greedy list policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// A greedy list policy that backfills into idle holes.
    pub fn backfilling() -> Self {
        GreedyList { backfill: true }
    }
}

impl OnlinePolicy for GreedyList {
    fn name(&self) -> String {
        if self.backfill {
            "greedy-list+backfill".to_string()
        } else {
            "greedy-list".to_string()
        }
    }

    fn backfill(&self) -> bool {
        self.backfill
    }

    fn should_plan(&self, trigger: Trigger, _machine: &MachineState) -> bool {
        matches!(trigger, Trigger::Arrival | Trigger::Fault)
    }

    fn plan(
        &mut self,
        instance: &Instance,
        pending: &[PendingTask],
        machine: &mut MachineState,
    ) -> Result<Vec<Commitment>> {
        let mut commitments = Vec::with_capacity(pending.len());
        for task in pending {
            // Residual-aware: a preempted task is planned as its unexecuted
            // tail (greedy policies never produce residuals themselves, but
            // the `plan` contract accepts them).  Fresh tasks — the entire
            // greedy hot path — borrow their profile without cloning.
            let residual;
            let profile = if task.remaining < 1.0 {
                residual = workload::residual_task(instance.task(task.id), task.remaining)?;
                &residual.profile
            } else {
                &instance.task(task.id).profile
            };
            // Clamp to the widest contiguous *online* block so crashes never
            // leave a width with no feasible window.
            let widest = profile
                .max_processors()
                .min(machine.max_contiguous_online().max(1));
            // Minimise the completion time over all processor counts; prefer
            // the narrower count on ties (it wastes less work).
            let mut best = (1usize, f64::INFINITY);
            for count in 1..=widest {
                let finish =
                    machine.earliest_start(count, profile.time(count)) + profile.time(count);
                if finish < best.1 - 1e-12 {
                    best = (count, finish);
                }
            }
            let (count, _) = best;
            let placement = machine.place_earliest(count, profile.time(count));
            commitments.push(Commitment {
                task: task.id,
                start: placement.start,
                duration: profile.time(count),
                first: placement.first,
                count,
                reservation: placement.reservation,
            });
        }
        Ok(commitments)
    }
}

/// Periodic re-planning: pending tasks are batched and solved offline on a
/// fixed epoch grid.
///
/// The policy is generic over the offline solver: any [`SolverHandle`] works.
/// When the solver's [`SolverCapabilities::supports_warm_start`] is set (the
/// MRT dual search), the policy keeps state between epochs — the probe
/// workspace (canonical-allotment cache, packing scratch, knapsack DP tables)
/// survives across solves, and the next epoch's search interval is seeded
/// from the previous epoch's accepted guess (scaled to the new pending set's
/// lower bound).  Per-epoch cost drops from a full cold solve to an
/// incremental warm-started one.
///
/// An epoch solve pays for its own tasks, not for fixed set-up.  The
/// pending set's static lower bound is computed once: it scales the seed
/// and travels to the solver in the request's [`WarmStart`], so the search
/// does not compute it again.  [`OnlinePolicy::plan`] rebuilds the epoch's
/// sub-instance in task buffers kept across epochs: fresh tasks are copied
/// into them and residual profiles scaled in place, and the replay sorts
/// its order into a kept buffer, so a steady-state plan allocates only what
/// its probes hand out (two-shelf constructions and copies of winning
/// schedules) and its replay's commitments (pinned by
/// `tests/epoch_allocations.rs`).
#[derive(Clone)]
pub struct EpochReplan {
    /// Distance between epoch boundaries.
    pub period: f64,
    /// The offline solver invoked on every epoch's pending set.
    pub solver: SolverHandle,
    /// Search mode of warm-start-capable solvers (breakpoint-exact by
    /// default; ignored by one-shot constructions).
    pub search: SearchMode,
    /// Run the machine in backfill mode: replayed shelf schedules first-fit
    /// into idle holes below the frontier.
    pub backfill: bool,
    /// Revoke queued (not yet started) commitments at every epoch boundary
    /// and re-solve them together with the new arrivals.  Running tasks stay
    /// committed unless [`EpochReplan::preempt_running`] is also set.
    pub preempt_queued: bool,
    /// Truncate *running* commitments at epoch boundaries with fresh work
    /// and re-solve their residuals (profiles scaled by the remaining work
    /// fraction) jointly with the pending set — true malleable
    /// re-allotment mid-execution.  Implies the queued preemption of
    /// [`EpochReplan::preempt_queued`].
    pub preempt_running: bool,
    /// Structural delta-planning: epochs that added only new arrivals plan
    /// them against the surviving schedule instead of revoking and
    /// re-solving the whole backlog; departures and faults force the full
    /// preemptive re-solve.  Meaningful only with one of the preemption
    /// flags set.
    pub delta_plan: bool,
    /// Probe workspace kept across epochs (the warm state).
    workspace: ProbeWorkspace,
    /// The last epoch sub-instance's tasks, whose buffers `plan` refills.
    tasks: Vec<MalleableTask>,
    /// Task buffers beyond the last epoch's count, kept for a larger epoch.
    spare_tasks: Vec<MalleableTask>,
    /// The replay order of the last epoch's schedule (see
    /// [`replay_offline`]), whose buffer the next replay reuses.
    replay_order: Vec<usize>,
    /// `feasible ω / lower bound` of the previous epoch's solve, used to seed
    /// the next search interval.
    previous_omega_ratio: Option<f64>,
    /// Optional telemetry sink: per-solve probe, workspace-growth and
    /// rigid-build counter deltas flow through it (see
    /// [`telemetry::names::WORKSPACE_PROBES`]).
    recorder: Option<SharedRecorder>,
    /// Solves served so far.
    solves: usize,
    /// Wall nanoseconds spent inside the solver so far.
    solve_ns: u64,
}

impl std::fmt::Debug for EpochReplan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EpochReplan")
            .field("period", &self.period)
            .field("solver", &self.solver.name())
            .field("search", &self.search)
            .field("backfill", &self.backfill)
            .field("preempt_queued", &self.preempt_queued)
            .field("preempt_running", &self.preempt_running)
            .field("delta_plan", &self.delta_plan)
            .finish()
    }
}

impl EpochReplan {
    /// An epoch policy with the given period, solving with the MRT scheduler.
    pub fn mrt(period: f64) -> Result<Self> {
        Self::with_solver(period, Arc::new(MrtSolver))
    }

    /// Same, with an explicit solver handle (resolve one by name through the
    /// workspace `solver` crate's registry).
    pub fn with_solver(period: f64, solver: SolverHandle) -> Result<Self> {
        if !(period.is_finite() && period > 0.0) {
            return Err(Error::InvalidParameter {
                name: "epoch",
                value: period,
            });
        }
        Ok(EpochReplan {
            period,
            solver,
            search: SearchMode::Exact,
            backfill: false,
            preempt_queued: false,
            preempt_running: false,
            delta_plan: false,
            workspace: ProbeWorkspace::new(),
            tasks: Vec::new(),
            spare_tasks: Vec::new(),
            replay_order: Vec::new(),
            previous_omega_ratio: None,
            recorder: None,
            solves: 0,
            solve_ns: 0,
        })
    }

    /// Select the search mode of warm-start-capable solvers (builder style).
    pub fn with_search(mut self, search: SearchMode) -> Self {
        self.search = search;
        self
    }

    /// Enable or disable backfilling into idle holes (builder style).
    pub fn with_backfill(mut self, backfill: bool) -> Self {
        self.backfill = backfill;
        self
    }

    /// Enable or disable preemptive re-planning of queued commitments at
    /// epoch boundaries (builder style).
    pub fn with_preempt_queued(mut self, preempt_queued: bool) -> Self {
        self.preempt_queued = preempt_queued;
        self
    }

    /// Enable or disable mid-execution re-allotment of running tasks at
    /// epoch boundaries (builder style).  Implies queued preemption.
    pub fn with_preempt_running(mut self, preempt_running: bool) -> Self {
        self.preempt_running = preempt_running;
        self
    }

    /// Enable or disable structural delta-planning at epoch boundaries
    /// (builder style); see [`OnlinePolicy::delta_planning`].
    pub fn with_delta_planning(mut self, delta_plan: bool) -> Self {
        self.delta_plan = delta_plan;
        self
    }

    /// Attach a telemetry recorder (builder style); see
    /// [`OnlinePolicy::set_recorder`].
    pub fn with_recorder(mut self, recorder: SharedRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Number of oracle probes served by the warm-started solve path so far
    /// (0 for one-shot solvers).
    pub fn probes(&self) -> usize {
        self.workspace.probes()
    }

    /// Number of solves served so far.
    pub(crate) fn solves(&self) -> usize {
        self.solves
    }

    /// Wall nanoseconds spent inside the solver so far: an exact solve-phase
    /// total, where log-scale histograms would lose precision.
    pub(crate) fn solve_ns(&self) -> u64 {
        self.solve_ns
    }

    /// The pending tasks as the epoch's offline tasks (see
    /// [`pending_tasks`]), written over the task buffers kept from earlier
    /// epochs.
    fn refill_tasks(
        &mut self,
        instance: &Instance,
        pending: &[PendingTask],
    ) -> Result<Vec<MalleableTask>> {
        let mut tasks = std::mem::take(&mut self.tasks);
        let kept = tasks.len().min(pending.len());
        self.spare_tasks.extend(tasks.drain(kept..));
        for (slot, p) in pending.iter().enumerate() {
            let task = instance.task(p.id);
            if slot == tasks.len() {
                tasks.push(self.spare_tasks.pop().unwrap_or_else(|| task.clone()));
            }
            workload::residual_task_into(task, p.remaining, &mut tasks[slot])?;
        }
        Ok(tasks)
    }

    /// The epoch solve shared by [`OnlinePolicy::plan`] and the sharded
    /// engine's workers: solve `sub_instance` (see [`epoch_instance`]),
    /// seeded from the previous epoch's accepted guess, and replay the
    /// schedule onto `machine`.  `id` maps a task of `sub_instance` to the
    /// id its commitment carries.
    pub(crate) fn solve_batch(
        &mut self,
        sub_instance: &Instance,
        machine: &mut MachineState,
        id: impl Fn(usize) -> TaskId,
    ) -> Result<Vec<Commitment>> {
        let counters_before = (
            self.workspace.probes(),
            self.workspace.grow_events(),
            self.workspace.rigid_builds().total(),
        );
        let mut request = SolveRequest::new(sub_instance).with_mode(self.search);
        // Seed the upper end slightly above the previous epoch's accepted
        // guess, rescaled to the new pending set.  An over-optimistic seed
        // only costs the doubling probes needed to climb back.  The static
        // lower bound is only computed when the solver can use the seed,
        // and travels with it, so the solve does not compute it again.
        let mut static_lb = 0.0;
        if self.solver.capabilities().supports_warm_start {
            let mut warm = WarmStart::of(sub_instance);
            static_lb = warm.lower_bound();
            if static_lb > 0.0 {
                if let Some(r) = self.previous_omega_ratio {
                    warm = warm.with_hint(r * static_lb * 1.05);
                }
            }
            request = request.with_warm_start(warm);
        }
        let timer = SpanTimer::start();
        let outcome = self
            .solver
            .solve_with_workspace(&request, &mut self.workspace);
        self.solve_ns += timer.elapsed_ns();
        self.solves += 1;
        let outcome = outcome?;
        if let Some(omega) = outcome.feasible_omega {
            if static_lb > 0.0 {
                self.previous_omega_ratio = Some(omega / static_lb);
            }
        }
        if let Some(recorder) = &self.recorder {
            // `ProbeWorkspace` counters are cumulative, so per-solve deltas
            // are plain differences.
            recorder.add(
                names::WORKSPACE_PROBES,
                (self.workspace.probes() - counters_before.0) as u64,
            );
            recorder.add(
                names::WORKSPACE_GROW_EVENTS,
                (self.workspace.grow_events() - counters_before.1) as u64,
            );
            recorder.add(
                names::WORKSPACE_RIGID_BUILDS,
                (self.workspace.rigid_builds().total() - counters_before.2) as u64,
            );
        }
        Ok(replay_offline(
            &outcome.schedule,
            machine,
            &mut self.replay_order,
            id,
        ))
    }
}

impl OnlinePolicy for EpochReplan {
    fn name(&self) -> String {
        let mut name = format!("epoch-{}(d={})", self.solver.name(), self.period);
        if self.backfill {
            name.push_str("+backfill");
        }
        if self.preempt_running {
            name.push_str("+preempt-running");
        } else if self.preempt_queued {
            name.push_str("+preempt");
        }
        if self.delta_plan {
            name.push_str("+delta");
        }
        name
    }

    fn epoch(&self) -> Option<f64> {
        Some(self.period)
    }

    fn backfill(&self) -> bool {
        self.backfill
    }

    fn preempt_queued(&self) -> bool {
        self.preempt_queued
    }

    fn preempt_running(&self) -> bool {
        self.preempt_running
    }

    fn delta_planning(&self) -> bool {
        self.delta_plan
    }

    fn should_plan(&self, trigger: Trigger, _machine: &MachineState) -> bool {
        trigger == Trigger::EpochTick
    }

    fn plan(
        &mut self,
        instance: &Instance,
        pending: &[PendingTask],
        machine: &mut MachineState,
    ) -> Result<Vec<Commitment>> {
        let tasks = self.refill_tasks(instance, pending)?;
        let sub_instance = epoch_instance(tasks, machine)?;
        let commitments = self.solve_batch(&sub_instance, machine, |index| pending[index].id);
        self.tasks = sub_instance.into_tasks();
        commitments
    }

    fn set_recorder(&mut self, recorder: SharedRecorder) {
        self.recorder = Some(recorder);
    }

    fn solver_name(&self) -> String {
        self.solver.name().to_string()
    }

    fn warm_start(&self) -> bool {
        self.solver.capabilities().supports_warm_start && self.previous_omega_ratio.is_some()
    }

    fn probes_issued(&self) -> usize {
        self.workspace.probes()
    }
}

/// Batch-mode scheduling: wait until the machine drains, then plan the whole
/// accumulated batch offline.
#[derive(Clone)]
pub struct BatchUntilIdle {
    /// The offline solver invoked on every batch.
    pub solver: SolverHandle,
    /// Run the machine in backfill mode (holes left by one batch are reusable
    /// by the next).
    pub backfill: bool,
    /// The replay order of the last batch's schedule (see
    /// [`replay_offline`]), whose buffer the next replay reuses.
    replay_order: Vec<usize>,
}

impl BatchUntilIdle {
    /// A batch policy with an explicit solver handle.
    pub fn with_solver(solver: SolverHandle) -> Self {
        BatchUntilIdle {
            solver,
            backfill: false,
            replay_order: Vec::new(),
        }
    }

    /// Enable or disable backfilling into idle holes (builder style).
    pub fn with_backfill(mut self, backfill: bool) -> Self {
        self.backfill = backfill;
        self
    }
}

impl Default for BatchUntilIdle {
    fn default() -> Self {
        Self::with_solver(Arc::new(MrtSolver))
    }
}

impl std::fmt::Debug for BatchUntilIdle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchUntilIdle")
            .field("solver", &self.solver.name())
            .field("backfill", &self.backfill)
            .finish()
    }
}

impl OnlinePolicy for BatchUntilIdle {
    fn name(&self) -> String {
        if self.backfill {
            format!("batch-idle({})+backfill", self.solver.name())
        } else {
            format!("batch-idle({})", self.solver.name())
        }
    }

    fn backfill(&self) -> bool {
        self.backfill
    }

    fn should_plan(&self, trigger: Trigger, machine: &MachineState) -> bool {
        matches!(
            trigger,
            Trigger::Arrival | Trigger::Completion | Trigger::Fault
        ) && machine.is_idle()
    }

    fn plan(
        &mut self,
        instance: &Instance,
        pending: &[PendingTask],
        machine: &mut MachineState,
    ) -> Result<Vec<Commitment>> {
        let sub_instance = epoch_instance(pending_tasks(instance, pending)?, machine)?;
        let outcome = self.solver.solve(&SolveRequest::new(&sub_instance))?;
        Ok(replay_offline(
            &outcome.schedule,
            machine,
            &mut self.replay_order,
            |index| pending[index].id,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_core_solver_produces_valid_schedules_through_batch_plan() {
        let instance = Instance::from_profiles(
            vec![
                SpeedupProfile::linear(6.0, 4).unwrap(),
                SpeedupProfile::new(vec![3.0, 1.8, 1.4]).unwrap(),
                SpeedupProfile::sequential(1.0).unwrap(),
            ],
            4,
        )
        .unwrap();
        let registry = malleable_core::solver::core_registry();
        for solver in registry.solvers() {
            let mut machine = MachineState::new(4);
            let pending: Vec<PendingTask> = (0..3).map(|id| PendingTask::new(id, 0.0)).collect();
            let mut policy = BatchUntilIdle::with_solver(Arc::clone(&solver));
            let commitments = policy.plan(&instance, &pending, &mut machine).unwrap();
            assert_eq!(commitments.len(), 3, "{}", solver.name());
        }
    }

    #[test]
    fn epoch_policy_rejects_bad_periods() {
        assert!(EpochReplan::mrt(0.0).is_err());
        assert!(EpochReplan::mrt(-1.0).is_err());
        assert!(EpochReplan::mrt(f64::NAN).is_err());
        assert!(EpochReplan::mrt(2.5).is_ok());
    }

    #[test]
    fn policies_report_their_names_and_epochs() {
        assert_eq!(GreedyList::new().name(), "greedy-list");
        assert_eq!(GreedyList::new().epoch(), None);
        let epoch = EpochReplan::mrt(2.0).unwrap();
        assert_eq!(epoch.name(), "epoch-mrt(d=2)");
        assert_eq!(epoch.epoch(), Some(2.0));
        let batch = BatchUntilIdle::with_solver(Arc::new(CanonicalListSolver));
        assert_eq!(batch.name(), "batch-idle(list)");
    }

    #[test]
    fn greedy_prefers_the_count_minimising_completion() {
        // One linear task on an idle 4-processor machine: the full width
        // minimises the finish time.
        let instance =
            Instance::from_profiles(vec![SpeedupProfile::linear(4.0, 4).unwrap()], 4).unwrap();
        let mut machine = MachineState::new(4);
        let pending = [PendingTask::new(0, 0.0)];
        let commitments = GreedyList::new()
            .plan(&instance, &pending, &mut machine)
            .unwrap();
        assert_eq!(commitments.len(), 1);
        assert_eq!(commitments[0].count, 4);
        assert!((commitments[0].duration - 1.0).abs() < 1e-12);
    }

    #[test]
    fn offline_plans_never_overlap_running_commitments() {
        let instance = Instance::from_profiles(
            vec![
                SpeedupProfile::sequential(1.0).unwrap(),
                SpeedupProfile::sequential(2.0).unwrap(),
            ],
            2,
        )
        .unwrap();
        let mut machine = MachineState::new(2);
        machine.commit_at(0, 2, 0.0, 5.0);
        let pending = [PendingTask::new(0, 0.5), PendingTask::new(1, 0.5)];
        let mut policy = BatchUntilIdle::default();
        let commitments = policy.plan(&instance, &pending, &mut machine).unwrap();
        assert_eq!(commitments.len(), 2);
        for c in &commitments {
            assert!(
                c.start >= 5.0 - 1e-9,
                "commitment {c:?} overlaps the running task"
            );
        }
    }

    #[test]
    fn epoch_replan_ignores_warm_state_for_one_shot_solvers() {
        let instance = Instance::from_profiles(
            vec![
                SpeedupProfile::linear(4.0, 4).unwrap(),
                SpeedupProfile::sequential(1.0).unwrap(),
            ],
            4,
        )
        .unwrap();
        let mut machine = MachineState::new(4);
        let pending: Vec<PendingTask> = (0..2).map(|id| PendingTask::new(id, 0.0)).collect();
        let mut policy = EpochReplan::with_solver(1.0, Arc::new(CanonicalListSolver)).unwrap();
        let commitments = policy.plan(&instance, &pending, &mut machine).unwrap();
        assert_eq!(commitments.len(), 2);
        // One-shot solvers report no accepted guess, so no seed is stored and
        // no probes flow through the workspace.
        assert_eq!(policy.probes(), 0);
        assert!(policy.previous_omega_ratio.is_none());
    }
}
