//! The event-driven online scheduling engine.
//!
//! The engine replays an [`ArrivalTrace`] against a policy: arrivals enter a
//! pending queue, the policy decides when the queue is planned and commits
//! placements into the [`MachineState`], and every commitment schedules a
//! completion event.  Epoch-driven policies additionally receive tick events
//! on their epoch grid (ticks are only scheduled while work is pending, so
//! the event loop always terminates).
//!
//! Commitments are backed by revocable reservations, which is what powers
//! the three dynamic behaviours of the engine:
//!
//! * **departures** — a task whose [`workload::Arrival::departs_at`] deadline
//!   fires before it started leaves the system; if it was already committed
//!   (but still queued) its reservation is revoked and the space freed.  A
//!   task completing *exactly* at its deadline counts as completed, never
//!   departed (completions order before departures at equal timestamps), and
//!   a task that executed any work is immune to its deadline.
//! * **preemptive re-allotment of queued commitments** — when the policy
//!   opts in ([`OnlinePolicy::preempt_queued`]), every epoch tick first
//!   revokes all queued commitments and hands their tasks back to the policy
//!   together with the new arrivals, so the whole backlog is re-solved as
//!   one instance.
//! * **mid-execution re-allotment of running tasks** — when the policy opts
//!   in ([`OnlinePolicy::preempt_running`]), an epoch tick with fresh work
//!   additionally *truncates* every running commitment at the clock: the
//!   executed segment stays on the books, the unexecuted tail is revoked,
//!   and the task re-enters the pending set as a **residual task** — its
//!   profile scaled by the remaining work fraction
//!   ([`workload::residual`]) — so the policy re-solves running and pending
//!   work jointly and may shrink, widen or move the tail.  Work executed at
//!   the old allotment is conserved by construction.
//!
//! The output is a single [`Schedule`] over the executed tasks on the global
//! timeline.  Without running re-allotment every task is one contiguous
//! placement; with it, a task may appear as several piecewise-constant
//! allotment segments.  [`trace_record`] states what a trace allows — each
//! task released at its arrival, first started by its departure deadline,
//! absent only if it has one, and run as work-conserving segments — and
//! `malleable_core::check` (or the [`validate_against_trace`] adapter)
//! checks a schedule against it.
//!
//! # Fault tolerance
//!
//! [`run_with_faults`] replays the same trace under a deterministic
//! [`workload::FaultPlan`]:
//!
//! * **processor crashes** — a `ProcessorDown` event takes the processor
//!   offline in the reservation timeline.  Every commitment still using it
//!   is displaced: queued reservations are revoked whole, running ones are
//!   truncated at the clock so the executed head stays on the books as a
//!   *conserved* segment, and the task re-enters the pending set as a
//!   residual (work is conserved, exactly as in mid-execution
//!   re-allotment).  `ProcessorUp` brings the processor back for future
//!   placements.
//! * **task failures** — a fault plan may kill a specific `(task, attempt)`
//!   pair a fraction of the way through its segment.  Unlike a crash the
//!   segment's work is *lost*: the executed head moves to the run's wasted
//!   list, the task's remaining fraction reverts to what it was when the
//!   segment started, and the task retries after a capped exponential
//!   backoff ([`workload::RetryPolicy`]) until its attempts budget is
//!   exhausted and it is abandoned.  Per-attempt accounting keeps work
//!   conserved: every attempt's processor-time lands either in the executed
//!   schedule or in the wasted list.  A failed task whose departure deadline
//!   already passed (the deadline event had found it protected by the
//!   in-flight commitment) departs instead of retrying — with the attempt's
//!   work lost nothing is conserved, and a retry could only start late.
//! * **stale-event filtering** — each commit bumps the task's generation
//!   counter and failure events carry the generation they were scheduled
//!   against, so failures aimed at revoked or re-planned commitments are
//!   ignored.
//!
//! [`OnlineResult::record`] extends the trace record with the fault-specific
//! facts (abandoned tasks may be unscheduled, executed and wasted segments
//! must not overlap each other or any outage), and the goodput split
//! ([`OnlineResult::wasted_integral`] vs [`OnlineResult::busy_integral`] over
//! [`OnlineResult::capacity_integral`]) quantifies graceful degradation.
//!
//! # Cost model
//!
//! The engine's bookkeeping does not grow with the trace's history.  A
//! private task table holds each task's lifecycle state and two indexes:
//! a min-heap of committed-but-not-started tasks keyed by `(start, task id)`
//! (stale entries are skipped lazily by the commitment generation), and the
//! set of running tasks, which holds O(m) entries because each occupies a
//! processor.  So:
//!
//! * an arrival, completion, departure or failure costs O(log n) of engine
//!   bookkeeping — heap operations on the event queue and the queued index
//!   — plus the reservation-book operation it triggers, which touches only
//!   the live intervals of the processors involved;
//! * an epoch tick visits only the commitments that fell due, the running
//!   set (under mid-execution re-allotment) and, when the policy preempts
//!   queued work, the queued index — never all n tasks;
//! * a crash walks the two indexes once to find the displaced tasks;
//! * advancing the clock pops only the expired front of each processor's
//!   reservation list ([`packing::reservations::ReservationTimeline`]).
//!
//! What remains per event is the policy's own planning of the pending set.
//! Passes driven by the indexes visit tasks in ascending id, as a full scan
//! would, so revocation telemetry, the pending order and every schedule are
//! independent of how the tasks were found.

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap, HashMap};

use crate::event::{EventKind, EventQueue};
use crate::machine::{MachineState, ReservationId};
use crate::policy::{Commitment, OnlinePolicy, PendingTask, Trigger};
use ::telemetry::{names, Recorder, SpanTimer, TelemetryEvent};
use malleable_core::prelude::*;
use malleable_core::validate::{check, RunRecord, TaskWindow};
use workload::{ArrivalTrace, FaultPlan, Outage, RetryPolicy};

/// The outcome of one engine run.
#[derive(Debug, Clone)]
pub struct OnlineResult {
    /// Name of the policy that produced the run.
    pub policy: String,
    /// The committed schedule on the global timeline (task `j` = arrival `j`;
    /// departed tasks are absent).
    pub schedule: Schedule,
    /// Completion time of the last task.
    pub makespan: f64,
    /// Mean flow time (completion − arrival) over the executed tasks.
    pub mean_flow_time: f64,
    /// Largest flow time over the executed tasks.
    pub max_flow_time: f64,
    /// Number of events processed.
    pub events: usize,
    /// Number of planning rounds (policy `plan` invocations).
    pub replans: usize,
    /// Number of tasks that departed before starting.
    pub departed: usize,
    /// Number of queued commitments revoked by preemptive re-planning.
    pub preempted: usize,
    /// Number of running commitments truncated for mid-execution
    /// re-allotment (each adds one executed segment to the schedule).
    pub reallotted: usize,
    /// Integral of busy processors over the horizon: the sum of
    /// `duration × allotment` over every executed segment.  Divides by
    /// [`OnlineResult::capacity_integral`] to give
    /// [`OnlineResult::time_weighted_utilization`].
    pub busy_integral: f64,
    /// Injected task-attempt failures observed during the run.
    pub failures: usize,
    /// Tasks abandoned after exhausting their retry budget.
    pub retries_exhausted: usize,
    /// Ids of the abandoned tasks (their lost segments are in
    /// [`OnlineResult::wasted`], never in the schedule).
    pub abandoned: Vec<usize>,
    /// Processor crashes applied during the run.
    pub crashes: usize,
    /// Processor repairs applied during the run.
    pub repairs: usize,
    /// Executed-but-lost segments: the heads of failed attempts plus the
    /// conserved segments of abandoned tasks.  Disjoint from the schedule.
    pub wasted: Vec<ScheduledTask>,
    /// Integral of `duration × allotment` over [`OnlineResult::wasted`] —
    /// processor-time burned without contributing to any completed task.
    pub wasted_integral: f64,
    /// Integral of *online* processors over `[0, makespan]`:
    /// `m × makespan` minus the outage overlaps.  Equal to `m × makespan`
    /// in a fault-free run.
    pub capacity_integral: f64,
    /// Outage intervals applied during the run, with open-ended outages
    /// left at `end = f64::INFINITY`.
    pub outages: Vec<Outage>,
}

impl OnlineResult {
    /// Machine utilisation over the makespan horizon.
    pub fn utilization(&self) -> f64 {
        self.schedule.utilization()
    }

    /// Time-weighted utilisation against the capacity that actually
    /// existed: the busy-processor integral divided by the *online*
    /// processor integral ([`OnlineResult::capacity_integral`]).  Unlike a
    /// sampled end-of-run scalar this weights every interval by its length,
    /// so idle stretches between epochs count against the figure — but time
    /// a crashed processor spent offline does not (the scheduler could not
    /// have used it).  In a fault-free run the capacity integral is exactly
    /// `m × makespan` and this equals
    /// [`OnlineResult::nominal_utilization`].
    pub fn time_weighted_utilization(&self) -> f64 {
        if self.capacity_integral <= 0.0 {
            return 0.0;
        }
        self.busy_integral / self.capacity_integral
    }

    /// The historical utilisation figure: the busy-processor integral over
    /// `m × makespan`, as if every processor had been online for the whole
    /// horizon.  Under faults this under-reports the scheduler (offline
    /// time it could never use counts against it); kept for comparability
    /// across fault-free reports.
    pub fn nominal_utilization(&self) -> f64 {
        let horizon = self.schedule.makespan();
        if horizon <= 0.0 {
            return 0.0;
        }
        self.busy_integral / (self.schedule.processors() as f64 * horizon)
    }

    /// The record of this run of `trace`: the [`trace_record`] of its
    /// schedule plus its wasted segments, its outages, its reported makespan
    /// and its abandoned tasks, which may be absent.
    pub fn record<'a>(&'a self, trace: &'a ArrivalTrace) -> RunRecord<'a> {
        trace_record(trace, &self.schedule)
            .with_faults(&self.wasted, &self.outages, self.makespan)
            .allow_absent(&self.abandoned)
    }

    /// Fraction of all executed processor-time that landed in completed
    /// tasks: `busy / (busy + wasted)`.  `1.0` when nothing was wasted
    /// (including the degenerate empty run).
    pub fn goodput_fraction(&self) -> f64 {
        let total = self.busy_integral + self.wasted_integral;
        if total <= 0.0 {
            return 1.0;
        }
        self.busy_integral / total
    }
}

/// The shipped **queued-reallotment scenario**: two sequential tasks fill a
/// two-processor machine, a malleable task is committed *queued* at a single
/// processor behind them, and a tiny straggler arrives — a preemptive epoch
/// re-planner ([`crate::policy::EpochReplan::with_preempt_queued`]) revokes
/// the queued task, widens it to the whole machine and strictly beats the
/// non-preemptive run (makespan 7.5 vs 9 with `EpochReplan::mrt(1.0)`).
///
/// Shared by the engine's hand-computed unit test and the `online_report`
/// benchmark gate so the two can never drift apart.  The profiles are
/// hand-written constants, but the builder still returns the constructor
/// errors instead of panicking — the engine crate's non-test paths stay
/// panic-free.
pub fn queued_reallotment_scenario() -> Result<ArrivalTrace> {
    use workload::Arrival;
    ArrivalTrace::new(
        2,
        vec![
            Arrival::new(0.1, MalleableTask::new(SpeedupProfile::sequential(4.0)?)),
            Arrival::new(0.1, MalleableTask::new(SpeedupProfile::sequential(4.0)?)),
            Arrival::new(
                0.1,
                MalleableTask::new(SpeedupProfile::new(vec![4.0, 2.0])?),
            ),
            Arrival::new(1.5, MalleableTask::new(SpeedupProfile::sequential(0.5)?)),
        ],
    )
}

/// The shipped **running-reallotment scenario**: a malleable task is planned
/// alone and allotted the whole two-processor machine; a long sequential
/// task then arrives while it runs.  A mid-execution re-allotter
/// ([`crate::policy::EpochReplan::with_preempt_running`]) truncates the
/// running task at the next tick, re-solves its residual jointly with the
/// newcomer, *narrows* the malleable task to one processor and runs the
/// sequential task beside it (makespan ≈ 8.22 vs 11.5 when started tasks
/// are frozen — queued-only preemption cannot help because nothing is
/// queued).
///
/// Shared by the engine's hand-computed unit test and the `online_report`
/// benchmark gate so the two can never drift apart.  Returns the
/// constructor errors instead of panicking, like
/// [`queued_reallotment_scenario`].
pub fn running_reallotment_scenario() -> Result<ArrivalTrace> {
    use workload::Arrival;
    ArrivalTrace::new(
        2,
        vec![
            Arrival::new(
                0.1,
                MalleableTask::new(SpeedupProfile::new(vec![8.0, 4.5])?),
            ),
            Arrival::new(1.5, MalleableTask::new(SpeedupProfile::sequential(6.0)?)),
        ],
    )
}

/// Per-task lifecycle state tracked by the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
enum TaskState {
    /// Not yet arrived, or waiting in the pending queue — possibly as a
    /// *residual* with executed segments already behind it, after a running
    /// preemption.
    Waiting,
    /// Committed into the machine, not yet observed running.
    Committed(Commitment),
    /// Observed running: the current segment's start has passed.  Running
    /// tasks complete normally; under
    /// [`OnlinePolicy::preempt_running`] they may instead be truncated at a
    /// tick and re-planned as residuals.
    Running(RunningTask),
    /// Finished executing.
    Done {
        /// Completion time of the final segment.
        finished_at: f64,
    },
    /// Left the system without executing any work.
    Departed,
    /// Gave up after exhausting its retry budget (fault runs only); its
    /// lost segments are accounted in the wasted list.
    Abandoned,
}

impl TaskState {
    /// The commitment the task currently holds, queued or running.
    fn commitment(&self) -> Option<Commitment> {
        match *self {
            TaskState::Committed(c) => Some(c),
            TaskState::Running(r) => Some(r.commitment),
            _ => None,
        }
    }

    /// The held commitment with the remaining-work fraction its segment
    /// started from: the running segment's anchor, or `remaining` (the
    /// task's current fraction) for a commitment not yet observed running.
    fn in_flight(&self, remaining: f64) -> Option<(Commitment, f64)> {
        match *self {
            TaskState::Committed(c) => Some((c, remaining)),
            TaskState::Running(r) => Some((r.commitment, r.remaining_at_start)),
            _ => None,
        }
    }
}

/// The in-flight segment of a running task.
#[derive(Debug, Clone, Copy, PartialEq)]
struct RunningTask {
    /// The commitment backing the segment.
    commitment: Commitment,
    /// When the segment started executing (= its commitment's start).
    started_at: f64,
    /// Fraction of the whole task still unexecuted when the segment started
    /// (1.0 unless earlier segments were preempted); the segment's
    /// remaining-work bookkeeping anchor.
    remaining_at_start: f64,
}

/// One entry of the queued index: a commitment made at `generation`,
/// ordered by `(start, task)` so the earliest due commitment pops first.
#[derive(Debug, Clone, Copy)]
struct QueuedEntry {
    start: f64,
    task: usize,
    generation: u64,
}

impl Ord for QueuedEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap, the index needs the earliest
        // start on top.
        other
            .start
            .total_cmp(&self.start)
            .then_with(|| other.task.cmp(&self.task))
            .then_with(|| other.generation.cmp(&self.generation))
    }
}

impl PartialOrd for QueuedEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for QueuedEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for QueuedEntry {}

/// The engine's task table: every task's lifecycle state and commitment
/// generation, plus the two lifecycle indexes the epoch passes walk instead
/// of scanning all n states.
///
/// * **queued** — a min-heap of committed-but-not-started tasks keyed by
///   `(start, task)`.  Entries are invalidated lazily: one whose task has
///   since left [`TaskState::Committed`] or was re-committed (a newer
///   generation) is stale and skipped when it surfaces.
/// * **running** — the tasks in [`TaskState::Running`], kept eagerly and in
///   ascending id order.  Each occupies at least one processor from its
///   start until its completion event, so the set holds O(m) tasks.
///
/// Every transition goes through the table so the indexes never drift from
/// the states.
struct TaskTable {
    states: Vec<TaskState>,
    /// Commitment generation per task: bumped on every commit, carried by
    /// failure events and queued entries so stale ones are filtered.
    generation: Vec<u64>,
    queued: BinaryHeap<QueuedEntry>,
    running: BTreeSet<usize>,
}

impl TaskTable {
    fn new(n: usize) -> Self {
        TaskTable {
            states: vec![TaskState::Waiting; n],
            generation: vec![0; n],
            queued: BinaryHeap::new(),
            running: BTreeSet::new(),
        }
    }

    fn state(&self, task: usize) -> TaskState {
        self.states[task]
    }

    fn generation(&self, task: usize) -> u64 {
        self.generation[task]
    }

    /// Record a fresh commitment: bump the task's generation and index it as
    /// queued.
    fn commit(&mut self, c: Commitment) {
        self.leave(c.task);
        self.states[c.task] = TaskState::Committed(c);
        self.generation[c.task] = self.generation[c.task].wrapping_add(1);
        // Stale entries on top are free to drop here; without it a policy
        // that never ticks (nothing is ever promoted) would grow the heap
        // by one entry per commitment for the whole run.
        while self
            .queued
            .peek()
            .is_some_and(|&top| self.live(top).is_none())
        {
            self.queued.pop();
        }
        self.queued.push(QueuedEntry {
            start: c.start,
            task: c.task,
            generation: self.generation[c.task],
        });
    }

    /// Move a task to a state that holds no commitment (waiting, done,
    /// departed or abandoned).
    fn release(&mut self, task: usize, state: TaskState) {
        self.leave(task);
        self.states[task] = state;
    }

    /// Drop the task from the running index (its queued entry, if any, goes
    /// stale on its own).
    fn leave(&mut self, task: usize) {
        if let TaskState::Running(_) = self.states[task] {
            self.running.remove(&task);
        }
    }

    /// The commitment a queued entry describes, unless the entry is stale.
    fn live(&self, entry: QueuedEntry) -> Option<Commitment> {
        match self.states[entry.task] {
            TaskState::Committed(c) if self.generation[entry.task] == entry.generation => Some(c),
            _ => None,
        }
    }

    /// Promote every commitment whose start has passed into the `Running`
    /// state, capturing the remaining-work anchor of the in-flight segment.
    /// Pops only the due entries.
    fn promote_due(&mut self, now: f64, remaining: &[f64]) {
        while let Some(&entry) = self.queued.peek() {
            if entry.start > now + 1e-9 {
                break;
            }
            self.queued.pop();
            if let Some(c) = self.live(entry) {
                self.states[entry.task] = TaskState::Running(RunningTask {
                    commitment: c,
                    started_at: c.start,
                    remaining_at_start: remaining[entry.task],
                });
                self.running.insert(entry.task);
            }
        }
    }

    /// Empty the queued index, returning its live commitments in ascending
    /// task id (their tasks are still `Committed`; the caller revokes them).
    fn drain_queued(&mut self) -> Vec<Commitment> {
        let entries = std::mem::take(&mut self.queued).into_vec();
        let mut live: Vec<Commitment> = entries
            .into_iter()
            .filter_map(|entry| self.live(entry))
            .collect();
        live.sort_unstable_by_key(|c| c.task);
        live
    }

    /// The running tasks in ascending id order.
    fn running(&self) -> Vec<(usize, RunningTask)> {
        self.running
            .iter()
            .filter_map(|&task| match self.states[task] {
                TaskState::Running(r) => Some((task, r)),
                _ => None,
            })
            .collect()
    }

    /// The tasks holding `reservations`, in the same order, found through
    /// the two indexes (one walk over both).  Fails with the first
    /// reservation no live commitment holds.
    fn holders(
        &self,
        reservations: &[ReservationId],
    ) -> std::result::Result<Vec<usize>, ReservationId> {
        let mut holder: HashMap<ReservationId, usize> = HashMap::new();
        for &task in &self.running {
            if let Some(c) = self.states[task].commitment() {
                holder.insert(c.reservation, task);
            }
        }
        for &entry in self.queued.iter() {
            if let Some(c) = self.live(entry) {
                holder.insert(c.reservation, c.task);
            }
        }
        reservations
            .iter()
            .map(|reservation| holder.get(reservation).copied().ok_or(*reservation))
            .collect()
    }
}

/// The fault model of one engine run: the deterministic plan plus the
/// retry discipline.
struct FaultContext<'a> {
    plan: &'a FaultPlan,
    retry: RetryPolicy,
}

/// Run a policy over a trace.
pub fn run(trace: &ArrivalTrace, policy: &mut dyn OnlinePolicy) -> Result<OnlineResult> {
    run_inner(trace, policy, None, None)
}

/// Run a policy over a trace under a deterministic fault plan.
///
/// Processor outages and per-attempt task failures from `plan` are injected
/// as first-class events (see the module docs for the recovery semantics);
/// `retry` governs the backoff and attempts budget of failed tasks.  Pass a
/// recorder to capture the fault telemetry stream
/// (`processor_down`/`processor_up`/`task_failure`/`retry_scheduled`
/// events and the matching counters).
///
/// The plan must target the trace's machine (`plan.processors() ==
/// trace.processors()`) and `retry` must be valid; a quiet plan
/// ([`FaultPlan::is_quiet`]) reproduces [`run`] exactly.
pub fn run_with_faults(
    trace: &ArrivalTrace,
    policy: &mut dyn OnlinePolicy,
    plan: &FaultPlan,
    retry: RetryPolicy,
    recorder: Option<&dyn Recorder>,
) -> Result<OnlineResult> {
    if plan.processors() != trace.processors() {
        return Err(Error::InvalidParameter {
            name: "fault-plan-processors",
            value: plan.processors() as f64,
        });
    }
    retry.validate()?;
    run_inner(trace, policy, recorder, Some(FaultContext { plan, retry }))
}

/// Run a policy over a trace with telemetry.
///
/// Every engine decision is recorded: per-event-loop decision latency and
/// hole-scan histograms, per-epoch solve spans (solver name, probe count,
/// warm-start flag), structured placement/revocation/truncation/completion/
/// departure events, reservation-timeline operation counts, and a per-epoch
/// time-weighted utilisation timeline.  Pass a `NoopRecorder` to measure
/// instrumentation overhead against [`run`] (the `probe_report` bench gates
/// the difference at ≤ 2%); pass a
/// [`CollectingRecorder`](::telemetry::CollectingRecorder) — with a clone of
/// the same handle in
/// [`crate::policy::PolicyOptions::recorder`] so the policy's workspace
/// counters land in the same sink — to collect the stream.
pub fn run_recorded(
    trace: &ArrivalTrace,
    policy: &mut dyn OnlinePolicy,
    recorder: &dyn Recorder,
) -> Result<OnlineResult> {
    run_inner(trace, policy, Some(recorder), None)
}

fn run_inner(
    trace: &ArrivalTrace,
    policy: &mut dyn OnlinePolicy,
    recorder: Option<&dyn Recorder>,
    faults: Option<FaultContext<'_>>,
) -> Result<OnlineResult> {
    let run_timer = recorder.map(|_| SpanTimer::start());
    let instance = trace.instance()?;
    let n = trace.len();
    let mut machine = if policy.backfill() {
        MachineState::with_backfill(instance.processors())
    } else {
        MachineState::new(instance.processors())
    };
    let mut queue = EventQueue::new();
    for (index, arrival) in trace.arrivals().iter().enumerate() {
        queue.push(arrival.at, EventKind::Arrival(index));
        if let Some(departs_at) = arrival.departs_at {
            queue.push(departs_at, EventKind::Departure(index));
        }
    }
    if let Some(ctx) = &faults {
        // Outages are known up-front (the plan is deterministic): both edges
        // enter the heap now, interleaving with task events by the
        // documented equal-timestamp order.
        for outage in ctx.plan.outages() {
            queue.push(outage.start, EventKind::ProcessorDown(outage.processor));
            if outage.end.is_finite() {
                queue.push(outage.end, EventKind::ProcessorUp(outage.processor));
            }
        }
    }

    let mut pending: Vec<PendingTask> = Vec::new();
    let mut tasks = TaskTable::new(n);
    // Fraction of each task still unexecuted (1.0 until its first segment
    // closes, 0.0 once completed) — the residual-task bookkeeping.
    let mut remaining: Vec<f64> = vec![1.0; n];
    // Closed (executed) segments per task; the final schedule is their
    // concatenation.  One entry per task unless running re-allotment split
    // its execution into several piecewise-constant allotments.
    let mut segments: Vec<Vec<ScheduledTask>> = vec![Vec::new(); n];
    let mut events = 0usize;
    let mut replans = 0usize;
    let mut departed = 0usize;
    let mut preempted = 0usize;
    let mut reallotted = 0usize;
    // Fault-run bookkeeping (all quiescent without a fault context).
    // Failed attempts per task; indexes the plan's per-attempt failure table.
    let mut attempts: Vec<usize> = vec![0; n];
    // Executed-but-lost segments: failed attempts' heads and the conserved
    // segments of abandoned tasks.
    let mut wasted: Vec<ScheduledTask> = Vec::new();
    let mut abandoned: Vec<usize> = Vec::new();
    let mut failures = 0usize;
    let mut retries_exhausted = 0usize;
    let mut crashes = 0usize;
    let mut repairs = 0usize;
    // Applied outages; an entry stays open (`end = INFINITY`) until its
    // repair event fires.
    let mut outage_log: Vec<Outage> = Vec::new();
    let mut tick_scheduled = false;
    // Structural delta-planning bookkeeping (policies opting in via
    // `OnlinePolicy::delta_planning`): set on departures and fault events,
    // cleared after a planned epoch tick.  While clean, epoch boundaries
    // skip the preemptive revocation pass and plan only fresh arrivals
    // against the surviving schedule.
    let mut structural_dirty = false;
    // Running maximum of committed start times, for the backfill telemetry
    // flag: a placement beginning strictly before it filled an earlier hole.
    let mut latest_committed_start = 0.0f64;

    while let Some(event) = queue.pop() {
        events += 1;
        let decision_timer = recorder.map(|_| SpanTimer::start());
        let holes_before = recorder.map(|_| machine.timeline_stats().holes_scanned);
        machine.advance_to(event.time);
        let trigger = match event.kind {
            EventKind::Arrival(index) => {
                // Retries re-enter through a fresh arrival event; one queued
                // mid-backoff when the task departed or was abandoned is
                // stale and must be dropped here.
                if matches!(
                    tasks.state(index),
                    TaskState::Departed | TaskState::Abandoned
                ) {
                    None
                } else {
                    pending.push(PendingTask {
                        id: index,
                        arrived_at: event.time,
                        // 1.0 for a first arrival; a retry resumes at the
                        // task's conserved remaining fraction.
                        remaining: remaining[index],
                    });
                    Some(Trigger::Arrival)
                }
            }
            EventKind::Completion(task) => {
                // A completion is only real when it matches the task's
                // *current* commitment: events of revoked commitments stay in
                // the heap and are skipped here.
                match tasks.state(task).commitment() {
                    Some(c) if (c.start + c.duration - event.time).abs() <= 1e-6 => {
                        segments[task].push(ScheduledTask {
                            task,
                            start: c.start,
                            duration: c.duration,
                            processors: ProcessorRange::new(c.first, c.count),
                        });
                        remaining[task] = 0.0;
                        tasks.release(
                            task,
                            TaskState::Done {
                                finished_at: c.start + c.duration,
                            },
                        );
                        machine.complete_one();
                        if let Some(rec) = recorder {
                            rec.add(names::COMPLETIONS, 1);
                            if rec.enabled() {
                                rec.event(TelemetryEvent::Complete {
                                    time: event.time,
                                    task: task as u64,
                                });
                            }
                        }
                        Some(Trigger::Completion)
                    }
                    _ => None,
                }
            }
            EventKind::Departure(index) => match tasks.state(index) {
                // A task that executed any work is immune to its deadline:
                // work is conserved, so tearing it down would strand
                // executed segments.  (A completion at exactly `departs_at`
                // popped before this event — completions order before
                // departures — so the task is already `Done` here.)
                TaskState::Waiting if segments[index].is_empty() => {
                    // Still queued (or never planned): the task leaves.
                    if let Some(pos) = pending.iter().position(|p| p.id == index) {
                        pending.remove(pos);
                        tasks.release(index, TaskState::Departed);
                        departed += 1;
                        if let Some(rec) = recorder {
                            rec.add(names::DEPARTURES, 1);
                            if rec.enabled() {
                                rec.event(TelemetryEvent::Depart {
                                    time: event.time,
                                    task: index as u64,
                                    completed: false,
                                });
                            }
                        }
                        Some(Trigger::Departure)
                    } else if faults.is_some() && attempts[index] > 0 {
                        // Waiting out a retry backoff (its re-arrival is
                        // still in the heap): no conserved work exists, so
                        // the deadline takes it.  The queued retry arrival
                        // goes stale via the arrival-handler guard.
                        tasks.release(index, TaskState::Departed);
                        departed += 1;
                        if let Some(rec) = recorder {
                            rec.add(names::DEPARTURES, 1);
                            if rec.enabled() {
                                rec.event(TelemetryEvent::Depart {
                                    time: event.time,
                                    task: index as u64,
                                    completed: false,
                                });
                            }
                        }
                        Some(Trigger::Departure)
                    } else {
                        // Departure before arrival cannot happen (validated
                        // by the trace); a fault-free Waiting task is always
                        // pending.
                        None
                    }
                }
                TaskState::Committed(c)
                    if segments[index].is_empty() && c.start > event.time + 1e-9 =>
                {
                    // Committed but not started: revoke the reservation.
                    machine.revoke(c.reservation).map_err(|e| {
                        invariant_error(
                            recorder,
                            event.time,
                            "revoke-queued-departure",
                            format!("task {index}: {e}"),
                        )
                    })?;
                    tasks.release(index, TaskState::Departed);
                    departed += 1;
                    if let Some(rec) = recorder {
                        rec.add(names::REVOCATIONS, 1);
                        rec.add(names::DEPARTURES, 1);
                        if rec.enabled() {
                            rec.event(TelemetryEvent::Revoke {
                                time: event.time,
                                task: index as u64,
                            });
                            rec.event(TelemetryEvent::Depart {
                                time: event.time,
                                task: index as u64,
                                completed: false,
                            });
                        }
                    }
                    Some(Trigger::Departure)
                }
                // Running, finished, already departed, or a residual that
                // already executed work: nothing to do.
                _ => None,
            },
            EventKind::TaskFailure {
                task,
                generation: scheduled_generation,
            } => {
                let Some(ctx) = faults.as_ref() else {
                    return Err(invariant_error(
                        recorder,
                        event.time,
                        "fault-context",
                        format!("failure event for task {task} in a fault-free run"),
                    ));
                };
                // Only the commitment the failure was scheduled against may
                // die: every commit bumps the generation, so failures aimed
                // at revoked or re-planned commitments are stale.
                match tasks.state(task).in_flight(remaining[task]) {
                    Some((c, remaining_at_start))
                        if tasks.generation(task) == scheduled_generation =>
                    {
                        let now = event.time;
                        let elapsed = now - c.start;
                        if elapsed > 1e-9 {
                            machine.truncate_at(c.reservation, now).map_err(|e| {
                                invariant_error(
                                    recorder,
                                    now,
                                    "truncate-failed-segment",
                                    format!("task {task}: {e}"),
                                )
                            })?;
                            // Unlike a crash the head is *lost* work: the
                            // processors were burned but the task must redo
                            // it, so the segment lands in the wasted list
                            // and `remaining` reverts below.
                            wasted.push(ScheduledTask {
                                task,
                                start: c.start,
                                duration: elapsed,
                                processors: ProcessorRange::new(c.first, c.count),
                            });
                        } else {
                            machine.revoke(c.reservation).map_err(|e| {
                                invariant_error(
                                    recorder,
                                    now,
                                    "revoke-failed-commitment",
                                    format!("task {task}: {e}"),
                                )
                            })?;
                        }
                        remaining[task] = remaining_at_start;
                        attempts[task] += 1;
                        failures += 1;
                        if let Some(rec) = recorder {
                            rec.add(names::TASK_FAILURES, 1);
                            if rec.enabled() {
                                rec.event(TelemetryEvent::TaskFailure {
                                    time: now,
                                    task: task as u64,
                                    attempt: attempts[task] - 1,
                                    lost_work: elapsed.max(0.0) * c.count as f64,
                                });
                            }
                        }
                        if attempts[task] >= ctx.retry.max_attempts {
                            // Retry budget exhausted: abandon the task and
                            // move its conserved segments to the wasted list
                            // (they can no longer sum to a whole task).
                            wasted.append(&mut segments[task]);
                            tasks.release(task, TaskState::Abandoned);
                            abandoned.push(task);
                            retries_exhausted += 1;
                            if let Some(rec) = recorder {
                                rec.add(names::RETRIES_EXHAUSTED, 1);
                            }
                        } else if segments[task].is_empty()
                            && trace.arrivals()[task]
                                .departs_at
                                .is_some_and(|d| d <= now + 1e-9)
                        {
                            // The deadline passed while the attempt ran (its
                            // departure event found the task protected by the
                            // in-flight commitment and left it alone).  The
                            // failure lost that work, so nothing is conserved
                            // any more and the expired deadline takes the
                            // task: a retry could only ever start late.
                            tasks.release(task, TaskState::Departed);
                            departed += 1;
                            if let Some(rec) = recorder {
                                rec.add(names::DEPARTURES, 1);
                                if rec.enabled() {
                                    rec.event(TelemetryEvent::Depart {
                                        time: now,
                                        task: task as u64,
                                        completed: false,
                                    });
                                }
                            }
                        } else {
                            tasks.release(task, TaskState::Waiting);
                            let at = now + ctx.retry.backoff(attempts[task]);
                            queue.push(at, EventKind::Arrival(task));
                            if let Some(rec) = recorder {
                                rec.add(names::RETRIES_SCHEDULED, 1);
                                if rec.enabled() {
                                    rec.event(TelemetryEvent::RetryScheduled {
                                        time: now,
                                        task: task as u64,
                                        attempt: attempts[task],
                                        at,
                                    });
                                }
                            }
                        }
                        Some(Trigger::Fault)
                    }
                    _ => None,
                }
            }
            EventKind::ProcessorDown(processor) => {
                if !machine.is_online(processor) {
                    // Overlapping outage edges in a hand-built plan: the
                    // processor is already down.
                    None
                } else {
                    let now = event.time;
                    let displaced = machine.set_offline(processor, now).map_err(|e| {
                        invariant_error(
                            recorder,
                            now,
                            "crash-displacement",
                            format!("processor {processor}: {e}"),
                        )
                    })?;
                    crashes += 1;
                    outage_log.push(Outage {
                        processor,
                        start: now,
                        end: f64::INFINITY,
                    });
                    let displaced_count = displaced.len();
                    let holders = tasks.holders(&displaced).map_err(|reservation| {
                        invariant_error(
                            recorder,
                            now,
                            "crash-displacement",
                            format!(
                                "displaced reservation {reservation:?} backs no live commitment"
                            ),
                        )
                    })?;
                    for task in holders {
                        let Some((c, remaining_at_start)) =
                            tasks.state(task).in_flight(remaining[task])
                        else {
                            return Err(invariant_error(
                                recorder,
                                now,
                                "crash-displacement",
                                format!(
                                    "task {task} is indexed as a holder but holds no commitment"
                                ),
                            ));
                        };
                        let elapsed = now - c.start;
                        if elapsed > 1e-9 {
                            // Running when the processor died: `set_offline`
                            // already truncated the reservation at the
                            // clock, so the executed head is *conserved* —
                            // close it as a segment and requeue the
                            // residual, exactly as mid-execution
                            // re-allotment does.
                            segments[task].push(ScheduledTask {
                                task,
                                start: c.start,
                                duration: elapsed,
                                processors: ProcessorRange::new(c.first, c.count),
                            });
                            remaining[task] = (remaining_at_start
                                - workload::executed_fraction(
                                    &instance.task(task).profile,
                                    c.count,
                                    elapsed,
                                ))
                            .max(1e-12);
                        }
                        tasks.release(task, TaskState::Waiting);
                        pending.push(PendingTask {
                            id: task,
                            arrived_at: trace.arrivals()[task].at,
                            remaining: remaining[task],
                        });
                    }
                    if let Some(rec) = recorder {
                        rec.add(names::PROCESSOR_DOWNS, 1);
                        if rec.enabled() {
                            rec.event(TelemetryEvent::ProcessorDown {
                                time: now,
                                processor,
                                displaced: displaced_count,
                            });
                        }
                    }
                    Some(Trigger::Fault)
                }
            }
            EventKind::ProcessorUp(processor) => {
                if machine.is_online(processor) {
                    // Matching guard for the overlapping-edges case above.
                    None
                } else {
                    machine.set_online(processor, event.time);
                    repairs += 1;
                    if let Some(open) = outage_log
                        .iter_mut()
                        .rev()
                        .find(|o| o.processor == processor && o.end.is_infinite())
                    {
                        open.end = event.time;
                    }
                    if let Some(rec) = recorder {
                        rec.add(names::PROCESSOR_UPS, 1);
                        if rec.enabled() {
                            rec.event(TelemetryEvent::ProcessorUp {
                                time: event.time,
                                processor,
                            });
                        }
                    }
                    Some(Trigger::Fault)
                }
            }
            EventKind::EpochTick => {
                tick_scheduled = false;
                Some(Trigger::EpochTick)
            }
        };

        if matches!(trigger, Some(Trigger::Departure | Trigger::Fault)) {
            // The committed schedule lost structure (a departure or fault
            // disturbed it): the next epoch tick must re-solve in full.
            structural_dirty = true;
        }

        if let Some(trigger) = trigger {
            if trigger == Trigger::EpochTick {
                let now = machine.now();
                // Promote commitments whose start has passed into the
                // `Running` lifecycle state (only the due ones are visited).
                tasks.promote_due(now, &remaining);
                // Preemptive re-allotment of queued commitments: pull every
                // not-yet-started commitment back into the pending set
                // before planning, so the policy re-solves the whole
                // backlog as one instance.  Running re-allotment subsumes
                // this — a frozen queued placement would defeat the joint
                // re-solve.
                // Structural delta-planning: while no departure or fault has
                // disturbed the committed schedule since the last planned
                // tick, an opted-in policy keeps every surviving commitment
                // and plans only the fresh arrivals — the whole preemptive
                // pass below is skipped for this epoch.
                let delta_epoch = policy.delta_planning()
                    && !structural_dirty
                    && (policy.preempt_queued() || policy.preempt_running());
                if delta_epoch && !pending.is_empty() {
                    if let Some(rec) = recorder {
                        rec.add(names::DELTA_PLANS, 1);
                    }
                }
                if !delta_epoch && (policy.preempt_queued() || policy.preempt_running()) {
                    for c in tasks.drain_queued() {
                        let task = c.task;
                        machine.revoke(c.reservation).map_err(|e| {
                            invariant_error(
                                recorder,
                                now,
                                "preempt-queued",
                                format!("task {task}: {e}"),
                            )
                        })?;
                        tasks.release(task, TaskState::Waiting);
                        pending.push(PendingTask {
                            id: task,
                            arrived_at: trace.arrivals()[task].at,
                            remaining: remaining[task],
                        });
                        preempted += 1;
                        if let Some(rec) = recorder {
                            rec.add(names::REVOCATIONS, 1);
                            if rec.enabled() {
                                rec.event(TelemetryEvent::Revoke {
                                    time: now,
                                    task: task as u64,
                                });
                            }
                        }
                    }
                }
                // Mid-execution re-allotment: truncate every running
                // commitment at the clock — the executed head becomes a
                // closed segment, the tail is freed — and hand the task
                // back as a residual (profile scaled by the remaining
                // fraction).  Only worthwhile when there is fresh or
                // re-queued work to co-schedule: with an empty pending set
                // the re-solve could only replay the same tails.
                if !delta_epoch && policy.preempt_running() && !pending.is_empty() {
                    for (task, r) in tasks.running() {
                        let c = r.commitment;
                        if c.start + c.duration <= now + 1e-6 {
                            // About to finish (its completion event is due
                            // this instant): let it.
                            continue;
                        }
                        let elapsed = now - r.started_at;
                        let truncated = elapsed > 1e-9;
                        if !truncated {
                            // Started exactly now — nothing executed yet, a
                            // plain revocation.
                            machine.revoke(c.reservation).map_err(|e| {
                                invariant_error(
                                    recorder,
                                    now,
                                    "preempt-running-zero-elapsed",
                                    format!("task {task}: {e}"),
                                )
                            })?;
                        } else {
                            let freed = machine.truncate_at(c.reservation, now).map_err(|e| {
                                invariant_error(
                                    recorder,
                                    now,
                                    "preempt-running-truncate",
                                    format!("task {task}: {e}"),
                                )
                            })?;
                            // The about-to-finish guard above ensures the
                            // cut lands strictly inside the reservation.
                            if !freed {
                                return Err(invariant_error(
                                    recorder,
                                    now,
                                    "preempt-running-truncate",
                                    format!("task {task}: truncation at the clock freed no tail"),
                                ));
                            }
                            segments[task].push(ScheduledTask {
                                task,
                                start: c.start,
                                duration: elapsed,
                                processors: ProcessorRange::new(c.first, c.count),
                            });
                            remaining[task] = (r.remaining_at_start
                                - workload::executed_fraction(
                                    &instance.task(task).profile,
                                    c.count,
                                    elapsed,
                                ))
                            .max(1e-12);
                        }
                        tasks.release(task, TaskState::Waiting);
                        pending.push(PendingTask {
                            id: task,
                            arrived_at: trace.arrivals()[task].at,
                            remaining: remaining[task],
                        });
                        if truncated {
                            reallotted += 1;
                        } else {
                            preempted += 1;
                        }
                        if let Some(rec) = recorder {
                            if truncated {
                                rec.add(names::TRUNCATIONS, 1);
                            } else {
                                rec.add(names::REVOCATIONS, 1);
                            }
                            if rec.enabled() {
                                rec.event(if truncated {
                                    TelemetryEvent::Truncate {
                                        time: now,
                                        task: task as u64,
                                        at: now,
                                    }
                                } else {
                                    TelemetryEvent::Revoke {
                                        time: now,
                                        task: task as u64,
                                    }
                                });
                            }
                        }
                    }
                }
                // Deterministic plan input regardless of revocation order.
                pending.sort_by_key(|p| p.id);
            }

            if !pending.is_empty() && policy.should_plan(trigger, &machine) {
                let probes_before = policy.probes_issued();
                let warm_start = policy.warm_start();
                if let Some(rec) = recorder {
                    if rec.enabled() {
                        rec.event(TelemetryEvent::SolveStart {
                            time: machine.now(),
                            solver: policy.solver_name(),
                            pending: pending.len(),
                            warm_start,
                        });
                    }
                }
                let solve_timer = recorder.map(|_| SpanTimer::start());
                let commitments = policy.plan(&instance, &pending, &mut machine)?;
                if let Some(rec) = recorder {
                    let wall_ns = solve_timer.as_ref().map_or(0, SpanTimer::elapsed_ns);
                    let probes = policy.probes_issued().saturating_sub(probes_before) as u64;
                    rec.sample(names::SOLVE_NS, wall_ns);
                    rec.sample(names::SOLVE_PROBES, probes);
                    rec.add(names::REPLANS, 1);
                    if rec.enabled() {
                        rec.event(TelemetryEvent::SolveEnd {
                            time: machine.now(),
                            solver: policy.solver_name(),
                            probes,
                            wall_ns,
                            scheduled: commitments.len(),
                            warm_start,
                        });
                    }
                }
                replans += 1;
                pending.clear();
                for c in commitments {
                    let arrived_at = trace.arrivals()[c.task].at;
                    if c.start < arrived_at - 1e-9 {
                        // A correct policy can never commit into a task's
                        // past; treat it as a hard model violation rather
                        // than a bad schedule.
                        if let Some(rec) = recorder {
                            rec.add(names::INVARIANT_VIOLATIONS, 1);
                            if rec.enabled() {
                                rec.event(TelemetryEvent::InvariantViolation {
                                    time: machine.now(),
                                    detail: format!(
                                        "task {} committed at {} before its arrival at {arrived_at}",
                                        c.task, c.start
                                    ),
                                });
                            }
                        }
                        return Err(Error::InvalidParameter {
                            name: "start-before-arrival",
                            value: c.start,
                        });
                    }
                    if !(c.start.is_finite() && c.duration.is_finite()) {
                        // A window query against a machine with too few
                        // online processors reports an infinite start; a
                        // policy that commits it anyway (instead of
                        // clamping its width by `max_contiguous_online`)
                        // violated the capacity model.
                        record_violation(
                            recorder,
                            machine.now(),
                            format!(
                                "task {} committed with non-finite placement [{}, {} + {})",
                                c.task, c.start, c.start, c.duration
                            ),
                        );
                        return Err(Error::InvalidParameter {
                            name: "non-finite-commitment",
                            value: c.start,
                        });
                    }
                    queue.push(c.start + c.duration, EventKind::Completion(c.task));
                    tasks.commit(c);
                    if let Some(ctx) = &faults {
                        // The plan may kill this (task, attempt) pair a
                        // fraction of the way through the segment; the
                        // event carries the generation so it goes stale if
                        // the commitment is revoked or re-planned first.
                        if let Some(fraction) = ctx.plan.failure_fraction(c.task, attempts[c.task])
                        {
                            queue.push(
                                c.start + fraction * c.duration,
                                EventKind::TaskFailure {
                                    task: c.task,
                                    generation: tasks.generation(c.task),
                                },
                            );
                        }
                    }
                    if let Some(rec) = recorder {
                        let backfilled = c.start + 1e-9 < latest_committed_start;
                        rec.add(names::PLACEMENTS, 1);
                        if backfilled {
                            rec.add(names::BACKFILLS, 1);
                        }
                        if rec.enabled() {
                            rec.event(TelemetryEvent::Place {
                                time: machine.now(),
                                task: c.task as u64,
                                start: c.start,
                                duration: c.duration,
                                processors: c.count,
                                backfilled,
                            });
                        }
                    }
                    latest_committed_start = latest_committed_start.max(c.start);
                }
                if trigger == Trigger::EpochTick {
                    // The tick was planned (in full or as an arrival-only
                    // delta): the surviving schedule is fresh again.
                    structural_dirty = false;
                }
            }

            // Keep the epoch clock running only while there is work left to
            // plan: a tick fires on the first grid point after `now`.
            if let Some(period) = policy.epoch() {
                if !pending.is_empty() && !tick_scheduled {
                    let now = machine.now();
                    let next = (now / period).floor() * period + period;
                    queue.push(next, EventKind::EpochTick);
                    tick_scheduled = true;
                }
            }
        }

        if let Some(rec) = recorder {
            if let Some(timer) = &decision_timer {
                rec.sample(names::DECISION_NS, timer.elapsed_ns());
            }
            rec.add(names::EVENTS, 1);
            let scanned = machine.timeline_stats().holes_scanned - holes_before.unwrap_or(0);
            if scanned > 0 {
                rec.sample(names::HOLE_SCAN, scanned);
            }
        }
    }

    // Defensive: a policy that never planned its last tasks would leave the
    // queue non-empty here (no such policy ships, but fail loudly if one
    // appears).
    if !pending.is_empty() {
        record_violation(
            recorder,
            machine.now(),
            format!(
                "{} task(s) still pending after the heap drained",
                pending.len()
            ),
        );
        return Err(Error::NoFeasibleSchedule);
    }

    let mut schedule = Schedule::new(instance.processors());
    let mut flow_sum = 0.0f64;
    let mut flow_max = 0.0f64;
    let mut busy_integral = 0.0f64;
    let mut executed = 0usize;
    for (task, state) in tasks.states.iter().enumerate() {
        let finished_at = match state {
            TaskState::Done { finished_at } => *finished_at,
            TaskState::Departed => continue,
            // Its lost segments are already in the wasted list.
            TaskState::Abandoned => continue,
            // A policy that commits only part of the pending set it was
            // handed (the `plan` contract requires all of it) leaves tasks
            // waiting forever; surface that as an error, not a panic.
            TaskState::Waiting => {
                record_violation(
                    recorder,
                    machine.now(),
                    format!("task {task} ended the run still waiting"),
                );
                return Err(Error::NoFeasibleSchedule);
            }
            // Every commitment has a completion event, and the loop only
            // ends once the heap drained.
            other => {
                return Err(invariant_error(
                    recorder,
                    machine.now(),
                    "end-of-run",
                    format!("task {task} ended the run as {other:?}"),
                ));
            }
        };
        // The task's executed segments, in chronological order (one unless
        // running re-allotment split it).
        for segment in &segments[task] {
            schedule.push(*segment);
            busy_integral += segment.duration * segment.processors.count as f64;
        }
        let flow = finished_at - trace.arrivals()[task].at;
        flow_sum += flow;
        flow_max = flow_max.max(flow);
        executed += 1;
    }

    let makespan = schedule.makespan();
    let wasted_integral: f64 = wasted
        .iter()
        .map(|segment| segment.duration * segment.processors.count as f64)
        .sum();
    // Online capacity over [0, makespan]: the full machine minus every
    // outage's overlap with the horizon (`m × makespan` exactly when the
    // run saw no crash).
    let mut capacity_integral = instance.processors() as f64 * makespan;
    for outage in &outage_log {
        let overlap = outage.end.min(makespan) - outage.start.min(makespan);
        if overlap > 0.0 {
            capacity_integral -= overlap;
        }
    }
    capacity_integral = capacity_integral.max(0.0);

    let result = OnlineResult {
        policy: policy.name(),
        makespan,
        mean_flow_time: flow_sum / executed.max(1) as f64,
        max_flow_time: flow_max,
        events,
        replans,
        departed,
        preempted,
        reallotted,
        busy_integral,
        failures,
        retries_exhausted,
        abandoned,
        crashes,
        repairs,
        wasted,
        wasted_integral,
        capacity_integral,
        outages: outage_log,
        schedule,
    };

    if let Some(rec) = recorder {
        if rec.enabled() {
            // Per-epoch utilisation: re-bin the executed schedule on the
            // policy's epoch grid (whole horizon for epoch-free policies).
            let period = policy.epoch().unwrap_or(result.makespan);
            for sample in crate::telemetry::utilization_timeline(&result.schedule, period) {
                rec.event(TelemetryEvent::EpochUtilization {
                    start: sample.start,
                    end: sample.end,
                    busy: sample.busy,
                });
            }
        }
        let stats = machine.timeline_stats();
        rec.add(names::TIMELINE_RESERVATIONS, stats.reservations);
        rec.add(names::TIMELINE_CANCELS, stats.cancels);
        rec.add(names::TIMELINE_TRUNCATIONS, stats.truncations);
        rec.add(names::TIMELINE_HOLES_SCANNED, stats.holes_scanned);
        if let Some(timer) = &run_timer {
            rec.add(names::RUN_NS, timer.elapsed_ns());
        }
    }

    Ok(result)
}

/// Record an engine invariant violation and build the typed error carrying
/// it — the panic-free engine idiom: observe, count, and surface a broken
/// internal invariant as [`Error::InvariantViolated`] instead of tearing
/// the process down.
fn invariant_error(
    recorder: Option<&dyn Recorder>,
    time: f64,
    context: &'static str,
    message: String,
) -> Error {
    record_violation(recorder, time, format!("{context}: {message}"));
    Error::InvariantViolated { context, message }
}

/// Record an engine invariant violation (the quantity CI gates to zero) on
/// the way out of an error path.
fn record_violation(recorder: Option<&dyn Recorder>, time: f64, detail: String) {
    if let Some(rec) = recorder {
        rec.add(names::INVARIANT_VIOLATIONS, 1);
        if rec.enabled() {
            rec.event(TelemetryEvent::InvariantViolation { time, detail });
        }
    }
}

/// The record of `schedule` as a run of `trace`: each task is released at
/// its arrival, may first start no later than its departure deadline, may
/// be absent only when it has one, and may run as several work-conserving
/// segments (mid-execution re-allotment).
pub fn trace_record<'a>(trace: &'a ArrivalTrace, schedule: &'a Schedule) -> RunRecord<'a> {
    let tasks = trace.arrivals().iter().map(|arrival| TaskWindow {
        profile: &arrival.task.profile,
        release: arrival.at,
        latest_start: arrival.departs_at.unwrap_or(f64::INFINITY),
        may_be_absent: arrival.departs_at.is_some(),
    });
    RunRecord::new(trace.processors(), tasks.collect(), schedule).piecewise()
}

/// Validate an online schedule against its trace through
/// [`trace_record`]: the `Display` text of each violation (empty = valid).
pub fn validate_against_trace(trace: &ArrivalTrace, schedule: &Schedule) -> Vec<String> {
    check(&trace_record(trace, schedule))
        .iter()
        .map(ToString::to_string)
        .collect()
}

/// Offline-vs-online comparison for one run: the competitive-ratio surface
/// the benchmark suite tracks.
#[derive(Debug, Clone)]
pub struct CompetitiveReport {
    /// Makespan of the online run.
    pub online_makespan: f64,
    /// Makespan of the offline MRT scheduler on the same task set, all tasks
    /// released at time 0 (a clairvoyant √3-approximate baseline).
    pub offline_makespan: f64,
    /// Certified lower bound on the offline optimum (dual-search
    /// certificate); every online makespan is ≥ this value.
    pub certified_lower_bound: f64,
    /// Arrival time of the last task (no online schedule can beat it plus
    /// the task's best execution time).
    pub last_arrival: f64,
    /// `online_makespan / offline_makespan`, or `None` when every task
    /// departed before starting — an empty executed subset has no offline
    /// baseline, so there is no ratio to report (serialised as `null`, and
    /// excluded from benchmark gates).
    pub ratio_vs_offline: Option<f64>,
    /// `online_makespan / certified_lower_bound`, or `None` when the
    /// executed subset is empty (see
    /// [`CompetitiveReport::ratio_vs_offline`]).
    pub ratio_vs_lower_bound: Option<f64>,
}

/// Compare an online result against the offline MRT run on the same tasks.
///
/// When tasks departed during the run, the clairvoyant baseline is the
/// offline solve of the *executed* task set (the departed tasks consumed no
/// machine time online either), so the ratio compares like with like.  When
/// *every* task departed the executed subset is empty: dividing by its
/// offline makespan would produce `NaN`, so both ratios are `None` instead
/// and callers (JSON reports, CI gates) skip the scenario.
pub fn competitive_report(
    trace: &ArrivalTrace,
    result: &OnlineResult,
) -> Result<CompetitiveReport> {
    if result.schedule.is_empty() {
        return Ok(CompetitiveReport {
            online_makespan: 0.0,
            offline_makespan: 0.0,
            certified_lower_bound: 0.0,
            last_arrival: trace.last_arrival(),
            ratio_vs_offline: None,
            ratio_vs_lower_bound: None,
        });
    }
    // The executed task set: piecewise re-allotted tasks appear once per
    // segment in the schedule, so deduplicate by task id.
    let mut executed: Vec<usize> = result.schedule.entries().iter().map(|e| e.task).collect();
    executed.sort_unstable();
    executed.dedup();
    let instance = if executed.len() == trace.len() {
        trace.instance()?
    } else {
        // Sub-instance of the executed tasks.  The comparison needs only the
        // makespan and the certified bound, so the re-indexing is harmless.
        let tasks: Vec<MalleableTask> = executed
            .iter()
            .map(|&task| trace.arrivals()[task].task.clone())
            .collect();
        Instance::new(tasks, trace.processors())?
    };
    let offline = MrtSolver.solve(&SolveRequest::new(&instance))?;
    let offline_makespan = offline.makespan();
    let lb = offline.lower_bound;
    Ok(CompetitiveReport {
        online_makespan: result.makespan,
        offline_makespan,
        certified_lower_bound: lb,
        last_arrival: trace.last_arrival(),
        ratio_vs_offline: Some(result.makespan / offline_makespan),
        ratio_vs_lower_bound: Some(result.makespan / lb),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BatchUntilIdle, EpochReplan, GreedyList, PolicyKind};
    use malleable_core::validate::{Slice, Violation};
    use workload::{Arrival, ArrivalPattern, ArrivalTrace, TraceConfig, WorkloadConfig};

    fn sequential_trace(times: &[(f64, f64)], processors: usize) -> ArrivalTrace {
        let arrivals = times
            .iter()
            .map(|&(at, duration)| {
                Arrival::new(
                    at,
                    MalleableTask::new(SpeedupProfile::sequential(duration).unwrap()),
                )
            })
            .collect();
        ArrivalTrace::new(processors, arrivals).unwrap()
    }

    fn poisson_trace(tasks: usize, processors: usize, rate: f64, seed: u64) -> ArrivalTrace {
        ArrivalTrace::generate(&TraceConfig {
            workload: WorkloadConfig::mixed(tasks, processors, seed),
            pattern: ArrivalPattern::Poisson { rate },
        })
        .unwrap()
    }

    #[test]
    fn greedy_schedules_each_arrival_immediately() {
        // Two unit tasks on two processors arriving together: both start on
        // arrival, in parallel.
        let trace = sequential_trace(&[(1.0, 2.0), (1.0, 2.0)], 2);
        let result = run(&trace, &mut GreedyList::new()).unwrap();
        assert!((result.makespan - 3.0).abs() < 1e-9);
        assert!(validate_against_trace(&trace, &result.schedule).is_empty());
        assert_eq!(result.replans, 2);
        assert!((result.mean_flow_time - 2.0).abs() < 1e-9);
    }

    #[test]
    fn epoch_policy_batches_on_the_grid() {
        // Arrivals at 0.2 and 0.4; epoch period 1.0 → both planned at t=1.
        let trace = sequential_trace(&[(0.2, 1.0), (0.4, 1.0)], 2);
        let mut policy = EpochReplan::mrt(1.0).unwrap();
        let result = run(&trace, &mut policy).unwrap();
        assert_eq!(result.replans, 1);
        // Both run in parallel starting at the epoch boundary.
        assert!((result.makespan - 2.0).abs() < 1e-9);
        for entry in result.schedule.entries() {
            assert!(entry.start >= 1.0 - 1e-9);
        }
        assert!(validate_against_trace(&trace, &result.schedule).is_empty());
    }

    #[test]
    fn batch_policy_waits_for_the_machine_to_drain() {
        // Task A arrives at 0 (runs 4s); B and C arrive at 1 and must wait
        // until A completes, then run as one batch.
        let trace = sequential_trace(&[(0.0, 4.0), (1.0, 1.0), (1.0, 1.0)], 2);
        let mut policy = BatchUntilIdle::default();
        let result = run(&trace, &mut policy).unwrap();
        assert_eq!(result.replans, 2);
        let entries = result.schedule.entries();
        assert!((entries[0].start - 0.0).abs() < 1e-9);
        for entry in &entries[1..] {
            assert!((entry.start - 4.0).abs() < 1e-9, "batch starts when idle");
        }
        assert!((result.makespan - 5.0).abs() < 1e-9);
        assert!(validate_against_trace(&trace, &result.schedule).is_empty());
    }

    #[test]
    fn all_policies_produce_valid_schedules_on_random_traces() {
        let trace = poisson_trace(60, 8, 4.0, 17);
        let offline = MrtSolver
            .solve(&SolveRequest::new(&trace.instance().unwrap()))
            .unwrap();
        let registry = solver::default_registry();
        for kind in [
            PolicyKind::Greedy,
            PolicyKind::Epoch {
                period: 1.0,
                solver: registry.get("mrt").unwrap(),
            },
            PolicyKind::Epoch {
                period: 0.5,
                solver: registry.get("ludwig").unwrap(),
            },
            PolicyKind::Batch {
                solver: registry.get("list").unwrap(),
            },
        ] {
            let mut policy = kind.build().unwrap();
            let result = run(&trace, policy.as_mut()).unwrap();
            let violations = validate_against_trace(&trace, &result.schedule);
            assert!(violations.is_empty(), "{}: {violations:?}", result.policy);
            // No online schedule can beat the certified offline lower bound.
            assert!(
                result.makespan >= offline.lower_bound - 1e-9,
                "{} beat the offline lower bound",
                result.policy
            );
            assert_eq!(result.schedule.len(), trace.len());
        }
    }

    #[test]
    fn competitive_report_is_consistent() {
        let trace = poisson_trace(40, 8, 2.0, 3);
        let mut policy = EpochReplan::mrt(1.0).unwrap();
        let result = run(&trace, &mut policy).unwrap();
        let report = competitive_report(&trace, &result).unwrap();
        assert!(report.ratio_vs_lower_bound.unwrap() >= 1.0 - 1e-9);
        assert!(report.ratio_vs_offline.unwrap().is_finite());
        assert!(report.online_makespan >= report.certified_lower_bound - 1e-9);
        assert!(report.last_arrival > 0.0);
    }

    #[test]
    fn pending_tasks_depart_before_being_planned() {
        // The departing task leaves the queue before the first epoch tick and
        // is never scheduled; the other task runs normally.
        let trace = ArrivalTrace::new(
            1,
            vec![
                Arrival::new(
                    0.2,
                    MalleableTask::new(SpeedupProfile::sequential(1.0).unwrap()),
                )
                .departing_at(0.5),
                Arrival::new(
                    0.2,
                    MalleableTask::new(SpeedupProfile::sequential(2.0).unwrap()),
                ),
            ],
        )
        .unwrap();
        let mut policy = EpochReplan::mrt(1.0).unwrap();
        let result = run(&trace, &mut policy).unwrap();
        assert_eq!(result.departed, 1);
        assert_eq!(result.schedule.len(), 1);
        assert_eq!(result.schedule.entries()[0].task, 1);
        assert!((result.makespan - 3.0).abs() < 1e-9);
        assert!(validate_against_trace(&trace, &result.schedule).is_empty());
    }

    #[test]
    fn queued_commitments_are_revoked_on_departure() {
        // Greedy commits B behind the running A ([4, 6], queued); B departs
        // at t=3 before starting, freeing the machine for C at t=4.
        let trace = ArrivalTrace::new(
            1,
            vec![
                Arrival::new(
                    0.0,
                    MalleableTask::new(SpeedupProfile::sequential(4.0).unwrap()),
                ),
                Arrival::new(
                    1.0,
                    MalleableTask::new(SpeedupProfile::sequential(2.0).unwrap()),
                )
                .departing_at(3.0),
                Arrival::new(
                    3.5,
                    MalleableTask::new(SpeedupProfile::sequential(1.0).unwrap()),
                ),
            ],
        )
        .unwrap();
        let result = run(&trace, &mut GreedyList::new()).unwrap();
        assert_eq!(result.departed, 1);
        assert_eq!(result.schedule.len(), 2);
        assert!(
            (result.makespan - 5.0).abs() < 1e-9,
            "C reclaims B's revoked slot: got {}",
            result.makespan
        );
        assert!(validate_against_trace(&trace, &result.schedule).is_empty());
        // A started task is never interrupted by its departure deadline.
        let trace = ArrivalTrace::new(
            1,
            vec![Arrival::new(
                0.0,
                MalleableTask::new(SpeedupProfile::sequential(4.0).unwrap()),
            )
            .departing_at(2.0)],
        )
        .unwrap();
        let result = run(&trace, &mut GreedyList::new()).unwrap();
        assert_eq!(result.departed, 0);
        assert!((result.makespan - 4.0).abs() < 1e-9);
    }

    #[test]
    fn backfill_reuses_holes_the_frontier_engine_wastes() {
        // A [0,1) on p0, then the wide B takes both processors over [1,3)
        // leaving the hole [0,1) on p1; the final unit task C fits the hole
        // only when backfilling.
        let trace = ArrivalTrace::new(
            2,
            vec![
                Arrival::new(
                    0.0,
                    MalleableTask::new(SpeedupProfile::sequential(1.0).unwrap()),
                ),
                Arrival::new(
                    0.0,
                    MalleableTask::new(SpeedupProfile::new(vec![4.0, 2.0]).unwrap()),
                ),
                Arrival::new(
                    0.0,
                    MalleableTask::new(SpeedupProfile::sequential(1.0).unwrap()),
                ),
            ],
        )
        .unwrap();
        let frontier = run(&trace, &mut GreedyList::new()).unwrap();
        assert!(
            (frontier.makespan - 4.0).abs() < 1e-9,
            "{}",
            frontier.makespan
        );
        let backfill = run(&trace, &mut GreedyList::backfilling()).unwrap();
        assert!(
            (backfill.makespan - 3.0).abs() < 1e-9,
            "{}",
            backfill.makespan
        );
        for result in [&frontier, &backfill] {
            assert!(validate_against_trace(&trace, &result.schedule).is_empty());
        }
    }

    #[test]
    fn preemptive_replanning_corrects_queued_placements() {
        // The shipped scenario (see [`queued_reallotment_scenario`]): epoch 1
        // plans {A, B, C} — the sequential A and B dominate the guess
        // (ω ≥ 4), so the malleable C is allotted a single processor and
        // committed *queued* over [5, 9).  When the tiny E arrives, the
        // preemptive re-planner revokes the queued C and re-solves {C, E}
        // jointly — on that pending set the bound drops to ~2.25, C widens
        // to both processors ([5, 7)) and E rides behind it ([7, 7.5)),
        // beating the non-preemptive makespan of 9.
        let trace = queued_reallotment_scenario().expect("valid scenario");
        let run_with = |preempt: bool| {
            let mut policy = EpochReplan::mrt(1.0).unwrap().with_preempt_queued(preempt);
            run(&trace, &mut policy).unwrap()
        };
        let plain = run_with(false);
        let preemptive = run_with(true);
        assert_eq!(plain.preempted, 0);
        assert!(preemptive.preempted >= 1, "no commitment was preempted");
        assert!(
            preemptive.makespan < plain.makespan - 1e-9,
            "preemption did not help: {} vs {}",
            preemptive.makespan,
            plain.makespan
        );
        for result in [&plain, &preemptive] {
            assert!(validate_against_trace(&trace, &result.schedule).is_empty());
            assert_eq!(result.schedule.len(), trace.len());
        }
    }

    #[test]
    fn delta_planning_skips_revocations_on_arrival_only_epochs() {
        // Same scenario as above, but with structural delta-planning on: the
        // trace has no departures or faults, so *every* epoch is
        // arrival-only, the revocation sweep is skipped wholesale and the
        // run degrades to the non-preemptive outcome (makespan 9, nothing
        // preempted) while counting its delta plans.
        let trace = queued_reallotment_scenario().expect("valid scenario");
        let recorder = ::telemetry::CollectingRecorder::shared();
        let mut policy = EpochReplan::mrt(1.0)
            .unwrap()
            .with_preempt_queued(true)
            .with_delta_planning(true);
        assert!(policy.name().ends_with("+delta"), "{}", policy.name());
        let result = run_recorded(&trace, &mut policy, recorder.as_ref()).unwrap();
        assert_eq!(result.preempted, 0, "delta epochs must not revoke");
        assert!((result.makespan - 9.0).abs() < 1e-9, "{}", result.makespan);
        // Both planning ticks (the {A, B, C} epoch and the {E} epoch) were
        // arrival-only deltas.
        assert_eq!(recorder.counter(::telemetry::names::DELTA_PLANS), 2);
        assert_eq!(recorder.counter(::telemetry::names::REVOCATIONS), 0);
        assert!(validate_against_trace(&trace, &result.schedule).is_empty());
    }

    #[test]
    fn delta_planning_falls_back_to_full_resolve_after_a_departure() {
        // The queued-reallotment scenario plus a doomed task that arrives
        // between the two epochs (t = 1.1) and departs while queued
        // (t = 1.4).  The departure marks the plan structurally dirty, so
        // the {E} epoch at t = 2 falls back to the full preemptive
        // re-solve — revoking the queued C and recovering the preemptive
        // makespan of 7.5 — even though delta-planning is on.  Only the
        // first (clean) epoch counts as a delta plan.
        let mut arrivals = queued_reallotment_scenario()
            .expect("valid scenario")
            .arrivals()
            .to_vec();
        arrivals.push(
            Arrival::new(
                1.1,
                MalleableTask::new(SpeedupProfile::sequential(3.0).unwrap()),
            )
            .departing_at(1.4),
        );
        let trace = ArrivalTrace::new(2, arrivals).unwrap();
        let recorder = ::telemetry::CollectingRecorder::shared();
        let mut policy = EpochReplan::mrt(1.0)
            .unwrap()
            .with_preempt_queued(true)
            .with_delta_planning(true);
        let result = run_recorded(&trace, &mut policy, recorder.as_ref()).unwrap();
        assert_eq!(result.departed, 1);
        assert!(result.preempted >= 1, "the dirty epoch must re-solve fully");
        assert!((result.makespan - 7.5).abs() < 1e-9, "{}", result.makespan);
        assert_eq!(recorder.counter(::telemetry::names::DELTA_PLANS), 1);
        assert!(validate_against_trace(&trace, &result.schedule).is_empty());
    }

    #[test]
    fn running_reallotment_narrows_the_running_task() {
        // The shipped scenario (see [`running_reallotment_scenario`]): the
        // malleable A ([8, 4.5]) is planned alone at tick 1 and takes the
        // whole machine ([1, 5.5) at 2 processors).  The sequential B (6.0)
        // arrives at 1.5; with running tasks frozen it must queue behind A
        // (makespan 11.5).  The mid-execution re-allotter truncates A at
        // tick 2 (elapsed 1.0 of 4.5 → remaining 7/9), re-solves
        // {A' = [8, 4.5]·7/9, B} and runs them side by side at one
        // processor each: A' finishes at 2 + 8·7/9 ≈ 8.22.
        let trace = running_reallotment_scenario().expect("valid scenario");
        let run_with = |running: bool| {
            let mut policy = EpochReplan::mrt(1.0)
                .unwrap()
                .with_preempt_queued(true)
                .with_preempt_running(running);
            run(&trace, &mut policy).unwrap()
        };
        let frozen = run_with(false);
        let reallotted = run_with(true);
        assert_eq!(frozen.reallotted, 0);
        assert!((frozen.makespan - 11.5).abs() < 1e-9, "{}", frozen.makespan);
        assert!(reallotted.reallotted >= 1, "no running task was truncated");
        let expected = 2.0 + 8.0 * (7.0 / 9.0);
        assert!(
            (reallotted.makespan - expected).abs() < 1e-6,
            "re-allotment makespan {} (expected {expected})",
            reallotted.makespan
        );
        // Task A appears as two piecewise segments: [1, 2) at 2 processors
        // and [2, 8.22) at 1 processor; work is conserved.
        let a_segments: Vec<_> = reallotted
            .schedule
            .entries()
            .iter()
            .filter(|e| e.task == 0)
            .collect();
        assert_eq!(a_segments.len(), 2);
        assert_eq!(a_segments[0].processors.count, 2);
        assert_eq!(a_segments[1].processors.count, 1);
        for result in [&frozen, &reallotted] {
            assert_eq!(check(&trace_record(&trace, &result.schedule)), vec![]);
        }
    }

    #[test]
    fn reallotment_skips_ticks_without_fresh_work() {
        // A single task, nothing else ever arrives: ticks with an empty
        // pending set must leave the running task alone (re-solving it in
        // isolation could only replay the same tail).
        let trace = sequential_trace(&[(0.3, 4.0)], 1);
        let mut policy = EpochReplan::mrt(1.0)
            .unwrap()
            .with_preempt_queued(true)
            .with_preempt_running(true);
        let result = run(&trace, &mut policy).unwrap();
        assert_eq!(result.reallotted, 0);
        assert_eq!(result.schedule.len(), 1);
        assert!((result.makespan - 5.0).abs() < 1e-9);
    }

    #[test]
    fn completion_exactly_at_departure_counts_as_completed() {
        // Satellite bugfix pin: a task completing at t == departs_at is
        // completed, never departed — completions order before departures
        // at equal timestamps, exactly.
        let trace = ArrivalTrace::new(
            1,
            vec![Arrival::new(
                0.0,
                MalleableTask::new(SpeedupProfile::sequential(2.0).unwrap()),
            )
            .departing_at(2.0)],
        )
        .unwrap();
        let result = run(&trace, &mut GreedyList::new()).unwrap();
        assert_eq!(result.departed, 0, "the exact tie must complete");
        assert_eq!(result.schedule.len(), 1);
        assert!((result.makespan - 2.0).abs() < 1e-9);
        assert!(validate_against_trace(&trace, &result.schedule).is_empty());

        // Same tie through an epoch policy, where the deadline coincides
        // with an epoch tick as well: planned at t=1, runs [1, 2), departs
        // at 2 — completion still wins the tie (tick order is last).
        let trace = ArrivalTrace::new(
            1,
            vec![Arrival::new(
                0.5,
                MalleableTask::new(SpeedupProfile::sequential(1.0).unwrap()),
            )
            .departing_at(2.0)],
        )
        .unwrap();
        let mut policy = EpochReplan::mrt(1.0).unwrap();
        let result = run(&trace, &mut policy).unwrap();
        assert_eq!(result.departed, 0);
        assert_eq!(result.schedule.len(), 1);
        assert!((result.makespan - 2.0).abs() < 1e-9);

        // And the contrasting case: starting exactly at the deadline is
        // allowed (only strictly-later starts are revoked), so the task
        // runs rather than departing.
        let trace = ArrivalTrace::new(
            1,
            vec![
                Arrival::new(
                    0.0,
                    MalleableTask::new(SpeedupProfile::sequential(2.0).unwrap()),
                ),
                Arrival::new(
                    0.0,
                    MalleableTask::new(SpeedupProfile::sequential(1.0).unwrap()),
                )
                .departing_at(2.0),
            ],
        )
        .unwrap();
        let result = run(&trace, &mut GreedyList::new()).unwrap();
        assert_eq!(result.departed, 0, "a start at t == departs_at counts");
        assert_eq!(result.schedule.len(), 2);
        assert!((result.makespan - 3.0).abs() < 1e-9);
    }

    #[test]
    fn preempted_residuals_are_immune_to_departure() {
        // A task with a deadline *starts*, is then preempted back into the
        // pending set as a residual, and its departure fires while it waits:
        // started work is conserved, so the task must not depart.  Machine
        // with 1 processor: A starts at tick 1; B (tiny) arrives at 1.5
        // forcing a re-allotment at tick 2; A's departure at 2.5 hits the
        // waiting residual and must be ignored.
        let trace = ArrivalTrace::new(
            1,
            vec![
                Arrival::new(
                    0.5,
                    MalleableTask::new(SpeedupProfile::sequential(4.0).unwrap()),
                )
                .departing_at(2.5),
                Arrival::new(
                    1.5,
                    MalleableTask::new(SpeedupProfile::sequential(0.5).unwrap()),
                ),
            ],
        )
        .unwrap();
        let mut policy = EpochReplan::mrt(1.0)
            .unwrap()
            .with_preempt_queued(true)
            .with_preempt_running(true);
        let result = run(&trace, &mut policy).unwrap();
        assert_eq!(result.departed, 0, "started residuals never depart");
        // Both tasks executed; A's segments conserve its 4.0 of work.
        assert!(validate_against_trace(&trace, &result.schedule).is_empty());
    }

    #[test]
    fn all_departed_runs_report_gracefully() {
        // Nothing ever starts (the only tick is after every deadline): the
        // run succeeds with an empty schedule and the competitive report
        // degenerates to the identity instead of erroring.
        let trace = ArrivalTrace::new(
            1,
            vec![
                Arrival::new(
                    0.1,
                    MalleableTask::new(SpeedupProfile::sequential(1.0).unwrap()),
                )
                .departing_at(0.2),
                Arrival::new(
                    0.1,
                    MalleableTask::new(SpeedupProfile::sequential(1.0).unwrap()),
                )
                .departing_at(0.3),
            ],
        )
        .unwrap();
        let mut policy = EpochReplan::mrt(1.0).unwrap();
        let result = run(&trace, &mut policy).unwrap();
        assert_eq!(result.departed, 2);
        assert!(result.schedule.is_empty());
        assert_eq!(result.makespan, 0.0);
        let report = competitive_report(&trace, &result).unwrap();
        assert_eq!(report.ratio_vs_offline, None, "empty subset has no ratio");
        assert_eq!(report.ratio_vs_lower_bound, None);
    }

    #[test]
    fn partial_planning_policies_error_instead_of_panicking() {
        // A broken policy that commits only the first pending task: the
        // engine must refuse the run with an error, not crash.
        struct FirstOnly;
        impl OnlinePolicy for FirstOnly {
            fn name(&self) -> String {
                "first-only".into()
            }
            fn epoch(&self) -> Option<f64> {
                Some(1.0)
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
                let task = pending[0].id;
                let duration = instance.time(task, 1);
                let placement = machine.place_earliest(1, duration);
                Ok(vec![Commitment {
                    task,
                    start: placement.start,
                    duration,
                    first: placement.first,
                    count: 1,
                    reservation: placement.reservation,
                }])
            }
        }
        let trace = sequential_trace(&[(0.0, 1.0), (0.0, 1.0)], 2);
        assert!(run(&trace, &mut FirstOnly).is_err());
    }

    #[test]
    fn crash_conserves_executed_work_and_restarts_narrower() {
        // Hand-computed: the malleable task ([8, 4.5]) takes both processors
        // over [0, 4.5).  Processor 1 crashes at t=2: the head [0, 2) × 2 is
        // conserved (executed fraction 2/4.5 = 4/9, remaining 5/9) and the
        // residual restarts *narrower* on the surviving processor —
        // [2, 2 + 8·5/9) × 1 — for a makespan of 58/9.
        let trace = ArrivalTrace::new(
            2,
            vec![Arrival::new(
                0.0,
                MalleableTask::new(SpeedupProfile::new(vec![8.0, 4.5]).unwrap()),
            )],
        )
        .unwrap();
        let plan = FaultPlan::empty(2, 16.0).with_outage(1, 2.0, 10.0);
        let recorder = ::telemetry::CollectingRecorder::new();
        let result = run_with_faults(
            &trace,
            &mut GreedyList::new(),
            &plan,
            RetryPolicy::default(),
            Some(&recorder),
        )
        .unwrap();
        assert_eq!((result.crashes, result.repairs), (1, 1));
        assert_eq!(result.failures, 0);
        let expected = 2.0 + 8.0 * (5.0 / 9.0);
        assert!(
            (result.makespan - expected).abs() < 1e-9,
            "makespan {} (expected {expected})",
            result.makespan
        );
        let entries = result.schedule.entries();
        assert_eq!(entries.len(), 2, "conserved head + residual restart");
        assert_eq!(entries[0].processors.count, 2);
        assert!((entries[0].duration - 2.0).abs() < 1e-9);
        assert_eq!(entries[1].processors.count, 1, "residual restarts narrower");
        assert!((entries[1].start - 2.0).abs() < 1e-9);
        // Capacity integral: 2·(58/9) − (58/9 − 2) = 76/9, which is exactly
        // the busy integral — the scheduler never idled online capacity.
        assert!((result.capacity_integral - 76.0 / 9.0).abs() < 1e-9);
        assert!((result.time_weighted_utilization() - 1.0).abs() < 1e-9);
        assert!((result.nominal_utilization() - 76.0 / 116.0).abs() < 1e-9);
        assert_eq!(result.goodput_fraction(), 1.0, "crashes waste nothing");
        assert_eq!(check(&result.record(&trace)), vec![]);
        assert_eq!(recorder.counter(::telemetry::names::PROCESSOR_DOWNS), 1);
        assert_eq!(recorder.counter(::telemetry::names::PROCESSOR_UPS), 1);
        assert_eq!(recorder.invariant_violations(), 0);
    }

    /// The record of a fault run on a machine split into unit-speed slices
    /// of `counts` processors.
    fn classed(trace: &ArrivalTrace, result: &OnlineResult, counts: &[usize]) -> Vec<Violation> {
        let slices = counts.iter().map(|&count| Slice { count, speed: 1.0 });
        check(&result.record(trace).with_slices(slices.collect()))
    }

    #[test]
    fn classed_validator_accepts_a_fault_run_partitioned_by_class() {
        // Two sequential tasks on a [1, 1] class split; the outage is
        // confined to the second class's only processor, so its lost
        // capacity is charged to class 1 and the run still validates.
        let trace = sequential_trace(&[(0.0, 1.0), (0.0, 1.0)], 2);
        let plan = FaultPlan::empty(2, 16.0).with_outage(1, 0.5, 10.0);
        let result = run_with_faults(
            &trace,
            &mut GreedyList::new(),
            &plan,
            RetryPolicy::default(),
            None,
        )
        .unwrap();
        assert_eq!(classed(&trace, &result, &[1, 1]), vec![]);
        assert_eq!(
            classed(&trace, &result, &[2]),
            vec![],
            "the single-slice split is the plain fault record"
        );
        // Counts that do not partition the machine are rejected outright.
        let (schedule, machine) = (2, 3);
        let mismatch = Violation::MachineMismatch { schedule, machine };
        assert_eq!(classed(&trace, &result, &[1, 2]), vec![mismatch]);
    }

    #[test]
    fn classed_validator_flags_boundary_straddles_and_capacity_overruns() {
        // The two-processor malleable task occupies [0, 2) × 2: under a
        // [1, 1] split it straddles the class boundary at processor 1.
        let trace = ArrivalTrace::new(
            2,
            vec![Arrival::new(
                0.0,
                MalleableTask::new(SpeedupProfile::new(vec![8.0, 4.5]).unwrap()),
            )],
        )
        .unwrap();
        let plan = FaultPlan::empty(2, 16.0);
        let mut result = run_with_faults(
            &trace,
            &mut GreedyList::new(),
            &plan,
            RetryPolicy::default(),
            None,
        )
        .unwrap();
        assert_eq!(classed(&trace, &result, &[2]), vec![]);
        let found = classed(&trace, &result, &[1, 1]);
        let block = ProcessorRange::new(0, 2);
        let straddle = Violation::StraddlesSlices { task: 0, block };
        assert!(found.contains(&straddle), "{found:?}");
        // Shrinking the reported makespan leaves more busy integral than the
        // single class could have supplied — the capacity sweep catches it.
        result.makespan /= 2.0;
        let found = classed(&trace, &result, &[2]);
        let over = |v: &Violation| matches!(v, Violation::OverCapacity { slice: 0, .. });
        assert!(found.iter().any(over), "{found:?}");
    }

    #[test]
    fn task_failures_lose_the_segment_and_retry_with_backoff() {
        // Hand-computed: the sequential 4.0 task starts at 0 and is killed
        // halfway (t=2).  Unlike a crash the head [0, 2) is *lost*: it lands
        // in the wasted list, the retry fires after the 1.0 backoff at t=3,
        // and the full task re-runs over [3, 7).
        let trace = sequential_trace(&[(0.0, 4.0)], 1);
        let plan = FaultPlan::empty(1, 16.0).with_task_failure(0, 0, 0.5);
        let retry = RetryPolicy {
            max_attempts: 4,
            base_backoff: 1.0,
            multiplier: 2.0,
            max_backoff: 8.0,
        };
        let recorder = ::telemetry::CollectingRecorder::new();
        let result = run_with_faults(
            &trace,
            &mut GreedyList::new(),
            &plan,
            retry,
            Some(&recorder),
        )
        .unwrap();
        assert_eq!(result.failures, 1);
        assert_eq!(result.retries_exhausted, 0);
        assert!((result.makespan - 7.0).abs() < 1e-9, "{}", result.makespan);
        assert_eq!(result.schedule.len(), 1, "only the successful attempt");
        assert!((result.schedule.entries()[0].start - 3.0).abs() < 1e-9);
        assert_eq!(result.wasted.len(), 1);
        assert!((result.wasted[0].duration - 2.0).abs() < 1e-9);
        assert!((result.wasted_integral - 2.0).abs() < 1e-9);
        assert!((result.goodput_fraction() - 4.0 / 6.0).abs() < 1e-9);
        assert_eq!(check(&result.record(&trace)), vec![]);
        assert_eq!(recorder.counter(::telemetry::names::TASK_FAILURES), 1);
        assert_eq!(recorder.counter(::telemetry::names::RETRIES_SCHEDULED), 1);
        assert_eq!(recorder.invariant_violations(), 0);
    }

    #[test]
    fn exhausted_retries_abandon_the_task() {
        // Both attempts die halfway under a 2-attempt budget: the task is
        // abandoned, every segment it burned is wasted, and the run still
        // validates (abandoned tasks may be unscheduled).
        let trace = sequential_trace(&[(0.0, 2.0)], 1);
        let plan = FaultPlan::empty(1, 16.0)
            .with_task_failure(0, 0, 0.5)
            .with_task_failure(0, 1, 0.5);
        let retry = RetryPolicy {
            max_attempts: 2,
            ..RetryPolicy::default()
        };
        let result = run_with_faults(&trace, &mut GreedyList::new(), &plan, retry, None).unwrap();
        assert_eq!(result.failures, 2);
        assert_eq!(result.retries_exhausted, 1);
        assert_eq!(result.abandoned, vec![0]);
        assert!(result.schedule.is_empty());
        assert_eq!(result.wasted.len(), 2);
        assert_eq!(result.goodput_fraction(), 0.0);
        assert_eq!(check(&result.record(&trace)), vec![]);
    }

    #[test]
    fn quiet_fault_plans_reproduce_the_fault_free_run() {
        let trace = poisson_trace(40, 8, 3.0, 11);
        let baseline = run(&trace, &mut EpochReplan::mrt(1.0).unwrap()).unwrap();
        let plan = FaultPlan::empty(8, trace.last_arrival() + 100.0);
        assert!(plan.is_quiet());
        let faulted = run_with_faults(
            &trace,
            &mut EpochReplan::mrt(1.0).unwrap(),
            &plan,
            RetryPolicy::default(),
            None,
        )
        .unwrap();
        assert_eq!(faulted.makespan, baseline.makespan);
        assert_eq!(faulted.schedule.len(), baseline.schedule.len());
        assert_eq!(faulted.crashes + faulted.failures, 0);
        // Satellite pin: with nothing offline the capacity integral is
        // exactly m × makespan, so the corrected utilisation equals the
        // nominal one.
        assert!(
            (faulted.capacity_integral - 8.0 * faulted.makespan).abs() < 1e-9,
            "{} vs {}",
            faulted.capacity_integral,
            8.0 * faulted.makespan
        );
        assert!(
            (faulted.time_weighted_utilization() - faulted.nominal_utilization()).abs() < 1e-12
        );
        assert!(
            (baseline.time_weighted_utilization() - baseline.nominal_utilization()).abs() < 1e-12
        );
    }

    #[test]
    fn mid_backoff_departures_retire_the_task() {
        // The task fails at t=1, waits out its 4.0 backoff, and its deadline
        // (t=2) fires mid-backoff: it departs, and the queued retry arrival
        // goes stale instead of resurrecting it.
        let trace = ArrivalTrace::new(
            1,
            vec![Arrival::new(
                0.0,
                MalleableTask::new(SpeedupProfile::sequential(2.0).unwrap()),
            )
            .departing_at(2.0)],
        )
        .unwrap();
        let plan = FaultPlan::empty(1, 16.0).with_task_failure(0, 0, 0.5);
        let retry = RetryPolicy {
            max_attempts: 4,
            base_backoff: 4.0,
            multiplier: 2.0,
            max_backoff: 8.0,
        };
        let result = run_with_faults(&trace, &mut GreedyList::new(), &plan, retry, None).unwrap();
        assert_eq!(result.failures, 1);
        assert_eq!(result.departed, 1);
        assert!(result.schedule.is_empty());
        assert_eq!(result.wasted.len(), 1);
    }

    #[test]
    fn expired_deadlines_take_failed_tasks_instead_of_retrying() {
        // The task starts at t=0 (before its t=1 deadline, so the departure
        // event finds it protected by the running commitment), then fails at
        // t=2 losing all its work.  With nothing conserved and the deadline
        // already past, the failure retires the task instead of scheduling a
        // retry that could only start late.
        let trace = ArrivalTrace::new(
            1,
            vec![Arrival::new(
                0.0,
                MalleableTask::new(SpeedupProfile::sequential(4.0).unwrap()),
            )
            .departing_at(1.0)],
        )
        .unwrap();
        let plan = FaultPlan::empty(1, 16.0).with_task_failure(0, 0, 0.5);
        let result = run_with_faults(
            &trace,
            &mut GreedyList::new(),
            &plan,
            RetryPolicy::default(),
            None,
        )
        .unwrap();
        assert_eq!(result.failures, 1);
        assert_eq!(result.departed, 1);
        assert!(result.abandoned.is_empty());
        assert!(result.schedule.is_empty());
        // The lost attempt [0, 2) is the only processor time spent.
        assert_eq!(result.wasted.len(), 1);
        assert!((result.wasted_integral - 2.0).abs() < 1e-9);
        assert!(result.goodput_fraction().abs() < 1e-9);
        assert_eq!(check(&result.record(&trace)), vec![]);
    }

    #[test]
    fn ticks_do_not_leak_beyond_the_horizon() {
        // A single arrival: the epoch policy must fire exactly one tick and
        // terminate (no unbounded tick chain).
        let trace = sequential_trace(&[(0.3, 1.0)], 1);
        let mut policy = EpochReplan::mrt(0.25).unwrap();
        let result = run(&trace, &mut policy).unwrap();
        assert_eq!(result.replans, 1);
        // arrival + one tick + one completion
        assert_eq!(result.events, 3);
        assert!((result.makespan - 1.5).abs() < 1e-9);
    }

    /// A policy that commits every pending task at a scripted processor
    /// block and start, round by round, and logs what it was handed: the
    /// index scenarios below need exact placements, not a solver's choice.
    struct Scripted {
        preempt_queued: bool,
        /// Per planning round: `(task, first, count, start)`.
        rounds: Vec<Vec<(usize, usize, usize, f64)>>,
        /// Per planning round: the `(task, remaining)` pairs handed in.
        handed: Vec<Vec<(usize, f64)>>,
    }

    impl Scripted {
        fn new(preempt_queued: bool, rounds: Vec<Vec<(usize, usize, usize, f64)>>) -> Self {
            Scripted {
                preempt_queued,
                rounds,
                handed: Vec::new(),
            }
        }
    }

    impl OnlinePolicy for Scripted {
        fn name(&self) -> String {
            "scripted".into()
        }
        fn epoch(&self) -> Option<f64> {
            Some(1.0)
        }
        fn preempt_queued(&self) -> bool {
            self.preempt_queued
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
            let round = &self.rounds[self.handed.len()];
            self.handed
                .push(pending.iter().map(|p| (p.id, p.remaining)).collect());
            pending
                .iter()
                .map(|p| {
                    let &(task, first, count, start) =
                        round.iter().find(|placement| placement.0 == p.id).unwrap();
                    let duration = workload::residual_task(instance.task(task), p.remaining)?
                        .profile
                        .time(count);
                    let reservation = machine.commit_at(first, count, start, duration);
                    Ok(Commitment {
                        task,
                        start,
                        duration,
                        first,
                        count,
                        reservation,
                    })
                })
                .collect()
        }
    }

    /// Every schedule entry equals the expected `(task, start, duration,
    /// first, count)`, times within 1e-9.
    fn assert_segments(got: &Schedule, want: &[(usize, f64, f64, usize, usize)]) {
        let got = got.entries();
        assert_eq!(got.len(), want.len(), "{got:?}");
        for (g, &(task, start, duration, first, count)) in got.iter().zip(want) {
            assert!(
                g.task == task
                    && (g.start - start).abs() < 1e-9
                    && (g.duration - duration).abs() < 1e-9
                    && (g.processors.first, g.processors.count) == (first, count),
                "segment {g:?}, expected {:?}",
                (task, start, duration, first, count)
            );
        }
    }

    #[test]
    fn task_table_promotes_a_recommitment_and_skips_its_stale_entry() {
        let mut timeline =
            packing::reservations::ReservationTimeline::new(2, packing::HolePolicy::Backfill);
        let commitment = |task, first, start, reservation| Commitment {
            task,
            start,
            duration: 1.0,
            first,
            count: 1,
            reservation,
        };
        let mut table = TaskTable::new(2);
        // Task 1 queued at 1 keeps the heap top live, so task 0's entries
        // stay buried until they are due.
        table.commit(commitment(1, 1, 1.0, timeline.reserve(1, 1, 1.0, 1.0)));
        // Task 0 queued at 5, revoked (its entry goes stale), re-committed
        // earlier at 2.
        table.commit(commitment(0, 0, 5.0, timeline.reserve(0, 1, 5.0, 1.0)));
        table.release(0, TaskState::Waiting);
        let again = timeline.reserve(0, 1, 2.0, 1.0);
        table.commit(commitment(0, 0, 2.0, again));
        assert_eq!(table.generation(0), 2);
        assert_eq!(table.queued.len(), 3, "the stale entry is still indexed");

        // At 2.5 both live commitments are due: promoted at their new
        // starts, with the remaining-work anchors captured.
        table.promote_due(2.5, &[0.5, 1.0]);
        let running = table.running();
        assert_eq!(running.len(), 2);
        assert_eq!(running[0].0, 0, "ascending task id");
        assert_eq!(running[0].1.commitment.reservation, again);
        assert!((running[0].1.started_at - 2.0).abs() < 1e-12);
        assert!((running[0].1.remaining_at_start - 0.5).abs() < 1e-12);
        assert_eq!(running[1].0, 1);
        assert_eq!(table.queued.len(), 1, "only the stale entry at 5 is left");

        // The stale entry surfaces at 5 and is skipped: task 0 keeps its
        // running re-commitment, nothing is promoted twice.
        table.promote_due(6.0, &[0.5, 1.0]);
        assert!(table.queued.is_empty());
        assert_eq!(table.running(), running);
        assert!(table.drain_queued().is_empty());
    }

    #[test]
    fn preempted_queued_work_is_promoted_at_its_earlier_restart() {
        // Hand-computed on 2 processors, epoch 1, preempt-queued, with a
        // scripted policy:
        //   tick 1 plans {0, 1, 2}: 0 on p0 [1, 3), 1 queued on p0 [5, 7),
        //     2 queued on p1 [4, 5);
        //   t=1.5: task 3 arrives, task 2 departs (its queued reservation
        //     is revoked; its queued-index entry goes stale);
        //   tick 2 promotes 0, revokes the queued 1 (skipping 2's stale
        //     entry) and re-plans {1, 3}: 1 on p1 [2, 4) — earlier than
        //     its old start 5 — and 3 queued on p1 [5, 6);
        //   t=2.5: task 4 arrives;
        //   tick 3 must promote 1 at its new start (were it still queued,
        //     its revocation would rewrite executed history and fail), so
        //     it revokes only 3 and re-plans {3, 4}: 3 on p0 [3, 4), 4 on
        //     p0 [4, 4.5).
        let task = |time| MalleableTask::new(SpeedupProfile::sequential(time).unwrap());
        let trace = ArrivalTrace::new(
            2,
            vec![
                Arrival::new(0.5, task(2.0)),
                Arrival::new(0.5, task(2.0)),
                Arrival::new(0.5, task(1.0)).departing_at(1.5),
                Arrival::new(1.5, task(1.0)),
                Arrival::new(2.5, task(0.5)),
            ],
        )
        .unwrap();
        let mut policy = Scripted::new(
            true,
            vec![
                vec![(0, 0, 1, 1.0), (1, 0, 1, 5.0), (2, 1, 1, 4.0)],
                vec![(1, 1, 1, 2.0), (3, 1, 1, 5.0)],
                vec![(3, 0, 1, 3.0), (4, 0, 1, 4.0)],
            ],
        );
        let recorder = ::telemetry::CollectingRecorder::new();
        let result = run_recorded(&trace, &mut policy, &recorder).unwrap();

        assert_eq!(result.replans, 3);
        assert_eq!(result.preempted, 2);
        assert_eq!(result.departed, 1);
        let handed: Vec<Vec<usize>> = policy
            .handed
            .iter()
            .map(|round| round.iter().map(|&(id, _)| id).collect())
            .collect();
        assert_eq!(handed, vec![vec![0, 1, 2], vec![1, 3], vec![3, 4]]);
        let revokes: Vec<(f64, u64)> = recorder
            .events()
            .into_iter()
            .filter_map(|event| match event {
                TelemetryEvent::Revoke { time, task } => Some((time, task)),
                _ => None,
            })
            .collect();
        assert_eq!(revokes, vec![(1.5, 2), (2.0, 1), (3.0, 3)]);
        assert_segments(
            &result.schedule,
            &[
                (0, 1.0, 2.0, 0, 1),
                (1, 2.0, 2.0, 1, 1),
                (3, 3.0, 1.0, 0, 1),
                (4, 4.0, 0.5, 0, 1),
            ],
        );
        assert!((result.makespan - 4.5).abs() < 1e-9);
        // Flows 2.5 + 3.5 + 2.5 + 2.0 over the four executed tasks.
        assert!((result.mean_flow_time - 2.625).abs() < 1e-9);
        assert!(validate_against_trace(&trace, &result.schedule).is_empty());
    }

    #[test]
    fn crash_displaces_a_queued_and_a_running_task_through_the_indexes() {
        // Hand-computed on 2 processors, epoch 1, scripted policy:
        //   tick 1 plans {0, 1}: the linear task 0 (work 4) on both
        //     processors [1, 3), the sequential task 1 queued on p1 [3, 4);
        //   t=1.5: task 2 arrives; tick 2 promotes 0 (now running) and
        //     plans 2 on p0 [3, 3.5);
        //   t=2.5: processor 1 crashes.  Task 0 is found in the running
        //     index: its head [1, 2.5) x 2 is conserved (1.5 of 2 time
        //     units, so a residual of 0.25 of its work remains); task 1 is
        //     found in the queued index and re-queued whole;
        //   tick 3 re-plans both on p0: the residual of 0 (0.25 x 4 = 1
        //     time unit alone) on [3.5, 4.5), then 1 on [4.5, 5.5).
        let sequential = |time| MalleableTask::new(SpeedupProfile::sequential(time).unwrap());
        let trace = ArrivalTrace::new(
            2,
            vec![
                Arrival::new(
                    0.5,
                    MalleableTask::new(SpeedupProfile::linear(4.0, 2).unwrap()),
                ),
                Arrival::new(0.5, sequential(1.0)),
                Arrival::new(1.5, sequential(0.5)),
            ],
        )
        .unwrap();
        let plan = FaultPlan::empty(2, 20.0).with_outage(1, 2.5, 10.0);
        let mut policy = Scripted::new(
            false,
            vec![
                vec![(0, 0, 2, 1.0), (1, 1, 1, 3.0)],
                vec![(2, 0, 1, 3.0)],
                vec![(0, 0, 1, 3.5), (1, 0, 1, 4.5)],
            ],
        );
        let recorder = ::telemetry::CollectingRecorder::new();
        let result = run_with_faults(
            &trace,
            &mut policy,
            &plan,
            RetryPolicy::default(),
            Some(&recorder),
        )
        .unwrap();

        assert_eq!((result.crashes, result.repairs), (1, 1));
        let displaced: Vec<usize> = recorder
            .events()
            .into_iter()
            .filter_map(|event| match event {
                TelemetryEvent::ProcessorDown { displaced, .. } => Some(displaced),
                _ => None,
            })
            .collect();
        assert_eq!(displaced, vec![2]);
        // Both displaced tasks re-queued, in displacement order, with
        // their residuals.
        let requeued = &policy.handed[2];
        assert_eq!(requeued.len(), 2);
        assert_eq!((requeued[0].0, requeued[1].0), (0, 1));
        assert!((requeued[0].1 - 0.25).abs() < 1e-12, "{requeued:?}");
        assert!((requeued[1].1 - 1.0).abs() < 1e-12, "{requeued:?}");
        assert_segments(
            &result.schedule,
            &[
                (0, 1.0, 1.5, 0, 2),
                (0, 3.5, 1.0, 0, 1),
                (1, 4.5, 1.0, 0, 1),
                (2, 3.0, 0.5, 0, 1),
            ],
        );
        assert!((result.makespan - 5.5).abs() < 1e-9);
        assert!(result.wasted.is_empty());
        assert_eq!(check(&result.record(&trace)), vec![]);
    }
}
