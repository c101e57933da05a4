//! Heap allocations of a steady-state `EpochReplan::plan`, and of the online
//! run around it, counted by this test binary's own global allocator.
//!
//! An epoch of the online re-planner solves a handful of tasks (about four
//! on the benchmark's `online-poisson` trace, m = 64), so what a plan
//! allocates is a fixed cost of every decision.  The plan keeps its buffers
//! across epochs: the probe workspace (with the two-shelf construction's
//! schedule), the exact search's candidate list, the epoch sub-instance's
//! task buffers and the replay order.  What a steady-state plan still
//! allocates is the solver's outcome (the copies of winning schedules and
//! the knapsack selections) and the replayed commitments.  The run borrows
//! the trace's tasks, so what it allocates outside `plan` is its own
//! per-task state.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use malleable_core::prelude::*;
use online::machine::MachineState;
use online::policy::{Commitment, EpochReplan, OnlinePolicy, PendingTask, Trigger};
use telemetry::SharedRecorder;
use workload::{ArrivalPattern, ArrivalTrace, TraceConfig, WorkloadConfig};

thread_local! {
    /// Allocations made by this thread so far.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and reallocation per
/// thread, so tests running side by side do not see each other's.
struct CountingAllocator;

fn count_one() {
    // A thread being torn down has no counter left; its allocations are
    // not a plan's.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// An epoch policy that records the allocations of each `plan` call and
/// forwards everything else unchanged.
struct CountedPlans {
    inner: EpochReplan,
    per_plan: Vec<u64>,
}

impl OnlinePolicy for CountedPlans {
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
        let before = allocations();
        let commitments = self.inner.plan(instance, pending, machine);
        let made = allocations() - before;
        self.per_plan.push(made);
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

/// The allocations of one steady-state run: those of its `plan` calls and
/// those of the whole run.
struct SteadyRun {
    tasks: usize,
    plans: usize,
    in_plans: u64,
    total: u64,
}

impl SteadyRun {
    /// Mean allocations per `plan` call.
    fn per_plan(&self) -> f64 {
        self.in_plans as f64 / self.plans as f64
    }

    /// Allocations made outside `plan`, per task of the trace: the engine's
    /// own, since the trace is built before the run.
    fn outside_plans_per_task(&self) -> f64 {
        (self.total - self.in_plans) as f64 / self.tasks as f64
    }
}

/// A steady-state run of `policy`: the 400-task mixed Poisson trace (m = 64,
/// rate 4) is run once to size every kept buffer, then again on the warm
/// policy, whose run and plans are counted (the engine is deterministic, so
/// every epoch's pending set recurs).
fn steady_state_run(policy: EpochReplan) -> SteadyRun {
    let trace = ArrivalTrace::generate(&TraceConfig {
        workload: WorkloadConfig::mixed(400, 64, 0),
        pattern: ArrivalPattern::Poisson { rate: 4.0 },
    })
    .unwrap();
    let mut counted = CountedPlans {
        inner: policy,
        per_plan: Vec::new(),
    };
    online::run(&trace, &mut counted).unwrap();
    counted.per_plan.clear();
    let before = allocations();
    let result = online::run(&trace, &mut counted).unwrap();
    let total = allocations() - before;
    assert!(online::validate_against_trace(&trace, &result.schedule).is_empty());
    let plans = counted.per_plan.len();
    assert!(plans > 50, "{plans} plans");
    SteadyRun {
        tasks: trace.len(),
        plans,
        in_plans: counted.per_plan.iter().sum(),
        total,
    }
}

// Both runs make 105 plans.  Per plan, the fresh-task run allocates 6.2
// times and the residual run 4.3: the winner copies of about 3.5 probes,
// the outcome, and the replay's commitments.  The bounds leave no room for
// two-shelf schedules built in fresh vectors (3.1 more per fresh plan, 6.4
// more per residual plan), for a sub-instance built in fresh vectors
// (about 9.5 more per fresh plan), for search candidates collected into
// fresh vectors (5 more) or for a replay order collected into a fresh
// vector (1 more).

#[test]
fn fresh_task_plans_allocate_only_their_outcome() {
    let per_plan = steady_state_run(EpochReplan::mrt(1.0).unwrap()).per_plan();
    assert!(per_plan <= 7.0, "{per_plan:.2} allocations per plan");
}

#[test]
fn residual_plans_allocate_only_their_outcome() {
    let policy = EpochReplan::mrt(1.0).unwrap().with_preempt_running(true);
    let per_plan = steady_state_run(policy).per_plan();
    assert!(per_plan <= 5.0, "{per_plan:.2} allocations per plan");
}

// Outside `plan`, the run allocates 1.18 times per task: each task's
// segment list, and the growth of the engine's queues and of the schedule.
// A run that copied the trace's tasks into an instance of its own would
// add two per task, the profile and the name (3.18 in all).

#[test]
fn a_run_borrows_the_traces_tasks() {
    let per_task = steady_state_run(EpochReplan::mrt(1.0).unwrap()).outside_plans_per_task();
    assert!(
        per_task < 1.5,
        "{per_task:.2} allocations per task outside plan"
    );
}
