//! Heap allocations of a steady-state `EpochReplan::plan`, counted by this
//! test binary's own global allocator.
//!
//! An epoch of the online re-planner solves a handful of tasks (about four
//! on the benchmark's `online-poisson` trace, m = 64), so what a plan
//! allocates is a fixed cost of every decision.  The plan keeps its buffers
//! across epochs: the probe workspace, the exact search's candidate list and
//! the epoch sub-instance's task buffers.  What a steady-state plan still
//! allocates is the solver's outcome (the two-shelf construction and the
//! copy of the winning schedule) and the replayed commitments.

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

/// Mean allocations per `plan` call of a steady-state run of `policy`: the
/// 400-task mixed Poisson trace (m = 64, rate 4) is run once to size every
/// kept buffer, then again on the warm policy, whose plans are counted (the
/// engine is deterministic, so every epoch's pending set recurs).
fn steady_state_allocations_per_plan(policy: EpochReplan) -> f64 {
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
    let result = online::run(&trace, &mut counted).unwrap();
    assert!(online::validate_against_trace(&trace, &result.schedule).is_empty());
    let plans = counted.per_plan.len();
    assert!(plans > 50, "{plans} plans");
    counted.per_plan.iter().sum::<u64>() as f64 / plans as f64
}

// Both runs make 105 plans.  Per plan, the fresh-task run allocates 10.3
// times and the residual run 11.7: the two-shelf constructions and winner
// copies of about 3.5 probes, the outcome, and the replay's order and
// commitments.  The bounds leave no room for a sub-instance built in fresh
// vectors (about 9.5 more per fresh plan, 24.0 in all, and 47.2 per
// residual plan) or for search candidates collected into fresh vectors
// (5 more).

#[test]
fn fresh_task_plans_allocate_only_their_outcome() {
    let per_plan = steady_state_allocations_per_plan(EpochReplan::mrt(1.0).unwrap());
    assert!(per_plan <= 11.0, "{per_plan:.2} allocations per plan");
}

#[test]
fn residual_plans_allocate_only_their_outcome() {
    let policy = EpochReplan::mrt(1.0).unwrap().with_preempt_running(true);
    let per_plan = steady_state_allocations_per_plan(policy);
    assert!(per_plan <= 12.5, "{per_plan:.2} allocations per plan");
}
