//! Naive baselines: gang scheduling and sequential LPT.
//!
//! These two extremes bracket the behaviour of malleable schedulers: gang
//! scheduling is optimal when every task scales perfectly (it realises the
//! area bound) and arbitrarily bad for sequential tasks; sequential LPT is
//! within `4/3` of the optimum when no task can use more than one processor
//! and arbitrarily bad for highly parallel tasks.  The benchmark harness uses
//! them as sanity anchors for the comparison experiments.

use malleable_core::allotment::Allotment;
use malleable_core::list::{schedule_rigid, ListOrder};
use malleable_core::solver::{
    heuristic_outcome, SolveOutcome, SolveRequest, Solver, SolverCapabilities,
};
use malleable_core::{ProcessorRange, Result, Schedule, ScheduledTask};

/// Gang scheduling: every task occupies the whole machine; tasks run back to
/// back in decreasing order of their full-machine execution time.
#[derive(Debug, Clone, Copy, Default)]
pub struct GangSolver;

impl Solver for GangSolver {
    fn name(&self) -> &'static str {
        "gang"
    }

    fn capabilities(&self) -> SolverCapabilities {
        SolverCapabilities::heuristic()
    }

    fn solve(&self, request: &SolveRequest<'_>) -> Result<SolveOutcome> {
        heuristic_outcome(self.name(), request, || {
            let instance = request.instance;
            let m = instance.processors();
            let mut order: Vec<usize> = (0..instance.task_count()).collect();
            order.sort_by(|&a, &b| instance.time(b, m).total_cmp(&instance.time(a, m)));
            let mut schedule = Schedule::new(m);
            let mut clock = 0.0;
            for task in order {
                let duration = instance.time(task, m);
                schedule.push(ScheduledTask {
                    task,
                    start: clock,
                    duration,
                    processors: ProcessorRange::new(0, m),
                });
                clock += duration;
            }
            Ok(schedule)
        })
    }
}

/// Sequential LPT: every task runs on a single processor, scheduled greedily
/// in decreasing order of sequential time (Graham's LPT rule).
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialLptSolver;

impl Solver for SequentialLptSolver {
    fn name(&self) -> &'static str {
        "lpt"
    }

    fn capabilities(&self) -> SolverCapabilities {
        SolverCapabilities::heuristic()
    }

    fn solve(&self, request: &SolveRequest<'_>) -> Result<SolveOutcome> {
        heuristic_outcome(self.name(), request, || {
            let allotment = Allotment::sequential(request.instance);
            Ok(schedule_rigid(
                request.instance,
                &allotment,
                ListOrder::DecreasingAllottedTime,
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleable_core::bounds;
    use malleable_core::{Instance, SpeedupProfile};

    fn gang_schedule(instance: &Instance) -> Schedule {
        GangSolver
            .solve(&SolveRequest::new(instance))
            .unwrap()
            .schedule
    }

    fn sequential_lpt(instance: &Instance) -> Schedule {
        SequentialLptSolver
            .solve(&SolveRequest::new(instance))
            .unwrap()
            .schedule
    }

    fn instance() -> Instance {
        Instance::from_profiles(
            vec![
                SpeedupProfile::linear(4.0, 4).unwrap(),
                SpeedupProfile::sequential(1.5).unwrap(),
                SpeedupProfile::new(vec![2.0, 1.2, 1.0, 0.9]).unwrap(),
            ],
            4,
        )
        .unwrap()
    }

    #[test]
    fn gang_schedule_is_valid_and_serialises_tasks() {
        let inst = instance();
        let sched = gang_schedule(&inst);
        assert!(sched.validate(&inst).is_ok());
        // Makespan is the sum of the full-machine times.
        let expected: f64 = (0..3).map(|t| inst.time(t, 4)).sum();
        assert!((sched.makespan() - expected).abs() < 1e-9);
        // Tasks never overlap in time.
        let mut finishes: Vec<f64> = sched.entries().iter().map(|e| e.finish()).collect();
        finishes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(finishes.windows(2).all(|w| w[0] <= w[1] + 1e-12));
    }

    #[test]
    fn gang_is_optimal_for_perfectly_parallel_tasks() {
        let inst = Instance::from_profiles(
            vec![
                SpeedupProfile::linear(4.0, 4).unwrap(),
                SpeedupProfile::linear(2.0, 4).unwrap(),
            ],
            4,
        )
        .unwrap();
        let sched = gang_schedule(&inst);
        assert!((sched.makespan() - bounds::area_bound(&inst)).abs() < 1e-9);
    }

    #[test]
    fn sequential_lpt_is_valid_and_respects_graham_bound() {
        let inst = instance();
        let sched = sequential_lpt(&inst);
        assert!(sched.validate(&inst).is_ok());
        let total: f64 = (0..3).map(|t| inst.time(t, 1)).sum();
        let tmax = (0..3).map(|t| inst.time(t, 1)).fold(0.0, f64::max);
        assert!(sched.makespan() <= total / 4.0 + tmax + 1e-9);
    }

    #[test]
    fn baselines_bracket_each_other_on_skewed_instances() {
        // Perfectly parallel instance: gang wins.  Sequential instance: LPT wins.
        let parallel = Instance::from_profiles(
            (0..6)
                .map(|_| SpeedupProfile::linear(4.0, 8).unwrap())
                .collect(),
            8,
        )
        .unwrap();
        assert!(gang_schedule(&parallel).makespan() < sequential_lpt(&parallel).makespan());

        let sequential = Instance::from_profiles(
            (0..8)
                .map(|_| SpeedupProfile::sequential(1.0).unwrap())
                .collect(),
            8,
        )
        .unwrap();
        assert!(sequential_lpt(&sequential).makespan() < gang_schedule(&sequential).makespan());
    }
}
