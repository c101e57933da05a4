//! List scheduling of rigid (fixed-allotment) tasks.
//!
//! Both list algorithms of §3 of the paper share the same scheduling engine:
//! once an allotment is chosen, tasks are considered in a priority order and
//! each is started as early as possible on a block of contiguous processors,
//! with the paper's tie-breaking convention (leftmost block for tasks starting
//! at time 0, rightmost otherwise).  Sequential tasks scheduled this way
//! degenerate to the classical LPT rule of Graham when ordered by decreasing
//! duration.
//!
//! The engine is a thin layer over [`packing::ProcessorTimeline`]; it produces
//! a [`Schedule`] and never fails (any allotment with `p_j ≤ m` is
//! schedulable, possibly with a long makespan).
//!
//! Cost model: each placement is one window search of the timeline, `O(m)`
//! with no allocation — a single scan of the frontier for a one-processor
//! task — so a schedule of `n` tasks costs `O(n·m)` plus the order.  The
//! only allocations of a list schedule are the returned [`Schedule`] and,
//! unless a reused timeline is passed in, the timeline itself.

use crate::allotment::Allotment;
use crate::instance::Instance;
use crate::schedule::{ProcessorRange, Schedule, ScheduledTask};
use crate::task::TaskId;
use packing::timeline::{ProcessorTimeline, TieBreak};

/// Priority orders used by the algorithms of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListOrder {
    /// Keep the tasks in instance order (mostly useful for tests).
    AsGiven,
    /// Decreasing execution time under the chosen allotment — the order used
    /// by the *canonical list algorithm* (§3.2).
    DecreasingAllottedTime,
    /// Decreasing sequential execution time `t_j(1)` — the order used by the
    /// *malleable list algorithm* (§3.1).
    DecreasingSequentialTime,
    /// Parallel tasks (allotted ≥ 2 processors) first by decreasing allotted
    /// time, then sequential tasks by decreasing duration; this realises the
    /// "parallel tasks at time 0, then LPT" structure of §3.1.
    ParallelFirst,
}

/// Compute the task order for a given policy.
///
/// Every sort is stable over increasing ids, so equal keys keep id order.
/// Times compare with `total_cmp`, which orders finite positive times — all
/// a speed-up profile holds — exactly as `<` does.
pub fn compute_order(instance: &Instance, allotment: &Allotment, order: ListOrder) -> Vec<TaskId> {
    let mut ids: Vec<TaskId> = (0..instance.task_count()).collect();
    match order {
        ListOrder::AsGiven => {}
        ListOrder::DecreasingAllottedTime => {
            ids.sort_by(|&a, &b| {
                allotment
                    .time(instance, b)
                    .total_cmp(&allotment.time(instance, a))
            });
        }
        ListOrder::DecreasingSequentialTime => {
            ids.sort_by(|&a, &b| instance.time(b, 1).total_cmp(&instance.time(a, 1)));
        }
        ListOrder::ParallelFirst => {
            ids.sort_by(|&a, &b| {
                let pa = allotment.processors(a) > 1;
                let pb = allotment.processors(b) > 1;
                pb.cmp(&pa).then(
                    allotment
                        .time(instance, b)
                        .total_cmp(&allotment.time(instance, a)),
                )
            });
        }
    }
    ids
}

/// Schedule the rigid tasks defined by `allotment` in the given explicit
/// order, starting each task as early as possible on contiguous processors.
pub fn schedule_rigid_in_order(
    instance: &Instance,
    allotment: &Allotment,
    order: &[TaskId],
) -> Schedule {
    schedule_rigid_on(&mut None, instance, allotment, order)
}

/// [`schedule_rigid_in_order`] on a reusable timeline: `timeline` is reset
/// to the instance's machine, or created on first use, so repeated
/// schedules allocate only the schedules they return.
pub(crate) fn schedule_rigid_on(
    timeline: &mut Option<ProcessorTimeline>,
    instance: &Instance,
    allotment: &Allotment,
    order: &[TaskId],
) -> Schedule {
    let m = instance.processors();
    let timeline = timeline.get_or_insert_with(|| ProcessorTimeline::new(m));
    timeline.reset(m);
    let mut schedule = Schedule::new(m);
    for &task in order {
        let p = allotment.processors(task).min(m);
        let duration = instance.time(task, p);
        let window = timeline.place(p, duration, TieBreak::PaperConvention);
        schedule.push(ScheduledTask {
            task,
            start: window.start,
            duration,
            processors: ProcessorRange::new(window.first, p),
        });
    }
    schedule
}

/// Schedule the rigid tasks defined by `allotment` with a priority policy.
pub fn schedule_rigid(instance: &Instance, allotment: &Allotment, order: ListOrder) -> Schedule {
    let ids = compute_order(instance, allotment, order);
    schedule_rigid_in_order(instance, allotment, &ids)
}

/// Graham's LPT bound for sequential tasks: `W/m + (1 − 1/m)·t_max` is an
/// upper bound on the makespan produced by LPT, and the classical guarantee
/// against the optimum is `4/3 − 1/(3m)`.  Exposed for tests and benches.
pub fn lpt_upper_bound(total_work: f64, max_duration: f64, m: usize) -> f64 {
    total_work / m as f64 + (1.0 - 1.0 / m as f64) * max_duration
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::SpeedupProfile;
    use proptest::prelude::*;

    fn sequential_instance(durations: &[f64], m: usize) -> Instance {
        Instance::from_profiles(
            durations
                .iter()
                .map(|&d| SpeedupProfile::sequential(d).unwrap())
                .collect(),
            m,
        )
        .unwrap()
    }

    #[test]
    fn lpt_on_sequential_tasks_matches_known_result() {
        // Graham's classic LPT worst case: durations 5,5,4,4,3,3,3 on 3
        // processors.  LPT yields 11 while the optimum is 9 (ratio 11/9,
        // matching the 4/3 - 1/(3m) bound).
        let inst = sequential_instance(&[5.0, 5.0, 4.0, 4.0, 3.0, 3.0, 3.0], 3);
        let allot = Allotment::sequential(&inst);
        let sched = schedule_rigid(&inst, &allot, ListOrder::DecreasingAllottedTime);
        assert!(sched.validate(&inst).is_ok());
        assert!((sched.makespan() - 11.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_first_places_wide_tasks_at_time_zero() {
        let inst = Instance::from_profiles(
            vec![
                SpeedupProfile::new(vec![3.0, 1.6]).unwrap(),
                SpeedupProfile::sequential(1.0).unwrap(),
                SpeedupProfile::new(vec![2.4, 1.3]).unwrap(),
            ],
            4,
        )
        .unwrap();
        let allot = Allotment::new(&inst, vec![2, 1, 2]).unwrap();
        let sched = schedule_rigid(&inst, &allot, ListOrder::ParallelFirst);
        assert!(sched.validate(&inst).is_ok());
        for &t in &[0usize, 2usize] {
            assert_eq!(sched.entry_for(t).unwrap().start, 0.0);
        }
    }

    #[test]
    fn order_policies_differ_when_profiles_do() {
        let inst = Instance::from_profiles(
            vec![
                // Long sequentially, short when parallel.
                SpeedupProfile::new(vec![4.0, 2.0, 1.4, 1.1]).unwrap(),
                // Short sequentially.
                SpeedupProfile::sequential(1.2).unwrap(),
            ],
            4,
        )
        .unwrap();
        let allot = Allotment::new(&inst, vec![4, 1]).unwrap();
        let by_allotted = compute_order(&inst, &allot, ListOrder::DecreasingAllottedTime);
        let by_sequential = compute_order(&inst, &allot, ListOrder::DecreasingSequentialTime);
        assert_eq!(by_allotted, vec![1, 0]);
        assert_eq!(by_sequential, vec![0, 1]);
    }

    #[test]
    fn schedule_covers_every_task_exactly_once() {
        let inst = sequential_instance(&[1.0, 2.0, 3.0], 2);
        let allot = Allotment::sequential(&inst);
        let sched = schedule_rigid(&inst, &allot, ListOrder::AsGiven);
        assert_eq!(sched.len(), 3);
        assert!(sched.validate(&inst).is_ok());
    }

    #[test]
    fn graham_bound_formula() {
        assert!((lpt_upper_bound(10.0, 4.0, 2) - (5.0 + 2.0)).abs() < 1e-12);
    }

    proptest! {
        /// List schedules of sequential tasks respect Graham's bound
        /// W/m + (1-1/m)·t_max, and are always valid.
        #[test]
        fn lpt_respects_graham_bound(
            durations in prop::collection::vec(0.1f64..5.0, 1..40),
            m in 1usize..8,
        ) {
            let inst = sequential_instance(&durations, m);
            let allot = Allotment::sequential(&inst);
            let sched = schedule_rigid(&inst, &allot, ListOrder::DecreasingAllottedTime);
            prop_assert!(sched.validate(&inst).is_ok());
            let total: f64 = durations.iter().sum();
            let tmax = durations.iter().cloned().fold(0.0, f64::max);
            prop_assert!(sched.makespan() <= lpt_upper_bound(total, tmax, m) + 1e-9);
        }

        /// Rigid list schedules with random allotments are valid and their
        /// makespan is at least the trivial lower bound of the allotment.
        #[test]
        fn rigid_schedules_are_valid(
            seeds in prop::collection::vec((0.2f64..4.0, 1usize..4), 1..25),
            m in 4usize..9,
        ) {
            let profiles: Vec<SpeedupProfile> = seeds
                .iter()
                .map(|&(w, maxp)| SpeedupProfile::linear(w, maxp.min(m)).unwrap())
                .collect();
            let inst = Instance::from_profiles(profiles, m).unwrap();
            let alloc: Vec<usize> = seeds.iter().map(|&(_, p)| p.min(m)).collect();
            let allot = Allotment::new(&inst, alloc).unwrap();
            for order in [
                ListOrder::AsGiven,
                ListOrder::DecreasingAllottedTime,
                ListOrder::DecreasingSequentialTime,
                ListOrder::ParallelFirst,
            ] {
                let sched = schedule_rigid(&inst, &allot, order);
                prop_assert!(sched.validate(&inst).is_ok());
                prop_assert!(sched.makespan() >= allot.makespan_lower_bound(&inst) - 1e-9);
            }
        }
    }
}
