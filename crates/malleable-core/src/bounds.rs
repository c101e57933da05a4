//! Lower bounds on the optimal makespan.
//!
//! The performance guarantees of the paper are stated against an optimal
//! non-preemptive schedule that need not be contiguous.  We therefore need
//! lower bounds that hold for that relaxed optimum; they are used both
//! by the dual-approximation binary search (as the initial search interval)
//! and by the experiment harness (to normalise measured makespans, since the
//! true optimum is unknown in general).
//!
//! Three families of bounds are implemented:
//!
//! * the **area bound** `Σ_j t_j(1) / m`: under the monotone assumption the
//!   work of a task is minimised on one processor, and the machine cannot
//!   process more than `m` units of work per unit of time;
//! * the **critical-task bound** `max_j t_j(m)`: no task can finish earlier
//!   than its execution time on the whole machine;
//! * the **tall-task bound**: tasks that need more than `m/2` processors to
//!   meet a deadline `d` can never run two at a time, so their times on the
//!   whole machine, `t_j(m)`, must add up to at most `d` (a tall task may run
//!   on more processors than its canonical count, so its canonical time is
//!   not a lower bound on its length).  This bound is evaluated by a small
//!   parametric feasibility test and strengthens the other two noticeably on
//!   instances dominated by wide tasks.

use crate::instance::Instance;

/// The simple area bound `Σ_j t_j(1) / m`.
pub fn area_bound(instance: &Instance) -> f64 {
    instance.total_sequential_work() / instance.processors() as f64
}

/// The critical-task bound `max_j t_j(m)`.
pub fn critical_task_bound(instance: &Instance) -> f64 {
    instance.max_min_time()
}

/// Necessary feasibility conditions for a target makespan `d`.
///
/// Returns `false` when a non-preemptive schedule of length at most `d`
/// (even a non-contiguous one) provably cannot exist:
///
/// 1. some task cannot meet `d` on any processor count;
/// 2. the total work of the canonical allotment for `d` exceeds `m·d`
///    (Property 2 of the paper);
/// 3. the tasks needing more than `m/2` processors have whole-machine times
///    `t_j(m)` summing to more than `d` (no two of them can overlap in any
///    schedule of length `≤ d`, because together they would need more than
///    `m` processors, and none runs faster than on all `m`).
///
/// It allocates nothing: the canonical counts are computed on the fly, one
/// comparison per task deciding condition 1 before any binary search runs.
pub fn may_be_feasible(instance: &Instance, deadline: f64) -> bool {
    instance
        .iter()
        .all(|(_, task)| task.profile.can_meet(deadline))
        && canonical_conditions_hold(
            instance,
            instance
                .iter()
                .map(|(_, task)| task.profile.canonical_processors_within(deadline)),
            deadline,
        )
}

/// Conditions 2 and 3 of [`may_be_feasible`] (and its positive-deadline
/// guard) on `counts`, the canonical counts of tasks `0, 1, …` for
/// `deadline`.  The MRT oracle passes the allotment its probe recomputed in
/// place instead of computing a second one; this is the one place the sums
/// are formed, so both callers get the same bits.
pub(crate) fn canonical_conditions_hold(
    instance: &Instance,
    counts: impl IntoIterator<Item = usize>,
    deadline: f64,
) -> bool {
    if deadline <= 0.0 {
        return false;
    }
    let m = instance.processors();
    let mut total_work = 0.0;
    let mut tall_time = 0.0;
    for (id, q) in counts.into_iter().enumerate() {
        total_work += instance.work(id, q);
        if 2 * q > m {
            tall_time += instance.time(id, m);
        }
    }
    total_work <= m as f64 * deadline + 1e-9 && tall_time <= deadline + 1e-9
}

/// The strongest lower bound available from the necessary conditions:
/// the largest `d` (up to a relative tolerance) for which [`may_be_feasible`]
/// still fails, searched between the trivial bounds.
pub fn lower_bound(instance: &Instance) -> f64 {
    let trivial = area_bound(instance).max(critical_task_bound(instance));
    // The tall-task condition can push the bound above `trivial`; search for
    // the threshold where feasibility starts holding.
    let mut lo = trivial;
    let mut hi = trivial.max(1e-12);
    // Find an upper end where the conditions hold (doubling search).
    let mut guard = 0;
    while !may_be_feasible(instance, hi) && guard < 128 {
        hi *= 2.0;
        guard += 1;
    }
    if guard == 0 {
        // Already feasible at the trivial bound: it is the best we can certify.
        return trivial;
    }
    for _ in 0..64 {
        let mid = 0.5 * (lo + hi);
        if may_be_feasible(instance, mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi.max(trivial)
}

/// A guaranteed-feasible upper bound on the optimal makespan: the makespan of
/// executing every task sequentially (one processor each) one after another
/// is always achievable, but we use the tighter "every task alone on the full
/// machine" + "all sequential via area" combination:
/// `min( Σ_j t_j(m), m·area_bound )` is feasible; we return the smaller of the
/// two trivial feasible schedules' makespans.
pub fn upper_bound(instance: &Instance) -> f64 {
    let gang: f64 = (0..instance.task_count())
        .map(|t| instance.time(t, instance.processors()))
        .sum();
    let serial: f64 = instance.total_sequential_work();
    gang.min(serial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::SpeedupProfile;

    fn instance() -> Instance {
        Instance::from_profiles(
            vec![
                SpeedupProfile::new(vec![4.0, 2.2, 1.6, 1.4]).unwrap(),
                SpeedupProfile::new(vec![3.0, 1.8]).unwrap(),
                SpeedupProfile::sequential(0.7).unwrap(),
            ],
            4,
        )
        .unwrap()
    }

    #[test]
    fn area_and_critical_bounds() {
        let inst = instance();
        assert!((area_bound(&inst) - 7.7 / 4.0).abs() < 1e-12);
        assert!((critical_task_bound(&inst) - 1.8).abs() < 1e-12);
    }

    #[test]
    fn feasibility_conditions_reject_small_deadlines() {
        let inst = instance();
        assert!(!may_be_feasible(&inst, 0.0));
        assert!(!may_be_feasible(&inst, 1.0)); // task 0 cannot finish in 1.0
        assert!(may_be_feasible(&inst, 10.0));
    }

    #[test]
    fn tall_task_condition_strengthens_bound() {
        // Two tasks that each need 3 of 4 processors to meet deadline 1.0:
        // they cannot overlap, so OPT >= 2 even though area/critical say ~1.5.
        let profile = SpeedupProfile::new(vec![3.0, 1.5, 1.0, 0.9]).unwrap();
        let inst = Instance::from_profiles(vec![profile.clone(), profile], 4).unwrap();
        assert!(!may_be_feasible(&inst, 1.0));
        let lb = lower_bound(&inst);
        assert!(lb > 1.2, "tall-task bound should exceed 1.2, got {lb}");
    }

    #[test]
    fn feasibility_without_an_allotment_matches_the_allotted_check() {
        // The on-the-fly counts give the answer of the allocated canonical
        // allotment at every breakpoint, just below it and between.
        let profile = SpeedupProfile::new(vec![3.0, 1.5, 1.0, 0.9]).unwrap();
        let tall = Instance::from_profiles(vec![profile.clone(), profile], 4).unwrap();
        for inst in [instance(), tall] {
            let points = crate::breakpoints::collect(&inst);
            for &b in &points {
                for deadline in [0.0, b * (1.0 - 1e-9), b, b * 1.01, 2.0 * b] {
                    let allotted = inst
                        .canonical_allotment(deadline)
                        .is_ok_and(|counts| canonical_conditions_hold(&inst, counts, deadline));
                    assert_eq!(may_be_feasible(&inst, deadline), allotted, "d = {deadline}");
                }
            }
        }
    }

    #[test]
    fn lower_bound_never_below_trivial_bounds() {
        let inst = instance();
        let lb = lower_bound(&inst);
        assert!(lb >= area_bound(&inst) - 1e-9);
        assert!(lb >= critical_task_bound(&inst) - 1e-9);
    }

    #[test]
    fn upper_bound_at_least_lower_bound() {
        let inst = instance();
        assert!(upper_bound(&inst) >= lower_bound(&inst) - 1e-9);
    }

    #[test]
    fn single_sequential_task_bounds_are_tight() {
        let inst =
            Instance::from_profiles(vec![SpeedupProfile::sequential(2.0).unwrap()], 2).unwrap();
        assert!((lower_bound(&inst) - 2.0).abs() < 1e-9);
        assert!((upper_bound(&inst) - 2.0).abs() < 1e-9);
    }
}
