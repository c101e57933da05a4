//! Task → class assignment strategies.
//!
//! The classed problem factors into two decisions: *which class* runs each
//! task (this module) and *how many processors* within the class it gets
//! (the existing identical-machines allotment search, run per class pool).
//! Three strategies are provided:
//!
//! * [`lp_assign`] — the flagship, in the dual-approximation LP-rounding
//!   style of Jansen & Land's unrelated-machine malleable scheduling
//!   (arXiv 1903.11016): binary-search a target makespan `T`; for each
//!   guess, every task gets a *canonical* (minimal-work) allotment per
//!   class meeting `T`, and tasks are packed into class capacity areas
//!   scarcest-first, fractional LP reasoning replaced by a deterministic
//!   greedy rounding.  The smallest feasible guess's assignment wins.
//! * [`greedy_density_assign`] — a load-balancing baseline: tasks in
//!   descending sequential-work order each pick the class minimising the
//!   resulting normalised class load (capacity-aware, profile-blind).
//! * [`class_blind_assign`] — the ablation baseline the benchmark gates
//!   against: spreads tasks proportionally to class *sizes*, ignoring
//!   speeds entirely (what a class-unaware scheduler does when handed a
//!   partitioned cluster).
//!
//! All three are deterministic; on a single-class cluster they all return
//! the all-zeros assignment, which is what makes the homogeneous parity
//! exact.

use crate::instance::HeteroInstance;
use malleable_core::eps::{approx_ge, EPS};

/// A class assignment: `assignment[task]` is the class index the task runs
/// in.
pub type Assignment = Vec<usize>;

/// Dual-approximation assignment in the LP-rounding style: binary-search
/// the target makespan, greedily rounding each guess's canonical-allotment
/// relaxation into class capacity areas.  Returns the assignment of the
/// smallest guess that rounds feasibly.
pub fn lp_assign(instance: &HeteroInstance) -> Assignment {
    let classes = instance.cluster().classes();
    if classes.len() == 1 {
        return vec![0; instance.task_count()];
    }
    let mut lo = instance.lower_bound();
    if lo <= 0.0 {
        lo = EPS;
    }
    // Grow an upper bound until a guess rounds feasibly (everything fits
    // sequentially in the fastest class eventually, so this terminates).
    let mut hi = lo.max(EPS);
    let mut best: Option<Assignment> = None;
    for _ in 0..64 {
        if let Some(assignment) = try_round(instance, hi) {
            best = Some(assignment);
            break;
        }
        hi *= 2.0;
    }
    let mut best = match best {
        Some(assignment) => assignment,
        None => return greedy_density_assign(instance),
    };
    // Bisect down to the smallest feasible guess.
    for _ in 0..48 {
        let mid = 0.5 * (lo + hi);
        match try_round(instance, mid) {
            Some(assignment) => {
                best = assignment;
                hi = mid;
            }
            None => lo = mid,
        }
    }
    best
}

/// One rounding attempt at makespan guess `t`: every task takes its
/// canonical (minimal-work) allotment per class; tasks are placed
/// scarcest-first (fewest feasible classes, then largest minimal work) into
/// the class with the most remaining weighted area.  `None` when some task
/// fits no class or some class area overflows.
fn try_round(instance: &HeteroInstance, t: f64) -> Option<Assignment> {
    let classes = instance.cluster().classes();
    let n = instance.task_count();
    // Per task: the weighted work of the canonical allotment in each class
    // (None when the class cannot meet `t` even on its whole pool).
    let mut options: Vec<Vec<Option<f64>>> = Vec::with_capacity(n);
    for task in 0..n {
        let profile = instance.profile(task);
        let mut per_class = Vec::with_capacity(classes.len());
        for (c, class) in classes.iter().enumerate() {
            let deadline = t * profile.rates()[c];
            let work = profile
                .base()
                .canonical_processors(deadline)
                .filter(|&p| p <= class.count)
                .map(|p| profile.base().work(p));
            per_class.push(work);
        }
        if per_class.iter().all(Option::is_none) {
            return None;
        }
        options.push(per_class);
    }
    // Scarcest-first: fewest feasible classes, then largest minimal work.
    let mut order: Vec<usize> = (0..n).collect();
    let scarcity = |task: usize| -> (usize, f64) {
        let feasible = options[task].iter().flatten().count();
        let min_work = options[task]
            .iter()
            .flatten()
            .fold(f64::INFINITY, |a, &w| a.min(w));
        (feasible, min_work)
    };
    order.sort_by(|&a, &b| {
        let (fa, wa) = scarcity(a);
        let (fb, wb) = scarcity(b);
        fa.cmp(&fb).then(wb.total_cmp(&wa)).then(a.cmp(&b))
    });
    let mut assignment = vec![0usize; n];
    let mut remaining: Vec<f64> = classes
        .iter()
        .map(|c| c.count as f64 * c.speed * t)
        .collect();
    for &task in &order {
        // The chosen class with the task's work there.
        let mut chosen: Option<(usize, f64)> = None;
        for (c, work) in options[task].iter().enumerate() {
            let Some(work) = *work else { continue };
            if !approx_ge(remaining[c], work) {
                continue;
            }
            let better = match chosen {
                None => true,
                Some((current, _)) => remaining[c] > remaining[current],
            };
            if better {
                chosen = Some((c, work));
            }
        }
        let (c, work) = chosen?;
        remaining[c] -= work;
        assignment[task] = c;
    }
    Some(assignment)
}

/// Capacity-aware greedy baseline: tasks in descending sequential-work
/// order each pick the class minimising the resulting normalised load
/// `(assigned weighted work) / (count · speed)`, never picking a class
/// whose whole pool cannot beat the current best completion estimate by
/// itself when another can.
pub fn greedy_density_assign(instance: &HeteroInstance) -> Assignment {
    let classes = instance.cluster().classes();
    let n = instance.task_count();
    if classes.len() == 1 {
        return vec![0; n];
    }
    let mut order: Vec<usize> = (0..n).collect();
    let work = |task: usize| instance.profile(task).base().time(1);
    order.sort_by(|&a, &b| work(b).total_cmp(&work(a)).then(a.cmp(&b)));
    let mut load = vec![0.0f64; classes.len()];
    let mut assignment = vec![0usize; n];
    for &task in &order {
        let profile = instance.profile(task);
        let mut best = 0usize;
        let mut best_cost = f64::INFINITY;
        for (c, class) in classes.iter().enumerate() {
            let capacity = class.count as f64 * class.speed;
            // Normalised load after placing the task, floored by the
            // fastest the task itself can finish in the class.
            let cost = ((load[c] + work(task)) / capacity).max(profile.best_time(c, class.count));
            if cost < best_cost - 1e-12 {
                best = c;
                best_cost = cost;
            }
        }
        load[best] += work(task);
        assignment[task] = best;
    }
    assignment
}

/// Speed-blind baseline: tasks are spread proportionally to class *sizes*
/// in arrival order, exactly as a class-unaware scheduler would partition
/// them.  The benchmark gate measures how much [`lp_assign`] beats this at
/// equal total capacity.
pub fn class_blind_assign(instance: &HeteroInstance) -> Assignment {
    let classes = instance.cluster().classes();
    let n = instance.task_count();
    if classes.len() == 1 {
        return vec![0; n];
    }
    let mut assigned = vec![0usize; classes.len()];
    let mut assignment = vec![0usize; n];
    for entry in assignment.iter_mut() {
        // The class currently furthest below its proportional share.
        let mut best = 0usize;
        let mut best_fill = f64::INFINITY;
        for (c, class) in classes.iter().enumerate() {
            let fill = assigned[c] as f64 / class.count as f64;
            if fill < best_fill - 1e-12 {
                best = c;
                best_fill = fill;
            }
        }
        assigned[best] += 1;
        *entry = best;
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClassedCluster;
    use malleable_core::{Instance, SpeedupProfile};

    fn hetero(spec: &str) -> HeteroInstance {
        let cluster = ClassedCluster::from_spec(spec).unwrap();
        let instance = Instance::from_profiles(
            vec![
                SpeedupProfile::linear(16.0, 8).unwrap(),
                SpeedupProfile::linear(12.0, 8).unwrap(),
                SpeedupProfile::new(vec![6.0, 3.2, 2.4]).unwrap(),
                SpeedupProfile::sequential(1.5).unwrap(),
                SpeedupProfile::sequential(1.0).unwrap(),
                SpeedupProfile::new(vec![4.0, 2.2]).unwrap(),
            ],
            cluster.total_processors(),
        )
        .unwrap();
        HeteroInstance::from_instance(&instance, cluster).unwrap()
    }

    #[test]
    fn single_class_assignments_are_all_zero() {
        let hetero = hetero("only=12x1.0");
        for assign in [
            lp_assign(&hetero),
            greedy_density_assign(&hetero),
            class_blind_assign(&hetero),
        ] {
            assert_eq!(assign, vec![0; hetero.task_count()]);
        }
    }

    #[test]
    fn assignments_are_deterministic_and_in_range() {
        let hetero = hetero("old=8x1.0,new=4x2.5");
        for assign_fn in [lp_assign, greedy_density_assign, class_blind_assign] {
            let a = assign_fn(&hetero);
            let b = assign_fn(&hetero);
            assert_eq!(a, b);
            assert_eq!(a.len(), hetero.task_count());
            assert!(a.iter().all(|&c| c < 2));
        }
    }

    #[test]
    fn class_blind_spreads_proportionally_to_counts() {
        let hetero = hetero("old=8x1.0,new=4x2.5");
        let assignment = class_blind_assign(&hetero);
        let to_new = assignment.iter().filter(|&&c| c == 1).count();
        // 4 of 12 processors are `new`: a third of 6 tasks = 2.
        assert_eq!(to_new, 2);
    }

    #[test]
    fn lp_assignment_loads_the_fast_class_more_than_blind() {
        let hetero = hetero("old=8x1.0,new=4x2.5");
        let lp = lp_assign(&hetero);
        let blind = class_blind_assign(&hetero);
        let weighted = |assignment: &Assignment| -> f64 {
            assignment
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c == 1)
                .map(|(task, _)| hetero.profile(task).base().time(1))
                .sum()
        };
        // The fast class holds a third of the processors but 5/8 of the
        // capacity; the LP rounding routes strictly more work there.
        assert!(weighted(&lp) > weighted(&blind));
    }
}
