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
//!
//! # Cost of the LP rounding
//!
//! One [`lp_assign`] call makes up to 64 doubling and 48 bisection
//! attempts.  An attempt at guess `T` reads every task's canonical count
//! per class, and those counts only fall as `T` grows, changing at
//! breakpoints; between two breakpoints (one *cell*) every guess has the
//! same table.  The attempts of a call therefore share one private
//! scratch: flat per-task, per-class tables of counts and works at the
//! bracket's lower end, at its upper end and at the guess being rounded,
//! each with its scarcest-first order (the two keys computed once per
//! table, one sort), plus the class capacities and the assignments.
//!
//! * An attempt fills the `n·k` counts at its guess (one binary search
//!   each) and sorts only when they differ from both ends' counts; a guess
//!   in an end's cell copies that end's works and order.
//! * The table at the lower bound is built before the first attempt, so
//!   once the ends' counts are equal — also when every midpoint rounds —
//!   the bracket lies in one cell and every later attempt is only the
//!   `O(n·k)` greedy pass over the kept order.  Counts are compared, not
//!   works: a linear profile has equal work at every count.
//!
//! A call allocates its three tables (`n·k` counts, `n·k` works and `n`
//! keyed tasks each, grown by the first attempts that fill them), two
//! vectors of `k` capacities and two assignments of `n`, one of which it
//! returns.  Later attempts
//! allocate nothing, and an accepted guess swaps its assignment out
//! instead of copying it.

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
    if instance.cluster().class_count() == 1 {
        return vec![0; instance.task_count()];
    }
    let mut lo = instance.lower_bound();
    if lo <= 0.0 {
        lo = EPS;
    }
    let mut rounding = Rounding::new(instance, lo);
    // Grow an upper bound until a guess rounds feasibly (everything fits
    // sequentially in the fastest class eventually, so this terminates).
    let mut hi = lo.max(EPS);
    let mut found = false;
    for _ in 0..64 {
        if rounding.attempt(hi) {
            found = true;
            break;
        }
        hi *= 2.0;
    }
    if !found {
        return greedy_density_assign(instance);
    }
    rounding.accept();
    // Bisect down to the smallest feasible guess.
    for _ in 0..48 {
        let mid = 0.5 * (lo + hi);
        if rounding.attempt(mid) {
            rounding.accept();
            hi = mid;
        } else {
            rounding.reject();
            lo = mid;
        }
    }
    rounding.best
}

/// The rounding relaxation at one guess: every task's canonical count and
/// weighted work per class, and the scarcest-first order they induce.
#[derive(Default)]
struct Table {
    /// `counts[task · k + class]`: the canonical count, or 0 where the class
    /// cannot meet the guess even on its whole pool.
    counts: Vec<usize>,
    /// The base-profile work of each nonzero count (0.0 elsewhere).
    works: Vec<f64>,
    /// `(feasible classes, minimal work, task)` per task, scarcest-first:
    /// fewest feasible classes, then largest minimal work, then index.
    order: Vec<(usize, f64, usize)>,
    /// Every task fits some class (else `counts` stops at the first task
    /// that fits none, and `works` and `order` are stale).
    complete: bool,
}

impl Table {
    /// Fill the counts at guess `t`, stopping at the first task that fits
    /// no class; returns whether every task fits some class.
    fn fill_counts(&mut self, instance: &HeteroInstance, t: f64) -> bool {
        let classes = instance.cluster().classes();
        self.counts.clear();
        self.complete = false;
        for profile in instance.profiles() {
            let mut fits = false;
            for (c, class) in classes.iter().enumerate() {
                let deadline = t * profile.rates()[c];
                let count = profile
                    .base()
                    .canonical_processors(deadline)
                    .filter(|&p| p <= class.count)
                    .unwrap_or(0);
                fits |= count > 0;
                self.counts.push(count);
            }
            if !fits {
                return false;
            }
        }
        self.complete = true;
        true
    }

    /// Whether both tables are complete with equal counts, so every guess
    /// between theirs has these counts too (counts only fall as the guess
    /// grows).  Works would not do: a linear profile has equal work at
    /// every count.
    fn same_cell(&self, other: &Table) -> bool {
        self.complete && other.complete && self.counts == other.counts
    }

    /// Compute the works and the scarcest-first order from the counts.
    fn order_tasks(&mut self, instance: &HeteroInstance) {
        let k = instance.cluster().class_count();
        self.works.clear();
        self.order.clear();
        let rows = instance.profiles().iter().zip(self.counts.chunks_exact(k));
        for (task, (profile, counts)) in rows.enumerate() {
            let mut feasible = 0usize;
            let mut min_work = f64::INFINITY;
            for &count in counts {
                let mut work = 0.0;
                if count > 0 {
                    work = profile.base().work(count);
                    feasible += 1;
                    min_work = min_work.min(work);
                }
                self.works.push(work);
            }
            self.order.push((feasible, min_work, task));
        }
        self.order
            .sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.total_cmp(&a.1)).then(a.2.cmp(&b.2)));
    }

    /// Take the works and order of `other`, which has the same counts.
    fn copy_order(&mut self, other: &Table) {
        self.works.clone_from(&other.works);
        self.order.clone_from(&other.order);
    }
}

/// The scratch all rounding attempts of one [`lp_assign`] call share: the
/// tables at the bracket's ends and at the guess being rounded, the class
/// capacities and the assignments.
struct Rounding<'a> {
    instance: &'a HeteroInstance,
    /// `count · speed` per class: the weighted area a class offers per unit
    /// of guess.
    capacity: Vec<f64>,
    /// The area each class has left during one attempt.
    remaining: Vec<f64>,
    /// The assignment the last attempt wrote.
    assignment: Assignment,
    /// The assignment of the smallest guess accepted so far.
    best: Assignment,
    /// The table at the bracket's lower end (a guess that did not round, or
    /// the lower bound).
    lo: Table,
    /// The table at the bracket's upper end (a guess that rounded).
    hi: Table,
    /// The table at the guess of the last attempt.
    mid: Table,
    /// `lo` and `hi` are in the same cell, so every later guess has the
    /// table `hi` holds and no attempt builds one.
    collapsed: bool,
}

impl<'a> Rounding<'a> {
    /// A scratch whose lower end holds the table at guess `lo`.
    fn new(instance: &'a HeteroInstance, lo: f64) -> Self {
        let n = instance.task_count();
        let mut rounding = Rounding {
            instance,
            capacity: instance
                .cluster()
                .classes()
                .iter()
                .map(|c| c.count as f64 * c.speed)
                .collect(),
            remaining: vec![0.0; instance.cluster().class_count()],
            assignment: vec![0; n],
            best: vec![0; n],
            lo: Table::default(),
            hi: Table::default(),
            mid: Table::default(),
            collapsed: false,
        };
        if rounding.lo.fill_counts(instance, lo) {
            rounding.lo.order_tasks(instance);
        }
        rounding
    }

    /// One rounding attempt at guess `t`: every task takes its canonical
    /// (minimal-work) allotment per class; tasks are placed scarcest-first
    /// into the class with the most remaining weighted area.  False when
    /// some task fits no class or some class area overflows.
    fn attempt(&mut self, t: f64) -> bool {
        if !self.collapsed {
            if !self.mid.fill_counts(self.instance, t) {
                return false;
            }
            if self.mid.same_cell(&self.hi) {
                self.mid.copy_order(&self.hi);
            } else if self.mid.same_cell(&self.lo) {
                self.mid.copy_order(&self.lo);
            } else {
                self.mid.order_tasks(self.instance);
            }
        }
        let table = if self.collapsed { &self.hi } else { &self.mid };
        for (left, &area) in self.remaining.iter_mut().zip(&self.capacity) {
            *left = area * t;
        }
        let k = self.capacity.len();
        for &(_, _, task) in &table.order {
            let row = task * k..(task + 1) * k;
            // The chosen class with the task's work there.
            let mut chosen: Option<(usize, f64)> = None;
            let options = table.counts[row.clone()].iter().zip(&table.works[row]);
            for (c, (&count, &work)) in options.enumerate() {
                if count == 0 || !approx_ge(self.remaining[c], work) {
                    continue;
                }
                if chosen.is_none_or(|(current, _)| self.remaining[c] > self.remaining[current]) {
                    chosen = Some((c, work));
                }
            }
            let Some((c, work)) = chosen else {
                return false;
            };
            self.remaining[c] -= work;
            self.assignment[task] = c;
        }
        true
    }

    /// The last attempt rounded: its guess becomes the bracket's upper end.
    fn accept(&mut self) {
        std::mem::swap(&mut self.best, &mut self.assignment);
        if !self.collapsed {
            std::mem::swap(&mut self.hi, &mut self.mid);
            self.collapsed = self.lo.same_cell(&self.hi);
        }
    }

    /// The last attempt failed: its guess becomes the bracket's lower end.
    fn reject(&mut self) {
        if !self.collapsed {
            std::mem::swap(&mut self.lo, &mut self.mid);
            self.collapsed = self.lo.same_cell(&self.hi);
        }
    }
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
    use crate::profile::ClassedSpeedupProfile;
    use malleable_core::{Instance, SpeedupProfile};
    use proptest::prelude::*;

    /// The rounding as it was before the attempts shared a scratch: a
    /// fresh table, order and assignment per guess.  [`lp_assign`] must
    /// return its assignment bit for bit.
    fn reference_lp_assign(instance: &HeteroInstance) -> Assignment {
        let classes = instance.cluster().classes();
        if classes.len() == 1 {
            return vec![0; instance.task_count()];
        }
        let mut lo = instance.lower_bound();
        if lo <= 0.0 {
            lo = EPS;
        }
        let mut hi = lo.max(EPS);
        let mut best: Option<Assignment> = None;
        for _ in 0..64 {
            if let Some(assignment) = reference_try_round(instance, hi) {
                best = Some(assignment);
                break;
            }
            hi *= 2.0;
        }
        let mut best = match best {
            Some(assignment) => assignment,
            None => return greedy_density_assign(instance),
        };
        for _ in 0..48 {
            let mid = 0.5 * (lo + hi);
            match reference_try_round(instance, mid) {
                Some(assignment) => {
                    best = assignment;
                    hi = mid;
                }
                None => lo = mid,
            }
        }
        best
    }

    fn reference_try_round(instance: &HeteroInstance, t: f64) -> Option<Assignment> {
        let classes = instance.cluster().classes();
        let n = instance.task_count();
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

    /// A classed instance from generated classes and tasks.  A task is
    /// `((kind, width), (size, serial), affinity)`: kind 0 is linear over
    /// `width` processors, 1 sequential, 2 a monotone mix whose time on `p`
    /// processors is `s · (serial + (1 − serial) / p)` for `s = size / 4`;
    /// `affinity` scales the task's rate in the last class.  Sizes are
    /// quarters, so equal scarcity keys (ties the order breaks by index)
    /// are common.
    #[allow(clippy::type_complexity)]
    fn generated(
        classes: &[(usize, f64)],
        tasks: &[((usize, usize), (usize, f64), f64)],
    ) -> HeteroInstance {
        let spec: Vec<String> = classes
            .iter()
            .enumerate()
            .map(|(c, &(count, speed))| format!("c{c}={count}x{speed}"))
            .collect();
        let cluster = ClassedCluster::from_spec(&spec.join(",")).unwrap();
        let last = classes.len() - 1;
        let profiles = tasks
            .iter()
            .map(|&((kind, width), (size, serial), affinity)| {
                let size = size as f64 / 4.0;
                let base = match kind {
                    0 => SpeedupProfile::linear(size, width).unwrap(),
                    1 => SpeedupProfile::sequential(size).unwrap(),
                    _ => SpeedupProfile::from_fn(width, |p| {
                        size * (serial + (1.0 - serial) / p as f64)
                    })
                    .unwrap(),
                };
                let rates = classes
                    .iter()
                    .enumerate()
                    .map(|(c, &(_, speed))| if c == last { speed * affinity } else { speed })
                    .collect();
                ClassedSpeedupProfile::new(base, rates).unwrap()
            })
            .collect();
        HeteroInstance::new(cluster, profiles).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]
        /// The shared-scratch rounding returns the reference's assignment
        /// bit for bit: 1–4 classes of 1–8 processors at speeds in
        /// [0.25, 4], 1–40 linear, sequential and mixed monotone tasks,
        /// with and without a per-task affinity for the last class.
        #[test]
        fn lp_assign_matches_the_reference_rounding(
            classes in prop::collection::vec((1usize..=8, 0.25f64..=4.0), 1..=4),
            tasks in prop::collection::vec(
                ((0usize..3, 1usize..=12), (1usize..=48, 0.0f64..1.0), 0.5f64..=2.0),
                1..=40,
            ),
            nominal in 0usize..2,
        ) {
            let mut tasks = tasks;
            if nominal == 1 {
                for task in &mut tasks {
                    task.2 = 1.0;
                }
            }
            let instance = generated(&classes, &tasks);
            prop_assert_eq!(lp_assign(&instance), reference_lp_assign(&instance));
        }
    }

    #[test]
    fn lp_assign_doubles_its_guess_until_one_rounds() {
        // Six sequential tasks of time 4: the slow class meets no guess
        // below 16, and the fast one holds one task per unit of guess.  The
        // area bound is 24 / 12 = 2, so the guesses 2 and 4 fail and 8 is
        // the first that rounds.
        let hetero = generated(&[(32, 0.25), (1, 4.0)], &[((1, 1), (16, 0.0), 1.0); 6]);
        let lb = hetero.lower_bound();
        assert_eq!(lb, 2.0);
        assert!(reference_try_round(&hetero, lb).is_none());
        assert!(reference_try_round(&hetero, 2.0 * lb).is_none());
        assert!(reference_try_round(&hetero, 4.0 * lb).is_some());
        let assignment = lp_assign(&hetero);
        assert_eq!(assignment, reference_lp_assign(&hetero));
        assert_eq!(assignment, vec![1; 6]);
    }

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
