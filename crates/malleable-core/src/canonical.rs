//! Canonical allotments, the canonical λ-area, and the canonical list
//! algorithm of §3.2 of the paper.
//!
//! For a makespan guess `ω`, the *canonical number of processors* of a task is
//! the minimal count executing it in time at most `ω`; in any schedule of
//! length `≤ ω` every task uses at least its canonical count, which is what
//! makes canonical quantities usable as certificates.  The canonical list
//! algorithm allots every task its canonical count and list-schedules the
//! resulting rigid tasks by decreasing execution time with the
//! leftmost/rightmost tie-breaking convention; Theorem 2 of the paper shows
//! the result has length at most `2λ·ω` whenever
//!
//! * the *canonical λ-area* `S_m` is at most `λ·m·ω`, and
//! * the machine has at least `m_λ` processors (a constant depending only on
//!   `λ`, plotted in Figure 8 of the paper).
//!
//! Both quantities are computed here.  Note on `m_λ`: the appendix derivation
//! of the exact constants is not fully recoverable from the available scan of
//! the paper, so [`m_lambda`] implements a closed form anchored on the two
//! data points that *are* legible (the value 8 at `λ = √3/2` and the shape of
//! Figure 8, a decreasing curve diverging as `λ → 3/4⁺`).  The scheduling
//! code never relies on `m_λ` for correctness — every branch's output is
//! validated against its target makespan — so the constant only influences
//! branch ordering and the Figure 8 reproduction.  See README "Deviations
//! from the paper".

use crate::allotment::Allotment;
use crate::bounds;
use crate::dual::{DualApproximation, DualOutcome};
use crate::error::Result;
use crate::instance::Instance;
use crate::list::{schedule_rigid, ListOrder};
use crate::schedule::Schedule;
use crate::task::TaskId;

/// Canonical data of an instance for a given makespan guess `ω`.
#[derive(Debug, Clone, PartialEq)]
pub struct CanonicalAllotment {
    /// The guess `ω` the allotment was computed for.
    pub omega: f64,
    /// The canonical allotment itself (minimal processors per task).
    pub allotment: Allotment,
    /// Execution time of every task under its canonical count.
    pub times: Vec<f64>,
    /// Total work of the canonical allotment (`Σ q_j · t_j(q_j)`).
    pub total_work: f64,
    /// Task identifiers sorted by decreasing canonical time (ties broken by
    /// task id), cached at compute time: the λ-area and the canonical list
    /// algorithm both consume this order on every probe.
    sorted: Vec<TaskId>,
}

/// Build the decreasing-time order (ties by increasing id) from scratch.
fn sort_by_decreasing_time(times: &[f64]) -> Vec<TaskId> {
    let mut sorted: Vec<TaskId> = (0..times.len()).collect();
    sorted.sort_unstable_by(|&a, &b| times[b].total_cmp(&times[a]).then(a.cmp(&b)));
    sorted
}

/// Restore the decreasing-time order (ties by increasing id) of `sorted` after
/// `times` changed.  Insertion sort is adaptive: when the guess `ω` moves
/// between two probes, only the tasks whose canonical count changed are out of
/// place, so the repair costs `O(n + inversions)` instead of a full sort.  It
/// is only used on the incremental [`CanonicalAllotment::recompute`] path —
/// cold construction uses [`sort_by_decreasing_time`], which is `O(n·log n)`
/// on arbitrary orders.
fn resort_by_decreasing_time(sorted: &mut [TaskId], times: &[f64]) {
    let after = |a: TaskId, b: TaskId| times[a] < times[b] || (times[a] == times[b] && a > b);
    for i in 1..sorted.len() {
        let id = sorted[i];
        let mut j = i;
        while j > 0 && after(sorted[j - 1], id) {
            sorted[j] = sorted[j - 1];
            j -= 1;
        }
        sorted[j] = id;
    }
}

impl CanonicalAllotment {
    /// Compute the canonical allotment for `ω`, or an error naming a task for
    /// which `ω` is unreachable (a certificate that `OPT > ω`).
    pub fn compute(instance: &Instance, omega: f64) -> Result<Self> {
        let allotment = Allotment::canonical(instance, omega)?;
        let times: Vec<f64> = (0..instance.task_count())
            .map(|t| allotment.time(instance, t))
            .collect();
        let total_work = allotment.total_work(instance);
        let sorted = sort_by_decreasing_time(&times);
        Ok(CanonicalAllotment {
            omega,
            allotment,
            times,
            total_work,
            sorted,
        })
    }

    /// Wrap an arbitrary (not necessarily canonical) allotment in the
    /// canonical data structure, deriving the per-task times, total work and
    /// sort order from it — used by the baselines to reuse the level packer
    /// on non-canonical allotments.
    pub fn from_allotment(instance: &Instance, allotment: Allotment, omega: f64) -> Self {
        let times: Vec<f64> = (0..allotment.len())
            .map(|t| allotment.time(instance, t))
            .collect();
        let total_work = allotment.total_work(instance);
        let sorted = sort_by_decreasing_time(&times);
        CanonicalAllotment {
            omega,
            allotment,
            times,
            total_work,
            sorted,
        }
    }

    /// Recompute the allotment for a new guess (and possibly a new instance)
    /// in place, reusing the existing buffers and repairing the cached sort
    /// order incrementally.  On `Err` (the guess is unreachable — a
    /// certificate that `OPT > ω`) the receiver is left untouched.
    pub fn recompute(&mut self, instance: &Instance, omega: f64) -> Result<()> {
        let n = instance.task_count();
        // First pass without mutation, so an unreachable deadline leaves the
        // receiver consistent with its previous guess.
        for (id, task) in instance.iter() {
            if task.canonical_processors(omega).is_none() {
                return Err(crate::error::Error::DeadlineUnreachable {
                    task: id,
                    deadline: omega,
                });
            }
        }
        let same_tasks = self.times.len() == n;
        let counts = self.allotment.processors_vec_mut();
        counts.resize(n, 1);
        self.times.resize(n, 0.0);
        let mut changed = !same_tasks;
        let mut total_work = 0.0;
        for (id, task) in instance.iter() {
            let q = task
                .canonical_processors(omega)
                .expect("checked in the first pass");
            let t = task.time(q);
            if counts[id] != q || self.times[id] != t {
                changed = true;
            }
            counts[id] = q;
            self.times[id] = t;
            total_work += q as f64 * t;
        }
        self.omega = omega;
        self.total_work = total_work;
        if !same_tasks {
            // A different task set: rebuild the order in place with a full
            // sort (the adaptive repair is only a win on nearly-sorted data).
            let times = &self.times;
            self.sorted.clear();
            self.sorted.extend(0..n);
            self.sorted
                .sort_unstable_by(|&a, &b| times[b].total_cmp(&times[a]).then(a.cmp(&b)));
        } else if changed {
            resort_by_decreasing_time(&mut self.sorted, &self.times);
        }
        Ok(())
    }

    /// Task identifiers sorted by decreasing canonical execution time (the
    /// order used by the canonical list algorithm and by the λ-area).  The
    /// permutation is cached at compute time and maintained incrementally by
    /// [`CanonicalAllotment::recompute`].
    pub fn sorted_by_decreasing_time(&self) -> &[TaskId] {
        &self.sorted
    }

    /// Total capacity of the owned buffers (allocation-tracking telemetry).
    pub(crate) fn buffer_capacity(&self) -> usize {
        self.allotment.buffer_capacity() + self.times.capacity() + self.sorted.capacity()
    }

    /// The canonical λ-area `S_m` (Definition 1 of the paper): run the
    /// canonical layout on an unbounded number of processors, tasks sorted by
    /// decreasing canonical time and placed side by side; `S_m` is the
    /// (fractional) area covered by the first `m` processor columns.
    ///
    /// When the canonical widths sum to less than `m`, the whole canonical
    /// work is returned.
    pub fn lambda_area(&self, m: usize) -> f64 {
        let mut width_used = 0usize;
        let mut area = 0.0f64;
        for &id in &self.sorted {
            let q = self.allotment.processors(id);
            let t = self.times[id];
            if width_used + q <= m {
                area += q as f64 * t;
                width_used += q;
                if width_used == m {
                    break;
                }
            } else {
                area += (m - width_used) as f64 * t;
                break;
            }
        }
        area
    }

    /// Whether the canonical λ-area condition `S_m ≤ λ·m·ω` of Theorem 2
    /// holds, i.e. whether the canonical-list branch is the one the paper
    /// prescribes for this instance and guess.
    pub fn satisfies_area_condition(&self, m: usize, lambda: f64) -> bool {
        self.lambda_area(m) <= lambda * m as f64 * self.omega + 1e-9
    }
}

/// Largest integer `k` with `k/(k+1) < λ`; a task whose canonical execution
/// time is at most `λ·ω` uses at most `k_star(λ) + 1` processors (a direct
/// consequence of Property 1).
pub fn k_star(lambda: f64) -> usize {
    assert!(
        (0.5..1.0 + 1e-12).contains(&lambda),
        "k_star expects λ in [1/2, 1], got {lambda}"
    );
    if lambda >= 1.0 {
        return usize::MAX >> 1;
    }
    let bound = lambda / (1.0 - lambda);
    let mut k = bound.floor() as usize;
    // Handle the boundary case where k/(k+1) == λ exactly.
    while k > 0 && (k as f64) / (k as f64 + 1.0) >= lambda - 1e-15 {
        k -= 1;
    }
    while ((k + 1) as f64) / ((k + 2) as f64) < lambda - 1e-15 {
        k += 1;
    }
    k
}

/// The "half" reallocation width `ĥ_λ = ⌈(k_λ + 1)/2⌉` used by the appendix:
/// shrinking a task of time ≤ λ·ω from its canonical count to `ĥ_λ`
/// processors at most doubles its execution time, keeping it below `2λ·ω`.
pub fn h_hat(lambda: f64) -> usize {
    (k_star(lambda) + 2) / 2
}

/// The minimal machine size `m_λ` for which Property 3 (first two levels of
/// the canonical list schedule finish before `2λ·ω`) is asserted.
///
/// Closed form reconstructed from Figure 8 of the paper (see the module
/// documentation): `m_λ = round((2λ + 2)/(4λ − 3))` for `λ ∈ (3/4, 1]`, anchored at
/// `m_{√3/2} = 8`, decreasing in `λ` and diverging as `λ → 3/4⁺`.  Returns
/// `None` for `λ ≤ 3/4`, where the paper's analysis does not apply.
pub fn m_lambda(lambda: f64) -> Option<usize> {
    if !(lambda > 0.75 && lambda <= 1.0 + 1e-12) {
        return None;
    }
    let value = (2.0 * lambda + 2.0) / (4.0 * lambda - 3.0);
    Some(value.round().max(3.0) as usize)
}

/// The canonical list algorithm as a dual approximation oracle.
///
/// Probing a guess `ω`:
/// * reject when the basic necessary conditions fail (certificate);
/// * otherwise allot every task its canonical count and list-schedule by
///   decreasing canonical time with the paper's tie-breaking convention.
///
/// Theorem 2 guarantees a makespan of at most `2λ·ω` when `S_m ≤ λ·m·ω` and
/// `m ≥ m_λ`; outside that regime the schedule is still valid, just without
/// the a-priori bound (the `mrt` module cross-checks the achieved makespan).
#[derive(Debug, Clone, Copy)]
pub struct CanonicalListAlgorithm {
    /// The shelf parameter λ used for reporting the guarantee (default `√3/2`).
    pub lambda: f64,
}

impl Default for CanonicalListAlgorithm {
    fn default() -> Self {
        CanonicalListAlgorithm {
            lambda: 3f64.sqrt() / 2.0,
        }
    }
}

impl CanonicalListAlgorithm {
    /// Build the canonical list schedule for a guess `ω` without the
    /// feasibility checks (used by the combined MRT scheduler).
    pub fn build(&self, instance: &Instance, omega: f64) -> Result<Schedule> {
        let canonical = CanonicalAllotment::compute(instance, omega)?;
        Ok(schedule_rigid(
            instance,
            &canonical.allotment,
            ListOrder::DecreasingAllottedTime,
        ))
    }
}

impl DualApproximation for CanonicalListAlgorithm {
    fn name(&self) -> &'static str {
        "canonical-list"
    }

    fn guarantee(&self, _instance: &Instance) -> f64 {
        2.0 * self.lambda
    }

    fn probe(&self, instance: &Instance, omega: f64) -> DualOutcome {
        if !bounds::may_be_feasible(instance, omega) {
            return DualOutcome::Infeasible;
        }
        match self.build(instance, omega) {
            Ok(schedule) => DualOutcome::Feasible(schedule),
            Err(_) => DualOutcome::Infeasible,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::SpeedupProfile;
    use proptest::prelude::*;

    fn instance() -> Instance {
        Instance::from_profiles(
            vec![
                SpeedupProfile::new(vec![3.0, 1.6, 1.2, 0.95]).unwrap(),
                SpeedupProfile::new(vec![1.7, 0.9]).unwrap(),
                SpeedupProfile::sequential(0.8).unwrap(),
                SpeedupProfile::sequential(0.3).unwrap(),
                SpeedupProfile::linear(1.8, 4).unwrap(),
            ],
            4,
        )
        .unwrap()
    }

    #[test]
    fn canonical_allotment_and_times() {
        let inst = instance();
        let c = CanonicalAllotment::compute(&inst, 1.0).unwrap();
        assert_eq!(c.allotment.as_slice(), &[4, 2, 1, 1, 2]);
        assert!((c.times[0] - 0.95).abs() < 1e-12);
        assert!((c.times[4] - 0.9).abs() < 1e-12);
        assert!(CanonicalAllotment::compute(&inst, 0.5).is_err());
    }

    #[test]
    fn cached_sort_order_is_decreasing_with_id_tiebreak() {
        let inst = instance();
        let c = CanonicalAllotment::compute(&inst, 1.0).unwrap();
        let order = c.sorted_by_decreasing_time();
        assert_eq!(order.len(), inst.task_count());
        for pair in order.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            assert!(
                c.times[a] > c.times[b] || (c.times[a] == c.times[b] && a < b),
                "order {order:?} violates decreasing time with id tie-break"
            );
        }
    }

    #[test]
    fn recompute_matches_fresh_compute() {
        let inst = instance();
        let mut cached = CanonicalAllotment::compute(&inst, 2.0).unwrap();
        for omega in [1.0, 0.95, 1.4, 3.0, 1.0] {
            cached.recompute(&inst, omega).unwrap();
            let fresh = CanonicalAllotment::compute(&inst, omega).unwrap();
            assert_eq!(cached, fresh, "recompute diverged at ω = {omega}");
        }
        // An unreachable guess is rejected and leaves the cache untouched.
        let before = cached.clone();
        assert!(cached.recompute(&inst, 0.1).is_err());
        assert_eq!(cached, before);
        // A different instance (new task count) is handled by resizing.
        let other = Instance::from_profiles(
            vec![
                SpeedupProfile::sequential(0.4).unwrap(),
                SpeedupProfile::linear(2.0, 4).unwrap(),
            ],
            4,
        )
        .unwrap();
        cached.recompute(&other, 1.0).unwrap();
        assert_eq!(cached, CanonicalAllotment::compute(&other, 1.0).unwrap());
    }

    #[test]
    fn lambda_area_small_instance() {
        let inst = instance();
        let c = CanonicalAllotment::compute(&inst, 1.0).unwrap();
        // Canonical times are [0.95, 0.9, 0.8, 0.3, 0.9] with q = [4, 2, 1, 1, 2].
        // Sorted by decreasing canonical time, task 0 comes first and its four
        // canonical processors already fill the m = 4 columns, so
        // S_4 = 4 · 0.95 = 3.8.
        let s4 = c.lambda_area(4);
        assert!((s4 - 3.8).abs() < 1e-9, "got {s4}");
        // With unbounded columns the area equals the total canonical work.
        let total = c.lambda_area(1000);
        assert!((total - c.total_work).abs() < 1e-9);
    }

    #[test]
    fn area_condition_matches_direct_comparison() {
        let inst = instance();
        let c = CanonicalAllotment::compute(&inst, 1.0).unwrap();
        let m = inst.processors();
        for lambda in [0.8, 0.9, 1.0] {
            assert_eq!(
                c.satisfies_area_condition(m, lambda),
                c.lambda_area(m) <= lambda * m as f64 + 1e-9
            );
        }
    }

    #[test]
    fn k_star_values() {
        // λ = 0.8: 3/4 = 0.75 < 0.8 but 4/5 = 0.8 is not < 0.8, so k* = 3.
        assert_eq!(k_star(0.8), 3);
        // λ = √3/2 ≈ 0.866: 6/7 ≈ 0.857 < λ < 7/8 = 0.875, so k* = 6.
        assert_eq!(k_star(3f64.sqrt() / 2.0), 6);
        // λ = 0.51: 1/2 < 0.51 but 2/3 > 0.51, so k* = 1.
        assert_eq!(k_star(0.51), 1);
    }

    #[test]
    fn h_hat_values() {
        // k*(√3/2) = 6, so ĥ = ⌈7/2⌉ = 4.
        assert_eq!(h_hat(3f64.sqrt() / 2.0), 4);
        // k*(0.8) = 3, so ĥ = ⌈4/2⌉ = 2.
        assert_eq!(h_hat(0.8), 2);
    }

    #[test]
    fn h_hat_is_half_of_kstar_plus_one_rounded_up() {
        for lambda in [0.76, 0.8, 0.85, 3f64.sqrt() / 2.0, 0.9, 0.95] {
            let k = k_star(lambda);
            assert_eq!(h_hat(lambda), (k + 1).div_ceil(2));
        }
    }

    #[test]
    fn m_lambda_anchor_points() {
        // Anchor from Figure 8: m_λ = 8 at λ = √3/2.
        assert_eq!(m_lambda(3f64.sqrt() / 2.0), Some(8));
        // Decreasing in λ.
        let values: Vec<usize> = [0.78, 0.82, 0.87, 0.92, 0.97, 1.0]
            .iter()
            .map(|&l| m_lambda(l).unwrap())
            .collect();
        for w in values.windows(2) {
            assert!(w[0] >= w[1], "m_lambda must be non-increasing: {values:?}");
        }
        // Diverges towards λ = 3/4 and is undefined below.
        assert!(m_lambda(0.76).unwrap() > 20);
        assert_eq!(m_lambda(0.75), None);
        assert_eq!(m_lambda(0.5), None);
    }

    #[test]
    fn canonical_list_produces_valid_schedules() {
        let inst = instance();
        let algo = CanonicalListAlgorithm::default();
        let schedule = algo.build(&inst, 1.0).unwrap();
        assert!(schedule.validate(&inst).is_ok());
        // All tasks present, makespan at least the lower bound.
        assert_eq!(schedule.len(), inst.task_count());
        assert!(schedule.makespan() >= bounds::lower_bound(&inst) - 1e-9);
    }

    #[test]
    fn canonical_list_dual_probe_rejects_tiny_omega() {
        let inst = instance();
        let algo = CanonicalListAlgorithm::default();
        assert!(!algo.probe(&inst, 0.1).is_feasible());
        assert!(algo.probe(&inst, 2.0).is_feasible());
    }

    proptest! {
        /// The λ-area is monotone in m and bounded by the total canonical work.
        #[test]
        fn lambda_area_monotone(
            works in prop::collection::vec(0.2f64..3.0, 1..20),
            m in 2usize..12,
        ) {
            let profiles: Vec<SpeedupProfile> = works
                .iter()
                .map(|&w| SpeedupProfile::linear(w, m).unwrap())
                .collect();
            let inst = Instance::from_profiles(profiles, m).unwrap();
            let omega = bounds::upper_bound(&inst);
            let c = CanonicalAllotment::compute(&inst, omega).unwrap();
            let mut previous = 0.0;
            for cols in 1..=m {
                let area = c.lambda_area(cols);
                prop_assert!(area + 1e-9 >= previous);
                prop_assert!(area <= c.total_work + 1e-9);
                previous = area;
            }
        }

        /// Theorem 2 regime check: when the area condition holds and m ≥ m_λ,
        /// the canonical list schedule at a feasible ω stays below 2λω.
        #[test]
        fn theorem_two_regime_respected(
            seed_works in prop::collection::vec(0.05f64..0.5, 5..40),
            m in 8usize..24,
        ) {
            // Small sequential-ish tasks: the canonical allotment at ω = LB·1.05
            // is all-sequential, the area condition holds easily, and the list
            // schedule must stay below 2λω.
            let profiles: Vec<SpeedupProfile> = seed_works
                .iter()
                .map(|&w| SpeedupProfile::sequential(w).unwrap())
                .collect();
            let inst = Instance::from_profiles(profiles, m).unwrap();
            let omega = bounds::lower_bound(&inst) * 1.05;
            let lambda = 3f64.sqrt() / 2.0;
            if let Ok(c) = CanonicalAllotment::compute(&inst, omega) {
                if c.satisfies_area_condition(m, lambda) && m >= m_lambda(lambda).unwrap() {
                    let algo = CanonicalListAlgorithm::default();
                    let schedule = algo.build(&inst, omega).unwrap();
                    prop_assert!(schedule.validate(&inst).is_ok());
                    prop_assert!(
                        schedule.makespan() <= 2.0 * lambda * omega + 1e-9,
                        "makespan {} exceeds 2λω = {}",
                        schedule.makespan(),
                        2.0 * lambda * omega
                    );
                }
            }
        }
    }
}
