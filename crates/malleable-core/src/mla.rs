//! The malleable list algorithm of §3.1 of the paper.
//!
//! Given a makespan guess `ω` (assumed ≥ OPT), the algorithm
//!
//! 1. allots every task the minimal number of processors bringing its
//!    execution time below a threshold `θ·ω` (with `θ ≥ 1`, so the chosen
//!    count never exceeds the canonical count and Property 2 applies), and
//! 2. schedules the resulting rigid tasks with a list algorithm: the parallel
//!    tasks (two or more processors) first, then the sequential ones in LPT
//!    order.
//!
//! The published threshold and the resulting guarantee are stated as
//! `√3`-flavoured expressions whose exact small-`m` corrections are not fully
//! legible in the available scan (see README "Deviations from the paper").
//! We use the largest threshold for which the key structural property of the
//! paper's proof — *all parallel tasks can start at time 0* — is provable
//! from Properties 1 and 2 alone:
//!
//! > With `θ(m) = 2m/(m+1)`, every parallel task has work larger than
//! > `θ·ω·(γ_j − 1) ≥ θ·ω·γ_j/2`, so the parallel tasks' processor demand `P`
//! > satisfies `P < 2·m·ω/(θ·ω) = m + 1`, i.e. `P ≤ m`.
//!
//! The sequential phase is plain LPT.  The worst-case bound we *claim* for
//! this oracle is therefore the conservative `1 + θ(m)·(m−1)/m < 3`; its
//! observed behaviour (far better, and the reason the paper uses it as the
//! small-`m` fallback) is measured by the benchmark suite rather than
//! asserted.  Inside the combined [`crate::mrt::MrtScheduler`] this algorithm
//! is only one of several branches and the best schedule is kept, so the
//! conservative bound never propagates to the headline guarantee.

use crate::allotment::Allotment;
use crate::bounds;
use crate::canonical::CanonicalAllotment;
use crate::dual::{DualApproximation, DualOutcome};
use crate::error::Result;
use crate::instance::Instance;
use crate::list::schedule_rigid_on;
use crate::schedule::Schedule;
use crate::task::TaskId;
use crate::workspace::{refresh_canonical, ProbeWorkspace};

/// The malleable list algorithm as a dual approximation oracle.
#[derive(Debug, Clone, Copy, Default)]
pub struct MalleableListAlgorithm {
    /// Optional override of the allotment threshold factor `θ` (must be ≥ 1).
    /// `None` selects the provable default `θ(m) = 2m/(m+1)`.
    pub threshold_override: Option<f64>,
}

impl MalleableListAlgorithm {
    /// The allotment threshold factor `θ` used for a machine of `m` processors.
    pub fn threshold(&self, m: usize) -> f64 {
        match self.threshold_override {
            Some(theta) => theta.max(1.0),
            None => 2.0 * m as f64 / (m as f64 + 1.0),
        }
    }

    /// Compute the §3.1 allotment for the guess `ω`: minimal processors so
    /// that every task runs within `θ·ω`.
    pub fn allotment(&self, instance: &Instance, omega: f64) -> Result<Allotment> {
        let theta = self.threshold(instance.processors());
        Allotment::canonical(instance, theta * omega)
    }

    /// Build the §3.1 schedule (parallel tasks first, then LPT) for `ω`.
    pub fn build(&self, instance: &Instance, omega: f64) -> Result<Schedule> {
        self.build_in(instance, omega, &mut ProbeWorkspace::new())
    }

    /// Same as [`MalleableListAlgorithm::build`], reusing the buffers of
    /// `workspace`: the θ-allotment is the canonical allotment at `θ·ω`,
    /// recomputed in place with its decreasing-time order, and the list
    /// order and the processor timeline are refilled in place.
    pub fn build_in(
        &self,
        instance: &Instance,
        omega: f64,
        workspace: &mut ProbeWorkspace,
    ) -> Result<Schedule> {
        let allotment = self.refresh_allotment(instance, omega, &mut workspace.theta_canonical)?;
        parallel_first_order(allotment, &mut workspace.order);
        let mut schedule = Schedule::new(instance.processors());
        schedule_rigid_on(
            &mut workspace.timeline,
            instance,
            &allotment.allotment,
            &workspace.order,
            &mut schedule,
        );
        Ok(schedule)
    }

    /// The θ-allotment for `ω`, kept in `cache`: the canonical allotment at
    /// `θ·ω`, recomputed in place with its decreasing-time order.
    pub(crate) fn refresh_allotment<'a>(
        &self,
        instance: &Instance,
        omega: f64,
        cache: &'a mut Option<CanonicalAllotment>,
    ) -> Result<&'a CanonicalAllotment> {
        let theta = self.threshold(instance.processors());
        refresh_canonical(cache, instance, theta * omega)
    }
}

/// Whether the allotment's decreasing-time order already lists every
/// parallel task before every sequential one, i.e. whether
/// [`parallel_first_order`] would return that order unchanged.
pub(crate) fn parallel_tasks_lead(allotment: &CanonicalAllotment) -> bool {
    allotment
        .sorted_by_decreasing_time()
        .iter()
        .is_sorted_by_key(|&id| allotment.allotment.processors(id) == 1)
}

/// The "parallel tasks first, then LPT" order of §3.1 into `order`: the
/// stable partition of the allotment's decreasing-time order (ties by id)
/// into tasks on two or more processors, then sequential ones.  This is
/// [`crate::list::compute_order`] with [`crate::list::ListOrder::ParallelFirst`]
/// without its sort.
pub(crate) fn parallel_first_order(allotment: &CanonicalAllotment, order: &mut Vec<TaskId>) {
    let sorted = allotment.sorted_by_decreasing_time();
    let parallel = |&id: &TaskId| allotment.allotment.processors(id) > 1;
    order.clear();
    order.reserve(sorted.len());
    order.extend(sorted.iter().copied().filter(parallel));
    order.extend(sorted.iter().copied().filter(|id| !parallel(id)));
}

impl DualApproximation for MalleableListAlgorithm {
    fn name(&self) -> &'static str {
        "malleable-list"
    }

    fn guarantee(&self, instance: &Instance) -> f64 {
        let m = instance.processors() as f64;
        1.0 + self.threshold(instance.processors()) * (m - 1.0) / m
    }

    fn probe(&self, instance: &Instance, omega: f64) -> DualOutcome {
        if !bounds::may_be_feasible(instance, omega) {
            return DualOutcome::Infeasible;
        }
        // The θ-allotment always exists when the canonical allotment does
        // (θ ≥ 1), and the canonical allotment exists whenever
        // `may_be_feasible` holds.
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
                SpeedupProfile::new(vec![2.8, 1.5, 1.05, 0.85]).unwrap(),
                SpeedupProfile::new(vec![1.9, 1.0]).unwrap(),
                SpeedupProfile::sequential(0.9).unwrap(),
                SpeedupProfile::sequential(0.6).unwrap(),
                SpeedupProfile::linear(2.0, 4).unwrap(),
            ],
            4,
        )
        .unwrap()
    }

    #[test]
    fn default_threshold_is_two_m_over_m_plus_one() {
        let algo = MalleableListAlgorithm::default();
        assert!((algo.threshold(4) - 1.6).abs() < 1e-12);
        assert!((algo.threshold(9) - 1.8).abs() < 1e-12);
        let custom = MalleableListAlgorithm {
            threshold_override: Some(1.2),
        };
        assert!((custom.threshold(100) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn threshold_allotment_never_exceeds_canonical() {
        let inst = instance();
        let algo = MalleableListAlgorithm::default();
        let omega = 1.0;
        let theta_allot = algo.allotment(&inst, omega).unwrap();
        let canonical = Allotment::canonical(&inst, omega).unwrap();
        for t in 0..inst.task_count() {
            assert!(theta_allot.processors(t) <= canonical.processors(t));
        }
    }

    #[test]
    fn parallel_demand_fits_machine_at_feasible_omega() {
        // The structural property behind θ(m) = 2m/(m+1): at any ω satisfying
        // the necessary conditions, parallel tasks' processor demand ≤ m.
        let inst = instance();
        let algo = MalleableListAlgorithm::default();
        for omega in [1.1, 1.5, 2.0, 3.0] {
            if !bounds::may_be_feasible(&inst, omega) {
                continue;
            }
            let allot = algo.allotment(&inst, omega).unwrap();
            let parallel_demand: usize = (0..inst.task_count())
                .map(|t| allot.processors(t))
                .filter(|&p| p > 1)
                .sum();
            assert!(parallel_demand <= inst.processors());
        }
    }

    #[test]
    fn schedule_is_valid_and_probe_is_consistent() {
        let inst = instance();
        let algo = MalleableListAlgorithm::default();
        let schedule = algo.build(&inst, 1.2).unwrap();
        assert!(schedule.validate(&inst).is_ok());
        assert!(!algo.probe(&inst, 0.2).is_feasible());
        assert!(algo.probe(&inst, 3.0).is_feasible());
    }

    #[test]
    fn guarantee_is_below_three() {
        let inst = instance();
        let algo = MalleableListAlgorithm::default();
        assert!(algo.guarantee(&inst) < 3.0);
    }

    #[test]
    fn build_in_matches_a_fresh_build_across_guesses() {
        let inst = instance();
        let algo = MalleableListAlgorithm::default();
        let mut workspace = ProbeWorkspace::new();
        for omega in [3.0, 1.2, 0.2, 1.5, 1.2] {
            match (
                algo.build(&inst, omega),
                algo.build_in(&inst, omega, &mut workspace),
            ) {
                (Ok(fresh), Ok(reused)) => assert_eq!(fresh, reused, "ω = {omega}"),
                (Err(_), Err(_)) => {}
                other => panic!("ω = {omega}: {other:?}"),
            }
        }
    }

    #[test]
    fn parallel_tasks_lead_unless_a_sequential_task_is_longer() {
        let inst = Instance::from_profiles(
            vec![
                SpeedupProfile::sequential(0.9).unwrap(),
                SpeedupProfile::linear(3.0, 4).unwrap(),
            ],
            4,
        )
        .unwrap();
        // ω = 1.6: the parallel task runs 1.5 on two processors, ahead of
        // the sequential 0.9.
        let c = CanonicalAllotment::compute(&inst, 1.6).unwrap();
        assert_eq!(c.sorted_by_decreasing_time(), &[1, 0]);
        assert!(parallel_tasks_lead(&c));
        // ω = 0.9: on four processors it runs 0.75, behind the sequential
        // task, so the parallel-first order differs.
        let c = CanonicalAllotment::compute(&inst, 0.9).unwrap();
        assert_eq!(c.sorted_by_decreasing_time(), &[0, 1]);
        assert!(!parallel_tasks_lead(&c));
    }

    proptest! {
        /// The partition of the cached decreasing-time order is exactly the
        /// sorted parallel-first order, on instances full of equal times:
        /// works drawn from three values, profiles from three shapes.  It
        /// leaves the order unchanged exactly when `parallel_tasks_lead`.
        #[test]
        fn partition_order_matches_compute_order(
            tasks in prop::collection::vec((0usize..3, 0usize..3), 1..30),
            m in 1usize..9,
            omega in 0.3f64..4.0,
        ) {
            use crate::list::{compute_order, ListOrder};
            let profiles: Vec<SpeedupProfile> = tasks
                .iter()
                .map(|&(work, shape)| {
                    let w = [0.5, 1.0, 2.0][work];
                    match shape {
                        0 => SpeedupProfile::sequential(w).unwrap(),
                        1 => SpeedupProfile::linear(w, m).unwrap(),
                        _ => SpeedupProfile::from_fn(m, |p| w * (0.5 + 0.5 / p as f64)).unwrap(),
                    }
                })
                .collect();
            let inst = Instance::from_profiles(profiles, m).unwrap();
            if let Ok(canonical) = CanonicalAllotment::compute(&inst, omega) {
                let mut order = Vec::new();
                parallel_first_order(&canonical, &mut order);
                let expected = compute_order(&inst, &canonical.allotment, ListOrder::ParallelFirst);
                let unchanged = order == canonical.sorted_by_decreasing_time();
                prop_assert_eq!(parallel_tasks_lead(&canonical), unchanged);
                prop_assert_eq!(order, expected);
            }
        }

        /// At every ω passing the necessary conditions, the parallel tasks of
        /// the θ-allotment fit on the machine side by side (the property that
        /// justifies the default threshold), and the schedule is valid.
        #[test]
        fn parallel_tasks_fit_generic(
            works in prop::collection::vec(0.3f64..5.0, 1..25),
            m in 2usize..12,
            slack in 1.0f64..2.5,
        ) {
            let profiles: Vec<SpeedupProfile> = works
                .iter()
                .map(|&w| SpeedupProfile::linear(w, m).unwrap())
                .collect();
            let inst = Instance::from_profiles(profiles, m).unwrap();
            let omega = bounds::lower_bound(&inst) * slack;
            if bounds::may_be_feasible(&inst, omega) {
                let algo = MalleableListAlgorithm::default();
                let allot = algo.allotment(&inst, omega).unwrap();
                let demand: usize = (0..inst.task_count())
                    .map(|t| allot.processors(t))
                    .filter(|&p| p > 1)
                    .sum();
                prop_assert!(demand <= m, "parallel demand {demand} exceeds m = {m}");
                let schedule = algo.build(&inst, omega).unwrap();
                prop_assert!(schedule.validate(&inst).is_ok());
            }
        }
    }
}
