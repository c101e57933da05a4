//! The combined MRT scheduler (Mounié–Rapine–Trystram, SPAA 1999).
//!
//! The paper's final algorithm (Theorem 3 together with §3) is a dual
//! approximation that, given a guess `ω`:
//!
//! 1. rejects `ω` when the canonical allotment does not exist or violates the
//!    necessary work/width conditions (a certificate that `OPT > ω`);
//! 2. otherwise builds a schedule by the branch the instance parameters call
//!    for — the knapsack-based two-shelf construction of §4 when the
//!    canonical λ-area is large, the canonical list algorithm of §3.2 when it
//!    is small, with the malleable list algorithm of §3.1 as the small-`m`
//!    fallback.
//!
//! This implementation evaluates *all* branches (plus a level-packing branch
//! used by the baselines) and keeps the shortest schedule.  That makes the
//! oracle robust outside the regime where the paper's existence lemmas
//! apply (small machines, `m < m_λ`), because a probe never *rejects* a
//! guess it cannot certify infeasible.  The paper's worst-case guarantee of
//! `√3·ω ≈ (1 + λ)·ω` is therefore realised whenever any branch achieves it
//! (which the lemmas prove for `m ≥ m_λ`), and the benchmark suite tracks
//! the achieved ratios empirically across workload families (see README
//! "Experiments").
//!
//! Cost of a probe.  The canonical allotment is recomputed in place once,
//! `O(n·log m)` plus the repair of its order, and the necessary conditions
//! are checked on it.  The two-shelf construction reads `ω` itself and is
//! built on every probe.  The three rigid branches — canonical list,
//! malleable list, level packing — see `ω` only through an allotment, which
//! changes only at breakpoints ([`crate::breakpoints`]).  Each keeps its
//! last schedule in the [`ProbeWorkspace`], keyed on the machine size and
//! the processor counts and times of its allotment (an `O(n)` comparison),
//! and rebuilds it in place, `O(n·m)`, only when that key changes.  The
//! malleable list is not built at all when its θ-allotment is the canonical
//! allotment and the decreasing-time order already puts every parallel task
//! first: its schedule would be the canonical list schedule, which is
//! considered earlier and wins ties.  Only the winning schedule is copied
//! out of the workspace.
//!
//! The oracle is driven through the `mrt` solver
//! ([`crate::solver::MrtSolver`]): `MrtSolver.solve(&SolveRequest::new(i))`
//! runs the default [`crate::dual::DualSearch`] over [`MrtScheduler`].

use crate::bounds;
use crate::canonical::CanonicalAllotment;
use crate::dual::{DualApproximation, DualOutcome};
use crate::error::{Error, Result};
use crate::instance::Instance;
use crate::list::schedule_rigid_on;
use crate::mla::{parallel_first_order, parallel_tasks_lead, MalleableListAlgorithm};
use crate::schedule::{ProcessorRange, Schedule, ScheduledTask};
use crate::two_shelf::{self, TwoShelfKind, TwoShelfParams};
use crate::workspace::ProbeWorkspace;
use packing::rect::Rect;
use packing::strip::ffdh;

/// Which branch produced the schedule returned by a probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Branch {
    /// The §4 two-shelf construction (with the mechanism that succeeded).
    TwoShelf(TwoShelfKind),
    /// The §3.2 canonical list algorithm.
    CanonicalList,
    /// The §3.1 malleable list algorithm.
    MalleableList,
    /// FFDH level packing of the canonical allotment (baseline-style branch).
    LevelPacking,
}

/// Diagnostic information about one probe of the MRT oracle.
#[derive(Debug, Clone)]
pub struct ProbeReport {
    /// The guess that was probed.
    pub omega: f64,
    /// The winning branch, when the probe was feasible.
    pub branch: Option<Branch>,
    /// Makespan of the winning schedule, when feasible.
    pub makespan: Option<f64>,
    /// The canonical λ-area `S_m` at this guess (when the canonical allotment
    /// exists), for reproducing the branch statistics of the paper.
    pub lambda_area: Option<f64>,
    /// Whether the λ-area condition `S_m ≤ λ·m·ω` of Theorem 2 held.
    pub area_condition: Option<bool>,
}

/// Which branches the combined scheduler evaluates on every probe.
///
/// All branches are on by default; switching branches off is used by the
/// ablation experiment (`examples/experiments.rs`) to measure
/// how much each of the paper's mechanisms contributes to the final quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchSet {
    /// Evaluate the §4 knapsack two-shelf construction.
    pub two_shelf: bool,
    /// Evaluate the §3.2 canonical list algorithm.
    pub canonical_list: bool,
    /// Evaluate the §3.1 malleable list algorithm.
    pub malleable_list: bool,
    /// Evaluate the FFDH level packing of the canonical allotment.
    pub level_packing: bool,
}

impl Default for BranchSet {
    fn default() -> Self {
        BranchSet {
            two_shelf: true,
            canonical_list: true,
            malleable_list: true,
            level_packing: true,
        }
    }
}

impl BranchSet {
    /// Only the knapsack two-shelf construction (plus nothing to fall back on).
    pub fn two_shelf_only() -> Self {
        BranchSet {
            two_shelf: true,
            canonical_list: false,
            malleable_list: false,
            level_packing: false,
        }
    }

    /// Only the list-scheduling branches of §3.
    pub fn lists_only() -> Self {
        BranchSet {
            two_shelf: false,
            canonical_list: true,
            malleable_list: true,
            level_packing: false,
        }
    }

    /// At least one branch must be enabled for the scheduler to make sense.
    pub fn is_empty(&self) -> bool {
        !(self.two_shelf || self.canonical_list || self.malleable_list || self.level_packing)
    }
}

/// The combined MRT dual approximation.
#[derive(Debug, Clone, Copy)]
pub struct MrtScheduler {
    /// The second-shelf parameter λ (default `√3 − 1`, the paper's choice).
    pub lambda: f64,
    /// The λ used by the canonical list branch's area test (default `√3/2`).
    pub list_lambda: f64,
    /// Knapsack resolution strategy.
    pub strategy: knapsack::Strategy,
    /// Which branches are evaluated on every probe (all by default).
    pub branches: BranchSet,
}

impl Default for MrtScheduler {
    fn default() -> Self {
        MrtScheduler {
            lambda: 3f64.sqrt() - 1.0,
            list_lambda: 3f64.sqrt() / 2.0,
            strategy: knapsack::Strategy::default(),
            branches: BranchSet::default(),
        }
    }
}

impl MrtScheduler {
    /// Create a scheduler with a custom two-shelf λ.
    pub fn with_lambda(lambda: f64) -> Result<Self> {
        if !(lambda > 0.5 && lambda <= 1.0 + 1e-12) {
            return Err(Error::InvalidParameter {
                name: "lambda",
                value: lambda,
            });
        }
        Ok(MrtScheduler {
            lambda,
            ..Default::default()
        })
    }

    fn two_shelf_params(&self) -> TwoShelfParams {
        TwoShelfParams {
            lambda: self.lambda,
            strategy: self.strategy,
        }
    }

    /// Probe a guess and report which branch won, for the branch-statistics
    /// experiment (`examples/experiments.rs`).
    pub fn probe_with_report(&self, instance: &Instance, omega: f64) -> (DualOutcome, ProbeReport) {
        self.probe_with_report_in(instance, omega, &mut ProbeWorkspace::new())
    }

    /// Same as [`MrtScheduler::probe_with_report`], reusing the buffers of
    /// `workspace`: the canonical allotments of both list branches (with
    /// their sort orders) are recomputed in place, every branch draws its
    /// scratch — list order and processor timeline, rectangles, First Fit
    /// bins, knapsack DP tables — from the workspace, and the rigid
    /// branches reuse their kept schedules while their allotments stay the
    /// same, so a steady-state probe grows no buffer (see
    /// [`crate::workspace`] for what it still allocates).
    pub fn probe_with_report_in(
        &self,
        instance: &Instance,
        omega: f64,
        workspace: &mut ProbeWorkspace,
    ) -> (DualOutcome, ProbeReport) {
        let signature = workspace.capacity_signature();
        let result = self.probe_branches(instance, omega, workspace);
        workspace.note_probe(signature);
        result
    }

    fn probe_branches(
        &self,
        instance: &Instance,
        omega: f64,
        workspace: &mut ProbeWorkspace,
    ) -> (DualOutcome, ProbeReport) {
        let mut report = ProbeReport {
            omega,
            branch: None,
            makespan: None,
            lambda_area: None,
            area_condition: None,
        };
        // One canonical allotment per probe, recomputed in place: it is
        // both the infeasibility certificate (the conditions of
        // `bounds::may_be_feasible`) and the input of every branch.
        let Ok(canonical) = workspace.take_canonical(instance, omega) else {
            return (DualOutcome::Infeasible, report);
        };
        let mut outcome = DualOutcome::Infeasible;
        if bounds::canonical_conditions_hold(instance, canonical.allotment.as_slice(), omega) {
            let m = instance.processors();
            let area = canonical.lambda_area(m);
            report.lambda_area = Some(area);
            report.area_condition = Some(area <= self.list_lambda * m as f64 * omega + 1e-9);
            if let Some((schedule, branch, makespan)) =
                self.best_branch(instance, &canonical, workspace)
            {
                report.branch = Some(branch);
                report.makespan = Some(makespan);
                outcome = DualOutcome::Feasible(schedule);
            }
        }
        workspace.store_canonical(canonical);
        (outcome, report)
    }

    /// Run the enabled branches on `canonical` and return the first
    /// strictly shortest schedule with its branch and makespan.  The rigid
    /// branches keep their schedules in the workspace, rebuilt only when
    /// their key changed, and only the winner is copied out.
    fn best_branch(
        &self,
        instance: &Instance,
        canonical: &CanonicalAllotment,
        workspace: &mut ProbeWorkspace,
    ) -> Option<(Schedule, Branch, f64)> {
        let m = instance.processors();
        let mut best: Option<(Branch, f64)> = None;
        let mut consider = |branch: Branch, makespan: f64| {
            if best.is_none_or(|(_, b)| makespan < b) {
                best = Some((branch, makespan));
            }
        };

        // Branch 1: two-shelf knapsack construction (§4).  It reads the
        // guess itself, not only the allotment, so it is built every probe.
        let mut shelf = None;
        if self.branches.two_shelf {
            if let Some(ts) = two_shelf::build_with_canonical_in(
                instance,
                canonical,
                self.two_shelf_params(),
                workspace,
            ) {
                consider(Branch::TwoShelf(ts.kind), ts.schedule.makespan());
                shelf = Some(ts.schedule);
            }
        }

        let ProbeWorkspace {
            theta_canonical,
            order,
            timeline,
            rects,
            canonical_list,
            malleable_list,
            level_packing,
            rigid_builds: builds,
            ..
        } = workspace;

        // Branch 2: canonical list algorithm (§3.2), over the cached
        // decreasing-time order of the canonical allotment.
        if self.branches.canonical_list {
            let makespan = canonical_list.refresh(m, canonical, &mut builds.canonical_list, |s| {
                schedule_rigid_on(
                    timeline,
                    instance,
                    &canonical.allotment,
                    canonical.sorted_by_decreasing_time(),
                    s,
                )
            });
            consider(Branch::CanonicalList, makespan);
        }

        // Branch 3: malleable list algorithm (§3.1) on the θ-allotment.
        // When that allotment is the canonical one and its order already
        // puts every parallel task first, the schedule is the canonical
        // list schedule, which was considered first and wins ties.
        if self.branches.malleable_list {
            let mla = MalleableListAlgorithm::default();
            if let Ok(theta) = mla.refresh_allotment(instance, canonical.omega, theta_canonical) {
                let repeats_canonical_list = self.branches.canonical_list
                    && theta.allotment == canonical.allotment
                    && parallel_tasks_lead(theta);
                if !repeats_canonical_list {
                    let makespan =
                        malleable_list.refresh(m, theta, &mut builds.malleable_list, |s| {
                            parallel_first_order(theta, order);
                            schedule_rigid_on(timeline, instance, &theta.allotment, order, s)
                        });
                    consider(Branch::MalleableList, makespan);
                }
            }
        }

        // Branch 4: FFDH level packing of the canonical allotment.
        if self.branches.level_packing {
            let makespan = level_packing.refresh(m, canonical, &mut builds.level_packing, |s| {
                level_packing_into(instance, canonical, rects, s)
            });
            consider(Branch::LevelPacking, makespan);
        }

        let (branch, makespan) = best?;
        let schedule = match branch {
            Branch::TwoShelf(_) => shelf,
            Branch::CanonicalList => canonical_list.schedule().cloned(),
            Branch::MalleableList => malleable_list.schedule().cloned(),
            Branch::LevelPacking => level_packing.schedule().cloned(),
        }?;
        Some((schedule, branch, makespan))
    }
}

impl DualApproximation for MrtScheduler {
    fn name(&self) -> &'static str {
        "mrt-sqrt3"
    }

    fn guarantee(&self, _instance: &Instance) -> f64 {
        1.0 + self.lambda
    }

    fn probe(&self, instance: &Instance, omega: f64) -> DualOutcome {
        self.probe_with_report(instance, omega).0
    }

    fn probe_with_workspace(
        &self,
        instance: &Instance,
        omega: f64,
        workspace: &mut ProbeWorkspace,
    ) -> DualOutcome {
        self.probe_with_report_in(instance, omega, workspace).0
    }
}

/// Schedule the canonical allotment with FFDH level packing.  This is the
/// Ludwig-style "strip packing on a fixed allotment" step, exposed here so the
/// combined scheduler can use it as an extra branch.
pub fn level_packing_schedule(instance: &Instance, canonical: &CanonicalAllotment) -> Schedule {
    level_packing_schedule_in(instance, canonical, &mut Vec::new())
}

/// Same as [`level_packing_schedule`], writing the intermediate rectangles
/// into a caller-provided scratch buffer (cleared first) so repeated probes
/// reuse the same heap storage.
pub fn level_packing_schedule_in(
    instance: &Instance,
    canonical: &CanonicalAllotment,
    rects: &mut Vec<Rect>,
) -> Schedule {
    let mut schedule = Schedule::new(instance.processors());
    level_packing_into(instance, canonical, rects, &mut schedule);
    schedule
}

/// [`level_packing_schedule_in`], appending to `schedule` (which the
/// caller provides empty) so a kept schedule is rebuilt in place.
fn level_packing_into(
    instance: &Instance,
    canonical: &CanonicalAllotment,
    rects: &mut Vec<Rect>,
    schedule: &mut Schedule,
) {
    rects.clear();
    rects.extend(
        (0..instance.task_count())
            .map(|t| Rect::new(canonical.allotment.processors(t), canonical.times[t])),
    );
    let packing = ffdh(rects, instance.processors());
    for placement in &packing.placements {
        let t = placement.index;
        schedule.push(ScheduledTask {
            task: t,
            start: placement.y,
            duration: canonical.times[t],
            processors: ProcessorRange::new(placement.x, canonical.allotment.processors(t)),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breakpoints;
    use crate::solver::{MrtSolver, SolveOutcome, SolveRequest, Solver};
    use crate::task::SpeedupProfile;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn mixed_instance(seed: u64, n: usize, m: usize) -> Instance {
        let mut rng = StdRng::seed_from_u64(seed);
        let profiles: Vec<SpeedupProfile> = (0..n)
            .map(|_| {
                let work: f64 = rng.gen_range(0.5..8.0);
                let seq_fraction: f64 = rng.gen_range(0.05..0.6);
                SpeedupProfile::from_fn(m, |p| {
                    work * (seq_fraction + (1.0 - seq_fraction) / p as f64)
                })
                .unwrap()
            })
            .collect();
        Instance::from_profiles(profiles, m).unwrap()
    }

    /// The `mrt` solver with every knob at its default.
    fn schedule(inst: &Instance) -> SolveOutcome {
        MrtSolver.solve(&SolveRequest::new(inst)).unwrap()
    }

    #[test]
    fn schedule_convenience_produces_valid_result() {
        let inst = mixed_instance(7, 12, 8);
        let result = schedule(&inst);
        assert!(result.schedule.validate(&inst).is_ok());
        assert!(result.makespan() >= result.lower_bound - 1e-9);
    }

    #[test]
    fn guarantee_is_sqrt3_with_default_lambda() {
        let scheduler = MrtScheduler::default();
        let inst = mixed_instance(1, 4, 4);
        assert!((scheduler.guarantee(&inst) - 3f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn invalid_lambda_is_rejected() {
        assert!(MrtScheduler::with_lambda(0.3).is_err());
        assert!(MrtScheduler::with_lambda(1.5).is_err());
        assert!(MrtScheduler::with_lambda(0.9).is_ok());
    }

    #[test]
    fn probe_reports_area_and_branch() {
        let inst = mixed_instance(3, 10, 8);
        let scheduler = MrtScheduler::default();
        let omega = bounds::upper_bound(&inst);
        let (outcome, report) = scheduler.probe_with_report(&inst, omega);
        assert!(outcome.is_feasible());
        assert!(report.branch.is_some());
        assert!(report.lambda_area.unwrap() > 0.0);
        assert!(report.makespan.unwrap() > 0.0);
    }

    #[test]
    fn probe_rejects_certifiably_infeasible_omega() {
        let inst = mixed_instance(5, 6, 4);
        let scheduler = MrtScheduler::default();
        let lb = bounds::lower_bound(&inst);
        let (outcome, report) = scheduler.probe_with_report(&inst, lb * 0.3);
        assert!(!outcome.is_feasible());
        assert!(report.branch.is_none());
    }

    #[test]
    fn ratio_stays_below_sqrt3_on_moderate_machines() {
        // The paper's regime: m comfortably above m_λ.  The a-posteriori
        // ratio (makespan vs certified lower bound) must stay below √3 plus
        // the dichotomic-search slack.
        for seed in 0..12u64 {
            let inst = mixed_instance(seed, 20, 16);
            let result = schedule(&inst);
            assert!(result.schedule.validate(&inst).is_ok());
            let ratio = result.ratio();
            assert!(
                ratio <= 3f64.sqrt() + 0.02,
                "seed {seed}: ratio {ratio} exceeds √3"
            );
        }
    }

    #[test]
    fn level_packing_branch_is_valid() {
        let inst = mixed_instance(11, 15, 8);
        let omega = bounds::upper_bound(&inst);
        let canonical = CanonicalAllotment::compute(&inst, omega).unwrap();
        let schedule = level_packing_schedule(&inst, &canonical);
        assert!(schedule.validate(&inst).is_ok());
    }

    #[test]
    fn single_task_instances_are_scheduled_optimally() {
        let inst =
            Instance::from_profiles(vec![SpeedupProfile::linear(6.0, 6).unwrap()], 6).unwrap();
        let result = schedule(&inst);
        assert!((result.schedule.makespan() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn all_sequential_instance_matches_lpt_quality() {
        let inst = Instance::from_profiles(
            (0..9)
                .map(|i| SpeedupProfile::sequential(1.0 + 0.1 * i as f64).unwrap())
                .collect(),
            3,
        )
        .unwrap();
        let result = schedule(&inst);
        assert!(result.schedule.validate(&inst).is_ok());
        // LPT on these durations is within 4/3 of the optimum; the MRT result
        // must not be worse than that.
        assert!(
            result.ratio() <= 4.0 / 3.0 + 0.05,
            "ratio {}",
            result.ratio()
        );
    }

    #[test]
    fn branch_sets_can_be_restricted() {
        let inst = mixed_instance(9, 10, 8);
        let all = schedule(&inst);
        for branches in [BranchSet::two_shelf_only(), BranchSet::lists_only()] {
            let restricted = MrtSolver
                .solve(&SolveRequest::new(&inst).with_branches(branches))
                .unwrap();
            assert!(restricted.schedule.validate(&inst).is_ok());
            // The full scheduler keeps the best branch, so restricting the
            // branch set can never improve the result.
            assert!(all.schedule.makespan() <= restricted.schedule.makespan() + 1e-9);
        }
        let none = BranchSet {
            two_shelf: false,
            canonical_list: false,
            malleable_list: false,
            level_packing: false,
        };
        assert!(MrtSolver
            .solve(&SolveRequest::new(&inst).with_branches(none))
            .is_err());
    }

    /// The schedule a probe returned, if any.
    fn schedule_of(outcome: &DualOutcome) -> Option<&Schedule> {
        match outcome {
            DualOutcome::Feasible(schedule) => Some(schedule),
            DualOutcome::Infeasible => None,
        }
    }

    /// The report fields a probe must reproduce, floats as bit patterns.
    fn report_bits(
        report: &ProbeReport,
    ) -> (Option<Branch>, Option<u64>, Option<u64>, Option<bool>) {
        (
            report.branch,
            report.makespan.map(f64::to_bits),
            report.lambda_area.map(f64::to_bits),
            report.area_condition,
        )
    }

    /// The winning branch and makespan of a probe, recomputed from the
    /// public branch functions, each built from scratch, keeping the first
    /// strictly shortest schedule as the oracle does.
    fn reference_probe(
        scheduler: &MrtScheduler,
        inst: &Instance,
        omega: f64,
    ) -> Option<(Branch, u64)> {
        if !bounds::may_be_feasible(inst, omega) {
            return None;
        }
        let canonical = CanonicalAllotment::compute(inst, omega).ok()?;
        let on = scheduler.branches;
        let params = scheduler.two_shelf_params();
        let candidates = [
            on.two_shelf
                .then(|| two_shelf::build_with_canonical(inst, &canonical, params))
                .flatten()
                .map(|ts| (Branch::TwoShelf(ts.kind), ts.schedule.makespan())),
            on.canonical_list.then(|| {
                let order = canonical.sorted_by_decreasing_time();
                let list = crate::list::schedule_rigid_in_order(inst, &canonical.allotment, order);
                (Branch::CanonicalList, list.makespan())
            }),
            on.malleable_list
                .then(|| MalleableListAlgorithm::default().build(inst, omega).ok())
                .flatten()
                .map(|s| (Branch::MalleableList, s.makespan())),
            on.level_packing.then(|| {
                let level = level_packing_schedule(inst, &canonical);
                (Branch::LevelPacking, level.makespan())
            }),
        ];
        let mut best: Option<(Branch, f64)> = None;
        for (branch, makespan) in candidates.into_iter().flatten() {
            if best.is_none_or(|(_, b)| makespan < b) {
                best = Some((branch, makespan));
            }
        }
        best.map(|(branch, makespan)| (branch, makespan.to_bits()))
    }

    #[test]
    fn kept_schedules_are_rebuilt_when_only_the_machine_changes() {
        // The same profiles on 4 and on 8 processors: at the upper bound
        // both machines get the same canonical allotment (counts, times and
        // order), yet the list and level schedules differ with m.
        let narrow = mixed_instance(4, 12, 4);
        let profiles = narrow.tasks().iter().map(|t| t.profile.clone()).collect();
        let wide = Instance::from_profiles(profiles, 8).unwrap();
        let omega = bounds::upper_bound(&narrow);
        assert_eq!(
            CanonicalAllotment::compute(&narrow, omega).unwrap(),
            CanonicalAllotment::compute(&wide, omega).unwrap()
        );
        let scheduler = MrtScheduler::default();
        let mut workspace = ProbeWorkspace::new();
        scheduler.probe_with_report_in(&narrow, omega, &mut workspace);
        let before = workspace.rigid_builds();
        let (reused, reused_report) = scheduler.probe_with_report_in(&wide, omega, &mut workspace);
        let (fresh, fresh_report) = scheduler.probe_with_report(&wide, omega);
        assert!(fresh.is_feasible());
        assert_eq!(schedule_of(&reused), schedule_of(&fresh));
        assert_eq!(report_bits(&reused_report), report_bits(&fresh_report));
        let after = workspace.rigid_builds();
        assert_eq!(after.canonical_list, before.canonical_list + 1);
        assert_eq!(after.level_packing, before.level_packing + 1);
        // The same probe again finds every kept schedule current.
        scheduler.probe_with_report_in(&wide, omega, &mut workspace);
        assert_eq!(workspace.rigid_builds(), after);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        /// One reused workspace gives every probe the answer of a fresh one,
        /// bit for bit, while the guess repeats, crosses breakpoints and
        /// drops below the lower bound, the instance changes its machine
        /// size or its profiles at the same task count, and the branch set
        /// changes.  Both agree with the branches built from scratch through
        /// their public functions, and a probe that repeats the previous one
        /// builds nothing.
        #[test]
        fn kept_schedules_match_fresh_probes(
            seed in 0u64..400,
            n in 2usize..14,
            m in 2usize..10,
            steps in prop::collection::vec((0usize..3, 0usize..10, 0usize..5), 1..40),
        ) {
            let base = mixed_instance(seed, n, m);
            let profiles = base.tasks().iter().map(|t| t.profile.clone()).collect();
            let wider = Instance::from_profiles(profiles, m + 3).unwrap();
            let instances = [base, wider, mixed_instance(seed + 1, n, m)];
            // Per instance: guesses below the lower bound, at it, between
            // the bounds, at the upper bound, and on both sides of the three
            // breakpoints nearest above the lower bound.
            let guesses: Vec<Vec<f64>> = instances
                .iter()
                .map(|inst| {
                    let (lb, ub) = (bounds::lower_bound(inst), bounds::upper_bound(inst));
                    let mut menu = vec![0.5 * lb, lb, 0.5 * (lb + ub), ub];
                    for &b in breakpoints::collect(inst).iter().filter(|&&b| b >= lb).take(3) {
                        menu.extend([b * (1.0 - 1e-9), b]);
                    }
                    menu
                })
                .collect();
            let branch_sets = [
                BranchSet::default(),
                BranchSet::lists_only(),
                BranchSet { canonical_list: false, ..BranchSet::default() },
                BranchSet { two_shelf: false, malleable_list: false, ..BranchSet::default() },
                BranchSet { malleable_list: true, ..BranchSet::two_shelf_only() },
            ];
            let mut workspace = ProbeWorkspace::new();
            let mut previous = None;
            for &(which, guess, branches) in &steps {
                let inst = &instances[which];
                let omega = guesses[which][guess % guesses[which].len()];
                let scheduler = MrtScheduler { branches: branch_sets[branches], ..MrtScheduler::default() };
                let builds = workspace.rigid_builds();
                let (reused, reused_report) = scheduler.probe_with_report_in(inst, omega, &mut workspace);
                let (fresh, fresh_report) = scheduler.probe_with_report(inst, omega);
                prop_assert_eq!(schedule_of(&reused), schedule_of(&fresh), "ω = {}", omega);
                prop_assert_eq!(report_bits(&reused_report), report_bits(&fresh_report));
                let winner = fresh_report.branch.zip(fresh_report.makespan.map(f64::to_bits));
                prop_assert_eq!(winner, reference_probe(&scheduler, inst, omega), "ω = {}", omega);
                let step = (which, omega.to_bits(), branches);
                if previous == Some(step) {
                    prop_assert_eq!(workspace.rigid_builds(), builds, "a repeated probe rebuilt");
                }
                previous = Some(step);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// End-to-end: schedules are always valid and the achieved ratio stays
        /// below the paper's guarantee (plus search slack) for machines in the
        /// theorem regime, and below 2 even for small machines.
        #[test]
        fn end_to_end_guarantee(seed in 0u64..500, n in 3usize..24, m in 4usize..20) {
            let inst = mixed_instance(seed, n, m);
            let result = schedule(&inst);
            prop_assert!(result.schedule.validate(&inst).is_ok());
            let ratio = result.ratio();
            let cap = if m >= 8 { 3f64.sqrt() + 0.02 } else { 2.0 };
            prop_assert!(ratio <= cap, "ratio {ratio} exceeds cap {cap} (m = {m})");
        }
    }
}
