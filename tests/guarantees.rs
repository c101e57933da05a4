//! Worst-case guarantee tests: the measured approximation ratios never exceed
//! the bounds the paper claims (plus the dichotomic-search slack).

use malleable_core::bounds;
use malleable_core::prelude::*;
use workload::{WorkloadConfig, WorkloadGenerator};

const SEARCH_SLACK: f64 = 0.02;

fn ratio_of(instance: &Instance) -> f64 {
    MrtSolver
        .solve(&SolveRequest::new(instance))
        .expect("scheduling succeeds")
        .ratio()
}

#[test]
fn sqrt3_guarantee_holds_across_families_on_moderate_machines() {
    let mut checked = 0usize;
    for m in [8usize, 16, 32] {
        for seed in 0..6u64 {
            for config in [
                WorkloadConfig::mixed(30, m, seed),
                WorkloadConfig::wide_tasks(20, m, seed),
                WorkloadConfig::sequential_heavy(40, m, seed),
            ] {
                let instance = WorkloadGenerator::new(config).generate().unwrap();
                let ratio = ratio_of(&instance);
                assert!(
                    ratio <= malleable_core::SQRT3 + SEARCH_SLACK,
                    "ratio {ratio} exceeds √3 on m = {m}, seed = {seed}"
                );
                checked += 1;
            }
        }
    }
    assert!(checked >= 50, "the sweep must cover a meaningful sample");
}

#[test]
fn small_machines_stay_within_two() {
    // Below m_λ the paper's λ-schedule existence is not asserted; the list
    // branches still keep the combined scheduler within 2.
    for m in [2usize, 3, 4, 5] {
        for seed in 0..8u64 {
            let instance = WorkloadGenerator::new(WorkloadConfig::mixed(15, m, seed))
                .generate()
                .unwrap();
            let ratio = ratio_of(&instance);
            assert!(ratio <= 2.0 + 1e-6, "ratio {ratio} exceeds 2 on m = {m}");
        }
    }
}

#[test]
fn adversarial_equal_wide_tasks() {
    // k tasks that each need just over half the machine: no two can run in
    // parallel at their canonical count — the shape that defeats naive area
    // arguments.  The two-shelf construction (or compression) must keep the
    // ratio at √3.
    for m in [8usize, 12, 16] {
        let half_plus = m / 2 + 1;
        let profile = SpeedupProfile::from_fn(m, |p| {
            // Work 1.0·half_plus, linear speed-up capped so canonical count at
            // deadline 1 is exactly half_plus.
            half_plus as f64 / p as f64
        })
        .unwrap();
        let instance =
            Instance::from_profiles(vec![profile.clone(), profile.clone(), profile], m).unwrap();
        let ratio = ratio_of(&instance);
        assert!(
            ratio <= malleable_core::SQRT3 + SEARCH_SLACK,
            "ratio {ratio} on m = {m}"
        );
    }
}

#[test]
fn graham_style_lpt_worst_case_is_absorbed() {
    // The classical LPT worst case (2m+1 jobs of sizes 2m-1 … m) keeps plain
    // LPT at 4/3 − 1/(3m); the malleable scheduler must not do worse.
    let m = 6usize;
    let mut durations = Vec::new();
    for k in 0..m {
        durations.push((2 * m - 1 - k) as f64);
        durations.push((2 * m - 1 - k) as f64);
    }
    durations.push(m as f64);
    let instance = Instance::from_profiles(
        durations
            .iter()
            .map(|&d| SpeedupProfile::sequential(d).unwrap())
            .collect(),
        m,
    )
    .unwrap();
    let ratio = ratio_of(&instance);
    assert!(ratio <= 4.0 / 3.0 + 0.02, "ratio {ratio}");
}

#[test]
fn certified_lower_bound_is_actually_a_lower_bound() {
    // The certified bound must never exceed the makespan of *any* valid
    // schedule we can construct: every registered solver's, in particular
    // the baselines'.
    let registry = solver::default_registry();
    // Two linear tasks of work 3 on three processors are both tall at any
    // guess below 3, yet run back to back on the whole machine in 2 (as
    // `ludwig` schedules them): the tall-task bound must sum `t_j(m)`, not
    // the canonical times.
    let two_tall =
        Instance::from_profiles(vec![SpeedupProfile::linear(3.0, 3).unwrap(); 2], 3).unwrap();
    let generated = (0..10u64).map(|seed| {
        WorkloadGenerator::new(WorkloadConfig::mixed(20, 12, seed))
            .generate()
            .unwrap()
    });
    for instance in generated.chain([two_tall]) {
        let request = SolveRequest::new(&instance);
        let lb = MrtSolver.solve(&request).unwrap().lower_bound;
        for handle in registry.solvers() {
            let schedule = handle.solve(&request).unwrap().schedule;
            assert!(
                schedule.makespan() >= lb - 1e-6,
                "certified bound {lb} exceeds a real schedule of length {}",
                schedule.makespan()
            );
        }
        assert!(lb >= bounds::lower_bound(&instance) - 1e-9);
    }
}

#[test]
fn guarantee_scales_with_lambda_parameter() {
    // Using a larger λ weakens the guarantee (1 + λ) but never the validity.
    let instance = WorkloadGenerator::new(WorkloadConfig::wide_tasks(18, 16, 5))
        .generate()
        .unwrap();
    for lambda in [0.6, 0.75, malleable_core::LAMBDA_SQRT3, 0.9, 1.0] {
        let result = MrtSolver
            .solve(&SolveRequest::new(&instance).with_lambda(lambda))
            .unwrap();
        assert!(result.schedule.validate(&instance).is_ok());
        assert!(result.ratio() <= 1.0 + lambda + 0.30, "λ = {lambda}");
    }
}
