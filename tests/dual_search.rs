//! Behaviour of the dual-approximation dichotomic search (§2.2 of the paper):
//! convergence with the number of probes, monotonicity of the oracles, and
//! consistency of the certified bounds.

use malleable_core::bounds;
use malleable_core::prelude::*;
use workload::{WorkloadConfig, WorkloadGenerator};

/// Bisect with the MRT oracle under `search`: the iteration budget and the
/// tolerance are search fields a `SolveRequest` does not carry.
fn bisect(search: DualSearch, inst: &Instance) -> SearchResult {
    search
        .solve_guided(
            inst,
            &MrtScheduler::default(),
            SearchMode::Bisect,
            None,
            &mut ProbeWorkspace::new(),
        )
        .unwrap()
}

fn instance(seed: u64) -> Instance {
    WorkloadGenerator::new(WorkloadConfig::mixed(25, 12, seed))
        .generate()
        .unwrap()
}

#[test]
fn interval_shrinks_geometrically_with_iterations() {
    let inst = instance(1);
    let mut previous_gap = f64::INFINITY;
    for iterations in [1usize, 4, 8, 16, 32] {
        let result = bisect(DualSearch::with_iterations(iterations), &inst);
        let gap = result.feasible_omega - result.certified_lower_bound;
        assert!(
            gap <= previous_gap + 1e-9,
            "gap must not grow with iterations"
        );
        previous_gap = gap;
    }
    // After 32 iterations the interval is essentially closed.
    assert!(previous_gap <= 1e-3 * bounds::upper_bound(&inst));
}

#[test]
fn probe_count_matches_iteration_budget() {
    let inst = instance(2);
    let search = DualSearch {
        iterations: 10,
        relative_tolerance: 0.0,
        ..Default::default()
    };
    let result = bisect(search, &inst);
    // 1 probe to validate the upper end (it is feasible) + 10 bisections.
    assert_eq!(result.probes, 11);
}

#[test]
fn probe_cap_bounds_both_search_modes() {
    let inst = instance(4);
    let mut ws = ProbeWorkspace::new();
    for mode in [SearchMode::Bisect, SearchMode::Exact] {
        let request = SolveRequest::new(&inst)
            .with_mode(mode)
            .with_probe_budget(3);
        let result = MrtSolver.solve_with_workspace(&request, &mut ws).unwrap();
        // The cap plus the single climb probe establishing feasibility.
        assert!(result.probes <= 4, "{mode:?}: {} probes", result.probes);
        assert!(result.schedule.validate(&inst).is_ok());
        assert!(result.makespan() >= result.lower_bound - 1e-9);
    }
}

#[test]
fn all_oracles_are_monotone_in_omega() {
    let inst = instance(3);
    let lb = bounds::lower_bound(&inst);
    let ub = bounds::upper_bound(&inst);
    let oracles: Vec<Box<dyn DualApproximation>> = vec![
        Box::new(MrtScheduler::default()),
        Box::new(CanonicalListAlgorithm::default()),
        Box::new(MalleableListAlgorithm::default()),
    ];
    for oracle in &oracles {
        let mut previous_feasible = false;
        let steps = 24;
        for i in 0..=steps {
            let omega = lb * 0.3 + (ub * 1.2 - lb * 0.3) * i as f64 / steps as f64;
            let feasible = oracle.probe(&inst, omega).is_feasible();
            assert!(
                feasible || !previous_feasible,
                "{} lost feasibility when ω grew",
                oracle.name()
            );
            previous_feasible = feasible;
        }
        assert!(
            previous_feasible,
            "{} must accept a generous ω",
            oracle.name()
        );
    }
}

#[test]
fn certified_bound_reaches_the_true_optimum_on_closed_form_instances() {
    // n identical perfectly-parallel tasks on m processors: OPT = n·w/m.
    let n = 10usize;
    let m = 8usize;
    let w = 4.0;
    let inst = Instance::from_profiles(
        (0..n)
            .map(|_| SpeedupProfile::linear(w, m).unwrap())
            .collect(),
        m,
    )
    .unwrap();
    let opt = n as f64 * w / m as f64;
    let result = bisect(DualSearch::with_iterations(40), &inst);
    assert!(result.certified_lower_bound >= opt - 1e-6);
    assert!(result.schedule.makespan() <= malleable_core::SQRT3 * opt + 1e-6);
}

#[test]
fn guarantee_metadata_is_reported() {
    let inst = instance(4);
    let scheduler = MrtScheduler::default();
    assert_eq!(scheduler.name(), "mrt-sqrt3");
    assert!((scheduler.guarantee(&inst) - malleable_core::SQRT3).abs() < 1e-9);
    let canonical = CanonicalListAlgorithm::default();
    assert!((canonical.guarantee(&inst) - 3f64.sqrt()).abs() < 1e-9);
    let mla = MalleableListAlgorithm::default();
    assert!(mla.guarantee(&inst) > 1.0 && mla.guarantee(&inst) < 3.0);
}
