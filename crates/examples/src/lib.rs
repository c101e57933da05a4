//! Shared helpers for the runnable examples.
//!
//! The example binaries live in the workspace-level `examples/` directory
//! (see the `[[example]]` entries in this crate's manifest); this library
//! hosts what they share: the workload families of the evaluation, checked
//! solver runs, small summary statistics and a comparison-row formatter.

#![warn(missing_docs)]

use malleable_core::{bounds, Instance, Schedule, SolveRequest, Solver};
use workload::{WorkloadConfig, WorkloadGenerator};

/// The workload families of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// A mix of Amdahl / power-law / communication / sequential tasks.
    Mixed,
    /// Dominated by tasks wider than half the machine (knapsack regime).
    WideTasks,
    /// Dominated by small sequential tasks (LPT regime).
    SequentialHeavy,
}

impl Family {
    /// All families, in report order.
    pub const ALL: [Family; 3] = [Family::Mixed, Family::WideTasks, Family::SequentialHeavy];

    /// Stable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Family::Mixed => "mixed",
            Family::WideTasks => "wide-tasks",
            Family::SequentialHeavy => "sequential-heavy",
        }
    }

    /// Generate one instance of this family.
    pub fn instance(self, tasks: usize, processors: usize, seed: u64) -> Instance {
        let config = match self {
            Family::Mixed => WorkloadConfig::mixed,
            Family::WideTasks => WorkloadConfig::wide_tasks,
            Family::SequentialHeavy => WorkloadConfig::sequential_heavy,
        };
        WorkloadGenerator::new(config(tasks, processors, seed))
            .generate()
            .expect("workload generation succeeds")
    }
}

/// Solve `instance` with default request knobs, check the schedule and
/// return its makespan.
pub fn solver_makespan(solver: &dyn Solver, instance: &Instance) -> f64 {
    let outcome = solver
        .solve(&SolveRequest::new(instance))
        .expect("solver succeeds");
    assert!(
        outcome.schedule.validate(instance).is_ok(),
        "{} built an invalid schedule",
        solver.name()
    );
    outcome.makespan()
}

/// The ratios of one solver against the static lower bound over a family
/// sweep — the same normaliser for every solver, so ratios compare across
/// solvers.
pub fn ratio_sweep(
    solver: &dyn Solver,
    family: Family,
    tasks: usize,
    processors: usize,
    seeds: std::ops::Range<u64>,
) -> Vec<f64> {
    seeds
        .map(|seed| {
            let instance = family.instance(tasks, processors, seed);
            solver_makespan(solver, &instance) / bounds::lower_bound(&instance)
        })
        .collect()
}

/// Summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
    /// Maximum value.
    pub max: f64,
}

/// Summarise a non-empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "cannot summarise an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let count = sorted.len();
    let p95_index = ((0.95 * count as f64).ceil() as usize).clamp(1, count) - 1;
    Summary {
        mean: sorted.iter().sum::<f64>() / count as f64,
        p95: sorted[p95_index],
        max: sorted[count - 1],
    }
}

/// Format a one-line comparison row: algorithm name, makespan, ratio to the
/// certified lower bound and utilisation.
pub fn comparison_row(name: &str, instance: &Instance, schedule: &Schedule) -> String {
    let lb = bounds::lower_bound(instance);
    format!(
        "{name:<22} makespan = {:>8.3}   ratio vs LB = {:>5.3}   utilisation = {:>5.1}%",
        schedule.makespan(),
        schedule.makespan() / lb,
        100.0 * schedule.utilization()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleable_core::prelude::*;

    #[test]
    fn comparison_row_mentions_name_and_ratio() {
        let inst =
            Instance::from_profiles(vec![SpeedupProfile::linear(4.0, 4).unwrap()], 4).unwrap();
        let result = MrtSolver.solve(&SolveRequest::new(&inst)).unwrap();
        let row = comparison_row("mrt", &inst, &result.schedule);
        assert!(row.contains("mrt"));
        assert!(row.contains("ratio"));
    }

    #[test]
    fn summary_statistics_are_correct() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.p95, 4.0);
    }

    #[test]
    fn families_and_solvers_have_stable_names() {
        assert_eq!(Family::ALL.len(), 3);
        assert_eq!(Family::Mixed.name(), "mixed");
        let names: Vec<&str> = solver::default_registry().names().collect();
        assert!(names.contains(&"mrt") && names.contains(&"ludwig"));
    }

    #[test]
    fn ratio_sweep_produces_reasonable_values() {
        let mrt = solver::default_registry().get("mrt").unwrap();
        let ratios = ratio_sweep(mrt.as_ref(), Family::Mixed, 12, 8, 0..3);
        assert_eq!(ratios.len(), 3);
        for r in ratios {
            assert!((1.0 - 1e-9..=SQRT3 + 0.05).contains(&r));
        }
    }

    #[test]
    fn all_registered_solvers_produce_finite_makespans() {
        let instance = Family::Mixed.instance(10, 8, 1);
        for handle in solver::default_registry().solvers() {
            let makespan = solver_makespan(handle.as_ref(), &instance);
            assert!(makespan.is_finite() && makespan > 0.0, "{}", handle.name());
        }
    }
}
