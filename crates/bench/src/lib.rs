//! Shared harness for the reproduction experiments.
//!
//! Every experiment listed in README "Experiments" is regenerated by one of the
//! binaries in `src/bin/` (human-readable reports) and measured by one of the
//! Criterion benches in `benches/` (timings).  This library hosts the pieces
//! they share: the workload families of the evaluation, registry-driven
//! solver sweeps (every algorithm comes from `solver::default_registry()`,
//! not a hard-coded list), ratio computation and small statistics helpers.

#![warn(missing_docs)]

use malleable_core::bounds;
use malleable_core::prelude::*;
pub use solver::default_registry;
use workload::{WorkloadConfig, WorkloadGenerator};

/// The workload families used throughout the evaluation.
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
    pub fn name(&self) -> &'static str {
        match self {
            Family::Mixed => "mixed",
            Family::WideTasks => "wide-tasks",
            Family::SequentialHeavy => "sequential-heavy",
        }
    }

    /// Build the workload configuration of this family.
    pub fn config(&self, tasks: usize, processors: usize, seed: u64) -> WorkloadConfig {
        match self {
            Family::Mixed => WorkloadConfig::mixed(tasks, processors, seed),
            Family::WideTasks => WorkloadConfig::wide_tasks(tasks, processors, seed),
            Family::SequentialHeavy => WorkloadConfig::sequential_heavy(tasks, processors, seed),
        }
    }

    /// Generate one instance of this family.
    pub fn instance(&self, tasks: usize, processors: usize, seed: u64) -> Instance {
        WorkloadGenerator::new(self.config(tasks, processors, seed))
            .generate()
            .expect("workload generation succeeds")
    }
}

/// Every registered solver, in registry order — the evaluation sweeps this
/// list instead of a hard-coded algorithm enum, so a solver registered in
/// the `solver` crate shows up in every report automatically.
pub fn all_solvers() -> Vec<SolverHandle> {
    default_registry().solvers().collect()
}

/// Run a solver on an instance with default request knobs and return its
/// makespan.
pub fn solver_makespan(handle: &dyn Solver, instance: &Instance) -> f64 {
    handle
        .solve(&SolveRequest::new(instance))
        .expect("solver succeeds")
        .makespan()
}

/// Run a solver and return its ratio against the static lower bound (the
/// same normaliser for every algorithm, so cross-solver ratios compare).
pub fn solver_ratio(handle: &dyn Solver, instance: &Instance) -> f64 {
    solver_makespan(handle, instance) / bounds::lower_bound(instance)
}

/// Trace families and policy sets shared by the online benchmarks and the
/// competitive-ratio report binary.
pub mod online_traces {
    use online::policy::PolicyKind;
    use workload::{ArrivalPattern, ArrivalTrace, DeparturePolicy, TraceConfig, WorkloadConfig};

    /// A named generator of arrival traces (seed-parameterised).
    #[derive(Debug, Clone, Copy)]
    pub struct TraceFamily {
        /// Stable name used in reports.
        pub name: &'static str,
        tasks: usize,
        processors: usize,
        pattern: ArrivalPattern,
        workload: fn(usize, usize, u64) -> WorkloadConfig,
        /// Mean exponential patience before an unstarted task departs
        /// (`None` = no departures).
        departure_patience: Option<f64>,
    }

    impl TraceFamily {
        /// Generate the trace of this family for one seed.
        pub fn trace(&self, seed: u64) -> ArrivalTrace {
            let trace = ArrivalTrace::generate(&TraceConfig {
                workload: (self.workload)(self.tasks, self.processors, seed),
                pattern: self.pattern,
            })
            .expect("trace generation succeeds");
            match self.departure_patience {
                Some(mean) => trace
                    .with_departures(DeparturePolicy::Patience { mean }, seed)
                    .expect("valid departure policy"),
                None => trace,
            }
        }

        /// Whether the family's traces carry departure deadlines.
        pub fn has_departures(&self) -> bool {
            self.departure_patience.is_some()
        }
    }

    /// The trace families of the online evaluation: light and heavy Poisson
    /// traffic, synchronised bursts, and bursty traffic with departures.
    pub fn trace_families() -> Vec<TraceFamily> {
        vec![
            TraceFamily {
                name: "poisson-light",
                tasks: 120,
                processors: 16,
                pattern: ArrivalPattern::Poisson { rate: 1.0 },
                workload: WorkloadConfig::mixed,
                departure_patience: None,
            },
            TraceFamily {
                name: "poisson-heavy",
                tasks: 120,
                processors: 16,
                pattern: ArrivalPattern::Poisson { rate: 8.0 },
                workload: WorkloadConfig::mixed,
                departure_patience: None,
            },
            TraceFamily {
                name: "bursty-wide",
                tasks: 90,
                processors: 16,
                pattern: ArrivalPattern::Bursty {
                    burst_size: 18,
                    burst_gap: 4.0,
                },
                workload: WorkloadConfig::wide_tasks,
                departure_patience: None,
            },
        ]
    }

    /// The bursty suite of the backfill/departure evaluation: synchronised
    /// bursts of mixed traffic (staircase holes below the frontier), with
    /// and without departure deadlines.
    pub fn bursty_suite() -> Vec<TraceFamily> {
        vec![
            TraceFamily {
                name: "bursty-mixed",
                tasks: 96,
                processors: 16,
                pattern: ArrivalPattern::Bursty {
                    burst_size: 16,
                    burst_gap: 3.0,
                },
                workload: WorkloadConfig::mixed,
                departure_patience: None,
            },
            TraceFamily {
                name: "bursty-departures",
                tasks: 96,
                processors: 16,
                pattern: ArrivalPattern::Bursty {
                    burst_size: 16,
                    burst_gap: 3.0,
                },
                workload: WorkloadConfig::mixed,
                departure_patience: Some(6.0),
            },
        ]
    }

    /// The bursty **overload** suite of the mid-execution re-allotment
    /// evaluation: large synchronised bursts on a small machine, so every
    /// burst lands while wide tasks from the previous one are still
    /// running — exactly the regime where truncating running commitments
    /// and re-solving their residuals jointly with the backlog pays off.
    /// With and without departure deadlines.
    pub fn bursty_overload_suite() -> Vec<TraceFamily> {
        vec![
            TraceFamily {
                name: "bursty-overload",
                tasks: 96,
                processors: 8,
                pattern: ArrivalPattern::Bursty {
                    burst_size: 24,
                    burst_gap: 2.0,
                },
                workload: WorkloadConfig::mixed,
                departure_patience: None,
            },
            TraceFamily {
                name: "bursty-overload-departures",
                tasks: 96,
                processors: 8,
                pattern: ArrivalPattern::Bursty {
                    burst_size: 24,
                    burst_gap: 2.0,
                },
                workload: WorkloadConfig::mixed,
                departure_patience: Some(12.0),
            },
        ]
    }

    /// The policies compared in the online evaluation, with their offline
    /// solvers resolved through the registry.
    pub fn online_policies() -> Vec<PolicyKind> {
        let registry = solver::default_registry();
        let get = |name: &str| registry.get(name).expect("registered solver");
        vec![
            PolicyKind::Greedy,
            PolicyKind::Epoch {
                period: 1.0,
                solver: get("mrt"),
            },
            PolicyKind::Epoch {
                period: 1.0,
                solver: get("ludwig"),
            },
            PolicyKind::Batch { solver: get("mrt") },
        ]
    }
}

/// Simple summary statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
}

/// Summarise a sample of observations.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "cannot summarise an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let count = sorted.len();
    let mean = sorted.iter().sum::<f64>() / count as f64;
    let p95_index = ((0.95 * count as f64).ceil() as usize).clamp(1, count) - 1;
    Summary {
        count,
        mean,
        min: sorted[0],
        max: sorted[count - 1],
        p95: sorted[p95_index],
    }
}

/// Collect the approximation ratios of one solver over a family sweep.
pub fn ratio_sweep(
    handle: &dyn Solver,
    family: Family,
    tasks: usize,
    processors: usize,
    seeds: std::ops::Range<u64>,
) -> Vec<f64> {
    seeds
        .map(|seed| solver_ratio(handle, &family.instance(tasks, processors, seed)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_statistics_are_correct() {
        let s = summarize(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.count, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert_eq!(s.p95, 4.0);
    }

    #[test]
    fn families_and_solvers_have_stable_names() {
        assert_eq!(Family::ALL.len(), 3);
        assert_eq!(Family::Mixed.name(), "mixed");
        let names: Vec<&str> = default_registry().names().collect();
        assert!(names.contains(&"mrt") && names.contains(&"ludwig"));
    }

    #[test]
    fn ratio_sweep_produces_reasonable_values() {
        let mrt = default_registry().get("mrt").unwrap();
        let ratios = ratio_sweep(mrt.as_ref(), Family::Mixed, 12, 8, 0..3);
        assert_eq!(ratios.len(), 3);
        for r in ratios {
            assert!((1.0 - 1e-9..=malleable_core::SQRT3 + 0.05).contains(&r));
        }
    }

    #[test]
    fn bursty_suite_families_generate_with_departures() {
        let suite = online_traces::bursty_suite();
        assert_eq!(suite.len(), 2);
        assert!(!suite[0].has_departures());
        assert!(suite[1].has_departures());
        let trace = suite[1].trace(3);
        assert!(trace.has_departures());
        assert_eq!(trace, suite[1].trace(3), "deterministic per seed");
    }

    #[test]
    fn online_trace_families_generate_and_run() {
        let families = online_traces::trace_families();
        assert_eq!(families.len(), 3);
        let trace = families[0].trace(1);
        assert_eq!(trace.len(), 120);
        // Same seed → same trace (the report is reproducible).
        assert_eq!(families[0].trace(1), trace);
        let mut policy = online_traces::online_policies()[0].build().unwrap();
        let result = online::run(&trace, policy.as_mut()).unwrap();
        assert!(result.makespan.is_finite() && result.makespan > 0.0);
    }

    #[test]
    fn all_registered_solvers_produce_finite_makespans() {
        let instance = Family::Mixed.instance(10, 8, 1);
        for handle in all_solvers() {
            let makespan = solver_makespan(handle.as_ref(), &instance);
            assert!(makespan.is_finite() && makespan > 0.0, "{}", handle.name());
        }
    }
}
