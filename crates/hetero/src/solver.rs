//! Classed assignment + allotment solvers behind the unified [`Solver`]
//! trait: assign each task to one machine class, run the identical-machines
//! allotment search on each class pool, and merge the per-class schedules
//! onto the global processor axis.

use malleable_core::solver::SolverCapabilities;
use malleable_core::{
    Error, MrtSolver, ProcessorRange, Result, Schedule, ScheduledTask, SolveOutcome, SolveRequest,
    Solver, TaskId,
};
use telemetry::SpanTimer;

use crate::assign::{class_blind_assign, greedy_density_assign, lp_assign, Assignment};
use crate::cluster::ClassedCluster;
use crate::instance::HeteroInstance;

/// Which task → class assignment strategy a [`HeteroSolver`] runs before
/// the per-class allotment search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignStrategy {
    /// Dual-approximation LP-rounding assignment ([`lp_assign`]).
    Lp,
    /// Capacity-aware greedy density baseline ([`greedy_density_assign`]).
    GreedyDensity,
    /// Speed-blind proportional spread ([`class_blind_assign`]) — the
    /// ablation baseline, registered for the benches.
    ClassBlind,
}

impl AssignStrategy {
    /// The registry / report name of the strategy.
    pub fn name(self) -> &'static str {
        match self {
            AssignStrategy::Lp => "hetero-lp",
            AssignStrategy::GreedyDensity => "hetero-greedy",
            AssignStrategy::ClassBlind => "hetero-blind",
        }
    }

    /// Run the strategy.
    pub fn assign(self, instance: &HeteroInstance) -> Assignment {
        match self {
            AssignStrategy::Lp => lp_assign(instance),
            AssignStrategy::GreedyDensity => greedy_density_assign(instance),
            AssignStrategy::ClassBlind => class_blind_assign(instance),
        }
    }
}

/// The classed solver: assignment (per [`AssignStrategy`]) followed by the
/// breakpoint-exact MRT allotment search on every class pool.
///
/// The cluster is a *request* parameter: the `machine-classes` config key
/// (the CLI's `--machine-classes` spec syntax) selects the classed cluster,
/// and its total processor count must equal the instance's machine size.
/// Without the key the solver runs on the uniform single-class cluster —
/// the identical-machines special case, where it reproduces the `mrt`
/// solver's schedule exactly.  The `assign` key (`lp`, `greedy`, `blind`)
/// re-targets the strategy per call, mirroring the two-phase solver's
/// `rigid` key.
#[derive(Debug, Clone, Copy)]
pub struct HeteroSolver {
    /// The assignment strategy used when the request carries no `assign`
    /// override.
    pub strategy: AssignStrategy,
}

impl HeteroSolver {
    /// The flagship LP-rounding solver (`hetero-lp`).
    pub fn lp() -> Self {
        HeteroSolver {
            strategy: AssignStrategy::Lp,
        }
    }

    /// The greedy density baseline (`hetero-greedy`).
    pub fn greedy() -> Self {
        HeteroSolver {
            strategy: AssignStrategy::GreedyDensity,
        }
    }

    /// The speed-blind ablation baseline (`hetero-blind`).
    pub fn blind() -> Self {
        HeteroSolver {
            strategy: AssignStrategy::ClassBlind,
        }
    }

    fn effective_strategy(&self, request: &SolveRequest<'_>) -> Result<AssignStrategy> {
        match request.config_text("assign") {
            None => Ok(self.strategy),
            Some("lp") => Ok(AssignStrategy::Lp),
            Some("greedy") => Ok(AssignStrategy::GreedyDensity),
            Some("blind") => Ok(AssignStrategy::ClassBlind),
            Some(other) => Err(Error::InvalidConfig {
                key: "assign",
                message: format!("`{other}` is not one of lp, greedy, blind"),
            }),
        }
    }

    fn effective_cluster(&self, request: &SolveRequest<'_>) -> Result<ClassedCluster> {
        let m = request.instance.processors();
        match request.config_text("machine-classes") {
            None => ClassedCluster::uniform(m),
            Some(spec) => {
                let cluster = ClassedCluster::from_spec(spec)?;
                if cluster.total_processors() != m {
                    return Err(Error::InvalidConfig {
                        key: "machine-classes",
                        message: format!(
                            "cluster has {} processors but the instance has {m}",
                            cluster.total_processors()
                        ),
                    });
                }
                Ok(cluster)
            }
        }
    }
}

/// Assign + solve + merge on an already-built [`HeteroInstance`]: the core
/// routine behind [`HeteroSolver::solve`], exposed for callers that hold a
/// classed instance directly (the classed online engine, the benches).
///
/// Every shared request knob (search mode, branches, λ, warm start, probe
/// and time budgets) is forwarded to each per-class MRT solve, so the
/// single-class case is knob-for-knob identical to the `mrt` solver.
pub fn solve_classed(
    hetero: &HeteroInstance,
    assignment: &Assignment,
    request: &SolveRequest<'_>,
) -> Result<SolveOutcome> {
    let timer = SpanTimer::start();
    let cluster = hetero.cluster();
    let mut schedule = Schedule::new(cluster.total_processors());
    let mut probes = 0usize;
    let mut exhausted = false;
    let mut feasible_omega: Option<f64> = None;
    for class in 0..cluster.class_count() {
        let tasks: Vec<TaskId> = assignment
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == class)
            .map(|(task, _)| task)
            .collect();
        if tasks.is_empty() {
            continue;
        }
        let class_instance = hetero.class_instance(class, &tasks)?;
        let sub = SolveRequest {
            instance: &class_instance,
            config: None,
            ..*request
        };
        let outcome = MrtSolver.solve(&sub)?;
        let first = cluster.class_range(class).first;
        for entry in outcome.schedule.entries() {
            schedule.push(ScheduledTask {
                task: tasks[entry.task],
                start: entry.start,
                duration: entry.duration,
                processors: ProcessorRange::new(
                    entry.processors.first + first,
                    entry.processors.count,
                ),
            });
        }
        probes += outcome.probes;
        exhausted |= outcome.time_budget_exhausted;
        feasible_omega = match (feasible_omega, outcome.feasible_omega) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (None, omega) => omega,
            (omega, None) => omega,
        };
    }
    let wall_time = timer.elapsed();
    Ok(SolveOutcome {
        solver: "hetero",
        schedule,
        lower_bound: hetero.lower_bound(),
        certified: false,
        feasible_omega,
        probes,
        wall_time,
        time_budget_exhausted: exhausted
            || request.time_budget.is_some_and(|budget| wall_time > budget),
    })
}

impl Solver for HeteroSolver {
    fn name(&self) -> &'static str {
        self.strategy.name()
    }

    fn capabilities(&self) -> SolverCapabilities {
        SolverCapabilities::heuristic()
    }

    fn solve(&self, request: &SolveRequest<'_>) -> Result<SolveOutcome> {
        let strategy = self.effective_strategy(request)?;
        let cluster = self.effective_cluster(request)?;
        let hetero = HeteroInstance::from_instance(request.instance, cluster)?;
        let assignment = strategy.assign(&hetero);
        let mut outcome = solve_classed(&hetero, &assignment, request)?;
        outcome.solver = strategy.name();
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleable_core::prelude::{SearchMode, SolverConfig};
    use malleable_core::validate::{check, RunRecord};
    use malleable_core::{Instance, SpeedupProfile};
    use std::time::Duration;

    fn instance(m: usize) -> Instance {
        Instance::from_profiles(
            vec![
                SpeedupProfile::linear(9.0, m).unwrap(),
                SpeedupProfile::new(vec![5.0, 2.8, 2.1, 1.9]).unwrap(),
                SpeedupProfile::sequential(1.25).unwrap(),
                SpeedupProfile::linear(6.0, 4).unwrap(),
                SpeedupProfile::new(vec![3.0, 1.7, 1.3]).unwrap(),
            ],
            m,
        )
        .unwrap()
    }

    #[test]
    fn uniform_cluster_reproduces_the_mrt_solver_exactly() {
        let inst = instance(8);
        for mode in [SearchMode::Exact, SearchMode::Bisect] {
            let request = SolveRequest::new(&inst).with_mode(mode);
            let mrt = MrtSolver.solve(&request).unwrap();
            let classed = HeteroSolver::lp().solve(&request).unwrap();
            assert_eq!(classed.schedule, mrt.schedule);
            assert_eq!(classed.makespan(), mrt.makespan());
            assert_eq!(classed.probes, mrt.probes);
        }
    }

    #[test]
    fn classed_solve_splits_the_machine_and_stays_conflict_free() {
        let inst = instance(12);
        let config = SolverConfig::new().with_text("machine-classes", "old=8x1.0,new=4x2.0");
        let request = SolveRequest::new(&inst).with_config(&config);
        let outcome = HeteroSolver::lp().solve(&request).unwrap();
        assert_eq!(outcome.solver, "hetero-lp");
        assert!(outcome.lower_bound > 0.0);
        assert!(outcome.makespan() >= outcome.lower_bound - 1e-9);
        // Every task appears exactly once, inside one class, for its
        // class-scaled duration, with no processor-time overlap.
        let cluster = ClassedCluster::from_spec("old=8x1.0,new=4x2.0").unwrap();
        let record = RunRecord::offline(&inst, &outcome.schedule).with_slices(cluster.slices());
        assert_eq!(check(&record), vec![]);
    }

    #[test]
    fn faster_classes_shorten_the_scaled_durations() {
        let inst = instance(12);
        let config = SolverConfig::new().with_text("machine-classes", "old=8x1.0,new=4x2.0");
        let request = SolveRequest::new(&inst).with_config(&config);
        let outcome = HeteroSolver::lp().solve(&request).unwrap();
        for e in outcome.schedule.entries() {
            let base = inst.time(e.task, e.processors.count);
            if e.processors.first >= 8 {
                assert!((e.duration - base / 2.0).abs() < 1e-9, "{e:?}");
            } else {
                assert!((e.duration - base).abs() < 1e-9, "{e:?}");
            }
        }
    }

    #[test]
    fn assign_key_retargets_the_strategy_per_call() {
        let inst = instance(12);
        let spec = "old=8x1.0,new=4x2.5";
        let lp = HeteroSolver::lp();
        for (value, name) in [
            ("lp", "hetero-lp"),
            ("greedy", "hetero-greedy"),
            ("blind", "hetero-blind"),
        ] {
            let config = SolverConfig::new()
                .with_text("machine-classes", spec)
                .with_text("assign", value);
            let outcome = lp
                .solve(&SolveRequest::new(&inst).with_config(&config))
                .unwrap();
            assert_eq!(outcome.solver, name, "{value}");
        }
        let bad = SolverConfig::new().with_text("assign", "oracle");
        match lp.solve(&SolveRequest::new(&inst).with_config(&bad)) {
            Err(Error::InvalidConfig { key, .. }) => assert_eq!(key, "assign"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_cluster_sizes_are_rejected() {
        let inst = instance(8);
        let config = SolverConfig::new().with_text("machine-classes", "old=4x1.0,new=2x2.0");
        match HeteroSolver::lp().solve(&SolveRequest::new(&inst).with_config(&config)) {
            Err(Error::InvalidConfig { key, .. }) => assert_eq!(key, "machine-classes"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn zero_time_budget_is_reported_as_exhausted() {
        let inst = instance(8);
        let request = SolveRequest::new(&inst).with_time_budget(Duration::ZERO);
        let outcome = HeteroSolver::greedy().solve(&request).unwrap();
        assert!(outcome.time_budget_exhausted);
        let relaxed = HeteroSolver::greedy()
            .solve(&SolveRequest::new(&inst))
            .unwrap();
        assert!(!relaxed.time_budget_exhausted);
    }

    #[test]
    fn classed_solve_beats_the_blind_assignment_on_an_asymmetric_cluster() {
        let inst = instance(12);
        let spec = "old=8x1.0,new=4x2.5";
        let run = |assign: &str| {
            let config = SolverConfig::new()
                .with_text("machine-classes", spec)
                .with_text("assign", assign);
            HeteroSolver::lp()
                .solve(&SolveRequest::new(&inst).with_config(&config))
                .unwrap()
                .makespan()
        };
        assert!(run("lp") <= run("blind") + 1e-9);
    }
}
