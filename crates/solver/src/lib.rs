//! # solver
//!
//! The workspace-level solver registry: every scheduling algorithm shipped by
//! this workspace behind the unified [`Solver`] trait of
//! `malleable_core::solver`, resolved by name through one
//! [`SolverRegistry`].  [`default_registry`] is where the registry is
//! assembled; the algorithms live in their own crates:
//!
//! * `malleable-core` — the paper's √3 MRT dual approximation ([`MrtSolver`])
//!   and the canonical list construction ([`CanonicalListSolver`]);
//! * `baselines` — the Ludwig/TWY two-phase methods, gang scheduling and
//!   sequential LPT;
//! * `hetero` — the machine-class solvers;
//! * this crate — [`PrecedenceSolver`], the adapter to the `precedence`
//!   crate's CPA heuristic, plus the [`FallbackSolver`] and
//!   [`FaultInjectingSolver`] wrappers.
//!
//! The CLI (`--solver <name>`), the online policies (`EpochReplan`,
//! `BatchUntilIdle`) and the benchmark harness all consume this registry, so
//! adding an algorithm — one `Solver` impl plus one `register` line here —
//! makes it available everywhere at once.
//!
//! ```rust
//! use malleable_core::prelude::*;
//! use workload::{WorkloadConfig, WorkloadGenerator};
//!
//! let instance = WorkloadGenerator::new(WorkloadConfig::mixed(12, 8, 7))
//!     .generate()
//!     .unwrap();
//! let registry = solver::default_registry();
//! // Every registered algorithm answers the same request.
//! for handle in registry.solvers() {
//!     let outcome = handle.solve(&SolveRequest::new(&instance)).unwrap();
//!     assert!(outcome.schedule.validate(&instance).is_ok(), "{}", handle.name());
//! }
//! ```

#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use baselines::{GangSolver, SequentialLptSolver, TwoPhaseSolver};
use malleable_core::solver::{core_registry, heuristic_outcome};
pub use malleable_core::solver::{
    CanonicalListSolver, ConfigValue, MrtSolver, SolveOutcome, SolveRequest, Solver,
    SolverCapabilities, SolverConfig, SolverHandle, SolverRegistry,
};
use malleable_core::workspace::ProbeWorkspace;
use telemetry::{names, SharedRecorder, TelemetryEvent};

/// The precedence-extension scheduler behind the [`Solver`] trait: the
/// Critical-Path-and-Area allotment heuristic of the `precedence` crate
/// ([`precedence::CpaScheduler`]), run on the edgeless DAG view of the
/// independent instance.
///
/// On independent tasks CPA grants processors to the longest tasks until the
/// critical-path bound and the area bound balance — a different operating
/// point than the dual-approximation allotments, exposed so the extension
/// crate's machinery is reachable from every consumer layer (CLI
/// `--solver precedence`, online planning oracle, bench sweeps).  No
/// worst-case bound is claimed (see the `precedence` crate docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct PrecedenceSolver;

impl Solver for PrecedenceSolver {
    fn name(&self) -> &'static str {
        "precedence"
    }

    fn capabilities(&self) -> SolverCapabilities {
        SolverCapabilities::heuristic()
    }

    fn solve(&self, request: &SolveRequest<'_>) -> malleable_core::Result<SolveOutcome> {
        heuristic_outcome(self.name(), request, || {
            let graph = precedence::TaskGraph::independent(request.instance.tasks().to_vec())?;
            let pinstance =
                precedence::PrecedenceInstance::new(graph, request.instance.processors())?;
            precedence::CpaScheduler::default().schedule(&pinstance)
        })
    }
}

/// How [`FaultInjectingSolver`] fails its targeted solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverFaultMode {
    /// The targeted solve returns an error.
    Error,
    /// The targeted solve succeeds but reports
    /// [`SolveOutcome::time_budget_exhausted`] — a simulated budget blow.
    BudgetExhausted,
}

/// Deterministic solver-fault injection: delegates every call to the wrapped
/// solver except the `target`-th one (0-based across `solve` and
/// `solve_with_workspace`), which faults in the configured
/// [`SolverFaultMode`].  Used by the chaos harness to exercise the
/// [`FallbackSolver`] ladder; not registered in the registry.
pub struct FaultInjectingSolver {
    inner: SolverHandle,
    target: u64,
    mode: SolverFaultMode,
    solves: AtomicU64,
}

impl FaultInjectingSolver {
    /// Fault the `target`-th solve (0-based) of `inner` in the given mode.
    pub fn new(inner: SolverHandle, target: usize, mode: SolverFaultMode) -> Self {
        FaultInjectingSolver {
            inner,
            target: target as u64,
            mode,
            solves: AtomicU64::new(0),
        }
    }

    fn apply(
        &self,
        outcome: malleable_core::Result<SolveOutcome>,
    ) -> malleable_core::Result<SolveOutcome> {
        let index = self.solves.fetch_add(1, Ordering::Relaxed);
        if index != self.target {
            return outcome;
        }
        match self.mode {
            SolverFaultMode::Error => Err(malleable_core::Error::InvalidParameter {
                name: "injected-solver-fault",
                value: index as f64,
            }),
            SolverFaultMode::BudgetExhausted => outcome.map(|mut o| {
                o.time_budget_exhausted = true;
                o
            }),
        }
    }
}

impl Solver for FaultInjectingSolver {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn capabilities(&self) -> SolverCapabilities {
        self.inner.capabilities()
    }

    fn solve(&self, request: &SolveRequest<'_>) -> malleable_core::Result<SolveOutcome> {
        let outcome = self.inner.solve(request);
        self.apply(outcome)
    }

    fn solve_with_workspace(
        &self,
        request: &SolveRequest<'_>,
        workspace: &mut ProbeWorkspace,
    ) -> malleable_core::Result<SolveOutcome> {
        let outcome = self.inner.solve_with_workspace(request, workspace);
        self.apply(outcome)
    }
}

/// The degradation ladder: try the primary solver; when it errors or blows
/// its [`SolveRequest::time_budget`], serve the epoch from the fallback (by
/// default the greedy [`CanonicalListSolver`]) instead of dropping it, and
/// emit a `solver_degraded` telemetry event.
///
/// The wrapper reports the *primary's* name and capabilities, so planning
/// policies (warm starts, telemetry spans) treat it as the primary; only the
/// degraded epochs differ.  Not registered in the registry — construct it
/// around any registry handle.
pub struct FallbackSolver {
    primary: SolverHandle,
    fallback: SolverHandle,
    recorder: Option<SharedRecorder>,
    solves: AtomicU64,
    degraded_count: AtomicU64,
}

impl FallbackSolver {
    /// Wrap `primary` with the greedy canonical-list fallback.
    pub fn new(primary: SolverHandle) -> Self {
        FallbackSolver {
            primary,
            fallback: Arc::new(CanonicalListSolver),
            recorder: None,
            solves: AtomicU64::new(0),
            degraded_count: AtomicU64::new(0),
        }
    }

    /// Use an explicit fallback solver instead of the canonical list.
    pub fn with_fallback(mut self, fallback: SolverHandle) -> Self {
        self.fallback = fallback;
        self
    }

    /// Emit `solver_degraded` telemetry through this recorder.
    pub fn with_recorder(mut self, recorder: SharedRecorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Epoch solves degraded to the fallback so far.
    pub fn degraded(&self) -> u64 {
        self.degraded_count.load(Ordering::Relaxed)
    }

    fn note_degraded(&self, solve_index: u64, reason: String) {
        self.degraded_count.fetch_add(1, Ordering::Relaxed);
        if let Some(recorder) = &self.recorder {
            if recorder.enabled() {
                recorder.event(TelemetryEvent::SolverDegraded {
                    solve_index,
                    solver: self.primary.name().to_string(),
                    fallback: self.fallback.name().to_string(),
                    reason,
                });
            }
            recorder.add(names::SOLVER_DEGRADED, 1);
        }
    }

    fn finish(
        &self,
        request: &SolveRequest<'_>,
        primary_outcome: malleable_core::Result<SolveOutcome>,
    ) -> malleable_core::Result<SolveOutcome> {
        let index = self.solves.fetch_add(1, Ordering::Relaxed);
        match primary_outcome {
            Ok(outcome) if !outcome.time_budget_exhausted => Ok(outcome),
            Ok(_) => {
                self.note_degraded(index, "time budget".to_string());
                self.fallback.solve(request)
            }
            Err(err) => {
                self.note_degraded(index, err.to_string());
                self.fallback.solve(request)
            }
        }
    }
}

impl Solver for FallbackSolver {
    fn name(&self) -> &'static str {
        self.primary.name()
    }

    fn capabilities(&self) -> SolverCapabilities {
        self.primary.capabilities()
    }

    fn solve(&self, request: &SolveRequest<'_>) -> malleable_core::Result<SolveOutcome> {
        let outcome = self.primary.solve(request);
        self.finish(request, outcome)
    }

    fn solve_with_workspace(
        &self,
        request: &SolveRequest<'_>,
        workspace: &mut ProbeWorkspace,
    ) -> malleable_core::Result<SolveOutcome> {
        let outcome = self.primary.solve_with_workspace(request, workspace);
        self.finish(request, outcome)
    }
}

/// The full workspace registry: the core solvers (`mrt`, `list`) plus every
/// baseline (`ludwig`, `twy-list`, `twy-nfdh`, `gang`, `lpt`), the
/// `precedence` extension scheduler, and the heterogeneous-cluster solvers
/// (`hetero-lp`, `hetero-greedy` — cluster selected per request via the
/// `machine-classes` config key), with the legacy CLI spellings registered
/// as aliases.
pub fn default_registry() -> SolverRegistry {
    let mut registry = core_registry();
    registry.register("ludwig", &["two-phase", "ludwig-2phase"], || {
        Arc::new(TwoPhaseSolver::ludwig())
    });
    registry.register("twy-list", &[], || Arc::new(TwoPhaseSolver::list()));
    registry.register("twy-nfdh", &[], || Arc::new(TwoPhaseSolver::nfdh()));
    registry.register("gang", &[], || Arc::new(GangSolver));
    registry.register("lpt", &["sequential", "sequential-lpt"], || {
        Arc::new(SequentialLptSolver)
    });
    registry.register("precedence", &["cpa", "precedence-cpa"], || {
        Arc::new(PrecedenceSolver)
    });
    registry.register("hetero-lp", &["hetero"], || {
        Arc::new(hetero::HeteroSolver::lp())
    });
    registry.register("hetero-greedy", &[], || {
        Arc::new(hetero::HeteroSolver::greedy())
    });
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleable_core::Instance;
    use workload::{WorkloadConfig, WorkloadGenerator};

    fn instance(seed: u64) -> Instance {
        WorkloadGenerator::new(WorkloadConfig::mixed(14, 8, seed))
            .generate()
            .unwrap()
    }

    #[test]
    fn default_registry_lists_every_algorithm() {
        let registry = default_registry();
        assert_eq!(
            registry.names().collect::<Vec<_>>(),
            vec![
                "mrt",
                "list",
                "ludwig",
                "twy-list",
                "twy-nfdh",
                "gang",
                "lpt",
                "precedence",
                "hetero-lp",
                "hetero-greedy"
            ]
        );
        for (alias, canonical) in [
            ("sqrt3", "mrt"),
            ("two-phase", "ludwig"),
            ("sequential", "lpt"),
            ("canonical-list", "list"),
            ("cpa", "precedence"),
            ("hetero", "hetero-lp"),
        ] {
            assert_eq!(registry.resolve(alias), Some(canonical), "{alias}");
        }
    }

    #[test]
    fn every_registered_solver_produces_a_valid_outcome() {
        let inst = instance(3);
        for handle in default_registry().solvers() {
            let outcome = handle.solve(&SolveRequest::new(&inst)).unwrap();
            assert!(
                outcome.schedule.validate(&inst).is_ok(),
                "{}",
                handle.name()
            );
            assert_eq!(outcome.solver, handle.name());
            assert!(outcome.lower_bound > 0.0);
            assert!(outcome.ratio() >= 1.0 - 1e-9, "{}", handle.name());
        }
    }

    #[test]
    fn rigid_config_key_overrides_constructor_state() {
        let inst = instance(7);
        let ludwig = TwoPhaseSolver::ludwig();
        // Without a config the solver's defaults decide.
        let plain = ludwig.solve(&SolveRequest::new(&inst)).unwrap();
        assert_eq!(plain.solver, "ludwig");
        // The `rigid` key re-targets the phase-2 scheduler per call; the
        // outcome matches the handle that has the phase as its default.
        for (key, name) in [
            ("ffdh", "ludwig"),
            ("nfdh", "twy-nfdh"),
            ("list", "twy-list"),
        ] {
            let config = SolverConfig::new().with_text("rigid", key);
            let outcome = ludwig
                .solve(&SolveRequest::new(&inst).with_config(&config))
                .unwrap();
            assert_eq!(outcome.solver, name, "{key}");
            let dedicated = TwoPhaseSolver::with_defaults(config)
                .unwrap()
                .solve(&SolveRequest::new(&inst))
                .unwrap();
            assert_eq!(outcome.schedule, dedicated.schedule, "{key}");
        }
        // The defaults themselves are validated at construction with the
        // same typed error a bad request-level key produces at solve time.
        match TwoPhaseSolver::with_defaults(SolverConfig::new().with_text("rigid", "magic")) {
            Err(malleable_core::Error::InvalidConfig { key, .. }) => assert_eq!(key, "rigid"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // Unknown rigid phases are rejected with a typed config error.
        let bad = SolverConfig::new().with_text("rigid", "magic");
        match ludwig.solve(&SolveRequest::new(&inst).with_config(&bad)) {
            Err(malleable_core::Error::InvalidConfig { key, .. }) => assert_eq!(key, "rigid"),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        // Solvers that do not understand the key ignore it (the documented
        // unknown-knob contract).
        let outcome = GangSolver
            .solve(&SolveRequest::new(&inst).with_config(&bad))
            .unwrap();
        assert!(outcome.schedule.validate(&inst).is_ok());
    }

    #[test]
    fn hetero_lp_reproduces_mrt_on_a_uniform_cluster() {
        // The identical-machines parity guarantee, exercised through the
        // registry: without a `machine-classes` key the classed solver runs
        // on the uniform single-class cluster and must reproduce the `mrt`
        // schedule exactly — same makespan, same probes, bit for bit.
        let registry = default_registry();
        let classed = registry.get("hetero-lp").expect("registered");
        let mrt = registry.get("mrt").expect("registered");
        for seed in [3, 5, 11] {
            let inst = instance(seed);
            let request =
                SolveRequest::new(&inst).with_mode(malleable_core::prelude::SearchMode::Exact);
            let a = classed.solve(&request).unwrap();
            let b = mrt.solve(&request).unwrap();
            assert_eq!(a.schedule, b.schedule, "seed {seed}");
            assert_eq!(a.makespan(), b.makespan(), "seed {seed}");
            assert_eq!(a.probes, b.probes, "seed {seed}");
        }
        // With a classed spec the same handle splits the machine; the
        // LP assignment must not lose to the speed-blind ablation.
        let inst = instance(7);
        let run = |assign: &str| {
            let config = SolverConfig::new()
                .with_text("machine-classes", "old=4x1.0,new=4x2.5")
                .with_text("assign", assign);
            classed
                .solve(&SolveRequest::new(&inst).with_config(&config))
                .unwrap()
                .makespan()
        };
        assert!(run("lp") <= run("blind") + 1e-9);
    }

    #[test]
    fn heuristics_report_time_budget_overruns_uniformly() {
        let inst = instance(9);
        // A zero budget is always overrun; no budget never is.
        for handle in default_registry().solvers() {
            let strict = SolveRequest::new(&inst).with_time_budget(std::time::Duration::ZERO);
            let outcome = handle.solve(&strict).unwrap();
            // The core canonical list solver is exempt by its documented
            // contract ("one-shot solvers ignore the knob"); every workspace
            // heuristic reports the overrun.
            if handle.name() != "list" {
                assert!(outcome.time_budget_exhausted, "{}", handle.name());
            }
            let relaxed = handle.solve(&SolveRequest::new(&inst)).unwrap();
            assert!(!relaxed.time_budget_exhausted, "{}", handle.name());
        }
    }

    #[test]
    fn fallback_solver_degrades_on_error_and_budget_blow() {
        use telemetry::CollectingRecorder;
        let inst = instance(11);
        for mode in [SolverFaultMode::Error, SolverFaultMode::BudgetExhausted] {
            let primary = default_registry().get("mrt").unwrap();
            let faulty: SolverHandle = Arc::new(FaultInjectingSolver::new(primary, 1, mode));
            let recorder = CollectingRecorder::shared();
            let ladder = FallbackSolver::new(faulty).with_recorder(recorder.clone());
            assert_eq!(ladder.name(), "mrt", "wrapper keeps the primary name");
            // Solve 0 passes through, solve 1 faults and degrades, solve 2
            // recovers.
            for i in 0..3u64 {
                let outcome = ladder.solve(&SolveRequest::new(&inst)).unwrap();
                assert!(outcome.schedule.validate(&inst).is_ok(), "solve {i}");
                if i == 1 {
                    assert_eq!(outcome.solver, "list", "degraded epoch uses the fallback");
                }
            }
            assert_eq!(ladder.degraded(), 1);
            assert_eq!(
                recorder.counter(telemetry::names::SOLVER_DEGRADED),
                1,
                "{mode:?}"
            );
            let degraded: Vec<_> = recorder
                .events()
                .into_iter()
                .filter(|e| e.kind() == "solver_degraded")
                .collect();
            assert_eq!(degraded.len(), 1);
            if let TelemetryEvent::SolverDegraded {
                solve_index,
                solver,
                fallback,
                ..
            } = &degraded[0]
            {
                assert_eq!(
                    (*solve_index, solver.as_str(), fallback.as_str()),
                    (1, "mrt", "list")
                );
            } else {
                unreachable!();
            }
        }
    }

    #[test]
    fn capabilities_reflect_the_algorithm_class() {
        let registry = default_registry();
        let mrt = registry.get("mrt").unwrap().capabilities();
        assert!(mrt.certified_lower_bound && mrt.supports_warm_start && mrt.anytime);
        assert_eq!(mrt.guarantee, Some(malleable_core::SQRT3));
        let gang = registry.get("gang").unwrap().capabilities();
        assert!(!gang.certified_lower_bound && !gang.supports_warm_start);
        assert_eq!(
            registry.get("ludwig").unwrap().capabilities().guarantee,
            Some(2.0)
        );
    }
}
