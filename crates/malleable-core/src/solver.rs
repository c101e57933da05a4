//! The unified solver API: one trait, one typed request/outcome pair, one
//! registry — shared by every consumer layer (CLI, online engine, benchmark
//! harness).
//!
//! Every algorithm in the workspace — the paper's √3 dual approximation, the
//! Ludwig/TWY two-phase baselines, gang scheduling, LPT, list variants —
//! answers the same question: *given an instance, produce a schedule and tell
//! me how good it is*.  This module is the one way to ask it:
//!
//! * [`Solver`] — `solve(&SolveRequest) -> SolveOutcome`, plus
//!   [`Solver::name`], [`Solver::capabilities`] and an optional
//!   [`Solver::solve_with_workspace`] fast path that threads a
//!   [`ProbeWorkspace`] through warm-start-capable implementations;
//! * [`SolveRequest`] — a typed builder over instance, [`SearchMode`],
//!   [`BranchSet`], λ, warm-start hint, probe and time budgets and
//!   solver-specific [`SolverConfig`] knobs;
//! * [`SolveOutcome`] — schedule, lower bound (certified or static),
//!   a-posteriori ratio, probe counter and wall time, uniformly for every
//!   algorithm;
//! * [`SolverRegistry`] — a name → factory map with alias resolution, so new
//!   algorithms plug in without touching any caller.
//!
//! The core crate registers its own solvers via [`core_registry`]; the
//! workspace-level `solver` crate extends that registry with the baseline
//! schedulers and is what the CLI, the online policies and the benches
//! consume.  One-shot constructions wrap their schedule with
//! [`heuristic_outcome`].
//!
//! ```rust
//! use malleable_core::prelude::*;
//! use malleable_core::solver::core_registry;
//!
//! let instance = Instance::from_profiles(
//!     vec![
//!         SpeedupProfile::linear(6.0, 4).unwrap(),
//!         SpeedupProfile::sequential(1.0).unwrap(),
//!     ],
//!     4,
//! )
//! .unwrap();
//!
//! let registry = core_registry();
//! let solver = registry.get("mrt").unwrap();
//! let request = SolveRequest::new(&instance).with_mode(SearchMode::Exact);
//! let outcome = solver.solve(&request).unwrap();
//! assert!(outcome.schedule.validate(&instance).is_ok());
//! assert!(outcome.ratio() >= 1.0 - 1e-9);
//! ```

#![warn(missing_docs)]

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use crate::allotment::Allotment;
use crate::bounds;
use crate::dual::{DualSearch, SearchMode};
use crate::error::{Error, Result};
use crate::instance::Instance;
use crate::list::{schedule_rigid, ListOrder};
use crate::mrt::{BranchSet, MrtScheduler};
use crate::schedule::Schedule;
use crate::workspace::ProbeWorkspace;

/// A shared, thread-safe handle to a solver (what the registry hands out and
/// what the online policies hold).
pub type SolverHandle = Arc<dyn Solver>;

/// Per-solver configuration carried by a [`SolveRequest`]: a small ordered
/// map of text knobs that only the addressed solver interprets.
///
/// The shared request fields ([`SolveRequest::mode`], λ, budgets, …) cover
/// the knobs every dual-search solver understands; solver-*specific* knobs —
/// the two-phase method's rigid-packing strategy, the hetero solvers'
/// assignment strategy and machine-class spec — used to live in constructor
/// state, which made them unreachable through the registry (factories take
/// no arguments).  Putting them on the request keeps solvers stateless
/// values and makes every knob a per-call parameter:
///
/// ```rust
/// use malleable_core::solver::SolverConfig;
///
/// let config = SolverConfig::new()
///     .with_text("rigid", "steinberg")
///     .with_text("machine-classes", "old=8x1.0,new=4x2.0");
/// assert_eq!(config.text("rigid"), Some("steinberg"));
/// assert_eq!(config.text("absent"), None);
/// ```
///
/// Unknown keys are ignored by solvers (same contract as unknown request
/// knobs); a key set twice keeps the last value.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SolverConfig {
    entries: Vec<(String, String)>,
}

impl SolverConfig {
    /// An empty configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the knob `key` to `value` (builder style), replacing any earlier
    /// value.
    pub fn with_text(mut self, key: &str, value: &str) -> Self {
        match self.entries.iter_mut().find(|(k, _)| k == key) {
            Some((_, stored)) => *stored = value.to_string(),
            None => self.entries.push((key.to_string(), value.to_string())),
        }
        self
    }

    /// The value under `key`, if set.
    pub fn text(&self, key: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Number of keys set.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no keys are set.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The keys, in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> + '_ {
        self.entries.iter().map(|(k, _)| k.as_str())
    }
}

/// A typed solve request: the instance plus every tuning knob a solver may
/// honour.  Build one with [`SolveRequest::new`] and the `with_*` methods;
/// knobs a solver does not understand are ignored (gang scheduling has no
/// search mode), knobs with invalid values are rejected by the solver at
/// [`Solver::solve`] time.
///
/// ```rust
/// use malleable_core::prelude::*;
///
/// # let instance = Instance::from_profiles(
/// #     vec![SpeedupProfile::linear(4.0, 4).unwrap()], 4).unwrap();
/// let request = SolveRequest::new(&instance)
///     .with_mode(SearchMode::Exact)
///     .with_branches(BranchSet::lists_only())
///     .with_lambda(0.9)
///     .with_probe_budget(40);
/// let outcome = MrtSolver.solve(&request).unwrap();
/// assert!(outcome.schedule.validate(&instance).is_ok());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SolveRequest<'a> {
    /// The instance to schedule.
    pub instance: &'a Instance,
    /// How a dual-search solver picks its probe points (ignored by one-shot
    /// constructions).
    pub mode: SearchMode,
    /// Which oracle branches a combined dual approximation evaluates.
    pub branches: BranchSet,
    /// The second-shelf parameter λ; `None` selects the solver's default
    /// (`√3 − 1` for the MRT scheduler).
    pub lambda: Option<f64>,
    /// What a repeated solve carries over (see [`WarmStart`]): the static
    /// lower bound of the instance and a guess believed feasible, e.g.
    /// scaled over from the previous epoch of an online re-planner;
    /// honoured only by solvers whose
    /// [`SolverCapabilities::supports_warm_start`] is set.
    pub warm_start: Option<WarmStart>,
    /// Hard cap on the oracle probes of one solve, honoured in both search
    /// modes (the probes establishing the first feasible guess are exempt —
    /// see [`DualSearch::max_probes`]); `None` is unbounded.
    pub probe_budget: Option<usize>,
    /// Wall-clock budget of one solve, enforced inside the dual search at
    /// the same points as the probe budget (see [`DualSearch::time_budget`]);
    /// whether it expired is reported in
    /// [`SolveOutcome::time_budget_exhausted`].  `None` is unbounded.
    /// One-shot constructions cannot stop midway; they report an overrun
    /// after the fact (see [`heuristic_outcome`]).
    pub time_budget: Option<Duration>,
    /// Solver-specific knobs (see [`SolverConfig`]); solvers ignore keys they
    /// do not understand, and `None` means every solver default applies.
    /// Borrowed so the request stays `Copy`.
    pub config: Option<&'a SolverConfig>,
}

impl<'a> SolveRequest<'a> {
    /// A request with every knob at its default.
    pub fn new(instance: &'a Instance) -> Self {
        SolveRequest {
            instance,
            mode: SearchMode::default(),
            branches: BranchSet::default(),
            lambda: None,
            warm_start: None,
            probe_budget: None,
            time_budget: None,
            config: None,
        }
    }

    /// Select the dual-search mode (builder style).
    pub fn with_mode(mut self, mode: SearchMode) -> Self {
        self.mode = mode;
        self
    }

    /// Restrict the oracle branches (builder style).
    pub fn with_branches(mut self, branches: BranchSet) -> Self {
        self.branches = branches;
        self
    }

    /// Override the second-shelf parameter λ (builder style).
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = Some(lambda);
        self
    }

    /// Seed the search with a warm start (builder style); `warm` must be
    /// [`WarmStart::of`] this request's instance.
    pub fn with_warm_start(mut self, warm: WarmStart) -> Self {
        self.warm_start = Some(warm);
        self
    }

    /// Cap the dichotomic search's oracle probes (builder style).
    pub fn with_probe_budget(mut self, probes: usize) -> Self {
        self.probe_budget = Some(probes);
        self
    }

    /// Cap the dichotomic search's wall time (builder style).
    pub fn with_time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Attach solver-specific knobs (builder style).  The config outlives the
    /// request (it is borrowed, keeping the request `Copy`).
    pub fn with_config(mut self, config: &'a SolverConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// The text knob under `key`, when a config is attached and carries one.
    pub fn config_text(&self, key: &str) -> Option<&'a str> {
        self.config.and_then(|c| c.text(key))
    }
}

/// What a repeated solve carries into its dual search: the static lower
/// bound of the request's instance and, optionally, a guess believed
/// feasible.
///
/// An online re-planner computes the bound anyway, to scale the previous
/// epoch's accepted guess into a hint for the new instance; a search handed
/// the bound starts from it instead of computing it again.  The bound is
/// private and computed by [`WarmStart::of`], so it is always
/// [`bounds::lower_bound`] of an instance: the request's own, which the
/// certified bound of the search relies on.
///
/// ```rust
/// use malleable_core::prelude::*;
///
/// # let instance = Instance::from_profiles(
/// #     vec![SpeedupProfile::linear(4.0, 4).unwrap()], 4).unwrap();
/// let warm = WarmStart::of(&instance);
/// let hint = warm.lower_bound() * 1.05;
/// let request = SolveRequest::new(&instance).with_warm_start(warm.with_hint(hint));
/// let outcome = MrtSolver.solve(&request).unwrap();
/// assert!(outcome.schedule.validate(&instance).is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WarmStart {
    lower_bound: f64,
    hint: Option<f64>,
}

impl WarmStart {
    /// The warm start of `instance`: its static lower bound, computed here
    /// once, and no hint.
    pub fn of(instance: &Instance) -> Self {
        WarmStart {
            lower_bound: bounds::lower_bound(instance),
            hint: None,
        }
    }

    /// Seed the upper end of the search interval with a guess believed
    /// feasible (builder style).  A lowball hint only costs the doubling
    /// probes needed to climb back; correctness is unaffected.
    pub fn with_hint(mut self, hint: f64) -> Self {
        self.hint = Some(hint);
        self
    }

    /// The instance's static lower bound, [`bounds::lower_bound`].
    pub fn lower_bound(&self) -> f64 {
        self.lower_bound
    }

    /// The guess believed feasible, if any.
    pub fn hint(&self) -> Option<f64> {
        self.hint
    }
}

/// What a solver can do, for callers that adapt their behaviour to the
/// algorithm behind the trait object (the online re-planner only threads its
/// warm state into solvers that will use it; reports only print guarantees
/// that exist).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolverCapabilities {
    /// The lower bound in the outcome is search-certified (refined by
    /// infeasibility certificates), not just the static bound.
    pub certified_lower_bound: bool,
    /// Solution quality improves with a larger probe budget
    /// ([`SolveRequest::probe_budget`] is honoured).
    pub anytime: bool,
    /// [`SolveRequest::warm_start`] and the workspace of
    /// [`Solver::solve_with_workspace`] speed up repeated solves.
    pub supports_warm_start: bool,
    /// The worst-case approximation guarantee ρ, when one is proven
    /// (`√3` for the MRT scheduler, 2 for the two-phase method with
    /// Steinberg's packer); `None` for heuristics without a bound.
    pub guarantee: Option<f64>,
}

impl SolverCapabilities {
    /// Capabilities of a one-shot heuristic: no certificate, no warm start,
    /// no proven guarantee.
    pub fn heuristic() -> Self {
        SolverCapabilities {
            certified_lower_bound: false,
            anytime: false,
            supports_warm_start: false,
            guarantee: None,
        }
    }
}

/// The uniform result of a solve: the schedule plus the quality and cost
/// diagnostics every consumer layer needs (the CLI report, the online
/// competitive analysis, the benchmark tables).
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// Name of the solver that produced this outcome.
    pub solver: &'static str,
    /// The constructed schedule.
    pub schedule: Schedule,
    /// A valid lower bound on the optimum makespan: the search-certified
    /// bound when [`SolveOutcome::certified`] is set, the static bound of
    /// [`bounds::lower_bound`] otherwise.
    pub lower_bound: f64,
    /// Whether [`SolveOutcome::lower_bound`] was refined by infeasibility
    /// certificates of a dual search.
    pub certified: bool,
    /// The smallest guess the dual search accepted (used to seed the next
    /// solve of an online re-planner); `None` for one-shot constructions.
    pub feasible_omega: Option<f64>,
    /// Number of oracle probes performed (0 for one-shot constructions).
    pub probes: usize,
    /// Wall time of the solve.
    pub wall_time: Duration,
    /// Whether [`SolveRequest::time_budget`] expired: it truncated the dual
    /// search, or a one-shot construction overran it (see
    /// [`heuristic_outcome`]).  Always `false` for unbudgeted solves; a
    /// truncated solve still returns a valid schedule and a valid certified
    /// bound, just less refined.
    pub time_budget_exhausted: bool,
}

impl SolveOutcome {
    /// Makespan of the schedule.
    pub fn makespan(&self) -> f64 {
        self.schedule.makespan()
    }

    /// The a-posteriori approximation ratio `makespan / lower_bound`.
    pub fn ratio(&self) -> f64 {
        if self.lower_bound <= 0.0 {
            return 1.0;
        }
        self.makespan() / self.lower_bound
    }
}

/// A scheduling algorithm behind the unified solve pipeline.
///
/// Implementations are stateless values (per-solve state lives in the request
/// and the workspace), so one instance can serve concurrent solves.
pub trait Solver: Send + Sync {
    /// Stable canonical name (registry key, report label).
    fn name(&self) -> &'static str;

    /// What this solver can do — see [`SolverCapabilities`].
    fn capabilities(&self) -> SolverCapabilities;

    /// Solve the request end to end.
    fn solve(&self, request: &SolveRequest<'_>) -> Result<SolveOutcome>;

    /// Fast path: solve while reusing the buffers of `workspace` across
    /// probes and across repeated solves (the online epoch re-planner keeps
    /// one workspace alive for the whole run).  The default implementation
    /// ignores the workspace and delegates to [`Solver::solve`]; solvers with
    /// allocation-heavy probes override it.
    fn solve_with_workspace(
        &self,
        request: &SolveRequest<'_>,
        workspace: &mut ProbeWorkspace,
    ) -> Result<SolveOutcome> {
        let _ = workspace;
        self.solve(request)
    }
}

/// The paper's combined √3 dual approximation behind the [`Solver`] trait:
/// [`MrtScheduler`] oracle + [`DualSearch`] driver, honouring every request
/// knob (search mode, branch set, λ, warm-start hint, probe and time
/// budgets).
#[derive(Debug, Clone, Copy, Default)]
pub struct MrtSolver;

impl Solver for MrtSolver {
    fn name(&self) -> &'static str {
        "mrt"
    }

    fn capabilities(&self) -> SolverCapabilities {
        SolverCapabilities {
            certified_lower_bound: true,
            anytime: true,
            supports_warm_start: true,
            guarantee: Some(crate::SQRT3),
        }
    }

    fn solve(&self, request: &SolveRequest<'_>) -> Result<SolveOutcome> {
        self.solve_with_workspace(request, &mut ProbeWorkspace::new())
    }

    fn solve_with_workspace(
        &self,
        request: &SolveRequest<'_>,
        workspace: &mut ProbeWorkspace,
    ) -> Result<SolveOutcome> {
        let mut scheduler = match request.lambda {
            Some(lambda) => MrtScheduler::with_lambda(lambda)?,
            None => MrtScheduler::default(),
        };
        if request.branches.is_empty() {
            return Err(Error::InvalidParameter {
                name: "branches",
                value: 0.0,
            });
        }
        scheduler.branches = request.branches;
        let search = DualSearch {
            max_probes: request.probe_budget,
            time_budget: request.time_budget,
            ..Default::default()
        };
        let warm = request
            .warm_start
            .unwrap_or_else(|| WarmStart::of(request.instance));
        let result = search.solve_from_bound(
            request.instance,
            &scheduler,
            request.mode,
            warm.lower_bound,
            warm.hint,
            workspace,
        )?;
        Ok(SolveOutcome {
            solver: self.name(),
            schedule: result.schedule,
            lower_bound: result.certified_lower_bound,
            certified: true,
            feasible_omega: Some(result.feasible_omega),
            probes: result.probes,
            // The search measures its own span on the shared monotonic clock
            // (the same timer that enforces the time budget); re-timing it
            // here would double up clock sources.
            wall_time: result.wall_time,
            time_budget_exhausted: result.time_budget_exhausted,
        })
    }
}

/// Wrap a one-shot construction into a [`SolveOutcome`], timing it and
/// pairing the schedule with the static lower bound of
/// [`bounds::lower_bound`].  The request's `time_budget` is honoured *post
/// hoc*: a one-shot construction cannot stop midway, but an overrun is
/// reported through [`SolveOutcome::time_budget_exhausted`] so wrappers (the
/// online fallback ladder) can react to any heuristic blowing its budget.
pub fn heuristic_outcome(
    name: &'static str,
    request: &SolveRequest<'_>,
    build: impl FnOnce() -> Result<Schedule>,
) -> Result<SolveOutcome> {
    let timer = telemetry::SpanTimer::start();
    let schedule = build()?;
    let wall_time = timer.elapsed();
    Ok(SolveOutcome {
        solver: name,
        schedule,
        lower_bound: bounds::lower_bound(request.instance),
        certified: false,
        feasible_omega: None,
        probes: 0,
        wall_time,
        time_budget_exhausted: request.time_budget.is_some_and(|budget| wall_time > budget),
    })
}

/// Canonical allotment at the guaranteed-feasible upper bound + contiguous
/// list scheduling — the cheapest sensible construction, used as the `list`
/// solver of the online policies.
///
/// It ignores [`SolveRequest::time_budget`]: it is the fallback the online
/// ladder degrades *to*, so it never reports an overrun of its own.
#[derive(Debug, Clone, Copy, Default)]
pub struct CanonicalListSolver;

impl Solver for CanonicalListSolver {
    fn name(&self) -> &'static str {
        "list"
    }

    fn capabilities(&self) -> SolverCapabilities {
        SolverCapabilities::heuristic()
    }

    fn solve(&self, request: &SolveRequest<'_>) -> Result<SolveOutcome> {
        let unbudgeted = SolveRequest {
            time_budget: None,
            ..*request
        };
        heuristic_outcome(self.name(), &unbudgeted, || {
            let instance = request.instance;
            let allotment = Allotment::canonical(instance, bounds::upper_bound(instance))?;
            Ok(schedule_rigid(
                instance,
                &allotment,
                ListOrder::DecreasingAllottedTime,
            ))
        })
    }
}

/// One registry entry: a canonical name, its accepted aliases and the factory
/// producing the solver.
struct RegistryEntry {
    name: &'static str,
    aliases: &'static [&'static str],
    factory: Box<dyn Fn() -> SolverHandle + Send + Sync>,
}

/// A name → factory map of solvers with alias resolution.
///
/// Registration order is preserved: [`SolverRegistry::names`] and
/// [`SolverRegistry::solvers`] iterate in the order solvers were registered,
/// so reports and `--help` listings are deterministic.
///
/// ```rust
/// use malleable_core::solver::{core_registry, SolverRegistry};
///
/// let registry = core_registry();
/// assert!(registry.get("mrt").is_some());
/// assert_eq!(registry.resolve("sqrt3"), Some("mrt")); // alias
/// assert!(registry.get("unknown").is_none());
/// ```
#[derive(Default)]
pub struct SolverRegistry {
    entries: Vec<RegistryEntry>,
}

impl fmt::Debug for SolverRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SolverRegistry")
            .field("names", &self.names().collect::<Vec<_>>())
            .finish()
    }
}

impl SolverRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a solver factory under a canonical name plus aliases.
    ///
    /// # Panics
    ///
    /// Panics if the name or any alias collides with an existing entry —
    /// registries are assembled once at startup, so a collision is a
    /// programming error, not a runtime condition.
    pub fn register(
        &mut self,
        name: &'static str,
        aliases: &'static [&'static str],
        factory: impl Fn() -> SolverHandle + Send + Sync + 'static,
    ) {
        for token in std::iter::once(&name).chain(aliases) {
            assert!(
                self.resolve(token).is_none(),
                "solver name or alias `{token}` is already registered"
            );
        }
        self.entries.push(RegistryEntry {
            name,
            aliases,
            factory: Box::new(factory),
        });
    }

    /// Resolve a name or alias to the canonical solver name.
    pub fn resolve(&self, name: &str) -> Option<&'static str> {
        self.entries
            .iter()
            .find(|e| e.name == name || e.aliases.contains(&name))
            .map(|e| e.name)
    }

    /// Instantiate the solver registered under `name` (canonical or alias).
    pub fn get(&self, name: &str) -> Option<SolverHandle> {
        self.entries
            .iter()
            .find(|e| e.name == name || e.aliases.contains(&name))
            .map(|e| (e.factory)())
    }

    /// Canonical names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.entries.iter().map(|e| e.name)
    }

    /// Aliases of a canonical name (empty for unknown names).
    pub fn aliases(&self, name: &str) -> &'static [&'static str] {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map_or(&[], |e| e.aliases)
    }

    /// Instantiate every registered solver, in registration order.
    pub fn solvers(&self) -> impl Iterator<Item = SolverHandle> + '_ {
        self.entries.iter().map(|e| (e.factory)())
    }

    /// Number of registered solvers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The registry of the solvers this crate implements itself: the paper's
/// combined `mrt` scheduler and the `list` construction.  The workspace-level
/// `solver` crate starts from this and adds the baseline schedulers.
pub fn core_registry() -> SolverRegistry {
    let mut registry = SolverRegistry::new();
    registry.register("mrt", &["mrt-sqrt3", "sqrt3"], || Arc::new(MrtSolver));
    registry.register("list", &["canonical-list"], || {
        Arc::new(CanonicalListSolver)
    });
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::SpeedupProfile;

    fn instance() -> Instance {
        Instance::from_profiles(
            vec![
                SpeedupProfile::new(vec![4.0, 2.2, 1.6, 1.4]).unwrap(),
                SpeedupProfile::new(vec![3.0, 1.8]).unwrap(),
                SpeedupProfile::sequential(0.7).unwrap(),
                SpeedupProfile::linear(2.4, 4).unwrap(),
            ],
            4,
        )
        .unwrap()
    }

    #[test]
    fn request_builder_sets_every_knob() {
        let inst = instance();
        let config = SolverConfig::new().with_text("rigid", "ffdh");
        let req = SolveRequest::new(&inst)
            .with_mode(SearchMode::Exact)
            .with_branches(BranchSet::lists_only())
            .with_lambda(0.9)
            .with_warm_start(WarmStart::of(&inst).with_hint(3.0))
            .with_probe_budget(7)
            .with_time_budget(Duration::from_millis(250))
            .with_config(&config);
        assert_eq!(req.mode, SearchMode::Exact);
        assert_eq!(req.branches, BranchSet::lists_only());
        assert_eq!(req.lambda, Some(0.9));
        let warm = req.warm_start.unwrap();
        assert_eq!(warm.hint(), Some(3.0));
        assert_eq!(warm.lower_bound(), bounds::lower_bound(&inst));
        assert_eq!(req.probe_budget, Some(7));
        assert_eq!(req.time_budget, Some(Duration::from_millis(250)));
        assert_eq!(req.config_text("rigid"), Some("ffdh"));
        assert_eq!(req.config_text("absent"), None);
        // The request stays `Copy` with a config attached.
        let copied = req;
        assert_eq!(copied.config_text("rigid"), req.config_text("rigid"));
    }

    #[test]
    fn solver_config_is_a_last_write_wins_text_map() {
        let config = SolverConfig::new()
            .with_text("assign", "greedy")
            .with_text("rigid", "steinberg")
            .with_text("rigid", "ffdh"); // last write wins
        assert_eq!(config.len(), 2);
        assert!(!config.is_empty());
        assert_eq!(config.text("assign"), Some("greedy"));
        assert_eq!(config.text("rigid"), Some("ffdh"));
        // Absent keys read as None, never panic.
        assert_eq!(config.text("absent"), None);
        assert_eq!(config.keys().collect::<Vec<_>>(), vec!["assign", "rigid"]);
        assert!(SolverConfig::default().is_empty());
    }

    #[test]
    fn time_budget_is_enforced_and_reported() {
        let inst = instance();
        // A zero budget truncates right after the climb; the outcome still
        // carries a valid schedule and certified bound, and reports the
        // truncation.
        let truncated = MrtSolver
            .solve(&SolveRequest::new(&inst).with_time_budget(Duration::ZERO))
            .unwrap();
        assert!(truncated.time_budget_exhausted);
        assert!(truncated.schedule.validate(&inst).is_ok());
        assert!(truncated.makespan() >= truncated.lower_bound - 1e-9);
        // An unbudgeted solve probes more and reports no truncation.
        let full = MrtSolver.solve(&SolveRequest::new(&inst)).unwrap();
        assert!(!full.time_budget_exhausted);
        assert!(full.probes > truncated.probes);
        // The canonical list solver ignores the knob (see its docs).
        let one_shot = CanonicalListSolver
            .solve(&SolveRequest::new(&inst).with_time_budget(Duration::ZERO))
            .unwrap();
        assert!(!one_shot.time_budget_exhausted);
    }

    #[test]
    fn mrt_solver_rejects_invalid_requests() {
        let inst = instance();
        let bad_lambda = SolveRequest::new(&inst).with_lambda(0.1);
        assert!(MrtSolver.solve(&bad_lambda).is_err());
        let no_branches = SolveRequest::new(&inst).with_branches(BranchSet {
            two_shelf: false,
            canonical_list: false,
            malleable_list: false,
            level_packing: false,
        });
        assert!(MrtSolver.solve(&no_branches).is_err());
    }

    #[test]
    fn probe_budget_caps_probes_in_both_search_modes() {
        let inst = instance();
        for mode in [SearchMode::Bisect, SearchMode::Exact] {
            let outcome = MrtSolver
                .solve(
                    &SolveRequest::new(&inst)
                        .with_mode(mode)
                        .with_probe_budget(2),
                )
                .unwrap();
            // Cap + the single climb probe that establishes feasibility.
            assert!(
                outcome.probes <= 3,
                "{mode:?}: {} probes exceed the budget",
                outcome.probes
            );
            assert!(outcome.schedule.validate(&inst).is_ok());
            // A truncated search still returns a valid certified bound.
            assert!(outcome.makespan() >= outcome.lower_bound - 1e-9);
        }
        // Without a budget the default search probes more.
        let unbounded = MrtSolver.solve(&SolveRequest::new(&inst)).unwrap();
        assert!(unbounded.probes > 3);
    }

    #[test]
    fn list_solver_is_a_one_shot_heuristic() {
        let inst = instance();
        let outcome = CanonicalListSolver
            .solve(&SolveRequest::new(&inst))
            .unwrap();
        assert!(outcome.schedule.validate(&inst).is_ok());
        assert_eq!(outcome.probes, 0);
        assert!(!outcome.certified);
        assert!(outcome.feasible_omega.is_none());
        assert!(!CanonicalListSolver.capabilities().supports_warm_start);
    }

    #[test]
    fn registry_resolves_names_and_aliases() {
        let registry = core_registry();
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.names().collect::<Vec<_>>(), vec!["mrt", "list"]);
        for alias in ["mrt", "mrt-sqrt3", "sqrt3"] {
            assert_eq!(registry.resolve(alias), Some("mrt"), "{alias}");
            assert_eq!(registry.get(alias).unwrap().name(), "mrt");
        }
        assert_eq!(registry.resolve("canonical-list"), Some("list"));
        assert!(registry.get("nope").is_none());
        assert_eq!(registry.aliases("mrt"), &["mrt-sqrt3", "sqrt3"]);
        assert!(registry.aliases("nope").is_empty());
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn registry_rejects_duplicate_names() {
        let mut registry = core_registry();
        registry.register("sqrt3", &[], || Arc::new(MrtSolver));
    }

    #[test]
    fn workspace_fast_path_matches_the_plain_path() {
        let inst = instance();
        let req = SolveRequest::new(&inst).with_mode(SearchMode::Exact);
        let plain = MrtSolver.solve(&req).unwrap();
        let mut ws = ProbeWorkspace::new();
        let warm = MrtSolver.solve_with_workspace(&req, &mut ws).unwrap();
        assert_eq!(plain.schedule, warm.schedule);
        assert!(ws.probes() > 0, "probes must be served by the workspace");
    }
}
