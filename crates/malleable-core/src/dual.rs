//! Dual approximation algorithms and the binary search driving them.
//!
//! Following Hochbaum & Shmoys (and §2.2 of the paper), a *dual
//! ρ-approximation* receives a guess `ω` of the optimal makespan and either
//! returns a schedule of length at most `ρ·ω` or correctly reports that no
//! schedule of length at most `ω` exists.  A dichotomic search over `ω`
//! converts such an oracle into a `ρ(1 + 2^{-k})`-approximation after `k`
//! probes.
//!
//! The driver below additionally keeps the best schedule seen over all probes
//! and the largest ω it certified infeasible, so the caller gets both a
//! schedule and a *certified* lower bound on the optimum — the ratio of the
//! two is an instance-specific a-posteriori guarantee that is usually much
//! better than the worst-case ρ.  A rejected guess counts as certified only
//! where the necessary conditions of [`bounds::may_be_feasible`] fail too:
//! an oracle that finds no schedule without proving that none exists (the
//! MRT oracle restricted to the two-shelf branch) moves the search past the
//! guess but does not raise the bound.

use crate::bounds;
use crate::breakpoints;
use crate::error::{Error, Result};
use crate::instance::Instance;
use crate::schedule::Schedule;
use crate::workspace::ProbeWorkspace;

/// Outcome of one dual-approximation probe at a guess `ω`.
#[derive(Debug, Clone)]
pub enum DualOutcome {
    /// A schedule of length at most `ρ·ω` was constructed.
    Feasible(Schedule),
    /// No schedule of length at most `ω` exists (a certificate, not a failure).
    Infeasible,
}

impl DualOutcome {
    /// Whether this outcome carries a schedule.
    pub fn is_feasible(&self) -> bool {
        matches!(self, DualOutcome::Feasible(_))
    }
}

/// A dual approximation algorithm for the malleable scheduling problem.
pub trait DualApproximation {
    /// A short human-readable name (used in benchmark reports).
    fn name(&self) -> &'static str;

    /// The worst-case guarantee ρ of the algorithm on the given instance
    /// (some guarantees depend on `m`, e.g. `√3 + 3/(m+1)`).
    fn guarantee(&self, instance: &Instance) -> f64;

    /// Probe the guess `ω`.
    fn probe(&self, instance: &Instance, omega: f64) -> DualOutcome;

    /// Probe the guess `ω`, reusing the buffers of `workspace` across probes.
    ///
    /// The default implementation delegates to [`DualApproximation::probe`];
    /// algorithms with allocation-heavy probes (the combined MRT scheduler)
    /// override it to reuse the canonical-allotment cache, the packing
    /// scratch and the knapsack DP tables between probes.
    fn probe_with_workspace(
        &self,
        instance: &Instance,
        omega: f64,
        workspace: &mut ProbeWorkspace,
    ) -> DualOutcome {
        let _ = workspace;
        self.probe(instance, omega)
    }
}

/// Result of a dual-approximation binary search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The best (shortest) schedule found over all probes.
    pub schedule: Schedule,
    /// The largest guess that was certified infeasible, combined with the
    /// static lower bounds of [`bounds::lower_bound`]; the optimum makespan is
    /// at least this value.
    pub certified_lower_bound: f64,
    /// The smallest guess for which a schedule was obtained.
    pub feasible_omega: f64,
    /// Number of probes performed.
    pub probes: usize,
    /// Whether the wall-clock budget ([`DualSearch::time_budget`]) expired
    /// and truncated the search.
    pub time_budget_exhausted: bool,
    /// Wall time of the whole search, measured on the workspace-wide
    /// monotonic clock ([`telemetry::SpanTimer`]) — the same timer that
    /// enforces [`DualSearch::time_budget`], so budget checks and the
    /// reported duration can never disagree.
    pub wall_time: std::time::Duration,
}

impl SearchResult {
    /// The a-posteriori approximation ratio `makespan / certified lower bound`.
    pub fn ratio(&self) -> f64 {
        if self.certified_lower_bound <= 0.0 {
            return 1.0;
        }
        self.schedule.makespan() / self.certified_lower_bound
    }
}

/// How the dichotomic search picks its probe points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchMode {
    /// Blind `f64` midpoint bisection of §2.2 (the classical search).
    #[default]
    Bisect,
    /// Bisection over the index space of the oracle's breakpoints (the
    /// per-task canonical times plus the work/width feasibility kinks, see
    /// [`crate::breakpoints`]).  The oracle's answer only changes at
    /// breakpoints, so `⌈log₂(n·m)⌉ + O(1)` probes replace the fixed
    /// iteration budget, and the certified lower bound is exact at a
    /// breakpoint instead of tolerance-limited.
    Exact,
}

impl SearchMode {
    /// Stable name used in reports and on the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            SearchMode::Bisect => "bisect",
            SearchMode::Exact => "exact",
        }
    }
}

/// Probe budget of the quality-descent phase of [`SearchMode::Exact`]: after
/// the breakpoint bisection has pinned the oracle's feasibility threshold,
/// up to this many classical midpoint probes sweep the feasible region for
/// *schedule quality* (branch quality, unlike feasibility, is not constant
/// between breakpoints — the two-shelf construction moves continuously with
/// ω).  Part of the `O(1)` in the exact mode's `⌈log₂(n·m)⌉ + O(1)` probe
/// bound.
pub const EXACT_QUALITY_PROBES: usize = 12;

/// Configuration of the dichotomic search.
#[derive(Debug, Clone, Copy)]
pub struct DualSearch {
    /// Number of bisection iterations (`k`); the interval shrinks by `2^{-k}`.
    pub iterations: usize,
    /// Stop early once the relative width of the interval drops below this.
    pub relative_tolerance: f64,
    /// Hard cap on the total oracle probes of one solve, counted across every
    /// phase (both search modes and the exact mode's quality descent); `None`
    /// is unbounded.  The probes needed to establish the first feasible guess
    /// are exempt — without one there is no schedule to return — so a solve
    /// can exceed the cap by the climb probes (one, when the static upper
    /// bound is accepted).  Truncating the search early never invalidates the
    /// certified lower bound; it only costs refinement.
    pub max_probes: Option<usize>,
    /// Wall-clock budget of one solve, enforced at the same points as
    /// [`DualSearch::max_probes`] (checked before each refinement probe; the
    /// climb to the first feasible guess is exempt for the same reason).  A
    /// solve can overrun by at most one oracle probe.  `None` is unbounded.
    pub time_budget: Option<std::time::Duration>,
}

impl Default for DualSearch {
    fn default() -> Self {
        DualSearch {
            iterations: 30,
            relative_tolerance: 1e-6,
            max_probes: None,
            time_budget: None,
        }
    }
}

/// Probe bookkeeping shared by every phase of the search driver: the probe
/// counter, the best (shortest) schedule seen with its cached makespan, the
/// smallest guess accepted so far and the certified lower bound.  Factoring
/// it out is what lets the climb, bisection, breakpoint and quality-descent
/// phases share one oracle call site instead of four hand-rolled copies.
struct SearchState<'a> {
    instance: &'a Instance,
    algorithm: &'a dyn DualApproximation,
    probes: usize,
    best: Option<Schedule>,
    best_makespan: f64,
    feasible_omega: f64,
    /// The largest guess certified infeasible, at least the static bound.
    /// It is kept apart from the lower end of the search interval: an
    /// oracle may reject a guess it built no schedule for (a restricted
    /// branch set), which moves the search on but certifies nothing.
    certified: f64,
    /// When the solve started — one [`telemetry::SpanTimer`] serves both the
    /// wall-clock budget checks and the reported [`SearchResult::wall_time`].
    started: telemetry::SpanTimer,
    /// Set once the wall-clock budget truncated a phase.
    time_budget_exhausted: bool,
}

/// What one bookkept probe observed.
struct ProbeStep {
    /// The oracle accepted the guess.
    feasible: bool,
    /// The probe's schedule improved on the best seen so far.
    improved: bool,
}

impl<'a> SearchState<'a> {
    fn new(
        instance: &'a Instance,
        algorithm: &'a dyn DualApproximation,
        static_lower_bound: f64,
    ) -> Self {
        SearchState {
            instance,
            algorithm,
            probes: 0,
            best: None,
            best_makespan: f64::INFINITY,
            feasible_omega: f64::INFINITY,
            certified: static_lower_bound,
            started: telemetry::SpanTimer::start(),
            time_budget_exhausted: false,
        }
    }

    /// Probe `omega` and fold the outcome into the running state.
    fn probe(&mut self, omega: f64, workspace: &mut ProbeWorkspace) -> ProbeStep {
        self.probes += 1;
        match self
            .algorithm
            .probe_with_workspace(self.instance, omega, workspace)
        {
            DualOutcome::Feasible(s) => {
                self.feasible_omega = self.feasible_omega.min(omega);
                let makespan = s.makespan();
                let improved = makespan < self.best_makespan;
                if improved {
                    self.best_makespan = makespan;
                    self.best = Some(s);
                }
                ProbeStep {
                    feasible: true,
                    improved,
                }
            }
            DualOutcome::Infeasible => ProbeStep {
                feasible: false,
                improved: false,
            },
        }
    }

    /// Raise the certified bound to `omega`, a guess the oracle rejected,
    /// when the necessary conditions of [`bounds::may_be_feasible`] fail
    /// there too: only then is the rejection a certificate that
    /// `OPT > omega`.  Cold: every guess the search probes lies at or above
    /// the static bound, where the conditions hold, so an oracle whose
    /// rejections are all certificates (the default MRT oracle) never gets
    /// here.
    #[cold]
    fn certify_rejection(&mut self, omega: f64) {
        if omega > self.certified && !bounds::may_be_feasible(self.instance, omega) {
            self.certified = omega;
        }
    }

    /// The best schedule already reaches `lo`, the lower end of the search
    /// interval (the certified bound when every rejection is a
    /// certificate): no probe can improve either side.
    fn gap_closed(&self, lo: f64) -> bool {
        self.best_makespan <= lo * (1.0 + 1e-9)
    }

    fn into_result(self) -> Result<SearchResult> {
        let schedule = self.best.ok_or(Error::NoFeasibleSchedule)?;
        Ok(SearchResult {
            schedule,
            certified_lower_bound: self.certified,
            feasible_omega: self.feasible_omega,
            probes: self.probes,
            time_budget_exhausted: self.time_budget_exhausted,
            wall_time: self.started.elapsed(),
        })
    }
}

impl DualSearch {
    /// A search with a fixed number of iterations and no early stop.
    pub fn with_iterations(iterations: usize) -> Self {
        DualSearch {
            iterations,
            relative_tolerance: 0.0,
            ..Default::default()
        }
    }

    /// Whether the probe cap or the wall-clock budget is exhausted (records
    /// time exhaustion in the state so the result can report it).
    fn out_of_budget(&self, state: &mut SearchState<'_>) -> bool {
        if self.max_probes.is_some_and(|cap| state.probes >= cap) {
            return true;
        }
        if self
            .time_budget
            .is_some_and(|budget| state.started.elapsed() >= budget)
        {
            state.time_budget_exhausted = true;
            return true;
        }
        false
    }

    /// Run the dichotomic search of §2.2 on `algorithm` in the given mode,
    /// reusing `workspace` across probes.  This is the one search driver:
    /// the `mrt` solver and every custom oracle go through it.
    ///
    /// The initial interval is `[LB, UB]` from the [`bounds`] module,
    /// optionally narrowed by a warm-start hint for the upper end (a guess
    /// believed feasible, e.g. scaled over from the previous epoch of an
    /// online re-planner).  A hint below the true threshold only costs the
    /// doubling probes needed to climb back; correctness is unaffected.  If
    /// the algorithm rejects even the guaranteed-feasible upper bound (which
    /// a correct dual approximation never should), the upper end is doubled
    /// a few times before giving up with [`Error::NoFeasibleSchedule`].
    pub fn solve_guided(
        &self,
        instance: &Instance,
        algorithm: &dyn DualApproximation,
        mode: SearchMode,
        upper_hint: Option<f64>,
        workspace: &mut ProbeWorkspace,
    ) -> Result<SearchResult> {
        // The static lower bound is computed once per solve (it is itself a
        // bisection over the feasibility conditions) and reused both as the
        // initial `lo` and as the certified-bound floor.
        let static_lb = bounds::lower_bound(instance);
        let mut lo = static_lb;
        let mut hi = bounds::upper_bound(instance).max(lo);
        if let Some(hint) = upper_hint {
            if hint.is_finite() && hint > 0.0 {
                hi = hi.min(hint.max(lo));
            }
        }

        let mut state = SearchState::new(instance, algorithm, static_lb);
        self.climb_to_feasible(&mut state, &mut lo, &mut hi, workspace)?;
        match mode {
            SearchMode::Bisect => self.bisect_phase(&mut state, &mut lo, &mut hi, workspace),
            SearchMode::Exact => self.exact_phase(&mut state, &mut lo, hi, workspace),
        }
        state.into_result()
    }

    /// Ensure the upper end of the interval is actually accepted by the
    /// oracle, doubling past a lowball warm-start hint when necessary.
    fn climb_to_feasible(
        &self,
        state: &mut SearchState<'_>,
        lo: &mut f64,
        hi: &mut f64,
        workspace: &mut ProbeWorkspace,
    ) -> Result<()> {
        let mut attempts = 0;
        loop {
            if state.probe(*hi, workspace).feasible {
                return Ok(());
            }
            state.certify_rejection(*hi);
            *lo = lo.max(*hi);
            *hi *= 2.0;
            attempts += 1;
            if attempts > 16 {
                return Err(Error::NoFeasibleSchedule);
            }
        }
    }

    /// The classical `f64` midpoint bisection of §2.2.
    fn bisect_phase(
        &self,
        state: &mut SearchState<'_>,
        lo: &mut f64,
        hi: &mut f64,
        workspace: &mut ProbeWorkspace,
    ) {
        for _ in 0..self.iterations {
            if self.out_of_budget(state)
                || *hi - *lo <= self.relative_tolerance * hi.max(1e-12)
                || state.gap_closed(*lo)
            {
                break;
            }
            let mid = 0.5 * (*lo + *hi);
            if state.probe(mid, workspace).feasible {
                *hi = mid;
            } else {
                state.certify_rejection(mid);
                *lo = mid;
            }
        }
    }

    /// Breakpoint-index bisection plus the bounded quality descent of
    /// [`SearchMode::Exact`].
    fn exact_phase(
        &self,
        state: &mut SearchState<'_>,
        lo: &mut f64,
        hi: f64,
        workspace: &mut ProbeWorkspace,
    ) {
        // Bisect over breakpoint indices: feasibility is constant between
        // consecutive candidates, so the smallest feasible candidate is the
        // oracle's true threshold.
        let candidates = breakpoints::search_candidates(state.instance, *lo, hi);
        let mut hi_idx = candidates.len() - 1; // == hi, probed feasible
        let mut lo_idx: Option<usize> = None;
        while lo_idx.map_or(0, |k| k + 1) < hi_idx {
            if self.out_of_budget(state) || state.gap_closed(*lo) {
                break;
            }
            let mid = (lo_idx.map_or(0, |k| k + 1) + hi_idx) / 2;
            if state.probe(candidates[mid], workspace).feasible {
                hi_idx = mid;
            } else {
                lo_idx = Some(mid);
            }
        }
        if let Some(k) = lo_idx {
            // The candidate set makes the *necessary feasibility conditions*
            // piecewise-constant, so verifying them at one interior point
            // certifies the whole half-open interval: if they fail there,
            // `OPT ≥ candidates[hi_idx]` exactly.  An oracle may also reject
            // for non-certificate reasons (ablation branch subsets, custom
            // oracles) whose thresholds are not in the candidate set — in
            // that case the search moves past the probed guess, which
            // certifies only what the conditions there certify.
            let interior = 0.5 * (candidates[k] + candidates[hi_idx]);
            if !bounds::may_be_feasible(state.instance, interior) {
                let certificate = candidates[hi_idx].min(state.best_makespan);
                state.certified = state.certified.max(certificate);
                *lo = lo.max(certificate);
            } else {
                state.certify_rejection(candidates[k]);
                *lo = lo.max(candidates[k]);
            }
        }

        // Quality descent: the certified bound is already exact, but branch
        // quality (unlike feasibility) is not constant between breakpoints —
        // the two-shelf construction moves continuously with ω.  Spend a
        // small bounded budget on the classical midpoint descent through the
        // known-feasible region; in the common case where the threshold sits
        // at the static bound, this retraces the bisection search's own probe
        // points.
        let mut quality_hi = hi;
        let quality_lo = state.feasible_omega;
        let mut stale = 0usize;
        for _ in 0..EXACT_QUALITY_PROBES {
            // Stop on a stale streak, a closed a-posteriori gap, or a region
            // already narrower than the search tolerance (the same stopping
            // rule the bisection mode uses) — the last is what keeps
            // warm-started epoch re-solves cheap.
            if self.out_of_budget(state)
                || stale >= 8
                || state.gap_closed(*lo)
                || quality_hi - quality_lo
                    <= self.relative_tolerance.max(1e-9) * quality_hi.max(1e-12)
            {
                break;
            }
            let mid = 0.5 * (quality_lo + quality_hi);
            let step = state.probe(mid, workspace);
            if !step.feasible {
                // Above the certified threshold every guess is feasible for a
                // monotone oracle; stop rather than fight a non-monotone one.
                break;
            }
            quality_hi = mid;
            if step.improved {
                stale = 0;
            } else {
                stale += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allotment::Allotment;
    use crate::list::{schedule_rigid, ListOrder};
    use crate::task::SpeedupProfile;

    /// A deliberately simple dual 2-approximation used to exercise the search:
    /// canonical allotment + list scheduling, rejecting ω when the canonical
    /// allotment does not exist or violates the area bound (Property 2).
    struct CanonicalListOracle;

    impl DualApproximation for CanonicalListOracle {
        fn name(&self) -> &'static str {
            "canonical-list-test-oracle"
        }

        fn guarantee(&self, _instance: &Instance) -> f64 {
            2.0
        }

        fn probe(&self, instance: &Instance, omega: f64) -> DualOutcome {
            if !bounds::may_be_feasible(instance, omega) {
                return DualOutcome::Infeasible;
            }
            let allotment = match Allotment::canonical(instance, omega) {
                Ok(a) => a,
                Err(_) => return DualOutcome::Infeasible,
            };
            DualOutcome::Feasible(schedule_rigid(
                instance,
                &allotment,
                ListOrder::DecreasingAllottedTime,
            ))
        }
    }

    /// Search the test oracle from a fresh workspace.
    fn run(search: DualSearch, inst: &Instance, mode: SearchMode) -> SearchResult {
        search
            .solve_guided(
                inst,
                &CanonicalListOracle,
                mode,
                None,
                &mut ProbeWorkspace::new(),
            )
            .unwrap()
    }

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
    fn search_produces_valid_schedule_and_bounds() {
        let inst = instance();
        let result = run(DualSearch::default(), &inst, SearchMode::Bisect);
        assert!(result.schedule.validate(&inst).is_ok());
        assert!(result.certified_lower_bound > 0.0);
        assert!(result.schedule.makespan() >= result.certified_lower_bound - 1e-9);
        assert!(result.ratio() <= 2.0 + 1e-6, "ratio was {}", result.ratio());
        assert!(result.probes >= 2);
    }

    #[test]
    fn more_iterations_never_worsen_the_result() {
        let inst = instance();
        let coarse = run(DualSearch::with_iterations(2), &inst, SearchMode::Bisect);
        let fine = run(DualSearch::with_iterations(40), &inst, SearchMode::Bisect);
        assert!(fine.schedule.makespan() <= coarse.schedule.makespan() + 1e-9);
        assert!(fine.certified_lower_bound >= coarse.certified_lower_bound - 1e-9);
    }

    #[test]
    fn single_task_converges_to_its_best_time() {
        let inst =
            Instance::from_profiles(vec![SpeedupProfile::linear(8.0, 4).unwrap()], 4).unwrap();
        let result = run(DualSearch::default(), &inst, SearchMode::Bisect);
        // The only schedule is the task alone; optimum is t(4) = 2.0.
        assert!((result.schedule.makespan() - 2.0).abs() < 1e-6);
        assert!((result.certified_lower_bound - 2.0).abs() < 1e-3);
    }

    #[test]
    fn search_mode_names_are_stable() {
        assert_eq!(SearchMode::Bisect.name(), "bisect");
        assert_eq!(SearchMode::Exact.name(), "exact");
        assert_eq!(SearchMode::default(), SearchMode::Bisect);
    }

    #[test]
    fn exact_mode_solves_the_test_oracle_with_fewer_probes() {
        let inst = instance();
        let bisect = run(DualSearch::default(), &inst, SearchMode::Bisect);
        let exact = run(DualSearch::default(), &inst, SearchMode::Exact);
        assert!(exact.schedule.validate(&inst).is_ok());
        assert!(exact.certified_lower_bound >= bisect.certified_lower_bound - 1e-9);
        assert!(
            exact.probes < bisect.probes,
            "exact used {} probes, bisect {}",
            exact.probes,
            bisect.probes
        );
        assert!(exact.schedule.makespan() >= exact.certified_lower_bound - 1e-9);
    }

    #[test]
    fn solve_guided_accepts_upper_hints() {
        let inst = instance();
        let base = run(DualSearch::default(), &inst, SearchMode::Bisect);
        let mut ws = ProbeWorkspace::new();
        // A hint just above the known-feasible guess narrows the interval.
        let hinted = DualSearch::default()
            .solve_guided(
                &inst,
                &CanonicalListOracle,
                SearchMode::Bisect,
                Some(base.feasible_omega * 1.01),
                &mut ws,
            )
            .unwrap();
        assert!(hinted.schedule.validate(&inst).is_ok());
        assert!(hinted.probes <= base.probes);
        // An absurd lowball hint is recovered by the doubling climb.
        let lowball = DualSearch::default()
            .solve_guided(
                &inst,
                &CanonicalListOracle,
                SearchMode::Exact,
                Some(1e-12),
                &mut ws,
            )
            .unwrap();
        assert!(lowball.schedule.validate(&inst).is_ok());
    }

    #[test]
    fn time_budget_truncates_but_stays_valid() {
        let inst = instance();
        for mode in [SearchMode::Bisect, SearchMode::Exact] {
            // A zero budget expires before the first refinement probe: only
            // the climb (exempt, it produces the schedule) runs.
            let search = DualSearch {
                time_budget: Some(std::time::Duration::ZERO),
                ..Default::default()
            };
            let result = search
                .solve_guided(
                    &inst,
                    &CanonicalListOracle,
                    mode,
                    None,
                    &mut ProbeWorkspace::new(),
                )
                .unwrap();
            assert!(result.time_budget_exhausted, "{mode:?}");
            assert_eq!(result.probes, 1, "{mode:?}: climb only");
            assert!(result.schedule.validate(&inst).is_ok());
            assert!(result.schedule.makespan() >= result.certified_lower_bound - 1e-9);
        }
        // A generous budget never truncates.
        let search = DualSearch {
            time_budget: Some(std::time::Duration::from_secs(3600)),
            ..Default::default()
        };
        let result = run(search, &inst, SearchMode::Bisect);
        assert!(!result.time_budget_exhausted);
        assert!(result.probes >= 2);
    }

    /// Monotonicity of the oracle: feasible at ω implies feasible at ω' ≥ ω.
    #[test]
    fn oracle_is_monotone() {
        let inst = instance();
        let oracle = CanonicalListOracle;
        let omegas = [0.5, 1.0, 1.5, 2.0, 3.0, 5.0];
        let outcomes: Vec<bool> = omegas
            .iter()
            .map(|&w| oracle.probe(&inst, w).is_feasible())
            .collect();
        for w in outcomes.windows(2) {
            assert!(!w[0] || w[1], "feasibility must be monotone in ω");
        }
    }
}
