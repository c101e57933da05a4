//! Malleable tasks and monotone speed-up profiles.
//!
//! A malleable task is "a computational unit which may be executed on any
//! arbitrary number of processors, its execution time depending on the amount
//! of resources allotted to it" (§1 of the paper).  The paper's *monotonic*
//! assumption (§2.1) requires that allocating more processors never increases
//! the execution time and never decreases the work (the time × processors
//! product) — this is Brent's lemma ruling out super-linear speed-ups.
//!
//! [`SpeedupProfile`] stores the discrete execution-time function `t(p)` for
//! `p = 1..=p_max` and enforces both monotonicity conditions at construction
//! time, so every downstream algorithm can rely on them.

use crate::error::{Error, Result};

/// Identifier of a task inside an [`crate::Instance`]: simply its index.
pub type TaskId = usize;

/// Whether an execution time meets a deadline.  The `1e-12` slack absorbs
/// the rounding of guesses such as `θ·ω`; every canonical count goes
/// through this one comparison.
fn meets(time: f64, deadline: f64) -> bool {
    time <= deadline + 1e-12
}

/// A validated, monotone execution-time function `p ↦ t(p)`.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SpeedupProfile {
    /// `times[p-1]` is the execution time on `p` processors.
    times: Vec<f64>,
}

impl SpeedupProfile {
    /// Build a profile from the execution times on `1..=times.len()`
    /// processors, validating positivity and both monotonicity conditions.
    pub fn new(times: Vec<f64>) -> Result<Self> {
        if times.is_empty() {
            return Err(Error::EmptyProfile);
        }
        for (i, &t) in times.iter().enumerate() {
            if !(t.is_finite() && t > 0.0) {
                return Err(Error::InvalidTime {
                    processors: i + 1,
                    time: t,
                });
            }
        }
        for p in 2..=times.len() {
            let prev = times[p - 2];
            let cur = times[p - 1];
            if cur > prev + 1e-12 {
                return Err(Error::NonMonotonicTime { processors: p });
            }
            let prev_work = (p as f64 - 1.0) * prev;
            let cur_work = p as f64 * cur;
            if cur_work < prev_work - 1e-9 {
                return Err(Error::NonMonotonicWork { processors: p });
            }
        }
        Ok(SpeedupProfile { times })
    }

    /// Build a profile by evaluating `f(p)` for `p = 1..=max_processors`.
    ///
    /// The raw values are *repaired* into a monotone profile rather than
    /// rejected: times are clamped to be non-increasing and works to be
    /// non-decreasing, which is the standard way of feeding measured (noisy)
    /// timings to monotone-malleable schedulers.
    pub fn from_fn<F: FnMut(usize) -> f64>(max_processors: usize, mut f: F) -> Result<Self> {
        if max_processors == 0 {
            return Err(Error::EmptyProfile);
        }
        let mut times = Vec::with_capacity(max_processors);
        for p in 1..=max_processors {
            let raw = f(p);
            if !(raw.is_finite() && raw > 0.0) {
                return Err(Error::InvalidTime {
                    processors: p,
                    time: raw,
                });
            }
            times.push(raw);
        }
        Ok(Self::repair(times))
    }

    /// Repair an arbitrary positive time vector into a monotone profile:
    /// enforce non-increasing times, then non-decreasing work, in that order.
    pub fn repair(mut times: Vec<f64>) -> Self {
        assert!(!times.is_empty(), "cannot repair an empty profile");
        // Non-increasing execution times.
        for p in 1..times.len() {
            if times[p] > times[p - 1] {
                times[p] = times[p - 1];
            }
        }
        // Non-decreasing work: t(p) >= (p-1)/p * t(p-1).
        for p in 1..times.len() {
            let floor = (p as f64) / (p as f64 + 1.0) * times[p - 1];
            if times[p] < floor {
                times[p] = floor;
            }
        }
        SpeedupProfile { times }
    }

    /// A purely sequential task: the same time on any number of processors is
    /// not monotone in work, so a sequential task is modelled as a profile
    /// defined only for one processor.
    pub fn sequential(time: f64) -> Result<Self> {
        Self::new(vec![time])
    }

    /// A perfectly parallel (linear speed-up) task of the given total work,
    /// defined up to `max_processors`.
    pub fn linear(work: f64, max_processors: usize) -> Result<Self> {
        if max_processors == 0 {
            return Err(Error::EmptyProfile);
        }
        Self::new(
            (1..=max_processors)
                .map(|p| work / p as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// Largest processor count the profile is defined for.
    pub fn max_processors(&self) -> usize {
        self.times.len()
    }

    /// Execution time on `p` processors.
    ///
    /// For `p` beyond the profile's range the time of the largest defined
    /// count is returned (allotting extra processors brings no benefit).
    pub fn time(&self, p: usize) -> f64 {
        assert!(p >= 1, "processor count must be at least 1");
        let idx = p.min(self.times.len());
        self.times[idx - 1]
    }

    /// Work (processors × time) on `p` processors.
    ///
    /// Beyond the defined range the work keeps growing linearly with the idle
    /// extra processors, which is consistent with `time()` being flat there.
    pub fn work(&self, p: usize) -> f64 {
        p as f64 * self.time(p)
    }

    /// Sequential execution time `t(1)`.
    pub fn sequential_time(&self) -> f64 {
        self.times[0]
    }

    /// Minimal work over all processor counts.  Under the monotone assumption
    /// this is always the sequential work `t(1)`.
    pub fn min_work(&self) -> f64 {
        self.times[0]
    }

    /// The *canonical number of processors* for a deadline `d`: the minimal
    /// `p` with `t(p) ≤ d`, or `None` when even the full profile is too slow.
    ///
    /// This is the quantity written `γ(j, d)` / `q_j` in the paper; the
    /// monotonicity of `t` lets us binary-search for it.
    pub fn canonical_processors(&self, deadline: f64) -> Option<usize> {
        self.can_meet(deadline)
            .then(|| self.canonical_processors_within(deadline))
    }

    /// Whether some processor count meets `deadline`, i.e. whether
    /// [`SpeedupProfile::canonical_processors`] is `Some`: one comparison,
    /// since the largest count is the fastest.
    pub(crate) fn can_meet(&self, deadline: f64) -> bool {
        meets(self.min_time(), deadline)
    }

    /// The canonical count for a deadline the profile [can meet]: the
    /// binary search behind [`SpeedupProfile::canonical_processors`],
    /// without the reachability check (an unreachable deadline gets the
    /// largest count).
    ///
    /// [can meet]: SpeedupProfile::can_meet
    pub(crate) fn canonical_processors_within(&self, deadline: f64) -> usize {
        let mut lo = 0usize; // invariant: times[lo] might meet the deadline
        let mut hi = self.times.len() - 1; // invariant: times[hi] meets it
        while lo < hi {
            let mid = (lo + hi) / 2;
            if meets(self.times[mid], deadline) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo + 1
    }

    /// The minimum achievable execution time (on the largest defined count).
    pub fn min_time(&self) -> f64 {
        self.times[self.times.len() - 1]
    }

    /// Raw access to the underlying time table.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Return a copy of the profile with every execution time multiplied by
    /// `factor` (finite and positive).
    ///
    /// Scaling by a constant preserves both monotonicity conditions, which is
    /// what makes the *residual-task* model of mid-execution re-allotment
    /// sound: a task that has `factor` of its work left behaves exactly like
    /// a fresh task whose profile is the original scaled by `factor`.
    pub fn scaled(&self, factor: f64) -> Result<Self> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(Error::InvalidParameter {
                name: "scale",
                value: factor,
            });
        }
        Self::new(self.times.iter().map(|t| t * factor).collect())
    }

    /// Return a copy of the profile truncated to at most `max_processors`
    /// entries (used when an instance has fewer processors than the profile).
    pub fn truncated(&self, max_processors: usize) -> Self {
        let len = self.times.len().min(max_processors.max(1));
        SpeedupProfile {
            times: self.times[..len].to_vec(),
        }
    }
}

/// A malleable task: an identifier-friendly name plus its speed-up profile.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct MalleableTask {
    /// Optional human-readable label (used by examples and traces).
    pub name: Option<String>,
    /// The task's validated execution-time function.
    pub profile: SpeedupProfile,
}

impl MalleableTask {
    /// Create an anonymous task from a profile.
    pub fn new(profile: SpeedupProfile) -> Self {
        MalleableTask {
            name: None,
            profile,
        }
    }

    /// Create a named task from a profile.
    pub fn named(name: impl Into<String>, profile: SpeedupProfile) -> Self {
        MalleableTask {
            name: Some(name.into()),
            profile,
        }
    }

    /// Execution time on `p` processors.
    pub fn time(&self, p: usize) -> f64 {
        self.profile.time(p)
    }

    /// Work on `p` processors.
    pub fn work(&self, p: usize) -> f64 {
        self.profile.work(p)
    }

    /// Canonical number of processors for a deadline.
    pub fn canonical_processors(&self, deadline: f64) -> Option<usize> {
        self.profile.canonical_processors(deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn valid_profile_accepts_monotone_times() {
        let p = SpeedupProfile::new(vec![4.0, 2.5, 2.0, 1.8]).unwrap();
        assert_eq!(p.max_processors(), 4);
        assert_eq!(p.time(1), 4.0);
        assert_eq!(p.time(3), 2.0);
        assert!((p.work(4) - 7.2).abs() < 1e-12);
    }

    #[test]
    fn rejects_increasing_time() {
        let err = SpeedupProfile::new(vec![2.0, 2.5]).unwrap_err();
        assert_eq!(err, Error::NonMonotonicTime { processors: 2 });
    }

    #[test]
    fn rejects_superlinear_speedup() {
        // t(2) = 0.4 would make work 0.8 < 1.0 = work(1).
        let err = SpeedupProfile::new(vec![1.0, 0.4]).unwrap_err();
        assert_eq!(err, Error::NonMonotonicWork { processors: 2 });
    }

    #[test]
    fn rejects_empty_and_invalid_times() {
        assert_eq!(
            SpeedupProfile::new(vec![]).unwrap_err(),
            Error::EmptyProfile
        );
        assert!(matches!(
            SpeedupProfile::new(vec![1.0, 0.0]).unwrap_err(),
            Error::InvalidTime { processors: 2, .. }
        ));
        assert!(matches!(
            SpeedupProfile::new(vec![f64::NAN]).unwrap_err(),
            Error::InvalidTime { processors: 1, .. }
        ));
    }

    #[test]
    fn linear_profile_is_monotone_and_exact() {
        let p = SpeedupProfile::linear(12.0, 6).unwrap();
        assert_eq!(p.time(1), 12.0);
        assert_eq!(p.time(4), 3.0);
        assert!((p.work(6) - 12.0).abs() < 1e-9);
    }

    #[test]
    fn time_beyond_profile_is_flat() {
        let p = SpeedupProfile::new(vec![3.0, 2.0]).unwrap();
        assert_eq!(p.time(10), 2.0);
        assert!((p.work(10) - 20.0).abs() < 1e-12);
    }

    #[test]
    fn canonical_processors_basic() {
        let p = SpeedupProfile::new(vec![4.0, 2.5, 2.0, 1.8]).unwrap();
        assert_eq!(p.canonical_processors(4.0), Some(1));
        assert_eq!(p.canonical_processors(2.5), Some(2));
        assert_eq!(p.canonical_processors(2.4), Some(3));
        assert_eq!(p.canonical_processors(1.8), Some(4));
        assert_eq!(p.canonical_processors(1.0), None);
    }

    #[test]
    fn canonical_processors_sequential_task() {
        let p = SpeedupProfile::sequential(0.5).unwrap();
        assert_eq!(p.canonical_processors(0.5), Some(1));
        assert_eq!(p.canonical_processors(0.4), None);
    }

    #[test]
    fn repair_produces_monotone_profile() {
        let p = SpeedupProfile::repair(vec![4.0, 5.0, 1.0]);
        // Times repaired to non-increasing, then work floor applied.
        assert!(SpeedupProfile::new(p.times().to_vec()).is_ok());
        assert!(p.time(2) <= 4.0 + 1e-12);
        assert!(p.work(3) >= p.work(2) - 1e-9);
    }

    #[test]
    fn from_fn_repairs_amdahl_like_curve() {
        let p = SpeedupProfile::from_fn(8, |p| 1.0 / (0.2 + 0.8 / p as f64)).unwrap();
        // Amdahl speed-up is sub-linear, so this inverse is a *speed-up*, not
        // a time — from_fn should still repair it into a monotone profile.
        assert!(SpeedupProfile::new(p.times().to_vec()).is_ok());
    }

    #[test]
    fn scaled_profile_multiplies_every_time() {
        let p = SpeedupProfile::new(vec![4.0, 2.5, 2.0, 1.8]).unwrap();
        let half = p.scaled(0.5).unwrap();
        assert_eq!(half.time(1), 2.0);
        assert_eq!(half.time(3), 1.0);
        assert!(SpeedupProfile::new(half.times().to_vec()).is_ok());
        assert!(p.scaled(0.0).is_err());
        assert!(p.scaled(-1.0).is_err());
        assert!(p.scaled(f64::NAN).is_err());
    }

    #[test]
    fn truncated_profile_keeps_prefix() {
        let p = SpeedupProfile::new(vec![4.0, 2.5, 2.0, 1.8]).unwrap();
        let t = p.truncated(2);
        assert_eq!(t.max_processors(), 2);
        assert_eq!(t.time(2), 2.5);
    }

    #[test]
    fn named_task_keeps_name() {
        let task = MalleableTask::named("fft", SpeedupProfile::linear(4.0, 4).unwrap());
        assert_eq!(task.name.as_deref(), Some("fft"));
        assert_eq!(task.canonical_processors(1.0), Some(4));
    }

    /// Property 1 of the paper: if the canonical number of processors `q`
    /// exists then `t(q) > (q − 1)/q · deadline` — a direct consequence of the
    /// two monotonicity conditions, checked here on arbitrary valid profiles.
    #[test]
    fn property_one_holds_on_crafted_profiles() {
        let p = SpeedupProfile::new(vec![10.0, 5.5, 4.0, 3.2, 2.7]).unwrap();
        for deadline in [2.7, 3.0, 4.0, 6.0, 10.0] {
            if let Some(q) = p.canonical_processors(deadline) {
                if q > 1 {
                    assert!(
                        p.time(q) > (q as f64 - 1.0) / q as f64 * deadline - 1e-9,
                        "property 1 violated at deadline {deadline}: q={q}, t={}",
                        p.time(q)
                    );
                }
            }
        }
    }

    proptest! {
        /// Repair always yields a profile accepted by the validating constructor.
        #[test]
        fn repair_always_validates(times in prop::collection::vec(0.01f64..100.0, 1..32)) {
            let repaired = SpeedupProfile::repair(times);
            prop_assert!(SpeedupProfile::new(repaired.times().to_vec()).is_ok());
        }

        /// Canonical processor counts are monotone in the deadline: a looser
        /// deadline never needs more processors.
        #[test]
        fn canonical_monotone_in_deadline(
            times in prop::collection::vec(0.1f64..10.0, 1..16),
            d1 in 0.05f64..12.0,
            d2 in 0.05f64..12.0,
        ) {
            let p = SpeedupProfile::repair(times);
            let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
            match (p.canonical_processors(lo), p.canonical_processors(hi)) {
                (Some(a), Some(b)) => prop_assert!(a >= b),
                (Some(_), None) => prop_assert!(false, "loose deadline infeasible but tight feasible"),
                _ => {}
            }
        }

        /// Property 1 (paper §2.1) holds for every repaired profile: when the
        /// canonical number q > 1 exists, t(q) > (q-1)/q · d.
        #[test]
        fn property_one_generic(
            times in prop::collection::vec(0.1f64..10.0, 1..16),
            d in 0.05f64..12.0,
        ) {
            let p = SpeedupProfile::repair(times);
            if let Some(q) = p.canonical_processors(d) {
                if q > 1 {
                    prop_assert!(p.time(q) > (q as f64 - 1.0) / q as f64 * d - 1e-6);
                }
                // And the canonical allotment indeed meets the deadline.
                prop_assert!(p.time(q) <= d + 1e-9);
                if q > 1 {
                    prop_assert!(p.time(q - 1) > d - 1e-9);
                }
            }
        }

        /// Scaling a valid profile by any positive factor yields a profile
        /// the validating constructor accepts (the residual-task soundness
        /// condition).
        #[test]
        fn scaling_preserves_validity(
            times in prop::collection::vec(0.01f64..100.0, 1..32),
            factor in 1e-6f64..1.0,
        ) {
            let p = SpeedupProfile::repair(times);
            let scaled = p.scaled(factor).expect("positive factor scales");
            prop_assert!(SpeedupProfile::new(scaled.times().to_vec()).is_ok());
            for q in 1..=p.max_processors() {
                prop_assert!((scaled.time(q) - factor * p.time(q)).abs() <= 1e-12);
            }
        }

        /// Work is non-decreasing and time non-increasing across the whole
        /// defined range of any repaired profile.
        #[test]
        fn monotonicity_invariants(times in prop::collection::vec(0.01f64..50.0, 1..24)) {
            let p = SpeedupProfile::repair(times);
            for q in 2..=p.max_processors() {
                prop_assert!(p.time(q) <= p.time(q - 1) + 1e-9);
                prop_assert!(p.work(q) >= p.work(q - 1) - 1e-6);
            }
        }
    }
}
