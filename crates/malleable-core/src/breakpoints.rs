//! Breakpoints of the dual-approximation oracle in the guess `ω`.
//!
//! The canonical processor count of a task is a monotone step function of the
//! guess whose discontinuities are exactly the per-task execution times
//! `t_j(q)` (§3 of Mounié–Rapine–Trystram).  Every quantity a probe derives
//! from the canonical allotment — canonical times, total work, the λ-area —
//! is therefore constant on the open intervals between consecutive values of
//! the set `{t_j(q)}`.  The feasibility *certificates* of a probe add two
//! more families of thresholds that move continuously with `ω` while the
//! canonical data stands still:
//!
//! * the **work condition** `W(ω) ≤ m·ω` (Property 2) flips at `ω = W/m`,
//!   where `W` is the canonical work of the interval;
//! * the **width condition** (tasks needing more than `m/2` processors can
//!   never overlap) flips at `ω = Σ t_j(m)` over the tall tasks of the
//!   interval (those whose canonical count `q_j` exceeds `m/2`).
//!
//! [`collect`] gathers all three families — `O(n·m)` values overall — with a
//! single descending sweep that maintains the canonical counts, work and
//! tall-task time incrementally.  On the resulting candidate list the probe
//! outcome is constant between consecutive candidates, which is what lets
//! the [`SearchMode::Exact`] search bisect over candidate *indices* instead of
//! blind `f64` midpoints: `⌈log₂(n·m)⌉ + O(1)` probes replace the fixed
//! 30-iteration dichotomic search, and an infeasible candidate certifies
//! `OPT ≥ next candidate` exactly instead of up to a tolerance.
//!
//! The search itself only needs the candidates inside its interval
//! `[lo, hi]`.  A profile's times are non-increasing, so the times inside
//! the window are one contiguous slice of it, found by two binary searches;
//! a warm-started online solve, whose window holds a few times of a few
//! tasks, pays `O(n·log m)` plus a sort of what the window holds, not a
//! scan and sort of all `n·m` profile entries.  The list is written into
//! buffers kept in the [`ProbeWorkspace`](crate::ProbeWorkspace), and
//! re-sorted only when a work or width kink joined the times.
//!
//! [`SearchMode::Exact`]: crate::dual::SearchMode::Exact

use crate::instance::Instance;
use crate::task::TaskId;

/// All candidate guesses at which a dual-approximation probe of `instance`
/// can change its answer: the per-task canonical times `t_j(q)` plus the
/// work/width feasibility kinks, sorted ascending and deduplicated.
pub fn collect(instance: &Instance) -> Vec<f64> {
    let mut buffers = CandidateBuffers::default();
    let candidates = search_candidates(instance, 0.0, f64::INFINITY, &mut buffers);
    candidates[1..candidates.len() - 1].to_vec()
}

/// The reusable buffers of [`search_candidates`], kept in the probe
/// workspace across solves.
#[derive(Debug, Clone, Default)]
pub(crate) struct CandidateBuffers {
    /// The candidate list handed out.
    candidates: Vec<f64>,
    /// In-window `(profile time, task)` pairs, descending.
    events: Vec<(f64, TaskId)>,
    /// Canonical counts of the downward sweep.
    counts: Vec<usize>,
}

/// The candidate guesses of [`collect`] restricted to the search interval
/// `[lo, hi]`, with the interval ends always included (ascending, distinct),
/// written into `buffers`.
///
/// Only profile times strictly inside the window are gathered and swept:
/// each profile's in-window slice is found by binary search (a profile that
/// is non-increasing only up to its validation slack is scanned whole), so
/// a warm-started search with a tight interval (the online epoch
/// re-planner) pays `O(n·log m)` for the slices and the window-top count
/// initialisation instead of a full `O(n·m·log(n·m))` sort of every
/// breakpoint.
pub(crate) fn search_candidates<'a>(
    instance: &Instance,
    lo: f64,
    hi: f64,
    buffers: &'a mut CandidateBuffers,
) -> &'a [f64] {
    let CandidateBuffers {
        candidates,
        events,
        counts,
    } = buffers;

    // Boundary events: the in-window profile times with their task, plateau
    // duplicates skipped.
    events.clear();
    for (id, task) in instance.iter() {
        let times = task.profile.times();
        let window = if task.profile.is_non_increasing() {
            // Times at or above `hi` form a prefix, and so do times above `lo`.
            let first = times.partition_point(|&t| t >= hi);
            let end = times.partition_point(|&t| lo < t);
            &times[first..end.max(first)]
        } else {
            times
        };
        // The entry before a slice is at or above `hi`, so it never equals
        // the slice's first time; the bounds are checked per time all the
        // same, which also keeps a NaN end from admitting any.
        let mut previous = f64::NAN;
        for &t in window {
            if t != previous && lo < t && t < hi {
                events.push((t, id));
            }
            previous = t;
        }
    }
    // Descending, so the sweep consumes each task's level changes in order.
    // The list is one descending run per task, which a stable sort merges.
    events.sort_by(|a, b| b.0.total_cmp(&a.0));

    // `lo`, then the distinct in-window times ascending (all above `lo`).
    candidates.clear();
    candidates.push(lo);
    for &(t, _) in events.iter().rev() {
        if candidates.last() != Some(&t) {
            candidates.push(t);
        }
    }
    let times_end = candidates.len();
    push_feasibility_kinks(instance, lo, hi, candidates, events, counts);
    if candidates.len() > times_end {
        // An ascending run and the kinks, which the sweep found top down.
        candidates.sort_by(f64::total_cmp);
        candidates.dedup();
    }
    if hi > lo {
        candidates.push(hi);
    }
    candidates
}

/// Append to `candidates` the `ω` values strictly inside `(lo, hi)` where
/// the work condition `W(ω) ≤ m·ω` or the tall-task condition flips, found
/// by sweeping the in-window breakpoints downwards while maintaining the
/// canonical counts incrementally.  On entry `candidates` holds `lo` and
/// then the sorted in-window breakpoints, and `events` the in-window
/// `(time, task)` pairs in descending order.  Counts are initialised at
/// the topmost in-window breakpoint (or at `lo` when the window holds
/// none) by binary search.
fn push_feasibility_kinks(
    instance: &Instance,
    lo: f64,
    hi: f64,
    candidates: &mut Vec<f64>,
    events: &[(f64, TaskId)],
    counts: &mut Vec<usize>,
) {
    let m = instance.processors();
    let times_end = candidates.len();

    // Counts on the interval `[v_k, v_{k+1})` equal the canonical counts at
    // `v_k` (no profile time lies strictly between consecutive breakpoints).
    // Initialise at the anchor of the topmost interval.
    let top_anchor = candidates[times_end - 1];
    counts.clear();
    let mut work = 0.0f64;
    let mut tall = 0.0f64;
    let tall_contribution = |j: usize, q: usize| {
        if 2 * q > m {
            instance.time(j, m)
        } else {
            0.0
        }
    };
    for (j, task) in instance.iter() {
        let Some(q) = task.canonical_processors(top_anchor) else {
            // Unreachable at the window top: everything in the window is
            // certainly infeasible, no kinks can matter.
            return;
        };
        work += q as f64 * task.time(q);
        tall += tall_contribution(j, q);
        counts.push(q);
    }

    // Emit the kinks of one interval (lower, upper): thresholds that fall
    // strictly inside it (and inside the window).
    let emit = |candidates: &mut Vec<f64>, lower: f64, upper: f64, work: f64, tall: f64| {
        let w_kink = work / m as f64;
        if lower < w_kink && w_kink < upper && lo < w_kink && w_kink < hi {
            candidates.push(w_kink);
        }
        if lower < tall && tall < upper && lo < tall && tall < hi {
            candidates.push(tall);
        }
    };

    // Topmost interval [top_anchor, hi).
    emit(candidates, top_anchor, hi, work, tall);

    // Sweep downwards: cross below each breakpoint, re-resolving the tasks
    // whose canonical time sat exactly on it, then emit the interval below
    // (the lowest one ends at `candidates[0] == lo`).
    let mut next_event = 0usize;
    for k in (1..times_end).rev() {
        let upper = candidates[k];
        let lower = candidates[k - 1];
        while next_event < events.len() && events[next_event].0 >= upper {
            let j = events[next_event].1;
            next_event += 1;
            let Some(q_new) = instance.task(j).canonical_processors(lower) else {
                // Dead below `upper`: everything lower is infeasible.
                return;
            };
            let q_old = counts[j];
            if q_new == q_old {
                continue;
            }
            work += instance.work(j, q_new) - instance.work(j, q_old);
            tall += tall_contribution(j, q_new) - tall_contribution(j, q_old);
            counts[j] = q_new;
        }
        emit(candidates, lower, upper, work, tall);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use crate::task::SpeedupProfile;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn instance() -> Instance {
        Instance::from_profiles(
            vec![
                SpeedupProfile::new(vec![3.0, 1.6, 1.2, 0.95]).unwrap(),
                SpeedupProfile::new(vec![1.7, 0.9]).unwrap(),
                SpeedupProfile::sequential(0.8).unwrap(),
                SpeedupProfile::linear(1.8, 4).unwrap(),
            ],
            4,
        )
        .unwrap()
    }

    /// [`search_candidates`] from fresh buffers.
    fn candidates(instance: &Instance, lo: f64, hi: f64) -> Vec<f64> {
        search_candidates(instance, lo, hi, &mut CandidateBuffers::default()).to_vec()
    }

    #[test]
    fn collect_contains_all_profile_times_sorted() {
        let inst = instance();
        let candidates = collect(&inst);
        for (_, task) in inst.iter() {
            for &t in task.profile.times() {
                assert!(
                    candidates.contains(&t),
                    "profile time {t} missing from {candidates:?}"
                );
            }
        }
        for pair in candidates.windows(2) {
            assert!(pair[0] < pair[1], "candidates must be strictly ascending");
        }
    }

    #[test]
    fn feasibility_is_constant_between_candidates() {
        // The defining property of the candidate set: `may_be_feasible` never
        // changes its answer strictly between two consecutive candidates.
        let inst = instance();
        let candidates = collect(&inst);
        for pair in candidates.windows(2) {
            let (lo, hi) = (pair[0], pair[1]);
            let samples = [
                lo + (hi - lo) * 0.05,
                lo + (hi - lo) * 0.35,
                lo + (hi - lo) * 0.65,
                lo + (hi - lo) * 0.95,
            ];
            let answers: Vec<bool> = samples
                .iter()
                .map(|&w| bounds::may_be_feasible(&inst, w))
                .collect();
            assert!(
                answers.windows(2).all(|w| w[0] == w[1]),
                "feasibility changed inside ({lo}, {hi}): {answers:?}"
            );
        }
    }

    #[test]
    fn search_candidates_are_clipped_and_bracketed() {
        let inst = instance();
        let lb = bounds::lower_bound(&inst);
        let ub = bounds::upper_bound(&inst);
        let candidates = candidates(&inst, lb, ub);
        assert_eq!(candidates.first().copied(), Some(lb));
        assert_eq!(candidates.last().copied(), Some(ub));
        for &c in &candidates {
            assert!((lb..=ub).contains(&c));
        }
        for pair in candidates.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }

    #[test]
    fn degenerate_interval_is_a_single_candidate() {
        let inst = instance();
        assert_eq!(candidates(&inst, 2.0, 2.0), vec![2.0]);
    }

    #[test]
    fn candidate_count_is_linear_in_profile_sizes() {
        let inst = instance();
        let total_profile_entries: usize =
            inst.iter().map(|(_, t)| t.profile.max_processors()).sum();
        // Each interval contributes at most two kinks, plus the times.
        assert!(collect(&inst).len() <= 3 * total_profile_entries + 2);
    }

    /// The candidate collection before the windowed search: it scans and
    /// sorts every profile entry.  Both versions build the kink sums
    /// incrementally in the same order, so they agree bit for bit; a
    /// reference that collected every candidate and then clipped to the
    /// window would sum in another order and could differ by ulps.
    fn reference_search_candidates(instance: &Instance, lo: f64, hi: f64) -> Vec<f64> {
        let mut candidates = vec![lo];
        candidates.extend(reference_collect_window(instance, lo, hi));
        if hi > lo {
            candidates.push(hi);
        }
        candidates
    }

    fn reference_collect_window(instance: &Instance, lo: f64, hi: f64) -> Vec<f64> {
        let mut values: Vec<f64> = Vec::new();
        for (_, task) in instance.iter() {
            let mut previous = f64::NAN;
            for &t in task.profile.times() {
                if t != previous && lo < t && t < hi {
                    values.push(t);
                }
                previous = t;
            }
        }
        values.sort_by(f64::total_cmp);
        values.dedup();
        let kinks = reference_feasibility_kinks(instance, &values, lo, hi);
        values.extend(kinks);
        values.sort_by(f64::total_cmp);
        values.dedup();
        values
    }

    fn reference_feasibility_kinks(
        instance: &Instance,
        sorted_times: &[f64],
        lo: f64,
        hi: f64,
    ) -> Vec<f64> {
        let m = instance.processors();
        let n = instance.task_count();
        let mut kinks = Vec::new();
        let top_anchor = sorted_times.last().copied().unwrap_or(lo);
        let mut counts = Vec::with_capacity(n);
        let mut work = 0.0f64;
        let mut tall = 0.0f64;
        let tall_contribution = |j: usize, q: usize| {
            if 2 * q > m {
                instance.time(j, m)
            } else {
                0.0
            }
        };
        for (j, task) in instance.iter() {
            let q = match task.canonical_processors(top_anchor) {
                Some(q) => q,
                None => return kinks,
            };
            work += q as f64 * task.time(q);
            tall += tall_contribution(j, q);
            counts.push(q);
        }
        let emit = |kinks: &mut Vec<f64>, lower: f64, upper: f64, work: f64, tall: f64| {
            let w_kink = work / m as f64;
            if lower < w_kink && w_kink < upper && lo < w_kink && w_kink < hi {
                kinks.push(w_kink);
            }
            if lower < tall && tall < upper && lo < tall && tall < hi {
                kinks.push(tall);
            }
        };
        emit(&mut kinks, top_anchor, hi, work, tall);
        let mut events: Vec<(f64, usize)> = Vec::new();
        for (id, task) in instance.iter() {
            let mut previous = f64::NAN;
            for &t in task.profile.times() {
                if t != previous && lo < t && t < hi {
                    events.push((t, id));
                }
                previous = t;
            }
        }
        events.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut next_event = 0usize;
        for k in (0..sorted_times.len()).rev() {
            let upper = sorted_times[k];
            let lower = if k > 0 { sorted_times[k - 1] } else { lo };
            while next_event < events.len() && events[next_event].0 >= upper {
                let j = events[next_event].1;
                next_event += 1;
                let q_new = match instance.task(j).canonical_processors(lower) {
                    Some(q) => q,
                    None => return kinks,
                };
                let q_old = counts[j];
                if q_new == q_old {
                    continue;
                }
                work += instance.work(j, q_new) - instance.work(j, q_old);
                tall += tall_contribution(j, q_new) - tall_contribution(j, q_old);
                counts[j] = q_new;
            }
            emit(&mut kinks, lower, upper, work, tall);
        }
        kinks
    }

    /// A random monotone profile on up to `m` processors: each time either
    /// repeats the one before (a plateau) or drops, repaired to keep the
    /// work non-decreasing.  Some are scaled as residuals, and some lift one
    /// plateau time by less than the validation slack, so the profile is
    /// non-increasing only up to that slack.
    fn random_profile(rng: &mut StdRng, m: usize) -> SpeedupProfile {
        let len = rng.gen_range(1..=m);
        let mut times = vec![rng.gen_range(0.2..6.0)];
        for _ in 1..len {
            let last = times[times.len() - 1];
            let next = if rng.gen_bool(0.3) {
                last
            } else {
                last * rng.gen_range(0.4..1.0)
            };
            times.push(next);
        }
        let mut profile = SpeedupProfile::repair(times);
        if rng.gen_bool(0.3) {
            profile = profile.scaled(rng.gen_range(0.05..1.0)).unwrap();
        }
        if rng.gen_bool(0.3) {
            let mut times = profile.times().to_vec();
            if let Some(p) = (1..times.len()).find(|&p| times[p] == times[p - 1]) {
                times[p] += 4e-13;
                if let Ok(lifted) = SpeedupProfile::new(times) {
                    profile = lifted;
                }
            }
        }
        profile
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The windowed collection returns the full scan's candidate list
        /// bit for bit, on every kind of window the search can be handed.
        #[test]
        fn windowed_candidates_match_the_full_scan(seed in 0u64..u64::MAX, window in 0usize..10) {
            let mut rng = StdRng::seed_from_u64(seed);
            let m = rng.gen_range(1..=12);
            let n = rng.gen_range(1..=6);
            let profiles = (0..n).map(|_| random_profile(&mut rng, m)).collect();
            let inst = Instance::from_profiles(profiles, m).unwrap();
            let times: Vec<f64> = inst
                .iter()
                .flat_map(|(_, task)| task.profile.times().iter().copied())
                .collect();
            let min = times.iter().copied().fold(f64::INFINITY, f64::min);
            let max = times.iter().copied().fold(0.0, f64::max);
            let pick = |rng: &mut StdRng| times[rng.gen_range(0..times.len())];
            // The two times around each lift of a profile that is
            // non-increasing only up to the slack.
            let lifts: Vec<(f64, f64)> = inst
                .iter()
                .flat_map(|(_, task)| task.profile.times().windows(2))
                .filter(|pair| pair[1] > pair[0])
                .map(|pair| (pair[0], pair[1]))
                .collect();
            let lift = (!lifts.is_empty()).then(|| lifts[rng.gen_range(0..lifts.len())]);
            let (lo, hi) = match (window, lift) {
                // Below every profile time.
                (0, _) => (min * 0.25, min * 0.5),
                // Above every profile time, closed and open.
                (1, _) => (max * 1.5, max * 3.0),
                (2, _) => (max * 1.5, f64::INFINITY),
                // A single point, on a profile time or not.
                (3, _) => {
                    let at = pick(&mut rng);
                    (at, at)
                }
                (4, _) => {
                    let at = rng.gen_range(min * 0.5..max * 1.5);
                    (at, at)
                }
                // Unbounded above.
                (5, _) => (rng.gen_range(0.0..max * 1.2), f64::INFINITY),
                // Both ends on profile times.
                (6, _) => {
                    let (a, b) = (pick(&mut rng), pick(&mut rng));
                    (a.min(b), a.max(b))
                }
                // An end on either side of a lift.
                (8, Some((below, _))) => (below, f64::INFINITY),
                (9, Some((_, above))) => (0.0, above),
                // Anywhere, in either order.
                _ => (rng.gen_range(0.0..max * 1.5), rng.gen_range(0.0..max * 1.5)),
            };
            let expected = reference_search_candidates(&inst, lo, hi);
            let got = candidates(&inst, lo, hi);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&got), bits(&expected), "window ({lo}, {hi}): {got:?} vs {expected:?}");
            // Buffers reused from a different window give the same list.
            let mut buffers = CandidateBuffers::default();
            search_candidates(&inst, 0.0, f64::INFINITY, &mut buffers);
            prop_assert_eq!(bits(search_candidates(&inst, lo, hi, &mut buffers)), bits(&expected));
        }
    }
}
