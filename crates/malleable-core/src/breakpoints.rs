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
//! [`SearchMode::Exact`]: crate::dual::SearchMode::Exact

use crate::instance::Instance;

/// All candidate guesses at which a dual-approximation probe of `instance`
/// can change its answer: the per-task canonical times `t_j(q)` plus the
/// work/width feasibility kinks, sorted ascending and deduplicated.
pub fn collect(instance: &Instance) -> Vec<f64> {
    collect_window(instance, 0.0, f64::INFINITY)
}

/// The candidate guesses of [`collect`] restricted to the search interval
/// `[lo, hi]`, with the interval ends always included (ascending, distinct).
///
/// Only profile times strictly inside the window are gathered and swept, so
/// a warm-started search with a tight interval (the online epoch re-planner)
/// pays `O(n·log m)` for the window-top count initialisation instead of a
/// full `O(n·m·log(n·m))` sort of every breakpoint.
pub fn search_candidates(instance: &Instance, lo: f64, hi: f64) -> Vec<f64> {
    let mut candidates = vec![lo];
    candidates.extend(collect_window(instance, lo, hi));
    if hi > lo {
        candidates.push(hi);
    }
    candidates
}

/// Breakpoints and feasibility kinks strictly inside `(lo, hi)`, ascending
/// and deduplicated.
fn collect_window(instance: &Instance, lo: f64, hi: f64) -> Vec<f64> {
    let mut values: Vec<f64> = Vec::new();
    for (_, task) in instance.iter() {
        // Profile times are non-increasing in the processor count; skip the
        // plateau duplicates as we go.
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
    let kinks = feasibility_kinks(instance, &values, lo, hi);
    values.extend(kinks);
    values.sort_by(f64::total_cmp);
    values.dedup();
    values
}

/// The `ω` values strictly inside `(lo, hi)` where the work condition
/// `W(ω) ≤ m·ω` or the tall-task condition flips, found by sweeping the
/// sorted in-window breakpoints downwards while maintaining the canonical
/// counts incrementally.  Counts are initialised at the topmost in-window
/// breakpoint (or at `lo` when the window holds none) by binary search.
fn feasibility_kinks(instance: &Instance, sorted_times: &[f64], lo: f64, hi: f64) -> Vec<f64> {
    let m = instance.processors();
    let n = instance.task_count();
    let mut kinks = Vec::new();

    // Counts on the interval `[v_k, v_{k+1})` equal the canonical counts at
    // `v_k` (no profile time lies strictly between consecutive breakpoints).
    // Initialise at the anchor of the topmost interval.
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
            // Unreachable at the window top: everything in the window is
            // certainly infeasible, no kinks can matter.
            None => return kinks,
        };
        work += q as f64 * task.time(q);
        tall += tall_contribution(j, q);
        counts.push(q);
    }

    // Emit the kinks of one interval (lower, upper): thresholds that fall
    // strictly inside it (and inside the window).
    let emit = |kinks: &mut Vec<f64>, lower: f64, upper: f64, work: f64, tall: f64| {
        let w_kink = work / m as f64;
        if lower < w_kink && w_kink < upper && lo < w_kink && w_kink < hi {
            kinks.push(w_kink);
        }
        if lower < tall && tall < upper && lo < tall && tall < hi {
            kinks.push(tall);
        }
    };

    // Topmost interval [top_anchor, hi).
    emit(&mut kinks, top_anchor, hi, work, tall);

    // Boundary events: (in-window profile time, task) pairs descending, so
    // the sweep consumes each task's level changes in order.
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

    // Sweep downwards: cross below each breakpoint, re-resolving the tasks
    // whose canonical time sat exactly on it, then emit the interval below.
    let mut next_event = 0usize;
    for k in (0..sorted_times.len()).rev() {
        let upper = sorted_times[k];
        let lower = if k > 0 { sorted_times[k - 1] } else { lo };
        while next_event < events.len() && events[next_event].0 >= upper {
            let j = events[next_event].1;
            next_event += 1;
            let q_new = match instance.task(j).canonical_processors(lower) {
                Some(q) => q,
                // Dead below `upper`: everything lower is infeasible.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use crate::task::SpeedupProfile;

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
        let candidates = search_candidates(&inst, lb, ub);
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
        let candidates = search_candidates(&inst, 2.0, 2.0);
        assert_eq!(candidates, vec![2.0]);
    }

    #[test]
    fn candidate_count_is_linear_in_profile_sizes() {
        let inst = instance();
        let total_profile_entries: usize =
            inst.iter().map(|(_, t)| t.profile.max_processors()).sum();
        // Each interval contributes at most two kinks, plus the times.
        assert!(collect(&inst).len() <= 3 * total_profile_entries + 2);
    }
}
