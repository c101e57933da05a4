//! The residual-task model of mid-execution re-allotment.
//!
//! The malleable model lets a task's processor allotment change *while it
//! runs*.  Under the monotone speed-up model the clean way to account for
//! that is by **fraction of work executed**: a task running at allotment `p`
//! progresses at rate `1 / t(p)` of its whole work per unit of time, so a
//! segment of length `e` at allotment `p` completes the fraction `e / t(p)`
//! regardless of how much was already done.  Work executed at the old
//! allotment is conserved; the unexecuted tail behaves exactly like a fresh
//! task whose profile is the original scaled by the remaining fraction
//! ([`malleable_core::SpeedupProfile::scaled`]), because
//!
//! ```text
//! residual time at allotment p  =  remaining · t(p).
//! ```
//!
//! The online engine uses these helpers to hand preempted running tasks back
//! to the offline solver as *residual tasks*: zero-arrival pending tasks with
//! scaled profiles.  Any sequence of re-allotments then conserves total work
//! by construction — the executed fractions of the segments sum to one
//! (pinned by the workspace proptests).

use malleable_core::eps::{approx_eq, approx_le};
use malleable_core::{Error, MalleableTask, Result, SpeedupProfile};

/// Fraction of the *whole task* completed by running `elapsed` time units at
/// `allotment` processors.  Independent of how much of the task was already
/// done — progress accrues at rate `1 / t(allotment)`.
pub fn executed_fraction(profile: &SpeedupProfile, allotment: usize, elapsed: f64) -> f64 {
    elapsed / profile.time(allotment)
}

/// The profile of the unexecuted tail of a task with `remaining ∈ (0, 1]` of
/// its work left: the original profile scaled by `remaining`.
///
/// Errors when `remaining` is not a usable fraction (non-finite, ≤ 0 or
/// above 1 beyond rounding slack).
pub fn residual_profile(profile: &SpeedupProfile, remaining: f64) -> Result<SpeedupProfile> {
    check_fraction(remaining)?;
    if approx_eq(remaining, 1.0) {
        return Ok(profile.clone());
    }
    profile.scaled(remaining)
}

/// The residual task of `task` with `remaining ∈ (0, 1]` of its work left:
/// same name, profile scaled by `remaining` (see [`residual_profile`]).
pub fn residual_task(task: &MalleableTask, remaining: f64) -> Result<MalleableTask> {
    let mut residual = task.clone();
    residual_task_into(task, remaining, &mut residual)?;
    Ok(residual)
}

/// [`residual_task`] written over `out`, reusing its name and profile
/// buffers.  On an error `out` is left as it was.
pub fn residual_task_into(
    task: &MalleableTask,
    remaining: f64,
    out: &mut MalleableTask,
) -> Result<()> {
    check_fraction(remaining)?;
    if approx_eq(remaining, 1.0) {
        out.clone_from(task);
        return Ok(());
    }
    out.profile.assign_scaled(&task.profile, remaining)?;
    out.name.clone_from(&task.name);
    Ok(())
}

fn check_fraction(remaining: f64) -> Result<()> {
    if !(remaining.is_finite() && remaining > 0.0 && approx_le(remaining, 1.0)) {
        return Err(Error::InvalidParameter {
            name: "remaining",
            value: remaining,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn profile() -> SpeedupProfile {
        SpeedupProfile::new(vec![8.0, 4.5, 3.5]).unwrap()
    }

    #[test]
    fn executed_fraction_is_rate_times_elapsed() {
        let p = profile();
        assert!((executed_fraction(&p, 1, 2.0) - 0.25).abs() < 1e-12);
        assert!((executed_fraction(&p, 2, 4.5) - 1.0).abs() < 1e-12);
        // Allotments beyond the profile progress at the flat tail rate.
        assert!((executed_fraction(&p, 9, 3.5) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn residual_profile_scales_times() {
        let p = profile();
        let r = residual_profile(&p, 0.5).unwrap();
        assert_eq!(r.time(1), 4.0);
        assert_eq!(r.time(2), 2.25);
        // A full residual is the task itself, bit for bit.
        assert_eq!(residual_profile(&p, 1.0).unwrap(), p);
    }

    #[test]
    fn invalid_fractions_are_rejected() {
        let p = profile();
        let task = MalleableTask::new(p.clone());
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            assert!(residual_profile(&p, bad).is_err(), "fraction {bad}");
            assert!(residual_task(&task, bad).is_err(), "fraction {bad}");
        }
    }

    #[test]
    fn residual_task_keeps_the_name() {
        let task = MalleableTask::named("fft", profile());
        let r = residual_task(&task, 0.25).unwrap();
        assert_eq!(r.name.as_deref(), Some("fft"));
        assert!((r.time(1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn residual_task_into_overwrites_whatever_it_is_given() {
        let task = MalleableTask::named("fft", profile());
        let mut out = MalleableTask::new(SpeedupProfile::linear(9.0, 6).unwrap());
        for remaining in [0.25, 1.0, 0.7, 1.0 - 1e-12] {
            residual_task_into(&task, remaining, &mut out).unwrap();
            let expected = MalleableTask {
                name: task.name.clone(),
                profile: residual_profile(&task.profile, remaining).unwrap(),
            };
            assert_eq!(out, expected, "{remaining}");
        }
        for bad in [0.0, 1.5, f64::NAN] {
            let before = out.clone();
            // Compared as text: the NaN error carries a NaN.
            assert_eq!(
                residual_task_into(&task, bad, &mut out)
                    .unwrap_err()
                    .to_string(),
                residual_task(&task, bad).unwrap_err().to_string()
            );
            assert_eq!(out, before, "fraction {bad}");
        }
    }

    proptest! {
        /// Work conservation: running a task as an arbitrary sequence of
        /// segments, each at an arbitrary allotment, executes exactly its
        /// whole work — the executed fractions sum to one and the residual
        /// chain terminates with a zero tail (within 1e-6).
        #[test]
        fn reallotment_sequences_conserve_work(
            times in prop::collection::vec(0.05f64..20.0, 1..12),
            splits in prop::collection::vec((0.05f64..0.95, 1usize..12), 0..8),
        ) {
            let p = SpeedupProfile::repair(times);
            let mut remaining = 1.0f64;
            let mut executed = 0.0f64;
            for (cut, allotment) in splits {
                // Run the residual at `allotment` for `cut` of its residual
                // time, i.e. executing `cut · remaining` of the whole task.
                let residual = residual_profile(&p, remaining).unwrap();
                let elapsed = cut * residual.time(allotment);
                // Progress measured against the *original* profile: the
                // residual runs `elapsed / t(allotment)` of the whole task.
                let step = executed_fraction(&p, allotment, elapsed);
                prop_assert!((step - cut * remaining).abs() <= 1e-9);
                executed += step;
                remaining -= step;
                prop_assert!(remaining > 0.0);
            }
            // Finish the tail in one final segment at the widest allotment.
            let residual = residual_profile(&p, remaining).unwrap();
            let final_allotment = p.max_processors();
            executed += executed_fraction(&p, final_allotment, residual.time(final_allotment));
            prop_assert!((executed - 1.0).abs() <= 1e-6, "executed {executed}");
        }
    }
}
