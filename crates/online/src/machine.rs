//! Incremental machine state: the live reservation book of every processor.
//!
//! The machine is backed by an interval-reservation timeline
//! ([`packing::reservations::ReservationTimeline`]): every placement is a
//! first-class reservation identified by a revocable
//! [`ReservationId`] handle, and the clock ([`MachineState::advance_to`]) no
//! longer destroys idle holes.  Two resource models are offered:
//!
//! * **frontier mode** ([`MachineState::new`]) — placements start at or
//!   after the per-processor "busy until" frontier, idle holes below it are
//!   never reused.  This is exactly the schedule structure of the paper's §3
//!   list algorithms (the staircase idle areas of its Figure 2 are discarded
//!   on purpose) and the engine's historical behaviour.
//! * **backfill mode** ([`MachineState::with_backfill`]) — window queries
//!   are duration-aware and first-fit into existing holes below the
//!   frontier, the resource model of cloud-facing malleable schedulers.
//!
//! In both modes commitments *can* be revoked while still queued
//! ([`MachineState::revoke`]): task departures cancel reservations that have
//! not started, and preemptive epoch re-planning pulls queued reservations
//! back into the pending set.  Running commitments can additionally be
//! *preempted* ([`MachineState::truncate_at`]): the reservation is cut at
//! the current clock, the executed head stays on the books and the
//! unexecuted tail is freed — the machine-level primitive behind
//! mid-execution re-allotment of running tasks (the engine re-plans the
//! task's residual as a fresh commitment).
//!
//! The read-only accessors (`now`, `is_idle`, `unfinished`, `free_horizon`)
//! are the observability surface handed to
//! [`crate::policy::OnlinePolicy::should_plan`] implementations: the shipped
//! policies only need `is_idle`, but custom policies (e.g. "re-plan when the
//! backlog horizon exceeds a threshold") decide on the rest.
//!
//! The clock is lazy.  [`MachineState::advance_to`] only records the new
//! time; the timeline's floor lags behind it until the timeline is next read
//! or written (a placement, a window query, a commitment, a revocation, a
//! truncation or a capacity change), which first raises the floor to the
//! clock.  Consecutive floor advances compose into one — frontiers and
//! availability horizons take a max, and expiry drops every interval ending
//! by the floor — so every window, error and counter is the one an eager
//! advance on every clock step would give, while an engine that steps the
//! clock on every event moves the floor at most once per plan.

use packing::reservations::{HolePolicy, ReservationTimeline};
use packing::timeline::TieBreak;

pub use packing::reservations::{ReservationError, ReservationId};

/// The machine as seen by an online policy at a decision point.
#[derive(Debug, Clone)]
pub struct MachineState {
    /// The reservation book.  Its floor lags `now` until
    /// [`MachineState::synced`] next raises it.
    timeline: ReservationTimeline,
    now: f64,
    unfinished: usize,
}

/// A placement chosen by [`MachineState::place_earliest`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// First processor of the contiguous block.
    pub first: usize,
    /// Number of processors.
    pub count: usize,
    /// Start time (never before the current clock).
    pub start: f64,
    /// Handle for revoking the commitment while it is still queued.
    pub reservation: ReservationId,
}

impl MachineState {
    /// A fresh frontier-mode machine with `processors` idle processors at
    /// time 0 (holes below the frontier are never reused).
    pub fn new(processors: usize) -> Self {
        Self::with_policy(processors, HolePolicy::FrontierOnly)
    }

    /// A fresh backfill-mode machine: placements first-fit into idle holes
    /// below the frontier.
    pub fn with_backfill(processors: usize) -> Self {
        Self::with_policy(processors, HolePolicy::Backfill)
    }

    /// A fresh machine with an explicit hole policy.
    pub fn with_policy(processors: usize, policy: HolePolicy) -> Self {
        MachineState {
            timeline: ReservationTimeline::new(processors, policy),
            now: 0.0,
            unfinished: 0,
        }
    }

    /// Number of processors.
    pub fn processors(&self) -> usize {
        self.timeline.processors()
    }

    /// Whether placements may backfill into holes below the frontier.
    pub fn backfills(&self) -> bool {
        self.timeline.policy() == HolePolicy::Backfill
    }

    /// The simulation clock.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Whether no committed task is still unfinished.
    pub fn is_idle(&self) -> bool {
        self.unfinished == 0
    }

    /// Number of committed-but-unfinished tasks.
    pub fn unfinished(&self) -> usize {
        self.unfinished
    }

    /// Operation counters of the underlying reservation timeline (window
    /// queries, hole-scan steps, reservations, cancels, truncations) — the
    /// engine diffs snapshots to attribute work to individual decisions.
    pub fn timeline_stats(&self) -> packing::reservations::TimelineStats {
        self.timeline.stats()
    }

    /// The earliest time every current commitment is finished — the horizon
    /// after which the whole machine is free.
    pub fn free_horizon(&self) -> f64 {
        self.timeline.makespan().max(self.now)
    }

    /// Advance the clock (monotone).  Schedules can never start in the past;
    /// in frontier mode idle processors' frontiers are pulled up to the new
    /// time, in backfill mode holes after the new time stay usable.  The
    /// timeline catches up with the clock when it is next used (see the
    /// module docs).
    pub fn advance_to(&mut self, time: f64) {
        assert!(
            time >= self.now - 1e-9,
            "clock must be monotone: now = {}, asked {time}",
            self.now
        );
        if time > self.now {
            self.now = time;
        }
    }

    /// The timeline with its floor raised to the clock.  Every method that
    /// queries windows or changes the reservation book goes through here;
    /// the other accessors read nothing the floor moves (`free_horizon`
    /// clamps to the clock itself).
    fn synced(&mut self) -> &mut ReservationTimeline {
        self.timeline.advance_to(self.now);
        &mut self.timeline
    }

    /// Earliest finish-time placement for a task needing `count` contiguous
    /// processors for `duration` time, committed immediately.
    pub fn place_earliest(&mut self, count: usize, duration: f64) -> Placement {
        let timeline = self.synced();
        let window = timeline.earliest_window(count, duration, TieBreak::PaperConvention);
        let reservation = timeline.reserve(window.first, count, window.start, duration);
        self.unfinished += 1;
        Placement {
            first: window.first,
            count,
            start: window.start,
            reservation,
        }
    }

    /// The start time [`MachineState::place_earliest`] would choose for a
    /// `count`-processor, `duration`-long task, without committing.
    pub fn earliest_start(&mut self, count: usize, duration: f64) -> f64 {
        self.synced()
            .earliest_window(count, duration, TieBreak::PaperConvention)
            .start
    }

    /// Commit a task at an explicit position (used when mapping an offline
    /// shelf schedule onto the machine).  Panics if the placement would
    /// overlap an existing commitment or start in the past.
    pub fn commit_at(
        &mut self,
        first: usize,
        count: usize,
        start: f64,
        duration: f64,
    ) -> ReservationId {
        assert!(
            start >= self.now - 1e-9,
            "commitment starts at {start}, before the clock {}",
            self.now
        );
        let reservation = self.synced().reserve(first, count, start, duration);
        self.unfinished += 1;
        reservation
    }

    /// Revoke a commitment that has not started yet, freeing its space.
    /// Fails with a typed [`ReservationError`] if the reservation is running
    /// or finished (revoke a running commitment's unexecuted tail with
    /// [`MachineState::truncate_at`] instead) or was already revoked; a
    /// failed request leaves the machine untouched.
    pub fn revoke(&mut self, reservation: ReservationId) -> Result<(), ReservationError> {
        self.synced().cancel(reservation)?;
        assert!(self.unfinished > 0, "revocation without a commitment");
        self.unfinished -= 1;
        Ok(())
    }

    /// Preempt a *running* commitment: truncate its reservation at `time`
    /// (usually the current clock), freeing the unexecuted tail while the
    /// executed head stays on the books.  When a tail was actually freed
    /// (`Ok(true)`) the commitment no longer counts as unfinished — the
    /// caller re-plans the task's residual as a fresh commitment.  A cut at
    /// or after the commitment's end is a no-op (`Ok(false)`): the
    /// commitment stands and still completes normally.  Fails with a typed
    /// [`ReservationError`] when the cut would rewrite executed history (see
    /// [`packing::reservations::ReservationTimeline::truncate_at`]).
    pub fn truncate_at(
        &mut self,
        reservation: ReservationId,
        time: f64,
    ) -> Result<bool, ReservationError> {
        let truncated = self.synced().truncate_at(reservation, time)?;
        if truncated {
            assert!(self.unfinished > 0, "truncation without a commitment");
            self.unfinished -= 1;
        }
        Ok(truncated)
    }

    /// Record the completion of one committed task.
    pub fn complete_one(&mut self) {
        assert!(self.unfinished > 0, "completion without a commitment");
        self.unfinished -= 1;
    }

    /// Whether one processor is currently online.
    pub fn is_online(&self, processor: usize) -> bool {
        self.timeline.is_online(processor)
    }

    /// Number of currently online processors.
    pub fn online_processors(&self) -> usize {
        self.timeline.online_processors()
    }

    /// Width of the largest run of consecutive online processors — the
    /// widest placement the machine can currently serve.  Equals
    /// [`MachineState::processors`] while nothing is offline.
    pub fn max_contiguous_online(&self) -> usize {
        self.timeline.max_contiguous_online()
    }

    /// Take `processor` offline as of `from` (a crash).  Every commitment
    /// still using it beyond `from` is displaced — queued reservations are
    /// cancelled whole, running ones are truncated at `from` so the executed
    /// head stays on the books — and no longer counts as unfinished.
    /// Returns the displaced reservation handles for the caller to
    /// re-queue, or the timeline's typed error when a displaced record is
    /// inconsistent (in which case the machine is left as the timeline left
    /// it and the engine reports the violation).
    pub fn set_offline(
        &mut self,
        processor: usize,
        from: f64,
    ) -> Result<Vec<ReservationId>, ReservationError> {
        let displaced = self.synced().set_offline(processor, from)?;
        for _ in &displaced {
            assert!(self.unfinished > 0, "displacement without a commitment");
            self.unfinished -= 1;
        }
        Ok(displaced)
    }

    /// Bring `processor` back online as of `at` (a repair); placements may
    /// use it from `at` on.
    pub fn set_online(&mut self, processor: usize, at: f64) {
        self.synced().set_online(processor, at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn clock_advances_and_blocks_the_past() {
        let mut machine = MachineState::new(4);
        machine.advance_to(2.0);
        assert_eq!(machine.now(), 2.0);
        let placement = machine.place_earliest(2, 1.0);
        assert!(placement.start >= 2.0);
        assert_eq!(machine.unfinished(), 1);
    }

    #[test]
    fn free_horizon_tracks_commitments() {
        let mut machine = MachineState::new(2);
        assert_eq!(machine.free_horizon(), 0.0);
        machine.commit_at(0, 2, 0.0, 3.0);
        assert_eq!(machine.free_horizon(), 3.0);
        machine.advance_to(1.0);
        assert_eq!(machine.free_horizon(), 3.0);
        machine.advance_to(5.0);
        assert_eq!(machine.free_horizon(), 5.0);
    }

    #[test]
    fn idle_flag_follows_completions() {
        let mut machine = MachineState::new(2);
        assert!(machine.is_idle());
        machine.place_earliest(1, 1.0);
        machine.place_earliest(1, 2.0);
        assert!(!machine.is_idle());
        machine.complete_one();
        assert!(!machine.is_idle());
        machine.complete_one();
        assert!(machine.is_idle());
    }

    #[test]
    #[should_panic(expected = "before the clock")]
    fn past_commitments_are_rejected() {
        let mut machine = MachineState::new(2);
        machine.advance_to(4.0);
        machine.commit_at(0, 1, 1.0, 1.0);
    }

    #[test]
    fn earliest_start_matches_place_earliest() {
        let mut machine = MachineState::new(3);
        machine.place_earliest(3, 2.0);
        let probe = machine.earliest_start(2, 1.0);
        let placement = machine.place_earliest(2, 1.0);
        assert_eq!(probe, placement.start);
        assert_eq!(probe, 2.0);
    }

    #[test]
    fn frontier_mode_hides_holes_backfill_mode_reuses_them() {
        // A long 1-wide task plus a short 2-wide one leave a hole on one
        // processor; a subsequent 1-unit task lands in the hole only with
        // backfill enabled.
        let build = |backfill: bool| {
            let mut machine = if backfill {
                MachineState::with_backfill(2)
            } else {
                MachineState::new(2)
            };
            machine.commit_at(0, 1, 0.0, 4.0);
            machine.commit_at(1, 1, 0.0, 1.0);
            machine.commit_at(1, 1, 3.0, 2.0); // hole on p1 over [1, 3)
            machine.place_earliest(1, 1.0)
        };
        let frontier = build(false);
        assert!(frontier.start >= 4.0 - 1e-9, "frontier mode must wait");
        let backfill = build(true);
        assert_eq!((backfill.first, backfill.start), (1, 1.0));
    }

    #[test]
    fn revoked_commitments_free_their_space() {
        let mut machine = MachineState::new(2);
        machine.commit_at(0, 2, 0.0, 1.0);
        let queued = machine.commit_at(0, 2, 1.0, 5.0);
        assert_eq!(machine.free_horizon(), 6.0);
        assert_eq!(machine.unfinished(), 2);
        machine.revoke(queued).unwrap();
        assert_eq!(machine.free_horizon(), 1.0);
        assert_eq!(machine.unfinished(), 1);
        let placement = machine.place_earliest(2, 1.0);
        assert_eq!(placement.start, 1.0, "the revoked space is reusable");
    }

    #[test]
    fn running_commitments_cannot_be_revoked_but_can_be_truncated() {
        let mut machine = MachineState::new(1);
        let id = machine.commit_at(0, 1, 0.0, 4.0);
        machine.advance_to(2.0);
        assert!(matches!(
            machine.revoke(id),
            Err(ReservationError::StartedBeforeFloor { .. })
        ));
        assert_eq!(machine.unfinished(), 1, "failed revoke must not mutate");
        // A cut at or after the end is a no-op: the commitment stands and
        // still counts as unfinished.
        assert!(!machine.truncate_at(id, 5.0).unwrap());
        assert_eq!(machine.unfinished(), 1, "no-op cut must not mutate");
        // Mid-execution preemption: the tail [2, 4) is freed, the head stays.
        assert!(machine.truncate_at(id, 2.0).unwrap());
        assert_eq!(machine.unfinished(), 0);
        assert_eq!(machine.free_horizon(), 2.0);
        let placement = machine.place_earliest(1, 1.0);
        assert_eq!(placement.start, 2.0, "the freed tail is reusable");
    }

    #[test]
    fn advance_preserves_holes_in_backfill_mode() {
        let mut machine = MachineState::with_backfill(1);
        machine.commit_at(0, 1, 5.0, 1.0);
        machine.advance_to(2.0);
        // The hole [2, 5) survives the clock advance.
        let placement = machine.place_earliest(1, 2.0);
        assert_eq!(placement.start, 2.0);
    }

    /// Where a reservation of the differential test stands: still counted
    /// as unfinished, finished or cut (its head stays on the books), or
    /// cancelled.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Standing {
        Counted,
        Done,
        Cancelled,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The lazy floor against an eager one.  Random sequences of clock
        /// steps (some of them sub-tolerance), placements, window queries,
        /// explicit commitments, revocations, truncations (at the clock,
        /// before the floor and after the end), crashes, repairs and
        /// completions run on the machine and on a reference timeline
        /// advanced on every clock step, in both hole modes.  Every
        /// placement, window start, typed error, displacement list and free
        /// horizon agrees, and after a final sync the two timelines are
        /// equal.
        #[test]
        fn lazy_floor_matches_an_eagerly_advanced_timeline(
            ops in prop::collection::vec((0usize..10, 1usize..5, 0usize..8, 0usize..64), 1..60),
            m in 1usize..6,
        ) {
            for policy in [HolePolicy::FrontierOnly, HolePolicy::Backfill] {
                let mut machine = MachineState::with_policy(m, policy);
                let mut reference = ReservationTimeline::new(m, policy);
                // Every reservation booked: its handle, start, end and standing.
                let mut booked: Vec<(ReservationId, f64, f64, Standing)> = Vec::new();
                let mut unfinished = 0usize;
                for &(op, count, size, pick) in &ops {
                    let now = machine.now();
                    let count = count.min(m);
                    let duration = 0.5 * (size + 1) as f64;
                    let fits = count <= reference.max_contiguous_online();
                    // Revocations and truncations aim at a counted or a
                    // cancelled reservation: a finished one would be
                    // uncounted twice.
                    let victim = (0..booked.len())
                        .map(|i| (pick + i) % booked.len())
                        .find(|&i| booked[i].3 != Standing::Done);
                    match (op, victim) {
                        (0, _) => {
                            let time = now + 0.25 * size as f64;
                            machine.advance_to(time);
                            reference.advance_to(time);
                        }
                        (1, _) => {
                            let time = now + 1e-10 * size as f64;
                            machine.advance_to(time);
                            reference.advance_to(time);
                        }
                        (2, _) if fits => {
                            let got = machine.place_earliest(count, duration);
                            let (window, id) =
                                reference.place(count, duration, TieBreak::PaperConvention);
                            prop_assert_eq!(
                                got,
                                Placement { first: window.first, count, start: window.start, reservation: id }
                            );
                            booked.push((id, window.start, window.start + duration, Standing::Counted));
                            unfinished += 1;
                        }
                        (3, _) => {
                            let want = reference
                                .earliest_window(count, duration, TieBreak::PaperConvention)
                                .start;
                            prop_assert_eq!(machine.earliest_start(count, duration), want);
                        }
                        (4, _) if fits => {
                            let window = reference.earliest_window(count, duration, TieBreak::Leftmost);
                            let start = if pick % 2 == 0 {
                                window.start
                            } else {
                                reference.makespan() + 0.25 * (pick % 4) as f64
                            };
                            let got = machine.commit_at(window.first, count, start, duration);
                            let id = reference.reserve(window.first, count, start, duration);
                            prop_assert_eq!(got, id);
                            booked.push((id, start, start + duration, Standing::Counted));
                            unfinished += 1;
                        }
                        (5, Some(i)) => {
                            let got = machine.revoke(booked[i].0);
                            prop_assert_eq!(got, reference.cancel(booked[i].0));
                            if got.is_ok() {
                                booked[i].3 = Standing::Cancelled;
                                unfinished -= 1;
                            }
                        }
                        (6, Some(i)) => {
                            let (id, start, end, _) = booked[i];
                            // The engine revokes instead of cutting a
                            // commitment that started at the clock, and the
                            // timeline cannot hold a placement beside the
                            // empty head such a cut would leave.
                            let cut = match pick % 4 {
                                0 if (now - start).abs() > 1e-9 => now,
                                1 => now - 0.25 * (size + 1) as f64,
                                2 => now - 1e-6,
                                _ => end + 1.0,
                            };
                            let got = machine.truncate_at(id, cut);
                            prop_assert_eq!(got, reference.truncate_at(id, cut));
                            if got == Ok(true) {
                                booked[i] = (id, start, cut, Standing::Done);
                                unfinished -= 1;
                            }
                        }
                        (7, _) => {
                            let processor = pick % m;
                            if reference.is_online(processor) {
                                let got = machine.set_offline(processor, now);
                                let displaced = reference.set_offline(processor, now);
                                prop_assert_eq!(&got, &displaced);
                                for id in displaced.unwrap_or_default() {
                                    match booked.iter_mut().find(|e| e.0 == id) {
                                        Some(entry) if entry.3 == Standing::Counted => {
                                            entry.3 = Standing::Done;
                                        }
                                        _ => prop_assert!(false, "displaced {id:?} was not counted"),
                                    }
                                    unfinished -= 1;
                                }
                            } else {
                                let at = now + 0.25 * (size % 4) as f64;
                                machine.set_online(processor, at);
                                reference.set_online(processor, at);
                            }
                        }
                        (8, _) => {
                            let finished = booked
                                .iter_mut()
                                .find(|e| e.3 == Standing::Counted && e.2 <= now);
                            if let Some(entry) = finished {
                                entry.3 = Standing::Done;
                                machine.complete_one();
                                unfinished -= 1;
                            }
                        }
                        _ => {}
                    }
                    prop_assert_eq!(machine.now(), reference.floor());
                    prop_assert_eq!(machine.free_horizon(), reference.makespan());
                    prop_assert_eq!(machine.unfinished(), unfinished);
                }
                machine.synced();
                prop_assert!(machine.timeline == reference, "the timelines differ after a sync");
            }
        }
    }
}
