//! Interval-reservation timelines: revocable commitments and reusable holes.
//!
//! [`crate::timeline::ProcessorTimeline`] models the schedule structure the
//! paper's §3 list algorithms analyse: one "busy until" frontier per
//! processor, idle holes below the frontier discarded on purpose.  That model
//! cannot express the three operations a production online scheduler needs —
//! *backfilling* a new task into an idle hole below the frontier, *revoking*
//! a commitment that has not started yet (task departures, preemptive
//! re-planning of queued work), and *truncating* a reservation that finishes
//! early.
//!
//! [`ReservationTimeline`] keeps, per processor, the sorted set of busy
//! intervals (equivalently: its complement, the sorted free-interval set)
//! instead of a single frontier.  Every commitment is a first-class
//! reservation identified by a [`ReservationId`] handle that supports
//! [`ReservationTimeline::cancel`] and [`ReservationTimeline::truncate_at`]
//! (the latter also preempts *running* reservations: the executed head stays
//! on the books, only the unexecuted tail is revoked); window queries are
//! *duration-aware* and may land inside holes.  Requests that would rewrite
//! garbage-collected or executed history fail with a typed
//! [`ReservationError`] instead of panicking.
//!
//! Two query modes are provided ([`HolePolicy`]):
//!
//! * [`HolePolicy::FrontierOnly`] reproduces the `ProcessorTimeline` answers
//!   exactly — both share one sliding-window implementation over the frontier
//!   array, so the offline list algorithms see zero behavioural drift (pinned
//!   by parity tests).  Holes are still *recorded*, which is what makes
//!   cancellation work even in frontier mode.
//! * [`HolePolicy::Backfill`] serves the earliest window that fits the
//!   requested duration anywhere at or after the current floor, first-fitting
//!   into idle holes below the frontier.
//!
//! Past intervals are garbage-collected as the floor advances
//! ([`ReservationTimeline::advance_to`]), so steady-state query cost is
//! proportional to the number of *live* reservations, not to history.  The
//! collection pops only the expired front of each processor's list, so an
//! advance costs O(expired) rather than O(backlog) however many future
//! reservations are queued.

use std::cell::Cell;
use std::ops::{Deref, DerefMut};

use crate::timeline::{
    earliest_frontier_window, pick_window, Scratch, TieBreak, Window, WindowBuffers,
};

/// Opaque handle to one reservation, returned by
/// [`ReservationTimeline::reserve`] and accepted by
/// [`ReservationTimeline::cancel`] / [`ReservationTimeline::truncate_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReservationId(usize);

/// Why a revocation or truncation request was rejected.
///
/// Revocation interacts with the floor-advance garbage collection: once the
/// floor has moved past (part of) a reservation, that history is immutable —
/// cancelling it or cutting into it would silently rewrite the past, so such
/// requests fail with a typed error instead of panicking or dropping
/// history.  The timeline state is untouched by a failed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReservationError {
    /// The handle was already cancelled (or never issued by this timeline).
    AlreadyCancelled {
        /// The offending handle.
        id: ReservationId,
    },
    /// `cancel` on a reservation that started at or before the advanced
    /// floor: it is running (straddles the floor) or lies entirely in the
    /// past, and its history cannot be unwritten.  Running reservations are
    /// preempted with [`ReservationTimeline::truncate_at`] instead.
    StartedBeforeFloor {
        /// The offending handle.
        id: ReservationId,
        /// Where the reservation starts.
        start: f64,
        /// The current floor.
        floor: f64,
    },
    /// `truncate_at` with a cut before the reservation's start (a negative
    /// reservation is meaningless; use [`ReservationTimeline::cancel`] on a
    /// not-yet-started reservation instead).
    CutBeforeStart {
        /// The offending handle.
        id: ReservationId,
        /// The requested cut.
        cut: f64,
        /// Where the reservation starts.
        start: f64,
    },
    /// `truncate_at` with a cut before the advanced floor: the part of the
    /// reservation at or before the floor already executed and cannot be
    /// reclaimed.
    CutBeforeFloor {
        /// The offending handle.
        id: ReservationId,
        /// The requested cut.
        cut: f64,
        /// The current floor.
        floor: f64,
    },
}

impl std::fmt::Display for ReservationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReservationError::AlreadyCancelled { id } => {
                write!(f, "reservation {id:?} was already cancelled")
            }
            ReservationError::StartedBeforeFloor { id, start, floor } => write!(
                f,
                "reservation {id:?} started at {start}, at or before the floor {floor} — \
                 its history cannot be cancelled (truncate the tail instead)"
            ),
            ReservationError::CutBeforeStart { id, cut, start } => write!(
                f,
                "cut {cut} precedes the start {start} of reservation {id:?}"
            ),
            ReservationError::CutBeforeFloor { id, cut, floor } => write!(
                f,
                "cut {cut} for reservation {id:?} rewrites the past (floor {floor})"
            ),
        }
    }
}

impl std::error::Error for ReservationError {}

/// Whether window queries may reuse idle holes below the frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HolePolicy {
    /// Reproduce [`crate::timeline::ProcessorTimeline`] exactly: tasks start
    /// at or after the per-processor frontier, holes are never reused (the
    /// schedule structure analysed in the paper).
    #[default]
    FrontierOnly,
    /// Serve the earliest window whose `duration` fits, first-fitting into
    /// existing holes below the frontier.
    Backfill,
}

/// One busy interval on one processor (a slice of a reservation).
///
/// Every interval ends no earlier than `start - 1e-9`:
/// [`ReservationTimeline::reserve`] takes non-negative durations and
/// [`ReservationTimeline::truncate_at`] rejects cuts more than `1e-9` before
/// the start.  That bound is what lets the floor-advance GC stop scanning
/// (see [`drop_expired`]).
#[derive(Debug, Clone, Copy, PartialEq)]
struct BusyInterval {
    start: f64,
    end: f64,
    id: ReservationId,
}

/// How far past the clock [`drop_expired`] looks for expired intervals
/// hidden behind a live one: an expired interval starts by `time + 1e-12 +
/// 1e-9` (see [`BusyInterval`]); the rest is margin for rounding.
const EXPIRY_SCAN_MARGIN: f64 = 1e-6;

/// One processor's busy intervals, sorted by start and non-overlapping.
///
/// A `Vec` whose collected front is skipped by an offset: popping the front
/// is O(1), the dead prefix is compacted away only once it outgrows the live
/// part (so O(1) amortised per collected interval), and every query still
/// reads one contiguous slice ([`Deref`] to `[BusyInterval]`).
#[derive(Debug, Clone, Default)]
struct IntervalList {
    items: Vec<BusyInterval>,
    /// Number of collected intervals at the front of `items`.
    head: usize,
}

impl IntervalList {
    fn pop_front(&mut self) {
        self.head += 1;
    }

    fn insert(&mut self, pos: usize, interval: BusyInterval) {
        self.items.insert(self.head + pos, interval);
    }

    fn remove(&mut self, pos: usize) {
        self.items.remove(self.head + pos);
    }

    /// Drop the dead prefix once it is longer than the live part.
    fn compact(&mut self) {
        if 2 * self.head > self.items.len() {
            self.items.drain(..self.head);
            self.head = 0;
        }
    }
}

impl Deref for IntervalList {
    type Target = [BusyInterval];

    fn deref(&self) -> &[BusyInterval] {
        &self.items[self.head..]
    }
}

impl DerefMut for IntervalList {
    fn deref_mut(&mut self) -> &mut [BusyInterval] {
        &mut self.items[self.head..]
    }
}

/// Two lists are equal when their live intervals are, wherever their dead
/// prefixes stand.
impl PartialEq for IntervalList {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// Remove every interval that ended by `time` (`end <= time + 1e-12`) from
/// one processor's list, visiting only the expired front and the few
/// intervals starting within [`EXPIRY_SCAN_MARGIN`] of the clock.
///
/// The list is sorted by start and non-overlapping up to `reserve`'s `1e-9`
/// tolerance, so ends are sorted too *except* within that tolerance: a
/// zero-length interval may sit right after a longer one that ends up to
/// `1e-9` later, and a cut up to `1e-9` before its start leaves an interval
/// ending before it begins.  Popping the front alone would keep such an
/// expired interval behind a live front; the bounded scan collects it too,
/// so the result equals `retain(|iv| iv.end > time + 1e-12)` exactly.
fn drop_expired(intervals: &mut IntervalList, time: f64) {
    let expired = |iv: &BusyInterval| iv.end <= time + 1e-12;
    while intervals.first().is_some_and(expired) {
        intervals.pop_front();
    }
    let horizon = time + EXPIRY_SCAN_MARGIN;
    let mut i = 1;
    while let Some(iv) = intervals.get(i) {
        if iv.start > horizon {
            break;
        }
        if expired(iv) {
            intervals.remove(i);
        } else {
            i += 1;
        }
    }
    intervals.compact();
}

/// Index of reservation `id`'s interval in one processor's list, found by
/// binary search on its start (`None` once the GC collected it).
fn position_of(intervals: &[BusyInterval], id: ReservationId, start: f64) -> Option<usize> {
    let from = intervals.partition_point(|iv| iv.start < start);
    intervals[from..]
        .iter()
        .take_while(|iv| iv.start <= start)
        .position(|iv| iv.id == id)
        .map(|offset| from + offset)
}

/// The full record of a reservation, kept for cancel/truncate bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Reservation {
    first: usize,
    count: usize,
    start: f64,
    end: f64,
}

/// Monotone operation counters for one timeline: how many window queries ran,
/// how many busy intervals the hole scans stepped over, and how many
/// reservations were committed, cancelled, and truncated.  Pure observability
/// metadata — two timelines with identical busy state compare equal even
/// when their counters differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimelineStats {
    /// `earliest_window` queries answered.
    pub window_queries: u64,
    /// Busy intervals examined (cursor steps) across all hole-scan queries;
    /// stays 0 in frontier-only mode, where no holes are scanned.
    pub holes_scanned: u64,
    /// Reservations committed via [`ReservationTimeline::reserve`].
    pub reservations: u64,
    /// Reservations revoked via [`ReservationTimeline::cancel`].
    pub cancels: u64,
    /// Reservations shortened via [`ReservationTimeline::truncate_at`]
    /// (only cuts that actually freed a tail are counted).
    pub truncations: u64,
}

impl TimelineStats {
    /// Fold another timeline's counters into this one.
    ///
    /// The counters are **per-timeline**: a sharded engine runs one
    /// [`ReservationTimeline`] per shard, so reporting any single shard's
    /// snapshot — or only the last shard's — undercounts the run.  Summing
    /// is the correct aggregation for every field (they are all monotone
    /// operation counts, not gauges).
    pub fn merge(&mut self, other: TimelineStats) {
        self.window_queries += other.window_queries;
        self.holes_scanned += other.holes_scanned;
        self.reservations += other.reservations;
        self.cancels += other.cancels;
        self.truncations += other.truncations;
    }

    /// Sum a collection of per-timeline snapshots (see
    /// [`TimelineStats::merge`]).
    pub fn aggregate<I: IntoIterator<Item = TimelineStats>>(stats: I) -> TimelineStats {
        let mut total = TimelineStats::default();
        for snapshot in stats {
            total.merge(snapshot);
        }
        total
    }
}

/// Interior-mutable counter cells: window queries are `&self`, so the stats
/// must be updatable without `&mut`.
#[derive(Debug, Clone, Default)]
struct StatsCells {
    window_queries: Cell<u64>,
    holes_scanned: Cell<u64>,
    reservations: Cell<u64>,
    cancels: Cell<u64>,
    truncations: Cell<u64>,
}

impl StatsCells {
    fn snapshot(&self) -> TimelineStats {
        TimelineStats {
            window_queries: self.window_queries.get(),
            holes_scanned: self.holes_scanned.get(),
            reservations: self.reservations.get(),
            cancels: self.cancels.get(),
            truncations: self.truncations.get(),
        }
    }

    fn bump(cell: &Cell<u64>, delta: u64) {
        cell.set(cell.get() + delta);
    }
}

/// Per-processor sorted busy-interval sets with contiguous-window queries,
/// revocable reservations and a frontier-compatible query mode.
#[derive(Debug, Clone)]
pub struct ReservationTimeline {
    policy: HolePolicy,
    /// Nothing may be reserved before this time (the simulation clock).
    floor: f64,
    /// Per-processor `max(floor, latest busy end)` — the frontier the
    /// [`HolePolicy::FrontierOnly`] queries run on.
    frontier: Vec<f64>,
    /// Per-processor busy intervals, sorted by start, non-overlapping.
    busy: Vec<IntervalList>,
    /// Per-processor offline flag — window queries skip offline processors
    /// and [`ReservationTimeline::reserve`] rejects them.
    offline: Vec<bool>,
    /// Per-processor availability horizon: `max(floor, latest repair time)`.
    /// A processor repaired at a future time must not accept work before it,
    /// even after a cancellation lowers its frontier or a backfill query
    /// walks its holes — this is the state a bare frontier cannot carry.
    available_from: Vec<f64>,
    /// Reservation records by id; `None` once cancelled.
    reservations: Vec<Option<Reservation>>,
    /// Operation counters (observability only; excluded from `PartialEq`).
    stats: StatsCells,
    /// Window-query scratch (no state; excluded from `PartialEq`).
    scratch: Scratch<QueryBuffers>,
}

/// Buffers of the window queries, sized to the machine when the timeline is
/// built so that a query allocates nothing.
#[derive(Debug, Default)]
struct QueryBuffers {
    /// Sliding-window deque and per-position starts.
    window: WindowBuffers,
    /// The frontier with offline processors masked to `+∞`.
    masked: Vec<f64>,
    /// One interval cursor per processor of the hole sweep's window.
    cursors: Vec<usize>,
}

impl PartialEq for ReservationTimeline {
    fn eq(&self, other: &Self) -> bool {
        self.policy == other.policy
            && self.floor == other.floor
            && self.frontier == other.frontier
            && self.busy == other.busy
            && self.offline == other.offline
            && self.available_from == other.available_from
            && self.reservations == other.reservations
    }
}

impl ReservationTimeline {
    /// A timeline for `processors` processors, all free at time 0.
    pub fn new(processors: usize, policy: HolePolicy) -> Self {
        assert!(processors >= 1, "need at least one processor");
        ReservationTimeline {
            policy,
            floor: 0.0,
            frontier: vec![0.0; processors],
            busy: vec![IntervalList::default(); processors],
            offline: vec![false; processors],
            available_from: vec![0.0; processors],
            reservations: Vec::new(),
            stats: StatsCells::default(),
            scratch: Scratch::new(QueryBuffers {
                window: WindowBuffers::with_capacity(processors),
                masked: Vec::with_capacity(processors),
                cursors: Vec::with_capacity(processors),
            }),
        }
    }

    /// A snapshot of the monotone operation counters — callers diff two
    /// snapshots to attribute hole-scan work to individual decisions.
    pub fn stats(&self) -> TimelineStats {
        self.stats.snapshot()
    }

    /// Number of processors tracked.
    pub fn processors(&self) -> usize {
        self.frontier.len()
    }

    /// The query mode.
    pub fn policy(&self) -> HolePolicy {
        self.policy
    }

    /// The current floor (nothing may be reserved before it).
    pub fn floor(&self) -> f64 {
        self.floor
    }

    /// The availability frontier of one processor: `max(floor, latest busy
    /// end)` — identical to [`crate::timeline::ProcessorTimeline::free_at`]
    /// under frontier-only use.
    pub fn free_at(&self, processor: usize) -> f64 {
        self.frontier[processor]
    }

    /// The latest busy end over all processors (the horizon after which the
    /// whole machine is free).
    pub fn makespan(&self) -> f64 {
        self.frontier.iter().cloned().fold(0.0, f64::max)
    }

    /// Number of live (not cancelled, not fully garbage-collected)
    /// reservations ending after the floor.
    pub fn live_reservations(&self) -> usize {
        self.reservations
            .iter()
            .flatten()
            .filter(|r| r.end > self.floor + 1e-12)
            .count()
    }

    /// Raise the floor (monotone).  In frontier-only mode idle frontiers are
    /// pulled up to the new floor, exactly like
    /// [`crate::timeline::ProcessorTimeline::advance_all_to`]; in backfill
    /// mode holes after the floor stay usable.  Busy intervals entirely in
    /// the past are garbage-collected in O(collected + m): only the expired
    /// front of each processor's list is visited, never the queued backlog.
    pub fn advance_to(&mut self, time: f64) {
        assert!(
            time >= self.floor - 1e-9,
            "floor must be monotone: floor = {}, asked {time}",
            self.floor
        );
        if time <= self.floor {
            return;
        }
        self.floor = time;
        for f in &mut self.frontier {
            if *f < time {
                *f = time;
            }
        }
        for a in &mut self.available_from {
            if *a < time {
                *a = time;
            }
        }
        for intervals in &mut self.busy {
            drop_expired(intervals, time);
        }
    }

    /// The availability horizon of one processor: `max(floor, latest repair
    /// time)`.  No reservation may start before it on that processor, in
    /// either [`HolePolicy`] mode.
    pub fn available_from(&self, processor: usize) -> f64 {
        self.available_from[processor]
    }

    /// Find the earliest start for a task needing `count` contiguous
    /// processors for `duration` time, applying the given tie-breaking rule,
    /// without committing.
    ///
    /// In [`HolePolicy::FrontierOnly`] mode the duration is irrelevant (every
    /// window extends to infinity above the frontier) and the answer is
    /// bit-identical to [`crate::timeline::ProcessorTimeline`].  In
    /// [`HolePolicy::Backfill`] mode the earliest gap of length `duration` at
    /// or after the floor is found per window position, first-fitting holes.
    /// Offline processors are skipped: a window containing one is reported
    /// with an **infinite** start, so the overall answer is infinite exactly
    /// when no all-online window of `count` processors exists — callers must
    /// bound `count` by [`ReservationTimeline::max_contiguous_online`]
    /// before reserving.
    pub fn earliest_window(&self, count: usize, duration: f64, tie: TieBreak) -> Window {
        StatsCells::bump(&self.stats.window_queries, 1);
        self.scratch.with(|buffers| match self.policy {
            HolePolicy::FrontierOnly => {
                if self.offline.iter().any(|&off| off) {
                    // Offline processors get an infinite frontier so the
                    // sliding-window search never picks them.
                    let QueryBuffers { window, masked, .. } = buffers;
                    let frontier = self.frontier.iter().zip(&self.offline);
                    masked.clear();
                    masked.extend(frontier.map(|(&f, &off)| if off { f64::INFINITY } else { f }));
                    earliest_frontier_window(masked, count, tie, window)
                } else {
                    earliest_frontier_window(&self.frontier, count, tie, &mut buffers.window)
                }
            }
            HolePolicy::Backfill => self.earliest_hole_window(count, duration, tie, buffers),
        })
    }

    /// Duration-aware window search over the busy-interval sets.
    ///
    /// Per window position the busy intervals of the `count` processors are
    /// swept in global start order with one cursor per processor (the
    /// per-processor lists are sorted and non-overlapping, so start order is
    /// also end order), stopping at the first gap of length `duration` —
    /// under live load the gap appears after a handful of intervals, so a
    /// query touches far fewer intervals than a full collect-and-sort.
    /// Positions are then chosen by the frontier search's rule
    /// ([`pick_window`]); a position touching an offline processor gets an
    /// infinite start, which that rule never picks.
    fn earliest_hole_window(
        &self,
        count: usize,
        duration: f64,
        tie: TieBreak,
        buffers: &mut QueryBuffers,
    ) -> Window {
        let m = self.processors();
        assert!(
            count >= 1 && count <= m,
            "window of {count} processors on {m}"
        );
        assert!(duration >= 0.0, "negative duration");
        buffers.window.prepare(m);
        let starts = &mut buffers.window.starts;
        let cursors = &mut buffers.cursors;
        cursors.clear();
        cursors.resize(count, 0);
        let mut scanned = 0u64;
        for first in 0..=m - count {
            if self.offline[first..first + count].iter().any(|&off| off) {
                starts.push(f64::INFINITY);
                continue;
            }
            // Cursors index a list's backing vector directly (its live part
            // starts at `head`), so the sweep below reads each interval
            // without re-slicing the list in its innermost loop.
            for (i, p) in (first..first + count).enumerate() {
                let list = &self.busy[p];
                // Skip intervals entirely in the past (ends are sorted too).
                cursors[i] = list.head + list.partition_point(|iv| iv.end <= self.floor + 1e-12);
            }
            // Earliest gap of length `duration` at or after the floor and
            // every availability horizon in the window (a processor repaired
            // at a future time contributes no hole before the repair).
            let mut start = self.available_from[first..first + count]
                .iter()
                .fold(self.floor, |acc, &a| acc.max(a));
            loop {
                // The unseen interval with the smallest start across the
                // window's processors.
                let mut next: Option<(usize, f64)> = None;
                for (i, p) in (first..first + count).enumerate() {
                    if let Some(iv) = self.busy[p].items.get(cursors[i]) {
                        if next.is_none_or(|(_, s)| iv.start < s) {
                            next = Some((i, iv.start));
                        }
                    }
                }
                match next {
                    // The gap before the next interval is too short: the
                    // candidate start moves past that interval.
                    Some((i, s)) if s < start + duration - 1e-9 => {
                        let end = self.busy[first + i].items[cursors[i]].end;
                        if end > start {
                            start = end;
                        }
                        cursors[i] += 1;
                        scanned += 1;
                    }
                    // Either no intervals remain or the gap fits.
                    _ => break,
                }
            }
            starts.push(start);
        }
        StatsCells::bump(&self.stats.holes_scanned, scanned);
        let (first, start) = pick_window(starts, tie);
        Window {
            first,
            count,
            start,
        }
    }

    /// Commit a reservation on processors `[first, first+count)` over
    /// `[start, start+duration)` and return its handle.
    ///
    /// Panics if the placement starts before the floor, overlaps an existing
    /// reservation, or (in frontier-only mode) starts below a processor's
    /// frontier — the same contract as
    /// [`crate::timeline::ProcessorTimeline::commit`].
    pub fn reserve(
        &mut self,
        first: usize,
        count: usize,
        start: f64,
        duration: f64,
    ) -> ReservationId {
        assert!(duration >= 0.0, "negative duration");
        assert!(
            start >= self.floor - 1e-9,
            "reservation starts at {start}, before the floor {}",
            self.floor
        );
        let end = start + duration;
        let id = ReservationId(self.reservations.len());
        for p in first..first + count {
            assert!(!self.offline[p], "processor {p} is offline");
            assert!(
                start >= self.available_from[p] - 1e-9,
                "processor {p} is unavailable until {} but task starts at {start}",
                self.available_from[p]
            );
            if self.policy == HolePolicy::FrontierOnly {
                assert!(
                    self.frontier[p] <= start + 1e-9,
                    "processor {p} is busy until {} but task starts at {start}",
                    self.frontier[p]
                );
            }
            let intervals = &mut self.busy[p];
            let pos = intervals.partition_point(|iv| iv.start < start);
            if let Some(prev) = pos.checked_sub(1).and_then(|i| intervals.get(i)) {
                assert!(
                    prev.end <= start + 1e-9,
                    "processor {p} is busy over [{}, {}) but task starts at {start}",
                    prev.start,
                    prev.end
                );
            }
            if let Some(next) = intervals.get(pos) {
                assert!(
                    next.start >= end - 1e-9,
                    "processor {p} is busy from {} but task runs until {end}",
                    next.start
                );
            }
            intervals.insert(pos, BusyInterval { start, end, id });
            if self.frontier[p] < end {
                self.frontier[p] = end;
            }
        }
        self.reservations.push(Some(Reservation {
            first,
            count,
            start,
            end,
        }));
        StatsCells::bump(&self.stats.reservations, 1);
        id
    }

    /// Convenience: find the earliest window for `(count, duration)` and
    /// reserve it.  Returns the chosen window and the reservation handle.
    pub fn place(&mut self, count: usize, duration: f64, tie: TieBreak) -> (Window, ReservationId) {
        let w = self.earliest_window(count, duration, tie);
        let id = self.reserve(w.first, w.count, w.start, duration);
        (w, id)
    }

    /// Revoke a reservation that has not started yet, freeing its intervals.
    ///
    /// Fails with a typed [`ReservationError`] (leaving the timeline
    /// untouched) when the handle was already cancelled or the reservation
    /// started at or before the floor: a running reservation's history
    /// cannot be unwritten — preempt it with
    /// [`ReservationTimeline::truncate_at`] instead — and a reservation the
    /// floor-advance GC already passed is immutable.
    pub fn cancel(&mut self, id: ReservationId) -> Result<(), ReservationError> {
        let record = match self.reservations.get(id.0).copied().flatten() {
            Some(record) => record,
            None => return Err(ReservationError::AlreadyCancelled { id }),
        };
        if record.start < self.floor - 1e-9 {
            return Err(ReservationError::StartedBeforeFloor {
                id,
                start: record.start,
                floor: self.floor,
            });
        }
        self.reservations[id.0] = None;
        for p in record.first..record.first + record.count {
            if let Some(pos) = position_of(&self.busy[p], id, record.start) {
                self.busy[p].remove(pos);
            }
            self.recompute_frontier(p);
        }
        StatsCells::bump(&self.stats.cancels, 1);
        Ok(())
    }

    /// Shrink a reservation's end to `cut`, freeing the tail `[cut, end)` —
    /// a task that finished early, or a *running* task preempted for
    /// re-allotment (the segment executed before `cut` stays on the books;
    /// only the unexecuted tail is revoked).  Returns whether a tail was
    /// actually freed: a cut at or after the current end is a no-op and
    /// returns `Ok(false)`, so callers tracking per-reservation state can
    /// tell the difference.
    ///
    /// Fails with a typed [`ReservationError`] (leaving the timeline
    /// untouched) when the handle was already cancelled, `cut` precedes the
    /// reservation's start, or `cut` precedes the floor — the part of a
    /// straddling reservation at or before the advanced floor already
    /// executed and cannot be reclaimed.
    pub fn truncate_at(&mut self, id: ReservationId, cut: f64) -> Result<bool, ReservationError> {
        let record = match self.reservations.get(id.0).copied().flatten() {
            Some(record) => record,
            None => return Err(ReservationError::AlreadyCancelled { id }),
        };
        if cut < record.start - 1e-9 {
            return Err(ReservationError::CutBeforeStart {
                id,
                cut,
                start: record.start,
            });
        }
        if cut < self.floor - 1e-9 {
            return Err(ReservationError::CutBeforeFloor {
                id,
                cut,
                floor: self.floor,
            });
        }
        if cut >= record.end {
            return Ok(false);
        }
        let Some(stored) = self.reservations.get_mut(id.0).and_then(Option::as_mut) else {
            return Err(ReservationError::AlreadyCancelled { id });
        };
        stored.end = cut;
        for p in record.first..record.first + record.count {
            if let Some(pos) = position_of(&self.busy[p], id, record.start) {
                self.busy[p][pos].end = cut;
            }
            self.recompute_frontier(p);
        }
        StatsCells::bump(&self.stats.truncations, 1);
        Ok(true)
    }

    /// Whether one processor is currently online.
    pub fn is_online(&self, processor: usize) -> bool {
        !self.offline[processor]
    }

    /// Number of currently online processors.
    pub fn online_processors(&self) -> usize {
        self.offline.iter().filter(|&&off| !off).count()
    }

    /// Width of the largest run of consecutive online processors — the
    /// widest window [`ReservationTimeline::earliest_window`] can currently
    /// serve with a finite start.
    pub fn max_contiguous_online(&self) -> usize {
        let mut best = 0usize;
        let mut run = 0usize;
        for &off in &self.offline {
            if off {
                run = 0;
            } else {
                run += 1;
                best = best.max(run);
            }
        }
        best
    }

    /// Take `processor` offline as of `from` (a crash): window queries stop
    /// offering it and every reservation still using it beyond `from` is
    /// displaced — queued reservations (starting at or after `from`) are
    /// [`ReservationTimeline::cancel`]led whole, running ones (started
    /// before `from`) are [`ReservationTimeline::truncate_at`] the crash, so
    /// the executed head stays on the books.  Returns the displaced handles
    /// in busy order, for the caller to re-queue.
    ///
    /// Panics when the processor is unknown or already offline, or when
    /// `from` precedes the floor — crashes happen at the clock.  Fails with
    /// a typed [`ReservationError`] if the displacement itself hits an
    /// inconsistent record (a busy interval indexing a dead reservation), so
    /// a corrupted timeline degrades into a reported error instead of
    /// tearing the engine down.
    pub fn set_offline(
        &mut self,
        processor: usize,
        from: f64,
    ) -> Result<Vec<ReservationId>, ReservationError> {
        assert!(processor < self.processors(), "unknown processor");
        assert!(
            !self.offline[processor],
            "processor {processor} is already offline"
        );
        assert!(
            from >= self.floor - 1e-9,
            "crash at {from} is before the floor {}",
            self.floor
        );
        self.offline[processor] = true;
        let hit: Vec<ReservationId> = self.busy[processor]
            .iter()
            .filter(|iv| iv.end > from + 1e-9)
            .map(|iv| iv.id)
            .collect();
        let mut displaced = Vec::with_capacity(hit.len());
        for id in hit {
            let Some(record) = self.reservations.get(id.0).copied().flatten() else {
                return Err(ReservationError::AlreadyCancelled { id });
            };
            if record.start >= from - 1e-9 {
                // Queued at or after the crash: cancellable whole.
                self.cancel(id)?;
            } else {
                // Running across the crash: truncate, keeping the head.
                let freed = self.truncate_at(id, from)?;
                debug_assert!(freed, "the interval extends past the crash");
            }
            displaced.push(id);
        }
        Ok(displaced)
    }

    /// Bring `processor` back online as of `at` (a repair): its frontier is
    /// restored to `max(floor, at, latest busy end)` and window queries
    /// offer it again.  The repair time is remembered as the processor's
    /// availability horizon, so later cancellations cannot lower the
    /// frontier below it and backfill queries never offer holes before it.
    ///
    /// Panics when the processor is unknown or already online.
    pub fn set_online(&mut self, processor: usize, at: f64) {
        assert!(processor < self.processors(), "unknown processor");
        assert!(
            self.offline[processor],
            "processor {processor} is already online"
        );
        self.offline[processor] = false;
        if self.available_from[processor] < at {
            self.available_from[processor] = at;
        }
        self.recompute_frontier(processor);
    }

    /// Restore `frontier[p] = max(floor, availability horizon, latest busy
    /// end on p)` after a cancellation or truncation lowered the latest end.
    ///
    /// In frontier-only mode this may re-expose exactly the revoked
    /// reservation's own space (desirable: that is what a preemptive
    /// re-planner reclaims) while every hole below the remaining frontier
    /// stays hidden, preserving the paper's schedule structure.
    fn recompute_frontier(&mut self, p: usize) {
        self.frontier[p] = self.busy[p]
            .iter()
            .map(|iv| iv.end)
            .fold(self.floor.max(self.available_from[p]), f64::max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timeline::ProcessorTimeline;
    use proptest::prelude::*;

    #[test]
    fn empty_timeline_serves_time_zero() {
        for policy in [HolePolicy::FrontierOnly, HolePolicy::Backfill] {
            let tl = ReservationTimeline::new(4, policy);
            let w = tl.earliest_window(2, 1.0, TieBreak::Leftmost);
            assert_eq!((w.first, w.start), (0, 0.0));
            assert_eq!(tl.makespan(), 0.0);
        }
    }

    #[test]
    fn offline_processors_are_skipped_by_window_queries() {
        for policy in [HolePolicy::FrontierOnly, HolePolicy::Backfill] {
            let mut tl = ReservationTimeline::new(4, policy);
            tl.set_offline(1, 0.0).unwrap();
            assert_eq!(tl.online_processors(), 3);
            assert_eq!(tl.max_contiguous_online(), 2);
            // Width 2 must land on the online run [2, 4).
            let w = tl.earliest_window(2, 1.0, TieBreak::Leftmost);
            assert_eq!((w.first, w.start), (2, 0.0));
            // Width 3 cannot avoid the offline processor: infinite start.
            let wide = tl.earliest_window(3, 1.0, TieBreak::Leftmost);
            assert!(wide.start.is_infinite());
            // Repair restores the full machine.
            tl.set_online(1, 2.5);
            assert_eq!(tl.online_processors(), 4);
            assert!(
                (tl.free_at(1) - 2.5).abs() < 1e-12,
                "repair sets the frontier"
            );
            let wide = tl.earliest_window(4, 1.0, TieBreak::Leftmost);
            assert!(wide.start.is_finite());
        }
    }

    #[test]
    fn repair_horizon_survives_revocation() {
        // Regression: `set_online(p, at)` used to store the repair time only
        // in the frontier, so the next `recompute_frontier` (any cancel on
        // that processor) dropped it, and backfill hole queries ignored it
        // entirely — placing work on a processor before its repair.
        for policy in [HolePolicy::FrontierOnly, HolePolicy::Backfill] {
            let mut tl = ReservationTimeline::new(2, policy);
            tl.set_offline(0, 0.0).unwrap();
            tl.set_online(0, 5.0);
            assert_eq!(tl.available_from(0), 5.0);
            assert!((tl.free_at(0) - 5.0).abs() < 1e-12);
            // Reserve on the repaired processor, then revoke: the frontier
            // must fall back to the repair time, not to the floor.
            let id = tl.reserve(0, 1, 5.0, 2.0);
            tl.cancel(id).unwrap();
            assert!(
                (tl.free_at(0) - 5.0).abs() < 1e-12,
                "{policy:?}: cancel dropped the repair horizon to {}",
                tl.free_at(0)
            );
            // A window using the repaired processor never starts before the
            // repair, in either query mode.
            let w = tl.earliest_window(2, 1.0, TieBreak::Leftmost);
            assert!(
                w.start >= 5.0 - 1e-12,
                "{policy:?}: window at {} precedes the repair at 5",
                w.start
            );
            // The untouched processor still serves the floor.
            let single = tl.earliest_window(1, 1.0, TieBreak::Leftmost);
            assert_eq!((single.first, single.start), (1, 0.0));
        }
    }

    #[test]
    fn crash_cancels_queued_and_truncates_running_reservations() {
        let mut tl = ReservationTimeline::new(2, HolePolicy::FrontierOnly);
        // Running across both processors over [0, 4), queued tail on p1.
        let running = tl.reserve(0, 2, 0.0, 4.0);
        let queued = tl.reserve(1, 1, 4.0, 2.0);
        let untouched = tl.reserve(0, 1, 4.0, 1.0);
        tl.advance_to(2.0);
        let displaced = tl.set_offline(1, 2.0).unwrap();
        assert_eq!(displaced, vec![running, queued]);
        // The running reservation kept its executed head [0, 2).
        assert_eq!(tl.truncate_at(running, 2.0), Ok(false), "already cut");
        // The queued one is gone entirely.
        assert_eq!(
            tl.cancel(queued),
            Err(ReservationError::AlreadyCancelled { id: queued })
        );
        // The reservation on the surviving processor is untouched and the
        // crashed processor accepts nothing.
        assert_eq!(tl.cancel(untouched), Ok(()));
        let w = tl.earliest_window(1, 1.0, TieBreak::Leftmost);
        assert_eq!(w.first, 0);
        assert_eq!(tl.max_contiguous_online(), 1);
    }

    #[test]
    #[should_panic(expected = "offline")]
    fn reserving_an_offline_processor_panics() {
        let mut tl = ReservationTimeline::new(2, HolePolicy::Backfill);
        tl.set_offline(0, 0.0).unwrap();
        tl.reserve(0, 1, 0.0, 1.0);
    }

    #[test]
    fn backfill_finds_holes_below_the_frontier() {
        let mut tl = ReservationTimeline::new(2, HolePolicy::Backfill);
        // Processor 0 busy [0, 1) and [3, 5); the hole [1, 3) fits a 2-unit
        // task but not a 3-unit one.
        tl.reserve(0, 1, 0.0, 1.0);
        tl.reserve(0, 1, 3.0, 2.0);
        tl.reserve(1, 1, 0.0, 6.0);
        let fits = tl.earliest_window(1, 2.0, TieBreak::Leftmost);
        assert_eq!((fits.first, fits.start), (0, 1.0));
        let too_long = tl.earliest_window(1, 3.0, TieBreak::Leftmost);
        assert_eq!((too_long.first, too_long.start), (0, 5.0));
    }

    #[test]
    fn frontier_mode_never_reuses_holes() {
        let mut tl = ReservationTimeline::new(2, HolePolicy::FrontierOnly);
        tl.reserve(0, 1, 0.0, 1.0);
        tl.reserve(0, 1, 3.0, 2.0); // leaves the hole [1, 3)
        tl.reserve(1, 1, 0.0, 6.0);
        let w = tl.earliest_window(1, 1.0, TieBreak::Leftmost);
        assert_eq!((w.first, w.start), (0, 5.0), "the hole must stay hidden");
    }

    #[test]
    fn multi_processor_holes_require_simultaneous_freedom() {
        let mut tl = ReservationTimeline::new(3, HolePolicy::Backfill);
        // Holes: p0 free [1, 4), p1 free [2, 5), p2 free [0, ∞).
        tl.reserve(0, 1, 0.0, 1.0);
        tl.reserve(0, 1, 4.0, 2.0);
        tl.reserve(1, 1, 0.0, 2.0);
        tl.reserve(1, 1, 5.0, 1.0);
        // A 2-wide 2-unit task on [0,1] fits only over [2, 4).
        let w = tl.earliest_window(2, 2.0, TieBreak::Leftmost);
        assert_eq!((w.first, w.start), (0, 2.0));
    }

    #[test]
    fn cancel_frees_the_space_and_lowers_the_frontier() {
        let mut tl = ReservationTimeline::new(2, HolePolicy::Backfill);
        let keep = tl.reserve(0, 2, 0.0, 1.0);
        let revoke = tl.reserve(0, 2, 1.0, 4.0);
        assert_eq!(tl.makespan(), 5.0);
        tl.cancel(revoke).unwrap();
        assert_eq!(tl.makespan(), 1.0);
        let w = tl.earliest_window(2, 3.0, TieBreak::Leftmost);
        assert_eq!(w.start, 1.0, "the revoked space is reusable");
        // The other reservation is untouched.
        assert_eq!(tl.live_reservations(), 1);
        let _ = keep;
    }

    #[test]
    fn double_cancel_is_a_typed_error() {
        let mut tl = ReservationTimeline::new(1, HolePolicy::Backfill);
        let id = tl.reserve(0, 1, 0.0, 1.0);
        tl.cancel(id).unwrap();
        assert_eq!(
            tl.cancel(id),
            Err(ReservationError::AlreadyCancelled { id })
        );
        assert_eq!(
            tl.truncate_at(id, 0.5),
            Err(ReservationError::AlreadyCancelled { id })
        );
    }

    #[test]
    fn cancelling_a_started_reservation_is_a_typed_error() {
        let mut tl = ReservationTimeline::new(1, HolePolicy::Backfill);
        let id = tl.reserve(0, 1, 0.0, 4.0);
        tl.advance_to(2.0);
        let before = tl.clone();
        assert_eq!(
            tl.cancel(id),
            Err(ReservationError::StartedBeforeFloor {
                id,
                start: 0.0,
                floor: 2.0
            })
        );
        // A failed request leaves the timeline untouched.
        assert_eq!(tl, before);
        // The running reservation *can* be preempted: its unexecuted tail is
        // revoked, the executed head stays on the books.
        tl.truncate_at(id, 2.5).unwrap();
        assert_eq!(tl.makespan(), 2.5);
    }

    #[test]
    fn truncate_frees_the_tail() {
        let mut tl = ReservationTimeline::new(1, HolePolicy::Backfill);
        let id = tl.reserve(0, 1, 0.0, 5.0);
        tl.truncate_at(id, 2.0).unwrap();
        assert_eq!(tl.makespan(), 2.0);
        let w = tl.earliest_window(1, 1.0, TieBreak::Leftmost);
        assert_eq!(w.start, 2.0);
        // Growing back via truncate is a no-op.
        tl.truncate_at(id, 4.0).unwrap();
        assert_eq!(tl.makespan(), 2.0);
    }

    #[test]
    fn truncation_cannot_rewrite_history() {
        let mut tl = ReservationTimeline::new(1, HolePolicy::Backfill);
        let id = tl.reserve(0, 1, 1.0, 5.0);
        assert_eq!(
            tl.truncate_at(id, 0.5),
            Err(ReservationError::CutBeforeStart {
                id,
                cut: 0.5,
                start: 1.0
            })
        );
        tl.advance_to(3.0);
        let before = tl.clone();
        assert_eq!(
            tl.truncate_at(id, 2.0),
            Err(ReservationError::CutBeforeFloor {
                id,
                cut: 2.0,
                floor: 3.0
            })
        );
        assert_eq!(tl, before, "failed truncation must not mutate");
        // At the floor itself the cut is legal (the preemption case).
        tl.truncate_at(id, 3.0).unwrap();
        assert_eq!(tl.makespan(), 3.0);
    }

    #[test]
    fn gc_passed_reservations_reject_revocation_without_dropping_history() {
        let mut tl = ReservationTimeline::new(1, HolePolicy::Backfill);
        let past = tl.reserve(0, 1, 0.0, 1.0);
        tl.reserve(0, 1, 1.0, 1.0);
        tl.advance_to(2.5); // both reservations fully behind the floor
        assert!(matches!(
            tl.cancel(past),
            Err(ReservationError::StartedBeforeFloor { .. })
        ));
        // Truncating a fully-past reservation at or after the floor is a
        // no-op (its end precedes the cut), never a history rewrite.
        tl.truncate_at(past, 2.5).unwrap();
        assert!(matches!(
            tl.truncate_at(past, 0.5),
            Err(ReservationError::CutBeforeFloor { .. })
        ));
    }

    #[test]
    fn advance_garbage_collects_the_past() {
        let mut tl = ReservationTimeline::new(2, HolePolicy::Backfill);
        for i in 0..10 {
            tl.reserve(0, 2, i as f64, 1.0);
        }
        assert_eq!(tl.live_reservations(), 10);
        tl.advance_to(8.5);
        assert_eq!(tl.live_reservations(), 2, "past intervals are collected");
        // The past is unreachable even though its intervals are gone.
        let w = tl.earliest_window(1, 0.5, TieBreak::Leftmost);
        assert!(w.start >= 8.5 - 1e-12);
    }

    #[test]
    fn overlapping_reservations_are_rejected() {
        let mut tl = ReservationTimeline::new(2, HolePolicy::Backfill);
        tl.reserve(0, 1, 1.0, 2.0);
        for (start, duration) in [(0.5, 1.0), (1.5, 0.5), (2.5, 1.0)] {
            let mut probe = tl.clone();
            let result = std::panic::catch_unwind(move || {
                probe.reserve(0, 1, start, duration);
            });
            assert!(result.is_err(), "overlap at [{start}, +{duration}) allowed");
        }
        // Touching intervals are fine.
        tl.reserve(0, 1, 3.0, 1.0);
        tl.reserve(0, 1, 0.0, 1.0);
    }

    proptest! {
        /// Frontier-compatible mode reproduces `ProcessorTimeline` exactly on
        /// arbitrary place/advance sequences (the offline list algorithms'
        /// usage pattern): same windows, same frontiers, same makespan.
        #[test]
        fn frontier_mode_matches_processor_timeline(
            ops in prop::collection::vec((1usize..6, 0.05f64..2.5, 0.0f64..0.5), 1..40),
            m in 5usize..9,
        ) {
            let mut legacy = ProcessorTimeline::new(m);
            let mut modern = ReservationTimeline::new(m, HolePolicy::FrontierOnly);
            let mut clock = 0.0f64;
            for (count, duration, advance) in ops {
                let count = count.min(m);
                if advance > 0.25 {
                    clock += advance;
                    legacy.advance_all_to(clock);
                    modern.advance_to(clock);
                }
                let expected = legacy.earliest_window(count, TieBreak::PaperConvention);
                let got = modern.earliest_window(count, duration, TieBreak::PaperConvention);
                prop_assert_eq!(expected.first, got.first);
                prop_assert_eq!(expected.start, got.start);
                legacy.commit(expected.first, count, expected.start, duration);
                modern.reserve(got.first, count, got.start, duration);
                for p in 0..m {
                    prop_assert!((legacy.free_at(p) - modern.free_at(p)).abs() <= 1e-12);
                }
                prop_assert_eq!(legacy.makespan(), modern.makespan());
            }
        }

        /// Revocation vs the floor-advance GC: on arbitrary
        /// place/advance/cancel/truncate sequences, `cancel` succeeds exactly
        /// on live reservations starting at or after the floor, `truncate_at`
        /// fails exactly when the cut precedes the floor or the start, no
        /// request ever panics, and a failed request leaves the timeline
        /// bit-identical.
        #[test]
        fn revocation_respects_the_advanced_floor(
            ops in prop::collection::vec((1usize..4, 0.1f64..2.0, 0.0f64..1.0, 0.0f64..6.0), 1..40),
            m in 2usize..6,
        ) {
            let mut tl = ReservationTimeline::new(m, HolePolicy::Backfill);
            let mut issued: Vec<(ReservationId, f64, bool)> = Vec::new(); // (id, start, cancelled)
            let mut clock = 0.0f64;
            for (i, (count, duration, advance, cut)) in ops.into_iter().enumerate() {
                let count = count.min(m);
                if advance > 0.6 {
                    clock += advance;
                    tl.advance_to(clock);
                }
                let (w, id) = tl.place(count, duration, TieBreak::PaperConvention);
                issued.push((id, w.start, false));
                // Attack an arbitrary earlier reservation with both requests.
                let victim = i % issued.len();
                let (vid, vstart, cancelled) = issued[victim];
                let before = tl.clone();
                match tl.cancel(vid) {
                    Ok(()) => {
                        prop_assert!(!cancelled, "double cancel accepted");
                        prop_assert!(vstart >= tl.floor() - 1e-9, "cancelled a started reservation");
                        issued[victim].2 = true;
                    }
                    Err(ReservationError::AlreadyCancelled { .. }) => {
                        prop_assert!(cancelled);
                        prop_assert_eq!(&tl, &before);
                    }
                    Err(ReservationError::StartedBeforeFloor { .. }) => {
                        prop_assert!(!cancelled && vstart < tl.floor() - 1e-9);
                        prop_assert_eq!(&tl, &before);
                    }
                    Err(other) => prop_assert!(false, "unexpected cancel error {other:?}"),
                }
                let before = tl.clone();
                match tl.truncate_at(vid, cut) {
                    Ok(_) => {
                        prop_assert!(!issued[victim].2, "truncated a cancelled reservation");
                        prop_assert!(
                            cut >= tl.floor() - 1e-9 && cut >= vstart - 1e-9,
                            "truncation rewrote history"
                        );
                    }
                    Err(ReservationError::AlreadyCancelled { .. }) => {
                        prop_assert!(issued[victim].2);
                        prop_assert_eq!(&tl, &before);
                    }
                    Err(ReservationError::CutBeforeStart { .. }) => {
                        prop_assert!(cut < vstart - 1e-9);
                        prop_assert_eq!(&tl, &before);
                    }
                    Err(ReservationError::CutBeforeFloor { .. }) => {
                        prop_assert!(cut < tl.floor() - 1e-9);
                        prop_assert_eq!(&tl, &before);
                    }
                    Err(other) => prop_assert!(false, "unexpected truncate error {other:?}"),
                }
            }
        }

        /// `set_offline` → `set_online` on a *quiet* processor (one whose
        /// crash displaces nothing) at the current clock is a perfect
        /// round-trip: the timeline — floor, frontiers, availability
        /// horizons, busy sets, live reservations, and therefore every hole
        /// query — is restored bit-identically.  Runs over arbitrary
        /// place/advance histories seeded with future repair horizons, in
        /// both query modes; the horizons make the pre-fix drift visible
        /// (`set_online` used to forget them on recompute).
        #[test]
        fn offline_online_round_trip_restores_hole_queries(
            repairs in prop::collection::vec((0usize..8, 0.5f64..4.0), 0..4),
            ops in prop::collection::vec((1usize..4, 0.1f64..2.0, 0.0f64..1.0), 1..25),
            m in 3usize..7,
        ) {
            for policy in [HolePolicy::FrontierOnly, HolePolicy::Backfill] {
                let mut tl = ReservationTimeline::new(m, policy);
                let mut clock = 0.0f64;
                // Seed future repair horizons: crash and immediately repair
                // at a time above the clock.
                for &(p, ahead) in &repairs {
                    let p = p % m;
                    tl.set_offline(p, clock).unwrap();
                    tl.set_online(p, clock + ahead);
                }
                for &(count, duration, advance) in &ops {
                    let count = count.min(m);
                    if advance > 0.6 {
                        clock += advance;
                        tl.advance_to(clock);
                    }
                    tl.place(count, duration, TieBreak::PaperConvention);

                    // Round-trip every quiet processor at the clock.
                    for p in 0..m {
                        let before = tl.clone();
                        let mut probe = tl.clone();
                        if !probe.set_offline(p, clock).unwrap().is_empty() {
                            // Not quiet: the crash displaced reservations,
                            // which legitimately mutates the timeline.
                            continue;
                        }
                        probe.set_online(p, clock);
                        prop_assert_eq!(&probe, &before,
                            "round-trip on processor {} drifted", p);
                        // Hole queries agree (implied by equality, asserted
                        // directly so a future `PartialEq` relaxation keeps
                        // the guarantee).
                        for count in 1..=m {
                            let a = before.earliest_window(count, duration, TieBreak::PaperConvention);
                            let b = probe.earliest_window(count, duration, TieBreak::PaperConvention);
                            prop_assert_eq!((a.first, a.start), (b.first, b.start));
                        }
                    }
                }
            }
        }

        /// Backfill placements never start later than frontier placements for
        /// the same request on the same state, and reservations never overlap.
        #[test]
        fn backfill_windows_are_never_later(
            ops in prop::collection::vec((1usize..5, 0.1f64..2.0), 1..30),
            m in 4usize..8,
        ) {
            let mut tl = ReservationTimeline::new(m, HolePolicy::Backfill);
            for (count, duration) in ops {
                let count = count.min(m);
                let frontier_view = earliest_frontier_view(&tl, count);
                let (w, _) = tl.place(count, duration, TieBreak::PaperConvention);
                prop_assert!(w.start <= frontier_view + 1e-9,
                    "hole window {} later than frontier window {}", w.start, frontier_view);
            }
        }
    }

    /// The reference collector: the full `retain` the floor-advance GC
    /// replaced, kept here only to pin the front-pop GC against it.
    fn advance_with_full_retain(tl: &mut ReservationTimeline, time: f64) {
        if time <= tl.floor {
            return;
        }
        tl.floor = time;
        for f in &mut tl.frontier {
            if *f < time {
                *f = time;
            }
        }
        for a in &mut tl.available_from {
            if *a < time {
                *a = time;
            }
        }
        for intervals in &mut tl.busy {
            *intervals = IntervalList {
                items: intervals
                    .iter()
                    .copied()
                    .filter(|iv| iv.end > time + 1e-12)
                    .collect(),
                head: 0,
            };
        }
    }

    /// Whether `reserve(first, count, start, duration)` would be accepted
    /// (the same checks `reserve` asserts), so the GC proptest can aim
    /// placements at the tolerance edges without tripping a panic.
    fn accepts(
        tl: &ReservationTimeline,
        first: usize,
        count: usize,
        start: f64,
        duration: f64,
    ) -> bool {
        let end = start + duration;
        start >= tl.floor - 1e-9
            && (first..first + count).all(|p| {
                let intervals = &tl.busy[p];
                let pos = intervals.partition_point(|iv| iv.start < start);
                !tl.offline[p]
                    && start >= tl.available_from[p] - 1e-9
                    && (tl.policy != HolePolicy::FrontierOnly || tl.frontier[p] <= start + 1e-9)
                    && pos
                        .checked_sub(1)
                        .and_then(|i| intervals.get(i))
                        .is_none_or(|prev| prev.end <= start + 1e-9)
                    && intervals
                        .get(pos)
                        .is_none_or(|next| next.start >= end - 1e-9)
            })
    }

    /// Ends and starts of every live interval: the anchors the GC proptest
    /// aims near-touching reservations, cuts and advances at.
    fn anchors(tl: &ReservationTimeline) -> Vec<f64> {
        let mut anchors: Vec<f64> = tl
            .busy
            .iter()
            .flat_map(|intervals| intervals.iter())
            .flat_map(|iv| [iv.start, iv.end])
            .collect();
        anchors.push(tl.floor);
        anchors
    }

    #[test]
    fn gc_collects_an_expired_interval_behind_a_live_front() {
        // A zero-length interval placed just under the end of a longer one
        // (within reserve's 1e-9 tolerance) ends before it: advancing
        // between the two ends must collect the short one although the
        // front of the list is still live.
        let mut tl = ReservationTimeline::new(1, HolePolicy::Backfill);
        let long = tl.reserve(0, 1, 0.0, 1.0);
        let short = tl.reserve(0, 1, 1.0 - 5e-10, 0.0);
        let ids: Vec<ReservationId> = tl.busy[0].iter().map(|iv| iv.id).collect();
        assert_eq!(ids, vec![long, short], "sorted by start");
        let mut reference = tl.clone();
        tl.advance_to(1.0 - 4e-10);
        advance_with_full_retain(&mut reference, 1.0 - 4e-10);
        assert_eq!(tl, reference);
        let ids: Vec<ReservationId> = tl.busy[0].iter().map(|iv| iv.id).collect();
        assert_eq!(ids, vec![long], "the expired zero-length interval is gone");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The front-pop GC of `advance_to` leaves exactly the timeline the
        /// old full `retain` left, on random reserve / cancel / truncate /
        /// advance / crash / repair sequences in both query modes.  The
        /// sequences aim reservations, cuts and advances at the edges where
        /// end order departs from start order: intervals that nearly touch
        /// within reserve's 1e-9 tolerance, zero-length intervals, cuts up
        /// to 1e-9 before a start, and advances within 1e-12 of an end.
        #[test]
        fn front_pop_gc_matches_the_full_retain(
            ops in prop::collection::vec(
                ((0usize..7, 0usize..64), (0.0f64..1.0, 0.0f64..2.0, 0usize..9)),
                1..60,
            ),
            m in 1usize..4,
        ) {
            // Offsets around an anchor: inside and outside both tolerances.
            const NUDGES: [f64; 9] = [-1.5e-9, -1e-9, -5e-10, -1e-12, 0.0, 5e-13, 1e-12, 2e-12, 1e-9];
            for policy in [HolePolicy::FrontierOnly, HolePolicy::Backfill] {
                let mut tl = ReservationTimeline::new(m, policy);
                let mut reference = tl.clone();
                let mut issued: Vec<ReservationId> = Vec::new();
                for &((op, pick), (unit, span, nudge)) in &ops {
                    let nudge = NUDGES[nudge];
                    let anchors = anchors(&tl);
                    let anchor = anchors[pick % anchors.len()];
                    match op {
                        // Reserve against an anchor: zero-length, tiny or
                        // ordinary, nudged into the tolerance band.
                        0 | 1 => {
                            let count = 1 + pick % m;
                            let first = (pick / 7) % (m + 1 - count);
                            let duration = match pick % 3 {
                                0 => 0.0,
                                1 => unit * 1e-9,
                                _ => span,
                            };
                            let start = (anchor + nudge).max(tl.floor);
                            if accepts(&tl, first, count, start, duration) {
                                issued.push(tl.reserve(first, count, start, duration));
                                reference.reserve(first, count, start, duration);
                            }
                        }
                        2 => {
                            if !issued.is_empty() {
                                let id = issued[pick % issued.len()];
                                prop_assert_eq!(tl.cancel(id), reference.cancel(id));
                            }
                        }
                        // Cut a reservation just around its own start (down
                        // to an end before the start) or at an anchor.
                        3 => {
                            if !issued.is_empty() {
                                let id = issued[pick % issued.len()];
                                let cut = match tl.reservations[id.0] {
                                    Some(record) if pick % 2 == 0 => record.start + nudge,
                                    _ => anchor + nudge,
                                };
                                prop_assert_eq!(tl.truncate_at(id, cut), reference.truncate_at(id, cut));
                            }
                        }
                        // Advance to just around an anchor, or a little past
                        // the floor.
                        4 | 5 => {
                            let time = if op == 4 { anchor + nudge } else { tl.floor + unit * span };
                            if time >= tl.floor {
                                tl.advance_to(time);
                                advance_with_full_retain(&mut reference, time);
                            }
                        }
                        _ => {
                            let p = pick % m;
                            if tl.is_online(p) {
                                let from = tl.floor;
                                prop_assert_eq!(tl.set_offline(p, from), reference.set_offline(p, from));
                            } else {
                                let at = tl.floor + unit;
                                tl.set_online(p, at);
                                reference.set_online(p, at);
                            }
                        }
                    }
                    prop_assert_eq!(&tl, &reference, "{:?} after op {}", policy, op);
                }
            }
        }
    }

    /// The allocating hole search this module used to run — a candidate
    /// list, a cursor vector and a slice table per query — kept as the
    /// reference the scratch-based search must reproduce.  Returns the
    /// window and the number of intervals the sweep stepped over.
    fn reference_hole_window(
        tl: &ReservationTimeline,
        count: usize,
        duration: f64,
        tie: TieBreak,
    ) -> (Window, u64) {
        let m = tl.processors();
        assert!(
            count >= 1 && count <= m,
            "window of {count} processors on {m}"
        );
        assert!(duration >= 0.0, "negative duration");
        let mut best_start = f64::INFINITY;
        let mut candidates: Vec<(usize, f64)> = Vec::with_capacity(m + 1 - count);
        let mut cursors: Vec<usize> = vec![0; count];
        let mut scanned = 0u64;
        let busy: Vec<&[BusyInterval]> = tl.busy.iter().map(|list| &list[..]).collect();
        for first in 0..=m - count {
            if tl.offline[first..first + count].iter().any(|&off| off) {
                continue;
            }
            for (i, p) in (first..first + count).enumerate() {
                cursors[i] = busy[p].partition_point(|iv| iv.end <= tl.floor + 1e-12);
            }
            let mut start = tl.available_from[first..first + count]
                .iter()
                .fold(tl.floor, |acc, &a| acc.max(a));
            loop {
                let mut next: Option<(usize, f64)> = None;
                for (i, p) in (first..first + count).enumerate() {
                    if let Some(iv) = busy[p].get(cursors[i]) {
                        if next.is_none_or(|(_, s)| iv.start < s) {
                            next = Some((i, iv.start));
                        }
                    }
                }
                match next {
                    Some((i, s)) if s < start + duration - 1e-9 => {
                        let end = busy[first + i][cursors[i]].end;
                        if end > start {
                            start = end;
                        }
                        cursors[i] += 1;
                        scanned += 1;
                    }
                    _ => break,
                }
            }
            candidates.push((first, start));
            if start < best_start - 1e-12 {
                best_start = start;
            }
        }
        let effective_tie = match tie {
            TieBreak::PaperConvention => {
                if best_start <= 1e-12 {
                    TieBreak::Leftmost
                } else {
                    TieBreak::Rightmost
                }
            }
            other => other,
        };
        let chosen = candidates
            .iter()
            .filter(|(_, s)| (*s - best_start).abs() <= 1e-12)
            .map(|&(f, _)| f);
        let first = match effective_tie {
            TieBreak::Leftmost => chosen.min().unwrap_or(0),
            TieBreak::Rightmost => chosen.max().unwrap_or(0),
            TieBreak::PaperConvention => unreachable!("resolved above"),
        };
        let window = Window {
            first,
            count,
            start: best_start,
        };
        (window, scanned)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Both query modes reproduce their references on random
        /// reservation books with offline processors, future repair
        /// horizons (`available_from` above the floor), cancellations and
        /// an advanced floor: the same window down to the bits of its start
        /// for every count, duration and tie-break, and — for the hole
        /// search — the same number of intervals scanned.
        #[test]
        fn window_queries_match_the_references(
            ops in prop::collection::vec((0usize..6, 0usize..64, 0.0f64..3.0, 0.0f64..2.0), 1..40),
            durations in prop::collection::vec(0.0f64..3.0, 1..4),
            m in 1usize..7,
        ) {
            for policy in [HolePolicy::FrontierOnly, HolePolicy::Backfill] {
                let mut tl = ReservationTimeline::new(m, policy);
                let mut issued: Vec<ReservationId> = Vec::new();
                for &(op, pick, at, length) in &ops {
                    match op {
                        // Reserve at an arbitrary start (holes) or at the
                        // earliest window, wherever the book accepts it.
                        0 | 1 => {
                            let count = 1 + pick % m;
                            let first = (pick / 7) % (m + 1 - count);
                            let start = tl.floor + if op == 0 { at } else { 0.0 };
                            if accepts(&tl, first, count, start, length) {
                                issued.push(tl.reserve(first, count, start, length));
                            } else if tl.max_contiguous_online() >= count {
                                let (_, id) = tl.place(count, length, TieBreak::PaperConvention);
                                issued.push(id);
                            }
                        }
                        2 => {
                            if !issued.is_empty() {
                                let _ = tl.cancel(issued[pick % issued.len()]);
                            }
                        }
                        3 => tl.advance_to(tl.floor + at * 0.5),
                        _ => {
                            let p = pick % m;
                            if tl.is_online(p) {
                                let from = tl.floor;
                                tl.set_offline(p, from).unwrap();
                            } else {
                                let at = tl.floor + at;
                                tl.set_online(p, at);
                            }
                        }
                    }
                    let masked: Vec<f64> = (0..m)
                        .map(|p| if tl.is_online(p) { tl.free_at(p) } else { f64::INFINITY })
                        .collect();
                    for count in 1..=m {
                        for &duration in &durations {
                            for tie in [TieBreak::Leftmost, TieBreak::Rightmost, TieBreak::PaperConvention] {
                                let (want, scanned) = match policy {
                                    HolePolicy::FrontierOnly => {
                                        (crate::timeline::tests::reference_frontier_window(&masked, count, tie), 0)
                                    }
                                    HolePolicy::Backfill => reference_hole_window(&tl, count, duration, tie),
                                };
                                let before = tl.stats().holes_scanned;
                                let got = tl.earliest_window(count, duration, tie);
                                prop_assert_eq!(got.first, want.first, "{:?} count {} {:?}", policy, count, tie);
                                prop_assert_eq!(got.start.to_bits(), want.start.to_bits());
                                prop_assert_eq!(tl.stats().holes_scanned - before, scanned);
                            }
                        }
                    }
                }
            }
        }
    }

    /// The frontier answer for the same state (what `FrontierOnly` would
    /// serve): recompute via the shared helper on the frontier array.
    fn earliest_frontier_view(tl: &ReservationTimeline, count: usize) -> f64 {
        let frontier: Vec<f64> = (0..tl.processors()).map(|p| tl.free_at(p)).collect();
        let mut buffers = WindowBuffers::default();
        earliest_frontier_window(&frontier, count, TieBreak::PaperConvention, &mut buffers).start
    }
}
