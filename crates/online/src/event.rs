//! The engine's event queue: a binary min-heap over timestamped events.
//!
//! Seven event kinds drive the engine: task arrivals, task completions, task
//! failures, task departures, processor crashes/repairs and epoch ticks.
//! The engine reads a trace's arrivals in place, from the sorted trace, and
//! queues only retry arrivals; it hands out a trace arrival before a queued
//! event of the same time, which is where this order puts it (arrivals
//! rank first, and a trace arrival was known before anything queued).
//! Events at the same timestamp pop in a deterministic, documented order —
//! **arrival → completion → failure → departure → down → up → tick** — so
//! traces replay identically across runs:
//!
//! * *arrivals first*, so any planning round triggered at time `t` sees every
//!   task that is available at `t`;
//! * *completions before failures*, so a task finishing exactly when its
//!   injected fault would fire counts as completed, not failed;
//! * *failures before departures*, so the retry decision for a failed
//!   attempt is made before any same-instant deadline processing;
//! * *processor crashes and repairs after the task-level events*, so
//!   displacement acts on the settled task states, and *down before up*, so
//!   a zero-length outage is a crash followed by a repair, not the reverse;
//! * *epoch ticks last*, so a tick observes the fully updated machine state
//!   (simultaneous arrivals enqueued, finished tasks released, departed tasks
//!   withdrawn, capacity changes applied);
//! * ties beyond the kind are broken by insertion order.

use malleable_core::TaskId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Arrival `index` of the trace became available.
    Arrival(usize),
    /// A committed task finished (payload: its global task id).
    Completion(TaskId),
    /// An injected fault kills the current attempt of a task (fault runs
    /// only).  `generation` snapshots the task's commitment generation at
    /// scheduling time, so a failure aimed at a commitment that was since
    /// revoked or re-planned is recognised as stale and ignored.
    TaskFailure {
        /// Global id of the failing task.
        task: TaskId,
        /// Commitment generation the failure belongs to.
        generation: u64,
    },
    /// Arrival `index` departs: if the task has not started yet it leaves the
    /// system (its queued reservation, if any, is revoked); a running task is
    /// unaffected (non-preemptive execution).
    Departure(usize),
    /// The processor crashes and goes offline (fault runs only).
    ProcessorDown(usize),
    /// The processor is repaired and comes back online (fault runs only).
    ProcessorUp(usize),
    /// An epoch boundary of an epoch-driven policy.
    EpochTick,
}

impl EventKind {
    /// Rank applied among events with equal timestamps (see the module docs).
    fn rank(&self) -> u8 {
        match self {
            EventKind::Arrival(_) => 0,
            EventKind::Completion(_) => 1,
            EventKind::TaskFailure { .. } => 2,
            EventKind::Departure(_) => 3,
            EventKind::ProcessorDown(_) => 4,
            EventKind::ProcessorUp(_) => 5,
            EventKind::EpochTick => 6,
        }
    }
}

/// A timestamped event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// When the event fires.
    pub time: f64,
    /// What fires.
    pub kind: EventKind,
    /// Insertion sequence number (final tie-break).
    seq: u64,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, the queue needs the earliest
        // event on top.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.kind.rank().cmp(&self.kind.rank()))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The min-heap of future events.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule an event.
    pub fn push(&mut self, time: f64, kind: EventKind) {
        assert!(time.is_finite() && time >= 0.0, "invalid event time {time}");
        self.heap.push(Event {
            time,
            kind,
            seq: self.next_seq,
        });
        self.next_seq += 1;
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Timestamp of the earliest event, if any.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.push(2.0, EventKind::Arrival(0));
        q.push(0.5, EventKind::Arrival(1));
        q.push(1.0, EventKind::Completion(7));
        let order: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(order, vec![0.5, 1.0, 2.0]);
    }

    #[test]
    fn equal_times_order_arrival_completion_failure_departure_down_up_tick() {
        let mut q = EventQueue::new();
        q.push(1.0, EventKind::EpochTick);
        q.push(1.0, EventKind::ProcessorUp(2));
        q.push(1.0, EventKind::ProcessorDown(2));
        q.push(1.0, EventKind::Departure(4));
        q.push(
            1.0,
            EventKind::TaskFailure {
                task: 5,
                generation: 1,
            },
        );
        q.push(1.0, EventKind::Arrival(3));
        q.push(1.0, EventKind::Completion(9));
        let kinds: Vec<EventKind> = std::iter::from_fn(|| q.pop()).map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EventKind::Arrival(3),
                EventKind::Completion(9),
                EventKind::TaskFailure {
                    task: 5,
                    generation: 1
                },
                EventKind::Departure(4),
                EventKind::ProcessorDown(2),
                EventKind::ProcessorUp(2),
                EventKind::EpochTick
            ]
        );
    }

    #[test]
    fn insertion_order_breaks_remaining_ties() {
        let mut q = EventQueue::new();
        q.push(1.0, EventKind::Arrival(0));
        q.push(1.0, EventKind::Arrival(1));
        q.push(1.0, EventKind::Arrival(2));
        let ids: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Arrival(i) => i,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "invalid event time")]
    fn non_finite_times_are_rejected() {
        EventQueue::new().push(f64::NAN, EventKind::EpochTick);
    }
}
