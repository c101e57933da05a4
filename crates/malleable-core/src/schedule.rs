//! Schedules: the output of every scheduling algorithm in this workspace.
//!
//! The paper searches for *non-preemptive, contiguous* schedules (§2): every
//! task runs without interruption on a block of processors with consecutive
//! indices, using a constant number of processors for its whole execution.
//! A [`Schedule`] is simply the list of per-task placements; the structural
//! invariants (no overlap, machine capacity, consistency with the task
//! profiles) are checked by [`Schedule::validate`] through the one checker
//! of [`crate::validate`].

use crate::error::{Error, Result};
use crate::instance::Instance;
use crate::task::TaskId;
use crate::validate::{check, RunRecord};

/// A block of processors with consecutive indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ProcessorRange {
    /// Index of the first processor (0-based).
    pub first: usize,
    /// Number of processors in the block (≥ 1).
    pub count: usize,
}

impl ProcessorRange {
    /// Create a new range.
    pub fn new(first: usize, count: usize) -> Self {
        assert!(count >= 1, "a processor range must contain a processor");
        ProcessorRange { first, count }
    }

    /// One-past-the-end processor index.
    pub fn end(&self) -> usize {
        self.first + self.count
    }

    /// Whether two ranges share at least one processor.
    pub fn overlaps(&self, other: &ProcessorRange) -> bool {
        self.first < other.end() && other.first < self.end()
    }

    /// Whether the range is a non-empty block inside a machine with `m`
    /// processors (without overflowing on a huge `first`).
    pub fn fits(&self, m: usize) -> bool {
        self.count >= 1
            && self
                .first
                .checked_add(self.count)
                .is_some_and(|end| end <= m)
    }
}

/// The placement of a single task.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ScheduledTask {
    /// Which task this entry schedules.
    pub task: TaskId,
    /// Start time (≥ 0).
    pub start: f64,
    /// Execution time of the task under its allotted processor count.
    pub duration: f64,
    /// The contiguous block of processors the task occupies.
    pub processors: ProcessorRange,
}

impl ScheduledTask {
    /// Completion time of the task.
    pub fn finish(&self) -> f64 {
        self.start + self.duration
    }

    /// Whether this placement overlaps another in both time and processors.
    pub fn conflicts_with(&self, other: &ScheduledTask) -> bool {
        let time_overlap = self.start < other.finish() - 1e-9 && other.start < self.finish() - 1e-9;
        time_overlap && self.processors.overlaps(&other.processors)
    }
}

/// A complete schedule of an instance.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Schedule {
    processors: usize,
    entries: Vec<ScheduledTask>,
}

impl Schedule {
    /// Create an empty schedule for a machine with `processors` processors.
    pub fn new(processors: usize) -> Self {
        Schedule {
            processors,
            entries: Vec::new(),
        }
    }

    /// Number of processors of the machine the schedule targets.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Add a placement.
    pub fn push(&mut self, entry: ScheduledTask) {
        self.entries.push(entry);
    }

    /// All placements, in insertion order.
    pub fn entries(&self) -> &[ScheduledTask] {
        &self.entries
    }

    /// Number of scheduled tasks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The placement of a given task, if any.
    pub fn entry_for(&self, task: TaskId) -> Option<&ScheduledTask> {
        self.entries.iter().find(|e| e.task == task)
    }

    /// Makespan: the latest completion time (0 for an empty schedule).
    pub fn makespan(&self) -> f64 {
        self.entries
            .iter()
            .map(ScheduledTask::finish)
            .fold(0.0, f64::max)
    }

    /// Total work (processor-time product) committed by the schedule.
    pub fn total_work(&self) -> f64 {
        self.entries
            .iter()
            .map(|e| e.processors.count as f64 * e.duration)
            .sum()
    }

    /// Average machine utilisation over the makespan horizon (in `[0, 1]`).
    pub fn utilization(&self) -> f64 {
        let horizon = self.makespan();
        if horizon <= 0.0 {
            return 0.0;
        }
        self.total_work() / (self.processors as f64 * horizon)
    }

    /// Check the schedule against its instance: every task runs exactly
    /// once, inside the machine, for its profile time, starting at a finite
    /// time `≥ 0`, and no two placements share a processor at the same time.
    /// Returns the first violation of the offline [`RunRecord`] as
    /// [`Error::InvalidSchedule`].
    pub fn validate(&self, instance: &Instance) -> Result<()> {
        let first = check(&RunRecord::offline(instance, self))
            .into_iter()
            .next();
        first.map_or(Ok(()), |violation| Err(Error::InvalidSchedule(violation)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::SpeedupProfile;
    use crate::validate::Violation;

    fn instance() -> Instance {
        Instance::from_profiles(
            vec![
                SpeedupProfile::new(vec![2.0, 1.2]).unwrap(),
                SpeedupProfile::sequential(1.0).unwrap(),
            ],
            3,
        )
        .unwrap()
    }

    fn entry(task: TaskId, start: f64, duration: f64, first: usize, count: usize) -> ScheduledTask {
        ScheduledTask {
            task,
            start,
            duration,
            processors: ProcessorRange::new(first, count),
        }
    }

    #[test]
    fn processor_range_overlap_logic() {
        let a = ProcessorRange::new(0, 2);
        let b = ProcessorRange::new(2, 2);
        let c = ProcessorRange::new(1, 2);
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(b.overlaps(&c));
        assert!(a.fits(2));
        assert!(!b.fits(3));
        assert!(!ProcessorRange { first: 0, count: 0 }.fits(3));
        assert!(!ProcessorRange::new(usize::MAX, 2).fits(usize::MAX));
    }

    #[test]
    fn makespan_and_work() {
        let inst = instance();
        let mut s = Schedule::new(inst.processors());
        s.push(entry(0, 0.0, 1.2, 0, 2));
        s.push(entry(1, 0.0, 1.0, 2, 1));
        assert!((s.makespan() - 1.2).abs() < 1e-12);
        assert!((s.total_work() - 3.4).abs() < 1e-12);
        assert!(s.utilization() > 0.9 && s.utilization() <= 1.0);
        assert!(s.validate(&inst).is_ok());
    }

    #[test]
    fn validate_detects_missing_task() {
        let inst = instance();
        let mut s = Schedule::new(3);
        s.push(entry(0, 0.0, 1.2, 0, 2));
        assert_eq!(
            s.validate(&inst).unwrap_err(),
            Error::InvalidSchedule(Violation::MissingTask { task: 1 })
        );
    }

    #[test]
    fn validate_detects_duplicate_task() {
        let inst = instance();
        let mut s = Schedule::new(3);
        s.push(entry(0, 0.0, 1.2, 0, 2));
        s.push(entry(0, 2.0, 1.2, 0, 2));
        s.push(entry(1, 0.0, 1.0, 2, 1));
        assert!(s.validate(&inst).is_err());
    }

    #[test]
    fn validate_detects_overlap() {
        let inst = instance();
        let mut s = Schedule::new(3);
        s.push(entry(0, 0.0, 1.2, 0, 2));
        s.push(entry(1, 0.5, 1.0, 1, 1));
        assert!(s.validate(&inst).is_err());
    }

    #[test]
    fn validate_detects_wrong_duration() {
        let inst = instance();
        let mut s = Schedule::new(3);
        s.push(entry(0, 0.0, 0.9, 0, 2)); // true time on 2 processors is 1.2
        s.push(entry(1, 0.0, 1.0, 2, 1));
        assert!(matches!(
            s.validate(&inst).unwrap_err(),
            Error::InvalidSchedule(Violation::DurationMismatch { task: 0, .. })
        ));
    }

    #[test]
    fn validate_detects_machine_overflow() {
        let inst = instance();
        let mut s = Schedule::new(3);
        s.push(entry(0, 0.0, 1.2, 2, 2)); // processors 2..4 on a 3-machine
        s.push(entry(1, 0.0, 1.0, 0, 1));
        assert!(s.validate(&inst).is_err());
    }

    #[test]
    fn touching_tasks_do_not_conflict() {
        let a = entry(0, 0.0, 1.0, 0, 2);
        let b = entry(1, 1.0, 1.0, 0, 2);
        assert!(!a.conflicts_with(&b));
    }

    #[test]
    fn empty_schedule_has_zero_makespan_and_utilization() {
        let s = Schedule::new(4);
        assert_eq!(s.makespan(), 0.0);
        assert_eq!(s.utilization(), 0.0);
        assert!(s.is_empty());
    }
}
