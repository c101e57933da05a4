//! Schedule validation: one checker over one run record.
//!
//! The paper's model (§2) is one set of invariants: every task runs once, on
//! one contiguous block of processors, for its profile time, and no processor
//! runs two tasks at the same time.  Engines only add facts about a run:
//! release and departure windows, work-conserving segments, wasted attempts,
//! outages and machine slices with speed factors.  The code that produced a
//! run states them in a [`RunRecord`] ([`RunRecord::offline`] here, behind
//! [`Schedule::validate`]), and [`check`] tests every invariant against it.

use std::fmt;

use crate::eps::{EPS, EPS_ACCUM};
use crate::instance::Instance;
use crate::schedule::{ProcessorRange, Schedule, ScheduledTask};
use crate::task::{SpeedupProfile, TaskId};

/// One crash/repair interval of one processor: the processor is offline
/// over `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outage {
    /// Processor index.
    pub processor: usize,
    /// Crash time.
    pub start: f64,
    /// Repair time (`f64::INFINITY` when the processor never comes back
    /// within the run — the engine clamps at the makespan).
    pub end: f64,
}

impl Outage {
    /// Whether `[from, to)` intersects the outage interval.
    pub fn overlaps(&self, from: f64, to: f64) -> bool {
        from < self.end - EPS && to > self.start + EPS
    }
}

/// What a run allowed one task to do.
#[derive(Debug, Clone, Copy)]
pub struct TaskWindow<'a> {
    /// The task's execution-time profile at speed 1.0.
    pub profile: &'a SpeedupProfile,
    /// Release time: the task may not start earlier.
    pub release: f64,
    /// Latest first start (`f64::INFINITY` when the task never departs).
    pub latest_start: f64,
    /// Whether the task may be missing from the run.
    pub may_be_absent: bool,
}

/// A contiguous slice of the machine whose processors share a speed factor:
/// a task on `p` of them runs for `t(p) / speed`.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Processors in the slice.
    pub count: usize,
    /// Speed factor relative to the profiles' reference speed.
    pub speed: f64,
}

/// What a run produced and what it was allowed to do.
///
/// The machine is a partition into contiguous [`Slice`]s: one slice of `m`
/// processors at speed 1.0 unless the producer says otherwise.  By default
/// every task runs as exactly one segment, nothing is wasted, no processor
/// fails and the reported makespan is the schedule's.
#[derive(Debug)]
pub struct RunRecord<'a> {
    slices: Vec<Slice>,
    tasks: Vec<TaskWindow<'a>>,
    schedule: &'a Schedule,
    wasted: &'a [ScheduledTask],
    outages: &'a [Outage],
    piecewise: bool,
    makespan: f64,
}

impl<'a> RunRecord<'a> {
    /// A record of `schedule` on `processors` uniform processors, task `j`
    /// being allowed what `tasks[j]` says.
    pub fn new(processors: usize, tasks: Vec<TaskWindow<'a>>, schedule: &'a Schedule) -> Self {
        RunRecord {
            slices: vec![Slice {
                count: processors,
                speed: 1.0,
            }],
            tasks,
            schedule,
            wasted: &[],
            outages: &[],
            piecewise: false,
            makespan: schedule.makespan(),
        }
    }

    /// The offline record: every task of `instance` is released at 0, is
    /// never absent and runs as exactly one segment.
    pub fn offline(instance: &'a Instance, schedule: &'a Schedule) -> Self {
        let tasks = instance.tasks().iter().map(|task| TaskWindow {
            profile: &task.profile,
            release: 0.0,
            latest_start: f64::INFINITY,
            may_be_absent: false,
        });
        RunRecord::new(instance.processors(), tasks.collect(), schedule)
    }

    /// Let every task run as several work-conserving segments, one
    /// allotment at a time.
    pub fn piecewise(mut self) -> Self {
        self.piecewise = true;
        self
    }

    /// Let the listed tasks be missing from the run.
    pub fn allow_absent(mut self, tasks: &[TaskId]) -> Self {
        for &task in tasks {
            if let Some(window) = self.tasks.get_mut(task) {
                window.may_be_absent = true;
            }
        }
        self
    }

    /// Add the segments whose work was lost, the processor outages and the
    /// makespan the run reported.
    pub fn with_faults(
        mut self,
        wasted: &'a [ScheduledTask],
        outages: &'a [Outage],
        makespan: f64,
    ) -> Self {
        (self.wasted, self.outages, self.makespan) = (wasted, outages, makespan);
        self
    }

    /// Partition the machine into `slices`, in processor order; the machine
    /// size becomes their total count.
    pub fn with_slices(mut self, slices: Vec<Slice>) -> Self {
        self.slices = slices;
        self
    }
}

/// One broken invariant of a run.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The schedule targets a machine of another size than the record's.
    MachineMismatch {
        /// Processors the schedule targets.
        schedule: usize,
        /// Processors of the record's machine.
        machine: usize,
    },
    /// A segment names a task the record does not know.
    UnknownTask {
        /// The out-of-range task index.
        task: TaskId,
    },
    /// A segment's block is empty or leaves the machine.
    OutOfMachine {
        /// The offending task.
        task: TaskId,
        /// Its block.
        block: ProcessorRange,
    },
    /// A segment starts at a non-finite or negative time, or lasts a
    /// non-finite or non-positive time.
    InvalidTiming {
        /// The offending task.
        task: TaskId,
        /// The recorded start.
        start: f64,
        /// The recorded duration.
        duration: f64,
    },
    /// A segment's block spans two slices.
    StraddlesSlices {
        /// The offending task.
        task: TaskId,
        /// Its block.
        block: ProcessorRange,
    },
    /// A one-segment task's duration disagrees with its profile.
    DurationMismatch {
        /// The offending task.
        task: TaskId,
        /// The profile time at the allotted count and slice speed.
        expected: f64,
        /// The recorded duration.
        actual: f64,
    },
    /// Two segments share a processor at the same time.
    Overlap {
        /// Task of the segment already holding the processor.
        first_task: TaskId,
        /// Task of the segment that starts while it is held.
        second_task: TaskId,
        /// The shared processor.
        processor: usize,
    },
    /// Two segments of one task overlap in time.
    ConcurrentSegments {
        /// The offending task.
        task: TaskId,
        /// Start of the later segment.
        at: f64,
    },
    /// A task that may not be absent does not run.
    MissingTask {
        /// The absent task.
        task: TaskId,
    },
    /// A one-segment task runs more than once.
    DuplicatedTask {
        /// The duplicated task.
        task: TaskId,
    },
    /// The executed fractions of a task's segments do not sum to one.
    WorkNotConserved {
        /// The offending task.
        task: TaskId,
        /// The fraction its segments sum to.
        executed: f64,
    },
    /// A task first starts before its release or after its latest start.
    OutsideWindow {
        /// The offending task.
        task: TaskId,
        /// Its first start.
        start: f64,
        /// Its release time.
        release: f64,
        /// Its latest allowed first start.
        latest_start: f64,
    },
    /// A segment uses a processor during one of its outages.
    DuringOutage {
        /// The offending task.
        task: TaskId,
        /// The outage.
        outage: Outage,
    },
    /// An outage names a processor outside the machine.
    OutageOutOfMachine {
        /// The out-of-range processor.
        processor: usize,
    },
    /// A slice executes more processor-time than its processors were online
    /// up to the reported makespan.
    OverCapacity {
        /// Index of the slice.
        slice: usize,
        /// Processor-time its executed segments use.
        busy: f64,
        /// Processor-time its online processors offered.
        capacity: f64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use Violation::*;
        match *self {
            MachineMismatch { schedule, machine } => write!(
                f,
                "schedule targets {schedule} processors, the machine has {machine}"
            ),
            UnknownTask { task } => write!(f, "task {task} does not exist"),
            OutOfMachine { task, block } => write!(
                f,
                "task {task} uses {} processor(s) from {}, beyond the machine",
                block.count, block.first
            ),
            InvalidTiming {
                task,
                start,
                duration,
            } => write!(
                f,
                "task {task} has an invalid segment: start {start}, duration {duration}"
            ),
            StraddlesSlices { task, block } => write!(
                f,
                "task {task} spans {} processor(s) from {} across a slice boundary",
                block.count, block.first
            ),
            DurationMismatch {
                task,
                expected,
                actual,
            } => write!(
                f,
                "task {task} records duration {actual} but its profile gives {expected}"
            ),
            Overlap {
                first_task,
                second_task,
                processor,
            } => write!(
                f,
                "tasks {first_task} and {second_task} overlap on processor {processor}"
            ),
            ConcurrentSegments { task, at } => {
                write!(f, "task {task} runs two segments concurrently (at {at})")
            }
            MissingTask { task } => write!(f, "task {task} is not scheduled"),
            DuplicatedTask { task } => write!(f, "task {task} is scheduled twice"),
            WorkNotConserved { task, executed } => write!(
                f,
                "task {task} executes fraction {executed} of its work across its segments"
            ),
            OutsideWindow {
                task,
                start,
                release,
                latest_start,
            } => write!(
                f,
                "task {task} starts at {start}, outside its window [{release}, {latest_start}]"
            ),
            DuringOutage { task, outage } => write!(
                f,
                "task {task} runs on processor {} during its outage [{}, {})",
                outage.processor, outage.start, outage.end
            ),
            OutageOutOfMachine { processor } => {
                write!(f, "outage on processor {processor} outside the machine")
            }
            OverCapacity {
                slice,
                busy,
                capacity,
            } => write!(
                f,
                "slice {slice} executes {busy} processor-time but only {capacity} was available"
            ),
        }
    }
}

/// What a task's executed segments add up to, in start order.
#[derive(Clone, Copy, Default)]
struct TaskRun {
    segments: usize,
    first_start: f64,
    last_finish: f64,
    executed: f64,
}

/// Check every invariant of `record`, returning each violation found (empty
/// when the run is valid).
///
/// * **Machine and block:** the schedule targets the record's machine, and
///   every executed or wasted segment names a known task, uses a non-empty
///   block inside the machine and inside one slice, starts at a finite time
///   `≥ −1e-12` and lasts a finite time `> 1e-12`.  A segment failing the
///   task, machine or timing check is reported and left out of the checks
///   below.
/// * **Presence and duration:** in a one-segment record a task runs at most
///   once, for `t(p) / speed` within `1e-6`.  In a piecewise record a
///   task's segments are disjoint in time and their fractions
///   `duration · speed / t(p)` sum to one within `1e-6`.  Either way a task
///   runs at least once unless it may be absent, and its first start lies
///   in `[release, latest_start]` within `1e-9`.
/// * **Overlap:** one sweep over executed and wasted segments in start
///   order, keeping the latest finish per processor, reports each segment
///   that starts before a processor of its block is free (the
///   [`ScheduledTask::conflicts_with`] rule at `1e-9`).  With every segment
///   longer than `2·10⁻⁹` it finds an overlap exactly when some pair
///   conflicts; shorter ones may also be flagged for starting within the
///   tolerance of another start.
/// * **Outages and capacity:** no segment runs on a processor during one of
///   its outages, and each slice executes at most `count × makespan` minus
///   its outage time before the makespan (`1e-6`).  Wasted segments do not
///   count there: an abandoned task's last attempt may end after the last
///   completion, which is the reported makespan.
pub fn check(record: &RunRecord) -> Vec<Violation> {
    let mut found = Vec::new();
    // Slice `s` owns processors `[ends[s - 1], ends[s])`.
    let ends: Vec<usize> = (record.slices.iter())
        .scan(0usize, |end, slice| {
            *end = end.saturating_add(slice.count);
            Some(*end)
        })
        .collect();
    let m = ends.last().copied().unwrap_or(0);
    let slice_of = |processor: usize| ends.partition_point(|&end| end <= processor);
    let (schedule, machine) = (record.schedule.processors(), m);
    if schedule != machine {
        found.push(Violation::MachineMismatch { schedule, machine });
    }

    // Block checks; the survivors, and whether they executed, go on to the
    // sweep.
    let executed = record.schedule.entries().iter().map(|e| (e, true));
    let wasted = record.wasted.iter().map(|e| (e, false));
    let mut segments = Vec::with_capacity(record.schedule.len() + record.wasted.len());
    let mut busy = vec![0.0f64; ends.len()];
    for (entry, is_executed) in executed.chain(wasted) {
        let (task, block, start, duration) =
            (entry.task, entry.processors, entry.start, entry.duration);
        let Some(window) = record.tasks.get(task) else {
            found.push(Violation::UnknownTask { task });
            continue;
        };
        if !block.fits(m) {
            found.push(Violation::OutOfMachine { task, block });
            continue;
        }
        if !(start.is_finite() && start >= -1e-12 && duration.is_finite() && duration > 1e-12) {
            found.push(Violation::InvalidTiming {
                task,
                start,
                duration,
            });
            continue;
        }
        let slice = slice_of(block.first);
        if block.end() > ends[slice] {
            found.push(Violation::StraddlesSlices { task, block });
        } else if is_executed {
            busy[slice] += duration * block.count as f64;
        }
        let expected = window.profile.time(block.count) / record.slices[slice].speed;
        if is_executed && !record.piecewise && (expected - duration).abs() > EPS_ACCUM {
            found.push(Violation::DurationMismatch {
                task,
                expected,
                actual: duration,
            });
        }
        segments.push((entry, is_executed));
    }

    // The one overlap sweep, which also walks each task's executed
    // segments in start order (a valid run never starts two of one task at
    // the same time, so ties cannot reorder a task's work sum).
    segments.sort_unstable_by(|a, b| a.0.start.total_cmp(&b.0.start));
    let mut free_at = vec![(f64::NEG_INFINITY, 0); m];
    let mut runs = vec![TaskRun::default(); record.tasks.len()];
    for &(entry, is_executed) in &segments {
        let (task, block, finish) = (entry.task, entry.processors, entry.finish());
        let held = (block.first..block.end()).find(|&p| entry.start < free_at[p].0 - EPS);
        if let Some(processor) = held {
            found.push(Violation::Overlap {
                first_task: free_at[processor].1,
                second_task: task,
                processor,
            });
        }
        for holder in &mut free_at[block.first..block.end()] {
            if finish > holder.0 {
                *holder = (finish, task);
            }
        }
        if !is_executed {
            continue;
        }
        let run = &mut runs[task];
        if run.segments == 0 {
            run.first_start = entry.start;
        } else if record.piecewise && entry.start < run.last_finish - EPS {
            let at = entry.start;
            found.push(Violation::ConcurrentSegments { task, at });
        }
        run.segments += 1;
        run.last_finish = run.last_finish.max(finish);
        let speed = record.slices[slice_of(block.first)].speed;
        run.executed += entry.duration * speed / record.tasks[task].profile.time(block.count);
    }

    for (task, (run, window)) in runs.iter().zip(&record.tasks).enumerate() {
        let start = run.first_start;
        if run.segments == 0 {
            if !window.may_be_absent {
                found.push(Violation::MissingTask { task });
            }
            continue;
        }
        if !record.piecewise && run.segments > 1 {
            found.push(Violation::DuplicatedTask { task });
        }
        if record.piecewise && (run.executed - 1.0).abs() > EPS_ACCUM {
            let executed = run.executed;
            found.push(Violation::WorkNotConserved { task, executed });
        }
        if start < window.release - EPS || start > window.latest_start + EPS {
            found.push(Violation::OutsideWindow {
                task,
                start,
                release: window.release,
                latest_start: window.latest_start,
            });
        }
    }

    // Outages, grouped by processor so each segment visits only its own.
    let mut outages: Vec<Outage> = record.outages.to_vec();
    outages.sort_by_key(|outage| outage.processor);
    for &(entry, _) in &segments {
        let from = outages.partition_point(|o| o.processor < entry.processors.first);
        let on_block = outages[from..]
            .iter()
            .take_while(|o| o.processor < entry.processors.end());
        for &outage in on_block.filter(|o| o.overlaps(entry.start, entry.finish())) {
            let task = entry.task;
            found.push(Violation::DuringOutage { task, outage });
        }
    }

    // Capacity per slice, less the outage time before the makespan.
    let mut lost = vec![0.0f64; ends.len()];
    for outage in record.outages {
        let (processor, end) = (outage.processor, outage.end.min(record.makespan));
        if processor >= m {
            found.push(Violation::OutageOutOfMachine { processor });
        } else if end > outage.start {
            lost[slice_of(processor)] += end - outage.start;
        }
    }
    for (slice, ((spec, &busy), &down)) in record.slices.iter().zip(&busy).zip(&lost).enumerate() {
        let capacity = spec.count as f64 * record.makespan - down;
        if busy > capacity + EPS_ACCUM {
            found.push(Violation::OverCapacity {
                slice,
                busy,
                capacity,
            });
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::Violation::*;
    use super::*;
    use proptest::prelude::*;

    /// `(task, start, duration, first processor, processor count)`.
    type Entry = (usize, f64, f64, usize, usize);

    const VALID: [Entry; 2] = [(0, 0.0, 1.2, 0, 2), (1, 0.0, 1.0, 2, 1)];
    const OVERLAPPING: [Entry; 2] = [(0, 0.0, 1.2, 0, 2), (1, 0.5, 1.0, 1, 1)];
    const TWICE: [Entry; 2] = [(0, 0.0, 1.2, 0, 2), (0, 2.0, 1.2, 0, 2)];

    /// Assert that some violation in `found` matches `pattern`.
    macro_rules! assert_has {
        ($found:expr, $pattern:pat $(if $guard:expr)?) => {{
            let found = $found;
            let matching = found.iter().any(|v| matches!(v, $pattern $(if $guard)?));
            assert!(matching, "{found:?}");
        }};
    }

    /// Task 0 takes 2.0 on one processor and 1.2 on two; task 1 takes 1.0.
    fn instance() -> Instance {
        let profiles = vec![
            SpeedupProfile::new(vec![2.0, 1.2]).unwrap(),
            SpeedupProfile::sequential(1.0).unwrap(),
        ];
        Instance::from_profiles(profiles, 3).unwrap()
    }

    fn schedule(m: usize, entries: &[Entry]) -> Schedule {
        let mut schedule = Schedule::new(m);
        for &(task, start, duration, first, count) in entries {
            let processors = ProcessorRange::new(first, count);
            schedule.push(ScheduledTask {
                task,
                start,
                duration,
                processors,
            });
        }
        schedule
    }

    /// The violations of `entries` as an offline run of [`instance`].
    fn offline(entries: &[Entry]) -> Vec<Violation> {
        check(&RunRecord::offline(&instance(), &schedule(3, entries)))
    }

    /// … with every task allowed to be absent.
    fn subset(entries: &[Entry]) -> Vec<Violation> {
        let (instance, schedule) = (instance(), schedule(3, entries));
        check(&RunRecord::offline(&instance, &schedule).allow_absent(&[0, 1]))
    }

    /// … and to run as several segments.
    fn piecewise(entries: &[Entry]) -> Vec<Violation> {
        let (instance, schedule) = (instance(), schedule(3, entries));
        let record = RunRecord::offline(&instance, &schedule).allow_absent(&[0, 1]);
        check(&record.piecewise())
    }

    #[test]
    fn valid_schedule_has_no_violations() {
        assert_eq!(offline(&VALID), vec![]);
    }

    #[test]
    fn missing_and_duplicate_tasks_are_reported() {
        let found = offline(&TWICE);
        assert!(found.contains(&MissingTask { task: 1 }));
        assert!(found.contains(&DuplicatedTask { task: 0 }));
    }

    #[test]
    fn overlap_and_capacity_violations_are_reported() {
        assert_has!(
            offline(&OVERLAPPING),
            Overlap {
                first_task: 0,
                second_task: 1,
                processor: 1
            }
        );
        assert_has!(
            offline(&[(0, 0.0, 1.2, 2, 2), VALID[1]]),
            OutOfMachine { task: 0, .. }
        );
        // Reporting a shorter makespan than the segments need leaves the
        // machine busier than it could have been.
        let (instance, valid) = (instance(), schedule(3, &VALID));
        let short = RunRecord::offline(&instance, &valid).with_faults(&[], &[], 0.5);
        assert_has!(check(&short), OverCapacity { slice: 0, .. });
    }

    #[test]
    fn duration_mismatch_and_deadline_are_reported() {
        assert_has!(
            offline(&[(0, 0.0, 0.7, 0, 2), VALID[1]]),
            DurationMismatch { task: 0, .. }
        );
        // One segment is held to 1e-6 in absolute terms, tighter than the
        // piecewise fraction for a task longer than one time unit.
        let drifted = [(0, 0.0, 2.0 + 1.5e-6, 0, 1), VALID[1]];
        assert_has!(offline(&drifted), DurationMismatch { task: 0, .. });
        assert_eq!(piecewise(&drifted), vec![]);
        // Released at 0.5 and departing at 2, a task may first start only
        // inside [0.5, 2].
        let profile = SpeedupProfile::sequential(1.0).unwrap();
        let window = TaskWindow {
            profile: &profile,
            release: 0.5,
            latest_start: 2.0,
            may_be_absent: true,
        };
        for (start, valid) in [(0.4, false), (0.5, true), (2.0, true), (2.1, false)] {
            let run = schedule(1, &[(0, start, 1.0, 0, 1)]);
            let found = check(&RunRecord::new(1, vec![window], &run));
            assert_eq!(found.is_empty(), valid, "start {start}: {found:?}");
            assert!(valid || matches!(found[..], [OutsideWindow { task: 0, .. }]));
        }
    }

    #[test]
    fn subset_validation_tolerates_missing_tasks_only() {
        assert_eq!(offline(&VALID[..1]), vec![MissingTask { task: 1 }]);
        assert_eq!(subset(&VALID[..1]), vec![]);
        // Every other violation still fires.
        assert_has!(subset(&OVERLAPPING), Overlap { .. });
        assert_has!(subset(&TWICE), DuplicatedTask { task: 0 });
    }

    #[test]
    fn piecewise_segments_conserving_work_are_valid() {
        // Task 0 split mid-execution: half its work on one processor (1.0
        // time unit), the other half on two (0.6 units).
        let split = [(0, 0.0, 1.0, 0, 1), (0, 1.0, 0.6, 0, 2), VALID[1]];
        assert_eq!(piecewise(&split), vec![]);
        // A one-segment record rejects it: two durations off the profile
        // and a duplicate.
        assert_eq!(subset(&split).len(), 3);
    }

    #[test]
    fn piecewise_validator_accepts_single_allotment_schedules() {
        assert_eq!(piecewise(&VALID), vec![]);
        assert_eq!(piecewise(&VALID[1..]), vec![]);
        assert_has!(
            piecewise(&[(0, 0.0, 0.9, 0, 2)]),
            WorkNotConserved { task: 0, .. }
        );
    }

    #[test]
    fn piecewise_violations_are_reported() {
        assert_has!(piecewise(&TWICE), WorkNotConserved { task: 0, .. });
        // Overlapping in time on disjoint processors: the per-task
        // chronology check, not the processor sweep, catches it.
        let concurrent = [(0, 0.0, 1.0, 0, 1), (0, 0.5, 0.6, 1, 2)];
        assert_has!(piecewise(&concurrent), ConcurrentSegments { task: 0, at } if *at == 0.5);
        assert_has!(piecewise(&OVERLAPPING), Overlap { .. });
        // Degenerate timings are reported, never silently accepted: a NaN
        // would compare false against every threshold downstream.
        for (start, duration) in [
            (0.0, f64::NAN),
            (0.0, 0.0),
            (0.0, f64::INFINITY),
            (-1.0, 1.0),
        ] {
            let found = piecewise(&[(0, start, duration, 0, 2)]);
            assert!(
                matches!(found[..], [InvalidTiming { task: 0, .. }]),
                "{found:?}"
            );
        }
    }

    #[test]
    fn unknown_task_is_reported() {
        let found = offline(&[VALID[0], VALID[1], (7, 0.0, 1.0, 2, 1)]);
        assert_eq!(found, vec![UnknownTask { task: 7 }]);
    }

    #[test]
    fn wasted_segments_and_outages_are_checked() {
        let (instance, valid) = (instance(), schedule(3, &VALID));
        let record = || RunRecord::offline(&instance, &valid);
        // A lost attempt really occupied its processors.
        let wasted = schedule(3, &[(0, 0.5, 0.2, 1, 2)]);
        assert_has!(
            check(&record().with_faults(wasted.entries(), &[], 1.2)),
            Overlap { processor: 1, .. }
        );
        // Nothing runs on a processor while it is down.
        let down = Outage {
            processor: 2,
            start: 0.5,
            end: 3.0,
        };
        let found = check(&record().with_faults(&[], &[down], 1.2));
        assert_has!(found, DuringOutage { task: 1, outage } if *outage == down);
        let up = Outage { start: 1.0, ..down };
        assert_eq!(check(&record().with_faults(&[], &[up], 1.2)), vec![]);
        let outside = Outage {
            processor: 3,
            ..down
        };
        let found = check(&record().with_faults(&[], &[outside], 1.2));
        assert_eq!(found, vec![OutageOutOfMachine { processor: 3 }]);
    }

    #[test]
    fn violations_render_messages() {
        let block = ProcessorRange::new(usize::MAX, 1);
        let cases = [
            (MissingTask { task: 3 }, "task 3 is not scheduled"),
            (OutOfMachine { task: 0, block }, "beyond the machine"),
            (
                ConcurrentSegments { task: 2, at: 0.5 },
                "concurrently (at 0.5)",
            ),
        ];
        for (violation, needle) in cases {
            assert!(violation.to_string().contains(needle), "{violation}");
        }
    }

    /// Offsets that plant near-ties at the `1e-9` tolerance of the overlap
    /// rule.
    const TIES: [f64; 5] = [-2e-9, -1e-9, 0.0, 1e-9, 2e-9];
    /// The shortest segments the sweep and the pairwise rule agree on.
    const FLOOR: f64 = 2e-9;

    type Raw = ((usize, usize), (usize, usize), (usize, usize));

    /// One task per segment on `m` processors; starts and lengths sit on a
    /// quarter grid up to a near-tie, and length 0 picks from `shortest`.
    fn grid(m: usize, raw: &[Raw], shortest: [f64; 5]) -> Schedule {
        let entries: Vec<Entry> = (raw.iter().enumerate())
            .map(
                |(task, &((start, tie), (length, length_tie), (first, count)))| {
                    let duration = match length {
                        0 => shortest[length_tie],
                        _ => length as f64 * 0.25 + TIES[length_tie],
                    };
                    let (start, first) = ((start as f64 * 0.25 + TIES[tie]).max(0.0), first % m);
                    (task, start, duration, first, 1 + (count - 1) % (m - first))
                },
            )
            .collect();
        schedule(m, &entries)
    }

    /// The reference: the pairwise `conflicts_with` rule over all pairs.
    fn all_pairs_overlap(schedule: &Schedule) -> bool {
        let entries = schedule.entries();
        (entries.iter().enumerate())
            .any(|(i, a)| entries[i + 1..].iter().any(|b| a.conflicts_with(b)))
    }

    fn sweep_overlap(schedule: &Schedule) -> bool {
        let one = vec![SpeedupProfile::sequential(1.0).unwrap(); schedule.len()];
        let instance = Instance::from_profiles(one, schedule.processors()).unwrap();
        let found = check(&RunRecord::offline(&instance, schedule).piecewise());
        found.iter().any(|v| matches!(v, Overlap { .. }))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Above the duration floor the sweep flags an overlap exactly when
        /// the all-pairs reference finds a conflicting pair.  Below it the
        /// sweep may also flag a near-simultaneous start the pairwise rule
        /// lets pass, but never misses a conflicting pair.
        #[test]
        fn overlap_sweep_matches_the_all_pairs_reference(
            m in 1usize..5,
            raw in prop::collection::vec(
                ((0usize..12, 0usize..5), (0usize..4, 0usize..5), (0usize..4, 1usize..5)),
                1..20,
            ),
        ) {
            let long = grid(m, &raw, [FLOOR, FLOOR, 3e-9, 1e-8, 0.1]);
            prop_assert_eq!(sweep_overlap(&long), all_pairs_overlap(&long));
            let short = grid(m, &raw, [2e-12, 5e-10, 1e-9, 1.5e-9, FLOOR]);
            prop_assert!(sweep_overlap(&short) || !all_pairs_overlap(&short));
        }
    }
}
