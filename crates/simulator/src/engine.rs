//! Discrete-event replay of a schedule.
//!
//! The engine walks the start/finish events of a schedule in time order,
//! maintaining the set of busy processors, and produces an
//! [`ExecutionTrace`]: the event log, the per-processor busy time, the
//! machine utilisation profile and the idle area.  It is the stand-in for
//! executing the schedule on a real machine and is what the experiment
//! harness uses to account for the "staircase" idle areas that the paper's
//! surface arguments reason about (its Figure 2).

use malleable_core::{Instance, Schedule};

/// The kind of an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A task starts.
    Start,
    /// A task finishes.
    Finish,
}

/// One event of the replay.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Time of the event.
    pub time: f64,
    /// Start or finish.
    pub kind: EventKind,
    /// The task concerned.
    pub task: usize,
    /// Number of processors the task holds.
    pub processors: usize,
}

/// The result of replaying a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionTrace {
    /// All events, sorted by time (finishes before starts at equal times).
    pub events: Vec<Event>,
    /// Busy time accumulated by every processor.
    pub busy_per_processor: Vec<f64>,
    /// The makespan observed during the replay.
    pub makespan: f64,
    /// Total idle area below the makespan horizon.
    pub idle_area: f64,
    /// Peak number of simultaneously busy processors.
    pub peak_busy: usize,
    /// Machine utilisation (busy area / (m × makespan)), 0 for empty traces.
    pub utilization: f64,
}

impl ExecutionTrace {
    /// Number of processors of the simulated machine.
    pub fn processors(&self) -> usize {
        self.busy_per_processor.len()
    }
}

/// Replay a schedule on a model of the machine.
///
/// The schedule is assumed to be structurally valid (see
/// [`malleable_core::Schedule::validate`]); the engine itself only panics on
/// grossly malformed input (placements outside the machine).
pub fn simulate(instance: &Instance, schedule: &Schedule) -> ExecutionTrace {
    let m = instance.processors();
    let mut events = Vec::with_capacity(schedule.len() * 2);
    for entry in schedule.entries() {
        assert!(
            entry.processors.end() <= m,
            "placement outside the machine: task {}",
            entry.task
        );
        events.push(Event {
            time: entry.start,
            kind: EventKind::Start,
            task: entry.task,
            processors: entry.processors.count,
        });
        events.push(Event {
            time: entry.finish(),
            kind: EventKind::Finish,
            task: entry.task,
            processors: entry.processors.count,
        });
    }
    events.sort_by(|a, b| {
        a.time
            .partial_cmp(&b.time)
            .unwrap()
            .then_with(|| match (a.kind, b.kind) {
                (EventKind::Finish, EventKind::Start) => std::cmp::Ordering::Less,
                (EventKind::Start, EventKind::Finish) => std::cmp::Ordering::Greater,
                _ => std::cmp::Ordering::Equal,
            })
    });

    let mut busy_per_processor = vec![0.0f64; m];
    for entry in schedule.entries() {
        for busy in &mut busy_per_processor[entry.processors.first..entry.processors.end()] {
            *busy += entry.duration;
        }
    }

    // Sweep the events to find the peak number of busy processors.
    let mut current_busy = 0usize;
    let mut peak_busy = 0usize;
    for event in &events {
        match event.kind {
            EventKind::Start => {
                current_busy += event.processors;
                peak_busy = peak_busy.max(current_busy);
            }
            EventKind::Finish => {
                current_busy = current_busy.saturating_sub(event.processors);
            }
        }
    }

    let makespan = schedule.makespan();
    let busy_area: f64 = busy_per_processor.iter().sum();
    let idle_area = (m as f64 * makespan - busy_area).max(0.0);
    let utilization = if makespan > 0.0 {
        busy_area / (m as f64 * makespan)
    } else {
        0.0
    };

    ExecutionTrace {
        events,
        busy_per_processor,
        makespan,
        idle_area,
        peak_busy,
        utilization,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleable_core::prelude::*;

    fn instance() -> Instance {
        Instance::from_profiles(
            vec![
                SpeedupProfile::new(vec![2.0, 1.2]).unwrap(),
                SpeedupProfile::sequential(1.0).unwrap(),
                SpeedupProfile::sequential(0.4).unwrap(),
            ],
            3,
        )
        .unwrap()
    }

    fn schedule_for(inst: &Instance) -> Schedule {
        MrtSolver.solve(&SolveRequest::new(inst)).unwrap().schedule
    }

    #[test]
    fn replay_counts_events_and_busy_time() {
        let inst = instance();
        let sched = schedule_for(&inst);
        let trace = simulate(&inst, &sched);
        assert_eq!(trace.events.len(), 2 * inst.task_count());
        assert_eq!(trace.processors(), 3);
        assert!((trace.makespan - sched.makespan()).abs() < 1e-12);
        let total_busy: f64 = trace.busy_per_processor.iter().sum();
        assert!((total_busy - sched.total_work()).abs() < 1e-9);
        assert!(trace.peak_busy <= 3);
        assert!(trace.utilization > 0.0 && trace.utilization <= 1.0 + 1e-12);
    }

    #[test]
    fn events_are_time_ordered_with_finishes_first() {
        let inst = instance();
        let sched = schedule_for(&inst);
        let trace = simulate(&inst, &sched);
        for pair in trace.events.windows(2) {
            assert!(pair[0].time <= pair[1].time + 1e-12);
            if (pair[0].time - pair[1].time).abs() < 1e-12 {
                // At equal times finishes must not come after starts.
                assert!(!(pair[0].kind == EventKind::Start && pair[1].kind == EventKind::Finish));
            }
        }
    }

    #[test]
    fn idle_area_plus_busy_area_equals_machine_area() {
        let inst = instance();
        let sched = schedule_for(&inst);
        let trace = simulate(&inst, &sched);
        let machine_area = inst.processors() as f64 * trace.makespan;
        let busy: f64 = trace.busy_per_processor.iter().sum();
        assert!((trace.idle_area + busy - machine_area).abs() < 1e-9);
    }

    #[test]
    fn peak_busy_never_exceeds_machine() {
        // A deliberately tight schedule: two 2-processor tasks sequentially on
        // a 2-processor machine.
        let inst = Instance::from_profiles(
            vec![
                SpeedupProfile::linear(2.0, 2).unwrap(),
                SpeedupProfile::linear(2.0, 2).unwrap(),
            ],
            2,
        )
        .unwrap();
        let sched = schedule_for(&inst);
        let trace = simulate(&inst, &sched);
        assert!(trace.peak_busy <= 2);
    }

    #[test]
    #[should_panic(expected = "outside the machine")]
    fn grossly_invalid_schedule_panics() {
        let inst = instance();
        let mut bad = Schedule::new(3);
        bad.push(ScheduledTask {
            task: 0,
            start: 0.0,
            duration: 1.2,
            processors: ProcessorRange::new(2, 2),
        });
        simulate(&inst, &bad);
    }
}
