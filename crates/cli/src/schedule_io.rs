//! JSON serialisation of schedules (the instance side lives in `workload::io`).

use malleable_core::{Instance, ProcessorRange, Schedule, ScheduledTask};
use serde_json::{json, Value};

/// Serialise a schedule to a pretty-printed JSON document.
///
/// The format is deliberately simple and self-describing:
///
/// ```json
/// {
///   "processors": 8,
///   "makespan": 2.5,
///   "tasks": [
///     { "task": 0, "start": 0.0, "duration": 1.0, "first_processor": 0, "processors": 4 }
///   ]
/// }
/// ```
pub fn schedule_to_json(schedule: &Schedule) -> String {
    let tasks: Vec<Value> = schedule
        .entries()
        .iter()
        .map(|e| {
            json!({
                "task": e.task,
                "start": e.start,
                "duration": e.duration,
                "first_processor": e.processors.first,
                "processors": e.processors.count,
            })
        })
        .collect();
    let doc = json!({
        "processors": schedule.processors(),
        "makespan": schedule.makespan(),
        "tasks": tasks,
    });
    serde_json::to_string_pretty(&doc).expect("schedule serialisation cannot fail")
}

/// Parse a schedule from its JSON document.
///
/// Durations are re-derived from the instance profiles when they are within a
/// small tolerance of the recorded value, so that round-tripped schedules
/// still validate exactly against the instance.
pub fn schedule_from_json(json_text: &str, instance: &Instance) -> Result<Schedule, String> {
    let doc: Value = serde_json::from_str(json_text).map_err(|e| e.to_string())?;
    let processors = doc
        .get("processors")
        .and_then(Value::as_u64)
        .ok_or("missing `processors` field")? as usize;
    let mut schedule = Schedule::new(processors);
    let tasks = doc
        .get("tasks")
        .and_then(Value::as_array)
        .ok_or("missing `tasks` array")?;
    for entry in tasks {
        let task = entry
            .get("task")
            .and_then(Value::as_u64)
            .ok_or("task entry without `task` id")? as usize;
        let start = entry
            .get("start")
            .and_then(Value::as_f64)
            .ok_or("task entry without `start`")?;
        let count = entry
            .get("processors")
            .and_then(Value::as_u64)
            .ok_or("task entry without `processors`")? as usize;
        let first = entry
            .get("first_processor")
            .and_then(Value::as_u64)
            .ok_or("task entry without `first_processor`")? as usize;
        let recorded = entry
            .get("duration")
            .and_then(Value::as_f64)
            .ok_or("task entry without `duration`")?;
        if task >= instance.task_count() {
            return Err(format!("task {task} does not exist in the instance"));
        }
        if count == 0 {
            return Err(format!("task {task} is allotted zero processors"));
        }
        let block = ProcessorRange::new(first, count);
        if !block.fits(processors) {
            return Err(format!(
                "task {task} uses {count} processor(s) from {first}, beyond the declared \
                 {processors}-processor machine"
            ));
        }
        let duration = instance.time(task, count);
        if (duration - recorded).abs() > 1e-6 * duration.max(1.0) {
            return Err(format!(
                "task {task}: recorded duration {recorded} disagrees with the profile ({duration})"
            ));
        }
        schedule.push(ScheduledTask {
            task,
            start,
            duration,
            processors: block,
        });
    }
    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleable_core::prelude::*;

    fn instance() -> Instance {
        Instance::from_profiles(
            vec![
                SpeedupProfile::linear(4.0, 4).unwrap(),
                SpeedupProfile::sequential(1.0).unwrap(),
            ],
            4,
        )
        .unwrap()
    }

    #[test]
    fn round_trip_preserves_the_schedule() {
        let inst = instance();
        let result = MrtSolver.solve(&SolveRequest::new(&inst)).unwrap();
        let json = schedule_to_json(&result.schedule);
        let parsed = schedule_from_json(&json, &inst).unwrap();
        assert_eq!(parsed.len(), result.schedule.len());
        assert!((parsed.makespan() - result.schedule.makespan()).abs() < 1e-9);
        assert!(parsed.validate(&inst).is_ok());
    }

    #[test]
    fn malformed_documents_are_rejected() {
        let inst = instance();
        assert!(schedule_from_json("{", &inst).is_err());
        assert!(schedule_from_json("{}", &inst).is_err());
        let missing_fields = r#"{ "processors": 4, "tasks": [ { "task": 0 } ] }"#;
        assert!(schedule_from_json(missing_fields, &inst).is_err());
    }

    #[test]
    fn inconsistent_durations_are_rejected() {
        let inst = instance();
        let bad = r#"{
            "processors": 4,
            "tasks": [
                { "task": 0, "start": 0.0, "duration": 0.5, "first_processor": 0, "processors": 4 },
                { "task": 1, "start": 0.0, "duration": 1.0, "first_processor": 0, "processors": 1 }
            ]
        }"#;
        let err = schedule_from_json(bad, &inst).unwrap_err();
        assert!(err.contains("disagrees"));
    }

    #[test]
    fn unknown_tasks_are_rejected() {
        let inst = instance();
        let bad = r#"{
            "processors": 4,
            "tasks": [
                { "task": 9, "start": 0.0, "duration": 1.0, "first_processor": 0, "processors": 1 }
            ]
        }"#;
        assert!(schedule_from_json(bad, &inst).is_err());
    }
}
