//! The structured telemetry stream of a recorded engine run.
//!
//! Pins the **exact event sequence** of the shipped PR-5
//! running-reallotment scenario (deterministic: fixed trace, fixed epoch
//! grid, deterministic solver), the JSONL round trip through the vendored
//! `serde_json`, and the counter/summary surface the CLI and the online
//! gates (`tests/online_gates.rs`) build on.

use online::policy::EpochReplan;
use telemetry::{names, CollectingRecorder, NoopRecorder, SharedRecorder, TelemetryEvent};

/// Run the running-reallotment scenario fully recorded and return the
/// recorder plus the engine result.
fn recorded_scenario() -> (std::sync::Arc<CollectingRecorder>, online::OnlineResult) {
    let trace = online::running_reallotment_scenario().expect("valid scenario");
    let recorder = CollectingRecorder::shared();
    let mut policy = EpochReplan::mrt(1.0)
        .unwrap()
        .with_preempt_queued(true)
        .with_preempt_running(true)
        .with_recorder(recorder.clone() as SharedRecorder);
    let result = online::run_recorded(&trace, &mut policy, recorder.as_ref()).unwrap();
    (recorder, result)
}

#[test]
fn running_reallotment_scenario_emits_the_exact_event_sequence() {
    let (recorder, result) = recorded_scenario();
    let expected_makespan = 2.0 + 8.0 * (7.0 / 9.0);
    assert!((result.makespan - expected_makespan).abs() < 1e-6);

    let events = recorder.events();
    // Timing fields (`wall_ns`) are nondeterministic; everything else in the
    // stream is pinned exactly.  The story: tick 1 plans A alone onto the
    // whole machine; tick 2 truncates the running A and re-solves {A', B}
    // side by side (warm-started); both complete; the utilisation timeline
    // closes the stream.
    assert_eq!(events.len(), 19, "{events:#?}");
    match &events[0] {
        TelemetryEvent::SolveStart {
            time,
            solver,
            pending,
            warm_start,
        } => {
            assert_eq!(*time, 1.0);
            assert_eq!(solver, "mrt");
            assert_eq!(*pending, 1);
            assert!(!warm_start, "the first solve has no previous ω to seed");
        }
        other => panic!("event 0: {other:?}"),
    }
    match &events[1] {
        TelemetryEvent::SolveEnd {
            time,
            solver,
            scheduled,
            warm_start,
            ..
        } => {
            assert_eq!(*time, 1.0);
            assert_eq!(solver, "mrt");
            assert_eq!(*scheduled, 1);
            assert!(!warm_start);
        }
        other => panic!("event 1: {other:?}"),
    }
    match &events[2] {
        TelemetryEvent::Place {
            time,
            task,
            start,
            duration,
            processors,
            backfilled,
        } => {
            assert_eq!((*time, *task, *start), (1.0, 0, 1.0));
            assert!((duration - 4.5).abs() < 1e-9);
            assert_eq!(*processors, 2);
            assert!(!backfilled);
        }
        other => panic!("event 2: {other:?}"),
    }
    match &events[3] {
        TelemetryEvent::Truncate { time, task, at } => {
            assert_eq!((*time, *task, *at), (2.0, 0, 2.0));
        }
        other => panic!("event 3: {other:?}"),
    }
    match &events[4] {
        TelemetryEvent::SolveStart {
            time,
            pending,
            warm_start,
            ..
        } => {
            assert_eq!(*time, 2.0);
            assert_eq!(*pending, 2, "the residual A' plus the newcomer B");
            assert!(warm_start, "the second solve is seeded from epoch 1's ω");
        }
        other => panic!("event 4: {other:?}"),
    }
    assert!(matches!(
        &events[5],
        TelemetryEvent::SolveEnd {
            scheduled: 2,
            warm_start: true,
            ..
        }
    ));
    // The re-solve narrows A to one processor (duration 8·7/9) and runs B
    // beside it.
    match &events[6] {
        TelemetryEvent::Place {
            task,
            start,
            duration,
            processors,
            ..
        } => {
            assert_eq!((*task, *start, *processors), (0, 2.0, 1));
            assert!((duration - 8.0 * (7.0 / 9.0)).abs() < 1e-9);
        }
        other => panic!("event 6: {other:?}"),
    }
    match &events[7] {
        TelemetryEvent::Place {
            task,
            start,
            duration,
            processors,
            ..
        } => {
            assert_eq!((*task, *start, *processors), (1, 2.0, 1));
            assert!((duration - 6.0).abs() < 1e-9);
        }
        other => panic!("event 7: {other:?}"),
    }
    assert!(matches!(
        &events[8],
        TelemetryEvent::Complete { time, task: 1 } if (*time - 8.0).abs() < 1e-9
    ));
    assert!(matches!(
        &events[9],
        TelemetryEvent::Complete { time, task: 0 } if (*time - expected_makespan).abs() < 1e-6
    ));
    // Utilisation timeline on the epoch grid: idle before the first tick,
    // saturated while both run, half-busy in the final fractional epoch.
    for (index, event) in events.iter().enumerate().skip(10) {
        match event {
            TelemetryEvent::EpochUtilization { start, end, busy } => {
                assert!((start - (index - 10) as f64).abs() < 1e-9);
                assert!(*end <= result.makespan + 1e-9);
                let expected_busy = match index {
                    10 => 0.0,
                    18 => 0.5,
                    _ => 1.0,
                };
                assert!(
                    (busy - expected_busy).abs() < 1e-9,
                    "epoch {index}: busy {busy}"
                );
            }
            other => panic!("event {index}: {other:?}"),
        }
    }

    // The counter surface agrees with the event stream and the result.
    assert_eq!(recorder.counter(names::PLACEMENTS), 3);
    assert_eq!(recorder.counter(names::TRUNCATIONS), 1);
    assert_eq!(recorder.counter(names::REVOCATIONS), 0);
    assert_eq!(recorder.counter(names::COMPLETIONS), 2);
    assert_eq!(recorder.counter(names::REPLANS), 2);
    assert_eq!(recorder.counter(names::EVENTS), result.events as u64);
    assert_eq!(recorder.counter(names::TIMELINE_RESERVATIONS), 3);
    assert_eq!(recorder.counter(names::TIMELINE_TRUNCATIONS), 1);
    assert_eq!(recorder.invariant_violations(), 0);
    // Two epoch solves, each sampled into both span histograms.
    assert_eq!(recorder.histogram(names::SOLVE_NS).unwrap().count(), 2);
    assert_eq!(recorder.histogram(names::SOLVE_PROBES).unwrap().count(), 2);
    assert_eq!(
        recorder.histogram(names::DECISION_NS).unwrap().count(),
        result.events as u64
    );
}

#[test]
fn jsonl_stream_round_trips_through_serde_json() {
    let (recorder, _) = recorded_scenario();
    let mut buffer = Vec::new();
    recorder.write_jsonl(&mut buffer).unwrap();
    let text = String::from_utf8(buffer).unwrap();
    assert_eq!(text.lines().count(), recorder.events().len());
    let parsed: Vec<TelemetryEvent> = text
        .lines()
        .map(|line| {
            TelemetryEvent::from_json(&serde_json::from_str(line).unwrap())
                .expect("every line decodes")
        })
        .collect();
    assert_eq!(parsed, recorder.events(), "lossless JSONL round trip");
}

#[test]
fn summary_reports_the_scenario_figures() {
    let (recorder, result) = recorded_scenario();
    let summary = online::summarize(&recorder, &result, Some(1.0));
    assert_eq!(summary.placements, 3);
    assert_eq!(summary.truncations, 1);
    assert_eq!(summary.revocations, 0);
    assert_eq!(summary.invariant_violations, 0);
    assert_eq!(summary.decision.count, result.events as u64);
    assert_eq!(summary.solve.count, 2);
    assert!(summary.run_ns > 0);
    assert!(summary.tasks_per_sec > 0.0);
    assert_eq!(summary.utilization_timeline.len(), 9);
    // busy_integral = 2·1 (A wide) + 2·6.22 (A' + B side by side) minus the
    // final stagger; the time-weighted figure equals the schedule's exact
    // utilisation integral.
    assert!((summary.utilization - result.utilization()).abs() < 1e-9);
    let json = summary.to_json();
    let round = serde_json::from_str(&serde_json::to_string(&json).unwrap()).unwrap();
    assert_eq!(json, round, "summary JSON round trips");
}

#[test]
fn noop_recorded_run_matches_the_unrecorded_run() {
    let trace = online::running_reallotment_scenario().expect("valid scenario");
    let build = || {
        EpochReplan::mrt(1.0)
            .unwrap()
            .with_preempt_queued(true)
            .with_preempt_running(true)
    };
    let plain = online::run(&trace, &mut build()).unwrap();
    let recorded = online::run_recorded(&trace, &mut build(), &NoopRecorder).unwrap();
    assert_eq!(plain.makespan, recorded.makespan);
    assert_eq!(plain.events, recorded.events);
    assert_eq!(plain.replans, recorded.replans);
    assert_eq!(plain.reallotted, recorded.reallotted);
    assert_eq!(plain.busy_integral, recorded.busy_integral);
    assert_eq!(plain.schedule.entries(), recorded.schedule.entries());
}

#[test]
fn epoch_replan_threads_its_recorder_into_the_shared_stream() {
    // The path the CLI takes: a registry solver behind `EpochReplan`, whose
    // `with_recorder` hands the engine's recorder to the policy so its
    // workspace counters appear beside the engine's events.
    let trace = online::running_reallotment_scenario().expect("valid scenario");
    let recorder = CollectingRecorder::shared();
    let registry = solver::default_registry();
    let mut policy = EpochReplan::with_solver(1.0, registry.get("mrt").unwrap())
        .unwrap()
        .with_preempt_queued(true)
        .with_preempt_running(true)
        .with_recorder(recorder.clone() as SharedRecorder);
    online::run_recorded(&trace, &mut policy, recorder.as_ref()).unwrap();
    assert!(
        recorder.counter(names::WORKSPACE_PROBES) > 0,
        "the policy's workspace counters must land in the shared recorder"
    );
}
