//! Golden fixtures of the online engine: a grid of runs whose outputs are
//! pinned bit for bit against `tests/fixtures/online_golden.json`.
//!
//! The grid crosses
//!
//! * traces — Poisson and bursty arrivals, three seeds each, with and
//!   without departure deadlines;
//! * policies — greedy, greedy + backfill, epoch-mrt and its cumulative
//!   option chain (+ backfill, + preempt-queued, + preempt-running,
//!   + delta-plan), and batch-until-idle;
//! * fault plans — none (the plain [`online::run_recorded`] path, which must
//!   agree with [`online::run`]) and a seeded plan with processor crashes
//!   and task failures through [`online::run_with_faults`].
//!
//! Each run records the bits of its makespan, mean flow time and busy
//! integral, its event, replan, departure, preemption, re-allotment,
//! failure and abandonment counts, and hashes of its schedule, its wasted
//! segments and its deterministic telemetry (every structured event except
//! the wall-clock `solve_end`, plus every counter that is not a duration).
//! Any change to the engine that moves one bit of one run fails the test
//! with the run's name.
//!
//! The fixture is regenerated, after a deliberate behaviour change only, by
//! running this test with `ONLINE_GOLDEN_WRITE=1`.

use std::sync::Arc;

use online::policy::{PolicyKind, PolicyOptions};
use online::OnlineResult;
use serde_json::{json, Value};
use telemetry::{CollectingRecorder, TelemetryEvent};
use workload::{
    ArrivalPattern, ArrivalTrace, DeparturePolicy, FaultConfig, FaultPlan, RetryPolicy,
    TraceConfig, WorkloadConfig,
};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/online_golden.json"
);
const PROCESSORS: usize = 8;
const TASKS: usize = 48;
const SEEDS: [u64; 3] = [3, 11, 29];

/// FNV-1a over a byte stream: stable across platforms and toolchains,
/// unlike `std`'s default hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

fn bits(value: f64) -> String {
    format!("{:016x}", value.to_bits())
}

fn segments_hash(segments: &[malleable_core::ScheduledTask]) -> String {
    let mut h = Fnv::new();
    for s in segments {
        h.u64(s.task as u64);
        h.f64(s.start);
        h.f64(s.duration);
        h.u64(s.processors.first as u64);
        h.u64(s.processors.count as u64);
    }
    h.hex()
}

fn telemetry_hash(recorder: &CollectingRecorder) -> String {
    let mut h = Fnv::new();
    for event in recorder.events() {
        if matches!(event, TelemetryEvent::SolveEnd { .. }) {
            continue;
        }
        let line = serde_json::to_string(&event.to_json()).unwrap();
        h.bytes(line.as_bytes());
    }
    for (name, value) in recorder.counters() {
        if name.ends_with("_ns") {
            continue;
        }
        h.bytes(name.as_bytes());
        h.u64(value);
    }
    h.hex()
}

/// Everything a run pins, without the telemetry hash.
fn outcome(result: &OnlineResult) -> Vec<(String, Value)> {
    vec![
        ("makespan".into(), bits(result.makespan).into()),
        ("mean_flow".into(), bits(result.mean_flow_time).into()),
        ("busy_integral".into(), bits(result.busy_integral).into()),
        ("events".into(), result.events.into()),
        ("replans".into(), result.replans.into()),
        ("departed".into(), result.departed.into()),
        ("preempted".into(), result.preempted.into()),
        ("reallotted".into(), result.reallotted.into()),
        ("failures".into(), result.failures.into()),
        ("abandoned".into(), result.abandoned.clone().into()),
        (
            "schedule".into(),
            segments_hash(result.schedule.entries()).into(),
        ),
        ("wasted".into(), segments_hash(&result.wasted).into()),
    ]
}

fn traces() -> Vec<(String, ArrivalTrace)> {
    let mut traces = Vec::new();
    for (name, pattern) in [
        ("poisson", ArrivalPattern::Poisson { rate: 4.0 }),
        (
            "bursty",
            ArrivalPattern::Bursty {
                burst_size: 8,
                burst_gap: 2.0,
            },
        ),
    ] {
        for seed in SEEDS {
            let trace = ArrivalTrace::generate(&TraceConfig {
                workload: WorkloadConfig::mixed(TASKS, PROCESSORS, seed),
                pattern,
            })
            .unwrap();
            let departing = trace
                .clone()
                .with_departures(DeparturePolicy::Patience { mean: 6.0 }, seed)
                .unwrap();
            traces.push((format!("{name}-{seed}"), trace));
            traces.push((format!("{name}-{seed}-departing"), departing));
        }
    }
    traces
}

fn policies() -> Vec<(&'static str, PolicyKind, PolicyOptions)> {
    let mrt = solver::default_registry().get("mrt").unwrap();
    let epoch = PolicyKind::Epoch {
        period: 1.0,
        solver: Arc::clone(&mrt),
    };
    let backfill = PolicyOptions {
        backfill: true,
        ..PolicyOptions::default()
    };
    let queued = PolicyOptions {
        preempt_queued: true,
        ..backfill.clone()
    };
    let running = PolicyOptions {
        preempt_running: true,
        ..queued.clone()
    };
    let delta = PolicyOptions {
        delta_plan: true,
        ..running.clone()
    };
    vec![
        ("greedy", PolicyKind::Greedy, PolicyOptions::default()),
        ("greedy+backfill", PolicyKind::Greedy, backfill.clone()),
        ("epoch-mrt", epoch.clone(), PolicyOptions::default()),
        ("epoch-mrt+backfill", epoch.clone(), backfill),
        ("epoch-mrt+preempt-queued", epoch.clone(), queued),
        ("epoch-mrt+preempt-running", epoch.clone(), running),
        ("epoch-mrt+delta-plan", epoch, delta),
        (
            "batch",
            PolicyKind::Batch { solver: mrt },
            PolicyOptions::default(),
        ),
    ]
}

/// Two attempts per task, so a quarter-rate failure plan abandons some.
fn retry() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 2,
        ..RetryPolicy::default()
    }
}

fn fault_plan(trace: &ArrivalTrace, seed: u64) -> FaultPlan {
    let horizon = (trace.last_arrival() + 1.0) * 4.0;
    FaultPlan::generate(
        &FaultConfig::new(PROCESSORS, trace.len(), horizon, seed)
            .with_crashes(12.0, 2.0)
            .with_task_failures(0.25, retry().max_attempts),
    )
    .unwrap()
}

/// Run the whole grid and return one record per run, in grid order.
fn record_grid() -> Vec<Value> {
    let mut records = Vec::new();
    for (trace_index, (trace_name, trace)) in traces().iter().enumerate() {
        for (policy_name, kind, options) in policies() {
            for faulted in [false, true] {
                let recorder = CollectingRecorder::new();
                let mut policy = kind.build_with(options.clone()).unwrap();
                let result = if faulted {
                    let plan = fault_plan(trace, 100 + trace_index as u64);
                    online::run_with_faults(trace, policy.as_mut(), &plan, retry(), Some(&recorder))
                        .unwrap()
                } else {
                    let recorded = online::run_recorded(trace, policy.as_mut(), &recorder).unwrap();
                    // The unrecorded path must make the same decisions.
                    let mut policy = kind.build_with(options.clone()).unwrap();
                    let plain = online::run(trace, policy.as_mut()).unwrap();
                    assert_eq!(
                        outcome(&plain),
                        outcome(&recorded),
                        "{trace_name}/{policy_name}: run and run_recorded diverge"
                    );
                    recorded
                };
                let key = format!(
                    "{trace_name}/{policy_name}/{}",
                    if faulted { "faults" } else { "quiet" }
                );
                let mut fields = vec![("run".to_string(), Value::from(key))];
                fields.extend(outcome(&result));
                fields.push(("telemetry".into(), telemetry_hash(&recorder).into()));
                records.push(Value::Object(fields));
            }
        }
    }
    records
}

#[test]
fn engine_outputs_match_the_golden_fixture() {
    let records = record_grid();
    assert_eq!(records.len(), 12 * 8 * 2, "grid size");

    if std::env::var_os("ONLINE_GOLDEN_WRITE").is_some() {
        let doc = json!({ "runs": records });
        let text = serde_json::to_string_pretty(&doc).unwrap();
        std::fs::write(FIXTURE, text + "\n").unwrap();
        return;
    }

    let text = std::fs::read_to_string(FIXTURE).unwrap();
    let doc = serde_json::from_str(&text).unwrap();
    let expected = doc.get("runs").and_then(Value::as_array).unwrap();
    assert_eq!(expected.len(), records.len(), "fixture size");

    // The grid must have actually exercised what it pins.
    let total = |field: &str| -> u64 {
        records
            .iter()
            .filter_map(|r| r.get(field).and_then(Value::as_u64))
            .sum()
    };
    for field in ["departed", "preempted", "reallotted", "failures"] {
        assert!(total(field) > 0, "no run of the grid counts any {field}");
    }
    assert!(
        records.iter().any(|r| r
            .get("abandoned")
            .and_then(Value::as_array)
            .is_some_and(|ids| !ids.is_empty())),
        "no run of the grid abandons a task"
    );

    let mut mismatches = Vec::new();
    for (got, want) in records.iter().zip(expected) {
        if got != want {
            let run = got.get("run").and_then(Value::as_str).unwrap_or("?");
            let fields: Vec<&str> = got
                .as_object()
                .unwrap()
                .iter()
                .filter(|(name, value)| want.get(name) != Some(value))
                .map(|(name, _)| name.as_str())
                .collect();
            mismatches.push(format!("{run}: {fields:?}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} runs diverge from the fixture:\n{}",
        mismatches.len(),
        records.len(),
        mismatches.join("\n")
    );
}
