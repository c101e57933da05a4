//! Every workload at `--scale smoke` through the real binary, the
//! correctness checks against corrupted outputs, and the agreement of
//! `BENCHMARK.json` with the metric tables.

use std::collections::BTreeSet;
use std::process::{Command, Output};

use benchmark::metrics::{END_TO_END, PER_LAYER};
use benchmark::workloads::{check_offline, check_online, Check, VerifyingSink, WORKLOADS};
use malleable_core::prelude::*;
use online::policy::EpochReplan;
use online::{PlacementSink, StreamedPlacement};
use serde_json::Value;
use workload::{
    ArrivalPattern, ArrivalStream, ArrivalTrace, TraceConfig, WorkloadConfig, WorkloadGenerator,
};

fn benchmark(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary runs")
}

fn last_line(output: &Output) -> Value {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().expect("some output");
    serde_json::from_str(line).expect("the last line is one JSON object")
}

fn keys(value: &Value) -> Vec<String> {
    value
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

#[test]
fn every_workload_prints_its_metrics_and_checks_clean() {
    for workload in WORKLOADS {
        let output = benchmark(&[
            "--workload",
            workload,
            "--scale",
            "smoke",
            "--seconds",
            "0.2",
            "--seed",
            "3",
        ]);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{workload}: {stderr}");
        let stdout = String::from_utf8_lossy(&output.stdout);
        for metric in END_TO_END
            .iter()
            .filter(|m| m.workloads.contains(&workload))
        {
            let line = stdout
                .lines()
                .find(|l| l.starts_with(&format!("{workload} {} ", metric.name)))
                .unwrap_or_else(|| panic!("{workload}: no `{}` line in\n{stdout}", metric.name));
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(fields[3], metric.unit, "{line}");
            let value: f64 = fields[2].parse().unwrap();
            if metric.name == "failed_share" {
                assert_eq!(value, 0.0, "{workload}");
            } else if metric.headline {
                assert!(value > 0.0, "{line}");
            }
        }
        let result = last_line(&output);
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Value::as_u64).unwrap() >= 1);
        let headline: Vec<String> = END_TO_END
            .iter()
            .filter(|m| m.headline)
            .map(|m| m.name.to_string())
            .collect();
        assert_eq!(keys(result.get("metrics").unwrap()), headline);
    }
}

#[test]
fn the_traced_run_reports_every_layer_metric() {
    let dir = std::env::temp_dir().join(format!("benchmark-spans-{}", std::process::id()));
    let output = benchmark(&[
        "--workload",
        "offline-mrt",
        "--scale",
        "smoke",
        "--seconds",
        "0.2",
        "--trace",
        "1",
        "--spans",
        dir.to_str().unwrap(),
    ]);
    assert!(output.status.success());
    let metrics = last_line(&output).get("metrics").cloned().unwrap();
    let names: Vec<String> = PER_LAYER.iter().map(|m| m.0.to_string()).collect();
    assert_eq!(keys(&metrics), names);
    let spans = std::fs::read_to_string(dir.join("offline-mrt.jsonl")).unwrap();
    assert!(spans.lines().any(|l| l.contains("\"name\":\"dual.probe\"")));
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn bad_invocations_fail_without_a_result() {
    for args in [
        &["--workload", "nope", "--scale", "smoke"][..],
        &[
            "--workload",
            "offline-mrt",
            "--trace",
            "2",
            "--scale",
            "smoke",
        ],
        // A debug build refuses to measure at full scale.
        &["--workload", "offline-mrt"],
    ] {
        let output = benchmark(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn corrupted_offline_schedules_are_rejected() {
    let instance = WorkloadGenerator::new(WorkloadConfig::mixed(30, 8, 1))
        .generate()
        .unwrap();
    let registry = solver::default_registry();
    let mrt = registry.get("mrt").unwrap();
    let guarantee = mrt.capabilities().guarantee.unwrap();
    let outcome = mrt.solve(&SolveRequest::new(&instance)).unwrap();
    assert_eq!(check_offline(&instance, &outcome, guarantee), Ok(()));

    // Two tasks made to overlap on the same processors.
    let mut overlapping = outcome.clone();
    let mut schedule = Schedule::new(instance.processors());
    let entries = outcome.schedule.entries();
    for (i, entry) in entries.iter().enumerate() {
        let mut entry = *entry;
        if i == 1 {
            entry.start = entries[0].start;
            entry.processors = entries[0].processors;
            entry.duration = instance.time(entry.task, entry.processors.count);
        }
        schedule.push(entry);
    }
    overlapping.schedule = schedule;
    assert!(check_offline(&instance, &overlapping, guarantee).is_err());

    // A lower bound the makespan exceeds by more than the guarantee.
    let mut over = outcome.clone();
    over.lower_bound = outcome.makespan() / 2.0;
    assert!(check_offline(&instance, &over, guarantee).is_err());
}

#[test]
fn corrupted_online_schedules_are_rejected() {
    let trace = ArrivalTrace::generate(&TraceConfig {
        workload: WorkloadConfig::mixed(80, 8, 2),
        pattern: ArrivalPattern::Poisson { rate: 4.0 },
    })
    .unwrap();
    let mut policy = EpochReplan::mrt(1.0).unwrap();
    let mut result = online::run(&trace, &mut policy).unwrap();
    let mut found = Check::default();
    check_online(&trace, &result, &mut found);
    assert_eq!((found.failed, found.violations), (0, 0));

    // Start one task before its arrival.
    let mut schedule = Schedule::new(trace.processors());
    for entry in result.schedule.entries() {
        let mut entry = *entry;
        if entry.task == trace.len() - 1 {
            entry.start = 0.0;
        }
        schedule.push(entry);
    }
    result.schedule = schedule;
    check_online(&trace, &result, &mut found);
    assert!(found.failed > 0 && found.violations > 0);
}

#[test]
fn corrupted_streamed_placements_are_rejected() {
    let config = TraceConfig {
        workload: WorkloadConfig::mixed(4, 4, 1),
        pattern: ArrivalPattern::Bursty {
            burst_size: 4,
            burst_gap: 1.0,
        },
    };
    let stream = ArrivalStream::new(&config).unwrap();
    let arrivals: Vec<_> = stream.clone().map(Result::unwrap).collect();
    let place = |sink: &mut VerifyingSink, task: usize, start: f64, count: usize| {
        sink.place(&StreamedPlacement {
            task,
            arrived_at: arrivals[task].at,
            start,
            duration: arrivals[task].task.time(count),
            first: 0,
            count,
            shard: 0,
        });
    };
    // A clean sequence on one processor.
    let mut sink = VerifyingSink::new(stream.clone());
    let mut at = 0.0;
    for (task, arrival) in arrivals.iter().enumerate() {
        place(&mut sink, task, at, 1);
        at += arrival.task.time(1);
    }
    sink.finish();
    assert_eq!(sink.found.failed, 0);
    // The second task overlaps the first, and the last is never placed.
    let mut sink = VerifyingSink::new(stream);
    place(&mut sink, 0, 0.0, 1);
    place(&mut sink, 1, 0.0, 1);
    place(&mut sink, 2, 100.0, 1);
    sink.finish();
    assert_eq!(sink.found.failed, 2);
}

#[test]
fn benchmark_json_agrees_with_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let text = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).unwrap().to_string();

    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);

    let e2e: BTreeSet<(String, String, String, u64)> = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(Value::as_f64).unwrap();
            (
                text(m, "name"),
                text(m, "unit"),
                text(m, "better"),
                bound.to_bits(),
            )
        })
        .collect();
    let expected: BTreeSet<(String, String, String, u64)> = END_TO_END
        .iter()
        .filter(|m| m.headline)
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.name().to_string(),
                m.bound.to_bits(),
            )
        })
        .collect();
    assert_eq!(e2e, expected);

    let layers: Vec<(String, String, String)> = doc
        .get("per_layer")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let expected: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|&(name, unit, better)| (name.into(), unit.into(), better.name().into()))
        .collect();
    assert_eq!(layers, expected);
}
