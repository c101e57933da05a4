//! The `online` command rejects bad input with exit code 1 and one
//! `invalid input` line, never a panic: a bad `--epoch` the same way on the
//! flat, the classed (`--machine-classes`) and the sharded (`--shards`)
//! engine, bad fault, retry, shard and class values, and a solver the
//! classed engine cannot plan with.

use std::process::{Command, Output};

/// `online --policy epoch-mrt` on a generated 20-task trace for 4
/// processors, plus `extra`.
fn online(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_malleable-sched"))
        .args([
            "online",
            "--policy",
            "epoch-mrt",
            "--pattern",
            "bursty",
            "--tasks",
            "20",
            "--processors",
            "4",
        ])
        .args(extra)
        .output()
        .unwrap()
}

#[test]
fn classed_and_flat_engines_reject_a_bad_epoch_alike() {
    for epoch in ["0", "-1", "nan", "inf"] {
        let flat = online(&["--epoch", epoch]);
        let message = String::from_utf8(flat.stderr).unwrap();
        assert!(
            message.starts_with("error: invalid input: parameter epoch has invalid value"),
            "--epoch {epoch}: {message}"
        );
        assert_eq!(flat.status.code(), Some(1), "--epoch {epoch}");
        for engine in [
            ["--machine-classes", "old=2x1.0,new=2x2.0"],
            ["--shards", "2"],
        ] {
            let other = online(&[&["--epoch", epoch][..], &engine].concat());
            assert_eq!(other.status.code(), Some(1), "--epoch {epoch} {engine:?}");
            assert_eq!(
                String::from_utf8(other.stderr).unwrap(),
                message,
                "--epoch {epoch} {engine:?}"
            );
        }
    }
}

#[test]
fn bad_fault_and_shard_values_are_invalid_input() {
    for extra in [
        &["--task-failure-rate", "nan"][..],
        &["--solver-fault", "0"],
        &["--task-failure-rate", "0.5", "--max-attempts", "0"],
        &["--task-failure-rate", "0.5", "--retry-backoff", "-1"],
        &["--shards", "5"],
        // Six classed processors for a 4-processor trace.
        &["--machine-classes", "old=2x1.0,new=4x2.0"],
    ] {
        let output = online(extra);
        assert_eq!(output.status.code(), Some(1), "{extra:?}");
        assert!(output.stdout.is_empty(), "{extra:?}: no report");
        let message = String::from_utf8(output.stderr).unwrap();
        assert!(
            message.starts_with("error: invalid input: "),
            "{extra:?}: {message}"
        );
    }
}

#[test]
fn classed_engine_rejects_a_flat_solver() {
    let output = Command::new(env!("CARGO_BIN_EXE_malleable-sched"))
        .args([
            "online",
            "--policy",
            "epoch-ludwig",
            "--machine-classes",
            "old=2x1.0,new=2x2.0",
            "--pattern",
            "bursty",
            "--tasks",
            "20",
            "--processors",
            "4",
            "--json",
        ])
        .output()
        .unwrap();
    assert_eq!(output.status.code(), Some(1));
    assert!(output.stdout.is_empty(), "no report for a rejected run");
    let message = String::from_utf8(output.stderr).unwrap();
    assert!(
        message.starts_with("error: invalid input: --machine-classes")
            && message.contains("ludwig"),
        "{message}"
    );
}
