//! The `online` command rejects bad input with exit code 1 and one
//! `invalid input` line, never a panic: a bad `--epoch` the same way on the
//! flat and the classed (`--machine-classes`) engine, and a solver the
//! classed engine cannot plan with.

use std::process::{Command, Output};

fn online(epoch: &str, classes: Option<&str>) -> Output {
    let mut command = Command::new(env!("CARGO_BIN_EXE_malleable-sched"));
    command.args([
        "online",
        "--policy",
        "epoch-mrt",
        "--pattern",
        "bursty",
        "--tasks",
        "20",
        "--processors",
        "4",
        "--epoch",
        epoch,
    ]);
    if let Some(spec) = classes {
        command.args(["--machine-classes", spec]);
    }
    command.output().unwrap()
}

#[test]
fn classed_and_flat_engines_reject_a_bad_epoch_alike() {
    for epoch in ["0", "-1", "nan", "inf"] {
        let flat = online(epoch, None);
        let classed = online(epoch, Some("old=2x1.0,new=2x2.0"));
        let message = String::from_utf8(flat.stderr).unwrap();
        assert!(
            message.starts_with("error: invalid input: parameter epoch has invalid value"),
            "--epoch {epoch}: {message}"
        );
        assert_eq!(flat.status.code(), Some(1), "--epoch {epoch}");
        assert_eq!(classed.status.code(), Some(1), "--epoch {epoch}");
        assert_eq!(
            String::from_utf8(classed.stderr).unwrap(),
            message,
            "--epoch {epoch}"
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
