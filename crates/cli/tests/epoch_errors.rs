//! The `online` command rejects a bad `--epoch` the same way on the flat
//! and the classed (`--machine-classes`) engine: exit code 1 and one
//! `invalid input` line naming the parameter, never a panic.

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
