//! `schedule --search` reaches only the solvers that run the dual search
//! (`mrt`, and `hetero-lp`/`hetero-greedy`, which hand the mode to `mrt`):
//! with any other solver it is refused as invalid input, exit code 1 and
//! nothing on stdout, instead of being ignored.

use std::process::{Command, Output};

fn malleable_sched(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_malleable-sched"))
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn search_needs_a_solver_that_runs_the_dual_search() {
    let dir = std::env::temp_dir().join("mrt-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let instance = dir.join(format!("{}-schedule-flags.json", std::process::id()));
    let instance = instance.to_str().unwrap();
    let generated = malleable_sched(&[
        "generate",
        "--tasks",
        "10",
        "--processors",
        "8",
        "--output",
        instance,
    ]);
    assert!(generated.status.success());

    for solver in ["gang", "list", "ludwig", "twy-list", "lpt"] {
        for search in ["bisect", "exact"] {
            let argv = ["schedule", instance, "--solver", solver, "--search", search];
            let output = malleable_sched(&argv);
            assert_eq!(output.status.code(), Some(1), "{argv:?}");
            assert!(output.stdout.is_empty(), "{argv:?}: no report");
            let message = String::from_utf8(output.stderr).unwrap();
            assert!(
                message.starts_with("error: invalid input: --search has no effect on")
                    && message.contains(solver),
                "{argv:?}: {message}"
            );
        }
        // Without --search the solver runs as before.
        assert!(malleable_sched(&["schedule", instance, "--solver", solver])
            .status
            .success());
    }

    for argv in [
        &["--solver", "mrt", "--search", "bisect"][..],
        &[
            "--solver",
            "hetero-lp",
            "--search",
            "exact",
            "--machine-classes",
            "old=4x1.0,new=4x2.0",
        ],
        &["--solver", "hetero-greedy", "--search", "bisect"],
    ] {
        let output = malleable_sched(&[&["schedule", instance][..], argv].concat());
        assert!(output.status.success(), "{argv:?}");
        let report = String::from_utf8(output.stdout).unwrap();
        assert!(report.contains("ratio"), "{argv:?}: {report}");
    }
    std::fs::remove_file(instance).ok();
}
