//! Every `online` flag is honoured or refused.  Each flag runs on each
//! engine and event-driven policy: where the flag table says the run
//! honours it, the run validates; where it does not, the command exits 1
//! with one `invalid input` line naming the flag and prints nothing on
//! stdout.  Each flag also runs without what it needs (`trace` refuses its
//! pattern flags the same way), and each `--json` report keeps its
//! engine's key set.

use std::path::PathBuf;
use std::process::{Command, Output};

/// The engines and event-driven policies, as the flags that select them.
const ENGINES: [&[&str]; 5] = [
    &["--policy", "greedy"],
    &["--policy", "epoch-mrt"],
    &["--policy", "batch-idle"],
    &["--policy", "epoch-mrt", "--shards", "2"],
    &[
        "--policy",
        "epoch-mrt",
        "--machine-classes",
        "a=2x1.0,b=2x2.0",
    ],
];

/// The generated trace every run but the `--trace` ones uses.
const GENERATED: [&str; 6] = ["--tasks", "12", "--processors", "4", "--seed", "2"];

/// A flag with a value, what else a run that honours it needs, and one
/// character per entry of [`ENGINES`]: `+` honours the flag, `-` refuses
/// it, `.` is the engine the flag itself selects.
type Row = (
    &'static [&'static str],
    &'static [&'static str],
    &'static str,
);

const FLAGS: &[Row] = &[
    (&["--solver", "mrt"], &[], "-++++"),
    (&["--search", "bisect"], &[], "-+-++"),
    (&["--epoch", "2"], &[], "-+-++"),
    (&["--shards", "1"], &[], "+++.-"),
    (&["--shards", "2"], &[], "-+-.-"),
    (&["--machine-classes", "a=2x1.0,b=2x2.0"], &[], "-+--."),
    (&["--backfill"], &[], "++++-"),
    (&["--preempt-queued"], &[], "-+---"),
    (&["--preempt-running"], &[], "-+---"),
    (&["--delta-plan"], &["--preempt-queued"], "-+---"),
    (&["--family", "wide"], &[], "+++++"),
    (&["--pattern", "bursty"], &[], "+++++"),
    (&["--rate", "5"], &[], "+++++"),
    (&["--burst-size", "5"], &["--pattern", "bursty"], "+++++"),
    (&["--burst-gap", "2"], &["--pattern", "bursty"], "+++++"),
    (&["--tasks", "10"], &[], "+++++"),
    (&["--processors", "4"], &[], "+++++"),
    (&["--seed", "3"], &[], "+++++"),
    (&["--departure-patience", "3"], &[], "+++--"),
    (&["--mtbf", "6"], &[], "+++--"),
    (&["--mttr", "1.5"], &["--mtbf", "6"], "+++--"),
    (&["--task-failure-rate", "0.1"], &[], "+++--"),
    (
        &["--max-attempts", "3"],
        &["--task-failure-rate", "0.1"],
        "+++--",
    ),
    (
        &["--retry-backoff", "0.25"],
        &["--task-failure-rate", "0.1"],
        "+++--",
    ),
    (&["--fault-seed", "5"], &["--mtbf", "6"], "+++--"),
    (&["--solver-fault", "1"], &[], "-++--"),
    (&["--json"], &[], "+++++"),
    (&["--no-validate"], &[], "+++++"),
];

fn online(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_malleable-sched"))
        .arg("online")
        .args(args)
        .output()
        .unwrap()
}

/// A fresh path in the temporary directory, unique to this test process.
fn temp(name: &str) -> String {
    let dir = std::env::temp_dir().join("mrt-cli-online-flags");
    std::fs::create_dir_all(&dir).unwrap();
    let path: PathBuf = dir.join(format!("{}-{name}", std::process::id()));
    path.to_string_lossy().into_owned()
}

/// A 12-task trace file on 4 processors.
fn trace_file(name: &str) -> String {
    let path = temp(name);
    let output = Command::new(env!("CARGO_BIN_EXE_malleable-sched"))
        .args(["trace", "--tasks", "12", "--processors", "4", "--seed", "2"])
        .args(["--output", &path])
        .output()
        .unwrap();
    assert!(output.status.success(), "{output:?}");
    path
}

/// The run exited 1 with one `invalid input` line naming `flag`, and
/// printed nothing on stdout.
fn assert_refused(argv: &[&str], flag: &str) {
    let output = online(argv);
    let message = String::from_utf8(output.stderr).unwrap();
    assert_eq!(output.status.code(), Some(1), "{argv:?}: {message}");
    assert!(output.stdout.is_empty(), "{argv:?}: printed a report");
    assert!(
        message.starts_with("error: invalid input: ")
            && message.contains(flag)
            && message.lines().count() == 1,
        "{argv:?}: {message}"
    );
}

/// The run succeeded and validated its schedule (or skipped it when
/// asked to).
fn assert_honoured(argv: &[&str]) {
    let output = online(argv);
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        output.status.success(),
        "{argv:?}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let expected = if argv.contains(&"--json") {
        "\"validated\": true"
    } else if argv.contains(&"--no-validate") {
        "validation       : skipped"
    } else {
        "validation       : OK"
    };
    assert!(stdout.contains(expected), "{argv:?}: {stdout}");
}

/// Run every flag of [`FLAGS`], plus `--trace`, `--telemetry` and
/// `--output`, on `ENGINES[engine]`.
fn check_engine(engine: usize) {
    let selector = ENGINES[engine];
    for &(flag, needs, honoured_by) in FLAGS {
        let run = [selector, &GENERATED[..], flag].concat();
        match honoured_by.as_bytes()[engine] {
            b'+' => assert_honoured(&[&run[..], needs].concat()),
            b'-' => assert_refused(&run, flag[0]),
            _ => {}
        }
    }
    // Every engine reads trace files, and writes the telemetry stream and
    // the schedule.
    let trace = trace_file(&format!("trace-{engine}.json"));
    assert_honoured(&[selector, &["--trace", &trace]].concat());
    for flag in ["--telemetry", "--output"] {
        let path = temp(&format!("{engine}{flag}"));
        assert_honoured(&[selector, &GENERATED[..], &[flag, &path]].concat());
        assert!(std::fs::metadata(&path).is_ok(), "{flag} wrote nothing");
        std::fs::remove_file(path).ok();
    }
    std::fs::remove_file(trace).ok();
}

#[test]
fn the_greedy_policy_honours_or_refuses_every_flag() {
    check_engine(0);
}

#[test]
fn the_epoch_policy_honours_or_refuses_every_flag() {
    check_engine(1);
}

#[test]
fn the_batch_policy_honours_or_refuses_every_flag() {
    check_engine(2);
}

#[test]
fn the_sharded_engine_honours_or_refuses_every_flag() {
    check_engine(3);
}

#[test]
fn the_classed_engine_honours_or_refuses_every_flag() {
    check_engine(4);
}

#[test]
fn a_flag_without_what_it_needs_is_refused() {
    let trace = trace_file("needs.json");
    let epoch = ["--policy", "epoch-mrt"];
    for (extra, flag) in [
        (&["--mttr", "1.5"][..], "--mttr"),
        (&["--max-attempts", "3"], "--max-attempts"),
        (
            &["--task-failure-rate", "0", "--retry-backoff", "1"],
            "--retry-backoff",
        ),
        (
            &["--solver-fault", "1", "--fault-seed", "3"],
            "--fault-seed",
        ),
        (&["--delta-plan"], "--delta-plan"),
        (&["--pattern", "bursty", "--rate", "5"], "--rate"),
        (&["--burst-size", "5"], "--burst-size"),
        (&["--burst-gap", "2"], "--burst-gap"),
    ] {
        assert_refused(&[&epoch, &GENERATED[..], extra].concat(), flag);
    }
    // A trace file fixes everything the generation flags would choose; the
    // seed still seeds a fault plan that has no seed of its own.
    for (extra, flag) in [
        (&["--family", "wide"][..], "--family"),
        (&["--pattern", "bursty"], "--pattern"),
        (&["--rate", "5"], "--rate"),
        (&["--tasks", "10"], "--tasks"),
        (&["--processors", "4"], "--processors"),
        (&["--departure-patience", "3"], "--departure-patience"),
        (&["--seed", "3"], "--seed"),
        (
            &["--seed", "3", "--mtbf", "6", "--fault-seed", "4"],
            "--seed",
        ),
    ] {
        assert_refused(&[&epoch, &["--trace", &trace][..], extra].concat(), flag);
    }
    assert_honoured(
        &[
            &epoch,
            &["--trace", &trace, "--seed", "3", "--mtbf", "6"][..],
        ]
        .concat(),
    );
    std::fs::remove_file(trace).ok();
}

#[test]
fn formerly_ignored_flags_are_refused() {
    // Each of these ran at the parent of the flag table and ignored the
    // named flag.
    let trace = trace_file("ignored.json");
    let generated = ["--tasks", "20", "--processors", "8", "--seed", "2"];
    for (argv, flag) in [
        (
            &["--policy", "greedy", "--preempt-running"][..],
            "--preempt-running",
        ),
        (&["--policy", "greedy", "--solver", "ludwig"], "--solver"),
        (&["--policy", "greedy", "--search", "bisect"], "--search"),
        (&["--policy", "greedy", "--epoch", "5"], "--epoch"),
        (
            &["--policy", "greedy", "--solver-fault", "1"],
            "--solver-fault",
        ),
        (
            &["--policy", "batch-idle", "--search", "bisect"],
            "--search",
        ),
        (
            &["--policy", "batch-idle", "--preempt-running"],
            "--preempt-running",
        ),
        (&["--policy", "batch-idle", "--epoch", "0"], "--epoch"),
        // `--search` with a solver that runs no dual search.
        (
            &["--policy", "epoch-gang", "--search", "bisect"],
            "--search",
        ),
        (
            &["--policy", "epoch", "--solver", "list", "--search", "exact"],
            "--search",
        ),
        (
            &[
                "--policy",
                "epoch-mrt",
                "--shards",
                "2",
                "--solver",
                "gang",
                "--search",
                "exact",
            ],
            "--search",
        ),
        (&["--policy", "epoch-mrt", "--mttr", "9"], "--mttr"),
        (
            &["--policy", "epoch-mrt", "--max-attempts", "0"],
            "--max-attempts",
        ),
        (
            &["--policy", "epoch-mrt", "--fault-seed", "3"],
            "--fault-seed",
        ),
        (
            &[
                "--policy",
                "epoch-mrt",
                "--pattern",
                "bursty",
                "--rate",
                "99",
            ],
            "--rate",
        ),
        (
            &[
                "--policy",
                "epoch-mrt",
                "--pattern",
                "poisson",
                "--burst-size",
                "3",
            ],
            "--burst-size",
        ),
    ] {
        assert_refused(&[argv, &generated[..]].concat(), flag);
    }
    // The dual-search solvers still take `--search` on every engine that
    // runs them.
    for argv in [
        &["--policy", "epoch-mrt", "--search", "bisect"][..],
        &["--policy", "epoch", "--solver", "mrt", "--search", "exact"],
        &[
            "--policy",
            "epoch-mrt",
            "--shards",
            "2",
            "--solver",
            "mrt",
            "--search",
            "bisect",
        ],
        &[
            "--policy",
            "epoch-mrt",
            "--machine-classes",
            "a=4x1.0,b=4x2.0",
            "--solver",
            "hetero-greedy",
            "--search",
            "bisect",
        ],
    ] {
        assert_honoured(&[argv, &generated[..]].concat());
    }
    assert_refused(
        &[
            "--policy",
            "epoch-mrt",
            "--trace",
            &trace,
            "--tasks",
            "999",
            "--processors",
            "64",
            "--departure-patience",
            "2",
        ],
        "--tasks",
    );
    std::fs::remove_file(trace).ok();
}

#[test]
fn trace_refuses_the_other_patterns_flags() {
    // `trace` checks the generation flags against the same table, in the
    // same words.
    for (argv, refusal) in [
        (
            &["--pattern", "bursty", "--rate", "99"][..],
            "--rate needs --pattern poisson",
        ),
        (
            &["--burst-size", "3"],
            "--burst-size needs --pattern bursty",
        ),
        (
            &["--pattern", "poisson", "--burst-gap", "2"],
            "--burst-gap needs --pattern bursty",
        ),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_malleable-sched"))
            .arg("trace")
            .args(argv)
            .output()
            .unwrap();
        let message = String::from_utf8(output.stderr).unwrap();
        assert_eq!(output.status.code(), Some(1), "{argv:?}: {message}");
        assert!(output.stdout.is_empty(), "{argv:?}: printed a trace");
        assert!(
            message.starts_with(&format!("error: invalid input: {refusal}"))
                && message.lines().count() == 1,
            "{argv:?}: {message}"
        );
    }
}

/// The sorted keys of a `--json` report.
fn json_keys(selector: &[&str]) -> Vec<String> {
    let output = online(&[selector, &GENERATED[..], &["--json"]].concat());
    assert!(output.status.success(), "{selector:?}: {output:?}");
    let doc: serde_json::Value =
        serde_json::from_str(&String::from_utf8(output.stdout).unwrap()).unwrap();
    let mut keys: Vec<String> = doc
        .as_object()
        .unwrap()
        .iter()
        .map(|(key, _)| key.clone())
        .collect();
    keys.sort();
    keys
}

#[test]
fn json_reports_keep_each_engines_key_set() {
    // The CI smokes read these keys; an engine merge must not drop one.
    let shared = [
        "last_arrival",
        "mean_flow_time",
        "online_makespan",
        "policy",
        "processors",
        "schedule_file",
        "tasks",
        "telemetry_file",
        "validated",
    ];
    let own: [&[&str]; 3] = [
        &[
            "certified_lower_bound",
            "completed",
            "crashes",
            "departed",
            "events",
            "goodput",
            "max_flow_time",
            "nominal_utilization",
            "offline_mrt_makespan",
            "preempted",
            "ratio_vs_lower_bound",
            "ratio_vs_offline",
            "reallotted",
            "repairs",
            "replans",
            "retries_exhausted",
            "task_failures",
            "telemetry",
            "time_weighted_utilization",
            "utilization",
            "wasted_integral",
        ],
        &[
            "invariant_violations",
            "max_flow_time",
            "per_shard",
            "placed",
            "rounds",
            "run_ns",
            "shards",
            "solve_critical_ns",
            "solve_total_ns",
            "solves",
            "steals",
            "utilization",
        ],
        &[
            "classes",
            "lower_bound",
            "machine_classes",
            "migrations",
            "ratio_vs_lower_bound",
            "replans",
        ],
    ];
    let mut sizes = Vec::new();
    for (selector, own) in [ENGINES[1], ENGINES[3], ENGINES[4]].into_iter().zip(own) {
        let mut expected: Vec<String> = shared.iter().chain(own).map(|k| k.to_string()).collect();
        expected.sort();
        assert_eq!(json_keys(selector), expected, "{selector:?}");
        sizes.push(expected.len());
    }
    assert_eq!(sizes, [30, 21, 15]);
    // The event-driven engine reports the same keys under every policy.
    assert_eq!(json_keys(ENGINES[0]), json_keys(ENGINES[1]));
    assert_eq!(json_keys(ENGINES[2]), json_keys(ENGINES[1]));
}
