//! Run the benchmark.
//!
//! ```text
//! benchmark --workload <name|all> [--seed S] [--seconds T] [--trace 0|1]
//!           [--scale full|smoke] [--json <out.jsonl>] [--spans <dir>]
//! ```
//!
//! Prints every end-to-end metric as `workload metric value unit`, then, as
//! the last line, one JSON object with `correct`, `attempted`, `failed` and
//! the headline metrics (the per-layer metrics with `--trace 1`).  Exits 1
//! when any output is wrong and 2 on a usage or set-up error.

use std::fs::OpenOptions;
use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use benchmark::run::{profile, run, Options};
use benchmark::workloads::{Scale, WORKLOADS};

const USAGE: &str = "usage: benchmark --workload <name|all> [--seed S] [--seconds T] \
                     [--trace 0|1] [--scale full|smoke] [--json <out.jsonl>] [--spans <dir>]";

struct Args {
    options: Options,
    json: Option<PathBuf>,
    /// The arguments other than `--workload`, forwarded by `--workload all`.
    forwarded: Vec<String>,
}

fn parse(raw: &[String]) -> Result<Args, String> {
    let mut options = Options {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        scale: Scale::Full,
        spans: None,
    };
    let mut json = None;
    let mut forwarded = Vec::new();
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                options.workload = value.clone();
                continue;
            }
            "--seed" => options.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                options.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--scale" => {
                options.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    _ => return Err(bad("expected full or smoke")),
                }
            }
            "--json" => json = Some(PathBuf::from(value)),
            "--spans" => options.spans = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
        forwarded.extend([flag.clone(), value.clone()]);
    }
    if options.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if options.workload != "all" && !WORKLOADS.contains(&options.workload.as_str()) {
        return Err(format!(
            "unknown workload `{}`; known: all, {}",
            options.workload,
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        options,
        json,
        forwarded,
    })
}

/// The commit being measured, for the result envelope (`-dirty` when the
/// working tree has changes).
fn commit() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty", "--abbrev=40"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// `--workload all`: one child process per workload, so each one's peak
/// memory is its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot locate this binary: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = 0u8;
    for workload in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload])
            .args(&args.forwarded)
            .status();
        let code = match status {
            Ok(s) if s.success() => 0,
            Ok(s) => u8::try_from(s.code().unwrap_or(2)).unwrap_or(2).max(1),
            Err(e) => {
                eprintln!("error: cannot run {workload}: {e}");
                2
            }
        };
        worst = worst.max(code);
    }
    ExitCode::from(worst)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if profile() == "debug" && args.options.scale != Scale::Smoke {
        eprintln!("error: a debug build measures nothing useful; build with --release or pass --scale smoke");
        return ExitCode::from(2);
    }
    if args.options.workload == "all" {
        return run_all(&args);
    }
    let report = match run(&args.options) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    for message in &report.messages {
        eprintln!("{}: {message}", report.workload);
    }
    for line in report.human_lines() {
        println!("{line}");
    }
    if let Some(values) = &report.per_layer {
        for line in report.layer_table() {
            println!("{line}");
        }
        for (name, value) in values {
            let unit = benchmark::metrics::per_layer(name).map_or("", |m| m.1);
            println!("{} {name} {value} {unit}", report.workload);
        }
    }
    if let Some(path) = &args.json {
        let doc = report.document(&commit());
        let written = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| {
                let line = serde_json::to_string(&doc).unwrap_or_default();
                writeln!(file, "{line}")
            });
        if let Err(e) = written {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!(
        "{}",
        serde_json::to_string(&report.result_line()).unwrap_or_default()
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
