//! The `lint` binary: `cargo run -p lint -- check [--json]` fails on any
//! finding; `cargo run -p lint -- rules` lists the rules.

#![warn(missing_docs)]

use std::process::ExitCode;

use lint::report::Report;
use lint::{rules, walk};

const USAGE: &str = "usage: lint <check|rules> [--json]";

fn parse_options(mut args: std::env::Args) -> Result<(String, bool), String> {
    let command = args.next().ok_or(USAGE.to_string())?;
    let mut json = false;
    for flag in args {
        match flag.as_str() {
            "--json" => json = true,
            other => return Err(format!("unknown flag `{other}`\n{USAGE}")),
        }
    }
    Ok((command, json))
}

fn run_check(json: bool) -> Result<ExitCode, String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let root = walk::find_root(&cwd)
        .ok_or("could not find the workspace root (Cargo.toml + crates/) above the cwd")?;
    let ws = walk::load(&root).map_err(|e| format!("walking {}: {e}", root.display()))?;

    let (violations, suppressed) = ws.check(&rules::registry());
    let report = Report {
        files: ws.sources.len(),
        manifests: ws.manifests.len(),
        lines: ws.sources.iter().map(|f| f.lines.len()).sum(),
        suppressed,
        violations,
    };

    if json {
        let text = serde_json::to_string_pretty(&report.render_json())
            .map_err(|e| format!("serialising report: {e:?}"))?;
        println!("{text}");
    } else {
        print!("{}", report.render_text());
    }

    if report.violations.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn run_rules() -> ExitCode {
    for rule in rules::registry() {
        println!("{:<22} {}", rule.name(), rule.description());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args = std::env::args();
    let _binary = args.next();
    let (command, json) = match parse_options(args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    match command.as_str() {
        "check" => match run_check(json) {
            Ok(code) => code,
            Err(message) => {
                eprintln!("lint: {message}");
                ExitCode::FAILURE
            }
        },
        "rules" => run_rules(),
        other => {
            eprintln!("unknown command `{other}`\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
