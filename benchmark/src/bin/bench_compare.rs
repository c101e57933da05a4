//! Compare the result documents of two commits.
//!
//! ```text
//! bench_compare <parent_dir> <change_dir> [--benchmark BENCHMARK.json]
//! ```
//!
//! Each directory holds the `--json` output of at least ten runs per
//! workload, made alternately with the other side.  Prints one row per
//! (workload, metric) with both sides' quartiles, the pairs the change won,
//! and a verdict; exits 1 when any metric is worse, 2 on an error.

use std::path::PathBuf;
use std::process::ExitCode;

use benchmark::compare::{bounds, compare, load_dir, Verdict};

/// Six decimals, or scientific notation for values below a thousandth.
fn short(x: f64) -> String {
    if x == 0.0 || x.abs() >= 1e-3 {
        format!("{x:.6}")
    } else {
        format!("{x:.4e}")
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut dirs = Vec::new();
    let mut benchmark_json = PathBuf::from("BENCHMARK.json");
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        if arg == "--benchmark" {
            match it.next() {
                Some(path) => benchmark_json = PathBuf::from(path),
                None => {
                    eprintln!("error: --benchmark needs a path");
                    return ExitCode::from(2);
                }
            }
        } else {
            dirs.push(PathBuf::from(arg));
        }
    }
    let [parent, change] = dirs.as_slice() else {
        eprintln!("usage: bench_compare <parent_dir> <change_dir> [--benchmark BENCHMARK.json]");
        return ExitCode::from(2);
    };
    let result = std::fs::read_to_string(&benchmark_json)
        .map_err(|e| format!("cannot read {}: {e}", benchmark_json.display()))
        .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()))
        .and_then(|doc| bounds(&doc))
        .and_then(|bounds| compare(&load_dir(parent)?, &load_dir(change)?, &bounds));
    let rows = match result {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<16} {:<16} {:<9} {:>38} {:>38} {:>6} verdict",
        "workload", "metric", "unit", "parent q1/median/q3", "change q1/median/q3", "wins"
    );
    for row in &rows {
        let q = |(a, b, c): (f64, f64, f64)| format!("{}/{}/{}", short(a), short(b), short(c));
        println!(
            "{:<16} {:<16} {:<9} {:>38} {:>38} {:>6} {}",
            row.workload,
            row.metric,
            row.unit,
            q(row.parent),
            q(row.change),
            format!("{}/{}", row.wins, row.pairs),
            row.verdict.name()
        );
    }
    if rows.iter().any(|r| r.verdict == Verdict::Worse) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
