//! Ablation study: how much does each of the paper's mechanisms contribute?
//!
//! ```text
//! cargo run -p mrt-bench --release --bin ablation [instances-per-cell]
//! ```
//!
//! The combined scheduler evaluates four branches per probe (the §4 two-shelf
//! knapsack construction, the §3.2 canonical list, the §3.1 malleable list,
//! and FFDH level packing) and keeps the best schedule.  This report re-runs
//! the evaluation with restricted branch sets and with a λ sweep to answer
//! the design questions behind the combined scheduler (see README
//! "Experiments"):
//!
//! * does the knapsack/two-shelf branch actually matter, or do the list
//!   algorithms already deliver the quality?
//! * how sensitive is the result to the shelf parameter λ (the paper's
//!   choice is λ = √3 − 1)?
//! * what does the exact-vs-FPTAS knapsack strategy cost in quality?

use malleable_core::prelude::*;
use mrt_bench::{summarize, Family};

/// The a-posteriori ratio of one `mrt` solve.
fn mrt_ratio(request: SolveRequest<'_>) -> f64 {
    MrtSolver
        .solve(&request)
        .expect("scheduling succeeds")
        .ratio()
}

/// Print the mean/max ratio per family of one configuration, given as the
/// ratio it reaches on an instance.
fn report(label: &str, ratio: impl Fn(&Instance) -> f64, per_cell: u64) {
    print!("{label:<34}");
    for family in Family::ALL {
        let ratios: Vec<f64> = (0..per_cell)
            .map(|seed| ratio(&family.instance(40, 32, seed)))
            .collect();
        let summary = summarize(&ratios);
        print!("  {:>5.3}/{:<5.3}", summary.mean, summary.max);
    }
    println!();
}

fn main() {
    let per_cell: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(15);

    println!("ablation study — mean/max ratio per family (n = 40, m = 32, {per_cell} instances)");
    print!("{:<34}", "configuration");
    for family in Family::ALL {
        print!("  {:^11}", family.name());
    }
    println!();

    // Branch ablations.
    for (label, branches) in [
        ("all branches (paper)", BranchSet::default()),
        ("two-shelf knapsack only", BranchSet::two_shelf_only()),
        ("list algorithms only (§3)", BranchSet::lists_only()),
        (
            "level packing only (TWY-like)",
            BranchSet {
                two_shelf: false,
                canonical_list: false,
                malleable_list: false,
                level_packing: true,
            },
        ),
    ] {
        report(
            label,
            |i| mrt_ratio(SolveRequest::new(i).with_branches(branches)),
            per_cell,
        );
    }

    println!();

    // λ sweep.
    for lambda in [0.6, 0.7, malleable_core::LAMBDA_SQRT3, 0.8, 0.9, 1.0] {
        report(
            &format!("lambda = {lambda:.3}"),
            |i| mrt_ratio(SolveRequest::new(i).with_lambda(lambda)),
            per_cell,
        );
    }

    println!();

    // Knapsack strategy: an oracle field a request does not carry, so these
    // rows drive the search over a configured oracle directly.
    for (label, strategy) in [
        ("knapsack: exact DP", knapsack::Strategy::Exact),
        ("knapsack: FPTAS eps=0.1", knapsack::Strategy::Fptas(0.1)),
    ] {
        let scheduler = MrtScheduler {
            strategy,
            ..Default::default()
        };
        report(
            label,
            |i| {
                DualSearch::default()
                    .solve_guided(
                        i,
                        &scheduler,
                        SearchMode::Bisect,
                        None,
                        &mut ProbeWorkspace::new(),
                    )
                    .expect("scheduling succeeds")
                    .ratio()
            },
            per_cell,
        );
    }

    println!();
    println!("# columns: mean/max ratio vs certified lower bound, per workload family");
}
