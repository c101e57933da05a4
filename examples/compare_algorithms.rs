//! Head-to-head comparison of every registered solver — the paper's
//! scheduler and its baselines — over the random workload families and
//! machine sizes, with the share of instances on which MRT is at least as
//! good as each solver.
//!
//! ```text
//! cargo run -p examples --release --example compare_algorithms
//! ```
//!
//! The paper's claim is qualitative: the √3 algorithm improves on the best
//! practical method (Ludwig's two-phase 2-approximation) in the worst case.
//! Ratios are against the static lower bound, the same normaliser for every
//! solver.

use malleable_core::{bounds, Solver};
use mrt_examples::{solver_makespan, summarize, Family};

fn main() {
    let (tasks, per_cell) = (40, 20);
    let registry = solver::default_registry();
    let mrt = registry.get("mrt").expect("mrt is registered");

    println!("baseline comparison — {per_cell} instances per cell, n = {tasks}");
    println!(
        "{:<18} {:>5} {:<16} {:>10} {:>10} {:>12}",
        "family", "m", "algorithm", "mean", "max", "mrt wins (%)"
    );
    for family in Family::ALL {
        for m in [8, 16, 32, 64] {
            let instances: Vec<_> = (0..per_cell)
                .map(|seed| family.instance(tasks, m, seed))
                .collect();
            let makespans = |solver: &dyn Solver| -> Vec<f64> {
                instances
                    .iter()
                    .map(|instance| solver_makespan(solver, instance))
                    .collect()
            };
            let ours = makespans(mrt.as_ref());
            for solver in registry.solvers() {
                let theirs = makespans(solver.as_ref());
                let ratios: Vec<f64> = theirs
                    .iter()
                    .zip(&instances)
                    .map(|(makespan, instance)| makespan / bounds::lower_bound(instance))
                    .collect();
                let wins = ours
                    .iter()
                    .zip(&theirs)
                    .filter(|(ours, theirs)| **ours <= **theirs + 1e-9)
                    .count();
                let summary = summarize(&ratios);
                println!(
                    "{:<18} {:>5} {:<16} {:>10.3} {:>10.3} {:>11.0}%",
                    family.name(),
                    m,
                    solver.name(),
                    summary.mean,
                    summary.max,
                    100.0 * wins as f64 / per_cell as f64
                );
            }
            println!();
        }
    }

    println!(
        "Expected ordering (paper §1): the MRT ratios stay below sqrt(3) ≈ 1.732 and\n\
         below the two-phase baseline; gang scheduling and sequential LPT degrade on\n\
         the families that do not match their assumptions."
    );
}
