//! Head-to-head comparison of the paper's scheduler and its baselines over
//! random workload families, every one resolved by name from the solver
//! registry — a compact, console version of the experiments in the README's
//! "Experiments" section.
//!
//! ```text
//! cargo run -p mrt-examples --release --example compare_algorithms
//! ```

use malleable_core::bounds;
use malleable_core::prelude::*;
use workload::{WorkloadConfig, WorkloadGenerator};

struct Accumulator {
    name: &'static str,
    ratios: Vec<f64>,
}

impl Accumulator {
    fn new(name: &'static str) -> Self {
        Accumulator {
            name,
            ratios: Vec::new(),
        }
    }

    fn record(&mut self, makespan: f64, lower_bound: f64) {
        self.ratios.push(makespan / lower_bound);
    }

    fn report(&self) -> String {
        let n = self.ratios.len() as f64;
        let mean = self.ratios.iter().sum::<f64>() / n;
        let max = self.ratios.iter().cloned().fold(0.0, f64::max);
        format!(
            "{:<20} mean ratio = {:.3}   worst ratio = {:.3}",
            self.name, mean, max
        )
    }
}

type ConfigBuilder = fn(usize, usize, u64) -> WorkloadConfig;

fn main() {
    let families: [(&str, ConfigBuilder); 3] = [
        ("mixed", WorkloadConfig::mixed),
        ("wide-tasks", WorkloadConfig::wide_tasks),
        ("sequential-heavy", WorkloadConfig::sequential_heavy),
    ];
    let seeds = 0..20u64;
    let registry = solver::default_registry();

    for (family_name, make_config) in families {
        println!("== workload family: {family_name} (20 instances, n = 40, m = 32) ==");
        let mut accumulators = [
            ("mrt", Accumulator::new("MRT (sqrt(3))")),
            ("ludwig", Accumulator::new("Ludwig two-phase")),
            ("gang", Accumulator::new("gang scheduling")),
            ("lpt", Accumulator::new("sequential LPT")),
        ];

        for seed in seeds.clone() {
            let instance = WorkloadGenerator::new(make_config(40, 32, seed))
                .generate()
                .expect("workload");
            let lb = bounds::lower_bound(&instance);

            for (name, accumulator) in &mut accumulators {
                let outcome = registry
                    .get(name)
                    .expect("registered")
                    .solve(&SolveRequest::new(&instance))
                    .expect(name);
                assert!(outcome.schedule.validate(&instance).is_ok());
                accumulator.record(outcome.makespan(), lb);
            }
        }

        for (_, accumulator) in &accumulators {
            println!("  {}", accumulator.report());
        }
        println!();
    }

    println!(
        "Expected ordering (paper §1): the MRT ratios stay below sqrt(3) ≈ 1.732 and\n\
         below the two-phase baseline; gang scheduling and sequential LPT degrade on\n\
         the families that do not match their assumptions."
    );
}
