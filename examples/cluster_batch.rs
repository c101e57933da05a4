//! Scheduling a batch of moldable HPC jobs on a cluster partition.
//!
//! A batch scheduler that supports *moldable* jobs (the user gives a feasible
//! range of processor counts and the measured run time for each) can use the
//! malleable-task algorithms directly: every queued job is a monotone
//! malleable task, the partition is the machine, and minimising the makespan
//! of the batch maximises partition throughput.
//!
//! ```text
//! cargo run -p mrt-examples --release --example cluster_batch
//! ```

use malleable_core::prelude::*;
use mrt_examples::comparison_row;
use workload::{SpeedupFamily, WorkMix, WorkloadConfig, WorkloadGenerator};

fn main() {
    // A 128-core partition and a queue of 80 jobs with a realistic mix:
    // many small analysis scripts, some medium solvers, a few hero runs.
    let config = WorkloadConfig {
        tasks: 80,
        processors: 128,
        work_mix: WorkMix::PowerLaw {
            min: 0.5,
            max: 400.0,
            exponent: 1.8,
        },
        families: vec![
            SpeedupFamily::Amdahl { alpha: 0.08 },
            SpeedupFamily::PowerLaw { sigma: 0.85 },
            SpeedupFamily::CommunicationOverhead { overhead: 0.01 },
            SpeedupFamily::Sequential,
        ],
        seed: 2024,
    };
    let instance = WorkloadGenerator::new(config).generate().expect("workload");

    let stats = workload::describe(&instance);
    println!(
        "batch of {} jobs on {} cores: total work {:.1}, mean parallelism {:.1}x",
        stats.tasks, stats.processors, stats.total_work, stats.mean_parallelism
    );
    println!(
        "lower bound on the batch makespan: {:.2}\n",
        stats.lower_bound
    );

    // Every scheduler comes from the workspace solver registry, by name.
    let registry = solver::default_registry();
    let solve = |name: &str| {
        registry
            .get(name)
            .expect("registered")
            .solve(&SolveRequest::new(&instance))
            .expect(name)
            .schedule
    };
    let mrt = solve("mrt");
    let ludwig_schedule = solve("ludwig");
    let twy_list = solve("twy-list");
    let gang = solve("gang");
    let lpt = solve("lpt");

    println!("{}", comparison_row("MRT (sqrt(3))", &instance, &mrt));
    println!(
        "{}",
        comparison_row("Ludwig (TWY+FFDH)", &instance, &ludwig_schedule)
    );
    println!("{}", comparison_row("TWY + list", &instance, &twy_list));
    println!("{}", comparison_row("gang scheduling", &instance, &gang));
    println!("{}", comparison_row("sequential LPT", &instance, &lpt));

    // Throughput view: how much earlier does the batch finish under MRT?
    let saved_vs_lpt = lpt.makespan() - mrt.makespan();
    let saved_vs_gang = gang.makespan() - mrt.makespan();
    println!(
        "\nMRT finishes the batch {:.1} time units earlier than sequential LPT \
         and {:.1} earlier than gang scheduling.",
        saved_vs_lpt, saved_vs_gang
    );
    assert!(mrt.validate(&instance).is_ok());
}
