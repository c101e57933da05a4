//! Quickstart: schedule a handful of malleable tasks with the √3 algorithm.
//!
//! ```text
//! cargo run -p mrt-examples --release --example quickstart
//! ```

use malleable_core::prelude::*;
use simulator::{render_gantt, simulate};

fn main() {
    // A small machine and a mix of task shapes: a perfectly parallel solver,
    // two measured profiles with saturating speed-up, and sequential I/O jobs.
    let tasks = vec![
        MalleableTask::named("cfd-solver", SpeedupProfile::linear(16.0, 8).unwrap()),
        MalleableTask::named(
            "assembly",
            SpeedupProfile::new(vec![6.0, 3.3, 2.4, 2.0, 1.8, 1.7, 1.65, 1.62]).unwrap(),
        ),
        MalleableTask::named(
            "partitioner",
            SpeedupProfile::new(vec![3.0, 1.8, 1.4, 1.25]).unwrap(),
        ),
        MalleableTask::named("checkpoint-io", SpeedupProfile::sequential(1.1).unwrap()),
        MalleableTask::named("statistics", SpeedupProfile::sequential(0.7).unwrap()),
    ];
    let instance = Instance::new(tasks, 8).expect("valid instance");

    // One request: dual-approximation search around the MRT scheduler.
    let result = MrtSolver
        .solve(&SolveRequest::new(&instance))
        .expect("scheduling succeeds");

    println!("== MRT (√3) schedule ==");
    for entry in result.schedule.entries() {
        let name = instance
            .task(entry.task)
            .name
            .clone()
            .unwrap_or_else(|| format!("task-{}", entry.task));
        println!(
            "  {:<16} start {:>6.2}  duration {:>6.2}  processors {:>2} (first = {})",
            name, entry.start, entry.duration, entry.processors.count, entry.processors.first
        );
    }
    println!();
    println!(
        "makespan          = {:.3}\ncertified lower bound = {:.3}\na-posteriori ratio    = {:.3}  (worst-case guarantee: √3 ≈ 1.732)",
        result.makespan(),
        result.lower_bound,
        result.ratio()
    );

    // Double-check every invariant, then replay the schedule on the simulator.
    result
        .schedule
        .validate(&instance)
        .expect("the schedule is valid");
    let trace = simulate(&instance, &result.schedule);
    println!(
        "utilisation           = {:.1}%   idle area = {:.3}",
        100.0 * trace.utilization,
        trace.idle_area
    );

    println!("\n{}", render_gantt(&instance, &result.schedule, 72));
}
