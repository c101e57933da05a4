//! Scheduling a precedence-constrained workflow of malleable tasks — the
//! extension direction named in the paper's conclusion ("the natural
//! continuation of this work is to study the scheduling of precedence graphs
//! structures"), here on a small scientific-workflow DAG.
//!
//! ```text
//! cargo run -p mrt-examples --release --example workflow_dag
//! ```

use malleable_core::prelude::*;
use precedence::{CpaScheduler, LevelScheduler, PrecedenceInstance, TaskGraph};

fn amdahl(name: &str, work: f64, alpha: f64, m: usize) -> MalleableTask {
    MalleableTask::named(
        name,
        SpeedupProfile::from_fn(m, |p| work * (alpha + (1.0 - alpha) / p as f64)).unwrap(),
    )
}

fn main() {
    let m = 16usize;
    // A classic simulation → analysis → reduction workflow:
    //
    //          mesh ──► solve-a ──► analyse-a ─┐
    //                └► solve-b ──► analyse-b ─┼─► reduce ──► report
    //                └► solve-c ──► analyse-c ─┘
    let tasks = vec![
        amdahl("mesh", 6.0, 0.1, m),      // 0
        amdahl("solve-a", 18.0, 0.05, m), // 1
        amdahl("solve-b", 14.0, 0.05, m), // 2
        amdahl("solve-c", 10.0, 0.05, m), // 3
        amdahl("analyse-a", 4.0, 0.3, m), // 4
        amdahl("analyse-b", 4.0, 0.3, m), // 5
        amdahl("analyse-c", 4.0, 0.3, m), // 6
        amdahl("reduce", 5.0, 0.2, m),    // 7
        MalleableTask::named("report", SpeedupProfile::sequential(1.5).unwrap()), // 8
    ];
    let edges = vec![
        (0, 1),
        (0, 2),
        (0, 3),
        (1, 4),
        (2, 5),
        (3, 6),
        (4, 7),
        (5, 7),
        (6, 7),
        (7, 8),
    ];
    let graph = TaskGraph::new(tasks, edges).expect("valid DAG");
    let instance = PrecedenceInstance::new(graph, m).expect("valid instance");

    let lb = precedence::lower_bound(&instance);
    println!(
        "workflow of {} tasks on {} processors, lower bound = {:.3} (area {:.3}, critical path {:.3})\n",
        instance.graph.task_count(),
        m,
        lb,
        precedence::area_bound(&instance),
        precedence::critical_path_bound(&instance),
    );

    let level = LevelScheduler.schedule(&instance).expect("level");
    let cpa = CpaScheduler::default().schedule(&instance).expect("cpa");
    instance.validate(&level).expect("level schedule is valid");
    instance.validate(&cpa).expect("cpa schedule is valid");

    println!(
        "level-by-level MRT : makespan {:.3}  (ratio vs LB {:.3})",
        level.makespan(),
        level.makespan() / lb
    );
    println!(
        "CPA + list         : makespan {:.3}  (ratio vs LB {:.3})",
        cpa.makespan(),
        cpa.makespan() / lb
    );

    let best = if cpa.makespan() <= level.makespan() {
        &cpa
    } else {
        &level
    };
    println!("\nallotment of the better schedule:");
    for entry in best.entries() {
        println!(
            "  {:<10} start {:>6.2}  duration {:>6.2}  processors {:>2}",
            instance.graph.tasks()[entry.task]
                .name
                .clone()
                .unwrap_or_default(),
            entry.start,
            entry.duration,
            entry.processors.count
        );
    }
}
