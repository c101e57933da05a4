//! Online arrivals: the same traffic stream scheduled by all three online
//! policies, compared against the clairvoyant offline MRT run.
//!
//! ```text
//! cargo run -p examples --release --example online_arrivals
//! ```

use malleable_core::prelude::*;
use online::policy::PolicyKind;
use workload::{ArrivalPattern, ArrivalTrace, TraceConfig, WorkloadConfig};

fn main() {
    // 80 mixed tasks arriving as a Poisson stream at 4 tasks per time unit
    // on a 16-processor machine.
    let trace = ArrivalTrace::generate(&TraceConfig {
        workload: WorkloadConfig::mixed(80, 16, 42),
        pattern: ArrivalPattern::Poisson { rate: 4.0 },
    })
    .expect("trace generation succeeds");
    println!(
        "trace: {} arrivals on {} processors, last arrival at t = {:.2}\n",
        trace.len(),
        trace.processors(),
        trace.last_arrival()
    );

    // The offline solvers come from the workspace solver registry — the
    // same lookup the CLI's `--solver` flag uses.
    let registry = solver::default_registry();

    // The clairvoyant baseline: all tasks known (and released) at t = 0.
    let instance = trace.instance().expect("trace instance");
    let offline = registry
        .get("mrt")
        .expect("registered")
        .solve(&SolveRequest::new(&instance))
        .expect("offline scheduling succeeds");
    println!(
        "offline mrt (clairvoyant): makespan = {:>7.3}   certified LB = {:.3}\n",
        offline.makespan(),
        offline.lower_bound
    );

    // The planning oracles of the online policies.
    let policies = [
        PolicyKind::Greedy,
        PolicyKind::Epoch {
            period: 1.0,
            solver: registry.get("mrt").expect("registered"),
        },
        PolicyKind::Epoch {
            period: 1.0,
            solver: registry.get("ludwig").expect("registered"),
        },
        PolicyKind::Batch {
            solver: registry.get("mrt").expect("registered"),
        },
    ];
    println!(
        "{:<22} {:>9} {:>11} {:>11} {:>10} {:>8}",
        "policy", "makespan", "vs offline", "mean flow", "util", "replans"
    );
    for kind in policies {
        let mut policy = kind.build().expect("valid policy");
        let result = online::run(&trace, policy.as_mut()).expect("engine run succeeds");
        assert!(
            online::validate_against_trace(&trace, &result.schedule).is_empty(),
            "committed schedule must validate"
        );
        let report = online::competitive_report(&trace, &result).expect("report succeeds");
        println!(
            "{:<22} {:>9.3} {:>11.3} {:>11.3} {:>9.1}% {:>8}",
            result.policy,
            result.makespan,
            report.ratio_vs_offline.expect("tasks executed"),
            result.mean_flow_time,
            100.0 * result.utilization(),
            result.replans
        );
    }
    println!("\nevery policy pays a finite, measured price over the clairvoyant run;");
    println!("`malleable-sched online --json …` emits the same report machine-readably.");
}
