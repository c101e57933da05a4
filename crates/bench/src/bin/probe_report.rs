//! Probe-count / allocation / warm-start report for the dual search
//! (`BENCH_2.json` of the perf trajectory).
//!
//! ```text
//! cargo run -p bench --release --bin probe_report [seeds-per-cell] > BENCH_2.json
//! ```
//!
//! Three sections, one JSON document on stdout:
//!
//! * **offline** — for `n ∈ {50, 200, 1000}` on `m = 64` (mixed family):
//!   oracle probes, ns/solve and a-posteriori ratio of the classical
//!   bisection search vs the breakpoint-exact search, cold workspace vs
//!   steady-state workspace.
//! * **workspace** — the allocation-free probe invariant: buffer growth
//!   events of a steady-state workspace (must be 0), and the rigid branch
//!   schedules its probes rebuilt (a repeated probe, whose allotments are
//!   unchanged, must rebuild none).
//! * **online** — end-to-end epoch-replan runs, cold bisection vs
//!   warm-started exact, with makespans, probe totals and wall time.
//! * **overhead** — the cost of the telemetry instrumentation when nothing
//!   records: `online::run` (uninstrumented path) vs
//!   `online::run_recorded(&NoopRecorder)` on the same trace,
//!   min-of-repetitions per variant.
//!
//! The binary *gates* the PR's acceptance criteria itself and exits
//! non-zero when they fail, so CI can run it directly:
//!
//! * exact mode uses ≥ 2× fewer oracle probes than bisection on the
//!   `n = 200 / m = 64` cells;
//! * steady-state probes perform zero workspace-buffer growth;
//! * a probe at an unchanged allotment rebuilds no rigid schedule;
//! * online competitive ratios agree within the search slack;
//! * the `NoopRecorder` run is within 2% of the uninstrumented run (plus a
//!   1 ms absolute floor to absorb scheduler jitter on loaded CI hosts).

use std::sync::Arc;

use malleable_core::prelude::*;
use mrt_bench::Family;
use online::policy::EpochReplan;
use serde_json::{json, Value};
use workload::{ArrivalPattern, ArrivalTrace, TraceConfig, WorkloadConfig};

/// One `mrt` solve in `mode` on `workspace`, with its wall time in ns.
fn solve_timed(
    instance: &Instance,
    mode: SearchMode,
    workspace: &mut ProbeWorkspace,
) -> (SolveOutcome, f64) {
    let start = telemetry::SpanTimer::start();
    let request = SolveRequest::new(instance).with_mode(mode);
    let outcome = MrtSolver
        .solve_with_workspace(&request, workspace)
        .expect("solve succeeds");
    (outcome, start.elapsed_ns() as f64)
}

fn main() {
    let seeds_per_cell: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3);
    let mut failures: Vec<String> = Vec::new();

    // ---- Offline: probes and ns/solve per search mode -------------------
    let m = 64usize;
    let mut offline_cells: Vec<Value> = Vec::new();
    for &n in &[50usize, 200, 1000] {
        let mut bisect_probes = Vec::new();
        let mut exact_probes = Vec::new();
        let mut bisect_ns = Vec::new();
        let mut exact_cold_ns = Vec::new();
        let mut exact_warm_ns = Vec::new();
        let mut bisect_ratios = Vec::new();
        let mut exact_ratios = Vec::new();
        let mut warm_workspace = ProbeWorkspace::new();
        for seed in 0..seeds_per_cell {
            let instance = Family::Mixed.instance(n, m, seed);
            let (bisect, ns) =
                solve_timed(&instance, SearchMode::Bisect, &mut ProbeWorkspace::new());
            bisect_probes.push(bisect.probes as f64);
            bisect_ns.push(ns);
            bisect_ratios.push(bisect.ratio());

            let (exact_cold, ns) =
                solve_timed(&instance, SearchMode::Exact, &mut ProbeWorkspace::new());
            exact_probes.push(exact_cold.probes as f64);
            exact_cold_ns.push(ns);
            exact_ratios.push(exact_cold.ratio());

            // Warm workspace: buffers survive across seeds of the cell.
            let (_, ns) = solve_timed(&instance, SearchMode::Exact, &mut warm_workspace);
            exact_warm_ns.push(ns);

            if n == 200 && 2 * exact_cold.probes > bisect.probes {
                failures.push(format!(
                    "n={n} m={m} seed={seed}: exact used {} probes, bisect {} (< 2x reduction)",
                    exact_cold.probes, bisect.probes
                ));
            }
        }
        let bp = mrt_bench::summarize(&bisect_probes);
        let ep = mrt_bench::summarize(&exact_probes);
        offline_cells.push(json!({
            "family": "mixed",
            "tasks": n,
            "processors": m,
            "seeds": seeds_per_cell,
            "bisect_probes_mean": bp.mean,
            "exact_probes_mean": ep.mean,
            "probe_reduction": bp.mean / ep.mean,
            "bisect_ns_per_solve": mrt_bench::summarize(&bisect_ns).mean,
            "exact_cold_ns_per_solve": mrt_bench::summarize(&exact_cold_ns).mean,
            "exact_warm_ns_per_solve": mrt_bench::summarize(&exact_warm_ns).mean,
            "bisect_ratio_mean": mrt_bench::summarize(&bisect_ratios).mean,
            "exact_ratio_mean": mrt_bench::summarize(&exact_ratios).mean,
        }));
    }

    // ---- Workspace: the allocation-free probe invariant ------------------
    let instance = Family::Mixed.instance(200, m, 0);
    let mut workspace = ProbeWorkspace::new();
    // Warm-up solves size every buffer for both probe sequences.
    for mode in [SearchMode::Exact, SearchMode::Bisect] {
        solve_timed(&instance, mode, &mut workspace);
    }
    let warmup_probes = workspace.probes();
    workspace.reset_counters();
    for mode in [SearchMode::Exact, SearchMode::Bisect] {
        solve_timed(&instance, mode, &mut workspace);
    }
    let (steady_probes, steady_grow_events) = (workspace.probes(), workspace.grow_events());
    if steady_grow_events != 0 {
        failures.push(format!(
            "steady-state probes grew workspace buffers {steady_grow_events} times"
        ));
    }
    let steady_builds = workspace.rigid_builds();
    // A probe at an unchanged allotment must reuse every kept rigid
    // schedule: probe each guess of a bisection between the static bounds
    // twice; the second probe sees the first one's allotments.
    let scheduler = MrtScheduler::default();
    let (mut lo, mut hi) = (lower_bound(&instance), upper_bound(&instance));
    let mut repeat_rebuilds = 0;
    for _ in 0..24 {
        let mid = 0.5 * (lo + hi);
        let feasible = scheduler
            .probe_with_workspace(&instance, mid, &mut workspace)
            .is_feasible();
        let before = workspace.rigid_builds().total();
        scheduler.probe_with_workspace(&instance, mid, &mut workspace);
        repeat_rebuilds += workspace.rigid_builds().total() - before;
        if feasible {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    if repeat_rebuilds != 0 {
        failures.push(format!(
            "probes at an unchanged allotment rebuilt {repeat_rebuilds} rigid schedules"
        ));
    }
    let workspace_section = json!({
        "warmup_probes": warmup_probes,
        "steady_state_probes": steady_probes,
        "steady_state_grow_events": steady_grow_events,
        "steady_state_rigid_builds": steady_builds.total(),
        "steady_state_canonical_list_builds": steady_builds.canonical_list,
        "steady_state_malleable_list_builds": steady_builds.malleable_list,
        "steady_state_level_packing_builds": steady_builds.level_packing,
        "repeat_probe_rigid_builds": repeat_rebuilds,
    });

    // ---- Online: cold bisection vs warm-started exact epoch replan ------
    let mut online_cells: Vec<Value> = Vec::new();
    for seed in 0..seeds_per_cell {
        let trace = ArrivalTrace::generate(&TraceConfig {
            workload: WorkloadConfig::mixed(400, 32, seed),
            pattern: ArrivalPattern::Poisson { rate: 6.0 },
        })
        .expect("trace generation");

        // Truly cold baseline: the pre-warm-start behaviour — classical
        // bisection, no cross-epoch workspace reuse, no interval hint.
        let mut cold_policy = EpochReplan::with_solver(1.0, Arc::new(MrtSolver))
            .expect("policy")
            .with_search(SearchMode::Bisect)
            .with_warm_start(false);
        let start = telemetry::SpanTimer::start();
        let cold = online::run(&trace, &mut cold_policy).expect("cold run");
        let cold_ms = start.elapsed().as_secs_f64() * 1e3;

        let mut warm_policy = EpochReplan::mrt(1.0).expect("policy");
        let start = telemetry::SpanTimer::start();
        let warm = online::run(&trace, &mut warm_policy).expect("warm run");
        let warm_ms = start.elapsed().as_secs_f64() * 1e3;

        // Competitive ratios must agree up to the search slack.
        let drift = warm.makespan / cold.makespan;
        if !(0.95..=1.05).contains(&drift) {
            failures.push(format!(
                "online seed {seed}: warm makespan drifted {drift:.4}x vs cold"
            ));
        }
        online_cells.push(json!({
            "seed": seed,
            "tasks": trace.len(),
            "processors": trace.processors(),
            "cold_bisect_ms": cold_ms,
            "warm_exact_ms": warm_ms,
            "speedup": cold_ms / warm_ms,
            "cold_probes": cold_policy.probes(),
            "warm_probes": warm_policy.probes(),
            "cold_makespan": cold.makespan,
            "warm_makespan": warm.makespan,
            "makespan_drift": drift,
        }));
    }

    // ---- Overhead: uninstrumented run vs NoopRecorder-recorded run ------
    // Both paths share `run_inner`; the recorded one additionally branches
    // on the (noop) recorder per event.  Min-of-repetitions, interleaved so
    // slow host phases hit both variants alike.
    let overhead_trace = ArrivalTrace::generate(&TraceConfig {
        workload: WorkloadConfig::mixed(400, 32, 0),
        pattern: ArrivalPattern::Bursty {
            burst_size: 16,
            burst_gap: 4.0,
        },
    })
    .expect("trace generation");
    let noop = telemetry::NoopRecorder;
    let mut plain_ns = Vec::new();
    let mut noop_ns = Vec::new();
    for _ in 0..7 {
        let mut policy = EpochReplan::mrt(1.0).expect("policy");
        let start = telemetry::SpanTimer::start();
        let plain = online::run(&overhead_trace, &mut policy).expect("plain run");
        plain_ns.push(start.elapsed_ns() as f64);

        let mut policy = EpochReplan::mrt(1.0).expect("policy");
        let start = telemetry::SpanTimer::start();
        let recorded =
            online::run_recorded(&overhead_trace, &mut policy, &noop).expect("recorded run");
        noop_ns.push(start.elapsed_ns() as f64);
        assert_eq!(
            plain.makespan, recorded.makespan,
            "the noop-recorded run must be behaviourally identical"
        );
    }
    let min_of = |samples: &[f64]| samples.iter().copied().fold(f64::INFINITY, f64::min);
    let plain_min = min_of(&plain_ns);
    let noop_min = min_of(&noop_ns);
    let overhead = noop_min / plain_min - 1.0;
    if noop_min > plain_min * 1.02 + 1e6 {
        failures.push(format!(
            "noop telemetry overhead {:.2}% exceeds the 2% budget ({:.3} ms vs {:.3} ms)",
            overhead * 100.0,
            noop_min / 1e6,
            plain_min / 1e6
        ));
    }
    let overhead_section = json!({
        "tasks": overhead_trace.len(),
        "processors": overhead_trace.processors(),
        "repetitions": plain_ns.len(),
        "plain_min_ns": plain_min,
        "noop_min_ns": noop_min,
        "overhead_fraction": overhead,
        "budget_fraction": 0.02,
    });

    let doc = json!({
        "report": "probe-workspace-perf",
        "offline": offline_cells,
        "workspace": workspace_section,
        "online": online_cells,
        "overhead": overhead_section,
        "gates_failed": failures.clone(),
    });
    println!(
        "{}",
        serde_json::to_string_pretty(&doc).expect("report serialisation")
    );
    if !failures.is_empty() {
        eprintln!("probe_report gates failed:");
        for failure in &failures {
            eprintln!("  - {failure}");
        }
        std::process::exit(1);
    }
}
