//! Competitive-ratio report: online policies vs the clairvoyant offline MRT
//! run, per trace family, emitted as JSON for the perf trajectory
//! (`BENCH_7.json` in CI).
//!
//! ```text
//! cargo run -p bench --release --bin online_report [seeds-per-cell]
//! ```
//!
//! Six sections (the `BENCH_7.json` surface — a superset of the earlier
//! `BENCH_4.json`/`BENCH_5.json`/`BENCH_6.json`):
//!
//! * `cells` — every policy × family of the classical evaluation (the PR-1
//!   surface, unchanged);
//! * `backfill` — frontier-only vs backfilling engine on the bursty suite
//!   (with and without departures), per policy.  **Gate:** on every
//!   departure-free bursty family the backfill mean competitive ratio must
//!   not exceed the frontier-only engine's;
//! * `preemption` — non-preemptive vs preemptive epoch re-planning, plus
//!   the deterministic queued-reallotment scenario.  **Gate:** preemption
//!   strictly beats the non-preemptive run on that shipped scenario;
//! * `reallotment` — queued-only preemption vs full mid-execution
//!   re-allotment of running tasks on the bursty *overload* suite, plus the
//!   deterministic running-reallotment scenario.  **Gates:** on the
//!   departure-free overload family the re-allotting engine's seed-sweep
//!   mean competitive ratio is strictly better than queued-only preemption,
//!   every piecewise schedule passes its trace record's checks
//!   (per-segment feasibility + work conservation), and re-allotment
//!   strictly beats queued-only preemption on the shipped scenario;
//! * `telemetry` — a fully recorded bursty run through the re-allotting
//!   engine: p50/p99 decision latency, epoch-solve spans, probes per solve,
//!   tasks/sec placed, and the time-weighted utilisation figure.  **Gate:**
//!   the recorded stream contains zero `invariant_violation` events;
//! * `faults` — graceful degradation: the bursty suite replayed through the
//!   fault-tolerant engine under seeded fault plans of increasing intensity
//!   (crash MTBF + per-attempt task-failure rate), against its own
//!   fault-free baseline, plus one recorded run whose epoch solver is
//!   forced to fail once behind the `solver::FallbackSolver` ladder.
//!   **Gates:** every faulted run passes the checks of its run record
//!   (`OnlineResult::record`: no overlap among executed or wasted segments,
//!   nothing scheduled inside an outage), every task is accounted for
//!   (completed + departed + abandoned = submitted), on the departure-free
//!   family the mean faulted makespan stays within 2× of the fault-free
//!   mean, and the forced solver fault degrades exactly one epoch with zero
//!   invariant violations.
//!
//! Runs whose tasks *all* departed have no competitive ratio
//! (`ratio_vs_lower_bound = null`); such seeds are excluded from every mean
//! and gate rather than poisoning them with NaN.
//!
//! Passing the token `hetero` after the seed count switches to the
//! heterogeneous surface (`BENCH_8.json` in CI): the classed epoch engine on
//! a strongly asymmetric two-class cluster, the LP assignment vs the
//! speed-blind ablation on the same machine (equal total capacity), plus the
//! greedy-density baseline and the homogeneous-equivalent reference run.
//! **Gates:** every classed run passes `ClassedRunResult::check`, and on
//! every task count the LP assignment's mean ratio vs the classed lower
//! bound strictly beats the speed-blind ablation's.
//!
//! The process exits non-zero when a gate fails, so CI catches regressions.

use std::collections::HashSet;
use std::sync::Arc;

use mrt_bench::online_traces::{
    bursty_overload_suite, bursty_suite, online_policies, trace_families, TraceFamily,
};
use mrt_bench::summarize;
use online::policy::{EpochReplan, PolicyKind, PolicyOptions};
use serde_json::{json, Value};
use solver::{FallbackSolver, FaultInjectingSolver, SolverFaultMode};
use workload::{FaultConfig, FaultPlan, RetryPolicy};

/// The seed-sweep observations of one (family, policy, options) cell.
struct FamilyRuns {
    vs_offline: Vec<f64>,
    vs_lower_bound: Vec<f64>,
    mean_flows: Vec<f64>,
    departed: usize,
    reallotted: usize,
    /// Seeds whose runs had no competitive ratio (every task departed) —
    /// excluded from the means and gates instead of reported as NaN.
    skipped_seeds: usize,
    policy_name: String,
}

fn run_family(
    family: &TraceFamily,
    kind: &PolicyKind,
    options: PolicyOptions,
    seeds: u64,
) -> FamilyRuns {
    let mut runs = FamilyRuns {
        vs_offline: Vec::new(),
        vs_lower_bound: Vec::new(),
        mean_flows: Vec::new(),
        departed: 0,
        reallotted: 0,
        skipped_seeds: 0,
        policy_name: String::new(),
    };
    for seed in 0..seeds {
        let trace = family.trace(seed);
        let mut policy = kind.build_with(options.clone()).expect("valid policy");
        let result = online::run(&trace, policy.as_mut()).expect("engine run succeeds");
        // Every schedule — including piecewise re-allotted ones — must pass
        // the trace record's checks (per-segment feasibility, windows and
        // work conservation).
        let violations = online::validate_against_trace(&trace, &result.schedule);
        assert!(
            violations.is_empty(),
            "invalid schedule from {}: {violations:?}",
            result.policy
        );
        let report = online::competitive_report(&trace, &result).expect("report succeeds");
        match (report.ratio_vs_offline, report.ratio_vs_lower_bound) {
            (Some(vs_offline), Some(vs_lb)) => {
                runs.vs_offline.push(vs_offline);
                runs.vs_lower_bound.push(vs_lb);
                runs.mean_flows.push(result.mean_flow_time);
            }
            _ => runs.skipped_seeds += 1,
        }
        runs.departed += result.departed;
        runs.reallotted += result.reallotted;
        runs.policy_name = result.policy;
    }
    runs
}

/// Mean of a gated sample, or `None` when every seed was skipped (the gate
/// is then skipped too, rather than failing on an empty sample).
fn gated_mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| summarize(values).mean)
}

/// The `hetero` mode: classed-engine assignment strategies on an
/// asymmetric two-class cluster, gated on the LP assignment strictly
/// beating the speed-blind ablation at equal total capacity.
fn hetero_report(seeds_per_cell: u64) {
    let spec = "old=8x1.0,new=4x2.5";
    let cluster = hetero::ClassedCluster::from_spec(spec).expect("valid cluster spec");
    let classes = workload::parse_class_specs(spec).expect("valid class spec");
    let flat = cluster.homogeneous_equivalent();
    let mut gate_failures: Vec<String> = Vec::new();
    let mut cells: Vec<Value> = Vec::new();

    let run = |trace: &workload::ArrivalTrace,
               on: &hetero::ClassedCluster,
               strategy: hetero::AssignStrategy|
     -> hetero::ClassedRunResult {
        let options = hetero::ClassedEngineOptions {
            strategy,
            ..hetero::ClassedEngineOptions::default()
        };
        hetero::run_classed(trace, on, &options).expect("classed engine run succeeds")
    };

    for tasks in [28usize, 48] {
        let mut lp_ratios: Vec<f64> = Vec::new();
        let mut greedy_ratios: Vec<f64> = Vec::new();
        let mut blind_ratios: Vec<f64> = Vec::new();
        let mut flat_makespans: Vec<f64> = Vec::new();
        let mut lp_makespans: Vec<f64> = Vec::new();
        let mut blind_makespans: Vec<f64> = Vec::new();
        let mut lp_flows: Vec<f64> = Vec::new();
        let mut blind_flows: Vec<f64> = Vec::new();
        let mut migrations = 0usize;
        let mut utilization = vec![0.0f64; cluster.classes().len()];
        for seed in 0..seeds_per_cell {
            let trace = workload::classed_trace(&classes, tasks, seed).expect("valid trace");
            let instance = trace.instance().expect("trace instance");
            let lower_bound = hetero::HeteroInstance::from_instance(&instance, cluster.clone())
                .expect("classed instance")
                .lower_bound();
            let lp = run(&trace, &cluster, hetero::AssignStrategy::Lp);
            let greedy = run(&trace, &cluster, hetero::AssignStrategy::GreedyDensity);
            let blind = run(&trace, &cluster, hetero::AssignStrategy::ClassBlind);
            // The homogeneous-equivalent reference: one uniform class of the
            // same total capacity — the class-free machine the classed runs
            // are measured against.
            let uniform = run(&trace, &flat, hetero::AssignStrategy::Lp);
            for (label, result) in [("lp", &lp), ("greedy", &greedy), ("blind", &blind)] {
                let violations = result.check(&trace);
                if !violations.is_empty() {
                    gate_failures.push(format!(
                        "hetero gate: {label} tasks {tasks} seed {seed} invalid: {}",
                        violations.join("; ")
                    ));
                }
            }
            lp_ratios.push(lp.makespan / lower_bound);
            greedy_ratios.push(greedy.makespan / lower_bound);
            blind_ratios.push(blind.makespan / lower_bound);
            lp_makespans.push(lp.makespan);
            blind_makespans.push(blind.makespan);
            flat_makespans.push(uniform.makespan);
            lp_flows.push(lp.mean_flow_time);
            blind_flows.push(blind.mean_flow_time);
            migrations += lp.migrations;
            for (class, busy) in utilization.iter_mut().enumerate() {
                *busy += lp.class_utilization(class);
            }
        }
        let lp_mean = summarize(&lp_ratios).mean;
        let blind_mean = summarize(&blind_ratios).mean;
        if lp_mean >= blind_mean - 1e-9 {
            gate_failures.push(format!(
                "hetero gate: tasks {tasks} lp mean ratio {lp_mean:.4} does not beat \
                 class-blind {blind_mean:.4}"
            ));
        }
        let class_utilization: Vec<Value> = cluster
            .classes()
            .iter()
            .zip(&utilization)
            .map(|(class, busy)| {
                json!({
                    "class": class.name.clone(),
                    "count": class.count,
                    "speed": class.speed,
                    "lp_utilization_mean": busy / seeds_per_cell as f64,
                })
            })
            .collect();
        cells.push(json!({
            "cluster": spec,
            "tasks": tasks,
            "seeds": seeds_per_cell,
            "lp_ratio_vs_lb_mean": lp_mean,
            "greedy_ratio_vs_lb_mean": summarize(&greedy_ratios).mean,
            "blind_ratio_vs_lb_mean": blind_mean,
            "improvement_vs_blind": blind_mean - lp_mean,
            "lp_makespan_mean": summarize(&lp_makespans).mean,
            "blind_makespan_mean": summarize(&blind_makespans).mean,
            "homogeneous_equivalent_makespan_mean": summarize(&flat_makespans).mean,
            "lp_mean_flow": summarize(&lp_flows).mean,
            "blind_mean_flow": summarize(&blind_flows).mean,
            "lp_migrations": migrations,
            "class_utilization": class_utilization,
        }));
    }

    let gate_ok = gate_failures.is_empty();
    let gates = json!({
        "hetero_lp_beats_class_blind_at_equal_capacity": gate_ok,
    });
    let doc = json!({
        "report": "hetero-classed-online",
        "cluster": spec,
        "total_capacity": cluster.total_capacity(),
        "cells": cells,
        "gates": gates,
    });
    println!(
        "{}",
        serde_json::to_string_pretty(&doc).expect("report serialisation")
    );
    if !gate_failures.is_empty() {
        for failure in &gate_failures {
            eprintln!("GATE FAILURE: {failure}");
        }
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seeds_per_cell: u64 = args
        .iter()
        .find_map(|token| token.parse().ok())
        .unwrap_or(5);
    if args.iter().any(|token| token == "hetero") {
        hetero_report(seeds_per_cell);
        return;
    }
    let mut gate_failures: Vec<String> = Vec::new();

    // Section 1: the classical policy × family sweep.
    let mut cells: Vec<Value> = Vec::new();
    for family in trace_families() {
        for kind in online_policies() {
            let runs = run_family(&family, &kind, PolicyOptions::default(), seeds_per_cell);
            let offline = summarize(&runs.vs_offline);
            let lower = summarize(&runs.vs_lower_bound);
            let flow = summarize(&runs.mean_flows);
            cells.push(json!({
                "family": family.name,
                "policy": runs.policy_name,
                "seeds": seeds_per_cell,
                "ratio_vs_offline_mean": offline.mean,
                "ratio_vs_offline_max": offline.max,
                "ratio_vs_lower_bound_mean": lower.mean,
                "ratio_vs_lower_bound_max": lower.max,
                "mean_flow_time": flow.mean,
            }));
        }
    }

    // Section 2: frontier vs backfill on the bursty suite.  The epoch-mrt
    // frontier runs double as section 3's non-preemptive baseline (same
    // policy, same default options, same deterministic traces).
    let registry = mrt_bench::default_registry();
    let mut backfill_cells: Vec<Value> = Vec::new();
    let mut epoch_frontier_by_family: Vec<(Vec<f64>, Vec<f64>)> = Vec::new();
    for family in bursty_suite() {
        for (label, kind) in [
            ("greedy", PolicyKind::Greedy),
            (
                "epoch-mrt",
                PolicyKind::Epoch {
                    period: 1.0,
                    solver: registry.get("mrt").expect("registered"),
                },
            ),
        ] {
            let frontier = run_family(&family, &kind, PolicyOptions::default(), seeds_per_cell);
            if label == "epoch-mrt" {
                epoch_frontier_by_family
                    .push((frontier.vs_lower_bound.clone(), frontier.mean_flows.clone()));
            }
            let backfill = run_family(
                &family,
                &kind,
                PolicyOptions {
                    backfill: true,
                    ..PolicyOptions::default()
                },
                seeds_per_cell,
            );
            let frontier_mean = summarize(&frontier.vs_lower_bound).mean;
            let backfill_mean = summarize(&backfill.vs_lower_bound).mean;
            // The gate runs on the epoch re-planning policy (the engine's
            // flagship).  Greedy is reported but not gated: per-trace
            // Graham anomalies make its small-seed means noisy (see the
            // `backfilling_dominates_on_average` workspace test for its
            // statistical pin over a larger sweep).
            if label == "epoch-mrt"
                && !family.has_departures()
                && backfill_mean > frontier_mean + 1e-9
            {
                gate_failures.push(format!(
                    "backfill gate: {label} on {} regressed ({backfill_mean:.4} > {frontier_mean:.4})",
                    family.name
                ));
            }
            backfill_cells.push(json!({
                "family": family.name,
                "policy": label,
                "seeds": seeds_per_cell,
                "departures": family.has_departures(),
                "frontier_ratio_vs_lb_mean": frontier_mean,
                "backfill_ratio_vs_lb_mean": backfill_mean,
                "improvement": frontier_mean - backfill_mean,
                "frontier_mean_flow": summarize(&frontier.mean_flows).mean,
                "backfill_mean_flow": summarize(&backfill.mean_flows).mean,
                "frontier_departed": frontier.departed,
                "backfill_departed": backfill.departed,
            }));
        }
    }

    // Section 3: preemptive epoch re-planning.
    let mut preemption_cells: Vec<Value> = Vec::new();
    for (family, (plain_lb, plain_flows)) in bursty_suite().iter().zip(epoch_frontier_by_family) {
        let kind = PolicyKind::Epoch {
            period: 1.0,
            solver: registry.get("mrt").expect("registered"),
        };
        let preempt = run_family(
            family,
            &kind,
            PolicyOptions {
                preempt_queued: true,
                ..PolicyOptions::default()
            },
            seeds_per_cell,
        );
        preemption_cells.push(json!({
            "family": family.name,
            "seeds": seeds_per_cell,
            "plain_ratio_vs_lb_mean": summarize(&plain_lb).mean,
            "preempt_ratio_vs_lb_mean": summarize(&preempt.vs_lower_bound).mean,
            "plain_mean_flow": summarize(&plain_flows).mean,
            "preempt_mean_flow": summarize(&preempt.mean_flows).mean,
        }));
    }
    // The shipped deterministic scenario (shared with the engine's
    // hand-computed unit test): preemption must strictly win.
    let scenario = online::queued_reallotment_scenario().expect("valid scenario");
    let scenario_makespan = |preempt: bool| {
        let mut policy = EpochReplan::mrt(1.0)
            .expect("valid period")
            .with_preempt_queued(preempt);
        let result = online::run(&scenario, &mut policy).expect("scenario run succeeds");
        assert!(
            online::validate_against_trace(&scenario, &result.schedule).is_empty(),
            "invalid scenario schedule"
        );
        (result.makespan, result.preempted)
    };
    let (plain_makespan, _) = scenario_makespan(false);
    let (preempt_makespan, preempted) = scenario_makespan(true);
    if preempt_makespan >= plain_makespan - 1e-9 || preempted == 0 {
        gate_failures.push(format!(
            "preemption gate: scenario makespan {preempt_makespan:.4} (preempted {preempted}) \
             does not beat non-preemptive {plain_makespan:.4}"
        ));
    }
    preemption_cells.push(json!({
        "family": "queued-reallotment-scenario",
        "plain_makespan": plain_makespan,
        "preempt_makespan": preempt_makespan,
        "preempted_commitments": preempted,
    }));

    // Section 4: mid-execution re-allotment of running tasks on the bursty
    // overload suite — queued-only preemption vs full re-allotment, same
    // solver, same traces.
    let mut reallotment_cells: Vec<Value> = Vec::new();
    for family in bursty_overload_suite() {
        let kind = PolicyKind::Epoch {
            period: 1.0,
            solver: registry.get("mrt").expect("registered"),
        };
        let queued = run_family(
            &family,
            &kind,
            PolicyOptions {
                preempt_queued: true,
                ..PolicyOptions::default()
            },
            seeds_per_cell,
        );
        let running = run_family(
            &family,
            &kind,
            PolicyOptions {
                preempt_queued: true,
                preempt_running: true,
                ..PolicyOptions::default()
            },
            seeds_per_cell,
        );
        let queued_mean = gated_mean(&queued.vs_lower_bound);
        let running_mean = gated_mean(&running.vs_lower_bound);
        // The gate runs on every overload family (the traces are
        // deterministic per seed, so so is the comparison): re-allotment
        // must strictly improve the seed-sweep mean competitive ratio over
        // queued-only preemption, and must actually have re-allotted
        // something.  The win is modest without departures (~1e-4: the
        // queued re-planner is already near the certified bound) and large
        // with them (~0.5: freed tails let impatient tasks start before
        // their deadlines).  Seeds with no ratio (all tasks departed) are
        // excluded from the means; if *every* seed were such the gate is
        // skipped for that family.
        match (queued_mean, running_mean) {
            (Some(q), Some(r)) if r >= q - 1e-9 => gate_failures.push(format!(
                "reallotment gate: {} mean ratio {r:.4} does not beat queued-only {q:.4}",
                family.name
            )),
            (Some(_), Some(_)) if running.reallotted == 0 => gate_failures.push(format!(
                "reallotment gate: {} never truncated a running task",
                family.name
            )),
            _ => {}
        }
        reallotment_cells.push(json!({
            "family": family.name,
            "seeds": seeds_per_cell,
            "departures": family.has_departures(),
            "queued_ratio_vs_lb_mean": queued_mean,
            "reallot_ratio_vs_lb_mean": running_mean,
            "improvement": match (queued_mean, running_mean) {
                (Some(q), Some(r)) => Some(q - r),
                _ => None,
            },
            "queued_mean_flow": gated_mean(&queued.mean_flows),
            "reallot_mean_flow": gated_mean(&running.mean_flows),
            "reallotted_commitments": running.reallotted,
            "queued_departed": queued.departed,
            "reallot_departed": running.departed,
            "skipped_seeds": running.skipped_seeds + queued.skipped_seeds,
        }));
    }
    // The shipped deterministic scenario (shared with the engine's
    // hand-computed unit test): re-allotment of the running task must
    // strictly beat queued-only preemption, which cannot help here because
    // nothing is ever queued.
    let scenario = online::running_reallotment_scenario().expect("valid scenario");
    let scenario_makespan = |preempt_running: bool| {
        let mut policy = EpochReplan::mrt(1.0)
            .expect("valid period")
            .with_preempt_queued(true)
            .with_preempt_running(preempt_running);
        let result = online::run(&scenario, &mut policy).expect("scenario run succeeds");
        assert!(
            online::validate_against_trace(&scenario, &result.schedule).is_empty(),
            "invalid scenario schedule"
        );
        (result.makespan, result.reallotted)
    };
    let (queued_makespan, _) = scenario_makespan(false);
    let (reallot_makespan, scenario_reallotted) = scenario_makespan(true);
    if reallot_makespan >= queued_makespan - 1e-9 || scenario_reallotted == 0 {
        gate_failures.push(format!(
            "reallotment gate: scenario makespan {reallot_makespan:.4} (reallotted \
             {scenario_reallotted}) does not beat queued-only {queued_makespan:.4}"
        ));
    }
    reallotment_cells.push(json!({
        "family": "running-reallotment-scenario",
        "queued_makespan": queued_makespan,
        "reallot_makespan": reallot_makespan,
        "reallotted_commitments": scenario_reallotted,
    }));

    // Section 5: one fully recorded run through the re-allotting engine —
    // the decision-latency and throughput surface of the telemetry
    // subsystem, gated on a clean (violation-free) event stream.
    let mut telemetry_cells: Vec<Value> = Vec::new();
    for family in bursty_suite().iter().filter(|f| !f.has_departures()) {
        let recorder = telemetry::CollectingRecorder::shared();
        let kind = PolicyKind::Epoch {
            period: 1.0,
            solver: registry.get("mrt").expect("registered"),
        };
        let mut policy = kind
            .build_with(PolicyOptions {
                preempt_queued: true,
                preempt_running: true,
                recorder: Some(recorder.clone() as telemetry::SharedRecorder),
                ..PolicyOptions::default()
            })
            .expect("valid policy");
        let trace = family.trace(0);
        let epoch_period = policy.epoch();
        let result = online::run_recorded(&trace, policy.as_mut(), recorder.as_ref())
            .expect("recorded engine run succeeds");
        let summary = online::summarize(&recorder, &result, epoch_period);
        if summary.invariant_violations != 0 {
            gate_failures.push(format!(
                "telemetry gate: {} recorded {} invariant violation(s)",
                family.name, summary.invariant_violations
            ));
        }
        telemetry_cells.push(json!({
            "family": family.name,
            "tasks": trace.len(),
            "summary": summary.to_json(),
        }));
    }

    // Section 6: graceful degradation under faults.  Each bursty family is
    // replayed through the fault-tolerant engine at three intensities —
    // fault-free (the baseline of the 2× gate), light, and heavy — under
    // seeded crash/repair outages plus per-attempt task failures, with the
    // default retry policy.  The fault-aware validator runs on every seed.
    let mut fault_cells: Vec<Value> = Vec::new();
    let intensities: [(&str, Option<f64>, f64); 3] = [
        ("fault-free", None, 0.0),
        ("light", Some(24.0), 0.05),
        ("heavy", Some(10.0), 0.2),
    ];
    for family in bursty_suite() {
        let mut fault_free_makespans: Vec<f64> = Vec::new();
        for (label, mtbf, failure_rate) in intensities {
            let retry = RetryPolicy::default();
            let mut makespans: Vec<f64> = Vec::new();
            let mut goodputs: Vec<f64> = Vec::new();
            let (mut crashes, mut failures, mut abandoned) = (0usize, 0usize, 0usize);
            let mut wasted = 0.0f64;
            for seed in 0..seeds_per_cell {
                let trace = family.trace(seed);
                // Same horizon rule as the CLI: comfortably past the last
                // arrival so repairs land inside the run.
                let horizon = (trace.last_arrival() + 1.0) * 4.0;
                let plan = match mtbf {
                    Some(mtbf) => {
                        let mut config =
                            FaultConfig::new(trace.processors(), trace.len(), horizon, seed)
                                .with_crashes(mtbf, 2.0);
                        if failure_rate > 0.0 {
                            config = config.with_task_failures(failure_rate, retry.max_attempts);
                        }
                        FaultPlan::generate(&config).expect("valid fault config")
                    }
                    None => FaultPlan::empty(trace.processors(), horizon),
                };
                let mut policy = EpochReplan::mrt(1.0).expect("valid period");
                let result = online::run_with_faults(&trace, &mut policy, &plan, retry, None)
                    .expect("faulted engine run succeeds");
                let violations = malleable_core::check(&result.record(&trace));
                if !violations.is_empty() {
                    let violations: Vec<String> =
                        violations.iter().map(ToString::to_string).collect();
                    gate_failures.push(format!(
                        "faults gate: {} {label} seed {seed} invalid: {}",
                        family.name,
                        violations.join("; ")
                    ));
                }
                // No lost tasks: every submission either ran to completion,
                // departed, or was abandoned after exhausting its retries.
                let completed: HashSet<usize> =
                    result.schedule.entries().iter().map(|e| e.task).collect();
                if completed.len() + result.departed + result.abandoned.len() != trace.len() {
                    gate_failures.push(format!(
                        "faults gate: {} {label} seed {seed} lost tasks ({} completed + {} \
                         departed + {} abandoned != {})",
                        family.name,
                        completed.len(),
                        result.departed,
                        result.abandoned.len(),
                        trace.len()
                    ));
                }
                makespans.push(result.makespan);
                goodputs.push(result.goodput_fraction());
                crashes += result.crashes;
                failures += result.failures;
                abandoned += result.abandoned.len();
                wasted += result.wasted_integral;
            }
            let mean_makespan = summarize(&makespans).mean;
            if label == "fault-free" {
                fault_free_makespans = makespans.clone();
            } else if !family.has_departures() {
                // Graceful degradation: even the heavy intensity must stay
                // within 2× of the machine's own fault-free makespan.
                let baseline = summarize(&fault_free_makespans).mean;
                if mean_makespan > 2.0 * baseline + 1e-9 {
                    gate_failures.push(format!(
                        "faults gate: {} {label} mean makespan {mean_makespan:.4} exceeds 2x \
                         fault-free {baseline:.4}",
                        family.name
                    ));
                }
            }
            fault_cells.push(json!({
                "family": family.name,
                "intensity": label,
                "seeds": seeds_per_cell,
                "mtbf": mtbf,
                "task_failure_rate": failure_rate,
                "mean_makespan": mean_makespan,
                "mean_goodput": summarize(&goodputs).mean,
                "crashes": crashes,
                "task_failures": failures,
                "abandoned": abandoned,
                "wasted_integral": wasted,
            }));
        }
    }
    // The solver-degradation cell: the second epoch solve of a recorded
    // bursty run is forced to fail, and the `FallbackSolver` ladder must
    // absorb it — one degraded epoch, a valid schedule, no violations.
    {
        let recorder = telemetry::CollectingRecorder::shared();
        let ladder = Arc::new(
            FallbackSolver::new(Arc::new(FaultInjectingSolver::new(
                registry.get("mrt").expect("registered"),
                1,
                SolverFaultMode::Error,
            )))
            .with_recorder(recorder.clone() as telemetry::SharedRecorder),
        );
        let kind = PolicyKind::Epoch {
            period: 1.0,
            solver: ladder.clone(),
        };
        let mut policy = kind
            .build_with(PolicyOptions::default())
            .expect("valid policy");
        let family = &bursty_suite()[0];
        let trace = family.trace(0);
        let epoch_period = policy.epoch();
        let result = online::run_recorded(&trace, policy.as_mut(), recorder.as_ref())
            .expect("degraded engine run succeeds");
        assert!(
            online::validate_against_trace(&trace, &result.schedule).is_empty(),
            "invalid schedule from the degraded run"
        );
        let summary = online::summarize(&recorder, &result, epoch_period);
        if ladder.degraded() != 1 || summary.solver_degraded != 1 {
            gate_failures.push(format!(
                "faults gate: forced solver fault degraded {} epoch(s) (recorded {}), expected 1",
                ladder.degraded(),
                summary.solver_degraded
            ));
        }
        if summary.invariant_violations != 0 {
            gate_failures.push(format!(
                "faults gate: degraded run recorded {} invariant violation(s)",
                summary.invariant_violations
            ));
        }
        fault_cells.push(json!({
            "family": family.name,
            "intensity": "solver-fault",
            "tasks": trace.len(),
            "solver_degraded": summary.solver_degraded,
            "makespan": result.makespan,
            "invariant_violations": summary.invariant_violations,
        }));
    }

    let backfill_gate_ok = !gate_failures.iter().any(|f| f.starts_with("backfill"));
    let preemption_gate_ok = !gate_failures.iter().any(|f| f.starts_with("preemption"));
    let reallotment_gate_ok = !gate_failures.iter().any(|f| f.starts_with("reallotment"));
    let telemetry_gate_ok = !gate_failures.iter().any(|f| f.starts_with("telemetry"));
    let faults_gate_ok = !gate_failures.iter().any(|f| f.starts_with("faults"));
    let gates = json!({
        "backfill_mean_ratio_not_worse_on_bursty_suite": backfill_gate_ok,
        "preemption_beats_plain_on_scenario": preemption_gate_ok,
        "reallotment_beats_preempt_queued_on_bursty_overload": reallotment_gate_ok,
        "telemetry_zero_invariant_violations": telemetry_gate_ok,
        "faults_degrade_gracefully_on_bursty_suite": faults_gate_ok,
    });
    let doc = json!({
        "report": "online-competitive-ratio",
        "cells": cells,
        "backfill": backfill_cells,
        "preemption": preemption_cells,
        "reallotment": reallotment_cells,
        "telemetry": telemetry_cells,
        "faults": fault_cells,
        "gates": gates,
    });
    println!(
        "{}",
        serde_json::to_string_pretty(&doc).expect("report serialisation")
    );

    if !gate_failures.is_empty() {
        for failure in &gate_failures {
            eprintln!("GATE FAILURE: {failure}");
        }
        std::process::exit(1);
    }
}
