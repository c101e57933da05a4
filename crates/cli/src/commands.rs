//! Execution of the parsed CLI commands.

use std::fmt;
use std::fs;
// The prelude glob exports `malleable_core::Result`; this command layer deals
// with its own error type, so pull the standard `Result` back into scope.
use std::result::Result;

use malleable_core::prelude::*;
use malleable_core::validate::{check, RunRecord};
use online::{
    competitive_report, run_sharded, trace_record, CollectingSink, EpochReplan, OnlinePolicy,
    PolicyKind, PolicyOptions, ShardedConfig,
};
use serde_json::{json, Value};
use simulator::{render_gantt, simulate};
use solver::{FallbackSolver, FaultInjectingSolver, SolverFaultMode};
use telemetry::{CollectingRecorder, Recorder, SharedRecorder};
use workload::{
    describe, instance_from_json, instance_to_json, trace_from_json, trace_to_json, ArrivalPattern,
    ArrivalTrace, DeparturePolicy, FaultConfig, FaultPlan, RetryPolicy, TraceConfig,
    WorkloadConfig, WorkloadGenerator,
};

use crate::args::{
    Cli, Command, FamilyChoice, ParseError, PatternChoice, PolicyChoice, SearchChoice, USAGE,
};
use crate::schedule_io::{schedule_from_json, schedule_to_json};

/// Errors produced while executing a command.
#[derive(Debug)]
pub enum CliError {
    /// The command line did not parse.
    Parse(ParseError),
    /// A file could not be read or written.
    Io { path: String, message: String },
    /// An input document could not be interpreted.
    Invalid(String),
    /// Scheduling failed.
    Scheduling(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Parse(e) => write!(f, "{e}\n\n{USAGE}"),
            CliError::Io { path, message } => write!(f, "cannot access `{path}`: {message}"),
            CliError::Invalid(message) => write!(f, "invalid input: {message}"),
            CliError::Scheduling(message) => write!(f, "scheduling failed: {message}"),
        }
    }
}

impl std::error::Error for CliError {}

fn read_file(path: &str) -> Result<String, CliError> {
    fs::read_to_string(path).map_err(|e| CliError::Io {
        path: path.to_string(),
        message: e.to_string(),
    })
}

fn write_file(path: &str, content: &str) -> Result<(), CliError> {
    fs::write(path, content).map_err(|e| CliError::Io {
        path: path.to_string(),
        message: e.to_string(),
    })
}

fn load_instance(path: &str) -> Result<Instance, CliError> {
    let text = read_file(path)?;
    instance_from_json(&text).map_err(|e| CliError::Invalid(format!("{path}: {e}")))
}

/// Execute a parsed command and return the text to print.
pub fn run(cli: &Cli) -> Result<String, CliError> {
    match &cli.command {
        Command::Help => Ok(USAGE.to_string()),
        Command::Generate {
            family,
            tasks,
            processors,
            seed,
            output,
        } => generate(*family, *tasks, *processors, *seed, output.as_deref()),
        Command::Schedule {
            instance,
            solver,
            search,
            machine_classes,
            gantt,
            output,
        } => schedule(
            instance,
            solver,
            *search,
            machine_classes.as_deref(),
            *gantt,
            output.as_deref(),
        ),
        Command::Validate { instance, schedule } => validate(instance, schedule),
        Command::Bounds { instance } => print_bounds(instance),
        Command::Solvers => Ok(list_solvers()),
        Command::Trace {
            family,
            pattern,
            tasks,
            processors,
            seed,
            departure_patience,
            output,
        } => generate_trace(
            *family,
            *pattern,
            *tasks,
            *processors,
            *seed,
            *departure_patience,
            output.as_deref(),
        ),
        Command::Online {
            trace,
            policy,
            solver,
            search,
            epoch,
            shards,
            delta_plan,
            backfill,
            preempt_queued,
            preempt_running,
            machine_classes,
            family,
            pattern,
            tasks,
            processors,
            seed,
            departure_patience,
            mtbf,
            mttr,
            task_failure_rate,
            max_attempts,
            retry_backoff,
            fault_seed,
            solver_fault,
            telemetry,
            json,
            no_validate,
            output,
        } => run_online(OnlineArgs {
            trace: trace.as_deref(),
            policy: *policy,
            solver,
            search: *search,
            epoch: *epoch,
            shards: *shards,
            delta_plan: *delta_plan,
            backfill: *backfill,
            preempt_queued: *preempt_queued,
            preempt_running: *preempt_running,
            machine_classes: machine_classes.as_deref(),
            family: *family,
            pattern: *pattern,
            tasks: *tasks,
            processors: *processors,
            seed: *seed,
            departure_patience: *departure_patience,
            mtbf: *mtbf,
            mttr: *mttr,
            task_failure_rate: *task_failure_rate,
            max_attempts: *max_attempts,
            retry_backoff: *retry_backoff,
            fault_seed: *fault_seed,
            solver_fault: *solver_fault,
            telemetry: telemetry.as_deref(),
            json: *json,
            no_validate: *no_validate,
            output: output.as_deref(),
        }),
    }
}

fn trace_config(
    family: FamilyChoice,
    pattern: PatternChoice,
    tasks: usize,
    processors: usize,
    seed: u64,
) -> TraceConfig {
    let workload = match family {
        FamilyChoice::Mixed => WorkloadConfig::mixed(tasks, processors, seed),
        FamilyChoice::Wide => WorkloadConfig::wide_tasks(tasks, processors, seed),
        FamilyChoice::Sequential => WorkloadConfig::sequential_heavy(tasks, processors, seed),
    };
    let pattern = match pattern {
        PatternChoice::Poisson { rate } => ArrivalPattern::Poisson { rate },
        PatternChoice::Bursty {
            burst_size,
            burst_gap,
        } => ArrivalPattern::Bursty {
            burst_size,
            burst_gap,
        },
    };
    TraceConfig { workload, pattern }
}

/// Generate the trace of the given flags, attaching departures when asked.
fn build_trace(
    family: FamilyChoice,
    pattern: PatternChoice,
    tasks: usize,
    processors: usize,
    seed: u64,
    departure_patience: Option<f64>,
) -> Result<ArrivalTrace, CliError> {
    let config = trace_config(family, pattern, tasks, processors, seed);
    let trace = ArrivalTrace::generate(&config).map_err(|e| CliError::Invalid(e.to_string()))?;
    match departure_patience {
        Some(mean) => trace
            .with_departures(DeparturePolicy::Patience { mean }, seed)
            .map_err(|e| CliError::Invalid(e.to_string())),
        None => Ok(trace),
    }
}

fn generate_trace(
    family: FamilyChoice,
    pattern: PatternChoice,
    tasks: usize,
    processors: usize,
    seed: u64,
    departure_patience: Option<f64>,
    output: Option<&str>,
) -> Result<String, CliError> {
    let trace = build_trace(family, pattern, tasks, processors, seed, departure_patience)?;
    let json = trace_to_json(&trace);
    match output {
        Some(path) => {
            write_file(path, &json)?;
            Ok(format!(
                "wrote {} arrivals on {} processors (last arrival {:.4}{}) to {path}\n",
                trace.len(),
                trace.processors(),
                trace.last_arrival(),
                if trace.has_departures() {
                    ", with departures"
                } else {
                    ""
                }
            ))
        }
        None => Ok(json),
    }
}

struct OnlineArgs<'a> {
    trace: Option<&'a str>,
    policy: PolicyChoice,
    solver: &'a str,
    search: SearchChoice,
    epoch: f64,
    shards: usize,
    delta_plan: bool,
    backfill: bool,
    preempt_queued: bool,
    preempt_running: bool,
    machine_classes: Option<&'a str>,
    family: FamilyChoice,
    pattern: PatternChoice,
    tasks: usize,
    processors: usize,
    seed: u64,
    departure_patience: Option<f64>,
    mtbf: Option<f64>,
    mttr: f64,
    task_failure_rate: f64,
    max_attempts: usize,
    retry_backoff: f64,
    fault_seed: Option<u64>,
    solver_fault: Option<usize>,
    telemetry: Option<&'a str>,
    json: bool,
    no_validate: bool,
    output: Option<&'a str>,
}

fn run_online(args: OnlineArgs) -> Result<String, CliError> {
    if args.shards == 0 {
        return Err(CliError::Invalid(
            "--shards must be at least 1 (use --shards 1 for the single-shard \
             event-driven engine)"
                .to_string(),
        ));
    }
    if args.delta_plan
        && (args.policy != PolicyChoice::Epoch || !(args.preempt_queued || args.preempt_running))
    {
        return Err(CliError::Invalid(
            "--delta-plan only affects preemptive epoch policies; combine it with an \
             epoch policy (--policy epoch-mrt) and --preempt-queued or --preempt-running"
                .to_string(),
        ));
    }
    if let Some(spec) = args.machine_classes {
        if args.shards > 1 {
            return Err(CliError::Invalid(
                "--shards cannot be combined with --machine-classes; the classed engine \
                 has its own per-class pools"
                    .to_string(),
            ));
        }
        return run_online_classed(&args, spec);
    }
    if args.shards > 1 {
        return run_online_sharded(&args);
    }
    let trace = match args.trace {
        Some(path) => {
            let text = read_file(path)?;
            trace_from_json(&text).map_err(|e| CliError::Invalid(format!("{path}: {e}")))?
        }
        None => build_trace(
            args.family,
            args.pattern,
            args.tasks,
            args.processors,
            args.seed,
            args.departure_patience,
        )?,
    };

    // The engine-level fault plan (crashes and task failures) is built only
    // when a fault flag asks for one; the forced solver fault degrades
    // through the solver wrap below and needs no plan.
    let faults_enabled =
        args.mtbf.is_some() || args.task_failure_rate > 0.0 || args.solver_fault.is_some();
    let fault_plan = if args.mtbf.is_some() || args.task_failure_rate > 0.0 {
        // Outages renew over a horizon generously past the last arrival so
        // late work still sees crashes.
        let horizon = (trace.last_arrival() + 1.0) * 4.0;
        let mut config = FaultConfig::new(
            trace.processors(),
            trace.len(),
            horizon,
            args.fault_seed.unwrap_or(args.seed),
        );
        if let Some(mtbf) = args.mtbf {
            config = config.with_crashes(mtbf, args.mttr);
        }
        if args.task_failure_rate > 0.0 {
            config = config.with_task_failures(args.task_failure_rate, args.max_attempts);
        }
        Some(FaultPlan::generate(&config).map_err(|e| CliError::Invalid(e.to_string()))?)
    } else {
        None
    };
    let retry = RetryPolicy {
        max_attempts: args.max_attempts,
        base_backoff: args.retry_backoff,
        multiplier: 2.0,
        max_backoff: args.retry_backoff * 16.0,
    };

    let mut solver = resolve_solver(args.solver)?;
    // One recorder handle shared between the engine and the policy, so the
    // workspace counters and the engine events land in the same stream.
    // Fault runs always record (the chaos gates read the counters) even
    // when no --telemetry path was given.
    let recorder = (args.telemetry.is_some() || faults_enabled).then(CollectingRecorder::shared);
    if faults_enabled {
        // Degradation ladder: an optional forced fault on the K-th solve,
        // then the greedy-list fallback catching errors and budget blows.
        if let Some(target) = args.solver_fault {
            solver = std::sync::Arc::new(FaultInjectingSolver::new(
                solver,
                target.saturating_sub(1),
                SolverFaultMode::Error,
            ));
        }
        let mut fallback = FallbackSolver::new(solver);
        if let Some(handle) = &recorder {
            fallback = fallback.with_recorder(handle.clone() as SharedRecorder);
        }
        solver = std::sync::Arc::new(fallback);
    }
    let options = PolicyOptions {
        backfill: args.backfill,
        preempt_queued: args.preempt_queued,
        preempt_running: args.preempt_running,
        delta_plan: args.delta_plan,
        recorder: recorder.clone().map(|handle| handle as SharedRecorder),
    };
    let mut policy: Box<dyn OnlinePolicy> = match args.policy {
        PolicyChoice::Greedy => PolicyKind::Greedy
            .build_with(options)
            .map_err(|e| CliError::Invalid(e.to_string()))?,
        // The epoch policy is built directly so warm-start-capable solvers
        // can honour the --search flag.
        PolicyChoice::Epoch => {
            let mut epoch_policy = EpochReplan::with_solver(args.epoch, solver)
                .map_err(|e| CliError::Invalid(e.to_string()))?
                .with_search(search_mode(args.search))
                .with_backfill(args.backfill)
                .with_preempt_queued(args.preempt_queued)
                .with_preempt_running(args.preempt_running)
                .with_delta_planning(args.delta_plan);
            if let Some(handle) = &recorder {
                epoch_policy = epoch_policy.with_recorder(handle.clone() as SharedRecorder);
            }
            Box::new(epoch_policy)
        }
        PolicyChoice::Batch => PolicyKind::Batch { solver }
            .build_with(options)
            .map_err(|e| CliError::Invalid(e.to_string()))?,
    };
    let epoch_period = policy.epoch();
    let result = match (&fault_plan, &recorder) {
        (Some(plan), handle) => online::run_with_faults(
            &trace,
            policy.as_mut(),
            plan,
            retry,
            handle.as_ref().map(|h| h.as_ref() as &dyn Recorder),
        ),
        (None, Some(handle)) => online::run_recorded(&trace, policy.as_mut(), handle.as_ref()),
        (None, None) => online::run(&trace, policy.as_mut()),
    }
    .map_err(|e| CliError::Scheduling(e.to_string()))?;
    let report =
        competitive_report(&trace, &result).map_err(|e| CliError::Scheduling(e.to_string()))?;

    // Write the event stream when asked, and build the summary both output
    // modes share whenever a recorder ran.
    if let (Some(handle), Some(path)) = (&recorder, args.telemetry) {
        let mut buffer = Vec::new();
        handle.write_jsonl(&mut buffer).map_err(|e| CliError::Io {
            path: path.to_string(),
            message: e.to_string(),
        })?;
        let text =
            String::from_utf8(buffer).expect("JSONL telemetry streams are UTF-8 by construction");
        write_file(path, &text)?;
    }
    let summary = recorder
        .as_ref()
        .map(|handle| online::summarize(handle, &result, epoch_period));

    // The run's record carries its wasted segments, outages and abandoned
    // tasks, so one check covers fault runs too.
    let validated = !args.no_validate;
    if validated {
        require_valid("INVALID online schedule", &result.record(&trace))?;
    }

    if let Some(path) = args.output {
        write_file(path, &schedule_to_json(&result.schedule))?;
    }

    let out = if args.json {
        // Machine-readable mode: stdout is exactly one JSON document (the
        // schedule path travels inside it, not as a trailing text line).
        let doc = json!({
            "policy": result.policy.clone(),
            "tasks": trace.len(),
            "processors": trace.processors(),
            "last_arrival": report.last_arrival,
            "online_makespan": report.online_makespan,
            "offline_mrt_makespan": report.offline_makespan,
            "certified_lower_bound": report.certified_lower_bound,
            "ratio_vs_offline": report.ratio_vs_offline,
            "ratio_vs_lower_bound": report.ratio_vs_lower_bound,
            "mean_flow_time": result.mean_flow_time,
            "max_flow_time": result.max_flow_time,
            "utilization": result.utilization(),
            "replans": result.replans,
            "events": result.events,
            "departed": result.departed,
            "preempted": result.preempted,
            "reallotted": result.reallotted,
            "time_weighted_utilization": result.time_weighted_utilization(),
            "nominal_utilization": result.nominal_utilization(),
            "completed": trace.len() - result.departed - result.abandoned.len(),
            "crashes": result.crashes,
            "repairs": result.repairs,
            "task_failures": result.failures,
            "retries_exhausted": result.retries_exhausted,
            "wasted_integral": result.wasted_integral,
            "goodput": result.goodput_fraction(),
            "validated": validated,
            "schedule_file": args.output,
            "telemetry_file": args.telemetry,
            "telemetry": summary.as_ref().map_or(Value::Null, |s| s.to_json()),
        });
        let mut text = serde_json::to_string_pretty(&doc).expect("report serialisation");
        text.push('\n');
        text
    } else {
        // Ratios are absent when every task departed before starting.
        let ratio = |r: Option<f64>| match r {
            Some(r) => format!("{r:.4}"),
            None => "n/a (all tasks departed)".to_string(),
        };
        let mut text = format!(
            "policy           : {}\ntrace            : {} tasks on {} processors (last arrival {:.4})\nonline makespan  : {:.4}\noffline mrt      : {:.4}\ncertified LB     : {:.4}\nratio vs offline : {}\nratio vs LB      : {}\nmean flow time   : {:.4}\nmax flow time    : {:.4}\nutilisation      : {:.1}%\nreplans          : {}\nevents           : {}\ndeparted         : {}\npreempted        : {}\nreallotted       : {}\nvalidation       : {}\n",
            result.policy,
            trace.len(),
            trace.processors(),
            report.last_arrival,
            report.online_makespan,
            report.offline_makespan,
            report.certified_lower_bound,
            ratio(report.ratio_vs_offline),
            ratio(report.ratio_vs_lower_bound),
            result.mean_flow_time,
            result.max_flow_time,
            100.0 * result.utilization(),
            result.replans,
            result.events,
            result.departed,
            result.preempted,
            result.reallotted,
            if validated { "OK" } else { "skipped" },
        );
        if faults_enabled {
            text.push_str(&format!(
                "faults           : {} crashes, {} repairs, {} task failures, {} abandoned\ngoodput          : {:.3} ({:.3} processor-time wasted)\n",
                result.crashes,
                result.repairs,
                result.failures,
                result.retries_exhausted,
                result.goodput_fraction(),
                result.wasted_integral,
            ));
        }
        if let Some(summary) = &summary {
            text.push_str("\ntelemetry\n");
            for line in summary.render_table() {
                text.push_str("  ");
                text.push_str(&line);
                text.push('\n');
            }
            if let Some(path) = args.telemetry {
                text.push_str(&format!("telemetry stream written to {path}\n"));
            }
        }
        text
    };
    match args.output {
        Some(path) if !args.json => Ok(out + &format!("schedule written to {path}\n")),
        _ => Ok(out),
    }
}

/// The `--shards N` branch of `online`: partition the cluster into N
/// per-shard timelines and run the sharded parallel engine (concurrent
/// epoch solves, work stealing at epoch boundaries), reporting the
/// shard-level breakdown next to the usual metrics.
fn run_online_sharded(args: &OnlineArgs) -> Result<String, CliError> {
    if args.policy != PolicyChoice::Epoch {
        return Err(CliError::Invalid(
            "--shards runs the sharded epoch engine; pick an epoch policy \
             (--policy epoch-mrt)"
                .to_string(),
        ));
    }
    if args.mtbf.is_some() || args.task_failure_rate > 0.0 || args.solver_fault.is_some() {
        return Err(CliError::Invalid(
            "--shards cannot be combined with the fault-injection flags \
             (--mtbf, --task-failure-rate, --solver-fault)"
                .to_string(),
        ));
    }
    if args.preempt_queued || args.preempt_running || args.delta_plan {
        return Err(CliError::Invalid(
            "--shards cannot be combined with the preemption flags or --delta-plan; \
             shard epochs plan arrivals only"
                .to_string(),
        ));
    }
    if args.departure_patience.is_some() {
        return Err(CliError::Invalid(
            "--shards cannot be combined with --departure-patience; the sharded \
             engine does not model departures"
                .to_string(),
        ));
    }
    let trace = match args.trace {
        Some(path) => {
            let text = read_file(path)?;
            trace_from_json(&text).map_err(|e| CliError::Invalid(format!("{path}: {e}")))?
        }
        None => build_trace(
            args.family,
            args.pattern,
            args.tasks,
            args.processors,
            args.seed,
            None,
        )?,
    };
    if trace.has_departures() {
        return Err(CliError::Invalid(
            "the sharded engine does not model departures; re-generate the trace \
             without them"
                .to_string(),
        ));
    }
    let solver = resolve_solver(args.solver)?;
    let mut config =
        ShardedConfig::new(args.shards, args.epoch, solver).with_backfill(args.backfill);
    config.search = search_mode(args.search);
    let recorder = args.telemetry.is_some().then(CollectingRecorder::shared);
    let mut sink = CollectingSink::new(trace.processors());
    let result = run_sharded(
        &trace,
        &config,
        &mut sink,
        recorder.clone().map(|handle| handle as SharedRecorder),
    )
    .map_err(|e| CliError::Scheduling(e.to_string()))?;
    let schedule = sink.into_schedule();

    let validated = !args.no_validate;
    if validated {
        require_valid(
            "INVALID sharded online schedule",
            &trace_record(&trace, &schedule),
        )?;
    }
    if let (Some(handle), Some(path)) = (&recorder, args.telemetry) {
        let mut buffer = Vec::new();
        handle.write_jsonl(&mut buffer).map_err(|e| CliError::Io {
            path: path.to_string(),
            message: e.to_string(),
        })?;
        let text =
            String::from_utf8(buffer).expect("JSONL telemetry streams are UTF-8 by construction");
        write_file(path, &text)?;
    }
    if let Some(path) = args.output {
        write_file(path, &schedule_to_json(&schedule))?;
    }

    let out = if args.json {
        let per_shard: Vec<Value> = result
            .per_shard
            .iter()
            .map(|s| {
                json!({
                    "shard": s.shard,
                    "first_processor": s.first_processor,
                    "processors": s.processors,
                    "placements": s.placements,
                    "solves": s.solves,
                    "solve_ns": s.solve_ns,
                    "probes": s.probes,
                    "steals_in": s.steals_in,
                    "steals_out": s.steals_out,
                    "makespan": s.makespan,
                })
            })
            .collect();
        let doc = json!({
            "policy": result.policy.clone(),
            "shards": result.shards,
            "tasks": trace.len(),
            "processors": trace.processors(),
            "last_arrival": trace.last_arrival(),
            "placed": result.placed,
            "online_makespan": result.makespan,
            "mean_flow_time": result.mean_flow_time,
            "max_flow_time": result.max_flow_time,
            "utilization": result.utilization(trace.processors()),
            "rounds": result.rounds,
            "solves": result.solves,
            "steals": result.steals,
            "solve_critical_ns": result.solve_critical_ns,
            "solve_total_ns": result.solve_total_ns,
            "run_ns": result.run_ns,
            "invariant_violations": result.invariant_violations,
            "per_shard": per_shard,
            "validated": validated,
            "schedule_file": args.output,
            "telemetry_file": args.telemetry,
        });
        let mut text = serde_json::to_string_pretty(&doc).expect("report serialisation");
        text.push('\n');
        text
    } else {
        let mut text = format!(
            "policy           : {}\ntrace            : {} tasks on {} processors (last arrival {:.4})\nonline makespan  : {:.4}\nmean flow time   : {:.4}\nmax flow time    : {:.4}\nutilisation      : {:.1}%\nrounds           : {}\nsolves           : {}\nsteals           : {}\nsolve critical   : {:.3} ms (total {:.3} ms across shards)\nvalidation       : {}\n",
            result.policy,
            trace.len(),
            trace.processors(),
            trace.last_arrival(),
            result.makespan,
            result.mean_flow_time,
            result.max_flow_time,
            100.0 * result.utilization(trace.processors()),
            result.rounds,
            result.solves,
            result.steals,
            result.solve_critical_ns as f64 / 1e6,
            result.solve_total_ns as f64 / 1e6,
            if validated { "OK" } else { "skipped" },
        );
        for s in &result.per_shard {
            text.push_str(&format!(
                "  shard {}: p{}..p{} — {} placed over {} solves, {} stolen in / {} out, makespan {:.4}\n",
                s.shard,
                s.first_processor,
                s.first_processor + s.processors - 1,
                s.placements,
                s.solves,
                s.steals_in,
                s.steals_out,
                s.makespan,
            ));
        }
        if let Some(path) = args.telemetry {
            text.push_str(&format!("telemetry stream written to {path}\n"));
        }
        text
    };
    match args.output {
        Some(path) if !args.json => Ok(out + &format!("schedule written to {path}\n")),
        _ => Ok(out),
    }
}

/// The `--machine-classes` branch of `online`: run the classed epoch
/// engine (per-class pools, queued-task migration between classes) over
/// the trace and report per-class utilisation next to the usual metrics.
fn run_online_classed(args: &OnlineArgs, spec: &str) -> Result<String, CliError> {
    if args.policy != PolicyChoice::Epoch {
        return Err(CliError::Invalid(
            "--machine-classes runs the classed epoch engine; pick an epoch policy \
             (--policy epoch-mrt)"
                .to_string(),
        ));
    }
    if args.mtbf.is_some() || args.task_failure_rate > 0.0 || args.solver_fault.is_some() {
        return Err(CliError::Invalid(
            "--machine-classes cannot be combined with the fault-injection flags \
             (--mtbf, --task-failure-rate, --solver-fault)"
                .to_string(),
        ));
    }
    if args.backfill || args.preempt_queued || args.preempt_running {
        return Err(CliError::Invalid(
            "--machine-classes cannot be combined with --backfill or the preemption \
             flags; the classed engine replans queued tasks at every epoch"
                .to_string(),
        ));
    }
    if args.departure_patience.is_some() {
        return Err(CliError::Invalid(
            "--machine-classes cannot be combined with --departure-patience".to_string(),
        ));
    }
    let trace = match args.trace {
        Some(path) => {
            let text = read_file(path)?;
            trace_from_json(&text).map_err(|e| CliError::Invalid(format!("{path}: {e}")))?
        }
        None => build_trace(
            args.family,
            args.pattern,
            args.tasks,
            args.processors,
            args.seed,
            None,
        )?,
    };
    if trace.has_departures() {
        return Err(CliError::Invalid(
            "the classed engine does not model departures; re-generate the trace \
             without them"
                .to_string(),
        ));
    }
    let cluster =
        hetero::ClassedCluster::from_spec(spec).map_err(|e| CliError::Invalid(e.to_string()))?;
    // `--solver hetero-greedy` picks the density baseline; every other
    // solver token (including the epoch-policy default `mrt`) gets the LP
    // assignment — the per-class allotment solves are always MRT.
    let strategy = if args.solver == "hetero-greedy" {
        hetero::AssignStrategy::GreedyDensity
    } else {
        hetero::AssignStrategy::Lp
    };
    let recorder = args.telemetry.is_some().then(CollectingRecorder::shared);
    let options = hetero::ClassedEngineOptions {
        epoch: args.epoch,
        strategy,
        search: search_mode(args.search),
        recorder: recorder.clone().map(|handle| handle as SharedRecorder),
    };
    let result = hetero::run_classed(&trace, &cluster, &options)
        .map_err(|e| CliError::Scheduling(e.to_string()))?;

    let validated = !args.no_validate;
    if validated {
        require_valid("INVALID classed online schedule", &result.record(&trace))?;
    }

    // The classed lower bound (critical path over best classes ∨ weighted
    // area) plays the role the certified LB plays in the flat report.
    let instance = trace
        .instance()
        .map_err(|e| CliError::Invalid(e.to_string()))?;
    let lower_bound = hetero::HeteroInstance::from_instance(&instance, cluster.clone())
        .map_err(|e| CliError::Invalid(e.to_string()))?
        .lower_bound();
    let ratio = (lower_bound > 0.0).then(|| result.makespan / lower_bound);

    if let (Some(handle), Some(path)) = (&recorder, args.telemetry) {
        let mut buffer = Vec::new();
        handle.write_jsonl(&mut buffer).map_err(|e| CliError::Io {
            path: path.to_string(),
            message: e.to_string(),
        })?;
        let text =
            String::from_utf8(buffer).expect("JSONL telemetry streams are UTF-8 by construction");
        write_file(path, &text)?;
    }
    if let Some(path) = args.output {
        write_file(path, &schedule_to_json(&result.schedule))?;
    }

    let out = if args.json {
        let classes: Vec<Value> = cluster
            .classes()
            .iter()
            .enumerate()
            .map(|(index, class)| {
                json!({
                    "name": class.name.clone(),
                    "count": class.count,
                    "speed": class.speed,
                    "utilization": result.class_utilization(index),
                })
            })
            .collect();
        let doc = json!({
            "policy": format!("classed-epoch ({})", strategy.name()),
            "machine_classes": cluster.spec(),
            "tasks": trace.len(),
            "processors": trace.processors(),
            "last_arrival": trace.last_arrival(),
            "online_makespan": result.makespan,
            "lower_bound": lower_bound,
            "ratio_vs_lower_bound": ratio,
            "mean_flow_time": result.mean_flow_time,
            "migrations": result.migrations,
            "replans": result.replans,
            "classes": classes,
            "validated": validated,
            "schedule_file": args.output,
            "telemetry_file": args.telemetry,
        });
        let mut text = serde_json::to_string_pretty(&doc).expect("report serialisation");
        text.push('\n');
        text
    } else {
        let mut text = format!(
            "policy           : classed-epoch ({})\ncluster          : {} ({} processors, capacity {:.1})\ntrace            : {} tasks (last arrival {:.4})\nonline makespan  : {:.4}\nclassed LB       : {:.4}\nratio vs LB      : {}\nmean flow time   : {:.4}\nmigrations       : {}\nreplans          : {}\n",
            strategy.name(),
            cluster.spec(),
            cluster.total_processors(),
            cluster.total_capacity(),
            trace.len(),
            trace.last_arrival(),
            result.makespan,
            lower_bound,
            ratio.map_or_else(|| "n/a".to_string(), |r| format!("{r:.4}")),
            result.mean_flow_time,
            result.migrations,
            result.replans,
        );
        for (index, class) in cluster.classes().iter().enumerate() {
            text.push_str(&format!(
                "  class {:<8} : {} × speed {:.2}, utilisation {:.1}%\n",
                class.name,
                class.count,
                class.speed,
                100.0 * result.class_utilization(index),
            ));
        }
        text.push_str(&format!(
            "validation       : {}\n",
            if validated { "OK" } else { "skipped" },
        ));
        if let Some(path) = args.telemetry {
            text.push_str(&format!("telemetry stream written to {path}\n"));
        }
        text
    };
    match args.output {
        Some(path) if !args.json => Ok(out + &format!("schedule written to {path}\n")),
        _ => Ok(out),
    }
}

fn generate(
    family: FamilyChoice,
    tasks: usize,
    processors: usize,
    seed: u64,
    output: Option<&str>,
) -> Result<String, CliError> {
    let config = match family {
        FamilyChoice::Mixed => WorkloadConfig::mixed(tasks, processors, seed),
        FamilyChoice::Wide => WorkloadConfig::wide_tasks(tasks, processors, seed),
        FamilyChoice::Sequential => WorkloadConfig::sequential_heavy(tasks, processors, seed),
    };
    let instance = WorkloadGenerator::new(config)
        .generate()
        .map_err(|e| CliError::Invalid(e.to_string()))?;
    let json = instance_to_json(&instance);
    match output {
        Some(path) => {
            write_file(path, &json)?;
            Ok(format!(
                "wrote {} tasks on {} processors to {path}\n",
                instance.task_count(),
                instance.processors()
            ))
        }
        None => Ok(json),
    }
}

/// Map the CLI search flag onto the core search mode.
fn search_mode(choice: SearchChoice) -> SearchMode {
    match choice {
        SearchChoice::Exact => SearchMode::Exact,
        SearchChoice::Bisect => SearchMode::Bisect,
    }
}

/// Resolve a (parse-time validated) solver name against the registry.
fn resolve_solver(name: &str) -> Result<SolverHandle, CliError> {
    solver::default_registry().get(name).ok_or_else(|| {
        CliError::Invalid(format!(
            "solver `{name}` is not registered (run `malleable-sched solvers`)"
        ))
    })
}

/// The `solvers` subcommand: one table row per registry entry.
fn list_solvers() -> String {
    let registry = solver::default_registry();
    let mut out = format!(
        "{:<13} {:>9} {:>12} {:>8} {:>10}  {}\n",
        "solver", "guarantee", "certified-LB", "anytime", "warm-start", "aliases"
    );
    for handle in registry.solvers() {
        let caps = handle.capabilities();
        let yes_no = |b: bool| if b { "yes" } else { "no" };
        out.push_str(&format!(
            "{:<13} {:>9} {:>12} {:>8} {:>10}  {}\n",
            handle.name(),
            caps.guarantee
                .map_or_else(|| "-".to_string(), |g| format!("{g:.3}")),
            yes_no(caps.certified_lower_bound),
            yes_no(caps.anytime),
            yes_no(caps.supports_warm_start),
            registry.aliases(handle.name()).join(", "),
        ));
    }
    out
}

fn run_solver(
    name: &str,
    instance: &Instance,
    search: SearchChoice,
    machine_classes: Option<&str>,
) -> Result<SolveOutcome, CliError> {
    let handle = resolve_solver(name)?;
    let config = machine_classes.map(|spec| SolverConfig::new().with_text("machine-classes", spec));
    let mut request = SolveRequest::new(instance).with_mode(search_mode(search));
    if let Some(config) = &config {
        request = request.with_config(config);
    }
    handle
        .solve(&request)
        .map_err(|e| CliError::Scheduling(e.to_string()))
}

fn schedule(
    instance_path: &str,
    solver_name: &str,
    search: SearchChoice,
    machine_classes: Option<&str>,
    gantt: bool,
    output: Option<&str>,
) -> Result<String, CliError> {
    // Only the classed solvers read the `machine-classes` config key;
    // silently ignoring the spec elsewhere would misreport the makespan.
    if machine_classes.is_some() && !solver_name.starts_with("hetero") {
        return Err(CliError::Invalid(format!(
            "--machine-classes needs a classed solver, got `{solver_name}` \
             (use --solver hetero-lp or --solver hetero-greedy)"
        )));
    }
    let instance = load_instance(instance_path)?;
    let outcome = run_solver(solver_name, &instance, search, machine_classes)?;
    let trace = simulate(&instance, &outcome.schedule);

    let mut report = String::new();
    report.push_str(&format!(
        "solver           : {}\ninstance         : {} tasks on {} processors\nmakespan         : {:.4}\nlower bound      : {:.4}{}\nratio            : {:.4}\nprobes           : {}\nsolve time       : {:.3} ms\nutilisation      : {:.1}%\n",
        outcome.solver,
        instance.task_count(),
        instance.processors(),
        outcome.makespan(),
        outcome.lower_bound,
        if outcome.certified { " (certified)" } else { "" },
        outcome.ratio(),
        outcome.probes,
        outcome.wall_time.as_secs_f64() * 1e3,
        100.0 * trace.utilization,
    ));
    if gantt {
        report.push('\n');
        report.push_str(&render_gantt(&instance, &outcome.schedule, 72));
    }
    if let Some(path) = output {
        write_file(path, &schedule_to_json(&outcome.schedule))?;
        report.push_str(&format!("schedule written to {path}\n"));
    }
    Ok(report)
}

fn validate(instance_path: &str, schedule_path: &str) -> Result<String, CliError> {
    let instance = load_instance(instance_path)?;
    let schedule_text = read_file(schedule_path)?;
    let schedule = schedule_from_json(&schedule_text, &instance).map_err(CliError::Invalid)?;
    require_valid(
        "INVALID schedule",
        &RunRecord::offline(&instance, &schedule),
    )?;
    Ok(format!(
        "OK: {} tasks, makespan {:.4}, no violations\n",
        schedule.len(),
        schedule.makespan()
    ))
}

/// Fail with every violation of `record`, listed under `heading`.
fn require_valid(heading: &str, record: &RunRecord) -> Result<(), CliError> {
    let violations = check(record);
    if violations.is_empty() {
        return Ok(());
    }
    let mut out = format!("{heading}:\n");
    for violation in violations {
        out.push_str(&format!("  - {violation}\n"));
    }
    Err(CliError::Invalid(out))
}

fn print_bounds(instance_path: &str) -> Result<String, CliError> {
    let instance = load_instance(instance_path)?;
    let stats = describe(&instance);
    Ok(format!(
        "tasks             : {}\nprocessors        : {}\ntotal work        : {:.4}\nmean parallelism  : {:.2}\narea bound        : {:.4}\ncritical bound    : {:.4}\nlower bound       : {:.4}\nupper bound       : {:.4}\n",
        stats.tasks,
        stats.processors,
        stats.total_work,
        stats.mean_parallelism,
        stats.area_bound,
        stats.critical_bound,
        stats.lower_bound,
        stats.upper_bound,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_args;

    fn args(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    fn temp_path(name: &str) -> String {
        let dir = std::env::temp_dir().join("mrt-cli-tests");
        fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{}-{name}", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn help_prints_usage() {
        let out = run_args(&args(&["help"])).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn generate_schedule_validate_pipeline() {
        let instance_path = temp_path("instance.json");
        let schedule_path = temp_path("schedule.json");

        let out = run_args(&args(&[
            "generate",
            "--family",
            "mixed",
            "--tasks",
            "12",
            "--processors",
            "8",
            "--seed",
            "5",
            "--output",
            &instance_path,
        ]))
        .unwrap();
        assert!(out.contains("12 tasks"));

        let out = run_args(&args(&[
            "schedule",
            &instance_path,
            "--solver",
            "mrt",
            "--gantt",
            "--output",
            &schedule_path,
        ]))
        .unwrap();
        assert!(out.contains("makespan"));
        assert!(out.contains("P0"), "gantt output expected");

        let out = run_args(&args(&["validate", &instance_path, &schedule_path])).unwrap();
        assert!(out.starts_with("OK"));

        let out = run_args(&args(&["bounds", &instance_path])).unwrap();
        assert!(out.contains("lower bound"));

        fs::remove_file(instance_path).ok();
        fs::remove_file(schedule_path).ok();
    }

    #[test]
    fn validate_rejects_wrapping_blocks_and_foreign_machine_sizes() {
        let (instance_path, schedule_path) = (temp_path("m4.json"), temp_path("on-m4.json"));
        let instance =
            Instance::from_profiles(vec![SpeedupProfile::sequential(1.0).unwrap()], 4).unwrap();
        fs::write(&instance_path, instance_to_json(&instance)).unwrap();
        for (processors, first, needle) in [
            (4, usize::MAX, "beyond the declared 4-processor machine"),
            (64, 0, "schedule targets 64 processors, the machine has 4"),
        ] {
            let doc = format!(
                r#"{{"processors": {processors}, "tasks": [{{"task": 0, "start": 0,
                "duration": 1, "first_processor": {first}, "processors": 1}}]}}"#
            );
            fs::write(&schedule_path, doc).unwrap();
            let out = run_args(&args(&["validate", &instance_path, &schedule_path]));
            assert!(
                matches!(&out, Err(CliError::Invalid(message)) if message.contains(needle)),
                "{processors}: {out:?}"
            );
        }
        fs::remove_file(schedule_path).ok();
        fs::remove_file(instance_path).ok();
    }

    #[test]
    fn every_registered_solver_runs() {
        let instance_path = temp_path("algo-instance.json");
        run_args(&args(&[
            "generate",
            "--tasks",
            "8",
            "--processors",
            "4",
            "--seed",
            "1",
            "--output",
            &instance_path,
        ]))
        .unwrap();
        // Every solver in the registry is reachable via --solver (nothing is
        // hard-coded in the CLI).
        for name in solver::default_registry().names() {
            let out = run_args(&args(&["schedule", &instance_path, "--solver", name])).unwrap();
            assert!(out.contains("ratio"), "{name} did not report a ratio");
            assert!(out.contains(name), "{name} missing from the header: {out}");
            if name == "mrt" {
                assert!(out.contains("certified"), "mrt bound must be certified");
            }
        }
        fs::remove_file(instance_path).ok();
    }

    #[test]
    fn solvers_subcommand_lists_the_registry() {
        let out = run_args(&args(&["solvers"])).unwrap();
        for name in solver::default_registry().names() {
            assert!(out.contains(name), "{name} missing: {out}");
        }
        assert!(out.contains("guarantee"));
        assert!(out.contains("sqrt3"), "aliases should be listed");
    }

    #[test]
    fn schedule_runs_both_search_modes_and_parallel_branches() {
        let instance_path = temp_path("search-instance.json");
        run_args(&args(&[
            "generate",
            "--tasks",
            "14",
            "--processors",
            "8",
            "--seed",
            "4",
            "--output",
            &instance_path,
        ]))
        .unwrap();
        for search in ["exact", "bisect"] {
            let argv = [
                "schedule",
                instance_path.as_str(),
                "--solver",
                "mrt",
                "--search",
                search,
            ];
            let out = run_args(&args(&argv)).unwrap();
            assert!(out.contains("ratio"), "{argv:?}: {out}");
        }
        // The branches of a probe always run in order on one thread, so
        // there is no switch to run them in parallel.
        let argv = ["schedule", instance_path.as_str(), "--parallel-branches"];
        assert!(run_args(&args(&argv)).is_err(), "{argv:?}");
        fs::remove_file(instance_path).ok();
    }

    #[test]
    fn online_honours_the_search_flag() {
        for search in ["exact", "bisect"] {
            let out = run_args(&args(&[
                "online",
                "--policy",
                "epoch-mrt",
                "--search",
                search,
                "--tasks",
                "20",
                "--processors",
                "8",
                "--seed",
                "3",
                "--rate",
                "5",
            ]))
            .unwrap();
            assert!(out.contains("validation       : OK"), "{search}: {out}");
        }
    }

    #[test]
    fn online_sharded_runs_validate_and_report_shards() {
        for shards in ["2", "4"] {
            let out = run_args(&args(&[
                "online",
                "--policy",
                "epoch-mrt",
                "--shards",
                shards,
                "--pattern",
                "bursty",
                "--burst-size",
                "10",
                "--burst-gap",
                "2",
                "--tasks",
                "40",
                "--processors",
                "8",
                "--seed",
                "5",
            ]))
            .unwrap();
            assert!(out.contains("validation       : OK"), "{shards}: {out}");
            assert!(
                out.contains(&format!("sharded-epoch-mrt(d=1)x{shards}")),
                "{out}"
            );
            assert!(out.contains("shard 0: p0..p"), "{out}");
        }
        // --shards 1 stays on the event-driven engine (full report).
        let out = run_args(&args(&[
            "online",
            "--policy",
            "epoch-mrt",
            "--shards",
            "1",
            "--tasks",
            "20",
            "--processors",
            "8",
            "--seed",
            "5",
        ]))
        .unwrap();
        assert!(out.contains("ratio vs LB"), "{out}");
    }

    #[test]
    fn online_sharded_json_reports_per_shard_breakdown() {
        let out = run_args(&args(&[
            "online",
            "--policy",
            "epoch-mrt",
            "--shards",
            "4",
            "--tasks",
            "32",
            "--processors",
            "8",
            "--seed",
            "9",
            "--json",
        ]))
        .unwrap();
        let doc: Value = serde_json::from_str(&out).unwrap();
        assert_eq!(doc.get("shards").unwrap().as_u64(), Some(4));
        assert_eq!(doc.get("placed").unwrap().as_u64(), Some(32));
        assert_eq!(doc.get("invariant_violations").unwrap().as_u64(), Some(0));
        assert_eq!(doc.get("per_shard").unwrap().as_array().unwrap().len(), 4);
        assert!(doc.get("solve_critical_ns").unwrap().as_u64().unwrap() > 0);
    }

    #[test]
    fn sharded_and_delta_flags_reject_unsupported_combinations() {
        for argv in [
            // --shards needs an epoch policy and at least one shard.
            vec!["online", "--policy", "greedy", "--shards", "2"],
            vec!["online", "--policy", "epoch-mrt", "--shards", "0"],
            // ... and cannot mix with faults, classes, preemption or departures.
            vec![
                "online",
                "--policy",
                "epoch-mrt",
                "--shards",
                "2",
                "--mtbf",
                "4",
            ],
            vec![
                "online",
                "--policy",
                "epoch-mrt",
                "--shards",
                "2",
                "--machine-classes",
                "old=4x1.0,new=4x2.0",
            ],
            vec![
                "online",
                "--policy",
                "epoch-mrt",
                "--shards",
                "2",
                "--preempt-queued",
            ],
            vec![
                "online",
                "--policy",
                "epoch-mrt",
                "--shards",
                "2",
                "--departure-patience",
                "3",
            ],
            // --delta-plan needs a preemptive epoch policy.
            vec!["online", "--policy", "greedy", "--delta-plan"],
            vec!["online", "--policy", "epoch-mrt", "--delta-plan"],
        ] {
            assert!(run_args(&args(&argv)).is_err(), "{argv:?} should fail");
        }
    }

    #[test]
    fn online_delta_plan_runs_with_preemption() {
        let out = run_args(&args(&[
            "online",
            "--policy",
            "epoch-mrt",
            "--preempt-queued",
            "--delta-plan",
            "--tasks",
            "24",
            "--processors",
            "8",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert!(out.contains("validation       : OK"), "{out}");
        assert!(out.contains("+delta"), "{out}");
    }

    #[test]
    fn trace_online_pipeline_round_trips() {
        let trace_path = temp_path("trace.json");
        let schedule_path = temp_path("online-schedule.json");

        let out = run_args(&args(&[
            "trace",
            "--pattern",
            "poisson",
            "--rate",
            "3",
            "--tasks",
            "40",
            "--processors",
            "8",
            "--seed",
            "11",
            "--output",
            &trace_path,
        ]))
        .unwrap();
        assert!(out.contains("40 arrivals"));

        let out = run_args(&args(&[
            "online",
            "--policy",
            "epoch-mrt",
            "--epoch",
            "0.5",
            "--trace",
            &trace_path,
            "--output",
            &schedule_path,
        ]))
        .unwrap();
        assert!(out.contains("validation       : OK"), "{out}");
        assert!(out.contains("ratio vs LB"));

        // The emitted schedule validates offline against the trace instance.
        let text = fs::read_to_string(&trace_path).unwrap();
        let trace = workload::trace_from_json(&text).unwrap();
        let instance = trace.instance().unwrap();
        let schedule_text = fs::read_to_string(&schedule_path).unwrap();
        let schedule = crate::schedule_io::schedule_from_json(&schedule_text, &instance).unwrap();
        assert!(schedule.validate(&instance).is_ok());

        fs::remove_file(trace_path).ok();
        fs::remove_file(schedule_path).ok();
    }

    #[test]
    fn online_runs_every_policy_inline() {
        for policy in [
            "greedy",
            "epoch-mrt",
            "epoch-ludwig",
            "epoch-list",
            "batch-idle",
        ] {
            let out = run_args(&args(&[
                "online",
                "--policy",
                policy,
                "--tasks",
                "25",
                "--processors",
                "8",
                "--seed",
                "2",
                "--rate",
                "5",
            ]))
            .unwrap();
            assert!(out.contains("validation       : OK"), "{policy}: {out}");
        }
    }

    #[test]
    fn online_runs_backfill_preemption_and_departures() {
        // Bursty traffic with departures through every new resource-model
        // flag combination: all validate end to end.
        for extra in [
            vec!["--backfill"],
            vec!["--preempt-queued"],
            vec!["--backfill", "--preempt-queued"],
            vec!["--preempt-running"],
            vec!["--backfill", "--preempt-running"],
        ] {
            let mut argv = vec![
                "online",
                "--policy",
                "epoch-mrt",
                "--pattern",
                "bursty",
                "--burst-size",
                "10",
                "--burst-gap",
                "2",
                "--tasks",
                "30",
                "--processors",
                "8",
                "--seed",
                "4",
                "--departure-patience",
                "3",
            ];
            argv.extend(extra.iter().copied());
            let out = run_args(&args(&argv)).unwrap();
            assert!(out.contains("validation       : OK"), "{argv:?}: {out}");
            assert!(out.contains("departed"), "{argv:?}: {out}");
        }
        // The greedy policy accepts --backfill too.
        let out = run_args(&args(&[
            "online",
            "--policy",
            "greedy",
            "--backfill",
            "--tasks",
            "20",
            "--processors",
            "8",
            "--seed",
            "2",
        ]))
        .unwrap();
        assert!(out.contains("greedy-list+backfill"), "{out}");
    }

    #[test]
    fn departure_traces_round_trip_through_files() {
        let trace_path = temp_path("departures-trace.json");
        let out = run_args(&args(&[
            "trace",
            "--pattern",
            "bursty",
            "--burst-size",
            "8",
            "--burst-gap",
            "3",
            "--tasks",
            "24",
            "--processors",
            "8",
            "--seed",
            "6",
            "--departure-patience",
            "2",
            "--output",
            &trace_path,
        ]))
        .unwrap();
        assert!(out.contains("with departures"), "{out}");
        let trace = workload::trace_from_json(&fs::read_to_string(&trace_path).unwrap()).unwrap();
        assert!(trace.has_departures());
        let out = run_args(&args(&[
            "online",
            "--policy",
            "epoch-mrt",
            "--backfill",
            "--trace",
            &trace_path,
        ]))
        .unwrap();
        assert!(out.contains("validation       : OK"), "{out}");
        fs::remove_file(trace_path).ok();
    }

    #[test]
    fn online_json_report_is_parseable() {
        let out = run_args(&args(&[
            "online",
            "--policy",
            "batch-idle",
            "--pattern",
            "bursty",
            "--burst-size",
            "6",
            "--burst-gap",
            "2",
            "--tasks",
            "18",
            "--processors",
            "4",
            "--json",
        ]))
        .unwrap();
        let doc = serde_json::from_str(&out).unwrap();
        assert!(doc.get("online_makespan").unwrap().as_f64().unwrap() > 0.0);
        assert!(doc.get("ratio_vs_lower_bound").unwrap().as_f64().unwrap() >= 1.0 - 1e-9);
        assert_eq!(doc.get("tasks").unwrap().as_u64(), Some(18));
    }

    #[test]
    fn online_runs_with_faults_and_reports_goodput() {
        // A seeded fault run: crashes + task failures + a forced fault on
        // the first epoch solve.  The run must validate (the fault-aware
        // validator runs by default) and report the goodput split.
        let out = run_args(&args(&[
            "online",
            "--policy",
            "epoch-mrt",
            "--tasks",
            "30",
            "--processors",
            "8",
            "--seed",
            "5",
            "--mtbf",
            "6",
            "--mttr",
            "1.5",
            "--task-failure-rate",
            "0.2",
            "--fault-seed",
            "7",
            "--solver-fault",
            "1",
            "--json",
        ]))
        .unwrap();
        let doc: Value = serde_json::from_str(&out).unwrap();
        assert_eq!(doc.get("validated").unwrap().as_bool(), Some(true));
        let goodput = doc.get("goodput").unwrap().as_f64().unwrap();
        assert!((0.0..=1.0).contains(&goodput), "goodput {goodput}");
        let telemetry = doc.get("telemetry").unwrap();
        assert_eq!(
            telemetry.get("invariant_violations").unwrap().as_u64(),
            Some(0)
        );
        assert_eq!(telemetry.get("solver_degraded").unwrap().as_u64(), Some(1));
        let completed = doc.get("completed").unwrap().as_u64().unwrap();
        let departed = doc.get("departed").unwrap().as_u64().unwrap();
        let exhausted = doc.get("retries_exhausted").unwrap().as_u64().unwrap();
        // `completed` already subtracts departures and abandonments, so the
        // three partition the trace.
        assert_eq!(completed + departed + exhausted, 30);
    }

    #[test]
    fn schedule_runs_the_classed_solvers_end_to_end() {
        let instance_path = temp_path("classed-instance.json");
        run_args(&args(&[
            "generate",
            "--tasks",
            "14",
            "--processors",
            "12",
            "--seed",
            "8",
            "--output",
            &instance_path,
        ]))
        .unwrap();
        for solver in ["hetero-lp", "hetero-greedy"] {
            let out = run_args(&args(&[
                "schedule",
                &instance_path,
                "--solver",
                solver,
                "--machine-classes",
                "old=8x1.0,new=4x2.0",
            ]))
            .unwrap();
            assert!(out.contains(solver), "{solver}: {out}");
            assert!(out.contains("ratio"), "{solver}: {out}");
        }
        // A spec whose counts do not sum to the machine is rejected by the
        // solver, and a flat solver refuses the flag outright.
        let err = run_args(&args(&[
            "schedule",
            &instance_path,
            "--solver",
            "hetero-lp",
            "--machine-classes",
            "old=4x1.0",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("machine-classes"), "{err}");
        let err = run_args(&args(&[
            "schedule",
            &instance_path,
            "--solver",
            "mrt",
            "--machine-classes",
            "old=8x1.0,new=4x2.0",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("hetero-lp"), "{err}");
        fs::remove_file(instance_path).ok();
    }

    #[test]
    fn online_runs_the_classed_engine() {
        let out = run_args(&args(&[
            "online",
            "--policy",
            "epoch-mrt",
            "--machine-classes",
            "old=6x1.0,new=2x2.0",
            "--tasks",
            "24",
            "--processors",
            "8",
            "--seed",
            "3",
            "--rate",
            "5",
        ]))
        .unwrap();
        assert!(out.contains("classed-epoch (hetero-lp)"), "{out}");
        assert!(out.contains("validation       : OK"), "{out}");
        assert!(out.contains("class old"), "{out}");

        // JSON mode is a parseable document with per-class utilisation.
        let out = run_args(&args(&[
            "online",
            "--policy",
            "epoch-mrt",
            "--machine-classes",
            "old=6x1.0,new=2x2.0",
            "--tasks",
            "24",
            "--processors",
            "8",
            "--seed",
            "3",
            "--rate",
            "5",
            "--json",
        ]))
        .unwrap();
        let doc: Value = serde_json::from_str(&out).unwrap();
        assert!(doc.get("online_makespan").unwrap().as_f64().unwrap() > 0.0);
        assert!(doc.get("ratio_vs_lower_bound").unwrap().as_f64().unwrap() >= 1.0 - 1e-9);
        assert_eq!(doc.get("classes").unwrap().as_array().unwrap().len(), 2);

        // Classed runs exclude the fault and preemption machinery.
        for extra in [
            vec!["--mtbf", "5"],
            vec!["--preempt-queued"],
            vec!["--departure-patience", "2"],
            vec!["--policy", "greedy"],
        ] {
            let mut argv = vec![
                "online",
                "--policy",
                "epoch-mrt",
                "--machine-classes",
                "old=6x1.0,new=2x2.0",
                "--processors",
                "8",
            ];
            argv.extend(extra.iter().copied());
            let err = run_args(&args(&argv)).unwrap_err();
            assert!(
                err.to_string().contains("--machine-classes"),
                "{argv:?}: {err}"
            );
        }
    }

    #[test]
    fn missing_files_are_reported() {
        let err = run_args(&args(&["bounds", "/nonexistent/instance.json"])).unwrap_err();
        assert!(matches!(err, CliError::Io { .. }));
        assert!(err.to_string().contains("nonexistent"));
    }

    #[test]
    fn parse_errors_carry_usage() {
        let err = run_args(&args(&["explode"])).unwrap_err();
        assert!(err.to_string().contains("USAGE"));
    }

    #[test]
    fn generate_without_output_prints_json() {
        let out = run_args(&args(&["generate", "--tasks", "3", "--processors", "2"])).unwrap();
        assert!(out.contains("\"processors\": 2"));
    }
}
