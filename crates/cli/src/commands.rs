//! Execution of the parsed CLI commands.

use std::fmt;
use std::fs;
use std::sync::Arc;
// The prelude glob exports `malleable_core::Result`; this command layer deals
// with its own error type, so pull the standard `Result` back into scope.
use std::result::Result;

use malleable_core::prelude::*;
use malleable_core::validate::{check, RunRecord};
use online::{
    competitive_report, run_sharded, trace_record, BatchUntilIdle, CollectingSink, EpochReplan,
    GreedyList, OnlinePolicy, OnlineResult, ShardedConfig,
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
    Cli, Command, FamilyChoice, OnlineArgs, ParseError, PolicyChoice, TraceArgs, USAGE,
};
use crate::schedule_io::{schedule_from_json, schedule_to_json};

/// Errors produced while executing a command.
#[derive(Debug)]
pub enum CliError {
    /// The command line did not parse.
    Parse(ParseError),
    /// A file could not be read or written.
    Io {
        /// The file.
        path: String,
        /// What went wrong.
        message: String,
    },
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

/// An engine or solver error: a rejected parameter or config key (every
/// key a solver reads comes from the command line) is invalid input,
/// anything else a failed run.
fn engine_error(e: Error) -> CliError {
    match e {
        Error::InvalidParameter { .. } | Error::InvalidConfig { .. } => {
            CliError::Invalid(e.to_string())
        }
        e => CliError::Scheduling(e.to_string()),
    }
}

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
        } => generate(
            workload_config(*family, *tasks, *processors, *seed),
            output.as_deref(),
        ),
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
        Command::Trace(args) => generate_trace(args),
        Command::Online(args) => run_online(args),
    }
}

/// The generator configuration of a workload family.
fn workload_config(
    family: FamilyChoice,
    tasks: usize,
    processors: usize,
    seed: u64,
) -> WorkloadConfig {
    match family {
        FamilyChoice::Mixed => WorkloadConfig::mixed(tasks, processors, seed),
        FamilyChoice::Wide => WorkloadConfig::wide_tasks(tasks, processors, seed),
        FamilyChoice::Sequential => WorkloadConfig::sequential_heavy(tasks, processors, seed),
    }
}

/// Generate the trace `args` describe, attaching departures when asked.
fn build_trace(args: &TraceArgs) -> Result<ArrivalTrace, CliError> {
    let config = TraceConfig {
        workload: workload_config(args.family, args.tasks, args.processors, args.seed),
        pattern: args.pattern,
    };
    let trace = ArrivalTrace::generate(&config).map_err(|e| CliError::Invalid(e.to_string()))?;
    match args.departure_patience {
        Some(mean) => trace
            .with_departures(DeparturePolicy::Patience { mean }, args.seed)
            .map_err(|e| CliError::Invalid(e.to_string())),
        None => Ok(trace),
    }
}

fn generate_trace(args: &OnlineArgs) -> Result<String, CliError> {
    check_flags(args, None)?;
    let trace = build_trace(&args.common)?;
    let json = trace_to_json(&trace);
    match &args.common.output {
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

/// What runs an `online` command: the event-driven engine under one of its
/// three policies, or one of the two engines that partition the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    Greedy,
    Epoch,
    Batch,
    Sharded,
    Classed,
}

use Engine::{Batch, Classed, Epoch, Greedy, Sharded};

impl Engine {
    /// The engine `args` select: `--machine-classes` the classed engine,
    /// `--shards` other than 1 the sharded one (which rejects 0 and more
    /// shards than processors itself), both with epoch policies only;
    /// otherwise the event-driven engine under `--policy`.
    fn of(args: &OnlineArgs) -> Result<Engine, CliError> {
        let engine = match args.policy {
            _ if args.machine_classes.is_some() => Classed,
            _ if args.shards != 1 => Sharded,
            PolicyChoice::Greedy => Greedy,
            PolicyChoice::Epoch => Epoch,
            PolicyChoice::Batch => Batch,
        };
        if matches!(engine, Sharded | Classed) && args.policy != PolicyChoice::Epoch {
            let refusal = format!("--policy: {} runs epoch policies only", engine.name());
            return Err(CliError::Invalid(refusal));
        }
        Ok(engine)
    }

    /// How a refusal names the engine, and the event-driven engine's policy.
    fn name(self) -> &'static str {
        match self {
            Greedy => "the event-driven engine's greedy policy",
            Epoch => "the event-driven engine's epoch policy",
            Batch => "the event-driven engine's batch policy",
            Sharded => "the sharded engine (--shards)",
            Classed => "the classed engine (--machine-classes)",
        }
    }
}

/// What a flag needs besides an engine that honours it: a test of the
/// command line, and the words a refusal names it with.
type Need = (fn(&OnlineArgs) -> bool, &'static str);

/// Whether the flags ask for a fault plan: crashes or task failures.
fn wants_fault_plan(args: &OnlineArgs) -> bool {
    args.mtbf.is_some() || args.task_failure_rate > 0.0
}

const CRASHES: Need = (|args| args.mtbf.is_some(), "--mtbf");
const TASK_FAILURES: Need = (
    |args| args.task_failure_rate > 0.0,
    "a positive --task-failure-rate",
);
const FAULT_PLAN: Need = (wants_fault_plan, "--mtbf or a positive --task-failure-rate");
const PREEMPTION: Need = (
    |args| args.preempt_queued || args.preempt_running,
    "--preempt-queued or --preempt-running",
);
const GENERATED: Need = (
    |args| args.trace.is_none(),
    "a generated trace, so it cannot be combined with --trace",
);
const POISSON: Need = (
    |args| matches!(args.common.pattern, ArrivalPattern::Poisson { .. }),
    "--pattern poisson",
);
const BURSTY: Need = (
    |args| matches!(args.common.pattern, ArrivalPattern::Bursty { .. }),
    "--pattern bursty",
);
const DUAL_SEARCH: Need = (
    |args| DUAL_SEARCH_SOLVERS.contains(&args.solver.as_str()),
    "a solver that runs the dual search: mrt, hetero-lp or hetero-greedy",
);
const SEEDED: Need = (
    |args| args.trace.is_none() || (wants_fault_plan(args) && args.fault_seed.is_none()),
    "a generated trace, or a fault plan without --fault-seed",
);

const EVERY: &[Engine] = &[Greedy, Epoch, Batch, Sharded, Classed];
const EVENT_DRIVEN: &[Engine] = &[Greedy, Epoch, Batch];

/// Every `online` flag: the engines and policies that honour it, and what
/// else it needs.  `run_online` refuses a given flag whose row the run
/// does not meet, so no flag is accepted and then ignored; `trace` checks
/// the needs of the generation flags it takes.  Each engine that learns a
/// feature deletes its refusals here.
const FLAGS: &[(&str, &[Engine], &[Need])] = &[
    ("--trace", EVERY, &[]),
    ("--policy", EVERY, &[]),
    ("--solver", &[Epoch, Batch, Sharded, Classed], &[]),
    ("--search", &[Epoch, Sharded, Classed], &[DUAL_SEARCH]),
    ("--epoch", &[Epoch, Sharded, Classed], &[]),
    ("--shards", &[Greedy, Epoch, Batch, Sharded], &[]),
    ("--machine-classes", &[Classed], &[]),
    ("--backfill", &[Greedy, Epoch, Batch, Sharded], &[]),
    ("--preempt-queued", &[Epoch], &[]),
    ("--preempt-running", &[Epoch], &[]),
    ("--delta-plan", &[Epoch], &[PREEMPTION]),
    ("--family", EVERY, &[GENERATED]),
    ("--pattern", EVERY, &[GENERATED]),
    ("--rate", EVERY, &[GENERATED, POISSON]),
    ("--burst-size", EVERY, &[GENERATED, BURSTY]),
    ("--burst-gap", EVERY, &[GENERATED, BURSTY]),
    ("--tasks", EVERY, &[GENERATED]),
    ("--processors", EVERY, &[GENERATED]),
    ("--seed", EVERY, &[SEEDED]),
    ("--departure-patience", EVENT_DRIVEN, &[GENERATED]),
    ("--mtbf", EVENT_DRIVEN, &[]),
    ("--mttr", EVENT_DRIVEN, &[CRASHES]),
    ("--task-failure-rate", EVENT_DRIVEN, &[]),
    ("--max-attempts", EVENT_DRIVEN, &[TASK_FAILURES]),
    ("--retry-backoff", EVENT_DRIVEN, &[TASK_FAILURES]),
    ("--fault-seed", EVENT_DRIVEN, &[FAULT_PLAN]),
    ("--solver-fault", &[Epoch, Batch], &[]),
    ("--telemetry", EVERY, &[]),
    ("--json", EVERY, &[]),
    ("--no-validate", EVERY, &[]),
    ("--output", EVERY, &[]),
];

/// Refuse the first given flag that `engine` does not honour or whose
/// needs are unmet, naming the flag and the engine (`None`: the `trace`
/// command, which runs no engine).
fn check_flags(args: &OnlineArgs, engine: Option<Engine>) -> Result<(), CliError> {
    let name = engine.map_or("the trace command", Engine::name);
    for &(flag, engines, needs) in FLAGS.iter().filter(|row| args.given.contains(&row.0)) {
        let refusal = if engine.is_some_and(|engine| !engines.contains(&engine)) {
            format!("{flag} has no effect on {name}")
        } else if let Some((_, missing)) = needs.iter().find(|(met, _)| !met(args)) {
            format!("{flag} needs {missing} ({name})")
        } else {
            continue;
        };
        return Err(CliError::Invalid(refusal));
    }
    Ok(())
}

/// An `online` report under construction, in both output formats at once.
#[derive(Default)]
struct Report {
    json: Vec<(String, Value)>,
    text: String,
}

impl Report {
    /// A JSON member.
    fn key(&mut self, key: &str, value: impl Into<Value>) -> &mut Self {
        self.json.push((key.to_string(), value.into()));
        self
    }

    /// A `label : text` line of the text report.
    fn line(&mut self, label: &str, text: impl fmt::Display) -> &mut Self {
        self.text.push_str(&format!("{label:<17}: {text}\n"));
        self
    }

    /// A quantity in both formats, to four decimals in the text.
    fn real(&mut self, key: &str, label: &str, value: f64) -> &mut Self {
        self.key(key, value).line(label, format!("{value:.4}"))
    }

    /// A count in both formats, labelled by its key.
    fn count(&mut self, key: &str, value: usize) -> &mut Self {
        self.key(key, value).line(key, value)
    }

    /// A ratio in both formats, `missing` in the text when there is none.
    fn ratio(&mut self, key: &str, label: &str, value: Option<f64>, missing: &str) -> &mut Self {
        let text = value.map_or_else(|| missing.to_string(), |r| format!("{r:.4}"));
        self.key(key, value).line(label, text)
    }

    /// A utilisation in both formats, as a percentage in the text.
    fn utilization(&mut self, value: f64) -> &mut Self {
        self.key("utilization", value)
            .line("utilisation", format!("{:.1}%", 100.0 * value))
    }
}

/// What one engine of `online` produced.
struct EngineRun {
    outcome: Outcome,
    policy: String,
    makespan: f64,
    mean_flow_time: f64,
    /// The telemetry recorder that ran, if any.
    recorder: Option<Arc<CollectingRecorder>>,
    /// The engine's own rows, reported after the ones every engine reports.
    rows: Report,
    /// Text printed after the validation line.
    tail: String,
}

/// The result of an engine run, which its record is checked against.
enum Outcome {
    EventDriven(OnlineResult),
    Sharded(Schedule),
    Classed(hetero::ClassedRunResult),
}

impl Outcome {
    fn schedule(&self) -> &Schedule {
        match self {
            Outcome::EventDriven(result) => &result.schedule,
            Outcome::Sharded(schedule) => schedule,
            Outcome::Classed(result) => &result.schedule,
        }
    }

    fn record<'a>(&'a self, trace: &'a ArrivalTrace) -> RunRecord<'a> {
        match self {
            Outcome::EventDriven(result) => result.record(trace),
            Outcome::Sharded(schedule) => trace_record(trace, schedule),
            Outcome::Classed(result) => result.record(trace),
        }
    }
}

/// The `online` pipeline: pick the engine, refuse what it would ignore,
/// load the trace, run, validate, and report the rows every engine shares
/// before the engine's own.
fn run_online(args: &OnlineArgs) -> Result<String, CliError> {
    let engine = Engine::of(args)?;
    check_flags(args, Some(engine))?;
    let trace = match &args.trace {
        Some(path) => trace_from_json(&read_file(path)?)
            .map_err(|e| CliError::Invalid(format!("{path}: {e}")))?,
        None => build_trace(&args.common)?,
    };
    if matches!(engine, Sharded | Classed) && trace.has_departures() {
        return Err(CliError::Invalid(format!(
            "{} does not model departures; re-generate the trace without them",
            engine.name()
        )));
    }
    let run = match engine {
        Greedy | Epoch | Batch => run_event_driven(args, &trace)?,
        Sharded => run_sharded_engine(args, &trace)?,
        Classed => run_classed_engine(args, &trace)?,
    };
    // The record carries each engine's wasted segments, outages, abandoned
    // tasks and class speeds, so one check covers every run.
    let validated = !args.no_validate;
    if validated {
        require_valid("INVALID online schedule", &run.outcome.record(&trace))?;
    }

    if let (Some(handle), Some(path)) = (&run.recorder, &args.telemetry) {
        let io = |e: std::io::Error| CliError::Io {
            path: path.clone(),
            message: e.to_string(),
        };
        handle
            .write_jsonl(&mut fs::File::create(path).map_err(io)?)
            .map_err(io)?;
    }
    let schedule_file = args.common.output.as_deref();
    if let Some(path) = schedule_file {
        write_file(path, &schedule_to_json(run.outcome.schedule()))?;
    }

    let (tasks, processors, last_arrival) = (trace.len(), trace.processors(), trace.last_arrival());
    let mut report = Report::default();
    report
        .key("policy", run.policy.as_str())
        .line("policy", &run.policy)
        .key("tasks", tasks)
        .key("processors", processors)
        .key("last_arrival", last_arrival)
        .line(
            "trace",
            format!("{tasks} tasks on {processors} processors (last arrival {last_arrival:.4})"),
        )
        .real("online_makespan", "online makespan", run.makespan)
        .real("mean_flow_time", "mean flow time", run.mean_flow_time);
    report.json.extend(run.rows.json);
    report.text.push_str(&run.rows.text);
    report
        .key("validated", validated)
        .line("validation", if validated { "OK" } else { "skipped" })
        .key("schedule_file", schedule_file)
        .key("telemetry_file", args.telemetry.as_deref());
    // In JSON mode stdout is exactly one JSON document: the file paths
    // travel inside it, not as trailing text lines.
    if args.json {
        let doc = Value::Object(report.json);
        let mut text = serde_json::to_string_pretty(&doc).expect("report serialisation");
        text.push('\n');
        return Ok(text);
    }
    let mut out = report.text + &run.tail;
    if let Some(path) = &args.telemetry {
        out.push_str(&format!("telemetry stream written to {path}\n"));
    }
    if let Some(path) = schedule_file {
        out.push_str(&format!("schedule written to {path}\n"));
    }
    Ok(out)
}

/// The event-driven engine under `--policy`, with the fault plan,
/// degradation ladder and telemetry the flags ask for.
fn run_event_driven(args: &OnlineArgs, trace: &ArrivalTrace) -> Result<EngineRun, CliError> {
    // Left to the engine, a NaN failure rate would build no fault plan and
    // run fault-free, and `--solver-fault 0` would fail the first solve.
    if !(0.0..=1.0).contains(&args.task_failure_rate) {
        return Err(engine_error(Error::InvalidParameter {
            name: "task_failure_rate",
            value: args.task_failure_rate,
        }));
    }
    if args.solver_fault == Some(0) {
        return Err(CliError::Invalid(
            "--solver-fault counts epoch solves from 1".to_string(),
        ));
    }
    // The engine-level fault plan (crashes and task failures) is built only
    // when a fault flag asks for one; the forced solver fault degrades
    // through the solver wrap below and needs no plan.
    let fault_plan = if wants_fault_plan(args) {
        // Outages renew over a horizon generously past the last arrival so
        // late work still sees crashes.
        let horizon = (trace.last_arrival() + 1.0) * 4.0;
        let mut config = FaultConfig::new(
            trace.processors(),
            trace.len(),
            horizon,
            args.fault_seed.unwrap_or(args.common.seed),
        );
        if let Some(mtbf) = args.mtbf {
            config = config.with_crashes(mtbf, args.mttr);
        }
        if args.task_failure_rate > 0.0 {
            config = config.with_task_failures(args.task_failure_rate, args.max_attempts);
        }
        FaultPlan::generate(&config).map_err(|e| CliError::Invalid(e.to_string()))?
    } else {
        FaultPlan::empty(trace.processors(), 0.0)
    };
    let faults_enabled = wants_fault_plan(args) || args.solver_fault.is_some();
    // One recorder handle shared between the engine and the policy, so the
    // workspace counters and the engine events land in the same stream.
    // Fault runs always record (the chaos gates read the counters) even
    // when no --telemetry path was given.
    let recorder = (args.telemetry.is_some() || faults_enabled).then(CollectingRecorder::shared);
    let shared = recorder.clone().map(|handle| handle as SharedRecorder);
    // The planning solver; fault runs put it behind the degradation
    // ladder: an optional forced fault on the K-th solve, then the
    // greedy-list fallback catching errors and budget blows.
    let planner = || -> Result<SolverHandle, CliError> {
        let mut solver = resolve_solver(&args.solver)?;
        if faults_enabled {
            if let Some(target) = args.solver_fault {
                solver = Arc::new(FaultInjectingSolver::new(
                    solver,
                    target.saturating_sub(1),
                    SolverFaultMode::Error,
                ));
            }
            let mut fallback = FallbackSolver::new(solver);
            if let Some(handle) = &shared {
                fallback = fallback.with_recorder(handle.clone());
            }
            solver = Arc::new(fallback);
        }
        Ok(solver)
    };
    let mut policy: Box<dyn OnlinePolicy> = match args.policy {
        PolicyChoice::Greedy => Box::new(GreedyList {
            backfill: args.backfill,
        }),
        PolicyChoice::Epoch => {
            let mut epoch = EpochReplan::with_solver(args.epoch, planner()?)
                .map_err(engine_error)?
                .with_search(args.search)
                .with_backfill(args.backfill)
                .with_preempt_queued(args.preempt_queued)
                .with_preempt_running(args.preempt_running)
                .with_delta_planning(args.delta_plan);
            if let Some(handle) = &shared {
                epoch = epoch.with_recorder(handle.clone());
            }
            Box::new(epoch)
        }
        PolicyChoice::Batch => {
            Box::new(BatchUntilIdle::with_solver(planner()?).with_backfill(args.backfill))
        }
    };
    let epoch_period = policy.epoch();
    // Without fault flags the plan is quiet and the retry policy the
    // default, so this is `online::run` (or `run_recorded`) exactly.
    let retry = RetryPolicy {
        max_attempts: args.max_attempts,
        base_backoff: args.retry_backoff,
        multiplier: 2.0,
        max_backoff: args.retry_backoff * 16.0,
    };
    let result = online::run_with_faults(
        trace,
        policy.as_mut(),
        &fault_plan,
        retry,
        recorder.as_deref().map(|handle| handle as &dyn Recorder),
    )
    .map_err(engine_error)?;
    let cr = competitive_report(trace, &result).map_err(engine_error)?;
    let summary = recorder
        .as_ref()
        .map(|handle| online::summarize(handle, &result, epoch_period));

    let (offline, lower_bound) = (cr.offline_makespan, cr.certified_lower_bound);
    let (vs_offline, vs_lb) = (cr.ratio_vs_offline, cr.ratio_vs_lower_bound);
    // Ratios are absent when every task departed before starting.
    let departed = "n/a (all tasks departed)";
    let mut rows = Report::default();
    rows.real("offline_mrt_makespan", "offline mrt", offline)
        .real("certified_lower_bound", "certified LB", lower_bound)
        .ratio("ratio_vs_offline", "ratio vs offline", vs_offline, departed)
        .ratio("ratio_vs_lower_bound", "ratio vs LB", vs_lb, departed)
        .real("max_flow_time", "max flow time", result.max_flow_time)
        .utilization(result.utilization());
    for (key, value) in [
        ("replans", result.replans),
        ("events", result.events),
        ("departed", result.departed),
        ("preempted", result.preempted),
        ("reallotted", result.reallotted),
    ] {
        rows.count(key, value);
    }
    let completed = trace.len() - result.departed - result.abandoned.len();
    for (key, value) in [
        (
            "time_weighted_utilization",
            result.time_weighted_utilization(),
        ),
        ("nominal_utilization", result.nominal_utilization()),
        ("completed", completed as f64),
        ("crashes", result.crashes as f64),
        ("repairs", result.repairs as f64),
        ("task_failures", result.failures as f64),
        ("retries_exhausted", result.retries_exhausted as f64),
        ("wasted_integral", result.wasted_integral),
        ("goodput", result.goodput_fraction()),
    ] {
        rows.key(key, value);
    }
    let telemetry = summary.as_ref().map_or(Value::Null, |s| s.to_json());
    rows.key("telemetry", telemetry);
    if faults_enabled {
        rows.text.push_str(&format!(
            "faults           : {} crashes, {} repairs, {} task failures, {} abandoned\ngoodput          : {:.3} ({:.3} processor-time wasted)\n",
            result.crashes,
            result.repairs,
            result.failures,
            result.retries_exhausted,
            result.goodput_fraction(),
            result.wasted_integral,
        ));
    }
    let mut tail = String::new();
    if let Some(summary) = &summary {
        tail.push_str("\ntelemetry\n");
        for line in summary.render_table() {
            tail.push_str(&format!("  {line}\n"));
        }
    }
    Ok(EngineRun {
        policy: result.policy.clone(),
        makespan: cr.online_makespan,
        mean_flow_time: result.mean_flow_time,
        recorder,
        rows,
        tail,
        outcome: Outcome::EventDriven(result),
    })
}

/// The sharded engine: the cluster partitioned into `--shards` per-shard
/// timelines, epoch solves for different shards running concurrently and
/// queued tasks stolen from overloaded shards at epoch boundaries.
fn run_sharded_engine(args: &OnlineArgs, trace: &ArrivalTrace) -> Result<EngineRun, CliError> {
    let mut config = ShardedConfig::new(args.shards, args.epoch, resolve_solver(&args.solver)?)
        .with_backfill(args.backfill);
    config.search = args.search;
    let recorder = args.telemetry.is_some().then(CollectingRecorder::shared);
    let mut sink = CollectingSink::new(trace.processors());
    let result = run_sharded(
        trace,
        &config,
        &mut sink,
        recorder.clone().map(|handle| handle as SharedRecorder),
    )
    .map_err(engine_error)?;
    let (mut per_shard, mut tail) = (Vec::new(), String::new());
    for s in &result.per_shard {
        per_shard.push(json!({
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
        }));
        tail.push_str(&format!(
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
    let mut rows = Report::default();
    rows.key("shards", result.shards)
        .key("placed", result.placed)
        .real("max_flow_time", "max flow time", result.max_flow_time)
        .utilization(result.utilization(trace.processors()))
        .count("rounds", result.rounds)
        .count("solves", result.solves)
        .count("steals", result.steals)
        .key("solve_critical_ns", result.solve_critical_ns)
        .key("solve_total_ns", result.solve_total_ns)
        .line(
            "solve critical",
            format!(
                "{:.3} ms (total {:.3} ms across shards)",
                result.solve_critical_ns as f64 / 1e6,
                result.solve_total_ns as f64 / 1e6
            ),
        )
        .key("run_ns", result.run_ns)
        .key("invariant_violations", result.invariant_violations)
        .key("per_shard", per_shard);
    Ok(EngineRun {
        outcome: Outcome::Sharded(sink.into_schedule()),
        policy: result.policy,
        makespan: result.makespan,
        mean_flow_time: result.mean_flow_time,
        recorder,
        rows,
        tail,
    })
}

/// The classed engine: per-class pools over the `--machine-classes`
/// cluster, queued tasks migrating between classes at epoch boundaries.
fn run_classed_engine(args: &OnlineArgs, trace: &ArrivalTrace) -> Result<EngineRun, CliError> {
    // The solver picks the assignment strategy; the per-class allotment
    // solves are always MRT.  `mrt`, the epoch-policy default, means LP.
    let strategy = match args.solver.as_str() {
        "mrt" | "hetero-lp" => hetero::AssignStrategy::Lp,
        "hetero-greedy" => hetero::AssignStrategy::GreedyDensity,
        other => {
            return Err(CliError::Invalid(format!(
                "--machine-classes assigns tasks with `hetero-lp` (the default) or \
                 `hetero-greedy`; solver `{other}` does not plan machine classes"
            )));
        }
    };
    // This engine runs only when a spec was given.
    let spec = args.machine_classes.as_deref().unwrap_or_default();
    let cluster =
        hetero::ClassedCluster::from_spec(spec).map_err(|e| CliError::Invalid(e.to_string()))?;
    let recorder = args.telemetry.is_some().then(CollectingRecorder::shared);
    let options = hetero::ClassedEngineOptions {
        epoch: args.epoch,
        strategy,
        search: args.search,
        recorder: recorder.clone().map(|handle| handle as SharedRecorder),
    };
    let result = hetero::run_classed(trace, &cluster, &options).map_err(engine_error)?;
    // The classed lower bound (critical path over best classes ∨ weighted
    // area) plays the role the certified LB plays in the flat report.
    let lower_bound = hetero::HeteroInstance::from_instance(trace.instance(), cluster.clone())
        .map_err(|e| CliError::Invalid(e.to_string()))?
        .lower_bound();
    let ratio = (lower_bound > 0.0).then(|| result.makespan / lower_bound);
    let (mut classes, mut tail) = (Vec::new(), String::new());
    for (index, class) in cluster.classes().iter().enumerate() {
        let utilization = result.class_utilization(index);
        classes.push(json!({
            "name": class.name.clone(),
            "count": class.count,
            "speed": class.speed,
            "utilization": utilization,
        }));
        tail.push_str(&format!(
            "  class {:<8} : {} × speed {:.2}, utilisation {:.1}%\n",
            class.name,
            class.count,
            class.speed,
            100.0 * utilization,
        ));
    }
    let (spec, processors) = (cluster.spec(), cluster.total_processors());
    let capacity = cluster.total_capacity();
    let mut rows = Report::default();
    rows.key("machine_classes", spec.as_str())
        .line(
            "cluster",
            format!("{spec} ({processors} processors, capacity {capacity:.1})"),
        )
        .real("lower_bound", "classed LB", lower_bound)
        .ratio("ratio_vs_lower_bound", "ratio vs LB", ratio, "n/a")
        .count("migrations", result.migrations)
        .count("replans", result.replans)
        .key("classes", classes);
    Ok(EngineRun {
        policy: format!("classed-epoch ({})", strategy.name()),
        makespan: result.makespan,
        mean_flow_time: result.mean_flow_time,
        recorder,
        rows,
        tail,
        outcome: Outcome::Classed(result),
    })
}

fn generate(config: WorkloadConfig, output: Option<&str>) -> Result<String, CliError> {
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
    search: SearchMode,
    machine_classes: Option<&str>,
) -> Result<SolveOutcome, CliError> {
    let handle = resolve_solver(name)?;
    let config = machine_classes.map(|spec| SolverConfig::new().with_text("machine-classes", spec));
    let mut request = SolveRequest::new(instance).with_mode(search);
    if let Some(config) = &config {
        request = request.with_config(config);
    }
    handle.solve(&request).map_err(engine_error)
}

/// The solvers that run the dual search, and so read `--search` (of
/// `schedule`, and of `online` through its flag table): `mrt`, and the
/// classed solvers, which hand the mode to `mrt` on every class.
const DUAL_SEARCH_SOLVERS: &[&str] = &["mrt", "hetero-lp", "hetero-greedy"];

fn schedule(
    instance_path: &str,
    solver_name: &str,
    search: Option<SearchMode>,
    machine_classes: Option<&str>,
    gantt: bool,
    output: Option<&str>,
) -> Result<String, CliError> {
    if search.is_some() && !DUAL_SEARCH_SOLVERS.contains(&solver_name) {
        return Err(CliError::Invalid(format!(
            "--search has no effect on the `{solver_name}` solver, which runs no dual \
             search (mrt, hetero-lp and hetero-greedy do)"
        )));
    }
    // Only the classed solvers read the `machine-classes` config key;
    // silently ignoring the spec elsewhere would misreport the makespan.
    if machine_classes.is_some() && !solver_name.starts_with("hetero") {
        return Err(CliError::Invalid(format!(
            "--machine-classes needs a classed solver, got `{solver_name}` \
             (use --solver hetero-lp or --solver hetero-greedy)"
        )));
    }
    let instance = load_instance(instance_path)?;
    let search = search.unwrap_or(SearchMode::Exact);
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
        let instance = trace.instance();
        let schedule_text = fs::read_to_string(&schedule_path).unwrap();
        let schedule = crate::schedule_io::schedule_from_json(&schedule_text, instance).unwrap();
        assert!(schedule.validate(instance).is_ok());

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
        // A spec whose counts do not sum to the machine is invalid input to
        // the solver, and a flat solver refuses the flag outright.
        let err = run_args(&args(&[
            "schedule",
            &instance_path,
            "--solver",
            "hetero-lp",
            "--machine-classes",
            "old=4x1.0",
        ]))
        .unwrap_err();
        let message = err.to_string();
        assert!(
            message.starts_with("invalid input: config key `machine-classes`"),
            "{message}"
        );
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

        // Classed runs exclude the fault and preemption machinery, and plan
        // only with the classed assignment solvers.
        for extra in [
            vec!["--mtbf", "5"],
            vec!["--preempt-queued"],
            vec!["--departure-patience", "2"],
            vec!["--policy", "greedy"],
            vec!["--policy", "epoch-ludwig"],
            vec!["--solver", "list"],
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
