//! Hand-rolled argument parsing for the `malleable-sched` binary.
//!
//! The parser is deliberately dependency-free (the workspace keeps its
//! dependency footprint to the numerical crates) and strict: unknown flags
//! and missing values are reported with the offending token.

use std::fmt;

/// Resolve a solver name or alias against the workspace [`SolverRegistry`],
/// returning the canonical name.  Every algorithm the CLI can run — offline
/// (`schedule --solver`) or as an online planning oracle (`online --solver`)
/// — goes through this one lookup, so a solver registered in the `solver`
/// crate is immediately available everywhere.
///
/// [`SolverRegistry`]: malleable_core::solver::SolverRegistry
fn resolve_solver(flag: &str, token: &str) -> Result<String, ParseError> {
    let registry = solver::default_registry();
    registry
        .resolve(token)
        .map(str::to_string)
        .ok_or_else(|| ParseError::UnknownSolver {
            flag: flag.to_string(),
            value: token.to_string(),
            registered: registry.names().collect::<Vec<_>>().join(", "),
        })
}

/// Which workload family a `generate` invocation should draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FamilyChoice {
    /// Mixed Amdahl / power-law / communication / sequential tasks.
    Mixed,
    /// Wide parallel tasks dominating (knapsack regime).
    Wide,
    /// Small sequential tasks dominating (LPT regime).
    Sequential,
}

impl FamilyChoice {
    fn parse(token: &str) -> Result<Self, ParseError> {
        match token {
            "mixed" => Ok(FamilyChoice::Mixed),
            "wide" | "wide-tasks" => Ok(FamilyChoice::Wide),
            "sequential" | "sequential-heavy" => Ok(FamilyChoice::Sequential),
            other => Err(ParseError::InvalidValue {
                flag: "--family".into(),
                value: other.into(),
            }),
        }
    }
}

/// Which arrival pattern a `trace` invocation should use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PatternChoice {
    /// Poisson arrivals with the given rate.
    Poisson { rate: f64 },
    /// Bursts of simultaneous arrivals.
    Bursty { burst_size: usize, burst_gap: f64 },
}

/// Which online policy an `online` invocation should run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyChoice {
    /// Immediate greedy list scheduling.
    Greedy,
    /// Epoch-based offline re-planning.
    Epoch,
    /// Batch the queue until the machine is idle.
    Batch,
}

/// Which dual-search mode the MRT scheduler uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SearchChoice {
    /// Breakpoint-index bisection: `⌈log₂(n·m)⌉ + O(1)` probes, exact
    /// certified bound (default).
    #[default]
    Exact,
    /// Classical 30-iteration `f64` midpoint bisection of §2.2.
    Bisect,
}

impl SearchChoice {
    fn parse(token: &str) -> Result<Self, ParseError> {
        match token {
            "exact" | "breakpoint" => Ok(SearchChoice::Exact),
            "bisect" | "bisection" => Ok(SearchChoice::Bisect),
            other => Err(ParseError::InvalidValue {
                flag: "--search".into(),
                value: other.into(),
            }),
        }
    }
}

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a synthetic instance and write it as JSON.
    Generate {
        family: FamilyChoice,
        tasks: usize,
        processors: usize,
        seed: u64,
        output: Option<String>,
    },
    /// Generate an arrival trace and write it as JSON.
    Trace {
        family: FamilyChoice,
        pattern: PatternChoice,
        tasks: usize,
        processors: usize,
        seed: u64,
        /// Mean patience before a queued task departs (None = no departures).
        departure_patience: Option<f64>,
        output: Option<String>,
    },
    /// Run the online engine over an arrival trace.
    Online {
        /// Trace file; when absent a trace is generated from the flags below.
        trace: Option<String>,
        policy: PolicyChoice,
        /// Canonical name of the offline solver (registry-resolved).
        solver: String,
        search: SearchChoice,
        epoch: f64,
        /// Partition the cluster into this many per-shard timelines and run
        /// the sharded parallel engine (epoch policies only; 1 = the
        /// event-driven engine).
        shards: usize,
        /// Plan arrival-only epochs as deltas against the surviving
        /// schedule, falling back to a full re-solve after departures or
        /// faults (epoch policies with a preemption flag only).
        delta_plan: bool,
        /// First-fit placements into idle holes below the frontier.
        backfill: bool,
        /// Revoke queued commitments at epoch boundaries and re-solve them
        /// (epoch policies only).
        preempt_queued: bool,
        /// Truncate running commitments at epoch boundaries and re-solve
        /// their residuals — mid-execution re-allotment (epoch policies
        /// only; implies --preempt-queued).
        preempt_running: bool,
        /// Machine-class spec (`old=8x1.0,new=4x2.0`): run the classed
        /// engine over per-class pools instead of the identical-machines
        /// engine (epoch policies only).
        machine_classes: Option<String>,
        family: FamilyChoice,
        pattern: PatternChoice,
        tasks: usize,
        processors: usize,
        seed: u64,
        /// Mean patience for the inline-generated trace (None = no
        /// departures; ignored when --trace is given).
        departure_patience: Option<f64>,
        /// Mean time between crashes per processor (None = no crashes).
        mtbf: Option<f64>,
        /// Mean repair time for crashed processors.
        mttr: f64,
        /// Probability each (task, attempt) pair is killed mid-segment.
        task_failure_rate: f64,
        /// Attempts budget per task before it is abandoned.
        max_attempts: usize,
        /// Base backoff before the first retry (doubles per failure, capped).
        retry_backoff: f64,
        /// Seed of the deterministic fault plan (defaults to --seed).
        fault_seed: Option<u64>,
        /// Force the primary solver to fault on this 1-based solve index,
        /// degrading that epoch to the greedy-list fallback.
        solver_fault: Option<usize>,
        /// Record structured telemetry and write the event stream to this
        /// JSONL file; also prints the decision-latency/throughput summary.
        telemetry: Option<String>,
        json: bool,
        no_validate: bool,
        output: Option<String>,
    },
    /// Schedule an instance file.
    Schedule {
        instance: String,
        /// Canonical name of the solver (registry-resolved).
        solver: String,
        search: SearchChoice,
        /// Machine-class spec, forwarded to the classed solvers as their
        /// `machine-classes` config key (hetero solvers only).
        machine_classes: Option<String>,
        gantt: bool,
        output: Option<String>,
    },
    /// Validate a schedule file against an instance file.
    Validate { instance: String, schedule: String },
    /// Print bounds and statistics of an instance file.
    Bounds { instance: String },
    /// List every registered solver with its aliases and capabilities.
    Solvers,
    /// Print the usage text.
    Help,
}

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Cli {
    /// The selected command.
    pub command: Command,
}

/// Errors produced while parsing the command line.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// No subcommand was given.
    MissingCommand,
    /// The subcommand is not one of the known ones.
    UnknownCommand(String),
    /// A flag that is not understood by the subcommand.
    UnknownFlag(String),
    /// A flag that needs a value was given without one.
    MissingValue(String),
    /// A flag value could not be parsed.
    InvalidValue { flag: String, value: String },
    /// A solver name that is not in the registry.
    UnknownSolver {
        flag: String,
        value: String,
        registered: String,
    },
    /// A required positional argument is missing.
    MissingArgument(&'static str),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::MissingCommand => write!(f, "no command given (try `help`)"),
            ParseError::UnknownCommand(c) => write!(f, "unknown command `{c}` (try `help`)"),
            ParseError::UnknownFlag(flag) => write!(f, "unknown flag `{flag}`"),
            ParseError::MissingValue(flag) => write!(f, "flag `{flag}` needs a value"),
            ParseError::InvalidValue { flag, value } => {
                write!(f, "invalid value `{value}` for `{flag}`")
            }
            ParseError::UnknownSolver {
                flag,
                value,
                registered,
            } => {
                write!(
                    f,
                    "unknown solver `{value}` for `{flag}` (registered: {registered}; \
                     run `malleable-sched solvers` for details)"
                )
            }
            ParseError::MissingArgument(name) => write!(f, "missing argument <{name}>"),
        }
    }
}

impl std::error::Error for ParseError {}

/// The usage text printed by `help` and on parse errors.
pub const USAGE: &str = "\
malleable-sched — scheduling independent monotonic malleable tasks (SPAA 1999 reproduction)

USAGE:
  malleable-sched generate --family <mixed|wide|sequential> [--tasks N] [--processors M]
                           [--seed S] [--output FILE]
  malleable-sched trace    --pattern <poisson|bursty> [--rate R] [--burst-size N] [--burst-gap G]
                           [--family <mixed|wide|sequential>] [--tasks N] [--processors M]
                           [--seed S] [--departure-patience P] [--output FILE]
                           (--departure-patience gives every task an exponential
                           patience with mean P: tasks not started in time depart)
  malleable-sched online   [--trace FILE] --policy <greedy|epoch-mrt|epoch-ludwig|epoch-list|batch-idle>
                           [--epoch D] [--solver NAME] [--search <exact|bisect>]
                           [--shards N] [--delta-plan]
                           [--backfill] [--preempt-queued] [--preempt-running]
                           [--machine-classes old=8x1.0,new=4x2.0]
                           [--mtbf T [--mttr T]] [--task-failure-rate P]
                           [--max-attempts N] [--retry-backoff T] [--fault-seed S]
                           [--solver-fault K]
                           [--telemetry events.jsonl] [--json] [--no-validate]
                           [--output schedule.json]
                           (without --trace, the trace flags of `trace` generate one
                           inline; --shards N partitions the cluster into N per-shard
                           timelines and runs the sharded parallel engine — epoch
                           solves for different shards run concurrently and queued
                           tasks are stolen from overloaded shards at epoch
                           boundaries; epoch policies only, not combinable with the
                           fault, departure, class or preemption flags; --delta-plan
                           makes preemptive epoch policies plan arrival-only epochs
                           as deltas (no revocations), falling back to a full
                           re-solve after departures or faults;
                           --backfill first-fits placements into idle holes
                           below the frontier; --preempt-queued makes epoch policies
                           revoke not-yet-started commitments at every epoch boundary
                           and re-solve them with the pending set; --preempt-running
                           additionally truncates running commitments at the boundary
                           and re-solves their residuals — mid-execution re-allotment,
                           work conserved under the speed-up model; --telemetry records
                           the structured event stream as JSONL and prints decision-
                           latency percentiles, tasks/sec and the utilisation timeline;
                           --mtbf injects seeded processor crashes with mean uptime T
                           and mean repair --mttr, --task-failure-rate kills each task
                           attempt with probability P and retries it with capped
                           exponential backoff up to --max-attempts, --solver-fault
                           forces the K-th epoch solve to fail and degrade to the
                           greedy-list fallback — all deterministic per --fault-seed;
                           --machine-classes splits the machine into named speed
                           classes and runs the classed epoch engine: per-class
                           solves, queued tasks may migrate between classes at
                           epoch boundaries — epoch policies only, and not
                           combinable with fault, departure or preemption flags)
  malleable-sched schedule <instance.json> [--solver NAME]
                           [--search <exact|bisect>]
                           [--machine-classes old=8x1.0,new=4x2.0]
                           [--gantt] [--output schedule.json]
                           (--search only affects the mrt solver: `exact` bisects
                           over the oracle's breakpoints, `bisect` is the classical
                           midpoint search of the paper; --machine-classes needs a
                           classed solver — `--solver hetero-lp` or `hetero-greedy` —
                           whose class counts must sum to the instance's processors)
  malleable-sched solvers  (list every registered solver: names, aliases, guarantees)
  malleable-sched validate <instance.json> <schedule.json>
  malleable-sched bounds   <instance.json>
  malleable-sched help

Solver NAMEs are resolved through the workspace solver registry
(mrt, list, ludwig, twy-list, twy-nfdh, gang, lpt, hetero-lp, hetero-greedy,
plus aliases — see `solvers`).
";

struct TokenStream<'a> {
    tokens: &'a [String],
    index: usize,
}

impl<'a> TokenStream<'a> {
    fn new(tokens: &'a [String]) -> Self {
        TokenStream { tokens, index: 0 }
    }

    fn next(&mut self) -> Option<&'a str> {
        let token = self.tokens.get(self.index).map(String::as_str);
        self.index += 1;
        token
    }

    fn value_for(&mut self, flag: &str) -> Result<&'a str, ParseError> {
        self.next()
            .ok_or_else(|| ParseError::MissingValue(flag.to_string()))
    }
}

fn parse_number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, ParseError> {
    value.parse().map_err(|_| ParseError::InvalidValue {
        flag: flag.to_string(),
        value: value.to_string(),
    })
}

/// Validate a `--machine-classes` spec (`old=8x1.0,new=4x2.0`) at parse
/// time so malformed class lists fail before any file is read.
fn parse_class_spec(value: &str) -> Result<String, ParseError> {
    workload::parse_class_specs(value)
        .map(|_| value.to_string())
        .map_err(|_| ParseError::InvalidValue {
            flag: "--machine-classes".into(),
            value: value.to_string(),
        })
}

impl Cli {
    /// Parse an argument vector (without the program name).
    pub fn parse(args: &[String]) -> Result<Self, ParseError> {
        let mut stream = TokenStream::new(args);
        let command = match stream.next() {
            None => return Err(ParseError::MissingCommand),
            Some("help" | "--help" | "-h") => Command::Help,
            Some("generate") => Self::parse_generate(&mut stream)?,
            Some("trace") => Self::parse_trace(&mut stream)?,
            Some("online") => Self::parse_online(&mut stream)?,
            Some("schedule") => Self::parse_schedule(&mut stream)?,
            Some("validate") => Self::parse_validate(&mut stream)?,
            Some("bounds") => Self::parse_bounds(&mut stream)?,
            Some("solvers") => Command::Solvers,
            Some(other) => return Err(ParseError::UnknownCommand(other.to_string())),
        };
        Ok(Cli { command })
    }

    fn parse_generate(stream: &mut TokenStream) -> Result<Command, ParseError> {
        let mut family = FamilyChoice::Mixed;
        let mut tasks = 40usize;
        let mut processors = 32usize;
        let mut seed = 0u64;
        let mut output = None;
        while let Some(token) = stream.next() {
            match token {
                "--family" => family = FamilyChoice::parse(stream.value_for("--family")?)?,
                "--tasks" => tasks = parse_number("--tasks", stream.value_for("--tasks")?)?,
                "--processors" => {
                    processors = parse_number("--processors", stream.value_for("--processors")?)?
                }
                "--seed" => seed = parse_number("--seed", stream.value_for("--seed")?)?,
                "--output" | "-o" => output = Some(stream.value_for("--output")?.to_string()),
                other => return Err(ParseError::UnknownFlag(other.to_string())),
            }
        }
        Ok(Command::Generate {
            family,
            tasks,
            processors,
            seed,
            output,
        })
    }

    fn parse_trace(stream: &mut TokenStream) -> Result<Command, ParseError> {
        let mut family = FamilyChoice::Mixed;
        let mut pattern_name = "poisson".to_string();
        let mut rate = 4.0f64;
        let mut burst_size = 16usize;
        let mut burst_gap = 4.0f64;
        let mut tasks = 200usize;
        let mut processors = 32usize;
        let mut seed = 0u64;
        let mut departure_patience = None;
        let mut output = None;
        while let Some(token) = stream.next() {
            match token {
                "--family" => family = FamilyChoice::parse(stream.value_for("--family")?)?,
                "--pattern" => pattern_name = stream.value_for("--pattern")?.to_string(),
                "--rate" => rate = parse_number("--rate", stream.value_for("--rate")?)?,
                "--burst-size" => {
                    burst_size = parse_number("--burst-size", stream.value_for("--burst-size")?)?
                }
                "--burst-gap" => {
                    burst_gap = parse_number("--burst-gap", stream.value_for("--burst-gap")?)?
                }
                "--tasks" => tasks = parse_number("--tasks", stream.value_for("--tasks")?)?,
                "--processors" => {
                    processors = parse_number("--processors", stream.value_for("--processors")?)?
                }
                "--seed" => seed = parse_number("--seed", stream.value_for("--seed")?)?,
                "--departure-patience" => {
                    departure_patience = Some(parse_number(
                        "--departure-patience",
                        stream.value_for("--departure-patience")?,
                    )?)
                }
                "--output" | "-o" => output = Some(stream.value_for("--output")?.to_string()),
                other => return Err(ParseError::UnknownFlag(other.to_string())),
            }
        }
        let pattern = Self::resolve_pattern(&pattern_name, rate, burst_size, burst_gap)?;
        Ok(Command::Trace {
            family,
            pattern,
            tasks,
            processors,
            seed,
            departure_patience,
            output,
        })
    }

    fn resolve_pattern(
        name: &str,
        rate: f64,
        burst_size: usize,
        burst_gap: f64,
    ) -> Result<PatternChoice, ParseError> {
        match name {
            "poisson" => Ok(PatternChoice::Poisson { rate }),
            "bursty" | "burst" => Ok(PatternChoice::Bursty {
                burst_size,
                burst_gap,
            }),
            other => Err(ParseError::InvalidValue {
                flag: "--pattern".into(),
                value: other.into(),
            }),
        }
    }

    fn parse_online(stream: &mut TokenStream) -> Result<Command, ParseError> {
        let mut trace = None;
        let mut policy = None;
        let mut solver_flag: Option<String> = None;
        let mut solver_from_policy: Option<String> = None;
        let mut search = SearchChoice::default();
        let mut epoch = 1.0f64;
        let mut shards = 1usize;
        let mut delta_plan = false;
        let mut backfill = false;
        let mut preempt_queued = false;
        let mut preempt_running = false;
        let mut machine_classes = None;
        let mut family = FamilyChoice::Mixed;
        let mut pattern_name = "poisson".to_string();
        let mut rate = 4.0f64;
        let mut burst_size = 16usize;
        let mut burst_gap = 4.0f64;
        let mut tasks = 200usize;
        let mut processors = 32usize;
        let mut seed = 0u64;
        let mut departure_patience = None;
        let mut mtbf = None;
        let mut mttr = 2.0f64;
        let mut task_failure_rate = 0.0f64;
        let mut max_attempts = 4usize;
        let mut retry_backoff = 0.5f64;
        let mut fault_seed = None;
        let mut solver_fault = None;
        let mut telemetry = None;
        let mut json = false;
        let mut no_validate = false;
        let mut output = None;
        while let Some(token) = stream.next() {
            match token {
                "--trace" | "-t" => trace = Some(stream.value_for("--trace")?.to_string()),
                "--policy" | "-p" => {
                    let value = stream.value_for("--policy")?;
                    // `epoch-<solver>` tokens imply the solver; any registered
                    // solver name after the `epoch-` prefix is accepted.
                    let (choice, implied) = match value {
                        "greedy" | "greedy-list" => (PolicyChoice::Greedy, None),
                        "epoch" => (PolicyChoice::Epoch, Some("mrt".to_string())),
                        "batch" | "batch-idle" => (PolicyChoice::Batch, None),
                        other => match other.strip_prefix("epoch-") {
                            Some(solver) => (
                                PolicyChoice::Epoch,
                                Some(resolve_solver("--policy", solver)?),
                            ),
                            None => {
                                return Err(ParseError::InvalidValue {
                                    flag: "--policy".into(),
                                    value: other.into(),
                                })
                            }
                        },
                    };
                    policy = Some(choice);
                    solver_from_policy = implied;
                }
                "--solver" => {
                    solver_flag = Some(resolve_solver("--solver", stream.value_for("--solver")?)?)
                }
                "--search" => search = SearchChoice::parse(stream.value_for("--search")?)?,
                "--epoch" => epoch = parse_number("--epoch", stream.value_for("--epoch")?)?,
                "--shards" => shards = parse_number("--shards", stream.value_for("--shards")?)?,
                "--delta-plan" => delta_plan = true,
                "--backfill" => backfill = true,
                "--preempt-queued" => preempt_queued = true,
                "--preempt-running" => preempt_running = true,
                "--machine-classes" => {
                    machine_classes =
                        Some(parse_class_spec(stream.value_for("--machine-classes")?)?)
                }
                "--family" => family = FamilyChoice::parse(stream.value_for("--family")?)?,
                "--pattern" => pattern_name = stream.value_for("--pattern")?.to_string(),
                "--rate" => rate = parse_number("--rate", stream.value_for("--rate")?)?,
                "--burst-size" => {
                    burst_size = parse_number("--burst-size", stream.value_for("--burst-size")?)?
                }
                "--burst-gap" => {
                    burst_gap = parse_number("--burst-gap", stream.value_for("--burst-gap")?)?
                }
                "--tasks" => tasks = parse_number("--tasks", stream.value_for("--tasks")?)?,
                "--processors" => {
                    processors = parse_number("--processors", stream.value_for("--processors")?)?
                }
                "--seed" => seed = parse_number("--seed", stream.value_for("--seed")?)?,
                "--departure-patience" => {
                    departure_patience = Some(parse_number(
                        "--departure-patience",
                        stream.value_for("--departure-patience")?,
                    )?)
                }
                "--mtbf" => mtbf = Some(parse_number("--mtbf", stream.value_for("--mtbf")?)?),
                "--mttr" => mttr = parse_number("--mttr", stream.value_for("--mttr")?)?,
                "--task-failure-rate" => {
                    task_failure_rate = parse_number(
                        "--task-failure-rate",
                        stream.value_for("--task-failure-rate")?,
                    )?
                }
                "--max-attempts" => {
                    max_attempts =
                        parse_number("--max-attempts", stream.value_for("--max-attempts")?)?
                }
                "--retry-backoff" => {
                    retry_backoff =
                        parse_number("--retry-backoff", stream.value_for("--retry-backoff")?)?
                }
                "--fault-seed" => {
                    fault_seed = Some(parse_number(
                        "--fault-seed",
                        stream.value_for("--fault-seed")?,
                    )?)
                }
                "--solver-fault" => {
                    solver_fault = Some(parse_number(
                        "--solver-fault",
                        stream.value_for("--solver-fault")?,
                    )?)
                }
                "--telemetry" => telemetry = Some(stream.value_for("--telemetry")?.to_string()),
                "--json" => json = true,
                "--no-validate" => no_validate = true,
                "--output" | "-o" => output = Some(stream.value_for("--output")?.to_string()),
                other => return Err(ParseError::UnknownFlag(other.to_string())),
            }
        }
        let pattern = Self::resolve_pattern(&pattern_name, rate, burst_size, burst_gap)?;
        Ok(Command::Online {
            trace,
            policy: policy.ok_or(ParseError::MissingArgument("--policy"))?,
            solver: solver_flag
                .or(solver_from_policy)
                .unwrap_or_else(|| "mrt".to_string()),
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
        })
    }

    fn parse_schedule(stream: &mut TokenStream) -> Result<Command, ParseError> {
        let mut instance = None;
        let mut solver = "mrt".to_string();
        let mut search = SearchChoice::default();
        let mut machine_classes = None;
        let mut gantt = false;
        let mut output = None;
        while let Some(token) = stream.next() {
            match token {
                "--solver" | "-s" => {
                    solver = resolve_solver("--solver", stream.value_for("--solver")?)?
                }
                "--search" => search = SearchChoice::parse(stream.value_for("--search")?)?,
                "--machine-classes" => {
                    machine_classes =
                        Some(parse_class_spec(stream.value_for("--machine-classes")?)?)
                }
                "--gantt" => gantt = true,
                "--output" | "-o" => output = Some(stream.value_for("--output")?.to_string()),
                other if other.starts_with('-') => {
                    return Err(ParseError::UnknownFlag(other.to_string()))
                }
                positional => instance = Some(positional.to_string()),
            }
        }
        Ok(Command::Schedule {
            instance: instance.ok_or(ParseError::MissingArgument("instance.json"))?,
            solver,
            search,
            machine_classes,
            gantt,
            output,
        })
    }

    fn parse_validate(stream: &mut TokenStream) -> Result<Command, ParseError> {
        let mut positionals = Vec::new();
        while let Some(token) = stream.next() {
            if token.starts_with('-') {
                return Err(ParseError::UnknownFlag(token.to_string()));
            }
            positionals.push(token.to_string());
        }
        let mut drain = positionals.into_iter();
        Ok(Command::Validate {
            instance: drain
                .next()
                .ok_or(ParseError::MissingArgument("instance.json"))?,
            schedule: drain
                .next()
                .ok_or(ParseError::MissingArgument("schedule.json"))?,
        })
    }

    fn parse_bounds(stream: &mut TokenStream) -> Result<Command, ParseError> {
        let instance = match stream.next() {
            Some(token) if !token.starts_with('-') => token.to_string(),
            Some(token) => return Err(ParseError::UnknownFlag(token.to_string())),
            None => return Err(ParseError::MissingArgument("instance.json")),
        };
        Ok(Command::Bounds { instance })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_generate_with_all_flags() {
        let cli = Cli::parse(&args(&[
            "generate",
            "--family",
            "wide",
            "--tasks",
            "10",
            "--processors",
            "16",
            "--seed",
            "3",
            "--output",
            "x.json",
        ]))
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Generate {
                family: FamilyChoice::Wide,
                tasks: 10,
                processors: 16,
                seed: 3,
                output: Some("x.json".into()),
            }
        );
    }

    #[test]
    fn generate_defaults_are_sensible() {
        let cli = Cli::parse(&args(&["generate"])).unwrap();
        match cli.command {
            Command::Generate {
                family,
                tasks,
                processors,
                seed,
                output,
            } => {
                assert_eq!(family, FamilyChoice::Mixed);
                assert_eq!((tasks, processors, seed), (40, 32, 0));
                assert!(output.is_none());
            }
            other => panic!("unexpected command {other:?}"),
        }
    }

    #[test]
    fn parses_schedule_with_solver_and_gantt() {
        for flag in ["--solver", "-s"] {
            let cli =
                Cli::parse(&args(&["schedule", "inst.json", flag, "ludwig", "--gantt"])).unwrap();
            assert_eq!(
                cli.command,
                Command::Schedule {
                    instance: "inst.json".into(),
                    solver: "ludwig".into(),
                    search: SearchChoice::Exact,
                    machine_classes: None,
                    gantt: true,
                    output: None,
                }
            );
        }
        // --solver is the only way to name the solver: --algorithm and -a
        // are unknown flags.
        for flag in ["--algorithm", "-a"] {
            assert_eq!(
                Cli::parse(&args(&["schedule", "inst.json", flag, "mrt"])).unwrap_err(),
                ParseError::UnknownFlag(flag.into())
            );
        }
    }

    #[test]
    fn parses_schedule_search_and_parallel_flags() {
        let cli = Cli::parse(&args(&["schedule", "inst.json", "--search", "bisect"])).unwrap();
        match cli.command {
            Command::Schedule { search, .. } => assert_eq!(search, SearchChoice::Bisect),
            other => panic!("unexpected command {other:?}"),
        }
        // The probe always evaluates its branches in order on one thread:
        // there is no parallel-branches switch.
        assert_eq!(
            Cli::parse(&args(&["schedule", "inst.json", "--parallel-branches"])).unwrap_err(),
            ParseError::UnknownFlag("--parallel-branches".into())
        );
        // Aliases and the default.
        for (token, expected) in [
            ("exact", SearchChoice::Exact),
            ("breakpoint", SearchChoice::Exact),
            ("bisection", SearchChoice::Bisect),
        ] {
            match Cli::parse(&args(&["schedule", "i.json", "--search", token]))
                .unwrap()
                .command
            {
                Command::Schedule { search, .. } => assert_eq!(search, expected),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(matches!(
            Cli::parse(&args(&["schedule", "i.json", "--search", "magic"])).unwrap_err(),
            ParseError::InvalidValue { .. }
        ));
        match Cli::parse(&args(&[
            "online",
            "--policy",
            "epoch-mrt",
            "--search",
            "bisect",
        ]))
        .unwrap()
        .command
        {
            Command::Online { search, .. } => assert_eq!(search, SearchChoice::Bisect),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn schedule_requires_an_instance() {
        assert_eq!(
            Cli::parse(&args(&["schedule", "--gantt"])).unwrap_err(),
            ParseError::MissingArgument("instance.json")
        );
    }

    #[test]
    fn parses_validate_and_bounds() {
        assert_eq!(
            Cli::parse(&args(&["validate", "a.json", "b.json"]))
                .unwrap()
                .command,
            Command::Validate {
                instance: "a.json".into(),
                schedule: "b.json".into()
            }
        );
        assert_eq!(
            Cli::parse(&args(&["bounds", "a.json"])).unwrap().command,
            Command::Bounds {
                instance: "a.json".into()
            }
        );
    }

    #[test]
    fn rejects_unknown_commands_flags_and_values() {
        assert!(matches!(
            Cli::parse(&args(&["frobnicate"])).unwrap_err(),
            ParseError::UnknownCommand(_)
        ));
        assert!(matches!(
            Cli::parse(&args(&["generate", "--frequency", "3"])).unwrap_err(),
            ParseError::UnknownFlag(_)
        ));
        assert!(matches!(
            Cli::parse(&args(&["generate", "--tasks", "many"])).unwrap_err(),
            ParseError::InvalidValue { .. }
        ));
        assert!(matches!(
            Cli::parse(&args(&["schedule", "i.json", "--solver", "magic"])).unwrap_err(),
            ParseError::UnknownSolver { .. }
        ));
        assert_eq!(Cli::parse(&[]).unwrap_err(), ParseError::MissingCommand);
    }

    #[test]
    fn solver_aliases_resolve_to_canonical_names() {
        for (token, expected) in [
            ("sqrt3", "mrt"),
            ("mrt-sqrt3", "mrt"),
            ("two-phase", "ludwig"),
            ("sequential", "lpt"),
            ("canonical-list", "list"),
            ("twy-nfdh", "twy-nfdh"),
        ] {
            let cli = Cli::parse(&args(&["schedule", "i.json", "--solver", token])).unwrap();
            match cli.command {
                Command::Schedule { solver, .. } => assert_eq!(solver, expected, "{token}"),
                other => panic!("unexpected {other:?}"),
            }
        }
        // Unknown names are rejected with the registered list.
        let err = Cli::parse(&args(&["schedule", "i.json", "--solver", "magic"])).unwrap_err();
        match &err {
            ParseError::UnknownSolver { registered, .. } => {
                assert!(registered.contains("mrt") && registered.contains("gang"));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(err.to_string().contains("registered"));
    }

    #[test]
    fn solvers_subcommand_parses() {
        assert_eq!(
            Cli::parse(&args(&["solvers"])).unwrap().command,
            Command::Solvers
        );
    }

    #[test]
    fn parses_trace_with_patterns() {
        let cli = Cli::parse(&args(&[
            "trace",
            "--pattern",
            "bursty",
            "--burst-size",
            "8",
            "--burst-gap",
            "2.5",
            "--tasks",
            "64",
            "--processors",
            "16",
            "--seed",
            "9",
            "--output",
            "t.json",
        ]))
        .unwrap();
        assert_eq!(
            cli.command,
            Command::Trace {
                family: FamilyChoice::Mixed,
                pattern: PatternChoice::Bursty {
                    burst_size: 8,
                    burst_gap: 2.5
                },
                tasks: 64,
                processors: 16,
                seed: 9,
                departure_patience: None,
                output: Some("t.json".into()),
            }
        );
        assert!(matches!(
            Cli::parse(&args(&["trace", "--pattern", "weird"])).unwrap_err(),
            ParseError::InvalidValue { .. }
        ));
        match Cli::parse(&args(&["trace", "--departure-patience", "2.5"]))
            .unwrap()
            .command
        {
            Command::Trace {
                departure_patience, ..
            } => assert_eq!(departure_patience, Some(2.5)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_online_resource_model_flags() {
        // Default: frontier-only, no preemption, no departures.
        match Cli::parse(&args(&["online", "--policy", "greedy"]))
            .unwrap()
            .command
        {
            Command::Online {
                backfill,
                preempt_queued,
                preempt_running,
                departure_patience,
                ..
            } => {
                assert!(!backfill && !preempt_queued && !preempt_running);
                assert!(departure_patience.is_none());
            }
            other => panic!("unexpected {other:?}"),
        }
        match Cli::parse(&args(&[
            "online",
            "--policy",
            "epoch-mrt",
            "--backfill",
            "--preempt-queued",
            "--preempt-running",
            "--departure-patience",
            "3",
        ]))
        .unwrap()
        .command
        {
            Command::Online {
                backfill,
                preempt_queued,
                preempt_running,
                departure_patience,
                ..
            } => {
                assert!(backfill && preempt_queued && preempt_running);
                assert_eq!(departure_patience, Some(3.0));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            Cli::parse(&args(&[
                "online",
                "--policy",
                "greedy",
                "--departure-patience"
            ]))
            .unwrap_err(),
            ParseError::MissingValue(_)
        ));
    }

    #[test]
    fn parses_online_fault_flags() {
        // Defaults: faults entirely off.
        match Cli::parse(&args(&["online", "--policy", "greedy"]))
            .unwrap()
            .command
        {
            Command::Online {
                mtbf,
                mttr,
                task_failure_rate,
                max_attempts,
                retry_backoff,
                fault_seed,
                solver_fault,
                ..
            } => {
                assert!(mtbf.is_none() && fault_seed.is_none() && solver_fault.is_none());
                assert_eq!(mttr, 2.0);
                assert_eq!(task_failure_rate, 0.0);
                assert_eq!(max_attempts, 4);
                assert_eq!(retry_backoff, 0.5);
            }
            other => panic!("unexpected {other:?}"),
        }
        match Cli::parse(&args(&[
            "online",
            "--policy",
            "epoch-mrt",
            "--mtbf",
            "20",
            "--mttr",
            "3",
            "--task-failure-rate",
            "0.05",
            "--max-attempts",
            "3",
            "--retry-backoff",
            "1.5",
            "--fault-seed",
            "9",
            "--solver-fault",
            "2",
        ]))
        .unwrap()
        .command
        {
            Command::Online {
                mtbf,
                mttr,
                task_failure_rate,
                max_attempts,
                retry_backoff,
                fault_seed,
                solver_fault,
                ..
            } => {
                assert_eq!(mtbf, Some(20.0));
                assert_eq!(mttr, 3.0);
                assert_eq!(task_failure_rate, 0.05);
                assert_eq!(max_attempts, 3);
                assert_eq!(retry_backoff, 1.5);
                assert_eq!(fault_seed, Some(9));
                assert_eq!(solver_fault, Some(2));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            Cli::parse(&args(&["online", "--policy", "greedy", "--mtbf", "often"])).unwrap_err(),
            ParseError::InvalidValue { .. }
        ));
    }

    #[test]
    fn parses_online_policies_and_solvers() {
        let cli = Cli::parse(&args(&[
            "online",
            "--policy",
            "epoch-mrt",
            "--trace",
            "t.json",
            "--epoch",
            "0.5",
        ]))
        .unwrap();
        match cli.command {
            Command::Online {
                trace,
                policy,
                solver,
                epoch,
                ..
            } => {
                assert_eq!(trace.as_deref(), Some("t.json"));
                assert_eq!(policy, PolicyChoice::Epoch);
                assert_eq!(solver, "mrt");
                assert_eq!(epoch, 0.5);
            }
            other => panic!("unexpected {other:?}"),
        }

        // The policy token implies a solver, an explicit flag overrides it.
        let cli = Cli::parse(&args(&[
            "online",
            "--policy",
            "epoch-ludwig",
            "--solver",
            "list",
        ]))
        .unwrap();
        match cli.command {
            Command::Online { policy, solver, .. } => {
                assert_eq!(policy, PolicyChoice::Epoch);
                assert_eq!(solver, "list");
            }
            other => panic!("unexpected {other:?}"),
        }

        // Any registered solver works behind the epoch- prefix.
        match Cli::parse(&args(&["online", "--policy", "epoch-gang"]))
            .unwrap()
            .command
        {
            Command::Online { policy, solver, .. } => {
                assert_eq!(policy, PolicyChoice::Epoch);
                assert_eq!(solver, "gang");
            }
            other => panic!("unexpected {other:?}"),
        }

        // Batch and greedy parse; --policy is mandatory.
        for (token, expected) in [
            ("greedy", PolicyChoice::Greedy),
            ("batch-idle", PolicyChoice::Batch),
        ] {
            match Cli::parse(&args(&["online", "--policy", token]))
                .unwrap()
                .command
            {
                Command::Online { policy, .. } => assert_eq!(policy, expected),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(
            Cli::parse(&args(&["online"])).unwrap_err(),
            ParseError::MissingArgument("--policy")
        );
        assert!(matches!(
            Cli::parse(&args(&["online", "--policy", "psychic"])).unwrap_err(),
            ParseError::InvalidValue { .. }
        ));
    }

    #[test]
    fn parses_machine_classes_on_schedule_and_online() {
        match Cli::parse(&args(&[
            "schedule",
            "i.json",
            "--solver",
            "hetero-lp",
            "--machine-classes",
            "old=8x1.0,new=4x2.0",
        ]))
        .unwrap()
        .command
        {
            Command::Schedule {
                solver,
                machine_classes,
                ..
            } => {
                assert_eq!(solver, "hetero-lp");
                assert_eq!(machine_classes.as_deref(), Some("old=8x1.0,new=4x2.0"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // The `hetero` alias resolves to the classed solver.
        match Cli::parse(&args(&["schedule", "i.json", "--solver", "hetero"]))
            .unwrap()
            .command
        {
            Command::Schedule { solver, .. } => assert_eq!(solver, "hetero-lp"),
            other => panic!("unexpected {other:?}"),
        }
        match Cli::parse(&args(&[
            "online",
            "--policy",
            "epoch-mrt",
            "--machine-classes",
            "a=2x1.0,b=2x2.0",
        ]))
        .unwrap()
        .command
        {
            Command::Online {
                machine_classes, ..
            } => assert_eq!(machine_classes.as_deref(), Some("a=2x1.0,b=2x2.0")),
            other => panic!("unexpected {other:?}"),
        }
        // Malformed specs are rejected at parse time, before any file IO.
        for bad in ["old=8", "old=0x1.0", "=8x1.0", "old=8x-1", ""] {
            assert!(
                matches!(
                    Cli::parse(&args(&["schedule", "i.json", "--machine-classes", bad]))
                        .unwrap_err(),
                    ParseError::InvalidValue { .. }
                ),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn help_is_parsed_and_errors_display() {
        assert_eq!(Cli::parse(&args(&["help"])).unwrap().command, Command::Help);
        assert!(ParseError::MissingCommand.to_string().contains("help"));
        assert!(ParseError::UnknownFlag("--x".into())
            .to_string()
            .contains("--x"));
    }
}
