//! Hand-rolled argument parsing for the `malleable-sched` binary.
//!
//! The parser is deliberately dependency-free (the workspace keeps its
//! dependency footprint to the numerical crates) and strict: unknown flags
//! and missing values are reported with the offending token.  It also
//! records which flags were given, so that `online` can tell a default from
//! a given value and refuse a flag its run would ignore.

use std::fmt;

use malleable_core::dual::SearchMode;
use workload::ArrivalPattern;

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

/// The dual-search mode of a `--search` token.  The CLI default is
/// [`SearchMode::Exact`], not the library default.
fn parse_search(token: &str) -> Result<SearchMode, ParseError> {
    match token {
        "exact" | "breakpoint" => Ok(SearchMode::Exact),
        "bisect" | "bisection" => Ok(SearchMode::Bisect),
        other => Err(ParseError::InvalidValue {
            flag: "--search".into(),
            value: other.into(),
        }),
    }
}

/// The flags `trace` and `online` share: how to generate an arrival trace,
/// and where the command writes its result.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceArgs {
    /// Workload family of the tasks.
    pub family: FamilyChoice,
    /// Arrival pattern.
    pub pattern: ArrivalPattern,
    /// Number of tasks.
    pub tasks: usize,
    /// Number of processors.
    pub processors: usize,
    /// Generator seed.
    pub seed: u64,
    /// Mean patience before a queued task departs (None = no departures).
    pub departure_patience: Option<f64>,
    /// Output file: the trace of `trace` (None = print it), or the schedule.
    pub output: Option<String>,
}

impl Default for TraceArgs {
    fn default() -> Self {
        TraceArgs {
            family: FamilyChoice::Mixed,
            pattern: ArrivalPattern::Poisson { rate: 4.0 },
            tasks: 200,
            processors: 32,
            seed: 0,
            departure_patience: None,
            output: None,
        }
    }
}

/// The arguments of `online`, and of `trace`, which takes only the flags
/// of [`OnlineArgs::common`].
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineArgs {
    /// Trace file; when absent a trace is generated from [`OnlineArgs::common`].
    pub trace: Option<String>,
    /// The flags shared with `trace`; `output` is the schedule file.
    pub common: TraceArgs,
    /// Online policy.
    pub policy: PolicyChoice,
    /// Canonical name of the offline solver (registry-resolved).
    pub solver: String,
    /// Dual-search mode of the solver.
    pub search: SearchMode,
    /// Epoch period of epoch policies.
    pub epoch: f64,
    /// Shards of the sharded engine (1 = the event-driven engine).
    pub shards: usize,
    /// Plan arrival-only epochs as deltas against the surviving schedule.
    pub delta_plan: bool,
    /// First-fit placements into idle holes below the frontier.
    pub backfill: bool,
    /// Revoke queued commitments at epoch boundaries and re-solve them.
    pub preempt_queued: bool,
    /// Also re-allot running commitments at epoch boundaries.
    pub preempt_running: bool,
    /// Machine-class spec (`old=8x1.0,new=4x2.0`) of the classed engine.
    pub machine_classes: Option<String>,
    /// Mean time between crashes per processor (None = no crashes).
    pub mtbf: Option<f64>,
    /// Mean repair time for crashed processors.
    pub mttr: f64,
    /// Probability each (task, attempt) pair is killed mid-segment.
    pub task_failure_rate: f64,
    /// Attempts budget per task before it is abandoned.
    pub max_attempts: usize,
    /// Base backoff before the first retry (doubles per failure, capped).
    pub retry_backoff: f64,
    /// Seed of the deterministic fault plan (defaults to --seed).
    pub fault_seed: Option<u64>,
    /// Force the K-th solve (from 1) to fault and degrade to the fallback.
    pub solver_fault: Option<usize>,
    /// Write the telemetry event stream to this JSONL file.
    pub telemetry: Option<String>,
    /// Print one JSON document instead of the text report.
    pub json: bool,
    /// Skip validating the schedule against the trace.
    pub no_validate: bool,
    /// Every flag the command line gave, by its long name.
    pub given: Vec<&'static str>,
}

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a synthetic instance and write it as JSON.
    Generate {
        /// Workload family of the tasks.
        family: FamilyChoice,
        /// Number of tasks.
        tasks: usize,
        /// Number of processors.
        processors: usize,
        /// Generator seed.
        seed: u64,
        /// Output file (None = print the JSON).
        output: Option<String>,
    },
    /// Generate an arrival trace and write it as JSON: the generation
    /// flags of `online`, whose other arguments keep their defaults.
    Trace(Box<OnlineArgs>),
    /// Run the online engine over an arrival trace.
    Online(Box<OnlineArgs>),
    /// Schedule an instance file.
    Schedule {
        /// Instance file.
        instance: String,
        /// Canonical name of the solver (registry-resolved).
        solver: String,
        /// Dual-search mode, when `--search` was given; only the solvers
        /// that run the dual search take it, in `exact` mode by default.
        search: Option<SearchMode>,
        /// Machine-class spec, forwarded to the classed solvers as their
        /// `machine-classes` config key (hetero solvers only).
        machine_classes: Option<String>,
        /// Print an ASCII Gantt chart of the schedule.
        gantt: bool,
        /// Write the schedule to this JSON file.
        output: Option<String>,
    },
    /// Validate a schedule file against an instance file.
    Validate {
        /// Instance file.
        instance: String,
        /// Schedule file.
        schedule: String,
    },
    /// Print bounds and statistics of an instance file.
    Bounds {
        /// Instance file.
        instance: String,
    },
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
    InvalidValue {
        /// The flag.
        flag: String,
        /// The value given.
        value: String,
    },
    /// A solver name that is not in the registry.
    UnknownSolver {
        /// The flag that named the solver.
        flag: String,
        /// The name given.
        value: String,
        /// The registered names, comma-separated.
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
                           (--rate needs --pattern poisson, --burst-* need --pattern
                           bursty; --departure-patience gives every task an exponential
                           patience with mean P: tasks not started in time depart)
  malleable-sched online   [--trace FILE] --policy <greedy|epoch-mrt|epoch-ludwig|epoch-list|batch-idle>
                           [--epoch D] [--solver NAME] [--search <exact|bisect>]
                           [--shards N] [--machine-classes old=8x1.0,new=4x2.0]
                           [--backfill] [--preempt-queued] [--preempt-running] [--delta-plan]
                           [--mtbf T [--mttr T]] [--task-failure-rate P]
                           [--max-attempts N] [--retry-backoff T] [--fault-seed S]
                           [--solver-fault K]
                           [--telemetry events.jsonl] [--json] [--no-validate]
                           [--output schedule.json]
                           (without --trace, the trace flags of `trace` generate one
                           inline.  --shards N other than 1 runs the sharded engine,
                           --machine-classes the classed one, both with epoch
                           policies only; otherwise the event-driven engine runs
                           --policy.  One flag table says which engines and policies
                           honour each flag and what else it needs: --mttr needs
                           --mtbf, --max-attempts and --retry-backoff a positive
                           --task-failure-rate, --delta-plan a --preempt-* flag,
                           --search a dual-search solver (as for `schedule`),
                           --rate and --burst-* their pattern, the trace flags no
                           --trace.  A flag the run would ignore is refused by name;
                           the README's online flag table lists them all)
  malleable-sched schedule <instance.json> [--solver NAME]
                           [--search <exact|bisect>]
                           [--machine-classes old=8x1.0,new=4x2.0]
                           [--gantt] [--output schedule.json]
                           (--search needs a solver that runs the dual search —
                           mrt, hetero-lp or hetero-greedy: `exact` (the default)
                           bisects over the oracle's breakpoints, `bisect` is the
                           classical midpoint search of the paper; --machine-classes needs a
                           classed solver — `--solver hetero-lp` or `hetero-greedy` —
                           whose class counts must sum to the instance's processors)
  malleable-sched solvers  (list every registered solver: names, aliases, guarantees)
  malleable-sched validate <instance.json> <schedule.json>
  malleable-sched bounds   <instance.json>
  malleable-sched help     (also --help, -h)

Short flags: -t for --trace, -p for --policy, -s for --solver (schedule),
-o for --output.  Solver NAMEs are resolved through the workspace solver registry
(mrt, list, ludwig, twy-list, twy-nfdh, gang, lpt, hetero-lp, hetero-greedy,
plus aliases — see `solvers`).
";

struct TokenStream<'a> {
    tokens: &'a [String],
    index: usize,
    /// The flags read so far, by long name.
    given: Vec<&'static str>,
}

impl<'a> TokenStream<'a> {
    fn new(tokens: &'a [String]) -> Self {
        TokenStream {
            tokens,
            index: 0,
            given: Vec::new(),
        }
    }

    fn next(&mut self) -> Option<&'a str> {
        let token = self.tokens.get(self.index).map(String::as_str);
        self.index += 1;
        token
    }

    /// The value of `flag`, which is recorded as given.
    fn value_for(&mut self, flag: &'static str) -> Result<&'a str, ParseError> {
        self.given.push(flag);
        self.next()
            .ok_or_else(|| ParseError::MissingValue(flag.to_string()))
    }

    /// The value of `flag` as an owned string.
    fn text(&mut self, flag: &'static str) -> Result<String, ParseError> {
        self.value_for(flag).map(str::to_string)
    }

    /// The value of `flag` as a number.
    fn number<T: std::str::FromStr>(&mut self, flag: &'static str) -> Result<T, ParseError> {
        let value = self.value_for(flag)?;
        value.parse().map_err(|_| ParseError::InvalidValue {
            flag: flag.to_string(),
            value: value.to_string(),
        })
    }

    /// Record the switch `flag` as given; returns `true`, its value.
    fn switch(&mut self, flag: &'static str) -> bool {
        self.given.push(flag);
        true
    }

    /// A `--machine-classes` spec (`old=8x1.0,new=4x2.0`), validated here
    /// so malformed class lists fail before any file is read.
    fn class_spec(&mut self) -> Result<String, ParseError> {
        let value = self.value_for("--machine-classes")?;
        workload::parse_class_specs(value)
            .map(|_| value.to_string())
            .map_err(|_| ParseError::InvalidValue {
                flag: "--machine-classes".into(),
                value: value.to_string(),
            })
    }
}

/// Parse the flags of a command that generates a trace (`trace`, `online`)
/// into `args`: the shared flags here, every other one through `other`,
/// which returns `Ok(false)` for a flag it does not know.
fn parse_trace_flags<'a>(
    stream: &mut TokenStream<'a>,
    args: &mut TraceArgs,
    mut other: impl FnMut(&str, &mut TokenStream<'a>) -> Result<bool, ParseError>,
) -> Result<(), ParseError> {
    let mut pattern = "poisson";
    let (mut rate, mut burst_size, mut burst_gap) = (4.0, 16, 4.0);
    while let Some(token) = stream.next() {
        match token {
            "--family" => args.family = FamilyChoice::parse(stream.value_for("--family")?)?,
            "--pattern" => pattern = stream.value_for("--pattern")?,
            "--rate" => rate = stream.number("--rate")?,
            "--burst-size" => burst_size = stream.number("--burst-size")?,
            "--burst-gap" => burst_gap = stream.number("--burst-gap")?,
            "--tasks" => args.tasks = stream.number("--tasks")?,
            "--processors" => args.processors = stream.number("--processors")?,
            "--seed" => args.seed = stream.number("--seed")?,
            "--departure-patience" => {
                args.departure_patience = Some(stream.number("--departure-patience")?)
            }
            "--output" | "-o" => args.output = Some(stream.text("--output")?),
            flag => {
                if !other(flag, stream)? {
                    return Err(ParseError::UnknownFlag(flag.to_string()));
                }
            }
        }
    }
    args.pattern = match pattern {
        "poisson" => ArrivalPattern::Poisson { rate },
        "bursty" | "burst" => ArrivalPattern::Bursty {
            burst_size,
            burst_gap,
        },
        other => {
            return Err(ParseError::InvalidValue {
                flag: "--pattern".into(),
                value: other.into(),
            })
        }
    };
    Ok(())
}

/// The arguments of an `online` (or `trace`) command line that gave no
/// flag.  `--policy` is mandatory and the solver has a rule of its own:
/// `online` sets both once every flag is read.
fn online_defaults() -> OnlineArgs {
    OnlineArgs {
        trace: None,
        common: TraceArgs::default(),
        policy: PolicyChoice::Greedy,
        solver: String::new(),
        search: SearchMode::Exact,
        epoch: 1.0,
        shards: 1,
        delta_plan: false,
        backfill: false,
        preempt_queued: false,
        preempt_running: false,
        machine_classes: None,
        mtbf: None,
        mttr: 2.0,
        task_failure_rate: 0.0,
        max_attempts: 4,
        retry_backoff: 0.5,
        fault_seed: None,
        solver_fault: None,
        telemetry: None,
        json: false,
        no_validate: false,
        given: Vec::new(),
    }
}

impl Cli {
    /// Parse an argument vector (without the program name).
    pub fn parse(args: &[String]) -> Result<Self, ParseError> {
        let mut stream = TokenStream::new(args);
        let command = match stream.next() {
            None => return Err(ParseError::MissingCommand),
            Some("help" | "--help" | "-h") => Command::Help,
            Some("generate") => Self::parse_generate(&mut stream)?,
            Some("trace") => {
                let mut args = online_defaults();
                parse_trace_flags(&mut stream, &mut args.common, |_, _| Ok(false))?;
                args.given = std::mem::take(&mut stream.given);
                Command::Trace(Box::new(args))
            }
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
                "--tasks" => tasks = stream.number("--tasks")?,
                "--processors" => processors = stream.number("--processors")?,
                "--seed" => seed = stream.number("--seed")?,
                "--output" | "-o" => output = Some(stream.text("--output")?),
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

    fn parse_online(stream: &mut TokenStream) -> Result<Command, ParseError> {
        let (mut policy, mut solver, mut implied_solver) = (None, None, None);
        let mut args = online_defaults();
        parse_trace_flags(stream, &mut args.common, |flag, stream| {
            match flag {
                "--trace" | "-t" => args.trace = Some(stream.text("--trace")?),
                "--policy" | "-p" => {
                    // `epoch-<solver>` tokens imply the solver; any registered
                    // solver name after the `epoch-` prefix is accepted.
                    (policy, implied_solver) = match stream.value_for("--policy")? {
                        "greedy" | "greedy-list" => (Some(PolicyChoice::Greedy), None),
                        "epoch" => (Some(PolicyChoice::Epoch), Some("mrt".to_string())),
                        "batch" | "batch-idle" => (Some(PolicyChoice::Batch), None),
                        other => match other.strip_prefix("epoch-") {
                            Some(name) => (
                                Some(PolicyChoice::Epoch),
                                Some(resolve_solver("--policy", name)?),
                            ),
                            None => {
                                return Err(ParseError::InvalidValue {
                                    flag: "--policy".into(),
                                    value: other.into(),
                                })
                            }
                        },
                    };
                }
                "--solver" => {
                    solver = Some(resolve_solver("--solver", stream.value_for("--solver")?)?)
                }
                "--search" => args.search = parse_search(stream.value_for("--search")?)?,
                "--epoch" => args.epoch = stream.number("--epoch")?,
                "--shards" => args.shards = stream.number("--shards")?,
                "--delta-plan" => args.delta_plan = stream.switch("--delta-plan"),
                "--backfill" => args.backfill = stream.switch("--backfill"),
                "--preempt-queued" => args.preempt_queued = stream.switch("--preempt-queued"),
                "--preempt-running" => args.preempt_running = stream.switch("--preempt-running"),
                "--machine-classes" => args.machine_classes = Some(stream.class_spec()?),
                "--mtbf" => args.mtbf = Some(stream.number("--mtbf")?),
                "--mttr" => args.mttr = stream.number("--mttr")?,
                "--task-failure-rate" => {
                    args.task_failure_rate = stream.number("--task-failure-rate")?
                }
                "--max-attempts" => args.max_attempts = stream.number("--max-attempts")?,
                "--retry-backoff" => args.retry_backoff = stream.number("--retry-backoff")?,
                "--fault-seed" => args.fault_seed = Some(stream.number("--fault-seed")?),
                "--solver-fault" => args.solver_fault = Some(stream.number("--solver-fault")?),
                "--telemetry" => args.telemetry = Some(stream.text("--telemetry")?),
                "--json" => args.json = stream.switch("--json"),
                "--no-validate" => args.no_validate = stream.switch("--no-validate"),
                _ => return Ok(false),
            }
            Ok(true)
        })?;
        args.policy = policy.ok_or(ParseError::MissingArgument("--policy"))?;
        args.solver = solver
            .or(implied_solver)
            .unwrap_or_else(|| "mrt".to_string());
        args.given = std::mem::take(&mut stream.given);
        Ok(Command::Online(Box::new(args)))
    }

    fn parse_schedule(stream: &mut TokenStream) -> Result<Command, ParseError> {
        let mut instance = None;
        let mut solver = "mrt".to_string();
        let mut search = None;
        let mut machine_classes = None;
        let mut gantt = false;
        let mut output = None;
        while let Some(token) = stream.next() {
            match token {
                "--solver" | "-s" => {
                    solver = resolve_solver("--solver", stream.value_for("--solver")?)?
                }
                "--search" => search = Some(parse_search(stream.value_for("--search")?)?),
                "--machine-classes" => machine_classes = Some(stream.class_spec()?),
                "--gantt" => gantt = true,
                "--output" | "-o" => output = Some(stream.text("--output")?),
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
                    search: None,
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
            Command::Schedule { search, .. } => assert_eq!(search, Some(SearchMode::Bisect)),
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
            ("exact", SearchMode::Exact),
            ("breakpoint", SearchMode::Exact),
            ("bisection", SearchMode::Bisect),
        ] {
            match Cli::parse(&args(&["schedule", "i.json", "--search", token]))
                .unwrap()
                .command
            {
                Command::Schedule { search, .. } => assert_eq!(search, Some(expected)),
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
            Command::Online(args) => assert_eq!(args.search, SearchMode::Bisect),
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
        let trace = |raw: &[&str]| match Cli::parse(&args(raw)).unwrap().command {
            Command::Trace(trace) => *trace,
            other => panic!("unexpected {other:?}"),
        };
        let parsed = trace(&[
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
        ]);
        assert_eq!(
            parsed.common,
            TraceArgs {
                family: FamilyChoice::Mixed,
                pattern: ArrivalPattern::Bursty {
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
        // The pattern is resolved once every flag is read, so its
        // parameters may come before it.
        assert_eq!(
            trace(&["trace", "--burst-size", "3", "--pattern", "burst"]).common,
            TraceArgs {
                pattern: ArrivalPattern::Bursty {
                    burst_size: 3,
                    burst_gap: 4.0
                },
                ..TraceArgs::default()
            }
        );
        assert!(matches!(
            Cli::parse(&args(&["trace", "--pattern", "weird"])).unwrap_err(),
            ParseError::InvalidValue { .. }
        ));
        let patient = trace(&["trace", "--departure-patience", "2.5"]);
        assert_eq!(patient.common.departure_patience, Some(2.5));
    }

    /// The arguments of an `online` command line.
    fn online(raw: &[&str]) -> OnlineArgs {
        match Cli::parse(&args(raw)).unwrap().command {
            Command::Online(online) => *online,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_online_resource_model_flags() {
        // Default: frontier-only, no preemption, no departures.
        let parsed = online(&["online", "--policy", "greedy"]);
        assert!(!parsed.backfill && !parsed.preempt_queued && !parsed.preempt_running);
        assert!(parsed.common.departure_patience.is_none());
        let parsed = online(&[
            "online",
            "--policy",
            "epoch-mrt",
            "--backfill",
            "--preempt-queued",
            "--preempt-running",
            "--departure-patience",
            "3",
        ]);
        assert!(parsed.backfill && parsed.preempt_queued && parsed.preempt_running);
        assert_eq!(parsed.common.departure_patience, Some(3.0));
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
        let parsed = online(&["online", "--policy", "greedy"]);
        assert!(parsed.mtbf.is_none() && parsed.fault_seed.is_none());
        assert!(parsed.solver_fault.is_none());
        assert_eq!(parsed.mttr, 2.0);
        assert_eq!(parsed.task_failure_rate, 0.0);
        assert_eq!(parsed.max_attempts, 4);
        assert_eq!(parsed.retry_backoff, 0.5);
        let parsed = online(&[
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
        ]);
        assert_eq!(parsed.mtbf, Some(20.0));
        assert_eq!(parsed.mttr, 3.0);
        assert_eq!(parsed.task_failure_rate, 0.05);
        assert_eq!(parsed.max_attempts, 3);
        assert_eq!(parsed.retry_backoff, 1.5);
        assert_eq!(parsed.fault_seed, Some(9));
        assert_eq!(parsed.solver_fault, Some(2));
        assert!(matches!(
            Cli::parse(&args(&["online", "--policy", "greedy", "--mtbf", "often"])).unwrap_err(),
            ParseError::InvalidValue { .. }
        ));
    }

    #[test]
    fn parses_online_policies_and_solvers() {
        let parsed = online(&[
            "online",
            "--policy",
            "epoch-mrt",
            "--trace",
            "t.json",
            "--epoch",
            "0.5",
        ]);
        assert_eq!(parsed.trace.as_deref(), Some("t.json"));
        assert_eq!(parsed.policy, PolicyChoice::Epoch);
        assert_eq!(parsed.solver, "mrt");
        assert_eq!(parsed.epoch, 0.5);

        // The policy token implies a solver, an explicit flag overrides it
        // wherever it stands.
        for argv in [
            ["online", "--policy", "epoch-ludwig", "--solver", "list"],
            ["online", "--solver", "list", "--policy", "epoch-ludwig"],
        ] {
            let parsed = online(&argv);
            assert_eq!(parsed.policy, PolicyChoice::Epoch);
            assert_eq!(parsed.solver, "list");
        }

        // Any registered solver works behind the epoch- prefix.
        let parsed = online(&["online", "--policy", "epoch-gang"]);
        assert_eq!(parsed.policy, PolicyChoice::Epoch);
        assert_eq!(parsed.solver, "gang");

        // Batch and greedy parse; --policy is mandatory.
        for (token, expected) in [
            ("greedy", PolicyChoice::Greedy),
            ("batch-idle", PolicyChoice::Batch),
        ] {
            assert_eq!(online(&["online", "--policy", token]).policy, expected);
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
    fn online_records_the_flags_it_was_given() {
        // A value equal to the default still counts as given, and short
        // flags are recorded by their long name.
        let parsed = online(&[
            "online", "-p", "greedy", "--mttr", "2", "--rate", "4", "--json", "-t", "t.json",
        ]);
        assert_eq!(parsed.mttr, 2.0);
        assert_eq!(
            parsed.given,
            vec!["--policy", "--mttr", "--rate", "--json", "--trace"]
        );
        assert!(online(&["online", "--policy", "greedy"]).given == vec!["--policy"]);
    }

    #[test]
    fn usage_lists_every_flag_the_parser_accepts() {
        // Every flag literal of the parser above its tests.
        let source = include_str!("args.rs");
        let parser = &source[..source.find("#[cfg(test)]").unwrap()];
        let mut flags: Vec<&str> = parser
            .split('"')
            .skip(1)
            .step_by(2)
            .filter(|literal| {
                literal.len() > 1
                    && literal.starts_with('-')
                    && literal
                        .trim_start_matches('-')
                        .chars()
                        .all(|c| c.is_ascii_lowercase() || c == '-')
            })
            .collect();
        flags.sort_unstable();
        flags.dedup();
        assert!(flags.len() > 30, "{flags:?}");
        for flag in flags {
            assert!(
                USAGE
                    .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                    .any(|word| word == flag),
                "{flag} is missing from USAGE"
            );
        }
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
            Command::Online(parsed) => {
                assert_eq!(parsed.machine_classes.as_deref(), Some("a=2x1.0,b=2x2.0"))
            }
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
