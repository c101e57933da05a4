//! The five workloads: input generation from a seed, one measured pass,
//! the correctness checks, and the traced pass.
//!
//! Every workload replays its whole input once per pass, as fast as the
//! program can go (closed loop, simulated time), so every pass does
//! identical, deterministic work.  A pass reports *checkpoints* — pass-clock
//! readings at fixed work boundaries — so the runner can take the fastest
//! pass over each stretch of work, and a *fingerprint* of its results, which
//! must match the checked warm-up pass bit for bit.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use hetero::{run_classed, ClassedCluster, ClassedEngineOptions};
use malleable_core::bounds;
use malleable_core::canonical::CanonicalAllotment;
use malleable_core::list::schedule_rigid_in_order;
use malleable_core::mrt::level_packing_schedule_in;
use malleable_core::prelude::*;
use malleable_core::two_shelf;
use online::policy::EpochReplan;
use online::{PlacementSink, ShardedConfig, ShardedResult, StreamedPlacement};
use packing::rect::Rect;
use telemetry::{names, SpanTimer};
use workload::{
    Arrival, ArrivalPattern, ArrivalStream, ArrivalTrace, TraceConfig, WorkloadConfig,
    WorkloadGenerator,
};

use crate::spans::{layer_times, LayerTime, Tracer};
use crate::stats::Percentiles;
use crate::wrappers::{
    CheckpointSink, Checkpoints, CountingRecorder, PlacementCheckpoints, TimedOracle, TimedPolicy,
    TimedSolver,
};

/// Names of the workloads, in report order.
pub const WORKLOADS: [&str; 5] = [
    "offline-mrt",
    "online-poisson",
    "online-reallot",
    "sharded-stream",
    "online-classed",
];

/// Input sizes: the benchmark's own, or tiny ones that run in a debug build
/// within seconds (for the smoke test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes recorded in `BENCHMARK.json`.
    Full,
    /// Tiny inputs exercising every code path.
    Smoke,
}

impl Scale {
    /// Stable name used on the command line and in result documents.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// What a checked pass found.
#[derive(Debug, Clone, Default)]
pub struct Check {
    /// Operations (solves or tasks) that failed or were refused.
    pub failed: usize,
    /// Violations reported by the checkers (the first twenty).
    pub messages: Vec<String>,
    /// Number of violations reported, including those not kept.
    pub violations: usize,
    /// Wall time spent in the checkers.
    pub seconds: f64,
    /// Mean flow time (completion − release) over every scheduled task.
    pub mean_flow_time: f64,
    /// Mean makespan over certified lower bound (offline only).
    pub ratio_mean: Option<f64>,
}

/// Violation messages kept per check; the rest are only counted.
const MAX_MESSAGES: usize = 20;

impl Check {
    fn violation(&mut self, message: String) {
        self.violations += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message);
        }
    }
}

/// One pass over the whole input.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Pass-clock readings at fixed work boundaries; the last is the end.
    pub checkpoints: Vec<u64>,
    /// Decision latencies: one per solve (offline) or per epoch (the
    /// event-driven online workloads); empty elsewhere.
    pub latencies_ns: Vec<u64>,
    /// Bit patterns of the pass's results.
    pub fingerprint: Vec<u64>,
    /// Findings of the correctness checks, for a checked pass.
    pub check: Option<Check>,
}

impl Pass {
    /// Wall time of the pass in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.checkpoints.last().copied().unwrap_or(0)
    }
}

/// What the traced pass measured.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Per-layer metric values this workload defines.
    pub values: BTreeMap<&'static str, f64>,
    /// Seconds spent in the calls the untraced throughput also covers.
    pub work_s: f64,
    /// Must equal the checked pass's fingerprint.
    pub fingerprint: Vec<u64>,
}

/// One benchmark workload with its generated input.
pub trait Workload {
    /// Workload name (one of [`WORKLOADS`]).
    fn name(&self) -> &'static str;
    /// Human-readable input size, for the result envelope.
    fn size(&self) -> String;
    /// Tasks scheduled per pass.
    fn tasks(&self) -> usize;
    /// Operations attempted per pass: solves offline, tasks online.
    fn units(&self) -> usize;
    /// Run one pass on `clock`; with `check`, also run the correctness
    /// checks (outside the checkpoints of interest: checked passes are never
    /// timed).
    fn pass(&mut self, clock: SpanTimer, check: bool) -> Result<Pass>;
    /// Run one traced pass, recording spans into `tracer`.
    fn traced(&mut self, tracer: &Arc<Tracer>) -> Result<Traced>;
}

/// A well-mixed 64-bit hash (SplitMix64 finaliser) deriving one input's
/// seed from the run seed, a stream tag and an index.
fn sub_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Build a workload's input from `seed`; also returns the seconds spent in
/// input generation (the `workload` crate).
pub fn setup(name: &str, seed: u64, scale: Scale) -> Result<(Box<dyn Workload>, f64)> {
    let registry = solver::default_registry();
    let mrt = registry.get("mrt").ok_or(Error::InvalidConfig {
        key: "solver",
        message: "the registry has no `mrt` solver".into(),
    })?;
    let smoke = scale == Scale::Smoke;
    let generate = SpanTimer::start();
    let workload: Box<dyn Workload> = match name {
        "offline-mrt" => {
            let (seeds, n, m) = if smoke { (1, 40, 16) } else { (12, 1000, 64) };
            let configs: [fn(usize, usize, u64) -> WorkloadConfig; 3] = [
                WorkloadConfig::mixed,
                WorkloadConfig::wide_tasks,
                WorkloadConfig::sequential_heavy,
            ];
            let mut instances = Vec::with_capacity(3 * seeds);
            for k in 0..seeds as u64 {
                for (family, config) in configs.iter().enumerate() {
                    let s = sub_seed(seed, family as u64, k);
                    instances.push(WorkloadGenerator::new(config(n, m, s)).generate()?);
                }
            }
            Box::new(OfflineMrt {
                guarantee: mrt.capabilities().guarantee.unwrap_or(f64::INFINITY),
                instances,
                solver: mrt,
            })
        }
        "online-poisson" => {
            let (n, m) = if smoke { (300, 16) } else { (40_000, 64) };
            let trace = ArrivalTrace::generate(&TraceConfig {
                workload: WorkloadConfig::mixed(n, m, sub_seed(seed, 10, 0)),
                pattern: ArrivalPattern::Poisson { rate: 4.0 },
            })?;
            Box::new(OnlineSessions {
                name: "online-poisson",
                traces: vec![trace],
                solver: mrt,
                reallot: false,
            })
        }
        "online-reallot" => {
            let (sessions, n) = if smoke { (2, 200) } else { (32, 5000) };
            let traces = (0..sessions as u64)
                .map(|k| {
                    ArrivalTrace::generate(&TraceConfig {
                        workload: WorkloadConfig::mixed(n, 16, sub_seed(seed, 20, k)),
                        pattern: ArrivalPattern::Bursty {
                            burst_size: 16,
                            burst_gap: 5.0,
                        },
                    })
                })
                .collect::<Result<Vec<_>>>()?;
            Box::new(OnlineSessions {
                name: "online-reallot",
                traces,
                solver: mrt,
                reallot: true,
            })
        }
        "sharded-stream" => {
            let (n, burst) = if smoke { (3000, 64) } else { (100_000, 512) };
            let config = TraceConfig {
                workload: WorkloadConfig::mixed(n, 64, sub_seed(seed, 30, 0)),
                pattern: ArrivalPattern::Bursty {
                    burst_size: burst,
                    burst_gap: burst as f64 * 5.0 / 64.0,
                },
            };
            Box::new(ShardedStream {
                stream: ArrivalStream::new(&config)?,
                config: ShardedConfig::new(2, 1.0, mrt),
            })
        }
        "online-classed" => {
            let (sessions, n) = if smoke { (2, 200) } else { (16, 5000) };
            let cluster = ClassedCluster::from_spec("old=8x1.0,new=4x2.5")?;
            let traces = (0..sessions as u64)
                .map(|k| {
                    ArrivalTrace::generate(&TraceConfig {
                        workload: WorkloadConfig::mixed(
                            n,
                            cluster.total_processors(),
                            sub_seed(seed, 40, k),
                        ),
                        pattern: ArrivalPattern::Bursty {
                            burst_size: 16,
                            burst_gap: 5.0,
                        },
                    })
                })
                .collect::<Result<Vec<_>>>()?;
            Box::new(ClassedSessions { traces, cluster })
        }
        other => {
            return Err(Error::InvalidConfig {
                key: "workload",
                message: format!(
                    "unknown workload `{other}`; known: {}",
                    WORKLOADS.join(", ")
                ),
            })
        }
    };
    Ok((workload, generate.elapsed().as_secs_f64()))
}

fn ns_to_s(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

fn layer(layers: &BTreeMap<&'static str, LayerTime>, name: &str) -> LayerTime {
    layers.get(name).copied().unwrap_or_default()
}

/// Per-layer values of the solver layer: solve times in nanoseconds plus
/// the probes and tasks summed over the solves.
fn solver_values(
    solve_ns: &[u64],
    probes: usize,
    tasks: usize,
    values: &mut BTreeMap<&'static str, f64>,
) {
    let solves = solve_ns.len().max(1) as f64;
    let micros: Vec<f64> = solve_ns.iter().map(|&ns| ns as f64 * 1e-3).collect();
    let p = Percentiles::from_samples_up_to(&micros, 99.0);
    values.insert("solver.solves", solve_ns.len() as f64);
    values.insert(
        "solver.solve_s",
        solve_ns.iter().map(|&ns| ns_to_s(ns)).sum(),
    );
    values.insert("solver.solve_us_p50", p.map_or(0.0, |p| p.p50));
    // A lower percentile stands in when p99 has fewer than ten samples
    // beyond it.
    values.insert("solver.solve_us_p99", p.map_or(0.0, |p| p.tail_or_median()));
    values.insert("solver.probes_per_solve", probes as f64 / solves);
    values.insert("solver.tasks_per_solve", tasks as f64 / solves);
}

/// [`solver_values`] over the samples of a [`TimedSolver`].
fn timed_solver_values(timed: &TimedSolver, values: &mut BTreeMap<&'static str, f64>) {
    let samples = timed.samples();
    let ns: Vec<u64> = samples.iter().map(|s| s.ns).collect();
    let probes = samples.iter().map(|s| s.probes).sum();
    let tasks = samples.iter().map(|s| s.tasks).sum();
    solver_values(&ns, probes, tasks, values);
}

/// `offline-mrt`: cold registry `mrt` solves of generated instances.
struct OfflineMrt {
    instances: Vec<Instance>,
    solver: SolverHandle,
    guarantee: f64,
}

/// Mean completion time of an offline schedule: its mean flow time, since
/// every task is released at time 0.
fn mean_completion(schedule: &Schedule) -> f64 {
    let entries = schedule.entries();
    entries.iter().map(ScheduledTask::finish).sum::<f64>() / entries.len().max(1) as f64
}

/// Check one offline solve: a valid schedule, a certified bound below its
/// makespan, and a ratio within the solver's registered guarantee.
pub fn check_offline(
    instance: &Instance,
    outcome: &SolveOutcome,
    guarantee: f64,
) -> std::result::Result<(), String> {
    outcome
        .schedule
        .validate(instance)
        .map_err(|e| format!("invalid schedule: {e}"))?;
    let makespan = outcome.makespan();
    if !(outcome.lower_bound > 0.0 && outcome.lower_bound <= makespan * (1.0 + 1e-9)) {
        return Err(format!(
            "lower bound {} does not bound makespan {makespan}",
            outcome.lower_bound
        ));
    }
    if outcome.ratio() > guarantee * (1.0 + 1e-9) {
        return Err(format!(
            "ratio {} exceeds the guarantee {guarantee}",
            outcome.ratio()
        ));
    }
    Ok(())
}

impl Workload for OfflineMrt {
    fn name(&self) -> &'static str {
        "offline-mrt"
    }

    fn size(&self) -> String {
        let first = &self.instances[0];
        format!(
            "{} instances (mixed, wide_tasks, sequential_heavy), n={}, m={}",
            self.instances.len(),
            first.task_count(),
            first.processors()
        )
    }

    fn tasks(&self) -> usize {
        self.instances.iter().map(Instance::task_count).sum()
    }

    fn units(&self) -> usize {
        self.instances.len()
    }

    fn pass(&mut self, clock: SpanTimer, check: bool) -> Result<Pass> {
        let mut pass = Pass::default();
        let mut found = Check::default();
        let (mut flow, mut ratio) = (0.0, 0.0);
        for (index, instance) in self.instances.iter().enumerate() {
            let start = clock.elapsed_ns();
            let outcome = self.solver.solve(&SolveRequest::new(instance));
            let end = clock.elapsed_ns();
            pass.checkpoints.push(end);
            pass.latencies_ns.push(end - start);
            match &outcome {
                Ok(o) => pass.fingerprint.extend([
                    o.makespan().to_bits(),
                    o.lower_bound.to_bits(),
                    o.probes as u64,
                ]),
                Err(_) => pass.fingerprint.push(u64::MAX),
            }
            if check {
                let timer = SpanTimer::start();
                match outcome {
                    Ok(o) => {
                        if let Err(message) = check_offline(instance, &o, self.guarantee) {
                            found.failed += 1;
                            found.violation(format!("instance {index}: {message}"));
                        }
                        flow += mean_completion(&o.schedule);
                        ratio += o.ratio();
                    }
                    Err(e) => {
                        found.failed += 1;
                        found.violation(format!("instance {index}: solve failed: {e}"));
                    }
                }
                found.seconds += timer.elapsed().as_secs_f64();
            }
        }
        if check {
            let count = self.instances.len() as f64;
            found.mean_flow_time = flow / count;
            found.ratio_mean = Some(ratio / count);
            pass.check = Some(found);
        }
        Ok(pass)
    }

    fn traced(&mut self, tracer: &Arc<Tracer>) -> Result<Traced> {
        let mut traced = Traced::default();
        let mut replay = Replay::default();
        let (mut probes, mut feasible) = (0usize, 0usize);
        let scheduler = MrtScheduler::default();
        tracer.span("pass", || -> Result<()> {
            for (index, instance) in self.instances.iter().enumerate() {
                tracer.set_session(index as u64);
                let oracle = TimedOracle::new(scheduler, tracer);
                let result = tracer.span("solver", || {
                    DualSearch::default().solve_guided(
                        instance,
                        &oracle,
                        SearchMode::default(),
                        None,
                        &mut ProbeWorkspace::new(),
                    )
                })?;
                traced.fingerprint.extend([
                    result.schedule.makespan().to_bits(),
                    result.certified_lower_bound.to_bits(),
                    result.probes as u64,
                ]);
                tracer.span("bounds.lower_bound", || bounds::lower_bound(instance));
                let samples = oracle.into_probes();
                probes += samples.len();
                feasible += samples.iter().filter(|p| p.makespan.is_some()).count();
                tracer.span("replay", || {
                    replay.instance(tracer, &scheduler, instance, &samples)
                });
            }
            Ok(())
        })?;
        let spans = tracer.spans();
        let layers = layer_times(&spans);
        let solver = layer(&layers, "solver");
        let probe = layer(&layers, "dual.probe");
        let solve_ns: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "solver")
            .map(|s| s.duration_ns())
            .collect();
        let v = &mut traced.values;
        solver_values(&solve_ns, probes, self.tasks(), v);
        v.insert("dual.search_self_s", solver.self_s);
        v.insert("dual.probes", probes as f64);
        v.insert("dual.probe_s", probe.total_s);
        v.insert(
            "dual.feasible_probe_share",
            feasible as f64 / probes.max(1) as f64,
        );
        let mut branch_s = 0.0;
        for (metric, span) in REPLAY_LAYERS {
            let t = layer(&layers, span).total_s;
            branch_s += t;
            v.insert(metric, t);
        }
        v.insert("mrt.replay_s", branch_s);
        v.insert(
            "mrt.replay_to_probe_ratio",
            branch_s / probe.total_s.max(1e-12),
        );
        v.insert(
            "two_shelf.realised_share",
            replay.realised as f64 / replay.built.max(1) as f64,
        );
        let wins = replay.wins.iter().sum::<usize>().max(1) as f64;
        for (k, metric) in BRANCH_WIN_METRICS.iter().enumerate() {
            v.insert(metric, replay.wins[k] as f64 / wins);
        }
        v.insert(
            "bounds.lower_bound_s",
            layer(&layers, "bounds.lower_bound").total_s,
        );
        if replay.mismatches > 0 {
            return Err(Error::InvariantViolated {
                context: "branch-replay",
                message: format!(
                    "{} replayed probes disagree with the measured probe",
                    replay.mismatches
                ),
            });
        }
        traced.work_s = solver.total_s;
        Ok(traced)
    }
}

/// Span names of the replayed branches and the metrics they feed.
const REPLAY_LAYERS: [(&str, &str); 6] = [
    ("bounds.feasibility_s", "bounds.feasibility"),
    ("canonical.compute_s", "canonical.compute"),
    ("two_shelf.build_s", "two_shelf.build"),
    ("list.canonical_s", "list.canonical"),
    ("mla.build_s", "mla.build"),
    ("mrt.level_packing_s", "mrt.level_packing"),
];

/// Win-share metrics, in the order the MRT oracle considers its branches.
const BRANCH_WIN_METRICS: [&str; 4] = [
    "mrt.branch_win_share.two_shelf",
    "mrt.branch_win_share.canonical_list",
    "mrt.branch_win_share.malleable_list",
    "mrt.branch_win_share.level_packing",
];

/// Replays every probed guess through the public branch functions, with
/// the same buffer reuse as the oracle (one canonical allotment recomputed
/// in place, one probe workspace per solve), and checks that the branches
/// reproduce the measured probe's outcome.
#[derive(Default)]
struct Replay {
    built: usize,
    realised: usize,
    wins: [usize; 4],
    mismatches: usize,
}

impl Replay {
    fn instance(
        &mut self,
        tracer: &Tracer,
        scheduler: &MrtScheduler,
        instance: &Instance,
        probes: &[crate::wrappers::ProbeSample],
    ) {
        let params = TwoShelfParams {
            lambda: scheduler.lambda,
            strategy: scheduler.strategy,
        };
        let mut canonical: Option<CanonicalAllotment> = None;
        let mut workspace = ProbeWorkspace::new();
        let mut rects: Vec<Rect> = Vec::new();
        let m = instance.processors();
        for probe in probes {
            let omega = probe.omega;
            let admitted = tracer.span("bounds.feasibility", || {
                bounds::may_be_feasible(instance, omega)
            }) && tracer.span("canonical.compute", || {
                let ok = match canonical.as_mut() {
                    Some(c) => c.recompute(instance, omega).is_ok(),
                    None => match CanonicalAllotment::compute(instance, omega) {
                        Ok(c) => {
                            canonical = Some(c);
                            true
                        }
                        Err(_) => false,
                    },
                };
                if let Some(c) = canonical.as_ref().filter(|_| ok) {
                    std::hint::black_box(c.lambda_area(m));
                }
                ok
            });
            let best = match (admitted, canonical.as_ref()) {
                (true, Some(c)) => {
                    let shelf = tracer.span("two_shelf.build", || {
                        two_shelf::build_with_canonical_in(instance, c, params, &mut workspace)
                    });
                    self.built += 1;
                    self.realised += usize::from(shelf.is_some());
                    let list = tracer.span("list.canonical", || {
                        schedule_rigid_in_order(
                            instance,
                            &c.allotment,
                            c.sorted_by_decreasing_time(),
                        )
                    });
                    let mla = tracer.span("mla.build", || {
                        MalleableListAlgorithm::default()
                            .build(instance, omega)
                            .ok()
                    });
                    let level = tracer.span("mrt.level_packing", || {
                        level_packing_schedule_in(instance, c, &mut rects)
                    });
                    // The oracle keeps the first strictly shortest schedule.
                    let candidates = [
                        shelf.map(|s| s.schedule.makespan()),
                        Some(list.makespan()),
                        mla.map(|s| s.makespan()),
                        Some(level.makespan()),
                    ];
                    let mut best: Option<(usize, f64)> = None;
                    for (k, makespan) in candidates.iter().enumerate() {
                        if let Some(makespan) = *makespan {
                            if best.is_none_or(|(_, b)| makespan < b) {
                                best = Some((k, makespan));
                            }
                        }
                    }
                    best
                }
                _ => None,
            };
            if let Some((winner, _)) = best {
                self.wins[winner] += 1;
            }
            if best.map(|(_, makespan)| makespan) != probe.makespan {
                self.mismatches += 1;
            }
        }
    }
}

/// `online-poisson` and `online-reallot`: the event-driven engine with an
/// epoch re-planning policy over one or more traces.
struct OnlineSessions {
    name: &'static str,
    traces: Vec<ArrivalTrace>,
    solver: SolverHandle,
    /// Backfill plus mid-execution re-allotment of running tasks.
    reallot: bool,
}

impl OnlineSessions {
    fn policy(&self, solver: SolverHandle) -> Result<EpochReplan> {
        let policy = EpochReplan::with_solver(1.0, solver)?;
        Ok(if self.reallot {
            policy.with_backfill(true).with_preempt_running(true)
        } else {
            policy
        })
    }
}

fn online_fingerprint(result: &online::OnlineResult) -> [u64; 5] {
    [
        result.makespan.to_bits(),
        result.mean_flow_time.to_bits(),
        result.replans as u64,
        result.events as u64,
        result.schedule.len() as u64,
    ]
}

/// Check one online run against its trace, adding every departed or
/// invalid task to `found`.  `validate_against_trace` names each task that
/// is unscheduled without a departure deadline, placed outside its window,
/// or overlapping another; each message names at least one task.
pub fn check_online(trace: &ArrivalTrace, result: &online::OnlineResult, found: &mut Check) {
    let messages = online::validate_against_trace(trace, &result.schedule);
    found.failed += (result.departed + messages.len()).min(trace.len());
    if result.departed > 0 {
        found.violation(format!("{} task(s) departed", result.departed));
    }
    for message in messages {
        found.violation(message);
    }
}

impl Workload for OnlineSessions {
    fn name(&self) -> &'static str {
        self.name
    }

    fn size(&self) -> String {
        format!(
            "{} trace(s) of {} tasks, m={}",
            self.traces.len(),
            self.traces[0].len(),
            self.traces[0].processors()
        )
    }

    fn tasks(&self) -> usize {
        self.traces.iter().map(ArrivalTrace::len).sum()
    }

    fn units(&self) -> usize {
        self.tasks()
    }

    fn pass(&mut self, clock: SpanTimer, check: bool) -> Result<Pass> {
        let mut pass = Pass::default();
        let mut found = Check::default();
        let mut flow = 0.0;
        for trace in &self.traces {
            let mut policy = TimedPolicy::new(self.policy(Arc::clone(&self.solver))?, clock, None);
            let result = online::run(trace, &mut policy)?;
            let log = policy.into_log();
            pass.latencies_ns
                .extend(log.returns_ns.windows(2).map(|w| w[1] - w[0]));
            pass.checkpoints.extend(log.returns_ns);
            pass.fingerprint.extend(online_fingerprint(&result));
            if check {
                let timer = SpanTimer::start();
                check_online(trace, &result, &mut found);
                flow += result.mean_flow_time * trace.len() as f64;
                found.seconds += timer.elapsed().as_secs_f64();
            }
        }
        pass.checkpoints.push(clock.elapsed_ns());
        if check {
            found.mean_flow_time = flow / self.tasks() as f64;
            pass.check = Some(found);
        }
        Ok(pass)
    }

    fn traced(&mut self, tracer: &Arc<Tracer>) -> Result<Traced> {
        let mut traced = Traced::default();
        let recorder = CountingRecorder::shared();
        let timed = TimedSolver::new(Arc::clone(&self.solver), Arc::clone(tracer));
        let (mut events, mut plans, mut pending, mut commitments) = (0, 0, 0, 0);
        let mut window_queries = 0;
        let clock = SpanTimer::start();
        tracer.span("pass", || -> Result<()> {
            for (index, trace) in self.traces.iter().enumerate() {
                tracer.set_session(index as u64);
                let inner = self.policy(Arc::clone(&timed) as SolverHandle)?;
                let mut policy = TimedPolicy::new(inner, clock, Some(tracer));
                let result = tracer.span("online.engine", || {
                    online::run_recorded(trace, &mut policy, recorder.as_ref())
                })?;
                let log = policy.into_log();
                events += result.events;
                plans += log.returns_ns.len();
                pending += log.pending;
                commitments += log.commitments;
                window_queries += log.timeline.window_queries;
                traced.fingerprint.extend(online_fingerprint(&result));
            }
            Ok(())
        })?;
        let layers = layer_times(&tracer.spans());
        let engine = layer(&layers, "online.engine");
        let pass_s = layer(&layers, "pass").total_s.max(1e-12);
        let v = &mut traced.values;
        v.insert("online.engine.self_s", engine.self_s);
        v.insert("online.engine.self_share", engine.self_s / pass_s);
        v.insert("online.engine.events", events as f64);
        v.insert(
            "online.engine.us_per_event",
            engine.self_s * 1e6 / events.max(1) as f64,
        );
        v.insert("online.policy.plans", plans as f64);
        v.insert(
            "online.policy.self_s",
            layer(&layers, "online.policy").self_s,
        );
        v.insert(
            "online.policy.pending_mean",
            pending as f64 / plans.max(1) as f64,
        );
        v.insert("online.policy.commitments", commitments as f64);
        timed_solver_values(&timed, v);
        v.insert(
            "reservations.reserves",
            recorder.count(names::TIMELINE_RESERVATIONS) as f64,
        );
        v.insert("reservations.window_queries", window_queries as f64);
        v.insert(
            "reservations.holes_scanned",
            recorder.count(names::TIMELINE_HOLES_SCANNED) as f64,
        );
        v.insert(
            "reservations.cancels",
            recorder.count(names::TIMELINE_CANCELS) as f64,
        );
        v.insert(
            "reservations.truncations",
            recorder.count(names::TIMELINE_TRUNCATIONS) as f64,
        );
        v.insert(
            "engine.revocations",
            recorder.count(names::REVOCATIONS) as f64,
        );
        v.insert(
            "engine.truncations",
            recorder.count(names::TRUNCATIONS) as f64,
        );
        traced.work_s = engine.total_s;
        Ok(traced)
    }
}

/// `sharded-stream`: the sharded engine fed straight from a lazy arrival
/// stream.
struct ShardedStream {
    /// Unread stream; every pass replays a clone of it.
    stream: ArrivalStream,
    config: ShardedConfig,
}

fn sharded_fingerprint(result: &ShardedResult) -> [u64; 6] {
    [
        result.placed as u64,
        result.makespan.to_bits(),
        result.mean_flow_time.to_bits(),
        result.busy_integral.to_bits(),
        result.rounds as u64,
        result.steals as u64,
    ]
}

/// Checks placements as they stream out of the sharded engine against a
/// second copy of the arrival stream: each task placed once, not before its
/// arrival, for its profile's time at the allotted width, inside the
/// machine, and never overlapping earlier work on a processor.
///
/// The sharded engine places frontier-only (no backfill), so each
/// processor's placements arrive in time order and a per-processor
/// frontier detects every overlap.
pub struct VerifyingSink {
    source: ArrivalStream,
    generated: usize,
    waiting: HashMap<usize, Arrival>,
    placed: Vec<bool>,
    frontier: Vec<f64>,
    /// What the checks found.
    pub found: Check,
    /// Nanoseconds spent checking.
    pub checked_ns: u64,
}

impl VerifyingSink {
    /// Verify against `source`, a fresh copy of the stream being run.
    pub fn new(source: ArrivalStream) -> Self {
        VerifyingSink {
            placed: vec![false; source.total()],
            frontier: vec![0.0; source.processors()],
            source,
            generated: 0,
            waiting: HashMap::new(),
            found: Check::default(),
            checked_ns: 0,
        }
    }

    fn check(&mut self, p: &StreamedPlacement) -> std::result::Result<(), String> {
        while self.generated <= p.task {
            match self.source.next() {
                Some(Ok(arrival)) => {
                    self.waiting.insert(self.generated, arrival);
                    self.generated += 1;
                }
                _ => return Err(format!("task {} is not in the stream", p.task)),
            }
        }
        let arrival = self
            .waiting
            .remove(&p.task)
            .ok_or_else(|| format!("task {} placed twice", p.task))?;
        self.placed[p.task] = true;
        if p.arrived_at.to_bits() != arrival.at.to_bits() || p.start < arrival.at - 1e-9 {
            return Err(format!(
                "task {} starts at {} but arrived at {}",
                p.task, p.start, arrival.at
            ));
        }
        let end = p.first + p.count;
        if p.count == 0 || end > self.frontier.len() || !p.start.is_finite() {
            return Err(format!("task {} has an invalid block", p.task));
        }
        let expected = arrival.task.time(p.count);
        if (p.duration - expected).abs() > 1e-9 * expected.max(1.0) {
            return Err(format!(
                "task {} runs {} on {} processors, its profile needs {expected}",
                p.task, p.duration, p.count
            ));
        }
        for frontier in &mut self.frontier[p.first..end] {
            if p.start < *frontier - 1e-9 {
                return Err(format!("task {} overlaps earlier work", p.task));
            }
            *frontier = p.start + p.duration;
        }
        Ok(())
    }

    /// Close the check: every task of the stream must have been placed.
    pub fn finish(&mut self) {
        let missing = self.placed.iter().filter(|&&p| !p).count();
        if missing > 0 {
            self.found.failed += missing;
            self.found
                .violation(format!("{missing} task(s) never placed"));
        }
    }
}

impl PlacementSink for VerifyingSink {
    fn place(&mut self, placement: &StreamedPlacement) {
        let timer = SpanTimer::start();
        if let Err(message) = self.check(placement) {
            self.found.failed += 1;
            self.found.violation(message);
        }
        self.checked_ns += timer.elapsed_ns();
    }
}

impl Workload for ShardedStream {
    fn name(&self) -> &'static str {
        "sharded-stream"
    }

    fn size(&self) -> String {
        format!(
            "{} streamed tasks, m={}, {} shards",
            self.stream.total(),
            self.stream.processors(),
            self.config.shards
        )
    }

    fn tasks(&self) -> usize {
        self.stream.total()
    }

    fn units(&self) -> usize {
        self.tasks()
    }

    fn pass(&mut self, clock: SpanTimer, check: bool) -> Result<Pass> {
        let m = self.stream.processors();
        let mut pass = Pass::default();
        let result = if check {
            let mut sink = VerifyingSink::new(self.stream.clone());
            let result =
                online::run_sharded_stream(self.stream.clone(), m, &self.config, &mut sink, None)?;
            sink.finish();
            let mut found = sink.found;
            if result.invariant_violations > 0 || result.placed != self.tasks() {
                found.failed += result.invariant_violations.max(1);
                found.violation(format!(
                    "{} invariant violation(s), {} of {} tasks placed",
                    result.invariant_violations,
                    result.placed,
                    self.tasks()
                ));
            }
            found.seconds = ns_to_s(sink.checked_ns);
            found.mean_flow_time = result.mean_flow_time;
            pass.check = Some(found);
            result
        } else {
            let checkpoints = Checkpoints::new(clock, (self.tasks() as u64 / 256).max(1));
            let mut sink = CheckpointSink(&checkpoints);
            let result =
                online::run_sharded_stream(self.stream.clone(), m, &self.config, &mut sink, None)?;
            pass.checkpoints = checkpoints.times();
            result
        };
        pass.checkpoints.push(clock.elapsed_ns());
        pass.fingerprint.extend(sharded_fingerprint(&result));
        Ok(pass)
    }

    fn traced(&mut self, tracer: &Arc<Tracer>) -> Result<Traced> {
        let mut traced = Traced::default();
        let timed = TimedSolver::new(Arc::clone(&self.config.solver), Arc::clone(tracer));
        let mut config = self.config.clone();
        config.solver = Arc::clone(&timed) as SolverHandle;
        let recorder = CountingRecorder::shared();
        let m = self.stream.processors();
        let result = tracer.span("pass", || {
            tracer.anchored_span("online.shard", || {
                online::run_sharded_stream(
                    self.stream.clone(),
                    m,
                    &config,
                    &mut online::NullSink,
                    Some(recorder.clone()),
                )
            })
        })?;
        traced.fingerprint.extend(sharded_fingerprint(&result));
        let layers = layer_times(&tracer.spans());
        let shard = layer(&layers, "online.shard");
        let v = &mut traced.values;
        timed_solver_values(&timed, v);
        let run_s = ns_to_s(result.run_ns);
        let critical_s = ns_to_s(result.solve_critical_ns);
        let total_s = ns_to_s(result.solve_total_ns);
        v.insert("shard.run_s", run_s);
        v.insert("shard.solve_total_s", total_s);
        v.insert("shard.solve_critical_s", critical_s);
        v.insert("shard.coordinator_s", run_s - critical_s);
        v.insert(
            "shard.parallel_efficiency",
            total_s / (result.shards as f64 * critical_s).max(1e-12),
        );
        v.insert("shard.steals", result.steals as f64);
        let placements: Vec<f64> = result
            .per_shard
            .iter()
            .map(|s| s.placements as f64)
            .collect();
        let mean = placements.iter().sum::<f64>() / placements.len().max(1) as f64;
        let max = placements.iter().copied().fold(0.0, f64::max);
        v.insert("shard.placement_skew", max / mean.max(1e-12));
        v.insert("shard.rounds", result.rounds as f64);
        v.insert("reservations.reserves", result.timeline.reservations as f64);
        v.insert(
            "reservations.window_queries",
            result.timeline.window_queries as f64,
        );
        v.insert(
            "reservations.holes_scanned",
            result.timeline.holes_scanned as f64,
        );
        v.insert("reservations.cancels", result.timeline.cancels as f64);
        v.insert(
            "reservations.truncations",
            result.timeline.truncations as f64,
        );
        traced.work_s = shard.total_s;
        Ok(traced)
    }
}

fn classed_fingerprint(result: &hetero::ClassedRunResult) -> [u64; 4] {
    [
        result.makespan.to_bits(),
        result.mean_flow_time.to_bits(),
        result.replans as u64,
        result.migrations as u64,
    ]
}

/// `online-classed`: the classed engine on a two-class cluster.
struct ClassedSessions {
    traces: Vec<ArrivalTrace>,
    cluster: ClassedCluster,
}

impl Workload for ClassedSessions {
    fn name(&self) -> &'static str {
        "online-classed"
    }

    fn size(&self) -> String {
        format!(
            "{} trace(s) of {} tasks on {}",
            self.traces.len(),
            self.traces[0].len(),
            self.cluster.spec()
        )
    }

    fn tasks(&self) -> usize {
        self.traces.iter().map(ArrivalTrace::len).sum()
    }

    fn units(&self) -> usize {
        self.tasks()
    }

    fn pass(&mut self, clock: SpanTimer, check: bool) -> Result<Pass> {
        let mut pass = Pass::default();
        let mut found = Check::default();
        let mut flow = 0.0;
        let checkpoints = Arc::new(Checkpoints::new(clock, (self.tasks() as u64 / 256).max(1)));
        let options = ClassedEngineOptions {
            recorder: Some(Arc::new(PlacementCheckpoints(Arc::clone(&checkpoints)))),
            ..ClassedEngineOptions::default()
        };
        for trace in &self.traces {
            let result = run_classed(trace, &self.cluster, &options)?;
            pass.fingerprint.extend(classed_fingerprint(&result));
            if check {
                let timer = SpanTimer::start();
                let messages = result.check(trace);
                found.failed += messages.len().min(trace.len());
                for message in messages {
                    found.violation(message);
                }
                flow += result.mean_flow_time * trace.len() as f64;
                found.seconds += timer.elapsed().as_secs_f64();
            }
        }
        pass.checkpoints = checkpoints.times();
        pass.checkpoints.push(clock.elapsed_ns());
        if check {
            found.mean_flow_time = flow / self.tasks() as f64;
            pass.check = Some(found);
        }
        Ok(pass)
    }

    fn traced(&mut self, tracer: &Arc<Tracer>) -> Result<Traced> {
        let mut traced = Traced::default();
        let (mut replans, mut migrations) = (0, 0);
        tracer.span("pass", || -> Result<()> {
            for (index, trace) in self.traces.iter().enumerate() {
                tracer.set_session(index as u64);
                let result = tracer.span("hetero", || {
                    run_classed(trace, &self.cluster, &ClassedEngineOptions::default())
                })?;
                replans += result.replans;
                migrations += result.migrations;
                traced.fingerprint.extend(classed_fingerprint(&result));
            }
            Ok(())
        })?;
        let layers = layer_times(&tracer.spans());
        let hetero = layer(&layers, "hetero");
        let v = &mut traced.values;
        v.insert("hetero.run_s", hetero.total_s);
        v.insert("hetero.replans", replans as f64);
        v.insert("hetero.migrations", migrations as f64);
        traced.work_s = hetero.total_s;
        Ok(traced)
    }
}

/// Trace coverage: the share of the `pass` span its child layers cover.
pub fn coverage(tracer: &Tracer) -> f64 {
    let layers = layer_times(&tracer.spans());
    let pass = layer(&layers, "pass");
    if pass.total_s <= 0.0 {
        return 0.0;
    }
    (pass.total_s - pass.self_s) / pass.total_s
}
