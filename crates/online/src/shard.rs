//! The sharded parallel online engine.
//!
//! The event-driven engine in [`crate::engine`] is single-threaded over one
//! global event heap and one [`MachineState`] — per-event cost is small, but
//! a million-task trace pays it a million times over, serially.  This module
//! trades the per-event engine for an **epoch-driven coordinator over
//! per-shard timelines**:
//!
//! * the cluster's `m` processors are partitioned into `N` contiguous
//!   shards, each owning its own [`MachineState`] (reservation timeline) and
//!   its own [`EpochReplan`], whose warm-started solve and replay every
//!   epoch batch goes through (a private `ProbeWorkspace` and cross-epoch
//!   warm-start state per shard);
//! * arrivals are pulled **one at a time off a lazy iterator** — a
//!   [`workload::ArrivalStream`] feeds a million-task trace without ever
//!   materialising it — through a one-arrival lookahead, so the coordinator
//!   holds the round it plans plus the next arrival;
//! * on every epoch boundary the coordinator assigns the fresh arrivals
//!   round-robin to shards, **rebalances queued tasks from overloaded shards
//!   to idle ones** (work stealing, below), and dispatches one epoch solve
//!   per non-empty shard to long-lived worker threads under a single
//!   [`std::thread::scope`] — different shards solve concurrently;
//! * placements **stream incrementally** into a [`PlacementSink`] as each
//!   epoch resolves, instead of accumulating a full [`Schedule`] in memory
//!   (use [`CollectingSink`] when a schedule is wanted, [`NullSink`] when
//!   only the aggregate statistics matter).
//!
//! ## Work stealing
//!
//! Stealing is always on.  Before dispatching an epoch, the coordinator
//! estimates each shard's load as its committed backlog beyond the clock
//! (`free_horizon − now`) plus the optimistic runtime of its queued tasks
//! (sequential work over shard width).  It then repeatedly moves one queued
//! task from the most-loaded shard to the least-loaded one — picking the
//! task that minimises the resulting maximum load, ties broken towards the
//! lowest task id — until no single move strictly improves the balance.  Every move is counted
//! (`engine.steals`) and emitted as a [`TelemetryEvent::Steal`].
//!
//! ## Equivalence contract
//!
//! Every shard count runs the same coordinator.  With one shard its single
//! worker plans the whole machine at the same epoch boundaries as the
//! event-driven engine under an [`EpochReplan`] built from the same
//! configuration, and places every task where that engine does: start,
//! duration and processor block, bit for bit (a test pins it, together
//! with the makespan, max flow time, rounds and solves).  Two things differ
//! by design: the sink receives placements in commit order, at every shard
//! count, and the mean flow time and busy integral are summed in that order,
//! so they may differ from the engine's in the last bits.  With more shards
//! the partitioned run is a different (parallel) algorithm: every placement
//! still respects arrival times and shard-local capacity (checked per
//! round), but makespans may differ from the single-shard run in either
//! direction, Graham anomalies included.
//!
//! Departures, faults and preemption are deliberately out of scope:
//! ingestion refuses the first arrival that carries a departure, and the
//! first that arrives before the one ahead of it.
#![warn(missing_docs)]

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread;

use crate::machine::MachineState;
use crate::policy::{epoch_instance, EpochReplan};
use ::telemetry::{names, Recorder, SharedRecorder, SpanTimer, TelemetryEvent};
use malleable_core::prelude::*;
use packing::reservations::TimelineStats;
use workload::{Arrival, ArrivalTrace};

/// Configuration of a sharded run: the cluster partition plus the epoch
/// policy every shard runs locally.
#[derive(Clone)]
pub struct ShardedConfig {
    /// Number of shards the cluster is partitioned into (`1 ..= m`).
    pub shards: usize,
    /// Epoch period of the per-shard re-planning grid.
    pub period: f64,
    /// The offline solver each shard invokes on its epoch batches.
    pub solver: SolverHandle,
    /// Search mode of warm-start-capable solvers.
    pub search: SearchMode,
    /// Run shard machines in backfill mode (placements first-fit into idle
    /// holes below the frontier).
    pub backfill: bool,
}

impl std::fmt::Debug for ShardedConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedConfig")
            .field("shards", &self.shards)
            .field("period", &self.period)
            .field("solver", &self.solver.name())
            .field("search", &self.search)
            .field("backfill", &self.backfill)
            .finish()
    }
}

impl ShardedConfig {
    /// A sharded configuration with the given partition, epoch period and
    /// solver, and the defaults of the event-driven epoch policy (exact
    /// search, no backfill).
    pub fn new(shards: usize, period: f64, solver: SolverHandle) -> Self {
        ShardedConfig {
            shards,
            period,
            solver,
            search: SearchMode::Exact,
            backfill: false,
        }
    }

    /// Enable or disable backfill mode on the shard machines (builder
    /// style).
    pub fn with_backfill(mut self, backfill: bool) -> Self {
        self.backfill = backfill;
        self
    }

    /// Report-facing name of the configured engine.
    pub fn policy_name(&self) -> String {
        let mut name = format!(
            "sharded-epoch-{}(d={})x{}",
            self.solver.name(),
            self.period,
            self.shards
        );
        if self.backfill {
            name.push_str("+backfill");
        }
        name
    }

    /// The epoch policy every shard runs.
    fn epoch_policy(&self) -> Result<EpochReplan> {
        Ok(
            EpochReplan::with_solver(self.period, Arc::clone(&self.solver))?
                .with_search(self.search)
                .with_backfill(self.backfill),
        )
    }

    fn validate(&self, processors: usize) -> Result<()> {
        if self.shards == 0 || self.shards > processors {
            return Err(Error::InvalidParameter {
                name: "shards",
                value: self.shards as f64,
            });
        }
        if !(self.period.is_finite() && self.period > 0.0) {
            return Err(Error::InvalidParameter {
                name: "epoch",
                value: self.period,
            });
        }
        Ok(())
    }
}

/// One placement streamed out of the sharded engine, on the *global*
/// processor numbering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamedPlacement {
    /// Global task id (= arrival index of the trace).
    pub task: TaskId,
    /// When the task arrived.
    pub arrived_at: f64,
    /// Start time on the global timeline.
    pub start: f64,
    /// Execution time at the committed processor count.
    pub duration: f64,
    /// First processor of the contiguous block (global numbering).
    pub first: usize,
    /// Number of processors.
    pub count: usize,
    /// Shard that served the placement.
    pub shard: usize,
}

/// A streaming consumer of placements: the sharded engine calls
/// [`PlacementSink::place`] once per committed task, in commit order, so a
/// million-task run never has to materialise its schedule.
pub trait PlacementSink {
    /// Accept one committed placement.
    fn place(&mut self, placement: &StreamedPlacement);
}

/// A sink that discards placements — the aggregate statistics in
/// [`ShardedResult`] are all that survives.  Use for throughput benchmarks
/// where the schedule itself would dominate memory.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl PlacementSink for NullSink {
    fn place(&mut self, _placement: &StreamedPlacement) {}
}

/// A sink that materialises the full [`Schedule`] (global processor
/// numbering) — use when the run's output feeds validation or a report.
#[derive(Debug, Clone)]
pub struct CollectingSink {
    schedule: Schedule,
}

impl CollectingSink {
    /// An empty sink for a machine with `processors` processors.
    pub fn new(processors: usize) -> Self {
        CollectingSink {
            schedule: Schedule::new(processors),
        }
    }

    /// The collected schedule, in commit order.
    pub fn into_schedule(self) -> Schedule {
        self.schedule
    }

    /// Borrow the collected schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }
}

impl PlacementSink for CollectingSink {
    fn place(&mut self, placement: &StreamedPlacement) {
        self.schedule.push(ScheduledTask {
            task: placement.task,
            start: placement.start,
            duration: placement.duration,
            processors: ProcessorRange::new(placement.first, placement.count),
        });
    }
}

/// Per-shard statistics of a sharded run.
#[derive(Debug, Clone, Copy)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// First processor of the shard's contiguous block (global numbering).
    pub first_processor: usize,
    /// Number of processors the shard owns.
    pub processors: usize,
    /// Placements the shard committed.
    pub placements: usize,
    /// Epoch solves the shard served.
    pub solves: usize,
    /// Total wall nanoseconds spent inside the shard's solver.
    pub solve_ns: u64,
    /// Oracle probes issued through the shard's workspace.
    pub probes: usize,
    /// Queued tasks stolen *into* this shard.
    pub steals_in: usize,
    /// Queued tasks stolen *out of* this shard.
    pub steals_out: usize,
    /// Completion time of the shard's last placement.
    pub makespan: f64,
    /// The shard timeline's own operation counters.  Per-timeline by
    /// construction — [`ShardedResult::timeline`] carries the correct
    /// cross-shard aggregate (see [`TimelineStats::aggregate`]).
    pub timeline: TimelineStats,
}

/// The outcome of one sharded run.
#[derive(Debug, Clone)]
pub struct ShardedResult {
    /// Name of the engine configuration that produced the run.
    pub policy: String,
    /// Number of shards.
    pub shards: usize,
    /// Number of tasks placed (every arrival).
    pub placed: usize,
    /// Completion time of the last task on the global timeline.
    pub makespan: f64,
    /// Mean flow time (completion − arrival) over the placed tasks.
    pub mean_flow_time: f64,
    /// Largest flow time over the placed tasks.
    pub max_flow_time: f64,
    /// Integral of busy processors: `Σ duration × allotment`.
    pub busy_integral: f64,
    /// Epoch rounds the coordinator drove.
    pub rounds: usize,
    /// Per-shard epoch solves across the run (= `rounds` when one shard).
    pub solves: usize,
    /// Queued tasks moved between shards by work stealing.
    pub steals: usize,
    /// Solve-phase **critical path**: the sum over rounds of the slowest
    /// shard's solve wall time — what a machine with one core per shard
    /// would spend in the solve phase.  Equal to
    /// [`ShardedResult::solve_total_ns`] when one shard.
    pub solve_critical_ns: u64,
    /// Total solver wall nanoseconds summed over every shard solve.
    pub solve_total_ns: u64,
    /// Wall nanoseconds for the whole run.
    pub run_ns: u64,
    /// Engine invariant violations observed (0 on every healthy run).
    pub invariant_violations: usize,
    /// Per-shard statistics, one entry per shard.
    pub per_shard: Vec<ShardStats>,
    /// Timeline operation counters **aggregated across every shard** — the
    /// figure telemetry summaries must use (each shard's own counters only
    /// see that shard's queries).
    pub timeline: TimelineStats,
}

impl ShardedResult {
    /// Time-weighted utilisation over the makespan horizon (`m × makespan`
    /// capacity; the sharded path injects no faults).
    pub fn utilization(&self, processors: usize) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.busy_integral / (processors as f64 * self.makespan)
    }
}

/// A task queued on a shard, carrying its profile so shard workers never
/// touch shared trace state.
#[derive(Debug, Clone)]
struct ShardTask {
    id: TaskId,
    arrived_at: f64,
    task: MalleableTask,
}

/// Coordinator → worker: solve this batch at the given boundary time.
type EpochRequest = (f64, Vec<ShardTask>);

/// One epoch's reply from a shard worker.
struct EpochReply {
    placements: Vec<StreamedPlacement>,
    solve_ns: u64,
    probes: usize,
    free_horizon: f64,
}

/// Run the sharded engine over a materialised trace: the arrivals of
/// [`run_sharded_stream`], read off the trace.
pub fn run_sharded(
    trace: &ArrivalTrace,
    config: &ShardedConfig,
    sink: &mut dyn PlacementSink,
    recorder: Option<SharedRecorder>,
) -> Result<ShardedResult> {
    run_sharded_stream(
        (0..trace.len()).map(|task| Ok(trace.arrival(task))),
        trace.processors(),
        config,
        sink,
        recorder,
    )
}

/// Run the sharded engine off a lazy arrival iterator (sorted by time, e.g.
/// a [`workload::ArrivalStream`]), which it never materialises; see the
/// module docs.  An arrival earlier than the one before it
/// (`unsorted-arrival`) or with a departure (`sharded-departures`) fails
/// the run.
pub fn run_sharded_stream<I>(
    arrivals: I,
    processors: usize,
    config: &ShardedConfig,
    sink: &mut dyn PlacementSink,
    recorder: Option<SharedRecorder>,
) -> Result<ShardedResult>
where
    I: Iterator<Item = Result<Arrival>>,
{
    config.validate(processors)?;
    let run_timer = SpanTimer::start();
    let shards = config.shards;
    let widths: Vec<usize> = (0..shards)
        .map(|s| shard_width(processors, shards, s))
        .collect();
    let firsts: Vec<usize> = widths
        .iter()
        .scan(0usize, |acc, &w| {
            let first = *acc;
            *acc += w;
            Some(first)
        })
        .collect();

    thread::scope(|scope| -> Result<ShardedResult> {
        let mut requests = Vec::with_capacity(shards);
        let mut replies = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (request_tx, request_rx) = channel::<EpochRequest>();
            let (reply_tx, reply_rx) = channel::<Result<EpochReply>>();
            let width = widths[shard];
            let worker = ShardWorker {
                machine: if config.backfill {
                    MachineState::with_backfill(width)
                } else {
                    MachineState::new(width)
                },
                policy: config.epoch_policy()?,
                stats: ShardStats {
                    shard,
                    first_processor: firsts[shard],
                    processors: width,
                    placements: 0,
                    solves: 0,
                    solve_ns: 0,
                    probes: 0,
                    steals_in: 0,
                    steals_out: 0,
                    makespan: 0.0,
                    timeline: TimelineStats::default(),
                },
            };
            workers.push(scope.spawn(move || worker.run(request_rx, reply_tx)));
            requests.push(request_tx);
            replies.push(reply_rx);
        }

        // `coordinate` owns the request senders, so however it returns,
        // dropping them ends every worker's loop before the joins below.
        let coordinated = coordinate(
            arrivals,
            config,
            &widths,
            &firsts,
            sink,
            recorder.as_deref(),
            requests,
            &replies,
        );
        // Join every worker, even after a failure: a worker left unjoined
        // that panicked would make the scope panic.
        let joined: Vec<Result<ShardStats>> = workers
            .into_iter()
            .enumerate()
            .map(|(shard, worker)| worker.join().map_err(|_| worker_lost(shard)))
            .collect();
        let (mut result, shard_steals) = coordinated?;
        let mut per_shard = joined.into_iter().collect::<Result<Vec<_>>>()?;
        for (stats, (steals_in, steals_out)) in per_shard.iter_mut().zip(shard_steals) {
            stats.steals_in = steals_in;
            stats.steals_out = steals_out;
        }
        let timeline = TimelineStats::aggregate(per_shard.iter().map(|s| s.timeline));
        if let Some(rec) = recorder.as_deref() {
            rec.add(names::TIMELINE_RESERVATIONS, timeline.reservations);
            rec.add(names::TIMELINE_CANCELS, timeline.cancels);
            rec.add(names::TIMELINE_TRUNCATIONS, timeline.truncations);
            rec.add(names::TIMELINE_HOLES_SCANNED, timeline.holes_scanned);
            rec.add(names::RUN_NS, run_timer.elapsed_ns());
        }
        result.per_shard = per_shard;
        result.timeline = timeline;
        result.run_ns = run_timer.elapsed_ns();
        Ok(result)
    })
}

/// The error of a run whose shard worker panicked.
fn worker_lost(shard: usize) -> Error {
    Error::InvariantViolated {
        context: "shard-worker",
        message: format!("the worker of shard {shard} panicked"),
    }
}

/// Width of shard `s` in an `m`-processor, `n`-shard partition (the first
/// `m mod n` shards take the remainder).
fn shard_width(processors: usize, shards: usize, shard: usize) -> usize {
    processors / shards + usize::from(shard < processors % shards)
}

/// The state a shard worker owns for the whole run.
struct ShardWorker {
    machine: MachineState,
    policy: EpochReplan,
    stats: ShardStats,
}

impl ShardWorker {
    /// Serve one epoch: advance the clock, then solve the batch as an
    /// offline sub-instance on the shard's width and replay it onto the
    /// shard timeline, through the shard's [`EpochReplan`].
    fn epoch(&mut self, time: f64, batch: Vec<ShardTask>) -> Result<EpochReply> {
        self.machine.advance_to(time);
        let (probes_before, solve_ns_before) = (self.policy.probes(), self.policy.solve_ns());
        let (arrivals, tasks): (Vec<(TaskId, f64)>, Vec<MalleableTask>) = batch
            .into_iter()
            .map(|t| ((t.id, t.arrived_at), t.task))
            .unzip();
        let sub_instance = epoch_instance(tasks, &self.machine)?;
        let commitments = self
            .policy
            .solve_batch(&sub_instance, &mut self.machine, |index| index)?;
        let mut placements = Vec::with_capacity(commitments.len());
        for c in commitments {
            let (task, arrived_at) = arrivals[c.task];
            self.stats.makespan = self.stats.makespan.max(c.start + c.duration);
            placements.push(StreamedPlacement {
                task,
                arrived_at,
                start: c.start,
                duration: c.duration,
                first: self.stats.first_processor + c.first,
                count: c.count,
                shard: self.stats.shard,
            });
        }
        self.stats.placements += placements.len();
        self.stats.solves = self.policy.solves();
        self.stats.solve_ns = self.policy.solve_ns();
        self.stats.probes = self.policy.probes();
        Ok(EpochReply {
            placements,
            solve_ns: self.stats.solve_ns - solve_ns_before,
            probes: self.stats.probes - probes_before,
            free_horizon: self.machine.free_horizon(),
        })
    }

    /// Serve epochs until the coordinator drops its request sender, then
    /// hand back the shard's statistics.
    fn run(
        mut self,
        requests: Receiver<EpochRequest>,
        replies: Sender<Result<EpochReply>>,
    ) -> ShardStats {
        for (time, tasks) in requests {
            if replies.send(self.epoch(time, tasks)).is_err() {
                break;
            }
        }
        self.stats.timeline = self.machine.timeline_stats();
        self.stats
    }
}

/// The work-stealing rebalance: move queued tasks from the most-loaded
/// shard to the least-loaded one while a single move strictly lowers the
/// maximum estimated load.  Deterministic: ties break towards the lower
/// shard index and the lower task id.  Returns `(task, from, to)` for every
/// move applied.
fn rebalance(
    queued: &mut [Vec<ShardTask>],
    horizons: &[f64],
    widths: &[usize],
    now: f64,
) -> Vec<(TaskId, usize, usize)> {
    let shards = queued.len();
    let mut loads: Vec<f64> = (0..shards)
        .map(|s| {
            let backlog = (horizons[s] - now).max(0.0);
            let queued_work: f64 = queued[s]
                .iter()
                .map(|t| t.task.profile.time(1) / widths[s] as f64)
                .sum();
            backlog + queued_work
        })
        .collect();
    let mut moves = Vec::new();
    // One move per queued task is a natural ceiling; the strict-improvement
    // rule stops far earlier in practice.
    let cap = queued.iter().map(Vec::len).sum::<usize>();
    for _ in 0..cap {
        // `max_by`/`min_by` only return None on an empty range, i.e. a
        // zero-shard coordinator, which cannot rebalance anything.
        let Some(donor) =
            (0..shards).max_by(|&a, &b| loads[a].total_cmp(&loads[b]).then(b.cmp(&a)))
        else {
            break;
        };
        let Some(receiver) =
            (0..shards).min_by(|&a, &b| loads[a].total_cmp(&loads[b]).then(a.cmp(&b)))
        else {
            break;
        };
        if donor == receiver || queued[donor].is_empty() {
            break;
        }
        let before = loads[donor];
        // The best single move: minimise max(donor', receiver') over the
        // donor's queue, ties towards the lowest task id.
        let mut best: Option<(usize, f64, TaskId)> = None;
        for (index, task) in queued[donor].iter().enumerate() {
            let work = task.task.profile.time(1);
            let donor_after = loads[donor] - work / widths[donor] as f64;
            let receiver_after = loads[receiver] + work / widths[receiver] as f64;
            let peak = donor_after.max(receiver_after);
            let better = match &best {
                None => true,
                Some((_, best_peak, best_id)) => {
                    peak < best_peak - 1e-12
                        || ((peak - best_peak).abs() <= 1e-12 && task.id < *best_id)
                }
            };
            if better {
                best = Some((index, peak, task.id));
            }
        }
        // The donor's queue was just checked non-empty, so a best move
        // exists; bail out of the rebalance rather than panic if not.
        let Some((index, peak, _)) = best else {
            break;
        };
        if peak >= before - 1e-12 {
            break;
        }
        let task = queued[donor].remove(index);
        let work = task.task.profile.time(1);
        loads[donor] -= work / widths[donor] as f64;
        loads[receiver] += work / widths[receiver] as f64;
        moves.push((task.id, donor, receiver));
        queued[receiver].push(task);
    }
    moves
}

/// Drive the epoch rounds: ingest the round's arrivals, assign them
/// round-robin, rebalance, dispatch to the shard workers, check and stream
/// the placements.  Returns the run's totals (without the per-shard and
/// timeline figures, which the workers hand back when they end) and every
/// shard's `(steals_in, steals_out)`.
#[allow(clippy::too_many_arguments)]
fn coordinate<I>(
    arrivals: I,
    config: &ShardedConfig,
    widths: &[usize],
    firsts: &[usize],
    sink: &mut dyn PlacementSink,
    recorder: Option<&dyn Recorder>,
    requests: Vec<Sender<EpochRequest>>,
    replies: &[Receiver<Result<EpochReply>>],
) -> Result<(ShardedResult, Vec<(usize, usize)>)>
where
    I: Iterator<Item = Result<Arrival>>,
{
    let shards = widths.len();
    let period = config.period;
    // Every arrival is checked as it is pulled: sorted (within 1e-9) and
    // without a departure.  The lookahead holds one arrival past the round.
    let mut last_at = 0.0f64;
    let mut arrivals = arrivals
        .map(|arrival| {
            let arrival = arrival?;
            if !(arrival.at.is_finite() && arrival.at >= last_at - 1e-9) {
                return Err(Error::InvalidParameter {
                    name: "unsorted-arrival",
                    value: arrival.at,
                });
            }
            if arrival.departs_at.is_some() {
                return Err(Error::InvalidParameter {
                    name: "sharded-departures",
                    value: arrival.at,
                });
            }
            last_at = last_at.max(arrival.at);
            Ok(arrival)
        })
        .peekable();
    let mut next_id: TaskId = 0;
    let mut queued: Vec<Vec<ShardTask>> = vec![Vec::new(); shards];
    let mut horizons: Vec<f64> = vec![0.0; shards];
    let mut shard_steals: Vec<(usize, usize)> = vec![(0, 0); shards];

    let mut result = ShardedResult {
        policy: config.policy_name(),
        shards,
        placed: 0,
        makespan: 0.0,
        mean_flow_time: 0.0,
        max_flow_time: 0.0,
        busy_integral: 0.0,
        rounds: 0,
        solves: 0,
        steals: 0,
        solve_critical_ns: 0,
        solve_total_ns: 0,
        run_ns: 0,
        invariant_violations: 0,
        per_shard: Vec::new(),
        timeline: TimelineStats::default(),
    };
    let mut flow_sum = 0.0f64;

    // Next epoch boundary: the first grid point after the next arrival
    // (the same `floor(now / period) + 1` grid the event-driven engine
    // uses; rounds only fire when there is work to plan).
    while let Some(first) = arrivals.next().transpose()? {
        let round_timer = SpanTimer::start();
        let tick = (first.at / period).floor() * period + period;
        // Round-robin assignment by arrival index keeps the partition
        // deterministic; the rebalance below corrects imbalance.
        let mut due = Some(first);
        while let Some(arrival) = due {
            queued[next_id % shards].push(ShardTask {
                id: next_id,
                arrived_at: arrival.at,
                task: arrival.task,
            });
            next_id += 1;
            due = arrivals
                .next_if(|next| next.as_ref().is_ok_and(|a| a.at <= tick + 1e-9))
                .transpose()?;
        }
        for (task, from, to) in rebalance(&mut queued, &horizons, widths, tick) {
            result.steals += 1;
            shard_steals[from].1 += 1;
            shard_steals[to].0 += 1;
            if let Some(rec) = recorder {
                rec.add(names::STEALS, 1);
                if rec.enabled() {
                    rec.event(TelemetryEvent::Steal {
                        time: tick,
                        task: task as u64,
                        from_shard: from,
                        to_shard: to,
                    });
                }
            }
        }

        // Dispatch non-empty shards, then collect replies in shard order so
        // the run is deterministic regardless of worker timing.
        let mut dispatched = Vec::new();
        for shard in 0..shards {
            if queued[shard].is_empty() {
                continue;
            }
            let tasks = std::mem::take(&mut queued[shard]);
            if requests[shard].send((tick, tasks)).is_err() {
                return Err(worker_lost(shard));
            }
            dispatched.push(shard);
        }
        let mut round_max_ns = 0u64;
        for &shard in &dispatched {
            let reply = replies[shard].recv().map_err(|_| worker_lost(shard))??;
            horizons[shard] = reply.free_horizon;
            round_max_ns = round_max_ns.max(reply.solve_ns);
            result.solve_total_ns += reply.solve_ns;
            result.solves += 1;
            if let Some(rec) = recorder {
                rec.sample(names::SOLVE_NS, reply.solve_ns);
                rec.sample(names::SOLVE_PROBES, reply.probes as u64);
                rec.add(names::REPLANS, 1);
                rec.add(names::WORKSPACE_PROBES, reply.probes as u64);
            }
            for placement in &reply.placements {
                // The shard planned at the boundary, so a start before the
                // arrival or outside the shard block is an engine invariant
                // violation, not a bad schedule.
                let first = firsts[placement.shard];
                if placement.start < placement.arrived_at - 1e-9
                    || !placement.start.is_finite()
                    || placement.first < first
                    || placement.first + placement.count > first + widths[placement.shard]
                {
                    result.invariant_violations += 1;
                    if let Some(rec) = recorder {
                        rec.add(names::INVARIANT_VIOLATIONS, 1);
                        if rec.enabled() {
                            rec.event(TelemetryEvent::InvariantViolation {
                                time: tick,
                                detail: format!(
                                    "task {} placed at [{}, p{}+{}) outside its contract",
                                    placement.task,
                                    placement.start,
                                    placement.first,
                                    placement.count
                                ),
                            });
                        }
                    }
                    return Err(Error::InvalidParameter {
                        name: "sharded-placement",
                        value: placement.start,
                    });
                }
                let finish = placement.start + placement.duration;
                let flow = finish - placement.arrived_at;
                result.placed += 1;
                result.makespan = result.makespan.max(finish);
                result.busy_integral += placement.duration * placement.count as f64;
                flow_sum += flow;
                result.max_flow_time = result.max_flow_time.max(flow);
                if let Some(rec) = recorder {
                    rec.add(names::PLACEMENTS, 1);
                }
                sink.place(placement);
            }
        }
        result.solve_critical_ns += round_max_ns;
        result.rounds += 1;
        if let Some(rec) = recorder {
            rec.add(names::SHARD_ROUNDS, 1);
            rec.sample(names::DECISION_NS, round_timer.elapsed_ns());
        }
    }

    result.mean_flow_time = if result.placed > 0 {
        flow_sum / result.placed as f64
    } else {
        0.0
    };
    Ok((result, shard_steals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{self, OnlineResult};
    use ::telemetry::CollectingRecorder;
    use proptest::prelude::*;
    use std::cell::Cell;
    use workload::{ArrivalPattern, ArrivalStream, TraceConfig, WorkloadConfig};

    fn mrt() -> SolverHandle {
        Arc::new(MrtSolver)
    }

    fn trace(tasks: usize, processors: usize, seed: u64) -> ArrivalTrace {
        ArrivalTrace::generate(&TraceConfig {
            workload: WorkloadConfig::mixed(tasks, processors, seed),
            pattern: ArrivalPattern::Poisson { rate: 3.0 },
        })
        .unwrap()
    }

    /// A schedule's placements in task order, times as their bits.
    fn by_task(schedule: &Schedule) -> Vec<(TaskId, [u64; 2], ProcessorRange)> {
        let mut placements: Vec<_> = schedule
            .entries()
            .iter()
            .map(|s| {
                (
                    s.task,
                    [s.start.to_bits(), s.duration.to_bits()],
                    s.processors,
                )
            })
            .collect();
        placements.sort_unstable_by_key(|p| p.0);
        placements
    }

    /// Check a one-shard run against the event-driven engine, whose policy
    /// served `solves` solves: every task placed bit for bit, the same
    /// makespan, max flow time, rounds and solves, mean flow time and busy
    /// integral within 1e-12 relative, and one shard that places every task.
    fn assert_matches_engine(
        result: &ShardedResult,
        schedule: &Schedule,
        engine: &OnlineResult,
        solves: usize,
        run: &str,
    ) {
        assert_eq!(by_task(schedule), by_task(&engine.schedule), "{run}");
        assert_eq!(
            result.makespan.to_bits(),
            engine.makespan.to_bits(),
            "{run}"
        );
        let (ours, theirs) = (result.max_flow_time, engine.max_flow_time);
        assert_eq!(ours.to_bits(), theirs.to_bits(), "{run}");
        let counts = (result.rounds, result.solves);
        assert_eq!(counts, (engine.replans, solves), "{run}");
        for (ours, theirs) in [
            (result.mean_flow_time, engine.mean_flow_time),
            (result.busy_integral, engine.busy_integral),
        ] {
            assert!((ours - theirs).abs() <= 1e-12 * theirs.abs(), "{run}");
        }
        let placements: Vec<usize> = result.per_shard.iter().map(|s| s.placements).collect();
        assert_eq!(placements, [engine.schedule.entries().len()], "{run}");
    }

    #[test]
    fn one_shard_places_every_task_where_the_engine_does() {
        // Small Poisson traces, then light and heavy Poisson traffic and
        // bursts of wide tasks, through both entry points: the materialised
        // trace and the stream.
        let poisson = |workload, rate| TraceConfig {
            workload,
            pattern: ArrivalPattern::Poisson { rate },
        };
        let mut configs: Vec<TraceConfig> = [1, 5, 9]
            .map(|seed| poisson(WorkloadConfig::mixed(24, 8, seed), 3.0))
            .into();
        for seed in 1..=3 {
            configs.push(poisson(WorkloadConfig::mixed(120, 16, seed), 1.0));
            configs.push(poisson(WorkloadConfig::mixed(120, 16, seed), 8.0));
            configs.push(TraceConfig {
                workload: WorkloadConfig::wide_tasks(90, 16, seed),
                pattern: ArrivalPattern::Bursty {
                    burst_size: 18,
                    burst_gap: 4.0,
                },
            });
        }
        for config in &configs {
            let trace = ArrivalTrace::generate(config).unwrap();
            let mut policy = EpochReplan::mrt(1.0).unwrap();
            let expected = engine::run(&trace, &mut policy).unwrap();
            let sharded = ShardedConfig::new(1, 1.0, mrt());
            let m = trace.processors();
            let (mut from_trace, mut from_stream) =
                (CollectingSink::new(m), CollectingSink::new(m));
            let stream = ArrivalStream::new(config).unwrap();
            let results = [
                run_sharded(&trace, &sharded, &mut from_trace, None).unwrap(),
                run_sharded_stream(stream, m, &sharded, &mut from_stream, None).unwrap(),
            ];
            for (result, sink) in results.iter().zip([from_trace, from_stream]) {
                let schedule = sink.into_schedule();
                let run = format!("{config:?}");
                assert_matches_engine(result, &schedule, &expected, policy.solves(), &run);
                assert_eq!(result.shards, 1);
                assert!(result.solve_total_ns > 0, "the policy must time its solves");
            }
        }
    }

    #[test]
    fn partitioned_runs_validate_and_place_every_task() {
        let trace = trace(40, 8, 3);
        for shards in [2, 4, 8] {
            let config = ShardedConfig::new(shards, 1.0, mrt());
            let mut sink = CollectingSink::new(trace.processors());
            let result = run_sharded(&trace, &config, &mut sink, None).unwrap();
            assert_eq!(result.placed, trace.len(), "{shards} shards");
            assert_eq!(result.invariant_violations, 0);
            let schedule = sink.into_schedule();
            let issues = crate::validate_against_trace(&trace, &schedule);
            assert!(issues.is_empty(), "{shards} shards: {issues:?}");
            // Per-shard stats add up to the run's totals, including the
            // cross-shard timeline aggregation (the per-timeline counters
            // would undercount).
            assert_eq!(result.per_shard.len(), shards);
            assert_eq!(
                result.per_shard.iter().map(|s| s.placements).sum::<usize>(),
                result.placed
            );
            let aggregated = TimelineStats::aggregate(result.per_shard.iter().map(|s| s.timeline));
            assert_eq!(result.timeline, aggregated);
            assert!(
                result.timeline.reservations
                    >= result
                        .per_shard
                        .iter()
                        .map(|s| s.timeline.reservations)
                        .max()
                        .unwrap()
            );
        }
    }

    #[test]
    fn deterministic_stealing_rebalances_a_lopsided_round() {
        // Two single-processor shards; four sequential tasks arrive at time
        // 0 with works [4, 1, 4, 1].  Round-robin puts {t0, t2} (load 8) on
        // shard 0 and {t1, t3} (load 2) on shard 1.  The rebalance moves t0
        // (ties break towards the lowest id: donor peak 8 → 6 either way),
        // then t1 back (6 → 5), and stops — no single move beats a 5/5
        // split.  Everything dispatches at the first grid point t = 1, so
        // the run finishes at 1 + 5 = 6 (round-robin alone would end at
        // 1 + 8 = 9).
        let works = [4.0, 1.0, 4.0, 1.0];
        let trace = ArrivalTrace::new(
            2,
            works
                .iter()
                .map(|&w| {
                    Arrival::new(
                        0.0,
                        MalleableTask::new(SpeedupProfile::sequential(w).unwrap()),
                    )
                })
                .collect(),
        )
        .unwrap();
        let config = ShardedConfig::new(2, 1.0, mrt());
        let recorder = CollectingRecorder::shared();
        let mut sink = CollectingSink::new(2);
        let stolen = run_sharded(
            &trace,
            &config,
            &mut sink,
            Some(recorder.clone() as SharedRecorder),
        )
        .unwrap();
        let schedule = sink.into_schedule();
        assert_eq!(stolen.steals, 2);
        assert_eq!(recorder.counter(names::STEALS), 2);
        assert!((stolen.makespan - 6.0).abs() < 1e-9, "{}", stolen.makespan);
        assert!(crate::validate_against_trace(&trace, &schedule).is_empty());
        let steal_events: Vec<(u64, usize, usize)> = recorder
            .events()
            .iter()
            .filter_map(|e| match e {
                TelemetryEvent::Steal {
                    task,
                    from_shard,
                    to_shard,
                    ..
                } => Some((*task, *from_shard, *to_shard)),
                _ => None,
            })
            .collect();
        assert_eq!(steal_events, vec![(0, 0, 1), (1, 1, 0)]);
    }

    /// A sink that checks, at every placement, that the coordinator has
    /// pulled every arrival of the placement's round and at most one more.
    struct LookaheadSink<'a> {
        times: &'a [f64],
        pulled: &'a Cell<usize>,
        placed: Vec<(TaskId, f64)>,
    }

    impl PlacementSink for LookaheadSink<'_> {
        fn place(&mut self, placement: &StreamedPlacement) {
            // The round's boundary: the first grid point after the arrival
            // (no arrival of the test lands on the grid).
            let tick = placement.arrived_at.floor() + 1.0;
            let dispatched = self.times.partition_point(|&at| at <= tick);
            let pulled = self.pulled.get();
            assert!(
                (dispatched..=dispatched + 1).contains(&pulled),
                "{pulled} arrivals pulled by the round up to {tick}, which dispatched {dispatched}"
            );
            self.placed.push((placement.task, placement.arrived_at));
        }
    }

    #[test]
    fn ingestion_pulls_one_arrival_past_the_dispatched_round() {
        let config = TraceConfig {
            workload: WorkloadConfig::mixed(80, 8, 4),
            pattern: ArrivalPattern::Poisson { rate: 3.0 },
        };
        let times: Vec<f64> = ArrivalStream::new(&config)
            .unwrap()
            .map(|a| a.unwrap().at)
            .collect();
        for shards in [1, 2] {
            let pulled = Cell::new(0);
            let arrivals = ArrivalStream::new(&config)
                .unwrap()
                .inspect(|_| pulled.set(pulled.get() + 1));
            let mut sink = LookaheadSink {
                times: &times,
                pulled: &pulled,
                placed: Vec::new(),
            };
            let sharded = ShardedConfig::new(shards, 1.0, mrt());
            let result = run_sharded_stream(arrivals, 8, &sharded, &mut sink, None).unwrap();
            assert_eq!(pulled.get(), times.len(), "{shards} shards");
            assert_eq!(result.placed, times.len(), "{shards} shards");
            // Ids follow the arrival order, each with its own time.
            sink.placed.sort_by_key(|&(task, _)| task);
            for (expected, &(task, at)) in sink.placed.iter().enumerate() {
                assert_eq!((task, at.to_bits()), (expected, times[expected].to_bits()));
            }
            // An arrival earlier than the one before it is refused.
            let task = || MalleableTask::new(SpeedupProfile::sequential(1.0).unwrap());
            let unsorted = [Arrival::new(3.0, task()), Arrival::new(0.0, task())];
            let refused = run_sharded_stream(
                unsorted.into_iter().map(Ok),
                2,
                &sharded,
                &mut NullSink,
                None,
            );
            assert!(
                matches!(
                    refused,
                    Err(Error::InvalidParameter {
                        name: "unsorted-arrival",
                        ..
                    })
                ),
                "{refused:?}"
            );
        }
    }

    #[test]
    fn streaming_ingestion_matches_the_materialised_run() {
        // The lazily streamed trace must give the same run as the
        // materialised one.
        let config = TraceConfig {
            workload: WorkloadConfig::mixed(60, 8, 17),
            pattern: ArrivalPattern::Bursty {
                burst_size: 10,
                burst_gap: 2.0,
            },
        };
        let trace = ArrivalTrace::generate(&config).unwrap();
        let sharded = ShardedConfig::new(4, 1.0, mrt());
        let mut from_trace = CollectingSink::new(8);
        let a = run_sharded(&trace, &sharded, &mut from_trace, None).unwrap();
        let mut from_stream = CollectingSink::new(8);
        let stream = ArrivalStream::new(&config).unwrap();
        let b = run_sharded_stream(stream, 8, &sharded, &mut from_stream, None).unwrap();
        assert_eq!(from_trace.into_schedule(), from_stream.into_schedule());
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.steals, b.steals);
        assert_eq!(a.rounds, b.rounds);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// On arbitrary small traces, every shard count places every task
        /// into a schedule that validates against the trace, never beats
        /// the physical lower bound, and reports zero invariant violations;
        /// with one shard every task is placed where the event-driven
        /// engine places it.
        #[test]
        fn partitioning_preserves_the_engine_contract(
            seed in 0u64..10_000,
            tasks in 4usize..28,
            rate in 0.5f64..6.0,
        ) {
            let trace = ArrivalTrace::generate(&TraceConfig {
                workload: WorkloadConfig::mixed(tasks, 8, seed),
                pattern: ArrivalPattern::Poisson { rate },
            })
            .unwrap();
            // The physical floor: a task cannot finish before its arrival
            // plus its fastest possible execution on the whole machine.
            let floor = trace
                .releases()
                .iter()
                .zip(trace.instance().tasks())
                .map(|(r, task)| r.at + task.profile.time(trace.processors()))
                .fold(0.0f64, f64::max);
            let mut policy = EpochReplan::mrt(1.0).unwrap();
            let legacy = engine::run(&trace, &mut policy).unwrap();
            for shards in [1usize, 2, 4, 8] {
                let config = ShardedConfig::new(shards, 1.0, mrt());
                let mut sink = CollectingSink::new(trace.processors());
                let result = run_sharded(&trace, &config, &mut sink, None).unwrap();
                let schedule = sink.into_schedule();
                prop_assert_eq!(result.placed, trace.len(), "{} shards", shards);
                prop_assert_eq!(result.invariant_violations, 0);
                let issues = crate::validate_against_trace(&trace, &schedule);
                prop_assert!(issues.is_empty(), "{} shards: {:?}", shards, issues);
                prop_assert!(
                    result.makespan >= floor - 1e-9,
                    "{} shards beat the lower bound: {} < {}",
                    shards,
                    result.makespan,
                    floor
                );
                if shards == 1 {
                    let run = format!("seed {seed}, {tasks} tasks, rate {rate}");
                    assert_matches_engine(&result, &schedule, &legacy, policy.solves(), &run);
                }
            }
        }
    }

    /// A solver with a bug: every solve panics.
    struct PanickingSolver;

    impl Solver for PanickingSolver {
        fn name(&self) -> &'static str {
            "panics"
        }

        fn capabilities(&self) -> SolverCapabilities {
            SolverCapabilities::heuristic()
        }

        fn solve(&self, _request: &SolveRequest<'_>) -> Result<SolveOutcome> {
            panic!("a solver bug")
        }
    }

    #[test]
    fn a_panicking_worker_fails_the_run_with_a_typed_error() {
        let trace = trace(10, 4, 1);
        for shards in [1, 2] {
            let config = ShardedConfig::new(shards, 1.0, Arc::new(PanickingSolver));
            let failed = run_sharded(&trace, &config, &mut NullSink, None);
            assert!(
                matches!(
                    failed,
                    Err(Error::InvariantViolated {
                        context: "shard-worker",
                        ..
                    })
                ),
                "{shards} shards: {failed:?}"
            );
        }
    }

    #[test]
    fn sharded_configs_are_validated() {
        let trace = trace(10, 4, 1);
        let mut sink = NullSink;
        for config in [
            ShardedConfig::new(0, 1.0, mrt()),
            ShardedConfig::new(5, 1.0, mrt()),
            ShardedConfig::new(2, 0.0, mrt()),
        ] {
            assert!(
                run_sharded(&trace, &config, &mut sink, None).is_err(),
                "{config:?}"
            );
        }
        // Departures are out of scope at every shard count, through either
        // entry point.
        let departing = trace
            .clone()
            .with_departures(workload::DeparturePolicy::Patience { mean: 5.0 }, 1)
            .unwrap();
        assert!(run_sharded(
            &departing,
            &ShardedConfig::new(2, 1.0, mrt()),
            &mut sink,
            None
        )
        .is_err());
        let stream = (0..departing.len()).map(|task| Ok(departing.arrival(task)));
        let refused = run_sharded_stream(
            stream,
            4,
            &ShardedConfig::new(1, 1.0, mrt()),
            &mut sink,
            None,
        );
        assert!(
            matches!(
                refused,
                Err(Error::InvalidParameter {
                    name: "sharded-departures",
                    ..
                })
            ),
            "{refused:?}"
        );
    }
}
