//! # online
//!
//! An event-driven **online scheduling engine** for monotone malleable
//! tasks: tasks arrive over time (see [`workload::ArrivalTrace`]) and the
//! engine commits non-preemptive, contiguous placements as the trace
//! unfolds, re-using any offline solver behind the unified
//! `malleable_core::solver::Solver` trait as a planning oracle (resolve one
//! by name from the workspace `solver` crate's registry).
//!
//! The offline model of the paper (Mounié–Rapine–Trystram, SPAA 1999)
//! solves one fixed task set; a production scheduler instead faces a stream
//! of submissions.  The classical bridge is batch-mode scheduling: collect
//! what arrived, solve it offline, commit, repeat — each planning round
//! inherits the offline √3 guarantee on its own batch.  This crate
//! implements that bridge as an event loop with pluggable policies:
//!
//! * [`policy::GreedyList`] — immediate list scheduling on arrival;
//! * [`policy::EpochReplan`] — periodic offline re-planning with any
//!   registered solver (MRT, Ludwig two-phase, canonical list, …);
//! * [`policy::BatchUntilIdle`] — plan a whole batch whenever the machine
//!   drains.
//!
//! ## Quick start
//!
//! ```rust
//! use online::policy::EpochReplan;
//! use workload::{ArrivalPattern, ArrivalTrace, TraceConfig, WorkloadConfig};
//!
//! // 40 mixed tasks arriving as a Poisson stream on 8 processors.
//! let trace = ArrivalTrace::generate(&TraceConfig {
//!     workload: WorkloadConfig::mixed(40, 8, 7),
//!     pattern: ArrivalPattern::Poisson { rate: 4.0 },
//! })
//! .unwrap();
//!
//! // Re-plan with the offline √3 scheduler once per time unit.
//! let mut policy = EpochReplan::mrt(1.0).unwrap();
//! let result = online::run(&trace, &mut policy).unwrap();
//!
//! // The committed schedule passes every check of the run's record …
//! assert!(malleable_core::check(&result.record(&trace)).is_empty());
//! // … and can be compared against the clairvoyant offline run (the ratios
//! // are `None` only when every task departed before starting).
//! let report = online::competitive_report(&trace, &result).unwrap();
//! assert!(report.ratio_vs_lower_bound.unwrap() >= 1.0 - 1e-9);
//! ```
//!
//! ## Model and guarantees
//!
//! The machine is an **interval-reservation book**
//! ([`packing::reservations`]): every commitment is a revocable reservation,
//! and the clock never destroys idle holes.  Both *queued* and *running*
//! commitments are first-class citizens:
//!
//! * **departures** — arrivals may carry a `departs_at` deadline; a task
//!   that has not started by its deadline leaves the system, and its queued
//!   reservation (if any) is cancelled and the space reclaimed.  A task
//!   completing exactly at its deadline counts as completed, and a task
//!   that executed any work is immune to its deadline;
//! * **backfill** — with a policy's `backfill` field (CLI `--backfill`)
//!   placements first-fit into idle holes below the processor
//!   frontier instead of always queueing behind it;
//! * **preemptive re-allotment of queued work** — with
//!   [`EpochReplan::preempt_queued`] (CLI `--preempt-queued`) an
//!   epoch boundary revokes every not-yet-started commitment and re-solves
//!   it jointly with the new arrivals, so early placement mistakes are
//!   corrected while the machine state is still fluid;
//! * **mid-execution re-allotment of running tasks** — with
//!   [`EpochReplan::preempt_running`] (CLI `--preempt-running`)
//!   an epoch boundary with fresh work additionally *truncates* running
//!   commitments at the clock and re-solves their **residuals** (profiles
//!   scaled by the remaining work fraction, [`workload::residual`]) jointly
//!   with the pending set: the true malleable model, where a task's
//!   allotment may change while it runs.  Work executed at the old
//!   allotment is conserved by construction, and the output schedule
//!   records one segment per allotment (the run's record checks
//!   per-segment feasibility and per-task work conservation).
//!
//! By default all four are off and the engine reproduces the historical
//! frontier-only behaviour exactly (planning rounds keep the offline
//! schedule's allotments and priorities but replay them onto the live
//! processor frontier, so a batch interleaves with the tail of the previous
//! one instead of waiting behind a barrier).  The makespan of any run
//! without departures is at least the offline optimum of the full task set,
//! and the `ratio_vs_lower_bound` of [`CompetitiveReport`] measures the
//! price of online operation against the dual-search certificate (computed
//! over the executed task set when tasks departed; `None` when every task
//! departed — an empty subset has no baseline).
//!
//! ## Fault tolerance
//!
//! [`run_with_faults`] replays a trace under a deterministic
//! [`workload::FaultPlan`]: processor crashes take capacity offline and
//! displace the commitments using it (running work is conserved as
//! residuals, exactly like mid-execution re-allotment), per-attempt task
//! failures *lose* the attempt's work and retry under a capped exponential
//! backoff ([`workload::RetryPolicy`]) until abandoned, and the run's
//! [`OnlineResult::record`] adds the fault-specific invariants to its
//! checks (no executed or wasted segment overlaps another or any outage).  See
//! [`engine`]'s module docs for the full recovery semantics and
//! [`OnlineResult::goodput_fraction`] for the graceful-degradation figure.

#![warn(missing_docs)]

pub mod engine;
pub mod event;
pub mod machine;
pub mod policy;
pub mod shard;
pub mod telemetry;

pub use engine::{
    competitive_report, queued_reallotment_scenario, run, run_recorded, run_with_faults,
    running_reallotment_scenario, trace_record, validate_against_trace, CompetitiveReport,
    OnlineResult,
};
pub use event::{Event, EventKind, EventQueue};
pub use machine::{MachineState, Placement, ReservationError, ReservationId};
pub use policy::{
    BatchUntilIdle, Commitment, EpochReplan, GreedyList, OnlinePolicy, PendingTask, Trigger,
};
pub use shard::{
    run_sharded, run_sharded_stream, CollectingSink, NullSink, PlacementSink, ShardStats,
    ShardedConfig, ShardedResult, StreamedPlacement,
};
pub use telemetry::{summarize, utilization_timeline, RunTelemetry, UtilizationSample};
