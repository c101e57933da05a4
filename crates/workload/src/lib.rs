//! # workload
//!
//! Synthetic workload generation for the malleable-task scheduling
//! experiments.
//!
//! The paper motivates malleable tasks with parallel applications whose
//! speed-up saturates because of communication and parallelisation overheads
//! (its running example is an ocean-circulation simulation with adaptive
//! meshing).  Those application traces are not publicly available, so the
//! experiment harness uses synthetic *monotone* speed-up families that cover
//! the behaviours discussed in §2.1 of the paper and in the standard parallel
//! workload literature:
//!
//! * [`SpeedupFamily::Amdahl`] — a sequential fraction bounds the speed-up;
//! * [`SpeedupFamily::PowerLaw`] — `t(p) = w / p^σ` (Downey-style sub-linear
//!   speed-up, `σ ∈ (0, 1]`);
//! * [`SpeedupFamily::CommunicationOverhead`] — linear speed-up plus a
//!   per-processor communication penalty `t(p) = w/p + c·(p − 1)`, repaired to
//!   stay monotone beyond its optimal processor count;
//! * [`SpeedupFamily::Step`] — the task only exploits powers of two
//!   (a common shape for FFT-like kernels);
//! * [`SpeedupFamily::Linear`] — perfect speed-up (the easiest case, where
//!   the area bound is tight);
//! * [`SpeedupFamily::Sequential`] — no speed-up at all (the hardest case for
//!   wide machines, where LPT behaviour dominates).
//!
//! Every generated profile is validated (or repaired) to satisfy the paper's
//! two monotonicity conditions, so the guarantees of `malleable-core` apply.
//! Generation is fully deterministic given a [`WorkloadConfig`] seed.
//!
//! For the online engine (crate `online`), the [`arrivals`] module extends
//! the same populations with *arrival times* — Poisson and bursty
//! [`ArrivalPattern`]s — producing [`ArrivalTrace`]s with their own JSON
//! representation.  The [`faults`] module adds seeded, deterministic fault
//! scenarios ([`FaultPlan`]: processor outages, per-attempt task failures,
//! forced solver faults) that the engine replays without randomness.

#![warn(missing_docs)]

pub mod arrivals;
pub mod families;
pub mod faults;
pub mod generator;
pub mod hetero;
pub mod io;
pub mod residual;
pub mod stats;

pub use arrivals::{
    trace_from_json, trace_to_json, Arrival, ArrivalPattern, ArrivalStream, ArrivalTrace,
    DeparturePolicy, Release, TraceConfig,
};
pub use families::SpeedupFamily;
pub use faults::{FaultConfig, FaultPlan, Outage, RetryPolicy};
pub use generator::{TaskStream, WorkMix, WorkloadConfig, WorkloadGenerator};
pub use hetero::{classed_trace, parse_class_specs, total_class_processors, ClassSpec};
pub use io::{instance_from_json, instance_to_json, instances_approx_equal};
pub use residual::{executed_fraction, residual_profile, residual_task, residual_task_into};
pub use stats::{describe, InstanceStats};
