//! # simulator
//!
//! A discrete-event multiprocessor simulator and a Gantt renderer for the
//! malleable-task schedules produced by `malleable-core` and `baselines`.
//!
//! The original paper evaluates its algorithms analytically (worst-case
//! guarantees); the authors' parallel testbed is not available, so this crate
//! is the substrate standing in for "run the schedule on the machine": it
//! replays a [`malleable_core::Schedule`] event by event on a model of `m`
//! identical processors and reports machine-level statistics (utilisation,
//! idle areas, per-processor load) used by the experiment harness.  Checking
//! a schedule against the model (§2) is `malleable_core::validate`'s job.
//!
//! Two layers are provided:
//!
//! * [`engine`] — a discrete-event engine producing an [`engine::ExecutionTrace`]
//!   with start/finish events and a per-processor busy/idle profile;
//! * [`gantt`] — a plain-text Gantt rendering used by the examples.

#![warn(missing_docs)]

pub mod engine;
pub mod gantt;

pub use engine::{simulate, Event, EventKind, ExecutionTrace};
pub use gantt::render_gantt;
