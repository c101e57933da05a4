//! # baselines
//!
//! Baseline schedulers for independent monotone malleable tasks, implementing
//! the prior work the paper positions itself against (§1).  Each one is a
//! [`Solver`](malleable_core::solver::Solver) impl, and that impl is its only
//! entry point:
//!
//! * **Turek–Wolf–Yu two-phase method** ([`TwoPhaseSolver`]): select an
//!   allotment minimising the trivial lower bound `Λ(α) = max(W(α)/m,
//!   t_max(α))`, then schedule the resulting rigid tasks with a non-malleable
//!   heuristic.  TWY proved that any ρ-approximation for the rigid problem
//!   transfers to the malleable problem; Ludwig improved the
//!   allotment-selection complexity and instantiated the rigid phase with
//!   Steinberg's 2-approximate strip packing.  Our rigid phase offers the
//!   classical level algorithms (FFDH / NFDH) and contiguous list scheduling
//!   instead (see README "Deviations from the paper").
//! * **Gang scheduling** ([`GangSolver`]): every task runs on the whole
//!   machine, one after another (optimal for perfectly parallel tasks,
//!   terrible for sequential ones).
//! * **Sequential LPT** ([`SequentialLptSolver`]): every task runs on one
//!   processor, scheduled by Graham's LPT rule (optimal-ish for sequential
//!   tasks, terrible for wide ones).
//!
//! The workspace registry, `solver::default_registry`, registers them as
//! `ludwig`, `twy-list`, `twy-nfdh`, `gang` and `lpt`.  Their outcomes carry
//! the static lower bound and report time-budget overruns after the fact
//! (see [`malleable_core::solver::heuristic_outcome`]).
//!
//! ```rust
//! use baselines::GangSolver;
//! use malleable_core::prelude::*;
//!
//! let instance = Instance::from_profiles(
//!     vec![SpeedupProfile::linear(4.0, 4).unwrap(); 2],
//!     4,
//! )
//! .unwrap();
//! let outcome = GangSolver.solve(&SolveRequest::new(&instance)).unwrap();
//! // Perfectly parallel tasks: gang scheduling meets the area bound.
//! assert!((outcome.makespan() - 2.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

mod naive;
mod two_phase;

pub use naive::{GangSolver, SequentialLptSolver};
pub use two_phase::TwoPhaseSolver;
