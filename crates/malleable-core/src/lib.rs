//! # malleable-core
//!
//! A Rust implementation of the approximation algorithms for scheduling
//! independent **monotonic malleable tasks** from:
//!
//! > G. Mounié, C. Rapine, D. Trystram,
//! > *Efficient Approximation Algorithms for Scheduling Malleable Tasks*,
//! > 11th ACM Symposium on Parallel Algorithms and Architectures (SPAA), 1999.
//!
//! A *malleable task* may be executed on any number of processors; its
//! execution time is non-increasing and its work (processors × time) is
//! non-decreasing in the processor count.  The library schedules a set of
//! independent malleable tasks on `m` identical processors to minimise the
//! makespan, with the paper's worst-case performance guarantee of `√3 + ε`.
//!
//! ## Quick start
//!
//! ```rust
//! use malleable_core::prelude::*;
//!
//! // Three tasks: a parallel solver, a medium task and a small sequential one.
//! let tasks = vec![
//!     SpeedupProfile::linear(8.0, 8).unwrap(),          // perfect speed-up
//!     SpeedupProfile::new(vec![3.0, 1.7, 1.3]).unwrap(), // measured profile
//!     SpeedupProfile::sequential(0.8).unwrap(),
//! ];
//! let instance = Instance::from_profiles(tasks, 8).unwrap();
//!
//! // One request: dual-approximation search around the MRT √3 scheduler.
//! let outcome = MrtSolver.solve(&SolveRequest::new(&instance)).unwrap();
//! assert!(outcome.schedule.validate(&instance).is_ok());
//! assert!(outcome.ratio() <= 1.75); // a-posteriori ratio vs certified bound
//! ```
//!
//! ## Crate layout
//!
//! | module | paper section | contents |
//! |---|---|---|
//! | [`task`], [`instance`], [`allotment`], [`schedule`] | §2 | the model: monotone profiles, instances, allotments, contiguous schedules |
//! | [`bounds`] | §2 | lower bounds and necessary feasibility conditions |
//! | [`dual`] | §2.2 | dual approximation trait + dichotomic search |
//! | [`list`] | §3 | contiguous list scheduling / LPT engine |
//! | [`mla`] | §3.1 | the malleable list algorithm |
//! | [`canonical`] | §3.2 | canonical allotment, λ-area, canonical list algorithm, `m_λ` |
//! | [`two_shelf`] | §4 | the knapsack-based two-shelf construction |
//! | [`mrt`] | §3–§4, Thm 3 | the combined √3 scheduler (the oracle behind the `mrt` solver) |
//! | [`solver`] | — | the unified `Solver` trait, `SolveRequest`/`SolveOutcome` pipeline and the solver registry |
//! | [`validate`] | §2 | the one checker: a [`RunRecord`] of what a run produced and was allowed to do, and [`check`] |

#![warn(missing_docs)]

pub mod allotment;
pub mod bounds;
pub mod breakpoints;
pub mod canonical;
pub mod dual;
pub mod eps;
pub mod error;
pub mod instance;
pub mod list;
pub mod mla;
pub mod mrt;
pub mod schedule;
pub mod solver;
pub mod task;
pub mod two_shelf;
pub mod validate;
pub mod workspace;

pub mod prelude;

pub use allotment::Allotment;
pub use error::{Error, Result};
pub use instance::{Instance, InstanceSummary};
pub use schedule::{ProcessorRange, Schedule, ScheduledTask};
pub use solver::{
    CanonicalListSolver, ConfigValue, MrtSolver, SolveOutcome, SolveRequest, Solver,
    SolverCapabilities, SolverConfig, SolverHandle, SolverRegistry,
};
pub use task::{MalleableTask, SpeedupProfile, TaskId};
pub use validate::{check, Outage, RunRecord, Slice, TaskWindow, Violation};
pub use workspace::{ProbeWorkspace, RigidBuilds};

/// The paper's headline guarantee: `√3`.
pub const SQRT3: f64 = 1.7320508075688772;

/// The paper's second-shelf parameter: `λ = √3 − 1`.
pub const LAMBDA_SQRT3: f64 = SQRT3 - 1.0;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_consistent() {
        assert!((SQRT3 * SQRT3 - 3.0).abs() < 1e-12);
        assert!((LAMBDA_SQRT3 - (SQRT3 - 1.0)).abs() < 1e-15);
        assert!((1.0 + LAMBDA_SQRT3 - SQRT3).abs() < 1e-15);
    }
}
