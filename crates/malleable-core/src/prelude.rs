//! Convenience re-exports for library users.
//!
//! ```rust
//! use malleable_core::prelude::*;
//!
//! let task = SpeedupProfile::linear(4.0, 4).unwrap();
//! let instance = Instance::from_profiles(vec![task], 4).unwrap();
//! let outcome = MrtSolver.solve(&SolveRequest::new(&instance)).unwrap();
//! assert!(outcome.makespan() > 0.0);
//! ```

pub use crate::allotment::Allotment;
pub use crate::bounds::{area_bound, critical_task_bound, lower_bound, upper_bound};
pub use crate::canonical::{CanonicalAllotment, CanonicalListAlgorithm};
pub use crate::dual::{DualApproximation, DualOutcome, DualSearch, SearchMode, SearchResult};
pub use crate::eps::{approx_eq, approx_ge, approx_le, approx_ne, approx_zero, EPS};
pub use crate::error::{Error, Result};
pub use crate::instance::{Instance, InstanceSummary};
pub use crate::list::{schedule_rigid, ListOrder};
pub use crate::mla::MalleableListAlgorithm;
pub use crate::mrt::{Branch, BranchSet, MrtScheduler};
pub use crate::schedule::{ProcessorRange, Schedule, ScheduledTask};
pub use crate::solver::{
    CanonicalListSolver, MrtSolver, SolveOutcome, SolveRequest, Solver, SolverCapabilities,
    SolverConfig, SolverHandle, SolverRegistry, WarmStart,
};
pub use crate::task::{MalleableTask, SpeedupProfile, TaskId};
pub use crate::two_shelf::{TwoShelfKind, TwoShelfParams};
pub use crate::workspace::ProbeWorkspace;
pub use crate::{LAMBDA_SQRT3, SQRT3};
