//! # precedence
//!
//! Scheduling **precedence-constrained** malleable tasks.
//!
//! The paper's conclusion names this as the natural continuation of the work:
//! "the natural continuation of this work is to study the scheduling of
//! precedence graphs structures", citing the Prasanna–Musicus continuous
//! analysis and the tree-structured ocean application the authors were
//! working on.  The SPAA 1999 paper itself only solves the *independent*
//! task case; this crate provides the extension as two practical heuristics
//! built on top of the independent-task machinery:
//!
//! * [`scheduler::LevelScheduler`] — decompose the DAG into precedence levels
//!   and schedule every level as an independent malleable instance with the
//!   √3 algorithm of the paper, concatenating the per-level schedules.  This
//!   directly reuses Theorem 3 inside each level (the per-level makespan is
//!   within `√3 + ε` of that level's optimum), which is the simplest way the
//!   paper's result lifts to precedence graphs.
//! * [`scheduler::CpaScheduler`] — a Critical-Path-and-Area allotment
//!   heuristic in the spirit of Prasanna–Musicus / Radulescu–van Gemund:
//!   processors are granted to the tasks on the critical path until the
//!   critical-path bound and the area bound are balanced, then the rigid DAG
//!   is list-scheduled with precedence-aware earliest start times on
//!   contiguous processors.
//!
//! Neither heuristic claims the paper's worst-case factor for general DAGs —
//! no such bound is published in the 1999 paper — but both are validated
//! against the precedence-aware lower bounds of [`bounds`] and against the
//! structural validator of [`graph`], and their measured behaviour is part of
//! the extended experiment suite.

#![warn(missing_docs)]

pub mod bounds;
pub mod graph;
pub mod scheduler;

pub use bounds::{area_bound, critical_path_bound, lower_bound};
pub use graph::{PrecedenceInstance, TaskGraph};
pub use scheduler::{CpaScheduler, LevelScheduler};
