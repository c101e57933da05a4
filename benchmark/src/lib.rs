//! The repository's benchmark: five workloads, from the offline √3 solver to
//! the sharded streaming engine, each measured end to end and, in a traced
//! pass, layer by layer.
//!
//! Layers are timed from outside only — pass-through wrappers around the
//! public calls into each layer ([`wrappers`]) plus the figures the public
//! API already returns — so the benchmark never changes what it measures.
//! See `README.md` in this directory for the workloads, the metrics and how
//! to compare two commits.

pub mod compare;
pub mod metrics;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
pub mod wrappers;
