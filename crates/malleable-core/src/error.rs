//! Error types for the malleable scheduling library.

use std::fmt;

use crate::validate::Violation;

/// Errors raised while constructing model objects or running schedulers.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A speed-up profile was empty.
    EmptyProfile,
    /// A speed-up profile contained a non-positive or non-finite time.
    InvalidTime {
        /// The processor count the time belongs to.
        processors: usize,
        /// The offending time.
        time: f64,
    },
    /// Execution times must be non-increasing in the number of processors.
    NonMonotonicTime {
        /// The first processor count whose time increases.
        processors: usize,
    },
    /// Work (processors × time) must be non-decreasing in the number of processors.
    NonMonotonicWork {
        /// The first processor count whose work decreases.
        processors: usize,
    },
    /// An instance was built with no tasks.
    EmptyInstance,
    /// An instance was built with zero processors.
    NoProcessors,
    /// A task index was out of range for the instance.
    UnknownTask {
        /// The out-of-range task index.
        task: usize,
    },
    /// An allotment referenced a processor count outside `1..=m`.
    InvalidAllotment {
        /// The task given the count.
        task: usize,
        /// The invalid processor count.
        processors: usize,
    },
    /// The requested deadline cannot be met by any allotment of some task.
    DeadlineUnreachable {
        /// The first task that cannot meet it.
        task: usize,
        /// The unreachable deadline.
        deadline: f64,
    },
    /// A scheduler was asked for a guarantee parameter outside its valid range.
    InvalidParameter {
        /// The parameter's name.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A `SolverConfig` knob carried a value the addressed solver rejects.
    InvalidConfig {
        /// The config key.
        key: &'static str,
        /// Why the value was rejected.
        message: String,
    },
    /// The dual-approximation search could not find any feasible schedule.
    NoFeasibleSchedule,
    /// A schedule breaks an invariant of its run record (the first
    /// violation [`crate::validate::check`] found).
    InvalidSchedule(Violation),
    /// An internal invariant the engine relies on was observed broken at
    /// run time.  Raised instead of panicking on engine paths so a
    /// corrupted run degrades into a reported error.
    InvariantViolated {
        /// Which invariant (a short static label, e.g. `"revoke-queued"`).
        context: &'static str,
        /// What was actually observed.
        message: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::EmptyProfile => write!(f, "speed-up profile has no entries"),
            Error::InvalidTime { processors, time } => write!(
                f,
                "execution time on {processors} processor(s) is invalid: {time}"
            ),
            Error::NonMonotonicTime { processors } => write!(
                f,
                "execution time increases when going from {} to {} processors",
                processors - 1,
                processors
            ),
            Error::NonMonotonicWork { processors } => write!(
                f,
                "work decreases when going from {} to {} processors (super-linear speed-up)",
                processors - 1,
                processors
            ),
            Error::EmptyInstance => write!(f, "instance contains no tasks"),
            Error::NoProcessors => write!(f, "instance has zero processors"),
            Error::UnknownTask { task } => write!(f, "task index {task} is out of range"),
            Error::InvalidAllotment { task, processors } => write!(
                f,
                "allotment gives task {task} an invalid processor count {processors}"
            ),
            Error::DeadlineUnreachable { task, deadline } => write!(
                f,
                "task {task} cannot finish within deadline {deadline} on any allotment"
            ),
            Error::InvalidParameter { name, value } => {
                write!(f, "parameter {name} has invalid value {value}")
            }
            Error::InvalidConfig { key, message } => {
                write!(f, "config key `{key}` rejected: {message}")
            }
            Error::NoFeasibleSchedule => {
                write!(f, "no feasible schedule could be constructed")
            }
            Error::InvalidSchedule(violation) => write!(f, "invalid schedule: {violation}"),
            Error::InvariantViolated { context, message } => {
                write!(f, "engine invariant `{context}` violated: {message}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_human_readable_messages() {
        let cases: Vec<(Error, &str)> = vec![
            (Error::EmptyProfile, "no entries"),
            (
                Error::InvalidTime {
                    processors: 2,
                    time: -1.0,
                },
                "invalid",
            ),
            (Error::NonMonotonicTime { processors: 3 }, "increases"),
            (Error::NonMonotonicWork { processors: 3 }, "super-linear"),
            (Error::EmptyInstance, "no tasks"),
            (Error::NoProcessors, "zero processors"),
            (Error::UnknownTask { task: 7 }, "out of range"),
            (
                Error::InvalidAllotment {
                    task: 1,
                    processors: 9,
                },
                "invalid processor count",
            ),
            (
                Error::DeadlineUnreachable {
                    task: 0,
                    deadline: 1.0,
                },
                "cannot finish",
            ),
            (
                Error::InvalidParameter {
                    name: "lambda",
                    value: 2.0,
                },
                "lambda",
            ),
            (Error::NoFeasibleSchedule, "no feasible schedule"),
            (
                Error::InvalidSchedule(Violation::MissingTask { task: 4 }),
                "task 4 is not scheduled",
            ),
            (
                Error::InvariantViolated {
                    context: "revoke-queued",
                    message: "reservation already cancelled".to_string(),
                },
                "revoke-queued",
            ),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err} should mention {needle}"
            );
        }
    }
}
