//! Shared helpers for the runnable examples.
//!
//! The example binaries live in the workspace-level `examples/` directory
//! (see the `[[example]]` entries in this crate's manifest); this library only
//! hosts small formatting utilities they share.

use malleable_core::{bounds, Instance, Schedule};

/// Format a one-line comparison row: algorithm name, makespan, ratio to the
/// certified lower bound and utilisation.
pub fn comparison_row(name: &str, instance: &Instance, schedule: &Schedule) -> String {
    let lb = bounds::lower_bound(instance);
    format!(
        "{name:<22} makespan = {:>8.3}   ratio vs LB = {:>5.3}   utilisation = {:>5.1}%",
        schedule.makespan(),
        schedule.makespan() / lb,
        100.0 * schedule.utilization()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleable_core::prelude::*;

    #[test]
    fn comparison_row_mentions_name_and_ratio() {
        let inst =
            Instance::from_profiles(vec![SpeedupProfile::linear(4.0, 4).unwrap()], 4).unwrap();
        let result = MrtSolver.solve(&SolveRequest::new(&inst)).unwrap();
        let row = comparison_row("mrt", &inst, &result.schedule);
        assert!(row.contains("mrt"));
        assert!(row.contains("ratio"));
    }
}
