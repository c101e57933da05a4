//! Plain-text Gantt rendering of a schedule.
//!
//! Used by the examples to visualise the two-shelf structure of §4 and the
//! two-level structure of the list schedules without any plotting dependency.

use malleable_core::{Instance, Schedule};

/// Render a schedule as one text row per processor.
///
/// The horizon `[0, makespan]` is discretised into `columns` cells; each cell
/// shows the (single-character) label of the task occupying that processor at
/// that time, or `.` when idle.  Task labels cycle through `0-9a-zA-Z`.
pub fn render_gantt(instance: &Instance, schedule: &Schedule, columns: usize) -> String {
    let columns = columns.max(1);
    let m = instance.processors();
    let makespan = schedule.makespan().max(1e-12);
    let mut grid = vec![vec!['.'; columns]; m];

    for entry in schedule.entries() {
        let label = task_label(entry.task);
        let start_col = ((entry.start / makespan) * columns as f64).floor() as usize;
        let end_col = (((entry.finish()) / makespan) * columns as f64).ceil() as usize;
        let end_col = end_col.clamp(start_col + 1, columns);
        for row in &mut grid[entry.processors.first..entry.processors.end().min(m)] {
            for cell in row.iter_mut().take(end_col).skip(start_col) {
                *cell = label;
            }
        }
    }

    let mut out = String::new();
    out.push_str(&format!(
        "makespan = {:.4}, processors = {}, tasks = {}\n",
        schedule.makespan(),
        m,
        schedule.len()
    ));
    for (p, row) in grid.iter().enumerate() {
        out.push_str(&format!("P{:<3} |", p));
        out.extend(row.iter());
        out.push('\n');
    }
    out
}

fn task_label(task: usize) -> char {
    const ALPHABET: &[u8] = b"0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
    ALPHABET[task % ALPHABET.len()] as char
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleable_core::prelude::*;

    #[test]
    fn gantt_contains_one_row_per_processor() {
        let inst = Instance::from_profiles(
            vec![
                SpeedupProfile::linear(2.0, 2).unwrap(),
                SpeedupProfile::sequential(0.5).unwrap(),
            ],
            3,
        )
        .unwrap();
        let result = MrtSolver.solve(&SolveRequest::new(&inst)).unwrap();
        let text = render_gantt(&inst, &result.schedule, 40);
        let rows: Vec<&str> = text.lines().collect();
        assert_eq!(rows.len(), 4); // header + 3 processors
        assert!(rows[0].contains("makespan"));
        assert!(rows[1].starts_with("P0"));
        // The busy cells of task 0 are rendered with its label '0'.
        assert!(text.contains('0'));
    }

    #[test]
    fn labels_cycle_through_alphabet() {
        assert_eq!(task_label(0), '0');
        assert_eq!(task_label(10), 'a');
        assert_eq!(task_label(36), 'A');
        assert_eq!(task_label(62), '0');
    }

    #[test]
    fn empty_columns_are_clamped() {
        let inst =
            Instance::from_profiles(vec![SpeedupProfile::sequential(1.0).unwrap()], 1).unwrap();
        let result = MrtSolver.solve(&SolveRequest::new(&inst)).unwrap();
        let text = render_gantt(&inst, &result.schedule, 0);
        assert!(text.contains("P0"));
    }
}
