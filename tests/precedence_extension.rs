//! Integration tests for the precedence-graph extension: the level-by-level
//! reuse of the paper's √3 scheduler and the CPA heuristic must cooperate
//! with the rest of the workspace (workload profiles, schedule validation).

use malleable_core::prelude::*;
use precedence::{CpaScheduler, LevelScheduler, PrecedenceInstance, TaskGraph};
use workload::SpeedupFamily;

fn amdahl(work: f64, alpha: f64, m: usize) -> MalleableTask {
    MalleableTask::new(SpeedupFamily::Amdahl { alpha }.profile(work, m).unwrap())
}

/// A three-stage pipeline replicated `width` times, joined by a final task —
/// the tree-like structure of the paper's ocean application.
fn pipeline_instance(width: usize, m: usize) -> PrecedenceInstance {
    let mut tasks = Vec::new();
    let mut edges = Vec::new();
    for lane in 0..width {
        let base = lane * 3;
        tasks.push(amdahl(4.0 + lane as f64, 0.1, m)); // stage 1
        tasks.push(amdahl(6.0 + lane as f64, 0.15, m)); // stage 2
        tasks.push(amdahl(2.0, 0.3, m)); // stage 3
        edges.push((base, base + 1));
        edges.push((base + 1, base + 2));
    }
    let sink = tasks.len();
    tasks.push(MalleableTask::new(
        SpeedupFamily::Sequential.profile(1.0, m).unwrap(),
    ));
    for lane in 0..width {
        edges.push((lane * 3 + 2, sink));
    }
    let graph = TaskGraph::new(tasks, edges).unwrap();
    PrecedenceInstance::new(graph, m).unwrap()
}

#[test]
fn pipelines_are_scheduled_validly_by_both_extensions() {
    for width in [1usize, 3, 6] {
        for m in [4usize, 16] {
            let instance = pipeline_instance(width, m);
            let lb = precedence::lower_bound(&instance);
            let level = LevelScheduler.schedule(&instance).unwrap();
            let cpa = CpaScheduler::default().schedule(&instance).unwrap();
            for schedule in [&level, &cpa] {
                // The machine-level checks of the offline record, then the
                // precedence edges.
                instance.validate(schedule).unwrap();
                assert!(schedule.makespan() >= lb - 1e-9);
            }
        }
    }
}

#[test]
fn cpa_overlaps_independent_lanes_better_than_levels_on_unbalanced_pipelines() {
    // With very unbalanced lanes the strict level barrier of the level
    // scheduler wastes time; CPA may overlap lanes.  We only require that CPA
    // is not dramatically worse — both must stay within 3x of the bound.
    let instance = pipeline_instance(5, 16);
    let lb = precedence::lower_bound(&instance);
    let level = LevelScheduler.schedule(&instance).unwrap();
    let cpa = CpaScheduler::default().schedule(&instance).unwrap();
    assert!(level.makespan() <= 3.0 * lb);
    assert!(cpa.makespan() <= 3.0 * lb);
}

#[test]
fn single_chain_reduces_to_sum_of_best_times() {
    let m = 8;
    let tasks: Vec<MalleableTask> = (0..4)
        .map(|i| MalleableTask::new(SpeedupProfile::linear(4.0 + i as f64, m).unwrap()))
        .collect();
    let expected: f64 = tasks.iter().map(|t| t.profile.min_time()).sum();
    let graph = TaskGraph::chain(tasks).unwrap();
    let instance = PrecedenceInstance::new(graph, m).unwrap();
    let cpa = CpaScheduler::default().schedule(&instance).unwrap();
    instance.validate(&cpa).unwrap();
    // CPA grows every chain task to the full machine, reaching the
    // critical-path bound exactly (linear speed-up).
    assert!((cpa.makespan() - expected).abs() < 1e-6);
}

#[test]
fn precedence_instances_reject_invalid_schedules_from_other_instances() {
    let m = 8;
    let a = pipeline_instance(2, m);
    let b = pipeline_instance(3, m);
    let schedule_for_b = LevelScheduler.schedule(&b).unwrap();
    // Scheduling b's tasks cannot validate against a (different task count).
    assert!(a.validate(&schedule_for_b).is_err());
}
