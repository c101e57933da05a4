//! Instance serialisation round-trips and reproducibility across the JSON
//! boundary.

use malleable_core::prelude::*;
use workload::{
    instance_from_json, instance_to_json, instances_approx_equal, WorkloadConfig, WorkloadGenerator,
};

#[test]
fn json_round_trip_preserves_scheduling_results() {
    for seed in 0..5u64 {
        let original = WorkloadGenerator::new(WorkloadConfig::mixed(20, 8, seed))
            .generate()
            .unwrap();
        let json = instance_to_json(&original);
        let parsed = instance_from_json(&json).unwrap();
        assert!(instances_approx_equal(&original, &parsed, 1e-12));

        let a = MrtSolver.solve(&SolveRequest::new(&original)).unwrap();
        let b = MrtSolver.solve(&SolveRequest::new(&parsed)).unwrap();
        let rel = (a.schedule.makespan() - b.schedule.makespan()).abs() / a.schedule.makespan();
        assert!(rel < 1e-9);
        assert_eq!(a.schedule.entries().len(), b.schedule.entries().len());
    }
}

#[test]
fn json_documents_are_human_readable() {
    let instance = Instance::new(
        vec![MalleableTask::named(
            "solver",
            SpeedupProfile::new(vec![4.0, 2.5, 2.0]).unwrap(),
        )],
        4,
    )
    .unwrap();
    let json = instance_to_json(&instance);
    assert!(json.contains("\"solver\""));
    assert!(json.contains("\"processors\": 4"));
}

#[test]
fn invalid_documents_are_rejected_with_errors() {
    assert!(instance_from_json("").is_err());
    assert!(instance_from_json("{}").is_err());
    let negative_time = r#"{ "processors": 2, "tasks": [{ "name": null, "times": [-1.0] }] }"#;
    assert!(instance_from_json(negative_time).is_err());
    let zero_processors = r#"{ "processors": 0, "tasks": [{ "name": null, "times": [1.0] }] }"#;
    assert!(instance_from_json(zero_processors).is_err());
}
