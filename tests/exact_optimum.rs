//! An exact-optimum oracle on tiny instances, and every registered solver
//! measured against it: the paper's guarantee tested directly instead of
//! through ratios against our own lower bound.
//!
//! The oracle enumerates (task, block) sequences, each task starting at the
//! latest current finish time over its block.  That search is exact: place
//! the tasks of an optimal schedule in start order with their optimal
//! blocks, and by induction none starts later than there, since every
//! earlier task sharing one of its processors already finished.  Branch and
//! bound prunes it, starting from the best registered makespan.
//!
//! `mrt` is also solved under restricted branch sets, in both search modes.
//! Those subsets claim no guarantee, but their certified bound must still
//! be a lower bound: a guess for which the subset builds no schedule is not
//! a certificate that none exists.

use malleable_core::prelude::*;
use malleable_core::validate::{check, RunRecord};
use workload::{WorkloadConfig, WorkloadGenerator};

const TOLERANCE: f64 = 1e-9;

/// A placement `(task, first processor, processor count, start)`.
type Placement = (usize, usize, usize, f64);

/// Depth-first branch and bound over (task, block) sequences: `found`
/// holds the best makespan so far, which prunes every partial sequence that
/// reaches it, and the sequence achieving it.
fn search(
    instance: &Instance,
    free: &mut [f64],
    remaining: u32,
    sequence: &mut Vec<Placement>,
    found: &mut (f64, Vec<Placement>),
) {
    let makespan = free.iter().copied().fold(0.0, f64::max);
    // Every completion places the remaining work after the current finish
    // times of its processors.
    let pending = (0..instance.task_count()).filter(|&j| remaining & (1 << j) != 0);
    let work: f64 = pending.clone().map(|j| instance.work(j, 1)).sum();
    if makespan.max((free.iter().sum::<f64>() + work) / free.len() as f64) >= found.0 {
        return;
    }
    if remaining == 0 {
        *found = (makespan, sequence.clone());
        return;
    }
    for task in pending {
        for count in 1..=free.len() {
            for first in 0..=free.len() - count {
                let block = first..first + count;
                let start = free[block.clone()].iter().copied().fold(0.0, f64::max);
                let finish = start + instance.time(task, count);
                if finish >= found.0 {
                    continue;
                }
                let saved = free[block.clone()].to_vec();
                free[block.clone()].fill(finish);
                sequence.push((task, first, count, start));
                search(instance, free, remaining & !(1 << task), sequence, found);
                sequence.pop();
                free[block].copy_from_slice(&saved);
            }
        }
    }
}

/// An optimal schedule of `instance`, given the makespan of a valid one.
fn optimum(instance: &Instance, known: f64) -> Schedule {
    let mut found = (known * (1.0 + TOLERANCE), Vec::new());
    let mut free = vec![0.0; instance.processors()];
    let all = (1 << instance.task_count()) - 1;
    search(instance, &mut free, all, &mut Vec::new(), &mut found);
    let mut schedule = Schedule::new(instance.processors());
    for (task, first, count, start) in found.1 {
        schedule.push(ScheduledTask {
            task,
            start,
            duration: instance.time(task, count),
            processors: ProcessorRange::new(first, count),
        });
    }
    schedule
}

/// The branch subsets of the ablation, which claim no guarantee.
fn restricted_branch_sets() -> [(&'static str, BranchSet); 3] {
    let none = BranchSet {
        two_shelf: false,
        canonical_list: false,
        malleable_list: false,
        level_packing: false,
    };
    [
        ("two-shelf only", BranchSet::two_shelf_only()),
        ("lists only", BranchSet::lists_only()),
        (
            "level packing only",
            BranchSet {
                level_packing: true,
                ..none
            },
        ),
    ]
}

#[test]
fn every_solver_stays_within_its_guarantee_of_the_exact_optimum() {
    let registry = solver::default_registry();
    let mut instances = 0;
    for m in 1..=4usize {
        for n in 1..=5usize {
            for seed in 0..6u64 {
                for config in [
                    WorkloadConfig::mixed(n, m, seed),
                    WorkloadConfig::wide_tasks(n, m, seed),
                    WorkloadConfig::sequential_heavy(n, m, seed),
                ] {
                    let instance = WorkloadGenerator::new(config).generate().unwrap();
                    let request = SolveRequest::new(&instance);
                    let outcomes: Vec<_> = (registry.solvers())
                        .map(|handle| (handle.solve(&request).unwrap(), handle))
                        .collect();
                    let known = (outcomes.iter())
                        .map(|(outcome, _)| outcome.makespan())
                        .fold(f64::INFINITY, f64::min);
                    let oracle = optimum(&instance, known);
                    assert_eq!(check(&RunRecord::offline(&instance, &oracle)), vec![]);
                    let opt = oracle.makespan();
                    let (low, high) = (opt * (1.0 - TOLERANCE), opt * (1.0 + TOLERANCE));
                    for (outcome, handle) in &outcomes {
                        let (makespan, bound) = (outcome.makespan(), outcome.lower_bound);
                        let at = format!("{} on m = {m}, n = {n}, seed {seed}", handle.name());
                        assert!(bound <= high, "{at}: bound {bound} > OPT {opt}");
                        assert!(makespan >= low, "{at}: makespan {makespan} < OPT {opt}");
                        if let Some(rho) = handle.capabilities().guarantee {
                            assert!(makespan <= rho * high, "{at}: {makespan} > {rho} OPT");
                        }
                    }
                    for (label, branches) in restricted_branch_sets() {
                        for mode in [SearchMode::Bisect, SearchMode::Exact] {
                            let request = request.with_branches(branches).with_mode(mode);
                            let outcome = MrtSolver.solve(&request).unwrap();
                            let (makespan, bound) = (outcome.makespan(), outcome.lower_bound);
                            let at = format!(
                                "mrt, {label}, {} on m = {m}, n = {n}, seed {seed}",
                                mode.name()
                            );
                            assert!(bound <= high, "{at}: bound {bound} > OPT {opt}");
                            assert!(makespan >= low, "{at}: makespan {makespan} < OPT {opt}");
                        }
                    }
                    instances += 1;
                }
            }
        }
    }
    assert_eq!(instances, 360);
}
