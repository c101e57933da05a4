//! Schedulers for precedence-constrained malleable tasks.

use crate::graph::PrecedenceInstance;
use malleable_core::prelude::*;
use malleable_core::Result;
use packing::timeline::{ProcessorTimeline, TieBreak};

/// Level-by-level scheduling: every precedence level is an independent
/// malleable instance and is scheduled with the paper's √3 algorithm (the
/// `mrt` solver with its default request); levels are executed one after the
/// other.
///
/// Inside each level the guarantee of Theorem 3 applies; across levels the
/// concatenation can lose parallelism (a level must fully finish before the
/// next starts), which is the price of reusing the independent-task result
/// unchanged.  The CPA scheduler below trades the per-level guarantee for
/// overlap across levels.
#[derive(Debug, Clone, Copy, Default)]
pub struct LevelScheduler;

impl LevelScheduler {
    /// Schedule the instance level by level.
    pub fn schedule(&self, instance: &PrecedenceInstance) -> Result<Schedule> {
        let m = instance.processors;
        let mut combined = Schedule::new(m);
        let mut offset = 0.0f64;
        for level in instance.graph.levels() {
            // Build the independent sub-instance of this level.
            let tasks: Vec<MalleableTask> = level
                .iter()
                .map(|&id| instance.graph.tasks()[id].clone())
                .collect();
            let sub_instance = Instance::new(tasks, m)?;
            let result = MrtSolver.solve(&SolveRequest::new(&sub_instance))?;
            for entry in result.schedule.entries() {
                combined.push(ScheduledTask {
                    task: level[entry.task],
                    start: entry.start + offset,
                    duration: entry.duration,
                    processors: entry.processors,
                });
            }
            offset += result.schedule.makespan();
        }
        Ok(combined)
    }
}

/// Critical-Path-and-Area allotment plus precedence-aware list scheduling.
///
/// The allotment phase grants processors to the tasks of the current critical
/// path while the critical-path bound exceeds the area bound — the discrete
/// analogue of the Prasanna–Musicus balance the paper's conclusion points to.
/// The scheduling phase is a contiguous list schedule by decreasing bottom
/// level that starts every task as early as its predecessors and the machine
/// allow.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpaScheduler {
    /// Upper bound on the number of allotment-growing iterations, as a safety
    /// valve (the natural bound `n·m` is used when `None`).
    pub max_iterations: Option<usize>,
}

impl CpaScheduler {
    /// Compute the CPA allotment.
    pub fn allotment(&self, instance: &PrecedenceInstance) -> Vec<usize> {
        let graph = &instance.graph;
        let m = instance.processors;
        let n = graph.task_count();
        let mut allotment = vec![1usize; n];
        let budget = self
            .max_iterations
            .unwrap_or_else(|| n.saturating_mul(m).max(16));

        for _ in 0..budget {
            let (cp_length, cp_tasks) = critical_path(instance, &allotment);
            let area: f64 = (0..n)
                .map(|t| graph.tasks()[t].work(allotment[t]))
                .sum::<f64>()
                / m as f64;
            if cp_length <= area {
                break;
            }
            // Grow the critical-path task with the best time gain per extra
            // processor (ties broken towards the longest task).
            let mut best: Option<(usize, f64)> = None;
            for &t in &cp_tasks {
                let p = allotment[t];
                if p >= m.min(graph.tasks()[t].profile.max_processors()) {
                    continue;
                }
                let gain = graph.tasks()[t].time(p) - graph.tasks()[t].time(p + 1);
                let gain_per_proc = gain / (p as f64 + 1.0);
                match best {
                    Some((_, g)) if g >= gain_per_proc => {}
                    _ => best = Some((t, gain_per_proc)),
                }
            }
            match best {
                Some((t, gain)) if gain > 1e-12 => allotment[t] += 1,
                _ => break, // the critical path cannot be shortened any further
            }
        }
        allotment
    }

    /// Schedule the instance: CPA allotment + precedence-aware list schedule.
    pub fn schedule(&self, instance: &PrecedenceInstance) -> Result<Schedule> {
        let allotment = self.allotment(instance);
        list_schedule_with_precedence(instance, &allotment)
    }
}

/// Critical path length under a given allotment, together with the tasks on
/// (one of) the critical paths.
fn critical_path(instance: &PrecedenceInstance, allotment: &[usize]) -> (f64, Vec<TaskId>) {
    let graph = &instance.graph;
    let order = graph
        .topological_order()
        .expect("validated graphs are acyclic");
    let n = graph.task_count();
    let mut finish = vec![0.0f64; n];
    let mut critical_pred: Vec<Option<TaskId>> = vec![None; n];
    for &v in &order {
        let mut ready = 0.0f64;
        for &p in graph.predecessors(v) {
            if finish[p] > ready {
                ready = finish[p];
                critical_pred[v] = Some(p);
            }
        }
        finish[v] = ready + graph.tasks()[v].time(allotment[v]);
    }
    let (last, &length) = finish
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .expect("non-empty graph");
    let mut path = vec![last];
    let mut cursor = last;
    while let Some(p) = critical_pred[cursor] {
        path.push(p);
        cursor = p;
    }
    path.reverse();
    (length, path)
}

/// Contiguous list scheduling of a fixed allotment under precedence
/// constraints: tasks are considered by decreasing bottom level among the
/// ready ones, and each starts at the earliest time compatible with its
/// predecessors and with a contiguous block of free processors.
pub fn list_schedule_with_precedence(
    instance: &PrecedenceInstance,
    allotment: &[usize],
) -> Result<Schedule> {
    let graph = &instance.graph;
    let m = instance.processors;
    let n = graph.task_count();
    assert_eq!(allotment.len(), n, "one processor count per task");

    // Bottom levels under the given allotment (longest path to a sink,
    // including the task itself).
    let order = graph
        .topological_order()
        .expect("validated graphs are acyclic");
    let mut bottom = vec![0.0f64; n];
    for &v in order.iter().rev() {
        let below = graph
            .successors(v)
            .iter()
            .map(|&s| bottom[s])
            .fold(0.0, f64::max);
        bottom[v] = below + graph.tasks()[v].time(allotment[v]);
    }

    let mut timeline = ProcessorTimeline::new(m);
    let mut schedule = Schedule::new(m);
    let mut finish = vec![f64::INFINITY; n];
    let mut scheduled = vec![false; n];

    for _ in 0..n {
        // Ready tasks: unscheduled, all predecessors scheduled.
        let candidate = (0..n)
            .filter(|&t| !scheduled[t])
            .filter(|&t| graph.predecessors(t).iter().all(|&p| scheduled[p]))
            .max_by(|&a, &b| bottom[a].partial_cmp(&bottom[b]).unwrap())
            .expect("an acyclic graph always has a ready task");
        let p = allotment[candidate]
            .min(m)
            .min(graph.tasks()[candidate].profile.max_processors())
            .max(1);
        let duration = graph.tasks()[candidate].time(p);
        let ready = graph
            .predecessors(candidate)
            .iter()
            .map(|&q| finish[q])
            .fold(0.0, f64::max);
        let window = timeline.earliest_window(p, TieBreak::PaperConvention);
        let start = window.start.max(ready);
        timeline.commit(window.first, p, start, duration);
        finish[candidate] = start + duration;
        scheduled[candidate] = true;
        schedule.push(ScheduledTask {
            task: candidate,
            start,
            duration,
            processors: ProcessorRange::new(window.first, p),
        });
    }

    Ok(schedule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use crate::graph::TaskGraph;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn linear_task(work: f64, m: usize) -> MalleableTask {
        MalleableTask::new(SpeedupProfile::linear(work, m).unwrap())
    }

    fn amdahl_task(work: f64, alpha: f64, m: usize) -> MalleableTask {
        MalleableTask::new(
            SpeedupProfile::from_fn(m, |p| work * (alpha + (1.0 - alpha) / p as f64)).unwrap(),
        )
    }

    fn random_layered_instance(
        seed: u64,
        layers: usize,
        width: usize,
        m: usize,
    ) -> PrecedenceInstance {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tasks = Vec::new();
        for _ in 0..layers * width {
            let work: f64 = rng.gen_range(0.5..4.0);
            let alpha: f64 = rng.gen_range(0.05..0.5);
            tasks.push(amdahl_task(work, alpha, m));
        }
        let mut edges = Vec::new();
        for layer in 1..layers {
            for i in 0..width {
                let dst = layer * width + i;
                // Every task depends on one or two tasks of the previous layer.
                let src = (layer - 1) * width + rng.gen_range(0..width);
                edges.push((src, dst));
                if rng.gen_bool(0.5) {
                    let src2 = (layer - 1) * width + rng.gen_range(0..width);
                    if src2 != src {
                        edges.push((src2, dst));
                    }
                }
            }
        }
        let graph = TaskGraph::new(tasks, edges).unwrap();
        PrecedenceInstance::new(graph, m).unwrap()
    }

    #[test]
    fn level_scheduler_respects_precedence_on_fork_join() {
        let graph = TaskGraph::fork_join(vec![
            linear_task(2.0, 8),
            linear_task(6.0, 8),
            linear_task(6.0, 8),
            linear_task(2.0, 8),
        ])
        .unwrap();
        let instance = PrecedenceInstance::new(graph, 8).unwrap();
        let schedule = LevelScheduler.schedule(&instance).unwrap();
        assert!(instance.validate(&schedule).is_ok());
        assert!(schedule.makespan() >= bounds::lower_bound(&instance) - 1e-9);
    }

    #[test]
    fn cpa_scheduler_respects_precedence_on_fork_join() {
        let graph = TaskGraph::fork_join(vec![
            linear_task(2.0, 8),
            linear_task(6.0, 8),
            linear_task(6.0, 8),
            linear_task(2.0, 8),
        ])
        .unwrap();
        let instance = PrecedenceInstance::new(graph, 8).unwrap();
        let schedule = CpaScheduler::default().schedule(&instance).unwrap();
        assert!(instance.validate(&schedule).is_ok());
    }

    #[test]
    fn chain_of_linear_tasks_is_scheduled_near_optimally() {
        // A chain of perfectly parallel tasks: the optimum runs every task on
        // the whole machine, reaching the critical-path bound.
        let graph = TaskGraph::chain(vec![
            linear_task(8.0, 8),
            linear_task(8.0, 8),
            linear_task(8.0, 8),
        ])
        .unwrap();
        let instance = PrecedenceInstance::new(graph, 8).unwrap();
        let lb = bounds::lower_bound(&instance);
        for schedule in [
            LevelScheduler.schedule(&instance).unwrap(),
            CpaScheduler::default().schedule(&instance).unwrap(),
        ] {
            assert!(instance.validate(&schedule).is_ok());
            assert!(schedule.makespan() <= 1.8 * lb + 1e-9);
        }
    }

    #[test]
    fn cpa_allotment_balances_critical_path_and_area() {
        // One heavy chain plus many independent small tasks: CPA must give the
        // chain more than one processor.
        let mut tasks = vec![linear_task(12.0, 8), linear_task(12.0, 8)];
        for _ in 0..10 {
            tasks.push(MalleableTask::new(SpeedupProfile::sequential(1.0).unwrap()));
        }
        let edges = vec![(0, 1)];
        let graph = TaskGraph::new(tasks, edges).unwrap();
        let instance = PrecedenceInstance::new(graph, 8).unwrap();
        let allotment = CpaScheduler::default().allotment(&instance);
        assert!(allotment[0] > 1);
        assert!(allotment[1] > 1);
        assert!(allotment[2..].iter().all(|&p| p == 1));
    }

    #[test]
    fn independent_graphs_match_the_flat_scheduler_quality() {
        let tasks: Vec<MalleableTask> = (0..10).map(|i| linear_task(1.0 + i as f64, 8)).collect();
        let graph = TaskGraph::independent(tasks).unwrap();
        let instance = PrecedenceInstance::new(graph, 8).unwrap();
        let level = LevelScheduler.schedule(&instance).unwrap();
        let flat = MrtSolver
            .solve(&SolveRequest::new(&instance.independent().unwrap()))
            .unwrap();
        assert!(instance.validate(&level).is_ok());
        // With a single level the level scheduler *is* the flat scheduler.
        assert!((level.makespan() - flat.schedule.makespan()).abs() < 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// Both schedulers always produce precedence- and machine-valid
        /// schedules on random layered DAGs, with makespans between the lower
        /// bound and the fully serial upper bound.
        #[test]
        fn random_layered_dags_are_scheduled_validly(
            seed in 0u64..200,
            layers in 1usize..5,
            width in 1usize..5,
            m in 2usize..10,
        ) {
            let instance = random_layered_instance(seed, layers, width, m);
            let lb = bounds::lower_bound(&instance);
            let serial: f64 = instance
                .graph
                .tasks()
                .iter()
                .map(|t| t.profile.sequential_time())
                .sum();
            for schedule in [
                LevelScheduler.schedule(&instance).unwrap(),
                CpaScheduler::default().schedule(&instance).unwrap(),
            ] {
                prop_assert!(instance.validate(&schedule).is_ok());
                prop_assert!(schedule.makespan() >= lb - 1e-9);
                prop_assert!(schedule.makespan() <= serial + 1e-9);
            }
        }
    }
}
