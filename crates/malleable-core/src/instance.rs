//! Problem instances: a set of malleable tasks plus a machine size.

use crate::error::{Error, Result};
use crate::task::{MalleableTask, SpeedupProfile, TaskId};

/// An instance of the malleable scheduling problem: `n` independent monotone
/// malleable tasks to be scheduled on `m` identical processors.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Instance {
    tasks: Vec<MalleableTask>,
    processors: usize,
}

/// What [`Instance::new`] did to its inputs while normalising them —
/// returned by [`Instance::new_with_summary`] so callers can surface the
/// silent adjustments (the CLI warns when profiles were truncated; tests
/// assert the count is zero for generated workloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InstanceSummary {
    /// Number of tasks `n` in the constructed instance.
    pub tasks: usize,
    /// Number of processors `m` of the constructed instance.
    pub processors: usize,
    /// How many speed-up profiles were longer than `m` and therefore
    /// truncated to the machine size.
    pub truncated_profiles: usize,
}

impl Instance {
    /// Build an instance, validating that it has at least one task and one
    /// processor.
    ///
    /// **Truncation behaviour:** profiles longer than `processors` are
    /// silently truncated — a task can never be allotted more processors than
    /// the machine has, and under the monotone assumption the dropped entries
    /// can only describe slower-or-equal configurations.  Use
    /// [`Instance::new_with_summary`] when the caller needs to know whether
    /// (and how often) this happened.
    pub fn new(tasks: Vec<MalleableTask>, processors: usize) -> Result<Self> {
        Self::new_with_summary(tasks, processors).map(|(instance, _)| instance)
    }

    /// Same as [`Instance::new`], additionally reporting what was normalised:
    /// the returned [`InstanceSummary`] carries the number of profiles that
    /// were longer than `processors` and had to be truncated.
    pub fn new_with_summary(
        tasks: Vec<MalleableTask>,
        processors: usize,
    ) -> Result<(Self, InstanceSummary)> {
        if processors == 0 {
            return Err(Error::NoProcessors);
        }
        if tasks.is_empty() {
            return Err(Error::EmptyInstance);
        }
        let mut truncated_profiles = 0usize;
        let tasks: Vec<MalleableTask> = tasks
            .into_iter()
            .map(|mut t| {
                // A profile that fits is moved, not copied.
                if t.profile.max_processors() > processors {
                    truncated_profiles += 1;
                    t.profile = t.profile.truncated(processors);
                }
                t
            })
            .collect();
        let summary = InstanceSummary {
            tasks: tasks.len(),
            processors,
            truncated_profiles,
        };
        Ok((Instance { tasks, processors }, summary))
    }

    /// Convenience constructor from bare profiles.
    pub fn from_profiles(profiles: Vec<SpeedupProfile>, processors: usize) -> Result<Self> {
        Self::new(
            profiles.into_iter().map(MalleableTask::new).collect(),
            processors,
        )
    }

    /// Number of tasks `n`.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Number of processors `m`.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Access a task by identifier.
    pub fn task(&self, id: TaskId) -> &MalleableTask {
        &self.tasks[id]
    }

    /// Checked access to a task.
    pub fn try_task(&self, id: TaskId) -> Result<&MalleableTask> {
        self.tasks.get(id).ok_or(Error::UnknownTask { task: id })
    }

    /// Iterate over `(id, task)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &MalleableTask)> {
        self.tasks.iter().enumerate()
    }

    /// All tasks as a slice.
    pub fn tasks(&self) -> &[MalleableTask] {
        &self.tasks
    }

    /// The tasks, handed back with their buffers: a caller that rebuilds
    /// an instance often (the online epoch re-planner) refills them in
    /// place for the next [`Instance::new`].
    pub fn into_tasks(self) -> Vec<MalleableTask> {
        self.tasks
    }

    /// Execution time of task `id` on `p` processors.
    pub fn time(&self, id: TaskId, p: usize) -> f64 {
        self.tasks[id].time(p)
    }

    /// Work of task `id` on `p` processors.
    pub fn work(&self, id: TaskId, p: usize) -> f64 {
        self.tasks[id].work(p)
    }

    /// Total sequential work `Σ_j t_j(1)` — the minimal possible total work
    /// under the monotone assumption.
    pub fn total_sequential_work(&self) -> f64 {
        self.tasks.iter().map(|t| t.profile.min_work()).sum()
    }

    /// Largest minimum execution time over all tasks
    /// (`max_j t_j(min(m, p_max))`): no schedule can beat it.
    pub fn max_min_time(&self) -> f64 {
        self.tasks
            .iter()
            .map(|t| t.profile.min_time())
            .fold(0.0, f64::max)
    }

    /// Longest sequential time over all tasks.
    pub fn max_sequential_time(&self) -> f64 {
        self.tasks
            .iter()
            .map(|t| t.profile.sequential_time())
            .fold(0.0, f64::max)
    }

    /// The canonical allotment for deadline `d`: for every task the minimal
    /// number of processors finishing within `d`, or an error naming the first
    /// task for which the deadline is unreachable.
    pub fn canonical_allotment(&self, deadline: f64) -> Result<Vec<usize>> {
        let mut allotment = Vec::with_capacity(self.tasks.len());
        for (id, task) in self.iter() {
            match task.canonical_processors(deadline) {
                Some(p) => allotment.push(p),
                None => return Err(Error::DeadlineUnreachable { task: id, deadline }),
            }
        }
        Ok(allotment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_instance() -> Instance {
        let profiles = vec![
            SpeedupProfile::new(vec![4.0, 2.0, 1.5]).unwrap(),
            SpeedupProfile::new(vec![3.0, 1.6]).unwrap(),
            SpeedupProfile::sequential(0.5).unwrap(),
        ];
        Instance::from_profiles(profiles, 4).unwrap()
    }

    #[test]
    fn construction_validates_inputs() {
        assert_eq!(
            Instance::from_profiles(vec![], 4).unwrap_err(),
            Error::EmptyInstance
        );
        assert_eq!(
            Instance::from_profiles(vec![SpeedupProfile::sequential(1.0).unwrap()], 0).unwrap_err(),
            Error::NoProcessors
        );
    }

    #[test]
    fn profiles_are_truncated_to_machine_size() {
        let p = SpeedupProfile::new(vec![8.0, 4.0, 3.0, 2.5, 2.2]).unwrap();
        let inst = Instance::from_profiles(vec![p], 3).unwrap();
        assert_eq!(inst.task(0).profile.max_processors(), 3);
        assert_eq!(inst.time(0, 3), 3.0);
        // Beyond the machine size the time stays flat.
        assert_eq!(inst.time(0, 5), 3.0);
    }

    #[test]
    fn construction_summary_counts_truncated_profiles() {
        let tasks: Vec<MalleableTask> = vec![
            SpeedupProfile::new(vec![8.0, 4.0, 3.0, 2.5, 2.2]).unwrap(), // truncated
            SpeedupProfile::new(vec![3.0, 1.6]).unwrap(),                // fits
            SpeedupProfile::linear(6.0, 5).unwrap(),                     // truncated
        ]
        .into_iter()
        .map(MalleableTask::new)
        .collect();
        let (inst, summary) = Instance::new_with_summary(tasks, 3).unwrap();
        assert_eq!(
            summary,
            InstanceSummary {
                tasks: 3,
                processors: 3,
                truncated_profiles: 2,
            }
        );
        assert_eq!(inst.task(0).profile.max_processors(), 3);

        // Nothing to truncate → a zero count.
        let (_, summary) = Instance::new_with_summary(
            vec![MalleableTask::new(SpeedupProfile::sequential(1.0).unwrap())],
            4,
        )
        .unwrap();
        assert_eq!(summary.truncated_profiles, 0);
    }

    #[test]
    fn aggregate_statistics() {
        let inst = simple_instance();
        assert_eq!(inst.task_count(), 3);
        assert_eq!(inst.processors(), 4);
        assert!((inst.total_sequential_work() - 7.5).abs() < 1e-12);
        assert!((inst.max_min_time() - 1.6).abs() < 1e-12);
        assert!((inst.max_sequential_time() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn canonical_allotment_per_deadline() {
        let inst = simple_instance();
        assert_eq!(inst.canonical_allotment(4.0).unwrap(), vec![1, 1, 1]);
        assert_eq!(inst.canonical_allotment(2.0).unwrap(), vec![2, 2, 1]);
        assert_eq!(inst.canonical_allotment(1.6).unwrap(), vec![3, 2, 1]);
        let err = inst.canonical_allotment(1.0).unwrap_err();
        assert!(matches!(err, Error::DeadlineUnreachable { .. }));
    }

    #[test]
    fn unknown_task_is_reported() {
        let inst = simple_instance();
        assert!(inst.try_task(2).is_ok());
        assert_eq!(
            inst.try_task(3).unwrap_err(),
            Error::UnknownTask { task: 3 }
        );
    }
}
