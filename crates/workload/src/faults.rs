//! Deterministic fault injection for the online engine.
//!
//! Real clusters lose processors, kill tasks, and occasionally watch their
//! planning oracle time out.  This module models all three as a **seeded,
//! pre-drawn [`FaultPlan`]** so a faulty run is exactly reproducible: two
//! plans generated from the same [`FaultConfig`] are identical, and the
//! engine consumes the plan without ever touching an RNG of its own.
//!
//! Three fault classes are covered:
//!
//! * **processor outages** — per-processor crash/repair [`Outage`] intervals
//!   drawn from exponential MTBF/MTTR distributions over a finite horizon.
//!   Processor 0 is never taken down, so the machine always keeps at least
//!   one online processor and every retried task eventually fits;
//! * **task failures** — per-(task, attempt) failure *fractions*: attempt
//!   `a` of task `i` dies after executing `fraction · duration` of its
//!   committed segment, and the work of that segment is lost (the retry
//!   restarts from the remaining fraction at segment start);
//! * **solver faults** — the index of one epoch solve that is forced to
//!   fail, consumed by the `solver` crate's fault-injecting wrapper.
//!
//! Failed attempts are retried under a [`RetryPolicy`] with capped
//! exponential backoff and a max-attempts bound; a task that exhausts its
//! attempts is *abandoned* (accounted, never silently dropped).

use malleable_core::{Error, Result};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

pub use malleable_core::Outage;

/// Retry discipline for failed task attempts: capped exponential backoff
/// with a hard attempts bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Maximum number of attempts per task (first execution included).  A
    /// task whose `max_attempts`-th attempt fails is abandoned.
    pub max_attempts: usize,
    /// Backoff before the first retry, in simulated time units.
    pub base_backoff: f64,
    /// Multiplier applied per additional failure.
    pub multiplier: f64,
    /// Ceiling on any single backoff.
    pub max_backoff: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: 0.5,
            multiplier: 2.0,
            max_backoff: 8.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff before the retry that follows the `failures`-th failure
    /// (1-based): `base · multiplier^(failures−1)`, capped at
    /// `max_backoff`.
    pub fn backoff(&self, failures: usize) -> f64 {
        let exponent = failures.saturating_sub(1) as i32;
        (self.base_backoff * self.multiplier.powi(exponent)).min(self.max_backoff)
    }

    /// Reject non-positive, non-finite or degenerate parameters.
    pub fn validate(&self) -> Result<()> {
        if self.max_attempts == 0 {
            return Err(Error::InvalidParameter {
                name: "max_attempts",
                value: 0.0,
            });
        }
        for (name, value) in [
            ("base_backoff", self.base_backoff),
            ("multiplier", self.multiplier),
            ("max_backoff", self.max_backoff),
        ] {
            if !value.is_finite() || value <= 0.0 {
                return Err(Error::InvalidParameter { name, value });
            }
        }
        Ok(())
    }
}

/// Everything [`FaultPlan::generate`] needs: the machine and trace shape,
/// the fault intensities, and the seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Number of processors of the machine the plan targets.
    pub processors: usize,
    /// Number of tasks of the trace the plan targets.
    pub tasks: usize,
    /// Horizon over which outages are drawn (outages never start past it).
    pub horizon: f64,
    /// Mean time between failures per processor (`None` disables crashes).
    pub mtbf: Option<f64>,
    /// Mean time to repair a crashed processor.
    pub mttr: f64,
    /// Probability that any given attempt of any given task fails.
    pub task_failure_rate: f64,
    /// Rows of the per-(task, attempt) failure table — attempts beyond this
    /// never fail, so it should be at least [`RetryPolicy::max_attempts`].
    pub max_attempts: usize,
    /// Force the `n`-th epoch solve (0-based) to fault.
    pub solver_fault_epoch: Option<usize>,
    /// RNG seed; equal configs generate equal plans.
    pub seed: u64,
}

impl FaultConfig {
    /// A quiet config (no crashes, no task failures, no solver fault) — the
    /// builder methods below switch individual fault classes on.
    pub fn new(processors: usize, tasks: usize, horizon: f64, seed: u64) -> Self {
        FaultConfig {
            processors,
            tasks,
            horizon,
            mtbf: None,
            mttr: 1.0,
            task_failure_rate: 0.0,
            max_attempts: RetryPolicy::default().max_attempts,
            solver_fault_epoch: None,
            seed,
        }
    }

    /// Enable processor crashes with the given MTBF/MTTR means.
    pub fn with_crashes(mut self, mtbf: f64, mttr: f64) -> Self {
        self.mtbf = Some(mtbf);
        self.mttr = mttr;
        self
    }

    /// Enable per-attempt task failures with the given probability.
    pub fn with_task_failures(mut self, rate: f64, max_attempts: usize) -> Self {
        self.task_failure_rate = rate;
        self.max_attempts = max_attempts;
        self
    }

    /// Force the `epoch`-th solve (0-based) to fault.
    pub fn with_solver_fault(mut self, epoch: usize) -> Self {
        self.solver_fault_epoch = Some(epoch);
        self
    }

    fn validate(&self) -> Result<()> {
        if self.processors == 0 {
            return Err(Error::NoProcessors);
        }
        if !self.horizon.is_finite() || self.horizon < 0.0 {
            return Err(Error::InvalidParameter {
                name: "fault_horizon",
                value: self.horizon,
            });
        }
        if let Some(mtbf) = self.mtbf {
            if !mtbf.is_finite() || mtbf <= 0.0 {
                return Err(Error::InvalidParameter {
                    name: "mtbf",
                    value: mtbf,
                });
            }
            if !self.mttr.is_finite() || self.mttr <= 0.0 {
                return Err(Error::InvalidParameter {
                    name: "mttr",
                    value: self.mttr,
                });
            }
        }
        if !self.task_failure_rate.is_finite() || !(0.0..=1.0).contains(&self.task_failure_rate) {
            return Err(Error::InvalidParameter {
                name: "task_failure_rate",
                value: self.task_failure_rate,
            });
        }
        Ok(())
    }
}

/// A fully pre-drawn fault scenario: outage intervals, per-(task, attempt)
/// failure fractions, and an optional forced solver fault.  Deterministic —
/// the engine replays it without randomness.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    processors: usize,
    horizon: f64,
    outages: Vec<Outage>,
    /// `failures[task][attempt]` — fraction of the committed segment after
    /// which the attempt dies, or `None` when the attempt succeeds.
    failures: Vec<Vec<Option<f64>>>,
    solver_fault_epoch: Option<usize>,
}

/// Exponential sample with the given mean: `-mean · ln(1 − u)`, `u ∈ [0, 1)`.
fn exponential(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen();
    -mean * (1.0f64 - u).ln()
}

impl FaultPlan {
    /// An empty plan (no faults) for `processors` over `horizon` — the
    /// hand-authoring entry point for tests and scenarios; combine with
    /// [`FaultPlan::with_outage`] / [`FaultPlan::with_task_failure`] /
    /// [`FaultPlan::with_solver_fault`].
    pub fn empty(processors: usize, horizon: f64) -> Self {
        FaultPlan {
            processors,
            horizon,
            outages: Vec::new(),
            failures: Vec::new(),
            solver_fault_epoch: None,
        }
    }

    /// Add one explicit outage interval.
    pub fn with_outage(mut self, processor: usize, start: f64, end: f64) -> Self {
        assert!(processor < self.processors, "outage on unknown processor");
        assert!(
            start >= 0.0 && end > start,
            "outage interval must be forward"
        );
        self.outages.push(Outage {
            processor,
            start,
            end,
        });
        self.outages.sort_by(|a, b| {
            a.start
                .total_cmp(&b.start)
                .then(a.processor.cmp(&b.processor))
        });
        self
    }

    /// Make attempt `attempt` (0-based) of `task` fail after `fraction` of
    /// its committed segment.
    pub fn with_task_failure(mut self, task: usize, attempt: usize, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction < 1.0,
            "failure fraction must be strictly inside (0, 1)"
        );
        if self.failures.len() <= task {
            self.failures.resize(task + 1, Vec::new());
        }
        if self.failures[task].len() <= attempt {
            self.failures[task].resize(attempt + 1, None);
        }
        self.failures[task][attempt] = Some(fraction);
        self
    }

    /// Force the `epoch`-th solve (0-based) to fault.
    pub fn with_solver_fault(mut self, epoch: usize) -> Self {
        self.solver_fault_epoch = Some(epoch);
        self
    }

    /// Draw a plan from `config`.  Deterministic in the config (seed
    /// included); draws are consumed in a fixed order so changing one
    /// intensity never reshuffles the other fault classes.
    pub fn generate(config: &FaultConfig) -> Result<Self> {
        config.validate()?;
        let mut plan = FaultPlan::empty(config.processors, config.horizon);
        plan.solver_fault_epoch = config.solver_fault_epoch;

        // Outages: independent alternating up/down renewal process per
        // processor, each from its own sub-seeded RNG.  Processor 0 is
        // immortal so the machine never drops to zero capacity.
        if let Some(mtbf) = config.mtbf {
            for processor in 1..config.processors {
                let mut rng = StdRng::seed_from_u64(
                    config.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(processor as u64 + 1)),
                );
                let mut clock = 0.0f64;
                loop {
                    clock += exponential(&mut rng, mtbf);
                    if clock >= config.horizon {
                        break;
                    }
                    let down_for = exponential(&mut rng, config.mttr).max(1e-3);
                    plan.outages.push(Outage {
                        processor,
                        start: clock,
                        end: clock + down_for,
                    });
                    clock += down_for;
                }
            }
            plan.outages.sort_by(|a, b| {
                a.start
                    .total_cmp(&b.start)
                    .then(a.processor.cmp(&b.processor))
            });
        }

        // Per-(task, attempt) failure table.
        if config.task_failure_rate > 0.0 {
            let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(0x5bf0_3635));
            plan.failures = (0..config.tasks)
                .map(|_| {
                    (0..config.max_attempts.max(1))
                        .map(|_| {
                            if rng.gen_bool(config.task_failure_rate) {
                                // Keep the death strictly inside the segment.
                                Some(0.05 + 0.9 * rng.gen::<f64>())
                            } else {
                                None
                            }
                        })
                        .collect()
                })
                .collect();
        }
        Ok(plan)
    }

    /// Number of processors the plan targets.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Outage-generation horizon.
    pub fn horizon(&self) -> f64 {
        self.horizon
    }

    /// All outage intervals, sorted by start time.
    pub fn outages(&self) -> &[Outage] {
        &self.outages
    }

    /// The failure fraction of attempt `attempt` (0-based) of `task`, or
    /// `None` when that attempt runs to completion.
    pub fn failure_fraction(&self, task: usize, attempt: usize) -> Option<f64> {
        self.failures
            .get(task)
            .and_then(|row| row.get(attempt).copied().flatten())
    }

    /// The solve index (0-based) forced to fault, if any.
    pub fn solver_fault_epoch(&self) -> Option<usize> {
        self.solver_fault_epoch
    }

    /// Whether the plan injects anything at all.
    pub fn is_quiet(&self) -> bool {
        self.outages.is_empty()
            && self.solver_fault_epoch.is_none()
            && self
                .failures
                .iter()
                .all(|row| row.iter().all(Option::is_none))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chaotic_config() -> FaultConfig {
        FaultConfig::new(8, 32, 50.0, 42)
            .with_crashes(20.0, 3.0)
            .with_task_failures(0.3, 4)
            .with_solver_fault(2)
    }

    #[test]
    fn generation_is_deterministic_in_the_config() {
        let a = FaultPlan::generate(&chaotic_config()).unwrap();
        let b = FaultPlan::generate(&chaotic_config()).unwrap();
        assert_eq!(a, b);
        assert!(!a.is_quiet());
    }

    #[test]
    fn processor_zero_is_immortal_and_outages_are_sorted_and_forward() {
        let plan = FaultPlan::generate(&chaotic_config()).unwrap();
        assert!(!plan.outages().is_empty(), "MTBF 20 over 50×7 processors");
        let mut last_start = 0.0f64;
        for outage in plan.outages() {
            assert_ne!(outage.processor, 0, "processor 0 never crashes");
            assert!(outage.start >= last_start);
            assert!(outage.end > outage.start);
            assert!(outage.start < plan.horizon());
            last_start = outage.start;
        }
        // Per-processor outages never overlap each other.
        for p in 1..8 {
            let mut prior_end = 0.0f64;
            for outage in plan.outages().iter().filter(|o| o.processor == p) {
                assert!(outage.start >= prior_end - 1e-12);
                prior_end = outage.end;
            }
        }
    }

    #[test]
    fn failure_fractions_are_strictly_interior() {
        let plan = FaultPlan::generate(&chaotic_config()).unwrap();
        let mut injected = 0usize;
        for task in 0..32 {
            for attempt in 0..4 {
                if let Some(f) = plan.failure_fraction(task, attempt) {
                    assert!(f > 0.0 && f < 1.0);
                    injected += 1;
                }
            }
        }
        assert!(injected > 0, "rate 0.3 over 128 cells");
        // Attempts beyond the table always succeed.
        assert_eq!(plan.failure_fraction(0, 99), None);
        assert_eq!(plan.failure_fraction(999, 0), None);
    }

    #[test]
    fn hand_authored_plans_compose() {
        let plan = FaultPlan::empty(2, 10.0)
            .with_outage(1, 2.0, 5.0)
            .with_task_failure(0, 0, 0.5)
            .with_solver_fault(1);
        assert_eq!(plan.outages().len(), 1);
        assert_eq!(plan.failure_fraction(0, 0), Some(0.5));
        assert_eq!(plan.failure_fraction(0, 1), None);
        assert_eq!(plan.solver_fault_epoch(), Some(1));
        assert!(FaultPlan::empty(2, 10.0).is_quiet());
    }

    #[test]
    fn retry_backoff_is_capped_exponential() {
        let retry = RetryPolicy {
            max_attempts: 5,
            base_backoff: 0.5,
            multiplier: 2.0,
            max_backoff: 3.0,
        };
        retry.validate().unwrap();
        assert!((retry.backoff(1) - 0.5).abs() < 1e-12);
        assert!((retry.backoff(2) - 1.0).abs() < 1e-12);
        assert!((retry.backoff(3) - 2.0).abs() < 1e-12);
        assert!((retry.backoff(4) - 3.0).abs() < 1e-12, "capped");
        assert!(RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn outage_overlap_uses_half_open_intervals() {
        let outage = Outage {
            processor: 1,
            start: 2.0,
            end: 5.0,
        };
        assert!(outage.overlaps(4.0, 6.0));
        assert!(outage.overlaps(0.0, 2.5));
        assert!(!outage.overlaps(0.0, 2.0), "segment ending at the crash");
        assert!(!outage.overlaps(5.0, 9.0), "segment starting at the repair");
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(FaultPlan::generate(&FaultConfig::new(0, 4, 10.0, 1)).is_err());
        assert!(FaultPlan::generate(&FaultConfig::new(4, 4, f64::NAN, 1)).is_err());
        assert!(
            FaultPlan::generate(&FaultConfig::new(4, 4, 10.0, 1).with_crashes(-1.0, 1.0)).is_err()
        );
        assert!(
            FaultPlan::generate(&FaultConfig::new(4, 4, 10.0, 1).with_task_failures(1.5, 4))
                .is_err()
        );
    }
}
