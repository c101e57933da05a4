//! Arrival traces: malleable tasks arriving over time.
//!
//! The offline model of the paper schedules a fixed task set; the online
//! engine (crate `online`) instead consumes a stream of arrivals.  This
//! module provides the trace model, deterministic generators for the two
//! standard traffic shapes — Poisson arrivals (independent exponential
//! inter-arrival times) and bursty arrivals (synchronised batches, the shape
//! produced by periodic submission systems) — and a JSON representation so
//! traces can be saved and replayed exactly.
//!
//! Arrivals may also carry a **departure deadline** ([`Arrival::departs_at`]):
//! a task that has not started by its deadline leaves the system
//! (cancellation), which is how impatient users and revoked cloud jobs show
//! up in a trace.  [`ArrivalTrace::with_departures`] attaches deterministic,
//! seed-derived deadlines to a generated trace.
//!
//! Generation is a pure function of the [`TraceConfig`]: the task profiles
//! come from the deterministic [`WorkloadGenerator`] and the arrival clock
//! from an independent, seed-derived stream, so a `(config, seed)` pair
//! always produces the same trace.
//!
//! A trace holds every task once: it owns the offline [`Instance`] (task `j`
//! is arrival `j`) beside one [`Release`] record per task, its arrival and
//! departure times.  Construction moves the tasks into the instance, which
//! truncates a profile wider than the machine as [`Instance::new`] does;
//! the online engines borrow the instance instead of copying it.

use crate::generator::{TaskStream, WorkloadConfig, WorkloadGenerator};
use crate::io::task_from_value;
use malleable_core::{Instance, MalleableTask, Result};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::{json, Value};

/// One task arriving at a point in time, optionally departing again.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// Arrival (release) time of the task.
    pub at: f64,
    /// The task itself.
    pub task: MalleableTask,
    /// Departure (cancellation) deadline: if the task has not *started* by
    /// this time it leaves the system and is never executed.  A task that
    /// started before its departure runs to completion (non-preemptive
    /// execution).  `None` means the task waits forever.
    pub departs_at: Option<f64>,
}

impl Arrival {
    /// A task arriving at `at` with no departure deadline.
    pub fn new(at: f64, task: MalleableTask) -> Self {
        Arrival {
            at,
            task,
            departs_at: None,
        }
    }

    /// Attach a departure deadline (builder style).
    pub fn departing_at(mut self, departs_at: f64) -> Self {
        self.departs_at = Some(departs_at);
        self
    }
}

/// When one task of a trace arrives and, optionally, departs: an
/// [`Arrival`] without its task, which the trace keeps in its instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Release {
    /// Arrival (release) time of the task.
    pub at: f64,
    /// Departure deadline (see [`Arrival::departs_at`]).
    pub departs_at: Option<f64>,
}

impl Release {
    /// The release record of an arrival at `at` departing at `departs_at`,
    /// validated: the arrival finite and non-negative, the deadline finite
    /// and no earlier than the arrival.
    ///
    /// An arrival or departure time of −0.0 becomes +0.0, so that the sorted
    /// order is also the `total_cmp` order of the online engine's event
    /// queue, and a zero deadline still follows its zero arrival there.
    fn checked(at: f64, departs_at: Option<f64>) -> Result<Self> {
        if !(at.is_finite() && at >= 0.0) {
            return Err(malleable_core::Error::InvalidParameter {
                name: "arrival",
                value: at,
            });
        }
        if let Some(departs_at) = departs_at {
            if !(departs_at.is_finite() && departs_at >= at) {
                return Err(malleable_core::Error::InvalidParameter {
                    name: "departure",
                    value: departs_at,
                });
            }
        }
        // Both times are validated non-negative, so the only negative-signed
        // value left is −0.0, and adding +0.0 turns it into +0.0.
        Ok(Release {
            at: at + 0.0,
            departs_at: departs_at.map(|d| d + 0.0),
        })
    }
}

/// How departure deadlines are attached to a generated trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeparturePolicy {
    /// Every task waits an exponentially distributed patience with the given
    /// mean before departing (sampled deterministically from the seed).
    Patience {
        /// Mean patience (must be positive and finite).
        mean: f64,
    },
}

/// A stream of task arrivals targeting a machine with a fixed processor
/// count: the offline [`Instance`] of its tasks and one [`Release`] record
/// per task, both sorted by arrival time.  The index of an arrival is the
/// task's identifier in every schedule the online engine produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTrace {
    instance: Instance,
    releases: Vec<Release>,
}

/// The arrival-time process of a generated trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalPattern {
    /// Poisson process: exponential inter-arrival times with the given rate
    /// (expected arrivals per unit of time).
    Poisson {
        /// Expected number of arrivals per unit of time (must be positive).
        rate: f64,
    },
    /// Bursty arrivals: groups of `burst_size` tasks arrive simultaneously,
    /// one group every `burst_gap` units of time starting at time 0.
    Bursty {
        /// Number of tasks arriving together in each burst (≥ 1).
        burst_size: usize,
        /// Time between consecutive bursts (must be positive).
        burst_gap: f64,
    },
}

impl ArrivalPattern {
    /// Stable name used by reports and the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalPattern::Poisson { .. } => "poisson",
            ArrivalPattern::Bursty { .. } => "bursty",
        }
    }

    /// Check the pattern's parameters (positive rate / gap, non-empty
    /// bursts).
    pub fn validate(&self) -> Result<()> {
        match *self {
            ArrivalPattern::Poisson { rate } => {
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(malleable_core::Error::InvalidParameter {
                        name: "rate",
                        value: rate,
                    });
                }
            }
            ArrivalPattern::Bursty {
                burst_size,
                burst_gap,
            } => {
                if burst_size == 0 {
                    return Err(malleable_core::Error::InvalidParameter {
                        name: "burst-size",
                        value: 0.0,
                    });
                }
                if !(burst_gap.is_finite() && burst_gap > 0.0) {
                    return Err(malleable_core::Error::InvalidParameter {
                        name: "burst-gap",
                        value: burst_gap,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Full description of a generated trace: the task population (profiles,
/// machine, seed) plus the arrival process.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// The task population; `workload.seed` also seeds the arrival clock.
    pub workload: WorkloadConfig,
    /// The arrival-time process.
    pub pattern: ArrivalPattern,
}

impl ArrivalTrace {
    /// Build a trace, sorting the arrivals by time (equal times keep their
    /// input order) and validating that the machine is non-trivial and
    /// every arrival time is finite and non-negative.  The tasks move into
    /// the trace's instance, which truncates a profile wider than the
    /// machine (see [`Instance::new`]).
    ///
    /// An arrival or departure time of −0.0 becomes +0.0, so that the sorted
    /// order is also the `total_cmp` order of the online engine's event
    /// queue, and a zero deadline still follows its zero arrival there.
    pub fn new(processors: usize, arrivals: Vec<Arrival>) -> Result<Self> {
        if processors == 0 {
            return Err(malleable_core::Error::NoProcessors);
        }
        if arrivals.is_empty() {
            return Err(malleable_core::Error::EmptyInstance);
        }
        let mut entries = arrivals
            .into_iter()
            .map(|a| Ok((Release::checked(a.at, a.departs_at)?, a.task)))
            .collect::<Result<Vec<_>>>()?;
        entries.sort_by(|a, b| a.0.at.partial_cmp(&b.0.at).unwrap());
        let (releases, tasks) = entries.into_iter().unzip();
        Ok(ArrivalTrace {
            instance: Instance::new(tasks, processors)?,
            releases,
        })
    }

    /// Generate the trace described by `config` (deterministic per seed):
    /// the arrivals of its [`ArrivalStream`], whose order is already the
    /// sorted trace order, moved straight into the trace.
    pub fn generate(config: &TraceConfig) -> Result<Self> {
        let stream = ArrivalStream::new(config)?;
        let processors = stream.processors();
        let mut tasks = Vec::with_capacity(stream.total());
        let mut releases = Vec::with_capacity(stream.total());
        for arrival in stream {
            let Arrival {
                at,
                task,
                departs_at,
            } = arrival?;
            releases.push(Release::checked(at, departs_at)?);
            tasks.push(task);
        }
        debug_assert!(releases.windows(2).all(|w| w[0].at <= w[1].at));
        Ok(ArrivalTrace {
            instance: Instance::new(tasks, processors)?,
            releases,
        })
    }

    /// Attach departure deadlines to every arrival, sampled deterministically
    /// from `seed` (an independent stream, so the same trace can be replayed
    /// under different departure policies).
    pub fn with_departures(mut self, policy: DeparturePolicy, seed: u64) -> Result<Self> {
        use rand::Rng;
        let DeparturePolicy::Patience { mean } = policy;
        if !(mean.is_finite() && mean > 0.0) {
            return Err(malleable_core::Error::InvalidParameter {
                name: "patience",
                value: mean,
            });
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_DEAD_BEEF_CAFE);
        for release in &mut self.releases {
            let u: f64 = rng.gen();
            let patience = -(1.0 - u).ln() * mean;
            release.departs_at = Some(release.at + patience);
        }
        Ok(self)
    }

    /// Whether any arrival carries a departure deadline.
    pub fn has_departures(&self) -> bool {
        self.releases.iter().any(|r| r.departs_at.is_some())
    }

    /// Number of processors of the target machine.
    pub fn processors(&self) -> usize {
        self.instance.processors()
    }

    /// The release records, sorted by time: record `j` is task `j` of
    /// [`ArrivalTrace::instance`].
    pub fn releases(&self) -> &[Release] {
        &self.releases
    }

    /// Arrival `task` as an owned [`Arrival`]: a copy of its task and its
    /// release record.
    pub fn arrival(&self, task: usize) -> Arrival {
        let Release { at, departs_at } = self.releases[task];
        Arrival {
            at,
            task: self.instance.task(task).clone(),
            departs_at,
        }
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.releases.len()
    }

    /// Whether the trace is empty (never true for a constructed trace).
    pub fn is_empty(&self) -> bool {
        self.releases.is_empty()
    }

    /// Arrival time of the last task.
    pub fn last_arrival(&self) -> f64 {
        self.releases.last().map_or(0.0, |r| r.at)
    }

    /// The offline view of the trace: every task released at time 0.  Task
    /// `j` of the instance is arrival `j` of the trace, so offline and online
    /// schedules use the same task identifiers.
    pub fn instance(&self) -> &Instance {
        &self.instance
    }
}

/// A lazy arrival stream: yields the arrivals of
/// [`ArrivalTrace::generate`] one at a time, in trace order, without
/// materialising the task population or the trace.
///
/// Tasks come from the seeded [`TaskStream`] that
/// [`WorkloadGenerator::generate`] collects, and arrival times from an
/// independent clock stream.  Both patterns produce non-decreasing times (a
/// Poisson clock accumulates, bursts step forward), so the stream's order
/// *is* the sorted trace order: arrival `j` of the stream is arrival `j` of
/// the generated trace, which collects it.  This is the ingestion path for
/// million-task traces — the sharded online engine pulls directly off it.
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    tasks: TaskStream,
    pattern: ArrivalPattern,
    clock_rng: ChaCha8Rng,
    clock: f64,
    index: usize,
    processors: usize,
}

impl ArrivalStream {
    /// Open the stream described by `config` (deterministic per seed;
    /// validates the pattern and the machine up front).
    pub fn new(config: &TraceConfig) -> Result<Self> {
        config.pattern.validate()?;
        if config.workload.processors == 0 {
            return Err(malleable_core::Error::NoProcessors);
        }
        if config.workload.tasks == 0 {
            return Err(malleable_core::Error::EmptyInstance);
        }
        Ok(ArrivalStream {
            tasks: WorkloadGenerator::new(config.workload.clone()).stream(),
            pattern: config.pattern,
            // An independent clock stream, so the same task population can
            // be re-used under different arrival patterns without
            // correlating profiles and arrival times.
            clock_rng: ChaCha8Rng::seed_from_u64(config.workload.seed ^ 0xA5A5_5A5A_0F0F_F0F0),
            clock: 0.0,
            index: 0,
            processors: config.workload.processors,
        })
    }

    /// Number of processors of the target machine.
    pub fn processors(&self) -> usize {
        self.processors
    }

    /// Total number of arrivals this stream yields over its lifetime.
    pub fn total(&self) -> usize {
        self.tasks.total()
    }
}

impl Iterator for ArrivalStream {
    type Item = Result<Arrival>;

    fn next(&mut self) -> Option<Self::Item> {
        use rand::Rng;
        let task = match self.tasks.next()? {
            Ok(task) => task,
            Err(e) => return Some(Err(e)),
        };
        let at = match self.pattern {
            ArrivalPattern::Poisson { rate } => {
                let u: f64 = self.clock_rng.gen();
                self.clock += -(1.0 - u).ln() / rate;
                self.clock
            }
            ArrivalPattern::Bursty {
                burst_size,
                burst_gap,
            } => (self.index / burst_size) as f64 * burst_gap,
        };
        self.index += 1;
        Some(Ok(Arrival::new(at, task)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.tasks.size_hint()
    }
}

impl ExactSizeIterator for ArrivalStream {}

/// Serialise a trace to a compact JSON string (traces can hold tens of
/// thousands of tasks, so no pretty-printing).
pub fn trace_to_json(trace: &ArrivalTrace) -> String {
    let arrivals: Vec<Value> = trace
        .releases()
        .iter()
        .zip(trace.instance().tasks())
        .map(|(release, task)| match release.departs_at {
            Some(departs_at) => json!({
                "at": release.at,
                "name": task.name.clone(),
                "times": task.profile.times().to_vec(),
                "departs_at": departs_at,
            }),
            None => json!({
                "at": release.at,
                "name": task.name.clone(),
                "times": task.profile.times().to_vec(),
            }),
        })
        .collect();
    let doc = json!({
        "processors": trace.processors(),
        "arrivals": arrivals,
    });
    serde_json::to_string(&doc).expect("trace serialisation cannot fail")
}

/// Parse a trace from its JSON representation, re-validating every profile
/// and arrival time.
pub fn trace_from_json(json: &str) -> Result<ArrivalTrace> {
    let invalid = || malleable_core::Error::InvalidParameter {
        name: "json",
        value: f64::NAN,
    };
    let doc = serde_json::from_str(json).map_err(|_| invalid())?;
    let processors = doc
        .get("processors")
        .and_then(Value::as_u64)
        .ok_or_else(invalid)? as usize;
    let arrivals = doc
        .get("arrivals")
        .and_then(Value::as_array)
        .ok_or_else(invalid)?
        .iter()
        .map(|entry| {
            let at = entry
                .get("at")
                .and_then(Value::as_f64)
                .ok_or_else(invalid)?;
            let departs_at = match entry.get("departs_at") {
                Some(value) => Some(value.as_f64().ok_or_else(invalid)?),
                None => None,
            };
            Ok(Arrival {
                at,
                task: task_from_value(entry)?,
                departs_at,
            })
        })
        .collect::<Result<Vec<_>>>()?;
    ArrivalTrace::new(processors, arrivals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleable_core::SpeedupProfile;

    fn poisson_config(tasks: usize, seed: u64) -> TraceConfig {
        TraceConfig {
            workload: WorkloadConfig::mixed(tasks, 8, seed),
            pattern: ArrivalPattern::Poisson { rate: 2.0 },
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = ArrivalTrace::generate(&poisson_config(30, 9)).unwrap();
        let b = ArrivalTrace::generate(&poisson_config(30, 9)).unwrap();
        let c = ArrivalTrace::generate(&poisson_config(30, 10)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn poisson_arrivals_are_sorted_and_positive() {
        let trace = ArrivalTrace::generate(&poisson_config(50, 1)).unwrap();
        assert_eq!(trace.len(), 50);
        let mut prev = 0.0;
        for release in trace.releases() {
            assert!(release.at >= prev);
            assert!(release.at > 0.0);
            prev = release.at;
        }
        // Mean inter-arrival should be in the ballpark of 1/rate = 0.5.
        let mean = trace.last_arrival() / trace.len() as f64;
        assert!((0.2..1.0).contains(&mean), "mean inter-arrival {mean}");
    }

    #[test]
    fn bursty_arrivals_form_synchronised_groups() {
        let config = TraceConfig {
            workload: WorkloadConfig::mixed(10, 4, 3),
            pattern: ArrivalPattern::Bursty {
                burst_size: 4,
                burst_gap: 5.0,
            },
        };
        let trace = ArrivalTrace::generate(&config).unwrap();
        let times: Vec<f64> = trace.releases().iter().map(|r| r.at).collect();
        assert_eq!(
            times,
            vec![0.0, 0.0, 0.0, 0.0, 5.0, 5.0, 5.0, 5.0, 10.0, 10.0]
        );
    }

    #[test]
    fn streaming_reproduces_generation_bit_for_bit() {
        // The generated trace collects the stream; its tasks are the
        // generator's instance, task for task, so no generated profile is
        // wider than the machine (`Instance::new` would have cut it).
        for config in [
            poisson_config(60, 11),
            TraceConfig {
                workload: WorkloadConfig::wide_tasks(45, 16, 4),
                pattern: ArrivalPattern::Bursty {
                    burst_size: 7,
                    burst_gap: 3.0,
                },
            },
        ] {
            let trace = ArrivalTrace::generate(&config).unwrap();
            let stream = ArrivalStream::new(&config).unwrap();
            assert_eq!(stream.processors(), trace.processors());
            assert_eq!(stream.total(), trace.len());
            for (j, arrival) in stream.enumerate() {
                assert_eq!(arrival.unwrap(), trace.arrival(j), "{:?}", config.pattern);
            }
            let instance = WorkloadGenerator::new(config.workload.clone())
                .generate()
                .unwrap();
            assert_eq!(&instance, trace.instance(), "{:?}", config.pattern);
        }
        // Degenerate configs are rejected at open time like at generate time.
        let mut bad = poisson_config(10, 1);
        bad.pattern = ArrivalPattern::Poisson { rate: 0.0 };
        assert!(ArrivalStream::new(&bad).is_err());
        let mut empty = poisson_config(10, 1);
        empty.workload.tasks = 0;
        assert!(ArrivalStream::new(&empty).is_err());
    }

    #[test]
    fn json_round_trip_preserves_traces() {
        // Arrival times and profiles round-trip exactly, for every family
        // and both patterns.
        for workload in [
            WorkloadConfig::mixed(20, 8, 5),
            WorkloadConfig::wide_tasks(25, 16, 6),
            WorkloadConfig::sequential_heavy(15, 4, 7),
        ] {
            for pattern in [
                ArrivalPattern::Poisson { rate: 2.0 },
                ArrivalPattern::Bursty {
                    burst_size: 4,
                    burst_gap: 1.5,
                },
            ] {
                let trace = ArrivalTrace::generate(&TraceConfig {
                    workload: workload.clone(),
                    pattern,
                })
                .unwrap();
                let parsed = trace_from_json(&trace_to_json(&trace)).unwrap();
                assert_eq!(parsed, trace, "{pattern:?}");
            }
        }
    }

    #[test]
    fn malformed_trace_documents_are_rejected() {
        assert!(trace_from_json("{ nope").is_err());
        assert!(trace_from_json(r#"{ "processors": 2 }"#).is_err());
        assert!(
            trace_from_json(r#"{ "processors": 2, "arrivals": [{ "at": -1.0, "times": [1.0] }] }"#)
                .is_err(),
            "negative arrival times must be rejected"
        );
        assert!(
            trace_from_json(
                r#"{ "processors": 2, "arrivals": [{ "at": 0.0, "times": [1.0, 2.0] }] }"#
            )
            .is_err(),
            "non-monotone profiles must be rejected"
        );
    }

    #[test]
    fn instance_view_uses_trace_order() {
        let arrivals = vec![
            Arrival::new(
                3.0,
                MalleableTask::named("late", SpeedupProfile::sequential(1.0).unwrap()),
            ),
            Arrival::new(
                1.0,
                MalleableTask::named("early", SpeedupProfile::sequential(2.0).unwrap()),
            ),
        ];
        let trace = ArrivalTrace::new(2, arrivals).unwrap();
        // Sorted by arrival: "early" first, in the instance and the records.
        let instance = trace.instance();
        assert_eq!(instance.task(0).name.as_deref(), Some("early"));
        assert_eq!(instance.task(1).name.as_deref(), Some("late"));
        assert_eq!(trace.releases()[0].at, 1.0);
        assert_eq!(trace.arrival(1).task.name.as_deref(), Some("late"));
    }

    #[test]
    fn wide_profiles_are_truncated_once_at_construction() {
        // A profile wider than the machine is held cut to the machine, so
        // the trace equals the one built from the pre-cut profile, and a
        // trace file written from it holds the cut profile.
        let wide = SpeedupProfile::new(vec![8.0, 4.0, 3.0, 2.5, 2.2]).unwrap();
        let cut = wide.truncated(3);
        let trace_of = |profile: &SpeedupProfile| {
            let arrivals = vec![
                Arrival::new(0.5, MalleableTask::named("wide", profile.clone())),
                Arrival::new(
                    0.0,
                    MalleableTask::new(SpeedupProfile::sequential(1.0).unwrap()),
                ),
            ];
            ArrivalTrace::new(3, arrivals).unwrap()
        };
        let trace = trace_of(&wide);
        assert_eq!(trace.instance().task(1).profile.max_processors(), 3);
        assert_eq!(trace.instance().task(1).profile.times(), cut.times());
        assert_eq!(trace, trace_of(&cut));
        let parsed = trace_from_json(&trace_to_json(&trace)).unwrap();
        assert_eq!(parsed, trace);
        assert_eq!(parsed.instance().task(1).profile.max_processors(), 3);
    }

    #[test]
    fn degenerate_patterns_are_rejected_not_panicking() {
        for pattern in [
            ArrivalPattern::Poisson { rate: 0.0 },
            ArrivalPattern::Poisson { rate: -1.0 },
            ArrivalPattern::Poisson { rate: f64::NAN },
            ArrivalPattern::Bursty {
                burst_size: 0,
                burst_gap: 1.0,
            },
            ArrivalPattern::Bursty {
                burst_size: 4,
                burst_gap: 0.0,
            },
        ] {
            let config = TraceConfig {
                workload: WorkloadConfig::mixed(5, 2, 1),
                pattern,
            };
            assert!(
                ArrivalTrace::generate(&config).is_err(),
                "{pattern:?} must be rejected"
            );
        }
    }

    #[test]
    fn trace_construction_validates_inputs() {
        assert!(ArrivalTrace::new(0, vec![]).is_err());
        assert!(ArrivalTrace::new(2, vec![]).is_err());
        let bad = vec![Arrival::new(
            f64::NAN,
            MalleableTask::new(SpeedupProfile::sequential(1.0).unwrap()),
        )];
        assert!(ArrivalTrace::new(2, bad).is_err());
        // Departures before the arrival (or non-finite) are rejected.
        let task = || MalleableTask::new(SpeedupProfile::sequential(1.0).unwrap());
        assert!(ArrivalTrace::new(2, vec![Arrival::new(2.0, task()).departing_at(1.0)]).is_err());
        assert!(
            ArrivalTrace::new(2, vec![Arrival::new(2.0, task()).departing_at(f64::NAN)]).is_err()
        );
        assert!(ArrivalTrace::new(2, vec![Arrival::new(2.0, task()).departing_at(2.0)]).is_ok());
        // −0.0 is accepted as +0.0, for the arrival and the deadline alike.
        let zero =
            ArrivalTrace::new(2, vec![Arrival::new(-0.0, task()).departing_at(-0.0)]).unwrap();
        let release = zero.releases()[0];
        assert!(release.at.is_sign_positive());
        assert!(release.departs_at.is_some_and(f64::is_sign_positive));
    }

    #[test]
    fn departures_are_deterministic_and_respect_arrivals() {
        let base = ArrivalTrace::generate(&poisson_config(40, 6)).unwrap();
        let policy = DeparturePolicy::Patience { mean: 2.0 };
        let a = base.clone().with_departures(policy, 9).unwrap();
        let b = base.clone().with_departures(policy, 9).unwrap();
        let c = base.clone().with_departures(policy, 10).unwrap();
        assert_eq!(a, b, "same seed, same deadlines");
        assert_ne!(a, c, "different seed, different deadlines");
        assert!(a.has_departures() && !base.has_departures());
        for release in a.releases() {
            let d = release.departs_at.unwrap();
            assert!(
                d >= release.at,
                "departure {d} before arrival {}",
                release.at
            );
        }
        assert!(base
            .with_departures(DeparturePolicy::Patience { mean: 0.0 }, 1)
            .is_err());
    }

    #[test]
    fn departures_round_trip_through_json() {
        let trace = ArrivalTrace::generate(&poisson_config(15, 3))
            .unwrap()
            .with_departures(DeparturePolicy::Patience { mean: 1.5 }, 3)
            .unwrap();
        let parsed = trace_from_json(&trace_to_json(&trace)).unwrap();
        assert_eq!(parsed, trace, "departure deadlines must round-trip exactly");
        // Malformed departures are rejected at parse time.
        assert!(trace_from_json(
            r#"{ "processors": 2, "arrivals": [{ "at": 1.0, "times": [1.0], "departs_at": 0.5 }] }"#
        )
        .is_err());
        assert!(trace_from_json(
            r#"{ "processors": 2, "arrivals": [{ "at": 1.0, "times": [1.0], "departs_at": "x" }] }"#
        )
        .is_err());
    }
}
