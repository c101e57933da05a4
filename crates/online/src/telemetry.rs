//! Telemetry surfacing for engine runs: the time-weighted utilisation
//! timeline and the summary the CLI's text table and its JSON document are
//! both built from.
//!
//! The raw signals are recorded by the engine (see [`crate::run_recorded`])
//! into a [`CollectingRecorder`]; this module turns them into one
//! [`RunTelemetry`] value so every surface reports identical numbers.

use ::telemetry::{names, CollectingRecorder};
use malleable_core::Schedule;
use serde_json::{json, Value};

use crate::engine::OnlineResult;

/// Mean busy fraction over one interval of the horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationSample {
    /// Interval start (simulated time).
    pub start: f64,
    /// Interval end (simulated time); the last interval is clipped to the
    /// makespan.
    pub end: f64,
    /// Integral of busy processors over the interval divided by
    /// `m · (end - start)` — in `[0, 1]`.
    pub busy: f64,
}

/// The time-weighted utilisation timeline of a schedule: the horizon
/// `[0, makespan]` cut on a `period` grid, each interval reporting the exact
/// integral of busy processors (allotments are piecewise constant, so the
/// clipped-segment sum is exact, not sampled).  Empty when the schedule is
/// empty or `period` is not a positive finite number.
pub fn utilization_timeline(schedule: &Schedule, period: f64) -> Vec<UtilizationSample> {
    let horizon = schedule.makespan();
    // `!(… > 0.0)` deliberately sends a NaN horizon/period to the empty case.
    if !(horizon > 0.0 && period.is_finite() && period > 0.0) {
        return Vec::new();
    }
    let m = schedule.processors() as f64;
    let bins = (horizon / period).ceil() as usize;
    let mut busy = vec![0.0f64; bins];
    for entry in schedule.entries() {
        let finish = entry.finish();
        let width = entry.processors.count as f64;
        let first_bin = (entry.start / period).floor() as usize;
        let last_bin = (((finish / period).ceil() as usize).max(first_bin + 1) - 1).min(bins - 1);
        for (bin, slot) in busy
            .iter_mut()
            .enumerate()
            .take(last_bin + 1)
            .skip(first_bin)
        {
            let lo = entry.start.max(bin as f64 * period);
            let hi = finish.min((bin + 1) as f64 * period);
            if hi > lo {
                *slot += width * (hi - lo);
            }
        }
    }
    busy.iter()
        .enumerate()
        .map(|(bin, &integral)| {
            let start = bin as f64 * period;
            let end = ((bin + 1) as f64 * period).min(horizon);
            UtilizationSample {
                start,
                end,
                busy: if end > start {
                    (integral / (m * (end - start))).clamp(0.0, 1.0)
                } else {
                    0.0
                },
            }
        })
        .collect()
}

/// Percentile triple of one latency histogram, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyPercentiles {
    /// Samples recorded.
    pub count: u64,
    /// Median, at bucket resolution.
    pub p50_ns: u64,
    /// 90th percentile, at bucket resolution.
    pub p90_ns: u64,
    /// 99th percentile, at bucket resolution.
    pub p99_ns: u64,
    /// Exact maximum.
    pub max_ns: u64,
}

fn percentiles(recorder: &CollectingRecorder, name: &str) -> LatencyPercentiles {
    match recorder.histogram(name) {
        Some(hist) => LatencyPercentiles {
            count: hist.count(),
            p50_ns: hist.p50(),
            p90_ns: hist.p90(),
            p99_ns: hist.p99(),
            max_ns: hist.max(),
        },
        None => LatencyPercentiles::default(),
    }
}

/// Everything the telemetry surfaces report about one recorded engine run.
#[derive(Debug, Clone)]
pub struct RunTelemetry {
    /// Per-event-loop-iteration decision latency.
    pub decision: LatencyPercentiles,
    /// Per-epoch solve span latency.
    pub solve: LatencyPercentiles,
    /// Oracle probes per epoch solve (p50/p99 in probe counts, not ns).
    pub probes: LatencyPercentiles,
    /// Commitments placed on the timeline.
    pub placements: u64,
    /// Placements that landed before the latest committed start (backfills).
    pub backfills: u64,
    /// Queued commitments revoked (preemption and departures).
    pub revocations: u64,
    /// Running commitments truncated for re-allotment.
    pub truncations: u64,
    /// Wall nanoseconds of the whole engine run.
    pub run_ns: u64,
    /// Placements per wall second — the throughput figure of the ROADMAP's
    /// scale item.
    pub tasks_per_sec: f64,
    /// Invariant violations recorded (events or counter; CI gates on 0).
    pub invariant_violations: u64,
    /// Time-weighted utilisation against the capacity that actually existed
    /// (busy-processor integral / online-capacity integral; see
    /// [`OnlineResult::time_weighted_utilization`]).
    pub utilization: f64,
    /// The historical figure: busy integral over `m · makespan` as if every
    /// processor had stayed online ([`OnlineResult::nominal_utilization`]).
    pub nominal_utilization: f64,
    /// Fraction of executed processor-time that landed in completed tasks
    /// ([`OnlineResult::goodput_fraction`]; 1.0 in a fault-free run).
    pub goodput: f64,
    /// Processor-time burned by failed attempts and abandoned tasks.
    pub wasted_integral: f64,
    /// Processor crashes applied during the run.
    pub processor_downs: u64,
    /// Injected task-attempt failures.
    pub task_failures: u64,
    /// Retries scheduled for failed attempts.
    pub retries_scheduled: u64,
    /// Tasks abandoned after exhausting their retry budget.
    pub retries_exhausted: u64,
    /// Epoch solves degraded from the primary to the fallback solver.
    pub solver_degraded: u64,
    /// Per-epoch utilisation timeline.
    pub utilization_timeline: Vec<UtilizationSample>,
}

/// Build the [`RunTelemetry`] summary of a recorded run.  `period` cuts the
/// utilisation timeline; pass the policy's epoch (the CLI and bench use
/// [`crate::OnlinePolicy::epoch`], falling back to the makespan for
/// epoch-free policies).
pub fn summarize(
    recorder: &CollectingRecorder,
    result: &OnlineResult,
    period: Option<f64>,
) -> RunTelemetry {
    let placements = recorder.counter(names::PLACEMENTS);
    let run_ns = recorder.counter(names::RUN_NS);
    let period = period.unwrap_or_else(|| result.schedule.makespan());
    RunTelemetry {
        decision: percentiles(recorder, names::DECISION_NS),
        solve: percentiles(recorder, names::SOLVE_NS),
        probes: percentiles(recorder, names::SOLVE_PROBES),
        placements,
        backfills: recorder.counter(names::BACKFILLS),
        revocations: recorder.counter(names::REVOCATIONS),
        truncations: recorder.counter(names::TRUNCATIONS),
        run_ns,
        tasks_per_sec: if run_ns > 0 {
            placements as f64 / (run_ns as f64 / 1e9)
        } else {
            0.0
        },
        invariant_violations: recorder.invariant_violations(),
        utilization: result.time_weighted_utilization(),
        nominal_utilization: result.nominal_utilization(),
        goodput: result.goodput_fraction(),
        wasted_integral: result.wasted_integral,
        processor_downs: recorder.counter(names::PROCESSOR_DOWNS),
        task_failures: recorder.counter(names::TASK_FAILURES),
        retries_scheduled: recorder.counter(names::RETRIES_SCHEDULED),
        retries_exhausted: recorder.counter(names::RETRIES_EXHAUSTED),
        solver_degraded: recorder.counter(names::SOLVER_DEGRADED),
        utilization_timeline: utilization_timeline(&result.schedule, period),
    }
}

impl RunTelemetry {
    /// JSON form — the `telemetry` object of the CLI `--json` output.
    pub fn to_json(&self) -> Value {
        let timeline: Vec<Value> = self
            .utilization_timeline
            .iter()
            .map(|s| json!({ "start": s.start, "end": s.end, "busy": s.busy }))
            .collect();
        json!({
            "decision_latency_ns": json!({
                "count": self.decision.count,
                "p50": self.decision.p50_ns,
                "p90": self.decision.p90_ns,
                "p99": self.decision.p99_ns,
                "max": self.decision.max_ns,
            }),
            "solve_latency_ns": json!({
                "count": self.solve.count,
                "p50": self.solve.p50_ns,
                "p90": self.solve.p90_ns,
                "p99": self.solve.p99_ns,
                "max": self.solve.max_ns,
            }),
            "solve_probes": json!({
                "count": self.probes.count,
                "p50": self.probes.p50_ns,
                "p99": self.probes.p99_ns,
            }),
            "placements": self.placements,
            "backfills": self.backfills,
            "revocations": self.revocations,
            "truncations": self.truncations,
            "run_ns": self.run_ns,
            "tasks_per_sec": self.tasks_per_sec,
            "invariant_violations": self.invariant_violations,
            "time_weighted_utilization": self.utilization,
            "nominal_utilization": self.nominal_utilization,
            "goodput": self.goodput,
            "wasted_integral": self.wasted_integral,
            "processor_downs": self.processor_downs,
            "task_failures": self.task_failures,
            "retries_scheduled": self.retries_scheduled,
            "retries_exhausted": self.retries_exhausted,
            "solver_degraded": self.solver_degraded,
            "utilization_timeline": Value::Array(timeline),
        })
    }

    /// The human-readable summary table of the CLI `--telemetry` flag: one
    /// aligned `name  value` pair per line.
    pub fn render_table(&self) -> Vec<String> {
        fn ns(v: u64) -> String {
            if v >= 10_000_000 {
                format!("{:.1} ms", v as f64 / 1e6)
            } else if v >= 10_000 {
                format!("{:.1} µs", v as f64 / 1e3)
            } else {
                format!("{v} ns")
            }
        }
        let mut lines = vec![
            format!(
                "decision latency   p50 {:>10}   p90 {:>10}   p99 {:>10}   ({} events)",
                ns(self.decision.p50_ns),
                ns(self.decision.p90_ns),
                ns(self.decision.p99_ns),
                self.decision.count
            ),
            format!(
                "epoch solve        p50 {:>10}   p90 {:>10}   p99 {:>10}   ({} solves)",
                ns(self.solve.p50_ns),
                ns(self.solve.p90_ns),
                ns(self.solve.p99_ns),
                self.solve.count
            ),
            format!(
                "probes per solve   p50 {:>10}   p99 {:>10}",
                self.probes.p50_ns, self.probes.p99_ns
            ),
            format!(
                "tasks/sec placed   {:.0}   ({} placements, {} backfills, run {})",
                self.tasks_per_sec,
                self.placements,
                self.backfills,
                ns(self.run_ns)
            ),
            format!(
                "preemption         {} revocations, {} truncations",
                self.revocations, self.truncations
            ),
            format!(
                "utilisation        {:.3} time-weighted over online capacity ({:.3} nominal)",
                self.utilization, self.nominal_utilization
            ),
        ];
        let faulted = self.processor_downs + self.task_failures + self.solver_degraded > 0;
        if faulted || self.wasted_integral > 0.0 {
            lines.push(format!(
                "faults             {} crashes, {} task failures, {} retries, {} abandoned, \
                 {} degraded solves",
                self.processor_downs,
                self.task_failures,
                self.retries_scheduled,
                self.retries_exhausted,
                self.solver_degraded
            ));
            lines.push(format!(
                "goodput            {:.3} of executed processor-time ({:.3} wasted)",
                self.goodput, self.wasted_integral
            ));
        }
        if !self.utilization_timeline.is_empty() {
            let spark: String = self
                .utilization_timeline
                .iter()
                .map(|s| {
                    const LEVELS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
                    LEVELS[((s.busy * 7.0).round() as usize).min(7)]
                })
                .collect();
            lines.push(format!(
                "utilisation/epoch  {spark}  ({} epochs)",
                self.utilization_timeline.len()
            ));
        }
        if self.invariant_violations > 0 {
            lines.push(format!(
                "INVARIANT VIOLATIONS: {}",
                self.invariant_violations
            ));
        }
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleable_core::{ProcessorRange, ScheduledTask};

    fn two_task_schedule() -> Schedule {
        let mut schedule = Schedule::new(2);
        // Processor 0 busy over [0, 2), both processors over [2, 3).
        schedule.push(ScheduledTask {
            task: 0,
            start: 0.0,
            duration: 2.0,
            processors: ProcessorRange::new(0, 1),
        });
        schedule.push(ScheduledTask {
            task: 1,
            start: 2.0,
            duration: 1.0,
            processors: ProcessorRange::new(0, 2),
        });
        schedule
    }

    #[test]
    fn timeline_integrates_clipped_segments_exactly() {
        let samples = utilization_timeline(&two_task_schedule(), 1.0);
        assert_eq!(samples.len(), 3);
        assert!((samples[0].busy - 0.5).abs() < 1e-12);
        assert!((samples[1].busy - 0.5).abs() < 1e-12);
        assert!((samples[2].busy - 1.0).abs() < 1e-12);
        // The weighted mean of the timeline equals the whole-horizon figure.
        let weighted: f64 = samples
            .iter()
            .map(|s| s.busy * (s.end - s.start))
            .sum::<f64>()
            / samples.last().unwrap().end;
        assert!((weighted - two_task_schedule().utilization()).abs() < 1e-12);
    }

    #[test]
    fn timeline_handles_period_larger_than_horizon() {
        let samples = utilization_timeline(&two_task_schedule(), 10.0);
        assert_eq!(samples.len(), 1);
        assert!((samples[0].end - 3.0).abs() < 1e-12);
        assert!((samples[0].busy - two_task_schedule().utilization()).abs() < 1e-12);
    }

    #[test]
    fn empty_schedule_has_no_timeline() {
        assert!(utilization_timeline(&Schedule::new(2), 1.0).is_empty());
    }
}
