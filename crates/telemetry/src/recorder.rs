//! The recorder trait and its two implementations.
//!
//! Instrumentation points receive a `&dyn Recorder` (or a cloned
//! [`SharedRecorder`] handle) and call [`Recorder::event`],
//! [`Recorder::add`], and [`Recorder::sample`].  The methods take `&self` so
//! one recorder can be shared between the engine and the planning policy;
//! [`CollectingRecorder`] synchronises internally, [`NoopRecorder`] does
//! nothing at all.  Call sites that must build a payload (format a string,
//! clone a solver name) should guard on [`Recorder::enabled`] first so the
//! disabled path stays allocation-free.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};

use crate::event::TelemetryEvent;
use crate::histogram::LogHistogram;

/// Canonical counter and histogram names — the JSONL/summary schema.  Every
/// instrumentation point in the workspace uses these constants so reports,
/// gates, and tests never disagree on spelling.
pub mod names {
    /// Histogram: wall nanoseconds to process one engine event-loop iteration.
    pub const DECISION_NS: &str = "engine.decision_ns";
    /// Histogram: wall nanoseconds per epoch solve span.
    pub const SOLVE_NS: &str = "engine.solve_ns";
    /// Histogram: oracle probes per epoch solve.
    pub const SOLVE_PROBES: &str = "solver.probes";
    /// Histogram: reservation-timeline holes scanned per placement query.
    pub const HOLE_SCAN: &str = "timeline.hole_scan";
    /// Counter: engine event-loop iterations processed.
    pub const EVENTS: &str = "engine.events";
    /// Counter: commitments placed on the reservation timeline.
    pub const PLACEMENTS: &str = "engine.placements";
    /// Counter: placements that filled a hole before the committed frontier.
    pub const BACKFILLS: &str = "engine.backfills";
    /// Counter: queued commitments revoked during preemptive replanning.
    pub const REVOCATIONS: &str = "engine.revocations";
    /// Counter: running reservations truncated during re-allotment.
    pub const TRUNCATIONS: &str = "engine.truncations";
    /// Counter: tasks that finished executing.
    pub const COMPLETIONS: &str = "engine.completions";
    /// Counter: tasks that departed the system.
    pub const DEPARTURES: &str = "engine.departures";
    /// Counter: planning rounds the policy was asked for.
    pub const REPLANS: &str = "engine.replans";
    /// Counter: wall nanoseconds for the whole engine run.
    pub const RUN_NS: &str = "engine.run_ns";
    /// Counter: engine invariant violations (CI gates on zero).
    pub const INVARIANT_VIOLATIONS: &str = "engine.invariant_violations";
    /// Counter: oracle probes issued through the reusable `ProbeWorkspace`.
    pub const WORKSPACE_PROBES: &str = "workspace.probes";
    /// Counter: `ProbeWorkspace` buffer growth events (zero in steady state).
    pub const WORKSPACE_GROW_EVENTS: &str = "workspace.grow_events";
    /// Counter: rigid branch schedules (canonical list, malleable list,
    /// level packing) the `ProbeWorkspace` probes actually built; a probe
    /// whose allotment is unchanged builds none.
    pub const WORKSPACE_RIGID_BUILDS: &str = "workspace.rigid_builds";
    /// Counter: reservations placed on machine timelines.
    pub const TIMELINE_RESERVATIONS: &str = "timeline.reservations";
    /// Counter: reservations cancelled on machine timelines.
    pub const TIMELINE_CANCELS: &str = "timeline.cancels";
    /// Counter: reservations truncated on machine timelines.
    pub const TIMELINE_TRUNCATIONS: &str = "timeline.truncations";
    /// Counter: hole candidates examined across all placement queries.
    pub const TIMELINE_HOLES_SCANNED: &str = "timeline.holes_scanned";
    /// Counter: processor crashes applied to the machine (fault runs).
    pub const PROCESSOR_DOWNS: &str = "engine.processor_downs";
    /// Counter: processor repairs applied to the machine (fault runs).
    pub const PROCESSOR_UPS: &str = "engine.processor_ups";
    /// Counter: task attempts killed by injected faults.
    pub const TASK_FAILURES: &str = "engine.task_failures";
    /// Counter: retries scheduled for failed task attempts.
    pub const RETRIES_SCHEDULED: &str = "engine.retries_scheduled";
    /// Counter: tasks abandoned after exhausting their retry budget.
    pub const RETRIES_EXHAUSTED: &str = "engine.retries_exhausted";
    /// Counter: epoch solves degraded from the primary to the fallback
    /// solver.
    pub const SOLVER_DEGRADED: &str = "solver.degraded";
    /// Counter: queued tasks re-assigned between machine classes by an
    /// epoch re-solve of the classed engine.
    pub const CLASS_MIGRATIONS: &str = "engine.class_migrations";
    /// Counter: queued tasks moved between shards by the work-stealing
    /// rebalance at epoch boundaries (sharded engine).
    pub const STEALS: &str = "engine.steals";
    /// Counter: epoch boundaries served by structural delta-planning — the
    /// preemptive revocation pass was skipped because the epoch added only
    /// new arrivals, so the policy planned them against the surviving
    /// schedule instead of re-solving the whole backlog.
    pub const DELTA_PLANS: &str = "engine.delta_plans";
    /// Counter: epoch super-step rounds driven by the sharded coordinator.
    pub const SHARD_ROUNDS: &str = "engine.shard_rounds";
}

/// A sink for telemetry signals.
///
/// Implementations must be cheap to call and internally synchronised: the
/// engine and the policy may hold clones of the same [`SharedRecorder`].
pub trait Recorder: Send + Sync {
    /// Whether this recorder keeps anything.  Instrumentation points guard
    /// payload construction (string formatting, name cloning) on this so a
    /// disabled recorder costs one virtual call and nothing else.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one structured event.
    fn event(&self, event: TelemetryEvent);

    /// Adds `delta` to the named monotone counter.
    fn add(&self, counter: &'static str, delta: u64);

    /// Records one sample into the named log-scale histogram.
    fn sample(&self, histogram: &'static str, value: u64);
}

/// A recorder handle that can be cloned into policies and engines alike.
pub type SharedRecorder = Arc<dyn Recorder>;

/// The zero-cost default recorder: drops everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn event(&self, _event: TelemetryEvent) {}

    #[inline]
    fn add(&self, _counter: &'static str, _delta: u64) {}

    #[inline]
    fn sample(&self, _histogram: &'static str, _value: u64) {}
}

#[derive(Debug, Default)]
struct Collected {
    events: Vec<TelemetryEvent>,
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, LogHistogram>,
}

/// A recorder that accumulates everything in memory behind a mutex.
///
/// The engine run is single-threaded, so the mutex is uncontended; it exists
/// so the same handle can be cloned into the policy (via `PolicyOptions`)
/// and the engine without `&mut` plumbing.
#[derive(Debug, Default)]
pub struct CollectingRecorder {
    inner: Mutex<Collected>,
}

impl CollectingRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty recorder already wrapped in a [`SharedRecorder`]-able
    /// `Arc`, for call sites that clone the handle into a policy.
    pub fn shared() -> Arc<CollectingRecorder> {
        Arc::new(Self::new())
    }

    /// A copy of every structured event recorded so far, in order.
    pub fn events(&self) -> Vec<TelemetryEvent> {
        self.inner.lock().unwrap().events.clone()
    }

    /// The value of a named counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// A snapshot of all counters, keyed by canonical name.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.inner
            .lock()
            .unwrap()
            .counters
            .iter()
            .map(|(&k, &v)| (k.to_string(), v))
            .collect()
    }

    /// A copy of the named histogram, if any sample was ever recorded.
    pub fn histogram(&self, name: &str) -> Option<LogHistogram> {
        self.inner.lock().unwrap().histograms.get(name).cloned()
    }

    /// Number of recorded [`TelemetryEvent::InvariantViolation`] events plus
    /// the invariant-violation counter — the quantity CI gates to zero.
    pub fn invariant_violations(&self) -> u64 {
        let inner = self.inner.lock().unwrap();
        let from_events = inner
            .events
            .iter()
            .filter(|e| matches!(e, TelemetryEvent::InvariantViolation { .. }))
            .count() as u64;
        let from_counter = inner
            .counters
            .get(names::INVARIANT_VIOLATIONS)
            .copied()
            .unwrap_or(0);
        from_events.max(from_counter)
    }

    /// Writes the event stream as JSONL: one [`TelemetryEvent::to_json`]
    /// object per line, in recording order.
    pub fn write_jsonl<W: Write>(&self, out: &mut W) -> io::Result<()> {
        for event in self.inner.lock().unwrap().events.iter() {
            let line = serde_json::to_string(&event.to_json())
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            out.write_all(line.as_bytes())?;
            out.write_all(b"\n")?;
        }
        Ok(())
    }
}

impl Recorder for CollectingRecorder {
    fn event(&self, event: TelemetryEvent) {
        self.inner.lock().unwrap().events.push(event);
    }

    fn add(&self, counter: &'static str, delta: u64) {
        *self
            .inner
            .lock()
            .unwrap()
            .counters
            .entry(counter)
            .or_insert(0) += delta;
    }

    fn sample(&self, histogram: &'static str, value: u64) {
        self.inner
            .lock()
            .unwrap()
            .histograms
            .entry(histogram)
            .or_default()
            .record(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collecting_recorder_accumulates_everything() {
        let recorder = CollectingRecorder::new();
        recorder.add(names::EVENTS, 2);
        recorder.add(names::EVENTS, 3);
        recorder.sample(names::DECISION_NS, 100);
        recorder.sample(names::DECISION_NS, 200);
        recorder.event(TelemetryEvent::Complete { time: 1.0, task: 7 });
        assert_eq!(recorder.counter(names::EVENTS), 5);
        assert_eq!(recorder.counter("never.touched"), 0);
        let hist = recorder.histogram(names::DECISION_NS).unwrap();
        assert_eq!(hist.count(), 2);
        assert_eq!(recorder.events().len(), 1);
        assert_eq!(recorder.invariant_violations(), 0);
    }

    #[test]
    fn jsonl_stream_round_trips() {
        let recorder = CollectingRecorder::new();
        recorder.event(TelemetryEvent::Complete { time: 1.5, task: 3 });
        recorder.event(TelemetryEvent::Depart {
            time: 2.5,
            task: 3,
            completed: true,
        });
        let mut buffer = Vec::new();
        recorder.write_jsonl(&mut buffer).unwrap();
        let text = String::from_utf8(buffer).unwrap();
        let parsed: Vec<TelemetryEvent> = text
            .lines()
            .map(|line| TelemetryEvent::from_json(&serde_json::from_str(line).unwrap()).unwrap())
            .collect();
        assert_eq!(parsed, recorder.events());
    }

    #[test]
    fn noop_recorder_is_disabled() {
        let noop = NoopRecorder;
        assert!(!noop.enabled());
        noop.add(names::EVENTS, 1);
        noop.sample(names::DECISION_NS, 1);
        noop.event(TelemetryEvent::Complete { time: 0.0, task: 0 });
    }

    #[test]
    fn invariant_violations_counts_events_and_counter() {
        let recorder = CollectingRecorder::new();
        recorder.event(TelemetryEvent::InvariantViolation {
            time: 0.0,
            detail: "boom".into(),
        });
        recorder.add(names::INVARIANT_VIOLATIONS, 1);
        assert_eq!(recorder.invariant_violations(), 1);
    }
}
