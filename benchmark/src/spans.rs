//! In-memory spans recorded around calls into the workspace's layers.
//!
//! A span is one call into a layer: its name, the span that caused it, the
//! session (instance, trace or stream) it belongs to, and its start and end
//! on the tracer's clock.  Spans are kept in memory while the traced pass
//! runs and written out as JSONL afterwards, so writing never lands inside a
//! measured interval.
//!
//! Parents are tracked per thread: a span opened while another is open on
//! the same thread is its child.  Work handed to another thread (the shard
//! workers) has no open span there, so it attaches to the tracer's current
//! *anchor* — the span that dispatched it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use telemetry::SpanTimer;

/// One closed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Identifier, unique within the tracer (starting at 1).
    pub id: u64,
    /// The instance, trace or stream the span works on.
    pub session: u64,
    /// Layer name.
    pub name: &'static str,
    /// Identifier of the causing span; 0 for a root.
    pub parent: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

thread_local! {
    /// Open spans of the current thread, innermost last.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Records spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    clock: SpanTimer,
    next_id: AtomicU64,
    session: AtomicU64,
    anchor: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            clock: SpanTimer::start(),
            next_id: AtomicU64::new(1),
            session: AtomicU64::new(0),
            anchor: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Stamp the spans opened from now on with `session`.
    pub fn set_session(&self, session: u64) {
        self.session.store(session, Ordering::Relaxed);
    }

    /// Run `work` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, work: impl FnOnce() -> R) -> R {
        self.record(name, false, work)
    }

    /// Run `work` inside a span that also becomes the parent of spans
    /// opened on threads that have no open span of their own.
    pub fn anchored_span<R>(&self, name: &'static str, work: impl FnOnce() -> R) -> R {
        self.record(name, true, work)
    }

    fn record<R>(&self, name: &'static str, anchor: bool, work: impl FnOnce() -> R) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN
            .with(|open| open.borrow().last().copied())
            .unwrap_or_else(|| self.anchor.load(Ordering::Relaxed));
        let previous_anchor = anchor.then(|| self.anchor.swap(id, Ordering::Relaxed));
        OPEN.with(|open| open.borrow_mut().push(id));
        let start_ns = self.clock.elapsed_ns();
        let result = work();
        let end_ns = self.clock.elapsed_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        if let Some(previous) = previous_anchor {
            self.anchor.store(previous, Ordering::Relaxed);
        }
        let span = Span {
            id,
            session: self.session.load(Ordering::Relaxed),
            name,
            parent,
            start_ns,
            end_ns,
        };
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
            .push(span);
        result
    }

    /// Every closed span, sorted by start.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics while holding the span list")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Write spans as JSONL, one object per line.
pub fn write_jsonl(spans: &[Span], out: &mut impl Write) -> io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"session\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.session, s.name, s.parent, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// Time one layer spent in its spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Number of spans.
    pub spans: usize,
    /// Summed span durations, in seconds.
    pub total_s: f64,
    /// Summed self time, in seconds: each span minus the part of it that
    /// its children cover.
    pub self_s: f64,
}

/// Total length of the union of `intervals`, in nanoseconds.
pub fn union_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals.iter() {
        match current {
            Some((lo, hi)) if start <= hi => current = Some((lo, hi.max(end))),
            Some((lo, hi)) => {
                covered += hi - lo;
                current = Some((start, end));
            }
            None => current = Some((start, end)),
        }
    }
    covered + current.map_or(0, |(lo, hi)| hi - lo)
}

/// Per-layer totals and self times.  Children that run in parallel (the
/// shard workers) are merged before they are subtracted, so a parent's self
/// time is never negative.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut layers: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let covered = children.get_mut(&s.id).map_or(0, |intervals| {
            for interval in intervals.iter_mut() {
                *interval = (interval.0.max(s.start_ns), interval.1.min(s.end_ns));
            }
            union_ns(intervals)
        });
        let layer = layers.entry(s.name).or_default();
        layer.spans += 1;
        layer.total_s += s.duration_ns() as f64 * 1e-9;
        layer.self_s += s.duration_ns().saturating_sub(covered) as f64 * 1e-9;
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_keeps_gaps() {
        assert_eq!(union_ns(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_ns(&mut []), 0);
    }

    #[test]
    fn nested_spans_get_their_parents_and_self_times() {
        let tracer = Tracer::new();
        tracer.set_session(7);
        tracer.span("outer", || {
            tracer.span("inner", || std::hint::black_box(1 + 1));
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!((outer.parent, inner.parent), (0, outer.id));
        assert_eq!(inner.session, 7);
        let layers = layer_times(&spans);
        let (o, i) = (layers["outer"], layers["inner"]);
        assert!((o.self_s + i.total_s - o.total_s).abs() < 1e-12);
    }

    #[test]
    fn spans_on_other_threads_attach_to_the_anchor() {
        let tracer = Tracer::new();
        tracer.anchored_span("run", || {
            std::thread::scope(|scope| {
                scope.spawn(|| tracer.span("worker", || ()));
            });
        });
        let spans = tracer.spans();
        let run = spans.iter().find(|s| s.name == "run").unwrap();
        let worker = spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(worker.parent, run.id);
    }

    #[test]
    fn parallel_children_are_merged_before_subtraction() {
        let spans = [
            Span {
                id: 1,
                session: 0,
                name: "run",
                parent: 0,
                start_ns: 0,
                end_ns: 100,
            },
            Span {
                id: 2,
                session: 0,
                name: "solve",
                parent: 1,
                start_ns: 10,
                end_ns: 60,
            },
            Span {
                id: 3,
                session: 0,
                name: "solve",
                parent: 1,
                start_ns: 20,
                end_ns: 70,
            },
        ];
        let layers = layer_times(&spans);
        assert!((layers["run"].self_s - 40e-9).abs() < 1e-15);
        assert!((layers["solve"].total_s - 100e-9).abs() < 1e-15);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let tracer = Tracer::new();
        tracer.span("a", || ());
        let mut out = Vec::new();
        write_jsonl(&tracer.spans(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let doc = serde_json::from_str(text.trim()).unwrap();
        assert_eq!(doc.get("name").and_then(|v| v.as_str()), Some("a"));
        assert_eq!(doc.get("parent").and_then(|v| v.as_u64()), Some(0));
    }
}
