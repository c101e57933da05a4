//! Reusable scratch space for dual-approximation probes.
//!
//! A dichotomic search probes the MRT oracle dozens of times per solve, and
//! the online engine repeats whole solves every epoch.  A [`ProbeWorkspace`]
//! owns every recurring buffer of a probe: the canonical-allotment cache
//! (with its incrementally maintained sort order), a second cache for the
//! malleable list algorithm's θ-allotment, the list order buffer and the
//! processor timeline of the list branches, the rectangle and bin-packing
//! scratch of the packing branches, and the knapsack DP tables.
//!
//! In steady state a probe grows none of these.  What it still allocates is
//! what it hands out or builds per call: the schedule of every branch it
//! evaluates (one per branch; the losers are dropped), the level packing's
//! placement list, the knapsack solution, and the shelves of the two-shelf
//! construction.
//!
//! The workspace also carries two counters used by the benchmark/CI gates:
//! the number of probes served and the number of *growth events* (a probe
//! that had to enlarge at least one buffer).  After a warm-up probe at the
//! largest guess, the growth counter must stay flat — that invariant is
//! asserted by `tests/exact_search.rs` instead of a wall-clock threshold.

use crate::canonical::CanonicalAllotment;
use crate::error::Result;
use crate::instance::Instance;
use crate::task::TaskId;
use crate::two_shelf::Partition;
use packing::rect::Rect;
use packing::timeline::ProcessorTimeline;

/// Reusable buffers threaded through [`DualApproximation::probe_with_workspace`]
/// and the [`DualSearch`] driver.
///
/// [`DualApproximation::probe_with_workspace`]: crate::dual::DualApproximation::probe_with_workspace
/// [`DualSearch`]: crate::dual::DualSearch
#[derive(Debug, Clone, Default)]
pub struct ProbeWorkspace {
    /// Canonical allotment of the previous probe, recomputed in place as the
    /// guess moves (the sorted-id permutation is repaired incrementally).
    pub(crate) canonical: Option<CanonicalAllotment>,
    /// Canonical allotment at `θ·ω`, the malleable list algorithm's
    /// allotment, recomputed in place like the first one.
    pub(crate) theta_canonical: Option<CanonicalAllotment>,
    /// List order of the malleable list algorithm, refilled per probe.
    pub(crate) order: Vec<TaskId>,
    /// Processor timeline of the list branches, reset per schedule.
    pub(crate) timeline: Option<ProcessorTimeline>,
    /// Rectangle scratch for the FFDH level-packing branch.
    pub(crate) rects: Vec<Rect>,
    /// Two-shelf partition of §4.1, refilled in place on every probe.
    pub(crate) partition: Partition,
    /// Minimal second-shelf processor counts `d_j` of the `T₁` tasks.
    pub(crate) d: Vec<Option<usize>>,
    /// Knapsack items of `K(λ)`.
    pub(crate) items: Vec<knapsack::Item>,
    /// `(slot in T₁, task id)` of every knapsack item.
    pub(crate) item_tasks: Vec<(usize, TaskId)>,
    /// Canonical times of the `T₃` tasks, input to First Fit.
    pub(crate) t3_times: Vec<f64>,
    /// First Fit bin assignment scratch.
    pub(crate) ff_assignment: Vec<usize>,
    /// First Fit residual-capacity scratch.
    pub(crate) ff_residual: Vec<f64>,
    /// Per-column time offsets when stacking `T₃` tasks onto a shelf.
    pub(crate) column_offsets: Vec<f64>,
    /// DP tables of the primal and dual knapsack solvers.
    pub(crate) knapsack: knapsack::DpWorkspace,
    probes: usize,
    grow_events: usize,
}

impl ProbeWorkspace {
    /// An empty workspace; buffers are sized lazily by the first probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of probes served through this workspace.
    pub fn probes(&self) -> usize {
        self.probes
    }

    /// Number of probes that had to grow at least one internal buffer.  In
    /// steady state (after a warm-up probe at the largest instance/guess) this
    /// stays flat: the allocation-free probe invariant.
    pub fn grow_events(&self) -> usize {
        self.grow_events
    }

    /// Reset the probe and growth counters (the buffers are kept).
    pub fn reset_counters(&mut self) {
        self.probes = 0;
        self.grow_events = 0;
    }

    /// Drop every cached buffer and the canonical-allotment cache, keeping
    /// the telemetry counters: the next probe behaves like a cold one (used
    /// by benchmark baselines that must not benefit from reuse).
    pub fn clear(&mut self) {
        let probes = self.probes;
        let grow_events = self.grow_events;
        *self = ProbeWorkspace::new();
        self.probes = probes;
        self.grow_events = grow_events;
    }

    /// Sum of the capacities of every managed buffer; an unchanged signature
    /// across a probe proves the probe did not grow any of them.
    pub(crate) fn capacity_signature(&self) -> usize {
        let canonical = |cache: &Option<CanonicalAllotment>| {
            cache
                .as_ref()
                .map_or(0, CanonicalAllotment::buffer_capacity)
        };
        canonical(&self.canonical)
            + canonical(&self.theta_canonical)
            + self.order.capacity()
            + self
                .timeline
                .as_ref()
                .map_or(0, ProcessorTimeline::buffer_capacity)
            + self.rects.capacity()
            + self.partition.buffer_capacity()
            + self.d.capacity()
            + self.items.capacity()
            + self.item_tasks.capacity()
            + self.t3_times.capacity()
            + self.ff_assignment.capacity()
            + self.ff_residual.capacity()
            + self.column_offsets.capacity()
            + self.knapsack.capacity_signature()
    }

    /// Record one served probe, comparing the capacity signature against the
    /// value captured before the probe ran.
    pub(crate) fn note_probe(&mut self, signature_before: usize) {
        self.probes += 1;
        if self.capacity_signature() > signature_before {
            self.grow_events += 1;
        }
    }

    /// Take the cached canonical allotment, recomputed in place for `omega`
    /// (or computed fresh on first use).  The caller returns it with
    /// [`ProbeWorkspace::store_canonical`] once the probe is done; on `Err`
    /// (the guess is unreachable) the cache is kept for the next probe.
    pub(crate) fn take_canonical(
        &mut self,
        instance: &Instance,
        omega: f64,
    ) -> Result<CanonicalAllotment> {
        match self.canonical.take() {
            Some(mut cached) => match cached.recompute(instance, omega) {
                Ok(()) => Ok(cached),
                Err(e) => {
                    self.canonical = Some(cached);
                    Err(e)
                }
            },
            None => CanonicalAllotment::compute(instance, omega),
        }
    }

    /// Return the canonical allotment taken by [`ProbeWorkspace::take_canonical`].
    pub(crate) fn store_canonical(&mut self, canonical: CanonicalAllotment) {
        self.canonical = Some(canonical);
    }
}

/// The canonical allotment cached in `cache`, recomputed in place for
/// `omega` (or computed fresh on first use).  On `Err` (the guess is
/// unreachable) the cache is kept for the next call.
pub(crate) fn refresh_canonical<'a>(
    cache: &'a mut Option<CanonicalAllotment>,
    instance: &Instance,
    omega: f64,
) -> Result<&'a CanonicalAllotment> {
    match cache {
        Some(cached) => {
            cached.recompute(instance, omega)?;
            Ok(cached)
        }
        None => Ok(cache.insert(CanonicalAllotment::compute(instance, omega)?)),
    }
}
