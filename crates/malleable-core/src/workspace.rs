//! Reusable scratch space for dual-approximation probes.
//!
//! A dichotomic search probes the MRT oracle dozens of times per solve, and
//! the online engine repeats whole solves every epoch.  A [`ProbeWorkspace`]
//! owns every recurring buffer of a probe: the canonical-allotment cache
//! (with its incrementally maintained sort order), a second cache for the
//! malleable list algorithm's θ-allotment, the list order buffer and the
//! processor timeline of the list branches, the rectangle scratch of the
//! level packing, and the two-shelf construction's buffers: its partition,
//! First Fit scratch, knapsack items and DP tables, and the schedule it
//! builds, which the probe copies out only when the two-shelf branch wins.
//!
//! It also keeps the last schedule of each rigid branch — the canonical
//! list, the malleable list and the level packing — with the key it was
//! built from: the machine size and the processor counts and times of its
//! allotment, which is all such a schedule reads.  A probe whose allotment
//! matches the key reuses the schedule.  The guess moves an allotment only
//! at breakpoints, so probes that cross none rebuild nothing.
//!
//! The exact search keeps its candidate list there too, with the scratch of
//! the sweep that finds the work and width kinks ([`crate::breakpoints`]):
//! it is refilled once per solve, before the probes, so a solve collects
//! its candidates without allocating once the buffers have grown.
//!
//! In steady state a probe grows none of these buffers.  What it still
//! allocates is what it hands out or builds from scratch per call: a copy
//! of the winning schedule, the knapsack's selection when the two-shelf
//! construction reaches the knapsack, and, when a level packing is rebuilt,
//! its placement list.  Beyond its probes, a steady-state epoch plan of the
//! online re-planner allocates only its solve's outcome and the commitments
//! it returns (`tests/epoch_allocations.rs` pins the count per plan).
//!
//! The workspace also carries five counters used by the CI gates: the
//! probes served, the *growth events* (probes that had to enlarge at least
//! one buffer), the rigid schedules actually built
//! ([`ProbeWorkspace::rigid_builds`]), the First Fit packings of the
//! two-shelf construction's small tasks ([`ProbeWorkspace::t3_packings`])
//! and the θ-allotments computed ([`ProbeWorkspace::theta_refreshes`]).
//! After a warm-up probe at the largest guess, the growth counter must stay
//! flat — that invariant is asserted by `tests/exact_search.rs` instead of
//! a wall-clock threshold, as are the build, packing and θ-allotment counts
//! of a bisection at benchmark size.  The candidate buffers are filled
//! between probes, so the growth counter does not see them; the allocation
//! pin does.

use crate::breakpoints::CandidateBuffers;
use crate::canonical::CanonicalAllotment;
use crate::error::Result;
use crate::instance::Instance;
use crate::schedule::Schedule;
use crate::task::TaskId;
use crate::two_shelf::ShelfBuffers;
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
    /// The two-shelf construction's buffers and its last schedule.
    pub(crate) shelf: ShelfBuffers,
    /// Last canonical list schedule (§3.2), keyed on its allotment.
    pub(crate) canonical_list: RigidMemo,
    /// Last malleable list schedule (§3.1), keyed on its θ-allotment.
    pub(crate) malleable_list: RigidMemo,
    /// Last FFDH level packing, keyed on its allotment.
    pub(crate) level_packing: RigidMemo,
    /// Rigid schedules built so far, per branch.
    pub(crate) rigid_builds: RigidBuilds,
    /// The exact search's candidate list and its sweep scratch, refilled
    /// once per solve, before its probes.
    pub(crate) candidates: CandidateBuffers,
    /// θ-allotments the probes computed for the malleable list.
    pub(crate) theta_refreshes: usize,
    probes: usize,
    grow_events: usize,
}

/// Rigid schedules a workspace's probes actually built, per branch.
/// A probe builds none for a branch whose allotment matches the kept
/// schedule's key, or whose longest task already reaches the best makespan
/// of the probe so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RigidBuilds {
    /// Canonical list schedules (§3.2) built.
    pub canonical_list: usize,
    /// Malleable list schedules (§3.1) built.
    pub malleable_list: usize,
    /// FFDH level packings built.
    pub level_packing: usize,
}

impl RigidBuilds {
    /// Schedules built over all three branches.
    pub fn total(&self) -> usize {
        self.canonical_list + self.malleable_list + self.level_packing
    }
}

/// The schedule a rigid branch built at an earlier probe, kept with its
/// key: the machine size (the schedule's own) and the processor counts and
/// times of the allotment it was built from, compared bit for bit.
#[derive(Debug, Clone, Default)]
pub(crate) struct RigidMemo {
    counts: Vec<usize>,
    times: Vec<f64>,
    built: Option<(Schedule, f64)>,
}

impl RigidMemo {
    /// Makespan of the schedule for `m` processors and `allotment`: the
    /// kept one when its key matches, otherwise `build` rebuilds it in
    /// place, appending to the emptied schedule, and `builds` counts it.
    pub(crate) fn refresh(
        &mut self,
        m: usize,
        allotment: &CanonicalAllotment,
        builds: &mut usize,
        build: impl FnOnce(&mut Schedule),
    ) -> f64 {
        let counts = allotment.allotment.as_slice();
        let same_times = || {
            self.times.len() == allotment.times.len()
                && self
                    .times
                    .iter()
                    .zip(&allotment.times)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        };
        if let Some((schedule, makespan)) = &self.built {
            if schedule.processors() == m && self.counts == counts && same_times() {
                return *makespan;
            }
        }
        *builds += 1;
        self.counts.clear();
        self.counts.extend_from_slice(counts);
        self.times.clear();
        self.times.extend_from_slice(&allotment.times);
        let (schedule, makespan) = self.built.get_or_insert_with(|| (Schedule::new(m), 0.0));
        schedule.reset(m, counts.len());
        build(schedule);
        *makespan = schedule.makespan();
        *makespan
    }

    /// The kept schedule, if one was ever built.
    pub(crate) fn schedule(&self) -> Option<&Schedule> {
        self.built.as_ref().map(|(schedule, _)| schedule)
    }

    /// Total capacity of the key and schedule buffers.
    fn buffer_capacity(&self) -> usize {
        self.counts.capacity()
            + self.times.capacity()
            + self.schedule().map_or(0, Schedule::buffer_capacity)
    }
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

    /// Rigid schedules (canonical list, malleable list, level packing) the
    /// probes actually built.  A probe rebuilds a branch's schedule only
    /// when the machine size or its allotment changed since the kept one
    /// was built.  It skips a branch whose longest task already reaches the
    /// best makespan of the probe so far, since that schedule cannot win,
    /// and the malleable list when it would repeat the canonical list
    /// schedule.
    pub fn rigid_builds(&self) -> RigidBuilds {
        self.rigid_builds
    }

    /// First Fit packings of the small tasks `T₃` into the two-shelf
    /// construction's second shelf.  A build packs them at most once, and
    /// not at all when their total time already proves that the second
    /// shelf overflows (see [`crate::two_shelf`]).
    pub fn t3_packings(&self) -> usize {
        self.shelf.packings
    }

    /// θ-allotments the probes computed for the malleable list.  A probe
    /// computes none when the canonical list runs and every canonical
    /// count is 1: the θ-allotment is then the canonical allotment, and
    /// the malleable list would repeat the canonical list.
    pub fn theta_refreshes(&self) -> usize {
        self.theta_refreshes
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
            + self.shelf.buffer_capacity()
            + self.canonical_list.buffer_capacity()
            + self.malleable_list.buffer_capacity()
            + self.level_packing.buffer_capacity()
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
