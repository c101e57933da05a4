//! The knapsack-based two-shelf construction of §4 of the paper.
//!
//! When the canonical λ-area is large, the paper abandons general list
//! scheduling and *imposes* the schedule structure: two consecutive shelves,
//! the first of length `ω` and the second of length `λ·ω`.  Every task is
//! assigned to one of the shelves; the only non-trivial decision is which of
//! the "large" tasks (canonical execution time above `λ·ω`) are compressed
//! onto more processors so that they fit in the short second shelf.  That
//! selection is exactly a knapsack problem (`K(λ)` in the paper):
//!
//! * **items** — tasks of `T₁` (canonical time `> λ·ω`);
//! * **weight** — `d_j`, the minimal processor count running the task within
//!   `λ·ω`;
//! * **profit** — `q_j`, the canonical processor count freed in the first
//!   shelf when the task moves to the second one;
//! * **capacity** — the processors of the second shelf left over after the
//!   medium tasks (`T₂`) and the First-Fit-packed small tasks (`T₃`) are
//!   placed there;
//! * **target** — the selected profit must reach `p₁ = Σ_{T₁} q_j − m`, so
//!   that the tasks remaining in the first shelf fit on `m` processors.
//!
//! The module implements the full §4 pipeline: canonical partition, the
//! "trivial solution" scan (§4.5), the primal knapsack, the dual
//! (minimum-weight covering) knapsack used when an approximate primal
//! resolution misses the target, and the final schedule assembly.  The
//! resulting schedule has makespan at most `(1 + λ)·ω`, which for the paper's
//! choice `λ = √3 − 1` is `√3·ω`.
//!
//! A second shelf that cannot hold `T₂` and `T₃` (`m₂ + m₃ > m`) fails the
//! build: the `p₁ ≤ 0` schedule and the knapsack need it to fit, and a
//! trivial solution needs `p₁ > 0` and a task with `q_τ ≥ p₁ + m₂ + m₃`,
//! more than the `m` processors any count is at most.
//!
//! When `T₃` is packed.  First Fit of `T₃` into the second shelf's columns
//! of height `λ·ω` is the costly step of a build when small tasks abound,
//! and a build runs it at most once: the partition keeps each task's column,
//! and the assembly places `T₃` from them.  A build does not run it at all
//! when `T₃`'s summed time proves that First Fit needs more than the
//! `m − m₂` columns `T₂` leaves free, since the build fails whatever the
//! packing.  [`Partition::compute`] always packs, so its `m₃` is exact.
//!
//! A build writes its schedule into a [`ProbeWorkspace`]; the MRT probe
//! copies it out only when the two-shelf branch wins, so a losing build
//! allocates nothing once the workspace has grown.

use crate::canonical::CanonicalAllotment;
use crate::error::{Error, Result};
use crate::instance::Instance;
use crate::schedule::{ProcessorRange, Schedule, ScheduledTask};
use crate::task::TaskId;
use crate::workspace::ProbeWorkspace;
use knapsack::{Item, Strategy};
use packing::bin_packing::first_fit_into;

/// Parameters of the two-shelf construction.
#[derive(Debug, Clone, Copy)]
pub struct TwoShelfParams {
    /// The second-shelf length as a fraction of `ω`.  The paper's choice is
    /// `λ = √3 − 1 ≈ 0.732`, giving the overall `√3` guarantee; any value in
    /// `(1/2, 1]` yields a structurally valid schedule of length `(1+λ)·ω`.
    pub lambda: f64,
    /// How the knapsack is solved (exact DP, FPTAS, or automatic switch).
    pub strategy: Strategy,
}

impl Default for TwoShelfParams {
    fn default() -> Self {
        TwoShelfParams {
            lambda: 3f64.sqrt() - 1.0,
            strategy: Strategy::default(),
        }
    }
}

impl TwoShelfParams {
    /// Validate the λ parameter.
    pub fn validated(self) -> Result<Self> {
        if !(self.lambda > 0.5 && self.lambda <= 1.0 + 1e-12) {
            return Err(Error::InvalidParameter {
                name: "lambda",
                value: self.lambda,
            });
        }
        Ok(self)
    }
}

/// How the feasible λ-schedule was obtained (reported for branch statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TwoShelfKind {
    /// `p₁ ≤ 0`: the first shelf holds all of `T₁` without any compression.
    EmptyGamma,
    /// A single large task moved to the second shelf unlocked everything
    /// (the "trivial solutions" of §4.5).
    Trivial,
    /// The primal knapsack `K(λ)` reached the profit target.
    Knapsack,
    /// The dual covering knapsack `K'(λ)` produced a fitting selection.
    DualKnapsack,
}

/// The canonical partition of §4.1 together with its aggregate quantities.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Partition {
    /// Tasks with canonical execution time `> λ·ω` (the knapsack items).
    pub t1: Vec<TaskId>,
    /// Tasks with canonical execution time in `(ω/2, λ·ω]`.
    pub t2: Vec<TaskId>,
    /// Small sequential tasks (canonical time `≤ ω/2`).
    pub t3: Vec<TaskId>,
    /// `Σ_{T₁} q_j − m`: the number of canonical processors of `T₁` exceeding
    /// the machine (the knapsack profit target when positive).
    pub p1: i64,
    /// `Σ_{T₂} q_j`: second-shelf processors consumed by the medium tasks.
    pub m2: usize,
    /// Processors needed to First-Fit-pack `T₃` under the deadline `λ·ω`.
    pub m3: usize,
    /// `m − m2 − m3`: second-shelf processors left for compressed `T₁` tasks
    /// (negative when the structure is impossible for this `λ` and `ω`).
    pub shelf2_capacity: i64,
    /// Whether each task, by id, is in `T₃`.
    in_t3: Vec<bool>,
    /// `T₃`'s canonical times summed in id order: its work, since every
    /// `T₃` task runs on one processor.
    t3_work: f64,
    /// The second-shelf column First Fit gave each `T₃` task, by position
    /// in `t3`.
    t3_columns: Vec<usize>,
}

impl Partition {
    /// Compute the partition for a canonical allotment and a given λ.
    pub fn compute(instance: &Instance, canonical: &CanonicalAllotment, lambda: f64) -> Partition {
        let mut partition = Partition::default();
        partition.classify(instance, canonical, lambda);
        partition.pack(instance, canonical, lambda, &mut FirstFitScratch::default());
        partition
    }

    /// Refill the task sets, `p₁`, `m₂` and `T₃`'s work in place, reusing
    /// the buffers; `m₃` and the second-shelf capacity wait for
    /// [`Partition::pack`].
    fn classify(&mut self, instance: &Instance, canonical: &CanonicalAllotment, lambda: f64) {
        let omega = canonical.omega;
        // Any set may hold every task at some guess: size each for that
        // once, so moving the guess never grows them.
        let n = canonical.times.len();
        for set in [
            &mut self.t1,
            &mut self.t2,
            &mut self.t3,
            &mut self.t3_columns,
        ] {
            set.clear();
            set.reserve(n);
        }
        self.in_t3.clear();
        self.in_t3.reserve(n);
        let (mut q1, mut m2, mut t3_work) = (0i64, 0usize, 0.0f64);
        for (id, &time) in canonical.times.iter().enumerate() {
            let q = canonical.allotment.processors(id);
            let small = if time > lambda * omega + 1e-12 {
                self.t1.push(id);
                q1 += q as i64;
                false
            } else if time > 0.5 * omega + 1e-12 || q > 1 {
                self.t2.push(id);
                m2 += q;
                false
            } else {
                self.t3.push(id);
                t3_work += time;
                true
            };
            self.in_t3.push(small);
        }
        self.p1 = q1 - instance.processors() as i64;
        self.m2 = m2;
        self.t3_work = t3_work;
    }

    /// First-Fit-pack `T₃` into second-shelf columns of height `λ·ω`,
    /// keeping each task's column, and set `m₃` and the second-shelf
    /// capacity.
    fn pack(
        &mut self,
        instance: &Instance,
        canonical: &CanonicalAllotment,
        lambda: f64,
        scratch: &mut FirstFitScratch,
    ) {
        scratch.load_t3_times(self, canonical);
        self.m3 = if self.t3.is_empty() {
            0
        } else {
            first_fit_into(
                &scratch.t3_times,
                lambda * canonical.omega,
                &mut self.t3_columns,
                &mut scratch.residual,
            )
        };
        self.shelf2_capacity = instance.processors() as i64 - self.m2 as i64 - self.m3 as i64;
    }

    /// Total capacity of the owned buffers (allocation-tracking telemetry).
    pub(crate) fn buffer_capacity(&self) -> usize {
        self.t1.capacity()
            + self.t2.capacity()
            + self.t3.capacity()
            + self.in_t3.capacity()
            + self.t3_columns.capacity()
    }
}

/// Whether First Fit must open more than `free` columns of height
/// `capacity` for `count` items whose sizes, summed in `f64`, total `sum`.
/// `true` is a proof; `false` proves nothing.
///
/// First Fit can fill a column beyond `capacity` in three ways:
///
/// * it accepts an item exceeding the column's residual by up to its
///   `1e-9` slack;
/// * it clamps a residual driven below zero back to zero, which forgives
///   that excess, so the next item may exceed the residual again: the
///   slack is granted per item, not per column;
/// * its test `residual ≥ size − 1e-9` and its update `residual − size`
///   each round by at most `ε/2` of their result (`ε` is
///   [`f64::EPSILON`]), which is at most about `capacity + 1e-9`, since
///   First Fit refuses larger items; an item's excess takes one of the two.
///
/// So each item adds less than `g = 1e-9 + ε·(capacity + 1e-9)` beyond the
/// columns' height, and `k` columns hold at most `k·capacity + count·g`:
/// an exact total above `free·capacity + count·g` needs more than `free`
/// columns.  Summing `count` positive sizes in `f64` overstates their
/// exact total by a factor of at most `1 + count·ε`, and the seven
/// roundings of the threshold below lower it by a factor of at most
/// `1 − 3.5·ε`; the factor `1 + (count + 8)·ε` covers both.  A negative
/// `free` needs no proof: any packing opens more columns.
fn first_fit_needs_more(sum: f64, count: usize, capacity: f64, free: i64) -> bool {
    let per_item = 1e-9 + f64::EPSILON * (capacity + 1e-9);
    let rounding = 1.0 + (count as f64 + 8.0) * f64::EPSILON;
    sum > (free as f64 * capacity + count as f64 * per_item) * rounding
}

/// The inefficiency factor of §4.2: the ratio between the work of a set of
/// tasks under a given allotment and its canonical work.  It measures how much
/// area is wasted by compressing tasks below their canonical execution time
/// and is the quantity the existence proofs (Lemmas 2–4) control.
pub fn inefficiency_factor(
    instance: &Instance,
    canonical: &CanonicalAllotment,
    tasks: &[TaskId],
    counts: &[usize],
) -> f64 {
    assert_eq!(tasks.len(), counts.len());
    let canonical_work: f64 = tasks
        .iter()
        .map(|&id| canonical.allotment.work(instance, id))
        .sum();
    if canonical_work <= 0.0 {
        return 1.0;
    }
    let actual_work: f64 = tasks
        .iter()
        .zip(counts)
        .map(|(&id, &p)| instance.work(id, p))
        .sum();
    actual_work / canonical_work
}

/// A constructed two-shelf schedule plus provenance information.
#[derive(Debug, Clone)]
pub struct TwoShelfSchedule {
    /// The schedule itself (makespan ≤ `(1 + λ)·ω`).
    pub schedule: Schedule,
    /// Which §4 mechanism produced it.
    pub kind: TwoShelfKind,
    /// The tasks moved from `T₁` to the second shelf (the set `Γ`).
    pub gamma: Vec<TaskId>,
}

/// Attempt to build a λ-schedule for the guess `ω`.
///
/// * `Err(_)` — the canonical allotment does not exist for `ω` (a certificate
///   that `OPT > ω`).
/// * `Ok(None)` — the two-shelf structure could not be realised (this is *not*
///   an infeasibility certificate; the caller falls back to list scheduling).
/// * `Ok(Some(result))` — a valid schedule of makespan at most `(1 + λ)·ω`.
pub fn build(
    instance: &Instance,
    omega: f64,
    params: TwoShelfParams,
) -> Result<Option<TwoShelfSchedule>> {
    let params = params.validated()?;
    let canonical = CanonicalAllotment::compute(instance, omega)?;
    Ok(build_with_canonical(instance, &canonical, params))
}

/// Same as [`build`], reusing an already computed canonical allotment.
pub fn build_with_canonical(
    instance: &Instance,
    canonical: &CanonicalAllotment,
    params: TwoShelfParams,
) -> Option<TwoShelfSchedule> {
    build_with_canonical_in(instance, canonical, params, &mut ProbeWorkspace::new())
}

/// Same as [`build_with_canonical`], with every recurring buffer — the
/// partition, the `d_j` table, the knapsack items and DP tables, the First
/// Fit scratch and the schedule under construction — borrowed from
/// `workspace`, so that repeated builds (one per oracle probe) stop
/// allocating once the buffers reach steady-state size, apart from the
/// copy of the schedule and of `Γ` returned here.
pub fn build_with_canonical_in(
    instance: &Instance,
    canonical: &CanonicalAllotment,
    params: TwoShelfParams,
    workspace: &mut ProbeWorkspace,
) -> Option<TwoShelfSchedule> {
    let shelf = &mut workspace.shelf;
    let kind = shelf.build(instance, canonical, params)?;
    Some(TwoShelfSchedule {
        schedule: shelf.schedule()?.clone(),
        kind,
        gamma: shelf.gamma.tasks.iter().map(|&(_, id)| id).collect(),
    })
}

/// Every buffer of the two-shelf construction, kept in a
/// [`ProbeWorkspace`] across probes, with the last schedule built.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShelfBuffers {
    /// Two-shelf partition of §4.1, refilled in place on every build.
    partition: Partition,
    /// Minimal second-shelf processor counts `d_j` of the `T₁` tasks.
    d: Vec<Option<usize>>,
    /// Knapsack items of `K(λ)`.
    items: Vec<Item>,
    /// `(slot in T₁, task id)` of every knapsack item.
    item_tasks: Vec<(usize, TaskId)>,
    /// DP tables of the primal and dual knapsack solvers.
    knapsack: knapsack::DpWorkspace,
    /// The set `Γ` of the last build.
    gamma: Gamma,
    /// First Fit and column scratch.
    scratch: FirstFitScratch,
    /// The schedule under construction; after a build that returned
    /// `Some`, its schedule.
    schedule: Option<Schedule>,
    /// Packings of `T₃` into the second shelf so far.
    pub(crate) packings: usize,
}

/// The set `Γ` of `T₁` tasks moved to the second shelf.
#[derive(Debug, Clone, Default)]
struct Gamma {
    /// `(slot in T₁, task id)` of each task, in placement order.
    tasks: Vec<(usize, TaskId)>,
    /// Whether each `T₁` task, by slot, is in `Γ`.
    in_slot: Vec<bool>,
}

impl Gamma {
    /// Make the set `picks`, for a `T₁` of `t1_len` tasks.
    fn set(&mut self, t1_len: usize, picks: impl IntoIterator<Item = (usize, TaskId)>) {
        self.tasks.clear();
        self.tasks.extend(picks);
        self.in_slot.clear();
        self.in_slot.resize(t1_len, false);
        for &(slot, _) in &self.tasks {
            self.in_slot[slot] = true;
        }
    }
}

/// First Fit input and residuals, and the per-column time offsets when
/// stacking `T₃` tasks onto a shelf.
#[derive(Debug, Clone, Default)]
struct FirstFitScratch {
    /// Canonical times of the `T₃` tasks, input to First Fit.
    t3_times: Vec<f64>,
    /// Columns of the trivial solutions' first-shelf packing.
    columns: Vec<usize>,
    /// First Fit residual-capacity scratch.
    residual: Vec<f64>,
    /// Per-column time offsets.
    offsets: Vec<f64>,
}

impl FirstFitScratch {
    /// Refill `t3_times` with the canonical times of `partition`'s `T₃`.
    fn load_t3_times(&mut self, partition: &Partition, canonical: &CanonicalAllotment) {
        self.t3_times.clear();
        self.t3_times
            .extend(partition.t3.iter().map(|&id| canonical.times[id]));
    }

    /// Empty `offsets` and size it for `columns` columns.
    fn reset_offsets(&mut self, columns: usize, m: usize) {
        self.offsets.clear();
        // At most one column per processor: sized once for the machine.
        self.offsets.reserve(m);
        self.offsets.resize(columns, 0.0);
    }

    fn buffer_capacity(&self) -> usize {
        self.t3_times.capacity()
            + self.columns.capacity()
            + self.residual.capacity()
            + self.offsets.capacity()
    }
}

impl ShelfBuffers {
    /// The schedule of the last build, when it returned `Some`.
    pub(crate) fn schedule(&self) -> Option<&Schedule> {
        self.schedule.as_ref()
    }

    /// Total capacity of the owned buffers (allocation-tracking telemetry).
    pub(crate) fn buffer_capacity(&self) -> usize {
        self.partition.buffer_capacity()
            + self.d.capacity()
            + self.items.capacity()
            + self.item_tasks.capacity()
            + self.knapsack.capacity_signature()
            + self.gamma.tasks.capacity()
            + self.gamma.in_slot.capacity()
            + self.scratch.buffer_capacity()
            + self.schedule.as_ref().map_or(0, Schedule::buffer_capacity)
    }

    /// Build the λ-schedule of [`build_with_canonical_in`] into
    /// [`ShelfBuffers::schedule`], with `Γ` kept beside it, and return how
    /// it was obtained; `None` when the structure cannot be realised.
    pub(crate) fn build(
        &mut self,
        instance: &Instance,
        canonical: &CanonicalAllotment,
        params: TwoShelfParams,
    ) -> Option<TwoShelfKind> {
        let lambda = params.lambda;
        let omega = canonical.omega;
        let m = instance.processors();
        let ShelfBuffers {
            partition,
            d,
            items,
            item_tasks,
            knapsack: dp,
            gamma,
            scratch,
            schedule,
            packings,
        } = self;
        // Sized for every task on the first build, so that a later
        // realised build never grows it.
        let schedule = schedule.get_or_insert_with(|| Schedule::new(m));
        schedule.reset(m, canonical.times.len());
        partition.classify(instance, canonical, lambda);
        // A second shelf that cannot hold T₂ and T₃ fails the build (see
        // the module docs): skip packing a T₃ whose total time proves it.
        let free = m as i64 - partition.m2 as i64;
        if first_fit_needs_more(partition.t3_work, partition.t3.len(), lambda * omega, free) {
            return None;
        }
        *packings += usize::from(!partition.t3.is_empty());
        partition.pack(instance, canonical, lambda, scratch);
        let partition = &*partition;

        // The second shelf must at least hold the medium and small tasks.
        if partition.shelf2_capacity < 0 {
            return None;
        }

        // Minimal processor count running each T1 task within λ·ω (shelf 2 width).
        d.clear();
        d.extend(partition.t1.iter().map(|&id| {
            instance
                .task(id)
                .canonical_processors(lambda * omega)
                .filter(|&p| p <= m)
        }));
        let d = &*d;

        // Case 1: no compression needed at all.
        if partition.p1 <= 0 {
            gamma.set(partition.t1.len(), []);
            assemble(instance, canonical, partition, gamma, d, scratch, schedule)?;
            return Some(TwoShelfKind::EmptyGamma);
        }

        // Case 2: the trivial single-task solutions of §4.5.
        if try_trivial(
            instance, canonical, partition, lambda, scratch, schedule, gamma,
        ) {
            return Some(TwoShelfKind::Trivial);
        }

        // Case 3: the knapsack K(λ).
        let capacity = partition.shelf2_capacity as u64;
        item_tasks.clear();
        items.clear();
        for (slot, &id) in partition.t1.iter().enumerate() {
            if let Some(dj) = d[slot] {
                item_tasks.push((slot, id));
                items.push(Item {
                    weight: dj as u64,
                    profit: canonical.allotment.processors(id) as u64,
                });
            }
        }
        let target = partition.p1 as u64;

        let primal = knapsack::solve_in(items, capacity, params.strategy, dp);
        if primal.profit >= target {
            let picks = primal.selected.iter().map(|&i| item_tasks[i]);
            gamma.set(partition.t1.len(), picks);
            assemble(instance, canonical, partition, gamma, d, scratch, schedule)?;
            return Some(TwoShelfKind::Knapsack);
        }

        // Case 4: the dual covering knapsack K'(λ) (§4.4, Lemma 2): reach the
        // profit target with minimal total width and check it still fits.
        if let Some(dual) = knapsack::solve_dual_min_weight_in(items, target, dp) {
            if dual.weight <= capacity {
                let picks = dual.selected.iter().map(|&i| item_tasks[i]);
                gamma.set(partition.t1.len(), picks);
                assemble(instance, canonical, partition, gamma, d, scratch, schedule)?;
                return Some(TwoShelfKind::DualKnapsack);
            }
        }

        None
    }
}

/// The trivial solutions of §4.5, for `p₁ > 0`: a single task `τ ∈ T₁`
/// whose canonical processor count is so large that moving it alone to the
/// second shelf lets *every* other task sit in the first shelf at its
/// canonical allotment.  On success the schedule is in `schedule` and
/// `Γ = {τ}` in `gamma`.
fn try_trivial(
    instance: &Instance,
    canonical: &CanonicalAllotment,
    partition: &Partition,
    lambda: f64,
    scratch: &mut FirstFitScratch,
    schedule: &mut Schedule,
    gamma: &mut Gamma,
) -> bool {
    let omega = canonical.omega;
    let m = instance.processors();
    let threshold = partition.p1 + partition.m2 as i64 + partition.m3 as i64;
    for (slot, &tau) in partition.t1.iter().enumerate() {
        let q_tau = canonical.allotment.processors(tau) as i64;
        if q_tau < threshold {
            continue;
        }
        let d_tau = match instance
            .task(tau)
            .canonical_processors(lambda * omega)
            .filter(|&p| p <= m)
        {
            Some(d) => d,
            None => continue,
        };
        // Shelf 1: everything except τ, at canonical counts; small tasks are
        // First-Fit packed under the full shelf length ω.
        schedule.reset(m, canonical.times.len());
        let mut cursor = 0usize;
        for (id, _) in instance.iter() {
            if id == tau || partition.in_t3[id] {
                continue;
            }
            let q = canonical.allotment.processors(id);
            if cursor + q > m {
                return false; // should not happen given the threshold test
            }
            schedule.push(ScheduledTask {
                task: id,
                start: 0.0,
                duration: canonical.times[id],
                processors: ProcessorRange::new(cursor, q),
            });
            cursor += q;
        }
        if !partition.t3.is_empty() {
            scratch.load_t3_times(partition, canonical);
            let bins = first_fit_into(
                &scratch.t3_times,
                omega,
                &mut scratch.columns,
                &mut scratch.residual,
            );
            if cursor + bins > m {
                return false;
            }
            scratch.reset_offsets(bins, m);
            for (&id, &bin) in partition.t3.iter().zip(&scratch.columns) {
                schedule.push(ScheduledTask {
                    task: id,
                    start: scratch.offsets[bin],
                    duration: canonical.times[id],
                    processors: ProcessorRange::new(cursor + bin, 1),
                });
                scratch.offsets[bin] += canonical.times[id];
            }
        }
        // Shelf 2: τ alone, compressed to d_τ processors.
        schedule.push(ScheduledTask {
            task: tau,
            start: omega,
            duration: instance.time(tau, d_tau),
            processors: ProcessorRange::new(0, d_tau),
        });
        gamma.set(partition.t1.len(), [(slot, tau)]);
        return true;
    }
    false
}

/// Assemble the λ-schedule into `schedule` once the set `Γ` has been
/// decided, placing `T₃` in the columns the partition's packing gave it.
fn assemble(
    instance: &Instance,
    canonical: &CanonicalAllotment,
    partition: &Partition,
    gamma: &Gamma,
    d: &[Option<usize>],
    scratch: &mut FirstFitScratch,
    schedule: &mut Schedule,
) -> Option<()> {
    let omega = canonical.omega;
    let m = instance.processors();
    schedule.reset(m, canonical.times.len());

    // --- First shelf: T1 \ Γ at canonical counts, side by side from 0.
    let mut cursor1 = 0usize;
    for (&id, &moved) in partition.t1.iter().zip(&gamma.in_slot) {
        if moved {
            continue;
        }
        let q = canonical.allotment.processors(id);
        if cursor1 + q > m {
            return None;
        }
        schedule.push(ScheduledTask {
            task: id,
            start: 0.0,
            duration: canonical.times[id],
            processors: ProcessorRange::new(cursor1, q),
        });
        cursor1 += q;
    }

    // --- Second shelf: Γ compressed to d_j, T2 at canonical counts, T3 in
    //     its single-processor First Fit columns of height λ·ω.
    let mut cursor2 = 0usize;
    for &(slot, id) in &gamma.tasks {
        let dj = d[slot]?;
        if cursor2 + dj > m {
            return None;
        }
        schedule.push(ScheduledTask {
            task: id,
            start: omega,
            duration: instance.time(id, dj),
            processors: ProcessorRange::new(cursor2, dj),
        });
        cursor2 += dj;
    }
    for &id in &partition.t2 {
        let q = canonical.allotment.processors(id);
        if cursor2 + q > m {
            return None;
        }
        schedule.push(ScheduledTask {
            task: id,
            start: omega,
            duration: canonical.times[id],
            processors: ProcessorRange::new(cursor2, q),
        });
        cursor2 += q;
    }
    if !partition.t3.is_empty() {
        if cursor2 + partition.m3 > m {
            return None;
        }
        scratch.reset_offsets(partition.m3, m);
        for (&id, &bin) in partition.t3.iter().zip(&partition.t3_columns) {
            schedule.push(ScheduledTask {
                task: id,
                start: omega + scratch.offsets[bin],
                duration: canonical.times[id],
                processors: ProcessorRange::new(cursor2 + bin, 1),
            });
            scratch.offsets[bin] += canonical.times[id];
        }
    }

    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds;
    use crate::task::SpeedupProfile;
    use packing::bin_packing::first_fit;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const LAMBDA: f64 = 0.7320508075688772; // √3 − 1

    fn params() -> TwoShelfParams {
        TwoShelfParams::default()
    }

    /// A machine-filling instance that needs compression: m = 6, three large
    /// tasks whose canonical counts add up to more than m.
    fn compression_instance() -> Instance {
        let wide = SpeedupProfile::new(vec![2.7, 1.4, 0.95, 0.72, 0.6, 0.55]).unwrap();
        Instance::from_profiles(
            vec![
                wide.clone(),
                wide.clone(),
                wide,
                SpeedupProfile::sequential(0.45).unwrap(),
                SpeedupProfile::sequential(0.4).unwrap(),
            ],
            6,
        )
        .unwrap()
    }

    #[test]
    fn params_validation() {
        assert!(TwoShelfParams {
            lambda: 0.4,
            strategy: knapsack::Strategy::Exact
        }
        .validated()
        .is_err());
        assert!(TwoShelfParams {
            lambda: 1.2,
            strategy: knapsack::Strategy::Exact
        }
        .validated()
        .is_err());
        assert!(params().validated().is_ok());
    }

    #[test]
    fn partition_classifies_by_canonical_time() {
        let inst = compression_instance();
        let omega = 1.0;
        let canonical = CanonicalAllotment::compute(&inst, omega).unwrap();
        let partition = Partition::compute(&inst, &canonical, LAMBDA);
        // Each wide task: canonical q = 3 (t = 0.95 ≤ 1), time 0.95 > λ → T1.
        assert_eq!(partition.t1, vec![0, 1, 2]);
        // Sequential 0.45 and 0.4 are ≤ ω/2 → T3.
        assert_eq!(partition.t3, vec![3, 4]);
        assert!(partition.t2.is_empty());
        assert_eq!(partition.p1, 9 - 6);
        assert_eq!(partition.m2, 0);
        // Two small tasks fit one λ-column (0.45 + 0.4 > λ? 0.85 > 0.732 → two bins).
        assert_eq!(partition.m3, 2);
        assert_eq!(partition.shelf2_capacity, 4);
    }

    #[test]
    fn knapsack_branch_builds_valid_two_shelf_schedule() {
        let inst = compression_instance();
        let omega = 1.0;
        let result = build(&inst, omega, params()).unwrap();
        let two_shelf = result.expect("a λ-schedule must exist for this instance");
        assert!(two_shelf.schedule.validate(&inst).is_ok());
        assert!(
            two_shelf.schedule.makespan() <= (1.0 + LAMBDA) * omega + 1e-9,
            "makespan {} exceeds (1+λ)ω",
            two_shelf.schedule.makespan()
        );
        assert!(!two_shelf.gamma.is_empty());
        assert!(matches!(
            two_shelf.kind,
            TwoShelfKind::Knapsack | TwoShelfKind::DualKnapsack | TwoShelfKind::Trivial
        ));
    }

    #[test]
    fn empty_gamma_when_everything_fits_in_shelf_one() {
        // Big-enough machine: all canonical tasks fit side by side in shelf 1.
        let inst = Instance::from_profiles(
            vec![
                SpeedupProfile::new(vec![1.9, 0.97]).unwrap(),
                SpeedupProfile::new(vec![1.8, 0.93]).unwrap(),
                SpeedupProfile::sequential(0.3).unwrap(),
            ],
            8,
        )
        .unwrap();
        let result = build(&inst, 1.0, params()).unwrap().unwrap();
        assert_eq!(result.kind, TwoShelfKind::EmptyGamma);
        assert!(result.gamma.is_empty());
        assert!(result.schedule.validate(&inst).is_ok());
        assert!(result.schedule.makespan() <= (1.0 + LAMBDA) + 1e-9);
    }

    #[test]
    fn infeasible_omega_is_an_error() {
        let inst = compression_instance();
        assert!(build(&inst, 0.3, params()).is_err());
    }

    #[test]
    fn inefficiency_factor_is_one_for_canonical_counts() {
        let inst = compression_instance();
        let canonical = CanonicalAllotment::compute(&inst, 1.0).unwrap();
        let tasks: Vec<TaskId> = (0..inst.task_count()).collect();
        let counts: Vec<usize> = tasks
            .iter()
            .map(|&t| canonical.allotment.processors(t))
            .collect();
        let rho = inefficiency_factor(&inst, &canonical, &tasks, &counts);
        assert!((rho - 1.0).abs() < 1e-12);
        // Compressing the wide tasks to more processors can only raise it.
        let compressed: Vec<usize> = tasks
            .iter()
            .map(|&t| {
                inst.task(t)
                    .canonical_processors(LAMBDA)
                    .unwrap_or(1)
                    .min(inst.processors())
            })
            .collect();
        let rho_c = inefficiency_factor(&inst, &canonical, &tasks, &compressed);
        assert!(rho_c >= rho - 1e-12);
    }

    #[test]
    fn trivial_solution_is_found_when_one_giant_task_blocks() {
        // One giant task taking the whole machine canonically plus tiny tasks:
        // moving the giant task to shelf 2 (still on all processors, compressed
        // in time) is the trivial solution.
        let giant =
            SpeedupProfile::new(vec![5.0, 2.55, 1.72, 1.3, 1.05, 0.88, 0.76, 0.67]).unwrap();
        let inst = Instance::from_profiles(
            vec![
                giant,
                SpeedupProfile::sequential(0.35).unwrap(),
                SpeedupProfile::sequential(0.3).unwrap(),
                SpeedupProfile::sequential(0.25).unwrap(),
            ],
            8,
        )
        .unwrap();
        // At ω = 1.05 the giant task needs 6 processors canonically; with the
        // small tasks it does not trigger p1 > 0, so pick a tighter ω where it
        // needs all 8 and p1 stays ≤ 0 … instead craft ω so that q_giant = 8.
        let omega = 0.70;
        let result = build(&inst, omega, params()).unwrap();
        // Either a trivial/knapsack schedule exists or none; when it exists it
        // must be valid and within (1+λ)ω.
        if let Some(ts) = result {
            assert!(ts.schedule.validate(&inst).is_ok());
            assert!(ts.schedule.makespan() <= (1.0 + LAMBDA) * omega + 1e-9);
        }
    }

    proptest! {
        /// Whenever the construction succeeds, the schedule is valid and its
        /// makespan is at most (1+λ)·ω — the structural guarantee of §4.
        #[test]
        fn two_shelf_schedules_respect_structure(
            seq_works in prop::collection::vec(0.05f64..0.95, 1..25),
            par_works in prop::collection::vec(1.0f64..6.0, 0..8),
            m in 4usize..16,
        ) {
            let mut profiles: Vec<SpeedupProfile> = seq_works
                .iter()
                .map(|&w| SpeedupProfile::sequential(w).unwrap())
                .collect();
            profiles.extend(
                par_works
                    .iter()
                    .map(|&w| SpeedupProfile::linear(w, m).unwrap()),
            );
            let inst = Instance::from_profiles(profiles, m).unwrap();
            let lb = bounds::lower_bound(&inst);
            for factor in [1.0, 1.1, 1.3] {
                let omega = lb * factor;
                if let Ok(Some(ts)) = build(&inst, omega, params()) {
                    prop_assert!(ts.schedule.validate(&inst).is_ok());
                    prop_assert!(
                        ts.schedule.makespan() <= (1.0 + LAMBDA) * omega + 1e-6,
                        "makespan {} > (1+λ)ω = {}",
                        ts.schedule.makespan(),
                        (1.0 + LAMBDA) * omega
                    );
                }
            }
        }

        /// The paper's dichotomy, engineering version: at a generous ω (above
        /// any feasible upper bound), either the two-shelf construction
        /// succeeds, or the instance is list-friendly — its canonical λ-area
        /// is far below the knapsack regime (small tasks dominate), which is
        /// exactly when §3's list branch applies instead.
        #[test]
        fn dichotomy_at_generous_omega(
            works in prop::collection::vec(0.2f64..4.0, 1..20),
            m in 4usize..12,
        ) {
            let profiles: Vec<SpeedupProfile> = works
                .iter()
                .map(|&w| SpeedupProfile::linear(w, m).unwrap())
                .collect();
            let inst = Instance::from_profiles(profiles, m).unwrap();
            let omega = bounds::upper_bound(&inst).max(bounds::lower_bound(&inst) * 1.5);
            let canonical = CanonicalAllotment::compute(&inst, omega).unwrap();
            let two_shelf = build(&inst, omega, params()).unwrap();
            let list_friendly = canonical.satisfies_area_condition(m, 1.0);
            prop_assert!(
                two_shelf.is_some() || list_friendly,
                "neither branch applies at generous ω = {omega}"
            );
        }
    }

    /// The partition as the construction computed it before `T₃` was packed
    /// at most once per build: classification, then First Fit.
    fn reference_partition(
        instance: &Instance,
        canonical: &CanonicalAllotment,
        lambda: f64,
    ) -> Partition {
        let omega = canonical.omega;
        let m = instance.processors() as i64;
        let mut partition = Partition::default();
        for (id, &time) in canonical.times.iter().enumerate() {
            let q = canonical.allotment.processors(id);
            if time > lambda * omega + 1e-12 {
                partition.t1.push(id);
            } else if time > 0.5 * omega + 1e-12 || q > 1 {
                partition.t2.push(id);
            } else {
                partition.t3.push(id);
            }
        }
        let q1: i64 = partition
            .t1
            .iter()
            .map(|&id| canonical.allotment.processors(id) as i64)
            .sum();
        partition.m2 = partition
            .t2
            .iter()
            .map(|&id| canonical.allotment.processors(id))
            .sum();
        let t3_times: Vec<f64> = partition.t3.iter().map(|&id| canonical.times[id]).collect();
        partition.m3 = if t3_times.is_empty() {
            0
        } else {
            first_fit(&t3_times, lambda * omega).bins()
        };
        partition.p1 = q1 - m;
        partition.shelf2_capacity = m - partition.m2 as i64 - partition.m3 as i64;
        partition
    }

    /// The public fields of a partition.
    fn public_fields(p: &Partition) -> (&[TaskId], &[TaskId], &[TaskId], i64, usize, usize, i64) {
        (&p.t1, &p.t2, &p.t3, p.p1, p.m2, p.m3, p.shelf2_capacity)
    }

    /// The construction as it was before a build packed `T₃` at most once,
    /// kept as the reference of the differential test: the partition packs
    /// `T₃` and the assembly packs it again, no total-time test skips the
    /// packing, and `T₃` and `Γ` membership are found by linear scans.
    fn reference_build(
        instance: &Instance,
        canonical: &CanonicalAllotment,
        params: TwoShelfParams,
    ) -> Option<TwoShelfSchedule> {
        let lambda = params.lambda;
        let omega = canonical.omega;
        let m = instance.processors();
        let partition = reference_partition(instance, canonical, lambda);
        if partition.shelf2_capacity < 0 {
            let (schedule, gamma) = reference_trivial(instance, canonical, &partition, lambda)?;
            return Some(TwoShelfSchedule {
                schedule,
                kind: TwoShelfKind::Trivial,
                gamma,
            });
        }
        let d: Vec<Option<usize>> = partition
            .t1
            .iter()
            .map(|&id| {
                instance
                    .task(id)
                    .canonical_processors(lambda * omega)
                    .filter(|&p| p <= m)
            })
            .collect();
        let realise = |gamma: Vec<TaskId>, kind| {
            let schedule = reference_assemble(instance, canonical, &partition, &gamma, &d, lambda)?;
            Some(TwoShelfSchedule {
                schedule,
                kind,
                gamma,
            })
        };
        if partition.p1 <= 0 {
            return realise(Vec::new(), TwoShelfKind::EmptyGamma);
        }
        if let Some((schedule, gamma)) = reference_trivial(instance, canonical, &partition, lambda)
        {
            return Some(TwoShelfSchedule {
                schedule,
                kind: TwoShelfKind::Trivial,
                gamma,
            });
        }
        let capacity = partition.shelf2_capacity as u64;
        let mut item_tasks = Vec::new();
        let mut items = Vec::new();
        for (slot, &id) in partition.t1.iter().enumerate() {
            if let Some(dj) = d[slot] {
                item_tasks.push(id);
                items.push(Item {
                    weight: dj as u64,
                    profit: canonical.allotment.processors(id) as u64,
                });
            }
        }
        let target = partition.p1 as u64;
        let primal = knapsack::solve(&items, capacity, params.strategy);
        if primal.profit >= target {
            let gamma = primal.selected.iter().map(|&i| item_tasks[i]).collect();
            return realise(gamma, TwoShelfKind::Knapsack);
        }
        let dual = knapsack::solve_dual_min_weight(&items, target)?;
        if dual.weight <= capacity {
            let gamma = dual.selected.iter().map(|&i| item_tasks[i]).collect();
            return realise(gamma, TwoShelfKind::DualKnapsack);
        }
        None
    }

    /// [`try_trivial`] as it was, finding `T₃` tasks by a linear scan.
    fn reference_trivial(
        instance: &Instance,
        canonical: &CanonicalAllotment,
        partition: &Partition,
        lambda: f64,
    ) -> Option<(Schedule, Vec<TaskId>)> {
        let omega = canonical.omega;
        let m = instance.processors();
        if partition.p1 <= 0 {
            return None;
        }
        let threshold = partition.p1 + partition.m2 as i64 + partition.m3 as i64;
        for &tau in &partition.t1 {
            if (canonical.allotment.processors(tau) as i64) < threshold {
                continue;
            }
            let Some(d_tau) = instance
                .task(tau)
                .canonical_processors(lambda * omega)
                .filter(|&p| p <= m)
            else {
                continue;
            };
            let mut schedule = Schedule::new(m);
            let mut cursor = 0usize;
            for (id, _) in instance.iter() {
                if id == tau || partition.t3.contains(&id) {
                    continue;
                }
                let q = canonical.allotment.processors(id);
                if cursor + q > m {
                    return None;
                }
                schedule.push(ScheduledTask {
                    task: id,
                    start: 0.0,
                    duration: canonical.times[id],
                    processors: ProcessorRange::new(cursor, q),
                });
                cursor += q;
            }
            if !partition.t3.is_empty() {
                let t3_times: Vec<f64> =
                    partition.t3.iter().map(|&id| canonical.times[id]).collect();
                let packing = first_fit(&t3_times, omega);
                if cursor + packing.bins() > m {
                    return None;
                }
                let mut offsets = vec![0.0; packing.bins()];
                for (pos, &id) in partition.t3.iter().enumerate() {
                    let bin = packing.assignment[pos];
                    schedule.push(ScheduledTask {
                        task: id,
                        start: offsets[bin],
                        duration: canonical.times[id],
                        processors: ProcessorRange::new(cursor + bin, 1),
                    });
                    offsets[bin] += canonical.times[id];
                }
            }
            schedule.push(ScheduledTask {
                task: tau,
                start: omega,
                duration: instance.time(tau, d_tau),
                processors: ProcessorRange::new(0, d_tau),
            });
            return Some((schedule, vec![tau]));
        }
        None
    }

    /// [`assemble`] as it was: `Γ` membership and slots by linear scans,
    /// and `T₃` packed again.
    fn reference_assemble(
        instance: &Instance,
        canonical: &CanonicalAllotment,
        partition: &Partition,
        gamma: &[TaskId],
        d: &[Option<usize>],
        lambda: f64,
    ) -> Option<Schedule> {
        let omega = canonical.omega;
        let m = instance.processors();
        let mut schedule = Schedule::new(m);
        let mut cursor1 = 0usize;
        for &id in &partition.t1 {
            if gamma.contains(&id) {
                continue;
            }
            let q = canonical.allotment.processors(id);
            if cursor1 + q > m {
                return None;
            }
            schedule.push(ScheduledTask {
                task: id,
                start: 0.0,
                duration: canonical.times[id],
                processors: ProcessorRange::new(cursor1, q),
            });
            cursor1 += q;
        }
        let mut cursor2 = 0usize;
        for &id in gamma {
            let slot = partition.t1.iter().position(|&t| t == id)?;
            let dj = d[slot]?;
            if cursor2 + dj > m {
                return None;
            }
            schedule.push(ScheduledTask {
                task: id,
                start: omega,
                duration: instance.time(id, dj),
                processors: ProcessorRange::new(cursor2, dj),
            });
            cursor2 += dj;
        }
        for &id in &partition.t2 {
            let q = canonical.allotment.processors(id);
            if cursor2 + q > m {
                return None;
            }
            schedule.push(ScheduledTask {
                task: id,
                start: omega,
                duration: canonical.times[id],
                processors: ProcessorRange::new(cursor2, q),
            });
            cursor2 += q;
        }
        if !partition.t3.is_empty() {
            let t3_times: Vec<f64> = partition.t3.iter().map(|&id| canonical.times[id]).collect();
            let packing = first_fit(&t3_times, lambda * omega);
            if cursor2 + packing.bins() > m {
                return None;
            }
            let mut offsets = vec![0.0; packing.bins()];
            for (pos, &id) in partition.t3.iter().enumerate() {
                let bin = packing.assignment[pos];
                schedule.push(ScheduledTask {
                    task: id,
                    start: omega + offsets[bin],
                    duration: canonical.times[id],
                    processors: ProcessorRange::new(cursor2 + bin, 1),
                });
                offsets[bin] += canonical.times[id];
            }
        }
        Some(schedule)
    }

    /// A placement with its times as bit patterns.
    type EntryBits = (TaskId, u64, u64, usize, usize);

    /// A build's kind, `Γ`, machine and placements, floats as bit patterns.
    fn outcome_bits(
        built: &Option<TwoShelfSchedule>,
    ) -> Option<(TwoShelfKind, Vec<TaskId>, usize, Vec<EntryBits>)> {
        built.as_ref().map(|ts| {
            let entries = ts.schedule.entries().iter().map(|e| {
                let range = e.processors;
                (
                    e.task,
                    e.start.to_bits(),
                    e.duration.to_bits(),
                    range.first,
                    range.count,
                )
            });
            (
                ts.kind,
                ts.gamma.clone(),
                ts.schedule.processors(),
                entries.collect(),
            )
        })
    }

    /// A differential case, shaped at ω = 1.  A third of the cases call for
    /// the knapsack: a task as wide as the machine, which no second-shelf
    /// width fits, beside one knapsack item of a third to half the machine
    /// and a few of two processors, which the coarse FPTAS drops, and a few
    /// small tasks.  The others mix long tasks (sequential ones, which no second-shelf width
    /// fits either, linear ones, sometimes a giant one for a trivial
    /// solution), medium tasks, and small tasks that are random or fill
    /// the second shelf's free columns up to First Fit's `1e-9` slack.  The
    /// knapsack strategy varies, and its coarsest FPTAS lets the dual
    /// knapsack win.
    fn differential_case(seed: u64) -> (Instance, TwoShelfParams) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m: usize = rng.gen_range(2..13);
        let fptas = Strategy::Fptas(0.99);
        let strategy = [Strategy::Exact, fptas, fptas, Strategy::default()][rng.gen_range(0..4)];
        let params = TwoShelfParams {
            strategy,
            ..TwoShelfParams::default()
        };
        let sequential = |time: f64| SpeedupProfile::sequential(time).unwrap();
        let linear = |work: f64| SpeedupProfile::linear(work, m).unwrap();
        let mut profiles = Vec::new();
        if rng.gen_bool(0.35) {
            profiles.push(linear(m as f64 - rng.gen_range(0.05..0.9)));
            profiles.push(linear(m as f64 * rng.gen_range(0.3..0.5)));
            for _ in 0..rng.gen_range(1..4) {
                profiles.push(linear(rng.gen_range(1.47..2.0)));
            }
            for _ in 0..rng.gen_range(0..4) {
                profiles.push(sequential(rng.gen_range(0.02..0.5)));
            }
            return (Instance::from_profiles(profiles, m).unwrap(), params);
        }
        if rng.gen_bool(0.3) {
            profiles.push(linear(m as f64 * rng.gen_range(0.5..0.72)));
        }
        for _ in 0..rng.gen_range(0..4) {
            profiles.push(sequential(rng.gen_range(0.75..1.0)));
        }
        for _ in 0..rng.gen_range(0..4) {
            profiles.push(linear(rng.gen_range(0.5..0.9 * m as f64)));
        }
        for _ in 0..rng.gen_range(0..3) {
            profiles.push(sequential(rng.gen_range(0.51..0.73)));
        }
        // The second-shelf columns, of height λ, that T₂ leaves free at ω = 1.
        let column = params.lambda;
        let m2: usize = profiles
            .iter()
            .filter_map(|profile| {
                let q = profile.canonical_processors(1.0)?;
                let t = profile.time(q);
                (t <= column + 1e-12 && (t > 0.5 + 1e-12 || q > 1)).then_some(q)
            })
            .sum();
        let free = m.saturating_sub(m2);
        match rng.gen_range(0..3) {
            0 => {
                for _ in 0..rng.gen_range(0..30) {
                    profiles.push(sequential(rng.gen_range(0.02..0.5)));
                }
            }
            1 => {
                // Two tasks of (λ + δ)/2 share a column while δ is within
                // the slack and need one each beyond it; about one pair
                // per free column puts the total on both sides of the
                // margin.
                let delta = [0.0, 0.4e-9, 0.9e-9, 1.1e-9, 2e-9, 3e-9][rng.gen_range(0..6)];
                let pairs = (free + rng.gen_range(0..3)).saturating_sub(1);
                for _ in 0..2 * pairs {
                    profiles.push(sequential(0.5 * (column + delta)));
                }
            }
            _ => {
                // Fill the free columns exactly, then add tasks of at most
                // 1e-9: First Fit's clamp of the negative residual puts
                // every one of them in the first, full column.
                for _ in 0..2 * free {
                    profiles.push(sequential(0.5 * column));
                }
                let tiny = [0.5e-9, 1e-9][rng.gen_range(0..2)];
                for _ in 0..rng.gen_range(0..20) {
                    profiles.push(sequential(tiny));
                }
            }
        }
        if profiles.is_empty() {
            profiles.push(sequential(0.3));
        }
        (Instance::from_profiles(profiles, m).unwrap(), params)
    }

    /// The differential cases reach every outcome of the construction and
    /// both sides of the total-time test: builds it skips, builds whose
    /// packing finds the second shelf full, and realised builds whose `T₃`
    /// exceeds the free columns' height within First Fit's slack.
    #[test]
    fn differential_cases_reach_every_outcome() {
        let mut kinds = Vec::new();
        let (mut skipped, mut packed_and_full, mut fit_by_slack) = (0, 0, 0);
        for seed in 0..2000 {
            let (inst, params) = differential_case(seed);
            let canonical = CanonicalAllotment::compute(&inst, 1.0).unwrap();
            let mut workspace = ProbeWorkspace::new();
            let built = build_with_canonical_in(&inst, &canonical, params, &mut workspace);
            let partition = reference_partition(&inst, &canonical, params.lambda);
            let packed = workspace.t3_packings() > 0;
            if let Some(ts) = &built {
                if !kinds.contains(&ts.kind) {
                    kinds.push(ts.kind);
                }
            }
            skipped += usize::from(!partition.t3.is_empty() && !packed);
            packed_and_full += usize::from(packed && partition.shelf2_capacity < 0);
            let t3_time: f64 = partition.t3.iter().map(|&id| canonical.times[id]).sum();
            let free = inst.processors() as f64 - partition.m2 as f64;
            fit_by_slack += usize::from(built.is_some() && t3_time > free * params.lambda);
        }
        assert_eq!(kinds.len(), 4, "{kinds:?}");
        assert!(skipped > 0 && packed_and_full > 0 && fit_by_slack > 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]
        /// A build through a reused workspace returns what the construction
        /// returned before it packed `T₃` at most once, bit for bit: the
        /// same `Option`, kind, `Γ` and schedule, at the guess the case was
        /// shaped for and at two others; and `Partition::compute` keeps
        /// the exact `m₃`.
        #[test]
        fn build_matches_the_reference_construction(seed in 0u64..1_000_000) {
            let (inst, params) = differential_case(seed);
            let mut workspace = ProbeWorkspace::new();
            for omega in [1.0, 0.9, 1.25] {
                let Ok(canonical) = CanonicalAllotment::compute(&inst, omega) else {
                    continue;
                };
                let built = build_with_canonical_in(&inst, &canonical, params, &mut workspace);
                let reference = reference_build(&inst, &canonical, params);
                prop_assert_eq!(outcome_bits(&built), outcome_bits(&reference), "ω = {}", omega);
                let partition = Partition::compute(&inst, &canonical, params.lambda);
                let expected = reference_partition(&inst, &canonical, params.lambda);
                prop_assert_eq!(public_fields(&partition), public_fields(&expected));
            }
        }
    }
}
