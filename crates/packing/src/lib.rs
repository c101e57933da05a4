//! # packing
//!
//! Packing substrates for the malleable-task scheduling algorithms of
//! Mounié, Rapine and Trystram (SPAA 1999) and for the baselines they are
//! compared against.
//!
//! The paper reduces the *non-malleable* scheduling problem (fixed allotment,
//! makespan objective) to two-dimensional strip packing, and repeatedly uses
//! three simpler packing building blocks:
//!
//! * **One-dimensional bin packing** ([`bin_packing`]): the "small" sequential
//!   tasks of the two-shelf construction (canonical time ≤ ω/2) are packed on
//!   individual processors with the First Fit algorithm of Johnson et al.
//!   The paper only needs the elementary property that when First Fit opens
//!   more than one bin, the packed volume exceeds half of the opened capacity;
//!   that property is exposed and tested here.
//! * **Contiguous processor timelines** ([`timeline`]): the list scheduling
//!   algorithms of §3 allocate each task to *contiguous* processors (the
//!   paper's footnote 2) at the earliest time a wide-enough window of
//!   processors is simultaneously free, with a leftmost/rightmost tie-breaking
//!   rule.  [`timeline::ProcessorTimeline`] implements exactly that model.
//! * **Level-based strip packing** ([`strip`]): the Turek/Wolf/Yu and Ludwig
//!   baselines schedule a fixed allotment with a strip-packing heuristic.  We
//!   provide Next-Fit-Decreasing-Height and First-Fit-Decreasing-Height level
//!   algorithms (Coffman–Garey–Johnson–Tarjan), which are the classical
//!   practical stand-ins for Steinberg's absolute 2-approximation used by
//!   Ludwig (see README "Deviations from the paper").
//! * **Interval reservations** ([`reservations`]): the online engine's
//!   resource model — per-processor sorted busy/free interval sets with
//!   duration-aware contiguous-window queries inside holes, revocable
//!   reservation handles (cancel/truncate), and a frontier-compatible mode
//!   that reproduces [`timeline::ProcessorTimeline`] exactly for the offline
//!   list algorithms.
//!
//! The crate is deliberately independent of the task model: it works on plain
//! numbers (`f64` sizes/heights, `usize` widths) so it can be reused and
//! tested in isolation.

#![warn(missing_docs)]

pub mod bin_packing;
pub mod rect;
pub mod reservations;
pub mod shelf;
pub mod strip;
pub mod timeline;

pub use bin_packing::{first_fit, BinPacking};
pub use rect::Rect;
pub use reservations::{HolePolicy, ReservationId, ReservationTimeline, TimelineStats};
pub use shelf::Shelf;
pub use strip::{ffdh, nfdh, Placement, StripPacking};
pub use timeline::ProcessorTimeline;
