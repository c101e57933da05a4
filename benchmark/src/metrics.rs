//! The benchmark's metrics: the end-to-end table with its regression bounds
//! and the per-layer list.  `BENCHMARK.json` at the repository root must
//! agree with these tables (checked by the crate's tests).

use crate::workloads::WORKLOADS;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// `"higher"` or `"lower"`, as in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// Parse `"higher"` or `"lower"`.
    pub fn parse(text: &str) -> Option<Better> {
        match text {
            "higher" => Some(Better::Higher),
            "lower" => Some(Better::Lower),
            _ => None,
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
    /// Workloads that report it.
    pub workloads: &'static [&'static str],
    /// Whether the metric is in the one-line result every run prints last
    /// (and hence in `BENCHMARK.json`): only metrics every workload reports.
    pub headline: bool,
}

const OFFLINE: &[&str] = &["offline-mrt"];
const EPOCH: &[&str] = &["online-poisson", "online-reallot"];

/// The end-to-end metrics, in report order.
pub const END_TO_END: [EndToEnd; 11] = [
    EndToEnd {
        name: "tasks_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        workloads: &WORKLOADS,
        headline: true,
    },
    EndToEnd {
        name: "solves_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
        workloads: OFFLINE,
        headline: false,
    },
    EndToEnd {
        name: "solve_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
        workloads: OFFLINE,
        headline: false,
    },
    EndToEnd {
        name: "solve_ms_p95",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
        workloads: OFFLINE,
        headline: false,
    },
    EndToEnd {
        name: "epoch_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
        workloads: EPOCH,
        headline: false,
    },
    EndToEnd {
        name: "epoch_ms_p99",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
        workloads: EPOCH,
        headline: false,
    },
    EndToEnd {
        name: "mean_flow_time",
        unit: "sim_time",
        better: Better::Lower,
        bound: 0.2,
        workloads: &WORKLOADS,
        headline: true,
    },
    EndToEnd {
        name: "ratio_mean",
        unit: "ratio",
        better: Better::Lower,
        bound: 1e-9,
        workloads: OFFLINE,
        headline: false,
    },
    EndToEnd {
        name: "failed_share",
        unit: "fraction",
        better: Better::Lower,
        bound: 0.0,
        workloads: &WORKLOADS,
        headline: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
        workloads: &WORKLOADS,
        headline: true,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        workloads: &WORKLOADS,
        headline: true,
    },
];

/// The end-to-end metric called `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// One per-layer metric: name, unit, direction of improvement.
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher, Lower};

/// The per-layer metrics of the traced run, in report order.  A workload
/// that does not exercise a layer reports 0 for its metrics.
pub const PER_LAYER: [PerLayer; 55] = [
    ("workload.generate_s", "s", Lower),
    ("online.engine.self_s", "s", Lower),
    ("online.engine.self_share", "ratio", Lower),
    ("online.engine.events", "count", Lower),
    ("online.engine.us_per_event", "us", Lower),
    ("online.policy.plans", "count", Lower),
    ("online.policy.self_s", "s", Lower),
    ("online.policy.pending_mean", "count", Lower),
    ("online.policy.commitments", "count", Lower),
    ("solver.solves", "count", Lower),
    ("solver.solve_s", "s", Lower),
    ("solver.solve_us_p50", "us", Lower),
    ("solver.solve_us_p99", "us", Lower),
    ("solver.probes_per_solve", "count", Lower),
    ("solver.tasks_per_solve", "count", Lower),
    ("dual.search_self_s", "s", Lower),
    ("dual.probes", "count", Lower),
    ("dual.probe_s", "s", Lower),
    ("dual.feasible_probe_share", "ratio", Higher),
    ("bounds.feasibility_s", "s", Lower),
    ("canonical.compute_s", "s", Lower),
    ("two_shelf.build_s", "s", Lower),
    ("two_shelf.realised_share", "ratio", Higher),
    ("list.canonical_s", "s", Lower),
    ("mla.build_s", "s", Lower),
    ("mrt.level_packing_s", "s", Lower),
    ("mrt.replay_s", "s", Lower),
    ("mrt.replay_to_probe_ratio", "ratio", Lower),
    ("mrt.branch_win_share.two_shelf", "ratio", Higher),
    ("mrt.branch_win_share.canonical_list", "ratio", Higher),
    ("mrt.branch_win_share.malleable_list", "ratio", Higher),
    ("mrt.branch_win_share.level_packing", "ratio", Higher),
    ("bounds.lower_bound_s", "s", Lower),
    ("reservations.reserves", "count", Lower),
    ("reservations.window_queries", "count", Lower),
    ("reservations.holes_scanned", "count", Lower),
    ("reservations.cancels", "count", Lower),
    ("reservations.truncations", "count", Lower),
    ("engine.revocations", "count", Lower),
    ("engine.truncations", "count", Lower),
    ("shard.run_s", "s", Lower),
    ("shard.solve_total_s", "s", Lower),
    ("shard.solve_critical_s", "s", Lower),
    ("shard.coordinator_s", "s", Lower),
    ("shard.parallel_efficiency", "ratio", Higher),
    ("shard.steals", "count", Lower),
    ("shard.placement_skew", "ratio", Lower),
    ("shard.rounds", "count", Lower),
    ("hetero.run_s", "s", Lower),
    ("hetero.replans", "count", Lower),
    ("hetero.migrations", "count", Lower),
    ("validate.s", "s", Lower),
    ("validate.violations", "count", Lower),
    ("trace.coverage", "ratio", Higher),
    ("trace.overhead_share", "ratio", Lower),
];

/// The per-layer metric called `name`.
pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.0 == name)
}
