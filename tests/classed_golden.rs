//! Golden fixtures of the classed online engine: a grid of
//! [`hetero::run_classed`] runs whose outputs are pinned bit for bit against
//! `tests/fixtures/classed_golden.json`.
//!
//! The grid crosses
//!
//! * clusters — an old/new pair, three classes of increasing speed, one slow
//!   pool beside a single fast processor, and one class alone (where every
//!   assignment is all zeros);
//! * traces — [`workload::classed_trace`] at three seeds, of 24, 48 and 96
//!   tasks;
//! * assignment strategies — the LP rounding, the greedy density baseline
//!   and the class-blind ablation;
//! * search modes — bisection and breakpoint-exact per-class solves.
//!
//! Each run records the bits of its makespan and mean flow time, its replan
//! and migration counts, and a hash of its schedule.  Telemetry is not
//! pinned.  Any change to the assignment, the per-class solves or the
//! engine's revocation and commit order that moves one bit of one run fails
//! the test with the run's name.
//!
//! The fixture is regenerated, after a deliberate behaviour change only, by
//! running this test with `CLASSED_GOLDEN_WRITE=1`.

use hetero::{run_classed, AssignStrategy, ClassedCluster, ClassedEngineOptions};
use malleable_core::prelude::SearchMode;
use malleable_core::ScheduledTask;
use serde_json::{json, Value};
use workload::{classed_trace, parse_class_specs};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/classed_golden.json"
);
const CLUSTERS: [&str; 4] = [
    "old=8x1.0,new=4x2.5",
    "a=4x0.5,b=4x1.0,c=4x3.0",
    "slow=3x1.0,fast=1x4.0",
    "only=8x1.0",
];
/// Seed and task count of each trace.
const TRACES: [(u64, usize); 3] = [(3, 24), (11, 48), (29, 96)];

/// FNV-1a over a byte stream: stable across platforms and toolchains,
/// unlike `std`'s default hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, value: u64) {
        for b in value.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

fn bits(value: f64) -> String {
    format!("{:016x}", value.to_bits())
}

fn schedule_hash(entries: &[ScheduledTask]) -> String {
    let mut h = Fnv::new();
    for s in entries {
        h.u64(s.task as u64);
        h.u64(s.start.to_bits());
        h.u64(s.duration.to_bits());
        h.u64(s.processors.first as u64);
        h.u64(s.processors.count as u64);
    }
    h.hex()
}

/// Run the whole grid and return one record per run, in grid order.
fn record_grid() -> Vec<Value> {
    let mut records = Vec::new();
    for spec in CLUSTERS {
        let cluster = ClassedCluster::from_spec(spec).unwrap();
        let classes = parse_class_specs(spec).unwrap();
        for (seed, tasks) in TRACES {
            let trace = classed_trace(&classes, tasks, seed).unwrap();
            for strategy in [
                AssignStrategy::Lp,
                AssignStrategy::GreedyDensity,
                AssignStrategy::ClassBlind,
            ] {
                for (mode_name, search) in
                    [("bisect", SearchMode::Bisect), ("exact", SearchMode::Exact)]
                {
                    let options = ClassedEngineOptions {
                        strategy,
                        search,
                        ..ClassedEngineOptions::default()
                    };
                    let run = format!("{spec}/{seed}x{tasks}/{}/{mode_name}", strategy.name());
                    let result = run_classed(&trace, &cluster, &options).unwrap();
                    let violations = result.check(&trace);
                    assert!(violations.is_empty(), "{run}: {violations:?}");
                    records.push(json!({
                        "run": run,
                        "makespan": bits(result.makespan),
                        "mean_flow": bits(result.mean_flow_time),
                        "replans": result.replans,
                        "migrations": result.migrations,
                        "schedule": schedule_hash(result.schedule.entries()),
                    }));
                }
            }
        }
    }
    records
}

#[test]
fn classed_engine_outputs_match_the_golden_fixture() {
    let records = record_grid();
    assert_eq!(records.len(), 4 * 3 * 3 * 2, "grid size");
    // The grid must move queued tasks between classes, or the revocation
    // path goes unpinned.
    let migrations: u64 = records
        .iter()
        .filter_map(|r| r.get("migrations").and_then(Value::as_u64))
        .sum();
    assert!(migrations > 0, "no run of the grid migrates a task");

    if std::env::var_os("CLASSED_GOLDEN_WRITE").is_some() {
        let doc = json!({ "runs": records });
        let text = serde_json::to_string_pretty(&doc).unwrap();
        std::fs::write(FIXTURE, text + "\n").unwrap();
        return;
    }

    let text = std::fs::read_to_string(FIXTURE).unwrap();
    let doc = serde_json::from_str(&text).unwrap();
    let expected = doc.get("runs").and_then(Value::as_array).unwrap();
    assert_eq!(expected.len(), records.len(), "fixture size");

    let mut mismatches = Vec::new();
    for (got, want) in records.iter().zip(expected) {
        if got != want {
            let run = got.get("run").and_then(Value::as_str).unwrap_or("?");
            let fields: Vec<&str> = got
                .as_object()
                .unwrap()
                .iter()
                .filter(|(name, value)| want.get(name) != Some(value))
                .map(|(name, _)| name.as_str())
                .collect();
            mismatches.push(format!("{run}: {fields:?}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} of {} runs diverge from the fixture:\n{}",
        mismatches.len(),
        records.len(),
        mismatches.join("\n")
    );
}
