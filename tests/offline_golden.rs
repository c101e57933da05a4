//! Golden fixtures of the offline solvers: a grid of solves whose outputs
//! are pinned bit for bit against `tests/fixtures/offline_golden.json`.
//!
//! The grid crosses
//!
//! * instances — the benchmark's three families (`mixed`, `wide_tasks`,
//!   `sequential_heavy`), three seeds each, at `(n, m)` ∈ {(8, 4), (40, 16),
//!   (200, 64)}, plus a one-processor machine and an instance whose tasks
//!   all take the whole machine at the smallest reachable guess;
//! * solvers — every solver of `solver::default_registry()`, `mrt` in both
//!   bisection and breakpoint-exact search (the `hetero-*` solvers without
//!   a config, so on the uniform one-class cluster), plus
//!   [`MalleableListAlgorithm::build`] at three guesses.
//!
//! Each run records the bits of its makespan and certified lower bound, its
//! probe count and a hash of its schedule.  Every list placement of these
//! solvers goes through the contiguous-window search of
//! `packing::timeline`, so any change to that search, to a list order or to
//! an allotment that moves one bit of one schedule fails the test with the
//! run's name.
//!
//! The fixture is regenerated, after a deliberate behaviour change only, by
//! running this test with `OFFLINE_GOLDEN_WRITE=1`.

use std::collections::BTreeSet;

use malleable_core::prelude::*;
use malleable_core::{bounds, SpeedupProfile};
use serde_json::{json, Value};
use workload::{WorkloadConfig, WorkloadGenerator};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/offline_golden.json"
);
const SEEDS: [u64; 3] = [3, 11, 29];
const SIZES: [(usize, usize); 3] = [(8, 4), (40, 16), (200, 64)];

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

fn schedule_hash(schedule: &Schedule) -> String {
    let mut h = Fnv::new();
    for s in schedule.entries() {
        h.u64(s.task as u64);
        h.u64(s.start.to_bits());
        h.u64(s.duration.to_bits());
        h.u64(s.processors.first as u64);
        h.u64(s.processors.count as u64);
    }
    h.hex()
}

fn instances() -> Vec<(String, Instance)> {
    let mut instances = Vec::new();
    for (family, config) in [
        ("mixed", WorkloadConfig::mixed as fn(usize, usize, u64) -> _),
        ("wide_tasks", WorkloadConfig::wide_tasks),
        ("sequential_heavy", WorkloadConfig::sequential_heavy),
    ] {
        for (n, m) in SIZES {
            for seed in SEEDS {
                let instance = WorkloadGenerator::new(config(n, m, seed))
                    .generate()
                    .unwrap();
                instances.push((format!("{family}-{n}x{m}-{seed}"), instance));
            }
        }
    }
    let single = WorkloadGenerator::new(WorkloadConfig::mixed(12, 1, 5))
        .generate()
        .unwrap();
    instances.push(("single-processor".into(), single));
    // Six equal tasks with a 90% sequential part on 8 processors: at the
    // critical-task bound `t(8)` every canonical count is the whole machine,
    // so each list placement there is the single window of width m.
    let full_width = Instance::from_profiles(
        (0..6)
            .map(|_| SpeedupProfile::from_fn(8, |p| 0.9 + 0.1 / p as f64).unwrap())
            .collect(),
        8,
    )
    .unwrap();
    instances.push(("full-width".into(), full_width));
    instances
}

/// One record: the run's name and everything it pins.
fn record(
    run: String,
    schedule: Option<&Schedule>,
    lower_bound: Option<f64>,
    probes: usize,
) -> Value {
    json!({
        "run": run,
        "makespan": schedule.map(|s| bits(s.makespan())),
        "lower_bound": lower_bound.map(bits),
        "probes": probes,
        "schedule": schedule.map(schedule_hash),
    })
}

/// Placement widths the recorded schedules make, for the coverage checks.
#[derive(Default)]
struct Widths {
    one: bool,
    wider: bool,
    /// A schedule on `m ≥ 2` processors placed every task on all `m`.
    whole_machine: bool,
}

impl Widths {
    fn note(&mut self, schedule: &Schedule, m: usize) {
        let entries = schedule.entries();
        self.one |= entries.iter().any(|s| s.processors.count == 1);
        self.wider |= entries.iter().any(|s| s.processors.count >= 2);
        self.whole_machine |= m >= 2 && entries.iter().all(|s| s.processors.count == m);
    }
}

/// Run the whole grid, returning one record per run in grid order and the
/// placement widths the recorded schedules make.
fn record_grid() -> (Vec<Value>, Widths) {
    let registry = solver::default_registry();
    let mut records = Vec::new();
    let mut widths = Widths::default();
    let mut solved = BTreeSet::new();
    for (name, instance) in instances() {
        let m = instance.processors();
        let runs = [
            ("mrt", "mrt/bisect", SearchMode::Bisect),
            ("mrt", "mrt/exact", SearchMode::Exact),
            ("list", "list", SearchMode::Bisect),
            ("twy-list", "twy-list", SearchMode::Bisect),
            ("ludwig", "ludwig", SearchMode::Bisect),
            ("precedence", "precedence", SearchMode::Bisect),
            ("twy-nfdh", "twy-nfdh", SearchMode::Bisect),
            ("gang", "gang", SearchMode::Bisect),
            ("lpt", "lpt", SearchMode::Bisect),
            ("hetero-lp", "hetero-lp", SearchMode::Bisect),
            ("hetero-greedy", "hetero-greedy", SearchMode::Bisect),
        ];
        for (solver, label, mode) in runs {
            solved.insert(solver);
            let outcome = registry
                .get(solver)
                .unwrap()
                .solve(&SolveRequest::new(&instance).with_mode(mode))
                .unwrap();
            widths.note(&outcome.schedule, m);
            records.push(record(
                format!("{name}/{label}"),
                Some(&outcome.schedule),
                Some(outcome.lower_bound),
                outcome.probes,
            ));
        }
        // The malleable list algorithm at the guesses whose θ-allotments are
        // the canonical allotments at the critical-task bound (the smallest
        // reachable guess), the static lower bound and the static upper
        // bound; the factor keeps `θ·guess` from rounding below the bound.
        let mla = MalleableListAlgorithm::default();
        let theta = mla.threshold(m);
        for (label, omega) in [
            ("tall", bounds::critical_task_bound(&instance)),
            ("lb", bounds::lower_bound(&instance)),
            ("ub", bounds::upper_bound(&instance)),
        ] {
            let guess = omega * (1.0 + 1e-9) / theta;
            let schedule = mla.build(&instance, guess).ok();
            if let Some(schedule) = &schedule {
                widths.note(schedule, m);
            }
            records.push(record(
                format!("{name}/mla@{label}"),
                schedule.as_ref(),
                None,
                0,
            ));
        }
    }
    // A solver registered without a golden run fails here.
    let registered: BTreeSet<&str> = registry.names().collect();
    assert_eq!(solved, registered, "golden runs against registry");
    (records, widths)
}

#[test]
fn solver_outputs_match_the_golden_fixture() {
    let (records, widths) = record_grid();
    assert_eq!(records.len(), (3 * 3 * 3 + 2) * 14, "grid size");
    // The grid must exercise both window searches: the one-processor scan
    // and the sliding window over wider blocks, up to the whole machine.
    assert!(widths.one, "no placement of width 1");
    assert!(widths.wider, "no placement of width >= 2");
    assert!(
        widths.whole_machine,
        "no schedule places every task on the whole machine"
    );

    if std::env::var_os("OFFLINE_GOLDEN_WRITE").is_some() {
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
