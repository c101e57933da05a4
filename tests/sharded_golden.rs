//! Golden fixtures of the partitioned sharded engine: a grid of `shards ≥ 2`
//! runs whose outputs are pinned bit for bit against
//! `tests/fixtures/sharded_golden.json`.
//!
//! The grid crosses
//!
//! * traces — Poisson and bursty arrivals, three seeds each, on 8 and on 13
//!   processors (13 splits into uneven shard widths);
//! * partitions — 2, 3 and 4 shards;
//! * the shard machines with and without backfill;
//! * the dual search in exact and in bisect mode.
//!
//! Bursty traces are fed lazily through [`online::run_sharded_stream`], the
//! others materialised through [`online::run_sharded`].
//!
//! Each run records the bits of its makespan, mean flow time and busy
//! integral, its rounds, solves and steals, per shard the placements,
//! solves, probes, steals in and out and the bits of its makespan, the
//! aggregated timeline counters, every telemetry counter that is not a
//! duration, and a hash of its schedule.  Any change that moves one bit of
//! one run fails the test with the run's name.
//!
//! The fixture is regenerated, after a deliberate behaviour change only, by
//! running this test with `SHARDED_GOLDEN_WRITE=1`.

use malleable_core::prelude::SearchMode;
use online::{CollectingSink, ShardedConfig, ShardedResult};
use serde_json::{json, Value};
use telemetry::{CollectingRecorder, SharedRecorder};
use workload::{ArrivalPattern, ArrivalStream, ArrivalTrace, TraceConfig, WorkloadConfig};

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/fixtures/sharded_golden.json"
);
const TASKS: usize = 40;
const SEEDS: [u64; 3] = [5, 17, 23];

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

fn schedule_hash(schedule: &malleable_core::Schedule) -> String {
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

/// Everything a run pins.
fn outcome(
    result: &ShardedResult,
    schedule: &malleable_core::Schedule,
    recorder: &CollectingRecorder,
) -> Vec<(String, Value)> {
    let shards: Vec<Value> = result
        .per_shard
        .iter()
        .map(|s| {
            json!({
                "placements": s.placements,
                "solves": s.solves,
                "probes": s.probes,
                "steals_in": s.steals_in,
                "steals_out": s.steals_out,
                "makespan": bits(s.makespan),
            })
        })
        .collect();
    let t = result.timeline;
    let counters: Vec<(String, Value)> = recorder
        .counters()
        .into_iter()
        .filter(|(name, _)| !name.ends_with("_ns"))
        .map(|(name, value)| (name, Value::from(value)))
        .collect();
    vec![
        ("makespan".into(), bits(result.makespan).into()),
        ("mean_flow".into(), bits(result.mean_flow_time).into()),
        ("busy_integral".into(), bits(result.busy_integral).into()),
        ("placed".into(), result.placed.into()),
        ("rounds".into(), result.rounds.into()),
        ("solves".into(), result.solves.into()),
        ("steals".into(), result.steals.into()),
        ("per_shard".into(), Value::Array(shards)),
        (
            "timeline".into(),
            json!({
                "window_queries": t.window_queries,
                "holes_scanned": t.holes_scanned,
                "reservations": t.reservations,
                "cancels": t.cancels,
                "truncations": t.truncations,
            }),
        ),
        ("counters".into(), Value::Object(counters)),
        ("schedule".into(), schedule_hash(schedule).into()),
    ]
}

fn patterns() -> [(&'static str, ArrivalPattern); 2] {
    [
        ("poisson", ArrivalPattern::Poisson { rate: 4.0 }),
        (
            "bursty",
            ArrivalPattern::Bursty {
                burst_size: 8,
                burst_gap: 2.0,
            },
        ),
    ]
}

/// Run the whole grid and return one record per run, in grid order.
fn record_grid() -> Vec<Value> {
    let mrt = solver::default_registry().get("mrt").unwrap();
    let mut records = Vec::new();
    for (pattern_name, pattern) in patterns() {
        for processors in [8usize, 13] {
            for seed in SEEDS {
                let trace_config = TraceConfig {
                    workload: WorkloadConfig::mixed(TASKS, processors, seed),
                    pattern,
                };
                let streamed = pattern_name == "bursty";
                let trace = ArrivalTrace::generate(&trace_config).unwrap();
                for shards in [2usize, 3, 4] {
                    for backfill in [false, true] {
                        for search in [SearchMode::Exact, SearchMode::Bisect] {
                            let mut config = ShardedConfig::new(shards, 1.0, mrt.clone())
                                .with_backfill(backfill);
                            config.search = search;
                            let recorder = CollectingRecorder::shared();
                            let mut sink = CollectingSink::new(processors);
                            let handle = Some(recorder.clone() as SharedRecorder);
                            let result = if streamed {
                                let stream = ArrivalStream::new(&trace_config).unwrap();
                                online::run_sharded_stream(
                                    stream, processors, &config, &mut sink, handle,
                                )
                            } else {
                                online::run_sharded(&trace, &config, &mut sink, handle)
                            }
                            .unwrap();
                            let schedule = sink.into_schedule();
                            assert!(
                                online::validate_against_trace(&trace, &schedule).is_empty(),
                                "invalid sharded schedule"
                            );
                            let key = format!(
                                "{pattern_name}-m{processors}-{seed}/x{shards}{}/{search:?}",
                                if backfill { "+backfill" } else { "" }
                            );
                            let mut fields = vec![("run".to_string(), Value::from(key))];
                            fields.extend(outcome(&result, &schedule, &recorder));
                            records.push(Value::Object(fields));
                        }
                    }
                }
            }
        }
    }
    records
}

#[test]
fn sharded_engine_outputs_match_the_golden_fixture() {
    let records = record_grid();
    assert_eq!(records.len(), 2 * 2 * 3 * 3 * 2 * 2, "grid size");

    if std::env::var_os("SHARDED_GOLDEN_WRITE").is_some() {
        let doc = json!({ "runs": records });
        let text = serde_json::to_string_pretty(&doc).unwrap();
        std::fs::write(FIXTURE, text + "\n").unwrap();
        return;
    }

    let text = std::fs::read_to_string(FIXTURE).unwrap();
    let doc = serde_json::from_str(&text).unwrap();
    let expected = doc.get("runs").and_then(Value::as_array).unwrap();
    assert_eq!(expected.len(), records.len(), "fixture size");

    // The grid must have actually exercised work stealing.
    let steals: u64 = records
        .iter()
        .filter_map(|r| r.get("steals").and_then(Value::as_u64))
        .sum();
    assert!(steals > 0, "no run of the grid steals a task");

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
