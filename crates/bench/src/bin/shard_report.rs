//! Sharded-engine throughput report: the 1M-task bursty trace end-to-end,
//! emitted as JSON for the perf trajectory (`BENCH_9.json` in CI).
//!
//! ```text
//! cargo run -p bench --release --bin shard_report [tasks]
//! ```
//!
//! `tasks` scales the scaling trace and the reservation microbench (default
//! 1,000,000 — CI may pass a smaller figure to bound wall time).
//!
//! Three sections:
//!
//! * `equivalence` — the delegated `--shards 1` engine vs the event-driven
//!   `EpochReplan` engine on the classical trace families, several seeds
//!   each.  **Gate:** bit-exact schedules (same entries, same makespan,
//!   same planning rounds) on every cell;
//! * `scaling` — one bursty trace streamed through the sharded engine at
//!   1, 2, 4 and 8 shards: tasks/sec, p50/p99 decision latency, the
//!   solve-phase **critical path** (`Σ` per-round max shard solve time —
//!   the wall time a one-core-per-shard machine would spend solving), work
//!   steals and timeline counters.  **Gates:** zero invariant violations
//!   on every run, and critical-path solve speedup at 4 shards ≥ 1.5× the
//!   single-shard engine;
//! * `reservations` — the measure-first clause on the array-backed
//!   [`packing::ReservationTimeline`]: draining engine-regime runs
//!   (bursty reserve + floor-advance garbage collection) in frontier-only
//!   and backfill mode at two commit counts, plus an adversarial all-live
//!   scan at up to 1M reservations.  No gate — the section records the
//!   data behind the keep-or-replace decision (frontier mode scans no
//!   intervals, and backfill cost is flat in total commits because the GC
//!   bounds the live set; see `decision`).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use online::{engine, run_sharded, run_sharded_stream, CollectingSink, NullSink, ShardedConfig};
use online::{EpochReplan, OnlineResult};
use packing::reservations::{HolePolicy, ReservationTimeline};
use packing::timeline::TieBreak;
use serde_json::{json, Value};
use telemetry::{names, LogHistogram, Recorder, SharedRecorder, SpanTimer, TelemetryEvent};
use workload::{ArrivalPattern, ArrivalStream, TraceConfig, WorkloadConfig};

use mrt_bench::online_traces::trace_families;

/// A recorder that keeps counters and histograms but drops the event
/// stream: a million-task run through the event-driven engine emits one
/// `Place` and one `Complete` event per task, and materialising those here
/// would measure the report harness, not the engine.
#[derive(Debug, Default)]
struct LeanRecorder {
    counters: Mutex<BTreeMap<&'static str, u64>>,
    histograms: Mutex<BTreeMap<&'static str, LogHistogram>>,
}

impl LeanRecorder {
    fn shared() -> Arc<LeanRecorder> {
        Arc::new(LeanRecorder::default())
    }

    fn counter(&self, name: &str) -> u64 {
        *self
            .counters
            .lock()
            .expect("recorder lock")
            .get(name)
            .unwrap_or(&0)
    }

    fn histogram(&self, name: &str) -> Option<LogHistogram> {
        self.histograms
            .lock()
            .expect("recorder lock")
            .get(name)
            .cloned()
    }
}

impl Recorder for LeanRecorder {
    fn event(&self, _event: TelemetryEvent) {}

    fn add(&self, counter: &'static str, delta: u64) {
        *self
            .counters
            .lock()
            .expect("recorder lock")
            .entry(counter)
            .or_insert(0) += delta;
    }

    fn sample(&self, histogram: &'static str, value: u64) {
        self.histograms
            .lock()
            .expect("recorder lock")
            .entry(histogram)
            .or_default()
            .record(value);
    }
}

fn mrt() -> malleable_core::SolverHandle {
    solver::default_registry().get("mrt").expect("mrt solver")
}

/// The scaling trace: synchronised 1000-task bursts of mixed traffic on a
/// 16-processor machine, the configuration named by the issue.
fn scaling_trace(tasks: usize) -> TraceConfig {
    TraceConfig {
        workload: WorkloadConfig::mixed(tasks, 16, 42),
        pattern: ArrivalPattern::Bursty {
            burst_size: 1000,
            burst_gap: 2.0,
        },
    }
}

fn quantile_ns(hist: &Option<LogHistogram>, q: f64) -> u64 {
    hist.as_ref().map(|h| h.quantile(q)).unwrap_or(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale_tasks: usize = args
        .iter()
        .find_map(|t| t.parse().ok())
        .unwrap_or(1_000_000);
    let mut gate_failures: Vec<String> = Vec::new();

    // ── Section 1: single-shard delegation is bit-exact with the engine ──
    let mut equivalence_cells: Vec<Value> = Vec::new();
    for family in trace_families() {
        for seed in [1u64, 2, 3] {
            let trace = family.trace(seed);
            let mut policy = EpochReplan::mrt(1.0).expect("epoch policy");
            let expected: OnlineResult = engine::run(&trace, &mut policy).expect("engine run");
            let config = ShardedConfig::new(1, 1.0, mrt());
            let mut sink = CollectingSink::new(trace.processors());
            let result =
                run_sharded(&trace, &config, &mut sink, None).expect("single-shard delegation");
            let schedule = sink.into_schedule();
            let bit_exact = schedule == expected.schedule
                && result.makespan == expected.makespan
                && result.rounds == expected.replans;
            if !bit_exact {
                gate_failures.push(format!(
                    "equivalence gate: {} seed {seed}: --shards 1 diverged from the engine \
                     (makespan {} vs {}, rounds {} vs {})",
                    family.name,
                    result.makespan,
                    expected.makespan,
                    result.rounds,
                    expected.replans
                ));
            }
            equivalence_cells.push(json!({
                "family": family.name,
                "seed": seed,
                "tasks": trace.len(),
                "makespan": result.makespan,
                "rounds": result.rounds,
                "bit_exact": bit_exact,
            }));
        }
    }

    // ── Section 2: throughput scaling on the bursty trace ────────────────
    let mut scaling_cells: Vec<Value> = Vec::new();
    let mut critical_ns_by_shards: BTreeMap<usize, u64> = BTreeMap::new();
    let mut tasks_per_sec_by_shards: BTreeMap<usize, f64> = BTreeMap::new();
    let trace_config = scaling_trace(scale_tasks);
    for shards in [1usize, 2, 4, 8] {
        let recorder = LeanRecorder::shared();
        let shared: SharedRecorder = Arc::clone(&recorder) as SharedRecorder;
        let config = ShardedConfig::new(shards, 1.0, mrt());
        let stream = ArrivalStream::new(&trace_config).expect("arrival stream");
        let mut sink = NullSink;
        let result =
            run_sharded_stream(stream, 16, &config, &mut sink, Some(shared)).expect("sharded run");
        let seconds = result.run_ns as f64 / 1e9;
        let tasks_per_sec = if seconds > 0.0 {
            result.placed as f64 / seconds
        } else {
            0.0
        };
        let decisions = recorder.histogram(names::DECISION_NS);
        if result.placed != scale_tasks {
            gate_failures.push(format!(
                "scaling gate: {} shard(s) placed {} of {scale_tasks} tasks",
                shards, result.placed
            ));
        }
        if result.invariant_violations != 0 {
            gate_failures.push(format!(
                "scaling gate: {} shard(s) recorded {} invariant violation(s)",
                shards, result.invariant_violations
            ));
        }
        critical_ns_by_shards.insert(shards, result.solve_critical_ns);
        tasks_per_sec_by_shards.insert(shards, tasks_per_sec);
        scaling_cells.push(json!({
            "policy": result.policy,
            "shards": shards,
            "tasks": result.placed,
            "makespan": result.makespan,
            "rounds": result.rounds,
            "solves": result.solves,
            "steals": result.steals,
            "run_ns": result.run_ns,
            "tasks_per_sec": tasks_per_sec,
            "solve_critical_ns": result.solve_critical_ns,
            "solve_total_ns": result.solve_total_ns,
            "decision_p50_ns": quantile_ns(&decisions, 0.50),
            "decision_p99_ns": quantile_ns(&decisions, 0.99),
            // The single-shard engine samples per event-loop iteration;
            // the sharded coordinator samples per epoch round.
            "decision_granularity": if shards == 1 { "event" } else { "round" },
            "invariant_violations": result.invariant_violations,
            "steal_events": recorder.counter(names::STEALS),
            "timeline_reservations": result.timeline.reservations,
            "timeline_holes_scanned": result.timeline.holes_scanned,
        }));
    }
    let baseline_critical = *critical_ns_by_shards.get(&1).unwrap_or(&0);
    let mut speedup_members: Vec<(String, Value)> = Vec::new();
    for (&shards, &critical) in &critical_ns_by_shards {
        let speedup = if critical > 0 {
            baseline_critical as f64 / critical as f64
        } else {
            0.0
        };
        speedup_members.push((format!("x{shards}"), json!(speedup)));
        if shards == 4 && speedup < 1.5 {
            gate_failures.push(format!(
                "scaling gate: solve critical-path speedup at 4 shards is {speedup:.2}x \
                 (< 1.5x the single-shard engine)"
            ));
        }
    }
    let solve_speedups = Value::Object(speedup_members);
    let tasks_per_sec = Value::Object(
        tasks_per_sec_by_shards
            .iter()
            .map(|(shards, tps)| (format!("x{shards}"), json!(*tps)))
            .collect(),
    );

    // ── Section 3: the measure-first reservation microbench ──────────────
    // Engine regime: a draining machine at full utilisation.  Each round
    // commits a burst through `earliest_window` + `reserve`, then the
    // floor advances to the horizon the machine had *before the previous
    // burst* — exactly the `MachineState::advance_to` garbage collection
    // as completed work drains — so the live interval population stays
    // near the in-flight window (a burst or two), not the running total
    // of commits.  Run once in the engine's default frontier-only mode at
    // the full commit count, and twice in duration-aware backfill mode at
    // two commit counts: if the per-query cost is flat between them, the
    // scans are linear in the GC-bounded *live* set, not the total.
    let engine_total = scale_tasks.max(1);
    let draining_regime = |total: usize, policy: HolePolicy| -> Value {
        let mut timeline = ReservationTimeline::new(16, policy);
        let burst = 1000usize.min(total);
        let rounds = total.div_ceil(burst);
        let mut live_max = 0usize;
        let mut live_sum = 0u64;
        let mut live_samples = 0u64;
        // `live_reservations` walks every slot ever committed (a debug
        // accessor, not an engine path) — sample it sparsely so the probe
        // does not dominate the measurement.
        let sample_every = (rounds / 50).max(1);
        let mut drained_horizon = 0.0f64;
        let query_timer = SpanTimer::start();
        let mut queries = 0u64;
        for round in 0..rounds {
            timeline.advance_to(drained_horizon);
            drained_horizon = timeline.makespan();
            for i in 0..burst.min(total - round * burst) {
                let count = 1 + (i % 4);
                let duration = 0.5 + ((i * 37) % 100) as f64 / 100.0;
                let window = timeline.earliest_window(count, duration, TieBreak::PaperConvention);
                queries += 1;
                timeline.reserve(window.first, count, window.start, duration);
            }
            if round % sample_every == 0 {
                let live = timeline.live_reservations();
                live_max = live_max.max(live);
                live_sum += live as u64;
                live_samples += 1;
            }
        }
        let ns_per_op = query_timer.elapsed_ns() as f64 / queries.max(1) as f64;
        json!({
            "policy": format!("{policy:?}"),
            "total_reservations": total,
            "burst": burst,
            "live_mean": live_sum as f64 / live_samples.max(1) as f64,
            "live_max": live_max,
            "ns_per_reserve_query": ns_per_op,
            "holes_scanned": timeline.stats().holes_scanned,
        })
    };
    let frontier_cell = draining_regime(engine_total, HolePolicy::FrontierOnly);
    let backfill_small_total = (engine_total / 10).max(10_000);
    let backfill_small = draining_regime(backfill_small_total, HolePolicy::Backfill);
    let backfill_full =
        draining_regime(engine_total.max(backfill_small_total), HolePolicy::Backfill);
    let ns_of = |cell: &Value| {
        cell.get("ns_per_reserve_query")
            .and_then(Value::as_f64)
            .unwrap_or(f64::INFINITY)
    };
    let frontier_scans = frontier_cell
        .get("holes_scanned")
        .and_then(Value::as_u64)
        .unwrap_or(u64::MAX);
    let backfill_cost_flat = ns_of(&backfill_full) <= ns_of(&backfill_small) * 1.75 + 500.0;

    // Adversarial regime: every reservation stays live (the floor never
    // advances), then duration-aware window queries must sweep the packed
    // interval lists end to end — the worst case the O(log n) structure
    // would help.
    let mut worst_cells: Vec<Value> = Vec::new();
    for n in [10_000usize, 100_000, 1_000_000] {
        let n = n.min(engine_total.max(10_000));
        let mut packed = ReservationTimeline::new(16, HolePolicy::Backfill);
        for i in 0..n {
            let first = i % 16;
            let start = (i / 16) as f64;
            packed.reserve(first, 1, start, 1.0);
        }
        let sweeps = 5u32;
        let sweep_timer = SpanTimer::start();
        for _ in 0..sweeps {
            let window = packed.earliest_window(4, 1.0, TieBreak::PaperConvention);
            assert!(window.start.is_finite());
        }
        let ns_per_query = sweep_timer.elapsed_ns() as f64 / f64::from(sweeps);
        worst_cells.push(json!({
            "live_reservations": packed.live_reservations(),
            "ns_per_query": ns_per_query,
            "holes_scanned": packed.stats().holes_scanned,
        }));
    }
    // The keep-or-replace decision, from the data: the engine's default
    // frontier-only mode never scans intervals at all (O(m) per query,
    // `holes_scanned` stays 0), and the duration-aware backfill mode's
    // per-query cost is flat in the total commit count because the floor
    // GC keeps the live set near the in-flight burst.  Only the
    // adversarial all-live scan degrades linearly, and it requires
    // backfill mode *and* a floor that never advances — neither holds on
    // the engine path, so the flat book stays.
    let vec_scan_ok = frontier_scans == 0 && backfill_cost_flat;
    let decision = if vec_scan_ok {
        "retain-vec: frontier mode scans nothing and backfill cost is flat in total \
         commits (linear only in the GC-bounded live set)"
    } else {
        "replace: scan cost grows with total commits; adopt an O(log n) interval structure"
    };
    let reservations = json!({
        "engine_regime": json!([frontier_cell, backfill_small, backfill_full]),
        "all_live_scan": worst_cells,
        "vec_scan_ok": vec_scan_ok,
        "decision": decision,
    });

    let equivalence_gate_ok = !gate_failures.iter().any(|f| f.starts_with("equivalence"));
    let scaling_gate_ok = !gate_failures.iter().any(|f| f.starts_with("scaling"));
    let gates = json!({
        "single_shard_bit_exact_with_engine": equivalence_gate_ok,
        "zero_invariant_violations_and_1p5x_solve_speedup_at_4_shards": scaling_gate_ok,
    });
    let doc = json!({
        "report": "sharded-online-engine",
        "tasks": scale_tasks,
        "equivalence": equivalence_cells,
        "scaling": scaling_cells,
        "solve_critical_speedup": solve_speedups,
        "tasks_per_sec": tasks_per_sec,
        "reservations": reservations,
        "gates": gates,
    });
    println!(
        "{}",
        serde_json::to_string_pretty(&doc).expect("report serialisation")
    );

    if !gate_failures.is_empty() {
        for failure in &gate_failures {
            eprintln!("GATE FAILURE: {failure}");
        }
        std::process::exit(1);
    }
}
