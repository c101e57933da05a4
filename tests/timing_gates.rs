//! Wall-clock gates.  They are ignored by default: debug timings mean
//! nothing, and a test running beside them skews the clock.  Run them
//! optimised, one at a time:
//!
//! ```text
//! cargo test --release -q -p integration --test timing_gates -- --ignored --test-threads=1
//! ```

use online::policy::EpochReplan;
use online::{run_sharded_stream, NullSink, ShardedConfig};
use telemetry::{NoopRecorder, SpanTimer};
use workload::{ArrivalPattern, ArrivalStream, ArrivalTrace, TraceConfig, WorkloadConfig};

/// Recording through a `NoopRecorder` costs at most 2% (plus a 1 ms floor
/// for scheduler jitter) over the uninstrumented engine: minimum of seven
/// interleaved runs each.
#[test]
#[ignore = "wall clock: run in release with --ignored --test-threads=1"]
fn noop_recorder_overhead_stays_within_two_percent() {
    let trace = ArrivalTrace::generate(&TraceConfig {
        workload: WorkloadConfig::mixed(400, 32, 0),
        pattern: ArrivalPattern::Bursty {
            burst_size: 16,
            burst_gap: 4.0,
        },
    })
    .unwrap();
    let (mut plain_ns, mut noop_ns) = (u64::MAX, u64::MAX);
    for _ in 0..7 {
        let mut policy = EpochReplan::mrt(1.0).unwrap();
        let timer = SpanTimer::start();
        let plain = online::run(&trace, &mut policy).unwrap();
        plain_ns = plain_ns.min(timer.elapsed_ns());

        let mut policy = EpochReplan::mrt(1.0).unwrap();
        let timer = SpanTimer::start();
        let recorded = online::run_recorded(&trace, &mut policy, &NoopRecorder).unwrap();
        noop_ns = noop_ns.min(timer.elapsed_ns());
        assert_eq!(plain.schedule, recorded.schedule);
    }
    assert!(
        noop_ns as f64 <= plain_ns as f64 * 1.02 + 1e6,
        "noop-recorded {noop_ns} ns vs plain {plain_ns} ns"
    );
}

/// A million bursty tasks streamed through 1, 2, 4 and 8 shards: every task
/// is placed, each shard reports its own statistics, no run records an
/// invariant violation, and at 4 shards the solve phase's critical path is
/// at most 1/1.5 of the single shard's.
#[test]
#[ignore = "wall clock: run in release with --ignored --test-threads=1"]
fn a_million_tasks_scale_across_shards() {
    let tasks = 1_000_000;
    let trace = TraceConfig {
        workload: WorkloadConfig::mixed(tasks, 16, 42),
        pattern: ArrivalPattern::Bursty {
            burst_size: 1000,
            burst_gap: 2.0,
        },
    };
    let mrt = solver::default_registry().get("mrt").unwrap();
    let mut critical_ns = Vec::new();
    for shards in [1, 2, 4, 8] {
        let config = ShardedConfig::new(shards, 1.0, mrt.clone());
        let stream = ArrivalStream::new(&trace).unwrap();
        let result = run_sharded_stream(stream, 16, &config, &mut NullSink, None).unwrap();
        assert_eq!(result.placed, tasks, "{shards} shards");
        assert_eq!(result.per_shard.len(), shards);
        assert_eq!(result.invariant_violations, 0, "{shards} shards");
        critical_ns.push(result.solve_critical_ns as f64);
    }
    assert!(
        critical_ns[0] >= 1.5 * critical_ns[2],
        "solve critical path: {} ns at 1 shard vs {} ns at 4",
        critical_ns[0],
        critical_ns[2]
    );
}
