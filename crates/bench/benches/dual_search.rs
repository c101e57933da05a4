//! Cost of the dual-approximation dichotomic search (§2.2) as a function of
//! the iteration budget `k`: each extra iteration adds one oracle probe and
//! divides the residual interval (and hence the `ε` in `√3(1 + ε)`) by two.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use malleable_core::prelude::*;
use mrt_bench::Family;
use std::hint::black_box;

fn bench_iteration_budget(c: &mut Criterion) {
    let mut group = c.benchmark_group("dual_search_iterations");
    group.sample_size(10);

    let instance = Family::Mixed.instance(40, 32, 9);
    let scheduler = MrtScheduler::default();
    for &iterations in &[2usize, 5, 10, 20, 40] {
        group.bench_with_input(
            BenchmarkId::from_parameter(iterations),
            &instance,
            |b, inst| {
                b.iter(|| {
                    // The iteration budget is a search field a request does
                    // not carry, so this drives the search directly.
                    let result = DualSearch::with_iterations(iterations)
                        .solve_guided(
                            black_box(inst),
                            &scheduler,
                            SearchMode::Bisect,
                            None,
                            &mut ProbeWorkspace::new(),
                        )
                        .unwrap();
                    black_box(result.schedule.makespan())
                })
            },
        );
    }

    group.finish();
}

fn bench_single_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("dual_search_single_probe");
    group.sample_size(10);

    let instance = Family::Mixed.instance(40, 32, 9);
    let omega = malleable_core::bounds::upper_bound(&instance);
    let scheduler = MrtScheduler::default();
    group.bench_function("mrt_probe_at_upper_bound", |b| {
        b.iter(|| black_box(scheduler.probe(black_box(&instance), omega).is_feasible()))
    });

    group.finish();
}

criterion_group!(benches, bench_iteration_budget, bench_single_probe);
criterion_main!(benches);
