//! Breakpoint-exact search vs classical bisection, cold vs reusable
//! workspace: the timing companion of `src/bin/probe_report.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use malleable_core::prelude::*;
use mrt_bench::Family;
use std::hint::black_box;

fn bench_search_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("dual_search_modes");
    group.sample_size(10);

    for &n in &[50usize, 200] {
        let instance = Family::Mixed.instance(n, 64, 9);
        for (label, mode) in [
            ("bisect_cold", SearchMode::Bisect),
            ("exact_cold", SearchMode::Exact),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), &instance, |b, inst| {
                b.iter(|| {
                    let request = SolveRequest::new(black_box(inst)).with_mode(mode);
                    black_box(MrtSolver.solve(&request).unwrap().makespan())
                })
            });
        }
        group.bench_with_input(BenchmarkId::new("exact_warm", n), &instance, |b, inst| {
            let mut workspace = ProbeWorkspace::new();
            let solve = |inst, workspace: &mut ProbeWorkspace| {
                let request = SolveRequest::new(inst).with_mode(SearchMode::Exact);
                MrtSolver.solve_with_workspace(&request, workspace).unwrap()
            };
            // Warm-up solve sizes the buffers outside the measurement.
            solve(inst, &mut workspace);
            b.iter(|| black_box(solve(black_box(inst), &mut workspace).makespan()))
        });
    }

    group.finish();
}

fn bench_workspace_probe(c: &mut Criterion) {
    let mut group = c.benchmark_group("mrt_probe_workspace");
    group.sample_size(10);

    let instance = Family::Mixed.instance(200, 64, 9);
    let omega = malleable_core::bounds::upper_bound(&instance);
    let scheduler = MrtScheduler::default();
    group.bench_function("probe_cold", |b| {
        b.iter(|| black_box(scheduler.probe(black_box(&instance), omega).is_feasible()))
    });
    group.bench_function("probe_warm_workspace", |b| {
        let mut workspace = ProbeWorkspace::new();
        scheduler.probe_with_report_in(&instance, omega, &mut workspace);
        b.iter(|| {
            black_box(
                scheduler
                    .probe_with_report_in(black_box(&instance), omega, &mut workspace)
                    .0
                    .is_feasible(),
            )
        })
    });

    group.finish();
}

criterion_group!(benches, bench_search_modes, bench_workspace_probe);
criterion_main!(benches);
