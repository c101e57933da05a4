//! Criterion bench backing the guarantee table: end-to-end MRT scheduling of
//! one representative instance per workload family.  The measured quantity is
//! the full dual-approximation search (the paper's "practical algorithm"),
//! i.e. what a resource manager would pay per scheduling decision.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use malleable_core::prelude::*;
use mrt_bench::Family;
use std::hint::black_box;

fn bench_guarantees(c: &mut Criterion) {
    let mut group = c.benchmark_group("guarantee_table");
    group.sample_size(10);

    for family in Family::ALL {
        let instance = family.instance(40, 32, 1);
        group.bench_with_input(
            BenchmarkId::new("mrt_end_to_end", family.name()),
            &instance,
            |b, inst| {
                b.iter(|| {
                    let request = SolveRequest::new(black_box(inst));
                    black_box(MrtSolver.solve(&request).unwrap().makespan())
                })
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_guarantees);
criterion_main!(benches);
