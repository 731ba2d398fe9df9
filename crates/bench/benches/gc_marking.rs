//! Criterion benches of the GC marking phase: baseline vs GOLF on correct,
//! leaky, and daisy-chain programs (the §5.2 worst case).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use golf_bench::marking::{correct_program, daisy_chain, leaky_program, prepared_vm};
use golf_core::GcEngine;
use golf_runtime::ProgramSet;

fn bench_marking(c: &mut Criterion) {
    let mut group = c.benchmark_group("gc_marking");
    for n in [16i64, 64, 256] {
        for (shape, build) in [
            ("correct", correct_program as fn(i64) -> ProgramSet),
            ("leaky", leaky_program as fn(i64) -> ProgramSet),
            ("daisy", daisy_chain as fn(i64) -> ProgramSet),
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("baseline/{shape}"), n),
                &n,
                |bench, &n| {
                    bench.iter_batched(
                        || prepared_vm(build(n)),
                        |mut vm| GcEngine::baseline().collect(&mut vm),
                        criterion::BatchSize::SmallInput,
                    );
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("golf/{shape}"), n),
                &n,
                |bench, &n| {
                    bench.iter_batched(
                        || prepared_vm(build(n)),
                        |mut vm| GcEngine::golf().collect(&mut vm),
                        criterion::BatchSize::SmallInput,
                    );
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_marking);
criterion_main!(benches);
