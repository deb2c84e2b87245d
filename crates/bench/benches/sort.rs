//! Criterion bench: wall-clock time of the simulated sorts (Figure 7's
//! configurations at a fixed M), plus the sequential kernels.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use ft_bench::{random_faults, random_keys};
use ftsort::bitonic::bitonic_sort;
use ftsort::ftsort::{fault_tolerant_sort, Attach, FtConfig, FtPlan};
use ftsort::mffs::mffs_sort;
use ftsort::seq::{heapsort, Direction};
use hypercube::topology::Hypercube;
use std::hint::black_box;

const M: usize = 32_000;

fn bench_heapsort(c: &mut Criterion) {
    let mut group = c.benchmark_group("heapsort");
    for k in [1_000usize, 10_000] {
        group.throughput(Throughput::Elements(k as u64));
        group.bench_function(format!("k{k}"), |b| {
            let mut rng = ft_bench::rng(1);
            b.iter_batched(
                || random_keys(k, &mut rng),
                |mut v| black_box(heapsort(&mut v, Direction::Ascending)),
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_fault_free(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitonic_fault_free");
    group.sample_size(20);
    for n in [3usize, 5, 6] {
        group.throughput(Throughput::Elements(M as u64));
        group.bench_function(format!("q{n}"), |b| {
            let mut rng = ft_bench::rng(2);
            b.iter_batched(
                || random_keys(M, &mut rng),
                |data| {
                    black_box(bitonic_sort(
                        Hypercube::new(n),
                        &FtConfig::default(),
                        data,
                        Attach::default(),
                    ))
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_ft_sort(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_tolerant_sort");
    group.sample_size(20);
    for (n, r) in [(5usize, 2usize), (5, 4), (6, 3), (6, 5)] {
        group.throughput(Throughput::Elements(M as u64));
        group.bench_function(format!("q{n}_r{r}"), |b| {
            let mut rng = ft_bench::rng(3);
            let plan = FtPlan::new(&random_faults(n, r, &mut rng)).unwrap();
            let config = FtConfig::default();
            b.iter_batched(
                || random_keys(M, &mut rng),
                |data| black_box(fault_tolerant_sort(&plan, &config, data, Attach::default())),
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_mffs(c: &mut Criterion) {
    let mut group = c.benchmark_group("mffs_baseline");
    group.sample_size(20);
    for (n, r) in [(5usize, 4usize), (6, 5)] {
        group.throughput(Throughput::Elements(M as u64));
        group.bench_function(format!("q{n}_r{r}"), |b| {
            let mut rng = ft_bench::rng(4);
            let faults = random_faults(n, r, &mut rng);
            b.iter_batched(
                || random_keys(M, &mut rng),
                |data| {
                    black_box(mffs_sort(
                        &faults,
                        &FtConfig::default(),
                        data,
                        Attach::default(),
                    ))
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_heapsort,
    bench_fault_free,
    bench_ft_sort,
    bench_mffs
);
criterion_main!(benches);
