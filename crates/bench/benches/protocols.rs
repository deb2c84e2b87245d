//! Ablation A: the paper's half-exchange compare-split protocol vs the
//! classic full exchange, in the context of a complete fault-tolerant sort.
//! Reports both wall-clock (criterion) and, via the `sort` bin outputs,
//! the simulated-time difference.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ft_bench::{random_faults, random_keys};
use ftsort::bitonic::Protocol;
use ftsort::ftsort::{fault_tolerant_sort, Attach, FtConfig, FtPlan};
use std::hint::black_box;

const M: usize = 32_000;

fn bench_protocols(c: &mut Criterion) {
    let mut group = c.benchmark_group("protocol_ablation");
    group.sample_size(20);
    for protocol in [Protocol::FullExchange, Protocol::HalfExchange] {
        group.bench_function(format!("{protocol:?}"), |b| {
            let mut rng = ft_bench::rng(5);
            let plan = FtPlan::new(&random_faults(6, 4, &mut rng)).unwrap();
            let config = FtConfig {
                protocol,
                ..FtConfig::default()
            };
            b.iter_batched(
                || random_keys(M, &mut rng),
                |data| black_box(fault_tolerant_sort(&plan, &config, data, Attach::default())),
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_protocols);
criterion_main!(benches);
