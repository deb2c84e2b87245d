//! Criterion bench for the run-file gzip codec (`hypercube::obs::gz`).
//!
//! The input is the run file a Q8 sort streams through its sink (faults
//! {3, 17, 90, 141, 200}, 16 000 keys, ~8.6 MB of JSON), so the match
//! finder sees the repetition real run files have. Rows report MB/s of
//! uncompressed bytes:
//!
//! * `encode/per_line` — one write per line, as the streaming sink feeds
//!   `sort --run-out x.gz`;
//! * `encode/one_write` — the whole file in one write, as `replay --run-out`
//!   does;
//! * `inflate` — `gunzip` of the encoded file;
//! * `replay_parse` — `observation_from_json` on the plain text, the other
//!   half of the read path.
//!
//! The encoder's output is pinned byte for byte by `tests/gz_codec.rs`, so
//! only the wall clock may differ between versions.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ftsort::ftsort::{fault_tolerant_sort, Attach, FtConfig, FtPlan};
use hypercube::fault::FaultSet;
use hypercube::obs::gz::{gunzip, GzEncoder};
use hypercube::obs::replay::observation_from_json;
use hypercube::obs::sink::{StreamingSink, TraceSink};
use hypercube::sim::EngineKind;
use hypercube::topology::Hypercube;
use std::hint::black_box;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// The plain run file of a seeded Q8 sort, rendered by the streaming sink.
fn run_file() -> Vec<u8> {
    let faults = FaultSet::from_raw(Hypercube::new(8), &[3, 17, 90, 141, 200]);
    let plan = FtPlan::new(&faults).expect("tolerable");
    let data = ft_bench::random_keys(16_000, &mut ft_bench::rng(0x677a));
    let config = FtConfig {
        engine: EngineKind::Seq,
        ..FtConfig::default()
    };
    let sink = Arc::new(Mutex::new(StreamingSink::new(Vec::<u8>::new())));
    let dyn_sink: Arc<Mutex<dyn TraceSink>> = sink.clone();
    fault_tolerant_sort(
        &plan,
        &config,
        data,
        Attach {
            sink: Some(dyn_sink),
            ..Attach::default()
        },
    );
    Arc::try_unwrap(sink)
        .ok()
        .expect("the engine dropped its sink handle")
        .into_inner()
        .expect("sink lock")
        .into_inner()
        .expect("flush")
}

fn encode<'a>(pieces: impl Iterator<Item = &'a [u8]>, capacity: usize) -> Vec<u8> {
    let mut enc = GzEncoder::new(Vec::with_capacity(capacity)).expect("header");
    for piece in pieces {
        enc.write_all(piece).expect("write");
    }
    enc.finish().expect("finish")
}

fn bench_gz(c: &mut Criterion) {
    let plain = run_file();
    let lines: Vec<&[u8]> = plain.split_inclusive(|&b| b == b'\n').collect();
    let packed = encode(std::iter::once(&plain[..]), plain.len());
    let text = std::str::from_utf8(&plain).expect("run files are UTF-8");
    println!(
        "run file: {:.2} MB plain, {:.2} MB gzipped (ratio {:.1})",
        plain.len() as f64 / 1e6,
        packed.len() as f64 / 1e6,
        plain.len() as f64 / packed.len() as f64
    );

    let mut group = c.benchmark_group("gz");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(plain.len() as u64));
    group.bench_function("encode/per_line", |b| {
        b.iter(|| black_box(encode(lines.iter().copied(), packed.len())))
    });
    group.bench_function("encode/one_write", |b| {
        b.iter(|| black_box(encode(std::iter::once(&plain[..]), packed.len())))
    });
    group.bench_function("inflate", |b| {
        b.iter(|| black_box(gunzip(black_box(&packed)).expect("gunzip")))
    });
    group.bench_function("replay_parse", |b| {
        b.iter(|| black_box(observation_from_json(black_box(text)).expect("replays")))
    });
    group.finish();
}

criterion_group!(benches, bench_gz);
criterion_main!(benches);
