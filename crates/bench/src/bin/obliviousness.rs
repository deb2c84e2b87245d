//! Data-obliviousness experiment (beyond the paper): the fault-tolerant
//! bitonic sort's communication schedule never depends on key values, so
//! its simulated time is (near-)constant across input distributions —
//! while pivot-driven hyperquicksort swings widely. This structural
//! robustness is part of why bitonic sorting suited SIMD/MIMD hypercubes
//! and why the paper's fault-tolerance surgery is possible at all.
//!
//! ```text
//! obliviousness [--n 5] [--m 64000] [--seed 1992] [--engine seq|par]
//!               [--key-type u32|u64|i64|pair] [observability flags of ftsort-cli sort]
//! ```

use ft_bench::args::{dims, engine, Args, Flag, ENGINE, KEY_TYPE};
use ft_bench::workload::Workload;
use ft_bench::{GenKey, ObsFlags, DEFAULT_SEED};
use ftsort::baselines::hyperquicksort;
use ftsort::bitonic::Protocol;
use ftsort::ftsort::{fault_tolerant_sort, Attach, FtConfig, FtPlan};
use ftsort::seq::{KeyPair, KeyType};
use hypercube::fault::FaultSet;
use hypercube::sim::EngineKind;
use hypercube::topology::Hypercube;

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    ("--n", "N", "cube dimension (default 5)"),
    ("--m", "KEYS", "keys per sort (default 64000)"),
    ("--seed", "SEED", "fault and key seed (default 1992)"),
    ENGINE,
    KEY_TYPE,
];

fn main() {
    ft_bench::end_on_closed_stdout();
    let args = Args::parse("obliviousness", &[FLAGS, ObsFlags::FLAGS]);
    let n = args.get("--n", dims(1), 5);
    let m_total = args.get("--m", .., 64_000);
    let seed = args.get("--seed", .., DEFAULT_SEED);
    let engine = args.value("--engine", engine).unwrap_or_default();
    let key_type = args.value("--key-type", KeyType::parse).unwrap_or_default();
    let obs_flags = ObsFlags::read(&args);
    args.finish();
    match key_type {
        KeyType::U32 => run::<u32>(n, m_total, seed, engine, key_type, obs_flags),
        KeyType::U64 => run::<u64>(n, m_total, seed, engine, key_type, obs_flags),
        KeyType::I64 => run::<i64>(n, m_total, seed, engine, key_type, obs_flags),
        KeyType::Pair => run::<KeyPair>(n, m_total, seed, engine, key_type, obs_flags),
    }
}

fn run<K: GenKey>(
    n: usize,
    m_total: usize,
    seed: u64,
    engine: EngineKind,
    key_type: KeyType,
    obs_flags: ObsFlags,
) {
    let mut rng = ft_bench::rng(seed);
    let cube = Hypercube::new(n);
    let faults = FaultSet::random(cube, n - 1, &mut rng);
    println!(
        "Data-obliviousness on Q{n} (faults {:?} for ours; hyperquicksort runs \
         fault-free), M = {m_total}; seed = {seed}, keys = {key_type}\n",
        faults.to_vec()
    );
    println!(
        "{:<14} {:>14} {:>16}",
        "distribution", "FT bitonic ms", "hyperquick ms"
    );
    println!("{}", "-".repeat(46));
    let config = FtConfig {
        protocol: Protocol::HalfExchange,
        engine,
        threads: obs_flags.threads,
        ..FtConfig::default()
    };
    let mut ft_times = Vec::new();
    let mut hq_times = Vec::new();
    let mut last = None;
    for w in Workload::ALL {
        let data: Vec<K> = w.generate_typed(m_total, &mut rng);
        let mut expect = data.clone();
        expect.sort_unstable();
        let plan = FtPlan::new(&faults).expect("tolerable");
        let (ours, _, _) = fault_tolerant_sort(&plan, &config, data.clone(), Attach::default());
        assert_eq!(ours.sorted, expect);
        if obs_flags.enabled() {
            last = Some((plan, config, data.clone()));
        }
        let (hq, _) = hyperquicksort(cube, &config, data, Attach::default());
        assert_eq!(hq.sorted, expect);
        println!(
            "{:<14} {:>14.1} {:>16.1}",
            format!("{w:?}"),
            ours.time_us / 1000.0,
            hq.time_us / 1000.0
        );
        ft_times.push(ours.time_us);
        hq_times.push(hq.time_us);
    }
    let spread = |v: &[f64]| {
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(0.0f64, f64::max);
        (max - min) / min * 100.0
    };
    println!("{}", "-".repeat(46));
    println!(
        "spread (max−min)/min: FT bitonic {:.1}%, hyperquicksort {:.1}%",
        spread(&ft_times),
        spread(&hq_times)
    );
    if let Some((plan, config, data)) = last {
        obs_flags.drill(&plan, &config, data, key_type);
    }
}
