//! Data-obliviousness experiment (beyond the paper): the fault-tolerant
//! bitonic sort's communication schedule never depends on key values, so
//! its simulated time is (near-)constant across input distributions —
//! while pivot-driven hyperquicksort swings widely. This structural
//! robustness is part of why bitonic sorting suited SIMD/MIMD hypercubes
//! and why the paper's fault-tolerance surgery is possible at all.
//!
//! ```text
//! cargo run -p ft-bench --release --bin obliviousness \
//!     [-- --n 5 --m 64000 --seed 1992 --engine seq --key-type i64 --threads 4 --trace-out t.json --metrics-out m.json]
//! ```

use ft_bench::workload::Workload;
use ft_bench::{parse, parse_dim, parse_engine, GenKey, ObsFlags, DEFAULT_SEED};
use ftsort::baselines::hyperquicksort;
use ftsort::bitonic::Protocol;
use ftsort::ftsort::{fault_tolerant_sort, Attach, FtConfig, FtPlan};
use ftsort::seq::{KeyPair, KeyType};
use hypercube::fault::FaultSet;
use hypercube::sim::EngineKind;
use hypercube::topology::Hypercube;

fn main() {
    let mut n = 5usize;
    let mut m_total = 64_000usize;
    let mut seed = DEFAULT_SEED;
    let mut engine = EngineKind::default();
    let mut key_type = KeyType::default();
    let mut obs_flags = ObsFlags::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--n" => n = parse_dim(&a, args.next().as_deref()),
            "--m" => m_total = parse(&a, args.next().as_deref(), .., "a key count, e.g. 64000"),
            "--seed" => seed = parse(&a, args.next().as_deref(), .., "an integer, e.g. 1992"),
            "--engine" => engine = parse_engine(args.next()),
            "--key-type" => key_type = ft_bench::parse_key_type(args.next()),
            other => {
                if !obs_flags.parse(other, &mut args) {
                    eprintln!("unknown argument {other}");
                    std::process::exit(2);
                }
            }
        }
    }
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
