//! Phase breakdown report: where the fault-tolerant sort's simulated time
//! goes (step 3 / step 7 / step 8 / optional host I/O) across fault counts —
//! the cost-structure view behind the paper's §3 analysis.
//!
//! ```text
//! cargo run -p ft-bench --release --bin breakdown \
//!     [-- --n 6 --m 100000 --seed 1992 --host-io --engine seq --key-type i64 --threads 4 --trace-out t.json --metrics-out m.json]
//! ```

use ft_bench::{
    parse, parse_dim, parse_engine, random_faults, random_keys_typed, GenKey, ObsFlags,
    DEFAULT_SEED,
};
use ftsort::ftsort::{fault_tolerant_sort, Attach, FtConfig, FtPlan};
use ftsort::seq::{KeyPair, KeyType};
use hypercube::sim::EngineKind;

fn main() {
    let mut n = 6usize;
    let mut m_total = 100_000usize;
    let mut seed = DEFAULT_SEED;
    let mut host_io = false;
    let mut engine = EngineKind::default();
    let mut key_type = KeyType::default();
    let mut obs_flags = ObsFlags::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--n" => n = parse_dim(&a, args.next().as_deref()),
            "--m" => m_total = parse(&a, args.next().as_deref(), .., "a key count, e.g. 100000"),
            "--seed" => seed = parse(&a, args.next().as_deref(), .., "an integer, e.g. 1992"),
            "--host-io" => host_io = true,
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
        KeyType::U32 => run::<u32>(n, m_total, seed, host_io, engine, key_type, obs_flags),
        KeyType::U64 => run::<u64>(n, m_total, seed, host_io, engine, key_type, obs_flags),
        KeyType::I64 => run::<i64>(n, m_total, seed, host_io, engine, key_type, obs_flags),
        KeyType::Pair => run::<KeyPair>(n, m_total, seed, host_io, engine, key_type, obs_flags),
    }
}

fn run<K: GenKey>(
    n: usize,
    m_total: usize,
    seed: u64,
    host_io: bool,
    engine: EngineKind,
    key_type: KeyType,
    obs_flags: ObsFlags,
) {
    let mut rng = ft_bench::rng(seed);
    println!(
        "Phase breakdown on Q{n}, M = {m_total}, host I/O {}; seed = {seed}, keys = {key_type}",
        if host_io { "charged" } else { "free" }
    );
    println!("(per-phase maxima over processors, simulated ms)\n");
    println!(
        "{:>2} {:>3} {:>4} | {:>9} {:>9} {:>9} {:>9} {:>9} | {:>9}",
        "r", "m", "N'", "scatter", "step3", "step7", "step8", "gather", "total"
    );
    println!("{}", "-".repeat(86));
    let mut last = None;
    for r in 0..n {
        let faults = random_faults(n, r, &mut rng);
        let plan = FtPlan::new(&faults).expect("tolerable");
        let data: Vec<K> = random_keys_typed(m_total, &mut rng);
        let config = FtConfig {
            include_host_io: host_io,
            engine,
            threads: obs_flags.threads,
            ..FtConfig::default()
        };
        if obs_flags.enabled() {
            last = Some((plan.clone(), config, data.clone()));
        }
        let (out, phases, _) = fault_tolerant_sort(&plan, &config, data, Attach::default());
        println!(
            "{:>2} {:>3} {:>4} | {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} | {:>9.1}",
            r,
            plan.partition().mincut,
            plan.live_count(),
            phases.host_scatter_us / 1000.0,
            phases.step3_us / 1000.0,
            phases.step7_us / 1000.0,
            phases.step8_us / 1000.0,
            phases.host_gather_us / 1000.0,
            out.time_us / 1000.0
        );
    }
    if let Some((plan, config, data)) = last {
        obs_flags.drill(&plan, &config, data, key_type);
    }
}
