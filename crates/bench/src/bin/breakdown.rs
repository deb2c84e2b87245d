//! Phase breakdown report: where the fault-tolerant sort's simulated time
//! goes (step 3 / step 7 / step 8 / optional host I/O) across fault counts —
//! the cost-structure view behind the paper's §3 analysis.
//!
//! ```text
//! breakdown [--n 6] [--m 100000] [--seed 1992] [--host-io] [--engine seq|par]
//!           [--key-type u32|u64|i64|pair] [observability flags of ftsort-cli sort]
//! ```

use ft_bench::args::{dims, engine, Args, Flag, ENGINE, KEY_TYPE};
use ft_bench::{random_faults, random_keys_typed, GenKey, ObsFlags, DEFAULT_SEED};
use ftsort::ftsort::{fault_tolerant_sort, Attach, FtConfig, FtPlan};
use ftsort::seq::{KeyPair, KeyType};
use hypercube::sim::EngineKind;

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    ("--n", "N", "cube dimension (default 6)"),
    ("--m", "KEYS", "keys per sort (default 100000)"),
    ("--seed", "SEED", "fault and key seed (default 1992)"),
    ("--host-io", "", "charge the host's scatter and gather"),
    ENGINE,
    KEY_TYPE,
];

fn main() {
    ft_bench::end_on_closed_stdout();
    let args = Args::parse("breakdown", &[FLAGS, ObsFlags::FLAGS]);
    let n = args.get("--n", dims(1), 6);
    let m_total = args.get("--m", .., 100_000);
    let seed = args.get("--seed", .., DEFAULT_SEED);
    let host_io = args.switch("--host-io");
    let engine = args.value("--engine", engine).unwrap_or_default();
    let key_type = args.value("--key-type", KeyType::parse).unwrap_or_default();
    let obs_flags = ObsFlags::read(&args);
    args.finish();
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
