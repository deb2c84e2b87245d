//! Scaling experiments beyond the paper's Q3–Q6 envelope:
//!
//! 1. machine-size sweep at fixed M: how the fault-tolerant sort's
//!    advantage over the MFFS fallback grows with `n` (the paper's
//!    "underutilization worsens with scale" argument, quantified);
//! 2. fault-count sweep past the `r ≤ n − 1` guarantee: the partition
//!    algorithm still applies whenever the faults are separable and no
//!    normal node is isolated (paper §2.2's closing remark).
//!
//! ```text
//! scaling [--m 64000] [--seed 1992] [--engine seq|par] [--key-type u32|u64|i64|pair]
//!         [observability flags of ftsort-cli sort]
//! ```

use ft_bench::args::{engine, Args, Flag, ENGINE, KEY_TYPE};
use ft_bench::{random_faults, random_keys_typed, GenKey, ObsFlags, DEFAULT_SEED};
use ftsort::bitonic::Protocol;
use ftsort::ftsort::{fault_tolerant_sort, Attach, FtConfig, FtPlan};
use ftsort::mffs::mffs_sort;
use ftsort::seq::{KeyPair, KeyType};
use hypercube::fault::FaultSet;
use hypercube::sim::EngineKind;
use hypercube::topology::Hypercube;

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    ("--m", "KEYS", "keys per sort (default 64000)"),
    ("--seed", "SEED", "fault and key seed (default 1992)"),
    ENGINE,
    KEY_TYPE,
];

fn main() {
    ft_bench::end_on_closed_stdout();
    let args = Args::parse("scaling", &[FLAGS, ObsFlags::FLAGS]);
    let m_total = args.get("--m", .., 64_000);
    let seed = args.get("--seed", .., DEFAULT_SEED);
    let engine = args.value("--engine", engine).unwrap_or_default();
    let key_type = args.value("--key-type", KeyType::parse).unwrap_or_default();
    let obs_flags = ObsFlags::read(&args);
    args.finish();
    match key_type {
        KeyType::U32 => run::<u32>(m_total, seed, engine, key_type, obs_flags),
        KeyType::U64 => run::<u64>(m_total, seed, engine, key_type, obs_flags),
        KeyType::I64 => run::<i64>(m_total, seed, engine, key_type, obs_flags),
        KeyType::Pair => run::<KeyPair>(m_total, seed, engine, key_type, obs_flags),
    }
}

fn run<K: GenKey>(
    m_total: usize,
    seed: u64,
    engine: EngineKind,
    key_type: KeyType,
    obs_flags: ObsFlags,
) {
    let mut rng = ft_bench::rng(seed);
    let config = FtConfig {
        protocol: Protocol::HalfExchange,
        engine,
        threads: obs_flags.threads,
        ..FtConfig::default()
    };

    println!(
        "1. Machine-size sweep at r = n − 1 faults, M = {m_total}; seed = {seed}, \
         keys = {key_type}\n"
    );
    println!(
        "{:>2} {:>5} {:>8} {:>12} {:>12} {:>8}",
        "n", "N", "live N'", "ours ms", "MFFS ms", "speedup"
    );
    println!("{}", "-".repeat(54));
    let trials = 6;
    let mut last = None;
    for n in 3..=8 {
        let mut live = 0usize;
        let mut ours_ms = 0.0;
        let mut mffs_ms = 0.0;
        for _ in 0..trials {
            let faults = random_faults(n, n - 1, &mut rng);
            let data: Vec<K> = random_keys_typed(m_total, &mut rng);
            let plan = FtPlan::new(&faults).expect("tolerable");
            live += plan.live_count();
            let (out, _, _) = fault_tolerant_sort(&plan, &config, data.clone(), Attach::default());
            ours_ms += out.time_us / 1000.0;
            if obs_flags.enabled() {
                last = Some((plan, config, data.clone()));
            }
            let (mffs, _) = mffs_sort(&faults, &config, data, Attach::default());
            mffs_ms += mffs.time_us / 1000.0;
        }
        let t = trials as f64;
        println!(
            "{:>2} {:>5} {:>8.1} {:>12.1} {:>12.1} {:>7.2}×",
            n,
            1 << n,
            live as f64 / t,
            ours_ms / t,
            mffs_ms / t,
            mffs_ms / ours_ms
        );
    }

    println!("\n2. Fault counts past r = n − 1 on Q6 (paper §2.2: the partition");
    println!("still applies while the faults are separable and nobody is isolated)\n");
    println!(
        "{:>2} {:>10} {:>4} {:>8} {:>10} {:>12}",
        "r", "tolerable", "m", "live N'", "util %", "ours ms"
    );
    println!("{}", "-".repeat(52));
    let cube = Hypercube::new(6);
    for r in [5usize, 8, 12, 16, 24, 32] {
        // draw until we find a set the planner accepts (or give up)
        let mut plan: Option<(FaultSet, FtPlan)> = None;
        let mut attempts = 0;
        while plan.is_none() && attempts < 200 {
            attempts += 1;
            let faults = FaultSet::random(cube, r, &mut rng);
            if let Ok(p) = FtPlan::new(&faults) {
                if p.structure().s() >= 1 {
                    plan = Some((faults, p));
                }
            }
        }
        match plan {
            Some((_faults, p)) => {
                let data: Vec<K> = random_keys_typed(m_total, &mut rng);
                if obs_flags.enabled() {
                    last = Some((p.clone(), config, data.clone()));
                }
                let (out, _, _) = fault_tolerant_sort(&p, &config, data, Attach::default());
                println!(
                    "{:>2} {:>10} {:>4} {:>8} {:>9.1}% {:>12.1}",
                    r,
                    format!("{attempts} tries"),
                    p.partition().mincut,
                    p.live_count(),
                    p.utilization() * 100.0,
                    out.time_us / 1000.0
                );
            }
            None => println!("{r:>2} {:>10}", "none found"),
        }
    }
    if let Some((plan, config, data)) = last {
        obs_flags.drill(&plan, &config, data, key_type);
    }
}
