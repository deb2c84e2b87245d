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
//! cargo run -p ft-bench --release --bin scaling \
//!     [-- --m 64000 --seed 1992 --engine seq --key-type i64 --threads 4 --trace-out t.json --metrics-out m.json]
//! ```

use ft_bench::{parse_engine, random_faults, random_keys_typed, GenKey, ObsFlags, DEFAULT_SEED};
use ftsort::bitonic::Protocol;
use ftsort::ftsort::{fault_tolerant_sort, Attach, FtConfig, FtPlan};
use ftsort::mffs::mffs_sort_with_engine;
use ftsort::seq::{KeyPair, KeyType};
use hypercube::cost::CostModel;
use hypercube::fault::FaultSet;
use hypercube::sim::EngineKind;
use hypercube::topology::Hypercube;

fn main() {
    let mut m_total = 64_000usize;
    let mut seed = DEFAULT_SEED;
    let mut engine = EngineKind::default();
    let mut key_type = KeyType::default();
    let mut obs_flags = ObsFlags::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--m" => m_total = args.next().and_then(|v| v.parse().ok()).unwrap_or(m_total),
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
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
    mut obs_flags: ObsFlags,
) {
    let mut rng = ft_bench::rng(seed);

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
    for n in 3..=8 {
        let mut live = 0usize;
        let mut ours_ms = 0.0;
        let mut mffs_ms = 0.0;
        for _ in 0..trials {
            let faults = random_faults(n, n - 1, &mut rng);
            let data: Vec<K> = random_keys_typed(m_total, &mut rng);
            let plan = FtPlan::new(&faults).expect("tolerable");
            live += plan.live_count();
            let config = FtConfig {
                protocol: Protocol::HalfExchange,
                engine,
                tracing: obs_flags.tracing(),
                threads: obs_flags.threads,
                ..FtConfig::default()
            };
            let (out, _, obs) =
                fault_tolerant_sort(&plan, &config, data.clone(), Attach::default());
            ours_ms += out.time_us / 1000.0;
            if obs_flags.enabled() {
                obs_flags.observe(obs);
            }
            if obs_flags.sched_enabled() {
                obs_flags.profile_sched(&plan, &config, data.clone());
            }
            mffs_ms += mffs_sort_with_engine(
                &faults,
                CostModel::default(),
                data,
                Protocol::HalfExchange,
                engine,
            )
            .time_us
                / 1000.0;
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
                let config = FtConfig {
                    protocol: Protocol::HalfExchange,
                    engine,
                    tracing: obs_flags.tracing(),
                    threads: obs_flags.threads,
                    ..FtConfig::default()
                };
                let sched_data = obs_flags.sched_enabled().then(|| data.clone());
                let (out, _, obs) = fault_tolerant_sort(&p, &config, data, Attach::default());
                if obs_flags.enabled() {
                    obs_flags.observe(obs);
                }
                if let Some(sched_data) = sched_data {
                    obs_flags.profile_sched(&p, &config, sched_data);
                }
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
    obs_flags.write();
}
