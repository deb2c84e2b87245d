//! Regenerates **Figure 7** of the paper: execution time of the proposed
//! fault-tolerant sorting algorithm (thin lines, one per fault count `r`)
//! versus the bitonic sorting algorithm on fault-free subcubes `Q_{n-t}`
//! (thick lines — what the MFFS baseline would run on), as the number of
//! elements `M` sweeps `3.2·10³ … 3.2·10⁵`.
//!
//! * `figure7 --n 6` → Figure 7(a)
//! * `figure7 --n 5` → Figure 7(b)
//! * `figure7 --n 3` → Figure 7(c)
//! * `figure7 --n 4` → Figure 7(d)
//! * no `--n` → all four panels
//!
//! ```text
//! cargo run -p ft-bench --release --bin figure7 \
//!     [-- --n 6 --seed 1992 --trials 3 --engine seq --key-type i64 --threads 4 --trace-out t.json --metrics-out m.json]
//! ```

use ft_bench::{parse_engine, random_faults, random_keys_typed, GenKey, ObsFlags, DEFAULT_SEED};
use ftsort::bitonic::{bitonic_sort_with_engine, Protocol};
use ftsort::ftsort::{fault_tolerant_sort, Attach, FtConfig, FtPlan};
use ftsort::seq::{KeyPair, KeyType};
use hypercube::cost::CostModel;
use hypercube::sim::EngineKind;
use hypercube::topology::Hypercube;

const M_SWEEP: [usize; 5] = [3_200, 10_000, 32_000, 100_000, 320_000];

fn main() {
    let mut panel: Option<usize> = None;
    let mut seed = DEFAULT_SEED;
    let mut trials = 3usize;
    let mut csv = false;
    let mut cost = CostModel::default();
    let mut engine = EngineKind::default();
    let mut key_type = KeyType::default();
    let mut obs_flags = ObsFlags::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--n" => panel = args.next().and_then(|v| v.parse().ok()),
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--trials" => trials = args.next().and_then(|v| v.parse().ok()).unwrap_or(trials),
            "--csv" => csv = true,
            "--engine" => engine = parse_engine(args.next()),
            "--key-type" => key_type = ft_bench::parse_key_type(args.next()),
            // sensitivity knobs (see EXPERIMENTS.md §Sensitivity)
            "--tsr" => {
                cost.t_sr = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(cost.t_sr)
            }
            "--tc" => cost.t_c = args.next().and_then(|v| v.parse().ok()).unwrap_or(cost.t_c),
            "--startup" => {
                cost.t_startup = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(cost.t_startup)
            }
            other => {
                if !obs_flags.parse(other, &mut args) {
                    eprintln!("unknown argument {other}");
                    std::process::exit(2);
                }
            }
        }
    }
    let panels: Vec<usize> = match panel {
        Some(n) => vec![n],
        None => vec![6, 5, 3, 4], // the paper's (a), (b), (c), (d) order
    };
    for n in panels {
        match key_type {
            KeyType::U32 => {
                figure7_panel::<u32>(n, seed, trials, csv, cost, engine, &mut obs_flags)
            }
            KeyType::U64 => {
                figure7_panel::<u64>(n, seed, trials, csv, cost, engine, &mut obs_flags)
            }
            KeyType::I64 => {
                figure7_panel::<i64>(n, seed, trials, csv, cost, engine, &mut obs_flags)
            }
            KeyType::Pair => {
                figure7_panel::<KeyPair>(n, seed, trials, csv, cost, engine, &mut obs_flags)
            }
        }
        println!();
    }
    obs_flags.write();
}

#[allow(clippy::too_many_arguments)]
fn figure7_panel<K: GenKey>(
    n: usize,
    seed: u64,
    trials: usize,
    csv: bool,
    cost: CostModel,
    engine: EngineKind,
    obs_flags: &mut ObsFlags,
) {
    let label = match n {
        6 => "(a)",
        5 => "(b)",
        3 => "(c)",
        4 => "(d)",
        _ => "(?)",
    };
    let mut rng = ft_bench::rng(seed);
    if csv {
        print!("M");
        for r in 0..n {
            print!(",ours_r{r}");
        }
        for t in 1..n {
            print!(",q{}", n - t);
        }
        println!();
    } else {
        println!(
            "Figure 7{label}: execution time (simulated ms) on Q{n}; seed = {seed}, \
             {trials} fault draws per r; cost model {:?}",
            cost
        );
        print!("{:>9}", "M");
        for r in 0..n {
            print!(" {:>10}", format!("ours r={r}"));
        }
        for t in 1..n {
            print!(" {:>10}", format!("Q{}", n - t));
        }
        println!();
        println!("{}", "-".repeat(9 + 11 * (n + n - 1)));
    }

    // pre-draw fault sets per r (shared across the M sweep so each thin
    // line corresponds to fixed machines, like the paper's averaging)
    let fault_sets: Vec<Vec<hypercube::fault::FaultSet>> = (0..n)
        .map(|r| (0..trials).map(|_| random_faults(n, r, &mut rng)).collect())
        .collect();

    for m_total in M_SWEEP {
        let data: Vec<K> = random_keys_typed(m_total, &mut rng);
        if csv {
            print!("{m_total}");
        } else {
            print!("{m_total:>9}");
        }
        for sets in fault_sets.iter() {
            let mut total = 0.0;
            for faults in sets {
                let plan = FtPlan::new(faults).expect("tolerable");
                let (out, _, obs) = fault_tolerant_sort(
                    &plan,
                    &FtConfig {
                        cost,
                        protocol: Protocol::HalfExchange,
                        engine,
                        tracing: obs_flags.tracing(),
                        threads: obs_flags.threads,
                        ..FtConfig::default()
                    },
                    data.clone(),
                    Attach::default(),
                );
                total += out.time_us;
                if obs_flags.enabled() {
                    obs_flags.observe(obs);
                }
                if obs_flags.sched_enabled() {
                    let config = FtConfig {
                        cost,
                        protocol: Protocol::HalfExchange,
                        engine,
                        ..FtConfig::default()
                    };
                    obs_flags.profile_sched(&plan, &config, data.clone());
                }
            }
            let ms = total / sets.len() as f64 / 1000.0;
            if csv {
                print!(",{ms:.3}");
            } else {
                print!(" {ms:>10.1}");
            }
        }
        for t in 1..n {
            let out = bitonic_sort_with_engine(
                Hypercube::new(n - t),
                cost,
                data.clone(),
                Protocol::HalfExchange,
                engine,
                obs_flags.threads,
            );
            let ms = out.time_us / 1000.0;
            if csv {
                print!(",{ms:.3}");
            } else {
                print!(" {ms:>10.1}");
            }
        }
        println!();
    }
    if csv {
        return;
    }
    match n {
        6 => println!("Paper claims: r=1,2 < fault-free Q5; r=3,4,5 < fault-free Q4 (but > Q5)."),
        5 => println!("Paper claims: r=1,2 < fault-free Q4; r=3,4 < fault-free Q3."),
        _ => {}
    }
}
