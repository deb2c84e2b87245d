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
//! figure7 [--n 6] [--seed 1992] [--trials 3] [--csv] [--engine seq|par]
//!         [--key-type u32|u64|i64|pair] [--tsr US] [--tc US] [--startup US]
//!         [observability flags of ftsort-cli sort]
//! ```

use ft_bench::args::{dims, engine, number, Args, Flag, ENGINE, KEY_TYPE};
use ft_bench::{random_faults, random_keys_typed, GenKey, ObsFlags, DEFAULT_SEED};
use ftsort::bitonic::{bitonic_sort, Protocol};
use ftsort::ftsort::{fault_tolerant_sort, Attach, FtConfig, FtPlan};
use ftsort::seq::{KeyPair, KeyType};
use hypercube::cost::CostModel;
use hypercube::sim::EngineKind;
use hypercube::topology::Hypercube;

const M_SWEEP: [usize; 5] = [3_200, 10_000, 32_000, 100_000, 320_000];

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    ("--n", "N", "one panel, Q_N (default: the paper's four, 6 5 3 4)"),
    ("--seed", "SEED", "fault and key seed (default 1992)"),
    ("--trials", "T", "fault draws per r (default 3)"),
    ("--csv", "", "print CSV rows"),
    ENGINE,
    KEY_TYPE,
    // sensitivity knobs (see EXPERIMENTS.md §Sensitivity)
    ("--tsr", "US", "µs to move one element across one link (default 3.2)"),
    ("--tc", "US", "µs per key comparison (default 3)"),
    ("--startup", "US", "µs of start-up per message (default 300)"),
];

fn main() {
    ft_bench::end_on_closed_stdout();
    let args = Args::parse("figure7", &[FLAGS, ObsFlags::FLAGS]);
    let panels = match args.value("--n", |s| number(s, &dims(1))) {
        Some(n) => vec![n],
        None => vec![6, 5, 3, 4], // the paper's (a), (b), (c), (d) order
    };
    let seed = args.get("--seed", .., DEFAULT_SEED);
    let trials = args.get("--trials", 1.., 3);
    let csv = args.switch("--csv");
    let engine = args.value("--engine", engine).unwrap_or_default();
    let key_type = args.value("--key-type", KeyType::parse).unwrap_or_default();
    let d = CostModel::default();
    let cost = CostModel {
        t_sr: args.get("--tsr", 0.0..f64::INFINITY, d.t_sr),
        t_c: args.get("--tc", 0.0..f64::INFINITY, d.t_c),
        t_startup: args.get("--startup", 0.0..f64::INFINITY, d.t_startup),
    };
    let obs_flags = ObsFlags::read(&args);
    args.finish();
    let run = match key_type {
        KeyType::U32 => run::<u32>,
        KeyType::U64 => run::<u64>,
        KeyType::I64 => run::<i64>,
        KeyType::Pair => run::<KeyPair>,
    };
    run(
        &panels, seed, trials, csv, cost, engine, key_type, &obs_flags,
    );
}

#[allow(clippy::too_many_arguments)]
fn run<K: GenKey>(
    panels: &[usize],
    seed: u64,
    trials: usize,
    csv: bool,
    cost: CostModel,
    engine: EngineKind,
    key_type: KeyType,
    obs_flags: &ObsFlags,
) {
    let config = FtConfig {
        cost,
        protocol: Protocol::HalfExchange,
        engine,
        threads: obs_flags.threads,
        ..FtConfig::default()
    };
    let mut last = None;
    for &n in panels {
        figure7_panel::<K>(n, seed, trials, csv, &config, obs_flags, &mut last);
        println!();
    }
    if let Some((plan, config, data)) = last {
        obs_flags.drill(&plan, &config, data, key_type);
    }
}

fn figure7_panel<K: GenKey>(
    n: usize,
    seed: u64,
    trials: usize,
    csv: bool,
    config: &FtConfig,
    obs_flags: &ObsFlags,
    last: &mut Option<(FtPlan, FtConfig, Vec<K>)>,
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
            config.cost
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
                let (out, _, _) =
                    fault_tolerant_sort(&plan, config, data.clone(), Attach::default());
                total += out.time_us;
                if obs_flags.enabled() {
                    *last = Some((plan, *config, data.clone()));
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
            let (out, _) = bitonic_sort(
                Hypercube::new(n - t),
                config,
                data.clone(),
                Attach::default(),
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
