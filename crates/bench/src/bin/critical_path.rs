//! Critical-path report: runs the fault-tolerant sort with tracing on,
//! walks the happens-before graph backward from the last-finishing node,
//! and prints where the virtual makespan actually went — per-phase
//! attribution of the longest dependency chain (which phases *gate* the
//! run, as opposed to the per-processor maxima of `breakdown`) plus an
//! ASCII gantt chart with the path capitalized.
//!
//! Both engines produce the identical trace, so the report is
//! engine-invariant; `--engine` only changes how fast it regenerates.
//!
//! ```text
//! cargo run -p ft-bench --release --bin critical_path \
//!     [-- --n 5 --faults 3,5,16,24 --m 4800 --seed 1992 --engine seq --threads 4 --width 72]
//! ```

use ft_bench::{parse_engine, random_keys, DEFAULT_SEED};
use ftsort::ftsort::{fault_tolerant_sort, phase_name, Attach, FtConfig, FtPlan};
use hypercube::fault::FaultSet;
use hypercube::obs::critical_path::{render_report, CriticalPath};
use hypercube::sim::EngineKind;
use hypercube::topology::Hypercube;

fn main() {
    let mut n = 5usize;
    let mut fault_list: Vec<u32> = vec![3, 5, 16, 24];
    let mut m_total = 4_800usize;
    let mut seed = DEFAULT_SEED;
    let mut engine = EngineKind::default();
    let mut threads: Option<usize> = None;
    let mut width = 72usize;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--n" => n = args.next().and_then(|v| v.parse().ok()).unwrap_or(n),
            "--threads" => threads = args.next().and_then(|v| v.parse().ok()),
            "--faults" => {
                fault_list = args
                    .next()
                    .unwrap_or_default()
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .filter_map(|v| v.trim().parse().ok())
                    .collect();
            }
            "--m" => m_total = args.next().and_then(|v| v.parse().ok()).unwrap_or(m_total),
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--engine" => engine = parse_engine(args.next()),
            "--width" => width = args.next().and_then(|v| v.parse().ok()).unwrap_or(width),
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    let faults = FaultSet::from_raw(Hypercube::new(n), &fault_list);
    let plan = match FtPlan::new(&faults) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let mut rng = ft_bench::rng(seed);
    let data = random_keys(m_total, &mut rng);
    let config = FtConfig {
        engine,
        tracing: true,
        threads,
        ..FtConfig::default()
    };
    let (out, _, obs) = fault_tolerant_sort(&plan, &config, data, Attach::default());
    assert!(out.sorted.windows(2).all(|w| w[0] <= w[1]), "output sorted");

    let path = CriticalPath::compute(&obs).expect("traced run has a path");
    println!(
        "Critical path of the FT sort: Q{n} faults {:?}, M = {m_total}, seed = {seed}",
        faults.to_vec()
    );
    print!("{}", render_report(&obs, &path, &phase_name, width));
}
