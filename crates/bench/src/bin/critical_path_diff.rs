//! Critical-path diff: run the fault-tolerant sort twice — same keys,
//! two fault sets — and attribute the entire makespan delta to named
//! (phase, link) critical-path segments.
//!
//! Where `critical_path` answers "what gates *this* run", this report
//! answers "what got *slower* when the fault pattern changed": extra
//! faults reroute compare-splits over multi-hop detours and shrink the
//! subcube sizes, and the diff shows exactly which phase and which
//! dimension's links absorb the cost. Because each run's critical-path
//! segments tile `[0, makespan]`, the per-bucket deltas sum to exactly
//! the makespan delta — 100% of the slowdown is attributed.
//!
//! ```text
//! cargo run -p ft-bench --release --bin critical_path_diff \
//!     [-- --n 6 --faults-a 9 --faults-b 9,22 --m 4800 --seed 1992 --engine seq --threads 4]
//! ```

use ft_bench::{parse_engine, random_keys, DEFAULT_SEED};
use ftsort::ftsort::{fault_tolerant_sort, phase_name, Attach, FtConfig, FtPlan};
use hypercube::fault::FaultSet;
use hypercube::obs::critical_path::CriticalPath;
use hypercube::obs::diff::{render_diff, DiffRow, SegmentProfile};
use hypercube::sim::EngineKind;
use hypercube::topology::Hypercube;

fn parse_faults(value: Option<String>) -> Vec<u32> {
    value
        .unwrap_or_default()
        .split(',')
        .filter(|s| !s.is_empty())
        .filter_map(|v| v.trim().parse().ok())
        .collect()
}

fn main() {
    let mut n = 6usize;
    let mut faults_a: Vec<u32> = vec![9];
    let mut faults_b: Vec<u32> = vec![9, 22];
    let mut m_total = 4_800usize;
    let mut seed = DEFAULT_SEED;
    let mut engine = EngineKind::default();
    let mut threads: Option<usize> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--n" => n = args.next().and_then(|v| v.parse().ok()).unwrap_or(n),
            "--faults-a" => faults_a = parse_faults(args.next()),
            "--faults-b" => faults_b = parse_faults(args.next()),
            "--m" => m_total = args.next().and_then(|v| v.parse().ok()).unwrap_or(m_total),
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--engine" => engine = parse_engine(args.next()),
            "--threads" => threads = args.next().and_then(|v| v.parse().ok()),
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    // Same keys for both runs: the delta isolates the fault pattern.
    let data = random_keys(m_total, &mut ft_bench::rng(seed));
    let profile = |fault_list: &[u32]| {
        let faults = FaultSet::from_raw(Hypercube::new(n), fault_list);
        let plan = match FtPlan::new(&faults) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
        let config = FtConfig {
            engine,
            tracing: true,
            threads,
            ..FtConfig::default()
        };
        let (out, _, obs) = fault_tolerant_sort(&plan, &config, data.clone(), Attach::default());
        assert!(out.sorted.windows(2).all(|w| w[0] <= w[1]), "output sorted");
        let path = CriticalPath::compute(&obs).expect("traced run has a path");
        SegmentProfile::collect(&obs, &path, &phase_name)
    };
    let a = profile(&faults_a);
    let b = profile(&faults_b);
    println!(
        "Critical-path diff of the FT sort: Q{n}, M = {m_total}, seed = {seed}, \
         faults {faults_a:?} vs {faults_b:?}"
    );
    let diff = hypercube::obs::diff::diff_profiles(&a, &b);
    assert!(!diff.is_empty(), "critical paths produced no segments");
    let attributed: f64 = diff.iter().map(DiffRow::delta).sum();
    let delta = b.makespan - a.makespan;
    assert!(
        (attributed - delta).abs() <= 1e-6 * delta.abs().max(1.0),
        "attribution must cover the makespan delta: {attributed} vs {delta}"
    );
    print!(
        "{}",
        render_diff(
            &a,
            &b,
            &format!("faults {faults_a:?}"),
            &format!("faults {faults_b:?}")
        )
    );
}
