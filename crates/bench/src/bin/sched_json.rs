//! Scheduler-health bench: runs the full fault-tolerant sort on the
//! work-stealing parallel engine with the scheduler profiler attached and
//! emits machine-readable `BENCH_sched.json` — one row per
//! `(n, workers)` rung of the `{1, 2, 4, host_cores}` ladder with the
//! three headline metrics of a [`SchedReport`]: **utilization**
//! (Σ busy / workers × makespan), **steal_rate** (stolen / claimed) and
//! **barrier_share** (barrier + park / Σ wall). `bench_diff` gates these
//! rows like the engine rows: utilization must not collapse and barrier
//! share must not balloon between two runs on the same host.
//!
//! Each rung runs `--trials` profiled sorts and keeps the trial with the
//! smallest makespan — same best-of discipline as `engines_json`, since
//! scheduler noise (a descheduled worker, a cold cache) only ever makes
//! utilization look *worse* than the scheduler's real health.
//!
//! ```text
//! cargo run -p ft-bench --release --bin sched_json \
//!     [-- --sizes 6,8,10 --m 16000 --trials 3 --seed 1992 \
//!          --key-type i64 --out BENCH_sched.json]
//! ```
//!
//! [`SchedReport`]: hypercube::obs::sched::SchedReport

use ft_bench::{random_faults, random_keys_typed, GenKey, DEFAULT_SEED};
use ftsort::bitonic::Protocol;
use ftsort::ftsort::{fault_tolerant_sort, Attach, FtConfig, FtPlan};
use ftsort::seq::{KeyPair, KeyType};
use hypercube::obs::sched::{SchedProfiler, SchedReport};
use hypercube::sim::EngineKind;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

struct Row {
    n: usize,
    r: usize,
    m_total: usize,
    /// Worker count requested for this rung.
    workers: usize,
    report: SchedReport,
    /// Wall seconds of the kept (min-makespan) profiled run.
    profile_wall_s: f64,
}

/// The same `{1, 2, 4, host_cores}` ladder as `engines_json`, so sched
/// rows and engine rows key identically across hosts.
fn worker_ladder(host_cores: usize) -> Vec<usize> {
    let mut ladder = vec![1, 2, 4, host_cores];
    ladder.sort_unstable();
    ladder.dedup();
    ladder
}

struct Cfg {
    sizes: Vec<usize>,
    m_total: usize,
    trials: usize,
    seed: u64,
    out: String,
    key_type: KeyType,
}

fn main() {
    let mut sizes: Vec<usize> = vec![6, 8, 10];
    let mut m_total = 16_000usize;
    let mut trials = 3usize;
    let mut seed = DEFAULT_SEED;
    let mut out = String::from("BENCH_sched.json");
    let mut key_type = KeyType::default();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--sizes" => {
                sizes = args
                    .next()
                    .unwrap_or_default()
                    .split(',')
                    .filter_map(|v| v.parse().ok())
                    .collect();
                if sizes.is_empty() {
                    eprintln!("--sizes needs a comma list, e.g. 6,8,10");
                    std::process::exit(2);
                }
            }
            "--m" => m_total = args.next().and_then(|v| v.parse().ok()).unwrap_or(m_total),
            "--trials" => trials = args.next().and_then(|v| v.parse().ok()).unwrap_or(trials),
            "--seed" => seed = args.next().and_then(|v| v.parse().ok()).unwrap_or(seed),
            "--out" => out = args.next().unwrap_or(out),
            "--key-type" => key_type = ft_bench::parse_key_type(args.next()),
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    let cfg = Cfg {
        sizes,
        m_total,
        trials,
        seed,
        out,
        key_type,
    };
    match cfg.key_type {
        KeyType::U32 => run::<u32>(cfg),
        KeyType::U64 => run::<u64>(cfg),
        KeyType::I64 => run::<i64>(cfg),
        KeyType::Pair => run::<KeyPair>(cfg),
    }
}

fn run<K: GenKey>(cfg: Cfg) {
    let Cfg {
        sizes,
        m_total,
        trials,
        seed,
        out,
        key_type,
    } = cfg;
    let mut rng = ft_bench::rng(seed);
    let host_cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let ladder = worker_ladder(host_cores);

    println!(
        "Scheduler profile of the par engine, full FT sort, M = {m_total}, r = n − 1, \
         best of {trials} runs; seed = {seed}, keys = {key_type}, \
         host cores = {host_cores}, workers {ladder:?}\n"
    );
    println!(
        "{:>3} {:>3} {:>7} {:>9} {:>12} {:>11} {:>13} {:>10}",
        "n", "r", "workers", "effective", "utilization", "steal rate", "barrier share", "wall s"
    );
    println!("{}", "-".repeat(75));

    let mut rows = Vec::new();
    for &n in &sizes {
        let r = n - 1;
        let faults = random_faults(n, r, &mut rng);
        let plan = FtPlan::new(&faults).expect("r = n − 1 is tolerable");
        let data: Vec<K> = random_keys_typed(m_total, &mut rng);
        let mut expect = data.clone();
        expect.sort_unstable();
        for &workers in &ladder {
            let config = FtConfig {
                protocol: Protocol::HalfExchange,
                engine: EngineKind::Par,
                threads: Some(workers),
                ..FtConfig::default()
            };
            let mut best: Option<(u64, SchedReport, f64)> = None;
            for _ in 0..trials {
                let profiler = Arc::new(SchedProfiler::new());
                let start = Instant::now();
                let (sort, _, _) = fault_tolerant_sort(
                    &plan,
                    &config,
                    data.clone(),
                    Attach {
                        profiler: Some(Arc::clone(&profiler)),
                        ..Attach::default()
                    },
                );
                let wall_s = start.elapsed().as_secs_f64();
                assert_eq!(sort.sorted, expect, "n={n} workers={workers}: sort broke");
                let profile = profiler.take().expect("par run installs a profile");
                let makespan = profile.makespan_ns();
                if best.as_ref().is_none_or(|(b, _, _)| makespan < *b) {
                    best = Some((makespan, profile.report(), wall_s));
                }
            }
            let (_, report, profile_wall_s) = best.expect("trials ≥ 1");
            println!(
                "{:>3} {:>3} {:>7} {:>9} {:>12.3} {:>11.3} {:>13.3} {:>10.4}",
                n,
                r,
                workers,
                report.workers,
                report.utilization(),
                report.steal_rate(),
                report.barrier_share(),
                profile_wall_s,
            );
            rows.push(Row {
                n,
                r,
                m_total,
                workers,
                report,
                profile_wall_s,
            });
        }
    }

    let json = render_json(seed, trials, m_total, host_cores, key_type, &rows);
    std::fs::write(&out, &json).expect("write BENCH_sched.json");
    println!("\nwrote {out}");
}

/// Hand-rolled JSON, same shape discipline as `BENCH_engines.json`:
/// top-level provenance, then one flat row per `(n, workers)`.
fn render_json(
    seed: u64,
    trials: usize,
    m_total: usize,
    host_cores: usize,
    key_type: KeyType,
    rows: &[Row],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"sched\",");
    let _ = writeln!(s, "  \"seed\": {seed},");
    let _ = writeln!(s, "  \"m\": {m_total},");
    let _ = writeln!(s, "  \"trials\": {trials},");
    let _ = writeln!(s, "  \"host_cores\": {host_cores},");
    let _ = writeln!(s, "  \"key_type\": \"{key_type}\",");
    s.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"n\": {}, \"r\": {}, \"m\": {}, \"workers\": {}, \
             \"workers_effective\": {}, \"shard_size\": {}, \"shard_count\": {}, \
             \"utilization\": {:.4}, \"steal_rate\": {:.4}, \"barrier_share\": {:.4}, \
             \"makespan_ns\": {}, \"events_dropped\": {}, \"profile_wall_s\": {:.6}}}",
            row.n,
            row.r,
            row.m_total,
            row.workers,
            row.report.workers,
            row.report.shard_size,
            row.report.shard_count,
            row.report.utilization(),
            row.report.steal_rate(),
            row.report.barrier_share(),
            row.report.makespan_ns,
            row.report.events_dropped,
            row.profile_wall_s,
        );
        s.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    s.push_str("  ]\n}\n");
    s
}
