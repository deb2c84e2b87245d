//! Engine shoot-out: wall-clock time of the **sequential** frontier engine
//! and the **parallel** work-stealing engine running the identical full
//! fault-tolerant sort, emitted as machine-readable `BENCH_engines.json`.
//!
//! Both engines produce byte-identical simulated results (sorted output,
//! virtual time, operation counts — asserted here per run); the only thing
//! that differs is how long the host takes to compute them. The parallel
//! engine work-steals cache-sized node shards across a worker pool, so its
//! advantage over `seq` scales with `host_cores` (reported in the JSON).
//! Each `n` is benchmarked at several worker counts — the
//! `{1, 2, 4, host_cores}` ladder, deduplicated — one JSON row per
//! `(n, workers)` pair, so the par-beats-seq crossover is visible in the
//! data and `bench_diff` can gate on it. On a single-core host every
//! rung degenerates to the seq loop plus scheduler overhead and the
//! crossover cannot manifest (rungs above the core count still run: they
//! exercise oversubscription and keep row keys comparable across hosts).
//!
//! The full ladder runs under **both link models**: the paper's
//! uncontended pricing and the contended (one message per directed link)
//! model, one row set each, distinguished by the `link_model` column.
//! Contended rows additionally carry `wait_total_us` — the total
//! link-queueing wait summed over nodes, a deterministic virtual quantity
//! `bench_diff` gates at the virtual-time tolerance (uncontended rows
//! report it too; it is identically 0 there).
//!
//! Every par row also carries the scheduler's health on that rung, from
//! a [`SchedReport`]: **utilization** (Σ busy / workers × makespan),
//! **steal_rate** (stolen / claimed), **barrier_share** (barrier + park /
//! Σ wall), the run's `makespan_ns` and the profiler's `events_dropped`.
//! After its timed sorts each rung runs `--trials` profiled ones and keeps
//! the one with the smallest makespan: scheduler noise (a descheduled
//! worker, a cold cache) only ever makes health look worse. The timed
//! sorts stay bare, so the wall columns never pay for the profiler.
//! `bench_diff` gates utilization and barrier share like the wall ratios
//! (same host, banded by `--wall-tolerance`).
//!
//! Keys default to `i64`; `--key-type u32|u64|i64|pair` selects the
//! element type the whole run is monomorphised over (recorded top-level).
//! A `kernel` section times the merge kernels themselves — scalar vs
//! branchless vs blocked, per key type — so kernel-level regressions are
//! caught even when the full-sort wall clock hides them; `bench_diff`
//! gates the kernel speedups like the engine wall ratios (same host,
//! banded by `--wall-tolerance`).
//!
//! ```text
//! engines_json [--sizes 6,8,10] [--m 16000] [--trials 3] [--seed 1992]
//!              [--key-type u32|u64|i64|pair] [--out BENCH_engines.json]
//!              [observability flags of ftsort-cli sort]
//! ```
//!
//! Compare two outputs (e.g. before/after a scheduler change) with the
//! `bench_diff` binary, which flags per-engine and per-phase regressions
//! and checks the multi-core crossover.
//!
//! [`SchedReport`]: hypercube::obs::sched::SchedReport

use ft_bench::args::{dims, Args, Flag, KEY_TYPE};
use ft_bench::{random_faults, random_keys_typed, worker_ladder, GenKey, ObsFlags, DEFAULT_SEED};
use ftsort::bitonic::{Protocol, SortOutcome};
use ftsort::ftsort::{fault_tolerant_sort, Attach, FtConfig, FtPlan};
use ftsort::seq::{KeyPair, KeyType};
use hypercube::obs::sched::{SchedProfiler, SchedReport};
use hypercube::sim::{EngineKind, LinkModel};
use std::fmt::Write as _;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

struct Row {
    n: usize,
    r: usize,
    m_total: usize,
    /// Worker count the par engine was asked to run with for this row.
    workers: usize,
    /// Link pricing model this row ran under.
    link_model: LinkModel,
    virtual_us: f64,
    /// Total link-queueing wait over all nodes (µs); 0 under the
    /// uncontended model by construction.
    wait_total_us: f64,
    seq_s: f64,
    par_s: f64,
    /// Scheduler profile of the rung's profiled run with the smallest
    /// makespan. Its `workers` and `shard_size` are the schedule that ran:
    /// on small cubes fewer shards than workers exist.
    sched: SchedReport,
    /// Per-phase virtual time, `(name, max-over-nodes µs)`, from the
    /// run's [`RunReport`](hypercube::obs::RunReport).
    phases: Vec<(String, f64)>,
}

/// One key type's merge-kernel timings: best-of merge-only wall clocks of
/// the scalar reference vs the branchless and blocked kernels on two
/// sorted runs of [`KERNEL_ELEMS_PER_RUN`] keys each.
struct KernelRow {
    key_type: &'static str,
    scalar_s: f64,
    branchless_s: f64,
    blocked_s: f64,
}

/// Per-run length for the kernel section: 32 Ki keys per run lands the
/// merged working set around L2 for 8-byte keys — the size class where
/// the branchless win is largest and host noise still averages out.
const KERNEL_ELEMS_PER_RUN: usize = 32_768;

struct Cfg {
    sizes: Vec<usize>,
    m_total: usize,
    trials: usize,
    seed: u64,
    out: String,
    key_type: KeyType,
    obs_flags: ObsFlags,
}

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    ("--sizes", "N,N,..", "cube dimensions (default 6,8,10)"),
    ("--m", "KEYS", "keys per sort (default 16000)"),
    ("--trials", "T", "timed runs per rung, best kept (default 3)"),
    ("--seed", "SEED", "fault and key seed (default 1992)"),
    KEY_TYPE,
    ("--out", "FILE", "bench file to write (default BENCH_engines.json)"),
];

fn main() {
    ft_bench::end_on_closed_stdout();
    let args = Args::parse("engines_json", &[FLAGS, ObsFlags::FLAGS]);
    let cfg = Cfg {
        sizes: args.list("--sizes", dims(1), &[6, 8, 10]),
        m_total: args.get("--m", .., 16_000),
        trials: args.get("--trials", 1.., 3),
        seed: args.get("--seed", .., DEFAULT_SEED),
        out: args
            .path("--out")
            .unwrap_or_else(|| "BENCH_engines.json".into()),
        key_type: args.value("--key-type", KeyType::parse).unwrap_or_default(),
        obs_flags: ObsFlags::read(&args),
    };
    args.finish();
    // The whole run is monomorphised over the selected key type, exactly
    // like `ftsort-cli sort --key-type`.
    match cfg.key_type {
        KeyType::U32 => run::<u32>(cfg),
        KeyType::U64 => run::<u64>(cfg),
        KeyType::I64 => run::<i64>(cfg),
        KeyType::Pair => run::<KeyPair>(cfg),
    }
}

fn run<K: GenKey>(cfg: Cfg) {
    let mut rng = ft_bench::rng(cfg.seed);
    let host_cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let ladder = worker_ladder(host_cores);
    let (m_total, trials) = (cfg.m_total, cfg.trials);

    println!(
        "Engine wall-clock comparison, full FT sort, M = {m_total}, r = n − 1, \
         best of {trials} runs; seed = {}, keys = {}, host cores = {host_cores}, \
         par workers {ladder:?}\n",
        cfg.seed, cfg.key_type
    );
    println!(
        "{:>3} {:>3} {:>7} {:>12} {:>10} {:>10} {:>12} {:>12} {:>9} {:>11} {:>13}",
        "n",
        "r",
        "workers",
        "link",
        "virtual ms",
        "wait ms",
        "seq s",
        "par s",
        "par/seq",
        "utilization",
        "barrier share"
    );
    println!("{}", "-".repeat(123));

    let profiler = Arc::new(SchedProfiler::new());
    let mut rows = Vec::new();
    let mut last = None;
    for &n in &cfg.sizes {
        let r = n - 1;
        let faults = random_faults(n, r, &mut rng);
        let plan = FtPlan::new(&faults).expect("r = n − 1 is tolerable");
        let data: Vec<K> = random_keys_typed(m_total, &mut rng);
        for link_model in [LinkModel::Uncontended, LinkModel::Contended] {
            let config = |engine: EngineKind, threads: Option<usize>| FtConfig {
                protocol: Protocol::HalfExchange,
                engine,
                threads,
                link_model,
                ..FtConfig::default()
            };
            // Best-of-`trials` wall clock of bare sorts, and the last run.
            let time = |config: &FtConfig| {
                let mut best = f64::INFINITY;
                let mut last = None;
                for _ in 0..trials {
                    let start = Instant::now();
                    let run = fault_tolerant_sort(&plan, config, data.clone(), Attach::default());
                    best = best.min(start.elapsed().as_secs_f64());
                    last = Some(run);
                }
                (best, last.expect("--trials is at least 1"))
            };
            let (seq_s, (seq, _, obs)) = time(&config(EngineKind::Seq, None));
            // Every sort observes its phase spans and link waits, so the
            // last timed run supplies the per-phase virtual-time split and
            // the link-wait total.
            let report = obs.report(&ftsort::ftsort::phase_name);
            let phases: Vec<(String, f64)> = report
                .phases
                .iter()
                .map(|p| (p.name.clone(), p.max_node_us))
                .collect();
            let wait_total_us: f64 = report.nodes.iter().map(|m| m.link_wait_us).sum();
            // The drill-down runs the last paper-model (uncontended) case
            // on par, the engine whose worker ladder this bin sweeps.
            if link_model == LinkModel::Uncontended && cfg.obs_flags.enabled() {
                last = Some((plan.clone(), config(EngineKind::Par, None), data.clone()));
            }
            let same_as_seq = |run: &SortOutcome<K>, workers: usize, what: &str| {
                let at = format!("n={n} {link_model} workers={workers}: {what}");
                assert_eq!(run.sorted, seq.sorted, "{at}: sorted output differs");
                assert_eq!(run.time_us, seq.time_us, "{at}: virtual time differs");
                assert_eq!(run.stats, seq.stats, "{at}: operation counts differ");
            };
            for &workers in &ladder {
                let par_config = config(EngineKind::Par, Some(workers));
                let (par_s, (par, _, _)) = time(&par_config);
                same_as_seq(&par, workers, "par");
                // Profiled after the timed runs, so the profiler's cost
                // stays out of the wall clocks.
                let sched = (0..trials)
                    .map(|_| {
                        let attach = Attach {
                            profiler: Some(Arc::clone(&profiler)),
                            ..Attach::default()
                        };
                        let (run, _, _) =
                            fault_tolerant_sort(&plan, &par_config, data.clone(), attach);
                        same_as_seq(&run, workers, "profiled par");
                        profiler.take().expect("par installs its profile").report()
                    })
                    .min_by_key(|report| report.makespan_ns)
                    .expect("--trials is at least 1");
                println!(
                    "{:>3} {:>3} {:>7} {:>12} {:>10.1} {:>10.1} {:>12.3} {:>12.3} {:>8.2}× \
                     {:>11.3} {:>13.3}",
                    n,
                    r,
                    workers,
                    link_model.to_string(),
                    seq.time_us / 1000.0,
                    wait_total_us / 1000.0,
                    seq_s,
                    par_s,
                    seq_s / par_s,
                    sched.utilization(),
                    sched.barrier_share()
                );
                rows.push(Row {
                    n,
                    r,
                    m_total,
                    workers,
                    link_model,
                    virtual_us: seq.time_us,
                    wait_total_us,
                    seq_s,
                    par_s,
                    sched,
                    phases: phases.clone(),
                });
            }
        }
    }

    let kernels = time_kernel_rows(cfg.seed, trials);
    println!("\nMerge kernels, 2 × {KERNEL_ELEMS_PER_RUN} keys per merge, best-of wall clocks:");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "keys", "scalar s", "branchless s", "blocked s", "brl/scl", "blk/scl"
    );
    for k in &kernels {
        println!(
            "{:>6} {:>12.6} {:>12.6} {:>12.6} {:>9.2}× {:>9.2}×",
            k.key_type,
            k.scalar_s,
            k.branchless_s,
            k.blocked_s,
            k.scalar_s / k.branchless_s,
            k.scalar_s / k.blocked_s
        );
    }

    let json = render_json(&cfg, host_cores, &rows, &kernels);
    std::fs::write(&cfg.out, &json).expect("write BENCH_engines.json");
    println!("\nwrote {}", cfg.out);
    if let Some((plan, config, data)) = last {
        cfg.obs_flags.drill(&plan, &config, data, cfg.key_type);
    }
}

/// Times the merge kernels for every key type (independent of
/// `--key-type`: the kernel section is a fixed-shape table so baselines
/// stay comparable). Merge-only wall clocks — the input refill memcpy is
/// outside the timed region — best of `5 × trials` reps after a warm-up.
fn time_kernel_rows(seed: u64, trials: usize) -> Vec<KernelRow> {
    fn one<K: GenKey>(key_type: &'static str, seed: u64, reps: usize) -> KernelRow {
        let mut rng = ft_bench::rng(seed ^ 0x6b65_726e);
        let mut a: Vec<K> = random_keys_typed(KERNEL_ELEMS_PER_RUN, &mut rng);
        let mut b: Vec<K> = random_keys_typed(KERNEL_ELEMS_PER_RUN, &mut rng);
        a.sort_unstable();
        b.sort_unstable();
        let time = |kernel: fn(&mut Vec<K>, &mut Vec<K>, &mut Vec<K>) -> u64| -> f64 {
            let mut out = Vec::with_capacity(2 * KERNEL_ELEMS_PER_RUN);
            let mut ka: Vec<K> = Vec::with_capacity(KERNEL_ELEMS_PER_RUN);
            let mut kb: Vec<K> = Vec::with_capacity(KERNEL_ELEMS_PER_RUN);
            let mut best = f64::INFINITY;
            for rep in 0..reps + 1 {
                ka.clear();
                ka.extend_from_slice(&a);
                kb.clear();
                kb.extend_from_slice(&b);
                let start = Instant::now();
                black_box(kernel(&mut ka, &mut kb, &mut out));
                let elapsed = start.elapsed().as_secs_f64();
                if rep > 0 {
                    // rep 0 is the warm-up
                    best = best.min(elapsed);
                }
            }
            best
        };
        KernelRow {
            key_type,
            scalar_s: time(ftsort::seq::merge_runs_into),
            branchless_s: time(ftsort::seq::merge_runs_branchless_into),
            blocked_s: time(ftsort::seq::merge_runs_blocked_into),
        }
    }
    let reps = 5 * trials.max(1);
    vec![
        one::<u32>("u32", seed, reps),
        one::<u64>("u64", seed, reps),
        one::<i64>("i64", seed, reps),
        one::<KeyPair>("pair", seed, reps),
    ]
}

/// Hand-rolled JSON so the report stays dependency-free.
fn render_json(cfg: &Cfg, host_cores: usize, rows: &[Row], kernels: &[KernelRow]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"engines\",");
    let _ = writeln!(s, "  \"seed\": {},", cfg.seed);
    let _ = writeln!(s, "  \"trials\": {},", cfg.trials);
    let _ = writeln!(s, "  \"host_cores\": {host_cores},");
    let _ = writeln!(s, "  \"key_type\": \"{}\",", cfg.key_type);
    let _ = writeln!(s, "  \"identical_simulated_results\": true,");
    let _ = writeln!(
        s,
        "  \"kernel\": {{\"elems_per_run\": {KERNEL_ELEMS_PER_RUN}, \"rows\": ["
    );
    for (i, k) in kernels.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"key_type\": \"{}\", \"scalar_s\": {:.9}, \"branchless_s\": {:.9}, \
             \"blocked_s\": {:.9}, \"speedups\": {{\"branchless_over_scalar\": {:.2}, \
             \"blocked_over_scalar\": {:.2}}}}}",
            k.key_type,
            k.scalar_s,
            k.branchless_s,
            k.blocked_s,
            k.scalar_s / k.branchless_s,
            k.scalar_s / k.blocked_s
        );
        s.push_str(if i + 1 == kernels.len() { "\n" } else { ",\n" });
    }
    s.push_str("  ]},\n");
    s.push_str("  \"results\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"n\": {}, \"r\": {}, \"m\": {}, \"workers\": {}, \
             \"workers_effective\": {}, \"shard_size\": {}, \"link_model\": \"{}\", \
             \"virtual_us\": {:.3}, \"wait_total_us\": {:.3}, \
             \"seq_wall_s\": {:.6}, \"par_wall_s\": {:.6}, \
             \"utilization\": {:.4}, \"steal_rate\": {:.4}, \"barrier_share\": {:.4}, \
             \"makespan_ns\": {}, \"events_dropped\": {}, \
             \"speedups\": {{\"par_over_seq\": {:.2}}}, \"phases\": {{",
            row.n,
            row.r,
            row.m_total,
            row.workers,
            row.sched.workers,
            row.sched.shard_size,
            row.link_model,
            row.virtual_us,
            row.wait_total_us,
            row.seq_s,
            row.par_s,
            row.sched.utilization(),
            row.sched.steal_rate(),
            row.sched.barrier_share(),
            row.sched.makespan_ns,
            row.sched.events_dropped,
            row.seq_s / row.par_s
        );
        for (j, (name, us)) in row.phases.iter().enumerate() {
            let sep = if j == 0 { "" } else { ", " };
            let _ = write!(s, "{sep}\"{name}\": {us:.3}");
        }
        s.push_str("}}");
        s.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    s.push_str("  ]\n}\n");
    s
}
