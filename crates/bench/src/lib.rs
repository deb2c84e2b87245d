//! Shared helpers for the benchmark harness that regenerates every table
//! and figure of the paper's evaluation (§4).

use args::{number, Args, Flag};
use ftsort::bitonic::SortOutcome;
use ftsort::ftsort::{fault_tolerant_sort, phase_name, Attach, FtConfig, FtPlan, PhaseBreakdown};
use ftsort::mffs::max_fault_free_subcube;
use ftsort::seq::{Key, KeyType};
use hypercube::fault::FaultSet;
use hypercube::obs::log::{self, Level, Value};
use hypercube::obs::perfetto::write_perfetto;
use hypercube::obs::sched::SchedProfiler;
use hypercube::obs::sink::{StreamingSink, TraceSink};
use hypercube::obs::{metrics, RunObservation};
use hypercube::sim::par::schedule_for;
use hypercube::sim::{BufferPool, EngineKind};
use hypercube::topology::Hypercube;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs::File;
use std::io::BufWriter;
use std::sync::{Arc, Mutex};

/// Restores SIGPIPE's default action, which the Rust runtime ignores, so a
/// binary whose stdout closes early (`… | head -1`) ends quietly by the
/// signal, as `cat` does (status 141 in a shell), instead of panicking in
/// a `println!`. Every binary of the workspace but `ftsort-bench` calls it
/// first in `main`.
pub fn end_on_closed_stdout() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        // SAFETY: the C library's `signal`; installing SIG_DFL (0) for
        // SIGPIPE (13) runs no handler code, and nothing else here touches
        // SIGPIPE.
        unsafe { signal(13, 0) };
    }
}

/// The seed printed by every report binary so runs are reproducible.
pub const DEFAULT_SEED: u64 = 1992;

/// The paper's experiment size: 10 000 random fault placements per cell.
pub const DEFAULT_TRIALS: usize = 10_000;

/// Draws a random fault set of size `r` on `Q_n`.
pub fn random_faults(n: usize, r: usize, rng: &mut StdRng) -> FaultSet {
    FaultSet::random(Hypercube::new(n), r, rng)
}

/// Key types the harness can draw uniformly at random — the set behind
/// every report binary's `--key-type` flag ([`ftsort::seq::KeyType`]).
pub trait GenKey: Key {
    /// One uniformly random key.
    fn gen(rng: &mut StdRng) -> Self;

    /// Embeds a `u32` magnitude into the key type, preserving order — the
    /// structured workload generators ([`workload::Workload`]) build their
    /// shapes (sorted, organ pipe, …) from ranks.
    fn from_rank(rank: u32) -> Self;
}

macro_rules! impl_gen_key {
    ($($t:ty),*) => {$(
        impl GenKey for $t {
            fn gen(rng: &mut StdRng) -> Self {
                rng.random()
            }
            fn from_rank(rank: u32) -> Self {
                rank as $t
            }
        }
    )*};
}
impl_gen_key!(u32, u64, i64);

impl GenKey for ftsort::seq::KeyPair {
    fn gen(rng: &mut StdRng) -> Self {
        ftsort::seq::KeyPair::new(rng.random(), rng.random())
    }
    fn from_rank(rank: u32) -> Self {
        ftsort::seq::KeyPair::new(rank as u64, 0)
    }
}

/// Random keys of any [`GenKey`] type, for `--key-type` dispatch.
pub fn random_keys_typed<K: GenKey>(m: usize, rng: &mut StdRng) -> Vec<K> {
    (0..m).map(|_| K::gen(rng)).collect()
}

/// A seeded RNG for the harness.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// The par-engine worker counts `engines_json` sweeps on a host with
/// `host_cores` cores: `{1, 2, 4, host_cores}`, deduplicated,
/// ascending. Rungs above the core count still run — they measure the
/// scheduler's oversubscription robustness, and emitting them
/// unconditionally keeps row keys comparable across hosts with different
/// core counts.
pub fn worker_ladder(host_cores: usize) -> Vec<usize> {
    let mut ladder = vec![1, 2, 4, host_cores];
    ladder.sort_unstable();
    ladder.dedup();
    ladder
}

/// The observability flags of `ftsort-cli sort` and the report binaries,
/// and the one code path that runs an observed sort.
///
/// [`read`](Self::read) takes the flags of [`FLAGS`](Self::FLAGS), each
/// checked and worded in one place. [`sort`](Self::sort) then runs one
/// fault-tolerant sort with the attachments they ask for and writes every
/// artifact: the Perfetto trace, the keyed
/// [`RunReport`](hypercube::obs::RunReport), the run file streamed in
/// commit order, the scheduler profile and the Prometheus snapshot.
/// `ftsort-cli sort` runs its sort this way. A report binary runs the
/// configuration it exports once more, untimed, through
/// [`drill`](Self::drill), so its timed runs record nothing and its
/// artifacts are exactly what `ftsort-cli sort` writes for the same plan,
/// config and keys.
pub struct ObsFlags {
    trace_out: Option<String>,
    metrics_out: Option<String>,
    run_out: Option<String>,
    sched_out: Option<String>,
    sched_profile: bool,
    metrics_snapshot: Option<String>,
    log_level: Option<Level>,
    log_out: Option<String>,
    /// Worker count for the par engine (`--threads`; default: the host's
    /// available parallelism). Wall-clock only, never simulated results.
    pub threads: Option<usize>,
}

impl ObsFlags {
    /// The observability flags, for a binary's declaration.
    #[rustfmt::skip]
    pub const FLAGS: &'static [Flag] = &[
        ("--threads", "N", "par-engine workers (default: the host's cores)"),
        ("--trace-out", "FILE", "write the Perfetto trace"),
        ("--metrics-out", "FILE", "write the run report JSON"),
        ("--run-out", "FILE", "stream the run file (gzipped if FILE ends in .gz)"),
        ("--sched-out", "FILE", "write the scheduler profile JSON and its Perfetto timeline"),
        ("--sched-profile", "", "print the scheduler profile"),
        ("--metrics-snapshot", "FILE", "write a Prometheus snapshot of the run totals"),
        ("--log-level", "LEVEL", "log JSON lines at error|warn|info|debug|trace"),
        ("--log-out", "FILE", "log to FILE instead of stderr (default level info)"),
    ];

    /// The flags of [`FLAGS`](Self::FLAGS) that `args` holds. Only the
    /// values are checked here: [`sort`](Self::sort) creates the files and
    /// installs the logger and the metric totals.
    pub fn read(args: &Args) -> ObsFlags {
        ObsFlags {
            trace_out: args.path("--trace-out"),
            metrics_out: args.path("--metrics-out"),
            run_out: args.path("--run-out"),
            sched_out: args.path("--sched-out"),
            sched_profile: args.switch("--sched-profile"),
            metrics_snapshot: args.path("--metrics-snapshot"),
            log_level: args.value("--log-level", |s| {
                Level::parse(s)
                    .ok_or_else(|| format!("unknown log level '{s}' (error|warn|info|debug|trace)"))
            }),
            log_out: args.path("--log-out"),
            threads: args.value("--threads", |s| number(s, &(1..))),
        }
    }

    /// Whether any output was asked for; `--threads` alone asks for none.
    pub fn enabled(&self) -> bool {
        self.trace_out.is_some()
            || self.metrics_out.is_some()
            || self.run_out.is_some()
            || self.sched_out.is_some()
            || self.sched_profile
            || self.metrics_snapshot.is_some()
            || self.log_level.is_some()
            || self.log_out.is_some()
    }

    /// A report binary's drill-down: [`sort`](Self::sort)s `data` once
    /// more, untimed, and exits with status 1 on an error. Call it at the
    /// end of `main` with the last configuration the binary ran, and only
    /// when [`enabled`](Self::enabled).
    pub fn drill<K: Key>(&self, plan: &FtPlan, config: &FtConfig, data: Vec<K>, key_type: KeyType) {
        if let Err(e) = self.sort(plan, config, data, key_type, |_, _, _| Ok(())) {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }

    /// Sorts `data` on `plan` under `config`, observed as the flags ask,
    /// then calls `show` on the results and writes the artifacts, one
    /// stdout line each.
    ///
    /// Before the sort it installs the process's metric totals
    /// (`--metrics-snapshot`) and the JSON-lines logger (`--log-level`,
    /// default `info`, to `--log-out` or stderr). The sort runs with
    /// tracing on under `--trace-out` and with `--threads` workers. It
    /// streams `--run-out` through a sink stamped with `key_type`,
    /// profiles the scheduler under `--sched-out`/`--sched-profile`, and
    /// draws slabs from a counting pool under `--metrics-snapshot`. The
    /// report records `key_type`, the requested threads, the schedule the
    /// par engine ran and the pool counters. An error writing any
    /// artifact, the run file and the log included, is `writing PATH: …`.
    pub fn sort<K: Key>(
        &self,
        plan: &FtPlan,
        config: &FtConfig,
        data: Vec<K>,
        key_type: KeyType,
        show: impl FnOnce(&SortOutcome<K>, &PhaseBreakdown, &RunObservation) -> Result<(), String>,
    ) -> Result<(), String> {
        if self.metrics_snapshot.is_some() {
            // Before the run, so the run, its sink and its gzip stream
            // fold their totals in when they end.
            metrics::install();
        }
        if self.log_level.is_some() || self.log_out.is_some() {
            // The first install wins the writer; a later one sets the level.
            let level = self.log_level.unwrap_or(Level::Info);
            match &self.log_out {
                Some(path) => {
                    let file = File::create(path).map_err(|e| format!("creating {path}: {e}"))?;
                    log::init(level, Box::new(file))
                }
                None => log::init(level, Box::new(std::io::stderr())),
            };
        }
        let run_file = match &self.run_out {
            None => None,
            Some(path) => {
                let mut sink =
                    StreamingSink::create(path).map_err(|e| format!("creating {path}: {e}"))?;
                // Stamp the key type into the run-file header so offline
                // replay reproduces the keyed report byte for byte.
                sink.set_key_type(key_type.as_str());
                Some(Arc::new(Mutex::new(sink)))
            }
        };
        let sink: Option<Arc<Mutex<dyn TraceSink>>> = run_file.clone().map(|s| s as _);
        let profiler = (self.sched_out.is_some() || self.sched_profile)
            .then(|| Arc::new(SchedProfiler::new()));
        // A counting pool only for the snapshot, so a plain run keeps the
        // library default (no counters at all).
        let pool = self
            .metrics_snapshot
            .as_ref()
            .map(|_| BufferPool::<K>::with_stats());
        let config = FtConfig {
            tracing: self.trace_out.is_some(),
            threads: self.threads,
            ..*config
        };
        let keys = data.len() as u64;
        let faults = plan.faults();
        log::info(
            "ftsort::cli",
            "sort starting",
            &[
                ("n", Value::from(faults.cube().dim() as u64)),
                ("faults", Value::from(faults.count() as u64)),
                ("keys", Value::from(keys)),
                ("engine", Value::from(config.engine.to_string().as_str())),
            ],
        );
        let attach = Attach {
            sink,
            pool: pool.as_ref(),
            profiler: profiler.clone(),
        };
        let (out, phases, run) = fault_tolerant_sort(plan, &config, data, attach);
        log::info(
            "ftsort::cli",
            "sort complete",
            &[
                ("keys", Value::from(keys)),
                ("processors", Value::from(out.processors_used as u64)),
                ("time_us", Value::from(out.time_us)),
                ("messages", Value::from(out.stats.messages)),
            ],
        );
        show(&out, &phases, &run)?;

        let write = |path: &str, text: &str| {
            std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))
        };
        if let Some(path) = &self.trace_out {
            write_trace(path, &run)?;
            println!("trace written  : {path} (load in ui.perfetto.dev)");
        }
        if let Some(path) = &self.metrics_out {
            let mut report = run.report(&phase_name).with_key_type(key_type.as_str());
            if let Some(threads) = self.threads {
                report = report.with_threads(threads);
                // Record the effective schedule too: the par engine clamps
                // the worker count to the shard count (`schedule_for`). Seq
                // ignores `--threads`, so its report claims no schedule.
                if config.engine == EngineKind::Par {
                    let (workers_effective, shard_size, _) =
                        schedule_for(report.nodes.len(), Some(threads), None);
                    report = report.with_schedule(workers_effective, shard_size);
                }
            }
            if let Some(c) = pool.as_ref().and_then(BufferPool::counters) {
                report = report.with_pool_stats(c.takes, c.puts, c.slab_high_water);
            }
            write(path, &report.to_json())?;
            println!("metrics written: {path}");
        }
        if let (Some(path), Some(sink)) = (&self.run_out, &run_file) {
            if let Some(e) = sink.lock().expect("sink lock poisoned").take_error() {
                return Err(format!("writing {path}: {e}"));
            }
            println!("run written    : {path} (ftsort-cli replay --trace {path})");
        }
        if let Some(profile) = profiler.and_then(|p| p.take()) {
            let report = profile.report();
            if let Some(path) = &self.sched_out {
                write(path, &report.to_json())?;
                println!("sched written  : {path}");
                let trace_path = format!("{path}.perfetto.json");
                write(&trace_path, &profile.perfetto_json())?;
                println!("sched trace    : {trace_path} (load in ui.perfetto.dev)");
            }
            print!("{}", report.summary());
            print!("{}", profile.timeline(64));
        }
        if let Some(path) = &self.metrics_snapshot {
            // The run folded its own totals when it ended; the pool is ours.
            if let Some(pool) = &pool {
                let counters = pool.counters().expect("stats pool");
                let shared_slabs = pool.shared_slabs() as u64;
                metrics::fold(|t| {
                    t.pool_takes += counters.takes;
                    t.pool_puts += counters.puts;
                    t.pool_slab_high_water = t.pool_slab_high_water.max(counters.slab_high_water);
                    t.pool_shared_slabs = shared_slabs;
                });
            }
            write(path, &metrics::snapshot().expect("totals installed above"))?;
            println!("metrics snapshot: {path} (ftsort-cli trace-check --prom {path})");
        }
        if let (Some(path), Some(e)) = (&self.log_out, log::write_error()) {
            return Err(format!("writing {path}: {e}"));
        }
        Ok(())
    }
}

/// Writes `run`'s Perfetto export to `path` (`--trace-out` of `ftsort-cli
/// sort` and `replay`), streamed through a 64 KiB buffer.
pub fn write_trace(path: &str, run: &RunObservation) -> Result<(), String> {
    let write = || {
        let mut file = BufWriter::with_capacity(1 << 16, File::create(path)?);
        write_perfetto(run, &phase_name, &mut file)
    };
    write().map_err(|e| format!("writing {path}: {e}"))
}

/// Calls `f` for every `r`-subset of the `2^n` processor addresses —
/// exhaustive enumeration of fault placements, for exact versions of the
/// paper's sampled tables. Returns the number of placements visited.
pub fn for_each_fault_set(n: usize, r: usize, mut f: impl FnMut(&FaultSet)) -> u64 {
    let cube = Hypercube::new(n);
    let p = cube.len();
    assert!(r <= p);
    let mut idx: Vec<u32> = (0..r as u32).collect();
    let mut count = 0u64;
    loop {
        let faults = FaultSet::new(
            cube,
            idx.iter().map(|&i| hypercube::address::NodeId::new(i)),
        );
        f(&faults);
        count += 1;
        // next combination
        let mut i = r;
        loop {
            if i == 0 {
                return count;
            }
            i -= 1;
            if idx[i] != (i + p - r) as u32 {
                idx[i] += 1;
                for j in i + 1..r {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// `C(2^n, r)` — how many placements [`for_each_fault_set`] will visit.
pub fn fault_set_count(n: usize, r: usize) -> u64 {
    let p = 1u128 << n;
    let mut acc: u128 = 1;
    for i in 0..r as u128 {
        acc = acc * (p - i) / (i + 1);
    }
    acc as u64
}

/// Statistics of one `(n, r)` cell of Table 1: how often each mincut value
/// occurred.
#[derive(Clone, Debug, Default)]
pub struct MincutHistogram {
    /// `counts[m]` = number of trials with mincut `m`.
    pub counts: Vec<usize>,
    /// Total trials.
    pub trials: usize,
}

impl MincutHistogram {
    /// Runs the partition algorithm `trials` times with random fault sets.
    pub fn collect(n: usize, r: usize, trials: usize, rng: &mut StdRng) -> Self {
        let mut counts = vec![0usize; n + 1];
        for _ in 0..trials {
            let faults = random_faults(n, r, rng);
            let result = ftsort::partition::partition(&faults).expect("separable");
            counts[result.mincut] += 1;
        }
        MincutHistogram { counts, trials }
    }

    /// Exact histogram over **every** fault placement (`C(2^n, r)` of them).
    pub fn collect_exhaustive(n: usize, r: usize) -> Self {
        let mut counts = vec![0usize; n + 1];
        let trials = for_each_fault_set(n, r, |faults| {
            let result = ftsort::partition::partition(faults).expect("separable");
            counts[result.mincut] += 1;
        });
        MincutHistogram {
            counts,
            trials: trials as usize,
        }
    }

    /// Percentage of trials with mincut `m`.
    pub fn percent(&self, m: usize) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.counts.get(m).copied().unwrap_or(0) as f64 * 100.0 / self.trials as f64
        }
    }
}

/// Utilization statistics of one `(n, r)` cell of Table 2.
#[derive(Clone, Debug)]
pub struct UtilizationCell {
    /// Best observed utilization (%) of the proposed algorithm.
    pub ours_best: f64,
    /// Worst observed utilization (%) of the proposed algorithm.
    pub ours_worst: f64,
    /// Best observed utilization (%) of the MFFS baseline.
    pub mffs_best: f64,
    /// Worst observed utilization (%) of the MFFS baseline.
    pub mffs_worst: f64,
}

impl UtilizationCell {
    /// Samples `trials` random fault placements.
    pub fn collect(n: usize, r: usize, trials: usize, rng: &mut StdRng) -> Self {
        let mut cell = UtilizationCell {
            ours_best: 0.0,
            ours_worst: f64::INFINITY,
            mffs_best: 0.0,
            mffs_worst: f64::INFINITY,
        };
        for _ in 0..trials {
            let faults = random_faults(n, r, rng);
            cell.absorb(&faults);
        }
        cell
    }

    /// Exact best/worst over **every** fault placement.
    pub fn collect_exhaustive(n: usize, r: usize) -> Self {
        let mut cell = UtilizationCell {
            ours_best: 0.0,
            ours_worst: f64::INFINITY,
            mffs_best: 0.0,
            mffs_worst: f64::INFINITY,
        };
        for_each_fault_set(n, r, |faults| cell.absorb(faults));
        cell
    }

    fn absorb(&mut self, faults: &FaultSet) {
        let normal = faults.normal_count() as f64;
        let plan = FtPlan::new(faults).expect("r ≤ n−1 tolerable");
        let ours = plan.live_count() as f64 / normal * 100.0;
        self.ours_best = self.ours_best.max(ours);
        self.ours_worst = self.ours_worst.min(ours);
        let sc = max_fault_free_subcube(faults).expect("normal node exists");
        let mffs = sc.len() as f64 / normal * 100.0;
        self.mffs_best = self.mffs_best.max(mffs);
        self.mffs_worst = self.mffs_worst.min(mffs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mincut_histogram_r0_r1_always_zero() {
        let mut rng = rng(1);
        for r in 0..=1 {
            let h = MincutHistogram::collect(4, r, 50, &mut rng);
            assert_eq!(h.counts[0], 50);
            assert!((h.percent(0) - 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn mincut_histogram_percentages_sum_to_100() {
        let mut rng = rng(2);
        let h = MincutHistogram::collect(6, 5, 200, &mut rng);
        let total: f64 = (0..=6).map(|m| h.percent(m)).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn fault_set_enumeration_counts() {
        assert_eq!(fault_set_count(3, 0), 1);
        assert_eq!(fault_set_count(3, 2), 28);
        assert_eq!(fault_set_count(4, 3), 560);
        assert_eq!(fault_set_count(6, 5), 7_624_512);
        let mut seen = 0u64;
        let visited = for_each_fault_set(3, 2, |fs| {
            assert_eq!(fs.count(), 2);
            seen += 1;
        });
        assert_eq!(seen, 28);
        assert_eq!(visited, 28);
    }

    #[test]
    fn exhaustive_histogram_matches_structure() {
        // n=4, r=3: every placement has mincut exactly 2
        let h = MincutHistogram::collect_exhaustive(4, 3);
        assert_eq!(h.trials, 560);
        assert_eq!(h.counts[2], 560);
    }

    #[test]
    fn exhaustive_utilization_small_case() {
        let cell = UtilizationCell::collect_exhaustive(3, 2);
        // ours: F_3^1, live = 8−2 = 6 of 6 normal = 100%
        assert!((cell.ours_best - 100.0).abs() < 1e-9);
        assert!((cell.ours_worst - 100.0).abs() < 1e-9);
        // MFFS: best Q2 (4/6), worst Q1 (2/6)
        assert!((cell.mffs_best - 400.0 / 6.0).abs() < 1e-6);
        assert!((cell.mffs_worst - 200.0 / 6.0).abs() < 1e-6);
    }

    #[test]
    fn utilization_ours_dominates_mffs() {
        let mut rng = rng(3);
        for n in 4..=6 {
            for r in 1..n {
                let cell = UtilizationCell::collect(n, r, 50, &mut rng);
                assert!(
                    cell.ours_worst >= cell.mffs_best - 1e-9,
                    "n={n} r={r}: ours worst {} vs MFFS best {}",
                    cell.ours_worst,
                    cell.mffs_best
                );
            }
        }
    }
}

pub mod args;
pub mod campaign;
pub mod workload;
