//! Shared helpers for the benchmark harness that regenerates every table
//! and figure of the paper's evaluation (§4).

use ftsort::ftsort::FtPlan;
use ftsort::mffs::max_fault_free_subcube;
use ftsort::seq::Key;
use hypercube::fault::FaultSet;
use hypercube::topology::Hypercube;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The seed printed by every report binary so runs are reproducible.
pub const DEFAULT_SEED: u64 = 1992;

/// The paper's experiment size: 10 000 random fault placements per cell.
pub const DEFAULT_TRIALS: usize = 10_000;

/// Draws a random fault set of size `r` on `Q_n`.
pub fn random_faults(n: usize, r: usize, rng: &mut StdRng) -> FaultSet {
    FaultSet::random(Hypercube::new(n), r, rng)
}

/// Random `u32` keys.
pub fn random_keys(m: usize, rng: &mut StdRng) -> Vec<u32> {
    (0..m).map(|_| rng.random()).collect()
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

/// Random keys of any [`GenKey`] type; the typed counterpart of
/// [`random_keys`] for `--key-type` dispatch.
pub fn random_keys_typed<K: GenKey>(m: usize, rng: &mut StdRng) -> Vec<K> {
    (0..m).map(|_| K::gen(rng)).collect()
}

/// Parses a `--key-type` value for the report binaries, exiting with a
/// usage error on unknown spellings. The key type changes the element
/// width and comparison outcomes of the generated workload (and therefore
/// the simulated clocks); it never changes the communication schedule.
pub fn parse_key_type(value: Option<String>) -> ftsort::seq::KeyType {
    let Some(v) = value else {
        eprintln!("--key-type requires a value (u32|u64|i64|pair)");
        std::process::exit(2);
    };
    match ftsort::seq::KeyType::parse(&v) {
        Ok(kt) => kt,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

/// A seeded RNG for the harness.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Parses a `--engine` value for the report binaries, exiting with a usage
/// error on unknown spellings. Both engines produce identical simulated
/// results; the flag only changes how fast the reports regenerate.
pub fn parse_engine(value: Option<String>) -> hypercube::sim::EngineKind {
    let Some(v) = value else {
        eprintln!("--engine requires a value (seq|par)");
        std::process::exit(2);
    };
    match hypercube::sim::EngineKind::parse(&v) {
        Some(kind) => kind,
        None => {
            eprintln!("unknown engine '{v}' (seq|par)");
            std::process::exit(2);
        }
    }
}

/// `--trace-out FILE` / `--metrics-out FILE` / `--run-out FILE` support
/// shared by the report binaries: when any flag is given, the binary records the
/// [`RunObservation`](hypercube::obs::RunObservation) of its **last**
/// fault-tolerant sort and writes the Perfetto trace and/or
/// [`RunReport`](hypercube::obs::RunReport) JSON on exit — the same
/// artifacts `ftsort-cli sort` emits, so any report row can be drilled
/// into with the observability tooling. `--metrics-snapshot` /
/// `--log-level` / `--log-out` attach the live telemetry layer the same
/// way the CLI does.
#[derive(Default)]
pub struct ObsFlags {
    /// Perfetto trace destination (`--trace-out`).
    pub trace_out: Option<String>,
    /// `RunReport` JSON destination (`--metrics-out`).
    pub metrics_out: Option<String>,
    /// Replayable run-file destination (`--run-out`) — the schema
    /// [`ftsort-cli replay`](../ftsort-cli) and `trace-diff` consume.
    pub run_out: Option<String>,
    /// Worker count for the parallel engine (`--threads`, default: the
    /// host's available parallelism). Recorded in the `--metrics-out`
    /// report when given; wall-clock only, never simulated results.
    pub threads: Option<usize>,
    /// `SchedReport` JSON destination (`--sched-out`): per-worker
    /// wall-clock scheduler telemetry from an extra profiled par-engine
    /// run. Also writes `<path>.perfetto.json` (worker timeline + steal
    /// flows) and prints the ASCII summary.
    pub sched_out: Option<String>,
    /// `--sched-profile`: print the scheduler summary and worker timeline
    /// without writing files.
    pub sched_profile: bool,
    /// Prometheus-exposition destination (`--metrics-snapshot`): installs
    /// the process-wide live-telemetry registry
    /// ([`hypercube::obs::metrics`]) at parse time — before any run, so
    /// engines/pools/sinks built later pick it up — and writes the final
    /// snapshot in [`write`](Self::write).
    pub metrics_snapshot: Option<String>,
    /// Structured-log destination (`--log-out`): installs the JSON-lines
    /// logger ([`hypercube::obs::log`]) at parse time. Pass it *before*
    /// `--log-level` when combining — the first installed writer wins.
    pub log_out: Option<String>,
    last: Option<hypercube::obs::RunObservation>,
    sched_report: Option<hypercube::obs::sched::SchedReport>,
    sched_perfetto: Option<String>,
    sched_timeline: Option<String>,
}

impl ObsFlags {
    /// No exports requested.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes `--trace-out`/`--metrics-out` (and their values) from the
    /// argument stream; returns `false` for any other argument so callers
    /// can fall through to their own error handling.
    pub fn parse(&mut self, arg: &str, args: &mut dyn Iterator<Item = String>) -> bool {
        if arg == "--threads" {
            match args.next().map(|v| v.parse::<usize>()) {
                Some(Ok(t)) if t >= 1 => self.threads = Some(t),
                _ => {
                    eprintln!("--threads requires a worker count ≥ 1");
                    std::process::exit(2);
                }
            }
            return true;
        }
        if arg == "--sched-profile" {
            self.sched_profile = true;
            return true;
        }
        if arg == "--metrics-snapshot" {
            match args.next() {
                Some(path) => {
                    // Install before the runs so everything built later
                    // resolves the registry at construction.
                    hypercube::obs::metrics::install_global();
                    self.metrics_snapshot = Some(path);
                }
                None => {
                    eprintln!("--metrics-snapshot requires a file path");
                    std::process::exit(2);
                }
            }
            return true;
        }
        if arg == "--log-out" {
            use hypercube::obs::log;
            match args.next() {
                Some(path) => {
                    let file = std::fs::File::create(&path).unwrap_or_else(|e| {
                        eprintln!("--log-out: creating {path}: {e}");
                        std::process::exit(2);
                    });
                    let level = log::level().unwrap_or(log::Level::Info);
                    if !log::init(level, Box::new(file)) {
                        eprintln!("--log-out: a logger is already installed; records stay on the earlier writer");
                    }
                    self.log_out = Some(path);
                }
                None => {
                    eprintln!("--log-out requires a file path");
                    std::process::exit(2);
                }
            }
            return true;
        }
        if arg == "--log-level" {
            use hypercube::obs::log;
            match args.next().as_deref().and_then(log::Level::parse) {
                Some(level) => {
                    if log::level().is_some() {
                        log::set_level(level);
                    } else {
                        log::init_stderr(level);
                    }
                }
                None => {
                    eprintln!("--log-level requires one of error|warn|info|debug|trace");
                    std::process::exit(2);
                }
            }
            return true;
        }
        let slot = match arg {
            "--trace-out" => &mut self.trace_out,
            "--metrics-out" => &mut self.metrics_out,
            "--run-out" => &mut self.run_out,
            "--sched-out" => &mut self.sched_out,
            _ => return false,
        };
        match args.next() {
            Some(path) => *slot = Some(path),
            None => {
                eprintln!("{arg} requires a file path");
                std::process::exit(2);
            }
        }
        true
    }

    /// Whether the engine should record the event trace
    /// (`FtConfig::tracing`) — needed when a trace or run-file export was
    /// asked for; metrics come from the always-on spans.
    pub fn tracing(&self) -> bool {
        self.trace_out.is_some() || self.run_out.is_some()
    }

    /// Whether any export was requested; callers skip the observation
    /// plumbing entirely otherwise.
    pub fn enabled(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some() || self.run_out.is_some()
    }

    /// Whether a scheduler profile was requested
    /// (`--sched-out`/`--sched-profile`).
    pub fn sched_enabled(&self) -> bool {
        self.sched_out.is_some() || self.sched_profile
    }

    /// Remembers `obs` as the run to export (last call wins).
    pub fn observe(&mut self, obs: hypercube::obs::RunObservation) {
        self.last = Some(obs);
    }

    /// Runs one extra par-engine sort of `data` with a
    /// [`SchedProfiler`](hypercube::obs::sched::SchedProfiler) attached and
    /// remembers the resulting [`SchedReport`], Perfetto export and worker
    /// timeline for [`write`](Self::write); a no-op unless
    /// `--sched-out`/`--sched-profile` was given. The profiled run is
    /// *extra* (and forced onto [`EngineKind::Par`]) so a report binary's
    /// own timed runs — whatever engine they use — stay untouched;
    /// simulated results are engine-independent, so the profiled run sorts
    /// the same data to the same bytes.
    ///
    /// [`SchedReport`]: hypercube::obs::sched::SchedReport
    /// [`EngineKind::Par`]: hypercube::sim::EngineKind::Par
    pub fn profile_sched<K>(&mut self, plan: &FtPlan, base: &ftsort::ftsort::FtConfig, data: Vec<K>)
    where
        K: Key,
    {
        if !self.sched_enabled() {
            return;
        }
        let profiler = std::sync::Arc::new(hypercube::obs::sched::SchedProfiler::new());
        let config = ftsort::ftsort::FtConfig {
            engine: hypercube::sim::EngineKind::Par,
            threads: self.threads,
            ..*base
        };
        let attach = ftsort::ftsort::Attach {
            profiler: Some(std::sync::Arc::clone(&profiler)),
            ..Default::default()
        };
        let _ = ftsort::ftsort::fault_tolerant_sort(plan, &config, data, attach);
        if let Some(profile) = profiler.take() {
            self.sched_report = Some(profile.report());
            self.sched_perfetto = Some(profile.perfetto_json());
            self.sched_timeline = Some(profile.timeline(64));
        }
    }

    /// Writes the requested artifacts from the last observed run. Call
    /// once at the end of `main`.
    pub fn write(&self) {
        if let Some(path) = &self.metrics_snapshot {
            let global =
                hypercube::obs::metrics::global().expect("registry installed at parse time");
            std::fs::write(path, global.registry.render_prom()).expect("write metrics snapshot");
            println!("metrics snapshot: {path} (ftsort-cli trace-check --prom {path})");
        }
        if self.enabled() {
            let Some(obs) = &self.last else {
                eprintln!("--trace-out/--metrics-out: no run was observed");
                std::process::exit(2);
            };
            if let Some(path) = &self.trace_out {
                let json =
                    hypercube::obs::perfetto::perfetto_json(obs, &ftsort::ftsort::phase_name);
                std::fs::write(path, json).expect("write trace");
                println!("trace written  : {path} (load in ui.perfetto.dev)");
            }
            if let Some(path) = &self.metrics_out {
                let mut report = obs.report(&ftsort::ftsort::phase_name);
                if let Some(threads) = self.threads {
                    // Record the *effective* schedule next to the request:
                    // the par engine clamps workers to the shard count
                    // (`schedule_for`), and reports must not claim more
                    // workers than ever ran.
                    let live = report.nodes.len();
                    let (workers_effective, shard_size, _) =
                        hypercube::sim::par::schedule_for(live, Some(threads), None);
                    report = report
                        .with_threads(threads)
                        .with_schedule(workers_effective, shard_size);
                }
                std::fs::write(path, report.to_json()).expect("write metrics");
                println!("metrics written: {path}");
            }
            if let Some(path) = &self.run_out {
                hypercube::obs::replay::write_run_file(obs, path).expect("write run file");
                println!("run written    : {path} (ftsort-cli replay --trace {path})");
            }
        }
        if self.sched_enabled() {
            let Some(report) = &self.sched_report else {
                println!("sched profile  : no run was profiled (nothing to report)");
                return;
            };
            if let Some(path) = &self.sched_out {
                std::fs::write(path, report.to_json()).expect("write sched report");
                println!("sched written  : {path}");
                let trace_path = format!("{path}.perfetto.json");
                let trace = self
                    .sched_perfetto
                    .as_ref()
                    .expect("profiled run has a perfetto export");
                std::fs::write(&trace_path, trace).expect("write sched trace");
                println!("sched trace    : {trace_path} (load in ui.perfetto.dev)");
            }
            print!("{}", report.summary());
            if let Some(timeline) = &self.sched_timeline {
                print!("{timeline}");
            }
        }
    }
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

pub mod campaign;
pub mod workload;
