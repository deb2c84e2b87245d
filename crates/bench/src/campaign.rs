//! Monte-Carlo fault-campaign driver: executes the seeded run matrix of
//! [`hypercube::obs::campaign`] across a std-thread job pool and feeds the
//! deterministic aggregation + outlier-forensics pipeline.
//!
//! Layering: `hypercube::obs::campaign` owns the run-summary type, the
//! online aggregators, the report/tables and the outlier policy — but that
//! crate simulates machines and cannot *plan* a fault-tolerant sort. This
//! module is the downstream half that can: it draws fault placements and
//! keys, runs [`fault_tolerant_sort`] per placement, and
//! re-executes the selected outlier/median runs with a streaming sink to
//! capture gzip v2 run files.
//!
//! # Determinism contract
//!
//! * Every run's RNG is a **pure function of (campaign seed, run index)**
//!   — [`derive_run_seed`], a splitmix64 finalizer — so any run can be
//!   reproduced in isolation and the job count cannot perturb the draws.
//! * Workers claim run indices from an atomic cursor and write results
//!   into an index-addressed slot table; the single merge pass then walks
//!   the table **in ascending run index order**, fixing the float
//!   accumulation order. Campaign output is therefore byte-identical at
//!   any `--jobs`.
//! * Outlier/median selection happens *after* the merge pass, from the
//!   final report — and the capture re-runs are seeded reproductions of
//!   the originals, so captured run-file bytes are jobs-independent too.

use crate::{random_faults, random_keys_typed, GenKey};
use ftsort::ftsort::{fault_tolerant_sort, phase_name, Attach, FtConfig, FtPlan};
use ftsort::seq::KeyType;
use hypercube::obs::campaign::{CampaignAccumulator, CampaignReport, RunSummary};
use hypercube::obs::metrics;
use hypercube::obs::sink::StreamingSink;
use hypercube::sim::LinkModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// The campaign matrix and execution knobs.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Cube dimensions to sweep.
    pub sizes: Vec<usize>,
    /// Fault counts to sweep (cells with `r > n − 1` are skipped — the
    /// paper only guarantees a feasible structure up to `n − 1` faults).
    pub fault_counts: Vec<usize>,
    /// Random fault placements per (n, r) cell.
    pub runs_per_cell: usize,
    /// Total elements sorted per run.
    pub m_total: usize,
    /// Campaign seed; per-run seeds derive from it ([`derive_run_seed`]).
    pub seed: u64,
    /// Worker threads executing runs (≥ 1; purely wall-clock).
    pub jobs: usize,
    /// Key type of every run.
    pub key_type: KeyType,
    /// Link pricing model of every run.
    pub link_model: LinkModel,
    /// When set, outlier and median-exemplar run files (gzip v2) plus
    /// their live `RunReport` JSONs are captured into this directory.
    pub capture_dir: Option<PathBuf>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            sizes: vec![5],
            fault_counts: vec![3],
            runs_per_cell: 256,
            m_total: 4000,
            seed: crate::DEFAULT_SEED,
            jobs: std::thread::available_parallelism().map_or(1, |p| p.get()),
            key_type: KeyType::I64,
            link_model: LinkModel::Uncontended,
            capture_dir: None,
        }
    }
}

/// Everything a campaign produced.
pub struct CampaignOutcome {
    /// The deterministic aggregate (serialize with
    /// [`CampaignReport::to_json`], render with
    /// [`CampaignReport::tables`]).
    pub report: CampaignReport,
    /// Per-run summaries in run-index order (for offline recomputation
    /// and tests; empty summaries only when every run failed).
    pub summaries: Vec<RunSummary>,
    /// Run files captured to `capture_dir`, in capture order.
    pub captures: Vec<PathBuf>,
    /// (n, r) combinations skipped because `r > n − 1`.
    pub skipped_cells: Vec<(usize, usize)>,
}

/// Derives the RNG seed of run `run_index` from the campaign seed — a
/// splitmix64 finalizer over the pair, so neighbouring indices get
/// decorrelated streams and any run is reproducible in isolation.
pub fn derive_run_seed(campaign_seed: u64, run_index: u64) -> u64 {
    let mut z = campaign_seed
        ^ run_index
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An (n, fault-count) campaign cell.
pub type Cell = (usize, usize);

/// The feasible (n, r) cells of a config, in sweep order, plus the
/// skipped infeasible combinations.
pub fn campaign_cells(cfg: &CampaignConfig) -> (Vec<Cell>, Vec<Cell>) {
    let mut cells = Vec::new();
    let mut skipped = Vec::new();
    for &n in &cfg.sizes {
        for &r in &cfg.fault_counts {
            if r + 1 > n {
                skipped.push((n, r));
            } else {
                cells.push((n, r));
            }
        }
    }
    (cells, skipped)
}

/// Runs a campaign: the job pool, the ordered merge, and (when
/// `capture_dir` is set) the forensics capture pass. `progress` is called
/// from the coordinating thread with `(runs_done, runs_total)` while
/// workers execute — the hook the CLIs use for live output and the
/// mid-campaign Prometheus snapshot.
pub fn run_campaign(
    cfg: &CampaignConfig,
    progress: &mut dyn FnMut(usize, usize),
) -> Result<CampaignOutcome, String> {
    match cfg.key_type {
        KeyType::U32 => run_campaign_typed::<u32>(cfg, progress),
        KeyType::U64 => run_campaign_typed::<u64>(cfg, progress),
        KeyType::I64 => run_campaign_typed::<i64>(cfg, progress),
        KeyType::Pair => run_campaign_typed::<ftsort::seq::KeyPair>(cfg, progress),
    }
}

fn run_campaign_typed<K: GenKey>(
    cfg: &CampaignConfig,
    progress: &mut dyn FnMut(usize, usize),
) -> Result<CampaignOutcome, String> {
    if cfg.runs_per_cell == 0 {
        return Err("campaign needs at least one run per cell".into());
    }
    let (cells, skipped_cells) = campaign_cells(cfg);
    if cells.is_empty() {
        return Err("no feasible (n, fault-count) cell: every r exceeds n - 1".into());
    }
    let total = cells.len() * cfg.runs_per_cell;
    metrics::fold(|t| t.start_campaign(&cells));

    // Job pool: workers claim global run indices from an atomic cursor
    // and park results in an index-addressed slot table. Nothing
    // order-sensitive happens here — the determinism-bearing pass is the
    // ordered merge below.
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<RunSummary, String>>>> =
        (0..total).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        let mut workers = Vec::new();
        for _ in 0..cfg.jobs.max(1) {
            workers.push(scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let (n, r) = cells[i / cfg.runs_per_cell];
                let result = execute_run::<K>(cfg, n, r, i as u64);
                if let Ok(s) = &result {
                    metrics::fold(|t| t.campaign_run((n, r), s.makespan_us));
                }
                *slots[i].lock().unwrap() = Some(result);
                done.fetch_add(1, Ordering::Release);
            }));
        }
        // A worker that panics leaves runs undone: stop waiting once every
        // worker has stopped, and the scope re-raises the panic.
        while done.load(Ordering::Acquire) < total && !workers.iter().all(|w| w.is_finished()) {
            progress(done.load(Ordering::Acquire), total);
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    });
    progress(total, total);

    // Deterministic merge: ascending run-index order, always.
    let mut acc = CampaignAccumulator::new(
        cfg.seed,
        cfg.runs_per_cell as u64,
        cfg.m_total as u64,
        cfg.link_model,
        cfg.key_type.as_str(),
    );
    let mut summaries = Vec::with_capacity(total);
    for (i, slot) in slots.into_iter().enumerate() {
        let (n, r) = cells[i / cfg.runs_per_cell];
        match slot
            .into_inner()
            .unwrap()
            .expect("worker filled every slot")
        {
            Ok(s) => {
                acc.record(&s);
                summaries.push(s);
            }
            Err(_) => acc.record_failure(n, r),
        }
    }
    let report = acc.finish();

    // Forensics capture pass: re-execute exactly the selected runs with a
    // streaming sink. Selection came from the deterministic report, and
    // each re-run re-derives its seed, so the bytes are jobs-independent.
    let mut captures = Vec::new();
    if let Some(dir) = &cfg.capture_dir {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("creating capture dir {}: {e}", dir.display()))?;
        for cell in &report.cells {
            for &idx in &cell.outlier_runs {
                captures.push(capture_run::<K>(cfg, cell.n, cell.r, idx, dir, "outlier")?);
            }
            if let Some(idx) = cell.median_run {
                captures.push(capture_run::<K>(cfg, cell.n, cell.r, idx, dir, "median")?);
            }
        }
    }

    Ok(CampaignOutcome {
        report,
        summaries,
        captures,
        skipped_cells,
    })
}

/// Draws and executes one campaign run, returning its summary.
fn execute_run<K: GenKey>(
    cfg: &CampaignConfig,
    n: usize,
    r: usize,
    run_index: u64,
) -> Result<RunSummary, String> {
    let seed = derive_run_seed(cfg.seed, run_index);
    let mut rng = StdRng::seed_from_u64(seed);
    let faults = random_faults(n, r, &mut rng);
    let plan = FtPlan::new(&faults).map_err(|e| e.to_string())?;
    let data: Vec<K> = random_keys_typed(cfg.m_total, &mut rng);
    let config = FtConfig {
        link_model: cfg.link_model,
        ..FtConfig::default()
    };
    let (outcome, phases, obs) = fault_tolerant_sort(&plan, &config, data, Attach::default());
    let wait_total_us = obs.nodes.iter().map(|p| p.metrics.link_wait_us).sum();
    let inbox_peak = obs
        .nodes
        .iter()
        .map(|p| p.metrics.inbox_peak)
        .max()
        .unwrap_or(0);
    Ok(RunSummary {
        run_index,
        seed,
        n,
        r,
        makespan_us: outcome.time_us,
        step3_us: phases.step3_us,
        step7_us: phases.step7_us,
        step8_us: phases.step8_us,
        wait_total_us,
        comparisons: outcome.stats.comparisons,
        element_hops: outcome.stats.element_hops,
        inbox_peak,
        mincut: plan.partition().mincut,
        subcube_dim: plan.structure().s(),
        live: plan.live_count(),
    })
}

/// Re-executes run `run_index` with a streaming sink, capturing its gzip
/// v2 run file plus the live `RunReport` JSON (what `ftsort-cli replay
/// --metrics-out` must reproduce byte-for-byte) into `dir`.
fn capture_run<K: GenKey>(
    cfg: &CampaignConfig,
    n: usize,
    r: usize,
    run_index: u64,
    dir: &Path,
    role: &str,
) -> Result<PathBuf, String> {
    let seed = derive_run_seed(cfg.seed, run_index);
    let mut rng = StdRng::seed_from_u64(seed);
    let faults = random_faults(n, r, &mut rng);
    let plan = FtPlan::new(&faults).map_err(|e| e.to_string())?;
    let data: Vec<K> = random_keys_typed(cfg.m_total, &mut rng);
    let config = FtConfig {
        link_model: cfg.link_model,
        ..FtConfig::default()
    };
    let path = dir.join(format!("n{n}_r{r}_run{run_index}_{role}.jsonl.gz"));
    let mut sink = StreamingSink::create(&path)
        .map_err(|e| format!("creating run file {}: {e}", path.display()))?;
    sink.set_key_type(cfg.key_type.as_str());
    let sink = Arc::new(Mutex::new(sink));
    let attach = Attach {
        sink: Some(sink.clone()),
        ..Attach::default()
    };
    let (_outcome, _phases, obs) = fault_tolerant_sort(&plan, &config, data, attach);
    if let Some(e) = sink.lock().expect("sink lock poisoned").take_error() {
        return Err(format!("writing {}: {e}", path.display()));
    }
    let report = obs.report(&phase_name).with_key_type(cfg.key_type.as_str());
    let report_path = dir.join(format!("n{n}_r{r}_run{run_index}_{role}.report.json"));
    std::fs::write(&report_path, report.to_json())
        .map_err(|e| format!("writing {}: {e}", report_path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_seeds_are_pure_and_decorrelated() {
        assert_eq!(derive_run_seed(1, 0), derive_run_seed(1, 0));
        assert_ne!(derive_run_seed(1, 0), derive_run_seed(1, 1));
        assert_ne!(derive_run_seed(1, 0), derive_run_seed(2, 0));
    }

    #[test]
    fn infeasible_cells_are_skipped() {
        let cfg = CampaignConfig {
            sizes: vec![3, 5],
            fault_counts: vec![2, 4],
            ..CampaignConfig::default()
        };
        let (cells, skipped) = campaign_cells(&cfg);
        assert_eq!(cells, vec![(3, 2), (5, 2), (5, 4)]);
        assert_eq!(skipped, vec![(3, 4)]);
    }

    #[test]
    #[should_panic(expected = "a scoped thread panicked")]
    fn a_panicking_run_ends_the_campaign() {
        // Q40 does not exist, so the one run panics in `Hypercube::new`;
        // the coordinator stops waiting and the panic reaches the caller.
        let cfg = CampaignConfig {
            sizes: vec![40],
            runs_per_cell: 1,
            jobs: 1,
            ..CampaignConfig::default()
        };
        let _ = run_campaign(&cfg, &mut |_, _| {});
    }

    #[test]
    fn small_campaign_aggregates_match_brute_force() {
        let cfg = CampaignConfig {
            sizes: vec![4],
            fault_counts: vec![2],
            runs_per_cell: 6,
            m_total: 256,
            seed: 11,
            jobs: 2,
            ..CampaignConfig::default()
        };
        let outcome = run_campaign(&cfg, &mut |_, _| {}).expect("campaign");
        assert_eq!(outcome.summaries.len(), 6);
        let cell = &outcome.report.cells[0];
        assert_eq!(cell.runs, 6);
        let sum: f64 = outcome.summaries.iter().fold(0.0, |a, s| a + s.makespan_us);
        let agg = cell.metric("makespan_us").unwrap();
        assert_eq!(agg.sum.to_bits(), sum.to_bits());
        assert!(!cell.outlier_runs.is_empty());
    }
}
