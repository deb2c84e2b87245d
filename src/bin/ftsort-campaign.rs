//! Monte-Carlo fault-campaign CLI — the fleet-scale counterpart of
//! `ftsort-cli sort`.
//!
//! ```text
//! ftsort-campaign [--sizes 5] [--fault-counts 3] [--runs 256] [--m 4000]
//!                 [--seed 1992] [--jobs N] [--key-type u32|u64|i64|pair]
//!                 [--link-model uncontended|contended] [--out FILE]
//!                 [--capture-dir DIR] [--metrics-snapshot FILE]
//! ```
//!
//! Executes `--runs` seeded fault placements per (n, fault-count) cell
//! across a `--jobs`-wide std-thread pool (per-run seeds derive from
//! `--seed` alone, so the job count never changes a draw), streams every
//! run's summary into the online aggregators of
//! [`hypercube::obs::campaign`], and prints Table-1-style distribution
//! tables per cell. `--out` writes the versioned [`CampaignReport`] JSON
//! — byte-identical across `--jobs` values and invocations, the property
//! `tests/campaign_determinism.rs` and CI pin. `--capture-dir` re-executes
//! every outlier (≥ ~p99 makespan of its cell) and each cell's median
//! exemplar with a streaming sink, capturing gzip run files plus their
//! live `RunReport` JSONs for `ftsort-cli replay`/`trace-diff` forensics.
//! `--metrics-snapshot` installs the process's metric totals and writes a
//! Prometheus snapshot once the campaign is half done (live progress:
//! runs-completed counter, per-cell makespan histograms, and the engine
//! totals of the runs that have ended), refreshing it at completion.
//!
//! Progress goes to stderr; tables and the summary go to stdout.
//!
//! [`CampaignReport`]: hypercube::obs::campaign::CampaignReport

use ft_bench::args::{dims, link_model, Args, Flag, KEY_TYPE, LINK_MODEL};
use ft_bench::campaign::{run_campaign, CampaignConfig};
use ftsort::seq::KeyType;
use std::path::PathBuf;
use std::process::ExitCode;

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    ("--sizes", "N,N,..", "cube dimensions (default 5)"),
    ("--fault-counts", "R,R,..", "fault counts; cells with r > n - 1 are skipped (default 3)"),
    ("--runs", "RUNS", "fault placements per cell (default 256)"),
    ("--m", "KEYS", "keys per run (default 4000)"),
    ("--seed", "SEED", "campaign seed (default 1992)"),
    ("--jobs", "N", "worker threads (default: the host's cores)"),
    KEY_TYPE,
    LINK_MODEL,
    ("--out", "FILE", "write the campaign report JSON"),
    ("--capture-dir", "DIR", "capture outlier and median run files"),
    ("--metrics-snapshot", "FILE", "write a Prometheus snapshot at half-way and at the end"),
];

fn main() -> ExitCode {
    ft_bench::end_on_closed_stdout();
    let args = Args::parse("ftsort-campaign", &[FLAGS]);
    let d = CampaignConfig::default();
    let cfg = CampaignConfig {
        sizes: args.list("--sizes", dims(0), &d.sizes),
        fault_counts: args.list("--fault-counts", .., &d.fault_counts),
        runs_per_cell: args.get("--runs", 1.., d.runs_per_cell),
        m_total: args.get("--m", .., d.m_total),
        seed: args.get("--seed", .., d.seed),
        jobs: args.get("--jobs", 1.., d.jobs),
        key_type: args.value("--key-type", KeyType::parse).unwrap_or_default(),
        link_model: args.value("--link-model", link_model).unwrap_or_default(),
        capture_dir: args.path("--capture-dir").map(PathBuf::from),
    };
    let out = args.path("--out");
    let snapshot = args.path("--metrics-snapshot");
    args.finish();
    match run(&cfg, out.as_deref(), snapshot.as_deref()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(cfg: &CampaignConfig, out: Option<&str>, snapshot: Option<&str>) -> Result<(), String> {
    // Installed before the first run, so every run folds its totals in.
    if snapshot.is_some() {
        hypercube::obs::metrics::install();
    }

    // Progress to stderr; the mid-campaign Prometheus snapshot fires once
    // the pool crosses the halfway mark (and is refreshed at the end).
    let mut snapshot_written = false;
    let mut last_reported = usize::MAX;
    let outcome = run_campaign(cfg, &mut |done, total| {
        if done != last_reported && (done == total || done % 32 == 0) {
            eprintln!("campaign: {done}/{total} runs");
            last_reported = done;
        }
        if !snapshot_written && done * 2 >= total {
            if let (Some(path), Some(text)) = (snapshot, hypercube::obs::metrics::snapshot()) {
                std::fs::write(path, text)
                    .unwrap_or_else(|e| eprintln!("warning: metrics snapshot {path}: {e}"));
            }
            snapshot_written = true;
        }
    })?;

    for (n, r) in &outcome.skipped_cells {
        println!("skipped cell n={n} r={r}: r > n - 1 (no guaranteed single-fault structure)");
    }
    print!("{}", outcome.report.tables());
    if !outcome.captures.is_empty() {
        println!(
            "\ncaptured {} run file(s) for forensics (replay with ftsort-cli replay --trace <file>):",
            outcome.captures.len()
        );
        for path in &outcome.captures {
            println!("  {}", path.display());
        }
    }
    if let Some(out) = out {
        std::fs::write(out, outcome.report.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
        println!("campaign report written: {out}");
    }
    if let (Some(path), Some(text)) = (snapshot, hypercube::obs::metrics::snapshot()) {
        std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
        println!("metrics snapshot written: {path}");
    }
    Ok(())
}
