//! Monte-Carlo fault-campaign CLI — the fleet-scale counterpart of
//! `ftsort-cli sort`.
//!
//! ```text
//! ftsort-campaign [--sizes 5,6] [--fault-counts 3] [--runs 256] [--m 4000]
//!                 [--seed 1992] [--jobs N] [--key-type u32|u64|i64|pair]
//!                 [--link-model uncontended|contended] [--out report.json]
//!                 [--capture-dir DIR] [--metrics-snapshot prom.txt]
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
//! exemplar with a streaming sink, capturing gzip v2 run files plus their
//! live `RunReport` JSONs for `ftsort-cli replay`/`trace-diff` forensics.
//! `--metrics-snapshot` installs the process's metric totals and writes a
//! Prometheus snapshot once the campaign is half done (live progress:
//! runs-completed counter, per-cell makespan histograms, and the engine
//! totals of the runs that have ended), refreshing it at completion.
//!
//! Progress goes to stderr; tables and the summary go to stdout.
//!
//! [`CampaignReport`]: hypercube::obs::campaign::CampaignReport

use ft_bench::campaign::{run_campaign, CampaignConfig};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut flags: HashMap<String, String> = HashMap::new();
    let mut key: Option<String> = None;
    for a in std::env::args().skip(1) {
        if let Some(stripped) = a.strip_prefix("--") {
            if let Some(k) = key.take() {
                flags.insert(k, String::from("true"));
            }
            key = Some(stripped.to_string());
        } else if let Some(k) = key.take() {
            flags.insert(k, a);
        } else {
            eprintln!("unexpected argument: {a}");
            return ExitCode::from(2);
        }
    }
    if let Some(k) = key.take() {
        flags.insert(k, String::from("true"));
    }

    match run(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(flags: &HashMap<String, String>) -> Result<(), String> {
    let known = [
        "sizes",
        "fault-counts",
        "runs",
        "m",
        "seed",
        "jobs",
        "key-type",
        "link-model",
        "out",
        "capture-dir",
        "metrics-snapshot",
    ];
    for k in flags.keys() {
        if !known.contains(&k.as_str()) {
            return Err(format!("unknown flag --{k} (known: {})", known.join(", ")));
        }
    }

    let sizes = parse_list(flags.get("sizes").map(String::as_str).unwrap_or("5"))?;
    let fault_counts = parse_list(flags.get("fault-counts").map(String::as_str).unwrap_or("3"))?;
    let key_type = match flags.get("key-type") {
        Some(v) => ftsort::seq::KeyType::parse(v)?,
        None => ftsort::seq::KeyType::default(),
    };
    let link_model = match flags.get("link-model") {
        Some(v) => hypercube::sim::LinkModel::parse(v)
            .ok_or_else(|| format!("unknown link model '{v}' (uncontended|contended)"))?,
        None => hypercube::sim::LinkModel::default(),
    };
    let cfg = CampaignConfig {
        sizes,
        fault_counts,
        runs_per_cell: flag(flags, "runs", "256")?,
        m_total: flag(flags, "m", "4000")?,
        seed: flag(flags, "seed", "1992")?,
        jobs: flag(
            flags,
            "jobs",
            &std::thread::available_parallelism()
                .map_or(1, |p| p.get())
                .to_string(),
        )?,
        key_type,
        link_model,
        capture_dir: flags.get("capture-dir").map(PathBuf::from),
    };
    if cfg.jobs == 0 {
        return Err("--jobs must be at least 1".into());
    }

    // Installed before the first run, so every run folds its totals in.
    let snapshot = flags.get("metrics-snapshot");
    if snapshot.is_some() {
        hypercube::obs::metrics::install();
    }

    // Progress to stderr; the mid-campaign Prometheus snapshot fires once
    // the pool crosses the halfway mark (and is refreshed at the end).
    let mut snapshot_written = false;
    let mut last_reported = usize::MAX;
    let outcome = run_campaign(&cfg, &mut |done, total| {
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
    if let Some(out) = flags.get("out") {
        std::fs::write(out, outcome.report.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
        println!("campaign report written: {out}");
    }
    if let (Some(path), Some(text)) = (snapshot, hypercube::obs::metrics::snapshot()) {
        std::fs::write(path, text).map_err(|e| format!("writing {path}: {e}"))?;
        println!("metrics snapshot written: {path}");
    }
    Ok(())
}

fn flag<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: &str,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    flags
        .get(key)
        .map(String::as_str)
        .unwrap_or(default)
        .parse()
        .map_err(|e| format!("bad --{key}: {e}"))
}

fn parse_list(spec: &str) -> Result<Vec<usize>, String> {
    spec.split(',')
        .map(|s| {
            s.trim()
                .parse::<usize>()
                .map_err(|e| format!("bad list entry '{s}': {e}"))
        })
        .collect()
}
