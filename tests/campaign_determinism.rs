//! Campaign-observatory invariants (ISSUE: Monte-Carlo fault-campaign
//! runner): output determinism across `--jobs` and invocations, outlier
//! run-file forensics replaying byte-identical, and the aggregate
//! exactness contract — online means/counts equal an offline brute-force
//! recomputation, quantile estimates within one log₂ bucket of the exact
//! order statistics. The report reader, which `bench_diff` gates campaign
//! baselines through, never panics on hostile input: every mutation of a
//! report reads to `Ok` or `Err`.

mod common;

use common::{mutations, Budget};
use ft_bench::campaign::{run_campaign, CampaignConfig};
use hypercube::obs::campaign::CampaignReport;
use hypercube::obs::hist::LogHistogram;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::process::Command;

fn campaign_cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ftsort-campaign"))
}

fn ftsort_cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ftsort-cli"))
}

/// Runs a small campaign through the CLI, returning the report path and
/// capture directory it wrote.
fn run_cli_campaign(tag: &str, jobs: &str) -> (PathBuf, PathBuf) {
    let dir = std::env::temp_dir();
    let out = dir.join(format!("campaign_det_{tag}.json"));
    let captures = dir.join(format!("campaign_det_{tag}_captures"));
    let _ = std::fs::remove_dir_all(&captures);
    let output = campaign_cli()
        .args([
            "--sizes",
            "4,5",
            "--fault-counts",
            "2",
            "--runs",
            "12",
            "--m",
            "600",
            "--seed",
            "77",
            "--jobs",
            jobs,
            "--out",
            out.to_str().unwrap(),
            "--capture-dir",
            captures.to_str().unwrap(),
        ])
        .output()
        .expect("run ftsort-campaign");
    assert!(
        output.status.success(),
        "campaign failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("outlier runs"), "{stdout}");
    (out, captures)
}

/// Sorted (file name, bytes) listing of a capture directory.
fn dir_contents(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut entries: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read capture dir")
        .map(|e| {
            let e = e.expect("dir entry");
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).expect("read capture file"),
            )
        })
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries
}

#[test]
fn campaign_output_is_byte_identical_across_jobs_and_invocations() {
    let (out_a, cap_a) = run_cli_campaign("a", "1");
    let (out_b, cap_b) = run_cli_campaign("b", "4");
    let (out_c, cap_c) = run_cli_campaign("c", "4");

    // Report JSON: identical across --jobs 1 vs 4 and across two
    // same-seed invocations.
    let a = std::fs::read(&out_a).expect("read report a");
    assert_eq!(a, std::fs::read(&out_b).expect("read report b"));
    assert_eq!(a, std::fs::read(&out_c).expect("read report c"));

    // Captured run files (outliers + median exemplars): same set, same
    // bytes, regardless of the job count.
    let files_a = dir_contents(&cap_a);
    assert!(!files_a.is_empty(), "no captures in {}", cap_a.display());
    assert!(
        files_a.iter().any(|(name, _)| name.contains("outlier")),
        "no outlier capture among {:?}",
        files_a.iter().map(|(n, _)| n).collect::<Vec<_>>()
    );
    assert_eq!(files_a, dir_contents(&cap_b));
    assert_eq!(files_a, dir_contents(&cap_c));

    // The report parses and round-trips exactly.
    let text = String::from_utf8(a).expect("utf8 report");
    let report = CampaignReport::from_json(&text).expect("parse report");
    assert_eq!(report.to_json(), text);
    assert_eq!(report.cells.len(), 2); // n=4 and n=5, r=2
}

#[test]
fn captured_outlier_replays_byte_identical_to_live_report() {
    let (_, captures) = run_cli_campaign("replay", "2");
    let mut checked = 0;
    for (name, _) in dir_contents(&captures) {
        if !name.ends_with(".jsonl.gz") {
            continue;
        }
        let run_file = captures.join(&name);
        let live_report = captures.join(name.replace(".jsonl.gz", ".report.json"));
        let replayed = std::env::temp_dir().join(format!("campaign_det_replayed_{name}.json"));
        let output = ftsort_cli()
            .args([
                "replay",
                "--trace",
                run_file.to_str().unwrap(),
                "--metrics-out",
                replayed.to_str().unwrap(),
            ])
            .output()
            .expect("run ftsort-cli replay");
        assert!(
            output.status.success(),
            "replay of {name} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert_eq!(
            std::fs::read(&replayed).expect("read replayed report"),
            std::fs::read(&live_report).expect("read live report"),
            "replayed RunReport differs from live for {name}"
        );
        checked += 1;
    }
    assert!(
        checked >= 2,
        "expected outlier + median captures, got {checked}"
    );
}

#[test]
fn aggregates_match_offline_brute_force_recomputation() {
    let cfg = CampaignConfig {
        sizes: vec![4, 5],
        fault_counts: vec![2, 3],
        runs_per_cell: 10,
        m_total: 500,
        seed: 9,
        jobs: 2,
        ..CampaignConfig::default()
    };
    let outcome = run_campaign(&cfg, &mut |_, _| {}).expect("campaign");
    // (4,3) is feasible (r ≤ n − 1), so all four cells run.
    assert_eq!(outcome.report.cells.len(), 4);
    assert_eq!(outcome.summaries.len(), 40);

    for cell in &outcome.report.cells {
        let members: Vec<_> = outcome
            .summaries
            .iter()
            .filter(|s| s.n == cell.n && s.r == cell.r)
            .collect();
        assert_eq!(cell.runs as usize, members.len());
        assert_eq!(cell.runs_failed, 0);

        // Exact mean/min/max recomputation, same accumulation order as
        // the report's ordered merge (run-index order).
        type Extract = fn(&hypercube::obs::campaign::RunSummary) -> f64;
        let checks: [(&str, Extract); 4] = [
            ("makespan_us", |s| s.makespan_us),
            ("wait_total_us", |s| s.wait_total_us),
            ("comparisons", |s| s.comparisons as f64),
            ("inbox_peak", |s| s.inbox_peak as f64),
        ];
        for (name, extract) in &checks {
            let agg = cell.metric(name).unwrap();
            let sum = members.iter().fold(0.0, |a, s| a + extract(s));
            assert_eq!(agg.count as usize, members.len(), "{name} count");
            assert_eq!(agg.sum.to_bits(), sum.to_bits(), "{name} sum");
            assert_eq!(
                agg.mean().to_bits(),
                (sum / members.len() as f64).to_bits(),
                "{name} mean"
            );
            let min = members
                .iter()
                .map(|s| extract(s))
                .fold(f64::INFINITY, f64::min);
            let max = members
                .iter()
                .map(|s| extract(s))
                .fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(agg.min, min, "{name} min");
            assert_eq!(agg.max, max, "{name} max");
        }

        // Quantile estimates: within one log₂ bucket of the exact order
        // statistics (same bucket, since the estimate is clamped into the
        // bucket holding the rank).
        let mut sorted: Vec<u64> = members.iter().map(|s| s.makespan_us as u64).collect();
        sorted.sort_unstable();
        for (q, estimate) in [(0.5, cell.p50_makespan_us), (0.99, cell.p99_makespan_us)] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            assert_eq!(
                LogHistogram::bucket_of(estimate),
                LogHistogram::bucket_of(sorted[rank - 1]),
                "cell n={} r={} q={q}",
                cell.n,
                cell.r
            );
        }

        // Partition-shape counts match brute force.
        for (m, &count) in cell.mincut_counts.iter().enumerate() {
            assert_eq!(
                count as usize,
                members.iter().filter(|s| s.mincut == m).count(),
                "mincut m={m}"
            );
        }

        // The outlier set is exactly the runs at/above the p99 estimate
        // (with the cell max always included).
        let max = cell.metric("makespan_us").unwrap().max;
        let expected: Vec<u64> = members
            .iter()
            .filter(|s| s.makespan_us as u64 >= cell.p99_makespan_us || s.makespan_us == max)
            .map(|s| s.run_index)
            .collect();
        assert_eq!(cell.outlier_runs, expected);
        assert!(!cell.outlier_runs.is_empty());
    }
}

#[test]
fn mutated_campaign_reports_fail_cleanly() {
    let base = include_str!("../results/BENCH_campaign_ci.json");
    CampaignReport::from_json(base).expect("the checked-in baseline reads");
    let mut rng = StdRng::seed_from_u64(0xca3b_a16e);
    let budget = Budget {
        cuts: base.len(),
        flips: 1_000,
        numbers: usize::MAX,
    };
    let cases = mutations(base.as_bytes(), &mut rng, budget);
    let mut rejected = 0;
    for (case, m) in cases.iter().enumerate() {
        let Ok(text) = std::str::from_utf8(m) else {
            continue;
        };
        match std::panic::catch_unwind(|| CampaignReport::from_json(text)) {
            Ok(Ok(report)) => {
                let back = CampaignReport::from_json(&report.to_json());
                assert_eq!(back.as_ref(), Ok(&report), "case {case}: round trip");
                let _ = report.tables();
            }
            Ok(Err(_)) => rejected += 1,
            Err(_) => panic!("case {case} panicked on:\n{text}"),
        }
    }
    assert!(
        rejected > cases.len() / 2,
        "{rejected} of {} rejected",
        cases.len()
    );
}
