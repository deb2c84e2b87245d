//! Integration tests of the `ftsort-cli` binary.

use std::io::Read;
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ftsort-cli"))
}

#[test]
fn partition_reproduces_paper_example() {
    let out = cli()
        .args(["partition", "--n", "5", "--faults", "3,5,16,24"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("mincut m = 3"), "{text}");
    assert!(text.contains("[0, 1, 3]"), "{text}");
    assert!(text.contains("selected D_β = [0, 1, 3]"), "{text}");
    assert!(text.contains("w* = 10"), "{text}");
    assert!(text.contains("live N' = 24 of 28"), "{text}");
}

#[test]
fn sort_produces_summary() {
    let out = cli()
        .args(["sort", "--n", "4", "--faults", "2,9", "--m", "5000"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("sorted 5000 keys on 14 live processors"),
        "{text}"
    );
    assert!(text.contains("simulated time"), "{text}");
}

#[test]
fn route_prints_both_routers() {
    let out = cli()
        .args([
            "route", "--n", "3", "--faults", "1,2", "--model", "total", "--from", "0", "--to", "3",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("oracle route (4 hops)"), "{text}");
    assert!(text.contains("adaptive walk"), "{text}");
}

#[test]
fn diagnose_matches_injection() {
    let out = cli()
        .args(["diagnose", "--n", "5", "--faults", "3,5,16"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("matches the injected fault set"), "{text}");
}

#[test]
fn sort_engine_flag_is_result_invariant() {
    // both engines simulate the same machine: the printed summary (keys,
    // live processors, simulated time, stats) must be identical
    let run = |engine: &str| {
        let out = cli()
            .args([
                "sort", "--n", "4", "--faults", "2,9", "--m", "2000", "--engine", engine,
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    assert_eq!(run("seq"), run("par"));
}

#[test]
fn replay_recost_reprices_a_run_file() {
    let dir = std::env::temp_dir();
    let run = dir.join("ftsort_cli_recost_run.json");
    let repriced = dir.join("ftsort_cli_recost_out.json");
    let out = cli()
        .args([
            "sort",
            "--n",
            "3",
            "--faults",
            "1",
            "--m",
            "1000",
            "--engine",
            "par",
            "--run-out",
            run.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = cli()
        .args([
            "replay",
            "--trace",
            run.to_str().unwrap(),
            "--recost",
            "paper",
            "--run-out",
            repriced.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("recosted"), "{text}");
    assert!(text.contains("t_startup 0"), "{text}");
    // the re-priced run file must itself replay cleanly, and re-costing
    // it with explicit overrides equal to its own model is the identity
    let again = cli()
        .args([
            "replay",
            "--trace",
            repriced.to_str().unwrap(),
            "--recost",
            "t_startup=0",
        ])
        .output()
        .expect("binary runs");
    assert!(
        again.status.success(),
        "{}",
        String::from_utf8_lossy(&again.stderr)
    );
    let text = String::from_utf8(again.stdout).unwrap();
    let makespans: Vec<&str> = text
        .lines()
        .filter_map(|l| l.split("makespan ").nth(1))
        .collect();
    assert!(makespans.len() >= 2, "{text}");
    let _ = std::fs::remove_file(&run);
    let _ = std::fs::remove_file(&repriced);
}

#[test]
fn replay_rejects_bad_recost_spec() {
    let dir = std::env::temp_dir();
    let run = dir.join("ftsort_cli_recost_bad.json");
    let out = cli()
        .args([
            "sort",
            "--n",
            "2",
            "--faults",
            "1",
            "--m",
            "200",
            "--run-out",
            run.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let out = cli()
        .args([
            "replay",
            "--trace",
            run.to_str().unwrap(),
            "--recost",
            "t_bogus=1",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown --recost field"), "{err}");
    let _ = std::fs::remove_file(&run);
}

#[test]
fn sort_contended_prints_link_wait() {
    let out = cli()
        .args([
            "sort",
            "--n",
            "4",
            "--faults",
            "2,9",
            "--m",
            "2000",
            "--link-model",
            "contended",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("link wait"), "{text}");

    // the uncontended summary never mentions waits, and bogus models fail
    let out = cli()
        .args(["sort", "--n", "4", "--faults", "2,9", "--m", "2000"])
        .output()
        .expect("binary runs");
    assert!(!String::from_utf8(out.stdout).unwrap().contains("link wait"));
    let out = cli()
        .args([
            "sort",
            "--n",
            "3",
            "--faults",
            "1",
            "--m",
            "100",
            "--link-model",
            "psychic",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown link model"), "{err}");
}

#[test]
fn replay_reprices_across_link_models_and_gzip() {
    // sort --run-out foo.jsonl.gz (gzipped, uncontended) → replay
    // --link-model contended → replay the contended file back down:
    // the makespans must return to the original value.
    let dir = std::env::temp_dir();
    let run = dir.join("ftsort_cli_linkmodel_run.jsonl.gz");
    let contended = dir.join("ftsort_cli_linkmodel_con.jsonl.gz");
    let out = cli()
        .args([
            "sort",
            "--n",
            "4",
            "--faults",
            "2,9",
            "--m",
            "2000",
            "--run-out",
            run.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let bytes = std::fs::read(&run).expect("run file written");
    assert_eq!(&bytes[..2], &[0x1f, 0x8b], "--run-out *.gz must gzip");

    let makespan_of = |text: &str, idx: usize| -> f64 {
        text.lines()
            .filter(|l| l.starts_with("replayed"))
            .nth(idx)
            .and_then(|l| l.split("makespan ").nth(1))
            .and_then(|l| l.split(' ').next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("no makespan in {text}"))
    };
    let out = cli()
        .args([
            "replay",
            "--trace",
            run.to_str().unwrap(),
            "--link-model",
            "contended",
            "--run-out",
            contended.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("link model     : uncontended -> contended"),
        "{text}"
    );
    let original = makespan_of(&text, 0);

    let out = cli()
        .args([
            "replay",
            "--trace",
            contended.to_str().unwrap(),
            "--link-model",
            "uncontended",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("link model     : contended -> uncontended"),
        "{text}"
    );
    let contended_makespan = makespan_of(&text, 0);
    assert!(contended_makespan > original, "{text}");
    let down = text
        .lines()
        .find(|l| l.starts_with("recosted"))
        .and_then(|l| l.split("-> ").last())
        .and_then(|l| l.split(' ').next())
        .and_then(|s| s.parse::<f64>().ok())
        .expect("recosted line");
    assert_eq!(
        down, original,
        "re-pricing back down must restore the makespan"
    );
    let _ = std::fs::remove_file(&run);
    let _ = std::fs::remove_file(&contended);
}

#[test]
fn sort_rejects_unknown_engine() {
    // `threaded` named an engine that no longer exists: it is a usage
    // error like any other unknown spelling, listing the two engines.
    for engine in ["warp", "threaded"] {
        let out = cli()
            .args([
                "sort", "--n", "3", "--faults", "1", "--m", "100", "--engine", engine,
            ])
            .output()
            .expect("binary runs");
        assert!(!out.status.success(), "--engine {engine}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(&format!("unknown engine '{engine}'")), "{err}");
        assert!(err.contains("(seq|par)"), "{err}");
    }
}

#[test]
fn unknown_command_fails_cleanly() {
    let out = cli().args(["frobnicate"]).output().expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown command"), "{err}");
}

#[test]
fn bad_arguments_are_usage_errors() {
    // Each subcommand and ftsort-campaign read their command line against
    // one declaration: a bad argument exits 2, naming it on the first
    // stderr line above the usage, before anything runs or is written.
    // Dimensions stay above 32, which no parser ever accepted, and small
    // workloads keep a missed rejection quick.
    let campaign = env!("CARGO_BIN_EXE_ftsort-campaign");
    let cli = env!("CARGO_BIN_EXE_ftsort-cli");
    for (i, (bin, case, named)) in [
        (cli, "sort --n 3 --faults 1 --m 10 --mm 10", "--mm"),
        (
            cli,
            "sort --n 3 --faults 1 --m 10 --metrics-out",
            "--metrics-out",
        ),
        (cli, "sort --n 3 --faults 1 --m 10 --engine", "--engine"),
        (cli, "sort --n 3 --m 10 --faults 1,1", "--faults"),
        (cli, "sort --n 4 --m 10 --faults 99", "--faults"),
        (cli, "sort --m 10 --n 40", "--n"),
        (cli, "sort --n 3 --m 10 --host-io yes", "'yes'"),
        (cli, "sort --n 3 --m 10 --threads 0", "--threads"),
        (cli, "partition --n 4 --seed abc", "--seed"),
        (cli, "mffs --n 4 --faults 2 --m 10 --engine par", "--engine"),
        (cli, "route --n 4 --from 99", "--from"),
        (cli, "route --n 0", "--to"),
        (cli, "diagnose --n 40", "--n"),
        (cli, "trace-check --trace", "--trace"),
        (cli, "trace-check", "--trace"),
        (cli, "replay --trace", "--trace"),
        (cli, "replay --trace run.json --width x", "--width"),
        (cli, "trace-diff --a", "--a"),
        (cli, "trace-diff --a run.json", "--b"),
        (cli, "frobnicate", "frobnicate"),
        (campaign, "--sizes 3 --runs 1 --m 10 --out", "--out"),
        (campaign, "--runs 1 --m 10 --sizes 40", "--sizes"),
        (campaign, "--sizes 3 --m 10 --runs 0", "--runs"),
        (campaign, "--sizes 3 --runs 1 --m 10 --jobs 0", "--jobs"),
        (
            campaign,
            "--sizes 3 --runs 1 --m 10 --fault-counts x",
            "--fault-counts",
        ),
        (campaign, "--sizes 3 --runs 1 --m 10 stray", "'stray'"),
    ]
    .into_iter()
    .enumerate()
    {
        let dir = std::env::temp_dir().join(format!("ftsort_usage_{}_{i}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let out = Command::new(bin)
            .args(case.split(' '))
            .current_dir(&dir)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{case}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(first.contains(named), "{case}: {stderr}");
        assert!(stderr.contains("usage: "), "{case}: {stderr}");
        assert!(out.stdout.is_empty(), "{case} ran");
        let written = std::fs::read_dir(&dir).unwrap().count();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(written, 0, "{case} wrote a file");
    }
}

#[test]
fn isolation_reported_as_error() {
    // Q2 with both neighbors of node 0 dead cannot be tolerated
    let out = cli()
        .args(["partition", "--n", "2", "--faults", "1,2"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cannot tolerate"), "{err}");
}

#[test]
fn sort_sched_profile_writes_report_and_valid_trace() {
    let dir = std::env::temp_dir();
    let sched = dir.join("ftsort_cli_sched.json");
    let trace = dir.join("ftsort_cli_sched.json.perfetto.json");
    let out = cli()
        .args([
            "sort",
            "--n",
            "4",
            "--faults",
            "2,9",
            "--m",
            "2000",
            "--engine",
            "par",
            "--threads",
            "4",
            "--sched-out",
            sched.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("sched written"), "{text}");
    assert!(text.contains("sched trace"), "{text}");
    assert!(text.contains("utilization"), "{text}");
    assert!(text.contains("worker timeline"), "{text}");

    // The written report round-trips through the library parser.
    let report_text = std::fs::read_to_string(&sched).expect("sched report written");
    let report =
        hypercube::obs::sched::SchedReport::from_json(&report_text).expect("sched report parses");
    assert!(report.workers >= 1 && report.makespan_ns > 0);

    // The worker-track Perfetto export passes trace-check...
    let check = cli()
        .args(["trace-check", "--trace", trace.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        check.status.success(),
        "{}",
        String::from_utf8_lossy(&check.stderr)
    );
    let text = String::from_utf8(check.stdout).unwrap();
    assert!(text.contains(": ok ("), "{text}");

    // ...and a corrupted copy (a dangling steal flow on an undeclared
    // track) is rejected with a diagnostic.
    let trace_text = std::fs::read_to_string(&trace).expect("trace written");
    let tail = trace_text.rfind(']').expect("traceEvents array");
    let mut corrupted = trace_text.clone();
    corrupted.insert_str(
        tail,
        ",{\"ph\":\"s\",\"pid\":1,\"tid\":9999,\"id\":777777,\"cat\":\"steal\",\"ts\":1}",
    );
    let bad = dir.join("ftsort_cli_sched_corrupt.perfetto.json");
    std::fs::write(&bad, corrupted).unwrap();
    let check = cli()
        .args(["trace-check", "--trace", bad.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        !check.status.success(),
        "corrupted trace must fail trace-check"
    );
    let err = String::from_utf8(check.stderr).unwrap();
    assert!(err.contains("track") || err.contains("flow"), "{err}");

    let _ = std::fs::remove_file(&sched);
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&bad);
}

#[test]
fn sort_sched_profile_is_byte_invisible_in_run_files() {
    // Satellite of the profiler work: `--sched-profile` must not change
    // the simulation. The streamed run files of a profiled and an
    // unprofiled run of the same seeded sort are byte-identical.
    let dir = std::env::temp_dir();
    let plain = dir.join("ftsort_cli_sched_plain_run.json");
    let profiled = dir.join("ftsort_cli_sched_profiled_run.json");
    let run = |run_out: &std::path::Path, sched: bool| {
        let mut args = vec![
            "sort",
            "--n",
            "4",
            "--faults",
            "2,9",
            "--m",
            "2000",
            "--engine",
            "par",
            "--threads",
            "3",
            "--seed",
            "7",
            "--run-out",
        ];
        args.push(run_out.to_str().unwrap());
        if sched {
            args.push("--sched-profile");
        }
        let out = cli().args(&args).output().expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    let plain_text = run(&plain, false);
    let profiled_text = run(&profiled, true);
    assert!(!plain_text.contains("worker timeline"), "{plain_text}");
    assert!(profiled_text.contains("worker timeline"), "{profiled_text}");

    let plain_bytes = std::fs::read(&plain).expect("plain run written");
    let profiled_bytes = std::fs::read(&profiled).expect("profiled run written");
    assert!(!plain_bytes.is_empty());
    assert!(
        plain_bytes == profiled_bytes,
        "--sched-profile changed the streamed run file ({} vs {} bytes)",
        plain_bytes.len(),
        profiled_bytes.len()
    );
    let _ = std::fs::remove_file(&plain);
    let _ = std::fs::remove_file(&profiled);
}

#[test]
fn sort_sched_profile_on_seq_profiles_one_worker() {
    let out = cli()
        .args([
            "sort",
            "--n",
            "3",
            "--faults",
            "1",
            "--m",
            "500",
            "--engine",
            "seq",
            "--sched-profile",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Seq is the one-worker, one-shard schedule, committed serially.
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(
        text.contains("scheduler profile: 1 worker(s) (1 requested), 1 shard(s)"),
        "{text}"
    );
    assert!(text.contains("serial flush on"), "{text}");
    assert!(text.contains("  W0 "), "{text}");
    assert!(!text.contains("  W1 "), "{text}");
}

#[test]
fn sort_metrics_snapshot_is_byte_invisible_in_run_files() {
    // House rule of the live-telemetry layer: metrics and logging observe
    // the host only. Streamed run files of a telemetry-on and a
    // telemetry-off run of the same seeded sort are byte-identical.
    // (Separate processes, so the on-run's metric totals cannot leak
    // into the off-run.)
    let dir = std::env::temp_dir();
    let plain = dir.join("ftsort_cli_metrics_plain_run.json");
    let metered = dir.join("ftsort_cli_metrics_metered_run.json");
    let prom = dir.join("ftsort_cli_metrics_metered.prom");
    let log = dir.join("ftsort_cli_metrics_metered.jsonl");
    let base = |run_out: &std::path::Path| {
        vec![
            "sort".into(),
            "--n".into(),
            "4".into(),
            "--faults".into(),
            "2,9".into(),
            "--m".into(),
            "2000".into(),
            "--engine".into(),
            "par".into(),
            "--threads".into(),
            "3".into(),
            "--seed".into(),
            "7".into(),
            "--run-out".into(),
            run_out.to_str().unwrap().to_string(),
        ]
    };
    let run = |args: Vec<String>| {
        let out = cli().args(&args).output().expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8(out.stdout).unwrap()
    };
    run(base(&plain));
    let mut args = base(&metered);
    args.extend([
        "--metrics-snapshot".into(),
        prom.to_str().unwrap().to_string(),
        "--log-level".into(),
        "debug".into(),
        "--log-out".into(),
        log.to_str().unwrap().to_string(),
    ]);
    let metered_text = run(args);
    assert!(metered_text.contains("metrics snapshot"), "{metered_text}");

    let plain_bytes = std::fs::read(&plain).expect("plain run written");
    let metered_bytes = std::fs::read(&metered).expect("metered run written");
    assert!(!plain_bytes.is_empty());
    assert!(
        plain_bytes == metered_bytes,
        "telemetry changed the streamed run file ({} vs {} bytes)",
        plain_bytes.len(),
        metered_bytes.len()
    );

    // The snapshot is a valid Prometheus exposition carrying the core
    // counters, and `trace-check --prom` accepts it.
    let text = std::fs::read_to_string(&prom).expect("snapshot written");
    assert!(text.contains("ftsort_rounds_total"), "{text}");
    assert!(text.contains("ftsort_messages_delivered_total"), "{text}");
    assert!(text.contains("ftsort_pool_takes_total"), "{text}");
    assert!(
        text.contains("# TYPE ftsort_msg_elements histogram"),
        "{text}"
    );
    let check = cli()
        .args(["trace-check", "--prom", prom.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(
        check.status.success(),
        "{}",
        String::from_utf8_lossy(&check.stderr)
    );
    let check_text = String::from_utf8(check.stdout).unwrap();
    assert!(check_text.contains("families"), "{check_text}");

    // Every log line is a JSON object with the structured fields.
    let log_text = std::fs::read_to_string(&log).expect("log written");
    assert!(!log_text.is_empty());
    for line in log_text.lines() {
        let doc = hypercube::obs::json::Json::parse(line).expect("log line is JSON");
        assert!(doc.get("ts").is_some(), "{line}");
        assert!(doc.get("level").is_some(), "{line}");
        assert!(doc.get("msg").is_some(), "{line}");
    }
    assert!(log_text.contains("sort complete"), "{log_text}");

    let _ = std::fs::remove_file(&plain);
    let _ = std::fs::remove_file(&metered);
    let _ = std::fs::remove_file(&prom);
    let _ = std::fs::remove_file(&log);
}

#[test]
fn trace_check_rejects_corrupt_prom_snapshot() {
    let dir = std::env::temp_dir();
    let prom = dir.join("ftsort_cli_corrupt.prom");
    // A counter that lost its TYPE declaration and a histogram whose
    // bucket counts decrease: both must be rejected.
    std::fs::write(&prom, "ftsort_rounds_total 5\n").unwrap();
    let out = cli()
        .args(["trace-check", "--prom", prom.to_str().unwrap()])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "undeclared family must fail");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("ftsort_rounds_total"), "{err}");

    std::fs::write(
        &prom,
        "# TYPE bad_hist histogram\n\
         bad_hist_bucket{le=\"1\"} 5\n\
         bad_hist_bucket{le=\"2\"} 3\n\
         bad_hist_bucket{le=\"+Inf\"} 5\n\
         bad_hist_sum 9\n\
         bad_hist_count 5\n",
    )
    .unwrap();
    let out = cli()
        .args(["trace-check", "--prom", prom.to_str().unwrap()])
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_file(&prom);
    assert!(!out.status.success(), "non-monotone buckets must fail");
}

#[test]
fn trace_check_rejects_out_of_range_and_non_finite_reports() {
    let dir = std::env::temp_dir();
    let good = dir.join(format!("ftsort_cli_tight_{}.json", std::process::id()));
    let out = cli()
        .args(["sort", "--n", "4", "--faults", "2,9", "--m", "2000"])
        .arg("--metrics-out")
        .arg(&good)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = std::fs::read_to_string(&good).unwrap();
    let check = |edited: String| {
        assert_ne!(edited, text, "the edit must apply");
        let bad = dir.join(format!("ftsort_cli_tight_bad_{}.json", std::process::id()));
        std::fs::write(&bad, edited).unwrap();
        let out = cli()
            .arg("trace-check")
            .arg("--metrics")
            .arg(&bad)
            .output()
            .expect("binary runs");
        let _ = std::fs::remove_file(&bad);
        assert!(
            !out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stdout)
        );
        String::from_utf8(out.stderr).unwrap()
    };
    // A makespan past f64 is a parse error that names the number, not a
    // failed phase sum.
    let start = text.find("\"makespan_us\":").unwrap() + "\"makespan_us\":".len();
    let end = start + text[start..].find(',').unwrap();
    let err = check(format!("{}1e999{}", &text[..start], &text[end..]));
    assert!(err.contains("1e999"), "{err}");
    // A node address past u32 no longer wraps to node 0.
    let err = check(text.replacen("{\"node\":0,", "{\"node\":4294967296,", 1));
    assert!(err.contains("4294967295"), "{err}");
    // A mistyped optional member is an error, not an absent one.
    let err = check(text.replacen("\"makespan_us\"", "\"threads\":\"x\",\"makespan_us\"", 1));
    assert!(err.contains("threads"), "{err}");
    let _ = std::fs::remove_file(&good);
}

/// The value of the unlabelled sample `name` in a Prometheus snapshot.
fn prom_sample(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no sample {name} in\n{text}"))
        .parse()
        .unwrap_or_else(|e| panic!("sample {name}: {e}"))
}

#[test]
fn sort_metrics_report_carries_pool_stats() {
    // `--metrics-snapshot` switches the CLI onto a stats-carrying
    // BufferPool; the RunReport then records the pool counters. The
    // snapshot's counters are the run's own totals, folded in when the
    // run, its sink and its gzip stream end — so each one matches an
    // output of the same run, on both engines.
    let dir = std::env::temp_dir();
    let mut rounds = Vec::new();
    for (name, engine) in [
        ("seq", &["--engine", "seq"][..]),
        ("par", &["--engine", "par", "--threads", "2"]),
    ] {
        let path = |suffix: &str| dir.join(format!("ftsort_cli_poolstats_{name}{suffix}"));
        let (prom, report, run) = (path(".prom"), path("_report.json"), path(".jsonl.gz"));
        let out = cli()
            .args(["sort", "--n", "6", "--faults", "9,22,51", "--m", "20000"])
            .args(engine)
            .args(["--link-model", "contended", "--run-out"])
            .arg(&run)
            .arg("--metrics-snapshot")
            .arg(&prom)
            .arg("--metrics-out")
            .arg(&report)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8(out.stdout).unwrap();
        let json = std::fs::read_to_string(&report).expect("report written");
        let parsed = hypercube::obs::RunReport::from_json(&json).expect("report parses");
        let takes = parsed.pool_takes.expect("pool_takes recorded");
        let puts = parsed.pool_puts.expect("pool_puts recorded");
        let high_water = parsed.pool_slab_high_water.expect("high water recorded");
        assert!(takes > 0 && puts > 0 && high_water > 0, "{name}");

        let text = std::fs::read_to_string(&prom).expect("snapshot written");
        let sample = |family: &str| prom_sample(&text, family);
        let messages: u64 = stdout
            .lines()
            .find_map(|line| line.strip_prefix("messages")?.split(':').nth(1))
            .expect("messages line")
            .trim()
            .parse()
            .unwrap();
        assert_eq!(
            sample("ftsort_messages_delivered_total"),
            messages,
            "{name}"
        );
        assert_eq!(sample("ftsort_msg_elements_count"), messages, "{name}");
        let elements = parsed.stats.elements_sent;
        assert_eq!(sample("ftsort_elements_priced_total"), elements, "{name}");
        assert_eq!(sample("ftsort_msg_elements_sum"), elements, "{name}");
        let wait: f64 = parsed.nodes.iter().map(|n| n.link_wait_us).sum();
        assert!(wait > 0.0, "{name}: a contended sort waits");
        assert_eq!(sample("ftsort_link_wait_us_total"), wait as u64, "{name}");
        assert_eq!(sample("ftsort_pool_takes_total"), takes, "{name}");
        assert_eq!(sample("ftsort_pool_puts_total"), puts, "{name}");
        assert_eq!(sample("ftsort_pool_slab_high_water"), high_water, "{name}");

        let packed = std::fs::read(&run).expect("run file written");
        let mut inflated = Vec::new();
        hypercube::obs::gz::GzDecoder::new(&packed[..])
            .read_to_end(&mut inflated)
            .expect("run file inflates");
        let doc = hypercube::obs::json::Json::parse(std::str::from_utf8(&inflated).unwrap())
            .expect("run file parses");
        let records = doc.get("events").and_then(|v| v.as_arr()).expect("events");
        assert_eq!(
            sample("ftsort_sink_events_total"),
            records.len() as u64,
            "{name}"
        );
        assert_eq!(
            sample("ftsort_gz_bytes_in_total"),
            inflated.len() as u64,
            "{name}"
        );
        assert_eq!(
            sample("ftsort_gz_bytes_out_total"),
            packed.len() as u64,
            "{name}"
        );

        let (r, epochs) = (
            sample("ftsort_rounds_total"),
            sample("ftsort_ws_barrier_epochs_total"),
        );
        assert!(r > 0, "{name}");
        // Both cross three barriers a round (poll, serial flush, deliver):
        // seq is one worker, and this run's sink and contended links turn
        // par's serial flush on.
        assert_eq!(epochs, 3 * r, "{name}");
        if name == "seq" {
            assert_eq!(
                sample("ftsort_ws_steals_total"),
                0,
                "one worker steals nothing"
            );
        }
        rounds.push(r);
        for file in [&prom, &report, &run] {
            let _ = std::fs::remove_file(file);
        }
    }
    assert_eq!(rounds[0], rounds[1], "seq and par commit the same rounds");

    // Without telemetry, the report omits the pool fields entirely.
    let report = dir.join("ftsort_cli_poolstats_plain_report.json");
    let out = cli()
        .args([
            "sort",
            "--n",
            "4",
            "--faults",
            "2",
            "--m",
            "2000",
            "--metrics-out",
            report.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let json = std::fs::read_to_string(&report).expect("report written");
    assert!(!json.contains("pool_takes"), "{json}");
    let _ = std::fs::remove_file(&report);
}

#[test]
fn sort_report_claims_a_schedule_only_for_the_par_engine() {
    // The seq executor runs one thread and no shards: given `--threads`,
    // its report records the request but no effective schedule. The par
    // executor records both.
    let dir = std::env::temp_dir();
    for engine in ["seq", "par"] {
        let report = dir.join(format!("ftsort_cli_schedule_{engine}.json"));
        let out = cli()
            .args(["sort", "--n", "4", "--faults", "2", "--m", "1000"])
            .args(["--engine", engine, "--threads", "2", "--metrics-out"])
            .arg(&report)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let json = std::fs::read_to_string(&report).expect("report written");
        let _ = std::fs::remove_file(&report);
        let parsed = hypercube::obs::RunReport::from_json(&json).expect("report parses");
        assert_eq!(parsed.threads, Some(2), "{engine}");
        if engine == "par" {
            assert_eq!(parsed.workers_effective, Some(2), "{json}");
            assert_eq!(parsed.shard_size, Some(2), "{json}");
        } else {
            assert!(!json.contains("workers_effective"), "{json}");
            assert!(!json.contains("shard_size"), "{json}");
        }
    }
}

#[test]
fn sort_key_type_flag_runs_every_type_and_records_it() {
    // one CLI test per key type: the sort succeeds and the RunReport
    // records which type ran
    let dir = std::env::temp_dir();
    for key_type in ["u32", "u64", "i64", "pair"] {
        let report = dir.join(format!("ftsort_cli_keytype_{key_type}.json"));
        let out = cli()
            .args([
                "sort",
                "--n",
                "4",
                "--faults",
                "2",
                "--m",
                "3000",
                "--key-type",
                key_type,
                "--metrics-out",
                report.to_str().unwrap(),
            ])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "--key-type {key_type}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(
            text.contains("sorted 3000 keys on 15 live processors"),
            "--key-type {key_type}: {text}"
        );
        let json = std::fs::read_to_string(&report).expect("report written");
        let parsed = hypercube::obs::RunReport::from_json(&json).expect("report parses");
        assert_eq!(parsed.key_type.as_deref(), Some(key_type));
        let _ = std::fs::remove_file(&report);
    }
}

#[test]
fn sort_key_type_defaults_to_i64_and_rejects_junk() {
    let dir = std::env::temp_dir();
    let report = dir.join("ftsort_cli_keytype_default.json");
    let out = cli()
        .args([
            "sort",
            "--n",
            "4",
            "--faults",
            "2",
            "--m",
            "1000",
            "--metrics-out",
            report.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let json = std::fs::read_to_string(&report).expect("report written");
    assert!(json.contains("\"key_type\":\"i64\""), "{json}");
    let _ = std::fs::remove_file(&report);

    let out = cli()
        .args([
            "sort",
            "--n",
            "4",
            "--faults",
            "2",
            "--m",
            "1000",
            "--key-type",
            "f32",
        ])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown key type"), "{err}");
}

#[test]
fn sort_key_type_is_result_invariant_across_engines() {
    // the engine differential holds for every key type, not just the default
    for key_type in ["u32", "pair"] {
        let run = |engine: &str| {
            let out = cli()
                .args([
                    "sort",
                    "--n",
                    "4",
                    "--faults",
                    "2,9",
                    "--m",
                    "4000",
                    "--key-type",
                    key_type,
                    "--engine",
                    engine,
                ])
                .output()
                .expect("binary runs");
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            String::from_utf8(out.stdout).unwrap()
        };
        assert_eq!(run("seq"), run("par"), "--key-type {key_type}");
    }
}

#[test]
fn a_closed_stdout_ends_the_cli_quietly() {
    // A reader that went away (`ftsort-cli … | head -1`) must not turn the
    // next `println!` into a panic with exit 101: SIGPIPE ends the binary.
    let campaign = env!("CARGO_BIN_EXE_ftsort-campaign");
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_ftsort-cli"),
            &["partition", "--n", "5", "--faults", "3,5,16,24"][..],
        ),
        (
            campaign,
            &["--sizes", "4", "--runs", "4", "--m", "64", "--jobs", "1"][..],
        ),
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(bin)
            .args(args)
            .stdout(writer)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{bin}: {stderr}");
        assert_ne!(out.status.code(), Some(101), "{bin}: {stderr}");
        #[cfg(unix)]
        {
            use std::os::unix::process::ExitStatusExt;
            assert_eq!(
                out.status.signal(),
                Some(13),
                "{bin}: ended by SIGPIPE: {stderr}"
            );
        }
    }
}

#[cfg(unix)]
#[test]
fn writers_fail_with_an_error_not_a_panic() {
    // Every output flag of `sort` and `replay`, and the campaign's run
    // captures, against a full device: exit 1 naming the path, never a
    // panic (exit 101) or a silent success. A gzip run file is ended last
    // by its trailer, so a `.gz` symlink to the device checks that the
    // trailer's error is kept too.
    let full = std::path::Path::new("/dev/full");
    if !full.exists() {
        return;
    }
    let dir = std::env::temp_dir().join(format!("ftsort_cli_full_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let gz = dir.join("x.jsonl.gz");
    let _ = std::fs::remove_file(&gz);
    std::os::unix::fs::symlink(full, &gz).expect("symlink");
    let run = dir.join("run.jsonl");
    let sort = ["sort", "--n", "4", "--faults", "2", "--m", "500"];
    let made = cli()
        .args(sort)
        .arg("--run-out")
        .arg(&run)
        .output()
        .expect("binary runs");
    assert!(made.status.success(), "{made:?}");
    let (gz, run) = (gz.to_str().unwrap(), run.to_str().unwrap());
    let replay = ["replay", "--trace", run];
    let mut cases: Vec<Vec<&str>> = [
        "--trace-out",
        "--metrics-out",
        "--run-out",
        "--sched-out",
        "--metrics-snapshot",
        "--log-out",
    ]
    .iter()
    .map(|&flag| [&sort[..], &[flag, "/dev/full"]].concat())
    .collect();
    cases.push([&sort[..], &["--run-out", gz]].concat());
    for flag in ["--run-out", "--metrics-out", "--trace-out"] {
        cases.push([&replay[..], &[flag, "/dev/full"]].concat());
    }
    cases.push([&replay[..], &["--run-out", gz]].concat());
    let fails = |cmd: &mut Command, what: &str| {
        let out = cmd.output().expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{what}: {stderr}");
        assert_eq!(out.status.code(), Some(1), "{what}: {stderr}");
        assert!(stderr.contains("error: writing"), "{what}: {stderr}");
    };
    for args in &cases {
        fails(cli().args(args), &format!("{args:?}"));
    }
    // the campaign's captured run files, once they point at the device
    let capture = dir.join("capture");
    let campaign = || {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_ftsort-campaign"));
        cmd.args(["--sizes", "4", "--runs", "4", "--m", "64", "--jobs", "1"])
            .arg("--capture-dir")
            .arg(&capture);
        cmd
    };
    assert!(campaign().output().expect("binary runs").status.success());
    for entry in std::fs::read_dir(&capture).expect("captures") {
        let path = entry.expect("entry").path();
        if path.to_string_lossy().ends_with(".jsonl.gz") {
            std::fs::remove_file(&path).expect("remove");
            std::os::unix::fs::symlink(full, &path).expect("symlink");
        }
    }
    fails(&mut campaign(), "ftsort-campaign --capture-dir");
    let _ = std::fs::remove_dir_all(&dir);
}
