//! Smoke tests for the report binaries: each must run, exit zero, and print
//! its key structural markers (tiny trial counts keep this fast).

use std::process::Command;

fn run_path(path: &str, args: &[&str]) -> String {
    let out = Command::new(path)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{path} failed to launch: {e}"));
    assert!(
        out.status.success(),
        "{path} exited nonzero: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

macro_rules! bin_runner {
    ($name:ident, $env:literal) => {
        fn $name(args: &[&str]) -> String {
            run_path(env!($env), args)
        }
    };
}

bin_runner!(table1, "CARGO_BIN_EXE_table1");
bin_runner!(table2, "CARGO_BIN_EXE_table2");
bin_runner!(figure7, "CARGO_BIN_EXE_figure7");
bin_runner!(breakdown, "CARGO_BIN_EXE_breakdown");
bin_runner!(obliviousness, "CARGO_BIN_EXE_obliviousness");
bin_runner!(scaling, "CARGO_BIN_EXE_scaling");
bin_runner!(engines_json, "CARGO_BIN_EXE_engines_json");
bin_runner!(bench_diff, "CARGO_BIN_EXE_bench_diff");

#[test]
fn table1_smoke() {
    let text = table1(&["--trials", "20", "--seed", "1"]);
    assert!(text.contains("Table 1"), "{text}");
    // structural certainties hold even at 20 trials
    assert!(text.contains(" 3  2 |        -  100.00%"), "{text}");
}

#[test]
fn a_closed_stdout_ends_the_report_bins_quietly() {
    // Stdout is a pipe whose reader went away (`table1 | head -1`): the
    // first `println!` must end the binary by SIGPIPE, not panic with 101.
    for (bin, args) in [
        (
            env!("CARGO_BIN_EXE_table1"),
            &["--trials", "20", "--seed", "1"][..],
        ),
        (
            env!("CARGO_BIN_EXE_figure7"),
            &["--n", "3", "--trials", "1", "--seed", "1"][..],
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

#[test]
fn table2_smoke() {
    let text = table2(&["--trials", "20", "--seed", "1"]);
    assert!(text.contains("Table 2"), "{text}");
    assert!(text.contains("MFFS"), "{text}");
}

#[test]
fn table2_ablation_smoke() {
    let text = table2(&["--trials", "10", "--seed", "1", "--ablation-selection"]);
    assert!(text.contains("Ablation: heuristic selection"), "{text}");
}

#[test]
fn figure7_smoke() {
    let text = figure7(&["--n", "3", "--trials", "1", "--seed", "1"]);
    assert!(text.contains("Figure 7(c)"), "{text}");
    assert!(text.contains("320000"), "{text}");
}

#[test]
fn figure7_csv_smoke() {
    let text = figure7(&["--n", "3", "--trials", "1", "--seed", "1", "--csv"]);
    let mut lines = text.lines();
    assert_eq!(lines.next(), Some("M,ours_r0,ours_r1,ours_r2,q2,q1"));
    assert!(lines.next().unwrap().starts_with("3200,"));
}

#[test]
fn breakdown_smoke() {
    let text = breakdown(&["--n", "4", "--m", "2000", "--seed", "1"]);
    assert!(text.contains("Phase breakdown"), "{text}");
    assert!(text.contains("step7"), "{text}");
}

#[test]
fn obliviousness_smoke() {
    let text = obliviousness(&["--n", "3", "--m", "2000", "--seed", "1"]);
    assert!(text.contains("spread"), "{text}");
    assert!(text.contains("OrganPipe"), "{text}");
}

#[test]
fn scaling_smoke() {
    let text = scaling(&["--m", "2000", "--seed", "1"]);
    assert!(text.contains("Machine-size sweep"), "{text}");
    assert!(text.contains("past r = n"), "{text}");
}

#[test]
fn breakdown_engine_flag_smoke() {
    // both engines must produce identical simulated output text
    let seq = breakdown(&["--n", "3", "--m", "500", "--seed", "1", "--engine", "seq"]);
    let par = breakdown(&["--n", "3", "--m", "500", "--seed", "1", "--engine", "par"]);
    assert_eq!(seq, par);
}

#[test]
fn breakdown_drill_down_writes_what_the_cli_writes() {
    // The drill-down reruns the bin's last sort through the CLI's
    // observed-sort path: a keyed report that claims a schedule only for
    // par, a run file that replays to the same report, a valid trace.
    let dir = std::env::temp_dir().join(format!("ft_bench_drill_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (metrics, run, trace) = (path("m.json"), path("r.jsonl.gz"), path("t.json"));
    let base = [
        "--n",
        "4",
        "--m",
        "2000",
        "--seed",
        "1",
        "--threads",
        "2",
        "--key-type",
        "u32",
    ];
    let outputs = [
        "--metrics-out",
        &metrics,
        "--run-out",
        &run,
        "--trace-out",
        &trace,
    ];
    breakdown(&[&base[..], &["--engine", "seq"], &outputs].concat());
    let json = std::fs::read_to_string(&metrics).expect("report written");
    assert!(json.contains("\"threads\":2"), "{json}");
    assert!(json.contains("\"key_type\":\"u32\""), "{json}");
    assert!(!json.contains("workers_effective"), "{json}");
    assert!(!json.contains("shard_size"), "{json}");
    let replayed = hypercube::obs::replay::observation_from_file(&run).expect("run file replays");
    assert_eq!(
        replayed.report(&ftsort::ftsort::phase_name).to_json(),
        json.replacen("\"threads\":2,", "", 1)
    );
    let file = std::fs::File::open(&trace).expect("trace written");
    hypercube::obs::perfetto::validate_chrome_trace(file).expect("valid trace");

    breakdown(&[&base[..], &["--engine", "par", "--metrics-out", &metrics]].concat());
    let json = std::fs::read_to_string(&metrics).expect("report written");
    let report = hypercube::obs::RunReport::from_json(&json).expect("report parses");
    let (workers, shard_size, _) =
        hypercube::sim::par::schedule_for(report.nodes.len(), Some(2), None);
    assert_eq!(report.workers_effective, Some(workers), "{json}");
    assert_eq!(report.shard_size, Some(shard_size), "{json}");

    // Seq is the one-worker schedule, so it profiles like par@1.
    let text = breakdown(&[&base[..], &["--engine", "seq", "--sched-profile"]].concat());
    assert!(
        text.contains("scheduler profile: 1 worker(s) (1 requested), 1 shard(s)"),
        "{text}"
    );
    assert!(text.contains("serial flush on"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn engines_json_smoke() {
    let out = std::env::temp_dir().join("ft_bench_engines_smoke.json");
    let out_str = out.to_str().unwrap();
    let text = engines_json(&[
        "--sizes", "3", "--m", "500", "--trials", "1", "--seed", "1", "--out", out_str,
    ]);
    assert!(text.contains("Engine wall-clock comparison"), "{text}");
    let json = std::fs::read_to_string(&out).expect("json written");
    let _ = std::fs::remove_file(&out);
    assert!(json.contains("\"bench\": \"engines\""), "{json}");
    assert!(json.contains("\"host_cores\""), "{json}");
    assert!(json.contains("\"n\": 3"), "{json}");
    assert!(json.contains("\"seq_wall_s\""), "{json}");
    assert!(json.contains("\"par_wall_s\""), "{json}");
    assert!(json.contains("\"par_over_seq\""), "{json}");
    assert!(json.contains("\"workers\": 1"), "{json}");
    // Every par row carries its profiled run's scheduler health.
    let doc = hypercube::obs::json::Json::parse(&json).expect("bench file is JSON");
    let rows = doc
        .get("results")
        .and_then(|r| r.as_arr())
        .expect("results");
    assert!(!rows.is_empty(), "{json}");
    for row in rows {
        let num = |k: &str| row.get(k).and_then(|v| v.as_f64());
        for share in ["utilization", "barrier_share"] {
            let v = num(share).unwrap_or_else(|| panic!("row lacks {share}: {json}"));
            assert!((0.0..=1.0).contains(&v), "{share} {v}: {json}");
        }
        assert!(num("steal_rate").is_some(), "{json}");
        assert!(num("makespan_ns").is_some_and(|ns| ns > 0.0), "{json}");
        assert_eq!(
            row.get("events_dropped").and_then(|v| v.as_u64()),
            Some(0),
            "{json}"
        );
    }
}

/// Runs `bin` with `args` and checks a usage error: exit 2, `named` on the
/// first stderr line (the usage follows it), nothing on stdout.
fn rejects(bin: &str, args: &[&str], named: &str) {
    let run = Command::new(bin).args(args).output().expect("bin runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert_eq!(run.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(first.contains(named), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("usage: "), "{bin} {args:?}: {stderr}");
    assert!(run.stdout.is_empty(), "{bin} {args:?} ran");
}

#[test]
fn engines_json_rejects_bad_arguments() {
    // Each bad value is a usage error naming its flag, before any sort
    // runs; the leading flags keep a missed rejection quick.
    let out =
        std::env::temp_dir().join(format!("ft_bench_engines_bad_{}.json", std::process::id()));
    let base = [
        "--sizes",
        "3",
        "--m",
        "500",
        "--trials",
        "1",
        "--out",
        out.to_str().unwrap(),
    ];
    for (bad, flag) in [
        (&["--trials", "0"][..], "--trials"),
        (&["--trials"], "--trials"),
        (&["--sizes", "0"], "--sizes"),
        (&["--sizes", "3,x"], "--sizes"),
        (&["--m", "abc"], "--m"),
        (&["--seed", "abc"], "--seed"),
        (&["--out"], "--out"),
        (&["--bogus"], "--bogus"),
    ] {
        rejects(
            env!("CARGO_BIN_EXE_engines_json"),
            &[&base[..], bad].concat(),
            flag,
        );
    }
    assert!(!out.exists(), "no bench file on a usage error");
}

#[test]
fn report_bins_reject_bad_numbers() {
    // Every numeric flag of the report bins and bench_diff's bands reads
    // through `ft_bench::args`: a value the bin cannot run is a usage
    // error naming its flag (the next-to-last word), before any sort runs.
    // Leading small values keep a missed rejection quick, and bench_diff
    // diffs a checked-in baseline (`BASE`) with itself, so a missed
    // rejection exits 0.
    let base = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/BENCH_engines_ci.json"
    );
    let out = std::env::temp_dir().join(format!("ft_bench_reject_{}.json", std::process::id()));
    let out = out.to_str().unwrap();
    let words = |case: &str| -> Vec<String> {
        case.split(' ')
            .map(|w| match w {
                "BASE" => base,
                "OUT" => out,
                w => w,
            })
            .map(String::from)
            .collect()
    };
    for (bin, case) in [
        (env!("CARGO_BIN_EXE_breakdown"), "--n 3 --m abc"),
        (env!("CARGO_BIN_EXE_breakdown"), "--m 10 --n 40"),
        (env!("CARGO_BIN_EXE_breakdown"), "--n 1 --seed -1"),
        (env!("CARGO_BIN_EXE_table1"), "--trials 0"),
        (env!("CARGO_BIN_EXE_table1"), "--trials 1 --threads 0"),
        (env!("CARGO_BIN_EXE_table2"), "--trials 1 --trials x"),
        (env!("CARGO_BIN_EXE_table2"), "--trials 1 --seed x"),
        (env!("CARGO_BIN_EXE_figure7"), "--n 3 --trials 0"),
        (env!("CARGO_BIN_EXE_figure7"), "--trials 1 --n 0"),
        (env!("CARGO_BIN_EXE_figure7"), "--n 1 --tsr nan"),
        (env!("CARGO_BIN_EXE_figure7"), "--n 1 --tc -1"),
        (env!("CARGO_BIN_EXE_figure7"), "--n 1 --startup x"),
        (env!("CARGO_BIN_EXE_obliviousness"), "--m 100 --n 0"),
        (env!("CARGO_BIN_EXE_obliviousness"), "--n 1 --m -1"),
        (env!("CARGO_BIN_EXE_scaling"), "--m 100 --m -5"),
        (env!("CARGO_BIN_EXE_scaling"), "--m 100 --seed x"),
        (
            env!("CARGO_BIN_EXE_bench_diff"),
            "--a BASE --b BASE --tolerance nan",
        ),
        (
            env!("CARGO_BIN_EXE_bench_diff"),
            "--a BASE --b BASE --wall-tolerance x",
        ),
        (
            env!("CARGO_BIN_EXE_bench_diff"),
            "--a BASE --b BASE --min-ratio-wall inf",
        ),
    ] {
        let args = words(case);
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        rejects(bin, &args, args[args.len() - 2]);
    }
    // Each bin reads its command line against one declaration, so an
    // unknown flag, a flag missing its value and a stray word are usage
    // errors too, named on the first stderr line.
    for (bin, prefix, flag) in [
        (env!("CARGO_BIN_EXE_breakdown"), "--n 1 --m 10", "--seed"),
        (env!("CARGO_BIN_EXE_table1"), "--trials 1", "--seed"),
        (env!("CARGO_BIN_EXE_table2"), "--trials 1", "--seed"),
        (env!("CARGO_BIN_EXE_figure7"), "--n 1 --trials 1", "--seed"),
        (
            env!("CARGO_BIN_EXE_obliviousness"),
            "--n 1 --m 10",
            "--seed",
        ),
        (env!("CARGO_BIN_EXE_scaling"), "--m 10", "--seed"),
        (
            env!("CARGO_BIN_EXE_engines_json"),
            "--sizes 1 --m 10 --trials 1 --out OUT",
            "--seed",
        ),
        (
            env!("CARGO_BIN_EXE_bench_diff"),
            "--a BASE --b BASE",
            "--tolerance",
        ),
    ] {
        for (bad, named) in [("--bogus 1", "--bogus"), (flag, flag), ("stray", "'stray'")] {
            let args = words(&format!("{prefix} {bad}"));
            let args: Vec<&str> = args.iter().map(String::as_str).collect();
            rejects(bin, &args, named);
        }
    }
    assert!(
        !std::path::Path::new(out).exists(),
        "no bench file on a usage error"
    );
}

#[test]
fn bench_diff_smoke() {
    let out = std::env::temp_dir().join("ft_bench_diff_smoke.json");
    let out_str = out.to_str().unwrap();
    engines_json(&[
        "--sizes", "3", "--m", "500", "--trials", "1", "--seed", "1", "--out", out_str,
    ]);
    // a file diffed against itself has no regressions: exit 0
    let text = bench_diff(&["--a", out_str, "--b", out_str]);
    assert!(text.contains("OK: no metric regressed"), "{text}");
    assert!(text.contains("virtual_us"), "{text}");
    assert!(text.contains("workers=1"), "{text}");
    assert!(text.contains("par_over_seq"), "{text}");
    assert!(text.contains("utilization"), "{text}");
    assert!(text.contains("barrier_share"), "{text}");
    // a negative tolerance flags even the +0.0% self-diff: exit 1
    let fail = Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .args(["--a", out_str, "--b", out_str, "--tolerance", "-1"])
        .output()
        .expect("bench_diff runs");
    assert_eq!(fail.status.code(), Some(1), "regression must exit 1");
    let text = String::from_utf8(fail.stdout).unwrap();
    assert!(text.contains("REGRESSION"), "{text}");
    assert!(text.contains("FAIL"), "{text}");
    // the wall-ratio gate fires the same way once the min-wall floor is
    // lifted (n = 3 runs are far below the 0.05 s default)
    let fail = Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .args([
            "--a",
            out_str,
            "--b",
            out_str,
            "--wall-tolerance",
            "-5",
            "--min-ratio-wall",
            "0",
        ])
        .output()
        .expect("bench_diff runs");
    let _ = std::fs::remove_file(&out);
    assert_eq!(fail.status.code(), Some(1), "wall-ratio gate must exit 1");
    let text = String::from_utf8(fail.stdout).unwrap();
    assert!(text.contains("par_over_seq"), "{text}");
    assert!(text.contains("REGRESSION"), "{text}");
}

#[test]
fn bench_diff_warns_on_dropped_events_without_failing() {
    // Hand-built rows with only the scheduler fields: B reports ring
    // drops. The diff must print a loud WARNING but still exit 0 —
    // truncated telemetry is not a performance regression.
    let row = |dropped: u64| {
        format!(
            "{{\"results\": [{{\"n\": 10, \"r\": 1, \"m\": 4000, \"workers\": 4, \
             \"utilization\": 0.9, \"steal_rate\": 0.1, \"barrier_share\": 0.05, \
             \"events_dropped\": {dropped}}}], \"host_cores\": 8}}"
        )
    };
    let a = std::env::temp_dir().join("ft_bench_diff_drops_a.json");
    let b = std::env::temp_dir().join("ft_bench_diff_drops_b.json");
    std::fs::write(&a, row(0)).unwrap();
    std::fs::write(&b, row(37)).unwrap();
    let text = bench_diff(&["--a", a.to_str().unwrap(), "--b", b.to_str().unwrap()]);
    let _ = std::fs::remove_file(&a);
    let _ = std::fs::remove_file(&b);
    assert!(text.contains("WARNING"), "{text}");
    assert!(text.contains("dropped 37 event(s)"), "{text}");
    assert!(text.contains("OK: no metric regressed"), "{text}");
}

// bench_diff's verdicts, pinned on frozen byte copies of the checked-in
// baselines (`fixtures/`), so re-recording a baseline does not move them.
// Variants are made by string replacement, as CI's `sed`s do.
const ENGINES_CI: &str = include_str!("fixtures/BENCH_engines_ci.json");
const ENGINES: &str = include_str!("fixtures/BENCH_engines.json");
const CAMPAIGN_CI: &str = include_str!("fixtures/BENCH_campaign_ci.json");

/// What one bench_diff run decided.
struct Verdict {
    exit: i32,
    /// Lines flagging a metric, one per regressed metric.
    regressions: Vec<String>,
    warnings: usize,
    stdout: String,
}

impl Verdict {
    /// Exit code, regressed metrics, how many of those are scheduler gates
    /// (`utilization`, `barrier_share`), and warnings.
    fn counts(&self) -> (i32, usize, usize, usize) {
        let sched = self
            .regressions
            .iter()
            .filter(|l| l.contains("utilization") || l.contains("barrier_share"))
            .count();
        (self.exit, self.regressions.len(), sched, self.warnings)
    }
}

/// Runs bench_diff with `a` and `b` written to temporary files named after
/// `tag`, then `extra` arguments.
fn pin(tag: &str, a: &str, b: &str, extra: &[&str]) -> Verdict {
    let dir = std::env::temp_dir();
    let path = |side: &str| {
        dir.join(format!(
            "ft_bench_pin_{}_{tag}_{side}.json",
            std::process::id()
        ))
    };
    let (pa, pb) = (path("a"), path("b"));
    std::fs::write(&pa, a).unwrap();
    std::fs::write(&pb, b).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .arg("--a")
        .arg(&pa)
        .arg("--b")
        .arg(&pb)
        .args(extra)
        .output()
        .expect("bench_diff runs");
    let _ = std::fs::remove_file(&pa);
    let _ = std::fs::remove_file(&pb);
    let stdout = String::from_utf8(out.stdout).unwrap();
    Verdict {
        exit: out.status.code().expect("exit code"),
        regressions: stdout
            .lines()
            .filter(|l| l.contains("REGRESSION"))
            .map(str::to_string)
            .collect(),
        warnings: stdout.lines().filter(|l| l.contains("WARNING")).count(),
        stdout,
    }
}

/// `sed 's/KEY[0-9.]*/KEYVALUE/g'`: every number right after `key` becomes
/// `value`.
fn set_all(text: &str, key: &str, value: &str) -> String {
    let mut out = String::new();
    let mut rest = text;
    while let Some(at) = rest.find(key) {
        let end = at + key.len();
        out.push_str(&rest[..end]);
        out.push_str(value);
        rest = rest[end..].trim_start_matches(|c: char| c.is_ascii_digit() || c == '.');
    }
    out.push_str(rest);
    out
}

#[test]
fn bench_diff_verdicts_on_engine_baselines() {
    // Negative wall bands flag the wall ratios, the kernel speedups and,
    // on the uncontended par rows, the scheduler gates. Each pin is the
    // exit code, all regressed metrics (the wall and kernel ones + the
    // scheduler gates), the scheduler gates alone, and the warnings.
    for (tag, a, b, extra, want) in [
        ("eci_self", ENGINES_CI, ENGINES_CI, &[][..], (0, 0, 0, 0)),
        ("eng_self", ENGINES, ENGINES, &[], (0, 0, 0, 0)),
        (
            "eci_tol",
            ENGINES_CI,
            ENGINES_CI,
            &["--tolerance", "-1"],
            (1, 60, 0, 0),
        ),
        (
            "eci_wall_all",
            ENGINES_CI,
            ENGINES_CI,
            &["--wall-tolerance", "-5", "--min-ratio-wall", "0"],
            (1, 20 + 6, 6, 0),
        ),
        (
            "eng_wall",
            ENGINES,
            ENGINES,
            &["--wall-tolerance", "-5"],
            (1, 14 + 12, 12, 0),
        ),
    ] {
        let v = pin(tag, a, b, extra);
        assert_eq!(v.counts(), want, "{tag}:\n{}", v.stdout);
    }

    // The default --min-ratio-wall keeps the CI rows' sub-millisecond
    // par_over_seq out of the gate: only the kernel speedups and the
    // scheduler gates fire.
    let v = pin(
        "eci_wall",
        ENGINES_CI,
        ENGINES_CI,
        &["--wall-tolerance", "-5"],
    );
    assert_eq!(v.counts(), (1, 8 + 6, 6, 0), "{}", v.stdout);
    assert!(
        v.regressions.iter().all(|l| l.contains("_over_scalar")
            || l.contains("utilization")
            || l.contains("barrier_share")),
        "{}",
        v.stdout
    );

    let slow = set_all(ENGINES_CI, "\"branchless_over_scalar\": ", "0.10");
    let v = pin("eci_kernel", ENGINES_CI, &slow, &[]);
    assert_eq!(v.counts(), (1, 4, 0, 0), "{}", v.stdout);
    assert!(
        v.regressions
            .iter()
            .all(|l| l.contains("branchless_over_scalar")),
        "{}",
        v.stdout
    );

    // Only kernel rows match between the CI and full-size files.
    assert_eq!(pin("eci_vs_eng", ENGINES_CI, ENGINES, &[]).exit, 2);
}

#[test]
fn bench_diff_crossover_verdicts() {
    // B on a 2-core host: the n = 10 rows at 2 and 4 workers must show
    // par beating seq within the wall band; host-matched gates are off.
    let two_cores = set_all(ENGINES, "\"host_cores\": ", "2");
    let v = pin("cross_ok", ENGINES, &two_cores, &[]);
    assert_eq!(v.exit, 0, "{}", v.stdout);
    assert_eq!(v.stdout.matches("crossover ok").count(), 4, "{}", v.stdout);
    assert!(!v.stdout.contains("crossover FAIL"), "{}", v.stdout);

    let v = pin(
        "cross_fail",
        ENGINES,
        &two_cores,
        &["--wall-tolerance", "8"],
    );
    assert_eq!(v.exit, 1, "{}", v.stdout);
    let fails: Vec<_> = v
        .stdout
        .lines()
        .filter(|l| l.contains("crossover FAIL"))
        .collect();
    assert_eq!(fails.len(), 2, "{}", v.stdout);
    for (line, workers) in fails.iter().zip(["workers=2", "workers=4"]) {
        assert!(line.contains("n=10") && line.contains(workers), "{line}");
    }
    assert_eq!(v.stdout.matches("crossover ok").count(), 2, "{}", v.stdout);
}

#[test]
fn bench_diff_verdicts_on_sched_and_campaign_baselines() {
    // The scheduler fields ride on the engines baselines' par rows.
    let dropped = set_all(ENGINES_CI, "\"events_dropped\": ", "5");
    let p99 = set_all(CAMPAIGN_CI, "\"p99_makespan_us\":", "999999");
    let failed = set_all(CAMPAIGN_CI, "\"runs_failed\":", "2");
    for (tag, a, b, extra, want) in [
        (
            "eci_dropped",
            ENGINES_CI,
            dropped.as_str(),
            &[][..],
            (0, 0, 0, 6),
        ),
        ("camp_self", CAMPAIGN_CI, CAMPAIGN_CI, &[], (0, 0, 0, 0)),
        (
            "camp_tol",
            CAMPAIGN_CI,
            CAMPAIGN_CI,
            &["--tolerance", "-1"],
            (1, 6, 0, 0),
        ),
        ("camp_p99", CAMPAIGN_CI, &p99, &[], (1, 1, 0, 0)),
        ("camp_failed", CAMPAIGN_CI, &failed, &[], (0, 0, 0, 1)),
    ] {
        let v = pin(tag, a, b, extra);
        assert_eq!(v.counts(), want, "{tag}:\n{}", v.stdout);
        if tag == "camp_p99" {
            assert!(v.regressions[0].contains("p99_makespan_us"), "{}", v.stdout);
        }
        if tag == "eci_dropped" {
            assert!(v.stdout.contains("dropped 5 event(s)"), "{}", v.stdout);
        }
        if tag == "camp_failed" {
            assert!(
                v.stdout.contains("campaign dropped 2 run(s)"),
                "{}",
                v.stdout
            );
        }
    }
}

#[test]
fn bench_diff_parse_errors_exit_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .args(["--a", "x.json"])
        .output()
        .expect("bench_diff runs");
    assert_eq!(out.status.code(), Some(2), "missing --b");
    let out = Command::new(env!("CARGO_BIN_EXE_bench_diff"))
        .args(["--a", "/nonexistent/a.json", "--b", "/nonexistent/b.json"])
        .output()
        .expect("bench_diff runs");
    assert_eq!(out.status.code(), Some(2), "unreadable path");

    for (tag, bad) in [
        (
            "no_speedups",
            ENGINES_CI.replacen("\"speedups\": {\"branchless", "\"gains\": {\"branchless", 1),
        ),
        (
            "no_branchless_s",
            ENGINES_CI.replacen("\"branchless_s\"", "\"branchless_t\"", 1),
        ),
        ("no_r", ENGINES_CI.replacen("\"r\": ", "\"q\": ", 1)),
        (
            "phase_not_number",
            ENGINES_CI.replacen(
                "\"phases\": {\"step3\": 15365.000",
                "\"phases\": {\"step3\": \"slow\"",
                1,
            ),
        ),
        ("cell_no_n", CAMPAIGN_CI.replacen("{\"n\":", "{\"q\":", 1)),
        ("truncated", ENGINES_CI[..600].to_string()),
    ] {
        assert_ne!(bad, ENGINES_CI, "{tag}: the replacement must apply");
        assert_ne!(bad, CAMPAIGN_CI, "{tag}: the replacement must apply");
        let v = pin(tag, &bad, &bad, &[]);
        assert_eq!(v.exit, 2, "{tag}:\n{}", v.stdout);
    }
}

#[test]
fn bench_diff_rejects_a_newer_campaign_report() {
    // Campaign files go through `CampaignReport::from_json`, which refuses
    // schema versions newer than it knows.
    let newer = CAMPAIGN_CI.replacen("\"version\":1,", "\"version\":9,", 1);
    assert_ne!(newer, CAMPAIGN_CI);
    let v = pin("camp_v9", CAMPAIGN_CI, &newer, &[]);
    assert_eq!(v.exit, 2, "{}", v.stdout);
}
