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
    // Hand-built sched-style rows: B reports ring drops. The diff must
    // print a loud WARNING but still exit 0 — truncated telemetry is not
    // a performance regression.
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
