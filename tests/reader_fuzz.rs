//! Seeded mutation fuzzers for the readers of the files `sort` writes:
//! `RunReport::from_json` on `--metrics-out`, `SchedReport::from_json` on
//! `--sched-out`, `validate_prom` on `--metrics-snapshot` and
//! `validate_chrome_trace` on `--trace-out`. Every mutation must read to
//! `Ok` or `Err` without a panic; a report that reads must read back equal
//! from its own JSON, and render.
//!
//! (Seeded loops rather than a property-test framework: the build is
//! offline. Failures print the case index and the mutated text.)

mod common;

use common::{mutations, Budget};
use hypercube::obs::campaign::CampaignReport;
use hypercube::obs::json::Json;
use hypercube::obs::metrics::validate_prom;
use hypercube::obs::perfetto::validate_chrome_trace;
use hypercube::obs::sched::SchedReport;
use hypercube::obs::RunReport;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::panic::AssertUnwindSafe;
use std::process::Command;
use std::sync::OnceLock;

/// The four files of one small traced, profiled, metered par sort, in the
/// order metrics report, sched report, Prometheus snapshot, Chrome trace.
fn outputs() -> &'static [String; 4] {
    static OUTPUTS: OnceLock<[String; 4]> = OnceLock::new();
    OUTPUTS.get_or_init(|| {
        let dir = std::env::temp_dir();
        let paths = ["metrics.json", "sched.json", "snapshot.prom", "trace.json"]
            .map(|name| dir.join(format!("ftsort_fuzz_{}_{name}", std::process::id())));
        let out = Command::new(env!("CARGO_BIN_EXE_ftsort-cli"))
            .args(["sort", "--n", "3", "--faults", "1", "--m", "200"])
            .args(["--engine", "par", "--threads", "2", "--key-type", "pair"])
            .arg("--metrics-out")
            .arg(&paths[0])
            .arg("--sched-out")
            .arg(&paths[1])
            .arg("--metrics-snapshot")
            .arg(&paths[2])
            .arg("--trace-out")
            .arg(&paths[3])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let _ = std::fs::remove_file(paths[1].with_extension("json.perfetto.json"));
        paths.map(|path| {
            let text = std::fs::read_to_string(&path).expect("written");
            let _ = std::fs::remove_file(&path);
            text
        })
    })
}

/// Runs `read` on every UTF-8 mutation of `base`, naming the case that
/// panics; returns how many it rejected.
fn fuzz(base: &str, seed: u64, read: impl Fn(&str) -> bool) -> usize {
    let budget = Budget {
        cuts: 200,
        flips: 500,
        numbers: 300,
    };
    let cases = mutations(base.as_bytes(), &mut StdRng::seed_from_u64(seed), budget);
    let mut rejected = 0;
    for (case, m) in cases.iter().enumerate() {
        let Ok(text) = std::str::from_utf8(m) else {
            continue;
        };
        match std::panic::catch_unwind(AssertUnwindSafe(|| read(text))) {
            Ok(true) => {}
            Ok(false) => rejected += 1,
            Err(_) => panic!("case {case} panicked on:\n{text}"),
        }
    }
    rejected
}

#[test]
fn mutated_run_reports_fail_cleanly() {
    let base = &outputs()[0];
    RunReport::from_json(base).expect("the fresh report reads");
    let rejected = fuzz(base, 0x4e9_0417, |text| match RunReport::from_json(text) {
        Ok(report) => {
            let back = RunReport::from_json(&report.to_json());
            assert_eq!(back.as_ref(), Ok(&report), "round trip of:\n{text}");
            true
        }
        Err(_) => false,
    });
    assert!(rejected > 0);
}

#[test]
fn mutated_sched_reports_fail_cleanly() {
    let base = &outputs()[1];
    SchedReport::from_json(base).expect("the fresh report reads");
    let rejected = fuzz(base, 0x5c4e_d000, |text| {
        match SchedReport::from_json(text) {
            Ok(report) => {
                let back = SchedReport::from_json(&report.to_json());
                assert_eq!(back.as_ref(), Ok(&report), "round trip of:\n{text}");
                let _ = report.summary();
                true
            }
            Err(_) => false,
        }
    });
    assert!(rejected > 0);
}

#[test]
fn mutated_prom_snapshots_fail_cleanly() {
    let base = &outputs()[2];
    validate_prom(base.as_bytes()).expect("the fresh snapshot validates");
    let rejected = fuzz(base, 0x9e0_5a95, |text| {
        validate_prom(text.as_bytes()).is_ok()
    });
    assert!(rejected > 0);
}

#[test]
fn mutated_chrome_traces_fail_cleanly() {
    let base = &outputs()[3];
    let check = |text: &str| {
        let valid = validate_chrome_trace(text.as_bytes()).is_ok();
        assert!(
            !valid || Json::parse(text).is_ok(),
            "validated a document that does not parse:\n{text}"
        );
        valid
    };
    assert!(check(base), "the fresh trace validates");
    // what parsing the whole document into a tree, then validating it,
    // rejects on this seeded corpus
    assert_eq!(fuzz(base, 0xc4_7ace, check), 762);
}

#[test]
fn counts_past_2_pow_53_read_exactly_and_render() {
    // Two workers over a u64::MAX makespan: workers × makespan overflows a
    // u64 in `utilization`.
    let base = &outputs()[1];
    let start = base.find("\"makespan_ns\":").unwrap() + "\"makespan_ns\":".len();
    let end = start + base[start..].find(',').unwrap();
    let text = format!("{}{}{}", &base[..start], u64::MAX, &base[end..]);
    let report = SchedReport::from_json(&text).expect("reads");
    assert_eq!(report.makespan_ns, u64::MAX);
    assert_eq!(report.per_worker.len(), 2);
    assert!(report.utilization() < 1e-6);
    let _ = (report.to_json(), report.summary());

    // Two histogram buckets of 2^63 samples: their total overflows a u64
    // in the quantile estimates `tables` prints.
    let baseline = include_str!("../results/BENCH_campaign_ci.json");
    let big = 1u64 << 63;
    let hist = &baseline[baseline.find("\"hist\":[").unwrap()..];
    let hist = &hist[..=hist.find(']').unwrap()];
    let text = baseline.replacen(hist, &format!("\"hist\":[0,{big},{big}]"), 1);
    let report = CampaignReport::from_json(&text).expect("reads");
    assert_eq!(report.cells[0].metrics[0].hist.total(), 2 * u128::from(big));
    assert!(report.tables().contains("makespan distribution"));
}
