//! The run-file reader on files it did not write itself.
//!
//! * **Tolerance.** Member order, unknown members and whitespace are the
//!   writer's choice, not the schema's: a reformatted v2 file replays to
//!   the byte-identical `--metrics-out` report.
//! * **Depth cap.** Deeply nested input is an error with a clean exit, not
//!   a stack overflow, in both `replay` and `trace-check`.
//! * **Hostile input.** Every seeded mutation of a valid run file —
//!   truncation, bit flips, deep nesting — read through
//!   `observation_from_file`, plain or gzipped, returns `Err` or an
//!   observation that round-trips, never a panic.
//! * **Implausible records.** Send and receive addresses outside the cube,
//!   hop counts no route can take, and counts whose sums overflow are
//!   errors, not truncations, wraps or unbounded allocations.
//!
//! (Seeded loops rather than a property-test framework: the build is
//! offline. Failures print the case index.)

use ftsort::ftsort::{fault_tolerant_sort, phase_name, Attach, FtConfig, FtPlan};
use hypercube::fault::FaultSet;
use hypercube::obs::gz::GzEncoder;
use hypercube::obs::json::{write_str, Json};
use hypercube::obs::replay::{observation_from_file, observation_from_json, run_to_json};
use hypercube::obs::sink::{StreamingSink, TraceSink};
use hypercube::sim::{EngineKind, LinkModel};
use hypercube::topology::Hypercube;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::Command;
use std::sync::{Arc, Mutex};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ftsort-cli"))
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ftsort_reader_{}_{name}", std::process::id()))
}

/// A small contended Q3 run file (faults {1, 6}, 300 keys), so receives
/// carry `wait` members and every record kind appears.
fn small_run_file() -> Vec<u8> {
    let faults = FaultSet::from_raw(Hypercube::new(3), &[1, 6]);
    let plan = FtPlan::new(&faults).expect("tolerable");
    let mut rng = StdRng::seed_from_u64(0x3e);
    let data: Vec<u32> = (0..300).map(|_| rng.random()).collect();
    let config = FtConfig {
        engine: EngineKind::Seq,
        link_model: LinkModel::Contended,
        ..FtConfig::default()
    };
    let sink = Arc::new(Mutex::new(StreamingSink::new(Vec::<u8>::new())));
    let dyn_sink: Arc<Mutex<dyn TraceSink>> = sink.clone();
    fault_tolerant_sort(
        &plan,
        &config,
        data,
        Attach {
            sink: Some(dyn_sink),
            ..Attach::default()
        },
    );
    Arc::try_unwrap(sink)
        .ok()
        .expect("the engine dropped its sink handle")
        .into_inner()
        .unwrap()
        .into_inner()
        .unwrap()
}

fn gzip(data: &[u8]) -> Vec<u8> {
    let mut enc = GzEncoder::new(Vec::new()).expect("header");
    enc.write_all(data).expect("write");
    enc.finish().expect("finish")
}

/// Writes `v` back as JSON with objects' members reversed and loose
/// whitespace; event objects also gain an unknown member.
fn render_loose(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Json::Num(x) => {
            let _ = write!(out, "{x}");
        }
        Json::Str(s) => write_str(out, s),
        Json::Arr(items) => {
            out.push_str("[ ");
            for (k, item) in items.iter().enumerate() {
                if k > 0 {
                    out.push_str(" ,\r\n\t");
                }
                render_loose(item, out);
            }
            out.push_str("\n]");
        }
        Json::Obj(fields) => {
            out.push_str("{\n ");
            if v.get("kind").is_some() {
                out.push_str("\"note\" : {\"unknown\": [1, \"x\\\"y\", null, true]} ,");
            }
            for (k, (key, value)) in fields.iter().rev().enumerate() {
                if k > 0 {
                    out.push_str(" ,  ");
                }
                write_str(out, key);
                out.push_str(" :\t");
                render_loose(value, out);
            }
            out.push_str(" }");
        }
    }
}

#[test]
fn reformatted_run_files_replay_to_the_same_report() {
    let canonical = temp("canonical.jsonl");
    let loose = temp("loose.jsonl");
    let out = cli()
        .args([
            "sort", "--n", "4", "--faults", "2,9", "--m", "2000", "--engine", "seq",
        ])
        .args(["--link-model", "contended", "--run-out"])
        .arg(&canonical)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(&canonical).expect("run file");
    let doc = Json::parse(&text).expect("canonical file is JSON");
    let mut reformatted = String::from("\n\n");
    render_loose(&doc, &mut reformatted);
    reformatted.push_str("\n\t\n");
    assert_ne!(reformatted, text);
    assert!(reformatted.contains("\"note\""));
    std::fs::write(&loose, &reformatted).expect("write");

    let report = |run: &PathBuf, name: &str| {
        let path = temp(name);
        let out = cli()
            .args(["replay", "--trace"])
            .arg(run)
            .arg("--metrics-out")
            .arg(&path)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let bytes = std::fs::read(&path).expect("report");
        let _ = std::fs::remove_file(&path);
        bytes
    };
    let want = report(&canonical, "canonical.report.json");
    let got = report(&loose, "loose.report.json");
    assert!(
        want == got,
        "reformatted run file replayed to a different report"
    );
    for path in [&canonical, &loose] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    let deep_array = temp("deep_array.json");
    std::fs::write(&deep_array, "[".repeat(200_000)).expect("write");
    let out = cli()
        .args(["replay", "--trace"])
        .arg(&deep_array)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "replay: {stderr}");
    assert!(stderr.contains("nesting"), "{stderr}");

    let deep_events = temp("deep_events.json");
    let mut text = String::from("{\"version\":2,\"events\":");
    text.push_str(&"[".repeat(200_000));
    std::fs::write(&deep_events, text).expect("write");
    for args in [["replay", "--trace"], ["trace-check", "--trace"]] {
        let out = cli()
            .args(args)
            .arg(&deep_events)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("nesting"), "{args:?}: {stderr}");
    }
    for path in [&deep_array, &deep_events] {
        let _ = std::fs::remove_file(path);
    }
}

/// Mutations of `base`: truncations, 1–4 random bit flips, and a value
/// replaced by deep nesting.
fn mutations(base: &[u8], rng: &mut StdRng) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let step = (base.len() / 60).max(1);
    for cut in (0..base.len()).step_by(step).chain([base.len() - 1]) {
        out.push(base[..cut].to_vec());
    }
    for _ in 0..300 {
        let mut m = base.to_vec();
        for _ in 0..rng.random_range(1..=4) {
            let at = rng.random_range(0..m.len());
            m[at] ^= 1 << rng.random_range(0..8u32);
        }
        out.push(m);
    }
    for _ in 0..4 {
        let colons: Vec<usize> = (0..base.len()).filter(|&i| base[i] == b':').collect();
        let at = colons[rng.random_range(0..colons.len())] + 1;
        let mut m = base[..at].to_vec();
        m.extend(std::iter::repeat_n(b'[', 100_000));
        m.extend_from_slice(&base[at..]);
        out.push(m);
    }
    out
}

/// `Ok` must be an observation that survives its own round trip.
fn check(case: usize, what: &str, result: Result<hypercube::obs::RunObservation, String>) {
    if let Ok(obs) = result {
        let text = run_to_json(&obs);
        let again = observation_from_json(&text)
            .unwrap_or_else(|e| panic!("{what} case {case}: re-reading a replayed run: {e}"));
        assert_eq!(run_to_json(&again), text, "{what} case {case}");
        let _ = obs.report(&phase_name).to_json();
    }
}

#[test]
fn mutated_run_files_fail_cleanly() {
    let base = small_run_file();
    observation_from_json(std::str::from_utf8(&base).unwrap()).expect("the base file replays");
    let mut rng = StdRng::seed_from_u64(0x5eed_7e11);
    let path = temp("mutated.jsonl");
    for (case, m) in mutations(&base, &mut rng).into_iter().enumerate() {
        std::fs::write(&path, &m).expect("write");
        check(case, "plain", observation_from_file(path.to_str().unwrap()));
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mutated_gzip_run_files_fail_cleanly() {
    let plain = small_run_file();
    let base = gzip(&plain);
    let mut rng = StdRng::seed_from_u64(0x5eed_7e12);
    let path = temp("mutated.jsonl.gz");
    // compressed-byte mutations, then well-formed gzip around mutated text
    let mut cases = mutations(&base, &mut rng);
    cases.extend(
        mutations(&plain, &mut rng)
            .iter()
            .step_by(4)
            .map(|m| gzip(m)),
    );
    for (case, m) in cases.into_iter().enumerate() {
        std::fs::write(&path, &m).expect("write");
        check(case, "gz", observation_from_file(path.to_str().unwrap()));
    }
    let _ = std::fs::remove_file(&path);
}

/// A Q3 run file in which node 0, the only participant, records `events`.
fn q3_run_file(events: &[String]) -> String {
    format!(
        "{{\"version\":2,\"dim\":3,\"cost\":{{\"t_sr\":3.2,\"t_c\":3,\"t_startup\":300}},\
         \"link_model\":\"uncontended\",\"events\":[{}],\
         \"nodes\":[{{\"node\":0,\"clock\":1,\"blocked_us\":0,\"inbox_peak\":0}}]}}",
        events.join(",\n")
    )
}

fn send(to: u64, elements: u64, hops: u64) -> String {
    format!(
        "{{\"t\":1,\"node\":0,\"tag\":\"0\",\"kind\":\"send\",\
         \"to\":{to},\"elements\":{elements},\"hops\":{hops}}}"
    )
}

fn recv(from: u64) -> String {
    format!("{{\"t\":1,\"node\":0,\"tag\":\"0\",\"kind\":\"recv\",\"from\":{from},\"elements\":1}}")
}

fn compute(comparisons: u64) -> String {
    format!(
        "{{\"t\":1,\"node\":0,\"tag\":\"0\",\"kind\":\"compute\",\"comparisons\":{comparisons}}}"
    )
}

#[test]
fn implausible_send_and_recv_fields_are_errors() {
    const BIG: u64 = (1 << 53) - 1; // the largest count the reader parses
    let read = |events: &[String]| observation_from_json(&q3_run_file(events));
    let rejects = |events: &[String], what: &str| match read(events) {
        Ok(_) => panic!("{what}: accepted"),
        Err(e) => assert!(e.contains("event"), "{what}: {e}"),
    };

    // The edges an engine can reach replay. The adaptive router's
    // depth-first walk is the longest route: 2·(2^3 − 1) = 14 hops in Q3.
    let edge = [send(7, 4, 14), recv(7), send(0, 0, 0), send(1, BIG, 3)];
    check(0, "edge", read(&edge));
    let obs = read(&edge).expect("edge cases replay");
    assert_eq!(obs.nodes[0].as_ref().unwrap().stats.max_hops, 14);

    // Addresses outside the header's cube, including past u32.
    for to in [8, 99_999, u64::from(u32::MAX) + 2] {
        rejects(&[send(to, 1, 1)], &format!("send to {to}"));
    }
    for from in [8, 99_999, u64::from(u32::MAX) + 2] {
        rejects(&[recv(from)], &format!("recv from {from}"));
    }

    // Hop counts no route takes: one past the walk, one that would size a
    // 32 GB histogram, and one that used to truncate to 1.
    for hops in [15, 4_000_000_000, u64::from(u32::MAX) + 2] {
        rejects(&[send(1, 1, hops)], &format!("{hops} hops"));
    }

    // Sums that overflow a u64 counter: element·hops at 683 sends of
    // 2^53 − 1 elements over 3 hops, comparisons at 2049 computes of
    // 2^53 − 1.
    rejects(&vec![send(1, BIG, 3); 683], "element-hop overflow");
    check(1, "682 sends", read(&vec![send(1, BIG, 3); 682]));
    rejects(&vec![compute(BIG); 2049], "comparison overflow");
    check(2, "2048 computes", read(&vec![compute(BIG); 2048]));
}
