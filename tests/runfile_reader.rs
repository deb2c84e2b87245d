//! The run-file reader on files it did not write itself.
//!
//! * **Tolerance.** Member order, unknown members and whitespace are the
//!   writer's choice, not the schema's: a reformatted v3 file, and a
//!   reformatted v2 file (`tests/fixtures/run_v2_contended.json`, whose
//!   records are objects), replay to the byte-identical `--metrics-out`
//!   report.
//! * **Depth cap.** Deeply nested input is an error with a clean exit, not
//!   a stack overflow, in both `replay` and `trace-check`.
//! * **Hostile input.** Every seeded mutation of a valid run file — a v3
//!   file and the v2 fixture; truncation, bit flips, extreme numbers, deep
//!   nesting — read through `observation_from_file`, plain or gzipped,
//!   returns `Err` or an observation that round-trips, never a panic.
//! * **Implausible records.** Send and receive addresses outside the cube,
//!   hop counts no route can take, and counts whose sums overflow are
//!   errors, not truncations, wraps or unbounded allocations.
//! * **Huge cubes.** The header's `dim` sizes no table: a one-node file at
//!   the reader's largest dimension decodes, and writes back as a run file
//!   and a Perfetto trace, without a 1 MiB allocation.
//! * **Long files.** A file's length sizes no buffer: 4 MiB of whitespace
//!   between two records, plain or gzipped, reads without a 1 MiB
//!   allocation, and so do a Chrome trace with 4 MiB of whitespace
//!   between two events, a report with 4 MiB of whitespace between two
//!   members, and a metrics snapshot with 4 MiB of newlines.
//!
//! (Seeded loops rather than a property-test framework: the build is
//! offline. Failures print the case index.)

mod common;

use common::{mutations, Budget};
use ftsort::ftsort::{fault_tolerant_sort, phase_name, Attach, FtConfig, FtPlan};
use hypercube::fault::FaultSet;
use hypercube::obs::gz::GzEncoder;
use hypercube::obs::json::{write_str, Json, JsonValue};
use hypercube::obs::metrics::{validate_prom, Totals};
use hypercube::obs::perfetto::{validate_chrome_trace, write_perfetto};
use hypercube::obs::replay::{observation_from_file, observation_from_json, run_to_json};
use hypercube::obs::sink::{StreamingSink, TraceSink};
use hypercube::obs::RunReport;
use hypercube::sim::{EngineKind, LinkModel};
use hypercube::topology::Hypercube;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::Command;
use std::sync::{Arc, Mutex};

/// Tracks the largest single allocation each thread asks for, so a test
/// can check that no header field sizes one.
struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping only updates a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ftsort-cli"))
}

fn temp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ftsort_reader_{}_{name}", std::process::id()))
}

/// The v2 fixture: a contended Q4 run file whose records are objects.
const V2_FIXTURE: &str = "tests/fixtures/run_v2_contended.json";

/// A small contended Q3 run file (faults {1, 6}, 300 keys), so every
/// record kind appears and receives wait on links.
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
/// whitespace; the document and event objects also gain an unknown
/// member.
fn render_loose(v: &Json, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Json::Int(n) => {
            let _ = write!(out, "{n}");
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
            if v.get("kind").is_some() || v.get("version").is_some() {
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
    let v3 = std::fs::read_to_string(&canonical).expect("run file");
    assert!(v3.starts_with("{\"version\":3,"));
    let v2 = std::fs::read_to_string(V2_FIXTURE).expect("fixture");
    for (what, text) in [("v3", v3), ("v2", v2)] {
        std::fs::write(&canonical, &text).expect("write");
        let doc = Json::parse(&text).expect("canonical file is JSON");
        let mut reformatted = String::from("\n\n");
        render_loose(&doc, &mut reformatted);
        reformatted.push_str("\n\t\n");
        assert_ne!(reformatted, text);
        assert!(reformatted.contains("\"note\""));
        std::fs::write(&loose, &reformatted).expect("write");
        let want = report(&canonical, "canonical.report.json");
        let got = report(&loose, "loose.report.json");
        assert!(
            want == got,
            "{what}: reformatted run file replayed to a different report"
        );
    }
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

/// The mutations each run-file fuzzer reads.
const BUDGET: Budget = Budget {
    cuts: 60,
    flips: 300,
    numbers: 300,
};

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

/// The fuzzers' bases: a v3 file and the v2 fixture.
fn bases() -> [(&'static str, Vec<u8>); 2] {
    [
        ("v3", small_run_file()),
        ("v2", std::fs::read(V2_FIXTURE).expect("fixture")),
    ]
}

#[test]
fn mutated_run_files_fail_cleanly() {
    let mut rng = StdRng::seed_from_u64(0x5eed_7e11);
    let path = temp("mutated.jsonl");
    for (what, base) in bases() {
        observation_from_json(std::str::from_utf8(&base).unwrap()).expect("the base file replays");
        for (case, m) in mutations(&base, &mut rng, BUDGET).into_iter().enumerate() {
            std::fs::write(&path, &m).expect("write");
            check(case, what, observation_from_file(path.to_str().unwrap()));
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn mutated_gzip_run_files_fail_cleanly() {
    let mut rng = StdRng::seed_from_u64(0x5eed_7e12);
    let path = temp("mutated.jsonl.gz");
    for (what, plain) in bases() {
        let base = gzip(&plain);
        // compressed-byte mutations, then well-formed gzip around mutated text
        let mut cases = mutations(&base, &mut rng, BUDGET);
        cases.extend(
            mutations(&plain, &mut rng, BUDGET)
                .iter()
                .step_by(4)
                .map(|m| gzip(m)),
        );
        for (case, m) in cases.into_iter().enumerate() {
            std::fs::write(&path, &m).expect("write");
            check(case, what, observation_from_file(path.to_str().unwrap()));
        }
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_files_length_sizes_no_buffer() {
    let plain = small_run_file();
    let want = observation_from_json(std::str::from_utf8(&plain).unwrap())
        .expect("the base file replays")
        .report(&phase_name)
        .to_json();
    // 4 MiB of whitespace between the first two records
    let cut = plain
        .windows(2)
        .position(|w| w == b",\n")
        .expect("two records")
        + 1;
    let mut padded = plain[..cut].to_vec();
    padded.extend(b" \n\t\r".iter().cycle().take(4 << 20));
    padded.extend_from_slice(&plain[cut..]);
    let path = temp("padded.jsonl");
    for (what, bytes) in [("plain", padded.clone()), ("gz", gzip(&padded))] {
        std::fs::write(&path, bytes).expect("write");
        LARGEST.with(|l| l.set(0));
        let obs = observation_from_file(path.to_str().unwrap());
        let largest = LARGEST.with(Cell::get);
        let obs = obs.unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(obs.report(&phase_name).to_json(), want, "{what}");
        assert!(
            largest < 1 << 20,
            "{what}: the reader asked for a {largest}-byte block"
        );
    }

    // the same between the first two events of the run's Chrome trace
    let mut trace = Vec::new();
    let obs = observation_from_json(std::str::from_utf8(&plain).unwrap()).unwrap();
    write_perfetto(&obs, &phase_name, &mut trace).expect("writing to a Vec");
    let want = validate_chrome_trace(&trace[..]).expect("the trace validates");
    let cut = trace
        .windows(2)
        .position(|w| w == b"},")
        .expect("two events")
        + 2;
    let pad: String = " \n\t\r".chars().cycle().take(4 << 20).collect();
    let mut padded = trace[..cut].to_vec();
    padded.extend_from_slice(pad.as_bytes());
    padded.extend_from_slice(&trace[cut..]);
    std::fs::write(&path, padded).expect("write");
    LARGEST.with(|l| l.set(0));
    let check = validate_chrome_trace(std::fs::File::open(&path).expect("open"));
    let largest = LARGEST.with(Cell::get);
    assert_eq!(check, Ok(want));
    assert!(
        largest < 1 << 20,
        "trace: the validator asked for a {largest}-byte block"
    );

    // the same between the first two members of the run's report
    let report = obs.report(&phase_name);
    let json = report.to_json();
    let cut = json.find(',').expect("two members") + 1;
    let padded = format!("{}{}{}", &json[..cut], pad, &json[cut..]);
    std::fs::write(&path, padded).expect("write");
    LARGEST.with(|l| l.set(0));
    let read = Json::read(std::fs::File::open(&path).expect("open"))
        .and_then(|json| RunReport::read(&json));
    let largest = LARGEST.with(Cell::get);
    assert_eq!(read, Ok(report));
    assert!(
        largest < 1 << 20,
        "report: the reader asked for a {largest}-byte block"
    );

    // and 4 MiB of newlines after the first line of a metrics snapshot
    let prom = Totals::default().render_prom();
    let want = validate_prom(prom.as_bytes()).expect("the snapshot validates");
    let cut = prom.find('\n').expect("two lines") + 1;
    let padded = format!("{}{}{}", &prom[..cut], "\n".repeat(4 << 20), &prom[cut..]);
    std::fs::write(&path, padded).expect("write");
    LARGEST.with(|l| l.set(0));
    let file = std::fs::File::open(&path).expect("open");
    let check = validate_prom(std::io::BufReader::new(file));
    let largest = LARGEST.with(Cell::get);
    assert_eq!(check, Ok(want));
    assert!(
        largest < 1 << 20,
        "prom: the validator asked for a {largest}-byte block"
    );
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
    const BIG: u64 = (1 << 53) - 1; // a few hundred of these overflow a u64 sum
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
    assert_eq!(obs.nodes[0].stats.max_hops, 14);

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

#[test]
fn huge_dimensions_allocate_by_the_footer_not_the_header() {
    // One footer node, no events: 166 bytes at "dim":24, the reader's
    // largest dimension. A reader that sized per-address tables from the
    // header asked for a 293,601,280-byte block at "dim":20, and so did
    // `run_to_json` and `write_perfetto` when they did.
    for dim in [20, 24] {
        let text = format!(
            "{{\"version\":2,\"dim\":{dim},\"link_model\":\"uncontended\",\
             \"cost\":{{\"t_sr\":3.2,\"t_c\":3,\"t_startup\":300}},\"events\":[],\
             \"nodes\":[{{\"node\":0,\"clock\":0,\"blocked_us\":0,\"inbox_peak\":0}}]}}"
        );
        LARGEST.with(|l| l.set(0));
        let obs = observation_from_json(&text).expect("a one-node file replays");
        let report = obs.report(&phase_name).to_json();
        // the writers' per-node tables follow the participants too
        let rewritten = run_to_json(&obs);
        write_perfetto(&obs, &phase_name, &mut Vec::new()).expect("writing to a Vec");
        let largest = LARGEST.with(Cell::get);
        assert!(rewritten.contains(&format!("\"dim\":{dim}")), "{rewritten}");
        assert_eq!(obs.dim, dim);
        assert_eq!(obs.nodes.len(), 1, "\"dim\":{dim}: one participant");
        assert!(report.contains(&format!("\"dim\":{dim}")), "{report}");
        assert!(
            largest < 1 << 20,
            "\"dim\":{dim}: the reader asked for a {largest}-byte block"
        );
    }
}
