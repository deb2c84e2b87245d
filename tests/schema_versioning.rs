//! Run-file schema versioning guarantees:
//!
//! * **Old files stay replayable, bit for bit.** Two fixtures were written
//!   by earlier `sort --run-out` writers: `tests/fixtures/run_v1.json` by
//!   the schema-v1 writer (Q4, faults {2,9}, 2 000 keys, seed 42, seq
//!   engine), and `tests/fixtures/run_v2_contended.json` by the schema-v2
//!   writer (the same cube, 200 keys, contended links, so receives carry
//!   nonzero waits). Each must replay to the observation a fresh live run
//!   produces — every event time, clock, metric and span — and so must
//!   its rewrite as schema v3, whose reader recomputes every time.
//! * **v2 extends v1 only in the header**: the v1 fixture under a v2
//!   header replays to the same observation.
//! * **v3 files round-trip**, buffered or streamed, gzipped or plain,
//!   under either link model.
//! * **Unknown versions, malformed headers and records of the wrong
//!   shape for the version are rejected**, not misparsed.

mod common;

use common::assert_reproduces;
use ftsort::ftsort::{fault_tolerant_sort, phase_name, Attach, FtConfig, FtPlan};
use hypercube::fault::FaultSet;
use hypercube::obs::replay::{
    observation_from_file, observation_from_json, run_to_json, write_run_file,
};
use hypercube::obs::sink::{StreamingSink, TraceSink};
use hypercube::obs::RunObservation;
use hypercube::sim::{EngineKind, LinkModel, TraceKind};
use hypercube::topology::Hypercube;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

const V1_FIXTURE: &str = "tests/fixtures/run_v1.json";
const V2_FIXTURE: &str = "tests/fixtures/run_v2_contended.json";

/// Runs the fixtures' instance (Q4, faults {2,9}, seq engine) on `data`,
/// traced and streaming into an in-memory sink; returns the observation
/// and the bytes the current writer emits for it.
fn run<K: ftsort::seq::Key>(data: Vec<K>, link_model: LinkModel) -> (RunObservation, Vec<u8>) {
    let faults = FaultSet::from_raw(Hypercube::new(4), &[2, 9]);
    let plan = FtPlan::new(&faults).expect("tolerable");
    let config = FtConfig {
        engine: EngineKind::Seq,
        link_model,
        tracing: true,
        ..FtConfig::default()
    };
    let sink = Arc::new(Mutex::new(StreamingSink::new(Vec::<u8>::new())));
    let dyn_sink: Arc<Mutex<dyn TraceSink>> = sink.clone();
    let (_, _, obs) = fault_tolerant_sort(
        &plan,
        &config,
        data,
        Attach {
            sink: Some(dyn_sink),
            ..Attach::default()
        },
    );
    let bytes = Arc::try_unwrap(sink)
        .ok()
        .expect("the engine dropped its sink handle")
        .into_inner()
        .unwrap()
        .into_inner()
        .unwrap();
    (obs, bytes)
}

/// The v1 fixture's run (`sort --n 4 --faults 2,9 --m 2000 --seed 42
/// --engine seq`, u32 keys then) under `link_model`.
fn fixture_run(link_model: LinkModel) -> (RunObservation, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(42);
    let data: Vec<u32> = (0..2_000).map(|_| rng.random()).collect();
    run(data, link_model)
}

/// The v2 fixture's run: `sort --n 4 --faults 2,9 --m 200 --seed 42
/// --engine seq --link-model contended`, on the CLI's i64 keys.
fn contended_fixture_run() -> RunObservation {
    let data: Vec<i64> = ft_bench::random_keys_typed(200, &mut ft_bench::rng(42));
    let (mut obs, _) = run(data, LinkModel::Contended);
    // the CLI stamps the key type into the file
    obs.key_type = Some("i64".into());
    obs
}

/// Asserts that `old`, a fixture's replay, reproduces `live`, and so does
/// its rewrite as the current schema.
fn assert_old_file_reproduces(old: &RunObservation, live: &RunObservation, what: &str) {
    assert_reproduces(old, live, what);
    assert_eq!(
        old.report(&phase_name).to_json(),
        live.report(&phase_name).to_json(),
        "{what}: replayed report diverged from a live run's"
    );
    let text = run_to_json(old);
    assert!(text.starts_with("{\"version\":3,"), "{what}: {text:.40}");
    let rewritten = observation_from_json(&text).expect("the rewrite replays");
    assert_reproduces(&rewritten, live, &format!("{what}, rewritten as v3"));
}

#[test]
fn v1_fixture_replays_byte_identically() {
    let v1 = observation_from_file(V1_FIXTURE).expect("v1 fixture replays");
    assert_eq!(v1.dim, 4);
    assert_eq!(
        v1.link_model,
        LinkModel::Uncontended,
        "v1 predates link models and must default to uncontended"
    );
    for e in v1.trace.events() {
        if let TraceKind::Recv { wait, .. } = e.kind {
            assert_eq!(wait.to_bits(), 0.0f64.to_bits(), "v1 recvs carry no wait");
        }
    }
    let (live, _) = fixture_run(LinkModel::Uncontended);
    assert_old_file_reproduces(&v1, &live, "v1 fixture");
}

#[test]
fn v2_uncontended_files_differ_from_v1_only_in_the_header() {
    // The v1 fixture under a v2 header — the version bump plus the
    // link_model field — is a v2 file: its records read the same.
    let fixture = std::fs::read_to_string(V1_FIXTURE).expect("fixture readable");
    let (v1_header, body) = fixture.split_once('\n').expect("fixture has a header");
    let v2_header = v1_header.replace("\"version\":1", "\"version\":2").replace(
        "},\"events\":[",
        "},\"link_model\":\"uncontended\",\"events\":[",
    );
    assert_ne!(v2_header, v1_header);
    let v2 = observation_from_json(&format!("{v2_header}\n{body}")).expect("v2 file replays");
    let v1 = observation_from_json(&fixture).expect("v1 fixture replays");
    assert_reproduces(&v2, &v1, "v1 records under a v2 header");
}

#[test]
fn v2_round_trips_streamed_and_contended() {
    // The v2 fixture's contended receives carry their waits.
    let text = std::fs::read_to_string(V2_FIXTURE).expect("fixture readable");
    assert!(text.starts_with("{\"version\":2,"));
    assert!(
        text.contains("\"wait\":"),
        "the contended fixture must record at least one nonzero wait"
    );
    let v2 = observation_from_file(V2_FIXTURE).expect("v2 fixture replays");
    assert_eq!(v2.link_model, LinkModel::Contended);
    assert_old_file_reproduces(&v2, &contended_fixture_run(), "v2 contended fixture");

    // A streamed v3 file of a contended run replays to the live
    // observation exactly: the reader re-prices the links.
    let (live, streamed) = fixture_run(LinkModel::Contended);
    let streamed = String::from_utf8(streamed).expect("UTF-8");
    assert!(!streamed.contains("\"wait\""), "v3 records hold no waits");
    let replayed = observation_from_json(&streamed).expect("v3 replays");
    assert_reproduces(&replayed, &live, "streamed contended v3 file");
    assert!(
        live.nodes.iter().any(|n| n.metrics.link_wait_us > 0.0),
        "a contended Q4 sort waits on some link"
    );
    assert_eq!(run_to_json(&replayed), streamed, "v3 round trip drifted");
}

#[test]
fn gzipped_run_files_round_trip() {
    let (live, _) = fixture_run(LinkModel::Contended);
    let dir = std::env::temp_dir();
    let gz_path = dir.join(format!("ftsort_schema_{}.jsonl.gz", std::process::id()));
    let plain_path = dir.join(format!("ftsort_schema_{}.jsonl", std::process::id()));
    let gz_path = gz_path.to_str().expect("UTF-8 temp path");
    let plain_path = plain_path.to_str().expect("UTF-8 temp path");

    write_run_file(&live, gz_path).expect("gz write");
    write_run_file(&live, plain_path).expect("plain write");
    let gz_bytes = std::fs::read(gz_path).expect("gz readable");
    let plain_bytes = std::fs::read(plain_path).expect("plain readable");
    assert_eq!(&gz_bytes[..2], &[0x1f, 0x8b], "missing gzip magic");
    assert!(
        gz_bytes.len() < plain_bytes.len() / 2,
        "run files must compress well ({} vs {} bytes)",
        gz_bytes.len(),
        plain_bytes.len()
    );

    for path in [gz_path, plain_path] {
        let replayed = observation_from_file(path).expect("replays");
        assert_reproduces(&replayed, &live, path);
        assert_eq!(
            run_to_json(&replayed),
            run_to_json(&live),
            "{path}: round-trip drifted"
        );
    }
    let _ = std::fs::remove_file(gz_path);
    let _ = std::fs::remove_file(plain_path);
}

#[test]
fn unknown_versions_and_malformed_headers_are_rejected() {
    let (live, _) = fixture_run(LinkModel::Uncontended);
    let v3 = run_to_json(&live);

    let v4 = v3.replace("\"version\":3", "\"version\":4");
    let err = observation_from_json(&v4).expect_err("v4 must be rejected");
    assert!(err.contains('4'), "error should name the version: {err}");

    let missing = v3.replace(",\"link_model\":\"uncontended\"", "");
    assert!(
        observation_from_json(&missing).is_err(),
        "a v3 header without link_model must be rejected"
    );

    let bogus = v3.replace(
        "\"link_model\":\"uncontended\"",
        "\"link_model\":\"psychic\"",
    );
    assert!(
        observation_from_json(&bogus).is_err(),
        "an unknown link model must be rejected"
    );

    // positional records under an older header, and object records under
    // a v3 header, wherever the header stands
    let as_v2 = v3.replace("\"version\":3", "\"version\":2");
    assert!(
        observation_from_json(&as_v2).is_err(),
        "a v3 file under a v2 header must be rejected"
    );
    // with v2 footers, only the records are wrong
    let records_only = as_v2.replace(
        "\"inbox_peak\":",
        "\"clock\":0,\"blocked_us\":0,\"inbox_peak\":",
    );
    let err = observation_from_json(&records_only).expect_err("v3 records in a v2 file");
    assert!(err.contains("an array, not a version 2 record"), "{err}");
    let fixture = std::fs::read_to_string(V2_FIXTURE).expect("fixture readable");
    let as_v3 = fixture.replace("\"version\":2", "\"version\":3");
    let err = observation_from_json(&as_v3).expect_err("v2 records in a v3 file");
    assert!(err.contains("an object, not a version 3 record"), "{err}");
}
