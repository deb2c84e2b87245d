//! Run-file schema versioning guarantees:
//!
//! * **v1 files stay replayable, byte for byte.** `tests/fixtures/run_v1.json`
//!   was written by the schema-v1 `sort --run-out` writer (Q4, faults {2,9},
//!   2 000 keys, seed 42, seq engine). The current reader must replay it to
//!   the same observation a fresh live run produces, and the current writer's
//!   uncontended output must differ from the v1 bytes **only** in the header
//!   line (v2 adds the `link_model` field; uncontended record lines are
//!   unchanged).
//! * **v2 files round-trip**, buffered or streamed, gzipped or plain.
//! * **Unknown versions and malformed v2 headers are rejected**, not
//!   misparsed.

use ftsort::ftsort::{fault_tolerant_sort, phase_name, Attach, FtConfig, FtPlan};
use hypercube::fault::FaultSet;
use hypercube::obs::replay::{
    observation_from_file, observation_from_json, run_to_json, write_run_file,
};
use hypercube::obs::sink::{BufferedSink, StreamingSink, TraceSink};
use hypercube::obs::RunObservation;
use hypercube::sim::{EngineKind, LinkModel, TraceKind};
use hypercube::topology::Hypercube;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

const FIXTURE: &str = "tests/fixtures/run_v1.json";

/// Reruns the exact configuration that produced the v1 fixture
/// (`sort --n 4 --faults 2,9 --m 2000 --seed 42 --engine seq`), streaming
/// into an in-memory sink, and returns the observation plus the raw bytes
/// the current writer emits for it.
fn fixture_run(link_model: LinkModel, tracing: bool) -> (RunObservation, Vec<u8>) {
    let faults = FaultSet::from_raw(Hypercube::new(4), &[2, 9]);
    let plan = FtPlan::new(&faults).expect("tolerable");
    let mut rng = StdRng::seed_from_u64(42);
    let data: Vec<u32> = (0..2_000).map(|_| rng.random()).collect();
    let config = FtConfig {
        engine: EngineKind::Seq,
        link_model,
        tracing,
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

#[test]
fn v1_fixture_replays_byte_identically() {
    let v1 = observation_from_file(FIXTURE).expect("v1 fixture replays");
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

    // The fixture replays to the same observation the current writer's
    // live stream replays to — every event timestamp, clock, metric and
    // footer is the same. (Both sides go through the reader: a streamed
    // file records commit order, which legitimately differs from a live
    // observation's time-sorted tie order.)
    let (_, live_bytes) = fixture_run(LinkModel::Uncontended, false);
    let live = observation_from_json(&String::from_utf8(live_bytes).expect("UTF-8"))
        .expect("live v2 stream replays");
    assert_eq!(
        run_to_json(&v1),
        run_to_json(&live),
        "v1 fixture diverged from a live run"
    );
    assert_eq!(
        v1.report(&phase_name).to_json(),
        live.report(&phase_name).to_json(),
        "replayed v1 report diverged from a live run's"
    );
}

#[test]
fn v2_uncontended_files_differ_from_v1_only_in_the_header() {
    let fixture = std::fs::read_to_string(FIXTURE).expect("fixture readable");
    let (_, live_bytes) = fixture_run(LinkModel::Uncontended, false);
    let live = String::from_utf8(live_bytes).expect("UTF-8");

    let (v1_header, v1_body) = fixture.split_once('\n').expect("fixture has a header");
    let (v2_header, v2_body) = live.split_once('\n').expect("stream has a header");
    assert_eq!(
        v1_body, v2_body,
        "uncontended record lines must be identical across schema versions"
    );
    // and the header change is exactly the documented one: the version
    // bump plus the link_model field
    assert_eq!(
        v2_header
            .replace("\"version\":2", "\"version\":1")
            .replace(",\"link_model\":\"uncontended\"", ""),
        v1_header,
        "v2 header must be the v1 header plus the link_model field"
    );
}

#[test]
fn v2_round_trips_buffered_streamed_and_contended() {
    // Buffered and streamed sinks see the same record stream, so the
    // streamed v2 file is byte-for-byte the buffered render — with the
    // contended model (and its wait fields) on and tracing enabled.
    let faults = FaultSet::from_raw(Hypercube::new(4), &[2, 9]);
    let plan = FtPlan::new(&faults).expect("tolerable");
    let mut rng = StdRng::seed_from_u64(42);
    let data: Vec<u32> = (0..2_000).map(|_| rng.random()).collect();
    let config = FtConfig {
        engine: EngineKind::Seq,
        link_model: LinkModel::Contended,
        tracing: true,
        ..FtConfig::default()
    };
    let buffered = Arc::new(Mutex::new(BufferedSink::new()));
    let dyn_buf: Arc<Mutex<dyn TraceSink>> = buffered.clone();
    fault_tolerant_sort(
        &plan,
        &config,
        data.clone(),
        Attach {
            sink: Some(dyn_buf),
            ..Attach::default()
        },
    );
    let buffered_json = buffered.lock().unwrap().to_json();

    let (live, streamed_bytes) = {
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
    };
    let streamed = String::from_utf8(streamed_bytes).expect("UTF-8");
    assert_eq!(streamed, buffered_json, "streamed vs buffered v2 diverged");
    assert!(
        streamed.contains("\"wait\":"),
        "a contended Q4 sort must record at least one nonzero wait"
    );

    // and the file replays to the live observation exactly
    let replayed = observation_from_json(&streamed).expect("v2 replays");
    assert_eq!(replayed.link_model, LinkModel::Contended);
    assert_eq!(
        run_to_json(&replayed),
        run_to_json(&live),
        "v2 round-trip drifted"
    );
    assert_eq!(
        replayed.report(&phase_name).to_json(),
        live.report(&phase_name).to_json(),
        "replayed contended report drifted"
    );
}

#[test]
fn gzipped_run_files_round_trip() {
    let (live, _) = fixture_run(LinkModel::Contended, true);
    let dir = std::env::temp_dir();
    let gz_path = dir.join(format!("ftsort_schema_v2_{}.jsonl.gz", std::process::id()));
    let plain_path = dir.join(format!("ftsort_schema_v2_{}.jsonl", std::process::id()));
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
        assert_eq!(replayed.link_model, LinkModel::Contended);
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
    let (live, _) = fixture_run(LinkModel::Uncontended, false);
    let v2 = run_to_json(&live);

    let v3 = v2.replace("\"version\":2", "\"version\":3");
    let err = observation_from_json(&v3).expect_err("v3 must be rejected");
    assert!(err.contains('3'), "error should name the version: {err}");

    let missing = v2.replace(",\"link_model\":\"uncontended\"", "");
    assert!(
        observation_from_json(&missing).is_err(),
        "a v2 header without link_model must be rejected"
    );

    let bogus = v2.replace(
        "\"link_model\":\"uncontended\"",
        "\"link_model\":\"psychic\"",
    );
    assert!(
        observation_from_json(&bogus).is_err(),
        "an unknown link model must be rejected"
    );
}
