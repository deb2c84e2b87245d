//! Invariants of the observability stack end to end: report JSON
//! round-trips, Perfetto flow-event validity, engine-differential span
//! attribution, agreement between the span-derived `PhaseBreakdown` and
//! the aggregate `RunReport`, streaming-vs-buffered sink byte
//! equivalence, replay exactness, and critical-path diff invariants.

use ftsort::ftsort::{fault_tolerant_sort, phase_name, Attach, FtConfig, FtPlan, PhaseBreakdown};
use hypercube::cost::CostModel;
use hypercube::fault::FaultSet;
use hypercube::obs::critical_path::{render_report, CriticalPath};
use hypercube::obs::diff::{diff_profiles, SegmentProfile};
use hypercube::obs::json::Json;
use hypercube::obs::perfetto::write_perfetto;
use hypercube::obs::replay::{observation_from_json, run_to_json};
use hypercube::obs::schedule::reprice;
use hypercube::obs::sink::{StreamingSink, TraceSink};
use hypercube::obs::{RunObservation, RunReport};
use hypercube::sim::{EngineKind, LinkModel};
use hypercube::topology::Hypercube;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

/// The Perfetto export of `obs`, rendered into a `Vec<u8>`.
fn perfetto_text(obs: &RunObservation) -> String {
    let mut buf = Vec::new();
    write_perfetto(obs, &phase_name, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("the export is UTF-8")
}

fn observed(engine: EngineKind, host_io: bool) -> (PhaseBreakdown, RunObservation) {
    observed_with(engine, host_io, LinkModel::Uncontended)
}

fn observed_with(
    engine: EngineKind,
    host_io: bool,
    link_model: LinkModel,
) -> (PhaseBreakdown, RunObservation) {
    let faults = FaultSet::from_raw(Hypercube::new(4), &[2, 9]);
    let plan = FtPlan::new(&faults).expect("tolerable");
    let mut rng = StdRng::seed_from_u64(0x0b5e_11e5);
    let data: Vec<u32> = (0..2_000).map(|_| rng.random()).collect();
    let config = FtConfig {
        engine,
        include_host_io: host_io,
        link_model,
        tracing: true,
        ..FtConfig::default()
    };
    let (out, breakdown, obs) =
        fault_tolerant_sort(&plan, &config, data.clone(), Attach::default());
    let mut expect = data;
    expect.sort_unstable();
    assert_eq!(out.sorted, expect, "run must actually sort");
    (breakdown, obs)
}

#[test]
fn run_report_roundtrips_and_matches_breakdown() {
    let (breakdown, obs) = observed(EngineKind::Seq, true);
    let report = obs.report(&phase_name);
    let back = RunReport::from_json(&report.to_json()).expect("parses");
    assert_eq!(report, back, "report JSON round-trip must be exact");

    // the span-derived PhaseBreakdown is the same aggregation the report
    // performs — the two views may not drift apart
    let us_of = |name: &str| {
        report
            .phases
            .iter()
            .find(|p| p.name == name)
            .map(|p| p.max_node_us)
            .unwrap_or(0.0)
    };
    let tol = 1e-9 * report.makespan_us.max(1.0);
    assert!((breakdown.host_scatter_us - us_of("scatter")).abs() <= tol);
    assert!((breakdown.step3_us - us_of("step3")).abs() <= tol);
    assert!((breakdown.step7_us - us_of("step7")).abs() <= tol);
    assert!((breakdown.step8_us - us_of("step8")).abs() <= tol);
    assert!((breakdown.host_gather_us - us_of("gather")).abs() <= tol);
    // and the phases account for (at least) the makespan, as the old
    // inline subtraction guaranteed
    let sum: f64 = report.phases.iter().map(|p| p.max_node_us).sum();
    assert!(
        sum >= report.makespan_us * 0.99,
        "phases {sum} vs makespan {}",
        report.makespan_us
    );
}

#[test]
fn perfetto_flows_respect_happens_before() {
    let (_, obs) = observed(EngineKind::Seq, false);
    let text = perfetto_text(&obs);
    let doc = Json::parse(&text).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents");
    let mut open = std::collections::HashMap::new();
    let mut flows = 0;
    for e in events {
        match e.get("ph").and_then(Json::as_str) {
            Some("s") => {
                let id = e.get("id").and_then(Json::as_u64).expect("flow id");
                let ts = e.get("ts").and_then(Json::as_f64).expect("flow ts");
                assert!(open.insert(id, ts).is_none(), "duplicate flow id {id}");
            }
            Some("f") => {
                let id = e.get("id").and_then(Json::as_u64).expect("flow id");
                let ts = e.get("ts").and_then(Json::as_f64).expect("flow ts");
                let sent = open.remove(&id).expect("finish after start");
                assert!(ts >= sent, "flow {id} finishes before it starts");
                flows += 1;
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "{} flows never finished", open.len());
    assert!(flows > 0, "a sort produces message flows");
}

#[test]
fn engines_agree_on_observations() {
    let (bd_seq, seq) = observed(EngineKind::Seq, false);
    let (bd_par, par) = observed(EngineKind::Par, false);

    // identical span attribution, node by node
    assert_eq!(seq.nodes.len(), par.nodes.len(), "participation differs");
    for (a, b) in seq.nodes.iter().zip(&par.nodes) {
        assert_eq!(a.node, b.node);
        assert_eq!(a.clock.to_bits(), b.clock.to_bits(), "node {}", a.node);
        assert_eq!(a.spans, b.spans, "span log differs on node {}", a.node);
        assert_eq!(a.metrics, b.metrics, "metrics differ on node {}", a.node);
    }
    assert_eq!(bd_seq, bd_par, "phase breakdowns differ");

    // identical traces, hence identical critical paths
    assert_eq!(seq.trace.events(), par.trace.events(), "traces differ");
    let cp_seq = CriticalPath::compute(&seq).expect("path");
    let cp_par = CriticalPath::compute(&par).expect("path");
    assert_eq!(cp_seq, cp_par, "critical paths differ");
    assert_eq!(
        cp_seq.makespan.to_bits(),
        seq.makespan().to_bits(),
        "path extent is the makespan"
    );
    let sum: f64 = cp_seq
        .attribute(&seq, &phase_name)
        .iter()
        .map(|(_, us)| us)
        .sum();
    assert!(
        (sum - cp_seq.makespan).abs() <= 1e-6 * cp_seq.makespan.max(1.0),
        "attribution {sum} must sum to the makespan {}",
        cp_seq.makespan
    );

    // The observations are fully byte-identical — the RunReport JSON is
    // one serialization of everything above.
    assert_eq!(
        seq.report(&phase_name).to_json(),
        par.report(&phase_name).to_json(),
        "seq and par reports must be the same bytes"
    );
}

/// The deterministic run of [`observed`], but streamed through a
/// [`StreamingSink`] into memory; returns the run file it wrote.
fn streamed(engine: EngineKind) -> String {
    let faults = FaultSet::from_raw(Hypercube::new(4), &[2, 9]);
    let plan = FtPlan::new(&faults).expect("tolerable");
    let mut rng = StdRng::seed_from_u64(0x0b5e_11e5);
    let data: Vec<u32> = (0..2_000).map(|_| rng.random()).collect();
    let config = FtConfig {
        engine,
        tracing: true,
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
    let bytes = Arc::try_unwrap(sink)
        .ok()
        .expect("the engine dropped its sink handle")
        .into_inner()
        .unwrap()
        .into_inner()
        .unwrap();
    String::from_utf8(bytes).expect("UTF-8")
}

#[test]
fn seq_and_par_sinks_stream_identical_bytes() {
    let seq_json = streamed(EngineKind::Seq);
    // par's serial flush on the host's pool reproduces seq's one-worker
    // stream — same record order, same bytes
    assert_eq!(
        streamed(EngineKind::Par),
        seq_json,
        "par streamed different bytes than seq"
    );
    // and the file replays (the acceptance path behind sort --run-out)
    let replayed = observation_from_json(&seq_json).expect("replays");
    assert!(!replayed.trace.is_empty());
}

#[test]
fn run_file_replay_is_byte_identical_for_every_engine() {
    for engine in [EngineKind::Seq, EngineKind::Par] {
        let (_, live) = observed(engine, false);
        let file = run_to_json(&live);
        let replayed = observation_from_json(&file).expect("run file replays");

        // field-for-field equality, float bits included
        assert_eq!(replayed.dim, live.dim);
        assert!(!live.trace.is_empty(), "tracing was on");
        assert_eq!(replayed.trace.events(), live.trace.events(), "{engine:?}");
        for (a, b) in live.trace.events().iter().zip(replayed.trace.events()) {
            assert_eq!(a.time.to_bits(), b.time.to_bits(), "timestamp drifted");
        }
        assert_eq!(
            live.nodes.len(),
            replayed.nodes.len(),
            "participation differs after replay"
        );
        for (a, b) in live.nodes.iter().zip(&replayed.nodes) {
            assert_eq!(a.node, b.node);
            assert_eq!(a.clock.to_bits(), b.clock.to_bits());
            assert_eq!(a.stats, b.stats, "stats differ on node {}", a.node);
            assert_eq!(a.spans, b.spans, "spans differ on node {}", a.node);
            assert_eq!(a.span_at, b.span_at, "span positions on node {}", a.node);
            assert_eq!(a.metrics, b.metrics, "metrics differ on node {}", a.node);
        }

        // hence every analyzer is byte-identical on live vs replayed input
        assert_eq!(
            replayed.report(&phase_name).to_json(),
            live.report(&phase_name).to_json(),
            "{engine:?}: replayed report drifted"
        );
        assert_eq!(
            perfetto_text(&replayed),
            perfetto_text(&live),
            "{engine:?}: replayed Perfetto export drifted"
        );
        let cp_live = CriticalPath::compute(&live).expect("path");
        let cp_replayed = CriticalPath::compute(&replayed).expect("path");
        assert_eq!(cp_live, cp_replayed, "{engine:?}: critical path drifted");
        assert_eq!(
            render_report(&replayed, &cp_replayed, &phase_name, 72),
            render_report(&live, &cp_live, &phase_name, 72),
            "{engine:?}: critical-path report drifted"
        );

        // and a second serialize round-trips to the same file
        assert_eq!(run_to_json(&replayed), file, "{engine:?}: run file drifted");
    }
}

#[test]
fn recost_matches_a_live_run_under_the_target_model() {
    // A traced run under the default (NCUBE-calibrated) model, re-priced
    // to the paper's zero-startup form, must equal a live run under that
    // form byte for byte: the schedule is data-oblivious, so reprice and
    // the engine charge the same clock algebra in the same order.
    let faults = FaultSet::from_raw(Hypercube::new(4), &[2, 9]);
    let plan = FtPlan::new(&faults).expect("tolerable");
    let mut rng = StdRng::seed_from_u64(0x0b5e_11e5);
    let data: Vec<u32> = (0..2_000).map(|_| rng.random()).collect();
    let run_under = |cost: CostModel| {
        let config = FtConfig {
            cost,
            tracing: true,
            ..FtConfig::default()
        };
        let (_, _, obs) = fault_tolerant_sort(&plan, &config, data.clone(), Attach::default());
        obs
    };
    let base = run_under(CostModel::default());
    let target = CostModel::paper_form();
    let live = run_under(target);
    let repriced = reprice(&base, target, base.link_model).expect("run was traced");

    // the whole run file — every event timestamp, clock, blocked time and
    // inbox peak — is the same bytes
    assert_eq!(
        run_to_json(&repriced),
        run_to_json(&live),
        "recost diverged from the live run"
    );
    assert_eq!(
        repriced.report(&phase_name).to_json(),
        live.report(&phase_name).to_json(),
        "recosted report diverged"
    );

    // recosting to the run's own model is the identity
    let same = reprice(&base, base.cost, base.link_model).expect("run was traced");
    assert_eq!(
        run_to_json(&same),
        run_to_json(&base),
        "identity recost drifted"
    );
}

#[test]
fn cross_model_reprice_matches_live_runs_bit_exactly() {
    // The contended link model is a pure function of the data-oblivious
    // schedule, so re-pricing a run across link models must reproduce a
    // live run under the target model bit for bit — in both directions,
    // and composably with the run-file round trip.
    let (_, unc) = observed_with(EngineKind::Seq, false, LinkModel::Uncontended);
    let (_, con) = observed_with(EngineKind::Seq, false, LinkModel::Contended);
    assert!(
        con.makespan() > unc.makespan(),
        "a Q4 sort has link conflicts, so contention must cost time"
    );

    let up = reprice(&unc, unc.cost, LinkModel::Contended).expect("traced");
    assert_eq!(
        run_to_json(&up),
        run_to_json(&con),
        "uncontended -> contended reprice diverged from the live run"
    );
    let down = reprice(&con, con.cost, LinkModel::Uncontended).expect("traced");
    assert_eq!(
        run_to_json(&down),
        run_to_json(&unc),
        "contended -> uncontended reprice diverged from the live run"
    );

    // re-pricing a contended run to its own cost and model is the identity
    let same = reprice(&con, con.cost, con.link_model).expect("traced");
    assert_eq!(
        run_to_json(&same),
        run_to_json(&con),
        "identity recost drifted on a contended run"
    );

    // and the v2 run file round-trips the contended observation exactly
    let replayed = observation_from_json(&run_to_json(&con)).expect("replays");
    assert_eq!(replayed.link_model, LinkModel::Contended);
    assert_eq!(
        replayed.report(&phase_name).to_json(),
        con.report(&phase_name).to_json(),
        "replayed contended report drifted"
    );
}

#[test]
fn contended_report_and_perfetto_carry_wait_accounting() {
    let (_, con) = observed_with(EngineKind::Seq, false, LinkModel::Contended);
    let report = con.report(&phase_name);
    assert_eq!(report.link_model, LinkModel::Contended);
    let total_wait: f64 = report.nodes.iter().map(|n| n.link_wait_us).sum();
    assert!(total_wait > 0.0, "a Q4 sort must queue somewhere");
    let back = RunReport::from_json(&report.to_json()).expect("parses");
    assert_eq!(
        report, back,
        "contended report JSON round-trip must be exact"
    );

    // the Perfetto export stays structurally valid and gains per-dim link
    // occupancy/queue counter tracks plus wait args on flow starts
    let text = perfetto_text(&con);
    let check = hypercube::obs::perfetto::validate_chrome_trace(text.as_bytes())
        .expect("structurally valid");
    assert!(check.flows > 0 && check.counters > 0);
    assert!(
        text.contains("link dim 0 busy"),
        "occupancy counter missing"
    );
    assert!(text.contains("link dim 0 queue"), "queue counter missing");
    assert!(text.contains("\"wait\":"), "flow wait args missing");

    // uncontended exports never mention waits or link tracks
    let (_, unc) = observed(EngineKind::Seq, false);
    let unc_text = perfetto_text(&unc);
    assert!(!unc_text.contains("\"wait\":"));
    assert!(!unc_text.contains("link dim"));
}

#[test]
fn contended_diff_tiles_the_makespan_delta_with_wait_buckets() {
    // Diffing an uncontended run against its contended twin must
    // attribute 100% of the extra makespan, and the growth must land in
    // wait buckets (the transfer/compute schedule is identical).
    let (_, unc) = observed(EngineKind::Seq, false);
    let (_, con) = observed_with(EngineKind::Seq, false, LinkModel::Contended);
    let profile = |obs: &RunObservation| {
        let cp = CriticalPath::compute(obs).expect("path");
        SegmentProfile::collect(obs, &cp, &phase_name)
    };
    let a = profile(&unc);
    let b = profile(&con);
    let rows = diff_profiles(&a, &b);
    let total: f64 = rows.iter().map(|r| r.delta()).sum();
    let delta = b.makespan - a.makespan;
    assert!(
        (total - delta).abs() <= 1e-6 * delta.abs().max(1.0),
        "diff rows {total} must tile the makespan delta {delta}"
    );
    assert!(delta > 0.0, "contention must cost time on this instance");
    let wait_growth: f64 = rows
        .iter()
        .filter(|r| r.key.link.starts_with("wait "))
        .map(|r| r.delta())
        .sum();
    assert!(
        wait_growth > 0.0,
        "the contended path must spend time in wait buckets"
    );

    // the contended profile still tiles its own makespan
    let sum: f64 = b.rows.iter().map(|(_, us)| us).sum();
    assert!(
        (sum - b.makespan).abs() <= 1e-6 * b.makespan.max(1.0),
        "contended profile rows {sum} must sum to the makespan {}",
        b.makespan
    );
}

#[test]
fn critical_path_diff_attributes_the_full_makespan() {
    let (_, seq) = observed(EngineKind::Seq, false);
    let cp = CriticalPath::compute(&seq).expect("path");
    let profile = SegmentProfile::collect(&seq, &cp, &phase_name);

    // the profile tiles [0, makespan]
    let sum: f64 = profile.rows.iter().map(|(_, us)| us).sum();
    assert!(
        (sum - profile.makespan).abs() <= 1e-6 * profile.makespan.max(1.0),
        "profile rows {sum} must sum to the makespan {}",
        profile.makespan
    );
    assert!(!profile.rows.is_empty());

    // self-diff: every bucket's delta is exactly zero
    let self_diff = diff_profiles(&profile, &profile);
    assert!(
        self_diff.iter().all(|r| r.delta() == 0.0),
        "self-diff must be all zeros"
    );

    // engine-diff: identical traces give identical profiles, so the
    // cross-engine diff is all zeros too
    let (_, par) = observed(EngineKind::Par, false);
    let cp_par = CriticalPath::compute(&par).expect("path");
    let profile_par = SegmentProfile::collect(&par, &cp_par, &phase_name);
    assert_eq!(profile, profile_par, "engines disagree on the profile");
    assert!(diff_profiles(&profile, &profile_par)
        .iter()
        .all(|r| r.delta() == 0.0));

    // A second fault on Q6 (same keys) moves the makespan; the diff rows
    // attribute all of the change.
    let profile_of = |fault_list: &[u32]| {
        let faults = FaultSet::from_raw(Hypercube::new(6), fault_list);
        let plan = FtPlan::new(&faults).expect("tolerable");
        let mut rng = StdRng::seed_from_u64(1992);
        let data: Vec<u32> = (0..4_800).map(|_| rng.random()).collect();
        let config = FtConfig {
            tracing: true,
            ..FtConfig::default()
        };
        let (out, _, obs) = fault_tolerant_sort(&plan, &config, data, Attach::default());
        assert!(out.sorted.windows(2).all(|w| w[0] <= w[1]), "output sorted");
        let cp = CriticalPath::compute(&obs).expect("path");
        SegmentProfile::collect(&obs, &cp, &phase_name)
    };
    let (a, b) = (profile_of(&[9]), profile_of(&[9, 22]));
    let rows = diff_profiles(&a, &b);
    assert!(!rows.is_empty(), "critical paths produced no segments");
    let attributed: f64 = rows.iter().map(|r| r.delta()).sum();
    let delta = b.makespan - a.makespan;
    assert!(
        (attributed - delta).abs() <= 1e-6 * delta.abs().max(1.0),
        "diff rows {attributed} must sum to the makespan delta {delta}"
    );
}
