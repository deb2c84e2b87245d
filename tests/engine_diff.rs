//! Differential test between the two simulation engines, plus an
//! independent oracle for the clock algebra they share.
//!
//! Across 64 random `(n, r, M)` instances per link model, the sequential
//! and parallel engines must produce **byte-identical** results — the same
//! sorted output, the same virtual completion time and the same operation
//! counters — and every 8th instance their streamed [`TraceSink`] output
//! is compared byte for byte too. The algorithms are data-oblivious, so
//! any divergence is an engine bug, not noise.
//!
//! Every clock advance is an event: on each instance, every live node's
//! final clock must equal the time of its last trace event bit for bit.
//! And on each instance the seq run's streamed run file, which records no
//! times, replays to the live traced observation bit for bit: the
//! reader's clock arithmetic is the engine's.
//!
//! The parallel engine's worker count is swept across `{1, 2, 4, auto}`
//! per case — the work-stealing scheduler must be byte-deterministic at
//! *every* worker count, including oversubscribed ones on a small host —
//! and the streamed-bytes cases compare par at 1, 2 and 4 workers each.
//!
//! Both engines run the same round/frontier core, so their agreement says
//! nothing about whether that core prices time correctly. The offline
//! re-pricer is the independent check: [`reprice`] re-derives each
//! event's round from the trace alone and re-prices the schedule without
//! the engines' code. On every instance:
//!
//! * uncontended loop — a traced seq run and a traced contended seq run;
//!   re-pricing each to the other link model reproduces the other run;
//! * contended loop — a traced seq run and a contended run under
//!   [`CostModel::paper_form`]; re-pricing to the paper form reproduces it.
//!
//! "Reproduces" is bit for bit: every event, and per node the clock,
//! counters, metrics and span boundaries.

mod common;

use common::assert_reproduces;
use ftsort::bitonic::{Protocol, SortOutcome};
use ftsort::ftsort::{fault_tolerant_sort, Attach, FtConfig, FtPlan};
use hypercube::cost::CostModel;
use hypercube::fault::{FaultModel, FaultSet};
use hypercube::obs::replay::observation_from_json;
use hypercube::obs::schedule::reprice;
use hypercube::obs::sink::{StreamingSink, TraceSink};
use hypercube::obs::RunObservation;
use hypercube::sim::{EngineKind, LinkModel, RouterKind, TraceKind};
use hypercube::topology::Hypercube;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

/// Runs the sort streaming into an in-memory [`StreamingSink`]; returns
/// its outcome and observation, and the exact bytes the sink wrote.
fn streamed(
    plan: &FtPlan,
    config: &FtConfig,
    data: Vec<u64>,
) -> (SortOutcome<u64>, RunObservation, Vec<u8>) {
    let sink = Arc::new(Mutex::new(StreamingSink::new(Vec::<u8>::new())));
    let attach = Attach {
        sink: Some(sink.clone() as Arc<Mutex<dyn TraceSink>>),
        ..Attach::default()
    };
    let (out, _, obs) = fault_tolerant_sort(plan, config, data, attach);
    let bytes = Arc::try_unwrap(sink)
        .ok()
        .expect("the engine dropped its sink handle")
        .into_inner()
        .unwrap()
        .into_inner()
        .unwrap();
    (out, obs, bytes)
}

/// Asserts that `bytes`, a streamed run file, replays to `live`.
fn assert_replays(bytes: &[u8], live: &RunObservation, what: &str) {
    let text = std::str::from_utf8(bytes).expect("run files are UTF-8");
    let replayed = observation_from_json(text).unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_reproduces(&replayed, live, what);
}

/// The seeded instance loop both tests share: for each case, the plan,
/// data and the base config of the case (engine, link model and tracing
/// left at their defaults), plus a tag naming the case in failures.
fn instances(
    seed: u64,
    max_n: usize,
    max_m: usize,
    mut check: impl FnMut(usize, &FtPlan, &[u64], FtConfig, &str),
) {
    let mut rng = StdRng::seed_from_u64(seed);
    for case in 0..64 {
        let n = rng.random_range(2usize..=max_n);
        let r = rng.random_range(0usize..n);
        let m = rng.random_range(0usize..max_m);
        let faults = FaultSet::random(Hypercube::new(n), r, &mut rng);
        let plan = FtPlan::new(&faults).expect("r ≤ n−1 tolerable");
        let data: Vec<u64> = (0..m).map(|_| rng.random()).collect();
        let protocol = if case % 2 == 0 {
            Protocol::HalfExchange
        } else {
            Protocol::FullExchange
        };
        let host_io = case % 3 == 0;
        // Par worker-count sweep: every case pins a different count
        // (None = available parallelism); seq ignores it.
        let threads = [Some(1), Some(2), Some(4), None][case % 4];
        let config = FtConfig {
            protocol,
            include_host_io: host_io,
            threads,
            ..FtConfig::default()
        };
        let tag = format!(
            "case {case}: n={n} r={r} m={m} {protocol:?} host_io={host_io} \
             threads={threads:?} faults={:?}",
            faults.to_vec()
        );
        check(case, &plan, &data, config, &tag);
    }
}

/// Runs seq traced and streamed, and par untraced, under `config`'s link
/// model; asserts they agree, that seq's streamed bytes replay to its
/// traced observation, and every 8th case that par streams the same bytes
/// (at 1, 2 and 4 workers). Returns seq's observation.
fn seq_vs_par(
    case: usize,
    plan: &FtPlan,
    data: &[u64],
    config: FtConfig,
    tag: &str,
) -> RunObservation {
    let seq_config = FtConfig {
        engine: EngineKind::Seq,
        tracing: true,
        ..config
    };
    let par_config = FtConfig {
        engine: EngineKind::Par,
        ..config
    };
    let (seq, seq_obs, seq_bytes) = streamed(plan, &seq_config, data.to_vec());
    let (par, _, _) = fault_tolerant_sort(plan, &par_config, data.to_vec(), Attach::default());
    assert_eq!(seq.sorted, par.sorted, "sorted output differs — {tag}");
    assert_eq!(
        seq.time_us.to_bits(),
        par.time_us.to_bits(),
        "virtual time differs ({} vs {}) — {tag}",
        seq.time_us,
        par.time_us
    );
    assert_eq!(seq.stats, par.stats, "operation counters differ — {tag}");
    assert_eq!(
        seq.processors_used, par.processors_used,
        "processor count differs — {tag}"
    );
    let mut expect = data.to_vec();
    expect.sort_unstable();
    assert_eq!(seq.sorted, expect, "not actually sorted — {tag}");
    // Every clock advance is an event: each live node's final clock is
    // the time of its last trace event, bit for bit (0 if it has none).
    let mut last_event = vec![0.0f64; 1 << seq_obs.dim];
    for e in seq_obs.trace.events() {
        last_event[e.node.index()] = e.time;
    }
    for node in &seq_obs.nodes {
        assert_eq!(
            node.clock.to_bits(),
            last_event[node.node.index()].to_bits(),
            "{:?}: final clock {} is not its last event's time {} — {tag}",
            node.node,
            node.clock,
            last_event[node.node.index()]
        );
    }
    assert!(!seq_bytes.is_empty(), "sink saw no records — {tag}");
    assert_replays(&seq_bytes, &seq_obs, &format!("streamed run file, {tag}"));

    if case.is_multiple_of(8) {
        for workers in [1usize, 2, 4] {
            let par_config = FtConfig {
                threads: Some(workers),
                ..par_config
            };
            let (_, _, par_bytes) = streamed(plan, &par_config, data.to_vec());
            assert!(
                seq_bytes == par_bytes,
                "streamed run file differs seq vs par@{workers} — {tag}"
            );
        }
    }
    seq_obs
}

#[test]
fn engines_agree_on_64_random_instances() {
    instances(0x5eed_d1ff, 8, 4_000, |case, plan, data, config, tag| {
        let uncontended = seq_vs_par(case, plan, data, config, tag);
        let contended_config = FtConfig {
            tracing: true,
            link_model: LinkModel::Contended,
            ..config
        };
        let (_, _, contended) =
            fault_tolerant_sort(plan, &contended_config, data.to_vec(), Attach::default());
        let to_contended = reprice(&uncontended, uncontended.cost, LinkModel::Contended)
            .expect("traced run re-prices");
        assert_reproduces(
            &to_contended,
            &contended,
            &format!("reprice → contended, {tag}"),
        );
        let to_uncontended = reprice(&contended, contended.cost, LinkModel::Uncontended)
            .expect("traced run re-prices");
        assert_reproduces(
            &to_uncontended,
            &uncontended,
            &format!("reprice → uncontended, {tag}"),
        );
    });
}

/// The contended link model must not break engine equivalence: sorted
/// output, virtual times (waits included), counters and the streamed
/// run files all stay byte-identical.
#[test]
fn engines_agree_under_contended_link_model() {
    instances(0xc0a7_e57ed, 7, 3_000, |case, plan, data, config, tag| {
        let config = FtConfig {
            link_model: LinkModel::Contended,
            ..config
        };
        let tag = &format!("{tag} contended");
        let live = seq_vs_par(case, plan, data, config, tag);
        let paper_config = FtConfig {
            cost: CostModel::paper_form(),
            tracing: true,
            ..config
        };
        let (_, _, paper) =
            fault_tolerant_sort(plan, &paper_config, data.to_vec(), Attach::default());
        let repriced =
            reprice(&live, CostModel::paper_form(), live.link_model).expect("traced run re-prices");
        assert_reproduces(&repriced, &paper, &format!("reprice → paper form, {tag}"));
    });
}

/// The adaptive router's detours cross more links than the Hamming
/// distance, which the link ledger charges as an uncontended tail: a
/// contended run under it streams a run file that replays bit for bit.
#[test]
fn adaptive_router_contended_runs_replay_bit_for_bit() {
    // faults that relay nothing, so routes detour around them
    let faults =
        FaultSet::from_raw(Hypercube::new(5), &[3, 5, 16, 24]).with_model(FaultModel::Total);
    let plan = FtPlan::new(&faults).expect("tolerable");
    let mut rng = StdRng::seed_from_u64(0xada9);
    let data: Vec<u64> = (0..3_000).map(|_| rng.random()).collect();
    let config = FtConfig {
        router: RouterKind::Adaptive,
        link_model: LinkModel::Contended,
        tracing: true,
        ..FtConfig::default()
    };
    let (_, live, bytes) = streamed(&plan, &config, data);
    let detours = live
        .trace
        .events()
        .iter()
        .filter(|e| match e.kind {
            TraceKind::Send { to, hops, .. } => hops > (e.node.raw() ^ to.raw()).count_ones(),
            _ => false,
        })
        .count();
    assert!(detours > 0, "no send took a detour");
    assert_replays(&bytes, &live, "adaptive router, contended");
}
