//! Integration tests for the work-stealing scheduler profiler
//! ([`hypercube::obs::sched`]) attached to the full fault-tolerant sort.
//!
//! Three properties are pinned here, end to end through the real
//! executor (seq's one worker and par's pools) rather than against
//! synthetic recorders:
//!
//! 1. **Tiling** — the profiler's category state machine charges every
//!    nanosecond of a worker's wall time to exactly one category, so per
//!    worker `busy + steal + park + barrier` must cover ≥ 95 % of that
//!    worker's wall time (the remainder is the explicit `other` bucket:
//!    the recorder's start-up). The bar holds at every worker count,
//!    oversubscribed included, because a worker the OS deschedules is
//!    charged to the phase it was in (see `hypercube::obs::sched`).
//! 2. **Invisibility** — profiling must not perturb the simulation:
//!    a profiled run produces byte-identical sorted output, operation
//!    counters and streamed v2 run files to an unprofiled run of the
//!    same seeded instance.
//! 3. **Trace validity** — the per-worker Perfetto export passes the
//!    same structural validator `ftsort-cli trace-check` uses (declared
//!    worker tracks, per-track monotonic sched spans, steal flows that
//!    resolve and respect happens-before), and a corrupted trace is
//!    rejected.
//!
//! The four tests hold one file-wide lock for their whole body, so they
//! run one at a time even under libtest's parallel runner: the tiling bar
//! measures worker wall time, and sibling tests' worker pools competing
//! for the same cores would otherwise leak into the `other` bucket.

use ftsort::bitonic::Protocol;
use ftsort::ftsort::{fault_tolerant_sort, Attach, FtConfig, FtPlan};
use hypercube::fault::FaultSet;
use hypercube::obs::perfetto::validate_chrome_trace;
use hypercube::obs::sched::{SchedProfile, SchedProfiler, SchedReport};
use hypercube::obs::sink::{StreamingSink, TraceSink};
use hypercube::sim::EngineKind;
use hypercube::topology::Hypercube;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex, MutexGuard};

/// Serializes this file's tests (see the module docs). A test that fails
/// while holding the lock poisons it; the next test still runs.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A seeded `(plan, data)` instance with `r = n − 1` faults.
fn instance(n: usize, m: usize, seed: u64) -> (FtPlan, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let faults = FaultSet::random(Hypercube::new(n), n - 1, &mut rng);
    let plan = FtPlan::new(&faults).expect("r = n − 1 tolerable");
    let data: Vec<u64> = (0..m).map(|_| rng.random()).collect();
    (plan, data)
}

fn par_config(workers: usize) -> FtConfig {
    FtConfig {
        protocol: Protocol::HalfExchange,
        engine: EngineKind::Par,
        threads: Some(workers),
        ..FtConfig::default()
    }
}

/// Runs the sort under `config` with a profiler attached and returns the
/// installed profile (plus the sorted output for sanity).
fn profiled_run(plan: &FtPlan, data: Vec<u64>, config: &FtConfig) -> (SchedProfile, Vec<u64>) {
    let profiler = Arc::new(SchedProfiler::new());
    let (out, _, _) = fault_tolerant_sort(
        plan,
        config,
        data,
        Attach {
            profiler: Some(Arc::clone(&profiler)),
            ..Attach::default()
        },
    );
    let profile = profiler.take().expect("the run installs a profile");
    (profile, out.sorted)
}

/// Acceptance bar: per worker, `busy + steal + park + barrier` tiles
/// ≥ 95 % of that worker's wall time, on seq and at 1, 2, 4 and 8 par
/// workers.
#[test]
fn categories_tile_every_workers_wall_time() {
    let _serial = serial();
    let (plan, data) = instance(6, 4_000, 0x5c4e_d001);
    let seq = FtConfig {
        engine: EngineKind::Seq,
        ..par_config(1)
    };
    let runs = [
        ("seq", seq),
        ("par@1", par_config(1)),
        ("par@2", par_config(2)),
        ("par@4", par_config(4)),
        ("par@8", par_config(8)),
    ];
    for (name, config) in runs {
        let (profile, sorted) = profiled_run(&plan, data.clone(), &config);
        let mut expect = data.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect, "{name}: sort broke");
        if name == "seq" {
            // Seq profiles as the one-worker, one-shard schedule, and one
            // worker always commits through the serial flush.
            assert_eq!(
                (profile.workers, profile.shard_count, profile.serial),
                (1, 1, true)
            );
        }

        let report = profile.report();
        assert_eq!(report.events_dropped, 0, "{name}: ring overflowed");
        assert_eq!(report.per_worker.len(), report.workers);
        for w in &report.per_worker {
            let covered = w.busy_ns() + w.steal_ns + w.park_ns + w.barrier_ns;
            assert!(
                covered as f64 >= 0.95 * w.wall_ns as f64,
                "{name} worker {}: busy+steal+park+barrier = {covered} ns \
                 covers < 95% of wall {} ns (other = {} ns)",
                w.worker,
                w.wall_ns,
                w.other_ns,
            );
            // ...and the full seven-way split tiles the wall exactly.
            assert_eq!(
                w.accounted_ns(),
                w.wall_ns,
                "{name} worker {}: categories do not tile the wall",
                w.worker
            );
        }
        let util = report.utilization();
        assert!(
            util > 0.0 && util <= 1.0,
            "{name}: utilization {util} out of (0, 1]"
        );

        // The report round-trips through its hand-written JSON exactly.
        let json = report.to_json();
        let back = SchedReport::from_json(&json).expect("report JSON parses");
        assert_eq!(back.to_json(), json, "{name}: JSON round-trip drifted");
    }
}

/// Requesting more workers than shards exist must clamp: the profile
/// reports both the request and what actually ran.
#[test]
fn profile_records_effective_schedule_after_clamp() {
    let _serial = serial();
    // n = 2, r = 1: 3 live nodes → 3 shards of 1 → at most 3 workers.
    let (plan, data) = instance(2, 500, 0x5c4e_d002);
    let (profile, _) = profiled_run(&plan, data, &par_config(8));
    assert_eq!(profile.workers_requested, 8);
    assert_eq!(
        profile.workers, 3,
        "8 workers over 3 shards must clamp to 3"
    );
    assert_eq!(profile.shard_size, 1);
    assert_eq!(profile.shard_count, 3);
    assert_eq!(profile.workers_prof.len(), 3);
    // schedule_for is the single source of truth the reports reuse.
    assert_eq!(
        hypercube::sim::par::schedule_for(plan.live_count(), Some(8), None),
        (3, 1, 3)
    );
}

/// Satellite 3, library half: attaching the profiler is invisible to the
/// simulation — identical sorted output and byte-identical streamed v2
/// run files with profiling on vs off.
#[test]
fn profiling_is_byte_invisible() {
    let _serial = serial();
    let (plan, data) = instance(5, 3_000, 0x5c4e_d003);
    let config = par_config(4);

    let streamed = |profiled: bool| -> (Vec<u64>, Vec<u8>) {
        let sink = Arc::new(Mutex::new(StreamingSink::new(Vec::<u8>::new())));
        let dyn_sink: Arc<Mutex<dyn TraceSink>> = sink.clone();
        let (out, _, _) = if profiled {
            let profiler = Arc::new(SchedProfiler::new());
            let run = fault_tolerant_sort(
                &plan,
                &config,
                data.clone(),
                Attach {
                    sink: Some(dyn_sink),
                    profiler: Some(Arc::clone(&profiler)),
                    ..Attach::default()
                },
            );
            assert!(
                profiler.take().is_some(),
                "profiled run installed no profile"
            );
            run
        } else {
            fault_tolerant_sort(
                &plan,
                &config,
                data.clone(),
                Attach {
                    sink: Some(dyn_sink),
                    ..Attach::default()
                },
            )
        };
        let bytes = Arc::try_unwrap(sink)
            .ok()
            .expect("engine dropped its sink handle")
            .into_inner()
            .unwrap()
            .into_inner()
            .unwrap();
        (out.sorted, bytes)
    };

    let (plain_sorted, plain_bytes) = streamed(false);
    let (prof_sorted, prof_bytes) = streamed(true);
    assert_eq!(
        plain_sorted, prof_sorted,
        "profiling changed the sorted output"
    );
    assert!(!plain_bytes.is_empty(), "sink saw no records");
    assert!(
        plain_bytes == prof_bytes,
        "profiling changed the streamed run file ({} vs {} bytes)",
        plain_bytes.len(),
        prof_bytes.len()
    );
}

/// The worker-track Perfetto export of a real run passes the structural
/// validator, and an injected dangling steal-flow is rejected.
#[test]
fn sched_perfetto_validates_and_rejects_corruption() {
    let _serial = serial();
    let (plan, data) = instance(6, 4_000, 0x5c4e_d004);
    let (profile, _) = profiled_run(&plan, data, &par_config(4));
    let trace = profile.perfetto_json();

    let check = validate_chrome_trace(trace.as_bytes()).expect("sched perfetto export validates");
    assert!(check.spans > 0, "export has no worker spans");
    assert!(check.events > 0);

    // Corrupt: a steal-flow start on an undeclared track that never
    // finishes. The validator must reject it, exactly as `ftsort-cli
    // trace-check` would on the written file.
    let tail = trace.rfind(']').expect("traceEvents array");
    let mut corrupted = trace.clone();
    corrupted.insert_str(
        tail,
        ",{\"ph\":\"s\",\"pid\":1,\"tid\":9999,\"id\":777777,\"cat\":\"steal\",\"ts\":1}",
    );
    let err =
        validate_chrome_trace(corrupted.as_bytes()).expect_err("corrupted trace must be rejected");
    assert!(
        err.contains("track") || err.contains("never finished"),
        "unexpected rejection reason: {err}"
    );
}
