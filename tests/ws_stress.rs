//! Stress test for the work-stealing scheduler: the parallel engine must
//! stay byte-deterministic under *adversarial* scheduler configurations —
//! worker counts far above the live node count, 1-node shards (maximum
//! steal traffic), shard sizes that leave one worker idle, and the 1-node
//! degenerate cube where the whole machine fits in a single shard.
//!
//! Every case runs the full fault-tolerant sort three ways — sequential,
//! parallel at the randomized `(workers, shard)` point, and parallel at a
//! second independent point — and demands identical sorted output, virtual
//! time bits and operation counters. Every third case runs under the
//! contended link model (which routes the par engine through its serial
//! commit path), and every fourth case also compares the streamed run
//! file byte for byte: scheduler parameters must never leak into any
//! observable output.

use ftsort::bitonic::Protocol;
use ftsort::ftsort::{fault_tolerant_sort, Attach, FtConfig, FtPlan};
use hypercube::cost::CostModel;
use hypercube::fault::FaultSet;
use hypercube::obs::sink::{StreamingSink, TraceSink};
use hypercube::sim::{Engine, EngineKind, LinkModel};
use hypercube::topology::Hypercube;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

/// Worker counts to draw from: 1 (fully inline), small, odd (uneven
/// affinity splits), and far above any live node count in the sweep.
const WORKERS: [usize; 8] = [1, 2, 3, 4, 5, 9, 33, 200];

/// Shard sizes: 1 (every node its own steal unit), primes that don't
/// divide the live counts, and 64 (the auto-sizing cap — usually one
/// shard per machine here, so no stealing at all).
const SHARDS: [usize; 6] = [1, 2, 3, 5, 16, 64];

fn streamed_bytes(plan: &FtPlan, config: &FtConfig, data: Vec<u64>) -> Vec<u8> {
    let sink = Arc::new(Mutex::new(StreamingSink::new(Vec::<u8>::new())));
    let dyn_sink: Arc<Mutex<dyn TraceSink>> = sink.clone();
    fault_tolerant_sort(
        plan,
        config,
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

#[test]
fn randomized_worker_and_shard_points_are_byte_deterministic() {
    let mut rng = StdRng::seed_from_u64(0x57ea_15eed);
    for case in 0..48 {
        let n = rng.random_range(1usize..=7);
        let r = rng.random_range(0usize..n);
        let m = rng.random_range(0usize..2_500);
        let faults = FaultSet::random(Hypercube::new(n), r, &mut rng);
        let plan = FtPlan::new(&faults).expect("r ≤ n−1 tolerable");
        let data: Vec<u64> = (0..m).map(|_| rng.random()).collect();
        let link_model = if case % 3 == 0 {
            LinkModel::Contended
        } else {
            LinkModel::Uncontended
        };
        let point_a = (
            WORKERS[rng.random_range(0..WORKERS.len())],
            SHARDS[rng.random_range(0..SHARDS.len())],
        );
        let point_b = (
            WORKERS[rng.random_range(0..WORKERS.len())],
            SHARDS[rng.random_range(0..SHARDS.len())],
        );
        let config = |engine: EngineKind, point: Option<(usize, usize)>| FtConfig {
            protocol: Protocol::HalfExchange,
            engine,
            link_model,
            threads: point.map(|(w, _)| w),
            par_shard: point.map(|(_, s)| s),
            ..FtConfig::default()
        };
        let tag = format!(
            "case {case}: n={n} r={r} m={m} {link_model:?} \
             points {point_a:?}/{point_b:?} faults={:?}",
            faults.to_vec()
        );
        let seq = fault_tolerant_sort(
            &plan,
            &config(EngineKind::Seq, None),
            data.clone(),
            Attach::default(),
        )
        .0;
        for point in [point_a, point_b] {
            let par = fault_tolerant_sort(
                &plan,
                &config(EngineKind::Par, Some(point)),
                data.clone(),
                Attach::default(),
            )
            .0;
            assert_eq!(
                seq.sorted, par.sorted,
                "sorted output differs seq vs par@{point:?} — {tag}"
            );
            assert_eq!(
                seq.time_us.to_bits(),
                par.time_us.to_bits(),
                "virtual time differs seq vs par@{point:?} — {tag}"
            );
            assert_eq!(
                seq.stats, par.stats,
                "operation counters differ seq vs par@{point:?} — {tag}"
            );
        }
        let mut expect = data.clone();
        expect.sort_unstable();
        assert_eq!(seq.sorted, expect, "not actually sorted — {tag}");

        if case % 4 == 0 {
            let seq_bytes = streamed_bytes(&plan, &config(EngineKind::Seq, None), data.clone());
            for point in [point_a, point_b] {
                let par_bytes =
                    streamed_bytes(&plan, &config(EngineKind::Par, Some(point)), data.clone());
                assert!(
                    seq_bytes == par_bytes,
                    "streamed run file differs seq vs par@{point:?} — {tag}"
                );
            }
            assert!(!seq_bytes.is_empty(), "sink saw no records — {tag}");
        }
    }
}

/// The degenerate single-node cube (`Q0`): one live node, no messages,
/// workers and shard size both larger than everything. The scheduler must
/// fall back to one effective worker and still run the program to
/// completion.
#[test]
fn one_node_cube_with_oversubscribed_workers() {
    let cube = Hypercube::new(0);
    let engine = Engine::new(FaultSet::none(cube), CostModel::default())
        .with_engine(EngineKind::Par)
        .with_workers(3)
        .with_shard_size(7);
    let inputs: Vec<Option<Vec<u64>>> = vec![Some(vec![3, 1, 2])];
    let (results, _) = engine.run(inputs, async |ctx, mut data: Vec<u64>| {
        data.sort_unstable();
        ctx.charge_comparisons(data.len());
        ctx.span_enter(1);
        ctx.span_exit();
        data
    });
    assert_eq!(results, vec![vec![1, 2, 3]]);
}
