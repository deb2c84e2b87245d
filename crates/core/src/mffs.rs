//! The *maximum dimensional fault-free subcube* baseline
//! (Özgüner & Aykanat, the method the paper compares against).
//!
//! Once faults are known, find the largest subcube containing none of them
//! and run the ordinary bitonic sort there, leaving every processor outside
//! it idle ("dangling"). With one fault in `Q_6` this wastes almost half the
//! machine — the underutilization the paper's partition scheme removes.

use crate::bitonic::sort::SortOutcome;
use crate::bitonic::{distributed_bitonic_sort, Protocol};
use crate::distribute::{gather, scatter};
use crate::seq::{heapsort, Direction, Key};
use hypercube::address::NodeId;
use hypercube::cost::CostModel;
use hypercube::fault::FaultSet;
use hypercube::sim::{BufferPool, Comm, Engine, EngineKind};
use hypercube::subcube::Subcube;

/// Finds a maximum-dimension fault-free subcube, scanning dimensions from
/// `n` downward; among equals the one with the smallest `(mask, pattern)` is
/// returned (deterministic tie-break).
///
/// Returns `None` only if every processor is faulty (then even `Q_0`
/// subcubes all contain a fault).
pub fn max_fault_free_subcube(faults: &FaultSet) -> Option<Subcube> {
    let n = faults.cube().dim();
    for k in (0..=n).rev() {
        for sc in Subcube::enumerate(n, k) {
            if faults.count_in(&sc) == 0 {
                return Some(sc);
            }
        }
    }
    None
}

/// Sorts `data` with the baseline: plain bitonic sort confined to the
/// maximum fault-free subcube.
///
/// # Panics
/// If every processor is faulty.
pub fn mffs_sort<K>(
    faults: &FaultSet,
    cost: CostModel,
    data: Vec<K>,
    protocol: Protocol,
) -> SortOutcome<K>
where
    K: Key,
{
    mffs_sort_with_engine(faults, cost, data, protocol, EngineKind::default())
}

/// [`mffs_sort`] with an explicit execution engine. Both engines return
/// identical outcomes; the choice only affects wall-clock speed.
pub fn mffs_sort_with_engine<K>(
    faults: &FaultSet,
    cost: CostModel,
    data: Vec<K>,
    protocol: Protocol,
    kind: EngineKind,
) -> SortOutcome<K>
where
    K: Key,
{
    let sc = max_fault_free_subcube(faults).expect("no fault-free processor left");
    let cube = faults.cube();
    let members: Vec<NodeId> = sc.nodes().collect();
    let m_total = data.len();
    let chunks = scatter(data, members.len());

    let mut inputs: Vec<Option<Vec<K>>> = (0..cube.len()).map(|_| None).collect();
    for (&p, chunk) in members.iter().zip(chunks) {
        inputs[p.index()] = Some(chunk);
    }

    let engine = Engine::new(faults.clone(), cost).with_engine(kind);
    let members_ref = &members;
    let pool = BufferPool::new();
    let pool_ref = &pool;
    let out = engine.run(inputs, async move |ctx, mut chunk| {
        let my_logical = members_ref
            .iter()
            .position(|&p| p == ctx.me())
            .expect("node in subcube");
        let mut scratch = pool_ref.handle();
        let comparisons = heapsort(&mut chunk, Direction::Ascending);
        ctx.charge_comparisons(comparisons as usize);
        distributed_bitonic_sort(
            ctx,
            members_ref,
            my_logical,
            None,
            Direction::Ascending,
            chunk,
            1,
            protocol,
            &mut scratch,
        )
        .await
    });
    // Free the run's slabs before the gather allocates the output.
    drop(pool);

    let time_us = out.turnaround();
    let stats = out.total_stats();
    let mut by_logical: Vec<Vec<K>> = vec![Vec::new(); members.len()];
    for (node, run) in out.into_results() {
        let logical = members.iter().position(|&p| p == node).expect("member");
        by_logical[logical] = run;
    }
    let sorted = gather(by_logical, m_total);
    SortOutcome {
        sorted,
        time_us,
        stats,
        processors_used: members.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypercube::topology::Hypercube;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn fault_free_cube_returns_whole_cube() {
        let faults = FaultSet::none(Hypercube::new(4));
        let sc = max_fault_free_subcube(&faults).unwrap();
        assert_eq!(sc.dim(), 4);
        assert_eq!(sc.len(), faults.normal_count(), "no dangling processor");
    }

    #[test]
    fn one_fault_halves_the_machine() {
        // The paper's motivating example: one fault in Q6 leaves a Q5 —
        // "reduce the performance almost 50% even though less than 2% of the
        // system is faulty".
        let faults = FaultSet::from_raw(Hypercube::new(6), &[17]);
        let sc = max_fault_free_subcube(&faults).unwrap();
        assert_eq!(sc.dim(), 5);
        assert!(!sc.contains(hypercube::address::NodeId::new(17)));
        // 63 normal processors, 32 of them used: 31 dangle
        assert_eq!(faults.normal_count() - sc.len(), 63 - 32);
    }

    #[test]
    fn paper_example_1_leaves_only_q3() {
        // "In Example 1, there are 4 faulty processors with addresses 3, 5,
        // 16, and 24 in Q5. The maximum fault-free subcube able to be
        // utilized is Q3."
        let faults = FaultSet::from_raw(Hypercube::new(5), &[3, 5, 16, 24]);
        let sc = max_fault_free_subcube(&faults).unwrap();
        assert_eq!(sc.dim(), 3);
    }

    #[test]
    fn found_subcube_is_maximal() {
        let mut rng = StdRng::seed_from_u64(41);
        for n in 2..=6 {
            for r in 0..n {
                let faults = FaultSet::random(Hypercube::new(n), r, &mut rng);
                let sc = max_fault_free_subcube(&faults).unwrap();
                assert_eq!(faults.count_in(&sc), 0);
                // nothing of higher dimension is fault-free
                if sc.dim() == n {
                    continue;
                }
                for bigger in Subcube::enumerate(n, sc.dim() + 1) {
                    assert!(
                        faults.count_in(&bigger) > 0,
                        "n={n} r={r}: {bigger:?} also fault-free"
                    );
                }
            }
        }
    }

    #[test]
    fn all_faulty_returns_none() {
        let faults = FaultSet::from_raw(Hypercube::new(1), &[0, 1]);
        assert!(max_fault_free_subcube(&faults).is_none());
    }

    #[test]
    fn mffs_sort_sorts_correctly() {
        let mut rng = StdRng::seed_from_u64(42);
        let faults = FaultSet::from_raw(Hypercube::new(5), &[3, 5, 16, 24]);
        let data: Vec<u32> = (0..200).map(|_| rng.random_range(0..10_000)).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        let out = mffs_sort(
            &faults,
            CostModel::paper_form(),
            data,
            Protocol::HalfExchange,
        );
        assert_eq!(out.sorted, expect);
        assert_eq!(out.processors_used, 8, "only the Q3 works");
    }

    #[test]
    fn ft_sort_beats_mffs_on_time() {
        // The paper's bottom line (Figure 7): with enough data the proposed
        // algorithm on the faulty cube beats bitonic sort on the maximum
        // fault-free subcube.
        let mut rng = StdRng::seed_from_u64(43);
        let faults = FaultSet::from_raw(Hypercube::new(5), &[3, 5, 16, 24]);
        let data: Vec<u32> = (0..8000).map(|_| rng.random()).collect();
        use crate::ftsort::{fault_tolerant_sort, Attach, FtConfig, FtPlan};
        let config = FtConfig {
            cost: CostModel::paper_form(),
            ..FtConfig::default()
        };
        let plan = FtPlan::new(&faults).unwrap();
        let (ours, _, _) = fault_tolerant_sort(&plan, &config, data.clone(), Attach::default());
        let baseline = mffs_sort(
            &faults,
            CostModel::paper_form(),
            data,
            Protocol::HalfExchange,
        );
        assert_eq!(ours.sorted, baseline.sorted);
        assert!(
            ours.time_us < baseline.time_us,
            "ours {} vs MFFS {}",
            ours.time_us,
            baseline.time_us
        );
    }
}
