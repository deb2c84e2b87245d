//! The *maximum dimensional fault-free subcube* baseline
//! (Özgüner & Aykanat, the method the paper compares against).
//!
//! Once faults are known, find the largest subcube containing none of them
//! and run the ordinary bitonic sort there, leaving every processor outside
//! it idle ("dangling"). With one fault in `Q_6` this wastes almost half the
//! machine — the underutilization the paper's partition scheme removes.

use crate::bitonic::sort::{bitonic_on_members, SortOutcome};
use crate::ftsort::{Attach, FtConfig};
use crate::seq::Key;
use hypercube::address::NodeId;
use hypercube::fault::FaultSet;
use hypercube::obs::RunObservation;
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
/// maximum fault-free subcube. Returns the outcome and the run's
/// observation.
///
/// # Panics
/// If every processor is faulty.
pub fn mffs_sort<K: Key>(
    faults: &FaultSet,
    config: &FtConfig,
    data: Vec<K>,
    attach: Attach<'_, K>,
) -> (SortOutcome<K>, RunObservation) {
    let sc = max_fault_free_subcube(faults).expect("no fault-free processor left");
    let members: Vec<NodeId> = sc.nodes().collect();
    bitonic_on_members(faults, config, attach, &members, None, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ftsort::{fault_tolerant_sort, FtPlan};
    use hypercube::cost::CostModel;
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
        let config = FtConfig {
            cost: CostModel::paper_form(),
            ..FtConfig::default()
        };
        let (out, _) = mffs_sort(&faults, &config, data, Attach::default());
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
        let config = FtConfig {
            cost: CostModel::paper_form(),
            ..FtConfig::default()
        };
        let plan = FtPlan::new(&faults).unwrap();
        let (ours, _, _) = fault_tolerant_sort(&plan, &config, data.clone(), Attach::default());
        let (baseline, _) = mffs_sort(&faults, &config, data, Attach::default());
        assert_eq!(ours.sorted, baseline.sorted);
        assert!(
            ours.time_us < baseline.time_us,
            "ours {} vs MFFS {}",
            ours.time_us,
            baseline.time_us
        );
    }

    #[test]
    fn host_io_reverses_ft_lead_over_mffs() {
        // Figure 7 times the sort proper. Charging the host scatter and
        // gather costs the fault-tolerant sort more than MFFS: MFFS's Q5
        // makes its binomial trees the cube's own (one hop per edge), while
        // FT's 58 live processors do not line up with the cube's
        // dimensions, so its tree edges span several hops. At M = 10k the
        // lead flips (EXPERIMENTS.md, "Host I/O").
        let mut rng = StdRng::seed_from_u64(44);
        let faults = FaultSet::from_raw(Hypercube::new(6), &[9, 22, 51]);
        let plan = FtPlan::new(&faults).unwrap();
        let data: Vec<u32> = (0..10_000).map(|_| rng.random()).collect();
        let times = |include_host_io: bool| {
            let config = FtConfig {
                include_host_io,
                ..FtConfig::default()
            };
            let (ours, _, _) = fault_tolerant_sort(&plan, &config, data.clone(), Attach::default());
            let (mffs, _) = mffs_sort(&faults, &config, data.clone(), Attach::default());
            assert_eq!(ours.sorted, mffs.sorted);
            (ours.time_us, mffs.time_us)
        };
        let (ours, mffs) = times(false);
        assert!(ours < mffs, "host I/O free: ours {ours} vs MFFS {mffs}");
        let (ours, mffs) = times(true);
        assert!(mffs < ours, "host I/O charged: MFFS {mffs} vs ours {ours}");
    }
}
