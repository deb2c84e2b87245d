//! End-to-end bitonic sorts on the simulated machine.
//!
//! Two entry points:
//! * [`bitonic_sort`] — the classic sort of `M` keys on a fault-free `Q_n`,
//!   the baseline everything in the paper is compared against;
//! * [`single_fault_bitonic_sort`] — the paper's §2.1: the same sort on a
//!   `Q_n` with exactly one faulty processor, via XOR reindexing and the
//!   skip rule.

use super::distributed::distributed_bitonic_sort;
use crate::distribute::chunk_len;
use crate::ftsort::{sort_on_members, Attach, FtConfig};
use crate::seq::{Direction, Key};
use hypercube::address::NodeId;
use hypercube::fault::FaultSet;
use hypercube::obs::RunObservation;
use hypercube::stats::RunStats;
use hypercube::topology::Hypercube;

/// The result of a simulated sort.
#[derive(Clone, Debug)]
pub struct SortOutcome<K> {
    /// The globally sorted keys.
    pub sorted: Vec<K>,
    /// Simulated turnaround time (max node clock), µs.
    pub time_us: f64,
    /// Aggregated operation counters.
    pub stats: RunStats,
    /// Number of processors that held data.
    pub processors_used: usize,
}

/// Phase-tag namespace for the standalone sorts.
const PHASE_MAIN: u16 = 1;

/// Sorts `data` on a fault-free `Q_n` with the bitonic sorting algorithm,
/// each processor first sorting its local chunk (`config.local_sort`,
/// heapsort by default). Returns the outcome and the run's observation.
///
/// ```
/// use ftsort::prelude::*;
///
/// let (out, _) = bitonic_sort(
///     Hypercube::new(3),
///     &FtConfig::default(),
///     vec![5u32, 3, 9, 1, 7, 2, 8, 4],
///     Attach::default(),
/// );
/// assert_eq!(out.sorted, vec![1, 2, 3, 4, 5, 7, 8, 9]);
/// assert_eq!(out.processors_used, 8);
/// ```
pub fn bitonic_sort<K: Key>(
    cube: Hypercube,
    config: &FtConfig,
    data: Vec<K>,
    attach: Attach<'_, K>,
) -> (SortOutcome<K>, RunObservation) {
    let members: Vec<NodeId> = cube.nodes().collect();
    bitonic_on_members(&FaultSet::none(cube), config, attach, &members, None, data)
}

/// Sorts `data` on a `Q_n` that has **exactly one** faulty processor
/// (paper §2.1).
///
/// The machine is reindexed by XOR with the faulty address so the fault sits
/// at logical 0; elements are distributed over the `N − 1` normal processors
/// and every compare-exchange involving logical 0 is skipped. The output is
/// globally sorted in reindexed address order.
///
/// # Panics
/// If `faults` does not contain exactly one faulty processor.
pub fn single_fault_bitonic_sort<K: Key>(
    faults: &FaultSet,
    config: &FtConfig,
    data: Vec<K>,
    attach: Attach<'_, K>,
) -> (SortOutcome<K>, RunObservation) {
    assert_eq!(
        faults.count(),
        1,
        "single_fault_bitonic_sort requires exactly one fault"
    );
    let fault = faults.iter().next().expect("one fault");
    // members[logical] = physical address = logical ⊕ fault
    let members: Vec<NodeId> = faults.cube().nodes().map(|p| p.xor(fault.raw())).collect();
    bitonic_on_members(faults, config, attach, &members, Some(0), data)
}

/// The bitonic sort over `members` (in logical order, slot `dead` holding
/// no data): each holder sorts its chunk locally, then runs the
/// distributed bitonic sort ascending.
pub(crate) fn bitonic_on_members<K: Key>(
    faults: &FaultSet,
    config: &FtConfig,
    attach: Attach<'_, K>,
    members: &[NodeId],
    dead: Option<usize>,
    data: Vec<K>,
) -> (SortOutcome<K>, RunObservation) {
    let k = chunk_len(data.len(), members.len() - usize::from(dead.is_some()));
    sort_on_members(
        faults,
        config,
        attach,
        members,
        dead,
        data,
        async |ctx, logical, mut chunk, pool| {
            let mut scratch = pool.handle();
            let comparisons = config.local_sort.sort(&mut chunk, Direction::Ascending);
            ctx.charge_comparisons(comparisons as usize);
            let run = distributed_bitonic_sort(
                ctx,
                members,
                logical,
                dead,
                Direction::Ascending,
                chunk,
                PHASE_MAIN,
                config.protocol,
                &mut scratch,
            )
            .await;
            assert_eq!(run.len(), k, "bitonic sort must preserve run length");
            run
        },
    )
}

#[cfg(test)]
mod tests {
    use super::super::Protocol;
    use super::*;
    use hypercube::cost::CostModel;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn config(protocol: Protocol) -> FtConfig {
        FtConfig {
            cost: CostModel::paper_form(),
            protocol,
            ..FtConfig::default()
        }
    }

    fn bitonic(cube: Hypercube, data: Vec<u32>, protocol: Protocol) -> SortOutcome<u32> {
        bitonic_sort(cube, &config(protocol), data, Attach::default()).0
    }

    fn single_fault(faults: &FaultSet, data: Vec<u32>, protocol: Protocol) -> SortOutcome<u32> {
        single_fault_bitonic_sort(faults, &config(protocol), data, Attach::default()).0
    }

    fn random_data(rng: &mut StdRng, m: usize) -> Vec<u32> {
        (0..m).map(|_| rng.random_range(0..1_000_000)).collect()
    }

    #[test]
    fn fault_free_sorts_exact_multiples() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = random_data(&mut rng, 64);
        let mut expect = data.clone();
        expect.sort_unstable();
        let out = bitonic(Hypercube::new(3), data, Protocol::HalfExchange);
        assert_eq!(out.sorted, expect);
        assert_eq!(out.processors_used, 8);
        assert!(out.time_us > 0.0);
    }

    #[test]
    fn fault_free_sorts_with_padding() {
        let mut rng = StdRng::seed_from_u64(2);
        for m in [1usize, 7, 13, 100, 257] {
            let data = random_data(&mut rng, m);
            let mut expect = data.clone();
            expect.sort_unstable();
            let out = bitonic(Hypercube::new(4), data, Protocol::FullExchange);
            assert_eq!(out.sorted, expect, "M = {m}");
        }
    }

    #[test]
    fn fault_free_on_single_node_cube() {
        let out = bitonic(Hypercube::new(0), vec![3u32, 1, 2], Protocol::HalfExchange);
        assert_eq!(out.sorted, vec![1, 2, 3]);
        assert_eq!(out.stats.messages, 0);
    }

    #[test]
    fn single_fault_sorts_any_fault_location() {
        let mut rng = StdRng::seed_from_u64(3);
        let cube = Hypercube::new(3);
        for fault in 0..8u32 {
            let data = random_data(&mut rng, 50);
            let mut expect = data.clone();
            expect.sort_unstable();
            let faults = FaultSet::from_raw(cube, &[fault]);
            let out = single_fault(&faults, data, Protocol::HalfExchange);
            assert_eq!(out.sorted, expect, "fault at {fault}");
            assert_eq!(out.processors_used, 7);
        }
    }

    #[test]
    fn single_fault_with_both_protocols_agree() {
        let mut rng = StdRng::seed_from_u64(4);
        let data = random_data(&mut rng, 96);
        let cube = Hypercube::new(4);
        let faults = FaultSet::from_raw(cube, &[11]);
        let a = single_fault(&faults, data.clone(), Protocol::FullExchange);
        let b = single_fault(&faults, data, Protocol::HalfExchange);
        assert_eq!(a.sorted, b.sorted);
    }

    #[test]
    fn single_fault_slower_than_fault_free_same_cube() {
        // One fault means fewer processors and bigger chunks: the simulated
        // time should not be smaller than the fault-free run.
        let mut rng = StdRng::seed_from_u64(5);
        let data = random_data(&mut rng, 1 << 10);
        let cube = Hypercube::new(4);
        let free = bitonic(cube, data.clone(), Protocol::HalfExchange);
        let faulty = single_fault(
            &FaultSet::from_raw(cube, &[5]),
            data,
            Protocol::HalfExchange,
        );
        assert!(
            faulty.time_us >= free.time_us,
            "faulty {} < fault-free {}",
            faulty.time_us,
            free.time_us
        );
    }

    #[test]
    fn single_fault_beats_halved_fault_free_cube() {
        // The paper's headline: tolerating the fault in place beats falling
        // back to the largest fault-free subcube (here Q3 out of Q4).
        let mut rng = StdRng::seed_from_u64(6);
        let data = random_data(&mut rng, 1 << 12);
        let faults = FaultSet::from_raw(Hypercube::new(4), &[9]);
        let faulty = single_fault(&faults, data.clone(), Protocol::HalfExchange);
        let fallback = bitonic(Hypercube::new(3), data, Protocol::HalfExchange);
        assert!(
            faulty.time_us < fallback.time_us,
            "15-processor faulty run {} should beat 8-processor fallback {}",
            faulty.time_us,
            fallback.time_us
        );
    }

    #[test]
    fn duplicate_heavy_inputs() {
        let data: Vec<u32> = (0..200).map(|i| i % 3).collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        let out = bitonic(Hypercube::new(3), data, Protocol::HalfExchange);
        assert_eq!(out.sorted, expect);
    }

    #[test]
    #[should_panic(expected = "exactly one fault")]
    fn single_fault_rejects_multi_fault_sets() {
        let faults = FaultSet::from_raw(Hypercube::new(3), &[1, 2]);
        let _ = single_fault(&faults, vec![1u32], Protocol::HalfExchange);
    }
}
