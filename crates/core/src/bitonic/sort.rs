//! End-to-end bitonic sorts on the simulated machine.
//!
//! Two entry points:
//! * [`bitonic_sort`] — the classic sort of `M` keys on a fault-free `Q_n`,
//!   the baseline everything in the paper is compared against;
//! * [`single_fault_bitonic_sort`] — the paper's §2.1: the same sort on a
//!   `Q_n` with exactly one faulty processor, via XOR reindexing and the
//!   skip rule.

use super::distributed::distributed_bitonic_sort;
use super::protocol::Protocol;
use crate::distribute::{chunk_len, gather, scatter};
use crate::seq::{heapsort, Direction, Key};
use hypercube::address::NodeId;
use hypercube::cost::CostModel;
use hypercube::fault::FaultSet;
use hypercube::sim::{BufferPool, Comm, Engine, EngineKind};
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
/// each processor first heapsorting its local chunk.
///
/// ```
/// use ftsort::bitonic::{bitonic_sort, Protocol};
/// use hypercube::prelude::*;
///
/// let out = bitonic_sort(
///     Hypercube::new(3),
///     CostModel::default(),
///     vec![5u32, 3, 9, 1, 7, 2, 8, 4],
///     Protocol::HalfExchange,
/// );
/// assert_eq!(out.sorted, vec![1, 2, 3, 4, 5, 7, 8, 9]);
/// assert_eq!(out.processors_used, 8);
/// ```
pub fn bitonic_sort<K>(
    cube: Hypercube,
    cost: CostModel,
    data: Vec<K>,
    protocol: Protocol,
) -> SortOutcome<K>
where
    K: Key,
{
    bitonic_sort_with_engine(cube, cost, data, protocol, EngineKind::default(), None)
}

/// [`bitonic_sort`] with an explicit execution engine and, for the
/// par engine, worker count (`None` = available parallelism; the seq
/// engine is one worker and ignores it). Both engines return byte-identical
/// outcomes at any worker count; the choice only affects wall-clock speed.
pub fn bitonic_sort_with_engine<K>(
    cube: Hypercube,
    cost: CostModel,
    data: Vec<K>,
    protocol: Protocol,
    kind: EngineKind,
    threads: Option<usize>,
) -> SortOutcome<K>
where
    K: Key,
{
    let mut engine = Engine::fault_free(cube, cost).with_engine(kind);
    if let Some(threads) = threads {
        engine = engine.with_workers(threads);
    }
    let members: Vec<NodeId> = cube.nodes().collect();
    sort_on_members(&engine, &members, None, data, protocol)
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
pub fn single_fault_bitonic_sort<K>(
    faults: FaultSet,
    cost: CostModel,
    data: Vec<K>,
    protocol: Protocol,
) -> SortOutcome<K>
where
    K: Key,
{
    assert_eq!(
        faults.count(),
        1,
        "single_fault_bitonic_sort requires exactly one fault"
    );
    let cube = faults.cube();
    let fault = faults.iter().next().expect("one fault");
    // members[logical] = physical address = logical ⊕ fault
    let members: Vec<NodeId> = (0..cube.len() as u32)
        .map(|logical| NodeId::new(logical).xor(fault.raw()))
        .collect();
    let engine = Engine::new(faults, cost);
    sort_on_members(&engine, &members, Some(0), data, protocol)
}

/// Shared driver: scatter over the live members, run heapsort +
/// distributed bitonic on each node, gather in logical order.
fn sort_on_members<K>(
    engine: &Engine,
    members: &[NodeId],
    dead_logical: Option<usize>,
    data: Vec<K>,
    protocol: Protocol,
) -> SortOutcome<K>
where
    K: Key,
{
    let cube = engine.cube();
    let live: Vec<usize> = (0..members.len())
        .filter(|&l| dead_logical != Some(l))
        .collect();
    let m_total = data.len();
    let k = chunk_len(m_total, live.len());
    let chunks = scatter(data, live.len());

    // inputs indexed by *physical* address
    let mut inputs: Vec<Option<Vec<K>>> = (0..cube.len()).map(|_| None).collect();
    for (&logical, chunk) in live.iter().zip(chunks) {
        inputs[members[logical].index()] = Some(chunk);
    }

    let pool = BufferPool::new();
    let out = engine.run(inputs, async |ctx, mut chunk| {
        let my_logical = members
            .iter()
            .position(|&p| p == ctx.me())
            .expect("node not in member map");
        let mut scratch = pool.handle();
        let comparisons = heapsort(&mut chunk, Direction::Ascending);
        ctx.charge_comparisons(comparisons as usize);
        let run = distributed_bitonic_sort(
            ctx,
            members,
            my_logical,
            dead_logical,
            Direction::Ascending,
            chunk,
            PHASE_MAIN,
            protocol,
            &mut scratch,
        )
        .await;
        assert_eq!(run.len(), k, "bitonic sort must preserve run length");
        run
    });
    // Free the run's slabs before the gather allocates the output.
    drop(pool);

    let time_us = out.turnaround();
    let stats = out.total_stats();
    // gather in logical order
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
        processors_used: live.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn random_data(rng: &mut StdRng, m: usize) -> Vec<u32> {
        (0..m).map(|_| rng.random_range(0..1_000_000)).collect()
    }

    #[test]
    fn fault_free_sorts_exact_multiples() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = random_data(&mut rng, 64);
        let mut expect = data.clone();
        expect.sort_unstable();
        let out = bitonic_sort(
            Hypercube::new(3),
            CostModel::paper_form(),
            data,
            Protocol::HalfExchange,
        );
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
            let out = bitonic_sort(
                Hypercube::new(4),
                CostModel::paper_form(),
                data,
                Protocol::FullExchange,
            );
            assert_eq!(out.sorted, expect, "M = {m}");
        }
    }

    #[test]
    fn fault_free_on_single_node_cube() {
        let out = bitonic_sort(
            Hypercube::new(0),
            CostModel::paper_form(),
            vec![3u32, 1, 2],
            Protocol::HalfExchange,
        );
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
            let out = single_fault_bitonic_sort(
                faults,
                CostModel::paper_form(),
                data,
                Protocol::HalfExchange,
            );
            assert_eq!(out.sorted, expect, "fault at {fault}");
            assert_eq!(out.processors_used, 7);
        }
    }

    #[test]
    fn single_fault_with_both_protocols_agree() {
        let mut rng = StdRng::seed_from_u64(4);
        let data = random_data(&mut rng, 96);
        let cube = Hypercube::new(4);
        let a = single_fault_bitonic_sort(
            FaultSet::from_raw(cube, &[11]),
            CostModel::paper_form(),
            data.clone(),
            Protocol::FullExchange,
        );
        let b = single_fault_bitonic_sort(
            FaultSet::from_raw(cube, &[11]),
            CostModel::paper_form(),
            data,
            Protocol::HalfExchange,
        );
        assert_eq!(a.sorted, b.sorted);
    }

    #[test]
    fn single_fault_slower_than_fault_free_same_cube() {
        // One fault means fewer processors and bigger chunks: the simulated
        // time should not be smaller than the fault-free run.
        let mut rng = StdRng::seed_from_u64(5);
        let data = random_data(&mut rng, 1 << 10);
        let cube = Hypercube::new(4);
        let free = bitonic_sort(
            cube,
            CostModel::paper_form(),
            data.clone(),
            Protocol::HalfExchange,
        );
        let faulty = single_fault_bitonic_sort(
            FaultSet::from_raw(cube, &[5]),
            CostModel::paper_form(),
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
        let faulty = single_fault_bitonic_sort(
            FaultSet::from_raw(Hypercube::new(4), &[9]),
            CostModel::paper_form(),
            data.clone(),
            Protocol::HalfExchange,
        );
        let fallback = bitonic_sort(
            Hypercube::new(3),
            CostModel::paper_form(),
            data,
            Protocol::HalfExchange,
        );
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
        let out = bitonic_sort(
            Hypercube::new(3),
            CostModel::paper_form(),
            data,
            Protocol::HalfExchange,
        );
        assert_eq!(out.sorted, expect);
    }

    #[test]
    #[should_panic(expected = "exactly one fault")]
    fn single_fault_rejects_multi_fault_sets() {
        let faults = FaultSet::from_raw(Hypercube::new(3), &[1, 2]);
        let _ = single_fault_bitonic_sort(
            faults,
            CostModel::paper_form(),
            vec![1u32],
            Protocol::HalfExchange,
        );
    }
}
