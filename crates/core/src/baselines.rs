//! Additional (fault-free) parallel sorting baselines.
//!
//! The paper's §1 situates bitonic sort among the sorting algorithms
//! "directly developed for the hypercubes". Two contemporaries are
//! implemented here to put the bitonic numbers in context:
//!
//! * [`odd_even_ring_sort`] — odd-even transposition sort over the
//!   dilation-1 Gray-code ring embedding: `P` compare-split phases between
//!   ring neighbors (each one physical hop). Simple, but `Θ(P)` phases
//!   instead of bitonic's `Θ(log² P)`.
//! * [`hyperquicksort`] — Wagar's hyperquicksort: local sort, then `n`
//!   rounds of pivot broadcast + split exchange along each dimension.
//!   `Θ(log P)` rounds on average but load-imbalanced: run lengths diverge
//!   as the recursion deepens.

use crate::bitonic::{compare_split_remote, KeepHalf, Protocol};
use crate::distribute::{gather, scatter};
use crate::seq::{heapsort, merge_runs_auto, Direction, Key};
use hypercube::address::NodeId;
use hypercube::cost::CostModel;
use hypercube::embedding::RingEmbedding;
use hypercube::sim::{BufferPool, Comm, Engine, EngineKind, Tag};
use hypercube::topology::Hypercube;

use crate::bitonic::sort::SortOutcome;

/// Odd-even transposition sort of `data` over the Gray-code ring embedded
/// in a fault-free `Q_n`. Output is sorted in *ring position* order.
pub fn odd_even_ring_sort<K>(
    cube: Hypercube,
    cost: CostModel,
    data: Vec<K>,
    protocol: Protocol,
) -> SortOutcome<K>
where
    K: Key,
{
    odd_even_ring_sort_with_engine(cube, cost, data, protocol, EngineKind::default())
}

/// [`odd_even_ring_sort`] with an explicit execution engine. Both engines
/// return identical outcomes; the choice only affects wall-clock speed.
pub fn odd_even_ring_sort_with_engine<K>(
    cube: Hypercube,
    cost: CostModel,
    data: Vec<K>,
    protocol: Protocol,
    kind: EngineKind,
) -> SortOutcome<K>
where
    K: Key,
{
    assert!(cube.dim() >= 1, "ring needs at least Q1");
    let ring = RingEmbedding::new(cube);
    let p = cube.len();
    let m_total = data.len();
    let chunks = scatter(data, p);

    // inputs by physical address; chunk i goes to ring position i
    let mut inputs: Vec<Option<Vec<K>>> = (0..p).map(|_| None).collect();
    for (pos, chunk) in chunks.into_iter().enumerate() {
        inputs[ring.node_at(pos).index()] = Some(chunk);
    }

    let engine = Engine::fault_free(cube, cost).with_engine(kind);
    let ring_ref = &ring;
    let pool = BufferPool::new();
    let pool_ref = &pool;
    let out = engine.run(inputs, async move |ctx, mut run| {
        let pos = ring_ref.position_of(ctx.me());
        let mut scratch = pool_ref.handle();
        let comparisons = heapsort(&mut run, Direction::Ascending);
        ctx.charge_comparisons(comparisons as usize);
        // P phases; in phase t, pair starts at even (t even) or odd (t odd)
        // positions. The wrap-around pair (P-1, 0) is never used: odd-even
        // transposition sorts a linear array, and the Gray-code path is a
        // Hamiltonian path when the wrap edge is dropped.
        for t in 0..p {
            // phase t activates pairs (i, i+1) with i ≡ t (mod 2)
            let (partner_pos, keep) = if pos % 2 == t % 2 {
                if pos + 1 >= p {
                    continue; // no partner past the end of the array
                }
                (pos + 1, KeepHalf::Low)
            } else {
                if pos == 0 {
                    continue; // no partner before the start
                }
                (pos - 1, KeepHalf::High)
            };
            let partner = ring_ref.node_at(partner_pos);
            run = compare_split_remote(
                ctx,
                partner,
                Tag::phase(7, t as u16, 0),
                run,
                keep,
                protocol,
                &mut scratch,
            )
            .await;
        }
        run
    });
    // Free the run's slabs before the gather allocates the output.
    drop(pool);

    let time_us = out.turnaround();
    let stats = out.total_stats();
    let mut by_pos: Vec<Vec<K>> = vec![Vec::new(); p];
    for (node, run) in out.into_results() {
        by_pos[ring.position_of(node)] = run;
    }
    let sorted = gather(by_pos, m_total);
    SortOutcome {
        sorted,
        time_us,
        stats,
        processors_used: p,
    }
}

/// Hyperquicksort on a fault-free `Q_n`: output sorted in address order,
/// with per-node run lengths that depend on the pivots.
pub fn hyperquicksort<K>(cube: Hypercube, cost: CostModel, data: Vec<K>) -> SortOutcome<K>
where
    K: Key,
{
    hyperquicksort_with_engine(cube, cost, data, EngineKind::default())
}

/// [`hyperquicksort`] with an explicit execution engine. Both engines
/// return identical outcomes; the choice only affects wall-clock speed.
pub fn hyperquicksort_with_engine<K>(
    cube: Hypercube,
    cost: CostModel,
    data: Vec<K>,
    kind: EngineKind,
) -> SortOutcome<K>
where
    K: Key,
{
    let p = cube.len();
    let m_total = data.len();
    let chunks = scatter(data, p);
    let inputs: Vec<Option<Vec<K>>> = chunks.into_iter().map(Some).collect();

    let engine = Engine::fault_free(cube, cost).with_engine(kind);
    let out = engine.run(inputs, async move |ctx, mut run| {
        let me = ctx.me();
        let comparisons = heapsort(&mut run, Direction::Ascending);
        ctx.charge_comparisons(comparisons as usize);
        // rounds over dimensions d = n−1 … 0: the current subcube is the
        // set of nodes agreeing with me on bits > d.
        for d in (0..ctx.cube().dim()).rev() {
            // subcube root (low bits cleared) picks the pivot: its median
            let root_addr = NodeId::new(me.raw() & !((1u32 << (d + 1)) - 1));
            let pivot: Option<K> = if me == root_addr {
                run.get(run.len() / 2).cloned()
            } else {
                None
            };
            // broadcast the pivot within the subcube via dimension sweep
            // over dims d..0 (root sends down; empty payload = no pivot,
            // meaning the root's run was empty — use K::INF as +∞ pivot)
            let pivot = broadcast_in_subcube(ctx, root_addr, d, pivot).await;
            // split the local run and exchange along dimension d
            let split_at = run.partition_point(|x| *x < pivot);
            ctx.charge_comparisons((run.len().max(1)).ilog2() as usize + 1);
            let partner = me.neighbor(d);
            let tag = Tag::phase(8, d as u16, 0);
            let keep_low = me.bit(d) == 0;
            let (kept, sent) = if keep_low {
                let high = run.split_off(split_at);
                (run, high)
            } else {
                let high = run.split_off(split_at);
                (high, run)
            };
            ctx.send(partner, tag, sent);
            let received = ctx.recv(partner, tag).await;
            let (merged, c) = merge_runs_auto(kept, received);
            ctx.charge_comparisons(c as usize);
            run = merged;
        }
        run
    });

    let time_us = out.turnaround();
    let stats = out.total_stats();
    let mut by_node: Vec<Vec<K>> = vec![Vec::new(); p];
    for (node, run) in out.into_results() {
        by_node[node.index()] = run;
    }
    let sorted = gather(by_node, m_total);
    SortOutcome {
        sorted,
        time_us,
        stats,
        processors_used: p,
    }
}

/// Broadcast of one optional key from the subcube root over dimensions
/// `d..=0`; a missing pivot (empty root run) is replaced by [`Key::INF`]
/// (`+∞`), which sends every key below it to the low side — a safe
/// degenerate split.
async fn broadcast_in_subcube<K, C>(ctx: &mut C, root: NodeId, d: usize, pivot: Option<K>) -> K
where
    K: Key,
    C: Comm<K>,
{
    let me = ctx.me();
    let rel = me.raw() ^ root.raw();
    debug_assert_eq!(rel >> (d + 1), 0, "root must be in my subcube");
    let mut have: Option<K> = if me == root {
        Some(pivot.unwrap_or(K::INF))
    } else {
        None
    };
    for dim in (0..=d).rev() {
        let tag = Tag::phase(9, d as u16, dim as u16);
        let lower_bits = rel & ((1u32 << dim) - 1);
        if let Some(ref v) = have {
            if rel >> dim & 1 == 0 && lower_bits == 0 {
                // hold the pivot and lead this half: forward across `dim`
                ctx.send(me.neighbor(dim), tag, vec![*v]);
            }
        } else if rel >> dim & 1 == 1 && lower_bits == 0 {
            let got = ctx.recv(me.neighbor(dim), tag).await;
            have = got.into_iter().next();
        }
    }
    have.expect("pivot broadcast reached every subcube member")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn keys(rng: &mut StdRng, m: usize) -> Vec<u32> {
        (0..m).map(|_| rng.random_range(0..100_000)).collect()
    }

    #[test]
    fn odd_even_sorts() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in 1..=4 {
            for m in [0usize, 1, 10, 100, 257] {
                let data = keys(&mut rng, m);
                let mut expect = data.clone();
                expect.sort_unstable();
                let out = odd_even_ring_sort(
                    Hypercube::new(n),
                    CostModel::paper_form(),
                    data,
                    Protocol::HalfExchange,
                );
                assert_eq!(out.sorted, expect, "n={n} m={m}");
            }
        }
    }

    #[test]
    fn hyperquicksort_sorts() {
        let mut rng = StdRng::seed_from_u64(2);
        for n in 0..=4 {
            for m in [0usize, 1, 17, 200, 1000] {
                let data = keys(&mut rng, m);
                let mut expect = data.clone();
                expect.sort_unstable();
                let out = hyperquicksort(Hypercube::new(n), CostModel::paper_form(), data);
                assert_eq!(out.sorted, expect, "n={n} m={m}");
            }
        }
    }

    #[test]
    fn hyperquicksort_handles_duplicates_and_sorted_input() {
        let out = hyperquicksort(Hypercube::new(3), CostModel::paper_form(), vec![7u32; 300]);
        assert!(out.sorted.iter().all(|&x| x == 7));
        assert_eq!(out.sorted.len(), 300);
        let out = hyperquicksort(
            Hypercube::new(3),
            CostModel::paper_form(),
            (0..500u32).collect(),
        );
        assert_eq!(out.sorted, (0..500).collect::<Vec<u32>>());
    }

    #[test]
    fn bitonic_beats_odd_even_at_scale() {
        // Θ(log²P) substages vs Θ(P) phases: on Q5 bitonic must win.
        let mut rng = StdRng::seed_from_u64(3);
        let data = keys(&mut rng, 32_000);
        let bitonic = crate::bitonic::bitonic_sort(
            Hypercube::new(5),
            CostModel::paper_form(),
            data.clone(),
            Protocol::HalfExchange,
        );
        let oe = odd_even_ring_sort(
            Hypercube::new(5),
            CostModel::paper_form(),
            data,
            Protocol::HalfExchange,
        );
        assert_eq!(bitonic.sorted, oe.sorted);
        assert!(
            bitonic.time_us < oe.time_us,
            "bitonic {} vs odd-even {}",
            bitonic.time_us,
            oe.time_us
        );
    }

    #[test]
    fn hyperquicksort_moves_fewer_elements_than_bitonic() {
        // hyperquicksort exchanges each key O(log P) times in expectation;
        // bitonic moves whole runs every substage.
        let mut rng = StdRng::seed_from_u64(4);
        let data = keys(&mut rng, 32_000);
        let bitonic = crate::bitonic::bitonic_sort(
            Hypercube::new(5),
            CostModel::paper_form(),
            data.clone(),
            Protocol::HalfExchange,
        );
        let hq = hyperquicksort(Hypercube::new(5), CostModel::paper_form(), data);
        assert_eq!(bitonic.sorted, hq.sorted);
        assert!(
            hq.stats.elements_sent < bitonic.stats.elements_sent,
            "hq {} vs bitonic {}",
            hq.stats.elements_sent,
            bitonic.stats.elements_sent
        );
    }
}
