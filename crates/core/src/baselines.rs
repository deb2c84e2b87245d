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

use crate::bitonic::{compare_split_remote, KeepHalf, SortOutcome};
use crate::ftsort::{sort_on_members, Attach, FtConfig};
use crate::seq::{merge_runs_auto, Direction, Key};
use hypercube::address::NodeId;
use hypercube::embedding::RingEmbedding;
use hypercube::fault::FaultSet;
use hypercube::obs::RunObservation;
use hypercube::sim::{NodeCtx, Tag};
use hypercube::topology::Hypercube;

/// Odd-even transposition sort of `data` over the Gray-code ring embedded
/// in a fault-free `Q_n` (`n ≥ 1`). Output is sorted in *ring position*
/// order. Returns the outcome and the run's observation.
pub fn odd_even_ring_sort<K: Key>(
    cube: Hypercube,
    config: &FtConfig,
    data: Vec<K>,
    attach: Attach<'_, K>,
) -> (SortOutcome<K>, RunObservation) {
    // members[pos] = the node hosting ring position pos
    let ring = RingEmbedding::new(cube).cycle();
    let p = ring.len();
    sort_on_members(
        &FaultSet::none(cube),
        config,
        attach,
        &ring,
        None,
        data,
        async |ctx, pos, mut run, scratch| {
            let comparisons = config.local_sort.sort(&mut run, Direction::Ascending);
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
                run = compare_split_remote(
                    ctx,
                    ring[partner_pos],
                    Tag::phase(7, t as u16, 0),
                    run,
                    keep,
                    config.protocol,
                    scratch,
                )
                .await;
            }
            run
        },
    )
}

/// Hyperquicksort on a fault-free `Q_n`: output sorted in address order,
/// with per-node run lengths that depend on the pivots. Returns the
/// outcome and the run's observation.
///
/// # Panics
/// With [`FtConfig::include_host_io`]: the host gather needs every node's
/// run to keep its chunk's length, and hyperquicksort's runs do not.
pub fn hyperquicksort<K: Key>(
    cube: Hypercube,
    config: &FtConfig,
    data: Vec<K>,
    attach: Attach<'_, K>,
) -> (SortOutcome<K>, RunObservation) {
    let members: Vec<NodeId> = cube.nodes().collect();
    sort_on_members(
        &FaultSet::none(cube),
        config,
        attach,
        &members,
        None,
        data,
        async |ctx, _, mut run, _| {
            let me = ctx.me();
            let comparisons = config.local_sort.sort(&mut run, Direction::Ascending);
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
        },
    )
}

/// Broadcast of one optional key from the subcube root over dimensions
/// `d..=0`; a missing pivot (empty root run) is replaced by [`Key::INF`]
/// (`+∞`), which sends every key below it to the low side — a safe
/// degenerate split.
async fn broadcast_in_subcube<K: Key>(
    ctx: &mut NodeCtx<K>,
    root: NodeId,
    d: usize,
    pivot: Option<K>,
) -> K {
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
    use crate::bitonic::bitonic_sort;
    use hypercube::cost::CostModel;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn config() -> FtConfig {
        FtConfig {
            cost: CostModel::paper_form(),
            ..FtConfig::default()
        }
    }

    fn hq(cube: Hypercube, data: Vec<u32>) -> SortOutcome<u32> {
        hyperquicksort(cube, &config(), data, Attach::default()).0
    }

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
                let out =
                    odd_even_ring_sort(Hypercube::new(n), &config(), data, Attach::default()).0;
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
                let out = hq(Hypercube::new(n), data);
                assert_eq!(out.sorted, expect, "n={n} m={m}");
            }
        }
    }

    #[test]
    fn hyperquicksort_handles_duplicates_and_sorted_input() {
        let out = hq(Hypercube::new(3), vec![7u32; 300]);
        assert!(out.sorted.iter().all(|&x| x == 7));
        assert_eq!(out.sorted.len(), 300);
        let out = hq(Hypercube::new(3), (0..500u32).collect());
        assert_eq!(out.sorted, (0..500).collect::<Vec<u32>>());
    }

    #[test]
    fn bitonic_beats_odd_even_at_scale() {
        // Θ(log²P) substages vs Θ(P) phases: on Q5 bitonic must win.
        let mut rng = StdRng::seed_from_u64(3);
        let data = keys(&mut rng, 32_000);
        let bitonic = bitonic_sort(
            Hypercube::new(5),
            &config(),
            data.clone(),
            Attach::default(),
        )
        .0;
        let oe = odd_even_ring_sort(Hypercube::new(5), &config(), data, Attach::default()).0;
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
        let bitonic = bitonic_sort(
            Hypercube::new(5),
            &config(),
            data.clone(),
            Attach::default(),
        )
        .0;
        let quick = hq(Hypercube::new(5), data);
        assert_eq!(bitonic.sorted, quick.sorted);
        assert!(
            quick.stats.elements_sent < bitonic.stats.elements_sent,
            "hq {} vs bitonic {}",
            quick.stats.elements_sent,
            bitonic.stats.elements_sent
        );
    }
}
