//! The distributed (block) bitonic sort across `2^s` processors, tolerating
//! one dead processor at reindexed address 0.
//!
//! Each of the `2^s` logical processors holds a sorted ascending run of `k`
//! keys. The classic double loop runs compare-splits between partners
//! differing in bit `j`, keeping the low half iff bit `i+1` equals bit `j`
//! of the local address; after `s(s+1)/2` substages the runs are globally
//! ordered by local address.
//!
//! **One dead processor** (paper §2.1): if the processor at *logical address
//! 0* holds no data and every compare-split involving it is skipped, the
//! remaining processors still end up globally sorted. Address 0 has all bits
//! zero, so in every substage it would keep the *low* half — behaving exactly
//! as if it held `k` copies of `−∞` (for a descending sort, `+∞`): its
//! partner keeps its own run untouched either way. The XOR *reindex*
//! operation moves an arbitrary faulty processor to logical 0, which is why
//! this works for any fault location.

use super::protocol::{compare_split_remote, KeepHalf, Protocol};
use crate::seq::{Direction, Key};
use hypercube::address::NodeId;
use hypercube::sim::{Comm, PoolHandle, Tag};

/// Runs the distributed bitonic sort among the processors listed in
/// `members` (physical addresses indexed by *logical* address).
///
/// * `my_logical` — this node's logical address (its index in `members`).
/// * `dead_logical` — the logical address of the dead (faulty or dangling)
///   processor, if any; **must be 0** per the reindex invariant.
/// * `dir` — requested global order across logical addresses. The returned
///   run is always stored ascending locally; `Descending` means logical
///   address order enumerates the *largest* keys first (each processor's
///   window is reversed at run granularity, not within the run).
/// * `phase` — tag namespace; distinct concurrent calls (e.g. the subcube
///   sorts inside different steps of the fault-tolerant algorithm) must use
///   distinct phases.
///
/// Every participating live processor must call this with identical
/// `members`, `dead_logical`, `dir`, `phase`, `protocol`, and equal-length
/// sorted-ascending runs. `scratch` is the node's handle on the run's slab
/// pool; after it warms up the compare-split substages stop allocating.
///
/// Returns this processor's final run (sorted ascending, same length).
#[allow(clippy::too_many_arguments)] // mirrors the paper's parameter list
pub async fn distributed_bitonic_sort<K, C>(
    ctx: &mut C,
    members: &[NodeId],
    my_logical: usize,
    dead_logical: Option<usize>,
    dir: Direction,
    run: Vec<K>,
    phase: u16,
    protocol: Protocol,
    scratch: &mut PoolHandle<K>,
) -> Vec<K>
where
    K: Key,
    C: Comm<K>,
{
    let p = members.len();
    assert!(p.is_power_of_two(), "member count must be a power of two");
    let s = p.trailing_zeros() as usize;
    assert!(my_logical < p, "logical address out of range");
    if let Some(dead) = dead_logical {
        assert_eq!(dead, 0, "dead processor must be reindexed to logical 0");
        assert_ne!(my_logical, 0, "the dead processor does not participate");
    }
    debug_assert!(crate::seq::is_sorted(&run), "local run must be sorted");

    ctx.span_enter(phase);
    let mut run = run;
    for i in 0..s {
        for j in (0..=i).rev() {
            let partner_logical = my_logical ^ (1 << j);
            if dead_logical == Some(partner_logical) {
                continue; // paper §2.1: the fault's partner keeps its run
            }
            let keep_low_asc = (my_logical >> (i + 1)) & 1 == (my_logical >> j) & 1;
            let keep_low = match dir {
                Direction::Ascending => keep_low_asc,
                Direction::Descending => !keep_low_asc,
            };
            let keep = if keep_low {
                KeepHalf::Low
            } else {
                KeepHalf::High
            };
            run = compare_split_remote(
                ctx,
                members[partner_logical],
                Tag::phase(phase, i as u16, j as u16),
                run,
                keep,
                protocol,
                scratch,
            )
            .await;
        }
    }
    ctx.span_exit();
    run
}

/// The distributed bitonic **merge**: sorts a distributed sequence that is
/// already *bitonic at window granularity* in `s` substages instead of the
/// full sort's `s(s+1)/2`.
///
/// Requirements (beyond [`distributed_bitonic_sort`]'s):
/// * every local run sorted ascending, all runs equal length;
/// * the window sequence (in logical-address order, skipping the dead
///   processor) is bitonic — for [`Direction::Ascending`] in the
///   ascending-then-descending form (so that a conceptual `−∞` block at the
///   dead logical address 0 keeps it bitonic), for
///   [`Direction::Descending`] in the descending-then-ascending (cyclically
///   bitonic) form (`+∞` block at address 0 keeps it cyclically bitonic).
///
/// These are exactly the forms a compare-split leaves on the Low-keeping
/// side (ascending) and the High-keeping side (descending), which is how
/// the fault-tolerant sort's step 8 uses this merge.
#[allow(clippy::too_many_arguments)] // mirrors the paper's parameter list
pub async fn distributed_bitonic_merge<K, C>(
    ctx: &mut C,
    members: &[NodeId],
    my_logical: usize,
    dead_logical: Option<usize>,
    dir: Direction,
    run: Vec<K>,
    phase: u16,
    protocol: Protocol,
    scratch: &mut PoolHandle<K>,
) -> Vec<K>
where
    K: Key,
    C: Comm<K>,
{
    let p = members.len();
    assert!(p.is_power_of_two(), "member count must be a power of two");
    let s = p.trailing_zeros() as usize;
    assert!(my_logical < p, "logical address out of range");
    if let Some(dead) = dead_logical {
        assert_eq!(dead, 0, "dead processor must be reindexed to logical 0");
        assert_ne!(my_logical, 0, "the dead processor does not participate");
    }
    debug_assert!(crate::seq::is_sorted(&run), "local run must be sorted");

    ctx.span_enter(phase);
    let mut run = run;
    for j in (0..s).rev() {
        let partner_logical = my_logical ^ (1 << j);
        if dead_logical == Some(partner_logical) {
            continue;
        }
        let keep_low_asc = (my_logical >> j) & 1 == 0;
        let keep_low = match dir {
            Direction::Ascending => keep_low_asc,
            Direction::Descending => !keep_low_asc,
        };
        let keep = if keep_low {
            KeepHalf::Low
        } else {
            KeepHalf::High
        };
        run = compare_split_remote(
            ctx,
            members[partner_logical],
            Tag::phase(phase, s as u16, j as u16),
            run,
            keep,
            protocol,
            scratch,
        )
        .await;
    }
    ctx.span_exit();
    run
}

/// Reverses the distributed window order in one exchange substage: after a
/// globally *ascending* sequence passes through this, it is globally
/// *descending* (and vice versa), with every local run still stored
/// ascending. Used by the fault-tolerant sort to flip a subcube's order
/// when the schedule demands the direction its merge could not produce.
pub async fn reverse_windows<K, C>(
    ctx: &mut C,
    members: &[NodeId],
    my_logical: usize,
    dead_logical: Option<usize>,
    run: Vec<K>,
    phase: u16,
) -> Vec<K>
where
    K: Key,
    C: Comm<K>,
{
    let p = members.len();
    let partner_logical = match dead_logical {
        // live windows are (w − 1) for w = 1..p-1; reversal pairs w ↔ p − w
        Some(0) => p - my_logical,
        None => p - 1 - my_logical,
        Some(_) => unreachable!("dead processor must be logical 0"),
    };
    if partner_logical == my_logical {
        return run; // middle window stays put
    }
    ctx.span_enter(phase);
    let swapped = ctx
        .exchange(
            members[partner_logical],
            Tag::phase(phase, u16::MAX, 0),
            run,
        )
        .await;
    ctx.span_exit();
    swapped
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypercube::cost::CostModel;
    use hypercube::fault::FaultSet;
    use hypercube::sim::{BufferPool, Engine};
    use hypercube::topology::Hypercube;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Runs the distributed sort on a fault-free `Q_s` with identity mapping
    /// and returns the concatenated result in logical order.
    fn run_sort(
        s: usize,
        chunks: Vec<Vec<u32>>,
        dead: Option<usize>,
        dir: Direction,
        protocol: Protocol,
    ) -> Vec<Vec<u32>> {
        let p = 1usize << s;
        assert_eq!(chunks.len(), p);
        let members: Vec<NodeId> = (0..p).map(NodeId::from).collect();
        let engine = Engine::new(FaultSet::none(Hypercube::new(s)), CostModel::paper_form());
        let inputs: Vec<Option<Vec<u32>>> = chunks
            .into_iter()
            .enumerate()
            .map(|(i, c)| if dead == Some(i) { None } else { Some(c) })
            .collect();
        let members_ref = &members;
        let pool = &BufferPool::new();
        let out = engine.run(inputs, async move |ctx, mut data| {
            data.sort_unstable();
            let mut scratch = pool.handle();
            distributed_bitonic_sort(
                ctx,
                members_ref,
                ctx.me().index(),
                dead,
                dir,
                data,
                1,
                protocol,
                &mut scratch,
            )
            .await
        });
        let mut result: Vec<Vec<u32>> = vec![Vec::new(); p];
        for (node, run) in out.into_results() {
            result[node.index()] = run;
        }
        result
    }

    fn flatten(chunks: &[Vec<u32>]) -> Vec<u32> {
        chunks.iter().flatten().copied().collect()
    }

    #[test]
    fn sorts_ascending_across_processors() {
        for protocol in [Protocol::FullExchange, Protocol::HalfExchange] {
            let chunks = vec![vec![9, 3, 7], vec![1, 8, 2], vec![6, 6, 0], vec![5, 4, 10]];
            let sorted = run_sort(2, chunks, None, Direction::Ascending, protocol);
            assert_eq!(
                flatten(&sorted),
                vec![0, 1, 2, 3, 4, 5, 6, 6, 7, 8, 9, 10],
                "{protocol:?}"
            );
        }
    }

    #[test]
    fn sorts_descending_across_processors() {
        let chunks = vec![vec![9, 3], vec![1, 8], vec![6, 0], vec![5, 4]];
        let sorted = run_sort(
            2,
            chunks,
            None,
            Direction::Descending,
            Protocol::HalfExchange,
        );
        // windows descend across processors; runs stay ascending locally
        assert_eq!(flatten(&sorted), vec![8, 9, 5, 6, 3, 4, 0, 1]);
        for run in &sorted {
            assert!(crate::seq::is_sorted(run));
        }
    }

    #[test]
    fn single_dead_processor_at_zero_ascending() {
        for protocol in [Protocol::FullExchange, Protocol::HalfExchange] {
            let chunks = vec![
                vec![], // dead
                vec![9, 3, 7],
                vec![1, 8, 2],
                vec![6, 0, 5],
            ];
            let sorted = run_sort(2, chunks, Some(0), Direction::Ascending, protocol);
            assert!(sorted[0].is_empty());
            assert_eq!(
                flatten(&sorted),
                vec![0, 1, 2, 3, 5, 6, 7, 8, 9],
                "{protocol:?}"
            );
        }
    }

    #[test]
    fn single_dead_processor_at_zero_descending() {
        let chunks = vec![vec![], vec![9, 3], vec![1, 8], vec![6, 0]];
        let sorted = run_sort(
            2,
            chunks,
            Some(0),
            Direction::Descending,
            Protocol::HalfExchange,
        );
        assert_eq!(flatten(&sorted), vec![8, 9, 3, 6, 0, 1]);
    }

    #[test]
    fn random_inputs_all_cube_sizes() {
        let mut rng = StdRng::seed_from_u64(3);
        for s in 1..=4 {
            for protocol in [Protocol::FullExchange, Protocol::HalfExchange] {
                for dead in [None, Some(0)] {
                    let p = 1usize << s;
                    let k = rng.random_range(1..8);
                    let chunks: Vec<Vec<u32>> = (0..p)
                        .map(|i| {
                            if dead == Some(i) {
                                Vec::new()
                            } else {
                                (0..k).map(|_| rng.random_range(0..1000)).collect()
                            }
                        })
                        .collect();
                    let mut expect = flatten(&chunks);
                    expect.sort_unstable();
                    let sorted = run_sort(s, chunks, dead, Direction::Ascending, protocol);
                    assert_eq!(flatten(&sorted), expect, "s={s} dead={dead:?} {protocol:?}");
                    for (i, run) in sorted.iter().enumerate() {
                        if dead != Some(i) {
                            assert_eq!(run.len(), k as usize, "run length preserved");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_one_principle_spot_check() {
        // exhaustive 0/1 inputs on Q2 with k=1: 4 positions, all 16 patterns
        for pattern in 0..16u32 {
            let chunks: Vec<Vec<u32>> = (0..4).map(|i| vec![(pattern >> i) & 1]).collect();
            let mut expect = flatten(&chunks);
            expect.sort_unstable();
            let sorted = run_sort(
                2,
                chunks,
                None,
                Direction::Ascending,
                Protocol::HalfExchange,
            );
            assert_eq!(flatten(&sorted), expect, "pattern {pattern:04b}");
        }
    }

    /// Runs the distributed merge with the given window chunks.
    fn run_merge(
        s: usize,
        chunks: Vec<Vec<u32>>,
        dead: Option<usize>,
        dir: Direction,
    ) -> Vec<Vec<u32>> {
        let p = 1usize << s;
        let members: Vec<NodeId> = (0..p).map(NodeId::from).collect();
        let engine = Engine::new(FaultSet::none(Hypercube::new(s)), CostModel::paper_form());
        let inputs: Vec<Option<Vec<u32>>> = chunks
            .into_iter()
            .enumerate()
            .map(|(i, c)| if dead == Some(i) { None } else { Some(c) })
            .collect();
        let members_ref = &members;
        let pool = &BufferPool::new();
        let out = engine.run(inputs, async move |ctx, data| {
            let mut scratch = pool.handle();
            distributed_bitonic_merge(
                ctx,
                members_ref,
                ctx.me().index(),
                dead,
                dir,
                data,
                1,
                Protocol::HalfExchange,
                &mut scratch,
            )
            .await
        });
        let mut result: Vec<Vec<u32>> = vec![Vec::new(); p];
        for (node, run) in out.into_results() {
            result[node.index()] = run;
        }
        result
    }

    /// Builds window chunks whose concatenation is an
    /// ascending-then-descending (form A) or descending-then-ascending
    /// (form B) sequence, each window internally ascending.
    fn bitonic_windows(rng: &mut StdRng, windows: usize, k: usize, cyclic: bool) -> Vec<Vec<u32>> {
        let total = windows * k;
        let mut vals: Vec<u32> = (0..total).map(|_| rng.random_range(0..1000)).collect();
        vals.sort_unstable();
        let peak = rng.random_range(0..=total);
        let seq: Vec<u32> = if cyclic {
            // descending prefix then ascending suffix: take the largest
            // `peak` values descending, then the rest ascending
            let split = total - peak;
            let (low, high) = vals.split_at(split);
            high.iter().rev().chain(low.iter()).copied().collect()
        } else {
            // ascending prefix then descending suffix
            let (low, high) = vals.split_at(peak);
            low.iter().chain(high.iter().rev()).copied().collect()
        };
        seq.chunks(k)
            .map(|c| {
                let mut w = c.to_vec();
                w.sort_unstable();
                w
            })
            .collect()
    }

    #[test]
    fn merge_sorts_form_a_ascending() {
        let mut rng = StdRng::seed_from_u64(8);
        for s in 1..=4 {
            for _ in 0..20 {
                let p = 1usize << s;
                let k = rng.random_range(1..6);
                let wins = bitonic_windows(&mut rng, p, k, false);
                let mut expect = flatten(&wins);
                expect.sort_unstable();
                let out = run_merge(s, wins, None, Direction::Ascending);
                assert_eq!(flatten(&out), expect, "s={s}");
            }
        }
    }

    #[test]
    fn merge_sorts_form_b_descending() {
        let mut rng = StdRng::seed_from_u64(9);
        for s in 1..=4 {
            for _ in 0..20 {
                let p = 1usize << s;
                let k = rng.random_range(1..6);
                let wins = bitonic_windows(&mut rng, p, k, true);
                let mut expect = flatten(&wins);
                expect.sort_unstable();
                expect.reverse();
                // descending global order with ascending local runs: reverse
                // window-by-window
                let expect: Vec<u32> = expect
                    .chunks(k)
                    .flat_map(|c| c.iter().rev().copied())
                    .collect();
                let out = run_merge(s, wins, None, Direction::Descending);
                assert_eq!(flatten(&out), expect, "s={s}");
            }
        }
    }

    #[test]
    fn merge_with_dead_node_form_a_ascending() {
        let mut rng = StdRng::seed_from_u64(10);
        for s in 1..=4 {
            for _ in 0..20 {
                let p = 1usize << s;
                let k = rng.random_range(1..6);
                let mut wins = bitonic_windows(&mut rng, p - 1, k, false);
                wins.insert(0, Vec::new()); // dead at logical 0
                let mut expect = flatten(&wins);
                expect.sort_unstable();
                let out = run_merge(s, wins, Some(0), Direction::Ascending);
                assert!(out[0].is_empty());
                assert_eq!(flatten(&out), expect, "s={s}");
            }
        }
    }

    #[test]
    fn merge_with_dead_node_form_b_descending() {
        let mut rng = StdRng::seed_from_u64(11);
        for s in 1..=4 {
            for _ in 0..20 {
                let p = 1usize << s;
                let k = rng.random_range(1..6);
                let mut wins = bitonic_windows(&mut rng, p - 1, k, true);
                wins.insert(0, Vec::new());
                let mut all = flatten(&wins);
                all.sort_unstable();
                all.reverse();
                let expect: Vec<u32> = all
                    .chunks(k)
                    .flat_map(|c| c.iter().rev().copied())
                    .collect();
                let out = run_merge(s, wins, Some(0), Direction::Descending);
                assert!(out[0].is_empty());
                assert_eq!(flatten(&out), expect, "s={s}");
            }
        }
    }

    #[test]
    fn reverse_windows_flips_global_order() {
        for dead in [None, Some(0usize)] {
            let s = 3;
            let p = 1usize << s;
            let k = 2;
            let start = if dead.is_some() { 1 } else { 0 };
            // ascending windows: node i holds [base, base+1]
            let chunks: Vec<Vec<u32>> = (0..p)
                .map(|i| {
                    if dead == Some(i) {
                        Vec::new()
                    } else {
                        let x = ((i - start) * k) as u32;
                        vec![x, x + 1]
                    }
                })
                .collect();
            let members: Vec<NodeId> = (0..p).map(NodeId::from).collect();
            let engine = Engine::new(FaultSet::none(Hypercube::new(s)), CostModel::paper_form());
            let inputs: Vec<Option<Vec<u32>>> = chunks
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    if dead == Some(i) {
                        None
                    } else {
                        Some(c.clone())
                    }
                })
                .collect();
            let members_ref = &members;
            let out = engine.run(inputs, async move |ctx, data| {
                reverse_windows(ctx, members_ref, ctx.me().index(), dead, data, 9).await
            });
            let mut result: Vec<Vec<u32>> = vec![Vec::new(); p];
            for (node, run) in out.into_results() {
                result[node.index()] = run;
            }
            // now windows must descend across nodes, runs still ascending
            let live: Vec<&Vec<u32>> = result
                .iter()
                .enumerate()
                .filter(|(i, _)| dead != Some(*i))
                .map(|(_, r)| r)
                .collect();
            let total = live.len() * k;
            for (idx, r) in live.iter().enumerate() {
                let top = (total - idx * k) as u32;
                assert_eq!(**r, vec![top - 2, top - 1], "dead={dead:?} idx={idx}");
            }
        }
    }

    #[test]
    fn non_identity_member_mapping() {
        // members permuted by XOR with 0b101 (a reindexing): physical node
        // `logical ^ 5` hosts logical address `logical`.
        let s = 3;
        let p = 1usize << s;
        let mask = 0b101u32;
        let members: Vec<NodeId> = (0..p as u32).map(|l| NodeId::new(l ^ mask)).collect();
        let engine = Engine::new(FaultSet::none(Hypercube::new(s)), CostModel::paper_form());
        let inputs: Vec<Option<Vec<u32>>> = (0..p as u32)
            .map(|phys| Some(vec![phys * 7 % 13, phys * 3 % 11]))
            .collect();
        let members_ref = &members;
        let pool = &BufferPool::new();
        let out = engine.run(inputs, async move |ctx, mut data| {
            data.sort_unstable();
            let my_logical = (ctx.me().raw() ^ mask) as usize;
            let mut scratch = pool.handle();
            distributed_bitonic_sort(
                ctx,
                members_ref,
                my_logical,
                None,
                Direction::Ascending,
                data,
                1,
                Protocol::HalfExchange,
                &mut scratch,
            )
            .await
        });
        // gather in *logical* order
        let results = out.into_results();
        let mut by_logical: Vec<Vec<u32>> = vec![Vec::new(); p];
        for (node, run) in results {
            by_logical[(node.raw() ^ mask) as usize] = run;
        }
        let flat = flatten(&by_logical);
        let mut expect = flat.clone();
        expect.sort_unstable();
        assert_eq!(flat, expect);
    }
}
