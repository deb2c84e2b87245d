//! Pairwise compare-split kernels.
//!
//! A *compare-split* between processors `A` and `B`, each holding a sorted
//! run of `k` keys, must leave the `k` smallest keys of the union on the
//! `Low`-keeping side and the `k` largest on the `High` side, both sorted.
//!
//! The reversed element-wise pairing `(a_t, b_{k-1-t})` splits two arbitrary
//! ascending runs exactly: among `a_0..a_t` and `b_0..b_{k-1-t}` there are
//! `k+1` keys ≤ `max(a_t, b_{k-1-t})`, so the pair's max can never be among
//! the `k` smallest, and symmetrically its min can never be among the `k`
//! largest. The paper's protocol (§2.1, step 7) exploits this to ship only
//! half a run in each direction and compare element-wise; the classic
//! alternative ships whole runs and merges.

use crate::seq::{
    merge_keep_high_branchless_into, merge_keep_low_branchless_into, merge_runs,
    merge_runs_auto_into, Key,
};
use hypercube::address::NodeId;
use hypercube::sim::{NodeCtx, PoolHandle, Tag};

/// Which half of the union this processor keeps.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum KeepHalf {
    /// Keep the `k` smallest keys.
    Low,
    /// Keep the `k` largest keys.
    High,
}

impl KeepHalf {
    /// The half the partner keeps.
    pub fn other(self) -> KeepHalf {
        match self {
            KeepHalf::Low => KeepHalf::High,
            KeepHalf::High => KeepHalf::Low,
        }
    }
}

/// Wire protocol for compare-split exchanges.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Protocol {
    /// Exchange entire runs, merge locally, keep the wanted half.
    /// `2k` comparisons per side, `k` keys sent per side in one round.
    FullExchange,
    /// The paper's protocol: each side sends ~half its run, compares the
    /// received keys element-wise against its unsent half, keeps the winners
    /// and returns the losers. Two rounds of ~`k/2` keys per side and only
    /// ~`k/2` element-wise comparisons per side (plus the local re-merge).
    #[default]
    HalfExchange,
}

/// Marks the two message rounds of [`Protocol::HalfExchange`] inside one
/// compare-split; the top two tag bits are reserved for this.
fn round_tag(tag: Tag, round: u64) -> Tag {
    debug_assert!(round < 4);
    debug_assert_eq!(tag.0 >> 62, 0, "top tag bits reserved for protocol rounds");
    Tag(tag.0 | (round << 62))
}

/// Local (single-address-space) compare-split, used for testing the kernels
/// and by host-side reference computations: returns `(low, high)`.
pub fn compare_split_local<K: Ord>(a: Vec<K>, b: Vec<K>) -> (Vec<K>, Vec<K>) {
    let k = a.len();
    assert_eq!(k, b.len(), "compare-split requires equal-length runs");
    let (merged, _) = merge_runs(a, b);
    let mut low = merged;
    let high = low.split_off(k);
    (low, high)
}

/// Distributed compare-split over the simulated machine.
///
/// `run` must be sorted ascending and the partner must call this function
/// with the same `tag`, the same `protocol`, and the opposite `keep`.
/// Returns this side's kept half, sorted ascending. Comparisons and element
/// transfers are charged to the node's clock and counters.
///
/// `scratch` is the node's handle on the run's slab pool: all intermediate
/// runs (merge outputs, loser halves, the `FullExchange` working copy) are
/// taken from and returned to it, so a warm pool makes the call
/// allocation-free. The returned run itself comes from the pool; hand it
/// back (directly or via a later send whose reply is pooled) to keep the
/// cycle closed.
pub async fn compare_split_remote<K: Key>(
    ctx: &mut NodeCtx<K>,
    partner: NodeId,
    tag: Tag,
    run: Vec<K>,
    keep: KeepHalf,
    protocol: Protocol,
    scratch: &mut PoolHandle<K>,
) -> Vec<K> {
    debug_assert!(crate::seq::is_sorted(&run), "run must be sorted ascending");
    match protocol {
        Protocol::FullExchange => {
            let k = run.len();
            // working copy from the pool; the original ships to the partner
            let mut mine = scratch.take(k);
            mine.extend(run.iter().cloned());
            let mut theirs = ctx.exchange(partner, round_tag(tag, 0), run).await;
            assert_eq!(theirs.len(), k, "partner run length mismatch");
            let mut kept = scratch.take(k);
            let comparisons = match keep {
                KeepHalf::Low => {
                    merge_keep_low_branchless_into(&mut mine, &mut theirs, k, &mut kept)
                }
                KeepHalf::High => {
                    merge_keep_high_branchless_into(&mut mine, &mut theirs, k, &mut kept)
                }
            };
            ctx.charge_comparisons(comparisons as usize);
            scratch.put(mine);
            scratch.put(theirs);
            kept
        }
        Protocol::HalfExchange => half_exchange(ctx, partner, tag, run, keep, scratch).await,
    }
}

/// The paper's two-round protocol, adapted to ascending-stored runs.
///
/// With `h = ⌊k/2⌋` and the pairing `(a_t, b_{k-1-t})` (`a` on the Low side,
/// `b` on the High side):
/// * the Low side sends its top `k − h` keys, receives the High side's top
///   `h`, decides pairs `t < h` locally (keeps mins, returns maxes), and
///   receives the mins of the remaining pairs back;
/// * the High side does the mirror image.
///
/// Because `a_t` rises while `b_{k-1-t}` falls with `t`, each side's pair
/// loop has a single winner crossover, so the kept and returned sets fall
/// out as **contiguous sorted slices** — no re-scan is needed, only merges.
/// Returned keys are normalized (merged) before sending so each round is a
/// single sorted message.
async fn half_exchange<K: Key>(
    ctx: &mut NodeCtx<K>,
    partner: NodeId,
    tag: Tag,
    run: Vec<K>,
    keep: KeepHalf,
    scratch: &mut PoolHandle<K>,
) -> Vec<K> {
    let k = run.len();
    let h = k / 2;
    match keep {
        KeepHalf::Low => {
            let mut mine = run;
            let mut top = scratch.take(k - h);
            top.extend(mine.drain(h..)); // a[h..k] → partner
            ctx.send(partner, round_tag(tag, 0), top);
            // partner's top h keys: b[k-h..k] ascending; received[i] = b[k-h+i]
            let mut received = ctx.recv(partner, round_tag(tag, 0)).await;
            assert_eq!(received.len(), h, "protocol size mismatch");
            // pairs t in 0..h: (a_t, b_{k-1-t}) with b_{k-1-t} = received[h-1-t].
            // a wins (is the min) on a prefix t < c.
            let mut c = h;
            let mut scanned = 0usize;
            for t in 0..h {
                scanned += 1;
                if mine[t] > received[h - 1 - t] {
                    c = t;
                    break;
                }
            }
            ctx.charge_comparisons(scanned);
            let mut a_losers = scratch.take(h - c);
            a_losers.extend(mine.drain(c..)); // a[c..h] (maxes, ascending)
            let mut b_losers = scratch.take(c);
            b_losers.extend(received.drain(h - c..)); // b[k-c..k] (maxes, ascending)
                                                      // kept mins: a[0..c] = mine and b[k-h..k-c] = received, both ascending
            let mut kept = scratch.take(h);
            let c1 = merge_runs_auto_into(&mut mine, &mut received, &mut kept);
            // losers returned to the High side, normalized
            let mut losers = scratch.take(k - h);
            let c2 = merge_runs_auto_into(&mut a_losers, &mut b_losers, &mut losers);
            ctx.charge_comparisons((c1 + c2) as usize);
            scratch.put(mine);
            scratch.put(received);
            scratch.put(a_losers);
            scratch.put(b_losers);
            ctx.send(partner, round_tag(tag, 1), losers);
            let mut back = ctx.recv(partner, round_tag(tag, 1)).await;
            assert_eq!(back.len(), k - h, "protocol size mismatch");
            let mut result = scratch.take(k);
            let c3 = merge_runs_auto_into(&mut kept, &mut back, &mut result);
            ctx.charge_comparisons(c3 as usize);
            scratch.put(kept);
            scratch.put(back);
            result
        }
        KeepHalf::High => {
            let mut mine = run; // b, ascending
            let mut top = scratch.take(h);
            top.extend(mine.drain(k - h..)); // b[k-h..k] → partner
            ctx.send(partner, round_tag(tag, 0), top);
            // partner's top k-h keys: a[h..k]; received[i] = a[h+i]
            let mut received = ctx.recv(partner, round_tag(tag, 0)).await;
            assert_eq!(received.len(), k - h, "protocol size mismatch");
            // pairs t in h..k: (a_t, b_{k-1-t}) with a_t = received[t-h] and
            // b_{k-1-t} = mine[k-1-t]. a wins (is the max) on a suffix t ≥ c2.
            let mut c2 = k;
            let mut scanned = 0usize;
            for t in h..k {
                scanned += 1;
                if received[t - h] > mine[k - 1 - t] {
                    c2 = t;
                    break;
                }
            }
            ctx.charge_comparisons(scanned);
            let mut b_winners = scratch.take(c2 - h);
            b_winners.extend(mine.drain(k - c2..)); // b[k-c2..k-h] (maxes)
            let mut a_winners = scratch.take(k - c2);
            a_winners.extend(received.drain(c2 - h..)); // a[c2..k] (maxes)
                                                        // kept maxes: b[k-c2..k-h] and a[c2..k], both ascending
            let mut kept = scratch.take(h);
            let cc1 = merge_runs_auto_into(&mut b_winners, &mut a_winners, &mut kept);
            // losers (mins) returned to the Low side: a[h..c2] = received and
            // b[0..k-c2] = mine
            let mut losers = scratch.take(k - h);
            let cc2 = merge_runs_auto_into(&mut received, &mut mine, &mut losers);
            ctx.charge_comparisons((cc1 + cc2) as usize);
            scratch.put(mine);
            scratch.put(received);
            scratch.put(b_winners);
            scratch.put(a_winners);
            ctx.send(partner, round_tag(tag, 1), losers);
            let mut back = ctx.recv(partner, round_tag(tag, 1)).await;
            assert_eq!(back.len(), h, "protocol size mismatch");
            let mut result = scratch.take(k);
            let cc3 = merge_runs_auto_into(&mut kept, &mut back, &mut result);
            ctx.charge_comparisons(cc3 as usize);
            scratch.put(kept);
            scratch.put(back);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypercube::cost::CostModel;
    use hypercube::fault::FaultSet;
    use hypercube::sim::{BufferPool, Engine};
    use hypercube::stats::RunStats;
    use hypercube::topology::Hypercube;

    #[test]
    fn local_kernel_splits_exactly() {
        let (lo, hi) = compare_split_local(vec![1, 4, 7], vec![2, 3, 9]);
        assert_eq!(lo, vec![1, 2, 3]);
        assert_eq!(hi, vec![4, 7, 9]);
    }

    #[test]
    fn local_kernel_disjoint_and_equal_runs() {
        let (lo, hi) = compare_split_local(vec![10, 11], vec![1, 2]);
        assert_eq!(lo, vec![1, 2]);
        assert_eq!(hi, vec![10, 11]);
        let (lo, hi) = compare_split_local(vec![5, 5], vec![5, 5]);
        assert_eq!(lo, vec![5, 5]);
        assert_eq!(hi, vec![5, 5]);
    }

    /// Runs both protocols on a 1-cube and checks they agree with the local
    /// kernel.
    fn check_remote(a: Vec<u32>, b: Vec<u32>) {
        let (want_lo, want_hi) = compare_split_local(a.clone(), b.clone());
        for protocol in [Protocol::FullExchange, Protocol::HalfExchange] {
            let engine = Engine::new(FaultSet::none(Hypercube::new(1)), CostModel::paper_form());
            let inputs = vec![Some(a.clone()), Some(b.clone())];
            let pool = &BufferPool::new();
            let (results, _) = engine.run(inputs, async move |ctx, data| {
                let keep = if ctx.me().raw() == 0 {
                    KeepHalf::Low
                } else {
                    KeepHalf::High
                };
                let mut scratch = pool.handle();
                compare_split_remote(
                    ctx,
                    ctx.me().neighbor(0),
                    Tag::new(7),
                    data,
                    keep,
                    protocol,
                    &mut scratch,
                )
                .await
            });
            assert_eq!(results[0], want_lo, "{protocol:?} low side");
            assert_eq!(results[1], want_hi, "{protocol:?} high side");
        }
    }

    #[test]
    fn remote_protocols_match_local_kernel() {
        check_remote(vec![1, 4, 7, 10], vec![2, 3, 9, 11]);
        check_remote(vec![1, 2, 3, 4], vec![5, 6, 7, 8]);
        check_remote(vec![5, 6, 7, 8], vec![1, 2, 3, 4]);
        check_remote(vec![3, 3, 3], vec![3, 3, 3]); // odd k, all ties
        check_remote(vec![9], vec![1]); // k = 1
        check_remote(vec![], vec![]); // k = 0
        check_remote(vec![2, 4, 6, 8, 10], vec![1, 3, 5, 7, 9]); // odd k
    }

    #[test]
    fn remote_protocols_random() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..30 {
            let k = rng.random_range(1..40);
            let mut a: Vec<u32> = (0..k).map(|_| rng.random_range(0..100)).collect();
            let mut b: Vec<u32> = (0..k).map(|_| rng.random_range(0..100)).collect();
            a.sort_unstable();
            b.sort_unstable();
            check_remote(a, b);
        }
    }

    #[test]
    fn half_exchange_sends_fewer_initial_elements_but_more_messages() {
        let run_with = |protocol: Protocol| {
            let engine = Engine::new(FaultSet::none(Hypercube::new(1)), CostModel::paper_form());
            let a: Vec<u32> = (0..100).map(|i| i * 2).collect();
            let b: Vec<u32> = (0..100).map(|i| i * 2 + 1).collect();
            let pool = &BufferPool::new();
            let (_, obs) = engine.run(vec![Some(a), Some(b)], async move |ctx, data| {
                let keep = if ctx.me().raw() == 0 {
                    KeepHalf::Low
                } else {
                    KeepHalf::High
                };
                let mut scratch = pool.handle();
                compare_split_remote(
                    ctx,
                    ctx.me().neighbor(0),
                    Tag::new(1),
                    data,
                    keep,
                    protocol,
                    &mut scratch,
                )
                .await
            });
            obs.nodes.iter().map(|n| n.stats).sum::<RunStats>()
        };
        let full = run_with(Protocol::FullExchange);
        let half = run_with(Protocol::HalfExchange);
        // Both protocols move 2k keys in total, but the paper's protocol
        // splits them into twice as many messages of half the size, halving
        // the peak per-round link traffic (and per-node buffer space).
        assert_eq!(full.elements_sent, 200);
        assert_eq!(half.elements_sent, 200);
        assert_eq!(full.messages, 2);
        assert_eq!(half.messages, 4);
        assert_eq!(full.max_message_elements, 100);
        assert_eq!(half.max_message_elements, 50);
        // Which protocol compares more depends on the keys. On these two
        // interleaved runs half-exchange's element-wise pass and re-merge
        // cost more than full exchange's merge; on `ftsort-cli sort --n 6
        // --faults 9,22,51,13,40 --m 16000` it makes fewer comparisons
        // (620,720 against 637,811 with `--protocol full`).
        assert_eq!((half.comparisons, full.comparisons), (249, 200));
    }
}
