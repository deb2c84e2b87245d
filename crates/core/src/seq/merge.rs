//! Scalar reference merge kernels for sorted and bitonic runs.
//!
//! Every kernel exists in two forms: an owning form (`merge_runs`, …) that
//! allocates its output, and an `_into` form that drains the inputs into a
//! caller-supplied buffer, leaving the input allocations intact for reuse.
//! The `_into` forms, together with the run's slab pool
//! ([`hypercube::sim::BufferPool`]), make a compare-split round
//! allocation-free once the pool is warm. Both
//! forms perform identical comparison sequences, so charged virtual time
//! does not depend on which is used.
//!
//! These kernels work over any `K: Ord` and serve as the semantic reference:
//! the compare-split hot path now runs the branchless/cache-blocked kernels
//! ([`crate::seq::merge_runs_auto_into`] & co., over `K: Key`), which are
//! pinned to these by differential tests — identical outputs *and* identical
//! comparison counts, so the cost model cannot tell them apart.

/// Merges ascending `a` and `b` into `out` (cleared first), draining both
/// inputs but keeping their allocations. Returns the number of comparisons
/// performed (≤ `a.len() + b.len() − 1`, the quantity the paper's
/// step 7(c) charges).
pub fn merge_runs_into<K: Ord>(a: &mut Vec<K>, b: &mut Vec<K>, out: &mut Vec<K>) -> u64 {
    out.clear();
    out.reserve(a.len() + b.len());
    let mut comparisons = 0u64;
    let mut ai = a.drain(..).peekable();
    let mut bi = b.drain(..).peekable();
    loop {
        match (ai.peek(), bi.peek()) {
            (Some(x), Some(y)) => {
                comparisons += 1;
                if x <= y {
                    out.push(ai.next().unwrap());
                } else {
                    out.push(bi.next().unwrap());
                }
            }
            (Some(_), None) => {
                out.extend(ai);
                break;
            }
            (None, _) => {
                out.extend(bi);
                break;
            }
        }
    }
    comparisons
}

/// Merges two ascending runs into one ascending run, returning the merged
/// run and the comparison count. Owning wrapper over [`merge_runs_into`].
pub fn merge_runs<K: Ord>(mut a: Vec<K>, mut b: Vec<K>) -> (Vec<K>, u64) {
    let mut out = Vec::new();
    let comparisons = merge_runs_into(&mut a, &mut b, &mut out);
    (out, comparisons)
}

/// Merges ascending `a` and `b` into `out` (cleared first) keeping only the
/// `keep` smallest keys — the truncated merge a `Low`-keeping compare-split
/// needs. At most `keep` comparisons. Drains both inputs (losers included),
/// keeping their allocations.
pub fn merge_keep_low_into<K: Ord>(
    a: &mut Vec<K>,
    b: &mut Vec<K>,
    keep: usize,
    out: &mut Vec<K>,
) -> u64 {
    debug_assert!(keep <= a.len() + b.len());
    out.clear();
    out.reserve(keep);
    let mut comparisons = 0u64;
    let mut ai = a.drain(..).peekable();
    let mut bi = b.drain(..).peekable();
    while out.len() < keep {
        match (ai.peek(), bi.peek()) {
            (Some(x), Some(y)) => {
                comparisons += 1;
                if x <= y {
                    out.push(ai.next().unwrap());
                } else {
                    out.push(bi.next().unwrap());
                }
            }
            (Some(_), None) => out.push(ai.next().unwrap()),
            (None, Some(_)) => out.push(bi.next().unwrap()),
            (None, None) => unreachable!("keep exceeds input size"),
        }
    }
    comparisons
}

/// Merges two ascending runs but keeps only the `keep` smallest keys.
/// Owning wrapper over [`merge_keep_low_into`].
pub fn merge_keep_low<K: Ord>(mut a: Vec<K>, mut b: Vec<K>, keep: usize) -> (Vec<K>, u64) {
    let mut out = Vec::new();
    let comparisons = merge_keep_low_into(&mut a, &mut b, keep, &mut out);
    (out, comparisons)
}

/// Merges ascending `a` and `b` into `out` (cleared first) keeping only the
/// `keep` largest keys, by merging from the back. At most `keep`
/// comparisons. Drains both inputs (losers included), keeping their
/// allocations.
pub fn merge_keep_high_into<K: Ord>(
    a: &mut Vec<K>,
    b: &mut Vec<K>,
    keep: usize,
    out: &mut Vec<K>,
) -> u64 {
    debug_assert!(keep <= a.len() + b.len());
    out.clear();
    out.reserve(keep);
    let mut comparisons = 0u64;
    while out.len() < keep {
        let take_a = match (a.last(), b.last()) {
            (Some(x), Some(y)) => {
                comparisons += 1;
                x > y
            }
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => unreachable!("keep exceeds input size"),
        };
        if take_a {
            out.push(a.pop().unwrap());
        } else {
            out.push(b.pop().unwrap());
        }
    }
    out.reverse();
    a.clear();
    b.clear();
    comparisons
}

/// Merges two ascending runs but keeps only the `keep` largest keys.
/// Owning wrapper over [`merge_keep_high_into`].
pub fn merge_keep_high<K: Ord>(mut a: Vec<K>, mut b: Vec<K>, keep: usize) -> (Vec<K>, u64) {
    let mut out = Vec::new();
    let comparisons = merge_keep_high_into(&mut a, &mut b, keep, &mut out);
    (out, comparisons)
}

/// Sorts a *bitonic* run (ascending prefix followed by descending suffix, or
/// the rotationally equivalent descending-then-ascending form produced by
/// element-wise compare-splits) into an ascending run.
///
/// Works in `O(k)` comparisons: locate the extremum, split into two monotone
/// pieces, and merge. Falls back gracefully on arbitrary monotone inputs
/// (already-ascending or already-descending runs are valid bitonic runs).
///
/// Returns the sorted run and the comparison count.
///
/// # Panics
/// Debug builds assert the output is actually sorted, which catches
/// non-bitonic inputs.
pub fn sort_bitonic_run<K: Ord>(run: Vec<K>) -> (Vec<K>, u64) {
    let k = run.len();
    if k <= 1 {
        return (run, 0);
    }
    let mut comparisons = 0u64;
    // A bitonic sequence (in the cyclic sense) has at most one ascent-to-
    // descent change and at most one descent-to-ascent change. Find the first
    // direction change; split there; both pieces are monotone.
    let mut split = k;
    let mut rising = true;
    for i in 1..k {
        comparisons += 1;
        let up = run[i - 1] <= run[i];
        if i == 1 {
            rising = up;
            continue;
        }
        if up != rising {
            split = i;
            break;
        }
    }
    let mut head: Vec<K> = run;
    let tail: Vec<K> = head.split_off(split.min(k));
    if !rising {
        head.reverse();
    } else {
        // tail is the descending part (or empty)
    }
    let tail = {
        let mut t = tail;
        // tail is monotone in the opposite sense of head's original sense
        if rising {
            t.reverse();
        }
        t
    };
    // `head` and `tail` are now both ascending — but a *cyclic* bitonic run
    // (descending-then-ascending) makes `tail` non-monotone after one
    // reversal is applied to the wrong piece. Handle it by checking and
    // re-splitting if needed.
    if !is_ascending(&tail, &mut comparisons) || !is_ascending(&head, &mut comparisons) {
        // Cyclic case: fall back to a counted insertion-free approach —
        // re-split the concatenation at its minimum.
        let mut all = head;
        all.extend(tail);
        // restore original order? `head` may have been reversed; order no
        // longer matters for correctness below because we re-sort from the
        // two monotone pieces around the global minimum of the original
        // cyclic sequence; simplest robust fallback: merge-sort the pieces.
        return merge_sort_counted(all, comparisons);
    }
    let (merged, c) = merge_runs(head, tail);
    comparisons += c;
    debug_assert!(super::is_sorted(&merged), "input was not bitonic");
    (merged, comparisons)
}

fn is_ascending<K: Ord>(run: &[K], comparisons: &mut u64) -> bool {
    for w in run.windows(2) {
        *comparisons += 1;
        if w[0] > w[1] {
            return false;
        }
    }
    true
}

/// Comparison-counted bottom-up merge sort, used as the robust fallback for
/// degenerate "bitonic" inputs.
fn merge_sort_counted<K: Ord>(data: Vec<K>, mut comparisons: u64) -> (Vec<K>, u64) {
    let mut runs: Vec<Vec<K>> = data.into_iter().map(|x| vec![x]).collect();
    while runs.len() > 1 {
        let mut next = Vec::with_capacity(runs.len().div_ceil(2));
        let mut it = runs.into_iter();
        while let Some(a) = it.next() {
            if let Some(b) = it.next() {
                let (m, c) = merge_runs(a, b);
                comparisons += c;
                next.push(m);
            } else {
                next.push(a);
            }
        }
        runs = next;
    }
    (runs.pop().unwrap_or_default(), comparisons)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::is_sorted;

    #[test]
    fn merge_basic() {
        let (m, c) = merge_runs(vec![1, 3, 5], vec![2, 4, 6]);
        assert_eq!(m, vec![1, 2, 3, 4, 5, 6]);
        assert!(c <= 5);
    }

    #[test]
    fn merge_empty_sides() {
        let (m, c) = merge_runs(Vec::<u32>::new(), vec![1, 2]);
        assert_eq!(m, vec![1, 2]);
        assert_eq!(c, 0);
        let (m, _) = merge_runs(vec![1, 2], Vec::new());
        assert_eq!(m, vec![1, 2]);
    }

    #[test]
    fn merge_is_stable_for_ties() {
        // ties prefer the left run (x <= y takes from `a` first)
        let (m, _) = merge_runs(vec![(1, 'a'), (2, 'a')], vec![(1, 'b'), (2, 'b')]);
        assert_eq!(m, vec![(1, 'a'), (1, 'b'), (2, 'a'), (2, 'b')]);
    }

    #[test]
    fn merge_disjoint_ranges() {
        let (m, c) = merge_runs(vec![10, 11, 12], vec![1, 2, 3]);
        assert_eq!(m, vec![1, 2, 3, 10, 11, 12]);
        assert!(c <= 5);
    }

    #[test]
    fn merge_keep_low_truncates_with_few_comparisons() {
        let (lo, c) = merge_keep_low(vec![1, 4, 7, 10], vec![2, 3, 9, 11], 4);
        assert_eq!(lo, vec![1, 2, 3, 4]);
        assert!(c <= 4);
    }

    #[test]
    fn merge_keep_high_truncates_with_few_comparisons() {
        let (hi, c) = merge_keep_high(vec![1, 4, 7, 10], vec![2, 3, 9, 11], 4);
        assert_eq!(hi, vec![7, 9, 10, 11]);
        assert!(c <= 4);
    }

    #[test]
    fn merge_keep_halves_partition_the_union() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let k = rng.random_range(0..20usize);
            let mut a: Vec<u32> = (0..k).map(|_| rng.random_range(0..50)).collect();
            let mut b: Vec<u32> = (0..k).map(|_| rng.random_range(0..50)).collect();
            a.sort_unstable();
            b.sort_unstable();
            let (lo, _) = merge_keep_low(a.clone(), b.clone(), k);
            let (hi, _) = merge_keep_high(a.clone(), b.clone(), k);
            let mut both: Vec<u32> = lo.iter().chain(hi.iter()).copied().collect();
            both.sort_unstable();
            let mut expect: Vec<u32> = a.iter().chain(b.iter()).copied().collect();
            expect.sort_unstable();
            assert_eq!(both, expect);
            assert!(is_sorted(&lo));
            assert!(is_sorted(&hi));
            if let (Some(l), Some(h)) = (lo.last(), hi.first()) {
                assert!(l <= h);
            }
        }
    }

    #[test]
    fn merge_keep_degenerate_sizes() {
        let (lo, _) = merge_keep_low(Vec::<u32>::new(), vec![], 0);
        assert!(lo.is_empty());
        let (lo, _) = merge_keep_low(vec![5], vec![3], 1);
        assert_eq!(lo, vec![3]);
        let (hi, _) = merge_keep_high(vec![5], vec![3], 1);
        assert_eq!(hi, vec![5]);
        let (hi, _) = merge_keep_high(vec![1, 2], vec![3, 4], 4);
        assert_eq!(hi, vec![1, 2, 3, 4]);
    }

    #[test]
    fn merge_keep_low_keeps_nothing_with_zero_comparisons() {
        // keep == 0 on non-empty inputs: nothing kept, nothing compared
        let (lo, c) = merge_keep_low(vec![1, 4, 7], vec![2, 3], 0);
        assert!(lo.is_empty());
        assert_eq!(c, 0);
        let (hi, c) = merge_keep_high(vec![1, 4, 7], vec![2, 3], 0);
        assert!(hi.is_empty());
        assert_eq!(c, 0);
    }

    #[test]
    fn merge_keep_low_full_keep_is_a_plain_merge() {
        // keep == a.len() + b.len(): the truncated merge degenerates to the
        // full merge, including the comparison count
        let a = vec![1, 4, 7, 10];
        let b = vec![2, 3, 9];
        let keep = a.len() + b.len();
        let (lo, c_keep) = merge_keep_low(a.clone(), b.clone(), keep);
        let (full, c_full) = merge_runs(a, b);
        assert_eq!(lo, full);
        assert_eq!(lo, vec![1, 2, 3, 4, 7, 9, 10]);
        assert_eq!(c_keep, c_full);
    }

    #[test]
    fn into_variants_reuse_buffers_and_match_owning_forms() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let mut out = Vec::new();
        for _ in 0..50 {
            let ka = rng.random_range(0..16usize);
            let kb = rng.random_range(0..16usize);
            let mut a: Vec<u32> = (0..ka).map(|_| rng.random_range(0..40)).collect();
            let mut b: Vec<u32> = (0..kb).map(|_| rng.random_range(0..40)).collect();
            a.sort_unstable();
            b.sort_unstable();
            let keep = rng.random_range(0..=ka + kb);
            for mode in 0..3 {
                let (mut a2, mut b2) = (a.clone(), b.clone());
                let (a_cap, b_cap) = (a2.capacity(), b2.capacity());
                let (expect, c_into) = match mode {
                    0 => (
                        merge_runs(a.clone(), b.clone()),
                        merge_runs_into(&mut a2, &mut b2, &mut out),
                    ),
                    1 => (
                        merge_keep_low(a.clone(), b.clone(), keep),
                        merge_keep_low_into(&mut a2, &mut b2, keep, &mut out),
                    ),
                    _ => (
                        merge_keep_high(a.clone(), b.clone(), keep),
                        merge_keep_high_into(&mut a2, &mut b2, keep, &mut out),
                    ),
                };
                assert_eq!(out, expect.0);
                assert_eq!(c_into, expect.1, "comparison counts must agree");
                // inputs drained but their allocations preserved
                assert!(a2.is_empty() && b2.is_empty());
                assert_eq!(a2.capacity(), a_cap);
                assert_eq!(b2.capacity(), b_cap);
            }
        }
    }

    #[test]
    fn bitonic_ascending_then_descending() {
        let (s, _) = sort_bitonic_run(vec![1, 4, 9, 8, 3, 0]);
        assert_eq!(s, vec![0, 1, 3, 4, 8, 9]);
    }

    #[test]
    fn bitonic_descending_then_ascending() {
        let (s, _) = sort_bitonic_run(vec![9, 5, 2, 3, 7, 11]);
        assert_eq!(s, vec![2, 3, 5, 7, 9, 11]);
    }

    #[test]
    fn bitonic_pure_monotone_inputs() {
        let (s, _) = sort_bitonic_run(vec![1, 2, 3, 4]);
        assert_eq!(s, vec![1, 2, 3, 4]);
        let (s, _) = sort_bitonic_run(vec![4, 3, 2, 1]);
        assert_eq!(s, vec![1, 2, 3, 4]);
    }

    #[test]
    fn bitonic_tiny_inputs() {
        let (s, c) = sort_bitonic_run(Vec::<u32>::new());
        assert!(s.is_empty());
        assert_eq!(c, 0);
        let (s, _) = sort_bitonic_run(vec![7]);
        assert_eq!(s, vec![7]);
        let (s, _) = sort_bitonic_run(vec![9, 1]);
        assert_eq!(s, vec![1, 9]);
    }

    #[test]
    fn bitonic_with_duplicates_and_plateaus() {
        let (s, _) = sort_bitonic_run(vec![2, 2, 5, 5, 5, 3, 2, 2]);
        assert_eq!(s, vec![2, 2, 2, 2, 3, 5, 5, 5]);
    }

    #[test]
    fn all_rotations_of_a_sorted_sequence_are_handled() {
        // every rotation of a sorted sequence is cyclically bitonic
        let base: Vec<u32> = vec![0, 1, 2, 3, 4, 5, 6, 7];
        for r in 0..base.len() {
            let rotated: Vec<u32> = base[r..].iter().chain(&base[..r]).copied().collect();
            let (s, _) = sort_bitonic_run(rotated);
            assert_eq!(s, base, "rotation {r}");
        }
    }

    #[test]
    fn random_bitonic_runs() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..100 {
            let up = rng.random_range(0..20);
            let down = rng.random_range(0..20);
            let mut v: Vec<i32> = (0..up).map(|_| rng.random_range(0..100)).collect();
            v.sort_unstable();
            let mut w: Vec<i32> = (0..down).map(|_| rng.random_range(0..100)).collect();
            w.sort_unstable_by(|a, b| b.cmp(a));
            v.extend(w);
            let mut expect = v.clone();
            expect.sort_unstable();
            let (s, _) = sort_bitonic_run(v);
            assert_eq!(s, expect);
            assert!(is_sorted(&s));
        }
    }
}
