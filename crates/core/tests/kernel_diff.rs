//! Differential suite: branchless/blocked kernels vs the scalar reference.
//!
//! The cost model charges `t_c` per comparison, and the two engines are
//! byte-identical by construction — both properties survive the kernel
//! swap only if the new kernels produce *identical outputs and identical
//! comparison counts* on every input shape. This suite pins that over
//! seeded randomized runs and the adversarial shapes: duplicates,
//! presorted, reversed(-interleaved), all-equal, lengths 0/1, and sizes
//! that are not powers of two (including past the blocking threshold).

use ftsort::distribute::Padded;
use ftsort::seq::{
    charged_merge_comparisons, merge_keep_high_branchless_into, merge_keep_high_into,
    merge_keep_low_branchless_into, merge_keep_low_into, merge_runs_auto_into,
    merge_runs_blocked_into, merge_runs_branchless_into, merge_runs_into, Key, KeyPair,
    BLOCK_BYTES,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Asserts every branchless/blocked kernel against its scalar reference on
/// one `(a, b, keep)` instance: identical outputs AND comparison counts.
fn check_all<K: Key>(a: &[K], b: &[K], keep: usize) {
    let ctx = format!("|a|={} |b|={} keep={keep}", a.len(), b.len());
    let (mut want, mut got) = (Vec::new(), Vec::new());

    let (mut a2, mut b2) = (a.to_vec(), b.to_vec());
    let c_ref = merge_runs_into(&mut a2, &mut b2, &mut want);
    type Kernel<K> = fn(&mut Vec<K>, &mut Vec<K>, &mut Vec<K>) -> u64;
    let kernels: [(&str, Kernel<K>); 3] = [
        ("branchless", merge_runs_branchless_into),
        ("blocked", merge_runs_blocked_into),
        ("auto", merge_runs_auto_into),
    ];
    for (name, kernel) in kernels {
        let (mut a2, mut b2) = (a.to_vec(), b.to_vec());
        let c = kernel(&mut a2, &mut b2, &mut got);
        assert_eq!(got, want, "{name} full merge output ({ctx})");
        assert_eq!(c, c_ref, "{name} full merge count ({ctx})");
    }
    assert_eq!(
        charged_merge_comparisons(a, b),
        c_ref,
        "analytic count formula ({ctx})"
    );

    let (mut a2, mut b2) = (a.to_vec(), b.to_vec());
    let (mut a3, mut b3) = (a.to_vec(), b.to_vec());
    let c_ref = merge_keep_low_into(&mut a2, &mut b2, keep, &mut want);
    let c = merge_keep_low_branchless_into(&mut a3, &mut b3, keep, &mut got);
    assert_eq!(got, want, "keep_low output ({ctx})");
    assert_eq!(c, c_ref, "keep_low count ({ctx})");

    let (mut a2, mut b2) = (a.to_vec(), b.to_vec());
    let (mut a3, mut b3) = (a.to_vec(), b.to_vec());
    let c_ref = merge_keep_high_into(&mut a2, &mut b2, keep, &mut want);
    let c = merge_keep_high_branchless_into(&mut a3, &mut b3, keep, &mut got);
    assert_eq!(got, want, "keep_high output ({ctx})");
    assert_eq!(c, c_ref, "keep_high count ({ctx})");
}

/// Runs `check_all` over every `keep` in small instances, plus the
/// endpoints for larger ones.
fn check_keeps<K: Key>(a: &[K], b: &[K]) {
    let total = a.len() + b.len();
    if total <= 24 {
        for keep in 0..=total {
            check_all(a, b, keep);
        }
    } else {
        for keep in [0, 1, total / 2, total - 1, total] {
            check_all(a, b, keep);
        }
    }
}

fn sorted_u64(rng: &mut StdRng, len: usize, span: u64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..len).map(|_| rng.random_range(0..span.max(1))).collect();
    v.sort_unstable();
    v
}

#[test]
fn randomized_runs_match_scalar_reference() {
    let mut rng = StdRng::seed_from_u64(1992);
    for _ in 0..150 {
        let la = rng.random_range(0..32);
        let lb = rng.random_range(0..32);
        // narrow span ⇒ plenty of duplicates and cross-run ties
        let a = sorted_u64(&mut rng, la, 12);
        let b = sorted_u64(&mut rng, lb, 12);
        check_keeps(&a, &b);
    }
}

#[test]
fn adversarial_shapes_match_scalar_reference() {
    let shapes: Vec<(Vec<u64>, Vec<u64>)> = vec![
        (vec![], vec![]),  // len 0
        (vec![7], vec![]), // len 1 vs empty
        (vec![], vec![7]),
        (vec![3], vec![3]),                      // single tie
        ((0..17).collect(), (0..17).collect()),  // presorted, all ties, non-pow2
        ((0..10).collect(), (10..23).collect()), // disjoint low/high
        ((13..23).collect(), (0..13).collect()), // disjoint high/low (reversed roles)
        (vec![5; 19], vec![5; 7]),               // all-equal, non-pow2
        (
            (0..31).map(|x| x * 2).collect(),
            (0..9).map(|x| x * 2 + 1).collect(),
        ), // interleaved, uneven
    ];
    for (a, b) in shapes {
        check_keeps(&a, &b);
    }
}

#[test]
fn every_key_type_dispatches_identically() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..40 {
        let la = rng.random_range(0..24);
        let lb = rng.random_range(0..24);
        let raw_a: Vec<u64> = (0..la).map(|_| rng.random_range(0..10)).collect();
        let raw_b: Vec<u64> = (0..lb).map(|_| rng.random_range(0..10)).collect();

        let mut a: Vec<u32> = raw_a.iter().map(|&x| x as u32).collect();
        let mut b: Vec<u32> = raw_b.iter().map(|&x| x as u32).collect();
        a.sort_unstable();
        b.sort_unstable();
        check_keeps(&a, &b);

        let mut a: Vec<i64> = raw_a.iter().map(|&x| x as i64 - 5).collect();
        let mut b: Vec<i64> = raw_b.iter().map(|&x| x as i64 - 5).collect();
        a.sort_unstable();
        b.sort_unstable();
        check_keeps(&a, &b);

        // pair keys: distinct payloads expose any tie-order divergence
        let mut a: Vec<KeyPair> = raw_a
            .iter()
            .enumerate()
            .map(|(i, &x)| KeyPair::new(x, i as u64))
            .collect();
        let mut b: Vec<KeyPair> = raw_b
            .iter()
            .enumerate()
            .map(|(i, &x)| KeyPair::new(x, 1000 + i as u64))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        check_keeps(&a, &b);

        // the wire element type: padded keys with Dummy = +∞ tails
        let mut a: Vec<Padded<i64>> = raw_a
            .iter()
            .map(|&x| {
                if x >= 8 {
                    Padded::Dummy
                } else {
                    Padded::Real(x as i64)
                }
            })
            .collect();
        let mut b: Vec<Padded<i64>> = raw_b.iter().map(|&x| Padded::Real(x as i64)).collect();
        a.sort_unstable();
        b.sort_unstable();
        check_keeps(&a, &b);
    }
}

#[test]
fn blocked_kernel_segments_past_the_threshold_and_still_matches() {
    // Big enough that the blocked kernel takes several merge-path segments
    // (u64: BLOCK_BYTES/2 bytes per segment), with M not a power of two and
    // a duplicate-heavy span so segment boundaries land inside tie plateaus.
    let mut rng = StdRng::seed_from_u64(41);
    let elems = BLOCK_BYTES / size_of::<u64>(); // per run: 8× the segment size
    let a = sorted_u64(&mut rng, elems + 13, (elems / 4) as u64);
    let b = sorted_u64(&mut rng, elems - 7, (elems / 4) as u64);

    let (mut want, mut got) = (Vec::new(), Vec::new());
    let (mut a2, mut b2) = (a.clone(), b.clone());
    let c_ref = merge_runs_into(&mut a2, &mut b2, &mut want);
    let (mut a2, mut b2) = (a.clone(), b.clone());
    let c_blk = merge_runs_blocked_into(&mut a2, &mut b2, &mut got);
    assert_eq!(got, want);
    assert_eq!(c_blk, c_ref);
    let (mut a2, mut b2) = (a, b);
    let c_auto = merge_runs_auto_into(&mut a2, &mut b2, &mut got);
    assert_eq!(got, want);
    assert_eq!(c_auto, c_ref);
}
