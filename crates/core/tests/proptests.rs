//! Randomized property tests of the sorting kernels and their invariants.
//!
//! Each property runs over a deterministic seeded sample of the input space
//! (a lightweight stand-in for a property-testing framework, which the
//! offline build environment cannot provide); failures are reproducible
//! from the fixed seeds.

use ftsort::bitonic::compare_split_local;
use ftsort::distribute::{chunk_len, gather, scatter};
use ftsort::seq::{
    heapsort, merge_keep_high, merge_keep_low, merge_runs, mergesort, quicksort, sort_bitonic_run,
    Direction, LocalSort,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 256;

fn keys(rng: &mut StdRng, len: usize) -> Vec<i32> {
    (0..len).map(|_| rng.random()).collect()
}

/// Two random vectors of the same (random) length below `max`.
fn equal_pair(rng: &mut StdRng, max: usize) -> (Vec<i32>, Vec<i32>) {
    let k = rng.random_range(0..max);
    (keys(rng, k), keys(rng, k))
}

#[test]
fn heapsort_matches_std() {
    let mut rng = StdRng::seed_from_u64(0x5eed_1001);
    for _ in 0..CASES {
        let len = rng.random_range(0..300);
        let mut v = keys(&mut rng, len);
        let mut expect = v.clone();
        expect.sort_unstable();
        heapsort(&mut v, Direction::Ascending);
        assert_eq!(v, expect);
        heapsort(&mut v, Direction::Descending);
        expect.reverse();
        assert_eq!(v, expect);
    }
}

#[test]
fn quicksort_and_mergesort_match_std() {
    let mut rng = StdRng::seed_from_u64(0x5eed_1002);
    for _ in 0..CASES {
        let len = rng.random_range(0..300);
        let v = keys(&mut rng, len);
        let mut expect = v.clone();
        expect.sort_unstable();
        let mut q = v.clone();
        quicksort(&mut q, Direction::Ascending);
        assert_eq!(q, expect);
        let mut m = v;
        mergesort(&mut m, Direction::Ascending);
        assert_eq!(m, expect);
    }
}

#[test]
fn all_local_sorts_agree() {
    let mut rng = StdRng::seed_from_u64(0x5eed_1003);
    for _ in 0..CASES {
        let v: Vec<i32> = (0..rng.random_range(0..200))
            .map(|_| rng.random_range(-500..500))
            .collect();
        let mut a = v.clone();
        let mut b = v.clone();
        let mut c = v;
        LocalSort::Heapsort.sort(&mut a, Direction::Ascending);
        LocalSort::Quicksort.sort(&mut b, Direction::Ascending);
        LocalSort::Mergesort.sort(&mut c, Direction::Ascending);
        assert_eq!(a, b);
        assert_eq!(b, c);
    }
}

#[test]
fn merge_runs_is_a_sorted_union() {
    let mut rng = StdRng::seed_from_u64(0x5eed_1004);
    for _ in 0..CASES {
        let (la, lb) = (rng.random_range(0..100), rng.random_range(0..100));
        let mut a = keys(&mut rng, la);
        let mut b = keys(&mut rng, lb);
        a.sort_unstable();
        b.sort_unstable();
        let mut expect: Vec<i32> = a.iter().chain(b.iter()).copied().collect();
        expect.sort_unstable();
        let (m, c) = merge_runs(a.clone(), b.clone());
        assert_eq!(m, expect);
        assert!(c <= (a.len() + b.len()).saturating_sub(1) as u64);
    }
}

#[test]
fn merge_keep_bounds_comparisons() {
    let mut rng = StdRng::seed_from_u64(0x5eed_1005);
    for _ in 0..CASES {
        let (mut a, mut b) = equal_pair(&mut rng, 80);
        a.sort_unstable();
        b.sort_unstable();
        let k = a.len();
        let (lo, c1) = merge_keep_low(a.clone(), b.clone(), k);
        let (hi, c2) = merge_keep_high(a.clone(), b.clone(), k);
        assert!(c1 <= k as u64);
        assert!(c2 <= k as u64);
        let mut both: Vec<i32> = lo.iter().chain(hi.iter()).copied().collect();
        both.sort_unstable();
        let mut expect: Vec<i32> = a.into_iter().chain(b).collect();
        expect.sort_unstable();
        assert_eq!(both, expect);
    }
}

#[test]
fn compare_split_local_is_an_exact_split() {
    let mut rng = StdRng::seed_from_u64(0x5eed_1006);
    for _ in 0..CASES {
        let (mut a, mut b) = equal_pair(&mut rng, 60);
        a.sort_unstable();
        b.sort_unstable();
        let k = a.len();
        let mut expect: Vec<i32> = a.iter().chain(b.iter()).copied().collect();
        expect.sort_unstable();
        let (lo, hi) = compare_split_local(a, b);
        assert_eq!(&lo[..], &expect[..k]);
        assert_eq!(&hi[..], &expect[k..]);
    }
}

#[test]
fn bitonic_run_sorter_handles_any_updown() {
    let mut rng = StdRng::seed_from_u64(0x5eed_1007);
    for _ in 0..CASES {
        let (lu, ld) = (rng.random_range(0..50), rng.random_range(0..50));
        let mut u = keys(&mut rng, lu);
        u.sort_unstable();
        let mut d = keys(&mut rng, ld);
        d.sort_unstable_by(|a, b| b.cmp(a));
        let mut input = u;
        input.extend(d);
        let mut expect = input.clone();
        expect.sort_unstable();
        let (out, _) = sort_bitonic_run(input);
        assert_eq!(out, expect);
    }
}

#[test]
fn scatter_gather_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x5eed_1008);
    for _ in 0..CASES {
        let data: Vec<u64> = (0..rng.random_range(0..200))
            .map(|_| rng.random())
            .collect();
        let parts = rng.random_range(1usize..20);
        let chunks = scatter(data.clone(), parts);
        assert_eq!(chunks.len(), parts);
        let k = chunk_len(data.len(), parts);
        assert!(chunks.iter().all(|c| c.len() == k));
        assert_eq!(gather(chunks, data.len()), data);
    }
}
