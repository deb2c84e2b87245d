//! Property-style integration tests over seeded-random instances: for
//! arbitrary fault placements and arbitrary data, the fault-tolerant sort
//! is a permutation-preserving sorting function, and the core invariants
//! of the partition machinery hold.
//!
//! (The instances are drawn from a seeded RNG rather than a shrinking
//! property-test framework — the build environment is offline, so no
//! proptest. Failures print the generating seed and case index.)

use ftsort::ftsort::{fault_tolerant_sort, Attach, FtConfig, FtPlan};
use ftsort::partition::partition;
use ftsort::select::select_cutting_sequence;
use hypercube::fault::FaultSet;
use hypercube::topology::Hypercube;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: usize = 48;

/// One random instance: a cube dimension `2..=5`, up to `n − 1` distinct
/// fault addresses, and a data vector of up to 400 arbitrary keys.
fn cube_faults_data(rng: &mut StdRng) -> (usize, Vec<u32>, Vec<i64>) {
    let n = rng.random_range(2usize..=5);
    let nn = 1u32 << n;
    let r = rng.random_range(0usize..n);
    let mut faults = Vec::with_capacity(r);
    while faults.len() < r {
        let f = rng.random_range(0..nn);
        if !faults.contains(&f) {
            faults.push(f);
        }
    }
    let len = rng.random_range(0usize..400);
    let data = (0..len).map(|_| rng.random::<i64>()).collect();
    (n, faults, data)
}

#[test]
fn ft_sort_sorts_any_input() {
    let mut rng = StdRng::seed_from_u64(0x5eed_2001);
    for case in 0..CASES {
        let (n, faults, data) = cube_faults_data(&mut rng);
        let fs = FaultSet::from_raw(Hypercube::new(n), &faults);
        let mut expect = data.clone();
        expect.sort_unstable();
        let plan = FtPlan::new(&fs).expect("r ≤ n−1 is always tolerable");
        let (out, _, _) = fault_tolerant_sort(&plan, &FtConfig::default(), data, Attach::default());
        assert_eq!(out.sorted, expect, "case {case}: n={n} faults={faults:?}");
    }
}

#[test]
fn partition_invariants() {
    let mut rng = StdRng::seed_from_u64(0x5eed_2002);
    for case in 0..CASES {
        let (n, faults, _data) = cube_faults_data(&mut rng);
        let fs = FaultSet::from_raw(Hypercube::new(n), &faults);
        let result = partition(&fs).expect("distinct faults are separable");
        // every sequence separates the faults, is ascending, has mincut len
        for d in &result.cutting_set {
            assert_eq!(d.len(), result.mincut, "case {case}");
            assert!(d.windows(2).all(|w| w[0] < w[1]), "case {case}");
            let mut groups = std::collections::HashMap::new();
            for f in fs.iter() {
                let key = d.iter().fold(0u32, |acc, &dim| (acc << 1) | f.bit(dim));
                *groups.entry(key).or_insert(0usize) += 1;
            }
            assert!(
                groups.values().all(|&c| c <= 1),
                "case {case}: sequence {d:?} does not separate {faults:?}"
            );
        }
        // paper bound: r ≤ n−1 ⟹ mincut ≤ n−2 (for r ≥ 2)
        if fs.count() >= 2 {
            assert!(
                result.mincut <= n.saturating_sub(2).max(1),
                "case {case}: mincut {} on Q{n} with {faults:?}",
                result.mincut
            );
        }
    }
}

#[test]
fn plan_structure_invariants() {
    let mut rng = StdRng::seed_from_u64(0x5eed_2003);
    for case in 0..CASES {
        let (n, faults, _data) = cube_faults_data(&mut rng);
        let fs = FaultSet::from_raw(Hypercube::new(n), &faults);
        let plan = FtPlan::new(&fs).expect("tolerable");
        let st = plan.structure();
        // every fault is dead, every dead sits at reindexed local 0
        for v in 0..(1u32 << st.m()) {
            let members = st.members(v);
            assert_eq!(members.len(), 1 << st.s(), "case {case}");
            if let Some(dead) = st.dead_physical(v) {
                assert_eq!(members[0], dead, "case {case}");
            }
            // members are a bijection onto the subcube
            let mut seen = std::collections::HashSet::new();
            for &p in &members {
                assert!(st.subcube(v).subcube.contains(p), "case {case}");
                assert!(seen.insert(p), "case {case}: duplicate member {p:?}");
            }
        }
        for f in fs.iter() {
            let (v, w) = st.locate(f);
            assert_eq!(w, 0, "case {case}: fault must reindex to local 0");
            assert_eq!(st.dead_physical(v), Some(f), "case {case}");
        }
        // live processors = N − (subcubes with a dead node), all normal
        let live = st.live_in_order();
        assert!(live.iter().all(|&p| fs.is_normal(p)), "case {case}");
        if fs.count() >= 2 {
            assert_eq!(live.len(), (1 << n) - (1 << st.m()), "case {case}");
        }
    }
}

#[test]
fn selection_cost_is_min_over_psi() {
    let mut rng = StdRng::seed_from_u64(0x5eed_2004);
    let mut checked = 0usize;
    while checked < CASES {
        let (n, faults, _data) = cube_faults_data(&mut rng);
        if faults.len() < 2 {
            continue;
        }
        checked += 1;
        let fs = FaultSet::from_raw(Hypercube::new(n), &faults);
        let psi = partition(&fs).unwrap().cutting_set;
        let sel = select_cutting_sequence(&fs, &psi);
        for d in &psi {
            let (_, cost) = ftsort::select::extra_comm_cost(&fs, d);
            assert!(
                sel.cost <= cost,
                "n={n} faults={faults:?}: selected {} but {d:?} costs {cost}",
                sel.cost
            );
        }
    }
}
