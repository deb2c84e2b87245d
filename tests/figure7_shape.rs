//! Integration test: the qualitative claims of the paper's Figure 7 hold
//! end-to-end under the default NCUBE-calibrated cost model.
//!
//! We do not chase absolute milliseconds (the NCUBE/7 is long gone); we pin
//! the *shape*: who wins, and where the fault-tolerant sort falls relative
//! to the fault-free subcube fallbacks the MFFS baseline would use.

use ftsort::bitonic::{bitonic_sort, Protocol};
use ftsort::ftsort::{fault_tolerant_sort, Attach, FtConfig, FtPlan};
use ftsort::mffs::mffs_sort;
use hypercube::cost::CostModel;
use hypercube::fault::FaultSet;
use hypercube::topology::Hypercube;
use rand::{rngs::StdRng, Rng, SeedableRng};

const M: usize = 32_000;

fn data(seed: u64) -> Vec<u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..M).map(|_| rng.random()).collect()
}

fn ft_sort(fs: &FaultSet, data: Vec<u32>) -> ftsort::bitonic::SortOutcome<u32> {
    let plan = FtPlan::new(fs).expect("tolerable fault set");
    fault_tolerant_sort(&plan, &FtConfig::default(), data, Attach::default()).0
}

fn ft_time(n: usize, faults: &[u32], seed: u64) -> f64 {
    let fs = FaultSet::from_raw(Hypercube::new(n), faults);
    let out = ft_sort(&fs, data(seed));
    let mut expect = data(seed);
    expect.sort_unstable();
    assert_eq!(out.sorted, expect, "result must be sorted");
    out.time_us
}

fn fault_free_time(n: usize, seed: u64) -> f64 {
    bitonic_sort(
        Hypercube::new(n),
        CostModel::default(),
        data(seed),
        Protocol::HalfExchange,
    )
    .time_us
}

/// Figure 7(a): on Q6, r = 1 or 2 beats the fault-free Q5 fallback.
#[test]
fn q6_one_or_two_faults_beat_q5_fallback() {
    let q5 = fault_free_time(5, 1);
    let r1 = ft_time(6, &[17], 1);
    let r2 = ft_time(6, &[17, 40], 1);
    assert!(r1 < q5, "r=1: {r1} vs Q5 {q5}");
    assert!(r2 < q5, "r=2: {r2} vs Q5 {q5}");
}

/// Figure 7(a): on Q6, r = 3, 4, 5 beat the fault-free Q4 fallback (while
/// being slower than a fault-free Q5 — which MFFS can rarely use).
#[test]
fn q6_three_to_five_faults_beat_q4_fallback() {
    let q4 = fault_free_time(4, 2);
    let q5 = fault_free_time(5, 2);
    let mut rng = StdRng::seed_from_u64(99);
    for r in 3..=5 {
        let fs = FaultSet::random(Hypercube::new(6), r, &mut rng);
        let faults: Vec<u32> = fs.iter().map(|p| p.raw()).collect();
        let t = ft_time(6, &faults, 2);
        assert!(t < q4, "r={r}: {t} vs Q4 {q4} (faults {faults:?})");
        assert!(
            t > q5 * 0.8,
            "r={r}: unexpectedly faster than Q5 would allow"
        );
    }
}

/// Figure 7(b): on Q5, r = 1 or 2 beats Q4; r = 3 or 4 beats Q3.
#[test]
fn q5_claims() {
    let q4 = fault_free_time(4, 3);
    let q3 = fault_free_time(3, 3);
    assert!(ft_time(5, &[9], 3) < q4);
    assert!(ft_time(5, &[9, 22], 3) < q4);
    let mut rng = StdRng::seed_from_u64(7);
    for r in 3..=4 {
        let fs = FaultSet::random(Hypercube::new(5), r, &mut rng);
        let faults: Vec<u32> = fs.iter().map(|p| p.raw()).collect();
        let t = ft_time(5, &faults, 3);
        assert!(t < q3, "r={r}: {t} vs Q3 {q3} (faults {faults:?})");
    }
}

/// Figure 7(c)/(d): on Q3, r = 1, 2 beat the Q2 fallback; on Q4, r = 1, 2
/// beat Q3.
#[test]
fn q3_q4_panels() {
    let q2 = fault_free_time(2, 6);
    assert!(ft_time(3, &[5], 6) < q2);
    assert!(ft_time(3, &[5, 2], 6) < q2);
    let q3 = fault_free_time(3, 6);
    assert!(ft_time(4, &[11], 6) < q3);
    assert!(ft_time(4, &[11, 4], 6) < q3);
}

/// The paper's worked case: Q5 with faults {3, 5, 16, 24} (max fault-free
/// subcube only Q3) — the proposed sort beats the MFFS baseline.
#[test]
fn paper_example_beats_mffs() {
    let fs = FaultSet::from_raw(Hypercube::new(5), &[3, 5, 16, 24]);
    let input = data(4);
    let ours = ft_sort(&fs, input.clone());
    let baseline = mffs_sort(&fs, CostModel::default(), input, Protocol::HalfExchange);
    assert_eq!(ours.sorted, baseline.sorted);
    assert_eq!(baseline.processors_used, 8);
    assert_eq!(ours.processors_used, 24);
    assert!(
        ours.time_us < baseline.time_us,
        "ours {} vs MFFS {}",
        ours.time_us,
        baseline.time_us
    );
}

/// Execution time grows with M for fixed machine (Figure 7's x-axis).
#[test]
fn time_monotone_in_m() {
    let fs = FaultSet::from_raw(Hypercube::new(5), &[3, 5, 16, 24]);
    let mut rng = StdRng::seed_from_u64(5);
    let mut last = 0.0;
    for m in [3_200usize, 16_000, 64_000] {
        let input: Vec<u32> = (0..m).map(|_| rng.random()).collect();
        let t = ft_sort(&fs, input).time_us;
        assert!(t > last, "M={m}: {t} vs previous {last}");
        last = t;
    }
}
