//! Exhaustive small-machine verification: the fault-tolerant sort is run on
//! **every** fault placement with `r ≤ n − 1` on Q3 and Q4 (and a sampled
//! sweep of data shapes), leaving no untested configuration at these sizes.

use ftsort::ftsort::{fault_tolerant_sort, Attach, FtConfig, FtPlan};
use hypercube::cost::CostModel;
use hypercube::fault::FaultSet;
use hypercube::topology::Hypercube;

/// Enumerates every `r`-subset of nodes of `Q_n`.
fn all_fault_sets(n: usize, r: usize) -> Vec<FaultSet> {
    let cube = Hypercube::new(n);
    let p = cube.len();
    let mut out = Vec::new();
    let mut idx: Vec<u32> = (0..r as u32).collect();
    loop {
        out.push(FaultSet::from_raw(cube, &idx));
        let mut i = r;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != (i + p - r) as u32 {
                idx[i] += 1;
                for j in i + 1..r {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
    }
}

fn paper_config() -> FtConfig {
    FtConfig {
        cost: CostModel::paper_form(),
        ..FtConfig::default()
    }
}

fn check(faults: &FaultSet, data: Vec<u32>) {
    let mut expect = data.clone();
    expect.sort_unstable();
    let plan = FtPlan::new(faults).unwrap_or_else(|e| panic!("{:?}: {e}", faults.to_vec()));
    let out = fault_tolerant_sort(&plan, &paper_config(), data, Attach::default()).0;
    assert_eq!(out.sorted, expect, "faults {:?}", faults.to_vec());
}

#[test]
fn every_fault_placement_on_q3() {
    // adversarial data shape: reversed with duplicates
    let data: Vec<u32> = (0..33).map(|i| (33 - i) % 7).collect();
    for r in 0..=2 {
        for faults in all_fault_sets(3, r) {
            check(&faults, data.clone());
        }
    }
}

#[test]
fn every_fault_placement_on_q4() {
    let data: Vec<u32> = (0..47).map(|i| (i * 37) % 23).collect();
    for r in 0..=3 {
        for faults in all_fault_sets(4, r) {
            check(&faults, data.clone());
        }
    }
}

#[test]
fn adversarial_data_shapes_on_the_paper_machine() {
    let faults = FaultSet::from_raw(Hypercube::new(5), &[3, 5, 16, 24]);
    let shapes: Vec<(&str, Vec<u32>)> = vec![
        ("empty", vec![]),
        ("singleton", vec![42]),
        ("all-equal", vec![7; 100]),
        ("sorted", (0..100).collect()),
        ("reversed", (0..100).rev().collect()),
        ("sawtooth", (0..100).map(|i| i % 10).collect()),
        ("organ-pipe", (0..50).chain((0..50).rev()).collect()),
        ("two-values", (0..100).map(|i| i & 1).collect()),
        ("exact-multiple", (0..24u32 * 4).rev().collect()),
        ("one-over", (0..24u32 * 4 + 1).rev().collect()),
        ("one-under", (0..24u32 * 4 - 1).rev().collect()),
    ];
    for (name, data) in shapes {
        let mut expect = data.clone();
        expect.sort_unstable();
        let plan = FtPlan::new(&faults).unwrap();
        let out = fault_tolerant_sort(&plan, &paper_config(), data, Attach::default()).0;
        assert_eq!(out.sorted, expect, "shape {name}");
    }
}
