//! Quickstart: sort on a faulty hypercube in a dozen lines.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use ftsort::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn main() {
    // An NCUBE/7-sized machine: Q6, 64 processors — with three of them dead.
    let cube = Hypercube::new(6);
    let faults = FaultSet::from_raw(cube, &[9, 22, 51]);
    println!(
        "machine: Q{} ({} processors), faulty: {:?}",
        cube.dim(),
        cube.len(),
        faults.to_vec()
    );

    // 100 000 random keys.
    let mut rng = StdRng::seed_from_u64(42);
    let data: Vec<u32> = (0..100_000).map(|_| rng.random()).collect();

    // Plan (partition + heuristics) and sort.
    let plan = FtPlan::new(&faults).expect("r ≤ n−1 is always tolerable");
    println!(
        "plan: mincut m = {}, D_β = {:?}, extra-communication cost = {}, \
         live processors N' = {}, utilization = {:.1}%",
        plan.partition().mincut,
        plan.selection().dims,
        plan.selection().cost,
        plan.live_count(),
        plan.utilization() * 100.0
    );

    let config = FtConfig {
        cost: CostModel::default(),
        protocol: Protocol::HalfExchange,
        ..FtConfig::default()
    };
    let (out, _, _) = fault_tolerant_sort(&plan, &config, data.clone(), Attach::default());

    // Verify against a sequential sort.
    let mut expect = data;
    expect.sort_unstable();
    assert_eq!(out.sorted, expect);
    println!(
        "sorted {} keys on {} live processors in {:.1} ms simulated time",
        out.sorted.len(),
        out.processors_used,
        out.time_us / 1000.0
    );
    println!(
        "traffic: {} messages, {} element·hops, {} comparisons",
        out.stats.messages, out.stats.element_hops, out.stats.comparisons
    );

    // Compare with the maximum fault-free subcube baseline.
    let (baseline, _) = mffs_sort(&faults, &config, expect.clone(), Attach::default());
    println!(
        "MFFS baseline: {} processors, {:.1} ms — ours is {:.2}× faster",
        baseline.processors_used,
        baseline.time_us / 1000.0,
        baseline.time_us / out.time_us
    );
}
