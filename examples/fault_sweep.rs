//! Sweeps the number of faults `r` on a `Q_n` and compares the proposed
//! algorithm against the MFFS baseline on utilization and simulated time —
//! a condensed view of the paper's Tables 1–2 and Figure 7.
//!
//! ```text
//! cargo run --release --example fault_sweep [n] [M] [trials]
//! ```

use ftsort::mffs::{max_fault_free_subcube, mffs_sort};
use ftsort::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(6);
    let m_total: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(64_000);
    let trials: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(5);

    let cube = Hypercube::new(n);
    let mut rng = StdRng::seed_from_u64(3);
    println!(
        "Q{n} ({} processors), M = {m_total} keys, {trials} random fault placements per r\n",
        cube.len()
    );
    println!(
        "{:>2} | {:>7} {:>9} {:>11} | {:>7} {:>9} {:>11} | {:>7}",
        "r", "ours N'", "util %", "time ms", "MFFS N", "util %", "time ms", "speedup"
    );
    println!("{}", "-".repeat(80));

    for r in 0..n {
        let mut ours_live = 0.0;
        let mut ours_util = 0.0;
        let mut ours_time = 0.0;
        let mut mffs_live = 0.0;
        let mut mffs_util = 0.0;
        let mut mffs_time = 0.0;
        for _ in 0..trials {
            let faults = FaultSet::random(cube, r, &mut rng);
            let data: Vec<u32> = (0..m_total).map(|_| rng.random()).collect();
            let plan = FtPlan::new(&faults).expect("tolerable");
            let (out, _, _) =
                fault_tolerant_sort(&plan, &FtConfig::default(), data.clone(), Attach::default());
            ours_live += plan.live_count() as f64;
            ours_util += plan.utilization() * 100.0;
            ours_time += out.time_us / 1000.0;

            let sc = max_fault_free_subcube(&faults).expect("normal node exists");
            let base = mffs_sort(&faults, CostModel::default(), data, Protocol::HalfExchange);
            mffs_live += sc.len() as f64;
            mffs_util += sc.len() as f64 / faults.normal_count() as f64 * 100.0;
            mffs_time += base.time_us / 1000.0;
        }
        let t = trials as f64;
        println!(
            "{:>2} | {:>7.1} {:>9.1} {:>11.1} | {:>7.1} {:>9.1} {:>11.1} | {:>6.2}×",
            r,
            ours_live / t,
            ours_util / t,
            ours_time / t,
            mffs_live / t,
            mffs_util / t,
            mffs_time / t,
            mffs_time / ours_time
        );
    }
}
