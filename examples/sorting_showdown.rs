//! Compares every parallel sort in the repository on the same machine and
//! data: bitonic (the paper's workhorse), odd-even transposition on the
//! Gray-code ring, hyperquicksort, and — with faults injected — the
//! fault-tolerant sort against the MFFS baseline.
//!
//! ```text
//! cargo run --release --example sorting_showdown [n] [M]
//! ```

use ftsort::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(5);
    let m_total: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(64_000);

    let cube = Hypercube::new(n);
    let config = FtConfig::default();
    let mut rng = StdRng::seed_from_u64(17);
    let data: Vec<u32> = (0..m_total).map(|_| rng.random()).collect();
    let mut expect = data.clone();
    expect.sort_unstable();

    println!(
        "Q{n} ({} processors), M = {m_total} random keys\n",
        cube.len()
    );
    println!(
        "{:<28} {:>6} {:>12} {:>12} {:>14} {:>12}",
        "algorithm", "procs", "time ms", "messages", "element·hops", "comparisons"
    );
    println!("{}", "-".repeat(90));

    let report = |name: &str, out: &SortOutcome<u32>| {
        assert_eq!(out.sorted, expect, "{name} must sort correctly");
        println!(
            "{:<28} {:>6} {:>12.1} {:>12} {:>14} {:>12}",
            name,
            out.processors_used,
            out.time_us / 1000.0,
            out.stats.messages,
            out.stats.element_hops,
            out.stats.comparisons
        );
    };

    // fault-free contenders
    let (out, _) = bitonic_sort(cube, &config, data.clone(), Attach::default());
    report("bitonic (fault-free)", &out);
    let (out, _) = odd_even_ring_sort(cube, &config, data.clone(), Attach::default());
    report("odd-even ring (fault-free)", &out);
    let (out, _) = hyperquicksort(cube, &config, data.clone(), Attach::default());
    report("hyperquicksort (fault-free)", &out);

    // now break n−1 processors
    let faults = FaultSet::random(cube, n - 1, &mut rng);
    println!("\ninjecting {} faults: {:?}\n", n - 1, faults.to_vec());
    let plan = FtPlan::new(&faults).expect("tolerable");
    let (out, _, _) = fault_tolerant_sort(&plan, &config, data.clone(), Attach::default());
    report("fault-tolerant sort (ours)", &out);
    let (out, _) = mffs_sort(&faults, &config, data, Attach::default());
    report("MFFS baseline", &out);
}
