//! NCUBE/7-scale simulation: 64 message-passing node programs, the full
//! diagnose → partition → sort pipeline, and a comparison against
//! the MFFS baseline — the experiment of the paper's §4 in miniature.
//!
//! ```text
//! cargo run --release --example ncube_simulation [r] [M]
//! ```

use ftsort::prelude::*;
use hypercube::diagnosis::Syndrome;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn main() {
    let mut args = std::env::args().skip(1);
    let r: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(5);
    let m_total: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(320_000);

    let n = 6; // NCUBE/7: 64 processors
    let cube = Hypercube::new(n);
    assert!(r < cube.len(), "too many faults");
    let mut rng = StdRng::seed_from_u64(7);

    // Inject faults and let the off-line diagnosis find them.
    let truth = FaultSet::random(cube, r, &mut rng);
    println!("injected faults: {:?}", truth.to_vec());
    let syndrome = Syndrome::collect(&truth, &mut rng);
    let faults = match syndrome.diagnose(n.max(1) - 1) {
        Ok(d) => d,
        Err(e) => {
            println!("diagnosis failed ({e}); falling back to ground truth");
            truth.clone()
        }
    };
    println!("diagnosed faults: {:?}", faults.to_vec());

    let data: Vec<u32> = (0..m_total).map(|_| rng.random()).collect();
    let mut expect = data.clone();
    expect.sort_unstable();

    // Our algorithm.
    match FtPlan::new(&faults) {
        Ok(plan) => {
            let (out, _, _) =
                fault_tolerant_sort(&plan, &FtConfig::default(), data.clone(), Attach::default());
            assert_eq!(out.sorted, expect);
            println!(
                "\nfault-tolerant sort: {} keys on {} live processors",
                m_total, out.processors_used
            );
            println!("  simulated time : {:>10.1} ms", out.time_us / 1000.0);
            println!("  messages       : {:>10}", out.stats.messages);
            println!("  element·hops   : {:>10}", out.stats.element_hops);
            println!("  comparisons    : {:>10}", out.stats.comparisons);
            println!("  max hops/msg   : {:>10}", out.stats.max_hops);

            // Baseline.
            let (base, _) = mffs_sort(&faults, &FtConfig::default(), data, Attach::default());
            assert_eq!(base.sorted, expect);
            println!(
                "\nMFFS baseline: Q{} → {} processors",
                base.processors_used.trailing_zeros(),
                base.processors_used
            );
            println!("  simulated time : {:>10.1} ms", base.time_us / 1000.0);
            println!("\nspeedup over MFFS: {:.2}×", base.time_us / out.time_us);
        }
        Err(e) => println!("cannot sort: {e}"),
    }
}
