//! Regenerates **Table 2** of the paper: best/worst-case processor
//! utilization of the proposed partition versus the maximum-dimensional
//! fault-free subcube (MFFS) method, for `3 ≤ n ≤ 6`, `1 ≤ r ≤ n − 1`.
//!
//! Utilization = running processors / normal processors (×100%).
//!
//! ```text
//! table2 [--trials 10000] [--seed 1992] [--exhaustive] [--ablation-selection]
//! ```

use ft_bench::args::{Args, Flag};
use ft_bench::{random_faults, UtilizationCell, DEFAULT_SEED, DEFAULT_TRIALS};
use ftsort::partition::partition;
use ftsort::select::{extra_comm_cost, select_cutting_sequence};

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    ("--trials", "T", "fault placements per cell (default 10000)"),
    ("--seed", "SEED", "fault seed (default 1992)"),
    ("--exhaustive", "", "visit every placement instead"),
    ("--ablation-selection", "", "add the cutting-sequence selection ablation"),
];

fn main() {
    ft_bench::end_on_closed_stdout();
    let args = Args::parse("table2", &[FLAGS]);
    let trials = args.get("--trials", 1.., DEFAULT_TRIALS);
    let seed = args.get("--seed", .., DEFAULT_SEED);
    let exhaustive = args.switch("--exhaustive");
    let ablation = args.switch("--ablation-selection");
    args.finish();
    let mut rng = ft_bench::rng(seed);

    if exhaustive {
        println!("Table 2 (EXACT): processor utilization (%), proposed vs MFFS,");
        println!("over every possible fault placement per (n, r)\n");
    } else {
        println!("Table 2: processor utilization (%), proposed vs MFFS, over");
        println!("{trials} random fault placements per (n, r); seed = {seed}\n");
    }
    println!(
        "{:>2} {:>2} | {:>10} {:>10} | {:>10} {:>10}",
        "n", "r", "ours best", "ours worst", "MFFS best", "MFFS worst"
    );
    println!("{}", "-".repeat(56));
    for n in 3..=6 {
        for r in 1..n {
            let cell = if exhaustive {
                UtilizationCell::collect_exhaustive(n, r)
            } else {
                UtilizationCell::collect(n, r, trials, &mut rng)
            };
            println!(
                "{:>2} {:>2} | {:>9.1}% {:>9.1}% | {:>9.1}% {:>9.1}%",
                n, r, cell.ours_best, cell.ours_worst, cell.mffs_best, cell.mffs_worst
            );
        }
        println!("{}", "-".repeat(56));
    }
    println!("\nPaper reference points (n=6, r=4): ours 100% best / 93.3% worst;");
    println!("MFFS 53.3% best / 26.6% worst.");

    if ablation {
        ablation_selection(trials.min(2_000), &mut rng);
    }
}

/// Ablation C: how much extra communication the formula-(1) heuristic saves
/// over picking an arbitrary (first) member of Ψ.
fn ablation_selection(trials: usize, rng: &mut rand::rngs::StdRng) {
    println!("\nAblation: heuristic selection (formula 1) vs first member of Ψ");
    println!(
        "{:>2} {:>2} | {:>10} {:>10} {:>9}",
        "n", "r", "heuristic", "first-Ψ", "saved"
    );
    println!("{}", "-".repeat(44));
    for n in 4..=6 {
        for r in 2..n {
            let mut chosen = 0.0f64;
            let mut naive = 0.0f64;
            for _ in 0..trials {
                let faults = random_faults(n, r, rng);
                let psi = partition(&faults).expect("separable").cutting_set;
                let sel = select_cutting_sequence(&faults, &psi);
                chosen += sel.cost as f64;
                naive += extra_comm_cost(&faults, &psi[0]).1 as f64;
            }
            let t = trials as f64;
            println!(
                "{:>2} {:>2} | {:>10.3} {:>10.3} {:>8.1}%",
                n,
                r,
                chosen / t,
                naive / t,
                (1.0 - chosen / naive.max(1e-12)) * 100.0
            );
        }
    }
}
