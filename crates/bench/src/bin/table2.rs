//! Regenerates **Table 2** of the paper: best/worst-case processor
//! utilization of the proposed partition versus the maximum-dimensional
//! fault-free subcube (MFFS) method, for `3 ≤ n ≤ 6`, `1 ≤ r ≤ n − 1`.
//!
//! Utilization = running processors / normal processors (×100%).
//!
//! ```text
//! cargo run -p ft-bench --release --bin table2 [-- --trials 10000 --seed 1992 --ablation-selection]
//! ```

use ft_bench::{parse, random_faults, UtilizationCell, DEFAULT_SEED, DEFAULT_TRIALS};
use ftsort::partition::partition;
use ftsort::select::{extra_comm_cost, select_cutting_sequence};

fn main() {
    let mut trials = DEFAULT_TRIALS;
    let mut seed = DEFAULT_SEED;
    let mut ablation = false;
    let mut exhaustive = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trials" => {
                trials = parse(&a, args.next().as_deref(), 1.., "a count ≥ 1, e.g. 10000")
            }
            "--seed" => seed = parse(&a, args.next().as_deref(), .., "an integer, e.g. 1992"),
            "--ablation-selection" => ablation = true,
            "--exhaustive" => exhaustive = true,
            // Accepted for interface uniformity with the other report bins;
            // Table 2 only runs the partition algorithm, no simulation, so
            // the engine choice cannot change anything.
            "--engine" => {
                let _ = ft_bench::parse_engine(args.next());
                eprintln!("note: table2 runs no simulation; --engine has no effect");
            }
            "--threads" => {
                let _: usize = parse(&a, args.next().as_deref(), 1.., "a count ≥ 1, e.g. 4");
                eprintln!("note: table2 runs no simulation; --threads has no effect");
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
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
