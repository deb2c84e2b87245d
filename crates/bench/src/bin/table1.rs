//! Regenerates **Table 1** of the paper: the percentage distribution of
//! *mincut* values over 10 000 random fault placements, for `3 ≤ n ≤ 6`
//! and `0 ≤ r ≤ n − 1`.
//!
//! ```text
//! table1 [--trials 10000] [--seed 1992] [--exhaustive]
//! ```

use ft_bench::args::{Args, Flag};
use ft_bench::{fault_set_count, MincutHistogram, DEFAULT_SEED, DEFAULT_TRIALS};

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    ("--trials", "T", "fault placements per cell (default 10000)"),
    ("--seed", "SEED", "fault seed (default 1992)"),
    ("--exhaustive", "", "visit every placement instead"),
];

fn main() {
    ft_bench::end_on_closed_stdout();
    let args = Args::parse("table1", &[FLAGS]);
    let trials = args.get("--trials", 1.., DEFAULT_TRIALS);
    let seed = args.get("--seed", .., DEFAULT_SEED);
    let exhaustive = args.switch("--exhaustive");
    args.finish();
    let mut rng = ft_bench::rng(seed);

    if exhaustive {
        println!("Table 1 (EXACT): percentages of mincut values (m) over every");
        println!("possible fault placement per (n, r)\n");
    } else {
        println!("Table 1: percentages of mincut values (m) over {trials} random");
        println!("fault placements per (n, r); seed = {seed}\n");
    }
    println!(
        "{:>2} {:>2} | {:>8} {:>8} {:>8} {:>8} {:>8}",
        "n", "r", "m=0", "m=1", "m=2", "m=3", "m=4"
    );
    println!("{}", "-".repeat(52));
    for n in 3..=6 {
        for r in 0..n {
            let h = if exhaustive {
                let _ = fault_set_count(n, r); // documented size of the cell
                MincutHistogram::collect_exhaustive(n, r)
            } else {
                MincutHistogram::collect(n, r, trials, &mut rng)
            };
            print!("{n:>2} {r:>2} |");
            for m in 0..=4 {
                let p = h.percent(m);
                if p == 0.0 {
                    print!(" {:>8}", "-");
                } else {
                    print!(" {:>7.2}%", p);
                }
            }
            println!();
        }
        println!("{}", "-".repeat(52));
    }
    println!("\nPaper reference points: n=6, r=5 → m=3 in ≈93.85% of cases and");
    println!("m=4 in ≈0.15%; small mincut (few dangling processors) dominates.");
}
