//! Regenerates **Table 1** of the paper: the percentage distribution of
//! *mincut* values over 10 000 random fault placements, for `3 ≤ n ≤ 6`
//! and `0 ≤ r ≤ n − 1`.
//!
//! ```text
//! cargo run -p ft-bench --release --bin table1 [-- --trials 10000 --seed 1992]
//! ```

use ft_bench::{fault_set_count, parse, MincutHistogram, DEFAULT_SEED, DEFAULT_TRIALS};

fn main() {
    let mut trials = DEFAULT_TRIALS;
    let mut seed = DEFAULT_SEED;
    let mut exhaustive = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--trials" => {
                trials = parse(&a, args.next().as_deref(), 1.., "a count ≥ 1, e.g. 10000")
            }
            "--seed" => seed = parse(&a, args.next().as_deref(), .., "an integer, e.g. 1992"),
            "--exhaustive" => exhaustive = true,
            // Accepted for interface uniformity with the other report bins;
            // Table 1 only runs the partition algorithm, no simulation, so
            // the engine choice cannot change anything.
            "--engine" => {
                let _ = ft_bench::parse_engine(args.next());
                eprintln!("note: table1 runs no simulation; --engine has no effect");
            }
            "--threads" => {
                let _: usize = parse(&a, args.next().as_deref(), 1.., "a count ≥ 1, e.g. 4");
                eprintln!("note: table1 runs no simulation; --threads has no effect");
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
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
