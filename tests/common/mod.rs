//! Helpers shared by the integration tests.

use rand::rngs::StdRng;
use rand::Rng;

/// How many mutations of each kind [`mutations`] makes.
pub struct Budget {
    /// Truncations, at evenly spaced cut points.
    pub cuts: usize,
    /// Copies with 1–4 random bit flips.
    pub flips: usize,
    /// Copies with one value replaced by an extreme number, at evenly
    /// spaced value starts.
    pub numbers: usize,
}

/// Numbers at and past the edges of what the readers accept: `u64::MAX`,
/// 2^64, `u32::MAX + 1`, 2^53 + 1, a negative, the largest decade of an
/// `f64`, and one that overflows it.
const EXTREMES: [&str; 7] = [
    "18446744073709551615",
    "18446744073709551616",
    "4294967296",
    "9007199254740993",
    "-1",
    "1e308",
    "1e999",
];

/// Seeded mutations of `base`: truncations, bit flips, an extreme number
/// in place of a value, and four copies with a value replaced by deep
/// nesting. A value starts after `:`, `[`, `,` or a space, which covers
/// JSON members, JSON arrays and Prometheus samples.
pub fn mutations(base: &[u8], rng: &mut StdRng, budget: Budget) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let step = (base.len() / budget.cuts.max(1)).max(1);
    for cut in (0..base.len()).step_by(step).chain([base.len() - 1]) {
        out.push(base[..cut].to_vec());
    }
    for _ in 0..budget.flips {
        let mut m = base.to_vec();
        for _ in 0..rng.random_range(1..=4) {
            let at = rng.random_range(0..m.len());
            m[at] ^= 1 << rng.random_range(0..8u32);
        }
        out.push(m);
    }
    let starts: Vec<usize> = (0..base.len())
        .filter(|&i| b":[, ".contains(&base[i]))
        .map(|i| i + 1)
        .collect();
    let step = (starts.len() / budget.numbers.max(1)).max(1);
    for &at in starts.iter().step_by(step) {
        let mut m = base[..at].to_vec();
        m.extend_from_slice(EXTREMES[rng.random_range(0..EXTREMES.len())].as_bytes());
        let rest = &base[at..];
        let skip = rest
            .iter()
            .take_while(|b| b.is_ascii_digit() || b"-+.eE".contains(b))
            .count();
        m.extend_from_slice(&rest[skip..]);
        out.push(m);
    }
    for _ in 0..4 {
        let at = starts[rng.random_range(0..starts.len())];
        let mut m = base[..at].to_vec();
        m.extend(std::iter::repeat_n(b'[', 100_000));
        m.extend_from_slice(&base[at..]);
        out.push(m);
    }
    out
}
