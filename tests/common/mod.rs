//! Helpers shared by the integration tests. Each test binary uses some.
#![allow(dead_code)]

use hypercube::obs::RunObservation;
use rand::rngs::StdRng;
use rand::Rng;

/// Asserts that `replayed` (a re-priced or replayed observation)
/// reproduces `live` bit for bit: every trace event, and per node the
/// clock, operation counters, metrics and span boundaries. Run-file text
/// holds no times since schema v3, so equal files say nothing about them;
/// this compares the times themselves.
pub fn assert_reproduces(replayed: &RunObservation, live: &RunObservation, what: &str) {
    assert_eq!(replayed.link_model, live.link_model, "{what}: link model");
    let (got, want) = (replayed.trace.events(), live.trace.events());
    assert_eq!(got.len(), want.len(), "{what}: event count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g == w && g.time.to_bits() == w.time.to_bits(),
            "{what}: event {i} differs: {g:?} vs live {w:?}"
        );
    }
    assert_eq!(replayed.nodes.len(), live.nodes.len(), "{what}: node count");
    for (g, w) in replayed.nodes.iter().zip(&live.nodes) {
        assert_eq!(g.node, w.node, "{what}: participation differs");
        let node = w.node;
        assert_eq!(
            g.clock.to_bits(),
            w.clock.to_bits(),
            "{what}: clock of {node:?}"
        );
        assert_eq!(g.stats, w.stats, "{what}: counters of {node:?}");
        let (gm, wm) = (&g.metrics, &w.metrics);
        assert!(
            gm == wm
                && gm.blocked_us.to_bits() == wm.blocked_us.to_bits()
                && gm.link_wait_us.to_bits() == wm.link_wait_us.to_bits(),
            "{what}: metrics of {node:?} differ: {gm:?} vs live {wm:?}"
        );
        assert_eq!(g.spans.len(), w.spans.len(), "{what}: spans of {node:?}");
        assert_eq!(g.span_at, w.span_at, "{what}: span positions of {node:?}");
        for (gs, ws) in g.spans.iter().zip(&w.spans) {
            assert!(
                gs.phase == ws.phase
                    && gs.begin.to_bits() == ws.begin.to_bits()
                    && gs.end.to_bits() == ws.end.to_bits(),
                "{what}: span of {node:?} differs: {gs:?} vs live {ws:?}"
            );
        }
    }
}

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
