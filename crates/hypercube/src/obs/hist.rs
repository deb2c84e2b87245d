//! Vendored log-bucket histograms: fixed-size power-of-two buckets with
//! no allocation after construction.
//!
//! The scheduler profiler ([`super::sched`]) records one sample per polled
//! shard slice from inside the engine's hot path, so the recorder must be
//! O(1), branch-light, and allocation-free — the counting-allocator test
//! (`crates/hypercube/tests/alloc_free.rs`) pins the latter. A fixed
//! `[u64; 65]` bucket array (bucket 0 = value 0, bucket `i` = values in
//! `[2^(i-1), 2^i)`) covers the whole `u64` range, in the spirit of HdrHistogram's
//! coarsest configuration; exact percentiles are not needed here — shard
//! sizes are capped at 64 nodes, so the interesting mass sits in the first
//! eight buckets.

use super::json::{write_array, Json, JsonValue};

/// Number of buckets: one for zero plus one per possible bit length.
pub const BUCKETS: usize = 65;

/// A log₂-bucketed histogram of `u64` samples. Bucket 0 counts zeros;
/// bucket `i ≥ 1` counts values `v` with `bit_length(v) == i`, i.e.
/// `v ∈ [2^(i-1), 2^i)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LogHistogram {
    counts: [u64; BUCKETS],
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

impl LogHistogram {
    /// An empty histogram. All storage is inline — recording never
    /// allocates.
    pub fn new() -> Self {
        LogHistogram {
            counts: [0; BUCKETS],
        }
    }

    /// The bucket index `value` falls into.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (u64::BITS - value.leading_zeros()) as usize
    }

    /// The half-open value range `[lo, hi)` bucket `i` covers (bucket 0 is
    /// the degenerate `[0, 1)`).
    pub fn bucket_range(i: usize) -> (u64, u64) {
        match i {
            0 => (0, 1),
            64 => (1 << 63, u64::MAX),
            _ => (1 << (i - 1), 1 << i),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket_of(value)] += 1;
    }

    /// Adds every bucket of `other` into `self`.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
    }

    /// Total samples recorded (a `u128`: counts read from a file may sum
    /// past `u64::MAX`).
    pub fn total(&self) -> u128 {
        self.counts.iter().map(|&c| u128::from(c)).sum()
    }

    /// The raw bucket counts.
    pub fn counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Index of the highest non-empty bucket, or `None` when empty.
    pub fn max_bucket(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }

    /// Estimates the `q`-quantile (`q` clamped to `[0, 1]`) of the recorded
    /// samples: locates the bucket holding the `⌈q·total⌉`-th smallest
    /// sample and interpolates linearly across that bucket's value range.
    /// Returns `None` when the histogram is empty.
    ///
    /// The estimate is clamped into the located bucket, and the exact order
    /// statistic lies in the same bucket by construction — so the estimate
    /// is always within one log₂ bucket of the truth, which is the accuracy
    /// contract the campaign aggregators ([`super::campaign`]) rely on.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * total as f64).ceil() as u128).clamp(1, total);
        let mut seen = 0u128;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = u128::from(c);
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let (lo, hi) = Self::bucket_range(i);
                let frac = (rank - seen) as f64 / c as f64;
                let est = lo as f64 + (hi - lo) as f64 * frac;
                return Some((est as u64).clamp(lo, hi - 1));
            }
            seen += c;
        }
        // rank ≤ total, so some bucket must have crossed it above.
        unreachable!("quantile rank exceeded total count")
    }

    /// Rebuilds a histogram from its leading bucket counts (the rest are
    /// zero). Errors if more than [`BUCKETS`] counts are given.
    pub fn from_counts(counts: &[u64]) -> Result<LogHistogram, String> {
        if counts.len() > BUCKETS {
            return Err(format!(
                "histogram has {} buckets, max {BUCKETS}",
                counts.len()
            ));
        }
        let mut h = LogHistogram::new();
        h.counts[..counts.len()].copy_from_slice(counts);
        Ok(h)
    }
}

/// A JSON array of the bucket counts, trailing zero buckets trimmed (`[]`
/// when empty).
impl JsonValue for LogHistogram {
    fn write(&self, out: &mut String) {
        let used = self.max_bucket().map_or(0, |i| i + 1);
        write_array(out, &self.counts[..used]);
    }

    fn read(v: &Json) -> Result<Self, String> {
        LogHistogram::from_counts(&Vec::<u64>::read(v)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 1);
        assert_eq!(LogHistogram::bucket_of(2), 2);
        assert_eq!(LogHistogram::bucket_of(3), 2);
        assert_eq!(LogHistogram::bucket_of(4), 3);
        assert_eq!(LogHistogram::bucket_of(63), 6);
        assert_eq!(LogHistogram::bucket_of(64), 7);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), 64);
        // every bucket's range round-trips through bucket_of
        for i in 0..BUCKETS {
            let (lo, hi) = LogHistogram::bucket_range(i);
            assert_eq!(LogHistogram::bucket_of(lo), i);
            assert_eq!(LogHistogram::bucket_of(hi - 1), i);
        }
    }

    #[test]
    fn record_merge_and_total() {
        let mut a = LogHistogram::new();
        for v in [0, 1, 1, 5, 64] {
            a.record(v);
        }
        assert_eq!(a.total(), 5);
        assert_eq!(a.counts()[0], 1);
        assert_eq!(a.counts()[1], 2);
        assert_eq!(a.counts()[3], 1);
        assert_eq!(a.counts()[7], 1);
        let mut b = LogHistogram::new();
        b.record(5);
        b.merge(&a);
        assert_eq!(b.total(), 6);
        assert_eq!(b.counts()[3], 2);
        assert_eq!(b.max_bucket(), Some(7));
    }

    #[test]
    fn quantile_empty_histogram_is_none() {
        assert_eq!(LogHistogram::new().quantile(0.5), None);
        assert_eq!(LogHistogram::new().quantile(0.0), None);
        assert_eq!(LogHistogram::new().quantile(1.0), None);
    }

    #[test]
    fn quantile_single_bucket_stays_in_bucket() {
        // All mass in bucket 3 ([4, 8)): every quantile estimate must land
        // inside that bucket, for any q.
        let mut h = LogHistogram::new();
        for _ in 0..7 {
            h.record(5);
        }
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            let est = h.quantile(q).expect("non-empty");
            assert_eq!(LogHistogram::bucket_of(est), 3, "q={q} est={est}");
        }
        // Degenerate single-sample histogram, including the zero bucket.
        let mut z = LogHistogram::new();
        z.record(0);
        assert_eq!(z.quantile(0.5), Some(0));
        assert_eq!(z.quantile(1.0), Some(0));
    }

    #[test]
    fn quantile_saturated_top_bucket() {
        // Bucket 64 covers [2^63, u64::MAX) — the interpolation must not
        // overflow and the estimate must stay inside the bucket.
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        h.record(1 << 63);
        for q in [0.0, 0.5, 1.0] {
            let est = h.quantile(q).expect("non-empty");
            assert_eq!(LogHistogram::bucket_of(est), 64, "q={q} est={est}");
        }
    }

    #[test]
    fn quantile_within_one_bucket_of_exact_order_statistic() {
        // Deterministic pseudo-random sample; compare against the exact
        // order statistic computed from the sorted values.
        let mut values: Vec<u64> = (0u64..500).map(|i| (i * 2654435761) % 100_000).collect();
        let mut h = LogHistogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.9, 0.99] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let exact = values[rank - 1];
            let est = h.quantile(q).expect("non-empty");
            assert_eq!(
                LogHistogram::bucket_of(est),
                LogHistogram::bucket_of(exact),
                "q={q} est={est} exact={exact}"
            );
        }
    }

    #[test]
    fn json_roundtrip_trims_trailing_zeros() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(9);
        let mut text = String::new();
        h.write(&mut text);
        LogHistogram::new().write(&mut text);
        assert_eq!(text, "[1,0,0,0,1][]");
        let back = LogHistogram::from_counts(&[1, 0, 0, 0, 1]).expect("parse");
        assert_eq!(back, h);
        assert_eq!(
            LogHistogram::from_counts(&[]).expect("empty"),
            LogHistogram::new()
        );
        assert!(LogHistogram::from_counts(&[0; BUCKETS + 1]).is_err());
    }
}
