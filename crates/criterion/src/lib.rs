//! Vendored stand-in for the `criterion` crate (the build environment has no
//! network access to crates.io). It implements a small but functional
//! wall-clock harness behind the subset of the criterion 0.7 API the
//! workspace's benches use: `Criterion::benchmark_group`, `sample_size`,
//! `throughput`, `bench_function`, `Bencher::{iter, iter_batched}`, and the
//! `criterion_group!` / `criterion_main!` macros. One extension the real
//! criterion lacks: [`Bencher::iter_spanned`] lets the routine report
//! labeled sub-span durations per iteration (e.g. per-phase wall time),
//! and the report breaks the wall clock down per label.
//!
//! Each benchmark runs one untimed warm-up iteration, then `sample_size`
//! timed samples; min / median / mean are printed per benchmark. There is no
//! statistical outlier analysis — numbers are indicative, not rigorous.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// How per-iteration inputs are batched in [`Bencher::iter_batched`].
/// The distinction matters for the real criterion's memory strategy only;
/// here every iteration gets a fresh input either way.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Inputs are cheap; criterion would batch many per allocation.
    SmallInput,
    /// Inputs are large; criterion would allocate one at a time.
    LargeInput,
    /// One input per iteration.
    PerIteration,
}

/// Throughput annotation (printed alongside timings).
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Labeled sub-durations one [`Bencher::iter_spanned`] iteration reports —
/// e.g. per-phase wall time carved out of a single run.
#[derive(Default)]
pub struct SpanRecorder {
    spans: Vec<(String, Duration)>,
}

impl SpanRecorder {
    /// Charges `duration` to `label` within the current sample.
    pub fn record(&mut self, label: impl Into<String>, duration: Duration) {
        let label = label.into();
        match self.spans.iter_mut().find(|(l, _)| *l == label) {
            Some((_, d)) => *d += duration,
            None => self.spans.push((label, duration)),
        }
    }
}

/// Per-benchmark driver handed to the closure of `bench_function`.
pub struct Bencher {
    samples: Vec<Duration>,
    span_samples: Vec<Vec<(String, Duration)>>,
    sample_size: usize,
}

impl Bencher {
    /// Times `routine` over warm-up + `sample_size` iterations.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        std::hint::black_box(routine()); // warm-up, untimed
        for _ in 0..self.sample_size {
            let start = Instant::now();
            std::hint::black_box(routine());
            self.samples.push(start.elapsed());
        }
    }

    /// Times `routine` like [`Self::iter`], additionally collecting the
    /// labeled sub-spans each iteration reports through its recorder; the
    /// benchmark report then carries a per-label median breakdown of the
    /// wall clock, not just the total.
    pub fn iter_spanned<O, F: FnMut(&mut SpanRecorder) -> O>(&mut self, mut routine: F) {
        std::hint::black_box(routine(&mut SpanRecorder::default())); // warm-up, untimed
        for _ in 0..self.sample_size {
            let mut recorder = SpanRecorder::default();
            let start = Instant::now();
            std::hint::black_box(routine(&mut recorder));
            self.samples.push(start.elapsed());
            self.span_samples.push(recorder.spans);
        }
    }

    /// Times `routine` on inputs built (untimed) by `setup`.
    pub fn iter_batched<I, O, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> O,
    {
        std::hint::black_box(routine(setup())); // warm-up, untimed
        for _ in 0..self.sample_size {
            let input = setup();
            let start = Instant::now();
            std::hint::black_box(routine(input));
            self.samples.push(start.elapsed());
        }
    }
}

fn report(name: &str, samples: &mut [Duration], throughput: Option<Throughput>) {
    if samples.is_empty() {
        println!("{name:<50} (no samples)");
        return;
    }
    samples.sort_unstable();
    let min = samples[0];
    let median = samples[samples.len() / 2];
    let mean = samples.iter().sum::<Duration>() / samples.len() as u32;
    let rate = match throughput {
        Some(Throughput::Elements(n)) => {
            format!("  {:>12.0} elem/s", n as f64 / median.as_secs_f64())
        }
        Some(Throughput::Bytes(n)) => {
            format!("  {:>12.1} MB/s", n as f64 / median.as_secs_f64() / 1e6)
        }
        None => String::new(),
    };
    println!("{name:<50} min {min:>10.3?}  median {median:>10.3?}  mean {mean:>10.3?}{rate}");
}

/// Prints the per-label median breakdown collected by
/// [`Bencher::iter_spanned`], one indented line per label in
/// first-occurrence order, with each label's share of the summed medians.
fn report_spans(samples: &[Vec<(String, Duration)>]) {
    if samples.is_empty() {
        return;
    }
    let mut labels: Vec<&str> = Vec::new();
    for sample in samples {
        for (label, _) in sample {
            if !labels.iter().any(|l| l == label) {
                labels.push(label);
            }
        }
    }
    let medians: Vec<(&str, Duration)> = labels
        .iter()
        .map(|&label| {
            let mut per: Vec<Duration> = samples
                .iter()
                .map(|sample| {
                    sample
                        .iter()
                        .find(|(l, _)| l == label)
                        .map(|(_, d)| *d)
                        .unwrap_or_default()
                })
                .collect();
            per.sort_unstable();
            (label, per[per.len() / 2])
        })
        .collect();
    let total: Duration = medians.iter().map(|(_, d)| *d).sum();
    for (label, median) in medians {
        let share = if total.is_zero() {
            0.0
        } else {
            median.as_secs_f64() / total.as_secs_f64() * 100.0
        };
        println!("    {label:<46} median {median:>10.3?}  {share:>5.1}%");
    }
}

/// A named group of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'c> {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    _criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Annotates subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher {
            samples: Vec::with_capacity(self.sample_size),
            span_samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut bencher);
        let label = format!("{}/{}", self.name, id);
        report(&label, &mut bencher.samples, self.throughput);
        report_spans(&bencher.span_samples);
        self
    }

    /// Ends the group (printing happens eagerly; this is a no-op).
    pub fn finish(&mut self) {}
}

/// The harness entry point.
#[derive(Default)]
pub struct Criterion {
    default_sample_size: usize,
}

impl Criterion {
    /// Opens a benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let sample_size = if self.default_sample_size == 0 {
            10
        } else {
            self.default_sample_size
        };
        BenchmarkGroup {
            name: name.into(),
            sample_size,
            throughput: None,
            _criterion: self,
        }
    }

    /// Runs one ungrouped benchmark.
    pub fn bench_function<F>(&mut self, id: impl Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let sample_size = if self.default_sample_size == 0 {
            10
        } else {
            self.default_sample_size
        };
        let mut bencher = Bencher {
            samples: Vec::with_capacity(sample_size),
            span_samples: Vec::new(),
            sample_size,
        };
        f(&mut bencher);
        report(&id.to_string(), &mut bencher.samples, None);
        report_spans(&bencher.span_samples);
        self
    }
}

/// Declares a function running the given benchmark targets in order.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_collects_requested_samples() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(5);
        let mut runs = 0usize;
        group.bench_function("count", |b| b.iter(|| runs += 1));
        group.finish();
        assert_eq!(runs, 6, "warm-up + 5 samples");
    }

    #[test]
    fn iter_spanned_collects_spans_per_sample() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(4);
        let mut runs = 0usize;
        group.bench_function("spanned", |b| {
            b.iter_spanned(|rec| {
                runs += 1;
                rec.record("setup", Duration::from_micros(2));
                rec.record("work", Duration::from_micros(5));
                rec.record("work", Duration::from_micros(5)); // accumulates
            })
        });
        group.finish();
        assert_eq!(runs, 5, "warm-up + 4 samples");
    }

    #[test]
    fn span_recorder_accumulates_per_label() {
        let mut rec = SpanRecorder::default();
        rec.record("a", Duration::from_micros(3));
        rec.record("b", Duration::from_micros(1));
        rec.record("a", Duration::from_micros(4));
        assert_eq!(
            rec.spans,
            vec![
                ("a".to_string(), Duration::from_micros(7)),
                ("b".to_string(), Duration::from_micros(1)),
            ]
        );
    }

    #[test]
    fn iter_batched_feeds_fresh_inputs() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("g");
        group.sample_size(3).throughput(Throughput::Elements(4));
        let mut built = 0usize;
        group.bench_function("batched", |b| {
            b.iter_batched(
                || {
                    built += 1;
                    vec![built; 4]
                },
                |v| v.iter().sum::<usize>(),
                BatchSize::LargeInput,
            )
        });
        assert_eq!(built, 4, "warm-up + 3 samples each get a fresh input");
    }
}
