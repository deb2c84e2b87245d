//! Live metrics: a process-wide registry of monotonic counters, gauges and
//! log-bucket histograms with Prometheus-text exposition.
//!
//! Everything observability built so far (spans, run files, the scheduler
//! profiler) is post-hoc — nothing reports state *while* a run is in
//! flight, and a long `ftsort-campaign` cannot be watched through run
//! files alone. This module is the live substrate:
//!
//! * **Instruments** — [`Counter`] (monotonic `u64`), [`Gauge`] (`i64`)
//!   and [`Histogram`] (the [`super::hist`] log₂-bucket layout with an
//!   atomic bucket array). All are cheap `Arc` handles over atomics:
//!   recording is lock-free, allocation-free and wait-free — pinned by the
//!   counting-allocator test in `crates/hypercube/tests/alloc_free.rs`.
//! * **[`Registry`]** — owns the instrument families. Registration (names,
//!   help text, the family vector) happens at startup under a mutex;
//!   after that the registry is only locked again to render, so warm
//!   recording never contends.
//! * **Exposition** — [`Registry::render_prom`] writes the Prometheus text
//!   format (hand-rolled per the vendored-deps constraint): `# HELP` /
//!   `# TYPE` lines, counter/gauge samples, and cumulative histogram
//!   `_bucket{le="..."}` / `_sum` / `_count` series. [`validate_prom`]
//!   parses the format back and rejects malformed families, duplicate
//!   series and non-monotone bucket counts — `ftsort-cli trace-check
//!   --prom` runs it in CI.
//! * **The global registry** — [`install_global`] installs one registry +
//!   [`RunMetrics`] bundle per process. Nothing records into it while a
//!   run is in flight: the engine, the executors, the sinks and the gzip
//!   encoder already keep their own totals (`RunStats`, `NodeMetrics`,
//!   per-worker tallies, byte counts), and each *folds* them into
//!   [`global`] once, when its run or stream ends. So a snapshot counts
//!   exactly the finished runs, and the hot path never touches a shared
//!   atomic. With nothing installed (the default) a fold is one `None`
//!   check per run.
//!
//! House rule, test-pinned: metrics observe the simulation, they never
//! steer it. Sorted output, `RunReport` JSON and streamed run files are
//! byte-identical with metrics enabled or disabled.

use super::hist::{LogHistogram, BUCKETS};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing counter. Cloning shares the underlying
/// atomic — handles are cheap and `Send + Sync`.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (useful in tests).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        self.0.fetch_add(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can go up and down.
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A gauge not attached to any registry (useful in tests).
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to at least `v` (a high-water mark).
    #[inline]
    pub fn set_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistCore {
    /// One atomic per [`LogHistogram`] bucket — same layout, same
    /// `bucket_of` indexing, shareable across threads.
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

/// A log₂-bucketed histogram sharing [`super::hist::LogHistogram`]'s
/// bucket layout (bucket 0 = zero, bucket `i ≥ 1` = values with bit
/// length `i`), recorded through atomics so handles can be shared across
/// worker threads.
#[derive(Clone)]
pub struct Histogram(Arc<HistCore>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// A histogram not attached to any registry (useful in tests).
    pub fn new() -> Self {
        Histogram(Arc::new(HistCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }))
    }

    /// Records one sample: two relaxed atomic adds, no allocation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.buckets[LogHistogram::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Folds in samples bucketed elsewhere in the same layout: `counts[i]`
    /// more samples in bucket `i`, and `sum` more in the sum.
    pub fn add_counts(&self, counts: &[u64], sum: u64) {
        for (bucket, &c) in self.0.buckets.iter().zip(counts) {
            bucket.fetch_add(c, Ordering::Relaxed);
        }
        self.0.sum.fetch_add(sum, Ordering::Relaxed);
    }

    /// Snapshot of the raw (non-cumulative) bucket counts.
    pub fn snapshot(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.0.buckets[i].load(Ordering::Relaxed))
    }
}

enum Instrument {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Instrument {
    fn kind(&self) -> &'static str {
        match self {
            Instrument::Counter(_) => "counter",
            Instrument::Gauge(_) => "gauge",
            Instrument::Histogram(_) => "histogram",
        }
    }
}

struct Family {
    name: String,
    help: String,
    instrument: Instrument,
}

/// The instrument registry: families are registered once at startup (the
/// only mutex acquisitions besides rendering); the returned handles record
/// through shared atomics thereafter.
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

/// Whether `name` is a valid Prometheus metric name:
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register(&self, name: &str, help: &str, make: impl FnOnce() -> Instrument) -> Instrument {
        assert!(valid_name(name), "invalid metric name '{name}'");
        let mut families = self.families.lock().expect("metrics registry poisoned");
        if let Some(f) = families.iter().find(|f| f.name == name) {
            // Re-registration returns the existing handle — registration is
            // idempotent so component bundles can be rebuilt per run — but
            // a kind clash is a programming error.
            let made = make();
            assert_eq!(
                f.instrument.kind(),
                made.kind(),
                "metric '{name}' re-registered as a different kind"
            );
            return match &f.instrument {
                Instrument::Counter(c) => Instrument::Counter(c.clone()),
                Instrument::Gauge(g) => Instrument::Gauge(g.clone()),
                Instrument::Histogram(h) => Instrument::Histogram(h.clone()),
            };
        }
        let instrument = make();
        let handle = match &instrument {
            Instrument::Counter(c) => Instrument::Counter(c.clone()),
            Instrument::Gauge(g) => Instrument::Gauge(g.clone()),
            Instrument::Histogram(h) => Instrument::Histogram(h.clone()),
        };
        families.push(Family {
            name: name.to_string(),
            help: help.to_string(),
            instrument,
        });
        handle
    }

    /// Registers (or re-fetches) a monotonic counter. Counter names must
    /// carry the Prometheus `_total` suffix.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        assert!(
            name.ends_with("_total"),
            "counter '{name}' must end in _total"
        );
        match self.register(name, help, || Instrument::Counter(Counter::new())) {
            Instrument::Counter(c) => c,
            _ => unreachable!(),
        }
    }

    /// Registers (or re-fetches) a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        match self.register(name, help, || Instrument::Gauge(Gauge::new())) {
            Instrument::Gauge(g) => g,
            _ => unreachable!(),
        }
    }

    /// Registers (or re-fetches) a histogram.
    pub fn histogram(&self, name: &str, help: &str) -> Histogram {
        match self.register(name, help, || Instrument::Histogram(Histogram::new())) {
            Instrument::Histogram(h) => h,
            _ => unreachable!(),
        }
    }

    /// Renders every family in registration order as Prometheus text:
    /// `# HELP`/`# TYPE` headers, then the samples — histograms as
    /// cumulative `_bucket{le="..."}` series (upper bounds are the
    /// inclusive tops of the log₂ buckets) plus `_sum`/`_count`.
    pub fn render_prom(&self) -> String {
        let families = self.families.lock().expect("metrics registry poisoned");
        let mut out = String::with_capacity(256 * families.len());
        for f in families.iter() {
            let _ = writeln!(out, "# HELP {} {}", f.name, escape_help(&f.help));
            let _ = writeln!(out, "# TYPE {} {}", f.name, f.instrument.kind());
            match &f.instrument {
                Instrument::Counter(c) => {
                    let _ = writeln!(out, "{} {}", f.name, c.get());
                }
                Instrument::Gauge(g) => {
                    let _ = writeln!(out, "{} {}", f.name, g.get());
                }
                Instrument::Histogram(h) => {
                    let counts = h.snapshot();
                    let used = counts.iter().rposition(|&c| c > 0).map_or(1, |i| i + 1);
                    let mut cumulative = 0u64;
                    for (i, &c) in counts[..used].iter().enumerate() {
                        cumulative += c;
                        let _ = writeln!(
                            out,
                            "{}_bucket{{le=\"{}\"}} {cumulative}",
                            f.name,
                            bucket_upper(i)
                        );
                    }
                    let total: u64 = counts.iter().sum();
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {total}", f.name);
                    let _ = writeln!(out, "{}_sum {}", f.name, h.sum());
                    let _ = writeln!(out, "{}_count {total}", f.name);
                }
            }
        }
        out
    }
}

/// The inclusive upper bound of log₂ bucket `i` (bucket 0 holds only 0;
/// bucket `i ≥ 1` holds `[2^(i-1), 2^i)`, so its top is `2^i - 1`).
fn bucket_upper(i: usize) -> u64 {
    let (_, hi) = LogHistogram::bucket_range(i);
    if i == 64 {
        u64::MAX
    } else {
        hi - 1
    }
}

/// Escapes a help string per the exposition format (`\` and newlines).
fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

// ---------------------------------------------------------------------------
// Exposition-format validation (the `trace-check --prom` sub-validator).
// ---------------------------------------------------------------------------

/// What [`validate_prom`] counted in a healthy snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PromCheck {
    /// `# TYPE`-declared metric families.
    pub families: usize,
    /// Distinct sample series (unique name + label set).
    pub series: usize,
    /// Total sample lines.
    pub samples: usize,
}

/// Parses a Prometheus text snapshot and validates its structure: every
/// sample must belong to a `# TYPE`-declared family (histogram samples by
/// their `_bucket`/`_sum`/`_count` suffix), families must not be declared
/// twice, series must not repeat, counter values must be finite and
/// non-negative, histogram bucket counts must be cumulative
/// (non-decreasing over strictly increasing `le` bounds) and end in a
/// `+Inf` bucket that equals `_count`.
pub fn validate_prom(text: &str) -> Result<PromCheck, String> {
    struct HistState {
        last_le: Option<f64>,
        last_count: u64,
        inf: Option<u64>,
        count: Option<u64>,
        has_sum: bool,
    }
    let mut types: Vec<(String, String)> = Vec::new(); // (name, kind)
    let mut seen_series: Vec<String> = Vec::new();
    let mut hists: Vec<(String, HistState)> = Vec::new();
    let mut samples = 0usize;

    let kind_of = |types: &[(String, String)], name: &str| -> Option<String> {
        types
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, k)| k.clone())
    };

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end_matches('\r');
        let err = |msg: String| format!("line {}: {msg}", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or_default();
            let kind = parts
                .next()
                .ok_or_else(|| err("# TYPE without kind".into()))?;
            if !valid_name(name) {
                return Err(err(format!("invalid family name '{name}'")));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(err(format!("unknown family kind '{kind}'")));
            }
            if types.iter().any(|(n, _)| n == name) {
                return Err(err(format!("family '{name}' declared twice")));
            }
            if kind == "histogram" {
                hists.push((
                    name.to_string(),
                    HistState {
                        last_le: None,
                        last_count: 0,
                        inf: None,
                        count: None,
                        has_sum: false,
                    },
                ));
            }
            types.push((name.to_string(), kind.to_string()));
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP and comments
        }

        // A sample: name[{labels}] value
        let (name, labels, value) = parse_sample(line).map_err(&err)?;
        if !valid_name(&name) {
            return Err(err(format!("invalid metric name '{name}'")));
        }
        let series_key = format!("{name}{{{labels}}}");
        if seen_series.contains(&series_key) {
            return Err(err(format!("duplicate series '{series_key}'")));
        }
        seen_series.push(series_key);
        samples += 1;

        if let Some(kind) = kind_of(&types, &name) {
            match kind.as_str() {
                "counter" => {
                    if !(value.is_finite() && value >= 0.0) {
                        return Err(err(format!("counter '{name}' has value {value}")));
                    }
                }
                "gauge" | "untyped" => {
                    if !value.is_finite() {
                        return Err(err(format!("gauge '{name}' has non-finite value")));
                    }
                }
                other => {
                    return Err(err(format!("bare sample for '{name}' declared as {other}")));
                }
            }
            continue;
        }
        // Histogram component?
        let (base, part) = if let Some(b) = name.strip_suffix("_bucket") {
            (b, "bucket")
        } else if let Some(b) = name.strip_suffix("_sum") {
            (b, "sum")
        } else if let Some(b) = name.strip_suffix("_count") {
            (b, "count")
        } else {
            return Err(err(format!("sample for undeclared family '{name}'")));
        };
        if kind_of(&types, base).as_deref() != Some("histogram") {
            return Err(err(format!("sample for undeclared family '{name}'")));
        }
        let state = &mut hists
            .iter_mut()
            .find(|(n, _)| n == base)
            .expect("histogram state registered with its TYPE")
            .1;
        match part {
            "bucket" => {
                let le = parse_labels(&labels)
                    .map_err(&err)?
                    .into_iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| v)
                    .ok_or_else(|| err(format!("'{name}' bucket without le label")))?;
                let count = value as u64;
                if value < 0.0 || value.fract() != 0.0 {
                    return Err(err(format!("bucket count {value} is not a whole number")));
                }
                if le == "+Inf" {
                    if state.inf.is_some() {
                        return Err(err(format!("'{base}' has two +Inf buckets")));
                    }
                    if count < state.last_count {
                        return Err(err(format!(
                            "'{base}' +Inf bucket {count} below previous bucket {}",
                            state.last_count
                        )));
                    }
                    state.inf = Some(count);
                } else {
                    let bound: f64 = le
                        .parse()
                        .map_err(|_| err(format!("bad le bound '{le}'")))?;
                    if state.inf.is_some() {
                        return Err(err(format!("'{base}' bucket after +Inf")));
                    }
                    if let Some(prev) = state.last_le {
                        if bound <= prev {
                            return Err(err(format!(
                                "'{base}' le bounds not increasing ({prev} then {bound})"
                            )));
                        }
                    }
                    if count < state.last_count {
                        return Err(err(format!(
                            "'{base}' bucket counts not monotone ({} then {count})",
                            state.last_count
                        )));
                    }
                    state.last_le = Some(bound);
                    state.last_count = count;
                }
            }
            "sum" => state.has_sum = true,
            "count" => {
                if value < 0.0 || value.fract() != 0.0 {
                    return Err(err(format!("histogram count {value} is not whole")));
                }
                state.count = Some(value as u64);
            }
            _ => unreachable!(),
        }
    }

    for (name, state) in &hists {
        let inf = state
            .inf
            .ok_or_else(|| format!("histogram '{name}' has no +Inf bucket"))?;
        let count = state
            .count
            .ok_or_else(|| format!("histogram '{name}' has no _count"))?;
        if inf != count {
            return Err(format!(
                "histogram '{name}': +Inf bucket {inf} != _count {count}"
            ));
        }
        if !state.has_sum {
            return Err(format!("histogram '{name}' has no _sum"));
        }
    }

    Ok(PromCheck {
        families: types.len(),
        series: seen_series.len(),
        samples,
    })
}

/// Splits a sample line into `(name, raw label body, value)`.
fn parse_sample(line: &str) -> Result<(String, String, f64), String> {
    if let Some(open) = line.find('{') {
        let close = line
            .rfind('}')
            .filter(|&c| c > open)
            .ok_or_else(|| format!("unterminated label set in '{line}'"))?;
        let value = line[close + 1..].trim();
        if value.is_empty() {
            return Err(format!("sample '{line}' has no value"));
        }
        return Ok((
            line[..open].to_string(),
            line[open + 1..close].to_string(),
            parse_value(value)?,
        ));
    }
    let mut parts = line.splitn(2, ' ');
    let name = parts.next().unwrap_or_default();
    let value = parts
        .next()
        .ok_or_else(|| format!("sample '{line}' has no value"))?;
    Ok((name.to_string(), String::new(), parse_value(value.trim())?))
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        _ => s
            .trim()
            .parse()
            .map_err(|_| format!("bad sample value '{s}'")),
    }
}

/// Parses a label body (`k="v",k2="v2"`) into pairs, handling `\"`, `\\`
/// and `\n` escapes in values.
fn parse_labels(body: &str) -> Result<Vec<(String, String)>, String> {
    let mut pairs = Vec::new();
    let mut chars = body.chars().peekable();
    while chars.peek().is_some() {
        let mut key = String::new();
        for c in chars.by_ref() {
            if c == '=' {
                break;
            }
            key.push(c);
        }
        if key.is_empty() {
            return Err(format!("empty label name in '{body}'"));
        }
        if chars.next() != Some('"') {
            return Err(format!("label '{key}' value is not quoted"));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('"') => value.push('"'),
                    Some('\\') => value.push('\\'),
                    Some('n') => value.push('\n'),
                    _ => return Err(format!("bad escape in label '{key}'")),
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => return Err(format!("unterminated label value for '{key}'")),
            }
        }
        pairs.push((key, value));
        match chars.next() {
            None => break,
            Some(',') => continue,
            Some(c) => return Err(format!("unexpected '{c}' after label value")),
        }
    }
    Ok(pairs)
}

// ---------------------------------------------------------------------------
// The component bundles and the process-global registry.
// ---------------------------------------------------------------------------

/// Engine instruments, folded in when each run ends: rounds by the
/// executor, the rest by `Engine::run` from the nodes' own counters.
#[derive(Clone)]
pub struct EngineMetrics {
    /// Frontier rounds committed (`ftsort_rounds_total`).
    pub rounds: Counter,
    /// Messages delivered into inboxes (`ftsort_messages_delivered_total`).
    pub messages_delivered: Counter,
    /// Elements priced through the cost model on sends
    /// (`ftsort_elements_priced_total`).
    pub elements_priced: Counter,
    /// Virtual µs messages spent queued behind busy links, each run's
    /// total rounded down (`ftsort_link_wait_us_total`); zero under
    /// uncontended pricing.
    pub link_wait_us: Counter,
    /// Elements per message (`ftsort_msg_elements`).
    pub msg_elements: Histogram,
}

/// Work-stealing scheduler instruments ([`crate::sim`]'s parallel engine),
/// folded in from the workers' tallies when the pool joins.
#[derive(Clone)]
pub struct WsMetrics {
    /// Successful shard steals (`ftsort_ws_steals_total`).
    pub steals: Counter,
    /// Barrier phase crossings (`ftsort_ws_barrier_epochs_total`).
    pub barrier_epochs: Counter,
}

/// [`crate::sim::pool::BufferPool`] instruments, folded in from a stats
/// pool's [`PoolCounters`](crate::sim::PoolCounters) by its owner (the
/// `ftsort-cli sort` snapshot path).
#[derive(Clone)]
pub struct PoolMetrics {
    /// Slabs taken (`ftsort_pool_takes_total`).
    pub takes: Counter,
    /// Slabs returned (`ftsort_pool_puts_total`).
    pub puts: Counter,
    /// Slabs parked in the shared store when the pool was folded
    /// (`ftsort_pool_shared_slabs`).
    pub shared_slabs: Gauge,
    /// High-water mark of parked slabs in any single store — the shared
    /// store or one handle's local free list
    /// (`ftsort_pool_slab_high_water`).
    pub slab_high_water: Gauge,
}

/// Sink/compression pipeline instruments, folded in when a sink finishes
/// and when a gzip stream ends.
#[derive(Clone)]
pub struct SinkMetrics {
    /// Trace records (events + spans) written through a sink
    /// (`ftsort_sink_events_total`).
    pub events: Counter,
    /// Bytes fed into the gzip encoder (`ftsort_gz_bytes_in_total`).
    pub gz_bytes_in: Counter,
    /// Compressed bytes out of the gzip encoder
    /// (`ftsort_gz_bytes_out_total`).
    pub gz_bytes_out: Counter,
}

/// Scheduler-profiler instruments ([`super::sched`]).
#[derive(Clone)]
pub struct SchedMetrics {
    /// Events held in worker rings at the end of the last profiled run
    /// (`ftsort_sched_ring_events`).
    pub ring_events: Gauge,
    /// Profiler ring overflows (`ftsort_sched_events_dropped_total`).
    pub events_dropped: Counter,
}

/// Every instrument bundle of one process, registered together.
#[derive(Clone)]
pub struct RunMetrics {
    /// Engine instruments.
    pub engine: EngineMetrics,
    /// Work-stealing scheduler instruments.
    pub ws: WsMetrics,
    /// Buffer-pool instruments.
    pub pool: PoolMetrics,
    /// Sink/compression instruments.
    pub sink: SinkMetrics,
    /// Scheduler-profiler instruments.
    pub sched: SchedMetrics,
}

impl RunMetrics {
    /// Registers the full instrument set on `registry` (idempotent — the
    /// same names return the same handles).
    pub fn register(registry: &Registry) -> RunMetrics {
        RunMetrics {
            engine: EngineMetrics {
                rounds: registry.counter(
                    "ftsort_rounds_total",
                    "Frontier rounds committed across all runs.",
                ),
                messages_delivered: registry.counter(
                    "ftsort_messages_delivered_total",
                    "Simulated messages delivered into node inboxes.",
                ),
                elements_priced: registry.counter(
                    "ftsort_elements_priced_total",
                    "Elements priced through the cost model on sends.",
                ),
                link_wait_us: registry.counter(
                    "ftsort_link_wait_us_total",
                    "Whole virtual microseconds messages spent queued behind busy links.",
                ),
                msg_elements: registry
                    .histogram("ftsort_msg_elements", "Elements per simulated message."),
            },
            ws: WsMetrics {
                steals: registry.counter(
                    "ftsort_ws_steals_total",
                    "Successful shard steals in the work-stealing scheduler.",
                ),
                barrier_epochs: registry.counter(
                    "ftsort_ws_barrier_epochs_total",
                    "Sense-reversing barrier phase crossings.",
                ),
            },
            pool: PoolMetrics {
                takes: registry.counter(
                    "ftsort_pool_takes_total",
                    "Slabs taken from the buffer pool.",
                ),
                puts: registry.counter(
                    "ftsort_pool_puts_total",
                    "Slabs returned to the buffer pool.",
                ),
                shared_slabs: registry.gauge(
                    "ftsort_pool_shared_slabs",
                    "Slabs currently parked in the pool's shared store.",
                ),
                slab_high_water: registry.gauge(
                    "ftsort_pool_slab_high_water",
                    "High-water mark of parked slabs in any single pool store.",
                ),
            },
            sink: SinkMetrics {
                events: registry.counter(
                    "ftsort_sink_events_total",
                    "Trace records (events and spans) written through a sink.",
                ),
                gz_bytes_in: registry.counter(
                    "ftsort_gz_bytes_in_total",
                    "Uncompressed bytes fed into the gzip encoder.",
                ),
                gz_bytes_out: registry.counter(
                    "ftsort_gz_bytes_out_total",
                    "Compressed bytes written by the gzip encoder.",
                ),
            },
            sched: SchedMetrics {
                ring_events: registry.gauge(
                    "ftsort_sched_ring_events",
                    "Events held in scheduler-profiler rings after the last profiled run.",
                ),
                events_dropped: registry.counter(
                    "ftsort_sched_events_dropped_total",
                    "Scheduler-profiler ring overflows (events dropped).",
                ),
            },
        }
    }
}

/// The process-global registry + instrument bundle.
pub struct GlobalMetrics {
    /// The registry (render with [`Registry::render_prom`]).
    pub registry: Registry,
    /// The shared instrument bundle components record into.
    pub run: RunMetrics,
}

static GLOBAL: OnceLock<GlobalMetrics> = OnceLock::new();

/// Installs (or returns the already-installed) process-global metrics.
/// After this, every run, sink and gzip stream that ends anywhere in the
/// process folds its totals into the returned instruments.
pub fn install_global() -> &'static GlobalMetrics {
    GLOBAL.get_or_init(|| {
        let registry = Registry::new();
        let run = RunMetrics::register(&registry);
        GlobalMetrics { registry, run }
    })
}

/// The process-global metrics, if [`install_global`] has run — `None` is
/// the default, and the whole cost of disabled metrics (one check per fold
/// site, each run or stream end).
pub fn global() -> Option<&'static GlobalMetrics> {
    GLOBAL.get()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_gauge_histogram_record() {
        let r = Registry::new();
        let c = r.counter("t_total", "a counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge("g", "a gauge");
        g.set(3);
        g.set_max(10);
        g.set_max(7);
        assert_eq!(g.get(), 10);
        let h = r.histogram("h", "a histogram");
        for v in [0, 1, 5, 5, 300] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 311);
        let counts = h.snapshot();
        assert_eq!(counts[0], 1); // 0
        assert_eq!(counts[1], 1); // 1
        assert_eq!(counts[3], 2); // 5, 5
        assert_eq!(counts[9], 1); // 300

        // Pre-bucketed samples fold into the same layout.
        h.add_counts(&[0, 2, 0, 1], 7);
        assert_eq!(h.count(), 8);
        assert_eq!(h.sum(), 318);
        assert_eq!(h.snapshot()[1], 3);
        assert_eq!(h.snapshot()[3], 3);
    }

    #[test]
    fn registration_is_idempotent_but_kind_clashes_panic() {
        let r = Registry::new();
        let a = r.counter("x_total", "x");
        let b = r.counter("x_total", "x");
        a.inc();
        assert_eq!(b.get(), 1, "same name shares the same atomic");
        let clash =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.gauge("x_total", "x")));
        assert!(clash.is_err(), "kind clash must panic");
        let bad = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.counter("9bad_total", "x")
        }));
        assert!(bad.is_err(), "invalid names are rejected");
        let suffix =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| r.counter("no_suffix", "x")));
        assert!(suffix.is_err(), "counters must end in _total");
    }

    #[test]
    fn render_prom_roundtrips_through_the_validator() {
        let r = Registry::new();
        let c = r.counter("ft_rounds_total", "Rounds.");
        c.add(42);
        let g = r.gauge("ft_workers", "Workers with a\nnewline help.");
        g.set(-3);
        let h = r.histogram("ft_sizes", "Sizes.");
        for v in [0, 1, 2, 3, 700] {
            h.record(v);
        }
        let text = r.render_prom();
        assert!(text.contains("# TYPE ft_rounds_total counter"));
        assert!(text.contains("ft_rounds_total 42"));
        assert!(text.contains("ft_workers -3"));
        assert!(text.contains("newline help"), "help is escaped, not split");
        assert!(text.contains("ft_sizes_bucket{le=\"0\"} 1"));
        assert!(text.contains("ft_sizes_bucket{le=\"1\"} 2"));
        assert!(text.contains("ft_sizes_bucket{le=\"3\"} 4"));
        assert!(text.contains("ft_sizes_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("ft_sizes_sum 706"));
        assert!(text.contains("ft_sizes_count 5"));
        let check = validate_prom(&text).expect("self-rendered snapshot validates");
        assert_eq!(check.families, 3);
        assert!(check.samples >= 5);
    }

    #[test]
    fn empty_histogram_renders_validly() {
        let r = Registry::new();
        r.histogram("empty_h", "Empty.");
        let text = r.render_prom();
        assert!(text.contains("empty_h_bucket{le=\"+Inf\"} 0"));
        validate_prom(&text).expect("empty histogram validates");
    }

    #[test]
    fn validator_rejects_malformed_snapshots() {
        // sample for an undeclared family
        assert!(validate_prom("nope 1\n").is_err());
        // duplicate family declaration
        assert!(validate_prom("# TYPE a counter\n# TYPE a counter\na_total 1\n").is_err());
        // duplicate series
        let dup = "# TYPE a_total counter\na_total 1\na_total 2\n";
        assert!(validate_prom(dup).unwrap_err().contains("duplicate series"));
        // negative counter
        assert!(validate_prom("# TYPE a_total counter\na_total -1\n").is_err());
        // missing value
        assert!(validate_prom("# TYPE a_total counter\na_total\n").is_err());
        // non-monotone histogram buckets
        let bad_hist = "# TYPE h histogram\n\
             h_bucket{le=\"1\"} 5\nh_bucket{le=\"3\"} 2\n\
             h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n";
        assert!(validate_prom(bad_hist).unwrap_err().contains("monotone"));
        // le bounds must increase
        let bad_le = "# TYPE h histogram\n\
             h_bucket{le=\"3\"} 1\nh_bucket{le=\"1\"} 2\n\
             h_bucket{le=\"+Inf\"} 2\nh_sum 4\nh_count 2\n";
        assert!(validate_prom(bad_le).unwrap_err().contains("increasing"));
        // +Inf bucket must equal _count
        let bad_inf = "# TYPE h histogram\n\
             h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 3\n";
        assert!(validate_prom(bad_inf).unwrap_err().contains("+Inf"));
        // histogram without +Inf
        let no_inf = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n";
        assert!(validate_prom(no_inf).unwrap_err().contains("+Inf"));
        // unterminated label set
        assert!(validate_prom("# TYPE h histogram\nh_bucket{le=\"1\" 1\n").is_err());
    }

    #[test]
    fn run_metrics_register_everything_and_rerender() {
        let r = Registry::new();
        let m = RunMetrics::register(&r);
        m.engine.rounds.inc();
        m.ws.steals.add(3);
        m.pool.shared_slabs.set(2);
        m.sched.events_dropped.add(1);
        m.engine.msg_elements.record(100);
        let text = r.render_prom();
        let check = validate_prom(&text).expect("full bundle validates");
        assert!(check.families >= 14);
        assert!(text.contains("ftsort_rounds_total 1"));
        assert!(text.contains("ftsort_ws_steals_total 3"));
        // registering again returns the same handles
        let again = RunMetrics::register(&r);
        again.engine.rounds.inc();
        assert_eq!(m.engine.rounds.get(), 2);
    }

    #[test]
    fn global_install_is_idempotent() {
        let a = install_global() as *const GlobalMetrics;
        let b = install_global() as *const GlobalMetrics;
        assert_eq!(a, b);
        assert!(global().is_some());
    }
}
