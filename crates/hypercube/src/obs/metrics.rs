//! Live metrics: the process's run totals, exported as Prometheus text.
//!
//! The paper's results are counts turned into virtual time: messages,
//! element·hops and comparisons per phase. `--metrics-snapshot` exports
//! those counts summed over every run a process finished, so a long
//! `ftsort-campaign` can be watched while it runs:
//!
//! * **[`Totals`]** — one plain field per exported family. The engine,
//!   the executor, the sinks and the gzip encoder already keep their own
//!   totals (`RunStats`, `NodeMetrics`, per-worker tallies, byte counts);
//!   each adds them through [`fold`] once, when its run or stream ends.
//!   So a snapshot counts exactly the finished runs, and nothing on a
//!   simulation hot path touches shared state.
//! * **The process's totals** — [`install`] puts one [`Totals`] behind
//!   one process-wide mutex. Until then (the default) a fold is one
//!   `None` check.
//! * **Exposition** — [`Totals::render_prom`] writes the Prometheus text
//!   format (hand-rolled per the vendored-deps constraint) from one table
//!   of families: `# HELP` / `# TYPE` lines, counter/gauge samples, and
//!   cumulative histogram `_bucket{le="..."}` / `_sum` / `_count` series.
//!   [`validate_prom`] parses the format back and rejects malformed
//!   families, duplicate series and non-monotone bucket counts —
//!   `ftsort-cli trace-check --prom` runs it in CI.
//!
//! House rule, test-pinned: metrics observe the simulation, they never
//! steer it. Sorted output, `RunReport` JSON and streamed run files are
//! byte-identical with metrics enabled or disabled.

use super::hist::{LogHistogram, BUCKETS};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::io::BufRead;
use std::sync::{Mutex, OnceLock};

/// A histogram family's totals in [`LogHistogram`]'s bucket layout
/// (bucket 0 = zero, bucket `i ≥ 1` = values with bit length `i`).
#[derive(Clone, Debug, PartialEq)]
pub struct Buckets {
    /// Samples per bucket.
    pub counts: [u64; BUCKETS],
    /// Sum of all samples.
    pub sum: u64,
}

impl Default for Buckets {
    fn default() -> Self {
        Buckets {
            counts: [0; BUCKETS],
            sum: 0,
        }
    }
}

impl Buckets {
    /// Adds one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[LogHistogram::bucket_of(v)] += 1;
        self.sum += v;
    }

    /// Adds samples bucketed elsewhere in the same layout: `counts[i]`
    /// more samples in bucket `i`, and `sum` more in the sum.
    pub fn add(&mut self, counts: &[u64], sum: u64) {
        for (total, &c) in self.counts.iter_mut().zip(counts) {
            *total += c;
        }
        self.sum += sum;
    }
}

/// One value per exported family, declared once here: [`Totals`] gets a
/// field for each row, documented by the family's help text, and
/// `write_run_families` renders the rows in this order.
macro_rules! totals {
    ($($field:ident: $ty:ty = $kind:ident($name:literal, $help:literal),)*) => {
        /// Every exported family's value, summed over the runs, sinks and
        /// gzip streams the process finished. Counters only grow; the
        /// gauges hold the last value folded in, except
        /// `pool_slab_high_water`, which holds the highest.
        #[derive(Clone, Debug, Default, PartialEq)]
        pub struct Totals {
            $(#[doc = $help] pub $field: $ty,)*
            /// Campaign runs finished; `None` until a campaign starts.
            pub campaign_runs: Option<u64>,
            /// Makespan (µs) per campaign `(n, faults)` cell, in set-up order.
            pub campaign_makespan_us: Vec<((usize, usize), Buckets)>,
        }

        impl Totals {
            fn write_run_families(&self, out: &mut String) {
                $(write_family(out, $name, $help, Sample::$kind(&self.$field));)*
            }
        }
    };
}

totals! {
    rounds: u64 = Counter("ftsort_rounds_total", "Frontier rounds committed across all runs."),
    messages_delivered: u64 = Counter("ftsort_messages_delivered_total", "Simulated messages delivered into node inboxes."),
    elements_priced: u64 = Counter("ftsort_elements_priced_total", "Elements priced through the cost model on sends."),
    link_wait_us: u64 = Counter("ftsort_link_wait_us_total", "Whole virtual microseconds messages spent queued behind busy links."),
    msg_elements: Buckets = Histogram("ftsort_msg_elements", "Elements per simulated message."),
    ws_steals: u64 = Counter("ftsort_ws_steals_total", "Successful shard steals in the work-stealing scheduler."),
    ws_barrier_epochs: u64 = Counter("ftsort_ws_barrier_epochs_total", "Sense-reversing barrier phase crossings."),
    pool_takes: u64 = Counter("ftsort_pool_takes_total", "Slabs taken from the buffer pool."),
    pool_puts: u64 = Counter("ftsort_pool_puts_total", "Slabs returned to the buffer pool."),
    pool_shared_slabs: u64 = Gauge("ftsort_pool_shared_slabs", "Slabs currently parked in the pool's shared store."),
    pool_slab_high_water: u64 = Gauge("ftsort_pool_slab_high_water", "High-water mark of parked slabs in any single pool store."),
    sink_events: u64 = Counter("ftsort_sink_events_total", "Trace records (events and spans) written through a sink."),
    gz_bytes_in: u64 = Counter("ftsort_gz_bytes_in_total", "Uncompressed bytes fed into the gzip encoder."),
    gz_bytes_out: u64 = Counter("ftsort_gz_bytes_out_total", "Compressed bytes written by the gzip encoder."),
    sched_ring_events: u64 = Gauge("ftsort_sched_ring_events", "Events held in scheduler-profiler rings after the last profiled run."),
    sched_events_dropped: u64 = Counter("ftsort_sched_events_dropped_total", "Scheduler-profiler ring overflows (events dropped)."),
}

/// One family's value: counters and gauges carry a number, histograms
/// their buckets.
enum Sample<'a> {
    Counter(&'a u64),
    Gauge(&'a u64),
    Histogram(&'a Buckets),
}

impl Totals {
    /// Sets up a campaign's families: the runs counter, and a makespan
    /// histogram for each `(n, faults)` cell that has none yet.
    pub fn start_campaign(&mut self, cells: &[(usize, usize)]) {
        self.campaign_runs.get_or_insert(0);
        for &cell in cells {
            if !self.campaign_makespan_us.iter().any(|(c, _)| *c == cell) {
                self.campaign_makespan_us.push((cell, Buckets::default()));
            }
        }
    }

    /// Counts one finished campaign run, and its makespan in its cell's
    /// histogram when the cell was set up.
    pub fn campaign_run(&mut self, cell: (usize, usize), makespan_us: f64) {
        *self.campaign_runs.get_or_insert(0) += 1;
        if let Some((_, hist)) = self
            .campaign_makespan_us
            .iter_mut()
            .find(|(c, _)| *c == cell)
        {
            hist.record(makespan_us as u64);
        }
    }

    /// Renders every family as Prometheus text: the run families in table
    /// order, then the campaign's, once a campaign started. Histograms
    /// render as cumulative `_bucket{le="..."}` series (upper bounds are
    /// the inclusive tops of the log₂ buckets) plus `_sum`/`_count`.
    pub fn render_prom(&self) -> String {
        let mut out = String::with_capacity(4096);
        self.write_run_families(&mut out);
        if let Some(runs) = &self.campaign_runs {
            write_family(
                &mut out,
                "ftsort_campaign_runs_completed_total",
                "Monte-Carlo campaign runs finished",
                Sample::Counter(runs),
            );
            for ((n, r), hist) in &self.campaign_makespan_us {
                write_family(
                    &mut out,
                    &format!("ftsort_campaign_makespan_us_n{n}_r{r}"),
                    "Makespan distribution of one campaign (n, faults) cell, us",
                    Sample::Histogram(hist),
                );
            }
        }
        out
    }
}

fn write_family(out: &mut String, name: &str, help: &str, sample: Sample<'_>) {
    let kind = match sample {
        Sample::Counter(_) => "counter",
        Sample::Gauge(_) => "gauge",
        Sample::Histogram(_) => "histogram",
    };
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    match sample {
        Sample::Counter(v) | Sample::Gauge(v) => {
            let _ = writeln!(out, "{name} {v}");
        }
        Sample::Histogram(h) => {
            let used = h.counts.iter().rposition(|&c| c > 0).map_or(1, |i| i + 1);
            let mut cumulative = 0u64;
            for (i, &c) in h.counts[..used].iter().enumerate() {
                cumulative += c;
                let _ = writeln!(
                    out,
                    "{name}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_upper(i)
                );
            }
            let total: u64 = h.counts.iter().sum();
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {total}");
            let _ = writeln!(out, "{name}_sum {}", h.sum);
            let _ = writeln!(out, "{name}_count {total}");
        }
    }
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

static TOTALS: OnceLock<Mutex<Totals>> = OnceLock::new();

/// Starts collecting this process's totals (idempotent). After this,
/// every run, sink and gzip stream that ends anywhere in the process
/// folds its totals in.
pub fn install() {
    TOTALS.get_or_init(Mutex::default);
}

/// Applies `f` to the process's totals, if [`install`] has run. With
/// nothing installed (the default) a fold is one `None` check.
pub fn fold(f: impl FnOnce(&mut Totals)) {
    if let Some(totals) = TOTALS.get() {
        f(&mut totals.lock().expect("metric totals poisoned"));
    }
}

/// The process's totals as Prometheus text, if [`install`] has run.
pub fn snapshot() -> Option<String> {
    let totals = TOTALS.get()?.lock().expect("metric totals poisoned");
    Some(totals.render_prom())
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
///
/// It reads one line at a time into one buffer, so memory follows the
/// longest line and the distinct series, not the input; it looks series
/// and families up by hash, so time is linear in the input; and an error
/// quotes at most 64 bytes of any input. A caller holding the text passes
/// `text.as_bytes()`.
pub fn validate_prom(mut input: impl BufRead) -> Result<PromCheck, String> {
    #[derive(Default)]
    struct HistState {
        last_le: Option<f64>,
        last_count: u64,
        inf: Option<u64>,
        count: Option<u64>,
        has_sum: bool,
    }
    const KINDS: [&str; 5] = ["counter", "gauge", "histogram", "summary", "untyped"];
    let mut kinds: HashMap<String, &str> = HashMap::new();
    let mut seen_series: HashSet<String> = HashSet::new();
    // In declaration order, so the end-of-input checks name the first
    // declared family first; `hist_at` finds one by name.
    let mut hists: Vec<(String, HistState)> = Vec::new();
    let mut hist_at: HashMap<String, usize> = HashMap::new();
    let mut samples = 0usize;
    let mut buf = Vec::new();

    for lineno in 1usize.. {
        let err = |msg: String| format!("line {lineno}: {msg}");
        buf.clear();
        if input
            .read_until(b'\n', &mut buf)
            .map_err(|e| err(e.to_string()))?
            == 0
        {
            break;
        }
        let raw = std::str::from_utf8(&buf).map_err(|_| err("not valid UTF-8".into()))?;
        let line = raw.strip_suffix('\n').unwrap_or(raw).trim_end_matches('\r');
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
                return Err(err(format!("invalid family name '{}'", Quote(name))));
            }
            let Some(&kind) = KINDS.iter().find(|&&k| k == kind) else {
                return Err(err(format!("unknown family kind '{}'", Quote(kind))));
            };
            if kinds.contains_key(name) {
                return Err(err(format!("family '{}' declared twice", Quote(name))));
            }
            if kind == "histogram" {
                hist_at.insert(name.to_string(), hists.len());
                hists.push((name.to_string(), HistState::default()));
            }
            kinds.insert(name.to_string(), kind);
            continue;
        }
        if line.starts_with('#') {
            continue; // HELP and comments
        }

        // A sample: name[{labels}] value
        let (name, labels, value) = parse_sample(line).map_err(&err)?;
        if !valid_name(name) {
            return Err(err(format!("invalid metric name '{}'", Quote(name))));
        }
        let series_key = format!("{name}{{{labels}}}");
        if seen_series.contains(&series_key) {
            return Err(err(format!("duplicate series '{}'", Quote(&series_key))));
        }
        seen_series.insert(series_key);
        samples += 1;

        if let Some(&kind) = kinds.get(name) {
            match kind {
                "counter" => {
                    if !(value.is_finite() && value >= 0.0) {
                        return Err(err(format!("counter '{}' has value {value}", Quote(name))));
                    }
                }
                "gauge" | "untyped" => {
                    if !value.is_finite() {
                        return Err(err(format!("gauge '{}' has non-finite value", Quote(name))));
                    }
                }
                other => {
                    return Err(err(format!(
                        "bare sample for '{}' declared as {other}",
                        Quote(name)
                    )));
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
            return Err(err(format!(
                "sample for undeclared family '{}'",
                Quote(name)
            )));
        };
        let Some(&at) = hist_at.get(base) else {
            return Err(err(format!(
                "sample for undeclared family '{}'",
                Quote(name)
            )));
        };
        let state = &mut hists[at].1;
        match part {
            "bucket" => {
                let le = parse_labels(labels)
                    .map_err(&err)?
                    .into_iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| v)
                    .ok_or_else(|| err(format!("'{}' bucket without le label", Quote(name))))?;
                let count = value as u64;
                if value < 0.0 || value.fract() != 0.0 {
                    return Err(err(format!("bucket count {value} is not a whole number")));
                }
                if le == "+Inf" {
                    if state.inf.is_some() {
                        return Err(err(format!("'{}' has two +Inf buckets", Quote(base))));
                    }
                    if count < state.last_count {
                        return Err(err(format!(
                            "'{}' +Inf bucket {count} below previous bucket {}",
                            Quote(base),
                            state.last_count
                        )));
                    }
                    state.inf = Some(count);
                } else {
                    let bound: f64 = le
                        .parse()
                        .map_err(|_| err(format!("bad le bound '{}'", Quote(&le))))?;
                    if state.inf.is_some() {
                        return Err(err(format!("'{}' bucket after +Inf", Quote(base))));
                    }
                    if let Some(prev) = state.last_le {
                        if bound <= prev {
                            return Err(err(format!(
                                "'{}' le bounds not increasing ({prev} then {bound})",
                                Quote(base)
                            )));
                        }
                    }
                    if count < state.last_count {
                        return Err(err(format!(
                            "'{}' bucket counts not monotone ({} then {count})",
                            Quote(base),
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
        let name = Quote(name);
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
        families: kinds.len(),
        series: seen_series.len(),
        samples,
    })
}

/// The most bytes of input a [`validate_prom`] error quotes.
const QUOTE_BYTES: usize = 64;

/// Input quoted in an error: its first [`QUOTE_BYTES`] (cut at a character
/// boundary), then `…` if it went on.
struct Quote<'a>(&'a str);

impl std::fmt::Display for Quote<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.0;
        if s.len() <= QUOTE_BYTES {
            return f.write_str(s);
        }
        let mut end = QUOTE_BYTES;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        write!(f, "{}…", &s[..end])
    }
}

/// Splits a sample line into `(name, raw label body, value)`.
fn parse_sample(line: &str) -> Result<(&str, &str, f64), String> {
    if let Some(open) = line.find('{') {
        let close = line
            .rfind('}')
            .filter(|&c| c > open)
            .ok_or_else(|| format!("unterminated label set in '{}'", Quote(line)))?;
        let value = line[close + 1..].trim();
        if value.is_empty() {
            return Err(format!("sample '{}' has no value", Quote(line)));
        }
        return Ok((&line[..open], &line[open + 1..close], parse_value(value)?));
    }
    let mut parts = line.splitn(2, ' ');
    let name = parts.next().unwrap_or_default();
    let value = parts
        .next()
        .ok_or_else(|| format!("sample '{}' has no value", Quote(line)))?;
    Ok((name, "", parse_value(value.trim())?))
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        _ => s
            .trim()
            .parse()
            .map_err(|_| format!("bad sample value '{}'", Quote(s))),
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
            return Err(format!("empty label name in '{}'", Quote(body)));
        }
        if chars.next() != Some('"') {
            return Err(format!("label '{}' value is not quoted", Quote(&key)));
        }
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('"') => value.push('"'),
                    Some('\\') => value.push('\\'),
                    Some('n') => value.push('\n'),
                    _ => return Err(format!("bad escape in label '{}'", Quote(&key))),
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => return Err(format!("unterminated label value for '{}'", Quote(&key))),
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Fixed nonzero values in every family, a two-cell campaign included.
    fn sample_totals() -> Totals {
        let mut t = Totals {
            rounds: 193,
            messages_delivered: 186_000,
            elements_priced: 845_520,
            link_wait_us: 350,
            ws_steals: 12,
            ws_barrier_epochs: 386,
            pool_takes: 4_100,
            pool_puts: 4_099,
            pool_shared_slabs: 63,
            pool_slab_high_water: 71,
            sink_events: 718_000,
            gz_bytes_in: 63_500_000,
            gz_bytes_out: 7_500_000,
            sched_ring_events: 4_096,
            sched_events_dropped: 3,
            ..Totals::default()
        };
        t.msg_elements.add(&[2, 5, 0, 7, 1], 60);
        t.msg_elements.record(16_000);
        t.start_campaign(&[(5, 3), (6, 2)]);
        t.campaign_run((5, 3), 41_000.0);
        t.campaign_run((5, 3), 39_500.5);
        t.campaign_run((6, 2), 93_000.0);
        t
    }

    #[test]
    fn snapshot_text_is_pinned() {
        // The fixture was rendered from the same values by the
        // instrument registry this table replaced: snapshots keep their
        // bytes.
        let text = sample_totals().render_prom();
        assert_eq!(
            text,
            include_str!("../../tests/fixtures/metrics_snapshot.prom")
        );
        let check = validate_prom(text.as_bytes()).expect("pinned snapshot validates");
        assert_eq!(check.families, 19);
    }

    #[test]
    fn counter_gauge_histogram_record() {
        let mut h = Buckets::default();
        for v in [0, 1, 5, 5, 300] {
            h.record(v);
        }
        assert_eq!(h.counts.iter().sum::<u64>(), 5);
        assert_eq!(h.sum, 311);
        assert_eq!(h.counts[0], 1); // 0
        assert_eq!(h.counts[1], 1); // 1
        assert_eq!(h.counts[3], 2); // 5, 5
        assert_eq!(h.counts[9], 1); // 300

        // Pre-bucketed samples fold into the same layout.
        h.add(&[0, 2, 0, 1], 7);
        assert_eq!(h.counts.iter().sum::<u64>(), 8);
        assert_eq!(h.sum, 318);
        assert_eq!(h.counts[1], 3);
        assert_eq!(h.counts[3], 3);

        // Counters render as counters, gauges as gauges.
        let t = Totals {
            rounds: 5,
            pool_slab_high_water: 10,
            msg_elements: h,
            ..Totals::default()
        };
        let text = t.render_prom();
        assert!(text.contains("# TYPE ftsort_rounds_total counter\nftsort_rounds_total 5\n"));
        assert!(text.contains(
            "# TYPE ftsort_pool_slab_high_water gauge\nftsort_pool_slab_high_water 10\n"
        ));
        assert!(text.contains("ftsort_msg_elements_count 8\n"));
    }

    #[test]
    fn render_prom_roundtrips_through_the_validator() {
        let mut t = Totals {
            rounds: 42,
            sched_ring_events: 3,
            ..Totals::default()
        };
        for v in [0, 1, 2, 3, 700] {
            t.msg_elements.record(v);
        }
        let text = t.render_prom();
        assert!(text.contains("# TYPE ftsort_rounds_total counter"));
        assert!(text.contains("ftsort_rounds_total 42"));
        assert!(text.contains("ftsort_sched_ring_events 3"));
        assert!(text.contains("ftsort_msg_elements_bucket{le=\"0\"} 1"));
        assert!(text.contains("ftsort_msg_elements_bucket{le=\"1\"} 2"));
        assert!(text.contains("ftsort_msg_elements_bucket{le=\"3\"} 4"));
        assert!(text.contains("ftsort_msg_elements_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("ftsort_msg_elements_sum 706"));
        assert!(text.contains("ftsort_msg_elements_count 5"));
        let check = validate_prom(text.as_bytes()).expect("self-rendered snapshot validates");
        assert_eq!(check.families, 16);
        assert!(check.samples >= 5);
    }

    #[test]
    fn empty_histogram_renders_validly() {
        let text = Totals::default().render_prom();
        assert!(text.contains("ftsort_msg_elements_bucket{le=\"0\"} 0\n"));
        assert!(text.contains("ftsort_msg_elements_bucket{le=\"+Inf\"} 0"));
        validate_prom(text.as_bytes()).expect("empty histogram validates");
    }

    #[test]
    fn validator_rejects_malformed_snapshots() {
        let cases = [
            // sample for an undeclared family
            ("nope 1\n", "line 1: sample for undeclared family 'nope'"),
            // duplicate family declaration
            (
                "# TYPE a counter\n# TYPE a counter\na_total 1\n",
                "line 2: family 'a' declared twice",
            ),
            // duplicate series
            (
                "# TYPE a_total counter\na_total 1\na_total 2\n",
                "line 3: duplicate series 'a_total{}'",
            ),
            // negative counter
            (
                "# TYPE a_total counter\na_total -1\n",
                "line 2: counter 'a_total' has value -1",
            ),
            // missing value
            (
                "# TYPE a_total counter\na_total\n",
                "line 2: sample 'a_total' has no value",
            ),
            // non-monotone histogram buckets
            (
                "# TYPE h histogram\n\
                 h_bucket{le=\"1\"} 5\nh_bucket{le=\"3\"} 2\n\
                 h_bucket{le=\"+Inf\"} 5\nh_sum 9\nh_count 5\n",
                "line 3: 'h' bucket counts not monotone (5 then 2)",
            ),
            // le bounds must increase
            (
                "# TYPE h histogram\n\
                 h_bucket{le=\"3\"} 1\nh_bucket{le=\"1\"} 2\n\
                 h_bucket{le=\"+Inf\"} 2\nh_sum 4\nh_count 2\n",
                "line 3: 'h' le bounds not increasing (3 then 1)",
            ),
            // +Inf bucket must equal _count
            (
                "# TYPE h histogram\n\
                 h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 3\n",
                "histogram 'h': +Inf bucket 1 != _count 3",
            ),
            // histogram without +Inf
            (
                "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
                "histogram 'h' has no +Inf bucket",
            ),
            // unterminated label set
            (
                "# TYPE h histogram\nh_bucket{le=\"1\" 1\n",
                "line 2: unterminated label set in 'h_bucket{le=\"1\" 1'",
            ),
            // the first declared histogram is named first
            (
                "# TYPE b histogram\n# TYPE a histogram\n",
                "histogram 'b' has no +Inf bucket",
            ),
        ];
        for (text, want) in cases {
            assert_eq!(validate_prom(text.as_bytes()), Err(want.into()), "{text}");
        }
    }

    /// Runs `validate_prom` on `text` on its own thread; a validation still
    /// going after `secs` fails the test instead of stalling the suite.
    fn validate_within(text: String, secs: u64) -> Result<PromCheck, String> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(validate_prom(text.as_bytes()));
        });
        rx.recv_timeout(std::time::Duration::from_secs(secs))
            .expect("validation did not finish in time")
    }

    #[test]
    fn distinct_series_validate_in_linear_time() {
        // A validator that scans the series it has seen takes minutes here.
        let mut text = String::from("# TYPE g gauge\n");
        for i in 0..100_000 {
            writeln!(text, "g{{i=\"{i}\"}} {i}").unwrap();
        }
        let check = validate_within(text, 10);
        assert_eq!(
            check,
            Ok(PromCheck {
                families: 1,
                series: 100_000,
                samples: 100_000
            })
        );
    }

    #[test]
    fn errors_quote_a_long_line_briefly() {
        let long = "x".repeat(1 << 20);
        let cases = [
            format!("# TYPE g gauge\ng{{i=\"{long}\" 1\n"),
            format!("# TYPE g gauge\n{long} 1\n"),
            format!("# TYPE g gauge\ng {long}\n"),
            format!("# TYPE g gauge\n# TYPE {long}- gauge\n"),
            format!("# TYPE g gauge\n# TYPE g {long}\n"),
            format!("# TYPE g histogram\ng_bucket{{le=\"{long}\"}} 1\n"),
            format!("# TYPE g histogram\ng_bucket{{{long}=1}} 1\n"),
            format!("# TYPE g gauge\ng{{i=\"{long}\"}} 1\ng{{i=\"{long}\"}} 1\n"),
        ];
        for (i, text) in cases.into_iter().enumerate() {
            let line = if i == 7 { 3 } else { 2 };
            let err = validate_within(text, 10).expect_err("malformed");
            assert!(err.len() < 256, "case {i}: {}-byte error", err.len());
            assert!(
                err.starts_with(&format!("line {line}: ")),
                "case {i}: {err}"
            );
            assert!(err.contains("xxx…"), "case {i}: {err}");
        }
        // an end-of-input error names a long family briefly too
        let err = validate_within(format!("# TYPE {long} histogram\n"), 10).unwrap_err();
        assert!(err.len() < 256, "{}-byte error", err.len());
    }

    #[test]
    fn run_metrics_register_everything_and_rerender() {
        // The 16 run families, in exposition order; campaign families
        // follow only once a campaign starts.
        let t = sample_totals();
        let text = t.render_prom();
        let types: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("# TYPE "))
            .filter_map(|l| l.split(' ').next())
            .collect();
        assert_eq!(
            types[..16],
            [
                "ftsort_rounds_total",
                "ftsort_messages_delivered_total",
                "ftsort_elements_priced_total",
                "ftsort_link_wait_us_total",
                "ftsort_msg_elements",
                "ftsort_ws_steals_total",
                "ftsort_ws_barrier_epochs_total",
                "ftsort_pool_takes_total",
                "ftsort_pool_puts_total",
                "ftsort_pool_shared_slabs",
                "ftsort_pool_slab_high_water",
                "ftsort_sink_events_total",
                "ftsort_gz_bytes_in_total",
                "ftsort_gz_bytes_out_total",
                "ftsort_sched_ring_events",
                "ftsort_sched_events_dropped_total",
            ]
        );
        assert_eq!(types.len(), 19);
        assert_eq!(t.render_prom(), text, "rendering reads, never resets");
        let run_only = Totals {
            campaign_runs: None,
            campaign_makespan_us: Vec::new(),
            ..t
        };
        assert_eq!(
            validate_prom(run_only.render_prom().as_bytes())
                .unwrap()
                .families,
            16
        );
    }

    #[test]
    fn global_install_is_idempotent() {
        install();
        install();
        let mut rounds = None;
        fold(|t| {
            t.rounds += 1;
            rounds = Some(t.rounds);
        });
        assert!(
            rounds.is_some_and(|r| r >= 1),
            "folds reach the installed totals"
        );
        let text = snapshot().expect("installed above");
        validate_prom(text.as_bytes()).expect("the process snapshot validates");
    }
}
