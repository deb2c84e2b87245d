//! Monte-Carlo fault-campaign observatory: streaming aggregate analytics
//! over thousands of seeded fault placements, plus outlier forensics.
//!
//! Every observability surface below this module — [`RunReport`](super::RunReport),
//! Perfetto export, critical-path diffing, the scheduler profiler — looks
//! at exactly *one* run. The paper's headline results (Tables 1–2) are the
//! opposite: **expectations over random fault placements**. This module
//! holds the fleet-scale half of that question:
//!
//! * [`RunSummary`] — the per-run digest a campaign driver extracts from
//!   one sort (makespan, per-phase virtual times, wait totals, operation
//!   counts, inbox peak, and the faulty-subcube partition shape).
//! * [`CampaignAccumulator`] — *online* aggregation: per-(n, fault-count)
//!   cell, each metric keeps count/sum/min/max plus a log-bucket
//!   [`LogHistogram`] for percentile estimates
//!   ([`LogHistogram::quantile`]). Summaries **must** be fed in ascending
//!   run-index order — the deterministic merge rule that makes campaign
//!   output byte-identical regardless of how many worker threads produced
//!   the summaries (workers fill an index-addressed table; the single
//!   merge pass walks it in order, so float accumulation order is fixed).
//! * [`CampaignReport`] — the versioned aggregate with an exact JSON
//!   round-trip through the [`json`](super::json) codec and Table-1-style
//!   ASCII distribution tables ([`CampaignReport::tables`]).
//! * **Outlier policy** — per cell, every run whose makespan is at/above
//!   the interpolated p99 estimate is an outlier (the cell maximum always
//!   qualifies, so small campaigns still capture at least one), and the
//!   run at the p50 order statistic (ties broken by lowest run index) is
//!   the *median exemplar*; a driver re-executes exactly these runs with a
//!   streaming sink to capture gzip run files for `replay`/`trace-diff`
//!   forensics. Selection happens after the deterministic aggregation
//!   pass, so the captured set (and bytes) is `--jobs`-independent.
//! * **Live progress** — the campaign runner sets up the campaign's
//!   families in the process's [`Totals`](super::metrics::Totals) when it
//!   starts (a runs counter and one makespan histogram per cell) and folds
//!   each run in as it finishes, so a Prometheus snapshot taken
//!   mid-campaign shows the distributions filling in.
//!
//! The sort-executing driver itself lives downstream (the `ft-bench`
//! crate's `campaign` module and the `ftsort-campaign` CLI): this crate
//! simulates machines but does not know how to plan a fault-tolerant sort.

use super::hist::LogHistogram;
use super::json::{json_object, read_member, write_member, Json, JsonValue};
use crate::sim::LinkModel;
use std::fmt::Write as _;

/// Campaign report schema version ([`CampaignReport::version`]).
pub const CAMPAIGN_SCHEMA_VERSION: u64 = 1;

/// The digest one campaign run contributes to the aggregates: everything
/// Table-1-style distribution tables need, nothing the engines would have
/// to keep alive afterwards.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSummary {
    /// Global run index within the campaign (cell-major, see the driver).
    pub run_index: u64,
    /// The per-run RNG seed derived from the campaign seed and
    /// `run_index` (recorded so a single run can be reproduced by hand).
    pub seed: u64,
    /// Cube dimension.
    pub n: usize,
    /// Faults placed.
    pub r: usize,
    /// Simulated turnaround time, µs.
    pub makespan_us: f64,
    /// Step-3 virtual time (local + intra-subcube sort), µs.
    pub step3_us: f64,
    /// Step-7 virtual time (inter-subcube compare-splits), µs.
    pub step7_us: f64,
    /// Step-8 virtual time (re-merge/re-sort), µs.
    pub step8_us: f64,
    /// Link-queueing wait summed over nodes, µs (0 when uncontended).
    pub wait_total_us: f64,
    /// Key comparisons performed.
    pub comparisons: u64,
    /// Elements × links crossed.
    pub element_hops: u64,
    /// Receive-queue high-water mark, max over nodes.
    pub inbox_peak: u64,
    /// Minimum cutting-dimension count `m` of the fault partition.
    pub mincut: usize,
    /// Subcube dimension `s` of the designated single-fault structure.
    pub subcube_dim: usize,
    /// Live (non-faulty) processors.
    pub live: usize,
}

/// Online aggregate of one scalar metric: count, exact running sum (for
/// the mean), min/max, and a log-bucket histogram for quantile estimates.
///
/// `record` is O(1) and allocation-free; the mean is `sum / count`
/// computed at read time, so feeding summaries in a fixed order makes the
/// float result bit-reproducible (the campaign's determinism contract).
#[derive(Clone, Debug, PartialEq)]
pub struct MetricAgg {
    /// Samples recorded.
    pub count: u64,
    /// Running sum (fixed accumulation order ⇒ bit-reproducible).
    pub sum: f64,
    /// Smallest sample (0 until the first record).
    pub min: f64,
    /// Largest sample (0 until the first record).
    pub max: f64,
    /// Log-bucket histogram of the samples truncated to `u64`.
    pub hist: LogHistogram,
}

json_object!(MetricAgg {
    count,
    sum,
    min,
    max,
    hist,
});

impl Default for MetricAgg {
    fn default() -> Self {
        MetricAgg::new()
    }
}

impl MetricAgg {
    /// An empty aggregate.
    pub fn new() -> Self {
        MetricAgg {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            hist: LogHistogram::new(),
        }
    }

    /// Streams one sample in.
    pub fn record(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            if v < self.min {
                self.min = v;
            }
            if v > self.max {
                self.max = v;
            }
        }
        self.count += 1;
        self.sum += v;
        self.hist.record(v as u64);
    }

    /// Arithmetic mean (`0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// The metric slots every cell aggregates, in serialization/table order.
const METRICS: [&str; 8] = [
    "makespan_us",
    "step3_us",
    "step7_us",
    "step8_us",
    "wait_total_us",
    "comparisons",
    "element_hops",
    "inbox_peak",
];

/// Aggregates for one (n, fault-count) campaign cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellReport {
    /// Cube dimension.
    pub n: usize,
    /// Faults per run.
    pub r: usize,
    /// Runs aggregated.
    pub runs: u64,
    /// Runs that failed to plan/execute and were dropped from the
    /// aggregates (a `WARNING` in `bench_diff`).
    pub runs_failed: u64,
    /// Per-metric aggregates, indexed like the metric slots (`METRICS`);
    /// look one up by name with [`CellReport::metric`].
    pub metrics: Vec<MetricAgg>,
    /// Distribution of the partition's minimum cut `m` (index = `m`).
    pub mincut_counts: Vec<u64>,
    /// Distribution of the structure's subcube dimension `s` (index = `s`).
    pub sdim_counts: Vec<u64>,
    /// Interpolated p50 makespan estimate, µs (0 when the cell is empty).
    pub p50_makespan_us: u64,
    /// Interpolated p99 makespan estimate, µs.
    pub p99_makespan_us: u64,
    /// Interpolated p50 wait-total estimate, µs.
    pub p50_wait_total_us: u64,
    /// Interpolated p99 wait-total estimate, µs.
    pub p99_wait_total_us: u64,
    /// Run indices at/above the p99 makespan estimate (the cell maximum
    /// always qualifies), ascending — the forensics capture set.
    pub outlier_runs: Vec<u64>,
    /// Run index of the p50 order statistic (lowest index on ties) — the
    /// median exemplar outliers are diffed against. `None` when empty.
    pub median_run: Option<u64>,
}

impl CellReport {
    /// The aggregate for a named metric slot (see `METRICS`).
    pub fn metric(&self, name: &str) -> Option<&MetricAgg> {
        METRICS
            .iter()
            .position(|&m| m == name)
            .map(|i| &self.metrics[i])
    }
}

/// Written by hand: the metric slots (`METRICS`) are flat members of the cell,
/// which a field table cannot express.
impl JsonValue for CellReport {
    fn write(&self, out: &mut String) {
        out.push('{');
        write_member(out, "n", &self.n);
        write_member(out, "r", &self.r);
        write_member(out, "runs", &self.runs);
        write_member(out, "runs_failed", &self.runs_failed);
        for (name, agg) in METRICS.iter().zip(&self.metrics) {
            write_member(out, name, agg);
        }
        write_member(out, "mincut_counts", &self.mincut_counts);
        write_member(out, "sdim_counts", &self.sdim_counts);
        write_member(out, "p50_makespan_us", &self.p50_makespan_us);
        write_member(out, "p99_makespan_us", &self.p99_makespan_us);
        write_member(out, "p50_wait_total_us", &self.p50_wait_total_us);
        write_member(out, "p99_wait_total_us", &self.p99_wait_total_us);
        write_member(out, "outlier_runs", &self.outlier_runs);
        write_member(out, "median_run", &self.median_run);
        out.push('}');
    }

    fn read(v: &Json) -> Result<Self, String> {
        Ok(CellReport {
            n: read_member(v, "n")?,
            r: read_member(v, "r")?,
            runs: read_member(v, "runs")?,
            runs_failed: read_member(v, "runs_failed")?,
            metrics: METRICS
                .iter()
                .map(|name| read_member(v, name))
                .collect::<Result<_, _>>()?,
            mincut_counts: read_member(v, "mincut_counts")?,
            sdim_counts: read_member(v, "sdim_counts")?,
            p50_makespan_us: read_member(v, "p50_makespan_us")?,
            p99_makespan_us: read_member(v, "p99_makespan_us")?,
            p50_wait_total_us: read_member(v, "p50_wait_total_us")?,
            p99_wait_total_us: read_member(v, "p99_wait_total_us")?,
            outlier_runs: read_member(v, "outlier_runs")?,
            median_run: read_member(v, "median_run")?,
        })
    }
}

/// The versioned whole-campaign aggregate: configuration echo plus one
/// [`CellReport`] per (n, fault-count) cell, in configuration order.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignReport {
    /// Schema version ([`CAMPAIGN_SCHEMA_VERSION`]).
    pub version: u64,
    /// The campaign seed every per-run seed derives from.
    pub campaign_seed: u64,
    /// Runs attempted per cell.
    pub runs_per_cell: u64,
    /// Total elements sorted per run.
    pub m: u64,
    /// Link pricing model of every run.
    pub link_model: LinkModel,
    /// Key type of every run (`u32|u64|i64|pair`).
    pub key_type: String,
    /// Per-cell aggregates.
    pub cells: Vec<CellReport>,
}

json_object!(CampaignReport {
    version,
    campaign_seed,
    runs_per_cell,
    m,
    link_model,
    key_type,
    cells,
});

/// One cell's online state inside [`CampaignAccumulator`].
#[derive(Clone, Debug)]
struct CellAccumulator {
    n: usize,
    r: usize,
    runs_failed: u64,
    metrics: Vec<MetricAgg>,
    mincut_counts: Vec<u64>,
    sdim_counts: Vec<u64>,
    /// `(run_index, makespan_us)` per run — kept so outlier/median
    /// selection can name run indices once the final quantiles are known.
    makespans: Vec<(u64, f64)>,
}

impl CellAccumulator {
    fn new(n: usize, r: usize) -> Self {
        CellAccumulator {
            n,
            r,
            runs_failed: 0,
            metrics: vec![MetricAgg::new(); METRICS.len()],
            mincut_counts: Vec::new(),
            sdim_counts: Vec::new(),
            makespans: Vec::new(),
        }
    }

    fn record(&mut self, s: &RunSummary) {
        let values = [
            s.makespan_us,
            s.step3_us,
            s.step7_us,
            s.step8_us,
            s.wait_total_us,
            s.comparisons as f64,
            s.element_hops as f64,
            s.inbox_peak as f64,
        ];
        for (agg, v) in self.metrics.iter_mut().zip(values) {
            agg.record(v);
        }
        bump(&mut self.mincut_counts, s.mincut);
        bump(&mut self.sdim_counts, s.subcube_dim);
        self.makespans.push((s.run_index, s.makespan_us));
    }

    fn finish(self) -> CellReport {
        let makespan_hist = &self.metrics[0].hist;
        let wait_hist = &self.metrics[4].hist;
        let p50 = makespan_hist.quantile(0.5).unwrap_or(0);
        let p99 = makespan_hist.quantile(0.99).unwrap_or(0);
        let max = self.metrics[0].max;

        // Outliers: at/above the interpolated p99 estimate; the cell
        // maximum always qualifies so every non-empty cell captures ≥ 1.
        let mut outlier_runs: Vec<u64> = self
            .makespans
            .iter()
            .filter(|&&(_, mk)| mk as u64 >= p99 || mk == max)
            .map(|&(idx, _)| idx)
            .collect();
        outlier_runs.sort_unstable();

        // Median exemplar: the p50 order statistic, lowest index on ties.
        let median_run = if self.makespans.is_empty() {
            None
        } else {
            let mut sorted = self.makespans.clone();
            sorted.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            Some(sorted[(sorted.len() - 1) / 2].0)
        };

        CellReport {
            n: self.n,
            r: self.r,
            runs: self.metrics[0].count,
            runs_failed: self.runs_failed,
            p50_makespan_us: p50,
            p99_makespan_us: p99,
            p50_wait_total_us: wait_hist.quantile(0.5).unwrap_or(0),
            p99_wait_total_us: wait_hist.quantile(0.99).unwrap_or(0),
            metrics: self.metrics,
            mincut_counts: self.mincut_counts,
            sdim_counts: self.sdim_counts,
            outlier_runs,
            median_run,
        }
    }
}

fn bump(counts: &mut Vec<u64>, index: usize) {
    if counts.len() <= index {
        counts.resize(index + 1, 0);
    }
    counts[index] += 1;
}

/// Streaming campaign aggregation. Feed [`record`](Self::record) /
/// [`record_failure`](Self::record_failure) **in ascending run-index
/// order** — the deterministic merge rule — then [`finish`](Self::finish).
#[derive(Clone, Debug)]
pub struct CampaignAccumulator {
    campaign_seed: u64,
    runs_per_cell: u64,
    m: u64,
    link_model: LinkModel,
    key_type: String,
    cells: Vec<CellAccumulator>,
}

impl CampaignAccumulator {
    /// A fresh accumulator echoing the campaign configuration.
    pub fn new(
        campaign_seed: u64,
        runs_per_cell: u64,
        m: u64,
        link_model: LinkModel,
        key_type: &str,
    ) -> Self {
        CampaignAccumulator {
            campaign_seed,
            runs_per_cell,
            m,
            link_model,
            key_type: key_type.to_string(),
            cells: Vec::new(),
        }
    }

    fn cell(&mut self, n: usize, r: usize) -> &mut CellAccumulator {
        if let Some(i) = self.cells.iter().position(|c| c.n == n && c.r == r) {
            &mut self.cells[i]
        } else {
            self.cells.push(CellAccumulator::new(n, r));
            self.cells.last_mut().unwrap()
        }
    }

    /// Streams one run's summary into its (n, r) cell.
    pub fn record(&mut self, s: &RunSummary) {
        self.cell(s.n, s.r).record(s);
    }

    /// Records a run that failed to plan/execute (kept out of the
    /// aggregates, surfaced as the cell's `runs_failed`).
    pub fn record_failure(&mut self, n: usize, r: usize) {
        self.cell(n, r).runs_failed += 1;
    }

    /// Closes the campaign: computes quantiles and the outlier/median
    /// selection per cell.
    pub fn finish(self) -> CampaignReport {
        CampaignReport {
            version: CAMPAIGN_SCHEMA_VERSION,
            campaign_seed: self.campaign_seed,
            runs_per_cell: self.runs_per_cell,
            m: self.m,
            link_model: self.link_model,
            key_type: self.key_type,
            cells: self
                .cells
                .into_iter()
                .map(CellAccumulator::finish)
                .collect(),
        }
    }
}

impl CampaignReport {
    /// Serializes the report as compact JSON. Floats use `Display` (Rust's
    /// shortest-round-trip formatting), so
    /// [`from_json`](Self::from_json) `∘` `to_json` is the identity —
    /// the same exactness contract [`RunReport`](super::RunReport) keeps.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024 + 1024 * self.cells.len());
        self.write(&mut out);
        out
    }

    /// Parses [`to_json`](Self::to_json) output back, field for field.
    /// Rejects unknown schema versions.
    pub fn from_json(text: &str) -> Result<CampaignReport, String> {
        let doc = Json::parse(text)?;
        let version: u64 = read_member(&doc, "version")?;
        if version > CAMPAIGN_SCHEMA_VERSION {
            return Err(format!(
                "campaign report version {version} is newer than supported {CAMPAIGN_SCHEMA_VERSION}"
            ));
        }
        CampaignReport::read(&doc)
    }

    /// Renders Table-1-style ASCII distribution tables, one block per
    /// (n, fault-count) cell: per-metric mean/min/p50/p99/max rows, the
    /// partition-shape distribution, a makespan histogram bar chart, and
    /// the outlier/median forensics line.
    pub fn tables(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "campaign seed {} · {} runs/cell · M={} · link={} · keys={}",
            self.campaign_seed, self.runs_per_cell, self.m, self.link_model, self.key_type
        );
        for cell in &self.cells {
            let _ = writeln!(
                out,
                "\ncell n={} r={} · {} runs{}",
                cell.n,
                cell.r,
                cell.runs,
                if cell.runs_failed > 0 {
                    format!(" · {} FAILED", cell.runs_failed)
                } else {
                    String::new()
                }
            );
            let _ = writeln!(
                out,
                "  {:<14} {:>14} {:>14} {:>12} {:>12} {:>14}",
                "metric", "mean", "min", "~p50", "~p99", "max"
            );
            for (name, agg) in METRICS.iter().zip(&cell.metrics) {
                let _ = writeln!(
                    out,
                    "  {:<14} {:>14.1} {:>14.1} {:>12} {:>12} {:>14.1}",
                    name,
                    agg.mean(),
                    agg.min,
                    agg.hist.quantile(0.5).unwrap_or(0),
                    agg.hist.quantile(0.99).unwrap_or(0),
                    agg.max
                );
            }
            out.push_str("  partition shape:");
            for (m, &c) in cell.mincut_counts.iter().enumerate() {
                if c > 0 {
                    let _ = write!(out, " m={m} ×{c} ({:.1}%)", pct(c, cell.runs));
                }
            }
            out.push_str(" ·");
            for (s, &c) in cell.sdim_counts.iter().enumerate() {
                if c > 0 {
                    let _ = write!(out, " s={s} ×{c} ({:.1}%)", pct(c, cell.runs));
                }
            }
            out.push('\n');
            out.push_str("  makespan distribution (µs, log₂ buckets):\n");
            let hist = &cell.metrics[0].hist;
            let peak = hist.counts().iter().copied().max().unwrap_or(0).max(1);
            for (i, &c) in hist.counts().iter().enumerate() {
                if c == 0 {
                    continue;
                }
                let (lo, hi) = LogHistogram::bucket_range(i);
                // u128: a count read from a file may be near u64::MAX
                let bar = "#".repeat((u128::from(c) * 40).div_ceil(u128::from(peak)) as usize);
                let _ = writeln!(
                    out,
                    "    [{lo},{hi})  {bar} {c} ({:.1}%)",
                    pct(c, cell.runs)
                );
            }
            let outliers = cell
                .outlier_runs
                .iter()
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(", ");
            let _ = writeln!(
                out,
                "  outlier runs (≥ ~p99 makespan): {} [{}] · median exemplar run {}",
                cell.outlier_runs.len(),
                outliers,
                cell.median_run
                    .map(|i| i.to_string())
                    .unwrap_or_else(|| "-".into())
            );
        }
        out
    }
}

fn pct(count: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        count as f64 / total as f64 * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::super::metrics::{validate_prom, Totals};
    use super::*;

    fn summary(run_index: u64, n: usize, r: usize, makespan: f64) -> RunSummary {
        RunSummary {
            run_index,
            seed: run_index.wrapping_mul(77),
            n,
            r,
            makespan_us: makespan,
            step3_us: makespan * 0.5,
            step7_us: makespan * 0.3,
            step8_us: makespan * 0.2,
            wait_total_us: 0.125 * run_index as f64,
            comparisons: 1000 + run_index,
            element_hops: 500 + 3 * run_index,
            inbox_peak: 2 + run_index % 5,
            mincut: 1 + (run_index % 3) as usize,
            subcube_dim: n - 1 - (run_index % 2) as usize,
            live: (1 << n) - r,
        }
    }

    fn sample_report() -> CampaignReport {
        let mut acc = CampaignAccumulator::new(42, 8, 2000, LinkModel::Uncontended, "i64");
        for i in 0..8 {
            acc.record(&summary(i, 5, 3, 40_000.0 + 1_000.0 * i as f64));
        }
        for i in 8..16 {
            acc.record(&summary(i, 6, 2, 90_000.0 + 500.0 * i as f64));
        }
        acc.record_failure(6, 2);
        acc.finish()
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let report = sample_report();
        let json = report.to_json();
        let back = CampaignReport::from_json(&json).expect("parse");
        assert_eq!(back, report);
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn newer_versions_are_rejected() {
        let mut report = sample_report();
        report.version = CAMPAIGN_SCHEMA_VERSION + 1;
        let err = CampaignReport::from_json(&report.to_json()).unwrap_err();
        assert!(err.contains("newer"), "{err}");
    }

    #[test]
    fn aggregates_match_brute_force() {
        let summaries: Vec<RunSummary> = (0..32)
            .map(|i| summary(i, 5, 3, 30_000.0 + 997.0 * ((i * 7) % 13) as f64))
            .collect();
        let mut acc = CampaignAccumulator::new(1, 32, 2000, LinkModel::Uncontended, "i64");
        for s in &summaries {
            acc.record(s);
        }
        let report = acc.finish();
        let cell = &report.cells[0];
        assert_eq!(cell.runs, 32);

        // Brute-force recomputation, same accumulation order.
        let makespans: Vec<f64> = summaries.iter().map(|s| s.makespan_us).collect();
        let sum: f64 = makespans.iter().fold(0.0, |a, &b| a + b);
        let agg = cell.metric("makespan_us").unwrap();
        assert_eq!(agg.sum.to_bits(), sum.to_bits());
        assert_eq!(agg.mean().to_bits(), (sum / 32.0).to_bits());
        assert_eq!(
            agg.min,
            makespans.iter().cloned().fold(f64::INFINITY, f64::min)
        );
        assert_eq!(
            agg.max,
            makespans.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        );

        let comp_sum: f64 = summaries.iter().fold(0.0, |a, s| a + s.comparisons as f64);
        assert_eq!(
            cell.metric("comparisons").unwrap().sum.to_bits(),
            comp_sum.to_bits()
        );

        // Quantile estimates land in the same bucket as the exact order
        // statistics.
        let mut sorted: Vec<u64> = makespans.iter().map(|&m| m as u64).collect();
        sorted.sort_unstable();
        for (q, field) in [(0.5, cell.p50_makespan_us), (0.99, cell.p99_makespan_us)] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            assert_eq!(
                LogHistogram::bucket_of(field),
                LogHistogram::bucket_of(sorted[rank - 1]),
                "q={q}"
            );
        }
    }

    #[test]
    fn outlier_policy_always_captures_the_max() {
        // All makespans equal: the interpolated p99 sits at the top of the
        // single bucket, but the max rule still captures every tied run.
        let mut acc = CampaignAccumulator::new(7, 4, 100, LinkModel::Uncontended, "u32");
        for i in 0..4 {
            acc.record(&summary(i, 4, 2, 50_000.0));
        }
        let cell = &acc.finish().cells[0];
        assert_eq!(cell.outlier_runs, vec![0, 1, 2, 3]);

        // Distinct makespans: the single maximum is always an outlier.
        let mut acc = CampaignAccumulator::new(7, 4, 100, LinkModel::Uncontended, "u32");
        for i in 0..4 {
            acc.record(&summary(i, 4, 2, 50_000.0 + 10_000.0 * i as f64));
        }
        let cell = &acc.finish().cells[0];
        assert!(cell.outlier_runs.contains(&3));
        assert_eq!(cell.median_run, Some(1));
    }

    #[test]
    fn record_order_determines_nothing_but_is_fixed() {
        // Same multiset fed in the canonical (run-index) order twice gives
        // byte-identical JSON — the determinism contract the driver's
        // ordered merge pass relies on.
        let a = sample_report();
        let b = sample_report();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn tables_render_outliers_and_shape() {
        let text = sample_report().tables();
        assert!(text.contains("cell n=5 r=3"), "{text}");
        assert!(text.contains("outlier runs"), "{text}");
        assert!(text.contains("partition shape"), "{text}");
        assert!(text.contains("makespan distribution"), "{text}");
    }

    #[test]
    fn campaign_metrics_register_and_record() {
        let mut totals = Totals::default();
        totals.start_campaign(&[(5, 3), (6, 2)]);
        // A second start with an overlapping cell adds only the new one.
        totals.start_campaign(&[(6, 2), (7, 1)]);
        totals.campaign_run((5, 3), 41_000.0);
        totals.campaign_run((6, 2), 93_000.0);
        totals.campaign_run((9, 9), 1.0); // unknown cell: counted, not bucketed
        assert_eq!(totals.campaign_runs, Some(3));
        let cells: Vec<_> = totals
            .campaign_makespan_us
            .iter()
            .map(|(c, _)| *c)
            .collect();
        assert_eq!(cells, [(5, 3), (6, 2), (7, 1)]);
        let prom = totals.render_prom();
        assert!(
            prom.contains("ftsort_campaign_runs_completed_total 3"),
            "{prom}"
        );
        assert!(
            prom.contains("ftsort_campaign_makespan_us_n5_r3_count 1"),
            "{prom}"
        );
        assert!(
            prom.contains("ftsort_campaign_makespan_us_n7_r1_count 0"),
            "{prom}"
        );
        validate_prom(prom.as_bytes()).expect("valid exposition");
    }
}
