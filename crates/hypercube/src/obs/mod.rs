//! Run observability: phase-scoped spans, per-node/per-link metrics, and
//! aggregate reports.
//!
//! The paper's whole evaluation (§4, Tables 1–2, Fig. 7) is an attribution
//! exercise — how much virtual time each *step* of the fault-tolerant sort
//! costs — so the simulator records structured observations rather than a
//! single scalar per run:
//!
//! * **Spans** ([`SpanLog`]) — virtual-time intervals a node spends inside
//!   a named algorithm phase, entered/exited through
//!   [`NodeCtx::span_enter`](crate::sim::NodeCtx::span_enter). Phases are keyed
//!   by the same `u16` id the [`Tag::phase`](crate::sim::Tag::phase)
//!   encoding carries in bits 32..48, so message tags and spans attribute
//!   to the same phase for free.
//! * **Node metrics** ([`NodeMetrics`]) — blocked-on-recv time,
//!   per-dimension link traffic, the message-size histogram, and the
//!   receive-queue high-water mark.
//! * **[`RunObservation`]** — everything the engines captured for one run
//!   (per-node clocks, stats, spans, metrics, plus the optional event
//!   [`Trace`]); the input to the Perfetto exporter ([`perfetto`]) and the
//!   critical-path analyzer ([`critical_path`]).
//! * **[`RunReport`]** — the human/JSON-facing aggregate: per-phase busy
//!   time (interval-union per node, then max/total over nodes), per-node
//!   utilization, and per-dimension link load.
//!
//! * **Streaming & replay** ([`sink`], [`replay`]) — a [`sink::TraceSink`]
//!   receives the run's record stream as the engines emit it (optionally
//!   straight to disk, so large runs trace in O(1) memory), and
//!   [`replay::observation_from_json`] rebuilds a full [`RunObservation`]
//!   from the saved file so every analyzer also runs offline; [`diff`]
//!   aligns two runs' critical paths segment by segment.
//!
//! Span aggregation unions intervals *by phase name* per node before
//! summing, so nested or re-entrant spans of the same phase never
//! double-count wall time.

pub mod campaign;
pub mod critical_path;
pub mod diff;
pub mod gz;
pub mod hist;
pub mod json;
pub mod log;
pub mod metrics;
pub mod perfetto;
pub mod replay;
pub mod sched;
pub mod schedule;
pub mod sink;

use crate::address::NodeId;
use crate::cost::CostModel;
use crate::sim::{LinkModel, Trace};
use crate::stats::RunStats;
use json::{json_object, Json, JsonValue};

/// One closed span: a node was inside `phase` from `begin` to `end`
/// (virtual µs).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpanRecord {
    /// Phase id (the `Tag::phase` `u16` namespace).
    pub phase: u16,
    /// Virtual time the node entered the phase.
    pub begin: f64,
    /// Virtual time the node left it (`>= begin`).
    pub end: f64,
}

impl SpanRecord {
    /// Span length in virtual µs.
    pub fn duration(&self) -> f64 {
        self.end - self.begin
    }

    /// Whether `t` lies inside the span (half-open on neither side — the
    /// critical-path attribution probes midpoints, so boundaries are
    /// inclusive).
    pub fn contains(&self, t: f64) -> bool {
        self.begin <= t && t <= self.end
    }
}

/// Per-node span recorder. Spans nest like a stack: `enter` pushes,
/// `exit` closes the innermost open span at the current virtual time.
/// It numbers the node's records (boundaries, and events through
/// [`event`](Self::event)) and can keep each span's boundary positions
/// ([`NodeObservation::span_at`]).
#[derive(Clone, Debug, Default)]
pub struct SpanLog {
    open: Vec<(u16, f64, usize)>,
    closed: Vec<SpanRecord>,
    /// `(begin, end)` positions of the `closed` spans, when kept.
    at: Option<Vec<(usize, usize)>>,
    /// Records numbered so far: the position of the next one.
    next: usize,
}

impl SpanLog {
    /// An empty log with room for a typical run (a handful of phases,
    /// re-entered per substage), keeping boundary positions or not.
    pub fn new(keep_positions: bool) -> Self {
        SpanLog {
            open: Vec::with_capacity(4),
            closed: Vec::with_capacity(32),
            at: keep_positions.then(|| Vec::with_capacity(32)),
            next: 0,
        }
    }

    /// Numbers one recorded node event (send, receive or compute).
    #[inline]
    pub fn event(&mut self) {
        self.next += 1;
    }

    /// Opens a span for `phase` at virtual time `now`.
    pub fn enter(&mut self, phase: u16, now: f64) {
        self.open.push((phase, now, self.next));
        self.next += 1;
    }

    /// Closes the innermost open span at virtual time `now`. A stray exit
    /// with nothing open is ignored (robustness over panics inside node
    /// programs) and takes no position.
    pub fn exit(&mut self, now: f64) {
        if let Some((phase, begin, begin_at)) = self.open.pop() {
            self.closed.push(SpanRecord {
                phase,
                begin,
                end: now,
            });
            if let Some(at) = &mut self.at {
                at.push((begin_at, self.next));
            }
            self.next += 1;
        }
    }

    /// Finishes the log at the node's final clock, force-closing any spans
    /// a node program left open, and returns the records in close order
    /// with their boundary positions (empty unless kept).
    pub fn finish(mut self, now: f64) -> (Vec<SpanRecord>, Vec<(usize, usize)>) {
        while !self.open.is_empty() {
            self.exit(now);
        }
        (self.closed, self.at.unwrap_or_default())
    }
}

/// Per-node communication/utilization metrics beyond the flat
/// [`RunStats`] counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeMetrics {
    /// Virtual time spent blocked inside `recv` waiting for a message that
    /// had not yet arrived (clock jumps across a receive).
    pub blocked_us: f64,
    /// Virtual time this node's *incoming* messages spent queued behind
    /// busy links, summed at the receives that consumed them — always zero
    /// under [`LinkModel::Uncontended`]. A subset of [`blocked_us`]
    /// whenever the wait was on the receive's critical path.
    ///
    /// [`blocked_us`]: NodeMetrics::blocked_us
    pub link_wait_us: f64,
    /// Messages consumed by this node.
    pub msgs_received: u64,
    /// Element·hops this node *sent* across each hypercube dimension
    /// (index = dimension). Routes are charged along the set bits of
    /// `src ^ dst`, matching the e-cube route length.
    pub dim_elements: Vec<u64>,
    /// Virtual transfer time this node's sends occupied links of each
    /// dimension (index = dimension), µs: `transfer(elements, 1)` per
    /// crossed dimension. Link-model-independent — under contention the
    /// same transfers happen, only later.
    pub dim_busy_us: Vec<f64>,
    /// Element·hops charged beyond the `src ^ dst` Hamming distance —
    /// fault-detour traffic the per-dimension split cannot localize.
    pub detour_element_hops: u64,
    /// Message-size histogram: bucket 0 counts empty messages, bucket
    /// `i >= 1` counts sizes in `[2^(i-1), 2^i)`.
    pub msg_size_hist: Vec<u64>,
    /// High-water mark of this node's receive queue, in messages: the
    /// inbox length after each enqueue at the round barrier, which delivers
    /// in node-id order — exact, deterministic and identical on both
    /// engines.
    pub inbox_peak: u64,
}

impl NodeMetrics {
    /// Zeroed metrics for a `dim`-cube node.
    pub fn new(dim: usize) -> Self {
        NodeMetrics {
            blocked_us: 0.0,
            link_wait_us: 0.0,
            msgs_received: 0,
            dim_elements: vec![0; dim],
            dim_busy_us: vec![0.0; dim],
            detour_element_hops: 0,
            msg_size_hist: Vec::new(),
            inbox_peak: 0,
        }
    }

    /// Records a send of `elements` keys from `src` to `dst` over `hops`
    /// links, attributing traffic (element counts and `cost`-priced
    /// transfer time) to dimensions and the message-size histogram.
    pub fn on_send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        elements: usize,
        hops: u32,
        cost: &CostModel,
    ) {
        let direct = src.raw() ^ dst.raw();
        let mut crossed = 0u32;
        for d in 0..self.dim_elements.len() {
            if direct >> d & 1 == 1 {
                self.dim_elements[d] += elements as u64;
                self.dim_busy_us[d] += cost.transfer(elements, 1);
                crossed += 1;
            }
        }
        if hops > crossed {
            self.detour_element_hops += elements as u64 * (hops - crossed) as u64;
        }
        let size_bucket = if elements == 0 {
            0
        } else {
            (usize::BITS - elements.leading_zeros()) as usize
        };
        if self.msg_size_hist.len() <= size_bucket {
            self.msg_size_hist.resize(size_bucket + 1, 0);
        }
        self.msg_size_hist[size_bucket] += 1;
    }
}

/// Everything observed about one node in a completed run.
#[derive(Clone, Debug)]
pub struct NodeObservation {
    /// The node.
    pub node: NodeId,
    /// Final virtual clock, µs.
    pub clock: f64,
    /// Flat operation counters.
    pub stats: RunStats,
    /// Closed phase spans, in close order.
    pub spans: Vec<SpanRecord>,
    /// Each span's `(begin, end)` boundary positions, parallel to `spans`:
    /// how many of the node's records (events and boundaries) precede the
    /// boundary. A boundary shares its timestamp with events; only its
    /// position says which of them it follows. Empty when the node's
    /// events were not recorded (no sink attached).
    pub span_at: Vec<(usize, usize)>,
    /// Utilization/communication metrics.
    pub metrics: NodeMetrics,
}

/// Everything observed about a completed run — the input to reporting,
/// Perfetto export, and critical-path analysis.
#[derive(Clone, Debug)]
pub struct RunObservation {
    /// Hypercube dimension.
    pub dim: usize,
    /// The cost model the run was charged under.
    pub cost: CostModel,
    /// The link model the run was priced under.
    pub link_model: LinkModel,
    /// The event trace (empty unless a [`Trace`] sink kept it).
    pub trace: Trace,
    /// One observation per participating node, in ascending address order
    /// (faulty and idle nodes have none). Tables indexed by address are
    /// sized `1 << dim` by the code that keeps them.
    pub nodes: Vec<NodeObservation>,
    /// The element key type the run sorted (e.g. `"i64"`, `"pair"`), when
    /// known. Live engines leave it `None` (they are generic over the
    /// element); CLIs record it in the run file via the sinks, and replay
    /// carries it back so [`RunObservation::report`] reproduces a keyed
    /// report byte-for-byte.
    pub key_type: Option<String>,
}

impl RunObservation {
    /// The run's virtual makespan: the maximum final clock over nodes.
    pub fn makespan(&self) -> f64 {
        self.nodes.iter().map(|n| n.clock).fold(0.0, f64::max)
    }

    /// The observation of node `id`, if it participated.
    pub fn node(&self, id: NodeId) -> Option<&NodeObservation> {
        let i = self.nodes.binary_search_by_key(&id, |n| n.node).ok()?;
        Some(&self.nodes[i])
    }

    /// Aggregates into a [`RunReport`], naming phases through `namer`
    /// (unknown ids fall back to `phase-<id>`).
    pub fn report(&self, namer: &dyn Fn(u16) -> Option<&'static str>) -> RunReport {
        RunReport::build(self, namer)
    }
}

/// Total length of the union of a set of intervals, in µs. Overlapping or
/// nested intervals count once — this is what makes re-entrant spans safe
/// to sum.
pub fn union_us(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for &(begin, end) in intervals.iter() {
        match current {
            Some((_, ce)) if begin <= ce => {
                let (cb, ce) = current.unwrap();
                current = Some((cb, ce.max(end)));
            }
            Some((cb, ce)) => {
                total += ce - cb;
                current = Some((begin, end));
            }
            None => current = Some((begin, end)),
        }
    }
    if let Some((cb, ce)) = current {
        total += ce - cb;
    }
    total
}

/// Aggregate attribution for one named phase across all nodes.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseReport {
    /// Phase name (from the namer, or `phase-<id>`).
    pub name: String,
    /// Maximum per-node unioned span time, µs — the phase's contribution
    /// to the makespan under a barrier-per-phase reading (what the paper's
    /// tables report).
    pub max_node_us: f64,
    /// Sum of per-node unioned span time, µs — total work inside the
    /// phase.
    pub total_node_us: f64,
    /// Raw span records attributed to the phase.
    pub spans: u64,
}

json_object!(PhaseReport {
    name,
    max_node_us,
    total_node_us,
    spans,
});

/// Aggregate utilization for one node.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeReport {
    /// Node address.
    pub node: u32,
    /// Final virtual clock, µs.
    pub clock_us: f64,
    /// Time inside any span (unioned), µs.
    pub busy_us: f64,
    /// Time blocked in `recv`, µs.
    pub blocked_us: f64,
    /// Link-queueing wait absorbed by this node's receives, µs (see
    /// [`NodeMetrics::link_wait_us`]).
    pub link_wait_us: f64,
    /// `clock - busy` (time outside any instrumented phase), µs; clamped
    /// at zero against float dust.
    pub idle_us: f64,
    /// Messages sent.
    pub messages: u64,
    /// Messages received.
    pub msgs_received: u64,
    /// Elements sent.
    pub elements_sent: u64,
    /// Comparisons charged.
    pub comparisons: u64,
    /// Receive-queue high-water mark (see [`NodeMetrics::inbox_peak`]).
    pub inbox_peak: u64,
}

json_object!(NodeReport {
    node,
    clock_us,
    busy_us,
    blocked_us,
    link_wait_us,
    idle_us,
    messages,
    msgs_received,
    elements_sent,
    comparisons,
    inbox_peak,
});

/// Traffic across one hypercube dimension.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkReport {
    /// Dimension index.
    pub dim: usize,
    /// Element·hops sent across this dimension, summed over nodes.
    pub elements: u64,
    /// Total transfer time occupying this dimension's links, µs, summed
    /// over nodes (see [`NodeMetrics::dim_busy_us`]).
    pub busy_us: f64,
}

json_object!(LinkReport {
    dim,
    elements,
    busy_us,
});

/// The aggregate report for a run: embeds the summed [`RunStats`] and
/// adds phase, node and link attribution. Serialized with
/// [`RunReport::to_json`]; parsed back with [`RunReport::from_json`].
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Hypercube dimension.
    pub dim: usize,
    /// The link model the run was priced under.
    pub link_model: LinkModel,
    /// The worker count the run's executor was configured with, when the
    /// caller chose to record it ([`RunReport::with_threads`], e.g. from a
    /// CLI `--threads` flag). `None` — the default, and what the library
    /// sort functions always produce — serializes to nothing, keeping
    /// reports byte-identical across worker counts.
    pub threads: Option<usize>,
    /// The worker count that *actually ran* after the parallel engine's
    /// shard-count clamp (`schedule_for`), when the caller chose to record
    /// it ([`RunReport::with_schedule`]). On small cubes this is less than
    /// [`threads`](RunReport::threads) — reports must not claim more
    /// workers than ever ran. `None` serializes to nothing.
    pub workers_effective: Option<usize>,
    /// The effective shard size (after `auto_shard_size`), recorded
    /// together with [`workers_effective`](RunReport::workers_effective).
    pub shard_size: Option<usize>,
    /// Slabs taken from the run's [`crate::sim::pool::BufferPool`], when
    /// the caller ran with pool statistics enabled and chose to record
    /// them ([`RunReport::with_pool_stats`]). Presentation-layer metadata
    /// like [`threads`](RunReport::threads): `None` serializes to nothing.
    pub pool_takes: Option<u64>,
    /// Slabs returned to the pool (see
    /// [`pool_takes`](RunReport::pool_takes)).
    pub pool_puts: Option<u64>,
    /// High-water mark of parked slabs in any single store (the shared
    /// store or one handle's local free list, whichever ran fullest); see
    /// [`pool_takes`](RunReport::pool_takes).
    pub pool_slab_high_water: Option<u64>,
    /// The key type the run sorted (`"u32"`/`"u64"`/`"i64"`/`"pair"`), when
    /// the caller chose to record it ([`RunReport::with_key_type`], e.g.
    /// from a CLI `--key-type` flag). Presentation-layer metadata like
    /// [`threads`](RunReport::threads): `None` serializes to nothing.
    pub key_type: Option<String>,
    /// Virtual makespan, µs.
    pub makespan_us: f64,
    /// Operation counters summed over nodes.
    pub stats: RunStats,
    /// Per-phase attribution, ordered by earliest span begin.
    pub phases: Vec<PhaseReport>,
    /// Per-node utilization, address order.
    pub nodes: Vec<NodeReport>,
    /// Per-dimension link traffic.
    pub links: Vec<LinkReport>,
    /// Element·hops not attributable to a single dimension (fault
    /// detours), summed over nodes.
    pub detour_element_hops: u64,
}

json_object!(RunReport {
    dim,
    link_model,
    threads,
    workers_effective,
    shard_size,
    pool_takes,
    pool_puts,
    pool_slab_high_water,
    key_type,
    makespan_us,
    stats,
    phases,
    nodes,
    links,
    detour_element_hops,
});

impl RunReport {
    fn build(obs: &RunObservation, namer: &dyn Fn(u16) -> Option<&'static str>) -> RunReport {
        let name_of = |phase: u16| -> String {
            match namer(phase) {
                Some(s) => s.to_string(),
                None => format!("phase-{phase}"),
            }
        };

        // Phase attribution: per (name, node) interval union, then reduce.
        // `order` remembers each name's earliest span begin for stable,
        // execution-ordered rows.
        let mut names: Vec<String> = Vec::new();
        let mut order: Vec<f64> = Vec::new();
        let mut span_counts: Vec<u64> = Vec::new();
        // per name: per-node unioned time
        let mut per_node_us: Vec<Vec<f64>> = Vec::new();
        for node in &obs.nodes {
            // group this node's spans by name
            let mut by_name: Vec<(usize, Vec<(f64, f64)>)> = Vec::new();
            for s in &node.spans {
                let name = name_of(s.phase);
                let idx = match names.iter().position(|n| *n == name) {
                    Some(i) => i,
                    None => {
                        names.push(name);
                        order.push(s.begin);
                        span_counts.push(0);
                        per_node_us.push(Vec::new());
                        names.len() - 1
                    }
                };
                order[idx] = order[idx].min(s.begin);
                span_counts[idx] += 1;
                match by_name.iter_mut().find(|(i, _)| *i == idx) {
                    Some((_, v)) => v.push((s.begin, s.end)),
                    None => by_name.push((idx, vec![(s.begin, s.end)])),
                }
            }
            for (idx, mut intervals) in by_name {
                per_node_us[idx].push(union_us(&mut intervals));
            }
        }
        let mut phase_rows: Vec<(f64, PhaseReport)> = names
            .into_iter()
            .zip(order)
            .zip(span_counts)
            .zip(per_node_us)
            .map(|(((name, first), spans), per_node)| {
                let max_node_us = per_node.iter().copied().fold(0.0, f64::max);
                let total_node_us = per_node.iter().sum();
                (
                    first,
                    PhaseReport {
                        name,
                        max_node_us,
                        total_node_us,
                        spans,
                    },
                )
            })
            .collect();
        phase_rows.sort_by(|a, b| a.0.total_cmp(&b.0));
        let phases = phase_rows.into_iter().map(|(_, p)| p).collect();

        // Node utilization rows.
        let nodes: Vec<NodeReport> = obs
            .nodes
            .iter()
            .map(|n| {
                let mut intervals: Vec<(f64, f64)> =
                    n.spans.iter().map(|s| (s.begin, s.end)).collect();
                let busy_us = union_us(&mut intervals);
                NodeReport {
                    node: n.node.raw(),
                    clock_us: n.clock,
                    busy_us,
                    blocked_us: n.metrics.blocked_us,
                    link_wait_us: n.metrics.link_wait_us,
                    idle_us: (n.clock - busy_us).max(0.0),
                    messages: n.stats.messages,
                    msgs_received: n.metrics.msgs_received,
                    elements_sent: n.stats.elements_sent,
                    comparisons: n.stats.comparisons,
                    inbox_peak: n.metrics.inbox_peak,
                }
            })
            .collect();

        // Link traffic per dimension.
        let mut links: Vec<LinkReport> = (0..obs.dim)
            .map(|dim| LinkReport {
                dim,
                elements: 0,
                busy_us: 0.0,
            })
            .collect();
        let mut detour_element_hops = 0;
        for n in &obs.nodes {
            for (d, link) in links.iter_mut().enumerate() {
                link.elements += n.metrics.dim_elements.get(d).copied().unwrap_or(0);
                link.busy_us += n.metrics.dim_busy_us.get(d).copied().unwrap_or(0.0);
            }
            detour_element_hops += n.metrics.detour_element_hops;
        }

        let stats: RunStats = obs.nodes.iter().map(|n| n.stats).sum();

        RunReport {
            dim: obs.dim,
            link_model: obs.link_model,
            threads: None,
            workers_effective: None,
            shard_size: None,
            pool_takes: None,
            pool_puts: None,
            pool_slab_high_water: None,
            key_type: obs.key_type.clone(),
            makespan_us: obs.makespan(),
            stats,
            phases,
            nodes,
            links,
            detour_element_hops,
        }
    }

    /// Records the executor's worker count in the report (builder style) —
    /// presentation-layer metadata, set by CLIs that took a `--threads`
    /// flag, never by the library sort functions.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Records the parallel engine's *effective* schedule — the worker
    /// count that actually ran and the shard size after clamping (builder
    /// style). Presentation-layer metadata like
    /// [`with_threads`](Self::with_threads): set by CLIs from
    /// `hypercube::sim::par::schedule_for`, never by the library sort
    /// functions.
    pub fn with_schedule(mut self, workers_effective: usize, shard_size: usize) -> Self {
        self.workers_effective = Some(workers_effective);
        self.shard_size = Some(shard_size);
        self
    }

    /// Records the run's buffer-pool statistics (builder style):
    /// take/put counts and the parked-slab high-water mark, from
    /// [`BufferPool::counters`](crate::sim::BufferPool::counters). Presentation-layer
    /// metadata like [`with_threads`](Self::with_threads): set by CLIs
    /// that ran with a stats-enabled pool, never by the library sort
    /// functions.
    pub fn with_pool_stats(mut self, takes: u64, puts: u64, slab_high_water: u64) -> Self {
        self.pool_takes = Some(takes);
        self.pool_puts = Some(puts);
        self.pool_slab_high_water = Some(slab_high_water);
        self
    }

    /// Records the key type the run sorted (builder style) —
    /// presentation-layer metadata like [`with_threads`](Self::with_threads),
    /// set by CLIs that took a `--key-type` flag.
    pub fn with_key_type(mut self, key_type: impl Into<String>) -> Self {
        self.key_type = Some(key_type.into());
        self
    }

    /// Serializes to the report's JSON schema (documented in DESIGN.md §6).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        self.write(&mut out);
        out
    }

    /// Parses a report serialized by [`to_json`](Self::to_json); the
    /// round-trip is exact (`PartialEq` on all fields, float bits
    /// included).
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        RunReport::read(&Json::parse(text)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_log_nests_and_force_closes() {
        let mut log = SpanLog::new(true);
        log.enter(1, 0.0);
        log.event();
        log.enter(2, 5.0);
        log.exit(7.0); // closes phase 2
        log.enter(3, 8.0); // left open
        log.event();
        let (spans, at) = log.finish(10.0);
        assert_eq!(
            spans,
            vec![
                SpanRecord {
                    phase: 2,
                    begin: 5.0,
                    end: 7.0
                },
                SpanRecord {
                    phase: 3,
                    begin: 8.0,
                    end: 10.0
                },
                SpanRecord {
                    phase: 1,
                    begin: 0.0,
                    end: 10.0
                },
            ]
        );
        // records: enter 1, event, enter 2, exit 2, enter 3, event, then
        // the two force-closes
        assert_eq!(at, vec![(2, 3), (4, 6), (0, 7)]);
    }

    #[test]
    fn stray_exit_is_ignored() {
        let mut log = SpanLog::new(true);
        log.exit(1.0);
        assert!(log.finish(2.0).0.is_empty());
        // and takes no position
        let mut log = SpanLog::new(true);
        log.exit(1.0);
        log.enter(1, 1.0);
        assert_eq!(log.finish(2.0).1, vec![(0, 1)]);
        // a log that keeps no positions returns none
        let mut log = SpanLog::new(false);
        log.enter(1, 1.0);
        assert_eq!(log.finish(2.0).1, vec![]);
    }

    #[test]
    fn union_merges_overlaps_and_nesting() {
        // disjoint
        assert_eq!(union_us(&mut [(0.0, 1.0), (2.0, 3.0)]), 2.0);
        // overlapping
        assert_eq!(union_us(&mut [(0.0, 2.0), (1.0, 3.0)]), 3.0);
        // nested (the re-entrant span case)
        assert_eq!(union_us(&mut [(0.0, 10.0), (2.0, 4.0)]), 10.0);
        // touching endpoints merge
        assert_eq!(union_us(&mut [(0.0, 1.0), (1.0, 2.0)]), 2.0);
        assert_eq!(union_us(&mut Vec::new()), 0.0);
    }

    #[test]
    fn metrics_attribute_dimensions_and_detours() {
        let cost = CostModel::default();
        let mut m = NodeMetrics::new(3);
        // direct route across dims 0 and 2
        m.on_send(NodeId::new(0b000), NodeId::new(0b101), 10, 2, &cost);
        assert_eq!(m.dim_elements, vec![10, 0, 10]);
        assert_eq!(
            m.dim_busy_us,
            vec![cost.transfer(10, 1), 0.0, cost.transfer(10, 1)]
        );
        assert_eq!(m.detour_element_hops, 0);
        // fault detour: hamming distance 1 but 3 hops charged
        m.on_send(NodeId::new(0b000), NodeId::new(0b010), 4, 3, &cost);
        assert_eq!(m.dim_elements, vec![10, 4, 10]);
        assert_eq!(m.dim_busy_us[1], cost.transfer(4, 1));
        assert_eq!(m.detour_element_hops, 8);
        // sizes 10 -> bucket 4 ([8,16)), 4 -> bucket 3 ([4,8))
        assert_eq!(m.msg_size_hist[4], 1);
        assert_eq!(m.msg_size_hist[3], 1);
        // empty message lands in bucket 0
        m.on_send(NodeId::new(0), NodeId::new(1), 0, 1, &cost);
        assert_eq!(m.msg_size_hist[0], 1);
    }

    fn tiny_observation() -> RunObservation {
        let mut m0 = NodeMetrics::new(2);
        m0.on_send(NodeId::new(0), NodeId::new(1), 8, 1, &CostModel::default());
        m0.blocked_us = 3.5;
        m0.link_wait_us = 1.25;
        m0.msgs_received = 1;
        let mut s0 = RunStats::new();
        s0.record_message(8, 1);
        s0.record_comparisons(12);
        let n0 = NodeObservation {
            node: NodeId::new(0),
            clock: 100.0,
            stats: s0,
            spans: vec![
                SpanRecord {
                    phase: 1,
                    begin: 0.0,
                    end: 40.0,
                },
                // re-entrant: nested span of the same phase must not
                // double-count
                SpanRecord {
                    phase: 1,
                    begin: 10.0,
                    end: 30.0,
                },
                SpanRecord {
                    phase: 2,
                    begin: 50.0,
                    end: 90.0,
                },
            ],
            span_at: Vec::new(),
            metrics: m0,
        };
        let n1 = NodeObservation {
            node: NodeId::new(1),
            clock: 80.0,
            stats: RunStats::new(),
            spans: vec![SpanRecord {
                phase: 1,
                begin: 0.0,
                end: 60.0,
            }],
            span_at: Vec::new(),
            metrics: NodeMetrics::new(2),
        };
        RunObservation {
            key_type: None,
            dim: 2,
            cost: CostModel::default(),
            link_model: LinkModel::Contended,
            trace: Trace::default(),
            nodes: vec![n0, n1],
        }
    }

    #[test]
    fn report_unions_spans_and_orders_phases() {
        let obs = tiny_observation();
        let namer = |p: u16| match p {
            1 => Some("alpha"),
            _ => None,
        };
        let report = obs.report(&namer);
        assert_eq!(report.dim, 2);
        assert_eq!(report.makespan_us, 100.0);
        assert_eq!(report.phases.len(), 2);
        // ordered by earliest begin: alpha (0.0) before phase-2 (50.0)
        assert_eq!(report.phases[0].name, "alpha");
        assert_eq!(report.phases[0].max_node_us, 60.0); // node 1's union
        assert_eq!(report.phases[0].total_node_us, 100.0); // 40 + 60, not 60+60
        assert_eq!(report.phases[0].spans, 3);
        assert_eq!(report.phases[1].name, "phase-2");
        assert_eq!(report.phases[1].max_node_us, 40.0);
        // node rows
        assert_eq!(report.nodes.len(), 2);
        assert_eq!(report.nodes[0].busy_us, 80.0); // union(0..40, 50..90)
        assert_eq!(report.nodes[0].idle_us, 20.0);
        assert_eq!(report.nodes[0].blocked_us, 3.5);
        assert_eq!(report.nodes[0].link_wait_us, 1.25);
        // links
        assert_eq!(report.link_model, LinkModel::Contended);
        assert_eq!(report.links.len(), 2);
        assert_eq!(report.links[0].elements, 8);
        assert_eq!(report.links[0].busy_us, CostModel::default().transfer(8, 1));
        assert_eq!(report.links[1].elements, 0);
        assert_eq!(report.links[1].busy_us, 0.0);
        // embedded stats are the node sum
        assert_eq!(report.stats.messages, 1);
        assert_eq!(report.stats.comparisons, 12);
    }

    #[test]
    fn report_json_roundtrip_is_exact() {
        let obs = tiny_observation();
        let report = obs.report(&|p| if p == 1 { Some("alpha") } else { None });
        assert_eq!(report.threads, None, "library reports carry no threads");
        assert_eq!(report.workers_effective, None);
        assert_eq!(report.shard_size, None);
        let text = report.to_json();
        assert!(
            !text.contains("threads"),
            "absent threads serializes to nothing"
        );
        assert!(
            !text.contains("workers_effective") && !text.contains("shard_size"),
            "absent schedule serializes to nothing"
        );
        let back = RunReport::from_json(&text).expect("parse");
        assert_eq!(back, report);
        // and it is valid generic JSON
        assert!(Json::parse(&text).is_ok());

        // with_threads round-trips too (presentation-layer metadata)
        let threaded = report.with_threads(4);
        let text = threaded.to_json();
        assert!(text.contains("\"threads\":4"));
        let back = RunReport::from_json(&text).expect("parse");
        assert_eq!(back, threaded);
        assert!(Json::parse(&text).is_ok());

        // the effective schedule rides along the same way
        let scheduled = threaded.with_schedule(2, 16);
        let text = scheduled.to_json();
        assert!(text.contains("\"workers_effective\":2"));
        assert!(text.contains("\"shard_size\":16"));
        let back = RunReport::from_json(&text).expect("parse");
        assert_eq!(back, scheduled);
        assert!(Json::parse(&text).is_ok());

        // and so do the pool statistics
        assert!(
            !text.contains("pool_takes"),
            "absent pool stats serialize to nothing"
        );
        let pooled = scheduled.with_pool_stats(120, 118, 9);
        let text = pooled.to_json();
        assert!(text.contains("\"pool_takes\":120"));
        assert!(text.contains("\"pool_puts\":118"));
        assert!(text.contains("\"pool_slab_high_water\":9"));
        let back = RunReport::from_json(&text).expect("parse");
        assert_eq!(back, pooled);

        // and the key type
        assert!(
            !text.contains("key_type"),
            "absent key type serializes to nothing"
        );
        let keyed = pooled.with_key_type("pair");
        let text = keyed.to_json();
        assert!(text.contains("\"key_type\":\"pair\""));
        let back = RunReport::from_json(&text).expect("parse");
        assert_eq!(back, keyed);
        assert!(Json::parse(&text).is_ok());
    }
}
