//! The round/frontier scheduling core shared by the two deterministic
//! executors, `sequential::run` and `par::run`.
//!
//! Both executors run node programs in *rounds*. A round polls every node
//! on the ready frontier once — the node runs until it parks in a blocked
//! [`Comm::recv`] or finishes — with sends buffered in the sender's outbox
//! and observability records in a per-node record buffer (the node's
//! [`NodeCtx`](super::NodeCtx) does both, on its own [`NodeCell`]). A
//! barrier then *commits* the round ([`RoundCommitter::commit`]):
//! outboxes are delivered to inboxes in ascending node-id order (which
//! makes the receive-queue high-water mark deterministic), buffered
//! records are flushed to the attached [`TraceSink`] in the same order,
//! and the parked nodes whose awaited `(src, tag)` message has now arrived
//! form the next frontier.
//!
//! Because a round's sends stay invisible until its barrier, the members of
//! one frontier are mutually independent: polling them in any order — or on
//! any number of threads — produces the same clocks, statistics, traces,
//! record stream and inbox peaks. That is the determinism argument for the
//! parallel engine: it inherits byte-identical output from this core by
//! construction, and `tests/engine_diff.rs` / `tests/obs_invariants.rs`
//! assert it end to end.
//!
//! Nothing in this core reads a wall clock: virtual time comes from the
//! [`CostModel`] alone, so the scheduler profiler
//! ([`crate::obs::sched`]) — which *does* timestamp worker phases with
//! monotonic host time — lives entirely in the parallel engine's worker
//! loop and barrier, outside this file. Frontier commits stay
//! timestamp-free and byte-identical whether or not profiling is on.
//! Nor does the core touch the metric totals ([`crate::obs::metrics`]):
//! the cells' own counters (`RunStats`, `NodeMetrics`) are the run's
//! totals, and `Engine::run` folds them in once the run has ended.
//!
//! [`Comm::recv`]: super::Comm::recv

use super::engine::{NodeOutcome, RunOutcome};
use super::trace::{Trace, TraceEvent};
use super::{LinkModel, Tag};
use crate::address::NodeId;
use crate::cost::{CostModel, VirtualClock};
use crate::obs::schedule::LinkLedger;
use crate::obs::sink::{NodeSummary, TraceSink};
use crate::obs::{NodeMetrics, SpanLog};
use crate::stats::RunStats;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};

/// A node cell as shared between its program's task and the committer.
pub(super) type SharedCell<K> = Arc<Mutex<NodeCell<K>>>;

/// A message buffered in the sender's outbox until the round's barrier,
/// then parked in the destination's inbox until received.
pub(super) struct SimMessage<K> {
    pub(super) src: NodeId,
    pub(super) dst: NodeId,
    pub(super) tag: Tag,
    pub(super) data: Vec<K>,
    pub(super) sent_at: f64,
    pub(super) hops: u32,
    /// Link-scheduled arrival time, stamped by the commit barrier under
    /// [`LinkModel::Contended`]. NaN under [`LinkModel::Uncontended`],
    /// where the receiver prices the transfer itself — keeping that path's
    /// float operations identical to the pre-contention engine.
    pub(super) arrival: f64,
    /// Time spent queued behind busy links, µs (0 when uncontended).
    pub(super) wait: f64,
}

/// An observability record buffered in its node's cell until the barrier
/// flushes it to the sink — per-node program order is preserved, and the
/// barrier's node-id-ordered flush makes the global stream deterministic.
pub(super) enum CellRecord {
    Event(TraceEvent),
    Span { phase: Option<u16>, time: f64 },
}

/// Capacity preallocated for a node's trace buffer when tracing is on.
///
/// One step-8 pass of the fault-tolerant sort runs at most `dim` merge
/// stages of up to `dim` substages each, and every substage produces at
/// most 6 traced events per node (two protocol rounds of send + recv,
/// plus compute charges). `16·dim² + 64` therefore covers the heaviest
/// algorithm in the workspace with ≥2× slack — a buffer that overflows it
/// simply reallocates, so this is a fast path, not a correctness bound.
fn trace_capacity(dim: usize) -> usize {
    16 * dim * dim + 64
}

/// Per-node state of a frontier-scheduled run. During a round only the
/// node's own task touches its cell; at the barrier only the committer
/// does — so every lock acquisition is uncontended.
pub(super) struct NodeCell<K> {
    pub(super) clock: VirtualClock,
    pub(super) stats: RunStats,
    pub(super) trace: Option<Vec<TraceEvent>>,
    /// Observability spans ([`super::Comm::span_enter`]).
    pub(super) spans: SpanLog,
    /// Per-node utilization/communication metrics. `inbox_peak` here is
    /// exact and deterministic: the inbox length right after each
    /// barrier-ordered enqueue.
    pub(super) metrics: NodeMetrics,
    /// `Some((src, tag))` while the node is parked in a blocked `recv`.
    pub(super) waiting: Option<(NodeId, Tag)>,
    pub(super) participating: bool,
    /// Set (under the cell lock) when the node program returns.
    pub(super) done: bool,
    /// Messages delivered to this node, scanned front-to-back on `recv` so
    /// delivery stays FIFO per `(src, tag)` — the same order a channel
    /// gives.
    pub(super) inbox: Vec<SimMessage<K>>,
    /// Messages this node sent in the current round, awaiting the barrier.
    pub(super) outbox: Vec<SimMessage<K>>,
    /// Records awaiting the barrier flush (filled only when `sinking`).
    pub(super) records: Vec<CellRecord>,
    /// Whether a [`TraceSink`] is attached to the run.
    pub(super) sinking: bool,
}

impl<K> NodeCell<K> {
    fn new(dim: usize, tracing: bool, sinking: bool, participating: bool) -> Self {
        NodeCell {
            clock: VirtualClock::new(),
            stats: RunStats::new(),
            trace: (tracing && participating).then(|| Vec::with_capacity(trace_capacity(dim))),
            // Boundary positions matter only among recorded events; an
            // unobserved run keeps none (they would add 16 B per span).
            spans: SpanLog::new((tracing || sinking) && participating),
            metrics: NodeMetrics::new(dim),
            waiting: None,
            participating,
            done: false,
            inbox: Vec::new(),
            outbox: Vec::new(),
            records: Vec::new(),
            sinking: sinking && participating,
        }
    }

    pub(super) fn observing(&self) -> bool {
        self.trace.is_some() || self.sinking
    }

    pub(super) fn emit(&mut self, ev: TraceEvent) {
        self.spans.event();
        if let Some(trace) = &mut self.trace {
            trace.push(ev);
        }
        if self.sinking {
            self.records.push(CellRecord::Event(ev));
        }
    }
}

/// Builds one cell per processor address plus the static participation map
/// the send-side assert checks against.
pub(super) fn build_cells<K, I>(
    inputs: &[Option<I>],
    dim: usize,
    tracing: bool,
    sinking: bool,
) -> (Vec<SharedCell<K>>, Arc<Vec<bool>>) {
    let participation: Arc<Vec<bool>> = Arc::new(inputs.iter().map(Option::is_some).collect());
    let cells = participation
        .iter()
        .map(|&p| Arc::new(Mutex::new(NodeCell::new(dim, tracing, sinking, p))))
        .collect();
    (cells, participation)
}

/// Yields exactly once, returning control to the scheduler.
pub(super) struct PendOnce(pub(super) bool);

impl Future for PendOnce {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.0 {
            Poll::Ready(())
        } else {
            self.0 = true;
            Poll::Pending
        }
    }
}

/// The barrier between rounds: delivers outboxes, flushes records, prunes
/// finished nodes and computes the next frontier. Owns reusable scratch so
/// warm rounds allocate nothing.
pub(super) struct RoundCommitter<K> {
    sink: Option<Arc<Mutex<dyn TraceSink>>>,
    /// Present under [`LinkModel::Contended`]: the shared-link busy clocks
    /// that stamp each delivered message's arrival and wait.
    ledger: Option<LinkLedger>,
    cost: CostModel,
    msgs: Vec<SimMessage<K>>,
    recs: Vec<CellRecord>,
}

impl<K> RoundCommitter<K> {
    pub(super) fn new(
        sink: Option<Arc<Mutex<dyn TraceSink>>>,
        link_model: LinkModel,
        dim: usize,
        cost: CostModel,
    ) -> Self {
        RoundCommitter {
            sink,
            ledger: (link_model == LinkModel::Contended).then(|| LinkLedger::new(dim, 1 << dim)),
            cost,
            msgs: Vec::new(),
            recs: Vec::new(),
        }
    }

    /// Commits one round: for each node that ran (`ran`, ascending id),
    /// flushes its buffered records to the sink and delivers its outbox;
    /// then drops finished nodes from `alive` and fills `next` with the
    /// woken frontier (ascending id). Everything here is single-threaded
    /// and id-ordered — the source of cross-engine determinism.
    pub(super) fn commit(
        &mut self,
        cells: &[Arc<Mutex<NodeCell<K>>>],
        ran: &[usize],
        alive: &mut Vec<usize>,
        next: &mut Vec<usize>,
    ) {
        for &i in ran {
            {
                let mut cell = cells[i].lock().expect("node cell lock poisoned");
                std::mem::swap(&mut cell.outbox, &mut self.msgs);
                if cell.sinking {
                    std::mem::swap(&mut cell.records, &mut self.recs);
                }
            }
            if !self.recs.is_empty() {
                let sink = self.sink.as_ref().expect("records buffered without a sink");
                flush_records(sink, i, &mut self.recs);
            }
            for mut msg in self.msgs.drain(..) {
                if let Some(ledger) = &mut self.ledger {
                    // Links are acquired in commit order — ascending ran
                    // node, then per-node outbox (program) order — which is
                    // the deterministic arbitration rule schema v2 records.
                    let (arrival, wait) = ledger.acquire(
                        msg.src,
                        msg.dst,
                        msg.data.len(),
                        msg.hops,
                        msg.sent_at,
                        &self.cost,
                    );
                    msg.arrival = arrival;
                    msg.wait = wait;
                }
                let mut dst = cells[msg.dst.index()]
                    .lock()
                    .expect("node cell lock poisoned");
                dst.inbox.push(msg);
                let backlog = dst.inbox.len() as u64;
                dst.metrics.inbox_peak = dst.metrics.inbox_peak.max(backlog);
            }
        }
        next.clear();
        alive.retain(|&i| {
            let mut cell = cells[i].lock().expect("node cell lock poisoned");
            if cell.done {
                return false;
            }
            if let Some((src, tag)) = cell.waiting {
                if cell.inbox.iter().any(|m| m.src == src && m.tag == tag) {
                    cell.waiting = None;
                    next.push(i);
                }
            }
            true
        });
    }
}

/// Drains one node's buffered trace records into the sink, in buffer
/// (program) order. Shared by the sequential committer and the parallel
/// engine's serial flush phase so both emit the same byte stream.
pub(super) fn flush_records(
    sink: &Arc<Mutex<dyn TraceSink>>,
    node: usize,
    recs: &mut Vec<CellRecord>,
) {
    let mut sink = sink.lock().expect("trace sink lock poisoned");
    for rec in recs.drain(..) {
        match rec {
            CellRecord::Event(ev) => sink.event(&ev),
            CellRecord::Span { phase, time } => sink.span(NodeId::from(node), phase, time),
        }
    }
}

/// Panics with the full wait map — called when unfinished nodes remain but
/// the next frontier is empty.
pub(super) fn deadlock_panic<K>(cells: &[Arc<Mutex<NodeCell<K>>>], remaining: usize) -> ! {
    let parked: Vec<String> = cells
        .iter()
        .enumerate()
        .filter_map(|(i, c)| {
            let cell = c.lock().expect("node cell lock poisoned");
            cell.waiting
                .map(|(src, tag)| format!("P{i} waits for ({src:?}, {tag:?})"))
        })
        .collect();
    panic!(
        "deadlock: no runnable node, {remaining} unfinished [{}]",
        parked.join("; ")
    );
}

/// Unwraps the cells into per-node outcomes, emits the sink footer and
/// assembles the [`RunOutcome`] — the shared tail of
/// [`Engine::run`](super::Engine::run) under either executor.
pub(super) fn collect_run<K, T>(
    cells: Vec<Arc<Mutex<NodeCell<K>>>>,
    results: Vec<Option<T>>,
    sink: &Option<Arc<Mutex<dyn TraceSink>>>,
    dim: usize,
    cost: CostModel,
    link_model: LinkModel,
) -> RunOutcome<T> {
    let mut outcomes: Vec<Option<NodeOutcome<T>>> = Vec::with_capacity(cells.len());
    let mut traces = Vec::new();
    for (i, (result, cell)) in results.into_iter().zip(cells).enumerate() {
        let cell = Arc::into_inner(cell)
            .expect("all node contexts dropped with their tasks")
            .into_inner()
            .expect("node cell lock poisoned");
        match result {
            Some(result) => {
                let clock = cell.clock.now();
                let (spans, span_at) = cell.spans.finish(clock);
                outcomes.push(Some(NodeOutcome {
                    result,
                    clock,
                    stats: cell.stats,
                    spans,
                    span_at,
                    metrics: cell.metrics,
                }));
                traces.push(cell.trace.unwrap_or_default());
            }
            None => {
                debug_assert!(!cell.participating, "participant P{i} lost its result");
                outcomes.push(None);
            }
        }
    }
    if let Some(sink) = sink {
        let summaries: Vec<NodeSummary> = outcomes
            .iter()
            .enumerate()
            .filter_map(|(i, o)| {
                o.as_ref().map(|o| NodeSummary {
                    node: NodeId::from(i),
                    clock: o.clock,
                    blocked_us: o.metrics.blocked_us,
                    inbox_peak: o.metrics.inbox_peak,
                })
            })
            .collect();
        sink.lock()
            .expect("trace sink lock poisoned")
            .finish(&summaries);
    }
    RunOutcome::new(outcomes, Trace::assemble(traces), dim, cost, link_model)
}
