//! The round/frontier state of the frontier executor (`par::run`): the
//! per-node cells, the message and record types they buffer, and the
//! run's shared tail.
//!
//! The cells live in one slab indexed by address, each in a
//! `ws::ShardSlot`. No cell has a lock: the round's phases make every
//! access exclusive. During a poll only the node's shard claimant touches
//! its cell (through the node's [`NodeCtx`](super::NodeCtx)); during the
//! serial flush only the coordinator; during delivery only the destination
//! shard's claimant; before and after the pool only the caller of
//! [`Engine::run`](super::Engine::run).
//!
//! The executor runs node programs in *rounds*. A round polls every node
//! on the ready frontier once — the node runs until it parks in a blocked
//! [`NodeCtx::recv`] or finishes — with sends buffered in the sender's outbox
//! and observability records in a per-node record buffer (the node's
//! [`NodeCtx`](super::NodeCtx) does both, on its own [`NodeCell`]). The
//! round's commit then delivers outboxes to inboxes in ascending node-id
//! order (which makes the receive-queue high-water mark deterministic),
//! flushes buffered records to every attached [`TraceSink`] in the same
//! order, and wakes the parked nodes whose awaited `(src, tag)` message
//! has now arrived into the next frontier.
//!
//! Because a round's sends stay invisible until its commit, the members of
//! one frontier are mutually independent: polling them in any order — or on
//! any number of threads — produces the same clocks, statistics, traces,
//! record stream and inbox peaks. That is why every worker count and shard
//! size gives byte-identical output, and `tests/engine_diff.rs` /
//! `tests/obs_invariants.rs` assert it end to end.
//!
//! Nothing in this file reads a wall clock: virtual time comes from the
//! [`CostModel`] alone, so the scheduler profiler
//! ([`crate::obs::sched`]) — which *does* timestamp worker phases with
//! monotonic host time — lives entirely in the executor's worker loop and
//! barrier, outside this file. Cells stay timestamp-free and
//! byte-identical whether or not profiling is on. Nor does this file touch
//! the metric totals ([`crate::obs::metrics`]): the cells' own counters
//! (`RunStats`, `NodeMetrics`) are the run's totals, and `Engine::run`
//! folds them in once the run has ended.
//!
//! [`NodeCtx::recv`]: super::NodeCtx::recv

use super::trace::{Trace, TraceEvent, TraceKind};
use super::ws::ShardSlot;
use super::{LinkModel, Tag};
use crate::address::NodeId;
use crate::cost::{CostModel, VirtualClock};
use crate::obs::sink::{NodeSummary, TraceSink};
use crate::obs::{NodeMetrics, NodeObservation, RunObservation, SpanLog};
use crate::stats::RunStats;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};

/// A message buffered in the sender's outbox until the round's barrier,
/// then parked in the destination's inbox until received.
pub(super) struct SimMessage<K> {
    pub(super) src: NodeId,
    pub(super) dst: NodeId,
    pub(super) tag: Tag,
    pub(super) data: Vec<K>,
    pub(super) sent_at: f64,
    pub(super) hops: u32,
    /// Link-scheduled arrival time, stamped by the serial flush under
    /// [`LinkModel::Contended`]. NaN under [`LinkModel::Uncontended`],
    /// where the receiver prices the transfer itself — keeping that path's
    /// float operations identical to the pre-contention engine.
    pub(super) arrival: f64,
    /// Time spent queued behind busy links, µs (0 when uncontended).
    pub(super) wait: f64,
}

/// An observability record buffered in its node's cell until the barrier
/// flushes it to the sinks — per-node program order is preserved, and the
/// barrier's node-id-ordered flush makes the global stream deterministic.
pub(super) enum CellRecord {
    Event(TraceEvent),
    Span { phase: Option<u16>, time: f64 },
}

/// Per-node state of a frontier-scheduled run, one slot of the run's slab.
/// During a poll only the node's own task touches its cell; at the commit
/// only the worker delivering to it does — the phase, not a lock, makes
/// each access exclusive.
pub(super) struct NodeCell<K> {
    pub(super) clock: VirtualClock,
    pub(super) stats: RunStats,
    /// Observability spans ([`super::NodeCtx::span_enter`]).
    pub(super) spans: SpanLog,
    /// Per-node utilization/communication metrics. `inbox_peak` here is
    /// exact and deterministic: the inbox length right after each
    /// barrier-ordered enqueue.
    pub(super) metrics: NodeMetrics,
    /// `Some((src, tag))` while the node is parked in a blocked `recv`.
    pub(super) waiting: Option<(NodeId, Tag)>,
    pub(super) participating: bool,
    /// Set by the polling claimant when the node program returns.
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
    fn new(dim: usize, sinking: bool, participating: bool) -> Self {
        NodeCell {
            clock: VirtualClock::new(),
            stats: RunStats::new(),
            // Boundary positions matter only among recorded events; an
            // unobserved run keeps none (they would add 16 B per span).
            spans: SpanLog::new(sinking && participating),
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

    /// Records one event at the node's clock, if a sink is attached.
    pub(super) fn emit(&mut self, node: NodeId, tag: Tag, kind: TraceKind) {
        if self.sinking {
            self.spans.event();
            self.records.push(CellRecord::Event(TraceEvent {
                time: self.clock.now(),
                node,
                tag,
                kind,
            }));
        }
    }

    /// Enters span `Some(phase)` or exits the innermost (`None`) at the
    /// node's clock, recording the boundary if a sink is attached.
    pub(super) fn span(&mut self, phase: Option<u16>) {
        let time = self.clock.now();
        match phase {
            Some(p) => self.spans.enter(p, time),
            None => self.spans.exit(time),
        }
        if self.sinking {
            self.records.push(CellRecord::Span { phase, time });
        }
    }
}

/// Builds the slab of cells, one per processor address, plus the static
/// participation map the send-side assert checks against.
pub(super) fn build_cells<K, I>(
    inputs: &[Option<I>],
    dim: usize,
    sinking: bool,
) -> (Vec<ShardSlot<NodeCell<K>>>, Arc<Vec<bool>>) {
    let participation: Arc<Vec<bool>> = Arc::new(inputs.iter().map(Option::is_some).collect());
    let cells = participation
        .iter()
        .map(|&p| ShardSlot::new(NodeCell::new(dim, sinking, p)))
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

/// Drains one node's buffered trace records into every sink, in buffer
/// (program) order, from the executor's serial flush phase.
pub(super) fn flush_records(
    sinks: &[Arc<Mutex<dyn TraceSink>>],
    node: usize,
    recs: &mut Vec<CellRecord>,
) {
    for sink in sinks {
        let mut sink = sink.lock().expect("trace sink lock poisoned");
        for rec in recs.iter() {
            match *rec {
                CellRecord::Event(ev) => sink.event(&ev),
                CellRecord::Span { phase, time } => sink.span(NodeId::from(node), phase, time),
            }
        }
    }
    recs.clear();
}

/// Panics with the full wait map — called when unfinished nodes remain but
/// the next frontier is empty.
pub(super) fn deadlock_panic<K>(cells: &mut [ShardSlot<NodeCell<K>>], remaining: usize) -> ! {
    let parked: Vec<String> = cells
        .iter_mut()
        .enumerate()
        .filter_map(|(i, c)| {
            c.get_mut()
                .waiting
                .map(|(src, tag)| format!("P{i} waits for ({src:?}, {tag:?})"))
        })
        .collect();
    panic!(
        "deadlock: no runnable node, {remaining} unfinished [{}]",
        parked.join("; ")
    );
}

/// Unwraps the cells into the participants' results and observations,
/// in ascending address order, and emits the sinks' footer — the tail of
/// [`Engine::run`](super::Engine::run). Each node's spans, span positions
/// and metrics move into the observation.
pub(super) fn collect_run<K, T>(
    cells: Vec<ShardSlot<NodeCell<K>>>,
    results: Vec<Option<T>>,
    sinks: &[Arc<Mutex<dyn TraceSink>>],
    dim: usize,
    cost: CostModel,
    link_model: LinkModel,
) -> (Vec<T>, RunObservation) {
    let participants = results.iter().filter(|r| r.is_some()).count();
    let mut values = Vec::with_capacity(participants);
    let mut nodes = Vec::with_capacity(participants);
    for (i, (result, cell)) in results.into_iter().zip(cells).enumerate() {
        let cell = cell.into_inner();
        let Some(result) = result else {
            debug_assert!(!cell.participating, "participant P{i} lost its result");
            continue;
        };
        let clock = cell.clock.now();
        let (spans, span_at) = cell.spans.finish(clock);
        values.push(result);
        nodes.push(NodeObservation {
            node: NodeId::from(i),
            clock,
            stats: cell.stats,
            spans,
            span_at,
            metrics: cell.metrics,
        });
    }
    if !sinks.is_empty() {
        let summaries: Vec<NodeSummary> = nodes.iter().map(NodeSummary::of).collect();
        for sink in sinks {
            sink.lock()
                .expect("trace sink lock poisoned")
                .finish(&summaries);
        }
    }
    let observation = RunObservation {
        dim,
        cost,
        link_model,
        trace: Trace::default(),
        nodes,
        key_type: None,
    };
    (values, observation)
}
