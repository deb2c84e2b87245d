//! The simulator's front door ([`Engine`]) and the node context
//! ([`NodeCtx`]) that node programs run against.
//!
//! [`Engine::run`] validates the inputs, builds one frontier cell per
//! processor, and runs the one executor, `par::run`, which shares each
//! round across a work-stealing pool. [`EngineKind`] picks its schedule:
//! [`EngineKind::Seq`] (the default) is one worker and one shard,
//! [`EngineKind::Par`] the requested pool. Every node gets a [`NodeCtx`]
//! backed by its own frontier cell, so one generic node program compiles
//! once and produces byte-identical simulated results on any schedule.
//!
//! Only processors given an input run a program; faulty and dangling
//! processors stay idle, mirroring the paper's implementation where faulty
//! nodes "run idle" and receive no elements. Message transport is charged
//! through the routing layer: the number of links a message crosses is
//! computed from the fault model ([`crate::routing::hop_count`]), so a
//! detour under the total-fault model costs more virtual time than the
//! same message under partial faults.

use super::frontier::{build_cells, collect_run, NodeCell, PendOnce, SimMessage};
use super::trace::TraceKind;
use super::ws::ShardSlot;
use super::{par, EngineKind, LinkModel, Tag};
use crate::address::NodeId;
use crate::cost::CostModel;
use crate::fault::FaultSet;
use crate::obs::metrics;
use crate::obs::sink::TraceSink;
use crate::obs::RunObservation;
use crate::routing;
use crate::topology::Hypercube;
use std::ptr::NonNull;
use std::sync::{Arc, Mutex};

/// Which routing algorithm the simulated machine charges hops with.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RouterKind {
    /// Shortest paths (e-cube under partial faults, BFS detours under total
    /// faults) — an omniscient oracle, the lower bound on hop counts.
    #[default]
    Oracle,
    /// Depth-first adaptive routing using only neighbor-local knowledge
    /// ([`crate::routing::adaptive_route`], after Chen & Shin) — what a
    /// real fault-tolerant router achieves; may take longer walks.
    Adaptive,
}

/// Hops charged for a `src → dst` message under the given router.
fn route_hops(faults: &FaultSet, router: RouterKind, src: NodeId, dst: NodeId) -> u32 {
    match router {
        RouterKind::Oracle => routing::hop_count(faults, src, dst),
        RouterKind::Adaptive => routing::adaptive_route(faults, src, dst).map(|r| r.hops()),
    }
    .unwrap_or_else(|| panic!("{src:?} cannot reach {dst:?}"))
}

/// Checks the input layout against the topology and fault set.
fn validate_inputs<K>(faults: &FaultSet, inputs: &[Option<Vec<K>>]) {
    assert_eq!(
        inputs.len(),
        faults.cube().len(),
        "one input slot per processor"
    );
    for (i, slot) in inputs.iter().enumerate() {
        if slot.is_some() {
            assert!(
                faults.is_normal(NodeId::from(i)),
                "input assigned to faulty processor P{i}"
            );
        }
    }
}

/// The handle a node program runs against: its address and machine, its
/// messages, and the accounting of its clock, counters and spans.
///
/// Created only by the executor, over the node's own slot in the run's
/// slab of frontier cells. Every operation acts on that cell alone, and
/// only while the node is being polled, so node programs of one round
/// never contend and no cell needs a lock. [`recv`](Self::recv) (and
/// anything built on it) is `async`: a receive whose message has not been
/// delivered suspends the node program, and the executor resumes it after
/// the round barrier that delivers the message.
pub struct NodeCtx<K> {
    me: NodeId,
    cube: Hypercube,
    faults: Arc<FaultSet>,
    cost: CostModel,
    router: RouterKind,
    /// The node's slot in the slab `Engine::run` owns, which outlives this
    /// context: `par::run` drops every task before it returns.
    cell: NonNull<ShardSlot<NodeCell<K>>>,
    /// Which addresses run a program — the send-side assert checks it.
    participation: Arc<Vec<bool>>,
}

impl<K> NodeCtx<K> {
    /// The context of node `me` on `engine`, over its cell in `cells`.
    pub(super) fn new(
        engine: &Engine,
        me: usize,
        cells: &[ShardSlot<NodeCell<K>>],
        participation: &Arc<Vec<bool>>,
    ) -> Self {
        NodeCtx {
            me: NodeId::from(me),
            cube: engine.faults.cube(),
            faults: Arc::clone(&engine.faults),
            cost: engine.cost,
            router: engine.router,
            cell: NonNull::from(&cells[me]),
            participation: Arc::clone(participation),
        }
    }

    fn cell(&mut self) -> &mut NodeCell<K> {
        // SAFETY: the context is reachable only from its node's task, which
        // runs only while its shard's claimant polls it; no other phase
        // touches the cell then. The slot outlives the task.
        unsafe { self.cell.as_ref().get() }
    }

    /// This processor's physical address.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The topology being simulated.
    pub fn cube(&self) -> Hypercube {
        self.cube
    }

    /// The fault set in force (processors this program must not address).
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// The cost model used for accounting.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// Sends `data` to `dst` (non-blocking); the router charges
    /// `hops(me, dst)` links per element. Ownership of the payload moves to
    /// the receiver — a pointer handoff, no copy.
    pub fn send(&mut self, dst: NodeId, tag: Tag, data: Vec<K>) {
        assert!(self.cube.contains(dst), "send to address outside cube");
        let hops = route_hops(&self.faults, self.router, self.me, dst);
        assert!(
            self.participation[dst.index()],
            "send to non-participating node {dst:?}"
        );
        let (me, cost) = (self.me, self.cost);
        let cell = self.cell();
        // The sender's port is busy pushing the elements onto its first link.
        cell.clock.advance(cost.transfer(data.len(), hops.min(1)));
        cell.stats.record_message(data.len(), hops);
        cell.metrics.on_send(me, dst, data.len(), hops, &cost);
        cell.emit(
            me,
            tag,
            TraceKind::Send {
                to: dst,
                elements: data.len(),
                hops,
            },
        );
        let sent_at = cell.clock.now();
        cell.outbox.push(SimMessage {
            src: me,
            dst,
            tag,
            data,
            sent_at,
            hops,
            arrival: f64::NAN,
            wait: 0.0,
        });
    }

    /// Receives the message with tag `tag` from `src`, suspending until it
    /// arrives. Messages with other `(src, tag)` pairs are buffered.
    pub async fn recv(&mut self, src: NodeId, tag: Tag) -> Vec<K> {
        let (me, cost) = (self.me, self.cost);
        loop {
            {
                let cell = self.cell();
                if let Some(i) = cell.inbox.iter().position(|m| m.src == src && m.tag == tag) {
                    let msg = cell.inbox.remove(i);
                    cell.waiting = None;
                    let before = cell.clock.now();
                    if msg.arrival.is_nan() {
                        // Uncontended: the receiver prices the wire itself.
                        cell.clock
                            .receive(msg.sent_at, cost.transfer(msg.data.len(), msg.hops));
                    } else {
                        // Contended: the commit barrier's link ledger already
                        // decided when this message lands.
                        cell.clock.receive_at(msg.arrival);
                    }
                    // Any forward jump is time spent waiting on the wire.
                    cell.metrics.blocked_us += cell.clock.now() - before;
                    cell.metrics.link_wait_us += msg.wait;
                    cell.metrics.msgs_received += 1;
                    cell.emit(
                        me,
                        tag,
                        TraceKind::Recv {
                            from: src,
                            elements: msg.data.len(),
                            wait: msg.wait,
                        },
                    );
                    return msg.data;
                }
                // Park: the barrier wakes us once the message is delivered.
                cell.waiting = Some((src, tag));
            }
            PendOnce(false).await;
        }
    }

    /// Full-duplex exchange with a partner: send ours, receive theirs.
    pub async fn exchange(&mut self, partner: NodeId, tag: Tag, data: Vec<K>) -> Vec<K> {
        self.send(partner, tag, data);
        self.recv(partner, tag).await
    }

    /// Opens an observability span for `phase` (the [`Tag::phase`] `u16`
    /// namespace) at the current virtual clock. Spans nest; close with
    /// [`span_exit`](Self::span_exit). See [`crate::obs`].
    pub fn span_enter(&mut self, phase: u16) {
        self.cell().span(Some(phase));
    }

    /// Closes the innermost open span at the current virtual clock.
    pub fn span_exit(&mut self) {
        self.cell().span(None);
    }

    /// Charges `count` key comparisons to the local clock and statistics,
    /// recording a compute event when the run is observed — the only way
    /// a node advances its clock without a message.
    pub fn charge_comparisons(&mut self, count: usize) {
        let (me, cost) = (self.me, self.cost);
        let cell = self.cell();
        cell.clock.advance(cost.compare(count));
        cell.stats.record_comparisons(count);
        cell.emit(me, Tag::new(0), TraceKind::Compute { comparisons: count });
    }

    /// The local virtual clock, µs.
    pub fn clock(&self) -> f64 {
        // SAFETY: as in `cell`; the borrow ends within this call.
        unsafe { self.cell.as_ref().get() }.clock.now()
    }
}

/// The simulated multicomputer: its fault set, pricing and schedule.
/// The executor reads these fields directly.
#[derive(Clone)]
pub struct Engine {
    pub(super) faults: Arc<FaultSet>,
    pub(super) cost: CostModel,
    pub(super) router: RouterKind,
    pub(super) link_model: LinkModel,
    pub(super) kind: EngineKind,
    /// The attached sinks, in attach order.
    pub(super) sinks: Vec<Arc<Mutex<dyn TraceSink>>>,
    pub(super) workers: Option<usize>,
    pub(super) shard: Option<usize>,
    pub(super) sched_profiler: Option<Arc<crate::obs::sched::SchedProfiler>>,
}

impl Engine {
    /// Creates a machine over the fault set's topology with the given cost
    /// model, using the default schedule ([`EngineKind::Seq`]).
    pub fn new(faults: FaultSet, cost: CostModel) -> Self {
        Engine {
            faults: Arc::new(faults),
            cost,
            router: RouterKind::default(),
            link_model: LinkModel::default(),
            kind: EngineKind::default(),
            sinks: Vec::new(),
            workers: None,
            shard: None,
            sched_profiler: None,
        }
    }

    /// Selects the routing algorithm used to charge hops (builder style).
    pub fn with_router(mut self, router: RouterKind) -> Self {
        self.router = router;
        self
    }

    /// Selects the link pricing model (builder style). The default,
    /// [`LinkModel::Uncontended`], prices every transfer as if its links
    /// were private; [`LinkModel::Contended`] serializes messages on the
    /// cube's shared directed links, and every receive records its
    /// wait/transfer split. Every schedule produces identical simulated
    /// results under either model.
    pub fn with_link_model(mut self, link_model: LinkModel) -> Self {
        self.link_model = link_model;
        self
    }

    /// Selects the schedule (builder style): one worker
    /// ([`EngineKind::Seq`]) or a pool ([`EngineKind::Par`]). Both produce
    /// identical simulated results; they differ only in wall-clock cost.
    pub fn with_engine(mut self, kind: EngineKind) -> Self {
        self.kind = kind;
        self
    }

    /// Adds a [`TraceSink`] (builder style): at each round's commit every
    /// sink, in attach order, receives the run's records — trace events,
    /// span boundaries and a per-node footer — in (round, node id,
    /// program) order. A [`Trace`](super::Trace) keeps the events in
    /// memory; a [`StreamingSink`](crate::obs::sink::StreamingSink) writes
    /// them out in O(1) memory. A run with no sink records no events.
    pub fn with_trace_sink(mut self, sink: Arc<Mutex<dyn TraceSink>>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// A fault-free machine.
    pub fn fault_free(cube: Hypercube, cost: CostModel) -> Self {
        Engine::new(FaultSet::none(cube), cost)
    }

    /// Sets the worker-pool size (builder style); only
    /// [`EngineKind::Par`] reads it ([`EngineKind::Seq`] is one worker).
    /// Defaults to the host's available parallelism. Worker count affects
    /// wall-clock only, never simulated results.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Sets the shard size — how many contiguous live-rank nodes form one
    /// unit of stealable work (builder style); only [`EngineKind::Par`]
    /// reads it ([`EngineKind::Seq`] is one shard). Defaults to an
    /// automatic size targeting ~4 shards per worker. Like the worker
    /// count, shard size affects wall-clock only, never simulated results.
    pub fn with_shard_size(mut self, shard: usize) -> Self {
        self.shard = Some(shard.max(1));
        self
    }

    /// Attaches a scheduler profiler (builder style). The run records
    /// per-worker wall-clock telemetry — one worker under
    /// [`EngineKind::Seq`] — into the profiler's mailbox as a
    /// [`SchedProfile`](crate::obs::sched::SchedProfile); take it with
    /// [`SchedProfiler::take`](crate::obs::sched::SchedProfiler::take)
    /// after the run. Profiling observes the host scheduler only — it
    /// never changes simulated results.
    pub fn with_sched_profiler(mut self, profiler: Arc<crate::obs::sched::SchedProfiler>) -> Self {
        self.sched_profiler = Some(profiler);
        self
    }

    /// The topology.
    pub fn cube(&self) -> Hypercube {
        self.faults.cube()
    }

    /// The fault set.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// The cost model.
    pub fn cost_model(&self) -> CostModel {
        self.cost
    }

    /// The schedule this machine runs programs on.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// Runs `program` SPMD on every node for which `inputs` supplies data.
    ///
    /// `inputs[i]` is the initial local data of node `i`; nodes with `None`
    /// (faulty or deliberately idle processors) are not run and must not be
    /// addressed by the program. Returns each participant's result in
    /// ascending address order, beside the run's observation, whose
    /// [`nodes`](RunObservation::nodes) list the same participants in the
    /// same order with their clocks, counters, spans and metrics —
    /// identical for both [`EngineKind`]s. The observation's trace is
    /// empty: a caller that attached a [`Trace`](super::Trace) moves it in.
    ///
    /// # Panics
    /// Propagates panics from node programs (including deadlock detection)
    /// and rejects inputs assigned to faulty processors.
    pub fn run<K, T, F>(&self, inputs: Vec<Option<Vec<K>>>, program: F) -> (Vec<T>, RunObservation)
    where
        K: Send,
        T: Send,
        F: AsyncFn(&mut NodeCtx<K>, Vec<K>) -> T + Sync,
    {
        validate_inputs(&self.faults, &inputs);
        let dim = self.faults.cube().dim();
        for sink in &self.sinks {
            sink.lock()
                .expect("trace sink lock poisoned")
                .begin(dim, &self.cost, self.link_model);
        }
        let (mut cells, participation) = build_cells(&inputs, dim, !self.sinks.is_empty());
        let results = par::run(self, &mut cells, &participation, inputs, program);
        let (results, obs) =
            collect_run(cells, results, &self.sinks, dim, self.cost, self.link_model);
        // The run's own per-node totals. Every message sent is delivered
        // at its round's commit, so the sent counts are also the
        // delivered ones.
        metrics::fold(|t| {
            let mut link_wait_us = 0.0;
            for node in &obs.nodes {
                t.messages_delivered += node.stats.messages;
                t.elements_priced += node.stats.elements_sent;
                t.msg_elements
                    .add(&node.metrics.msg_size_hist, node.stats.elements_sent);
                link_wait_us += node.metrics.link_wait_us;
            }
            t.link_wait_us += link_wait_us as u64;
        });
        (results, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultModel;
    use crate::sim::Trace;
    use crate::stats::RunStats;

    fn engine(n: usize) -> Engine {
        Engine::fault_free(Hypercube::new(n), CostModel::paper_form())
    }

    fn all_engines(n: usize) -> [Engine; 2] {
        [
            engine(n).with_engine(EngineKind::Seq),
            // 2 workers so the pool protocol is exercised even on 1-core CI
            engine(n).with_engine(EngineKind::Par).with_workers(2),
        ]
    }

    /// Inputs giving every node one key equal to its own address.
    fn identity_inputs(n: usize) -> Vec<Option<Vec<u32>>> {
        (0..1usize << n).map(|i| Some(vec![i as u32])).collect()
    }

    #[test]
    fn ping_pong_between_neighbors() {
        for eng in all_engines(1) {
            let (results, obs) = eng.run(identity_inputs(1), async |ctx, data| {
                let partner = ctx.me().neighbor(0);
                let theirs = ctx.exchange(partner, Tag::new(0), data).await;
                theirs[0]
            });
            assert_eq!(results, vec![1, 0]);
            let ids: Vec<NodeId> = obs.nodes.iter().map(|n| n.node).collect();
            assert_eq!(ids, vec![NodeId::new(0), NodeId::new(1)]);
        }
    }

    #[test]
    fn dimension_sweep_total_exchange() {
        // All-to-all reduction by sweeping dimensions: every node ends up
        // with the sum over the whole cube.
        let n = 4;
        for eng in all_engines(n) {
            let (results, _) = eng.run(identity_inputs(n), async |ctx, data| {
                let mut acc = data[0];
                for d in 0..ctx.cube().dim() {
                    let theirs = ctx
                        .exchange(ctx.me().neighbor(d), Tag::new(d as u64), vec![acc])
                        .await;
                    acc += theirs[0];
                }
                acc
            });
            let expected: u32 = (0..16).sum();
            assert_eq!(results, vec![expected; 16]);
        }
    }

    #[test]
    fn virtual_time_is_deterministic_across_runs_and_engines() {
        let n = 4;
        let run = |kind: EngineKind| {
            let eng = engine(n).with_engine(kind);
            let (_, obs) = eng.run(identity_inputs(n), async |ctx, data| {
                let mut acc = data;
                for d in 0..ctx.cube().dim() {
                    let theirs = ctx
                        .exchange(ctx.me().neighbor(d), Tag::new(d as u64), acc.clone())
                        .await;
                    ctx.charge_comparisons(acc.len() + theirs.len());
                    acc.extend(theirs);
                    acc.sort_unstable();
                }
                acc.len()
            });
            let clocks: Vec<f64> = obs.nodes.iter().map(|o| o.clock).collect();
            (obs.makespan(), clocks)
        };
        let (t1, c1) = run(EngineKind::Seq);
        let (t2, c2) = run(EngineKind::Seq);
        assert_eq!(t1, t2);
        assert_eq!(c1, c2);
        assert!(t1 > 0.0);
        // …and the par schedule computes the exact same virtual times.
        let (t3, c3) = run(EngineKind::Par);
        assert_eq!(t1, t3);
        assert_eq!(c1, c3);
    }

    #[test]
    fn virtual_times_reflect_sender_clocks() {
        // Node 1 does heavy local compute before its send; node 2 sends
        // immediately. Node 0 receives from both — the virtual times must
        // reflect each sender's own clock regardless of scheduling order.
        for eng in all_engines(2) {
            let mut inputs: Vec<Option<Vec<u32>>> = vec![None; 4];
            inputs[0] = Some(vec![]);
            inputs[1] = Some(vec![]);
            inputs[2] = Some(vec![]);
            let (results, obs) = eng.run(inputs, async |ctx, _| match ctx.me().raw() {
                0 => {
                    let a = ctx.recv(NodeId::new(1), Tag::new(1)).await;
                    let b = ctx.recv(NodeId::new(2), Tag::new(2)).await;
                    (a[0], b[0])
                }
                1 => {
                    ctx.charge_comparisons(1000);
                    ctx.send(NodeId::new(0), Tag::new(1), vec![10]);
                    (0, 0)
                }
                _ => {
                    ctx.send(NodeId::new(0), Tag::new(2), vec![20]);
                    (0, 0)
                }
            });
            assert_eq!(results[0], (10, 20));
            let t0 = obs.node(NodeId::new(0)).unwrap().clock;
            let compute = 1000.0 * eng.cost_model().t_c;
            assert!(
                t0 >= compute,
                "receiver clock {t0} must include the slow sender's compute {compute}"
            );
        }
    }

    #[test]
    fn clock_advances_with_message_size_and_hops() {
        // node 0 sends k elements to the opposite corner (n hops); the
        // receiver's clock must be ≥ k * n * t_sr.
        let n = 3;
        let k = 100usize;
        for eng in all_engines(n) {
            let mut inputs: Vec<Option<Vec<u32>>> = vec![None; 8];
            inputs[0] = Some((0..k as u32).collect());
            inputs[7] = Some(vec![]);
            let (results, obs) = eng.run(inputs, async |ctx, data| {
                if ctx.me() == NodeId::new(0) {
                    ctx.send(NodeId::new(7), Tag::new(1), data);
                    0.0
                } else {
                    let got = ctx.recv(NodeId::new(0), Tag::new(1)).await;
                    assert_eq!(got.len(), k);
                    ctx.clock()
                }
            });
            let t_sr = eng.cost_model().t_sr;
            // results follow address order: P0, then P7
            let receiver_clock = results[1];
            // sender pays 1 hop of port time, receiver syncs to sent_at + 3 hops
            let expected = (k as f64) * t_sr + (k as f64) * 3.0 * t_sr;
            assert!(
                (receiver_clock - expected).abs() < 1e-9,
                "clock {receiver_clock} vs expected {expected}"
            );
            let stats: RunStats = obs.nodes.iter().map(|n| n.stats).sum();
            assert_eq!(stats.messages, 1);
            assert_eq!(stats.elements_sent, k as u64);
            assert_eq!(stats.element_hops, (k * 3) as u64);
            assert_eq!(stats.max_hops, 3);
        }
    }

    #[test]
    fn total_fault_model_charges_detour_hops() {
        // With node 1 totally faulty, 0 → 3 must detour (still 2 hops in Q2?
        // no: Q2 path 0→2→3 avoids 1 and has 2 hops). Use Q3 and kill both
        // intermediates 1 and 2 so the route 0→3 needs 4 hops.
        let faults = FaultSet::from_raw(Hypercube::new(3), &[1, 2]).with_model(FaultModel::Total);
        let eng = Engine::new(faults, CostModel::paper_form());
        let mut inputs: Vec<Option<Vec<u32>>> = vec![None; 8];
        inputs[0] = Some(vec![42]);
        inputs[3] = Some(vec![]);
        let (_, obs) = eng.run(inputs, async |ctx, _data| {
            if ctx.me() == NodeId::new(0) {
                ctx.send(NodeId::new(3), Tag::new(9), vec![7]);
            } else {
                let got = ctx.recv(NodeId::new(0), Tag::new(9)).await;
                assert_eq!(got, vec![7]);
            }
        });
        let stats: RunStats = obs.nodes.iter().map(|n| n.stats).sum();
        assert_eq!(stats.max_hops, 4);
    }

    #[test]
    fn partial_fault_model_relays_through_faults() {
        let faults = FaultSet::from_raw(Hypercube::new(3), &[1, 2]).with_model(FaultModel::Partial);
        let eng = Engine::new(faults, CostModel::paper_form());
        let mut inputs: Vec<Option<Vec<u32>>> = vec![None; 8];
        inputs[0] = Some(vec![]);
        inputs[3] = Some(vec![]);
        let (_, obs) = eng.run(inputs, async |ctx, _| {
            if ctx.me() == NodeId::new(0) {
                ctx.send(NodeId::new(3), Tag::new(9), vec![7u32]);
            } else {
                ctx.recv(NodeId::new(0), Tag::new(9)).await;
            }
        });
        let stats: RunStats = obs.nodes.iter().map(|n| n.stats).sum();
        assert_eq!(stats.max_hops, 2, "e-cube path relays via fault");
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        for eng in all_engines(1) {
            let (results, _) = eng.run(identity_inputs(1), async |ctx, _| {
                let partner = ctx.me().neighbor(0);
                if ctx.me() == NodeId::new(0) {
                    // send in one order…
                    ctx.send(partner, Tag::new(1), vec![10u32]);
                    ctx.send(partner, Tag::new(2), vec![20u32]);
                    0
                } else {
                    // …receive in the other
                    let b = ctx.recv(NodeId::new(0), Tag::new(2)).await;
                    let a = ctx.recv(NodeId::new(0), Tag::new(1)).await;
                    a[0] + b[0]
                }
            });
            assert_eq!(results[1], 30);
        }
    }

    #[test]
    fn a_node_receives_what_it_sends_itself() {
        // A self-send is where the commit could alias the sender's and the
        // destination's cell: the serial flush must end the sender's
        // borrow before it delivers, and the bins deliver into the
        // sender's own shard.
        let n = 3;
        let run = |eng: Engine| {
            let (results, obs) = eng.run(identity_inputs(n), async |ctx, data| {
                let me = ctx.me();
                ctx.send(me, Tag::new(1), data);
                ctx.charge_comparisons(2);
                let own = ctx.recv(me, Tag::new(1)).await;
                let theirs = ctx.exchange(me.neighbor(0), Tag::new(2), own.clone()).await;
                (own[0], theirs[0])
            });
            let nodes: Vec<(f64, RunStats, u64)> = obs
                .nodes
                .iter()
                .map(|o| (o.clock, o.stats, o.metrics.inbox_peak))
                .collect();
            (results, nodes)
        };
        let seq = run(engine(n).with_engine(EngineKind::Seq));
        let bins = run(engine(n).with_engine(EngineKind::Par).with_workers(2));
        let trace = Arc::new(Mutex::new(Trace::default()));
        let flush = run(engine(n)
            .with_engine(EngineKind::Par)
            .with_workers(2)
            .with_trace_sink(trace.clone()));
        let expected: Vec<(u32, u32)> = (0..8).map(|i| (i, i ^ 1)).collect();
        assert_eq!(seq.0, expected);
        assert!(seq.1.iter().all(|&(clock, stats, _)| clock > 0.0
            && stats.messages == 2
            && stats.comparisons == 2));
        assert_eq!(bins, seq, "par@2 on the bins");
        assert_eq!(flush, seq, "par@2 on the serial flush");
        // two sends, two receives and a compute per node
        assert_eq!(taken(&trace).len(), 8 * 5);
    }

    #[test]
    fn comparisons_charge_clock_and_stats() {
        for eng in all_engines(0) {
            let (results, obs) = eng.run(vec![Some(Vec::<u32>::new())], async |ctx, _| {
                ctx.charge_comparisons(17);
                ctx.charge_comparisons(5);
                ctx.clock()
            });
            assert_eq!(
                results,
                vec![17.0 * eng.cost_model().t_c + 5.0 * eng.cost_model().t_c]
            );
            assert_eq!(obs.nodes[0].stats.comparisons, 22);
        }
    }

    #[test]
    fn faulty_nodes_cannot_receive_inputs() {
        for kind in [EngineKind::Seq, EngineKind::Par] {
            let faults = FaultSet::from_raw(Hypercube::new(2), &[1]);
            let eng = Engine::new(faults, CostModel::paper_form()).with_engine(kind);
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut inputs: Vec<Option<Vec<u32>>> = vec![None; 4];
                inputs[1] = Some(vec![1]);
                eng.run(inputs, async |_ctx, _d| 0u32);
            }));
            assert!(result.is_err());
        }
    }

    /// Takes the events an in-memory [`Trace`] sink kept.
    fn taken(trace: &Mutex<Trace>) -> Trace {
        std::mem::take(&mut *trace.lock().unwrap())
    }

    #[test]
    fn tracing_records_sends_recvs_and_compute() {
        for eng in all_engines(1) {
            let trace = Arc::new(Mutex::new(Trace::default()));
            eng.with_trace_sink(trace.clone())
                .run(identity_inputs(1), async |ctx, data| {
                    ctx.charge_comparisons(3);
                    let partner = ctx.me().neighbor(0);
                    let theirs = ctx.exchange(partner, Tag::new(4), data).await;
                    theirs[0]
                });
            let trace = taken(&trace);
            // 2 sends + 2 recvs + 2 computes
            assert_eq!(trace.len(), 6);
            let sends = || {
                trace
                    .events()
                    .iter()
                    .filter(|e| matches!(e.kind, TraceKind::Send { .. }))
            };
            assert_eq!(sends().count(), 2);
            // timestamps are non-decreasing
            assert!(trace.events().windows(2).all(|w| w[0].time <= w[1].time));
            // every send has a matching recv with the same element count
            for s in sends() {
                let TraceKind::Send { to, elements, .. } = s.kind else {
                    unreachable!()
                };
                assert!(trace.events().iter().any(|e| e.node == to
                    && matches!(
                        e.kind,
                        TraceKind::Recv { from, elements: el, .. } if from == s.node && el == elements
                    )));
            }
        }
    }

    #[test]
    fn every_attached_sink_receives_the_same_records() {
        use crate::obs::sink::StreamingSink;
        let n = 3;
        let mut files = Vec::new();
        for eng in all_engines(n) {
            let a = Arc::new(Mutex::new(StreamingSink::new(Vec::new())));
            let b = Arc::new(Mutex::new(StreamingSink::new(Vec::new())));
            let eng = eng.with_trace_sink(a.clone()).with_trace_sink(b.clone());
            eng.run(identity_inputs(n), async |ctx, data| {
                ctx.span_enter(1);
                let mut acc = data;
                for d in 0..ctx.cube().dim() {
                    let theirs = ctx
                        .exchange(ctx.me().neighbor(d), Tag::new(d as u64), acc.clone())
                        .await;
                    ctx.charge_comparisons(theirs.len());
                    acc.extend(theirs);
                }
                ctx.span_exit();
                acc.len()
            });
            // The engine holds the sinks until it drops.
            drop(eng);
            let written = |sink: Arc<Mutex<StreamingSink<Vec<u8>>>>| {
                Arc::into_inner(sink)
                    .expect("the engine dropped its handle")
                    .into_inner()
                    .unwrap()
                    .into_inner()
                    .unwrap()
            };
            let (a, b) = (written(a), written(b));
            // 8 nodes × 3 dimensions × (send + recv + compute) events
            assert!(a.split(|&c| c == b'\n').count() > 8 * 3 * 3);
            assert_eq!(a, b, "two sinks on one run got different records");
            files.push(a);
        }
        assert_eq!(files[0], files[1], "seq and par@2 streamed different runs");
    }

    /// Runs `body` on a fresh thread and returns its panic message, or
    /// `None` if it returned; a run still going after 30 s fails the test
    /// instead of stalling the suite.
    fn panic_message_within_watchdog(body: impl FnOnce() + Send + 'static) -> Option<String> {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
            let message = result.err().map(|payload| {
                payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "<non-string panic payload>".into())
            });
            let _ = tx.send(message);
        });
        rx.recv_timeout(std::time::Duration::from_secs(30))
            .expect("engine hung instead of panicking")
    }

    #[test]
    fn recv_timeout_detects_deadlock() {
        // Both schedules detect deadlock without a timeout: once no node is
        // runnable the engine panics with the wait map. A node panic must
        // surface from `Engine::run` as that node's own payload, even while
        // its partner is parked in `recv` (the parallel pool must unwind
        // its barrier, not hang on it).
        let engines = [
            ("seq", engine(1).with_engine(EngineKind::Seq)),
            (
                "par@2",
                engine(1).with_engine(EngineKind::Par).with_workers(2),
            ),
            (
                "par@4",
                engine(1).with_engine(EngineKind::Par).with_workers(4),
            ),
        ];
        for (name, eng) in engines {
            let deadlocked = eng.clone();
            let msg = panic_message_within_watchdog(move || {
                deadlocked.run(identity_inputs(1), async |ctx, _| {
                    // nobody ever sends this: the engine must panic, not hang
                    ctx.recv(ctx.me(), Tag::new(1)).await
                });
            })
            .unwrap_or_else(|| panic!("{name}: deadlocked program must panic"));
            assert!(msg.starts_with("deadlock:"), "{name}: {msg}");
            assert!(msg.contains("P0 waits for"), "{name}: {msg}");
            assert!(msg.contains("P1 waits for"), "{name}: {msg}");

            let msg = panic_message_within_watchdog(move || {
                eng.run(identity_inputs(1), async |ctx, data| {
                    if ctx.me() == NodeId::new(1) {
                        panic!("node program P1 failed");
                    }
                    // P0 blocks on a message P1 never sends
                    ctx.exchange(NodeId::new(1), Tag::new(2), data).await
                });
            })
            .unwrap_or_else(|| panic!("{name}: node panic must propagate"));
            assert_eq!(msg, "node program P1 failed", "{name}");
        }
    }

    #[test]
    fn idle_nodes_do_not_run() {
        for eng in all_engines(2) {
            let mut inputs: Vec<Option<Vec<u32>>> = vec![None; 4];
            inputs[2] = Some(vec![]);
            let (results, obs) = eng.run(inputs, async |ctx, _| ctx.me().raw());
            assert!(obs.node(NodeId::new(0)).is_none());
            assert!(obs.node(NodeId::new(1)).is_none());
            assert!(obs.node(NodeId::new(2)).is_some());
            assert!(obs.node(NodeId::new(3)).is_none());
            assert_eq!(results, vec![2]);
            assert_eq!(obs.nodes.len(), 1);
        }
    }

    #[test]
    fn engines_agree_on_trace_clocks_and_stats() {
        // A busier program: binomial-tree gather at node 0 on Q3.
        let n = 3;
        let run = |kind: EngineKind| {
            let trace = Arc::new(Mutex::new(Trace::default()));
            let out = engine(n)
                .with_engine(kind)
                .with_trace_sink(trace.clone())
                .run(identity_inputs(n), async |ctx, data| {
                    let me = ctx.me().raw();
                    let mut acc = data;
                    for d in 0..ctx.cube().dim() {
                        if me & ((1 << (d + 1)) - 1) == 0 {
                            let child = ctx.me().neighbor(d);
                            let theirs = ctx.recv(child, Tag::new(d as u64)).await;
                            ctx.charge_comparisons(theirs.len());
                            acc.extend(theirs);
                        } else if me & ((1 << d) - 1) == 0 {
                            ctx.send(ctx.me().neighbor(d), Tag::new(d as u64), acc);
                            return Vec::new();
                        }
                    }
                    acc
                });
            (out, taken(&trace))
        };
        let ((a, a_obs), a_trace) = run(EngineKind::Seq);
        let ((b, b_obs), b_trace) = run(EngineKind::Par);
        assert_eq!(a[0].len(), 8);
        assert_eq!(a, b);
        assert_eq!(a_obs.nodes.len(), b_obs.nodes.len());
        for (x, y) in a_obs.nodes.iter().zip(&b_obs.nodes) {
            assert_eq!(x.node, y.node);
            assert_eq!(x.clock, y.clock);
            assert_eq!(x.stats, y.stats);
        }
        assert!(!a_trace.is_empty());
        assert_eq!(a_trace.events(), b_trace.events());
    }
}
