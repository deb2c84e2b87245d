//! The simulator's front door ([`Engine`]) and the node context
//! ([`NodeCtx`]) that node programs run against.
//!
//! [`Engine::run`] validates the inputs, builds one frontier cell per
//! processor, and dispatches on [`EngineKind`] (default
//! [`EngineKind::Seq`]) to one of two executors over the shared
//! round/frontier core: `sequential::run`, which polls every node on one
//! thread, and `par::run`, which shares each round across a
//! work-stealing pool. Both hand every node a [`NodeCtx`] backed by the
//! node's own frontier cell, so one generic node program compiles once,
//! runs on either, and produces byte-identical simulated results.
//!
//! Only processors given an input run a program; faulty and dangling
//! processors stay idle, mirroring the paper's implementation where faulty
//! nodes "run idle" and receive no elements. Message transport is charged
//! through the routing layer: the number of links a message crosses is
//! computed from the fault model ([`crate::routing::hop_count`]), so a
//! detour under the total-fault model costs more virtual time than the
//! same message under partial faults.

use super::frontier::{build_cells, collect_run, CellCtx, SharedCell};
use super::trace::Trace;
use super::{par, sequential, Comm, EngineKind, LinkModel, Tag};
use crate::address::NodeId;
use crate::cost::CostModel;
use crate::fault::FaultSet;
use crate::obs::sink::TraceSink;
use crate::obs::{NodeMetrics, NodeObservation, RunObservation, SpanRecord};
use crate::routing;
use crate::stats::RunStats;
use crate::topology::Hypercube;
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

/// What one simulated processor produced.
#[derive(Clone, Debug)]
pub struct NodeOutcome<T> {
    /// The node program's return value.
    pub result: T,
    /// The node's final virtual clock, µs.
    pub clock: f64,
    /// Operation counters for this node.
    pub stats: RunStats,
    /// Closed observability spans ([`crate::sim::Comm::span_enter`]), in
    /// close order.
    pub spans: Vec<SpanRecord>,
    /// Per-node utilization/communication metrics.
    pub metrics: NodeMetrics,
}

/// The result of running a program on the machine.
#[derive(Clone, Debug)]
pub struct RunOutcome<T> {
    outcomes: Vec<Option<NodeOutcome<T>>>,
    trace: Trace,
    dim: usize,
    cost: CostModel,
    link_model: LinkModel,
}

impl<T> RunOutcome<T> {
    pub(super) fn new(
        outcomes: Vec<Option<NodeOutcome<T>>>,
        trace: Trace,
        dim: usize,
        cost: CostModel,
        link_model: LinkModel,
    ) -> Self {
        RunOutcome {
            outcomes,
            trace,
            dim,
            cost,
            link_model,
        }
    }

    /// The run's observability view — spans, metrics and trace detached
    /// from the node results — for reporting ([`RunObservation::report`]),
    /// Perfetto export and critical-path analysis.
    pub fn observation(&self) -> RunObservation {
        RunObservation {
            dim: self.dim,
            cost: self.cost,
            link_model: self.link_model,
            key_type: None,
            trace: self.trace.clone(),
            nodes: self
                .outcomes
                .iter()
                .enumerate()
                .map(|(i, o)| {
                    o.as_ref().map(|o| NodeObservation {
                        node: NodeId::from(i),
                        clock: o.clock,
                        stats: o.stats,
                        spans: o.spans.clone(),
                        metrics: o.metrics.clone(),
                    })
                })
                .collect(),
        }
    }

    /// Per-node outcomes indexed by physical address (`None` where no
    /// program ran: faulty or idle processors).
    pub fn outcomes(&self) -> &[Option<NodeOutcome<T>>] {
        &self.outcomes
    }

    /// The event trace (empty unless [`Engine::with_tracing`] was enabled).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The outcome of a specific node, if it participated.
    pub fn node(&self, id: NodeId) -> Option<&NodeOutcome<T>> {
        self.outcomes.get(id.index()).and_then(|o| o.as_ref())
    }

    /// Turnaround time: the maximum virtual clock over all processors — the
    /// quantity the paper plots as "execution time".
    pub fn turnaround(&self) -> f64 {
        self.outcomes
            .iter()
            .flatten()
            .map(|o| o.clock)
            .fold(0.0, f64::max)
    }

    /// Aggregated operation counters over all processors.
    pub fn total_stats(&self) -> RunStats {
        self.outcomes.iter().flatten().map(|o| o.stats).sum()
    }

    /// Consumes the outcome, yielding `(node, result)` pairs in ascending
    /// address order.
    pub fn into_results(self) -> Vec<(NodeId, T)> {
        self.outcomes
            .into_iter()
            .enumerate()
            .filter_map(|(i, o)| o.map(|o| (NodeId::from(i), o.result)))
            .collect()
    }
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

/// The per-node communication handle handed to node programs.
///
/// Implements [`Comm`] over the node's own frontier cell; created only by
/// the executors. Both hand out this one type, so one generic node
/// program compiles once and runs on either.
pub struct NodeCtx<K> {
    me: NodeId,
    cube: Hypercube,
    faults: Arc<FaultSet>,
    cost: CostModel,
    router: RouterKind,
    cell: CellCtx<K>,
}

impl<K> NodeCtx<K> {
    /// The context of node `me` on `engine`, over its cell in `cells`.
    pub(super) fn new(
        engine: &Engine,
        me: usize,
        cells: &[SharedCell<K>],
        participation: &Arc<Vec<bool>>,
    ) -> Self {
        NodeCtx {
            me: NodeId::from(me),
            cube: engine.faults.cube(),
            faults: Arc::clone(&engine.faults),
            cost: engine.cost,
            router: engine.router,
            cell: CellCtx::new(Arc::clone(&cells[me]), Arc::clone(participation)),
        }
    }
}

impl<K> Comm<K> for NodeCtx<K> {
    fn me(&self) -> NodeId {
        self.me
    }

    fn cube(&self) -> Hypercube {
        self.cube
    }

    fn faults(&self) -> &FaultSet {
        &self.faults
    }

    fn cost_model(&self) -> CostModel {
        self.cost
    }

    fn send(&mut self, dst: NodeId, tag: Tag, data: Vec<K>) {
        assert!(self.cube.contains(dst), "send to address outside cube");
        let hops = route_hops(&self.faults, self.router, self.me, dst);
        self.cell.send(self.me, dst, tag, data, hops, self.cost);
    }

    async fn recv(&mut self, src: NodeId, tag: Tag) -> Vec<K> {
        self.cell.recv(self.me, src, tag, self.cost).await
    }

    fn span_enter(&mut self, phase: u16) {
        self.cell.span_enter(phase);
    }

    fn span_exit(&mut self) {
        self.cell.span_exit();
    }

    fn charge_comparisons(&mut self, count: usize) {
        self.cell.charge_comparisons(self.me, count, self.cost);
    }

    fn clock(&self) -> f64 {
        self.cell.clock()
    }
}

/// The simulated multicomputer: its fault set, pricing and executor.
/// The executors read these fields directly.
#[derive(Clone)]
pub struct Engine {
    pub(super) faults: Arc<FaultSet>,
    pub(super) cost: CostModel,
    pub(super) router: RouterKind,
    pub(super) link_model: LinkModel,
    pub(super) tracing: bool,
    pub(super) kind: EngineKind,
    pub(super) sink: Option<Arc<Mutex<dyn TraceSink>>>,
    pub(super) workers: Option<usize>,
    pub(super) shard: Option<usize>,
    pub(super) sched_profiler: Option<Arc<crate::obs::sched::SchedProfiler>>,
}

impl Engine {
    /// Creates a machine over the fault set's topology with the given cost
    /// model, using the default executor ([`EngineKind::Seq`]).
    pub fn new(faults: FaultSet, cost: CostModel) -> Self {
        Engine {
            faults: Arc::new(faults),
            cost,
            router: RouterKind::default(),
            link_model: LinkModel::default(),
            tracing: false,
            kind: EngineKind::default(),
            sink: None,
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
    /// wait/transfer split. All executors produce identical simulated
    /// results under either model.
    pub fn with_link_model(mut self, link_model: LinkModel) -> Self {
        self.link_model = link_model;
        self
    }

    /// Selects the executor (builder style). Both executors produce
    /// identical simulated results; they differ only in wall-clock cost.
    pub fn with_engine(mut self, kind: EngineKind) -> Self {
        self.kind = kind;
        self
    }

    /// Enables per-event tracing (builder style); the run's [`Trace`] is
    /// then available from [`RunOutcome::trace`].
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Attaches a streaming [`TraceSink`] (builder style): the run's
    /// records — trace events, span boundaries and a per-node footer —
    /// are handed to the sink as they are emitted, independently of
    /// [`Engine::with_tracing`] (which controls only the in-memory
    /// buffered [`Trace`]). Streaming without tracing is the O(1)-memory
    /// path for large runs.
    pub fn with_trace_sink(mut self, sink: Arc<Mutex<dyn TraceSink>>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// A fault-free machine.
    pub fn fault_free(cube: Hypercube, cost: CostModel) -> Self {
        Engine::new(FaultSet::none(cube), cost)
    }

    /// Sets the parallel executor's worker-pool size (builder style); only
    /// [`EngineKind::Par`] reads it. Defaults to the host's available
    /// parallelism. Worker count affects wall-clock only, never simulated
    /// results.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// Sets the parallel executor's shard size — how many contiguous
    /// live-rank nodes form one unit of stealable work (builder style);
    /// only [`EngineKind::Par`] reads it. Defaults to an automatic size
    /// targeting ~4 shards per worker. Like the worker count, shard size
    /// affects wall-clock only, never simulated results.
    pub fn with_shard_size(mut self, shard: usize) -> Self {
        self.shard = Some(shard.max(1));
        self
    }

    /// Attaches a scheduler profiler (builder style); only
    /// [`EngineKind::Par`] reads it. The run records per-worker wall-clock
    /// telemetry into the profiler's mailbox as a
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

    /// The executor this machine runs programs on.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// Runs `program` SPMD on every node for which `inputs` supplies data.
    ///
    /// `inputs[i]` is the initial local data of node `i`; nodes with `None`
    /// (faulty or deliberately idle processors) are not run and must not be
    /// addressed by the program. Returns per-node results, virtual clocks and
    /// operation counts — identical for both [`EngineKind`]s.
    ///
    /// # Panics
    /// Propagates panics from node programs (including deadlock detection)
    /// and rejects inputs assigned to faulty processors.
    pub fn run<K, T, F>(&self, inputs: Vec<Option<Vec<K>>>, program: F) -> RunOutcome<T>
    where
        K: Send,
        T: Send,
        F: AsyncFn(&mut NodeCtx<K>, Vec<K>) -> T + Sync,
    {
        validate_inputs(&self.faults, &inputs);
        let dim = self.faults.cube().dim();
        if let Some(sink) = &self.sink {
            sink.lock()
                .expect("trace sink lock poisoned")
                .begin(dim, &self.cost, self.link_model);
        }
        let (cells, participation) = build_cells(&inputs, dim, self.tracing, self.sink.is_some());
        let results = match self.kind {
            EngineKind::Seq => sequential::run(self, &cells, &participation, inputs, program),
            EngineKind::Par => par::run(self, &cells, &participation, inputs, program),
        };
        collect_run(cells, results, &self.sink, dim, self.cost, self.link_model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultModel;

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
            let out = eng.run(identity_inputs(1), async |ctx, data| {
                let partner = ctx.me().neighbor(0);
                let theirs = ctx.exchange(partner, Tag::new(0), data).await;
                theirs[0]
            });
            let results = out.into_results();
            assert_eq!(results, vec![(NodeId::new(0), 1), (NodeId::new(1), 0)]);
        }
    }

    #[test]
    fn dimension_sweep_total_exchange() {
        // All-to-all reduction by sweeping dimensions: every node ends up
        // with the sum over the whole cube.
        let n = 4;
        for eng in all_engines(n) {
            let out = eng.run(identity_inputs(n), async |ctx, data| {
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
            for (_, v) in out.into_results() {
                assert_eq!(v, expected);
            }
        }
    }

    #[test]
    fn virtual_time_is_deterministic_across_runs_and_engines() {
        let n = 4;
        let run = |kind: EngineKind| {
            let eng = engine(n).with_engine(kind);
            let out = eng.run(identity_inputs(n), async |ctx, data| {
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
            let clocks: Vec<f64> = out.outcomes().iter().flatten().map(|o| o.clock).collect();
            (out.turnaround(), clocks)
        };
        let (t1, c1) = run(EngineKind::Seq);
        let (t2, c2) = run(EngineKind::Seq);
        assert_eq!(t1, t2);
        assert_eq!(c1, c2);
        assert!(t1 > 0.0);
        // …and the parallel executor computes the exact same virtual times.
        let (t3, c3) = run(EngineKind::Par);
        assert_eq!(t1, t3);
        assert_eq!(c1, c3);
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
            let out = eng.run(inputs, async |ctx, data| {
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
            let receiver_clock = out.node(NodeId::new(7)).unwrap().result;
            // sender pays 1 hop of port time, receiver syncs to sent_at + 3 hops
            let expected = (k as f64) * t_sr + (k as f64) * 3.0 * t_sr;
            assert!(
                (receiver_clock - expected).abs() < 1e-9,
                "clock {receiver_clock} vs expected {expected}"
            );
            let stats = out.total_stats();
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
        let out = eng.run(inputs, async |ctx, _data| {
            if ctx.me() == NodeId::new(0) {
                ctx.send(NodeId::new(3), Tag::new(9), vec![7]);
            } else {
                let got = ctx.recv(NodeId::new(0), Tag::new(9)).await;
                assert_eq!(got, vec![7]);
            }
        });
        assert_eq!(out.total_stats().max_hops, 4);
    }

    #[test]
    fn partial_fault_model_relays_through_faults() {
        let faults = FaultSet::from_raw(Hypercube::new(3), &[1, 2]).with_model(FaultModel::Partial);
        let eng = Engine::new(faults, CostModel::paper_form());
        let mut inputs: Vec<Option<Vec<u32>>> = vec![None; 8];
        inputs[0] = Some(vec![]);
        inputs[3] = Some(vec![]);
        let out = eng.run(inputs, async |ctx, _| {
            if ctx.me() == NodeId::new(0) {
                ctx.send(NodeId::new(3), Tag::new(9), vec![7u32]);
            } else {
                ctx.recv(NodeId::new(0), Tag::new(9)).await;
            }
        });
        assert_eq!(
            out.total_stats().max_hops,
            2,
            "e-cube path relays via fault"
        );
    }

    #[test]
    fn out_of_order_tags_are_buffered() {
        for eng in all_engines(1) {
            let out = eng.run(identity_inputs(1), async |ctx, _| {
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
            assert_eq!(out.node(NodeId::new(1)).unwrap().result, 30);
        }
    }

    #[test]
    fn comparisons_charge_clock_and_stats() {
        for eng in all_engines(0) {
            let out = eng.run(vec![Some(Vec::<u32>::new())], async |ctx, _| {
                ctx.charge_comparisons(17);
                ctx.charge_comparisons(5);
                ctx.clock()
            });
            let o = out.node(NodeId::new(0)).unwrap();
            assert_eq!(
                o.result,
                17.0 * eng.cost_model().t_c + 5.0 * eng.cost_model().t_c
            );
            assert_eq!(o.stats.comparisons, 22);
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

    #[test]
    fn tracing_records_sends_recvs_and_compute() {
        use super::super::trace::TraceKind;
        for eng in all_engines(1) {
            let eng = eng.with_tracing();
            let out = eng.run(identity_inputs(1), async |ctx, data| {
                ctx.charge_comparisons(3);
                let partner = ctx.me().neighbor(0);
                let theirs = ctx.exchange(partner, Tag::new(4), data).await;
                theirs[0]
            });
            let trace = out.trace();
            assert!(!trace.is_empty());
            // 2 sends + 2 recvs + 2 computes
            assert_eq!(trace.len(), 6);
            assert_eq!(trace.sends().count(), 2);
            // timestamps are non-decreasing
            assert!(trace.events().windows(2).all(|w| w[0].time <= w[1].time));
            // every send has a matching recv with the same element count
            for s in trace.sends() {
                let TraceKind::Send { to, elements, .. } = s.kind else {
                    unreachable!()
                };
                assert!(trace.for_node(to).any(|e| matches!(
                    e.kind,
                    TraceKind::Recv { from, elements: el, .. } if from == s.node && el == elements
                )));
            }
        }
    }

    #[test]
    fn tracing_disabled_by_default() {
        let eng = Engine::fault_free(Hypercube::new(1), CostModel::paper_form());
        let out = eng.run(identity_inputs(1), async |ctx, data| {
            ctx.exchange(ctx.me().neighbor(0), Tag::new(4), data).await
        });
        assert!(out.trace().is_empty());
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
        // Both executors detect deadlock without a timeout: once no node is
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
            let out = eng.run(inputs, async |ctx, _| ctx.me().raw());
            assert!(out.node(NodeId::new(0)).is_none());
            assert!(out.node(NodeId::new(1)).is_none());
            assert_eq!(out.node(NodeId::new(2)).unwrap().result, 2);
            assert!(out.node(NodeId::new(3)).is_none());
            assert_eq!(out.into_results().len(), 1);
        }
    }

    #[test]
    fn engines_agree_on_trace_clocks_and_stats() {
        // A busier program: binomial-tree gather at node 0 on Q3.
        let n = 3;
        let run = |kind: EngineKind| {
            engine(n)
                .with_engine(kind)
                .with_tracing()
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
                })
        };
        let a = run(EngineKind::Seq);
        let b = run(EngineKind::Par);
        assert_eq!(a.node(NodeId::new(0)).unwrap().result.len(), 8);
        for (x, y) in a.outcomes().iter().zip(b.outcomes()) {
            match (x, y) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(x.result, y.result);
                    assert_eq!(x.clock, y.clock);
                    assert_eq!(x.stats, y.stats);
                }
                _ => panic!("participation differs between engines"),
            }
        }
        assert_eq!(a.trace().events(), b.trace().events());
    }
}
