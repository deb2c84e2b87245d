//! The sequential event-driven engine: all node programs cooperatively
//! scheduled on one thread.
//!
//! Node programs are async state machines; a blocked [`Comm::recv`] parks
//! the node on a per-`(src, tag)` wait entry and returns `Pending`. The
//! scheduler runs the shared round/frontier discipline from
//! [`super::frontier`]: every runnable node is polled once per round in
//! ascending node-id order, sends buffer in per-node outboxes, and the
//! barrier between rounds delivers them — so the schedule (and every
//! observable derived from it) is a deterministic function of the inputs,
//! shared bit for bit with the parallel engine ([`super::par::ParEngine`]).
//!
//! No OS threads, channels, context switches or payload copies (a message
//! send hands over the `Vec<K>` allocation to the receiver); virtual time
//! is charged through the same [`CostModel`]/[`VirtualClock`] calls in the
//! same per-node order as the parallel engine, so clocks, statistics and
//! traces are byte-identical between the engines.
//!
//! Deadlock is detected exactly: if unfinished nodes remain but none is
//! runnable, the engine panics immediately with the full wait map instead of
//! waiting for a timeout.
//!
//! [`Comm::recv`]: super::Comm::recv
//! [`CostModel`]: crate::cost::CostModel
//! [`VirtualClock`]: crate::cost::VirtualClock

use super::engine::{validate_inputs, Engine, NodeCtx, RunOutcome};
use super::frontier::{build_cells, collect_run, deadlock_panic, CellCtx, RoundCommitter};
use crate::address::NodeId;
use crate::cost::CostModel;
use crate::fault::FaultSet;
use crate::obs::sink::TraceSink;
use crate::sim::{LinkModel, RouterKind};
use crate::topology::Hypercube;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};

/// The sequential run-to-completion engine.
///
/// Usually reached through [`Engine::run`] with [`EngineKind::Seq`]
/// (the default); constructing a `SeqEngine` directly gives the same
/// behavior with looser trait bounds (`K`/`T` need not be `Send`, the
/// program need not be `Sync`).
///
/// [`EngineKind::Seq`]: super::EngineKind::Seq
#[derive(Clone)]
pub struct SeqEngine {
    faults: Arc<FaultSet>,
    cost: CostModel,
    router: RouterKind,
    link_model: LinkModel,
    tracing: bool,
    sink: Option<Arc<Mutex<dyn TraceSink>>>,
}

impl SeqEngine {
    /// Creates a machine over the fault set's topology with the given cost
    /// model.
    pub fn new(faults: FaultSet, cost: CostModel) -> Self {
        SeqEngine {
            faults: Arc::new(faults),
            cost,
            router: RouterKind::default(),
            link_model: LinkModel::default(),
            tracing: false,
            sink: None,
        }
    }

    /// A fault-free machine.
    pub fn fault_free(cube: Hypercube, cost: CostModel) -> Self {
        SeqEngine::new(FaultSet::none(cube), cost)
    }

    /// Selects the routing algorithm used to charge hops (builder style).
    pub fn with_router(mut self, router: RouterKind) -> Self {
        self.router = router;
        self
    }

    /// Selects the link pricing model (builder style). Under
    /// [`LinkModel::Contended`] the commit barrier serializes messages on
    /// shared directed links and receives record wait/transfer separately.
    pub fn with_link_model(mut self, link_model: LinkModel) -> Self {
        self.link_model = link_model;
        self
    }

    /// Enables per-event tracing (builder style).
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Attaches a streaming trace sink (builder style). The sink receives
    /// every trace event and span transition as the barrier flushes it,
    /// plus the run header/footer — see [`TraceSink`].
    pub fn with_trace_sink(mut self, sink: Arc<Mutex<dyn TraceSink>>) -> Self {
        self.sink = Some(sink);
        self
    }

    pub(super) fn from_engine(engine: &Engine) -> Self {
        SeqEngine {
            faults: engine.faults_arc(),
            cost: engine.cost_model(),
            router: engine.router(),
            link_model: engine.link_model(),
            tracing: engine.tracing(),
            sink: engine.sink(),
        }
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

    /// Runs `program` SPMD on every node for which `inputs` supplies data —
    /// same contract and same results as [`Engine::run`], on one thread.
    ///
    /// # Panics
    /// Propagates node-program panics, rejects inputs assigned to faulty
    /// processors, and panics immediately (with the wait map) if the
    /// programs deadlock.
    pub fn run<K, T, F>(&self, inputs: Vec<Option<Vec<K>>>, program: F) -> RunOutcome<T>
    where
        F: AsyncFn(&mut NodeCtx<K>, Vec<K>) -> T,
    {
        let cube = self.cube();
        validate_inputs(&self.faults, &inputs);

        if let Some(sink) = &self.sink {
            sink.lock().expect("trace sink lock poisoned").begin(
                cube.dim(),
                &self.cost,
                self.link_model,
            );
        }

        let (cells, participation) =
            build_cells(&inputs, cube.dim(), self.tracing, self.sink.is_some());

        let program = &program;
        // One resumable state machine per participating node, indexed by
        // address. The future owns its NodeCtx (moved into the async block),
        // so it is self-contained and type-erasable.
        let mut tasks: Vec<Option<Pin<Box<dyn Future<Output = T> + '_>>>> = Vec::new();
        let mut round: Vec<usize> = Vec::new();
        for (i, slot) in inputs.into_iter().enumerate() {
            let Some(input) = slot else {
                tasks.push(None);
                continue;
            };
            let ctx = NodeCtx::new(
                NodeId::from(i),
                cube,
                Arc::clone(&self.faults),
                self.cost,
                self.router,
                CellCtx::new(Arc::clone(&cells[i]), Arc::clone(&participation)),
            );
            tasks.push(Some(Box::pin(async move {
                let mut ctx = ctx;
                program(&mut ctx, input).await
            })));
            round.push(i);
        }

        let mut results: Vec<Option<T>> = (0..cube.len()).map(|_| None).collect();
        let mut alive = round.clone();
        let mut next: Vec<usize> = Vec::new();
        let mut committer =
            RoundCommitter::new(self.sink.clone(), self.link_model, cube.dim(), self.cost);
        let mut poll_cx = Context::from_waker(Waker::noop());
        while !round.is_empty() {
            for &i in &round {
                let task = tasks[i].as_mut().expect("scheduled node has a task");
                match task.as_mut().poll(&mut poll_cx) {
                    Poll::Ready(value) => {
                        results[i] = Some(value);
                        tasks[i] = None;
                        cells[i].lock().expect("node cell lock poisoned").done = true;
                    }
                    Poll::Pending => {
                        debug_assert!(
                            cells[i]
                                .lock()
                                .expect("node cell lock poisoned")
                                .waiting
                                .is_some(),
                            "a pending node must be parked on a recv"
                        );
                    }
                }
            }
            committer.commit(&cells, &round, &mut alive, &mut next);
            std::mem::swap(&mut round, &mut next);
        }

        if !alive.is_empty() {
            deadlock_panic(&cells, alive.len());
        }

        // Release the contexts' Arc references so the cells unwrap cleanly.
        drop(tasks);
        collect_run(
            cells,
            results,
            &self.sink,
            cube.dim(),
            self.cost,
            self.link_model,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Comm, EngineKind, Tag};
    use super::*;
    use std::rc::Rc;

    fn engine(n: usize) -> SeqEngine {
        SeqEngine::fault_free(Hypercube::new(n), CostModel::paper_form())
    }

    #[test]
    fn runs_non_send_programs() {
        // Rc is !Send: this program cannot run on the parallel engine, but
        // the direct SeqEngine API accepts it.
        let eng = engine(1);
        let marker = Rc::new(7u32);
        let out = eng.run(
            (0..2).map(|i| Some(vec![i as u32])).collect(),
            async |ctx, data| {
                let theirs = ctx.exchange(ctx.me().neighbor(0), Tag::new(0), data).await;
                Rc::new(theirs[0] + *marker)
            },
        );
        let results = out.into_results();
        assert_eq!(*results[0].1, 8);
        assert_eq!(*results[1].1, 7);
    }

    #[test]
    fn virtual_times_reflect_sender_clocks() {
        // Node 1 does heavy local compute before its send; node 2 sends
        // immediately. Node 0 receives from both — the virtual times must
        // reflect each sender's own clock regardless of scheduling order.
        let eng = engine(2);
        let mut inputs: Vec<Option<Vec<u32>>> = vec![None; 4];
        inputs[0] = Some(vec![]);
        inputs[1] = Some(vec![]);
        inputs[2] = Some(vec![]);
        let out = eng.run(inputs, async |ctx, _| match ctx.me().raw() {
            0 => {
                let a = ctx.recv(NodeId::new(1), Tag::new(1)).await;
                let b = ctx.recv(NodeId::new(2), Tag::new(2)).await;
                (a[0], b[0])
            }
            1 => {
                ctx.charge_compute(1000.0);
                ctx.send(NodeId::new(0), Tag::new(1), vec![10]);
                (0, 0)
            }
            _ => {
                ctx.send(NodeId::new(0), Tag::new(2), vec![20]);
                (0, 0)
            }
        });
        assert_eq!(out.node(NodeId::new(0)).unwrap().result, (10, 20));
        let t0 = out.node(NodeId::new(0)).unwrap().clock;
        assert!(
            t0 >= 1000.0,
            "receiver clock {t0} must include the slow sender's compute"
        );
    }

    #[test]
    fn deadlock_panics_immediately_with_wait_map() {
        let eng = engine(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            eng.run(
                (0..2).map(|_| Some(Vec::<u32>::new())).collect(),
                async |ctx, _| {
                    // both nodes receive first: classic cycle
                    let partner = ctx.me().neighbor(0);
                    let got = ctx.recv(partner, Tag::new(3)).await;
                    ctx.send(partner, Tag::new(3), vec![1u32]);
                    got
                },
            );
        }));
        let err = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(err.contains("deadlock"), "{err}");
        assert!(err.contains("P0"), "{err}");
        assert!(err.contains("P1"), "{err}");
    }

    #[test]
    fn matches_engine_dispatch() {
        // SeqEngine reached through Engine::with_engine(Seq) is the same
        // machine as the direct constructor.
        let direct = engine(2).run(
            (0..4).map(|i| Some(vec![i as u32])).collect(),
            async |ctx, data| {
                let mut acc = data;
                for d in 0..ctx.cube().dim() {
                    let theirs = ctx
                        .exchange(ctx.me().neighbor(d), Tag::new(d as u64), acc.clone())
                        .await;
                    acc.extend(theirs);
                    acc.sort_unstable();
                }
                acc
            },
        );
        let via_engine = Engine::fault_free(Hypercube::new(2), CostModel::paper_form())
            .with_engine(EngineKind::Seq)
            .run(
                (0..4).map(|i| Some(vec![i as u32])).collect(),
                async |ctx, data| {
                    let mut acc = data;
                    for d in 0..ctx.cube().dim() {
                        let theirs = ctx
                            .exchange(ctx.me().neighbor(d), Tag::new(d as u64), acc.clone())
                            .await;
                        acc.extend(theirs);
                        acc.sort_unstable();
                    }
                    acc
                },
            );
        for (a, b) in direct.outcomes().iter().zip(via_engine.outcomes()) {
            let (Some(a), Some(b)) = (a, b) else {
                panic!("both engines must run every node")
            };
            assert_eq!(a.result, b.result);
            assert_eq!(a.clock, b.clock);
            assert_eq!(a.stats, b.stats);
        }
    }
}
