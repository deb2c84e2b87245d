//! The sequential executor: all node programs cooperatively scheduled
//! on one thread.
//!
//! Node programs are async state machines; a blocked [`Comm::recv`] parks
//! the node on a per-`(src, tag)` wait entry and returns `Pending`. The
//! scheduler runs the shared round/frontier discipline (`sim::frontier`):
//! every runnable node is polled once per round in ascending node-id
//! order, sends buffer in per-node outboxes, and the barrier between
//! rounds delivers them — so the schedule (and every observable derived
//! from it) is a deterministic function of the inputs, shared bit for bit
//! with the parallel executor ([`super::par`]).
//!
//! No OS threads, channels, context switches or payload copies (a message
//! send hands over the `Vec<K>` allocation to the receiver); virtual time
//! is charged through the same [`CostModel`]/[`VirtualClock`] calls in the
//! same per-node order as the parallel executor, so clocks, statistics and
//! traces are byte-identical between the two.
//!
//! Deadlock is detected exactly: if unfinished nodes remain but none is
//! runnable, the executor panics immediately with the full wait map instead
//! of waiting for a timeout.
//!
//! [`Comm::recv`]: super::Comm::recv
//! [`CostModel`]: crate::cost::CostModel
//! [`VirtualClock`]: crate::cost::VirtualClock

use super::engine::{Engine, NodeCtx};
use super::frontier::{deadlock_panic, RoundCommitter, SharedCell};
use crate::obs::metrics;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

/// Runs `program` on every node for which `inputs` supplies data, polling
/// the frontier on the calling thread — [`Engine::run`] under
/// [`EngineKind::Seq`]. Returns each node's result, indexed by address.
///
/// # Panics
/// Propagates node-program panics, and panics immediately (with the wait
/// map) if the programs deadlock.
///
/// [`EngineKind::Seq`]: super::EngineKind::Seq
pub(super) fn run<K, T, F>(
    engine: &Engine,
    cells: &[SharedCell<K>],
    participation: &Arc<Vec<bool>>,
    inputs: Vec<Option<Vec<K>>>,
    program: F,
) -> Vec<Option<T>>
where
    F: AsyncFn(&mut NodeCtx<K>, Vec<K>) -> T,
{
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
        let ctx = NodeCtx::new(engine, i, cells, participation);
        tasks.push(Some(Box::pin(async move {
            let mut ctx = ctx;
            program(&mut ctx, input).await
        })));
        round.push(i);
    }

    let dim = engine.faults.cube().dim();
    let mut results: Vec<Option<T>> = (0..cells.len()).map(|_| None).collect();
    let mut alive = round.clone();
    let mut next: Vec<usize> = Vec::new();
    let mut committer =
        RoundCommitter::new(engine.sink.clone(), engine.link_model, dim, engine.cost);
    let mut poll_cx = Context::from_waker(Waker::noop());
    let mut rounds: u64 = 0;
    while !round.is_empty() {
        rounds += 1;
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
        committer.commit(cells, &round, &mut alive, &mut next);
        std::mem::swap(&mut round, &mut next);
    }

    metrics::fold(|t| t.rounds += rounds);
    if !alive.is_empty() {
        deadlock_panic(cells, alive.len());
    }
    results
}

#[cfg(test)]
mod tests {
    use super::super::{Comm, EngineKind, Tag};
    use crate::address::NodeId;
    use crate::cost::CostModel;
    use crate::sim::Engine;
    use crate::topology::Hypercube;

    fn engine(n: usize) -> Engine {
        Engine::fault_free(Hypercube::new(n), CostModel::paper_form()).with_engine(EngineKind::Seq)
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
                ctx.charge_comparisons(1000);
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
        let compute = 1000.0 * eng.cost_model().t_c;
        assert!(
            t0 >= compute,
            "receiver clock {t0} must include the slow sender's compute {compute}"
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
}
