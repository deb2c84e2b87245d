//! The frontier executor: a work-stealing scheduler executes each round's
//! ready frontier — and the round's commit — with the round/frontier
//! discipline of `sim::frontier` keeping every observable byte-identical
//! at any worker count and shard size. [`Engine::run`] calls it for both
//! [`EngineKind`]s: `Par` on the requested pool, `Seq` as the schedule of
//! one worker and one shard.
//!
//! ## Execution model
//!
//! Participating nodes are grouped into **shards** of contiguous live-rank
//! nodes (so each shard covers an ascending node-id range); the shard is
//! the unit of scheduling and of stealing. Every worker owns a vendored
//! Chase–Lev deque (`ws::WsDeque`); at each phase a worker pushes
//! its *affine* shards (shard id modulo pool size) onto its own deque, then
//! drains it LIFO and steals FIFO from its peers once empty — so load
//! imbalance (e.g. one shard full of heavy merge phases) migrates to idle
//! workers instead of stalling the round. Phases meet at a sense-reversing
//! barrier (`ws::SenseBarrier`); a worker panic poisons the
//! barrier so the pool unwinds and `thread::scope` re-raises the original
//! payload. Each round is:
//!
//! 1. **Poll** (parallel): claimed shard by claimed shard, poll every
//!    runnable node once. With two or more workers, uncontended links and
//!    no sink attached, the claimant also moves each polled node's outbox
//!    into an `S × S` bin matrix — `bins[src_shard][dst_shard]` — in
//!    (ascending node, program) order.
//! 2. **Serial flush** (coordinator only, and only with one worker, any
//!    [`TraceSink`] attached or contended links): walk the round's ran
//!    nodes in ascending id order, flush their buffered records to every
//!    sink, price their messages through the `LinkLedger` and deliver each
//!    one straight into its destination inbox. Record flushing and link
//!    pricing are global sequencing decisions, so they stay a
//!    single-threaded pass in canonical order. (Link pricing cannot fan
//!    out by destination: two messages to different destinations can
//!    contend for the same directed link, so the arbitration order is
//!    global, not per-partition.) One worker takes this path even bare:
//!    delivering in place moves each message once, binning twice.
//! 3. **Deliver + wake** (parallel): shards are claimed again; the claimant
//!    of shard `d` drains bin column `bins[0..S][d]` in ascending source
//!    shard order into its nodes' inboxes (the bins are empty after a
//!    serial flush), then prunes finished nodes and wakes those whose
//!    awaited `(src, tag)` message arrived, forming the next frontier.
//!
//! The node cells are one slab of `ShardSlot`s indexed by address, under
//! the same claim protocol as the shards and bins: during the poll phase a
//! node's cell is touched only by its shard's claimant; during the serial
//! flush only by the coordinator; during delivery only by its destination
//! shard's claimant. So no cell needs a lock, and warm rounds allocate
//! nothing (deque rings, bins, frontier vectors and the futures themselves
//! are all recycled; see `crates/hypercube/tests/alloc_free.rs`).
//!
//! ## Why this is deterministic
//!
//! A round's sends are invisible until its commit, so the members of one
//! frontier are mutually independent: polling them on any worker in any
//! steal order yields the same per-node clocks, stats, spans and trace
//! events. Delivery is deterministic either way. The serial flush delivers
//! in (ascending source node, program) order. The bin matrix preserves
//! that order per destination: within `bins[s][d]` messages sit in
//! (ascending source node, program) order — shards are contiguous
//! ascending ranges, and the poll loop walks each claimed shard's nodes in
//! ascending id — and the delivery phase drains sources in ascending shard
//! order. So every inbox receives the same sequence on either path, giving
//! the same FIFO receive order and the same `inbox_peak`. The differential
//! tests (`tests/engine_diff.rs`, `tests/ws_stress.rs`,
//! `tests/obs_invariants.rs`) pin this: results, `RunReport` JSON, run
//! files, Perfetto exports and critical paths match byte for byte between
//! `Seq` and `Par` at every worker count and shard size.
//!
//! ## Futures migrate between workers
//!
//! Work stealing means a node's suspended future can resume on a different
//! worker than the one that created it. Stable Rust cannot bound the
//! return type of an `AsyncFn` with `Send`, so the executor wraps each
//! task in a `NodeTask`, which asserts transferability with an
//! `unsafe impl Send`. The contract (upheld by every node program in this
//! workspace, all of which only hold `K: Send` data and the `NodeCtx`
//! across await points): node programs must not hold thread-affine state —
//! `Rc`, `MutexGuard`s, thread-local handles — across an `.await`.
//!
//! [`TraceSink`]: crate::obs::sink::TraceSink

use super::engine::{Engine, NodeCtx};
use super::frontier::{deadlock_panic, flush_records, CellRecord, NodeCell, SimMessage};
use super::ws::{SenseBarrier, ShardSlot, WsDeque};
use crate::cost::CostModel;
use crate::obs::metrics;
use crate::obs::sched::{SchedCat, SchedProfile, WorkerProf};
use crate::obs::schedule::LinkLedger;
use crate::obs::sink::TraceSink;
use crate::sim::{EngineKind, LinkModel};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Waker};
use std::time::Instant;

/// A node program's suspended state machine, asserted transferable across
/// workers so stolen shards can resume on the thief.
///
/// # Safety
/// Constructed only inside [`run`], where `K: Send` and
/// `T: Send` hold; the future captures the program reference (`F: Sync`),
/// a `NodeCtx` (`Arc`s over `Send` state, and a pointer to its node's
/// cell, which only the shard's claimant touches during a poll) and the
/// node's `Vec<K>` input.
/// The residual obligation — documented at the module level — is that node
/// programs hold no thread-affine state across await points.
struct NodeTask<'a, T>(Pin<Box<dyn Future<Output = T> + 'a>>);

unsafe impl<T: Send> Send for NodeTask<'_, T> {}

/// A node's program state within its shard.
enum TaskState<'a, K, T> {
    /// Not yet polled; holds the node's initial input.
    Fresh(Vec<K>),
    Running(NodeTask<'a, T>),
    Done,
}

/// One unit of stealable work: a contiguous ascending range of live nodes
/// with their program states and frontier bookkeeping. Accessed through
/// [`ShardSlot`] under the claim protocol.
struct Shard<'a, K, T> {
    /// Program state per node, indexed by the node's slot within the shard.
    tasks: Vec<TaskState<'a, K, T>>,
    /// Node ids to poll next round (ascending).
    runnable: Vec<usize>,
    /// Node ids polled this round (ascending).
    ran: Vec<usize>,
    /// Node ids not yet finished (ascending).
    alive: Vec<usize>,
}

/// The shared scheduler state: shards, the bin matrix, deques and barrier.
struct Sched<'a, K, T> {
    shards: Vec<ShardSlot<Shard<'a, K, T>>>,
    /// `S × S` outbox bins: `bins[src_shard * S + dst_shard]`. Row `s` is
    /// written by shard `s`'s poll claimant; column `d` is drained by
    /// shard `d`'s delivery claimant — a barrier separates the two. Unused
    /// when `serial`.
    bins: Vec<ShardSlot<Vec<SimMessage<K>>>>,
    /// Per destination shard: messages were binned or delivered for it
    /// this round, so phase 3 must claim it to wake its nodes.
    incoming: Vec<AtomicBool>,
    deques: Vec<WsDeque>,
    barrier: SenseBarrier,
    /// Frontier sizes of the current/next round, indexed by round parity.
    /// Every worker reads the round's slot after the delivery barrier to
    /// agree on termination; the coordinator resets the *other* slot one
    /// round ahead of its writers.
    woken: [AtomicUsize; 2],
    /// Node id → owning shard (`u32::MAX` for non-participants).
    shard_of: Vec<u32>,
    /// Node id → slot within its shard.
    slot_of: Vec<u32>,
    workers: usize,
    /// Whether the serial flush phase runs (one worker, a sink attached or
    /// contended links): outboxes then stay put in phase 1 and are
    /// flushed, priced and delivered by the coordinator in global
    /// canonical order.
    serial: bool,
}

/// What one worker counted over the run, returned when it exits and
/// folded into the metric totals once the pool has joined.
#[derive(Default)]
struct Tally {
    /// Rounds run (every worker runs every round).
    rounds: u64,
    /// Barrier phase crossings (every worker crosses every phase).
    crossings: u64,
    /// Shards this worker stole from a peer.
    steals: u64,
}

/// Immutable run context shared by every worker.
struct Env<'a, K, T, F> {
    program: &'a F,
    engine: &'a Engine,
    cells: &'a [ShardSlot<NodeCell<K>>],
    participation: &'a Arc<Vec<bool>>,
    results: &'a Mutex<Vec<Option<T>>>,
}

/// Coordinator-only state for the serial flush phase.
struct SerialCtx<K> {
    sinks: Vec<Arc<Mutex<dyn TraceSink>>>,
    ledger: Option<LinkLedger>,
    cost: CostModel,
    msgs: Vec<SimMessage<K>>,
    recs: Vec<CellRecord>,
}

/// Poisons the barrier when its worker unwinds out of a node program, so
/// the rest of the pool exits its phase loop and `thread::scope` can join
/// everyone and re-raise the original panic.
struct PoisonGuard<'a>(&'a SenseBarrier);

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Runs `program` on every node for which `inputs` supplies data, each
/// round's frontier executed on the work-stealing pool — one worker and
/// one shard under [`EngineKind::Seq`]. Returns each node's result,
/// indexed by address, byte-identical at any worker count.
///
/// # Panics
/// Propagates node-program panics, and panics immediately (with the wait
/// map) if the programs deadlock.
pub(super) fn run<K, T, F>(
    engine: &Engine,
    cells: &mut [ShardSlot<NodeCell<K>>],
    participation: &Arc<Vec<bool>>,
    inputs: Vec<Option<Vec<K>>>,
    program: F,
) -> Vec<Option<T>>
where
    K: Send,
    T: Send,
    F: AsyncFn(&mut NodeCtx<K>, Vec<K>) -> T + Sync,
{
    // Declared before the shards: the shards' futures borrow into the
    // run context, so on unwind paths they must drop first.
    let results: Mutex<Vec<Option<T>>> = Mutex::new((0..cells.len()).map(|_| None).collect());

    // Shard the participants: contiguous live-rank chunks, so every
    // shard is an ascending node-id range (the delivery-order proof in
    // the module docs depends on this).
    let participants: Vec<usize> = inputs
        .iter()
        .enumerate()
        .filter_map(|(i, slot)| slot.is_some().then_some(i))
        .collect();
    let live = participants.len();
    // Seq is the one-worker, one-shard schedule; it reads neither the
    // worker count nor the shard size.
    let (workers_req, shard) = match engine.kind {
        EngineKind::Seq => (1, Some(live)),
        EngineKind::Par => (
            engine.workers.unwrap_or_else(default_workers).max(1),
            engine.shard,
        ),
    };
    let (workers, shard_size, shard_count) = schedule_for(live, Some(workers_req), shard);

    let mut inputs = inputs;
    let mut shard_of: Vec<u32> = vec![u32::MAX; cells.len()];
    let mut slot_of: Vec<u32> = vec![u32::MAX; cells.len()];
    let mut shards: Vec<ShardSlot<Shard<'_, K, T>>> = Vec::with_capacity(shard_count);
    for (s, chunk) in participants.chunks(shard_size).enumerate() {
        let mut tasks = Vec::with_capacity(chunk.len());
        for (slot, &id) in chunk.iter().enumerate() {
            shard_of[id] = s as u32;
            slot_of[id] = slot as u32;
            tasks.push(TaskState::Fresh(
                inputs[id].take().expect("participant has input"),
            ));
        }
        shards.push(ShardSlot::new(Shard {
            tasks,
            runnable: chunk.to_vec(),
            ran: Vec::with_capacity(chunk.len()),
            alive: chunk.to_vec(),
        }));
    }

    let contended = engine.link_model == LinkModel::Contended;
    // One worker always commits serially: delivering each message as it
    // is priced moves it once, binning it moves it twice.
    let serial = workers == 1 || !engine.sinks.is_empty() || contended;
    let mut sched = Sched {
        shards,
        bins: (0..shard_count * shard_count)
            .map(|_| ShardSlot::new(Vec::new()))
            .collect(),
        incoming: (0..shard_count).map(|_| AtomicBool::new(false)).collect(),
        deques: (0..workers).map(|_| WsDeque::new(shard_count)).collect(),
        barrier: SenseBarrier::new(workers),
        woken: [AtomicUsize::new(0), AtomicUsize::new(0)],
        shard_of,
        slot_of,
        workers,
        serial,
    };
    let ser = serial.then(|| {
        let dim = engine.faults.cube().dim();
        SerialCtx {
            sinks: engine.sinks.clone(),
            ledger: contended.then(|| LinkLedger::new(dim, 1 << dim)),
            cost: engine.cost,
            msgs: Vec::new(),
            recs: Vec::new(),
        }
    });
    let program = &program;
    let env = Env {
        program,
        engine,
        cells: &*cells,
        participation,
        results: &results,
    };

    // When profiling, every worker gets a preallocated recorder sharing
    // one clock epoch; recorders ride into the spawn closures and come
    // back through the join handles with the workers' tallies, so the hot
    // path stays lock-free and the disabled path is a single `Option`
    // check per hook.
    let epoch = Instant::now();
    let mut profs: Vec<Option<WorkerProf>> = (0..workers)
        .map(|w| {
            engine
                .sched_profiler
                .as_ref()
                .map(|p| WorkerProf::new(w, workers, epoch, p.ring_capacity()))
        })
        .collect();
    let mut tallies: Vec<Tally> = Vec::with_capacity(workers);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers.saturating_sub(1));
        for (w, slot) in profs.iter_mut().enumerate().skip(1) {
            let mut prof = slot.take();
            let (sched, env) = (&sched, &env);
            handles.push(scope.spawn(move || {
                let tally = worker_loop(w, sched, env, None, prof.as_mut());
                if let Some(p) = prof.as_mut() {
                    p.finish();
                }
                (prof, tally)
            }));
        }
        // The caller is worker 0: the coordinator for the serial flush
        // phase and the `woken` slot resets.
        let mut prof0 = profs[0].take();
        tallies.push(worker_loop(0, &sched, &env, ser, prof0.as_mut()));
        if let Some(p) = prof0.as_mut() {
            p.finish();
        }
        profs[0] = prof0;
        // Join explicitly to recover the recorders; a panicked worker
        // surfaces as the scope would have surfaced it — first payload
        // re-raised after every handle is joined.
        let mut first_panic = None;
        for (w, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok((prof, tally)) => {
                    profs[w + 1] = prof;
                    tallies.push(tally);
                }
                Err(payload) => {
                    first_panic.get_or_insert(payload);
                }
            }
        }
        if let Some(payload) = first_panic {
            std::panic::resume_unwind(payload);
        }
    });

    metrics::fold(|t| {
        t.rounds += tallies[0].rounds;
        t.ws_barrier_epochs += tallies[0].crossings;
        t.ws_steals += tallies.iter().map(|w| w.steals).sum::<u64>();
    });
    if let Some(profiler) = &engine.sched_profiler {
        let workers_prof: Vec<WorkerProf> = profs.into_iter().flatten().collect();
        metrics::fold(|t| {
            t.sched_ring_events = workers_prof.iter().map(|p| p.events().len() as u64).sum();
            t.sched_events_dropped += workers_prof.iter().map(WorkerProf::dropped).sum::<u64>();
        });
        profiler.install(SchedProfile {
            workers_requested: workers_req,
            workers,
            shard_size,
            shard_count,
            live_nodes: live,
            serial,
            workers_prof,
        });
    }

    let remaining: usize = sched
        .shards
        .iter_mut()
        .map(|s| s.get_mut().alive.len())
        .sum();
    // The shards hold the node futures, whose lifetime is unified with
    // the `env` borrows of `results` and the cells; drop them first.
    drop(sched);
    if remaining > 0 {
        deadlock_panic(cells, remaining);
    }

    results.into_inner().unwrap_or_else(|e| e.into_inner())
}

/// The host's available parallelism (at least 1).
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZero::get)
        .unwrap_or(1)
}

/// Automatic shard size: ~4 shards per worker for steal granularity,
/// capped at 64 nodes so one shard's round work stays cache-sized.
fn auto_shard_size(live: usize, workers: usize) -> usize {
    live.div_ceil(workers * 4).clamp(1, 64)
}

/// The effective schedule for `live` participating nodes: the
/// `(workers, shard_size, shard_count)` triple [`Engine::run`] uses under
/// [`EngineKind::Par`] after clamping — `workers`
/// defaults to the host parallelism and is capped by the shard count,
/// `shard_size` defaults to ~4 shards per worker capped at 64 nodes.
/// Exposed so reports
/// ([`RunReport::workers_effective`], `engines_json` rows) can record the
/// schedule a run actually executed rather than what was requested.
///
/// [`RunReport::workers_effective`]: crate::obs::RunReport::workers_effective
pub fn schedule_for(
    live: usize,
    workers: Option<usize>,
    shard: Option<usize>,
) -> (usize, usize, usize) {
    let workers_req = workers.unwrap_or_else(default_workers).max(1);
    let shard_size = shard
        .map(|s| s.max(1))
        .unwrap_or_else(|| auto_shard_size(live, workers_req));
    let shard_count = live.div_ceil(shard_size);
    let workers = workers_req.min(shard_count).max(1);
    (workers, shard_size, shard_count)
}

/// One worker's whole run: phase loop until the frontier empties or the
/// barrier is poisoned. Worker 0 doubles as the coordinator.
fn worker_loop<'a, K, T, F>(
    w: usize,
    sched: &Sched<'a, K, T>,
    env: &Env<'a, K, T, F>,
    mut ser: Option<SerialCtx<K>>,
    mut prof: Option<&mut WorkerProf>,
) -> Tally
where
    K: Send,
    T: Send,
    F: AsyncFn(&mut NodeCtx<K>, Vec<K>) -> T + Sync,
{
    let _poison = PoisonGuard(&sched.barrier);
    // Start the recorder on the worker's own thread, so spawn latency is
    // not charged to anyone's wall time.
    if let Some(p) = prof.as_deref_mut() {
        p.begin();
    }
    let mut poll_cx = Context::from_waker(Waker::noop());
    let shard_count = sched.shards.len();
    let mut tally = Tally::default();
    let mut r: usize = 0;
    loop {
        tally.rounds += 1;
        // Phase 1 — poll. Stage own affine runnable shards, then claim;
        // staging is work acquisition, so it is charged to `Steal`.
        if let Some(p) = prof.as_deref_mut() {
            p.switch(SchedCat::Steal, 0);
        }
        for s in (w..shard_count).step_by(sched.workers) {
            // SAFETY: pre-push reads of an unclaimed shard belong to its
            // affinity owner; the deque's release/acquire on push/steal
            // orders them before any thief's access.
            if !unsafe { sched.shards[s].get() }.runnable.is_empty() {
                // Recorded before the push: the runnable-counter +1 must
                // timestamp before any thief's -1 against this worker.
                if let Some(p) = prof.as_deref_mut() {
                    p.staged();
                }
                sched.deques[w].push(s as u32);
            }
        }
        claim_shards(
            w,
            sched,
            |s| unsafe { poll_shard(s, sched, env, &mut poll_cx) },
            &mut prof,
            &mut tally.steals,
            SchedCat::Poll,
        );
        if sched.barrier.wait_prof(prof.as_deref_mut()) {
            return tally;
        }
        tally.crossings += 1;

        // Phase 2 — serial flush (coordinator only, when needed): record
        // flushing and link pricing are global orders.
        if sched.serial {
            if let Some(ser) = ser.as_mut() {
                if let Some(p) = prof.as_deref_mut() {
                    p.switch(SchedCat::Serial, 0);
                }
                serial_flush(ser, sched, env.cells);
            }
            if sched.barrier.wait_prof(prof.as_deref_mut()) {
                return tally;
            }
            tally.crossings += 1;
        }

        // Phase 3 — deliver + wake. The coordinator also resets the *next*
        // round's frontier counter: its writers run in phase 3 of round
        // r+1 and its readers finished before round r began, so this is
        // the quiet window for the slot.
        if w == 0 {
            sched.woken[(r + 1) & 1].store(0, Ordering::Relaxed);
        }
        if let Some(p) = prof.as_deref_mut() {
            p.switch(SchedCat::Steal, 0);
        }
        for s in (w..shard_count).step_by(sched.workers) {
            // SAFETY: pre-push reads, as in phase 1.
            let sh = unsafe { sched.shards[s].get() };
            if sched.incoming[s].load(Ordering::Relaxed) || !sh.ran.is_empty() {
                if let Some(p) = prof.as_deref_mut() {
                    p.staged();
                }
                sched.deques[w].push(s as u32);
            }
        }
        claim_shards(
            w,
            sched,
            |s| unsafe { deliver_shard(s, r, sched, env.cells) },
            &mut prof,
            &mut tally.steals,
            SchedCat::Deliver,
        );
        if sched.barrier.wait_prof(prof.as_deref_mut()) {
            return tally;
        }
        tally.crossings += 1;
        if sched.woken[r & 1].load(Ordering::Relaxed) == 0 {
            return tally;
        }
        r += 1;
    }
}

/// Drains the worker's own deque LIFO, then steals FIFO from peers; exits
/// when everything looks empty. Every pushed shard is claimed exactly once
/// (Chase–Lev semantics); a worker exiting early just means its leftovers
/// are processed by their owner or another thief.
///
/// `run` returns the number of nodes processed on the claimed shard —
/// recorded into the shard-size histogram when `cat` is the poll phase.
/// Successful steals are added to `steals`.
/// The caller enters [`SchedCat::Steal`] before staging; time between
/// claims (pop/steal scanning) stays there up to the caller's barrier
/// arrival, and time inside `run` is charged to `cat`.
fn claim_shards<K, T>(
    w: usize,
    sched: &Sched<'_, K, T>,
    mut run: impl FnMut(usize) -> u32,
    prof: &mut Option<&mut WorkerProf>,
    steals: &mut u64,
    cat: SchedCat,
) {
    let own = &sched.deques[w];
    loop {
        if let Some(s) = own.pop() {
            if let Some(p) = prof.as_deref_mut() {
                p.popped();
                p.switch(cat, s);
            }
            let units = run(s as usize);
            if let Some(p) = prof.as_deref_mut() {
                if cat == SchedCat::Poll {
                    p.polled(units);
                }
                p.switch(SchedCat::Steal, 0);
            }
            continue;
        }
        let mut stole = false;
        for k in 1..sched.workers {
            let victim = (w + k) % sched.workers;
            if let Some(s) = sched.deques[victim].steal() {
                *steals += 1;
                if let Some(p) = prof.as_deref_mut() {
                    p.stole(victim);
                    p.switch(cat, s);
                }
                let units = run(s as usize);
                if let Some(p) = prof.as_deref_mut() {
                    if cat == SchedCat::Poll {
                        p.polled(units);
                    }
                    p.switch(SchedCat::Steal, 0);
                }
                stole = true;
                break;
            } else if let Some(p) = prof.as_deref_mut() {
                p.steal_missed(victim);
            }
        }
        if !stole {
            return;
        }
    }
}

/// Phase 1 for one claimed shard: swap in the staged frontier, poll every
/// runnable node once (creating its future on first poll), and — when no
/// serial phase runs — move outboxes into the bin matrix. Returns the
/// number of nodes polled (the profiler's shard-size sample).
///
/// # Safety
/// The caller must hold the claim on shard `s` (popped or stolen from a
/// deque this phase).
unsafe fn poll_shard<'a, K, T, F>(
    s: usize,
    sched: &Sched<'a, K, T>,
    env: &Env<'a, K, T, F>,
    poll_cx: &mut Context<'_>,
) -> u32
where
    K: Send,
    T: Send,
    F: AsyncFn(&mut NodeCtx<K>, Vec<K>) -> T + Sync,
{
    // SAFETY: exclusive by the claim the caller holds.
    let sh = unsafe { sched.shards[s].get() };
    std::mem::swap(&mut sh.ran, &mut sh.runnable);
    debug_assert!(sh.runnable.is_empty(), "previous round left staged work");
    for idx in 0..sh.ran.len() {
        let id = sh.ran[idx];
        let state = &mut sh.tasks[sched.slot_of[id] as usize];
        if matches!(*state, TaskState::Fresh(_)) {
            let TaskState::Fresh(input) = std::mem::replace(state, TaskState::Done) else {
                unreachable!()
            };
            let ctx = NodeCtx::new(env.engine, id, env.cells, env.participation);
            let program = env.program;
            *state = TaskState::Running(NodeTask(Box::pin(async move {
                let mut ctx = ctx;
                program(&mut ctx, input).await
            })));
        }
        let TaskState::Running(task) = state else {
            unreachable!("scheduled node has no task")
        };
        match task.0.as_mut().poll(poll_cx) {
            Poll::Ready(value) => {
                *state = TaskState::Done;
                // SAFETY: poll phase; the claim on shard `s` covers its
                // nodes' cells, and the finished task holds no borrow.
                unsafe { env.cells[id].get() }.done = true;
                env.results.lock().expect("results lock poisoned")[id] = Some(value);
            }
            Poll::Pending => {}
        }
    }
    if !sched.serial {
        let shard_count = sched.shards.len();
        for &id in &sh.ran {
            // SAFETY: poll phase; the claim on shard `s` covers its nodes'
            // cells.
            let cell = unsafe { env.cells[id].get() };
            for msg in cell.outbox.drain(..) {
                let d = sched.shard_of[msg.dst.index()] as usize;
                // SAFETY: row `s` of the bin matrix belongs to this claim.
                unsafe { sched.bins[s * shard_count + d].get() }.push(msg);
                sched.incoming[d].store(true, Ordering::Relaxed);
            }
        }
    }
    sh.ran.len() as u32
}

/// Phase 2, coordinator only: for the round's ran nodes in ascending
/// node-id order — the canonical commit order — flush records, price each
/// message and deliver it straight into its destination inbox, flagging
/// the destination shard for phase 3's wake.
fn serial_flush<K, T>(
    ser: &mut SerialCtx<K>,
    sched: &Sched<'_, K, T>,
    cells: &[ShardSlot<NodeCell<K>>],
) {
    for s in 0..sched.shards.len() {
        // SAFETY: phase 2 runs on the coordinator alone, between barriers.
        let sh = unsafe { sched.shards[s].get() };
        for &id in &sh.ran {
            {
                // SAFETY: serial flush, coordinator alone. The borrow ends
                // with this block, before any destination's (a node may
                // send to itself).
                let cell = unsafe { cells[id].get() };
                std::mem::swap(&mut cell.outbox, &mut ser.msgs);
                if cell.sinking {
                    std::mem::swap(&mut cell.records, &mut ser.recs);
                }
            }
            if !ser.recs.is_empty() {
                flush_records(&ser.sinks, id, &mut ser.recs);
            }
            for mut msg in ser.msgs.drain(..) {
                if let Some(ledger) = &mut ser.ledger {
                    // Links are acquired in commit order — ascending ran
                    // node, then per-node outbox (program) order — the
                    // order of the sends in a run file, in which its
                    // reader acquires the links again.
                    let (arrival, wait) = ledger.acquire(
                        msg.src,
                        msg.dst,
                        msg.data.len(),
                        msg.hops,
                        msg.sent_at,
                        &ser.cost,
                    );
                    msg.arrival = arrival;
                    msg.wait = wait;
                }
                sched.incoming[sched.shard_of[msg.dst.index()] as usize]
                    .store(true, Ordering::Relaxed);
                // SAFETY: serial flush, coordinator alone; the sender's
                // borrow has ended.
                let dst = unsafe { cells[msg.dst.index()].get() };
                dst.inbox.push(msg);
                let backlog = dst.inbox.len() as u64;
                dst.metrics.inbox_peak = dst.metrics.inbox_peak.max(backlog);
            }
        }
    }
}

/// Phase 3 for one claimed shard: drain the shard's bin column (ascending
/// source shard = ascending source node order) into its nodes' inboxes —
/// empty after a serial flush, which delivered in place — then prune
/// finished nodes and stage the woken frontier. Returns the number of
/// nodes woken into the next frontier.
///
/// # Safety
/// The caller must hold the claim on shard `s` (popped or stolen from a
/// deque this phase).
unsafe fn deliver_shard<K, T>(
    s: usize,
    r: usize,
    sched: &Sched<'_, K, T>,
    cells: &[ShardSlot<NodeCell<K>>],
) -> u32 {
    let shard_count = sched.shards.len();
    // SAFETY: exclusive by the claim the caller holds.
    let sh = unsafe { sched.shards[s].get() };
    if sched.incoming[s].load(Ordering::Relaxed) {
        sched.incoming[s].store(false, Ordering::Relaxed);
        for src in 0..shard_count {
            // SAFETY: column `s` of the bin matrix belongs to this claim.
            let bin = unsafe { sched.bins[src * shard_count + s].get() };
            for msg in bin.drain(..) {
                // SAFETY: delivery; every message in column `s` is for a
                // node of shard `s`, whose cells this claim covers.
                let dst = unsafe { cells[msg.dst.index()].get() };
                dst.inbox.push(msg);
                let backlog = dst.inbox.len() as u64;
                dst.metrics.inbox_peak = dst.metrics.inbox_peak.max(backlog);
            }
        }
    }
    sh.ran.clear();
    let mut runnable = std::mem::take(&mut sh.runnable);
    sh.alive.retain(|&id| {
        // SAFETY: delivery; the claim on shard `s` covers its nodes' cells.
        let cell = unsafe { cells[id].get() };
        if cell.done {
            return false;
        }
        if let Some((src, tag)) = cell.waiting {
            if cell.inbox.iter().any(|m| m.src == src && m.tag == tag) {
                cell.waiting = None;
                runnable.push(id);
            }
        }
        true
    });
    if !runnable.is_empty() {
        sched.woken[r & 1].fetch_add(runnable.len(), Ordering::Relaxed);
    }
    let woken = runnable.len() as u32;
    sh.runnable = runnable;
    woken
}
