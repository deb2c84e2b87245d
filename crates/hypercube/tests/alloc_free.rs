//! Asserts the frontier engines' message path is allocation-free once
//! warm when tracing is off — the property the zero-alloc hot path (and
//! the preallocated observability buffers riding on it) is built around.
//!
//! The counting `#[global_allocator]` sees every allocation in the
//! process; the node program snapshots the counter after a few warm-up
//! exchanges (which size the inboxes, outboxes, metric histograms and
//! span buffers) and asserts the next 64 exchanges allocate nothing:
//! sends are pointer handoffs into already-sized inboxes, receives reuse
//! parked wait entries, and metrics/span recording only touches
//! preallocated storage.
//!
//! The same property is pinned for the parallel engine, whose round
//! handshake (work-stealing deques + a sense-reversing barrier, not
//! channels) was chosen precisely so concurrency adds no per-round
//! allocations — the counter is process-wide, so any allocation on any
//! worker or on the coordinator inside the measurement window fails the
//! test (rounds are barrier-aligned across nodes, so every node's window
//! covers the same rounds). The run-wide [`BufferPool`] rides the same
//! window: slab take/put cycles on every node stay allocation-free once
//! warm — and because the pool is an `Arc`-backed store that outlives any
//! single engine run, a *second* run on the same pool starts warm: its
//! very first slab cycle reuses run 1's allocations and must allocate
//! nothing.
//!
//! The scheduler profiler ([`hypercube::obs::sched`]) is pinned to the
//! same standard: its per-worker event rings are preallocated before any
//! node program runs, so attaching it must add zero allocations to the
//! warm message path.
//!
//! Because the counter is process-wide, this file is a `harness = false`
//! test: [`main`] runs the cases one after another on the main thread.
//! Under libtest, the harness's own threads (its other test threads and
//! its output capture) allocated inside the measurement windows now and
//! then and failed a zero assertion.

use hypercube::cost::CostModel;
use hypercube::fault::FaultSet;
use hypercube::sim::{BufferPool, Comm, Engine, EngineKind, Tag};
use hypercube::topology::Hypercube;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn main() {
    let cases: [(&str, fn()); 6] = [
        (
            "seq_engine_message_path_is_allocation_free_when_warm",
            seq_engine_message_path_is_allocation_free_when_warm,
        ),
        (
            "par_engine_message_path_and_buffer_pool_are_allocation_free_when_warm",
            par_engine_message_path_and_buffer_pool_are_allocation_free_when_warm,
        ),
        (
            "sched_profiler_records_allocation_free_when_warm",
            sched_profiler_records_allocation_free_when_warm,
        ),
        (
            "second_run_on_the_same_buffer_pool_starts_warm",
            second_run_on_the_same_buffer_pool_starts_warm,
        ),
        (
            "warm_metric_recording_is_allocation_free",
            warm_metric_recording_is_allocation_free,
        ),
        (
            "metered_par_engine_message_path_is_allocation_free_when_warm",
            metered_par_engine_message_path_is_allocation_free_when_warm,
        ),
    ];
    // Arguments meant for libtest (filters, `--test-threads`) are ignored:
    // all six cases take milliseconds.
    for (name, case) in cases {
        case();
        println!("test {name} ... ok");
    }
    println!("test result: ok. {} passed; 0 failed", cases.len());
}

fn seq_engine_message_path_is_allocation_free_when_warm() {
    // Q2 ping-pong across dimension 0, payload ownership bouncing back and
    // forth — the compare-split communication skeleton.
    let cube = Hypercube::new(2);
    let engine =
        Engine::new(FaultSet::none(cube), CostModel::default()).with_engine(EngineKind::Seq);
    let inputs: Vec<Option<Vec<u64>>> = (0..cube.len())
        .map(|i| Some((0..256).map(|x| (i as u64) << 32 | x).collect()))
        .collect();
    let out = engine.run(inputs, async |ctx, data| {
        let partner = hypercube::address::NodeId::new(ctx.me().raw() ^ 1);
        let tag = Tag::phase(9, 0, 0);
        let mut buf = data;
        // Warm-up: sizes the inbox, the outbox and the metric histograms
        // (and exercises a span within the span log's initial capacity).
        ctx.span_enter(9);
        for _ in 0..4 {
            buf = ctx.exchange(partner, tag, buf).await;
        }
        ctx.span_exit();
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..64 {
            buf = ctx.exchange(partner, tag, buf).await;
            ctx.charge_comparisons(buf.len());
        }
        let after = ALLOCS.load(Ordering::Relaxed);
        (buf.len(), after - before)
    });
    for (i, outcome) in out.outcomes().iter().enumerate() {
        let Some(outcome) = outcome else { continue };
        let (len, allocs) = outcome.result;
        assert_eq!(len, 256, "payload must survive the ping-pong");
        assert_eq!(
            allocs, 0,
            "warm seq message path allocated {allocs} times on node {i}"
        );
    }
}

fn par_engine_message_path_and_buffer_pool_are_allocation_free_when_warm() {
    // Same Q2 ping-pong on the worker-pool engine, two nodes per worker,
    // with a shared BufferPool slab cycled inside the hot loop. The window
    // spans the full round protocol: worker wake-up, polling, the barrier
    // commit and the next staging all happen between the two counter reads.
    let cube = Hypercube::new(2);
    let engine = Engine::new(FaultSet::none(cube), CostModel::default())
        .with_engine(EngineKind::Par)
        .with_workers(2);
    let pool: BufferPool<u64> = BufferPool::new();
    let pool = &pool;
    let inputs: Vec<Option<Vec<u64>>> = (0..cube.len())
        .map(|i| Some((0..256).map(|x| (i as u64) << 32 | x).collect()))
        .collect();
    let out = engine.run(inputs, async |ctx, data| {
        let partner = hypercube::address::NodeId::new(ctx.me().raw() ^ 1);
        let tag = Tag::phase(9, 0, 0);
        let mut handle = pool.handle();
        let mut buf = data;
        ctx.span_enter(9);
        for _ in 0..4 {
            buf = ctx.exchange(partner, tag, buf).await;
            let slab = handle.take(256);
            handle.put(slab);
        }
        ctx.span_exit();
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..64 {
            buf = ctx.exchange(partner, tag, buf).await;
            ctx.charge_comparisons(buf.len());
            // the compare-split slab cycle: grab a scratch slab, use it,
            // hand the allocation back
            let mut slab = handle.take(256);
            slab.push(buf.len() as u64);
            handle.put(slab);
        }
        let after = ALLOCS.load(Ordering::Relaxed);
        // One more exchange after the counter read: a barrier that keeps
        // every node's window clear of the teardown rounds (a finishing
        // node drops its PoolHandle, whose first spill into the shared
        // store allocates — real, but not part of the warm path).
        buf = ctx.exchange(partner, tag, buf).await;
        (buf.len(), after - before)
    });
    for (i, outcome) in out.outcomes().iter().enumerate() {
        let Some(outcome) = outcome else { continue };
        let (len, allocs) = outcome.result;
        assert_eq!(len, 256, "payload must survive the ping-pong");
        assert_eq!(
            allocs, 0,
            "warm par message path allocated {allocs} times on node {i}"
        );
    }
}

fn sched_profiler_records_allocation_free_when_warm() {
    // The par ping-pong again, now with the scheduler profiler attached:
    // every poll/steal/barrier/park transition inside the window records
    // into each worker's preallocated event ring (sized by
    // `WorkerProf::new` before any node program runs), so profiling a
    // warm run must add exactly zero allocations to the message path.
    let cube = Hypercube::new(2);
    let profiler = std::sync::Arc::new(hypercube::obs::sched::SchedProfiler::new());
    let engine = Engine::new(FaultSet::none(cube), CostModel::default())
        .with_engine(EngineKind::Par)
        .with_workers(2)
        .with_sched_profiler(profiler.clone());
    let inputs: Vec<Option<Vec<u64>>> = (0..cube.len())
        .map(|i| Some((0..256).map(|x| (i as u64) << 32 | x).collect()))
        .collect();
    let out = engine.run(inputs, async |ctx, data| {
        let partner = hypercube::address::NodeId::new(ctx.me().raw() ^ 1);
        let tag = Tag::phase(9, 0, 0);
        let mut buf = data;
        ctx.span_enter(9);
        for _ in 0..4 {
            buf = ctx.exchange(partner, tag, buf).await;
        }
        ctx.span_exit();
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..64 {
            buf = ctx.exchange(partner, tag, buf).await;
            ctx.charge_comparisons(buf.len());
        }
        let after = ALLOCS.load(Ordering::Relaxed);
        (buf.len(), after - before)
    });
    for (i, outcome) in out.outcomes().iter().enumerate() {
        let Some(outcome) = outcome else { continue };
        let (len, allocs) = outcome.result;
        assert_eq!(len, 256, "payload must survive the ping-pong");
        assert_eq!(
            allocs, 0,
            "profiled warm par message path allocated {allocs} times on node {i}"
        );
    }
    // The profiler really was live — a full profile with intact rings
    // was installed, so the zero-alloc window covered real recording.
    let profile = profiler.take().expect("profiled run installs a profile");
    assert_eq!(profile.workers, 2);
    for prof in &profile.workers_prof {
        assert_eq!(
            prof.dropped(),
            0,
            "worker {} ring overflowed inside the test",
            prof.worker()
        );
        assert!(
            !prof.events().is_empty(),
            "worker {} recorded no events",
            prof.worker()
        );
    }
}

fn second_run_on_the_same_buffer_pool_starts_warm() {
    let cube = Hypercube::new(2);
    let pool: BufferPool<u64> = BufferPool::new();

    // Run 1 warms the pool: every node cycles one 256-capacity slab, and
    // the handles' Drop returns the slabs to the shared store.
    let run = |measure: bool| {
        let engine = Engine::new(FaultSet::none(cube), CostModel::default())
            .with_engine(EngineKind::Par)
            .with_workers(2);
        let pool = &pool;
        let inputs: Vec<Option<Vec<u64>>> = (0..cube.len())
            .map(|i| Some((0..256).map(|x| (i as u64) << 32 | x).collect()))
            .collect();
        let out = engine.run(inputs, async |ctx, data| {
            let partner = hypercube::address::NodeId::new(ctx.me().raw() ^ 1);
            let tag = Tag::phase(9, 0, 0);
            let mut handle = pool.handle();
            let mut buf = data;
            // Message-path warm-up only: inboxes and histograms are
            // per-run state. Deliberately no slab warm-up — when
            // measuring, the window's first `take` must already be warm,
            // fed by the previous run's slabs.
            for _ in 0..4 {
                buf = ctx.exchange(partner, tag, buf).await;
            }
            let before = ALLOCS.load(Ordering::Relaxed);
            for _ in 0..32 {
                buf = ctx.exchange(partner, tag, buf).await;
                let mut slab = handle.take(256);
                slab.push(buf.len() as u64);
                handle.put(slab);
            }
            let after = ALLOCS.load(Ordering::Relaxed);
            // Post-window barrier: keeps teardown (handle Drop spilling
            // into the shared store) out of every node's window.
            buf = ctx.exchange(partner, tag, buf).await;
            (buf.len(), after - before)
        });
        for (i, outcome) in out.outcomes().iter().enumerate() {
            let Some(outcome) = outcome else { continue };
            let (len, allocs) = outcome.result;
            assert_eq!(len, 256, "payload must survive the ping-pong");
            if measure {
                assert_eq!(
                    allocs, 0,
                    "second-run slab cycle allocated {allocs} times on node {i}"
                );
            }
        }
    };
    run(false);
    assert_eq!(
        pool.shared_slabs(),
        cube.len(),
        "run 1 must park one warmed slab per node in the shared store"
    );
    run(true);
}

fn warm_metric_recording_is_allocation_free() {
    // The live-telemetry contract: registration (install_global) is the
    // cold path and may allocate; recording on already-registered handles
    // is pure atomics. Counters, gauges and histogram records all run
    // inside the counting window.
    let global = hypercube::obs::metrics::install_global();
    let m = &global.run;
    // Touch every instrument once outside the window (paranoia — handles
    // were fully built at registration, nothing is lazy).
    m.engine.rounds.inc();
    m.engine.msg_elements.record(17);
    m.ws.parked_workers.add(1);
    m.ws.parked_workers.sub(1);
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..4096u64 {
        m.engine.rounds.inc();
        m.engine.messages_delivered.inc();
        m.engine.elements_priced.add(i);
        m.engine.link_wait_us.add(i & 7);
        m.engine.msg_elements.record(i);
        m.ws.steals.inc();
        m.ws.barrier_epochs.inc();
        m.ws.parked_workers.add(1);
        m.ws.parked_workers.sub(1);
        m.pool.takes.inc();
        m.pool.puts.inc();
        m.pool.shared_slabs.set(i as i64);
        m.pool.slab_high_water.set_max(i as i64);
        m.sink.events.inc();
        m.sink.gz_bytes_in.add(i);
        m.sink.gz_bytes_out.add(i / 2);
        m.sched.ring_events.set(i as i64);
        m.sched.events_dropped.add(0);
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "warm metric recording allocated {} times",
        after - before
    );
}

fn metered_par_engine_message_path_is_allocation_free_when_warm() {
    // The par ping-pong with the global registry *installed*: every
    // engine/barrier/pool telemetry hook fires on the hot path (steals,
    // parks, deliveries, element histograms, stats-pool slab cycles) and
    // must still add zero allocations to the warm rounds.
    hypercube::obs::metrics::install_global();
    let cube = Hypercube::new(2);
    let engine = Engine::new(FaultSet::none(cube), CostModel::default())
        .with_engine(EngineKind::Par)
        .with_workers(2);
    let pool: BufferPool<u64> = BufferPool::with_stats();
    let pool = &pool;
    let inputs: Vec<Option<Vec<u64>>> = (0..cube.len())
        .map(|i| Some((0..256).map(|x| (i as u64) << 32 | x).collect()))
        .collect();
    let out = engine.run(inputs, async |ctx, data| {
        let partner = hypercube::address::NodeId::new(ctx.me().raw() ^ 1);
        let tag = Tag::phase(9, 0, 0);
        let mut handle = pool.handle();
        let mut buf = data;
        ctx.span_enter(9);
        for _ in 0..4 {
            buf = ctx.exchange(partner, tag, buf).await;
            let slab = handle.take(256);
            handle.put(slab);
        }
        ctx.span_exit();
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..64 {
            buf = ctx.exchange(partner, tag, buf).await;
            ctx.charge_comparisons(buf.len());
            let mut slab = handle.take(256);
            slab.push(buf.len() as u64);
            handle.put(slab);
        }
        let after = ALLOCS.load(Ordering::Relaxed);
        // Post-window barrier: keeps handle-Drop spills out of the window.
        buf = ctx.exchange(partner, tag, buf).await;
        (buf.len(), after - before)
    });
    for (i, outcome) in out.outcomes().iter().enumerate() {
        let Some(outcome) = outcome else { continue };
        let (len, allocs) = outcome.result;
        assert_eq!(len, 256, "payload must survive the ping-pong");
        assert_eq!(
            allocs, 0,
            "metered warm par message path allocated {allocs} times on node {i}"
        );
    }
    // The hooks really fired: the process-wide counters saw this run.
    let g = hypercube::obs::metrics::global().expect("installed above");
    assert!(g.run.engine.messages_delivered.get() > 0);
    assert!(g.run.engine.msg_elements.count() > 0);
    assert!(g.run.pool.takes.get() > 0);
    assert!(g.run.ws.barrier_epochs.get() > 0);
}
