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
//! nothing. Slabs over the pool's 32 KiB local limit skip the handles'
//! local lists and cycle through the shared store; that path is pinned
//! too, with 64 KiB slabs: once warm, the store's `Vec` keeps its
//! capacity, so a locked take/put cycle allocates nothing either.
//!
//! The scheduler profiler ([`hypercube::obs::sched`]) is pinned to the
//! same standard: its per-worker event rings are preallocated before any
//! node program runs, so attaching it must add zero allocations to the
//! warm message path.
//!
//! The six cases: the seq message path; the par message path with small
//! pooled slabs; the par path with the scheduler profiler attached; a
//! second run on a warm pool; the par path with metric totals installed
//! and a stats pool; and the par path cycling 64 KiB slabs through the
//! shared store.
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
            "metered_par_engine_message_path_is_allocation_free_when_warm",
            metered_par_engine_message_path_is_allocation_free_when_warm,
        ),
        (
            "big_slabs_cycle_through_the_shared_store_allocation_free",
            big_slabs_cycle_through_the_shared_store_allocation_free,
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

fn metered_par_engine_message_path_is_allocation_free_when_warm() {
    // The par ping-pong with the process's metric totals *installed* and a
    // stats pool attached: the workers' tallies and the pool handles'
    // counters run on the hot path, the folds happen when the run ends,
    // and the warm rounds must still add zero allocations.
    hypercube::obs::metrics::install();
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
    // The run's totals reached the process's totals, and the stats pool
    // counted its own traffic once the handles dropped.
    let mut totals = None;
    hypercube::obs::metrics::fold(|t| totals = Some(t.clone()));
    let totals = totals.expect("installed above");
    assert!(totals.messages_delivered > 0);
    assert!(totals.msg_elements.counts.iter().sum::<u64>() > 0);
    assert!(pool.counters().expect("stats pool").takes > 0);
    assert!(totals.ws_barrier_epochs > 0);
}

fn big_slabs_cycle_through_the_shared_store_allocation_free() {
    // The par ping-pong cycling 64 KiB slabs (8,192 `u64`s), twice the
    // pool's local limit: every put parks in the shared store and every
    // take pops from it, under the lock.
    const BIG: usize = 8192;
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
            // Every node holds its slab across a round, so the store ends
            // the warm-up with one slab per node and room to park them all.
            let slab = handle.take(BIG);
            buf = ctx.exchange(partner, tag, buf).await;
            handle.put(slab);
        }
        ctx.span_exit();
        let mut parked_locally = 0;
        let before = ALLOCS.load(Ordering::Relaxed);
        for _ in 0..64 {
            buf = ctx.exchange(partner, tag, buf).await;
            ctx.charge_comparisons(buf.len());
            let mut slab = handle.take(BIG);
            slab.push(buf.len() as u64);
            handle.put(slab);
            parked_locally += handle.local_slabs();
        }
        let after = ALLOCS.load(Ordering::Relaxed);
        // Post-window barrier: keeps handle-Drop spills out of the window.
        buf = ctx.exchange(partner, tag, buf).await;
        (buf.len(), after - before, parked_locally)
    });
    for (i, outcome) in out.outcomes().iter().enumerate() {
        let Some(outcome) = outcome else { continue };
        let (len, allocs, parked_locally) = outcome.result;
        assert_eq!(len, 256, "payload must survive the ping-pong");
        assert_eq!(
            parked_locally, 0,
            "a 64 KiB slab parked in node {i}'s local list"
        );
        assert_eq!(
            allocs, 0,
            "big-slab shared-store cycle allocated {allocs} times on node {i}"
        );
    }
    assert_eq!(
        pool.shared_slabs(),
        cube.len(),
        "the store holds the one big slab each node warmed"
    );
}
