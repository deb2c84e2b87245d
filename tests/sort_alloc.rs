//! Pins the fault-tolerant sort's own heap traffic.
//!
//! `crates/hypercube/tests/alloc_free.rs` pins the engines' message path
//! with raw ping-pongs; this file pins the node program that runs on top
//! of it. The sort runs twice on one [`BufferPool`] on the seq engine, and
//! the second (warm) run's heap calls — allocations, zeroed allocations
//! and reallocations — are bounded per live node. While step 7 found its
//! partner by building the neighbouring subcube's member map, a warm run
//! made 510 heap calls per live node at Q8 and 1,491 at Q10; with the
//! O(s) lookup it makes 54 and 71.
//!
//! The counter is thread-local: the seq engine runs every node program on
//! the calling thread, and libtest's other threads cannot touch it.

use ftsort::ftsort::{fault_tolerant_sort, Attach, FtConfig, FtPlan};
use hypercube::fault::FaultSet;
use hypercube::sim::{BufferPool, EngineKind};
use hypercube::topology::Hypercube;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    static HEAP_CALLS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread's TLS is torn down
    let _ = HEAP_CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` requires, and
// `count` neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `alloc` contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `alloc_zeroed` contract, forwarded.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn heap_calls() -> usize {
    HEAP_CALLS.with(Cell::get)
}

/// Heap calls per live node of the second of two seq-engine sorts of `m`
/// random keys on one pool, on `r` random faults in `Q_n` whose partition
/// has the given `mincut`.
fn warm_heap_calls_per_live_node(n: usize, r: usize, mincut: usize, m: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(1);
    let faults = FaultSet::random(Hypercube::new(n), r, &mut rng);
    let plan = FtPlan::new(&faults).expect("tolerable");
    assert_eq!(plan.partition().mincut, mincut, "Q{n}: fault-set shape");
    let config = FtConfig {
        engine: EngineKind::Seq,
        ..FtConfig::default()
    };
    let data: Vec<i64> = (0..m).map(|_| rng.random()).collect();
    let mut want = data.clone();
    want.sort_unstable();
    let pool = BufferPool::new();
    let pooled = || Attach {
        pool: Some(&pool),
        ..Attach::default()
    };

    let (cold, _, _) = fault_tolerant_sort(&plan, &config, data.clone(), pooled());
    assert_eq!(cold.sorted, want, "Q{n}: cold run");
    let before = heap_calls();
    let (warm, _, _) = fault_tolerant_sort(&plan, &config, data, pooled());
    let calls = heap_calls() - before;
    assert_eq!(warm.sorted, want, "Q{n}: warm run");
    calls as f64 / plan.live_count() as f64
}

#[test]
fn warm_sort_heap_calls_per_live_node_are_bounded() {
    const BOUND: f64 = 100.0;
    // The shapes of the benchmark's `campaign` Q8 cells (r = 5, mincut 3,
    // M = 4000) and of `fine` (Q10, r = 9, mincut 4, s = 6, M = 16000).
    for (n, r, mincut, m) in [(8, 5, 3, 4_000), (10, 9, 4, 16_000)] {
        let per_node = warm_heap_calls_per_live_node(n, r, mincut, m);
        assert!(
            per_node <= BOUND,
            "Q{n}, r = {r}, M = {m}: {per_node:.1} heap calls per live node \
             on a warm run, above {BOUND}"
        );
    }
}
