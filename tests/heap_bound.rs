//! Pins the fault-tolerant sort's peak heap to a small multiple of its
//! input.
//!
//! The paper gives each of the N' live processors ⌈M/N'⌉ keys (§2.1,
//! step 2), so the simulated machine's memory should follow M. Here every
//! live node of Q6 with faults 9, 22 and 51 holds 8,192 `i64` keys
//! (64 KiB runs, over the buffer pool's 32 KiB local limit), and the peak
//! heap of one `fault_tolerant_sort` call, above the heap live before it,
//! must stay within 3× the input bytes on the seq engine and on par@2.
//! When each node's pool handle kept up to eight run-sized slabs for the
//! whole run, and the run's pool still held them while the gather built
//! the output, the call peaked at 6.0× on every engine.
//!
//! Per-node memory must not grow with the cube either. With one fault the
//! single subcube is the whole cube; when every node built its own copy of
//! the subcube's member list, a run held 4^n addresses, and a sort of one
//! key per node peaked at 2.51× (seq) and 2.42× (par@2) the heap per live
//! node at n = 11 that it took at n = 8. The bound is 1.25×.
//!
//! The `#[global_allocator]` tracks live and peak bytes process-wide, so
//! this binary holds this one test: nothing else moves the counters by
//! more than libtest's own few KB.

use ftsort::ftsort::{fault_tolerant_sort, Attach, FtConfig, FtPlan};
use hypercube::fault::FaultSet;
use hypercube::sim::EngineKind;
use hypercube::topology::Hypercube;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct TrackingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the caller's guarantees are exactly the ones `System` requires, and the
// byte tallies neither allocate nor unwind.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `alloc` contract, forwarded.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `alloc_zeroed` contract, forwarded.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            grow(new_size);
            shrink(layout.size());
        }
        new
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }
}

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

#[test]
fn sort_peak_heap_is_at_most_three_times_the_input() {
    const KEYS_PER_NODE: usize = 8192;
    const BOUND: f64 = 3.0;
    const GROWTH_BOUND: f64 = 1.25;
    let faults = FaultSet::from_raw(Hypercube::new(6), &[9, 22, 51]);
    let plan = FtPlan::new(&faults).expect("tolerable");
    assert_eq!(plan.live_count(), 60);
    let m = plan.live_count() * KEYS_PER_NODE;
    let mut rng = StdRng::seed_from_u64(1992);
    let data: Vec<i64> = (0..m).map(|_| rng.random()).collect();
    let mut want = data.clone();
    want.sort_unstable();
    let input_bytes = std::mem::size_of_val(data.as_slice());

    for (engine, threads) in [(EngineKind::Seq, None), (EngineKind::Par, Some(2))] {
        let config = FtConfig {
            engine,
            threads,
            ..FtConfig::default()
        };
        let input = data.clone();
        let before = LIVE.load(Ordering::Relaxed);
        PEAK.store(before, Ordering::Relaxed);
        let (out, _, _) = fault_tolerant_sort(&plan, &config, input, Attach::default());
        let peak = PEAK.load(Ordering::Relaxed);
        assert_eq!(out.sorted, want, "{engine:?}: sorted output");
        let ratio = (peak - before) as f64 / input_bytes as f64;
        assert!(
            ratio <= BOUND,
            "{engine:?}: the sort's heap peaked {ratio:.2}x its {input_bytes} input \
             bytes, above {BOUND}x"
        );

        // Faults {1} and M = 2^n keys: the peak heap per live node.
        let per_node = |n: usize| {
            let plan =
                FtPlan::new(&FaultSet::from_raw(Hypercube::new(n), &[1])).expect("tolerable");
            let data: Vec<u32> = (0..1u32 << n).rev().collect();
            let before = LIVE.load(Ordering::Relaxed);
            PEAK.store(before, Ordering::Relaxed);
            let (out, _, _) = fault_tolerant_sort(&plan, &config, data, Attach::default());
            let peak = PEAK.load(Ordering::Relaxed);
            assert!(out.sorted.is_sorted(), "{engine:?}: Q{n} output");
            (peak - before) as f64 / plan.live_count() as f64
        };
        let (small, large) = (per_node(8), per_node(11));
        let growth = large / small;
        assert!(
            growth <= GROWTH_BOUND,
            "{engine:?}: the heap per live node grew {growth:.2}x from Q8 ({small:.0} B) \
             to Q11 ({large:.0} B), above {GROWTH_BOUND}x"
        );
    }
}
