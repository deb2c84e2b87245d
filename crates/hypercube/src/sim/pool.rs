//! A lock-cheap pool of recycled `Vec<K>` payload slabs shared across an
//! entire run.
//!
//! The compare-split hot path cycles merge buffers at a high rate. A
//! [`BufferPool`] is one slab store shared by every node of a run,
//! accessed through per-node [`PoolHandle`]s: each sort entry point builds
//! one pool per run and hands each node program `pool.handle()`, so slabs
//! warmed by one node are reused by the rest. Each handle keeps a local
//! free list of small slabs, so the warm path of a fine-grained run never
//! touches the shared lock — it only pops and pushes the handle's own
//! `Vec`. A slab parks locally only if its capacity spans at most
//! `LOCAL_SLAB_BYTES` (32 KiB) and the list holds fewer than `LOCAL_SLABS`
//! (8), so a handle parks at most 256 KiB however long the runs. Larger
//! slabs go straight to the shared store, where the next take by any node
//! reuses them. The mutex is hit on local misses, local overflow and every
//! large slab.
//!
//! Slab identity and capacity are deliberately unobservable to the
//! simulation: whichever engine runs, and however slabs migrate between
//! workers, simulated results stay byte-identical (the differential tests
//! pin this).
//!
//! Pools built with [`BufferPool::with_stats`] additionally count
//! take/put traffic and the parked-slab high-water mark
//! ([`PoolCounters`]). Each handle counts its own takes, puts and fullest
//! local list in plain fields and adds them to the pool's counters once,
//! when it drops, so the warm path touches no shared counter. The shared
//! store's own high water is noted under the lock its spills and drops
//! already hold. The pool's owner reads the counters after the run, once
//! every handle is gone (`ftsort-cli sort` folds them into the metrics
//! snapshot's `ftsort_pool_*` families). [`BufferPool::new`] pools keep
//! no counters at all.

use std::sync::{Arc, Mutex, MutexGuard};

/// Small slabs (at most `LOCAL_SLAB_BYTES`) a handle keeps locally before
/// spilling to the shared store. Sized for the compare-split working set
/// (merge output + loser half + two in-flight payloads) with slack; larger
/// values just delay sharing. Smaller values send more take/put traffic
/// through the shared lock.
const LOCAL_SLABS: usize = 8;

/// Largest slab, in bytes of capacity, a handle parks in its local list;
/// larger slabs go straight to the shared store. With [`LOCAL_SLABS`] this
/// bounds what one node parks at 256 KiB. Below the limit merges are short
/// and a lock per take and put shows in the wall: a 4 KiB limit made a
/// Q10 par@2 sort with 4.7 KB slabs half again as slow. Above it the merge
/// a slab carries (over 4,096 eight-byte keys) dwarfs the lock.
const LOCAL_SLAB_BYTES: usize = 32 * 1024;

/// Pool traffic counters, kept only by stats-enabled pools
/// ([`BufferPool::with_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolCounters {
    /// Slabs taken (local hit, shared hit or fresh allocation alike).
    pub takes: u64,
    /// Slabs returned.
    pub puts: u64,
    /// High-water mark of parked slabs in any single store — the shared
    /// store or one handle's local free list, whichever ran fullest.
    pub slab_high_water: u64,
}

/// The shared state of one pool: the parked slabs, and the counters when
/// the pool keeps them.
struct Store<K> {
    slabs: Vec<Vec<K>>,
    counters: Option<PoolCounters>,
}

impl<K> Store<K> {
    /// Raises the high water to `parked` slabs.
    fn note(&mut self, parked: usize) {
        if let Some(c) = &mut self.counters {
            c.slab_high_water = c.slab_high_water.max(parked as u64);
        }
    }
}

/// The shared slab store of one run. Cheap to clone (an [`Arc`]); create
/// one per run and hand each node program a [`BufferPool::handle`].
pub struct BufferPool<K> {
    shared: Arc<Mutex<Store<K>>>,
}

impl<K> Clone for BufferPool<K> {
    fn clone(&self) -> Self {
        BufferPool {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<K> Default for BufferPool<K> {
    fn default() -> Self {
        BufferPool::new()
    }
}

impl<K> BufferPool<K> {
    fn with_counters(counters: Option<PoolCounters>) -> Self {
        BufferPool {
            shared: Arc::new(Mutex::new(Store {
                slabs: Vec::new(),
                counters,
            })),
        }
    }

    /// An empty pool with no statistics — the zero-overhead default used
    /// by the library sort paths.
    pub fn new() -> Self {
        BufferPool::with_counters(None)
    }

    /// An empty pool that counts its traffic ([`PoolCounters`]).
    pub fn with_stats() -> Self {
        BufferPool::with_counters(Some(PoolCounters::default()))
    }

    /// This pool's counters, when built with
    /// [`with_stats`](Self::with_stats). A handle adds its traffic when
    /// it drops, so they are complete once the run's handles are gone.
    pub fn counters(&self) -> Option<PoolCounters> {
        self.store().counters
    }

    fn store(&self) -> MutexGuard<'_, Store<K>> {
        self.shared.lock().expect("buffer pool lock poisoned")
    }

    /// A handle drawing on this pool, for one node program. The local free
    /// list is sized up front so `put` never grows it — a handle's warm
    /// take/put cycle allocates nothing from its very first use.
    pub fn handle(&self) -> PoolHandle<K> {
        PoolHandle {
            local: Vec::with_capacity(LOCAL_SLABS),
            pool: self.clone(),
            takes: 0,
            puts: 0,
            local_high_water: 0,
        }
    }

    /// Slabs currently parked in the shared store (diagnostics/tests);
    /// slabs held by live handles are not counted.
    pub fn shared_slabs(&self) -> usize {
        self.store().slabs.len()
    }
}

/// One node program's view of a [`BufferPool`]: a small local free list
/// backed by the shared store. `take`/`put` are lock-free in the warm path.
pub struct PoolHandle<K> {
    local: Vec<Vec<K>>,
    pool: BufferPool<K>,
    /// This handle's traffic, added to the pool's counters when it drops.
    takes: u64,
    puts: u64,
    local_high_water: usize,
}

impl<K> PoolHandle<K> {
    /// Takes an empty slab with capacity ≥ `capacity`: most recently
    /// returned local slab first (cache warmth), then the shared store,
    /// then a fresh allocation.
    pub fn take(&mut self, capacity: usize) -> Vec<K> {
        self.takes += 1;
        let mut buf = match self.local.pop() {
            Some(buf) => buf,
            None => self.pool.store().slabs.pop().unwrap_or_default(),
        };
        buf.reserve(capacity);
        buf
    }

    /// Returns a spent slab. Contents are dropped; the allocation parks in
    /// the local list if its capacity spans at most 32 KiB
    /// (`LOCAL_SLAB_BYTES`) and the list holds fewer than 8 slabs
    /// (`LOCAL_SLABS`), and in the shared store otherwise, where the next
    /// take by any handle reuses it.
    pub fn put(&mut self, mut buf: Vec<K>) {
        buf.clear();
        self.puts += 1;
        let small = buf.capacity() * std::mem::size_of::<K>() <= LOCAL_SLAB_BYTES;
        if small && self.local.len() < LOCAL_SLABS {
            self.local.push(buf);
            self.local_high_water = self.local_high_water.max(self.local.len());
        } else {
            let mut store = self.pool.store();
            store.slabs.push(buf);
            let parked = store.slabs.len();
            store.note(parked);
        }
    }

    /// Slabs parked locally in this handle (diagnostics/tests).
    pub fn local_slabs(&self) -> usize {
        self.local.len()
    }
}

impl<K> Drop for PoolHandle<K> {
    /// Returns local slabs to the shared store so other nodes can reuse
    /// allocations warmed by finished nodes, and adds this handle's
    /// traffic to the pool's counters.
    fn drop(&mut self) {
        // No panic in drop: a poisoned store just keeps its slabs.
        let Ok(mut store) = self.pool.shared.lock() else {
            return;
        };
        store.slabs.append(&mut self.local);
        let parked = store.slabs.len().max(self.local_high_water);
        store.note(parked);
        if let Some(c) = &mut store.counters {
            c.takes += self.takes;
            c.puts += self.puts;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn returned_slab_keeps_its_capacity_on_reacquire() {
        let pool: BufferPool<u64> = BufferPool::new();
        let mut handle = pool.handle();
        let mut slab = handle.take(100);
        slab.extend(0..100);
        let ptr = slab.as_ptr();
        let cap = slab.capacity();
        handle.put(slab);
        assert_eq!(handle.local_slabs(), 1);
        let again = handle.take(10);
        assert_eq!(again.as_ptr(), ptr, "pooled allocation is reused");
        assert_eq!(again.capacity(), cap, "capacity survives the round trip");
        assert!(again.is_empty(), "contents are dropped on put");
        assert_eq!(handle.local_slabs(), 0);
    }

    #[test]
    fn take_grows_a_dry_pool_or_a_small_slab() {
        let pool: BufferPool<u8> = BufferPool::new();
        let mut handle = pool.handle();
        let slab = handle.take(16);
        assert!(slab.capacity() >= 16, "a dry pool allocates");
        handle.put(slab);
        let slab = handle.take(1024);
        assert!(
            slab.capacity() >= 1024,
            "reserve grows a too-small pooled slab"
        );
    }

    #[test]
    fn slabs_flow_between_handles_through_the_shared_store() {
        let pool: BufferPool<u32> = BufferPool::new();
        let mut a = pool.handle();
        // Overflow a's local list so slabs spill to the shared store…
        for _ in 0..LOCAL_SLABS + 3 {
            let slab = a.take(64);
            a.put(slab);
        }
        // take/put cycles one slab; fill the local list for real:
        let slabs: Vec<_> = (0..LOCAL_SLABS + 3).map(|_| a.take(64)).collect();
        for s in slabs {
            a.put(s);
        }
        assert_eq!(a.local_slabs(), LOCAL_SLABS);
        assert_eq!(pool.shared_slabs(), 3);
        // …and another handle picks them up without allocating.
        let mut b = pool.handle();
        let got = b.take(1);
        assert!(got.capacity() >= 64, "b reuses a's spilled slab");
        assert_eq!(pool.shared_slabs(), 2);
    }

    #[test]
    fn dropping_a_handle_returns_its_local_slabs() {
        let pool: BufferPool<u8> = BufferPool::new();
        let mut handle = pool.handle();
        let s1 = handle.take(16);
        let s2 = handle.take(16);
        handle.put(s1);
        handle.put(s2);
        assert_eq!(pool.shared_slabs(), 0);
        drop(handle);
        assert_eq!(pool.shared_slabs(), 2);
        // Another node picks up the last slab parked.
        let last = pool.store().slabs.last().map(|s| s.as_ptr());
        let again = pool.handle().take(8);
        assert_eq!(Some(again.as_ptr()), last, "another node reuses it");
    }

    /// A `u64` slab whose capacity spans `bytes`.
    fn slab_of(handle: &mut PoolHandle<u64>, bytes: usize) -> Vec<u64> {
        let slab = handle.take(bytes / std::mem::size_of::<u64>());
        assert_eq!(slab.capacity() * std::mem::size_of::<u64>(), bytes);
        slab
    }

    #[test]
    fn slabs_over_the_byte_limit_skip_the_local_list() {
        let pool: BufferPool<u64> = BufferPool::new();
        let mut a = pool.handle();
        let big = slab_of(&mut a, 2 * LOCAL_SLAB_BYTES);
        let ptr = big.as_ptr();
        a.put(big);
        assert_eq!(a.local_slabs(), 0, "a big slab never parks locally");
        assert_eq!(pool.shared_slabs(), 1);
        // The next take by any node reuses it.
        let mut b = pool.handle();
        let again = b.take(1);
        assert_eq!(again.as_ptr(), ptr, "b reuses a's big slab");
        assert_eq!(pool.shared_slabs(), 0);
    }

    #[test]
    fn a_slab_of_exactly_the_byte_limit_parks_locally() {
        let pool: BufferPool<u64> = BufferPool::new();
        let mut handle = pool.handle();
        let at_limit = slab_of(&mut handle, LOCAL_SLAB_BYTES);
        let over = slab_of(&mut handle, LOCAL_SLAB_BYTES + 8);
        handle.put(at_limit);
        assert_eq!(handle.local_slabs(), 1);
        assert_eq!(pool.shared_slabs(), 0);
        handle.put(over);
        assert_eq!(handle.local_slabs(), 1, "one key more takes the lock");
        assert_eq!(pool.shared_slabs(), 1);
    }

    #[test]
    fn plain_pools_carry_no_stats() {
        let pool: BufferPool<u8> = BufferPool::new();
        drop(pool.handle());
        assert!(pool.counters().is_none());
    }

    #[test]
    fn stats_pools_count_takes_puts_and_high_water() {
        let pool: BufferPool<u32> = BufferPool::with_stats();
        let mut a = pool.handle();
        let slabs: Vec<_> = (0..LOCAL_SLABS + 3).map(|_| a.take(64)).collect();
        let taken = slabs.len() as u64;
        for s in slabs {
            a.put(s);
        }
        // One extra round trip through the (now warm) local list.
        let s = a.take(8);
        a.put(s);
        // A handle adds its traffic when it drops. Dropping `a` parks
        // everything shared, so the shared store is the fullest one.
        drop(a);
        let counters = pool.counters().expect("stats enabled");
        assert_eq!(counters.takes, taken + 1);
        assert_eq!(counters.puts, taken + 1);
        assert_eq!(counters.slab_high_water, taken);
        assert_eq!(pool.shared_slabs() as u64, taken);

        // A local list that ran fuller than any shared store sets the
        // high water: this handle fills its list, then keeps six slabs.
        let pool: BufferPool<u32> = BufferPool::with_stats();
        let mut b = pool.handle();
        let slabs: Vec<_> = (0..LOCAL_SLABS).map(|_| b.take(64)).collect();
        for s in slabs {
            b.put(s);
        }
        let kept: Vec<_> = (0..6).map(|_| b.take(64)).collect();
        drop(b);
        let counters = pool.counters().expect("stats enabled");
        assert_eq!(pool.shared_slabs(), LOCAL_SLABS - kept.len());
        assert_eq!(counters.slab_high_water, LOCAL_SLABS as u64);
        assert_eq!(counters.takes, LOCAL_SLABS as u64 + 6);
    }

    #[test]
    fn stats_pools_count_the_shared_path() {
        // Big slabs bypass both local lists: three parked at once set the
        // shared store's high water, and every take and put is counted.
        let pool: BufferPool<u64> = BufferPool::with_stats();
        let mut a = pool.handle();
        let slabs: Vec<_> = (0..3)
            .map(|_| slab_of(&mut a, 2 * LOCAL_SLAB_BYTES))
            .collect();
        for s in slabs {
            a.put(s);
        }
        let mut b = pool.handle();
        let s = b.take(1);
        b.put(s);
        assert_eq!((a.local_slabs(), b.local_slabs()), (0, 0));
        drop(a);
        drop(b);
        let counters = pool.counters().expect("stats enabled");
        assert_eq!(counters.takes, 4);
        assert_eq!(counters.puts, 4);
        assert_eq!(counters.slab_high_water, 3);
        assert_eq!(pool.shared_slabs(), 3);
    }
}
