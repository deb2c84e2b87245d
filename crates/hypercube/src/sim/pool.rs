//! A lock-cheap pool of recycled `Vec<K>` payload slabs shared across an
//! entire run.
//!
//! The compare-split hot path cycles merge buffers at a high rate. A
//! per-node free list (`ftsort::Scratch`) already makes the warm path
//! allocation-free on one thread, but each node then warms its own slabs —
//! on the parallel engine that is `N` cold starts, and slabs
//! idled by finished nodes are stranded. A [`BufferPool`] fixes both: one
//! global slab store shared by every node of a run, accessed through
//! per-worker [`PoolHandle`]s that keep a small local free list, so the
//! warm path never touches the shared lock — it only pops and pushes a
//! thread-local `Vec`. The global mutex is hit on local misses and local
//! overflow only.
//!
//! Slab identity and capacity are deliberately unobservable to the
//! simulation: whichever engine runs, and however slabs migrate between
//! workers, simulated results stay byte-identical (the differential tests
//! pin this).
//!
//! Pools built with [`BufferPool::with_stats`] additionally count
//! take/put traffic and the parked-slab high-water mark into a
//! [`PoolStats`] block (relaxed atomics — the warm path stays alloc- and
//! lock-free) and, when the process-global metrics registry is installed,
//! mirror them into the `ftsort_pool_*` instruments. [`BufferPool::new`]
//! pools carry no stats at all, so library-internal pools pay nothing.

use crate::obs::metrics::{self, PoolMetrics};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Slabs a handle keeps locally before spilling to the shared store. Sized
/// for the compare-split working set (merge output + loser half + two
/// in-flight payloads) with slack; larger values just delay sharing.
const LOCAL_SLABS: usize = 8;

/// Pool traffic counters, recorded only by stats-enabled pools
/// ([`BufferPool::with_stats`]).
#[derive(Debug, Default)]
pub struct PoolStats {
    takes: AtomicU64,
    puts: AtomicU64,
    high_water: AtomicU64,
}

/// A snapshot of [`PoolStats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolCounters {
    /// Slabs taken (local hit, shared hit or fresh allocation alike).
    pub takes: u64,
    /// Slabs returned.
    pub puts: u64,
    /// High-water mark of parked slabs in any single store — the shared
    /// store or one handle's local free list, whichever ran fullest.
    pub slab_high_water: u64,
}

impl PoolStats {
    /// A point-in-time snapshot of the counters.
    pub fn counters(&self) -> PoolCounters {
        PoolCounters {
            takes: self.takes.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            slab_high_water: self.high_water.load(Ordering::Relaxed),
        }
    }
}

/// The shared slab store of one run. Cheap to clone (an [`Arc`]); create
/// one per run and hand each node (or worker) a [`BufferPool::handle`].
pub struct BufferPool<K> {
    shared: Arc<Mutex<Vec<Vec<K>>>>,
    stats: Option<Arc<PoolStats>>,
    metrics: Option<PoolMetrics>,
}

impl<K> Clone for BufferPool<K> {
    fn clone(&self) -> Self {
        BufferPool {
            shared: Arc::clone(&self.shared),
            stats: self.stats.clone(),
            metrics: self.metrics.clone(),
        }
    }
}

impl<K> Default for BufferPool<K> {
    fn default() -> Self {
        BufferPool::new()
    }
}

impl<K> BufferPool<K> {
    /// An empty pool with no statistics — the zero-overhead default used
    /// by the library sort paths.
    pub fn new() -> Self {
        BufferPool {
            shared: Arc::new(Mutex::new(Vec::new())),
            stats: None,
            metrics: None,
        }
    }

    /// An empty pool that counts its traffic into a [`PoolStats`] block
    /// and, if [`metrics::install_global`] has run, into the
    /// `ftsort_pool_*` registry instruments.
    pub fn with_stats() -> Self {
        BufferPool {
            shared: Arc::new(Mutex::new(Vec::new())),
            stats: Some(Arc::new(PoolStats::default())),
            metrics: metrics::global().map(|g| g.run.pool.clone()),
        }
    }

    /// This pool's statistics block, when built with
    /// [`with_stats`](Self::with_stats).
    pub fn stats(&self) -> Option<&Arc<PoolStats>> {
        self.stats.as_ref()
    }

    /// A per-worker handle drawing on this pool. The local free list is
    /// sized up front so `put` never grows it — a handle's warm
    /// take/put cycle allocates nothing from its very first use.
    pub fn handle(&self) -> PoolHandle<K> {
        PoolHandle {
            local: Vec::with_capacity(LOCAL_SLABS),
            shared: Arc::clone(&self.shared),
            stats: self.stats.clone(),
            metrics: self.metrics.clone(),
        }
    }

    /// Slabs currently parked in the shared store (diagnostics/tests);
    /// slabs held by live handles are not counted.
    pub fn shared_slabs(&self) -> usize {
        self.shared.lock().expect("buffer pool lock poisoned").len()
    }
}

/// A per-worker view of a [`BufferPool`]: a small local free list backed by
/// the shared store. `take`/`put` are lock-free in the warm path.
pub struct PoolHandle<K> {
    local: Vec<Vec<K>>,
    shared: Arc<Mutex<Vec<Vec<K>>>>,
    stats: Option<Arc<PoolStats>>,
    metrics: Option<PoolMetrics>,
}

impl<K> PoolHandle<K> {
    fn note_high_water(&self, parked: usize) {
        if let Some(s) = &self.stats {
            s.high_water.fetch_max(parked as u64, Ordering::Relaxed);
        }
        if let Some(m) = &self.metrics {
            m.slab_high_water.set_max(parked as i64);
        }
    }

    /// Takes an empty slab with capacity ≥ `capacity`: most recently
    /// returned local slab first (cache warmth), then the shared store,
    /// then a fresh allocation.
    pub fn take(&mut self, capacity: usize) -> Vec<K> {
        if let Some(s) = &self.stats {
            s.takes.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(m) = &self.metrics {
            m.takes.inc();
        }
        let mut buf = match self.local.pop() {
            Some(buf) => buf,
            None => {
                let mut shared = self.shared.lock().expect("buffer pool lock poisoned");
                let buf = shared.pop();
                if let Some(m) = &self.metrics {
                    m.shared_slabs.set(shared.len() as i64);
                }
                buf.unwrap_or_default()
            }
        };
        buf.reserve(capacity);
        buf
    }

    /// Returns a spent slab. Contents are dropped; the allocation parks in
    /// the local list, spilling to the shared store past `LOCAL_SLABS`.
    pub fn put(&mut self, mut buf: Vec<K>) {
        buf.clear();
        if let Some(s) = &self.stats {
            s.puts.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(m) = &self.metrics {
            m.puts.inc();
        }
        if self.local.len() < LOCAL_SLABS {
            self.local.push(buf);
            self.note_high_water(self.local.len());
        } else {
            let parked = {
                let mut shared = self.shared.lock().expect("buffer pool lock poisoned");
                shared.push(buf);
                if let Some(m) = &self.metrics {
                    m.shared_slabs.set(shared.len() as i64);
                }
                shared.len()
            };
            self.note_high_water(parked);
        }
    }

    /// Slabs parked locally in this handle (diagnostics/tests).
    pub fn local_slabs(&self) -> usize {
        self.local.len()
    }
}

impl<K> Drop for PoolHandle<K> {
    /// Returns local slabs to the shared store so other workers can reuse
    /// allocations warmed by finished nodes.
    fn drop(&mut self) {
        if self.local.is_empty() {
            return;
        }
        if let Ok(mut shared) = self.shared.lock() {
            shared.append(&mut self.local);
            let parked = shared.len();
            if let Some(m) = &self.metrics {
                m.shared_slabs.set(parked as i64);
            }
            drop(shared);
            self.note_high_water(parked);
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
        let again = handle.take(10);
        assert_eq!(again.as_ptr(), ptr, "pooled allocation is reused");
        assert_eq!(again.capacity(), cap, "capacity survives the round trip");
        assert!(again.is_empty(), "contents are dropped on put");
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
    }

    #[test]
    fn plain_pools_carry_no_stats() {
        let pool: BufferPool<u8> = BufferPool::new();
        assert!(pool.stats().is_none());
        assert!(pool.handle().stats.is_none());
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
        let counters = pool.stats().expect("stats enabled").counters();
        assert_eq!(counters.takes, taken + 1);
        assert_eq!(counters.puts, taken + 1);
        // The local list filled to LOCAL_SLABS before spilling; the shared
        // store then grew to 3 — the fullest single store was the local one.
        assert_eq!(counters.slab_high_water, LOCAL_SLABS as u64);
        // Dropping the handle parks everything shared: new high water.
        drop(a);
        let counters = pool.stats().expect("stats enabled").counters();
        assert_eq!(counters.slab_high_water, taken);
        assert_eq!(pool.shared_slabs() as u64, taken);
    }
}
