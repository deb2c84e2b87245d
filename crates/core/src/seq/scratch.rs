//! A per-node pool of reusable `Vec` buffers for the compare-split hot path.

use hypercube::sim::PoolHandle;

/// Where a [`Scratch`] parks and draws its allocations.
enum Store<K> {
    /// A private free list owned by this node alone.
    Own(Vec<Vec<K>>),
    /// A handle on a run-wide [`hypercube::sim::BufferPool`]: buffers cycle
    /// through a small per-node local list and spill to the shared store,
    /// so slabs warmed by one node are reused by others — on the parallel
    /// engine this turns `N` cold starts into one.
    Pooled(PoolHandle<K>),
}

/// A free list of empty `Vec<K>` allocations.
///
/// Each node program keeps one `Scratch` for the duration of a sort. The
/// compare-split protocol [`take`]s buffers for merge outputs and loser
/// halves and [`put`]s spent input buffers back, so after the first few
/// rounds warm the pool no compare-split allocates — buffers just cycle
/// between the pool, the in-flight messages and the live run. (On the
/// frontier engines message payloads move by ownership, so an exchange
/// swaps whole allocations between the partners' pools.)
///
/// A `Scratch` is either self-contained ([`Scratch::new`]) or backed by a
/// run-wide [`hypercube::sim::BufferPool`] ([`Scratch::pooled`]); the hot
/// path is identical, only the refill/spill target differs.
///
/// [`take`]: Scratch::take
/// [`put`]: Scratch::put
pub struct Scratch<K> {
    store: Store<K>,
}

impl<K> Default for Scratch<K> {
    fn default() -> Self {
        Scratch::new()
    }
}

impl<K> Scratch<K> {
    /// An empty self-contained pool.
    pub fn new() -> Self {
        Scratch {
            store: Store::Own(Vec::new()),
        }
    }

    /// A pool backed by a run-wide slab store. Dropping the `Scratch`
    /// (node finish) returns its local slabs for other nodes to reuse.
    pub fn pooled(handle: PoolHandle<K>) -> Self {
        Scratch {
            store: Store::Pooled(handle),
        }
    }

    /// Takes an empty buffer with capacity ≥ `capacity` from the pool (the
    /// most recently returned one, for cache warmth), or allocates one if
    /// the pool is dry.
    pub fn take(&mut self, capacity: usize) -> Vec<K> {
        match &mut self.store {
            Store::Own(bufs) => match bufs.pop() {
                Some(mut buf) => {
                    buf.reserve(capacity);
                    buf
                }
                None => Vec::with_capacity(capacity),
            },
            Store::Pooled(handle) => handle.take(capacity),
        }
    }

    /// Returns a spent buffer to the pool. The contents are dropped; the
    /// allocation is kept for the next [`Scratch::take`].
    pub fn put(&mut self, mut buf: Vec<K>) {
        match &mut self.store {
            Store::Own(bufs) => {
                buf.clear();
                bufs.push(buf);
            }
            Store::Pooled(handle) => handle.put(buf),
        }
    }

    /// Number of buffers pooled locally (diagnostics / tests); slabs spilled
    /// to a backing [`hypercube::sim::BufferPool`] are not counted.
    pub fn pooled_local(&self) -> usize {
        match &self.store {
            Store::Own(bufs) => bufs.len(),
            Store::Pooled(handle) => handle.local_slabs(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypercube::sim::BufferPool;

    #[test]
    fn take_reuses_returned_allocations() {
        let mut pool: Scratch<u64> = Scratch::new();
        let mut a = pool.take(100);
        a.extend(0..100);
        let ptr = a.as_ptr();
        let cap = a.capacity();
        pool.put(a);
        assert_eq!(pool.pooled_local(), 1);
        let b = pool.take(50);
        assert_eq!(b.as_ptr(), ptr, "pooled allocation is reused");
        assert_eq!(b.capacity(), cap);
        assert!(b.is_empty());
        assert_eq!(pool.pooled_local(), 0);
    }

    #[test]
    fn take_grows_when_pool_is_dry_or_small() {
        let mut pool: Scratch<u8> = Scratch::new();
        let a = pool.take(16);
        assert!(a.capacity() >= 16);
        pool.put(a);
        let b = pool.take(1024);
        assert!(
            b.capacity() >= 1024,
            "reserve grows a too-small pooled buffer"
        );
    }

    #[test]
    fn pooled_scratch_round_trips_through_the_shared_store() {
        let shared: BufferPool<u32> = BufferPool::new();
        let mut a = Scratch::pooled(shared.handle());
        let mut buf = a.take(64);
        buf.extend(0..64);
        let ptr = buf.as_ptr();
        a.put(buf);
        drop(a); // node finishes: its slab parks in the shared store
        assert_eq!(shared.shared_slabs(), 1);
        let mut b = Scratch::pooled(shared.handle());
        let again = b.take(8);
        assert_eq!(again.as_ptr(), ptr, "another node reuses the warm slab");
    }
}
