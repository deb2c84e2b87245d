//! Work-stealing primitives for the parallel frontier engine: a vendored
//! Chase–Lev deque, a sense-reversing barrier, and the shard cell the
//! scheduler's claim protocol synchronizes.
//!
//! No external crates: the deque is the classic Chase–Lev design (Chase &
//! Lev, *Dynamic Circular Work-Stealing Deque*, SPAA '05) with the
//! C11-memory-order corrections of Lê et al. (PPoPP '13), specialized to
//! `u32` shard ids — which makes every slot an [`AtomicU32`] and the whole
//! structure safe Rust (the general design needs `unsafe` only to move
//! arbitrary `T` through racing slots).
//!
//! The barrier is a centralized sense-reversing barrier: arrivals decrement
//! a counter, the last arrival flips the global *sense* and releases the
//! rest. Waiters spin briefly (a round's tail is usually microseconds away)
//! and then park on a condvar, so oversubscribed hosts — including the
//! single-core CI case — don't burn a timeslice spinning at every round.
//! [`SenseBarrier::poison`] releases all waiters permanently; the engine
//! uses it to unwind the whole pool when one worker panics inside a node
//! program.

use crate::obs::metrics::{self, WsMetrics};
use crate::obs::sched::WorkerProf;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// A fixed-capacity Chase–Lev work-stealing deque of `u32` items.
///
/// The owner pushes and pops at the *bottom* (LIFO, cache-warm); thieves
/// steal from the *top* (FIFO). Capacity is fixed at construction: the
/// scheduler never holds more than the total shard count in one deque, so
/// the ring cannot overflow and the hot path never allocates.
pub(super) struct WsDeque {
    top: AtomicIsize,
    bottom: AtomicIsize,
    buf: Box<[AtomicU32]>,
    mask: usize,
}

impl WsDeque {
    /// A deque holding at most `capacity` items at once.
    pub(super) fn new(capacity: usize) -> Self {
        let cap = capacity.max(1).next_power_of_two();
        WsDeque {
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
            buf: (0..cap).map(|_| AtomicU32::new(0)).collect(),
            mask: cap - 1,
        }
    }

    /// Owner-only: pushes `v` at the bottom.
    pub(super) fn push(&self, v: u32) {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        debug_assert!(
            (b - t) as usize <= self.mask,
            "WsDeque overflow: capacity {} exceeded",
            self.mask + 1
        );
        self.buf[b as usize & self.mask].store(v, Ordering::Relaxed);
        // Publish the slot before publishing the new bottom.
        self.bottom.store(b + 1, Ordering::Release);
    }

    /// Owner-only: pops from the bottom (the most recent push).
    pub(super) fn pop(&self) -> Option<u32> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed);
        std::sync::atomic::fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t <= b {
            let v = self.buf[b as usize & self.mask].load(Ordering::Relaxed);
            if t == b {
                // Last element: race the thieves for it.
                let won = self
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                self.bottom.store(b + 1, Ordering::Relaxed);
                won.then_some(v)
            } else {
                Some(v)
            }
        } else {
            // Already empty; restore bottom.
            self.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    /// Thief-side: steals from the top (the oldest item). `None` means the
    /// deque looked empty or the steal lost a race — callers just move to
    /// the next victim either way.
    pub(super) fn steal(&self) -> Option<u32> {
        let t = self.top.load(Ordering::Acquire);
        std::sync::atomic::fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t < b {
            let v = self.buf[t as usize & self.mask].load(Ordering::Relaxed);
            self.top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
                .then_some(v)
        } else {
            None
        }
    }
}

/// How many pause iterations a barrier waiter spins before parking. Rounds
/// are typically short, so most waits resolve in the spin window; the
/// constant is small enough that a descheduled peer (or a single-core
/// host) costs at most a few hundred nanoseconds of wasted spin.
const BARRIER_SPINS: usize = 64;

/// A centralized sense-reversing barrier over a fixed set of participants,
/// with poisoning for panic unwinding.
pub(super) struct SenseBarrier {
    participants: usize,
    /// Arrivals still missing in the current phase.
    pending: AtomicUsize,
    /// The global sense: flipped by the last arrival of each phase.
    /// Waiters of a phase wait for it to differ from the value they saw on
    /// arrival.
    sense: AtomicBool,
    poisoned: AtomicBool,
    /// Waiters currently registered for a condvar park. Lets the release
    /// path skip the mutex + notify entirely when everyone resolved in the
    /// spin window — the common case, and the whole cost of the barrier
    /// when the pool is a single worker.
    parkers: AtomicUsize,
    /// Park support for waiters that exhausted their spin budget. The
    /// mutex guards nothing — it exists to pair with the condvar.
    lock: Mutex<()>,
    cv: Condvar,
    /// Live-telemetry handles, resolved once at construction from the
    /// process-wide registry (see [`metrics::global`]); `None` keeps every
    /// hook a single branch.
    metrics: Option<WsMetrics>,
}

impl SenseBarrier {
    pub(super) fn new(participants: usize) -> Self {
        SenseBarrier {
            participants: participants.max(1),
            pending: AtomicUsize::new(participants.max(1)),
            sense: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
            parkers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            metrics: metrics::global().map(|g| g.run.ws.clone()),
        }
    }

    /// Waits for all participants. Returns `true` if the barrier was
    /// poisoned (by [`poison`](Self::poison)) — callers must unwind their
    /// phase loop instead of proceeding. (The engine always goes through
    /// [`wait_prof`](Self::wait_prof); this plain form serves the module's
    /// own barrier tests.)
    #[cfg(test)]
    #[must_use]
    pub(super) fn wait(&self) -> bool {
        self.wait_prof(None)
    }

    /// [`wait`](Self::wait) with scheduler-profiler hooks: the arrival
    /// switches the recorder to [`SchedCat::Barrier`], and exhausting the
    /// spin window records a park/unpark pair around the condvar sleep.
    /// The return leaves the recorder in `Barrier`: the hand-off from the
    /// release to the worker's next phase — including any time the OS
    /// keeps the released thread off a core — is barrier time, closed by
    /// the caller's next switch. `None` (the un-profiled path, and what
    /// `wait` passes) makes every hook a null check.
    ///
    /// [`SchedCat::Barrier`]: crate::obs::sched::SchedCat::Barrier
    #[must_use]
    pub(super) fn wait_prof(&self, mut prof: Option<&mut WorkerProf>) -> bool {
        if let Some(p) = prof.as_deref_mut() {
            p.barrier_arrived();
        }
        let my_sense = self.sense.load(Ordering::Acquire);
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last arrival: reset the counter for the next phase, flip the
            // sense, and wake any parked waiters. The SeqCst pair on
            // `sense`/`parkers` (here and in the park path below) rules out
            // the lost wakeup: a waiter that registered after our `parkers`
            // read is guaranteed to see the flipped sense before parking.
            self.pending.store(self.participants, Ordering::Release);
            self.sense.store(!my_sense, Ordering::SeqCst);
            if let Some(m) = &self.metrics {
                m.barrier_epochs.inc();
            }
            if self.parkers.load(Ordering::SeqCst) > 0 {
                drop(self.lock.lock().unwrap_or_else(|e| e.into_inner()));
                self.cv.notify_all();
            }
            return self.poisoned.load(Ordering::Acquire);
        }
        let mut released = false;
        for _ in 0..BARRIER_SPINS {
            if self.sense.load(Ordering::Acquire) != my_sense
                || self.poisoned.load(Ordering::Acquire)
            {
                released = true;
                break;
            }
            std::hint::spin_loop();
        }
        if !released {
            if let Some(p) = prof.as_deref_mut() {
                p.parked();
            }
            self.parkers.fetch_add(1, Ordering::SeqCst);
            if let Some(m) = &self.metrics {
                m.parked_workers.add(1);
            }
            let mut guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            while self.sense.load(Ordering::SeqCst) == my_sense
                && !self.poisoned.load(Ordering::SeqCst)
            {
                guard = self.cv.wait(guard).unwrap_or_else(|e| e.into_inner());
            }
            drop(guard);
            self.parkers.fetch_sub(1, Ordering::SeqCst);
            if let Some(m) = &self.metrics {
                m.parked_workers.sub(1);
            }
            if let Some(p) = prof {
                p.unparked();
            }
        }
        self.poisoned.load(Ordering::Acquire)
    }

    /// Permanently releases every current and future waiter with a `true`
    /// return from [`wait`](Self::wait). Called from a panicking worker's
    /// unwind guard so `thread::scope` can join the pool and re-raise the
    /// original panic instead of hanging at the barrier.
    pub(super) fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        drop(self.lock.lock().unwrap_or_else(|e| e.into_inner()));
        self.cv.notify_all();
    }
}

/// A shard-claimed cell: interior mutability whose synchronization is the
/// scheduler's claim protocol, not a lock.
///
/// The parallel engine guarantees that between two barrier crossings each
/// cell is accessed by **at most one** worker — the one that claimed the
/// owning shard from a deque (every shard id is pushed to exactly one
/// deque per phase, and Chase–Lev pop/steal hand each item to exactly one
/// claimant). The barrier's release/acquire edges order the accesses of
/// successive phases.
///
/// # Safety
/// `get` callers must hold a claim obtained through that protocol (or
/// otherwise have exclusive, barrier-separated access, e.g. the
/// coordinator outside the worker phases).
pub(super) struct ShardSlot<T>(UnsafeCell<T>);

unsafe impl<T: Send> Sync for ShardSlot<T> {}

impl<T> ShardSlot<T> {
    pub(super) fn new(value: T) -> Self {
        ShardSlot(UnsafeCell::new(value))
    }

    /// Exclusive access under the claim protocol (see type docs).
    #[allow(clippy::mut_from_ref)]
    pub(super) unsafe fn get(&self) -> &mut T {
        unsafe { &mut *self.0.get() }
    }

    /// Exclusive access through an exclusive reference — safe, for the
    /// single-threaded setup and teardown around the worker scope.
    pub(super) fn get_mut(&mut self) -> &mut T {
        self.0.get_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn deque_lifo_for_owner_fifo_for_thief() {
        let q = WsDeque::new(8);
        q.push(1);
        q.push(2);
        q.push(3);
        assert_eq!(q.steal(), Some(1), "thief takes the oldest");
        assert_eq!(q.pop(), Some(3), "owner takes the newest");
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.steal(), None);
    }

    #[test]
    fn deque_capacity_rounds_up_and_recycles() {
        let q = WsDeque::new(3); // rounds to 4
        for round in 0..5 {
            for i in 0..4 {
                q.push(round * 4 + i);
            }
            for i in (0..4).rev() {
                assert_eq!(q.pop(), Some(round * 4 + i));
            }
        }
    }

    #[test]
    fn deque_concurrent_steal_claims_each_item_once() {
        // 4 thieves race the owner for 10_000 items; every item must be
        // claimed exactly once (sum check), none lost, none duplicated.
        const ITEMS: u32 = 10_000;
        let q = WsDeque::new(ITEMS as usize);
        let claimed = AtomicU64::new(0);
        let count = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| loop {
                    match q.steal() {
                        Some(v) => {
                            claimed.fetch_add(v as u64, Ordering::Relaxed);
                            count.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            if count.load(Ordering::Relaxed) >= ITEMS as usize {
                                break;
                            }
                            std::hint::spin_loop();
                        }
                    }
                });
            }
            for v in 1..=ITEMS {
                q.push(v);
            }
            // the owner helps drain so the test terminates even if thieves
            // are descheduled
            while let Some(v) = q.pop() {
                claimed.fetch_add(v as u64, Ordering::Relaxed);
                count.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), ITEMS as usize);
        assert_eq!(
            claimed.load(Ordering::Relaxed),
            (ITEMS as u64) * (ITEMS as u64 + 1) / 2
        );
    }

    #[test]
    fn barrier_synchronizes_phases() {
        // 4 participants increment a counter per phase; after each barrier
        // crossing every thread must observe the full phase's increments.
        let barrier = SenseBarrier::new(4);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for phase in 1..=16usize {
                        counter.fetch_add(1, Ordering::Relaxed);
                        assert!(!barrier.wait(), "unexpected poison");
                        assert_eq!(counter.load(Ordering::Relaxed), phase * 4);
                        assert!(!barrier.wait(), "unexpected poison");
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn poison_releases_parked_waiters() {
        let barrier = SenseBarrier::new(2);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| barrier.wait());
            // Let the waiter reach the parked state, then poison instead of
            // arriving.
            std::thread::sleep(std::time::Duration::from_millis(10));
            barrier.poison();
            assert!(waiter.join().unwrap(), "poisoned wait must return true");
        });
        assert!(barrier.wait(), "poison is permanent");
    }
}
