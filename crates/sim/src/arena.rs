//! Free-list pools for event payloads: boxes ([`BoxPool`]) and
//! variable-length buffers ([`VecPool`]).
//!
//! The session kernel boxes large event payloads (notably `EncodeDone`
//! frames) so the event enum stays small, but at ~30 frames/s per session
//! across a population that turns into a steady malloc/free churn on the
//! hottest loop in the harness. [`BoxPool`] recycles those boxes: a freed
//! box goes onto a free list, and the next allocation pops it and
//! overwrites the payload in place instead of touching the allocator.
//!
//! The pool is deliberately value-semantic: `alloc` takes the payload by
//! value and `recycle` takes the box back by value, so there is no unsafe
//! code and no lifetime entanglement — a recycled box is just a `Box<T>`
//! whose contents are about to be overwritten. Payload types are required
//! to be `Copy` at the call sites that pool them (e.g. `EncodedFrame`), so
//! overwriting never leaks interior resources, but the pool itself is
//! correct for any `T`: `*slot = value` drops the old payload normally.
//!
//! A disabled pool (the default) is a pure allocating passthrough, which
//! keeps the solo-session entry points byte-for-byte on the historical
//! allocation path and doubles as the oracle for the pooled-vs-allocating
//! equality property test in `ravel-pipeline`.

/// A free-list pool of `Box<T>` with allocation-avoidance statistics.
///
/// ```
/// use ravel_sim::BoxPool;
///
/// let mut pool: BoxPool<u64> = BoxPool::pooled();
/// let a = pool.alloc(7);
/// pool.recycle(a);          // box kept on the free list
/// let b = pool.alloc(9);    // reuses the same allocation
/// assert_eq!(*b, 9);
/// assert_eq!(pool.stats().allocs_avoided, 1);
/// ```
#[derive(Debug)]
pub struct BoxPool<T> {
    /// Recycled boxes awaiting reuse. Empty (and never pushed to) when the
    /// pool is disabled.
    free: Vec<Box<T>>,
    /// Whether `recycle` retains boxes. A disabled pool allocates and
    /// drops exactly like plain `Box::new`.
    enabled: bool,
    /// Cap on the free-list length; recycles beyond it fall through to the
    /// allocator so a burst can't pin memory forever.
    cap: usize,
    stats: ArenaStats,
}

/// Counters describing a [`BoxPool`]'s behaviour over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Allocations served from the free list instead of the allocator.
    pub allocs_avoided: u64,
    /// Peak number of live (allocated, not yet recycled) boxes.
    pub high_water: u64,
    /// Currently live boxes (allocated minus recycled). A session that
    /// recycles every payload it allocates ends a run with this at zero.
    pub outstanding: u64,
}

/// Default free-list cap. Sessions keep at most a handful of `EncodeDone`
/// payloads in flight at once; 4096 is generous headroom for large
/// populations sharing one worker pool.
const DEFAULT_FREE_CAP: usize = 4096;

impl<T> Default for BoxPool<T> {
    fn default() -> Self {
        Self::disabled()
    }
}

impl<T> BoxPool<T> {
    /// A pool that recycles boxes through a free list.
    pub fn pooled() -> Self {
        BoxPool {
            free: Vec::new(),
            enabled: true,
            cap: DEFAULT_FREE_CAP,
            stats: ArenaStats::default(),
        }
    }

    /// A passthrough pool: every `alloc` is `Box::new`, every `recycle`
    /// drops. Statistics still track `high_water`/`outstanding` so the
    /// two modes are observably comparable.
    pub fn disabled() -> Self {
        BoxPool {
            free: Vec::new(),
            enabled: false,
            cap: 0,
            stats: ArenaStats::default(),
        }
    }

    /// Whether this pool recycles boxes.
    pub fn is_pooled(&self) -> bool {
        self.enabled
    }

    /// Boxes `value`, reusing a recycled allocation when one is available.
    pub fn alloc(&mut self, value: T) -> Box<T> {
        self.stats.outstanding += 1;
        if self.stats.outstanding > self.stats.high_water {
            self.stats.high_water = self.stats.outstanding;
        }
        match self.free.pop() {
            Some(mut slot) => {
                self.stats.allocs_avoided += 1;
                *slot = value;
                slot
            }
            None => Box::new(value),
        }
    }

    /// Returns a box to the pool (or drops it when disabled or full).
    pub fn recycle(&mut self, slot: Box<T>) {
        self.stats.outstanding = self.stats.outstanding.saturating_sub(1);
        if self.enabled && self.free.len() < self.cap {
            self.free.push(slot);
        }
    }

    /// Lifetime counters for this pool.
    pub fn stats(&self) -> ArenaStats {
        self.stats
    }

    /// Overwrites the counters — used to carry lifetime statistics
    /// onto a replacement pool when the old one's state can no longer
    /// be trusted (e.g. after a caught panic mid-simulation).
    pub fn set_stats(&mut self, stats: ArenaStats) {
        self.stats = stats;
    }

    /// Number of boxes currently parked on the free list.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }
}

/// A free list of emptied `Vec<T>` buffers, for event payloads that
/// carry a variable-length list (feedback reports, NACK batches).
///
/// [`VecPool::take`] hands out an empty buffer, recycled when one is
/// parked (its capacity kept); [`VecPool::recycle`] clears a buffer and
/// parks it. A disabled pool hands out `Vec::new()` and drops what it
/// is given, exactly like not pooling at all.
///
/// ```
/// use ravel_sim::VecPool;
///
/// let mut pool: VecPool<u64> = VecPool::pooled();
/// let mut a = pool.take();
/// a.extend([1, 2, 3]);
/// pool.recycle(a);
/// let b = pool.take();      // the same buffer, emptied
/// assert!(b.is_empty() && b.capacity() >= 3);
/// ```
#[derive(Debug)]
pub struct VecPool<T> {
    free: Vec<Vec<T>>,
    enabled: bool,
}

/// Free-list cap of a [`VecPool`]: a session has a few reports and
/// NACK batches in flight at once, so this bounds a population's
/// parked buffers without pinning a burst's worth forever.
const VEC_FREE_CAP: usize = 256;

impl<T> VecPool<T> {
    /// A pool that parks recycled buffers.
    pub fn pooled() -> Self {
        VecPool {
            free: Vec::new(),
            enabled: true,
        }
    }

    /// A passthrough pool: `take` is `Vec::new()`, `recycle` drops.
    pub fn disabled() -> Self {
        VecPool {
            free: Vec::new(),
            enabled: false,
        }
    }

    /// An empty buffer, recycled when one is parked.
    pub fn take(&mut self) -> Vec<T> {
        self.free.pop().unwrap_or_default()
    }

    /// Clears `buf` and parks it (or drops it when disabled or full).
    pub fn recycle(&mut self, mut buf: Vec<T>) {
        if self.enabled && self.free.len() < VEC_FREE_CAP && buf.capacity() > 0 {
            buf.clear();
            self.free.push(buf);
        }
    }

    /// Number of buffers currently parked.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_pool_reuses_buffers_up_to_its_cap() {
        let mut pool: VecPool<u32> = VecPool::pooled();
        let mut a = pool.take();
        a.push(7);
        let ptr = a.as_ptr();
        pool.recycle(a);
        let b = pool.take();
        assert!(b.is_empty());
        assert_eq!(b.as_ptr(), ptr, "buffer was not reused");
        // Never-allocated buffers are not worth parking.
        pool.recycle(Vec::new());
        assert_eq!(pool.free_len(), 0);
        for _ in 0..VEC_FREE_CAP + 10 {
            pool.recycle(vec![1]);
        }
        assert_eq!(pool.free_len(), VEC_FREE_CAP);
    }

    #[test]
    fn disabled_vec_pool_never_parks() {
        let mut pool: VecPool<u32> = VecPool::disabled();
        pool.recycle(vec![1, 2]);
        assert_eq!(pool.free_len(), 0);
        assert_eq!(pool.take().capacity(), 0);
    }

    #[test]
    fn pooled_alloc_reuses_recycled_boxes() {
        let mut pool: BoxPool<u32> = BoxPool::pooled();
        let a = pool.alloc(1);
        let ptr = &*a as *const u32;
        pool.recycle(a);
        assert_eq!(pool.free_len(), 1);
        let b = pool.alloc(2);
        assert_eq!(*b, 2);
        assert_eq!(&*b as *const u32, ptr, "allocation was not reused");
        assert_eq!(pool.stats().allocs_avoided, 1);
    }

    #[test]
    fn disabled_pool_never_retains() {
        let mut pool: BoxPool<u32> = BoxPool::disabled();
        let a = pool.alloc(1);
        pool.recycle(a);
        assert_eq!(pool.free_len(), 0);
        let _b = pool.alloc(2);
        assert_eq!(pool.stats().allocs_avoided, 0);
    }

    #[test]
    fn high_water_tracks_peak_outstanding() {
        let mut pool: BoxPool<u8> = BoxPool::pooled();
        let a = pool.alloc(0);
        let b = pool.alloc(1);
        let c = pool.alloc(2);
        assert_eq!(pool.stats().high_water, 3);
        assert_eq!(pool.stats().outstanding, 3);
        pool.recycle(a);
        pool.recycle(b);
        assert_eq!(pool.stats().high_water, 3);
        assert_eq!(pool.stats().outstanding, 1);
        let d = pool.alloc(3);
        // Peak unchanged: 2 live now, peak was 3.
        assert_eq!(pool.stats().high_water, 3);
        pool.recycle(c);
        pool.recycle(d);
        assert_eq!(pool.stats().outstanding, 0);
    }

    #[test]
    fn free_list_respects_cap() {
        let mut pool: BoxPool<u8> = BoxPool::pooled();
        pool.cap = 2;
        let boxes: Vec<_> = (0..4).map(|i| pool.alloc(i)).collect();
        for b in boxes {
            pool.recycle(b);
        }
        assert_eq!(pool.free_len(), 2);
    }

    #[test]
    fn non_copy_payloads_drop_cleanly_on_overwrite() {
        use std::rc::Rc;
        let tracker = Rc::new(());
        let mut pool: BoxPool<Rc<()>> = BoxPool::pooled();
        let a = pool.alloc(tracker.clone());
        pool.recycle(a);
        // Overwriting the recycled slot must drop the old Rc.
        let b = pool.alloc(Rc::new(()));
        assert_eq!(Rc::strong_count(&tracker), 1);
        drop(b);
    }
}
