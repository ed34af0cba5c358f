//! A counting global allocator (ROADMAP 1(a)): heap allocations and bytes
//! requested while counting is switched on.
//!
//! Counting is off unless a traced run turns it on around a measured
//! region, so the end-to-end runs pay one relaxed load per allocation and
//! no shared-counter updates. Counts cover every thread; the regions that
//! count run while no other benchmark thread allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};

/// Forwards to [`System`], counting while [`counted`] runs.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note(bytes: usize) {
    if ON.load(Relaxed) {
        CALLS.fetch_add(1, Relaxed);
        BYTES.fetch_add(bytes as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain atomics and
// never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` was allocated by `System` through this allocator
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations and bytes requested inside one counted region.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub calls: u64,
    pub bytes: u64,
}

impl std::ops::AddAssign for Tally {
    fn add_assign(&mut self, o: Tally) {
        self.calls += o.calls;
        self.bytes += o.bytes;
    }
}

/// Runs `f` with counting on and returns its result with the tally.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, Tally) {
    let (c0, b0) = (CALLS.load(Relaxed), BYTES.load(Relaxed));
    ON.store(true, Relaxed);
    let r = f();
    ON.store(false, Relaxed);
    let tally = Tally {
        calls: CALLS.load(Relaxed) - c0,
        bytes: BYTES.load(Relaxed) - b0,
    };
    (r, tally)
}

/// [`counted`] when `on`, else just `f` with an empty tally.
pub fn counted_if<R>(on: bool, f: impl FnOnce() -> R) -> (R, Tally) {
    if on {
        counted(f)
    } else {
        (f(), Tally::default())
    }
}
