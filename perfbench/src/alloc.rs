//! A counting global allocator: live heap bytes while counting is on.
//!
//! Counting is off by default, so the timed paths pay one relaxed load
//! per allocation; it is switched on only around the single-threaded
//! predictor passes whose heap footprint the traced run reports.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);

fn add(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        LIVE.fetch_add(i64::try_from(bytes).unwrap_or(i64::MAX), Ordering::Relaxed);
    }
}

fn sub(bytes: usize) {
    if ON.load(Ordering::Relaxed) {
        LIVE.fetch_sub(i64::try_from(bytes).unwrap_or(i64::MAX), Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result unchanged; the counters are plain
// statistics that never influence what is allocated.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is passed on unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            add(layout.size());
        }
        ptr
    }

    // Forwarded rather than left to the default (alloc, then write zeros),
    // so large zeroed blocks keep the untouched pages `calloc` gives them.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            add(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, and this allocator hands out only `System` blocks.
        unsafe { System.dealloc(ptr, layout) };
        sub(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` obeys `realloc`'s contract
        // by the caller's guarantee.
        let out = unsafe { System.realloc(ptr, layout, new_size) };
        if !out.is_null() {
            sub(layout.size());
            add(new_size);
        }
        out
    }
}

/// Runs `f` with counting on and returns its result with the net heap
/// bytes it left allocated when it returned. Only meaningful while no
/// other thread allocates.
pub fn net_bytes<R>(f: impl FnOnce() -> R) -> (R, i64) {
    LIVE.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
    let out = f();
    ON.store(false, Ordering::Relaxed);
    (out, LIVE.load(Ordering::Relaxed))
}
