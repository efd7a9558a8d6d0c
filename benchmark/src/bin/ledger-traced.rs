//! The traced ledger binary: the same harness with a counting global
//! allocator, so the per-layer run can report allocations per block.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::Ordering;

use dcp_ledger::AllocCounters;

static COUNTERS: AllocCounters = AllocCounters::new();

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the counters are
// plain atomics and never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTERS.on.load(Ordering::Relaxed) {
            COUNTERS.calls.fetch_add(1, Ordering::Relaxed);
            COUNTERS
                .bytes
                .fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract, which
        // is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with the
        // same layout, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTERS.on.load(Ordering::Relaxed) {
            COUNTERS.calls.fetch_add(1, Ordering::Relaxed);
            COUNTERS.bytes.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn main() {
    std::process::exit(dcp_ledger::main_with(Some(&COUNTERS)));
}
