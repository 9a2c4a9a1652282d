//! Output chunking is linear in the number of outputs: a node that
//! emits `n` items for a single input forwards them as `n / batch_size`
//! shared batches without re-copying the not-yet-sent tail for every
//! chunk. Chunking by splitting off the front would allocate about
//! `n² · 8 / (2 · 64)` bytes here — some 2.5 GB for 200 000 `u64`s at
//! batch size 64 — against a few MB for moving the items once.
//!
//! A counting global allocator measures every byte allocated while the
//! query runs, so this file must hold this one test only: no other test
//! may allocate while the counter is read.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use strata_spe::prelude::*;

struct CountingAllocator;

static ALLOCATED: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counter only observes sizes.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(
            new_size.saturating_sub(layout.size()) as u64,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const OUTPUTS: u64 = 200_000;

#[test]
fn flushing_a_large_output_allocates_linearly() {
    let mut qb = QueryBuilder::new("linear-flush");
    qb.batch_size(64);
    let src = qb.source("src", IteratorSource::new([OUTPUTS]));
    let fanned = qb.flat_map("fan", &src, |n: u64| 0..n);
    let received = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&received);
    qb.sink("count", &fanned, move |_: u64| {
        counter.fetch_add(1, Ordering::Relaxed);
    });
    let query = qb.build().unwrap();

    let before = ALLOCATED.load(Ordering::Relaxed);
    query.run().join().unwrap();
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;

    assert_eq!(received.load(Ordering::Relaxed), OUTPUTS);
    // The outputs are 1.6 MB. Growing the flat_map's output vector and
    // moving the items into their batches cost a small multiple of
    // that; re-copying the tail per chunk costs ~1 500 times as much.
    let bound = 16 * OUTPUTS * std::mem::size_of::<u64>() as u64;
    assert!(
        allocated < bound,
        "flushing {OUTPUTS} outputs allocated {allocated} bytes, above the linear bound {bound}"
    );
}
