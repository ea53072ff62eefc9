//! Heap allocations per crawled domain, counted over one week of a
//! synthetic web and pinned: a fetch asks the allocator for the page it
//! renders, encodes and decodes, and little else. Per-call plumbing put
//! back on this path (an up-front read buffer, copied heads and bodies,
//! owned standard header names, a shared attempts map keyed by an owned
//! host) shows here as a count that grows.
//!
//! Run with `--nocapture` to print the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;
use webvuln_net::{CrawlOptions, FaultPlan, VirtualNet};
use webvuln_webgen::{Ecosystem, EcosystemConfig, Timeline};

/// Forwards to the system allocator, counting the current thread's
/// allocations and the bytes they asked for (a `realloc` counts as one).
struct Counting;

thread_local! {
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = COUNTS.try_with(|c| {
        let (n, bytes) = c.get();
        c.set((n + 1, bytes + size as u64));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; `note` only updates a `Cell` that has no
// destructor and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations per crawled domain measured when this was pinned (14.7),
/// plus a margin. With the page rendered through `format!` from a cloned
/// domain state, a zeroed 8 KiB stack chunk copied into the read buffer
/// and the crawler's request built before it was encoded it was 34.3;
/// with an up-front 8 KiB read buffer per message, copied heads, requests
/// and bodies, owned standard header names and a shared attempts map,
/// 75.0.
const MAX_ALLOCATIONS_PER_DOMAIN: f64 = 17.0;

/// Bytes asked for per crawled domain measured when this was pinned
/// (5 999), plus a margin; it was 8 505 before the page was rendered into
/// one buffer sized for it, and 26 744 with the plumbing above.
const MAX_BYTES_PER_DOMAIN: f64 = 7_000.0;

#[test]
fn crawl_allocations_per_domain_are_pinned() {
    // Week 6 of a seed-42, 2 000-domain web under realistic faults.
    let week = 6;
    let eco = Arc::new(Ecosystem::generate(EcosystemConfig {
        seed: 42,
        domain_count: 2_000,
        timeline: Timeline::truncated(12),
    }));
    let names = eco.domain_names();
    let net = VirtualNet::new(Arc::new(eco.handler(week)))
        .with_week(week)
        .with_faults(FaultPlan::realistic(42));
    // One worker: the map runs on this thread, where the counts are kept.
    let crawl = CrawlOptions::new().threads(1);
    let (n0, bytes0) = COUNTS.with(Cell::get);
    let records = black_box(crawl.run(&names, &net));
    let (n1, bytes1) = COUNTS.with(Cell::get);
    let count = names.len() as f64;
    let (per_domain, bytes_per_domain) =
        ((n1 - n0) as f64 / count, (bytes1 - bytes0) as f64 / count);
    let body_bytes = records.values().map(|r| r.body.len()).sum::<usize>() as f64 / count;
    println!(
        "CrawlOptions::run over {} domains ({body_bytes:.0} B of body each): \
         {per_domain:.1} allocations, {bytes_per_domain:.0} B per domain",
        names.len()
    );
    assert!(
        per_domain <= MAX_ALLOCATIONS_PER_DOMAIN,
        "{per_domain:.1} allocations per crawled domain (pinned at {MAX_ALLOCATIONS_PER_DOMAIN})"
    );
    assert!(
        bytes_per_domain <= MAX_BYTES_PER_DOMAIN,
        "{bytes_per_domain:.0} B asked for per crawled domain (pinned at {MAX_BYTES_PER_DOMAIN})"
    );
}
