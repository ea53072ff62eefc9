//! Heap allocations per domain-week of a whole study, counted and pinned:
//! a page is rendered into one buffer, fetched through borrowed heads,
//! tokenized in one byte scan and kept as its record, so what the study
//! asks the allocator for grows with the records it keeps, not with the
//! bytes of each page. A per-page temporary put back on this path (a
//! formatted fragment, a cloned domain state, a copied head or record
//! field) shows here as a count that grows.
//!
//! Its own binary, with one test: the counting allocator sees the whole
//! process. Run with `--nocapture` to print the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use webvuln::core::{Pipeline, StudyConfig};
use webvuln::webgen::Timeline;

/// Forwards to the system allocator, counting allocations and the bytes
/// they asked for (a `realloc` counts as one).
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    ALLOCATIONS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping only touches two atomics
// and never allocates.
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

/// Allocations per domain-week measured when this was pinned (48.9 in a
/// release build, 49.1 in a debug one), plus a margin. Rendering through
/// `format!`, cloning each week's domain state, zeroing a stack chunk per
/// read and building the crawler's request it was 69.6.
const MAX_ALLOCATIONS_PER_DOMAIN_WEEK: f64 = 52.0;

/// Bytes asked for per domain-week measured when this was pinned
/// (11 332), plus a margin; it was 13 987 with the per-page temporaries
/// above.
const MAX_BYTES_PER_DOMAIN_WEEK: f64 = 12_500.0;

#[test]
fn study_allocations_per_domain_week_are_pinned() {
    let (domains, weeks) = (300, 12);
    // One worker: the engine's memo sees the texts in one order, so the
    // count repeats exactly. It includes what the process builds once
    // (the CVE database, the engine's patterns), about 9 a domain-week.
    let study = Pipeline::new(StudyConfig::default())
        .seed(42)
        .domains(domains)
        .timeline(Timeline::truncated(weeks))
        .threads(1);
    let (n0, bytes0) = (ALLOCATIONS.load(Relaxed), BYTES.load(Relaxed));
    let results = black_box(study.run().expect("a store-less study runs"));
    let (n1, bytes1) = (ALLOCATIONS.load(Relaxed), BYTES.load(Relaxed));
    drop(results);
    let domain_weeks = (domains * weeks) as f64;
    let per = (n1 - n0) as f64 / domain_weeks;
    let bytes_per = (bytes1 - bytes0) as f64 / domain_weeks;
    println!(
        "a store-less {domains} x {weeks} study: {per:.1} allocations, \
         {bytes_per:.0} B per domain-week"
    );
    assert!(
        per <= MAX_ALLOCATIONS_PER_DOMAIN_WEEK,
        "{per:.1} allocations per domain-week (pinned at {MAX_ALLOCATIONS_PER_DOMAIN_WEEK})"
    );
    assert!(
        bytes_per <= MAX_BYTES_PER_DOMAIN_WEEK,
        "{bytes_per:.0} B asked for per domain-week (pinned at {MAX_BYTES_PER_DOMAIN_WEEK})"
    );
}
