//! Heap allocations per page of `Engine::analyze`, counted over the same
//! synthetic web the gate property reads, and pinned: the page front end
//! reads tokens straight into borrowed resources, and a parse tree or a
//! copied token stream put back on this path shows here as a count that
//! grows several-fold. Regex-VM runs per page are pinned over the same
//! pages: a literal gate that lets more patterns through, or a memo that
//! answers fewer texts, shows here.
//!
//! Run with `--nocapture` to print the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use webvuln_fingerprint::Engine;
use webvuln_telemetry::Registry;
use webvuln_webgen::{Ecosystem, EcosystemConfig, PageOutcome, Timeline};

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

/// Allocations per page measured when this was pinned (10.3 with a warm
/// memo; 13.7 before the memo), plus a margin; reading pages through a
/// tree cost 170.5.
const MAX_ALLOCATIONS_PER_PAGE: f64 = 12.0;

/// Regex-VM runs per page measured when this was pinned (1.12: 269 runs
/// over 241 pages), plus a margin. The engine's memo runs a text's
/// patterns on its first two sightings only; without it the literal gate
/// alone ran 2.71, and a gate keyed on one literal per pattern, cut at the
/// first alternation, ran 15.8.
const MAX_VM_RUNS_PER_PAGE: f64 = 1.3;

/// Weeks 0 and 3 of a seed-77, 150-domain web: `(domain, page)`.
fn pages() -> Vec<(String, String)> {
    let eco = Ecosystem::generate(EcosystemConfig {
        seed: 77,
        domain_count: 150,
        timeline: Timeline::truncated(4),
    });
    let mut pages = Vec::new();
    for model in eco.models() {
        for week in [0, 3] {
            if let PageOutcome::Page(html) = eco.page(&model.name, week) {
                pages.push((model.name.clone(), html));
            }
        }
    }
    pages
}

#[test]
fn vm_runs_per_page_are_pinned() {
    let pages = pages();
    let registry = Registry::new();
    let engine = Engine::instrumented(&registry);
    for (domain, html) in &pages {
        black_box(engine.analyze(html, domain));
    }
    let runs = registry
        .snapshot()
        .counter("fp.patterns_evaluated_total")
        .unwrap_or(0);
    let per_page = runs as f64 / pages.len() as f64;
    println!(
        "Engine::analyze over {} pages: {runs} VM runs, {per_page:.2} per page",
        pages.len()
    );
    assert!(
        per_page <= MAX_VM_RUNS_PER_PAGE,
        "{per_page:.2} VM runs per page (pinned at {MAX_VM_RUNS_PER_PAGE})"
    );
}

#[test]
fn analyze_allocations_per_page_are_pinned() {
    let pages = pages();
    let engine = Engine::new();
    // Once over every page first: per-thread VM scratch grows to size.
    for (domain, html) in &pages {
        black_box(engine.analyze(html, domain));
    }
    let (n0, bytes0) = COUNTS.with(Cell::get);
    for (domain, html) in &pages {
        black_box(engine.analyze(html, domain));
    }
    let (n1, bytes1) = COUNTS.with(Cell::get);
    let count = pages.len() as f64;
    let (per_page, bytes_per_page) = ((n1 - n0) as f64 / count, (bytes1 - bytes0) as f64 / count);
    let page_bytes = pages.iter().map(|(_, html)| html.len()).sum::<usize>() as f64 / count;
    println!(
        "Engine::analyze over {} pages ({page_bytes:.0} B each): \
         {per_page:.1} allocations, {bytes_per_page:.0} B per page",
        pages.len()
    );
    assert!(
        per_page <= MAX_ALLOCATIONS_PER_PAGE,
        "{per_page:.1} allocations per page (pinned at {MAX_ALLOCATIONS_PER_PAGE})"
    );
}
