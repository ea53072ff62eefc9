//! The paper-scale memory contract, as a count: a streaming checkpointed
//! run holds one in-flight week, the §4.1 filter window and the
//! accumulators, so its peak of live heap bytes does not grow with the
//! number of weeks — and stays under a run that keeps every week.
//!
//! Its own binary with one test on one worker thread: the counting
//! allocator sees the whole process, and bytes live at once do not move
//! with host load the way a resident-set reading does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use webvuln::core::{Pipeline, StudyConfig};
use webvuln::webgen::Timeline;

/// Forwards to the system allocator, tracking the bytes currently live
/// and their high-water mark since the last [`peak_live_bytes`] reset.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping only touches two atomics
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        grew(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The most bytes live at once during `run`, above what was live when it
/// started.
fn peak_live_bytes(run: impl FnOnce()) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    run();
    PEAK.load(Ordering::Relaxed) - before
}

const DOMAINS: usize = 500;

/// One checkpointed study of `weeks` weeks; the results are dropped
/// inside the measured region.
fn study(weeks: usize, streaming: bool) -> usize {
    let store = std::env::temp_dir().join(format!(
        "webvuln-streaming-memory-{}-{weeks}-{streaming}.wvstore",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store);
    let peak = peak_live_bytes(|| {
        Pipeline::new(StudyConfig::default())
            .seed(42)
            .domains(DOMAINS)
            .timeline(Timeline::truncated(weeks))
            .threads(1)
            .checkpoint(&store)
            .streaming(streaming)
            .run()
            .expect("study");
    });
    let _ = std::fs::remove_file(&store);
    peak
}

#[test]
fn streaming_peak_heap_is_flat_in_weeks_and_below_materialized() {
    let short = study(4, true);
    let long = study(16, true);
    let kept = study(16, false);
    assert!(
        long * 4 <= short * 5,
        "streaming peak grew with the timeline: {short} B at 4 weeks, {long} B at 16"
    );
    assert!(
        long < kept,
        "streaming peak {long} B is not below the materialized run's {kept} B at 16 weeks"
    );
}
