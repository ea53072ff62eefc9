//! The paper-scale memory contract, as a count: every run commits each
//! week to its store and drops it, so a run with no store file holds the
//! weeks in flight, the §4.1 filter window, the accumulators and its
//! store's bytes — and its peak of live heap bytes stays under the run
//! that kept every week as owned snapshots.
//!
//! The fold has a contract of the same kind: it absorbs a store's
//! records where the reader decoded them, so what it allocates per week
//! is per record, not per string, and what it holds is one borrowed week.
//!
//! Reopening a store for writing has one too: the writer checks that every
//! committed week decodes and keeps none of them, so a resumed study
//! holds one restored week at a time and a resume allocates per record,
//! not per string.
//!
//! And the HTTP server has one: a connection it has finished with leaves
//! nothing behind, so its heap does not grow with connections served.
//! So does its history route: one read of borrowed records allocates per
//! week, not per string.
//!
//! Its own binary, its tests one at a time on one worker thread: the
//! counting allocator sees the whole process, and bytes live at once do
//! not move with host load the way a resident-set reading does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use webvuln::analysis::fold_study;
use webvuln::core::{Pipeline, StudyConfig};
use webvuln::cvedb::VulnDb;
use webvuln::net::{fetch, Request, Response, ServeConfig, Server, TcpConnector};
use webvuln::store::AnyWriter;
use webvuln::telemetry::Registry;
use webvuln::webgen::Timeline;
use webvuln::AnyReader;
use webvuln::QueryService;

/// Forwards to the system allocator, tracking the bytes currently live,
/// their high-water mark since the last [`peak_live_bytes`] reset, and
/// how many allocations were made.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

/// Held by each test while it measures. It guards no data, so a test
/// that failed holding it does not fail the other.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn alone() -> std::sync::MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

fn grew(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

/// The study every test here runs, checkpointed to `store`.
fn pipeline(weeks: usize, store: &std::path::Path) -> Pipeline<'static> {
    Pipeline::new(StudyConfig::default())
        .seed(42)
        .domains(DOMAINS)
        .timeline(Timeline::truncated(weeks))
        .threads(1)
        .checkpoint(store)
}

/// One checkpointed study of `weeks` weeks. Returns the store.
fn study(weeks: usize) -> std::path::PathBuf {
    let store = std::env::temp_dir().join(format!(
        "webvuln-streaming-memory-{}-{weeks}.wvstore",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store);
    pipeline(weeks, &store).run().expect("study");
    store
}

/// The peak of live bytes of the store-less 500 × 16 study below at the
/// commit before every run committed its weeks to a store: it kept every
/// week as owned snapshots, all 16 collected at once by the fan-out.
/// Measured by this test's own code at that commit.
const PARENT_STORE_LESS_PEAK_LIVE_BYTES: usize = 7_741_632;

/// Peak live bytes of the 500 × 16 study at 2 threads, checkpointed to
/// `store` when given.
fn two_thread_peak(store: Option<&std::path::Path>) -> usize {
    peak_live_bytes(|| {
        let mut study = Pipeline::new(StudyConfig::default())
            .seed(42)
            .domains(DOMAINS)
            .timeline(Timeline::truncated(16))
            .threads(2);
        if let Some(store) = store {
            study = study.checkpoint(store);
        }
        study.run().expect("study");
    })
}

#[test]
fn a_store_less_run_holds_its_store_not_its_weeks() {
    let _alone = alone();
    // Two threads and no carry-forward: weeks fan out across the pool and
    // are committed in order, at most two collected ahead of the one
    // being committed, to a store kept in memory.
    let peak = two_thread_peak(None);
    println!("store-less run over {DOMAINS} x 16 at 2 threads: peak {peak} live bytes");
    assert!(
        peak * 2 <= PARENT_STORE_LESS_PEAK_LIVE_BYTES,
        "a store-less run peaked at {peak} live bytes; the gate is half of \
         {PARENT_STORE_LESS_PEAK_LIVE_BYTES}"
    );
}

/// What a store file's writer may hold beyond a store kept in memory.
const FILE_WRITER_BUFFERS: usize = 64 << 10;

#[test]
fn a_stored_fan_out_holds_no_more_weeks_than_a_store_less_one() {
    let _alone = alone();
    // The same weeks fan out whether they go to a file or to memory, so
    // the file's run holds what the store-less one does, less the store's
    // bytes and plus the file writer's buffers — not one more week.
    let store = std::env::temp_dir().join(format!(
        "webvuln-streaming-memory-{}-fan-out.wvstore",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store);
    let stored = two_thread_peak(Some(&store));
    let _ = std::fs::remove_file(&store);
    let store_less = two_thread_peak(None);
    println!(
        "{DOMAINS} x 16 at 2 threads: peak {stored} live bytes to a file, \
         {store_less} to memory"
    );
    assert!(
        stored <= store_less + FILE_WRITER_BUFFERS,
        "a stored run peaked at {stored} live bytes, a store-less one at {store_less}"
    );
}

/// What one single-threaded `fold_study` of the 500 × 16 store cost at
/// the commit before the fold absorbed decoded records in place (it
/// built, filtered and freed a `WeekSnapshot` of owned strings per week):
/// allocations per folded week, and peak live bytes above the open
/// reader. Measured by this test's own code at that commit.
const PARENT_ALLOCATIONS_PER_WEEK: usize = 5_109;
const PARENT_PEAK_LIVE_BYTES: usize = 927_067;

#[test]
fn a_fold_allocates_per_record_and_holds_one_borrowed_week() {
    let _alone = alone();
    const WEEKS: usize = 16;
    let store = study(WEEKS);
    let reader = AnyReader::open(&store).expect("open");
    let db = VulnDb::builtin();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed);
    let peak = peak_live_bytes(|| drop(fold_study(&reader, &db, 1).expect("fold")));
    let per_week = (ALLOCATIONS.load(Ordering::Relaxed) - allocations) / WEEKS;
    let _ = std::fs::remove_file(&store);
    println!(
        "fold of {DOMAINS} x {WEEKS}: {per_week} allocations per week, peak {peak} live bytes"
    );
    assert!(
        per_week * 2 <= PARENT_ALLOCATIONS_PER_WEEK,
        "{per_week} allocations per folded week; the gate is half of {PARENT_ALLOCATIONS_PER_WEEK}"
    );
    assert!(
        peak <= PARENT_PEAK_LIVE_BYTES,
        "the fold's peak of live bytes rose: {peak} B against {PARENT_PEAK_LIVE_BYTES} B"
    );
}

/// What reopening the finished 500 × 16 study cost at the commit before a
/// resumed store handed back a writer and not an owned copy of its
/// history, measured by these tests' own code at that commit: the peak of
/// live bytes of a `resume(true)` run that kept no weeks, with no week
/// left to crawl, and the allocations of one `AnyWriter::resume`
/// of the same study in four shards.
const PARENT_RESUMED_RUN_PEAK_LIVE_BYTES: usize = 4_530_307;
const PARENT_SHARDED_RESUME_ALLOCATIONS: usize = 52_706;

#[test]
fn a_resumed_streaming_run_holds_one_restored_week() {
    let _alone = alone();
    const WEEKS: usize = 16;
    let store = study(WEEKS);
    let peak = peak_live_bytes(|| {
        let resumed = pipeline(WEEKS, &store).resume(true);
        resumed.run().expect("resumed study");
    });
    let _ = std::fs::remove_file(&store);
    println!("resumed run over {DOMAINS} x {WEEKS}: peak {peak} live bytes");
    assert!(
        peak * 2 <= PARENT_RESUMED_RUN_PEAK_LIVE_BYTES,
        "a resumed run peaked at {peak} live bytes; the gate is half of \
         {PARENT_RESUMED_RUN_PEAK_LIVE_BYTES}"
    );
}

#[test]
fn a_sharded_resume_allocates_per_record_not_per_string() {
    let _alone = alone();
    const WEEKS: usize = 16;
    let store = std::env::temp_dir().join(format!(
        "webvuln-streaming-memory-{}-sharded",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&store);
    let study = pipeline(WEEKS, &store).shards(4).run();
    study.expect("sharded study");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    drop(AnyWriter::resume(&store).expect("resume"));
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let _ = std::fs::remove_dir_all(&store);
    println!("resume of {DOMAINS} x {WEEKS} in 4 shards: {allocations} allocations");
    assert!(
        allocations * 2 <= PARENT_SHARDED_RESUME_ALLOCATIONS,
        "{allocations} allocations to reopen the store; the gate is half of \
         {PARENT_SHARDED_RESUME_ALLOCATIONS}"
    );
}

#[test]
fn a_server_keeps_nothing_of_the_connections_it_has_served() {
    let _alone = alone();
    let handler = |req: &Request| Response::html(format!("<html>{}</html>", req.target));
    let mut server = Server::start(
        std::sync::Arc::new(handler),
        ServeConfig::default(),
        &Registry::new(),
    )
    .expect("bind");
    let connector = TcpConnector::fixed(server.addr());
    // Sequential open-request-close connections, one fetch each.
    let connections = |count: usize| {
        for _ in 0..count {
            fetch(&connector, "heap.example", "/page").expect("fetch");
        }
    };
    let early = peak_live_bytes(|| connections(200));
    let late = peak_live_bytes(|| connections(1_800));
    server.shutdown();
    println!("peak live bytes: {early} over connections 1-200, {late} over 201-2000");
    // Which of the four pool workers still hold a finished connection's
    // 8 KiB read buffer at the peak is timing; a leak of even one
    // `JoinHandle` per connection (105 KB over these 1800) is past this slack three times over.
    assert!(
        late <= early + (32 << 10),
        "the server's heap grew with connections served: peak {early} B over the \
         first 200, {late} B over the next 1800"
    );
}

/// Allocations per `/domain/{d}/history` evaluation over the 500 × 12
/// store at the commit before a history was one read of borrowed records
/// (a scan of the rank list, then one owned `AnyReader::get` per week and
/// a parsed `Version` per detection). Measured by this test's own code at
/// that commit.
const PARENT_ALLOCATIONS_PER_HISTORY: f64 = 95.36;

/// The same count for one read: the body's buffer, plus the vectors of
/// the weeks' borrowed records (their detections and resource tags).
const ALLOCATIONS_PER_HISTORY: f64 = 17.96;

#[test]
fn a_history_is_one_read_of_borrowed_records() {
    let _alone = alone();
    const WEEKS: usize = 12;
    let store = study(WEEKS);
    let service = QueryService::open(&store).expect("open");
    let ranks = &service.reader().genesis().ranks;
    let domains: Vec<String> = ranks.iter().map(|(d, _)| d.clone()).collect();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for domain in &domains {
        drop(service.domain_history(domain).expect("history"));
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let per_history = allocations as f64 / domains.len() as f64;
    let _ = std::fs::remove_file(&store);
    println!(
        "histories of {DOMAINS} x {WEEKS}: {per_history} allocations per evaluation \
         ({PARENT_ALLOCATIONS_PER_HISTORY} before it was one read)"
    );
    assert!(
        per_history <= ALLOCATIONS_PER_HISTORY,
        "{per_history} allocations per history evaluation; pinned at {ALLOCATIONS_PER_HISTORY}"
    );
}
