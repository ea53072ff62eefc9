//! Chaos harness for the watch daemon: kill the live-ingestion loop at
//! every `watch.*` fail-point, restart it, and prove convergence — the
//! store directory is byte-identical to an unkilled run, the live
//! accumulator matches a cold [`fold_study`] over the store, and the
//! alert log holds every owed alert exactly once (no losses, no
//! duplicates), whatever the thread or shard count.
//!
//! The corpus is real pipeline output under the hostile fault profile:
//! one checkpointed study run is split back into per-week spool files
//! and replayed through the daemon, so ingestion sees exactly the data
//! shapes (dead weeks, carried-forward pages, filtered domains) the
//! batch path produces. A CVE delta file targeting the corpus's most
//! common library drives the retro-scan and the outbox.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use webvuln::analysis::CollectConfig;
use webvuln::analysis::{fold_study, FilterWindow};
use webvuln::core::{Pipeline, StudyConfig};
use webvuln::failpoint::{arm, arm_key, arm_nth, disarm, reset, Action};
use webvuln::net::FaultPlan;
use webvuln::store::{AnyReader, Genesis, WeekData};
use webvuln::telemetry::Telemetry;
use webvuln::watch::{
    load_watch_state, supervise, write_genesis_file, write_week_file, Alert, OutboxSnapshot,
    SupervisorConfig, TickReport, WatchConfig, Watcher,
};
use webvuln::webgen::Timeline;

/// Serializes every test in this binary: the fail-point registry is
/// process-global and a site holds one arm at a time.
static FP_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    FP_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

const DOMAINS: usize = 60;
const WEEKS: usize = 6;

/// A delta batch whose first record claims every jquery version the
/// corpus can contain, so the retro-scan is guaranteed matches.
const DELTA: &str = "\
# webvuln cve delta v1
id: CVE-2099-9999
library: jquery
claimed: < 9.0.0
attack: xss
disclosed: 2022-01-01

id: SNYK-TEST-0001
library: underscore
claimed: < 9.0.0
attack: arbitrary-code-injection
disclosed: 2021-06-01
";

struct Corpus {
    genesis: Genesis,
    weeks: Vec<WeekData>,
}

static CORPUS: OnceLock<Corpus> = OnceLock::new();

/// One hostile-fault pipeline run of `weeks` weeks, split back into
/// genesis + weeks.
fn build_corpus(weeks: usize) -> Corpus {
    let store = std::env::temp_dir().join(format!(
        "webvuln-chaoswatch-corpus-{weeks}-{}.wvstore",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&store);
    Pipeline::new(StudyConfig {
        seed: 8_100,
        domain_count: DOMAINS,
        timeline: Timeline::truncated(weeks),
        collect: CollectConfig {
            faults: FaultPlan::hostile(8_100),
            carry_forward: true,
            ..StudyConfig::default().collect
        },
    })
    .checkpoint(&store)
    .run()
    .expect("corpus pipeline run");
    let reader = AnyReader::open(&store).expect("open corpus store");
    let genesis = reader.genesis().clone();
    let weeks = (0..reader.weeks_committed())
        .map(|w| reader.week(w).expect("corpus week"))
        .collect();
    let _ = std::fs::remove_file(&store);
    Corpus { genesis, weeks }
}

fn corpus() -> &'static Corpus {
    CORPUS.get_or_init(|| build_corpus(WEEKS))
}

/// The §4.1 verdict after each of `corpus`'s weeks, derived beside the
/// daemon by a window of the test's own.
fn verdicts(corpus: &Corpus) -> Vec<BTreeSet<String>> {
    let mut window = FilterWindow::new(corpus.genesis.ranks.iter().map(|(host, _)| host));
    let verdict = |week: &WeekData| {
        let fetched = week.records.iter();
        window.absorb(fetched.map(|r| (r.host.as_str(), r.status, r.body_len as usize)));
        window.verdict()
    };
    corpus.weeks.iter().map(verdict).collect()
}

/// The domains whose verdict differs between `before` and `after`.
fn flipped(before: &BTreeSet<String>, after: &BTreeSet<String>) -> BTreeSet<String> {
    before.symmetric_difference(after).cloned().collect()
}

/// A fresh watch root with `weeks` corpus weeks spooled and (optionally)
/// the delta batch already landed.
fn seed_root(tag: &str, weeks: usize, with_delta: bool) -> PathBuf {
    let root =
        std::env::temp_dir().join(format!("webvuln-chaoswatch-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let spool = root.join("spool");
    std::fs::create_dir_all(&spool).expect("create spool");
    let corpus = corpus();
    write_genesis_file(&spool, &corpus.genesis).expect("write genesis");
    for week in &corpus.weeks[..weeks] {
        write_week_file(&spool, week).expect("write week");
    }
    if with_delta {
        land_delta(&root);
    }
    root
}

fn land_delta(root: &Path) {
    let deltas = root.join("deltas");
    std::fs::create_dir_all(&deltas).expect("create deltas");
    std::fs::write(deltas.join("2026-08-batch.cvedelta"), DELTA).expect("write delta");
}

/// Opens a watcher and ticks until a tick changes nothing.
fn run_to_idle(root: &Path, threads: usize, shards: usize) -> (Watcher, Vec<TickReport>) {
    let telemetry = Telemetry::new();
    let cfg = WatchConfig::new(root).threads(threads).shards(shards);
    let mut watcher = Watcher::open(cfg, &telemetry)
        .unwrap_or_else(|e| panic!("open watcher at {}: {e}", root.display()));
    let mut reports = Vec::new();
    loop {
        let tick = watcher
            .tick()
            .unwrap_or_else(|e| panic!("tick at {}: {e}", root.display()));
        let idle = tick.is_idle();
        reports.push(tick);
        if idle {
            break;
        }
        assert!(reports.len() < 16, "watcher failed to reach idle");
    }
    (watcher, reports)
}

/// Every file of the watch store, sorted by name — the byte-identity
/// check for kill-and-restart convergence.
fn store_bytes(root: &Path) -> Vec<(String, Vec<u8>)> {
    let mut entries: Vec<(String, Vec<u8>)> = std::fs::read_dir(root.join("store"))
        .expect("read store dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            (
                entry.file_name().to_string_lossy().into_owned(),
                std::fs::read(entry.path()).expect("read store file"),
            )
        })
        .collect();
    entries.sort();
    entries
}

/// The delivered-alert log, sorted. Sorted-line equality is the
/// no-lost-no-duplicated-alerts check: a lost alert shrinks the set, a
/// duplicated delivery repeats a line.
fn alert_lines(root: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(root.join("alerts.log")).unwrap_or_default();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    lines.sort();
    lines
}

/// Accumulator equality is stated over the *finished artifacts*: raw
/// accumulator state holds per-shard-ordered event lists (merge order
/// is not canonical), while `finish` canonicalizes everything a report
/// can observe.
fn live_fingerprint(watcher: &Watcher) -> String {
    format!("{:#?}", watcher.live().finish(watcher.db()))
}

fn cold_fold_fingerprint(root: &Path, watcher: &Watcher, threads: usize) -> String {
    let reader = AnyReader::open_degraded(&root.join("store")).expect("open store");
    let cold = fold_study(&reader, watcher.db(), threads).expect("cold fold");
    format!("{:#?}", cold.finish(watcher.db()))
}

/// Store bytes by file name, live fingerprint, sorted alert log.
type Converged = (Vec<(String, Vec<u8>)>, String, Vec<String>);

/// The unkilled reference at (threads, shards), plus its alert IDs in
/// enqueue order — the keys of the outbox's crash windows. IDs are
/// content-addressed, so they are the same in every cell.
fn reference(threads: usize, shards: usize) -> (Converged, Vec<u64>) {
    let root = seed_root(&format!("ref-{threads}t-{shards}s"), WEEKS, true);
    let (watcher, reports) = run_to_idle(&root, threads, shards);
    assert_eq!(watcher.weeks_committed(), WEEKS);
    assert_eq!(reports[0].weeks_ingested, WEEKS);
    assert_eq!(reports[0].deltas_applied, 1);
    assert!(
        reports[0].alerts_enqueued >= 3,
        "the corpus must expose at least 3 (cve, domain) pairs, got {}",
        reports[0].alerts_enqueued
    );
    assert_eq!(reports[0].alerts_delivered, reports[0].alerts_enqueued);
    let result = (
        store_bytes(&root),
        live_fingerprint(&watcher),
        alert_lines(&root),
    );
    let ids = OutboxSnapshot::load(&root.join("outbox.wal"), &root.join("alerts.log"))
        .expect("load outbox")
        .alerts
        .iter()
        .map(|alert| alert.id)
        .collect();
    drop(watcher);
    let _ = std::fs::remove_dir_all(&root);
    (result, ids)
}

/// Baseline integrity: a clean daemon run commits every spooled week,
/// its live accumulator equals a cold fold over the store it wrote, the
/// retro-scan delivers a deduplicated alert per exposed (cve, domain)
/// pair, and a second daemon over the same root finds nothing to do.
#[test]
fn live_accumulator_matches_a_cold_fold_and_reopen_is_idle() {
    let _guard = lock();
    reset();
    let root = seed_root("baseline", WEEKS, true);
    let (watcher, reports) = run_to_idle(&root, 2, 4);

    assert_eq!(watcher.weeks_committed(), WEEKS);
    assert_eq!(reports[0].weeks_ingested, WEEKS);
    assert_eq!(reports[0].deltas_applied, 1);
    assert!(reports[0].alerts_enqueued > 0, "delta must produce alerts");
    assert_eq!(reports[0].alerts_deduped, 0);

    // Live state == cold fold, at several fold widths.
    let live = live_fingerprint(&watcher);
    for threads in [1, 2, 8] {
        assert_eq!(
            live,
            cold_fold_fingerprint(&root, &watcher, threads),
            "live accumulator diverged from a {threads}-thread cold fold"
        );
    }

    // Exactly-once delivery: every enqueued alert has one log line, and
    // every line parses back to a distinct outbox ID.
    let lines = alert_lines(&root);
    assert_eq!(lines.len(), reports[0].alerts_enqueued);
    let mut ids: Vec<u64> = lines
        .iter()
        .map(|l| Alert::log_line_id(l).expect("parseable alert line"))
        .collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), lines.len(), "duplicate alert IDs in the log");
    assert_eq!(watcher.outbox().pending_count(), 0);

    // The read-only observer agrees with the daemon.
    let state = load_watch_state(&root);
    assert!(state.store_present);
    assert_eq!(state.weeks_committed, WEEKS as u64);
    assert_eq!(state.alerts_delivered, lines.len() as u64);
    assert_eq!(state.alerts_pending, 0);
    assert_eq!(state.deltas_applied, 1);

    // Reopen over the same root: the spool was consumed, the delta is
    // journaled, the outbox is drained — the first tick is already idle.
    let bytes = store_bytes(&root);
    drop(watcher);
    let (second, reports) = run_to_idle(&root, 2, 4);
    assert_eq!(reports.len(), 1, "reopened daemon must be idle at once");
    assert_eq!(live_fingerprint(&second), live);
    assert_eq!(store_bytes(&root), bytes, "reopen must not touch the store");

    // Redelivering an already-committed week is consumed as a no-op.
    write_week_file(&root.join("spool"), &corpus().weeks[2]).expect("redeliver");
    drop(second);
    let (third, reports) = run_to_idle(&root, 2, 4);
    assert_eq!(reports[0].weeks_skipped, 1);
    assert_eq!(reports[0].weeks_ingested, 0);
    assert_eq!(live_fingerprint(&third), live);
    assert_eq!(store_bytes(&root), bytes);
    let _ = std::fs::remove_dir_all(&root);
}

/// The daemon's economics, as counts: with a 32-week spool arriving one
/// week file per tick, every arrival tick ingests exactly that week and
/// neither decodes a record of history nor indexes a week of the store —
/// its cost is one week, whatever the store holds. History is read again
/// only on the quiet tick after an arrival (§4.1 verdict drift settling:
/// exactly the flipped domains' records, which the test derives on its
/// own from the corpus) or on the tick a CVE delta lands (one walk, every
/// record decoded once), and either indexes exactly the shard weeks
/// committed since the reader last caught up. After every quiet tick the
/// live state is exactly a cold fold's.
#[test]
fn arrival_ticks_ingest_one_week_and_never_refold() {
    const HISTORY: usize = 32;
    const SHARDS: usize = 4;
    let _guard = lock();
    reset();
    let corpus = build_corpus(HISTORY);
    let root = std::env::temp_dir().join(format!(
        "webvuln-chaoswatch-arrivals-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let spool = root.join("spool");
    std::fs::create_dir_all(&spool).expect("create spool");
    write_genesis_file(&spool, &corpus.genesis).expect("write genesis");

    let telemetry = Telemetry::new();
    let counter = |name: &str| telemetry.snapshot().counter(name).unwrap_or(0);
    let cfg = WatchConfig::new(&root).threads(2).shards(SHARDS);
    let mut watcher = Watcher::open(cfg, &telemetry).expect("open watcher");
    // The §4.1 verdict, derived beside the daemon from the same weeks.
    let (verdicts, ranked) = (verdicts(&corpus), corpus.genesis.ranks.len());
    let mut verdict = BTreeSet::new();
    let (mut settle_refolds, mut settled_domains, mut partial_settles) = (0, 0, 0);
    // History records the daemon has decoded for its live state so far.
    let mut history = 0;
    // Weeks its reader has indexed: the store is empty at open.
    let mut caught_up = 0;
    assert_eq!(counter("watch.weeks_indexed_total"), 0);
    for (index, week) in corpus.weeks.iter().enumerate() {
        write_week_file(&spool, week).expect("write week");
        let arrival = watcher.tick().expect("arrival tick");
        assert_eq!(arrival.weeks_ingested, 1, "arrival of week {index}");
        assert_eq!(arrival.refolds, 0, "arrival of week {index} refolded");
        assert_eq!(
            counter("watch.records_refolded_total"),
            history,
            "the arrival of week {index} read history"
        );
        assert_eq!(
            counter("watch.weeks_indexed_total"),
            (SHARDS * caught_up) as u64,
            "the arrival of week {index} read the store"
        );

        let flipped = flipped(&verdict, &verdicts[index]);
        verdict = verdicts[index].clone();
        let in_flipped = corpus.weeks[..=index]
            .iter()
            .flat_map(|week| &week.records)
            .filter(|record| flipped.contains(&record.host))
            .count() as u64;
        let all: usize = corpus.weeks[..=index].iter().map(|w| w.records.len()).sum();

        let quiet = watcher.tick().expect("quiet tick");
        assert_eq!(quiet.weeks_ingested, 0);
        assert_eq!(quiet.refolds, usize::from(!flipped.is_empty()), "{quiet:?}");
        assert_eq!(quiet.domains_refolded, flipped.len(), "week {index}");
        history += in_flipped;
        assert_eq!(
            counter("watch.records_refolded_total"),
            history,
            "the settle of week {index} must decode the flipped domains' records, no more"
        );
        if quiet.refolds == 1 {
            caught_up = index + 1;
        }
        assert_eq!(
            counter("watch.weeks_indexed_total"),
            (SHARDS * caught_up) as u64,
            "the settle of week {index} must index the weeks since the last, no more"
        );
        settle_refolds += quiet.refolds;
        settled_domains += quiet.domains_refolded;
        if quiet.refolds == 1 && flipped.len() < ranked {
            assert!(
                in_flipped < all as u64,
                "week {index}: {in_flipped} of {all}"
            );
            partial_settles += 1;
        }
        assert!(
            index < 3 || flipped.len() < ranked,
            "week {index} flipped all"
        );
        assert!(
            watcher.tick().expect("idle tick").is_idle(),
            "nothing may be left to settle after the quiet tick of week {index}"
        );
    }
    assert_eq!(watcher.weeks_committed(), HISTORY);
    assert!(
        partial_settles > 0,
        "the hostile corpus must drift the §4.1 verdict at least once"
    );
    assert_eq!(
        live_fingerprint(&watcher),
        cold_fold_fingerprint(&root, &watcher, 2),
        "live state after the last quiet tick != cold fold"
    );

    // The other tick that goes back to history: a CVE delta extends the
    // database — one walk decodes every record once, rebuilding every
    // domain's exposure accumulators and scanning for the delta's alerts.
    let all: u64 = corpus.weeks.iter().map(|w| w.records.len() as u64).sum();
    land_delta(&root);
    let delta = watcher.tick().expect("delta tick");
    assert_eq!((delta.weeks_ingested, delta.refolds), (0, 1));
    assert_eq!(delta.domains_refolded, ranked);
    assert_eq!(delta.deltas_applied, 1);
    assert_eq!(counter("watch.records_refolded_total"), history);
    assert_eq!(counter("watch.records_scanned_total"), all);
    assert_eq!(
        counter("watch.weeks_indexed_total"),
        (SHARDS * HISTORY) as u64
    );
    assert_eq!(
        live_fingerprint(&watcher),
        cold_fold_fingerprint(&root, &watcher, 2)
    );

    // The counters agree with the per-tick reports: no refold hid in an
    // arrival tick, no week was ingested outside one.
    let counters = telemetry.snapshot();
    assert_eq!(
        counters.counter("watch.weeks_ingested_total"),
        Some(HISTORY as u64)
    );
    assert_eq!(
        counters.counter("watch.refolds_total"),
        Some(settle_refolds as u64 + 1)
    );
    assert_eq!(
        counters.counter("watch.domains_refolded_total"),
        Some((settled_domains + ranked) as u64)
    );
    assert_eq!(
        counters.counter("watch.ticks_total"),
        Some(3 * HISTORY as u64 + 1)
    );
    // The outbox's durability unit is the round: the delta tick's
    // ENQUEUE batch, line batch and ACK batch are one sync each,
    // however many alerts the scan produced (per alert it was 3 N), and
    // no other tick of the run touched the outbox.
    assert!(delta.alerts_enqueued >= 3, "{delta:?}");
    assert_eq!(delta.alerts_delivered, delta.alerts_enqueued);
    assert_eq!(counters.counter("watch.outbox_syncs_total"), Some(3));
    assert_eq!(watcher.outbox().syncs(), 3);
    drop(watcher);
    let _ = std::fs::remove_dir_all(&root);
}

/// A cold open decodes every history record once, for the live state,
/// and the trailing §4.1 weeks once more, for the one window it builds
/// and folds under — not twice more, as when the fold derived a window
/// of its own beside the watcher's.
#[test]
fn open_decodes_the_trailing_window_once() {
    let _guard = lock();
    reset();
    let root = seed_root("open-once", WEEKS, false);
    drop(run_to_idle(&root, 2, 4));
    let telemetry = Telemetry::new();
    let cfg = WatchConfig::new(&root).threads(2).shards(4);
    let watcher = Watcher::open(cfg, &telemetry).expect("reopen");
    let records = |weeks: &[WeekData]| weeks.iter().map(|w| w.records.len() as u64).sum::<u64>();
    let weeks = &corpus().weeks[..WEEKS];
    let trailing = &weeks[WEEKS - webvuln::net::filter::FINAL_WEEKS..];
    assert_eq!(
        telemetry.snapshot().counter("watch.records_refolded_total"),
        Some(records(weeks) + records(trailing))
    );
    assert_eq!(
        live_fingerprint(&watcher),
        cold_fold_fingerprint(&root, &watcher, 2)
    );
    drop(watcher);
    let _ = std::fs::remove_dir_all(&root);
}

/// Ticks `watcher` until a tick changes nothing.
fn tick_to_idle(watcher: &mut Watcher) {
    for _ in 0..16 {
        if watcher.tick().expect("tick").is_idle() {
            return;
        }
    }
    panic!("watcher failed to reach idle");
}

/// An arrival, the §4.1 flips it brings and a CVE delta land in one tick.
/// The delta's walk reads the week that tick committed, decodes every
/// record once and rebuilds only the exposure accumulators, so the flipped
/// domains stay pending; the quiet tick after settles exactly those, and
/// the live state is a cold fold's. No shard week is indexed twice over
/// the run.
#[test]
fn an_arrival_and_a_delta_in_one_tick_settle_to_a_cold_fold() {
    const SHARDS: usize = 4;
    let _guard = lock();
    reset();
    // The last week whose arrival moves the §4.1 verdict.
    let weeks = &corpus().weeks;
    let verdicts = verdicts(corpus());
    let last = (1..WEEKS).rev().find(|&w| verdicts[w] != verdicts[w - 1]);
    let last = last.expect("the hostile corpus must drift the verdict");
    let root = seed_root("same-tick", last, false);
    let telemetry = Telemetry::new();
    let counter = |name: &str| telemetry.snapshot().counter(name).unwrap_or(0);
    let cfg = WatchConfig::new(&root).threads(2).shards(SHARDS);
    let mut watcher = Watcher::open(cfg, &telemetry).expect("open watcher");
    tick_to_idle(&mut watcher);
    write_week_file(&root.join("spool"), &weeks[last]).expect("write week");
    land_delta(&root);
    let scanned = counter("watch.records_scanned_total");
    let tick = watcher.tick().expect("arrival and delta");
    assert_eq!((tick.weeks_ingested, tick.deltas_applied), (1, 1));
    assert!(tick.alerts_enqueued > 0, "{tick:?}");
    let all: usize = weeks[..=last].iter().map(|w| w.records.len()).sum();
    assert_eq!(counter("watch.records_scanned_total") - scanned, all as u64);
    let quiet = watcher.tick().expect("quiet tick");
    assert_eq!(
        quiet.refolds, 1,
        "the arrival must flip a domain: {quiet:?}"
    );
    let flips = flipped(&verdicts[last - 1], &verdicts[last]);
    assert_eq!(quiet.domains_refolded, flips.len());
    assert_eq!(
        live_fingerprint(&watcher),
        cold_fold_fingerprint(&root, &watcher, 2)
    );
    assert!(watcher.tick().expect("idle tick").is_idle());
    assert_eq!(
        counter("watch.weeks_indexed_total"),
        (SHARDS * (last + 1)) as u64
    );
    drop(watcher);
    let _ = std::fs::remove_dir_all(&root);
}

/// A store put back to an older copy under a live daemon — its manifest
/// epoch moved backwards — is read again whole by the next tick that goes
/// to history: the writer resumes over it, the live state is a cold fold
/// of it, and the daemon ingests on from there.
#[test]
fn a_store_moved_back_under_the_daemon_is_reopened_whole() {
    const SHARDS: usize = 4;
    const KEPT: usize = 3;
    let _guard = lock();
    reset();
    let root = seed_root("moved-back", KEPT, false);
    let telemetry = Telemetry::new();
    let counter = |name: &str| telemetry.snapshot().counter(name).unwrap_or(0);
    let cfg = WatchConfig::new(&root).threads(2).shards(SHARDS);
    let mut watcher = Watcher::open(cfg, &telemetry).expect("open watcher");
    tick_to_idle(&mut watcher);
    let (store, older) = (root.join("store"), root.join("older"));
    std::fs::create_dir_all(&older).expect("create copy");
    for entry in std::fs::read_dir(&store).expect("read store") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), older.join(entry.file_name())).expect("copy store file");
    }
    let spool = root.join("spool");
    for week in &corpus().weeks[KEPT..] {
        write_week_file(&spool, week).expect("write week");
    }
    tick_to_idle(&mut watcher);
    assert_eq!(watcher.weeks_committed(), WEEKS);

    std::fs::remove_dir_all(&store).expect("remove store");
    std::fs::rename(&older, &store).expect("put the older copy back");
    land_delta(&root);
    let indexed = counter("watch.weeks_indexed_total");
    let tick = watcher.tick().expect("tick over the older store");
    assert_eq!(counter("watch.reopens_total"), 1);
    assert_eq!(
        counter("watch.weeks_indexed_total") - indexed,
        (SHARDS * KEPT) as u64
    );
    assert_eq!(watcher.weeks_committed(), KEPT);
    assert_eq!(tick.deltas_applied, 1);
    assert_eq!(
        live_fingerprint(&watcher),
        cold_fold_fingerprint(&root, &watcher, 2)
    );

    for week in &corpus().weeks[KEPT..] {
        write_week_file(&spool, week).expect("write week");
    }
    tick_to_idle(&mut watcher);
    assert_eq!(watcher.weeks_committed(), WEEKS);
    assert_eq!(
        live_fingerprint(&watcher),
        cold_fold_fingerprint(&root, &watcher, 2)
    );
    drop(watcher);
    let _ = std::fs::remove_dir_all(&root);
}

/// Which hit of a fail-point site a kill is armed on.
enum Window {
    /// The site's n-th hit (1-based).
    Nth(u64),
    /// The hit carrying this key.
    Key(String),
}

/// The tentpole: kill the daemon at every `watch.*` fail-point (several
/// positions each), restart it, and require byte-identical convergence
/// with the unkilled run — store, live accumulator, and alert log.
#[test]
fn kill_at_every_watch_fail_point_then_restart_converges() {
    let _guard = lock();
    reset();
    let ((ref_bytes, ref_live, ref_alerts), ids) = reference(2, 4);
    let (first, third) = (ids[0], ids[2]);

    let n = ids.len();

    // watch.ingest hits once per committed week and watch.retro once per
    // delta file. The outbox works in rounds, so its windows are
    // addressed by alert: watch.outbox.append fires per fresh alert
    // while the ENQUEUE batch is framed (nothing of it on disk yet);
    // `<id>:deliver` fires while the lines are collected (every ENQUEUE
    // durable, no line written); `<id>:ack` fires while the ACKs are
    // framed (every line durable, no ACK written). A panic loses the
    // batch in flight; an error flushes what was framed before it. The
    // third column is what the kill must leave on disk — [ENQUEUEs,
    // lines, ACKs] after a panic and after an error — where the row
    // pins it.
    let key = |id: u64, suffix: &str| Window::Key(format!("{id:016x}{suffix}"));
    let kills = [
        ("watch.ingest", Window::Nth(1), None),
        ("watch.ingest", Window::Nth(3), None),
        ("watch.ingest", Window::Nth(WEEKS as u64), None),
        ("watch.retro", Window::Nth(1), None),
        ("watch.outbox.append", Window::Nth(1), None),
        ("watch.outbox.append", Window::Nth(3), None),
        (
            "watch.outbox.append",
            key(first, ""),
            Some([[0, 0, 0], [0, 0, 0]]),
        ),
        (
            "watch.outbox.append",
            key(third, ""),
            Some([[0, 0, 0], [2, 0, 0]]),
        ),
        // First, second and fifth alert's `:deliver`.
        ("watch.outbox.deliver", Window::Nth(1), None),
        (
            "watch.outbox.deliver",
            Window::Nth(2),
            Some([[n, 0, 0], [n, 1, 0]]),
        ),
        ("watch.outbox.deliver", Window::Nth(5), None),
        (
            "watch.outbox.deliver",
            key(first, ":deliver"),
            Some([[n, 0, 0], [n, 0, 0]]),
        ),
        (
            "watch.outbox.deliver",
            key(third, ":deliver"),
            Some([[n, 0, 0], [n, 2, 0]]),
        ),
        (
            "watch.outbox.deliver",
            key(first, ":ack"),
            Some([[n, n, 0], [n, n, 0]]),
        ),
        (
            "watch.outbox.deliver",
            key(third, ":ack"),
            Some([[n, n, 0], [n, n, 2]]),
        ),
    ];
    for (side, action) in [Action::Panic, Action::Error].into_iter().enumerate() {
        for (row, (site, window, on_disk)) in kills.iter().enumerate() {
            let at = match window {
                Window::Nth(nth) => format!("{site}#{nth} ({action:?})"),
                Window::Key(key) => format!("{site}[{key}] ({action:?})"),
            };
            let root = seed_root(&format!("kill-{row}"), WEEKS, true);
            match window {
                Window::Nth(nth) => arm_nth(site, *nth, action),
                Window::Key(key) => arm_key(site, key, action),
            }
            // An injected error surfaces as a failed tick, which
            // `run_to_idle` turns into the same unwind a panic is.
            let crashed = catch_unwind(AssertUnwindSafe(|| run_to_idle(&root, 2, 4)));
            reset();
            assert!(
                crashed.is_err(),
                "fail-point {at} never fired — kill schedule stale?"
            );
            if let Some(on_disk) = on_disk {
                let snapshot =
                    OutboxSnapshot::load(&root.join("outbox.wal"), &root.join("alerts.log"))
                        .expect("load outbox");
                assert_eq!(
                    [
                        snapshot.alerts.len(),
                        snapshot.delivered.len(),
                        snapshot.acked.len()
                    ],
                    on_disk[side],
                    "[ENQUEUEs, lines, ACKs] on disk after the kill at {at}"
                );
            }

            let (watcher, _) = run_to_idle(&root, 2, 4);
            assert_eq!(
                store_bytes(&root),
                ref_bytes,
                "store after kill at {at} must match the unkilled run"
            );
            assert_eq!(
                live_fingerprint(&watcher),
                ref_live,
                "live accumulator after kill at {at} diverged"
            );
            assert_eq!(
                live_fingerprint(&watcher),
                cold_fold_fingerprint(&root, &watcher, 2),
                "live accumulator after kill at {at} != cold fold"
            );
            assert_eq!(
                alert_lines(&root),
                ref_alerts,
                "alert log after kill at {at} lost or duplicated alerts"
            );
            assert_eq!(watcher.outbox().pending_count(), 0);
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}

/// Strips the `coverage S/T` suffix: the scan-coverage annotation
/// legitimately names the cell's shard layout, everything before it
/// must be layout-independent.
fn without_coverage(lines: &[String]) -> Vec<String> {
    lines
        .iter()
        .map(|l| l.split(" coverage ").next().unwrap_or(l).to_string())
        .collect()
}

/// The kill matrix: at 1, 2, and 8 threads × 1 and 4 shards, a daemon
/// killed mid-ingest and mid-delivery still converges — and the live
/// accumulator and alert set are identical across every cell (alert IDs
/// are content-addressed, so shard and thread counts must not leak in).
#[test]
fn kill_matrix_across_threads_and_shards_converges_identically() {
    let _guard = lock();
    reset();
    let ((_, ref_live, ref_alerts), ids) = reference(1, 1);
    let ref_alerts = without_coverage(&ref_alerts);
    // The delivery kill lands where a round is most exposed: every line
    // durable, the third alert's ACK — and so every ACK — unwritten.
    let mid_delivery = format!("{:016x}:ack", ids[2]);

    for threads in [1, 2, 8] {
        for shards in [1, 4] {
            let tag = format!("matrix-{threads}t-{shards}s");
            let root = seed_root(&tag, WEEKS, true);

            // Unkilled reference for this cell's store bytes.
            let cell_ref_root = seed_root(&format!("{tag}-ref"), WEEKS, true);
            let (cell_watcher, _) = run_to_idle(&cell_ref_root, threads, shards);
            let cell_bytes = store_bytes(&cell_ref_root);
            drop(cell_watcher);
            let _ = std::fs::remove_dir_all(&cell_ref_root);

            // Kill once mid-ingest, restart, kill again mid-delivery,
            // restart again.
            arm_nth("watch.ingest", 2, Action::Panic);
            let crashed = catch_unwind(AssertUnwindSafe(|| run_to_idle(&root, threads, shards)));
            reset();
            assert!(crashed.is_err(), "{tag}: ingest kill never fired");
            arm_key("watch.outbox.deliver", &mid_delivery, Action::Panic);
            let crashed = catch_unwind(AssertUnwindSafe(|| run_to_idle(&root, threads, shards)));
            reset();
            assert!(crashed.is_err(), "{tag}: deliver kill never fired");

            let (watcher, _) = run_to_idle(&root, threads, shards);
            assert_eq!(watcher.weeks_committed(), WEEKS, "{tag}");
            assert_eq!(store_bytes(&root), cell_bytes, "{tag}: store diverged");
            assert_eq!(
                live_fingerprint(&watcher),
                ref_live,
                "{tag}: live accumulator depends on threads/shards"
            );
            assert_eq!(
                without_coverage(&alert_lines(&root)),
                ref_alerts,
                "{tag}: alert set depends on threads/shards"
            );
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}

/// The supervisor restarts through a transient fault — reopening the
/// watcher *is* the recovery path — and converges on the same end state.
#[test]
fn supervisor_restarts_through_a_transient_fault() {
    let _guard = lock();
    reset();
    let root = seed_root("supervised", WEEKS, true);
    // The second committed week panics mid-tick; every later hit is
    // clean, so exactly one restart recovers the run.
    arm_nth("watch.ingest", 2, Action::Panic);
    let telemetry = Telemetry::new();
    let report = supervise(
        &WatchConfig::new(&root).threads(2).shards(4),
        SupervisorConfig::bounded(4),
        &telemetry,
    );
    reset();
    assert!(!report.gave_up, "one panic must not exhaust the budget");
    assert_eq!(report.restarts, 1);
    assert_eq!(report.ticks, 4);
    assert!(
        report.last_error.as_deref().unwrap_or("").contains("panic"),
        "last_error must carry the panic: {:?}",
        report.last_error
    );
    // The failed tick's progress is not lost: week 0 committed before
    // the kill, the restarted watcher ingested the rest.
    assert_eq!(report.totals.weeks_ingested, WEEKS - 1);
    assert_eq!(report.totals.deltas_applied, 1);
    assert!(report.totals.alerts_delivered > 0);
    // The totals are the ticks' sum, field for field: the one settle
    // after the restarted ingest, and the domains it folded again — those
    // flipped between the verdict the reopen folded under (week 0's) and
    // the last week's.
    assert_eq!(report.totals.refolds, 1);
    let verdicts = verdicts(corpus());
    let flips = flipped(&verdicts[0], &verdicts[WEEKS - 1]);
    assert!(!flips.is_empty());
    assert_eq!(report.totals.domains_refolded, flips.len());
    let state = load_watch_state(&root);
    assert_eq!(state.weeks_committed, WEEKS as u64);
    assert_eq!(state.alerts_pending, 0);
    assert_eq!(
        telemetry.snapshot().counter("watch.restarts_total"),
        Some(1)
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// A persistent fault exhausts the restart budget: the supervisor gives
/// up with the failure named, instead of spinning forever — and once the
/// fault clears, a fresh supervised run completes from where disk is.
#[test]
fn supervisor_gives_up_on_a_persistent_fault_then_recovers() {
    let _guard = lock();
    reset();
    let root = seed_root("giveup", WEEKS, true);
    arm("watch.retro", Action::Error);
    let telemetry = Telemetry::new();
    let report = supervise(
        &WatchConfig::new(&root).threads(2).shards(4),
        SupervisorConfig::bounded(4).restarts(2),
        &telemetry,
    );
    assert!(report.gave_up, "a persistent fault must exhaust the budget");
    assert_eq!(report.restarts, 2, "budget of 2 retries");
    assert!(
        report
            .last_error
            .as_deref()
            .unwrap_or("")
            .contains("watch.retro"),
        "the give-up reason must name the site: {:?}",
        report.last_error
    );
    disarm("watch.retro");

    // The fault cleared: a new supervised run finishes the retro-scan
    // and drains the outbox. The weeks are already on disk.
    let report = supervise(
        &WatchConfig::new(&root).threads(2).shards(4),
        SupervisorConfig::bounded(2),
        &telemetry,
    );
    assert!(!report.gave_up);
    assert_eq!(report.totals.deltas_applied, 1);
    assert!(report.totals.alerts_delivered > 0);
    let state = load_watch_state(&root);
    assert_eq!(state.weeks_committed, WEEKS as u64);
    assert_eq!(state.alerts_pending, 0);
    assert_eq!(state.deltas_applied, 1);
    let _ = std::fs::remove_dir_all(&root);
}

/// Degraded continuation: a delta landing while a shard is quarantined
/// still retro-scans — the healthy shards are scanned, every alert is
/// annotated with the downgraded coverage, and the delta is journaled
/// as applied so the daemon keeps moving.
#[test]
fn degraded_retro_scan_completes_with_coverage_annotations() {
    let _guard = lock();
    reset();
    let root = seed_root("degraded", WEEKS, false);
    let (mut watcher, _) = run_to_idle(&root, 2, 4);
    assert_eq!(watcher.weeks_committed(), WEEKS);

    // Quarantine shard 1, then land the delta. The open writer holds
    // the resumed store; the retro-scan reopens read-only and degraded.
    let victim = root.join("store").join(webvuln::store::shard_file_name(1));
    std::fs::remove_file(&victim).expect("quarantine shard");
    land_delta(&root);

    let tick = watcher.tick().expect("degraded tick must complete");
    assert_eq!(tick.deltas_applied, 1);
    assert!(tick.alerts_enqueued > 0, "healthy shards must still alert");
    assert_eq!(tick.alerts_delivered, tick.alerts_enqueued);

    let snapshot = OutboxSnapshot::load(&root.join("outbox.wal"), &root.join("alerts.log"))
        .expect("load outbox");
    assert_eq!(snapshot.alerts.len(), tick.alerts_enqueued);
    for alert in &snapshot.alerts {
        assert_eq!(alert.coverage.shards_scanned, 3, "one shard is dark");
        assert_eq!(alert.coverage.shards_total, 4);
        assert!(!alert.coverage.is_full());
    }
    for line in alert_lines(&root) {
        assert!(
            line.ends_with("coverage 3/4"),
            "log line must carry the coverage annotation: {line}"
        );
    }
    let state = load_watch_state(&root);
    assert!(state.degraded, "the observer must see the quarantine");
    assert_eq!(state.deltas_applied, 1);
    let _ = std::fs::remove_dir_all(&root);
}

/// A crashed append can leave `deltas.applied` ending in a torn name.
/// The next append must cut it first: landing on it would fuse the two
/// into a name no delta file has, so every reopen would replay the scan
/// once more, forever.
#[test]
fn torn_applied_journal_is_healed_before_the_next_append() {
    let _guard = lock();
    reset();
    let root = seed_root("torn-applied", WEEKS, true);
    let (watcher, _) = run_to_idle(&root, 2, 4);
    drop(watcher);
    let journal = root.join("deltas.applied");
    let clean = std::fs::read(&journal).expect("read applied journal");
    assert_eq!(clean, b"2026-08-batch.cvedelta\n");
    std::fs::write(&journal, &clean[..clean.len() - 5]).expect("tear the journal");

    // The torn name reads as not-applied: the scan replays (every alert
    // dedups) and its completion is journaled again — on a clean line.
    let (watcher, reports) = run_to_idle(&root, 2, 4);
    assert_eq!(reports[0].deltas_applied, 1);
    assert_eq!(reports[0].alerts_enqueued, 0);
    assert!(reports[0].alerts_deduped >= 3);
    drop(watcher);
    assert_eq!(std::fs::read(&journal).expect("read journal"), clean);
    let (_, reports) = run_to_idle(&root, 2, 4);
    assert_eq!(reports.len(), 1, "the delta must now read as applied");
    assert_eq!(load_watch_state(&root).deltas_applied, 1);
    let _ = std::fs::remove_dir_all(&root);
}

/// A crash after a delta's alerts were enqueued but before its scan was
/// journaled leaves a delta the database already holds when the daemon
/// reopens (the open loads every delta file before its cold fold). The
/// scan replays in one walk that only reads: no accumulator is refolded,
/// the live state is a cold fold's and every alert dedups, so the alert
/// log keeps its bytes.
#[test]
fn a_known_but_unapplied_delta_scans_without_a_refold() {
    let _guard = lock();
    reset();
    let root = seed_root("known-unapplied", WEEKS, true);
    let (watcher, _) = run_to_idle(&root, 2, 4);
    drop(watcher);
    let alerts = std::fs::read(root.join("alerts.log")).expect("read alert log");
    std::fs::remove_file(root.join("deltas.applied")).expect("drop the applied journal");

    let telemetry = Telemetry::new();
    let counter = |name: &str| telemetry.snapshot().counter(name).unwrap_or(0);
    let cfg = WatchConfig::new(&root).threads(2).shards(4);
    let mut watcher = Watcher::open(cfg, &telemetry).expect("reopen watcher");
    let (scanned, refolded) = (
        counter("watch.records_scanned_total"),
        counter("watch.records_refolded_total"),
    );
    let tick = watcher.tick().expect("replayed scan");
    assert_eq!(tick.deltas_applied, 1, "{tick:?}");
    assert_eq!((tick.refolds, tick.domains_refolded), (0, 0), "{tick:?}");
    assert_eq!(tick.alerts_enqueued, 0, "{tick:?}");
    let all: usize = corpus().weeks.iter().map(|w| w.records.len()).sum();
    assert_eq!(counter("watch.records_scanned_total") - scanned, all as u64);
    assert_eq!(counter("watch.records_refolded_total"), refolded);
    assert_eq!(
        live_fingerprint(&watcher),
        cold_fold_fingerprint(&root, &watcher, 2)
    );
    tick_to_idle(&mut watcher);
    drop(watcher);
    let after = std::fs::read(root.join("alerts.log")).expect("read alert log");
    assert_eq!(after, alerts, "the replayed scan delivers nothing new");
    let _ = std::fs::remove_dir_all(&root);
}
