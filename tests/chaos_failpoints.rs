//! Crash-consistency chaos harness: kill the study at every registered
//! fail-point and prove that resuming from the snapshot store reproduces
//! an uninterrupted run exactly — byte-identical store file, identical
//! analysis report.
//!
//! The harness enumerates [`failpoint_catalog`] so a fail-point added to
//! any crate is automatically killed here; a site without a kill
//! schedule fails the test loudly instead of being skipped. The catalog
//! is partitioned across suites — the `serve.*` sites fire in a live API
//! server (`tests/chaos_serve.rs` kills those), the `watch.*` sites fire
//! in the live-ingestion daemon (`tests/chaos_watch.rs` kills those),
//! the sharded-store sites
//! fire only for a sharded checkpoint store (the shard kill matrix
//! below), and `store.scrub` fires only under `scrub` — and
//! [`every_catalog_site_has_a_kill_scenario`] proves the partition is
//! exhaustive. A further group pins the supervision contract: a
//! panicking domain is quarantined — not fatal — at 1, 2, and 8 threads
//! with identical output bytes, and the `--max-task-failures` budget
//! turns sustained failure into a structured error.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use webvuln::core::{failpoint_catalog, full_report, Pipeline, StudyConfig, StudyResults};
use webvuln::failpoint::{arm_key, arm_nth, disarm, reset, Action};
use webvuln::net::{FaultPlan, RetryPolicy, SuperviseConfig};
use webvuln::store::{scrub, AnyReader, ScrubOutcome, StoreError};
use webvuln::webgen::{Ecosystem, EcosystemConfig, Timeline};

/// Serializes every test in this binary: the fail-point registry is
/// process-global and a site holds one arm at a time.
static FP_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    FP_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

const DOMAINS: usize = 40;
const WEEKS: usize = 3;

fn config(seed: u64, threads: usize) -> StudyConfig {
    StudyConfig {
        seed,
        domain_count: DOMAINS,
        timeline: Timeline::truncated(WEEKS),
        concurrency: threads,
        faults: FaultPlan::realistic(seed),
        retry: RetryPolicy::standard(1),
        ..StudyConfig::default()
    }
}

fn temp_store(tag: &str) -> PathBuf {
    let tag = tag.replace('.', "-");
    std::env::temp_dir().join(format!(
        "webvuln-chaosfp-{tag}-{}.wvstore",
        std::process::id()
    ))
}

fn temp_store_dir(tag: &str) -> PathBuf {
    let tag = tag.replace('.', "-");
    let dir = std::env::temp_dir().join(format!(
        "webvuln-chaosfp-{tag}-{}.wvshards",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every file of a sharded store, sorted by name — the byte-identity
/// check for directories, MANIFEST included.
fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut entries: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("read store dir")
        .map(|entry| {
            let entry = entry.expect("dir entry");
            (
                entry.file_name().to_string_lossy().into_owned(),
                std::fs::read(entry.path()).expect("read shard file"),
            )
        })
        .collect();
    entries.sort();
    entries
}

/// Like [`dir_bytes`] but only the live store files (MANIFEST and
/// `shard-*.wvstore`): quarantined copies are repair evidence, not part
/// of the served store, and their bytes legitimately depend on when a
/// scrub was interrupted.
fn live_dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    dir_bytes(dir)
        .into_iter()
        .filter(|(name, _)| name == "MANIFEST" || name.ends_with(".wvstore"))
        .collect()
}

/// The report prefix that depends only on the dataset (everything before
/// the run-specific telemetry tables).
fn analysis_part(results: &StudyResults) -> String {
    let report = full_report(results);
    report.split("Run telemetry").next().unwrap().to_string()
}

/// Thread count of the killed runs. Stored runs collect whole weeks on
/// the pool and commit them in order, with at most this many weeks in
/// flight: a week can start only once the week this many before it is
/// done, and a panic in a week is re-raised only after every earlier
/// week is committed.
const KILL_THREADS: usize = 2;

/// How many hits a site takes before the injected kill. Once-per-run
/// sites die on their first hit. Every other site dies once at least one
/// week is committed, which the kill loop checks: the commit-side sites
/// on their second hit (the genesis write takes the first footer
/// rewrite); the collect-side sites past the first [`KILL_THREADS`]
/// weeks' hits, which only a week started after week 0 was done can
/// take.
fn kill_schedule(site: &str) -> u64 {
    let weeks_in_flight = KILL_THREADS as u64;
    match site {
        "phase.generate" | "phase.join" | "phase.analyze" | "store.finalize" => 1,
        "checkpoint.commit"
        | "store.footer.rewrite"
        | "store.segment.mid_write"
        | "store.manifest.rename"
        | "store.shard.mid_write" => 2,
        "phase.crawl" | "phase.fingerprint" => weeks_in_flight + 1,
        "crawl.fetch" => weeks_in_flight * DOMAINS as u64 + 10,
        // Generation probes one task per domain before any week.
        "exec.task" => (1 + weeks_in_flight) * DOMAINS as u64 + 10,
        other => panic!("fail-point {other:?} has no kill schedule — add one to this harness"),
    }
}

/// Sites that only fire for a sharded checkpoint store — killed by the
/// shard kill matrix, not the single-file loop.
const SHARDED_ONLY_SITES: &[&str] = &["store.manifest.rename", "store.shard.mid_write"];

/// Sites that only fire under `scrub` — killed by
/// [`scrub_survives_a_kill_mid_repair`].
const SCRUB_ONLY_SITES: &[&str] = &["store.scrub"];

/// The single-file main loop's share of the catalog: everything except
/// the sharded-only, scrub-only, and live-server partitions. A brand-new
/// site lands here by default and then fails [`kill_schedule`] loudly
/// until it gets a kill scenario.
fn single_file_sites() -> Vec<&'static str> {
    failpoint_catalog()
        .into_iter()
        .filter(|site| {
            !SHARDED_ONLY_SITES.contains(site)
                && !SCRUB_ONLY_SITES.contains(site)
                && !webvuln::serve::FAILPOINTS.contains(site)
                && !webvuln::watch::FAILPOINTS.contains(site)
        })
        .collect()
}

/// The partition proof: the four covered sets — single-file loop, shard
/// kill matrix, scrub kill, live-server suite — union to exactly the
/// catalog, so no registered site can dodge chaos coverage.
#[test]
fn every_catalog_site_has_a_kill_scenario() {
    let mut covered = single_file_sites();
    covered.extend_from_slice(SHARDED_ONLY_SITES);
    covered.extend_from_slice(SCRUB_ONLY_SITES);
    covered.extend_from_slice(webvuln::serve::FAILPOINTS);
    covered.extend_from_slice(webvuln::watch::FAILPOINTS);
    covered.sort_unstable();
    covered.dedup();
    assert_eq!(
        covered,
        failpoint_catalog(),
        "chaos coverage partition out of sync with the fail-point catalog"
    );
    // Every partitioned-out site really is in the catalog (no typos
    // silently shrinking the main loop).
    for site in SHARDED_ONLY_SITES.iter().chain(SCRUB_ONLY_SITES) {
        assert!(
            failpoint_catalog().contains(site),
            "partitioned site {site} not in the catalog"
        );
    }
}

/// The tentpole: for every registered fail-point, crash an unsupervised
/// checkpointed study at that site, resume from whatever the store holds,
/// and require the healed store bytes and the analysis report to match an
/// uninterrupted run exactly.
#[test]
fn kill_at_every_fail_point_resumes_byte_identically() {
    let _guard = lock();
    reset();
    let seed = 7_300;
    let catalog = single_file_sites();
    assert!(!catalog.is_empty(), "fail-point catalog must not be empty");
    for required in [
        "checkpoint.commit",
        "crawl.fetch",
        "exec.task",
        "phase.analyze",
        "phase.crawl",
        "phase.fingerprint",
        "phase.generate",
        "phase.join",
        "store.finalize",
        "store.footer.rewrite",
        "store.segment.mid_write",
    ] {
        assert!(
            catalog.contains(&required),
            "catalog must register {required}"
        );
    }

    // Uninterrupted reference run.
    let reference_store = temp_store("reference");
    let _ = std::fs::remove_file(&reference_store);
    let reference = Pipeline::new(config(seed, 4))
        .checkpoint(&reference_store)
        .run()
        .expect("uninterrupted reference run");
    let reference_bytes = std::fs::read(&reference_store).expect("read reference store");
    let baseline = analysis_part(&reference);
    let _ = std::fs::remove_file(&reference_store);

    for site in catalog {
        let store = temp_store(site);
        let _ = std::fs::remove_file(&store);
        arm_nth(site, kill_schedule(site), Action::Panic);
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            Pipeline::new(config(seed, KILL_THREADS))
                .checkpoint(&store)
                .run()
        }));
        reset();
        assert!(
            crashed.is_err(),
            "fail-point {site} never fired — kill schedule stale?"
        );
        if kill_schedule(site) > 1 {
            let reader = AnyReader::open(&store).expect("open the crashed store");
            assert!(
                reader.weeks_committed() >= 1,
                "the kill at {site} came before any week was committed"
            );
        }

        let resumed = Pipeline::new(config(seed, KILL_THREADS))
            .checkpoint(&store)
            .resume(true)
            .run()
            .unwrap_or_else(|e| panic!("resume after kill at {site}: {e}"));
        let healed = std::fs::read(&store).expect("read healed store");
        assert_eq!(
            healed, reference_bytes,
            "store bytes after kill-and-resume at {site} must match the clean run"
        );
        assert_eq!(
            analysis_part(&resumed),
            baseline,
            "analysis report after kill-and-resume at {site} must match the clean run"
        );
        let _ = std::fs::remove_file(&store);
    }
}

/// Shard count for the sharded chaos group — enough that domains spread
/// across several files and one shard's death leaves most data live.
const SHARDS: usize = 4;

/// The sharded tentpole: kill a sharded checkpointed study at the
/// commit-protocol sites — mid shard write (any shard and a pinned
/// shard), and mid manifest rename (during create and while publishing
/// a later week) — at 1, 2, and 8 commit threads. The crashed store must
/// never open as a mixed epoch, and resume must converge to the
/// byte-identical directory (MANIFEST included) and analysis report of
/// an uninterrupted run.
#[test]
fn sharded_kill_matrix_resumes_byte_identically() {
    let _guard = lock();
    reset();
    let seed = 7_310;

    let reference_dir = temp_store_dir("shard-reference");
    let reference = Pipeline::new(config(seed, 4))
        .shards(SHARDS)
        .checkpoint(&reference_dir)
        .run()
        .expect("uninterrupted sharded reference run");
    let reference_bytes = dir_bytes(&reference_dir);
    let baseline = analysis_part(&reference);
    let _ = std::fs::remove_dir_all(&reference_dir);

    // (site, pinned shard key, hits before the kill)
    let kills: &[(&str, Option<&str>, u64)] = &[
        ("store.manifest.rename", None, 1), // creating the group
        ("store.manifest.rename", None, 3), // publishing week 1
        (
            "store.shard.mid_write",
            None,
            kill_schedule("store.shard.mid_write"),
        ),
        ("store.shard.mid_write", Some("2"), 1), // shard 2's first write
    ];
    for threads in [1, 2, 8] {
        for &(site, key, nth) in kills {
            let tag = format!("shardkill-{site}-{}-{threads}", key.unwrap_or("any"));
            let dir = temp_store_dir(&tag);
            match key {
                Some(key) => arm_key(site, key, Action::Panic),
                None => arm_nth(site, nth, Action::Panic),
            }
            let crashed = catch_unwind(AssertUnwindSafe(|| {
                Pipeline::new(config(seed, threads))
                    .shards(SHARDS)
                    .checkpoint(&dir)
                    .run()
            }));
            reset();
            assert!(
                crashed.is_err(),
                "fail-point {site} (key {key:?}) never fired at {threads} threads"
            );

            // The crash window is epoch E or E+1, never a mix: whatever
            // the kill left behind either opens consistently (reads
            // serve the committed prefix) or has no manifest yet.
            match AnyReader::open(&dir) {
                Ok(reader) => {
                    reader.verify().unwrap_or_else(|e| {
                        panic!("crashed store at {site}/{threads}t failed verify: {e}")
                    });
                }
                Err(StoreError::MissingGenesis) => {} // killed during create
                Err(e) => panic!("crashed store at {site}/{threads}t unopenable: {e}"),
            }

            let resumed = Pipeline::new(config(seed, threads))
                .shards(SHARDS)
                .checkpoint(&dir)
                .resume(true)
                .run()
                .unwrap_or_else(|e| panic!("resume after kill at {site}/{threads}t: {e}"));
            assert_eq!(
                dir_bytes(&dir),
                reference_bytes,
                "store directory after kill-and-resume at {site} (key {key:?}, \
                 {threads} threads) must match the clean run byte for byte"
            );
            assert_eq!(
                analysis_part(&resumed),
                baseline,
                "analysis report after kill-and-resume at {site}/{threads}t diverged"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Acceptance pin: a shard holding fewer weeks than the manifest is a
/// mixed-epoch store no crash can produce — resume refuses it outright,
/// `scrub --repair` rolls the whole group back to the last epoch every
/// shard can honour, and resuming then reproduces the reference run.
#[test]
fn a_tampered_shard_is_refused_then_scrub_repairs_it() {
    let _guard = lock();
    reset();
    let seed = 7_311;

    let dir = temp_store_dir("tampered");
    let reference = Pipeline::new(config(seed, 4))
        .shards(SHARDS)
        .checkpoint(&dir)
        .run()
        .expect("sharded run");
    let baseline = analysis_part(&reference);
    let reference_shards: Vec<(String, Vec<u8>)> = live_dir_bytes(&dir)
        .into_iter()
        .filter(|(name, _)| name != "MANIFEST")
        .collect();

    // Chop a shard roughly in half: it loses committed weeks (and its
    // finalize) while the manifest still requires them.
    let victim = dir.join(webvuln::store::shard_file_name(1));
    let len = std::fs::metadata(&victim).expect("stat shard").len();
    let file = std::fs::OpenOptions::new()
        .write(true)
        .open(&victim)
        .expect("open shard");
    file.set_len(len / 2).expect("truncate shard");
    drop(file);

    let message = match Pipeline::new(config(seed, 4))
        .shards(SHARDS)
        .checkpoint(&dir)
        .resume(true)
        .run()
    {
        Ok(_) => panic!("a mixed-epoch store must refuse to resume"),
        Err(err) => err.to_string(),
    };
    assert!(
        message.contains("mixed epoch") || message.contains("behind the manifest"),
        "unexpected refusal: {message}"
    );

    // Assess-only scrub names the problem without touching anything:
    // an unrepaired behind-shard is the severe verdict.
    let report = scrub(&dir, false).expect("assess scrub");
    assert_eq!(report.outcome, ScrubOutcome::Quarantined);
    assert!(!report.repaired);
    assert!(
        report.render().contains("mixed epoch"),
        "assessment must name the mixed epoch:\n{}",
        report.render()
    );

    // Repair rolls the group back to the longest prefix every shard
    // still holds; resuming from there reproduces the reference run.
    let report = scrub(&dir, true).expect("repair scrub");
    assert_eq!(report.outcome, ScrubOutcome::Healed);
    assert!(report.repaired);
    assert!(report.rolled_back_to.is_some(), "group must roll back");

    let resumed = Pipeline::new(config(seed, 4))
        .shards(SHARDS)
        .checkpoint(&dir)
        .resume(true)
        .run()
        .expect("resume after repair");
    let healed_shards: Vec<(String, Vec<u8>)> = live_dir_bytes(&dir)
        .into_iter()
        .filter(|(name, _)| name != "MANIFEST")
        .collect();
    assert_eq!(
        healed_shards, reference_shards,
        "repaired shards must match the clean run byte for byte"
    );
    assert_eq!(analysis_part(&resumed), baseline);
    // The manifest records the extra rollback epoch but agrees on shape.
    let reader = AnyReader::open(&dir).expect("open repaired store");
    assert_eq!(reader.weeks_committed(), WEEKS);
    assert!(reader.is_finalized());
    let _ = std::fs::remove_dir_all(&dir);
}

/// `store.scrub` coverage: kill a repairing scrub at every per-shard
/// step (assessment and apply), re-run it, and require the surviving
/// store to match an uninterrupted repair byte for byte — quarantine
/// copies excluded, since their content legitimately depends on where
/// the first scrub died. A single file is one shard with no manifest and
/// takes the same loop.
#[test]
fn scrub_survives_a_kill_mid_repair() {
    let _guard = lock();
    reset();
    let seed = 7_312;

    for shards in [SHARDS, 1] {
        let build = |tag: &str| {
            let tag = format!("{tag}-{shards}");
            let (store, victim) = if shards > 1 {
                let dir = temp_store_dir(&tag);
                let victim = dir.join(webvuln::store::shard_file_name(2));
                (dir, victim)
            } else {
                let file = temp_store(&tag);
                let _ = std::fs::remove_file(&file);
                (file.clone(), file)
            };
            Pipeline::new(config(seed, 4))
                .shards(shards)
                .checkpoint(&store)
                .run()
                .expect("checkpointed run");
            // Same tamper as above: the victim file loses committed weeks.
            let len = std::fs::metadata(&victim).expect("stat").len();
            let file = std::fs::OpenOptions::new()
                .write(true)
                .open(&victim)
                .expect("open");
            file.set_len(len / 2).expect("truncate");
            drop(file);
            store
        };
        let live_bytes = |store: &Path| {
            if shards > 1 {
                live_dir_bytes(store)
            } else {
                vec![(String::new(), std::fs::read(store).expect("read store"))]
            }
        };
        let remove = |store: &Path| {
            if shards > 1 {
                let _ = std::fs::remove_dir_all(store);
            } else {
                let _ = std::fs::remove_file(store);
                let mut parked = store.as_os_str().to_os_string();
                parked.push(format!(".{}", webvuln::store::QUARANTINE_SUFFIX));
                let _ = std::fs::remove_file(parked);
            }
        };

        // Uninterrupted repair of the same damage.
        let clean_store = build("scrub-clean");
        let clean_report = scrub(&clean_store, true).expect("clean repair");
        assert!(clean_report.repaired);
        let clean_bytes = live_bytes(&clean_store);
        remove(&clean_store);

        // Kill at every per-shard scrub step: hits 1..=shards are the
        // assessments, shards+1..=2*shards the apply steps.
        for nth in 1..=(2 * shards as u64) {
            let store = build(&format!("scrub-kill-{nth}"));
            arm_nth("store.scrub", nth, Action::Panic);
            let crashed = catch_unwind(AssertUnwindSafe(|| scrub(&store, true)));
            reset();
            assert!(crashed.is_err(), "store.scrub hit {nth} never fired");

            let report = scrub(&store, true).expect("re-run scrub after kill");
            assert_eq!(
                report.outcome,
                ScrubOutcome::Healed,
                "kill at hit {nth}, {shards} shards"
            );
            assert_eq!(
                live_bytes(&store),
                clean_bytes,
                "store after killed-then-rerun scrub (hit {nth}, {shards} shards) \
                 must match an uninterrupted repair"
            );
            remove(&store);
        }
    }
}

/// Acceptance pin: under supervision a domain whose fetch task panics in
/// every week is quarantined — the study completes (within the failure
/// budget), surfaces the quarantine in telemetry and the report, and the
/// output is byte-identical at 1, 2, and 8 threads.
#[test]
fn supervised_study_quarantines_a_panicking_domain_across_threads() {
    let _guard = lock();
    reset();
    let seed = 7_301;
    let eco = Ecosystem::generate(EcosystemConfig {
        seed,
        domain_count: DOMAINS,
        timeline: Timeline::truncated(WEEKS),
    });
    let victim = eco.domain_names()[11].clone();
    arm_key("crawl.fetch", &victim, Action::Panic);

    let run = |threads: usize| {
        let store = temp_store(&format!("supervised-{threads}"));
        let _ = std::fs::remove_file(&store);
        let results = Pipeline::new(config(seed, threads))
            .supervise(SuperviseConfig::new())
            .max_task_failures(10)
            .checkpoint(&store)
            .run()
            .expect("supervised study must survive a panicking domain");
        let bytes = std::fs::read(&store).expect("read store");
        let _ = std::fs::remove_file(&store);
        (results, bytes)
    };
    let (one, bytes_one) = run(1);
    let report_one = analysis_part(&one);
    for threads in [2, 8] {
        let (many, bytes_many) = run(threads);
        assert_eq!(
            bytes_one, bytes_many,
            "store bytes differ at {threads} threads"
        );
        assert_eq!(
            report_one,
            analysis_part(&many),
            "analysis report differs at {threads} threads"
        );
    }
    disarm("crawl.fetch");

    // The victim panicked once per week and was quarantined each time.
    let panics = one.telemetry.counter("exec.panics_total").unwrap_or(0);
    assert_eq!(panics, WEEKS as u64, "one quarantined fetch per week");
    assert_eq!(
        one.telemetry.counter("exec.quarantined_total"),
        Some(WEEKS as u64)
    );
    // The quarantined domain is carried as a failed fetch, not dropped:
    // every week still accounts for all domains minus the §4.1 filter.
    let report = full_report(&one);
    assert!(
        report.contains("Failure containment"),
        "report must render the containment section"
    );
}

/// Acceptance pin: the failure budget is a hard ceiling — a study whose
/// quarantine count exceeds `--max-task-failures` degrades gracefully up
/// to the budget, then fails with a structured error instead of limping
/// on.
#[test]
fn exhausted_failure_budget_is_a_structured_error() {
    let _guard = lock();
    reset();
    let seed = 7_302;
    let eco = Ecosystem::generate(EcosystemConfig {
        seed,
        domain_count: DOMAINS,
        timeline: Timeline::truncated(WEEKS),
    });
    let victim = eco.domain_names()[3].clone();
    arm_key("crawl.fetch", &victim, Action::Panic);
    // Budget 1 < the 3 weekly quarantines the victim will accrue.
    let outcome = Pipeline::new(config(seed, 4))
        .supervise(SuperviseConfig::new())
        .max_task_failures(1)
        .run();
    disarm("crawl.fetch");
    let message = match outcome {
        Ok(_) => panic!("budget of 1 must not survive 3 quarantines"),
        Err(e) => e.to_string(),
    };
    assert!(
        message.contains("task-failure budget exceeded"),
        "unexpected error: {message}"
    );
    assert!(
        message.contains("(budget 1)"),
        "unexpected error: {message}"
    );
}
