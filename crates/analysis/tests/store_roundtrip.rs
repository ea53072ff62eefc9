//! Property-based round-trip: any small ecosystem's collected store must
//! survive `memory -> file -> reader` exactly, and the store reader must
//! never panic on arbitrarily mutilated store bytes.

use std::sync::Arc;
use webvuln_analysis::dataset::{CollectConfig, Collector};
use webvuln_failpoint::check;
use webvuln_store::{AnyReader, StoreReader, StoreWriter};
use webvuln_webgen::{Ecosystem, EcosystemConfig, Timeline};

fn temp_path(tag: &str, seed: u64) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "webvuln-property-{tag}-{seed}-{}.wvstore",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

/// The store a collection kept in memory.
fn collect(seed: u64, domains: usize, weeks: usize) -> AnyReader {
    let eco = Arc::new(Ecosystem::generate(EcosystemConfig {
        seed,
        domain_count: domains,
        timeline: Timeline::truncated(weeks),
    }));
    Collector::from_config(CollectConfig::default())
        .run(&eco)
        .expect("collection")
        .reader
}

/// Writes every week and the verdict of `reader` to a store file at `path`.
fn write_out(reader: &AnyReader, path: &std::path::Path) {
    let mut writer = StoreWriter::create(path, reader.genesis().clone()).expect("create store");
    for week in reader.stream() {
        writer.commit_week(&week.expect("decode")).expect("commit");
    }
    let filtered = reader.filtered_out().expect("finalized");
    writer.finalize(filtered).expect("finalize");
}

/// The store a collection kept in memory, written to a file and opened,
/// reads back every week, the genesis and the verdict, for arbitrary
/// small ecosystems.
#[test]
fn dataset_survives_the_store() {
    check::run("dataset_survives_the_store", 10, |g| {
        let seed = g.range(0..=9_999);
        let domains = g.range(5..=59) as usize;
        let weeks = g.range(1..=4) as usize;
        let original = collect(seed, domains, weeks);
        let path = temp_path("roundtrip", seed);
        write_out(&original, &path);
        let restored = AnyReader::open(&path).expect("open store");
        let _ = std::fs::remove_file(&path);
        assert_eq!(original.genesis(), restored.genesis());
        assert_eq!(original.filtered_out(), restored.filtered_out());
        assert_eq!(original.weeks_committed(), weeks);
        assert_eq!(restored.weeks_committed(), weeks);
        for week in 0..weeks {
            assert_eq!(
                original.week(week).expect("memory week"),
                restored.week(week).expect("file week")
            );
        }
    });
}

/// Flipping any byte of a valid store either still opens (the damage
/// landed in slack the CRCs do not cover, e.g. the rewritable footer)
/// or yields a typed error — never a panic, and never silently wrong
/// week counts beyond dropping the tail.
#[test]
fn mutilated_stores_never_panic() {
    check::run("mutilated_stores_never_panic", 24, |g| {
        let position_permille = g.range(0..=999) as usize;
        let flip = g.range(1..=255) as u8;
        let path = temp_path("mutate", position_permille as u64);
        write_out(&collect(7, 20, 3), &path);
        let mut bytes = std::fs::read(&path).expect("read store");
        let position = position_permille * (bytes.len() - 1) / 999;
        bytes[position] ^= flip;
        std::fs::write(&path, &bytes).expect("write mutant");
        if let Ok(reader) = StoreReader::open(&path) {
            assert!(reader.weeks_committed() <= 3);
            // Whatever still opens must also still decode or fail cleanly.
            let _ = reader.verify();
        }
        let _ = std::fs::remove_file(&path);
    });
}
