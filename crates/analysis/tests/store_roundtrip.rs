//! Property-based round-trip: any small ecosystem's collected dataset must
//! survive `Dataset -> snapshot store -> Dataset` exactly, and the store
//! reader must never panic on arbitrarily mutilated store bytes.

use std::sync::Arc;
use webvuln_analysis::dataset::{CollectConfig, Collector, Dataset};
use webvuln_failpoint::check;
use webvuln_store::StoreReader;
use webvuln_webgen::{Ecosystem, EcosystemConfig, Timeline};

fn temp_path(tag: &str, seed: u64) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "webvuln-property-{tag}-{seed}-{}.wvstore",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    path
}

fn collect(seed: u64, domains: usize, weeks: usize) -> Dataset {
    let eco = Arc::new(Ecosystem::generate(EcosystemConfig {
        seed,
        domain_count: domains,
        timeline: Timeline::truncated(weeks),
    }));
    Collector::from_config(CollectConfig::default())
        .run(&eco)
        .expect("collection")
        .dataset
}

fn assert_datasets_equal(a: &Dataset, b: &Dataset) {
    assert_eq!(a.timeline, b.timeline);
    assert_eq!(a.ranks, b.ranks);
    assert_eq!(a.filtered_out, b.filtered_out);
    assert_eq!(a.weeks.len(), b.weeks.len());
    for (wa, wb) in a.weeks.iter().zip(&b.weeks) {
        assert_eq!(wa.week, wb.week);
        assert_eq!(wa.date, wb.date);
        assert_eq!(wa.summaries, wb.summaries);
        assert_eq!(wa.pages, wb.pages);
    }
}

/// `save_store` followed by `load_store` reproduces the dataset for
/// arbitrary small ecosystems.
#[test]
fn dataset_survives_the_store() {
    check::run("dataset_survives_the_store", 10, |g| {
        let seed = g.range(0..=9_999);
        let domains = g.range(5..=59) as usize;
        let weeks = g.range(1..=4) as usize;
        let original = collect(seed, domains, weeks);
        let path = temp_path("roundtrip", seed);
        original.save_store(&path).expect("save_store");
        let restored = Dataset::load_store(&path).expect("load_store");
        let _ = std::fs::remove_file(&path);
        assert_datasets_equal(&original, &restored);
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
        let dataset = collect(7, 20, 3);
        let path = temp_path("mutate", position_permille as u64);
        dataset.save_store(&path).expect("save_store");
        let mut bytes = std::fs::read(&path).expect("read back");
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
