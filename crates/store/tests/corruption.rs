//! Corruption suite: every damaged-file shape must surface as a typed
//! error or clean tail recovery — never a panic, never silent garbage.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use webvuln_store::{DomainRecord, Genesis, StoreError, StoreReader, StoreWriter, WeekData};

struct TempStore {
    path: PathBuf,
}

impl TempStore {
    fn new(tag: &str) -> TempStore {
        let path = std::env::temp_dir().join(format!(
            "wvstore-corrupt-{}-{tag}.wvstore",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        TempStore { path }
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

fn record(host: &str, week: usize) -> DomainRecord {
    DomainRecord {
        host: host.to_string(),
        status: Some(200),
        body_len: 1_000 + week as u64,
        page: None,
    }
}

fn week(week_no: usize, domains: usize) -> WeekData {
    WeekData {
        week: week_no,
        date_days: 17_600 + 7 * week_no as i64,
        records: (0..domains)
            .map(|i| record(&format!("host{i:02}.example"), week_no))
            .collect(),
    }
}

/// Writes a healthy 3-week store and returns its byte image.
fn healthy_store(path: &Path) -> Vec<u8> {
    let genesis = Genesis {
        start_days: 17_600,
        weeks_total: 5,
        ranks: (0..6)
            .map(|i| (format!("host{i:02}.example"), (i + 1) as u64))
            .collect(),
    };
    let mut writer = StoreWriter::create(path, genesis).expect("create");
    for w in 0..3 {
        writer.commit_week(&week(w, 6)).expect("commit");
    }
    std::fs::read(path).expect("read back")
}

#[test]
fn truncation_mid_record_drops_only_the_torn_week() {
    let tmp = TempStore::new("truncate");
    let bytes = healthy_store(&tmp.path);
    // Cut the file inside the last week segment (well before the footer).
    std::fs::write(&tmp.path, &bytes[..bytes.len() * 3 / 4]).expect("truncate");

    let reader = StoreReader::open(&tmp.path).expect("open recovers");
    assert!(reader.weeks_committed() < 3, "torn week dropped");
    assert!(reader.torn_bytes() > 0);
    assert!(!reader.had_footer());
    for w in 0..reader.weeks_committed() {
        assert_eq!(reader.week(w).expect("intact week"), week(w, 6));
    }
}

#[test]
fn every_truncation_point_is_survivable() {
    let tmp = TempStore::new("alltruncs");
    let bytes = healthy_store(&tmp.path);
    // Every cut at or after the header must open (with recovery); cuts
    // into the header itself must yield BadMagic. Nothing may panic.
    for cut in (0..bytes.len()).step_by(7) {
        std::fs::write(&tmp.path, &bytes[..cut]).expect("cut");
        match StoreReader::open(&tmp.path) {
            Ok(reader) => {
                assert!(reader.weeks_committed() <= 3);
            }
            Err(StoreError::BadMagic | StoreError::MissingGenesis | StoreError::Corrupt { .. }) => {
            }
            Err(other) => panic!("unexpected error at cut {cut}: {other}"),
        }
    }
}

#[test]
fn flipped_crc_byte_is_detected() {
    let tmp = TempStore::new("crcflip");
    let bytes = healthy_store(&tmp.path);
    // Flip one byte in the middle of the file: the containing segment's
    // CRC fails and the scan truncates there.
    let mut evil = bytes.clone();
    let mid = evil.len() / 2;
    evil[mid] ^= 0x40;
    std::fs::write(&tmp.path, &evil).expect("write");

    let reader = StoreReader::open(&tmp.path).expect("open recovers");
    assert!(reader.weeks_committed() < 3);
    assert!(reader.torn_bytes() > 0);
    // Whatever survived decodes exactly.
    reader.verify().expect("surviving prefix verifies");
}

#[test]
fn wrong_format_version_is_a_typed_error() {
    let tmp = TempStore::new("version");
    let bytes = healthy_store(&tmp.path);
    let mut evil = bytes.clone();
    evil[8] = 99; // version field, little-endian low byte
    std::fs::write(&tmp.path, &evil).expect("write");
    match StoreReader::open(&tmp.path) {
        Err(StoreError::UnsupportedVersion(99)) => {}
        other => panic!(
            "expected UnsupportedVersion, got {other:?}",
            other = other.err()
        ),
    }
}

#[test]
fn bad_magic_is_a_typed_error() {
    let tmp = TempStore::new("magic");
    std::fs::write(&tmp.path, b"definitely not a store file").expect("write");
    assert!(matches!(
        StoreReader::open(&tmp.path),
        Err(StoreError::BadMagic)
    ));
    std::fs::write(&tmp.path, b"short").expect("write");
    assert!(matches!(
        StoreReader::open(&tmp.path),
        Err(StoreError::BadMagic)
    ));
}

#[test]
fn torn_footer_recovers_every_week() {
    let tmp = TempStore::new("footer");
    let bytes = healthy_store(&tmp.path);
    // Drop the last 5 bytes: the footer trailer is torn but all data
    // segments are intact.
    std::fs::write(&tmp.path, &bytes[..bytes.len() - 5]).expect("truncate");
    let reader = StoreReader::open(&tmp.path).expect("open");
    assert_eq!(reader.weeks_committed(), 3);
    assert!(!reader.had_footer());
    assert!(reader.torn_bytes() > 0);
    reader.verify().expect("all weeks verify");
}

#[test]
fn garbage_after_footer_is_dropped() {
    let tmp = TempStore::new("trailing");
    let mut bytes = healthy_store(&tmp.path);
    bytes.extend_from_slice(b"\xde\xad\xbe\xef trailing junk");
    std::fs::write(&tmp.path, &bytes).expect("write");
    let reader = StoreReader::open(&tmp.path).expect("open");
    assert_eq!(reader.weeks_committed(), 3);
    assert!(reader.torn_bytes() > 0);
}

#[test]
fn resume_truncates_torn_tail_and_continues() {
    let tmp = TempStore::new("resume");
    let bytes = healthy_store(&tmp.path);
    // Simulate a crash mid-commit: walk the tear backwards until it bites
    // into a data segment (small tears only clip the rewritable footer).
    let mut cut = bytes.len() - 10;
    let mut writer = loop {
        std::fs::write(&tmp.path, &bytes[..cut]).expect("tear");
        let resumed = StoreWriter::resume(&tmp.path).expect("resume");
        if resumed.weeks_committed() < 3 {
            break resumed;
        }
        cut -= 10;
    };
    assert!(writer.stats().torn_bytes_recovered > 0);
    let committed = writer.weeks_committed();
    for w in committed..3 {
        writer.commit_week(&week(w, 6)).expect("recommit");
    }
    writer.finalize(&[]).expect("finalize");

    let reader = StoreReader::open(&tmp.path).expect("open");
    assert_eq!(reader.weeks_committed(), 3);
    assert_eq!(reader.torn_bytes(), 0);
    assert!(reader.had_footer());
    for w in 0..3 {
        assert_eq!(reader.week(w).expect("week"), week(w, 6));
    }
}

#[test]
fn flipped_payload_byte_inside_crc_scope_never_decodes() {
    let tmp = TempStore::new("payload");
    let bytes = healthy_store(&tmp.path);
    // Flip every 13th byte (fresh copy each time): either the CRC drops
    // the segment or (for footer/trailer bytes) recovery kicks in. The
    // surviving prefix must always verify; nothing may panic.
    for pos in (16..bytes.len()).step_by(13) {
        let mut evil = bytes.clone();
        evil[pos] ^= 0x01;
        std::fs::write(&tmp.path, &evil).expect("write");
        if let Ok(reader) = StoreReader::open(&tmp.path) {
            reader.verify().expect("surviving prefix verifies");
        }
    }
}

#[test]
fn io_errors_carry_the_path() {
    let missing = Path::new("/nonexistent/dir/x.wvstore");
    match StoreReader::open(missing) {
        Err(StoreError::Io { path, .. }) => assert!(path.contains("x.wvstore")),
        other => panic!("expected Io error, got {other:?}", other = other.err()),
    }
}

#[test]
fn header_only_file_is_missing_genesis() {
    let tmp = TempStore::new("headeronly");
    let bytes = healthy_store(&tmp.path);
    std::fs::write(&tmp.path, &bytes[..16]).expect("header only");
    assert!(matches!(
        StoreReader::open(&tmp.path),
        Err(StoreError::MissingGenesis)
    ));
    assert!(matches!(
        StoreWriter::resume(&tmp.path),
        Err(StoreError::MissingGenesis)
    ));
}

#[test]
fn in_place_edit_of_committed_file_is_caught() {
    // Belt-and-braces: open a healthy store, rewrite one body byte
    // through the file (bypassing the writer), and confirm detection.
    let tmp = TempStore::new("inplace");
    let bytes = healthy_store(&tmp.path);
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&tmp.path)
        .expect("open rw");
    let mut all = Vec::new();
    file.read_to_end(&mut all).expect("read");
    // Flip a byte one quarter in (inside an early data segment).
    let pos = bytes.len() / 4;
    file.seek(SeekFrom::Start(pos as u64)).expect("seek");
    file.write_all(&[all[pos] ^ 0xFF]).expect("flip");
    drop(file);
    // Depending on which segment the flip hits, either the store opens
    // with that segment (and everything after it) dropped, or — if the
    // genesis itself was damaged — open fails with a typed error.
    match StoreReader::open(&tmp.path) {
        Ok(reader) => assert!(reader.weeks_committed() < 3, "damaged segment dropped"),
        Err(StoreError::MissingGenesis | StoreError::Corrupt { .. }) => {}
        Err(other) => panic!("unexpected error: {other}"),
    }
}
