//! The spool: how new weeks arrive.
//!
//! A producer (a crawler on another machine, a test, the bench) drops
//! `week-NNNNN.wvweek` files into the spool directory; the watcher
//! commits them through the sharded store writer in week order.
//! `genesis.wvgenesis` bootstraps a store the first time a watcher opens
//! an empty root.
//!
//! A spool file is a store file holding one segment — the store's
//! header, then one week (own string table, every body in full) or one
//! genesis, encoded and checked by [`webvuln_store::codec`]. Magic,
//! version, segment kind, length and CRC are all the store's, so a torn
//! or half-copied file — anything that is not exactly one such segment
//! — is refused (the producer re-drops it) rather than committed.

use crate::error::WatchError;
use std::path::{Path, PathBuf};
use webvuln_store::codec::{decode_genesis_file, encode_genesis_file, encode_week_file, WeekFile};
use webvuln_store::{durable, Genesis, StoreError, WeekData};

/// The spool file name for week `index`.
pub fn week_file_name(index: usize) -> String {
    format!("week-{index:05}.wvweek")
}

/// The genesis bootstrap file name.
pub const GENESIS_FILE: &str = "genesis.wvgenesis";

fn write_file(spool_dir: &Path, name: &str, bytes: &[u8]) -> Result<PathBuf, WatchError> {
    std::fs::create_dir_all(spool_dir).map_err(|e| WatchError::io(spool_dir, e))?;
    let path = spool_dir.join(name);
    // An atomic replace, so a producer crash never leaves a partial (or,
    // unsynced, an empty) spool file under the real name.
    durable::replace(&path, bytes, || Ok(()))?;
    Ok(path)
}

fn read_file<T>(path: &Path, decode: fn(&[u8]) -> Result<T, StoreError>) -> Result<T, WatchError> {
    let bytes = std::fs::read(path).map_err(|e| WatchError::io(path, e))?;
    decode(&bytes).map_err(|e| WatchError::corrupt(path, e.to_string()))
}

/// Writes `week` as a self-checking spool file under `spool_dir`.
pub fn write_week_file(spool_dir: &Path, week: &WeekData) -> Result<PathBuf, WatchError> {
    write_file(
        spool_dir,
        &week_file_name(week.week),
        &encode_week_file(week),
    )
}

/// Reads and verifies one spool week file, leaving its records to be
/// decoded in place ([`WeekFile::week`]).
pub(crate) fn open_week_file(path: &Path) -> Result<WeekFile, WatchError> {
    read_file(path, WeekFile::parse)
}

/// Reads, verifies and decodes one spool week file.
pub fn read_week_file(path: &Path) -> Result<WeekData, WatchError> {
    let decoded = open_week_file(path)?.week().map(|week| week.owned());
    decoded.map_err(|e| WatchError::corrupt(path, e.to_string()))
}

/// Lists spool week files as `(week index, path)`, sorted by week.
pub(crate) fn scan_spool(spool_dir: &Path) -> Result<Vec<(usize, PathBuf)>, WatchError> {
    let mut weeks = Vec::new();
    let entries = match std::fs::read_dir(spool_dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(weeks),
        Err(e) => return Err(WatchError::io(spool_dir, e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| WatchError::io(spool_dir, e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(index) = name
            .strip_prefix("week-")
            .and_then(|rest| rest.strip_suffix(".wvweek"))
            .and_then(|digits| digits.parse::<usize>().ok())
        else {
            continue;
        };
        weeks.push((index, entry.path()));
    }
    weeks.sort();
    Ok(weeks)
}

/// Writes the genesis bootstrap file under `spool_dir`.
pub fn write_genesis_file(spool_dir: &Path, genesis: &Genesis) -> Result<PathBuf, WatchError> {
    write_file(spool_dir, GENESIS_FILE, &encode_genesis_file(genesis))
}

/// Reads the genesis bootstrap file.
pub fn read_genesis_file(path: &Path) -> Result<Genesis, WatchError> {
    read_file(path, decode_genesis_file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use webvuln_store::{
        DetectionRecord, DomainRecord, FlashRecord, PageRecord, ScriptRecord, WordPressRecord,
    };

    fn sample_week(index: usize) -> WeekData {
        WeekData {
            week: index,
            date_days: 17_600 + 7 * index as i64,
            records: vec![
                DomainRecord {
                    host: "site000.example".into(),
                    status: Some(200),
                    body_len: 4_200,
                    page: Some(PageRecord {
                        detections: vec![DetectionRecord {
                            library: "jquery".into(),
                            version: Some("1.12.4".into()),
                            external_host: Some("cdn.example".into()),
                            integrity: true,
                            crossorigin: Some("anonymous".into()),
                            url: "https://cdn.example/jq.js".into(),
                        }],
                        wordpress: WordPressRecord::Detected("5.5.1".into()),
                        flash: vec![FlashRecord {
                            swf_url: "/banner.swf".into(),
                            allow_script_access: Some("always".into()),
                        }],
                        resource_types: vec![0, 3],
                        github_scripts: vec![ScriptRecord {
                            host: "w.github.io".into(),
                            url: "https://w.github.io/w.js".into(),
                            integrity: false,
                            crossorigin: None,
                        }],
                        external_scripts: 2,
                        external_scripts_without_integrity: 1,
                        crossorigin_values: vec!["anonymous".into()],
                    }),
                },
                DomainRecord {
                    host: "site001.example".into(),
                    status: None,
                    body_len: 0,
                    page: None,
                },
            ],
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wvspool-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn week_files_round_trip_and_scan_in_order() {
        let dir = tmp("roundtrip");
        for index in [2usize, 0, 1] {
            write_week_file(&dir, &sample_week(index)).unwrap();
        }
        let scanned = scan_spool(&dir).unwrap();
        assert_eq!(
            scanned.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        for (index, path) in scanned {
            assert_eq!(read_week_file(&path).unwrap(), sample_week(index));
        }
        assert!(scan_spool(&dir.join("missing")).unwrap().is_empty());
    }

    #[test]
    fn corrupt_and_truncated_week_files_are_rejected() {
        let dir = tmp("corrupt");
        let path = write_week_file(&dir, &sample_week(0)).unwrap();
        let good = std::fs::read(&path).unwrap();
        // Flip a payload byte.
        let mut evil = good.clone();
        let last = evil.len() - 1;
        evil[last] ^= 0x01;
        std::fs::write(&path, &evil).unwrap();
        assert!(read_week_file(&path).is_err(), "crc must catch the flip");
        // Truncate anywhere.
        for cut in [0, 4, 8, good.len() / 2, good.len() - 1] {
            std::fs::write(&path, &good[..cut]).unwrap();
            assert!(read_week_file(&path).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn genesis_round_trips() {
        let dir = tmp("genesis");
        let genesis = Genesis {
            start_days: 17_600,
            weeks_total: 12,
            ranks: vec![("site000.example".into(), 1), ("site001.example".into(), 2)],
        };
        let path = write_genesis_file(&dir, &genesis).unwrap();
        assert_eq!(read_genesis_file(&path).unwrap(), genesis);
    }
}
