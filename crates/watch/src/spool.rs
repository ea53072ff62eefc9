//! The spool: how new weeks arrive.
//!
//! A producer (a crawler on another machine, a test, the bench) drops
//! `week-NNNNN.wvweek` files into the spool directory; the watcher
//! commits them through the sharded store writer in week order. Files
//! are self-checking (magic + CRC over the payload) so a torn or
//! half-copied spool file is rejected — the producer re-drops it —
//! rather than committed. `genesis.wvgenesis` bootstraps a store the
//! first time a watcher opens an empty root.
//!
//! The format is this crate's own (varint/CRC, mirroring the store's
//! codec idiom) because the store keeps its interned segment codec
//! private — and a spool file is a transport envelope, not a store
//! segment: it must be decodable standalone, without shard context.

use crate::error::WatchError;
use crate::wal::{crc32, write_i64, write_str, write_u64, Cursor};
use std::path::{Path, PathBuf};
use webvuln_store::{
    DetectionRecord, DomainRecord, FlashRecord, Genesis, PageRecord, ScriptRecord, WeekData,
    WordPressRecord,
};

const WEEK_MAGIC: &[u8; 8] = b"WVWEEK01";
const GENESIS_MAGIC: &[u8; 8] = b"WVGENES1";

/// The spool file name for week `index`.
pub fn week_file_name(index: usize) -> String {
    format!("week-{index:05}.wvweek")
}

/// The genesis bootstrap file name.
pub const GENESIS_FILE: &str = "genesis.wvgenesis";

fn opt_str(out: &mut Vec<u8>, value: Option<&str>) {
    match value {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            write_str(out, s);
        }
    }
}

fn encode_week(week: &WeekData) -> Vec<u8> {
    let mut out = Vec::new();
    write_u64(&mut out, week.week as u64);
    write_i64(&mut out, week.date_days);
    write_u64(&mut out, week.records.len() as u64);
    for record in &week.records {
        write_str(&mut out, &record.host);
        match record.status {
            None => out.push(0),
            Some(status) => {
                out.push(1);
                write_u64(&mut out, u64::from(status));
            }
        }
        write_u64(&mut out, record.body_len);
        match &record.page {
            None => out.push(0),
            Some(page) => {
                out.push(1);
                encode_page(&mut out, page);
            }
        }
    }
    out
}

fn encode_page(out: &mut Vec<u8>, page: &PageRecord) {
    write_u64(out, page.detections.len() as u64);
    for det in &page.detections {
        write_str(out, &det.library);
        opt_str(out, det.version.as_deref());
        opt_str(out, det.external_host.as_deref());
        out.push(u8::from(det.integrity));
        opt_str(out, det.crossorigin.as_deref());
        write_str(out, &det.url);
    }
    match &page.wordpress {
        WordPressRecord::Absent => out.push(0),
        WordPressRecord::DetectedUnknownVersion => out.push(1),
        WordPressRecord::Detected(version) => {
            out.push(2);
            write_str(out, version);
        }
    }
    write_u64(out, page.flash.len() as u64);
    for flash in &page.flash {
        write_str(out, &flash.swf_url);
        opt_str(out, flash.allow_script_access.as_deref());
    }
    write_u64(out, page.resource_types.len() as u64);
    out.extend_from_slice(&page.resource_types);
    write_u64(out, page.github_scripts.len() as u64);
    for script in &page.github_scripts {
        write_str(out, &script.host);
        write_str(out, &script.url);
        out.push(u8::from(script.integrity));
        opt_str(out, script.crossorigin.as_deref());
    }
    write_u64(out, page.external_scripts);
    write_u64(out, page.external_scripts_without_integrity);
    write_u64(out, page.crossorigin_values.len() as u64);
    for value in &page.crossorigin_values {
        write_str(out, value);
    }
}

struct WeekReader<'a, 'b> {
    cur: &'b mut Cursor<'a>,
    path: &'b Path,
}

impl WeekReader<'_, '_> {
    fn bad(&self, what: &str) -> WatchError {
        WatchError::corrupt(self.path, format!("{what} at byte {}", self.cur.pos()))
    }

    fn u8(&mut self, what: &str) -> Result<u8, WatchError> {
        self.cur.u8().ok_or_else(|| self.bad(what))
    }

    fn u64(&mut self, what: &str) -> Result<u64, WatchError> {
        self.cur.u64().ok_or_else(|| self.bad(what))
    }

    fn str(&mut self, what: &str) -> Result<String, WatchError> {
        self.cur.str().ok_or_else(|| self.bad(what))
    }

    fn opt_str(&mut self, what: &str) -> Result<Option<String>, WatchError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.str(what)?)),
            _ => Err(self.bad(what)),
        }
    }

    fn bool(&mut self, what: &str) -> Result<bool, WatchError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.bad(what)),
        }
    }
}

fn decode_week(path: &Path, payload: &[u8]) -> Result<WeekData, WatchError> {
    let mut cur = Cursor::new(payload);
    let mut r = WeekReader {
        cur: &mut cur,
        path,
    };
    let week = r.u64("week index")? as usize;
    let date_days = r
        .cur
        .i64()
        .ok_or_else(|| WatchError::corrupt(path, "week date"))?;
    let n_records = r.u64("record count")?;
    if n_records > payload.len() as u64 {
        return Err(r.bad("record count"));
    }
    let mut records = Vec::with_capacity(n_records as usize);
    for _ in 0..n_records {
        let host = r.str("host")?;
        let status = match r.u8("status tag")? {
            0 => None,
            1 => {
                let raw = r.u64("status")?;
                Some(u16::try_from(raw).map_err(|_| r.bad("status range"))?)
            }
            _ => return Err(r.bad("status tag")),
        };
        let body_len = r.u64("body length")?;
        let page = match r.u8("page tag")? {
            0 => None,
            1 => Some(decode_page(&mut r)?),
            _ => return Err(r.bad("page tag")),
        };
        records.push(DomainRecord {
            host,
            status,
            body_len,
            page,
        });
    }
    if !r.cur.is_empty() {
        return Err(WatchError::corrupt(path, "trailing bytes"));
    }
    Ok(WeekData {
        week,
        date_days,
        records,
    })
}

fn decode_page(r: &mut WeekReader<'_, '_>) -> Result<PageRecord, WatchError> {
    let n_det = r.u64("detection count")?;
    let mut detections = Vec::with_capacity(n_det.min(1024) as usize);
    for _ in 0..n_det {
        detections.push(DetectionRecord {
            library: r.str("library")?,
            version: r.opt_str("version")?,
            external_host: r.opt_str("external host")?,
            integrity: r.bool("integrity")?,
            crossorigin: r.opt_str("crossorigin")?,
            url: r.str("detection url")?,
        });
    }
    let wordpress = match r.u8("wordpress tag")? {
        0 => WordPressRecord::Absent,
        1 => WordPressRecord::DetectedUnknownVersion,
        2 => WordPressRecord::Detected(r.str("wordpress version")?),
        _ => return Err(r.bad("wordpress tag")),
    };
    let n_flash = r.u64("flash count")?;
    let mut flash = Vec::with_capacity(n_flash.min(1024) as usize);
    for _ in 0..n_flash {
        flash.push(FlashRecord {
            swf_url: r.str("swf url")?,
            allow_script_access: r.opt_str("allow_script_access")?,
        });
    }
    let n_types = r.u64("resource-type count")? as usize;
    let mut resource_types = Vec::with_capacity(n_types.min(1024));
    for _ in 0..n_types {
        resource_types.push(r.u8("resource type")?);
    }
    let n_github = r.u64("github script count")?;
    let mut github_scripts = Vec::with_capacity(n_github.min(1024) as usize);
    for _ in 0..n_github {
        github_scripts.push(ScriptRecord {
            host: r.str("script host")?,
            url: r.str("script url")?,
            integrity: r.bool("script integrity")?,
            crossorigin: r.opt_str("script crossorigin")?,
        });
    }
    let external_scripts = r.u64("external script count")?;
    let external_scripts_without_integrity = r.u64("unprotected script count")?;
    let n_co = r.u64("crossorigin value count")?;
    let mut crossorigin_values = Vec::with_capacity(n_co.min(1024) as usize);
    for _ in 0..n_co {
        crossorigin_values.push(r.str("crossorigin value")?);
    }
    Ok(PageRecord {
        detections,
        wordpress,
        flash,
        resource_types,
        github_scripts,
        external_scripts,
        external_scripts_without_integrity,
        crossorigin_values,
    })
}

fn write_checked(path: &Path, magic: &[u8; 8], payload: &[u8]) -> Result<(), WatchError> {
    let mut out = Vec::with_capacity(payload.len() + 16);
    out.extend_from_slice(magic);
    let mut header = Vec::new();
    write_u64(&mut header, payload.len() as u64);
    write_u64(&mut header, u64::from(crc32(payload)));
    out.extend_from_slice(&header);
    out.extend_from_slice(payload);
    // Write to a temp name then rename, so a producer crash never leaves
    // a plausible-but-partial spool file under the real name.
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &out).map_err(|e| WatchError::io(&tmp, e))?;
    std::fs::rename(&tmp, path).map_err(|e| WatchError::io(path, e))
}

fn read_checked(path: &Path, magic: &[u8; 8]) -> Result<Vec<u8>, WatchError> {
    let data = std::fs::read(path).map_err(|e| WatchError::io(path, e))?;
    if data.len() < 8 || &data[..8] != magic {
        return Err(WatchError::corrupt(path, "bad magic"));
    }
    let mut cur = Cursor::new(&data[8..]);
    let len = cur
        .u64()
        .ok_or_else(|| WatchError::corrupt(path, "payload length"))?;
    let crc = cur
        .u64()
        .ok_or_else(|| WatchError::corrupt(path, "payload crc"))?;
    let start = 8 + cur.pos();
    if len != (data.len() - start) as u64 {
        return Err(WatchError::corrupt(path, "payload length mismatch"));
    }
    let payload = &data[start..];
    if u64::from(crc32(payload)) != crc {
        return Err(WatchError::corrupt(path, "payload crc mismatch"));
    }
    Ok(payload.to_vec())
}

/// Writes `week` as a self-checking spool file under `spool_dir`.
pub fn write_week_file(spool_dir: &Path, week: &WeekData) -> Result<PathBuf, WatchError> {
    std::fs::create_dir_all(spool_dir).map_err(|e| WatchError::io(spool_dir, e))?;
    let path = spool_dir.join(week_file_name(week.week));
    write_checked(&path, WEEK_MAGIC, &encode_week(week))?;
    Ok(path)
}

/// Reads and verifies one spool week file.
pub fn read_week_file(path: &Path) -> Result<WeekData, WatchError> {
    let payload = read_checked(path, WEEK_MAGIC)?;
    decode_week(path, &payload)
}

/// Lists spool week files as `(week index, path)`, sorted by week.
pub fn scan_spool(spool_dir: &Path) -> Result<Vec<(usize, PathBuf)>, WatchError> {
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
    std::fs::create_dir_all(spool_dir).map_err(|e| WatchError::io(spool_dir, e))?;
    let mut payload = Vec::new();
    write_i64(&mut payload, genesis.start_days);
    write_u64(&mut payload, genesis.weeks_total as u64);
    write_u64(&mut payload, genesis.ranks.len() as u64);
    for (host, rank) in &genesis.ranks {
        write_str(&mut payload, host);
        write_u64(&mut payload, *rank);
    }
    let path = spool_dir.join(GENESIS_FILE);
    write_checked(&path, GENESIS_MAGIC, &payload)?;
    Ok(path)
}

/// Reads the genesis bootstrap file.
pub fn read_genesis_file(path: &Path) -> Result<Genesis, WatchError> {
    let payload = read_checked(path, GENESIS_MAGIC)?;
    let mut cur = Cursor::new(&payload);
    let bad = |what: &str| WatchError::corrupt(path, what);
    let start_days = cur.i64().ok_or_else(|| bad("start_days"))?;
    let weeks_total = cur.u64().ok_or_else(|| bad("weeks_total"))? as usize;
    let n_ranks = cur.u64().ok_or_else(|| bad("rank count"))?;
    if n_ranks > payload.len() as u64 {
        return Err(bad("rank count"));
    }
    let mut ranks = Vec::with_capacity(n_ranks as usize);
    for _ in 0..n_ranks {
        let host = cur.str().ok_or_else(|| bad("rank host"))?;
        let rank = cur.u64().ok_or_else(|| bad("rank value"))?;
        ranks.push((host, rank));
    }
    if !cur.is_empty() {
        return Err(bad("trailing bytes"));
    }
    Ok(Genesis {
        start_days,
        weeks_total,
        ranks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
