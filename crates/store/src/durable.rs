//! Durable files: the two shapes in which bytes reach a disk outside a
//! store's segment file, and nothing else in the workspace opens a file
//! for writing, syncs one or renames one into place (`writer.rs` aside).
//!
//! * [`AppendLog`] — an append-only log with a *clean rule* (the length of
//!   the prefix its owner trusts): opening cuts the rest and syncs the cut,
//!   an append is one write at the clean length plus one `sync_data`. The
//!   watch daemon's `outbox.wal` (whole frames), `alerts.log` and
//!   `deltas.applied` ([`complete_lines`]).
//! * [`replace`] — `<name>.tmp` written and synced, a caller hook, the
//!   rename, the directory synced: the sharded `MANIFEST`, spool files.
//!
//! A segment file is neither — its writer rewrites a footer past the data
//! end and splits a segment around a fail-point — so it keeps its own I/O.

use crate::error::StoreError;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// The clean rule of a text log: every byte through the last newline.
pub fn complete_lines(bytes: &[u8]) -> usize {
    let last = bytes.iter().rposition(|&b| b == b'\n');
    last.map_or(0, |pos| pos + 1)
}

/// An append-only log healed to its clean prefix. One live handle per
/// file: a handle writes at the length it last synced, so a second one
/// would write over the first's appends.
pub struct AppendLog {
    file: File,
    path: PathBuf,
    len: u64,
    syncs: u64,
    /// An append failed part-way: bytes past `len` may be on disk.
    torn: bool,
}

impl AppendLog {
    /// Opens (creating if absent) the log at `path`, cuts everything past
    /// `clean(&bytes)`, syncs the cut, and returns the handle plus the
    /// clean bytes.
    pub fn open(path: &Path, clean: fn(&[u8]) -> usize) -> Result<(Self, Vec<u8>), StoreError> {
        let io = |e| StoreError::io(path, e);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)
            .map_err(io)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes).map_err(io)?;
        let len = clean(&bytes);
        if len < bytes.len() {
            file.set_len(len as u64)
                .and_then(|()| file.sync_all())
                .map_err(io)?;
            bytes.truncate(len);
        }
        let log = Self {
            file,
            path: path.to_path_buf(),
            len: len as u64,
            syncs: 0,
            torn: false,
        };
        Ok((log, bytes))
    }

    /// Appends `bytes` — one write at the clean length, one `sync_data` —
    /// and touches nothing when they are empty. After a failed append the
    /// next one first cuts the file back, so a torn write never fuses
    /// with the write after it.
    pub fn append(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        if bytes.is_empty() {
            return Ok(());
        }
        let cut = std::mem::replace(&mut self.torn, true);
        let (file, len) = (&mut self.file, self.len);
        if cut { file.set_len(len) } else { Ok(()) }
            .and_then(|()| file.seek(SeekFrom::Start(len)))
            .and_then(|_| file.write_all(bytes))
            .and_then(|()| file.sync_data())
            .map_err(|e| StoreError::io(&self.path, e))?;
        self.torn = false;
        self.len += bytes.len() as u64;
        self.syncs += 1;
        Ok(())
    }

    /// Appends synced since open.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }
}

/// Atomically replaces `path` with `bytes`: writes and syncs
/// `path.with_extension("tmp")`, runs `before_rename`, renames the tmp
/// over `path` (the commit point), then syncs the directory, best effort.
/// A kill or a failed hook leaves the old file whole, and the tmp it
/// leaves is truncated by the next replace.
pub fn replace(
    path: &Path,
    bytes: &[u8],
    before_rename: impl FnOnce() -> Result<(), StoreError>,
) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    File::create(&tmp)
        .and_then(|mut file| file.write_all(bytes).and_then(|()| file.sync_data()))
        .map_err(|e| StoreError::io(&tmp, e))?;
    before_rename()?;
    fs::rename(&tmp, path).map_err(|e| StoreError::io(path, e))?;
    if let Some(dir) = path.parent().and_then(|dir| File::open(dir).ok()) {
        let _ = dir.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{crc32, write_u64, Cursor};
    use webvuln_failpoint::check::{self, Gen};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wvdurable-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    /// The watch WAL's frame, `[len][crc32][payload]`.
    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_u64(&mut out, payload.len() as u64);
        write_u64(&mut out, u64::from(crc32(payload)));
        out.extend_from_slice(payload);
        out
    }

    /// The WAL's clean rule: through the last whole, CRC-clean frame.
    fn whole_frames(bytes: &[u8]) -> usize {
        let mut cur = Cursor::new(bytes);
        let mut clean = 0;
        while let (Some(len), Some(crc)) = (cur.len(), cur.u64()) {
            match cur.bytes(len) {
                Some(payload) if u64::from(crc32(payload)) == crc => clean = cur.pos(),
                _ => break,
            }
        }
        clean
    }

    /// A torn run reopens to its longest clean prefix, keeps every synced
    /// byte before the cut, and replaying what was lost — the rest of the
    /// torn batch as one append, then every later batch — writes the
    /// untorn run's bytes; an empty append (a batch kept whole) syncs
    /// nothing.
    #[test]
    fn a_torn_log_reopens_to_its_clean_prefix_and_replays_to_the_same_bytes() {
        let dir = tmp("torn");
        check::run("append log heals any cut", 256, |g: &mut Gen| {
            let lines = g.bool();
            let rule: fn(&[u8]) -> usize = if lines { complete_lines } else { whole_frames };
            let record = |g: &mut Gen| {
                let mut body = g.bytes(0..=12);
                if !lines {
                    return frame(&body);
                }
                body.retain(|&b| b != b'\n');
                body.push(b'\n');
                body
            };
            let batches = g.vec(1..=6, |g| g.vec(1..=4, record));
            let path = dir.join(if lines { "run.log" } else { "run.wal" });
            let _ = fs::remove_file(&path);

            // The untorn run: every record's end and every synced length.
            let (mut log, clean) = AppendLog::open(&path, rule).expect("open");
            assert!(clean.is_empty());
            let (mut ends, mut synced) = (vec![0u64], vec![0u64]);
            for batch in &batches {
                for record in batch {
                    ends.push(ends.last().unwrap() + record.len() as u64);
                }
                log.append(&batch.concat()).expect("append");
                assert_eq!(log.len, *ends.last().unwrap());
                synced.push(log.len);
            }
            assert_eq!(log.syncs(), batches.len() as u64);
            drop(log);
            let full = fs::read(&path).expect("read");

            let cut = g.range(0..=full.len() as u64);
            let whole = ends.iter().rposition(|&end| end <= cut).unwrap();
            fs::write(&path, &full[..cut as usize]).expect("tear");
            let (mut log, clean) = AppendLog::open(&path, rule).expect("reopen");
            assert_eq!(clean, &full[..ends[whole] as usize], "cut at {cut}");
            assert_eq!(log.len, ends[whole], "cut at {cut}");
            let last_synced = synced.iter().rev().find(|&&len| len <= cut).unwrap();
            assert!(log.len >= *last_synced, "cut at {cut} lost a synced byte");
            assert_eq!(fs::metadata(&path).expect("stat").len(), log.len);

            let (mut seen, mut appends) = (0, 0);
            for batch in &batches {
                let lost = batch.iter().skip(whole.saturating_sub(seen)).flatten();
                let lost: Vec<u8> = lost.copied().collect();
                appends += u64::from(!lost.is_empty());
                log.append(&lost).expect("replay");
                seen += batch.len();
            }
            assert_eq!(log.syncs(), appends, "an empty append synced");
            drop(log);
            assert_eq!(fs::read(&path).expect("read"), full, "cut at {cut}");
        });
        let _ = fs::remove_dir_all(&dir);
    }

    /// A hook that fails leaves the old file whole; the tmp it leaves,
    /// however long, is harmless to the next replace.
    #[test]
    fn a_failed_replace_keeps_the_old_file_and_its_tmp_is_harmless() {
        let dir = tmp("replace");
        let path = dir.join("MANIFEST");
        replace(&path, b"old", || Ok(())).expect("first replace");
        let failed = replace(&path, b"new", || {
            Err(StoreError::Injected {
                site: "test".to_string(),
            })
        });
        assert!(failed.is_err());
        assert_eq!(fs::read(&path).expect("read"), b"old");
        assert_eq!(fs::read(dir.join("MANIFEST.tmp")).expect("tmp"), b"new");
        fs::write(dir.join("MANIFEST.tmp"), b"a much longer stale scratch").expect("stale");
        replace(&path, b"next", || Ok(())).expect("replace over stale tmp");
        assert_eq!(fs::read(&path).expect("read"), b"next");
        assert!(!dir.join("MANIFEST.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }
}
