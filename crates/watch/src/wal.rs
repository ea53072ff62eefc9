//! Framed, CRC-checked append-only log — the journaling primitive under
//! the alert outbox.
//!
//! Frame layout: `[len varint][crc32 varint][payload bytes]`, where the
//! CRC covers the payload only. The unit of durability is the *batch*:
//! [`FrameLog::append_frames`] writes any number of frames with one
//! `write_all` and one `sync_data` (a single frame is a batch of one). A
//! crash can tear the batch anywhere; [`read_frames`] stops at the first
//! incomplete or CRC-failing frame and reports how many clean bytes
//! precede it, so reopening keeps the batch's whole-frame prefix,
//! truncates the rest and appends resume from there — the same heal
//! discipline as the snapshot store's segment log, in the store's codec.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, Write};
use std::path::Path;
use webvuln_store::codec::{crc32, write_u64, Cursor};

/// Appends one CRC-framed payload to `out`.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    write_u64(out, payload.len() as u64);
    write_u64(out, u64::from(crc32(payload)));
    out.extend_from_slice(payload);
}

/// The clean prefix of a frame log: every fully-written, CRC-verified
/// payload plus the byte offset where the clean prefix ends.
pub struct Frames {
    /// Decoded payloads, in append order.
    pub payloads: Vec<Vec<u8>>,
    /// Length of the clean prefix; anything past it is a torn tail.
    pub clean_len: u64,
}

/// Scans `data`, stopping at the first incomplete or corrupt frame.
pub fn read_frames(data: &[u8]) -> Frames {
    let mut cur = Cursor::new(data);
    let mut payloads = Vec::new();
    let mut clean_len = 0u64;
    while !cur.is_empty() {
        let Some(len) = cur.len() else { break };
        let Some(crc) = cur.u64() else { break };
        let Some(payload) = cur.bytes(len) else { break };
        if u64::from(crc32(payload)) != crc {
            break;
        }
        payloads.push(payload.to_vec());
        clean_len = cur.pos() as u64;
    }
    Frames {
        payloads,
        clean_len,
    }
}

/// An append handle on a frame log whose torn tail (if any) has been
/// truncated away. Every batch is synced before its append returns.
pub struct FrameLog {
    file: File,
}

impl FrameLog {
    /// Opens (creating if absent) the log at `path`, heals the torn
    /// tail, and returns the handle plus the surviving payloads.
    pub fn open(path: &Path) -> io::Result<(FrameLog, Frames)> {
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let mut data = Vec::new();
        file.read_to_end(&mut data)?;
        let frames = read_frames(&data);
        if frames.clean_len < data.len() as u64 {
            file.set_len(frames.clean_len)?;
            file.sync_all()?;
        }
        // Position at the end of the clean prefix for appends.
        file.seek(io::SeekFrom::End(0))?;
        Ok((FrameLog { file }, frames))
    }

    /// Appends `frames` — [`write_frame`] outputs, back to back — with
    /// one write and one sync: all of them are durable on return.
    pub fn append_frames(&mut self, frames: &[u8]) -> io::Result<()> {
        self.file.write_all(frames)?;
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torn_tail_is_detected_at_every_cut() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first");
        write_frame(&mut buf, b"second payload");
        let whole = read_frames(&buf);
        assert_eq!(whole.payloads.len(), 2);
        assert_eq!(whole.clean_len, buf.len() as u64);
        let first_end = {
            let mut one = Vec::new();
            write_frame(&mut one, b"first");
            one.len()
        };
        for cut in first_end..buf.len() {
            let frames = read_frames(&buf[..cut]);
            assert_eq!(frames.payloads.len(), 1, "cut at {cut}");
            assert_eq!(frames.clean_len, first_end as u64, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_payload_stops_the_scan() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"first");
        let clean = buf.len();
        write_frame(&mut buf, b"second");
        let flip = clean + 3;
        buf[flip] ^= 0x40;
        let frames = read_frames(&buf);
        assert_eq!(frames.payloads.len(), 1);
        assert_eq!(frames.clean_len, clean as u64);
    }

    #[test]
    fn frame_log_heals_and_appends() {
        let dir = std::env::temp_dir().join(format!("wvwal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("heal.wal");
        let _ = std::fs::remove_file(&path);
        {
            let (mut log, frames) = FrameLog::open(&path).unwrap();
            assert!(frames.payloads.is_empty());
            let mut batch = Vec::new();
            write_frame(&mut batch, b"one");
            write_frame(&mut batch, b"two");
            log.append_frames(&batch).unwrap();
        }
        // Tear the tail by hand.
        let mut bytes = std::fs::read(&path).unwrap();
        let full = bytes.len();
        bytes.extend_from_slice(&[0x09, 0xFF, 0xFF]);
        std::fs::write(&path, &bytes).unwrap();
        {
            let (mut log, frames) = FrameLog::open(&path).unwrap();
            assert_eq!(frames.payloads, vec![b"one".to_vec(), b"two".to_vec()]);
            assert_eq!(frames.clean_len, full as u64);
            let mut batch = Vec::new();
            write_frame(&mut batch, b"three");
            log.append_frames(&batch).unwrap();
        }
        let (_, frames) = FrameLog::open(&path).unwrap();
        assert_eq!(
            frames.payloads,
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
        std::fs::remove_file(&path).unwrap();
    }
}
