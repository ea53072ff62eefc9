//! Framed, CRC-checked append-only log — the journaling primitive under
//! the alert outbox.
//!
//! Frame layout: `[len varint][crc32 varint][payload bytes]`, where the
//! CRC covers the payload only. A crash can tear at most the last frame;
//! [`read_frames`] stops at the first incomplete or CRC-failing frame and
//! reports how many clean bytes precede it, so reopening truncates the
//! torn tail and appends resume from a consistent prefix — the same heal
//! discipline as the snapshot store's segment log, re-implemented here
//! because the store keeps its codec private.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, Write};
use std::path::Path;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE, reflected) — table-driven, byte-at-a-time.
// ---------------------------------------------------------------------------

const POLY: u32 = 0xEDB8_8320;

const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = make_table();

/// CRC-32 of `data` (init and xor-out `0xFFFF_FFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        let idx = ((crc ^ u32::from(b)) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLE[idx];
    }
    crc ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Varints (LEB128; zigzag for signed).
// ---------------------------------------------------------------------------

/// Appends `value` as a LEB128 varint.
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `value` zigzag-encoded.
pub fn write_i64(out: &mut Vec<u8>, value: i64) {
    write_u64(out, ((value << 1) ^ (value >> 63)) as u64);
}

/// Appends a length-prefixed UTF-8 string.
pub fn write_str(out: &mut Vec<u8>, value: &str) {
    write_u64(out, value.len() as u64);
    out.extend_from_slice(value.as_bytes());
}

/// Sequential reader over an encoded byte slice; every accessor returns
/// `None` on underrun instead of panicking, so torn or corrupt input
/// degrades into a decode error at the caller.
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Starts reading at the beginning of `data`.
    pub fn new(data: &'a [u8]) -> Cursor<'a> {
        Cursor { data, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.data.len()
    }

    /// Next raw byte.
    pub fn u8(&mut self) -> Option<u8> {
        let b = *self.data.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    /// Next LEB128 varint.
    pub fn u64(&mut self) -> Option<u64> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 {
                return None;
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Some(value);
            }
            shift += 7;
        }
    }

    /// Next zigzag-encoded i64.
    pub fn i64(&mut self) -> Option<i64> {
        let raw = self.u64()?;
        Some(((raw >> 1) as i64) ^ -((raw & 1) as i64))
    }

    /// Next length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Option<String> {
        let len = self.u64()? as usize;
        if len > self.data.len().saturating_sub(self.pos) {
            return None;
        }
        let bytes = &self.data[self.pos..self.pos + len];
        self.pos += len;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

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
    loop {
        if cur.is_empty() {
            break;
        }
        let Some(len) = cur.u64() else { break };
        let Some(crc) = cur.u64() else { break };
        let len = len as usize;
        if len > data.len().saturating_sub(cur.pos()) {
            break;
        }
        let payload = &data[cur.pos()..cur.pos() + len];
        if u64::from(crc32(payload)) != crc {
            break;
        }
        payloads.push(payload.to_vec());
        for _ in 0..len {
            cur.u8();
        }
        clean_len = cur.pos() as u64;
    }
    Frames {
        payloads,
        clean_len,
    }
}

/// An append handle on a frame log whose torn tail (if any) has been
/// truncated away. Every append is flushed before returning.
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

    /// Appends one framed payload and flushes it to disk.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let mut buf = Vec::with_capacity(payload.len() + 12);
        write_frame(&mut buf, payload);
        self.file.write_all(&buf)?;
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn varints_round_trip() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            write_u64(&mut buf, v);
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -7_000_000] {
            write_i64(&mut buf, v);
        }
        write_str(&mut buf, "alert.example");
        let mut cur = Cursor::new(&buf);
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            assert_eq!(cur.u64(), Some(v));
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -7_000_000] {
            assert_eq!(cur.i64(), Some(v));
        }
        assert_eq!(cur.str().as_deref(), Some("alert.example"));
        assert!(cur.is_empty());
    }

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
            log.append(b"one").unwrap();
            log.append(b"two").unwrap();
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
            log.append(b"three").unwrap();
        }
        let (_, frames) = FrameLog::open(&path).unwrap();
        assert_eq!(
            frames.payloads,
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
        std::fs::remove_file(&path).unwrap();
    }
}
