//! Framed, CRC-checked append-only log — the journal format under the
//! alert outbox.
//!
//! Frame layout: `[len varint][crc32 varint][payload bytes]`, where the
//! CRC covers the payload only. The unit of durability is the *batch*:
//! any number of frames go down with one [`AppendLog::append`] — one
//! write, one `sync_data` (a single frame is a batch of one). A crash can
//! tear the batch anywhere; [`read_frames`] stops at the first incomplete
//! or CRC-failing frame and reports how many clean bytes precede it, and
//! that `clean_len` is the log's clean rule: reopening keeps the batch's
//! whole-frame prefix, truncates the rest and appends resume from there.
//!
//! [`AppendLog::append`]: webvuln_store::durable::AppendLog::append

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

#[cfg(test)]
mod tests {
    use super::*;
    use webvuln_store::durable::AppendLog;

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
        let open = || {
            let (log, clean) =
                AppendLog::open(&path, |b| read_frames(b).clean_len as usize).unwrap();
            (log, read_frames(&clean))
        };
        {
            let (mut log, frames) = open();
            assert!(frames.payloads.is_empty());
            let mut batch = Vec::new();
            write_frame(&mut batch, b"one");
            write_frame(&mut batch, b"two");
            log.append(&batch).unwrap();
        }
        // Tear the tail by hand.
        let mut bytes = std::fs::read(&path).unwrap();
        let full = bytes.len();
        bytes.extend_from_slice(&[0x09, 0xFF, 0xFF]);
        std::fs::write(&path, &bytes).unwrap();
        {
            let (mut log, frames) = open();
            assert_eq!(frames.payloads, vec![b"one".to_vec(), b"two".to_vec()]);
            assert_eq!(frames.clean_len, full as u64);
            let mut batch = Vec::new();
            write_frame(&mut batch, b"three");
            log.append(&batch).unwrap();
        }
        let (_, frames) = open();
        assert_eq!(
            frames.payloads,
            vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()]
        );
        std::fs::remove_file(&path).unwrap();
    }
}
