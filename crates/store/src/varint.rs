//! LEB128 variable-length integers and zigzag signed encoding.
//!
//! Every multi-byte integer in the store format is a varint: weekly
//! snapshot records are dominated by small symbols, counts, and offsets,
//! so fixed-width fields would waste most of their bytes. Only envelope
//! fields that must be parseable before their contents (segment payload
//! lengths, CRCs) use fixed-width little-endian integers.

/// Appends `value` to `out` as an unsigned LEB128 varint (1–10 bytes).
pub fn write_u64(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `value` zigzag-mapped (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`),
/// so small negative numbers stay small on disk.
pub fn write_i64(out: &mut Vec<u8>, value: i64) {
    write_u64(out, ((value << 1) ^ (value >> 63)) as u64);
}

/// Appends `value` as a length-prefixed UTF-8 string.
pub fn write_str(out: &mut Vec<u8>, value: &str) {
    write_u64(out, value.len() as u64);
    out.extend_from_slice(value.as_bytes());
}

/// A bounds-checked forward reader over an in-memory byte slice.
///
/// All decoding errors collapse to `None`; callers translate that into a
/// typed corruption error carrying the file offset.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wraps `buf`, starting at its first byte.
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// Current position from the start of the slice.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True once the whole slice has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    /// Reads an unsigned LEB128 varint. Rejects encodings longer than ten
    /// bytes (the u64 maximum), so corrupt data cannot loop forever.
    pub fn u64(&mut self) -> Option<u64> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Some(value);
            }
        }
        None
    }

    /// Reads a zigzag-encoded signed varint.
    pub fn i64(&mut self) -> Option<i64> {
        let raw = self.u64()?;
        Some(((raw >> 1) as i64) ^ -((raw & 1) as i64))
    }

    /// Reads a varint and narrows it to `usize`.
    pub fn len(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// Reads exactly `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    /// Reads a length-prefixed UTF-8 string written by [`write_str`].
    pub fn str(&mut self) -> Option<String> {
        let len = self.len()?;
        String::from_utf8(self.bytes(len)?.to_vec()).ok()
    }

    /// Advances past `n` bytes without looking at them.
    pub(crate) fn skip(&mut self, n: usize) -> Option<()> {
        self.bytes(n).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The number of bytes [`write_u64`] would emit for `value`.
    fn len_u64(value: u64) -> usize {
        (64 - value.max(1).leading_zeros() as usize).div_ceil(7)
    }

    fn round_trip_u64(value: u64) {
        let mut buf = Vec::new();
        write_u64(&mut buf, value);
        assert_eq!(buf.len(), len_u64(value), "length prediction for {value}");
        let mut cur = Cursor::new(&buf);
        assert_eq!(cur.u64(), Some(value));
        assert!(cur.is_empty());
    }

    #[test]
    fn u64_round_trips() {
        for value in [
            0,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            round_trip_u64(value);
        }
    }

    #[test]
    fn i64_round_trips() {
        for value in [0i64, -1, 1, -64, 64, i32::MIN as i64, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            write_i64(&mut buf, value);
            let mut cur = Cursor::new(&buf);
            assert_eq!(cur.i64(), Some(value));
        }
    }

    #[test]
    fn strings_round_trip_and_reject_bad_lengths() {
        let mut buf = Vec::new();
        write_str(&mut buf, "héllo.example");
        write_str(&mut buf, "");
        let mut cur = Cursor::new(&buf);
        assert_eq!(cur.str().as_deref(), Some("héllo.example"));
        assert_eq!(cur.str().as_deref(), Some(""));
        assert!(cur.is_empty());
        // A length past the end, and bytes that are not UTF-8.
        assert_eq!(Cursor::new(&[5, b'a']).str(), None);
        assert_eq!(Cursor::new(&[2, 0xC3, 0x28]).str(), None);
    }

    #[test]
    fn small_values_are_one_byte() {
        for value in 0..128 {
            let mut buf = Vec::new();
            write_u64(&mut buf, value);
            assert_eq!(buf.len(), 1);
        }
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 1 << 40);
        for cut in 0..buf.len() {
            let mut cur = Cursor::new(&buf[..cut]);
            assert_eq!(cur.u64(), None, "cut at {cut}");
        }
    }

    #[test]
    fn overlong_encodings_are_rejected() {
        // Eleven continuation bytes cannot be a u64.
        let evil = [0x80u8; 11];
        assert_eq!(Cursor::new(&evil).u64(), None);
    }

    #[test]
    fn cursor_bounds() {
        let data = [1u8, 2, 3];
        let mut cur = Cursor::new(&data);
        assert_eq!(cur.bytes(2), Some(&data[..2]));
        assert_eq!(cur.bytes(2), None, "past the end");
        assert_eq!(cur.remaining(), 1);
        assert_eq!(cur.skip(1), Some(()));
        assert!(cur.is_empty());
    }
}
