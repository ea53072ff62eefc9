//! CRC-32 (IEEE 802.3, the zlib/PNG polynomial), table-driven.
//!
//! Every segment in a store file carries a CRC over its envelope and
//! payload; a mismatch marks the torn tail left by an interrupted commit.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// 256-entry lookup table, built at compile time.
static TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
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

/// An incremental CRC-32 state.
#[derive(Clone, Copy)]
pub(crate) struct Crc32(u32);

impl Crc32 {
    /// A fresh state.
    pub(crate) fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Folds `data` into the state.
    pub(crate) fn update(&mut self, data: &[u8]) {
        for &byte in data {
            self.0 = (self.0 >> 8) ^ TABLE[((self.0 ^ u32::from(byte)) & 0xff) as usize];
        }
    }

    /// The final checksum.
    pub(crate) fn finish(&self) -> u32 {
        self.0 ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

/// One-shot CRC of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut state = Crc32::new();
    state.update(data);
    state.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"weekly snapshot payload bytes";
        let mut state = Crc32::new();
        for chunk in data.chunks(7) {
            state.update(chunk);
        }
        assert_eq!(state.finish(), crc32(data));
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = b"segment payload".to_vec();
        let before = crc32(&data);
        data[4] ^= 0x01;
        assert_ne!(crc32(&data), before);
    }
}
