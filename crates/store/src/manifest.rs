//! The sharded-store manifest: the group's single atomic commit point.
//!
//! A sharded store is a directory of per-shard store files plus one
//! `MANIFEST`. Each shard file is individually crash-consistent (torn
//! tails heal on resume), but only the manifest says which prefix of the
//! group is *committed*: a monotonic epoch, the committed week count, and
//! the finalized flag. Commits go write-new → fsync → atomic rename, so
//! a kill at any instant leaves either the old manifest or the new one —
//! never a torn mix — and shard progress beyond the manifest is rolled
//! back on resume.
//!
//! ```text
//! manifest := "WVSMANIF" u32le version u64le epoch u32le shards
//!             u64le weeks u8 finalized u32le crc
//!             crc = CRC-32 over everything before it
//! ```

use crate::crc32::crc32;
use crate::durable;
use crate::error::StoreError;
use std::fs;
use std::path::Path;

/// Manifest file magic.
pub const MANIFEST_MAGIC: [u8; 8] = *b"WVSMANIF";
/// Current (and only) manifest format version.
pub const MANIFEST_VERSION: u32 = 1;
/// File name of the committed manifest inside a sharded-store directory.
pub const MANIFEST_FILE: &str = "MANIFEST";
/// Encoded manifest length in bytes.
pub const MANIFEST_LEN: usize = 37;

/// The committed state of a sharded store: what every shard must agree on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Manifest {
    /// Monotonic commit counter; bumps on every create/commit/finalize.
    pub epoch: u64,
    /// Number of shard files in the group.
    pub shards: u32,
    /// Weeks committed across the whole group.
    pub weeks: u64,
    /// Whether the group carries the finalize verdict.
    pub finalized: bool,
}

impl Manifest {
    /// Serializes the manifest (fixed [`MANIFEST_LEN`] bytes).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(MANIFEST_LEN);
        out.extend_from_slice(&MANIFEST_MAGIC);
        out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.shards.to_le_bytes());
        out.extend_from_slice(&self.weeks.to_le_bytes());
        out.push(u8::from(self.finalized));
        out.extend_from_slice(&crc32(&out).to_le_bytes());
        out
    }

    /// Parses and CRC-checks a manifest.
    pub fn decode(bytes: &[u8]) -> Result<Manifest, StoreError> {
        if bytes.len() != MANIFEST_LEN {
            return Err(StoreError::corrupt(
                0,
                format!("manifest is {} bytes, expected {MANIFEST_LEN}", bytes.len()),
            ));
        }
        if bytes[..8] != MANIFEST_MAGIC {
            return Err(StoreError::corrupt(0, "manifest magic mismatch"));
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != MANIFEST_VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let stored = u32::from_le_bytes(bytes[33..37].try_into().expect("4 bytes"));
        if crc32(&bytes[..33]) != stored {
            return Err(StoreError::corrupt(33, "manifest CRC mismatch"));
        }
        Ok(Manifest {
            epoch: u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")),
            shards: u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes")),
            weeks: u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes")),
            finalized: bytes[32] != 0,
        })
    }
}

/// Reads the committed manifest. A missing manifest means the group was
/// never created (or died before its very first commit) and maps to
/// [`StoreError::MissingGenesis`], exactly like an empty single-file
/// store. A stale `MANIFEST.tmp` is the writer's: a reader leaves it, so a
/// read between a live commit's tmp sync and its rename cannot fail it.
pub fn load(dir: &Path) -> Result<Manifest, StoreError> {
    let path = dir.join(MANIFEST_FILE);
    match fs::read(&path) {
        Ok(bytes) => Manifest::decode(&bytes),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(StoreError::MissingGenesis),
        Err(e) => Err(StoreError::io(&path, e)),
    }
}

/// The one place a store's layout is read off its path: a directory is a
/// group and its committed manifest is loaded; a single file is one shard
/// with no manifest (`None`).
pub(crate) fn of(path: &Path) -> Result<Option<Manifest>, StoreError> {
    match path.is_dir() {
        true => load(path).map(Some),
        false => Ok(None),
    }
}

/// Atomically publishes `manifest` as the group's committed state through
/// [`durable::replace`] (`MANIFEST.tmp` → fsync → rename → directory
/// fsync). The rename is the commit point; the `store.manifest.rename`
/// fail-point fires just before it, so a chaos kill there leaves every
/// shard synced but the old manifest in force.
pub fn commit(dir: &Path, manifest: &Manifest) -> Result<(), StoreError> {
    durable::replace(&dir.join(MANIFEST_FILE), &manifest.encode(), || {
        webvuln_failpoint::failpoint!("store.manifest.rename")?;
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trips() {
        let m = Manifest {
            epoch: 17,
            shards: 8,
            weeks: 201,
            finalized: true,
        };
        assert_eq!(Manifest::decode(&m.encode()).expect("decode"), m);
    }

    #[test]
    fn corruption_is_detected() {
        let m = Manifest {
            epoch: 3,
            shards: 4,
            weeks: 9,
            finalized: false,
        };
        let mut bytes = m.encode();
        bytes[15] ^= 0x40;
        assert!(matches!(
            Manifest::decode(&bytes),
            Err(StoreError::Corrupt { .. })
        ));
        assert!(matches!(
            Manifest::decode(&bytes[..20]),
            Err(StoreError::Corrupt { .. })
        ));
    }

    /// A reader that lands between a live commit's tmp sync and its rename
    /// must leave the tmp alone, or the rename fails with `ENOENT`.
    #[test]
    fn load_leaves_the_scratch_and_the_next_commit_still_publishes() {
        let dir = std::env::temp_dir().join(format!("wvmanif-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let tmp = dir.join("MANIFEST.tmp");
        let m = Manifest {
            epoch: 2,
            shards: 2,
            weeks: 1,
            finalized: false,
        };
        commit(&dir, &m).expect("commit");
        std::fs::write(&tmp, b"a stale scratch longer than a manifest").expect("scratch");
        assert_eq!(load(&dir).expect("load"), m);
        assert!(tmp.exists(), "a reader deleted the writer's scratch");
        let next = Manifest { epoch: 3, ..m };
        commit(&dir, &next).expect("commit over the scratch");
        assert_eq!(load(&dir).expect("load"), next);
        assert!(!tmp.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_manifest_is_missing_genesis() {
        let dir = std::env::temp_dir().join(format!("wvmanif-none-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        assert!(matches!(load(&dir), Err(StoreError::MissingGenesis)));
        std::fs::remove_dir_all(&dir).ok();
    }
}
