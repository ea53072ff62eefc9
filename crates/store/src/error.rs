//! Typed store errors.

use std::fmt;
use std::io;

/// Everything that can go wrong opening, reading, or writing a store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure, annotated with the file path.
    Io {
        /// The store file involved.
        path: String,
        /// The operating-system error.
        source: io::Error,
    },
    /// The file does not start with the store magic — not a store file.
    BadMagic,
    /// The file uses a format version this build cannot read.
    UnsupportedVersion(u32),
    /// Structurally invalid bytes at `offset`.
    Corrupt {
        /// Absolute file offset of the bad bytes.
        offset: u64,
        /// What failed to parse.
        detail: String,
    },
    /// The file has no valid genesis segment (timeline + ranks).
    MissingGenesis,
    /// A week was committed out of sequence.
    WeekOutOfOrder {
        /// The week the store expected next.
        expected: usize,
        /// The week the caller tried to commit.
        got: usize,
    },
    /// The store already carries a finalize segment; nothing may follow it.
    AlreadyFinalized,
    /// The store's genesis disagrees with the caller's study configuration.
    Mismatch(String),
    /// Random access asked for a domain the store has never seen.
    UnknownDomain(String),
    /// Random access asked for a week beyond the committed range.
    UnknownWeek(usize),
    /// A shard of a sharded store cannot be served (missing, corrupt,
    /// quarantined, or inconsistent with the manifest). Query routing
    /// uses this to tell "shard down" (retryable, 503) apart from
    /// "domain unknown" (404).
    ShardUnavailable {
        /// The shard index.
        shard: usize,
        /// Why the shard cannot be served.
        detail: String,
    },
    /// A shard holds fewer weeks than the group manifest requires — a
    /// mixed-epoch store no crash can produce (the manifest only
    /// commits after every shard synced), so resume refuses it.
    ShardBehind {
        /// The shard index.
        shard: usize,
        /// Weeks the shard actually holds.
        shard_weeks: usize,
        /// Weeks the manifest requires.
        manifest_weeks: usize,
    },
    /// A deterministic fail-point injected this failure (chaos testing;
    /// never produced by real I/O).
    Injected {
        /// The fail-point site that fired.
        site: String,
    },
    /// Supervised execution quarantined more tasks than the
    /// `--max-task-failures` budget allows; the run gave up rather than
    /// degrade further.
    FailureBudgetExceeded {
        /// Tasks quarantined so far.
        failures: u64,
        /// The configured budget.
        budget: u64,
    },
}

impl StoreError {
    /// Builds a [`StoreError::Corrupt`].
    pub(crate) fn corrupt(offset: u64, detail: impl Into<String>) -> StoreError {
        StoreError::Corrupt {
            offset,
            detail: detail.into(),
        }
    }

    /// Wraps an I/O error with the path it happened on.
    pub(crate) fn io(path: &std::path::Path, source: io::Error) -> StoreError {
        StoreError::Io {
            path: path.display().to_string(),
            source,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => write!(f, "store I/O error on {path}: {source}"),
            StoreError::BadMagic => write!(f, "not a webvuln store file (bad magic)"),
            StoreError::UnsupportedVersion(v) => {
                write!(f, "unsupported store format version {v}")
            }
            StoreError::Corrupt { offset, detail } => {
                write!(f, "corrupt store data at byte {offset}: {detail}")
            }
            StoreError::MissingGenesis => write!(f, "store has no valid genesis segment"),
            StoreError::WeekOutOfOrder { expected, got } => {
                write!(f, "week {got} committed out of order (expected {expected})")
            }
            StoreError::AlreadyFinalized => write!(f, "store is finalized; no further commits"),
            StoreError::Mismatch(detail) => write!(f, "store/config mismatch: {detail}"),
            StoreError::UnknownDomain(domain) => write!(f, "domain {domain:?} not in store"),
            StoreError::UnknownWeek(week) => write!(f, "week {week} not committed"),
            StoreError::ShardUnavailable { shard, detail } => {
                write!(f, "shard {shard} unavailable: {detail}")
            }
            StoreError::ShardBehind {
                shard,
                shard_weeks,
                manifest_weeks,
            } => {
                write!(
                    f,
                    "shard {shard} is behind the manifest: {shard_weeks} weeks on disk, \
                     manifest requires {manifest_weeks} (mixed-epoch store; refusing to open)"
                )
            }
            StoreError::Injected { site } => {
                write!(f, "injected failure at fail-point '{site}'")
            }
            StoreError::FailureBudgetExceeded { failures, budget } => {
                write!(
                    f,
                    "task-failure budget exceeded: {failures} tasks quarantined (budget {budget})"
                )
            }
        }
    }
}

impl From<webvuln_failpoint::Injected> for StoreError {
    fn from(injected: webvuln_failpoint::Injected) -> StoreError {
        StoreError::Injected {
            site: injected.site.to_string(),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let err = StoreError::corrupt(1234, "bad week header");
        assert_eq!(
            err.to_string(),
            "corrupt store data at byte 1234: bad week header"
        );
        let err = StoreError::io(
            std::path::Path::new("/tmp/x.store"),
            io::Error::new(io::ErrorKind::NotFound, "gone"),
        );
        assert!(err.to_string().contains("/tmp/x.store"), "{err}");
        let err = StoreError::WeekOutOfOrder {
            expected: 5,
            got: 9,
        };
        assert!(err.to_string().contains("expected 5"), "{err}");
    }
}
