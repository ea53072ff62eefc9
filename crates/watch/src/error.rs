//! The watch crate's error type.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use webvuln_store::StoreError;

/// Everything that can go wrong in the watch loop.
#[derive(Debug)]
pub enum WatchError {
    /// Filesystem failure, with the path involved.
    Io {
        /// The file or directory being touched.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// The snapshot store refused an operation.
    Store(StoreError),
    /// A spool, genesis, or outbox file failed to decode.
    Corrupt {
        /// The offending file.
        path: PathBuf,
        /// What failed to decode.
        detail: String,
    },
    /// A CVE delta file failed to parse.
    Delta {
        /// The offending file.
        path: PathBuf,
        /// The parser's message.
        detail: String,
    },
    /// A fail-point injected an error.
    Injected(webvuln_failpoint::Injected),
}

impl WatchError {
    /// Wraps an [`io::Error`] with its path.
    pub(crate) fn io(path: &Path, source: io::Error) -> WatchError {
        WatchError::Io {
            path: path.to_path_buf(),
            source,
        }
    }

    /// A decode failure at `path`.
    pub(crate) fn corrupt(path: &Path, detail: impl Into<String>) -> WatchError {
        WatchError::Corrupt {
            path: path.to_path_buf(),
            detail: detail.into(),
        }
    }
}

impl fmt::Display for WatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WatchError::Io { path, source } => {
                write!(f, "watch i/o error at {}: {source}", path.display())
            }
            WatchError::Store(e) => write!(f, "watch store error: {e}"),
            WatchError::Corrupt { path, detail } => {
                write!(f, "corrupt watch file {}: {detail}", path.display())
            }
            WatchError::Delta { path, detail } => {
                write!(f, "bad CVE delta {}: {detail}", path.display())
            }
            WatchError::Injected(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for WatchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WatchError::Io { source, .. } => Some(source),
            WatchError::Store(e) => Some(e),
            WatchError::Injected(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for WatchError {
    fn from(e: StoreError) -> WatchError {
        WatchError::Store(e)
    }
}

impl From<webvuln_failpoint::Injected> for WatchError {
    fn from(e: webvuln_failpoint::Injected) -> WatchError {
        WatchError::Injected(e)
    }
}
