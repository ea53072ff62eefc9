//! [`AnyReader`]: one read handle over both store layouts.
//!
//! A store path is either a single `.wvstore` file or a sharded-store
//! directory (a `MANIFEST` plus `shard-*.wvstore` files). Consumers —
//! the analysis loader, the serve layer, the CLI — should not care
//! which; `AnyReader` auto-detects the layout and presents the
//! single-file [`StoreReader`] API, with shard-health introspection
//! that degrades gracefully to "one healthy shard" for single files.

use crate::error::StoreError;
use crate::format::Genesis;
use crate::reader::StoreReader;
use crate::record::{DomainRecord, WeekData};
use crate::sharded::{ShardHealth, ShardedStoreReader};
use std::path::Path;

/// Read-only access to a snapshot store of either layout.
pub enum AnyReader {
    /// A single-file store.
    Single(StoreReader),
    /// A sharded store directory.
    Sharded(ShardedStoreReader),
}

impl AnyReader {
    /// Opens `path` strictly: a directory opens as a sharded store and
    /// every shard must be healthy; a file opens as a single-file store.
    pub fn open(path: &Path) -> Result<AnyReader, StoreError> {
        if path.is_dir() {
            Ok(AnyReader::Sharded(ShardedStoreReader::open(path)?))
        } else {
            Ok(AnyReader::Single(StoreReader::open(path)?))
        }
    }

    /// Opens `path` tolerantly: a sharded store opens as long as at
    /// least one shard is healthy, with the rest reported via
    /// [`AnyReader::shard_health`]. Single-file stores behave exactly
    /// like [`AnyReader::open`].
    pub fn open_degraded(path: &Path) -> Result<AnyReader, StoreError> {
        if path.is_dir() {
            Ok(AnyReader::Sharded(ShardedStoreReader::open_degraded(path)?))
        } else {
            Ok(AnyReader::Single(StoreReader::open(path)?))
        }
    }

    /// The study metadata (merged over healthy shards when sharded).
    pub fn genesis(&self) -> &Genesis {
        match self {
            AnyReader::Single(r) => r.genesis(),
            AnyReader::Sharded(r) => r.genesis(),
        }
    }

    /// Number of committed weeks.
    pub fn weeks_committed(&self) -> usize {
        match self {
            AnyReader::Single(r) => r.weeks_committed(),
            AnyReader::Sharded(r) => r.weeks_committed(),
        }
    }

    /// The stored filter verdict; `Some` only when finalized.
    pub fn filtered_out(&self) -> Option<&[String]> {
        match self {
            AnyReader::Single(r) => r.filtered_out(),
            AnyReader::Sharded(r) => r.filtered_out(),
        }
    }

    /// Whether the store was finalized.
    pub fn is_finalized(&self) -> bool {
        match self {
            AnyReader::Single(r) => r.is_finalized(),
            AnyReader::Sharded(r) => r.is_finalized(),
        }
    }

    /// Torn tail bytes dropped when the store was opened.
    pub fn torn_bytes(&self) -> u64 {
        match self {
            AnyReader::Single(r) => r.torn_bytes(),
            AnyReader::Sharded(r) => r.torn_bytes(),
        }
    }

    /// Total validated data bytes.
    pub fn data_bytes(&self) -> u64 {
        match self {
            AnyReader::Single(r) => r.data_bytes(),
            AnyReader::Sharded(r) => r.data_bytes(),
        }
    }

    /// The store path (file or directory).
    pub fn path(&self) -> &Path {
        match self {
            AnyReader::Single(r) => r.path(),
            AnyReader::Sharded(r) => r.path(),
        }
    }

    /// The snapshot date (days since epoch) of committed week `week`.
    pub fn week_date_days(&self, week: usize) -> Result<i64, StoreError> {
        match self {
            AnyReader::Single(r) => r.week_date_days(week),
            AnyReader::Sharded(r) => r.week_date_days(week),
        }
    }

    /// Fully decodes week `week` (merged and host-sorted when sharded).
    pub fn week(&self, week: usize) -> Result<WeekData, StoreError> {
        match self {
            AnyReader::Single(r) => r.week(week),
            AnyReader::Sharded(r) => r.week(week),
        }
    }

    /// Decodes only the records of week `week` whose host `keep`
    /// accepts; see [`StoreReader::week_where`].
    pub fn week_where(
        &self,
        week: usize,
        keep: impl Fn(&str) -> bool,
    ) -> Result<WeekData, StoreError> {
        match self {
            AnyReader::Single(r) => r.week_where(week, keep),
            AnyReader::Sharded(r) => r.week_where(week, keep),
        }
    }

    /// Iterates every committed week in order.
    pub fn iter_weeks(&self) -> impl Iterator<Item = Result<WeekData, StoreError>> + '_ {
        (0..self.weeks_committed()).map(move |week| self.week(week))
    }

    /// Streams every committed week, one decoded [`WeekData`] at a time
    /// — the entry point for the streaming analysis pass.
    pub fn stream(&self) -> crate::stream::WeekStream<'_> {
        crate::stream::WeekStream::over(self)
    }

    /// O(1) random access to one `(domain, week)` record.
    pub fn get(&self, domain: &str, week: usize) -> Result<DomainRecord, StoreError> {
        match self {
            AnyReader::Single(r) => r.get(domain, week),
            AnyReader::Sharded(r) => r.get(domain, week),
        }
    }

    /// Exhaustively verifies the store; returns per-week record counts.
    pub fn verify(&self) -> Result<Vec<usize>, StoreError> {
        match self {
            AnyReader::Single(r) => r.verify(),
            AnyReader::Sharded(r) => r.verify(),
        }
    }

    /// Delta statistics: `(backref_records, total_records)`.
    pub fn delta_stats(&self) -> Result<(usize, usize), StoreError> {
        match self {
            AnyReader::Single(r) => r.delta_stats(),
            AnyReader::Sharded(r) => r.delta_stats(),
        }
    }

    /// Number of shards (1 for a single-file store).
    pub fn shard_count(&self) -> usize {
        match self {
            AnyReader::Single(_) => 1,
            AnyReader::Sharded(r) => r.shard_count(),
        }
    }

    /// Whether any shard is unavailable (never for single files).
    pub fn is_degraded(&self) -> bool {
        match self {
            AnyReader::Single(_) => false,
            AnyReader::Sharded(r) => r.is_degraded(),
        }
    }

    /// Per-shard health, indexed by shard.
    pub fn shard_health(&self) -> Vec<ShardHealth> {
        match self {
            AnyReader::Single(_) => vec![ShardHealth::Healthy],
            AnyReader::Sharded(r) => r.shard_health().to_vec(),
        }
    }

    /// The shard `domain` routes to and, if that shard is unavailable,
    /// the reason. Single-file stores always answer `(0, None)`.
    pub fn shard_for(&self, domain: &str) -> (usize, Option<String>) {
        match self {
            AnyReader::Single(_) => (0, None),
            AnyReader::Sharded(r) => {
                let (shard, health) = r.shard_for(domain);
                match health {
                    ShardHealth::Healthy => (shard, None),
                    ShardHealth::Unavailable { detail } => (shard, Some(detail.clone())),
                }
            }
        }
    }
}
