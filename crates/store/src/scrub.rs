//! Scrub: a full integrity walk over a store of either layout, with
//! optional repair. A single file is one shard with no manifest: its
//! committed weeks are the ones it holds, and its rebuilt prefix is its
//! rollback.
//!
//! Scrub decodes every record of every week in every shard — CRCs,
//! back-references, and index cross-checks included — and classifies
//! each shard. With `repair`:
//!
//! * torn tails are healed (truncated) exactly as resume would;
//! * a shard that ran ahead of the manifest is rolled back to it;
//! * a corrupt shard is **quarantined** (renamed `*.quarantined`) and
//!   **rebuilt** from its longest valid week prefix when the genesis
//!   still decodes — replaying the decoded weeks through a fresh writer
//!   reproduces the original bytes, since the encoding is deterministic;
//! * when a rebuilt or healed shard ends up with fewer weeks than the
//!   manifest published, the **group rolls back**: every shard is
//!   truncated to the shortest valid prefix and a new manifest (epoch
//!   bumped, finalize cleared) is committed, so a resumed study replays
//!   the missing weeks instead of serving a mixed epoch.
//!
//! A shard whose genesis cannot be decoded is unrecoverable: it stays
//! quarantined, the manifest is left untouched, and the store serves
//! degraded until the study is re-run. Scrub itself is crash-safe: it
//! quarantines *before* rebuilding, and a re-run salvages from the
//! quarantined file if a kill interrupted the rebuild.

use crate::error::StoreError;
use crate::manifest::{self, Manifest};
use crate::reader::StoreReader;
use crate::sharded::{shard_path, QUARANTINE_SUFFIX};
use crate::writer::StoreWriter;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// What scrub found (and, under repair, did) for one shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardStatus {
    /// Fully valid and consistent with the manifest.
    Clean,
    /// Valid data followed by torn tail bytes (repair heals this).
    TornTail,
    /// Torn tail dropped; all committed weeks intact.
    Healed,
    /// Holds weeks beyond the manifest (unpublished progress).
    Ahead,
    /// Holds fewer weeks than the manifest requires — a mixed epoch.
    Behind,
    /// Weeks dropped to match the group's shortest valid prefix.
    RolledBack,
    /// Structural corruption past what tail-truncation can heal.
    Corrupt,
    /// Set aside as `*.quarantined`; could not be rebuilt.
    Quarantined,
    /// Quarantined and rebuilt from its longest valid week prefix.
    Rebuilt,
}

impl fmt::Display for ShardStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let word = match self {
            ShardStatus::Clean => "clean",
            ShardStatus::TornTail => "torn-tail",
            ShardStatus::Healed => "healed",
            ShardStatus::Ahead => "ahead",
            ShardStatus::Behind => "behind",
            ShardStatus::RolledBack => "rolled-back",
            ShardStatus::Corrupt => "corrupt",
            ShardStatus::Quarantined => "quarantined",
            ShardStatus::Rebuilt => "rebuilt",
        };
        f.write_str(word)
    }
}

/// Per-shard scrub result.
#[derive(Debug, Clone)]
pub struct ShardScrub {
    /// Shard index (0 for a single-file store).
    pub shard: usize,
    /// The shard file path.
    pub path: String,
    /// Final classification.
    pub status: ShardStatus,
    /// Valid weeks found (after repair, weeks kept).
    pub weeks: usize,
    /// Records across those weeks.
    pub records: usize,
    /// Torn tail bytes found.
    pub torn_bytes: u64,
    /// Extra context: what was wrong, what repair did.
    pub detail: String,
}

/// Overall scrub verdict, in increasing severity. The CLI maps these to
/// distinct exit codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScrubOutcome {
    /// Every shard clean.
    Clean,
    /// Issues found; all repairable (or repaired) by healing/rollback.
    Healed,
    /// At least one shard corrupt or quarantined beyond rebuild.
    Quarantined,
}

/// The structured report scrub returns (and the CLI renders).
#[derive(Debug, Clone)]
pub struct ScrubReport {
    /// The store path scrubbed.
    pub store: String,
    /// Whether the store is sharded.
    pub sharded: bool,
    /// Manifest epoch before scrub (sharded only).
    pub epoch_before: Option<u64>,
    /// Manifest epoch after scrub — differs only when a group rollback
    /// committed a new manifest.
    pub epoch_after: Option<u64>,
    /// Week count the group was rolled back to, when a rollback happened.
    pub rolled_back_to: Option<usize>,
    /// Per-shard results.
    pub shards: Vec<ShardScrub>,
    /// Overall verdict.
    pub outcome: ScrubOutcome,
    /// Whether repair was requested.
    pub repaired: bool,
}

impl ScrubReport {
    /// Renders the report as the CLI prints it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let kind = if self.sharded {
            format!("sharded, {} shards", self.shards.len())
        } else {
            "single-file".to_string()
        };
        let epoch = match (self.epoch_before, self.epoch_after) {
            (Some(before), Some(after)) if before != after => {
                format!(", epoch {before} -> {after}")
            }
            (Some(before), _) => format!(", epoch {before}"),
            _ => String::new(),
        };
        out.push_str(&format!(
            "scrub report for {} ({kind}{epoch})\n",
            self.store
        ));
        for shard in &self.shards {
            let torn = if shard.torn_bytes > 0 {
                format!("  torn={}B", shard.torn_bytes)
            } else {
                String::new()
            };
            let detail = if shard.detail.is_empty() {
                String::new()
            } else {
                format!("  [{}]", shard.detail)
            };
            out.push_str(&format!(
                "  shard {:03}  {:>3} weeks  {:>6} records  {}{torn}{detail}\n",
                shard.shard, shard.weeks, shard.records, shard.status
            ));
        }
        if let Some(weeks) = self.rolled_back_to {
            out.push_str(&format!("group rolled back to {weeks} weeks\n"));
        }
        let verdict = match self.outcome {
            ScrubOutcome::Clean => "clean",
            ScrubOutcome::Healed if self.repaired => "healed",
            ScrubOutcome::Healed => "repairable issues found (run with --repair)",
            ScrubOutcome::Quarantined => "corrupt shards quarantined",
        };
        out.push_str(&format!("outcome: {verdict}\n"));
        out
    }
}

/// What one source file (a shard, or its quarantined copy) holds.
struct SourceAssess {
    path: PathBuf,
    /// Longest prefix of weeks that fully decode.
    valid_weeks: usize,
    /// Records across the valid prefix.
    records: usize,
    /// Whether every committed week (and the finalize, if any) decoded.
    fully_valid: bool,
    /// Weeks the file claims to hold.
    claimed_weeks: usize,
    torn_bytes: u64,
    finalized: bool,
    filtered_out: Option<Vec<String>>,
    first_error: Option<String>,
}

/// Walks one store file, counting the longest fully-decodable week
/// prefix. Fails, with the reason, when the file is missing or will not
/// open at all (no usable genesis).
fn assess_source(path: &Path) -> Result<SourceAssess, String> {
    if !path.exists() {
        return Err(format!("{}: shard file missing", path.display()));
    }
    let reader = match StoreReader::open(path) {
        Ok(reader) => reader,
        Err(err) => return Err(format!("{}: {err}", path.display())),
    };
    let claimed = reader.weeks_committed();
    let mut valid = 0;
    let mut records = 0;
    let mut first_error = None;
    for week in 0..claimed {
        match reader.week(week) {
            Ok(data) => {
                valid += 1;
                records += data.records.len();
            }
            Err(err) => {
                first_error = Some(format!("week {week}: {err}"));
                break;
            }
        }
    }
    Ok(SourceAssess {
        path: path.to_path_buf(),
        valid_weeks: valid,
        records,
        fully_valid: valid == claimed,
        claimed_weeks: claimed,
        torn_bytes: reader.torn_bytes(),
        finalized: reader.is_finalized(),
        filtered_out: reader.filtered_out().map(|f| f.to_vec()),
        first_error,
    })
}

/// Decodes weeks `0..weeks` from `source` and replays them, one at a
/// time, through a fresh writer at `dest`. Deterministic encoding makes
/// the rebuilt prefix byte-identical to what the original writer produced.
fn rebuild_shard(
    source: &Path,
    dest: &Path,
    weeks: usize,
    finalize: Option<&[String]>,
) -> Result<(), StoreError> {
    let reader = StoreReader::open(source)?;
    let mut writer = StoreWriter::overwrite(dest, reader.genesis().clone())?;
    for week in 0..weeks {
        writer.commit_week(&reader.week(week)?)?;
    }
    if let Some(filtered) = finalize {
        writer.finalize(filtered)?;
    }
    Ok(())
}

/// Scrubs the store at `path`, either layout: a single file is one shard
/// with no manifest, whose committed weeks are the ones it holds.
/// Read-only without `repair`; see the module docs for what repair does.
pub fn scrub(path: &Path, repair: bool) -> Result<ScrubReport, StoreError> {
    let manifest = manifest::of(path)?;
    let paths: Vec<PathBuf> = match manifest {
        Some(m) => (0..m.shards as usize)
            .map(|i| shard_path(path, i))
            .collect(),
        None => vec![path.to_path_buf()],
    };

    // Phase A: assess every shard (and, for crash recovery of an
    // interrupted rebuild, its quarantined copy — whichever holds more).
    let mut assessments: Vec<Result<SourceAssess, String>> = Vec::with_capacity(paths.len());
    for (index, path) in paths.iter().enumerate() {
        let key = index.to_string();
        let _ = webvuln_failpoint::failpoint!("store.scrub", &key)?;
        let quarantined = quarantine_path(path);
        let primary = assess_source(path);
        let fallback = if quarantined.exists() {
            assess_source(&quarantined).ok()
        } else {
            None
        };
        let chosen = match (primary, fallback) {
            (Ok(p), Some(q)) if q.valid_weeks > p.valid_weeks => Ok(q),
            (Ok(p), _) => Ok(p),
            (Err(_), Some(q)) => Ok(q),
            (Err(e), None) => Err(e),
        };
        assessments.push(chosen);
    }

    // What the store published: the manifest's weeks, or the file's own.
    let (committed, finalized) = match (manifest, &assessments[0]) {
        (Some(m), _) => (m.weeks as usize, m.finalized),
        (None, Ok(file)) => (file.claimed_weeks, file.finalized),
        (None, Err(_)) => (0, false),
    };

    // Phase B: decide the group target and apply per-shard repairs.
    let recoverable = assessments.iter().all(|a| a.is_ok());
    let target = assessments
        .iter()
        .flatten()
        .map(|a| a.valid_weeks)
        .min()
        .unwrap_or(0)
        .min(committed);
    let group_finalized = finalized
        && recoverable
        && target == committed
        && assessments
            .iter()
            .flatten()
            .all(|a| a.fully_valid && a.finalized);

    let mut report_shards = Vec::with_capacity(paths.len());
    for (index, (assess, path)) in assessments.iter().zip(&paths).enumerate() {
        let key = index.to_string();
        let _ = webvuln_failpoint::failpoint!("store.scrub", &key)?;
        let mut shard = ShardScrub {
            shard: index,
            path: path.display().to_string(),
            status: ShardStatus::Clean,
            weeks: 0,
            records: 0,
            torn_bytes: 0,
            detail: String::new(),
        };
        match assess {
            Err(detail) => {
                shard.status = if repair {
                    if path.exists() {
                        quarantine(path)?;
                    }
                    ShardStatus::Quarantined
                } else {
                    ShardStatus::Corrupt
                };
                shard.detail = format!("{detail}; genesis unreadable, cannot rebuild");
            }
            Ok(assess) => {
                shard.weeks = assess.valid_weeks.min(committed);
                shard.records = assess.records;
                shard.torn_bytes = assess.torn_bytes;
                let from_quarantine = &assess.path != path;
                let needs_rebuild = from_quarantine || !assess.fully_valid;
                let shard_target = if recoverable && repair {
                    target
                } else {
                    shard.weeks
                };
                if needs_rebuild {
                    shard.status = ShardStatus::Corrupt;
                    shard.detail = assess
                        .first_error
                        .clone()
                        .unwrap_or_else(|| "rebuilding from quarantined copy".to_string());
                    if repair && recoverable {
                        if !from_quarantine {
                            quarantine(path)?;
                        }
                        let finalize = if group_finalized {
                            assess.filtered_out.as_deref()
                        } else {
                            None
                        };
                        rebuild_shard(&quarantine_path(path), path, shard_target, finalize)?;
                        shard.status = ShardStatus::Rebuilt;
                        shard.weeks = shard_target;
                        shard.detail = format!(
                            "{}; rebuilt {shard_target} weeks from quarantined copy",
                            shard.detail
                        );
                    }
                } else if repair && recoverable {
                    let mut writer = StoreWriter::resume(path)?;
                    if writer.weeks_committed() > shard_target
                        || (writer.is_finalized() && !group_finalized)
                    {
                        writer = writer.truncate_to_weeks(shard_target)?;
                        shard.status = if shard_target < committed {
                            ShardStatus::RolledBack
                        } else {
                            ShardStatus::Healed
                        };
                        shard.detail = format!("truncated to {} weeks", writer.weeks_committed());
                    } else if assess.torn_bytes > 0 {
                        shard.status = ShardStatus::Healed;
                        shard.detail = format!("dropped {} torn tail bytes", assess.torn_bytes);
                    }
                    shard.weeks = writer.weeks_committed();
                } else {
                    // Assessment only: report what repair would address.
                    if assess.claimed_weeks > committed || (assess.finalized && !finalized) {
                        shard.status = ShardStatus::Ahead;
                        shard.detail = format!(
                            "{} weeks on disk, manifest has {committed}",
                            assess.claimed_weeks
                        );
                    } else if assess.claimed_weeks < committed {
                        shard.status = ShardStatus::Behind;
                        shard.detail = format!(
                            "mixed epoch: {} weeks on disk, manifest requires {committed}",
                            assess.claimed_weeks
                        );
                    } else if assess.torn_bytes > 0 {
                        shard.status = ShardStatus::TornTail;
                    }
                }
            }
        }
        report_shards.push(shard);
    }

    // Phase C: publish the rollback, if the store needs one: a new
    // manifest for a group; a file's repaired prefix is its own.
    let mut epoch_after = manifest.map(|m| m.epoch);
    let mut rolled_back_to = None;
    if repair && recoverable && (target < committed || (finalized && !group_finalized)) {
        if let Some(m) = manifest {
            let next = Manifest {
                epoch: m.epoch + 1,
                weeks: target as u64,
                finalized: group_finalized,
                ..m
            };
            manifest::commit(path, &next)?;
            epoch_after = Some(next.epoch);
        }
        rolled_back_to = Some(target);
    }

    let outcome = outcome_of(&report_shards);
    Ok(ScrubReport {
        store: path.display().to_string(),
        sharded: manifest.is_some(),
        epoch_before: manifest.map(|m| m.epoch),
        epoch_after,
        rolled_back_to,
        shards: report_shards,
        outcome,
        repaired: repair,
    })
}

fn outcome_of(shards: &[ShardScrub]) -> ScrubOutcome {
    if shards
        .iter()
        .any(|s| matches!(s.status, ShardStatus::Quarantined))
    {
        return ScrubOutcome::Quarantined;
    }
    if shards
        .iter()
        .any(|s| matches!(s.status, ShardStatus::Corrupt | ShardStatus::Behind))
    {
        // Unrepaired corruption (assessment mode, or a shard that could
        // not be rebuilt) is the severe verdict too — rebuilt/healed
        // shards are not.
        return ScrubOutcome::Quarantined;
    }
    if shards.iter().all(|s| s.status == ShardStatus::Clean) {
        ScrubOutcome::Clean
    } else {
        ScrubOutcome::Healed
    }
}

pub(crate) fn quarantine_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".");
    name.push(QUARANTINE_SUFFIX);
    PathBuf::from(name)
}

fn quarantine(path: &Path) -> Result<(), StoreError> {
    let dest = quarantine_path(path);
    fs::rename(path, &dest).map_err(|e| StoreError::io(path, e))
}
