//! Scrub: a full integrity walk over a store (single-file or sharded)
//! with optional repair.
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
    let mut writer = StoreWriter::create(dest, reader.genesis().clone())?;
    for week in 0..weeks {
        writer.commit_week(&reader.week(week)?)?;
    }
    if let Some(filtered) = finalize {
        writer.finalize(filtered)?;
    }
    Ok(())
}

/// Scrubs the store at `path` (auto-detecting single-file vs sharded).
/// Read-only without `repair`; see the module docs for what repair does.
pub fn scrub(path: &Path, repair: bool) -> Result<ScrubReport, StoreError> {
    if path.is_dir() {
        scrub_sharded(path, repair)
    } else {
        scrub_single(path, repair)
    }
}

fn scrub_single(path: &Path, repair: bool) -> Result<ScrubReport, StoreError> {
    let _ = webvuln_failpoint::failpoint!("store.scrub", "0")?;
    let mut shard = ShardScrub {
        shard: 0,
        path: path.display().to_string(),
        status: ShardStatus::Clean,
        weeks: 0,
        records: 0,
        torn_bytes: 0,
        detail: String::new(),
    };
    match assess_source(path) {
        Ok(assess) => {
            shard.weeks = assess.valid_weeks;
            shard.records = assess.records;
            shard.torn_bytes = assess.torn_bytes;
            if !assess.fully_valid {
                shard.status = ShardStatus::Corrupt;
                shard.detail = assess.first_error.unwrap_or_default();
                if repair {
                    quarantine(path)?;
                    shard.status = ShardStatus::Quarantined;
                    shard.detail = format!(
                        "{}; moved to {}.{QUARANTINE_SUFFIX}",
                        shard.detail,
                        path.display()
                    );
                }
            } else if assess.torn_bytes > 0 {
                if repair {
                    StoreWriter::resume(path)?;
                    shard.status = ShardStatus::Healed;
                    shard.detail = format!("dropped {} torn tail bytes", assess.torn_bytes);
                } else {
                    shard.status = ShardStatus::TornTail;
                }
            }
        }
        Err(detail) => {
            shard.status = ShardStatus::Corrupt;
            shard.detail = detail;
            if repair && path.exists() {
                quarantine(path)?;
                shard.status = ShardStatus::Quarantined;
            }
        }
    }
    let outcome = outcome_of(std::slice::from_ref(&shard));
    Ok(ScrubReport {
        store: path.display().to_string(),
        sharded: false,
        epoch_before: None,
        epoch_after: None,
        rolled_back_to: None,
        shards: vec![shard],
        outcome,
        repaired: repair,
    })
}

fn scrub_sharded(dir: &Path, repair: bool) -> Result<ScrubReport, StoreError> {
    let manifest = manifest::load(dir)?;
    let shards = manifest.shards as usize;
    let committed = manifest.weeks as usize;

    // Phase A: assess every shard (and, for crash recovery of an
    // interrupted rebuild, its quarantined copy — whichever holds more).
    let mut assessments: Vec<Result<SourceAssess, String>> = Vec::with_capacity(shards);
    for index in 0..shards {
        let key = index.to_string();
        let _ = webvuln_failpoint::failpoint!("store.scrub", &key)?;
        let path = shard_path(dir, index);
        let quarantined = quarantine_path(&path);
        let primary = assess_source(&path);
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

    // Phase B: decide the group target and apply per-shard repairs.
    let recoverable = assessments.iter().all(|a| a.is_ok());
    let target = assessments
        .iter()
        .flatten()
        .map(|a| a.valid_weeks)
        .min()
        .unwrap_or(0)
        .min(committed);
    let group_finalized = manifest.finalized
        && recoverable
        && target == committed
        && assessments
            .iter()
            .flatten()
            .all(|a| a.fully_valid && a.finalized);

    let mut report_shards = Vec::with_capacity(shards);
    for (index, assess) in assessments.iter().enumerate() {
        let key = index.to_string();
        let _ = webvuln_failpoint::failpoint!("store.scrub", &key)?;
        let path = shard_path(dir, index);
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
                        quarantine(&path)?;
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
                let from_quarantine = assess.path != path;
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
                            quarantine(&path)?;
                        }
                        let finalize = if group_finalized {
                            assess.filtered_out.as_deref()
                        } else {
                            None
                        };
                        rebuild_shard(&quarantine_path(&path), &path, shard_target, finalize)?;
                        shard.status = ShardStatus::Rebuilt;
                        shard.weeks = shard_target;
                        shard.detail = format!(
                            "{}; rebuilt {shard_target} weeks from quarantined copy",
                            shard.detail
                        );
                    }
                } else if repair && recoverable {
                    let mut writer = StoreWriter::resume(&path)?;
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
                    if assess.claimed_weeks > committed || (assess.finalized && !manifest.finalized)
                    {
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

    // Phase C: publish the rollback, if the group needs one.
    let mut epoch_after = manifest.epoch;
    let mut rolled_back_to = None;
    if repair && recoverable && (target < committed || (manifest.finalized && !group_finalized)) {
        let next = Manifest {
            epoch: manifest.epoch + 1,
            shards: manifest.shards,
            weeks: target as u64,
            finalized: group_finalized,
        };
        manifest::commit(dir, &next)?;
        epoch_after = next.epoch;
        rolled_back_to = Some(target);
    }

    let outcome = outcome_of(&report_shards);
    Ok(ScrubReport {
        store: dir.display().to_string(),
        sharded: true,
        epoch_before: Some(manifest.epoch),
        epoch_after: Some(epoch_after),
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

fn quarantine_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".");
    name.push(QUARANTINE_SUFFIX);
    PathBuf::from(name)
}

fn quarantine(path: &Path) -> Result<(), StoreError> {
    let dest = quarantine_path(path);
    fs::rename(path, &dest).map_err(|e| StoreError::io(path, e))
}
