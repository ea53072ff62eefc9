//! The crash-journaled alert outbox.
//!
//! Two files make the guarantee:
//!
//! * `outbox.wal` — a CRC-framed WAL of `ENQUEUE(alert)` and `ACK(id)`
//!   records. An alert is *owed* from the moment its ENQUEUE frame is
//!   durable until an ACK frame for its ID lands.
//! * `alerts.log` — the delivery target: one text line per alert, ID
//!   first. Appending the line *is* the delivery.
//!
//! The protocol is at-least-once: a crash after the log append but
//! before the ACK leaves the alert owed, and a reopened outbox will try
//! again. Delivery is idempotent — the reopened outbox reloads the
//! delivered-ID set from `alerts.log` and skips IDs already present, so
//! the log never carries a duplicate: at-least-once journaling plus
//! deterministic IDs is exactly-once effective.

use crate::alert::Alert;
use crate::error::WatchError;
use crate::wal::FrameLog;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use webvuln_store::codec::{write_u64, Cursor};

const TAG_ENQUEUE: u8 = 1;
const TAG_ACK: u8 = 2;

/// What an [`Outbox::open`] found in the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OutboxRecovery {
    /// ENQUEUE records replayed from the WAL.
    pub replayed: usize,
    /// Alerts still owed (enqueued, never acked) at open.
    pub pending: usize,
    /// IDs already present in the delivery log.
    pub delivered: usize,
}

/// One `deliver_pending` round's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeliveryReport {
    /// Alert lines appended to the delivery log this round.
    pub delivered: usize,
    /// Owed alerts whose ID was already in the log (crash between
    /// delivery and ACK on a previous run); acked without re-appending.
    pub deduped: usize,
}

/// The crash-journaled alert outbox. See the module docs for the
/// protocol.
pub struct Outbox {
    wal: FrameLog,
    wal_path: PathBuf,
    delivery_path: PathBuf,
    /// Owed and acked alerts by ID, in enqueue order.
    enqueued: BTreeMap<u64, Alert>,
    order: Vec<u64>,
    acked: BTreeSet<u64>,
    /// IDs present in the delivery log.
    delivered: BTreeSet<u64>,
}

impl Outbox {
    /// Opens the outbox, healing torn tails in both files and replaying
    /// the WAL into the owed set.
    pub fn open(
        wal_path: &Path,
        delivery_log: &Path,
    ) -> Result<(Outbox, OutboxRecovery), WatchError> {
        let (wal, frames) = FrameLog::open(wal_path).map_err(|e| WatchError::io(wal_path, e))?;
        let mut enqueued = BTreeMap::new();
        let mut order = Vec::new();
        let mut acked = BTreeSet::new();
        let mut replayed = 0usize;
        for payload in &frames.payloads {
            let mut cur = Cursor::new(payload);
            match cur.u8() {
                Some(TAG_ENQUEUE) => {
                    let alert = Alert::decode(&mut cur).ok_or_else(|| {
                        WatchError::corrupt(wal_path, "undecodable ENQUEUE frame")
                    })?;
                    if !enqueued.contains_key(&alert.id) {
                        order.push(alert.id);
                    }
                    enqueued.insert(alert.id, alert);
                    replayed += 1;
                }
                Some(TAG_ACK) => {
                    let id = cur
                        .u64()
                        .ok_or_else(|| WatchError::corrupt(wal_path, "undecodable ACK frame"))?;
                    acked.insert(id);
                }
                _ => return Err(WatchError::corrupt(wal_path, "unknown frame tag")),
            }
        }
        let delivered = heal_delivery_log(delivery_log)?;
        let pending = order.iter().filter(|id| !acked.contains(id)).count();
        let recovery = OutboxRecovery {
            replayed,
            pending,
            delivered: delivered.len(),
        };
        Ok((
            Outbox {
                wal,
                wal_path: wal_path.to_path_buf(),
                delivery_path: delivery_log.to_path_buf(),
                enqueued,
                order,
                acked,
                delivered,
            },
            recovery,
        ))
    }

    /// Journals an alert as owed. Re-enqueueing an ID already journaled
    /// (a retro-scan replayed after a crash) is a no-op returning
    /// `false` — the WAL stays append-only and duplicate-free.
    pub fn enqueue(&mut self, alert: &Alert) -> Result<bool, WatchError> {
        if self.enqueued.contains_key(&alert.id) {
            return Ok(false);
        }
        let key = format!("{:016x}", alert.id);
        let _ = webvuln_failpoint::failpoint!("watch.outbox.append", &key)?;
        let mut payload = Vec::new();
        payload.push(TAG_ENQUEUE);
        alert.encode(&mut payload);
        self.wal
            .append(&payload)
            .map_err(|e| WatchError::io(&self.wal_path, e))?;
        self.order.push(alert.id);
        self.enqueued.insert(alert.id, alert.clone());
        Ok(true)
    }

    /// Delivers every owed alert: appends its line to the delivery log
    /// (unless its ID is already there), then ACKs it in the WAL. The
    /// `watch.outbox.deliver` fail-point fires twice per alert — before
    /// the log append (`…:deliver`) and between the append and the ACK
    /// (`…:ack`) — so the chaos harness can kill inside either window.
    pub fn deliver_pending(&mut self) -> Result<DeliveryReport, WatchError> {
        let mut report = DeliveryReport::default();
        let owed: Vec<u64> = self
            .order
            .iter()
            .copied()
            .filter(|id| !self.acked.contains(id))
            .collect();
        for id in owed {
            let alert = self.enqueued[&id].clone();
            let key = format!("{id:016x}:deliver");
            let _ = webvuln_failpoint::failpoint!("watch.outbox.deliver", &key)?;
            if self.delivered.contains(&id) {
                report.deduped += 1;
            } else {
                self.append_delivery_line(&alert)?;
                self.delivered.insert(id);
                report.delivered += 1;
            }
            let key = format!("{id:016x}:ack");
            let _ = webvuln_failpoint::failpoint!("watch.outbox.deliver", &key)?;
            let mut payload = Vec::new();
            payload.push(TAG_ACK);
            write_u64(&mut payload, id);
            self.wal
                .append(&payload)
                .map_err(|e| WatchError::io(&self.wal_path, e))?;
            self.acked.insert(id);
        }
        Ok(report)
    }

    fn append_delivery_line(&self, alert: &Alert) -> Result<(), WatchError> {
        let mut file = OpenOptions::new()
            .append(true)
            .create(true)
            .open(&self.delivery_path)
            .map_err(|e| WatchError::io(&self.delivery_path, e))?;
        let line = format!("{}\n", alert.log_line());
        file.write_all(line.as_bytes())
            .and_then(|()| file.sync_data())
            .map_err(|e| WatchError::io(&self.delivery_path, e))
    }

    /// Alerts journaled but not yet acked, in enqueue order.
    pub fn pending(&self) -> Vec<&Alert> {
        self.order
            .iter()
            .filter(|id| !self.acked.contains(id))
            .map(|id| &self.enqueued[id])
            .collect()
    }

    /// Count of owed alerts.
    pub fn pending_count(&self) -> usize {
        self.order
            .iter()
            .filter(|id| !self.acked.contains(id))
            .count()
    }
}

/// Truncates a torn (unterminated) last line, then returns the set of
/// alert IDs the delivery log already holds.
fn heal_delivery_log(path: &Path) -> Result<BTreeSet<u64>, WatchError> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(|e| WatchError::io(path, e))?;
    let mut text = String::new();
    let mut raw = Vec::new();
    file.read_to_end(&mut raw)
        .map_err(|e| WatchError::io(path, e))?;
    // The log is ASCII by construction; lossy decode keeps a torn
    // multi-byte write from wedging recovery.
    text.push_str(&String::from_utf8_lossy(&raw));
    let clean_len = match text.rfind('\n') {
        Some(pos) => pos + 1,
        None => 0,
    };
    if clean_len < raw.len() {
        file.set_len(clean_len as u64)
            .and_then(|()| file.sync_all())
            .map_err(|e| WatchError::io(path, e))?;
    }
    file.seek(SeekFrom::End(0))
        .map_err(|e| WatchError::io(path, e))?;
    Ok(text[..clean_len]
        .lines()
        .filter_map(Alert::log_line_id)
        .collect())
}

/// A read-only view of an outbox, safe to take while a daemon owns the
/// files: scans both files without healing or truncating anything (a
/// torn tail is simply ignored). The serve layer's `/alerts` endpoint
/// reads through this.
#[derive(Debug, Clone, Default)]
pub struct OutboxSnapshot {
    /// Every alert ever journaled, in enqueue order.
    pub alerts: Vec<Alert>,
    /// IDs acked in the WAL.
    pub acked: BTreeSet<u64>,
    /// IDs present in the delivery log.
    pub delivered: BTreeSet<u64>,
}

impl OutboxSnapshot {
    /// Loads the snapshot; missing files read as empty.
    pub fn load(wal_path: &Path, delivery_log: &Path) -> Result<OutboxSnapshot, WatchError> {
        let mut snapshot = OutboxSnapshot::default();
        if let Ok(data) = std::fs::read(wal_path) {
            let frames = crate::wal::read_frames(&data);
            let mut seen = BTreeSet::new();
            for payload in &frames.payloads {
                let mut cur = Cursor::new(payload);
                match cur.u8() {
                    Some(TAG_ENQUEUE) => {
                        if let Some(alert) = Alert::decode(&mut cur) {
                            if seen.insert(alert.id) {
                                snapshot.alerts.push(alert);
                            }
                        }
                    }
                    Some(TAG_ACK) => {
                        if let Some(id) = cur.u64() {
                            snapshot.acked.insert(id);
                        }
                    }
                    _ => break,
                }
            }
        }
        if let Ok(raw) = std::fs::read(delivery_log) {
            let text = String::from_utf8_lossy(&raw);
            snapshot.delivered = text.lines().filter_map(Alert::log_line_id).collect();
        }
        Ok(snapshot)
    }

    /// Alerts not yet acked.
    pub fn pending(&self) -> Vec<&Alert> {
        self.alerts
            .iter()
            .filter(|a| !self.acked.contains(&a.id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alert::Coverage;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wvoutbox-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn alert(n: u32) -> Alert {
        Alert::new(
            "CVE-2020-11022",
            "jquery",
            &format!("site{n:03}.example"),
            0,
            3,
            4,
            Coverage {
                shards_scanned: 1,
                shards_total: 1,
            },
        )
    }

    fn log_ids(path: &Path) -> Vec<u64> {
        std::fs::read_to_string(path)
            .unwrap_or_default()
            .lines()
            .filter_map(Alert::log_line_id)
            .collect()
    }

    #[test]
    fn enqueue_deliver_ack_round_trip() {
        let dir = tmp("round");
        let wal = dir.join("outbox.wal");
        let log = dir.join("alerts.log");
        let (mut outbox, recovery) = Outbox::open(&wal, &log).unwrap();
        assert_eq!(recovery, OutboxRecovery::default());
        assert!(outbox.enqueue(&alert(1)).unwrap());
        assert!(outbox.enqueue(&alert(2)).unwrap());
        assert!(!outbox.enqueue(&alert(1)).unwrap(), "duplicate is a no-op");
        assert_eq!(outbox.pending_count(), 2);
        let report = outbox.deliver_pending().unwrap();
        assert_eq!(report.delivered, 2);
        assert_eq!(report.deduped, 0);
        assert_eq!(outbox.pending_count(), 0);
        assert_eq!(log_ids(&log), vec![alert(1).id, alert(2).id]);
        // A reopened outbox owes nothing and redelivers nothing.
        let (mut outbox, recovery) = Outbox::open(&wal, &log).unwrap();
        assert_eq!(recovery.pending, 0);
        assert_eq!(recovery.delivered, 2);
        let report = outbox.deliver_pending().unwrap();
        assert_eq!((report.delivered, report.deduped), (0, 0));
        assert_eq!(log_ids(&log).len(), 2);
    }

    #[test]
    fn crash_between_delivery_and_ack_is_deduped() {
        let dir = tmp("dedup");
        let wal = dir.join("outbox.wal");
        let log = dir.join("alerts.log");
        {
            let (mut outbox, _) = Outbox::open(&wal, &log).unwrap();
            outbox.enqueue(&alert(7)).unwrap();
            // Simulate delivery-then-crash: append the line by hand,
            // never ack.
            outbox.append_delivery_line(&alert(7)).unwrap();
        }
        let (mut outbox, recovery) = Outbox::open(&wal, &log).unwrap();
        assert_eq!(recovery.pending, 1);
        assert_eq!(recovery.delivered, 1);
        let report = outbox.deliver_pending().unwrap();
        assert_eq!(report.delivered, 0);
        assert_eq!(report.deduped, 1);
        assert_eq!(outbox.pending_count(), 0);
        assert_eq!(log_ids(&log).len(), 1, "no duplicate line");
    }

    #[test]
    fn torn_delivery_log_line_is_healed() {
        let dir = tmp("torn");
        let wal = dir.join("outbox.wal");
        let log = dir.join("alerts.log");
        {
            let (mut outbox, _) = Outbox::open(&wal, &log).unwrap();
            outbox.enqueue(&alert(1)).unwrap();
            outbox.deliver_pending().unwrap();
        }
        // Tear the log mid-line.
        let mut bytes = std::fs::read(&log).unwrap();
        let healthy = bytes.len();
        bytes.extend_from_slice(b"deadbeef00");
        std::fs::write(&log, &bytes).unwrap();
        let (_, recovery) = Outbox::open(&wal, &log).unwrap();
        assert_eq!(recovery.delivered, 1);
        assert_eq!(std::fs::metadata(&log).unwrap().len(), healthy as u64);
    }

    #[test]
    fn snapshot_reads_without_mutating() {
        let dir = tmp("snap");
        let wal = dir.join("outbox.wal");
        let log = dir.join("alerts.log");
        {
            let (mut outbox, _) = Outbox::open(&wal, &log).unwrap();
            outbox.enqueue(&alert(1)).unwrap();
            outbox.enqueue(&alert(2)).unwrap();
            outbox.deliver_pending().unwrap();
            outbox.enqueue(&alert(3)).unwrap();
        }
        let before = std::fs::read(&wal).unwrap();
        let snapshot = OutboxSnapshot::load(&wal, &log).unwrap();
        assert_eq!(snapshot.alerts.len(), 3);
        assert_eq!(snapshot.acked.len(), 2);
        assert_eq!(snapshot.delivered.len(), 2);
        assert_eq!(snapshot.pending().len(), 1);
        assert_eq!(std::fs::read(&wal).unwrap(), before, "read-only");
        // Missing files are empty, not errors.
        let empty = OutboxSnapshot::load(&dir.join("nope.wal"), &dir.join("nope.log")).unwrap();
        assert!(empty.alerts.is_empty());
    }
}
