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
//! The unit of durability is the *round*, not the alert:
//! [`Outbox::enqueue`] journals a retro-scan's whole alert slice with one
//! multi-frame append and one sync; [`Outbox::deliver_pending`] writes
//! every owed line and syncs once, then every ACK and syncs once — three
//! syncs a round, however many alerts it carries. Three ordering rules
//! carry the exactly-once argument:
//!
//! 1. ENQUEUE frames are durable before any of their lines is written.
//! 2. Every line of a round is durable before any ACK of that round is
//!    written.
//! 3. In-memory sets advance only after the sync that makes them true.
//!
//! The protocol is at-least-once: a crash after the lines' sync and
//! before the ACKs' leaves the round owed, and a reopened outbox tries
//! again. Delivery is idempotent — the reopened outbox reloads the
//! delivered-ID set from `alerts.log` and skips IDs already present, so
//! at-least-once journaling plus deterministic IDs is exactly-once
//! effective. A crash tears a batch anywhere: the WAL reopens to its
//! whole-frame prefix, the log to its last newline, and the replayed scan
//! or round supplies the rest. A fail-point *error* mid-batch flushes
//! what is already framed, advances the state for exactly that prefix,
//! then returns (a panic flushes nothing; both converge the same way).

use crate::alert::Alert;
use crate::error::WatchError;
use crate::wal::{read_frames, write_frame};
use std::collections::BTreeSet;
use std::path::Path;
use webvuln_failpoint::Injected;
use webvuln_store::codec::{write_u64, Cursor};
use webvuln_store::durable::{complete_lines, AppendLog};

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
/// protocol. It holds both files open, and is their one live handle.
pub struct Outbox {
    /// `outbox.wal`, clean through its last whole frame.
    wal: AppendLog,
    /// `alerts.log`, clean through its last newline.
    log: AppendLog,
    /// Every ID ever journaled, owed or acked: the enqueue dedup key.
    known: BTreeSet<u64>,
    /// Alerts journaled but not yet acked, in enqueue order.
    owed: Vec<Alert>,
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
        let (wal, journal) = AppendLog::open(wal_path, |b| read_frames(b).clean_len as usize)?;
        let (journal, replayed) = replay(wal_path, &journal)?;
        let known = journal.alerts.iter().map(|alert| alert.id).collect();
        let owed: Vec<Alert> = journal.pending().into_iter().cloned().collect();
        let (log, lines) = AppendLog::open(delivery_log, complete_lines)?;
        let delivered = delivered_ids(&lines);
        let recovery = OutboxRecovery {
            replayed,
            pending: owed.len(),
            delivered: delivered.len(),
        };
        let outbox = Outbox {
            wal,
            log,
            known,
            owed,
            delivered,
        };
        Ok((outbox, recovery))
    }

    /// Journals a retro-scan's alerts as owed — one append, one sync —
    /// and returns `(fresh, deduped)`: an ID already journaled (a scan
    /// replayed after a crash) or repeated in the slice is skipped, so
    /// the WAL stays duplicate-free. `watch.outbox.append` fires per
    /// fresh alert (key: its ID in hex) before the batch is written.
    pub fn enqueue(&mut self, alerts: &[Alert]) -> Result<(usize, usize), WatchError> {
        let mut frames = Vec::new();
        let mut fresh: Vec<&Alert> = Vec::new();
        let mut batch = BTreeSet::new();
        let failed = alerts.iter().try_for_each(|alert| {
            if self.known.contains(&alert.id) || !batch.insert(alert.id) {
                return Ok(());
            }
            let key = format!("{:016x}", alert.id);
            webvuln_failpoint::failpoint!("watch.outbox.append", &key)?;
            let mut payload = vec![TAG_ENQUEUE];
            alert.encode(&mut payload);
            write_frame(&mut frames, &payload);
            fresh.push(alert);
            Ok::<(), Injected>(())
        });
        self.wal.append(&frames)?;
        self.known.extend(fresh.iter().map(|alert| alert.id));
        self.owed.extend(fresh.iter().map(|&alert| alert.clone()));
        failed?;
        Ok((fresh.len(), alerts.len() - fresh.len()))
    }

    /// Delivers every owed alert in two synced phases: lines, then ACKs.
    /// `watch.outbox.deliver` fires per owed alert before each phase's
    /// write — key `<id>:deliver` (a kill finds nothing of the round on
    /// disk), then `<id>:ack` (every line durable, no ACK).
    pub fn deliver_pending(&mut self) -> Result<DeliveryReport, WatchError> {
        let mut report = DeliveryReport::default();
        let mut lines = String::new();
        let mut fresh = Vec::new();
        let failed = self.owed.iter().try_for_each(|alert| {
            let key = format!("{:016x}:deliver", alert.id);
            webvuln_failpoint::failpoint!("watch.outbox.deliver", &key)?;
            if self.delivered.contains(&alert.id) {
                report.deduped += 1;
            } else {
                lines.push_str(&alert.log_line());
                lines.push('\n');
                fresh.push(alert.id);
            }
            Ok::<(), Injected>(())
        });
        self.log.append(lines.as_bytes())?;
        report.delivered = fresh.len();
        self.delivered.extend(fresh);
        failed?;

        let mut frames = Vec::new();
        let mut acked = 0;
        let failed = self.owed.iter().try_for_each(|alert| {
            let key = format!("{:016x}:ack", alert.id);
            webvuln_failpoint::failpoint!("watch.outbox.deliver", &key)?;
            let mut payload = vec![TAG_ACK];
            write_u64(&mut payload, alert.id);
            write_frame(&mut frames, &payload);
            acked += 1;
            Ok::<(), Injected>(())
        });
        self.wal.append(&frames)?;
        self.owed.drain(..acked);
        failed?;
        Ok(report)
    }

    /// Alerts journaled but not yet acked, in enqueue order.
    pub fn pending(&self) -> &[Alert] {
        &self.owed
    }

    /// Count of owed alerts.
    pub fn pending_count(&self) -> usize {
        self.owed.len()
    }

    /// `sync_data` calls since open: one per non-empty batch, summed over
    /// both files.
    pub fn syncs(&self) -> u64 {
        self.wal.syncs() + self.log.syncs()
    }
}

/// Replays a journal's whole frames: every alert journaled (the first
/// ENQUEUE of each ID, in order) and every ID acked, plus the count of
/// ENQUEUE frames read. A frame that is CRC-clean but undecodable is
/// corrupt, not torn.
fn replay(path: &Path, journal: &[u8]) -> Result<(OutboxSnapshot, usize), WatchError> {
    let mut snapshot = OutboxSnapshot::default();
    let mut enqueues = 0;
    let mut seen = BTreeSet::new();
    for payload in &read_frames(journal).payloads {
        let mut cur = Cursor::new(payload);
        match cur.u8() {
            Some(TAG_ENQUEUE) => {
                let alert = Alert::decode(&mut cur)
                    .ok_or_else(|| WatchError::corrupt(path, "undecodable ENQUEUE frame"))?;
                if seen.insert(alert.id) {
                    snapshot.alerts.push(alert);
                }
                enqueues += 1;
            }
            Some(TAG_ACK) => {
                let id = cur
                    .u64()
                    .ok_or_else(|| WatchError::corrupt(path, "undecodable ACK frame"))?;
                snapshot.acked.insert(id);
            }
            _ => return Err(WatchError::corrupt(path, "unknown frame tag")),
        }
    }
    Ok((snapshot, enqueues))
}

/// The IDs on the complete lines of a delivery log: an unterminated last
/// line is torn, so not delivered. The cut is in the raw bytes — a
/// crashed writer can leave non-UTF-8 garbage, and a lossy decode's
/// offsets are not the file's.
fn delivered_ids(log: &[u8]) -> BTreeSet<u64> {
    String::from_utf8_lossy(&log[..complete_lines(log)])
        .lines()
        .filter_map(Alert::log_line_id)
        .collect()
}

/// A read-only view of an outbox, safe to take while a daemon owns the
/// files: scans both files without healing or truncating anything (a
/// torn tail is ignored by the clean rule the owner heals with). The
/// serve layer's `/alerts` endpoint reads through this.
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
    /// Loads the snapshot; missing files read as empty. Both files are
    /// read through the rules [`Outbox::open`] replays them with, so the
    /// two agree on what is journaled, acked and delivered.
    pub fn load(wal_path: &Path, delivery_log: &Path) -> Result<OutboxSnapshot, WatchError> {
        let (mut snapshot, _) = replay(wal_path, &std::fs::read(wal_path).unwrap_or_default())?;
        snapshot.delivered = delivered_ids(&std::fs::read(delivery_log).unwrap_or_default());
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
    use std::fs::OpenOptions;
    use std::io::Write;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::path::PathBuf;
    use std::sync::{Mutex, MutexGuard};
    use webvuln_failpoint::check::{self, Gen};
    use webvuln_failpoint::{arm_key, hits, reset, Action};

    /// Serializes this module: the fail-point registry is process-global
    /// and every test here builds the same `alert(n)` IDs, so one test's
    /// armed key would fire inside another's round.
    static FP_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> MutexGuard<'static, ()> {
        let guard = FP_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        reset();
        guard
    }

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

    fn alerts(n: u32) -> Vec<Alert> {
        (0..n).map(alert).collect()
    }

    fn log_ids(path: &Path) -> Vec<u64> {
        std::fs::read_to_string(path)
            .unwrap_or_default()
            .lines()
            .filter_map(Alert::log_line_id)
            .collect()
    }

    /// The parent's per-alert protocol, kept as the oracle the batch
    /// path is checked against: every ENQUEUE frame, every delivery line
    /// and every ACK frame is its own write and its own sync.
    impl Outbox {
        fn oracle_enqueue(&mut self, alert: &Alert) -> Result<bool, WatchError> {
            if self.known.contains(&alert.id) {
                return Ok(false);
            }
            let key = format!("{:016x}", alert.id);
            let _ = webvuln_failpoint::failpoint!("watch.outbox.append", &key)?;
            let mut payload = vec![TAG_ENQUEUE];
            alert.encode(&mut payload);
            let mut frame = Vec::new();
            write_frame(&mut frame, &payload);
            self.wal.append(&frame)?;
            self.known.insert(alert.id);
            self.owed.push(alert.clone());
            Ok(true)
        }

        fn oracle_deliver_pending(&mut self) -> Result<DeliveryReport, WatchError> {
            let mut report = DeliveryReport::default();
            while let Some(alert) = self.owed.first().cloned() {
                let key = format!("{:016x}:deliver", alert.id);
                let _ = webvuln_failpoint::failpoint!("watch.outbox.deliver", &key)?;
                if self.delivered.contains(&alert.id) {
                    report.deduped += 1;
                } else {
                    self.log
                        .append(format!("{}\n", alert.log_line()).as_bytes())?;
                    self.delivered.insert(alert.id);
                    report.delivered += 1;
                }
                let key = format!("{:016x}:ack", alert.id);
                let _ = webvuln_failpoint::failpoint!("watch.outbox.deliver", &key)?;
                let mut payload = vec![TAG_ACK];
                write_u64(&mut payload, alert.id);
                let mut frame = Vec::new();
                write_frame(&mut frame, &payload);
                self.wal.append(&frame)?;
                self.owed.remove(0);
            }
            Ok(report)
        }
    }

    #[test]
    fn enqueue_deliver_ack_round_trip() {
        let _guard = lock();
        let dir = tmp("round");
        let wal = dir.join("outbox.wal");
        let log = dir.join("alerts.log");
        let (mut outbox, recovery) = Outbox::open(&wal, &log).unwrap();
        assert_eq!(recovery, OutboxRecovery::default());
        assert_eq!(outbox.enqueue(&[alert(1), alert(2)]).unwrap(), (2, 0));
        assert_eq!(
            outbox.enqueue(&[alert(1)]).unwrap(),
            (0, 1),
            "duplicate is a no-op"
        );
        assert_eq!(outbox.pending_count(), 2);
        assert_eq!(outbox.pending(), [alert(1), alert(2)]);
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
        let _guard = lock();
        let dir = tmp("dedup");
        let wal = dir.join("outbox.wal");
        let log = dir.join("alerts.log");
        {
            let (mut outbox, _) = Outbox::open(&wal, &log).unwrap();
            outbox.enqueue(&[alert(7)]).unwrap();
            // Simulate delivery-then-crash: append the line by hand,
            // never ack.
            outbox
                .log
                .append(format!("{}\n", alert(7).log_line()).as_bytes())
                .unwrap();
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
        let _guard = lock();
        let dir = tmp("torn");
        let wal = dir.join("outbox.wal");
        let log = dir.join("alerts.log");
        {
            let (mut outbox, _) = Outbox::open(&wal, &log).unwrap();
            outbox.enqueue(&[alert(1)]).unwrap();
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

    /// The cut is a raw byte offset: a non-UTF-8 byte before the last
    /// newline (three bytes once lossily decoded) must not shift it, or
    /// the next line lands on what is left of the torn tail and its ID
    /// never parses.
    #[test]
    fn non_utf8_garbage_before_the_last_newline_does_not_shift_the_cut() {
        let _guard = lock();
        let dir = tmp("rawcut");
        let wal = dir.join("outbox.wal");
        let log = dir.join("alerts.log");
        {
            let (mut outbox, _) = Outbox::open(&wal, &log).unwrap();
            outbox.enqueue(&[alert(1)]).unwrap();
            outbox.deliver_pending().unwrap();
        }
        let mut bytes = std::fs::read(&log).unwrap();
        bytes.extend_from_slice(b"\xff\xfe\n");
        let healthy = bytes.len();
        bytes.extend_from_slice(b"deadbeef00");
        std::fs::write(&log, &bytes).unwrap();
        {
            let (mut outbox, recovery) = Outbox::open(&wal, &log).unwrap();
            assert_eq!(recovery.delivered, 1);
            assert_eq!(std::fs::metadata(&log).unwrap().len(), healthy as u64);
            outbox.enqueue(&[alert(2)]).unwrap();
            outbox.deliver_pending().unwrap();
        }
        let (_, recovery) = Outbox::open(&wal, &log).unwrap();
        assert_eq!(recovery.delivered, 2, "the line after the heal parses");
    }

    /// An unterminated last line is torn whatever it holds: what `/alerts`
    /// and `/healthz` read must not count an ID the owner's reopen cuts
    /// and delivers again.
    #[test]
    fn a_snapshot_does_not_count_a_torn_line_as_delivered() {
        let _guard = lock();
        let dir = tmp("tornid");
        let wal = dir.join("outbox.wal");
        let log = dir.join("alerts.log");
        let line = alert(1).log_line();
        std::fs::write(&log, format!("{line}\n0123456789abcdef")).unwrap();
        let snapshot = OutboxSnapshot::load(&wal, &log).unwrap();
        let (_, recovery) = Outbox::open(&wal, &log).unwrap();
        assert_eq!(snapshot.delivered.len(), 1);
        assert_eq!(recovery.delivered, 1);
    }

    #[test]
    fn snapshot_reads_without_mutating() {
        let _guard = lock();
        let dir = tmp("snap");
        let wal = dir.join("outbox.wal");
        let log = dir.join("alerts.log");
        {
            let (mut outbox, _) = Outbox::open(&wal, &log).unwrap();
            outbox.enqueue(&[alert(1), alert(2)]).unwrap();
            outbox.deliver_pending().unwrap();
            outbox.enqueue(&[alert(3)]).unwrap();
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

    #[test]
    fn a_repeated_id_in_one_slice_is_journaled_once() {
        let _guard = lock();
        let dir = tmp("repeat");
        let wal = dir.join("outbox.wal");
        let log = dir.join("alerts.log");
        let (mut outbox, _) = Outbox::open(&wal, &log).unwrap();
        let slice = [alert(1), alert(2), alert(1), alert(1)];
        assert_eq!(outbox.enqueue(&slice).unwrap(), (2, 2));
        assert_eq!(outbox.pending(), [alert(1), alert(2)]);
        assert_eq!(read_frames(&std::fs::read(&wal).unwrap()).payloads.len(), 2);
        assert_eq!(outbox.deliver_pending().unwrap().delivered, 2);
        assert_eq!(log_ids(&log), vec![alert(1).id, alert(2).id]);
    }

    /// A crash can tear the one multi-frame write anywhere. Whatever the
    /// cut, the reopened WAL is the batch's whole-frame prefix, and the
    /// replayed scan journals exactly the frames that were lost — the
    /// file ends up byte-identical to the untorn one.
    #[test]
    fn a_torn_batch_reopens_to_its_whole_frame_prefix() {
        let _guard = lock();
        let dir = tmp("tornbatch");
        let wal = dir.join("outbox.wal");
        let log = dir.join("alerts.log");
        let slice = alerts(3);
        {
            let (mut outbox, _) = Outbox::open(&wal, &log).unwrap();
            assert_eq!(outbox.enqueue(&slice).unwrap(), (3, 0));
            assert_eq!(outbox.syncs(), 1);
        }
        let full = std::fs::read(&wal).unwrap();
        let mut ends = Vec::new();
        for cut in 0..=full.len() {
            if read_frames(&full[..cut]).clean_len == cut as u64 {
                ends.push(cut);
            }
        }
        assert_eq!(ends.len(), 4, "frame boundaries: {ends:?}");
        for cut in 0..=full.len() {
            let whole = ends.iter().filter(|&&end| end != 0 && end <= cut).count();
            std::fs::write(&wal, &full[..cut]).unwrap();
            let (mut outbox, recovery) = Outbox::open(&wal, &log).unwrap();
            assert_eq!(recovery.replayed, whole, "cut at {cut}");
            assert_eq!(outbox.pending(), &slice[..whole], "cut at {cut}");
            assert_eq!(
                std::fs::metadata(&wal).unwrap().len(),
                ends[whole] as u64,
                "cut at {cut}: torn tail truncated"
            );
            assert_eq!(
                outbox.enqueue(&slice).unwrap(),
                (3 - whole, whole),
                "cut at {cut}"
            );
            assert_eq!(std::fs::read(&wal).unwrap(), full, "cut at {cut}");
        }
    }

    /// The window rule 2 opens: every line of the round is durable, no
    /// ACK is. A reopen finds the whole round owed and already delivered.
    #[test]
    fn crash_after_the_lines_sync_redelivers_nothing() {
        let _guard = lock();
        let dir = tmp("linesync");
        let wal = dir.join("outbox.wal");
        let log = dir.join("alerts.log");
        let slice = alerts(5);
        arm_key(
            "watch.outbox.deliver",
            &format!("{:016x}:ack", slice[0].id),
            Action::Panic,
        );
        let crashed = catch_unwind(AssertUnwindSafe(|| {
            let (mut outbox, _) = Outbox::open(&wal, &log).unwrap();
            outbox.enqueue(&slice).unwrap();
            outbox.deliver_pending()
        }));
        reset();
        assert!(crashed.is_err(), "the :ack window never fired");
        let lines = std::fs::read(&log).unwrap();
        assert_eq!(log_ids(&log).len(), 5);

        let (mut outbox, recovery) = Outbox::open(&wal, &log).unwrap();
        assert_eq!((recovery.pending, recovery.delivered), (5, 5));
        let report = outbox.deliver_pending().unwrap();
        assert_eq!((report.delivered, report.deduped), (0, 5));
        assert_eq!(outbox.syncs(), 1, "only the ACK batch is written");
        assert_eq!(std::fs::read(&log).unwrap(), lines, "log unchanged");
        assert_eq!(outbox.pending_count(), 0);
    }

    /// An injected error mid-batch flushes the prefix already framed and
    /// advances the state for exactly that prefix.
    #[test]
    fn an_error_at_the_kth_ack_leaves_the_acks_before_it_durable() {
        let _guard = lock();
        let slice = alerts(6);
        for k in 1..=slice.len() {
            let dir = tmp("kthack");
            let wal = dir.join("outbox.wal");
            let log = dir.join("alerts.log");
            let (mut outbox, _) = Outbox::open(&wal, &log).unwrap();
            outbox.enqueue(&slice).unwrap();
            arm_key(
                "watch.outbox.deliver",
                &format!("{:016x}:ack", slice[k - 1].id),
                Action::Error,
            );
            let failed = outbox.deliver_pending();
            reset();
            assert!(matches!(failed, Err(WatchError::Injected(_))), "k = {k}");
            let snapshot = OutboxSnapshot::load(&wal, &log).unwrap();
            assert_eq!(snapshot.delivered.len(), slice.len(), "k = {k}: N lines");
            assert_eq!(snapshot.acked.len(), k - 1, "k = {k}");
            assert_eq!(outbox.pending(), &slice[k - 1..], "k = {k}");
            // The same outbox finishes the round; so does a reopened one.
            let (mut reopened, recovery) = Outbox::open(&wal, &log).unwrap();
            assert_eq!(recovery.pending, slice.len() - (k - 1), "k = {k}");
            for outbox in [&mut outbox, &mut reopened] {
                let report = outbox.deliver_pending().unwrap();
                assert_eq!(
                    (report.delivered, report.deduped),
                    (0, slice.len() - (k - 1))
                );
            }
            assert_eq!(log_ids(&log).len(), slice.len(), "k = {k}: no duplicate");
        }
    }

    /// An injected error at the k-th `watch.outbox.append` journals the
    /// k−1 alerts framed before it, and a replay journals the rest.
    #[test]
    fn an_error_at_the_kth_append_journals_the_alerts_before_it() {
        let _guard = lock();
        let dir = tmp("kthappend");
        let wal = dir.join("outbox.wal");
        let log = dir.join("alerts.log");
        let slice = alerts(4);
        let (mut outbox, _) = Outbox::open(&wal, &log).unwrap();
        arm_key(
            "watch.outbox.append",
            &format!("{:016x}", slice[2].id),
            Action::Error,
        );
        let failed = outbox.enqueue(&slice);
        reset();
        assert!(matches!(failed, Err(WatchError::Injected(_))));
        assert_eq!(outbox.pending(), &slice[..2]);
        assert_eq!(read_frames(&std::fs::read(&wal).unwrap()).payloads.len(), 2);
        assert_eq!(outbox.enqueue(&slice).unwrap(), (2, 2));
        assert_eq!(outbox.pending(), &slice[..]);
    }

    /// Syncs are the cost this protocol is built around, so they are
    /// asserted as counts: three per round whatever it carries (the
    /// per-alert protocol paid 3 N), none when nothing is owed.
    #[test]
    fn a_round_costs_three_syncs_and_an_idle_round_none() {
        let _guard = lock();
        for n in [3, 40, 500] {
            let dir = tmp("syncs");
            let wal = dir.join("outbox.wal");
            let log = dir.join("alerts.log");
            let (mut outbox, _) = Outbox::open(&wal, &log).unwrap();
            let slice = alerts(n);
            assert_eq!(outbox.enqueue(&slice).unwrap(), (n as usize, 0));
            assert_eq!(outbox.syncs(), 1, "n = {n}");
            assert_eq!(outbox.deliver_pending().unwrap().delivered, n as usize);
            assert_eq!(outbox.syncs(), 3, "n = {n}");

            // Idle: nothing owed, so nothing is visited and nothing synced
            // — in this outbox and in one reopened over the acked journal.
            let (reopened, recovery) = Outbox::open(&wal, &log).unwrap();
            assert_eq!((recovery.replayed, recovery.pending), (n as usize, 0));
            for mut outbox in [outbox, reopened] {
                assert!(outbox.owed.is_empty(), "no acked alert is kept");
                let syncs = outbox.syncs();
                // An arm that never matches switches hit counting on.
                arm_key("watch.outbox.deliver", "never", Action::Error);
                assert_eq!(outbox.deliver_pending().unwrap(), DeliveryReport::default());
                assert_eq!(outbox.enqueue(&[]).unwrap(), (0, 0));
                assert_eq!(outbox.enqueue(&slice).unwrap(), (0, n as usize));
                assert_eq!(hits("watch.outbox.deliver"), 0, "n = {n}");
                reset();
                assert_eq!(outbox.syncs(), syncs, "n = {n}: idle round synced");
            }
        }
    }

    /// One scripted round: journal a slice (indices into a small alert
    /// pool, so repeats and re-enqueues happen), optionally drain.
    #[derive(Debug)]
    struct Round {
        reopen: bool,
        predelivered: Vec<u32>,
        slice: Vec<u32>,
        deliver: bool,
    }

    /// Drives `rounds` through the batch path or the per-alert oracle
    /// and returns every report plus the two files' bytes.
    fn drive(tag: &str, rounds: &[Round], batch: bool) -> (Vec<[usize; 4]>, Vec<u8>, Vec<u8>) {
        let dir = tmp(tag);
        let wal = dir.join("outbox.wal");
        let log = dir.join("alerts.log");
        let mut outbox = None;
        let mut reports = Vec::new();
        for round in rounds {
            if round.reopen {
                outbox = None;
            }
            if outbox.is_none() {
                // Lines a crashed predecessor delivered without acking
                // (or before the ENQUEUE of a later, identical scan).
                let mut file = OpenOptions::new()
                    .append(true)
                    .create(true)
                    .open(&log)
                    .unwrap();
                for &n in &round.predelivered {
                    writeln!(file, "{}", alert(n).log_line()).unwrap();
                }
                outbox = Some(Outbox::open(&wal, &log).unwrap().0);
            }
            let outbox = outbox.as_mut().unwrap();
            let slice: Vec<Alert> = round.slice.iter().map(|&n| alert(n)).collect();
            let (fresh, deduped) = if batch {
                outbox.enqueue(&slice).unwrap()
            } else {
                let fresh = slice
                    .iter()
                    .filter(|a| outbox.oracle_enqueue(a).unwrap())
                    .count();
                (fresh, slice.len() - fresh)
            };
            let delivery = match (round.deliver, batch) {
                (false, _) => DeliveryReport::default(),
                (true, true) => outbox.deliver_pending().unwrap(),
                (true, false) => outbox.oracle_deliver_pending().unwrap(),
            };
            reports.push([fresh, deduped, delivery.delivered, delivery.deduped]);
        }
        drop(outbox);
        (
            reports,
            std::fs::read(&wal).unwrap(),
            std::fs::read(&log).unwrap(),
        )
    }

    #[test]
    fn batch_rounds_write_the_bytes_the_per_alert_oracle_writes() {
        let _guard = lock();
        check::run("outbox batch path equals the oracle", 96, |g: &mut Gen| {
            let rounds = g.vec(1..=4, |g| Round {
                reopen: g.bool(),
                predelivered: g.vec(0..=3, |g| g.range(0..=9) as u32),
                slice: g.vec(0..=12, |g| g.range(0..=9) as u32),
                deliver: g.bool(),
            });
            let batch = drive("oracle-batch", &rounds, true);
            let oracle = drive("oracle-alert", &rounds, false);
            assert_eq!(batch.0, oracle.0, "reports differ for {rounds:?}");
            assert_eq!(batch.1, oracle.1, "outbox.wal differs for {rounds:?}");
            assert_eq!(batch.2, oracle.2, "alerts.log differs for {rounds:?}");
        });
    }
}
