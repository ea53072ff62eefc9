//! # webvuln-watch
//!
//! The supervised live-ingestion daemon: keeps a sharded snapshot store
//! growing as weekly crawls arrive, keeps the full study accumulator
//! *live* as domain buckets — each new week absorbed incrementally, and
//! when the §4.1 verdict drifts only the flipped domains' buckets folded
//! again on the next quiet tick, so no tick refolds the whole history (a
//! CVE delta extending the database rebuilds only the exposure
//! accumulators, in the retro-scan's one walk) — and turns
//! newly-disclosed CVEs into per-domain exposure alerts by retro-scanning
//! the committed history.
//!
//! The robustness headline is that every side effect is journaled and
//! idempotent, so crashing the daemon anywhere and restarting it loses
//! nothing and duplicates nothing:
//!
//! * **Ingestion** is keyed on the store's manifest epoch — a spool week
//!   at or below the committed count is a no-op ([`Watcher`]).
//! * **Retro-scans** commit by appending to an applied-journal; a crash
//!   mid-scan replays the scan and the outbox dedups the alerts by
//!   their deterministic ID ([`alert_id`]).
//! * **Delivery** runs through a CRC-framed write-ahead log, a round
//!   (three synced batches) at a time, with at-least-once semantics
//!   plus ID dedup — exactly-once effective ([`Outbox`]).
//! * **Supervision** catches faults and panics, backs restarts off with
//!   seeded full jitter on the virtual clock, and reopens the watcher
//!   from disk — reopen *is* the recovery path ([`supervise`]).
//! * **Degradation**: a quarantined shard downgrades retro-scan
//!   [`Coverage`] (annotated on every alert) instead of stopping the
//!   daemon.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Fail-point sites owned by this crate, for the chaos-harness catalog.
///
/// - `watch.ingest` — fires after a spool week is read but before it is
///   committed to the store (key: the week index).
/// - `watch.outbox.append` — fires per fresh alert while a scan's
///   ENQUEUE batch is framed, before its one append and sync (key: the
///   alert ID in hex).
/// - `watch.outbox.deliver` — fires twice per owed alert, once in each
///   phase of a round: before the lines' one write and sync (key
///   `<id>:deliver` — every ENQUEUE durable, no line written), and
///   after that sync, before the ACKs' one append and sync (key
///   `<id>:ack` — every line durable, no ACK written).
/// - `watch.retro` — fires before a delta file's alerts, found by the
///   tick's one walk over history, are journaled (key: the delta file
///   name).
pub const FAILPOINTS: &[&str] = &[
    "watch.ingest",
    "watch.outbox.append",
    "watch.outbox.deliver",
    "watch.retro",
];

pub mod alert;
pub mod error;
pub mod outbox;
pub mod spool;
pub mod supervisor;
pub mod wal;
pub mod watcher;

pub use alert::{alert_id, Alert, Coverage};
pub use error::WatchError;
pub use outbox::{DeliveryReport, Outbox, OutboxRecovery, OutboxSnapshot};
pub use spool::{
    read_genesis_file, read_week_file, scan_spool, week_file_name, write_genesis_file,
    write_week_file, GENESIS_FILE,
};
pub use supervisor::{supervise, SupervisorConfig, SupervisorReport};
pub use watcher::{load_watch_state, scan_deltas, TickReport, WatchConfig, WatchState, Watcher};
