//! Exposure alerts: the unit the retro-scanner emits and the outbox
//! journals.

use webvuln_store::codec::{write_str, write_u64, Cursor};

/// How much of the store a retro-scan actually covered. A degraded store
/// (quarantined or missing shard files) downgrades coverage instead of
/// failing the scan; every alert carries the fraction so a consumer can
/// tell "clean sweep" from "best effort".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coverage {
    /// Shards the scan could read.
    pub shards_scanned: u32,
    /// Shards the store is declared to hold.
    pub shards_total: u32,
}

impl Coverage {
    /// True when every shard was readable.
    pub fn is_full(&self) -> bool {
        self.shards_scanned == self.shards_total
    }
}

/// One per-domain exposure alert: `domain` served a version of
/// `library` inside `cve_id`'s claimed range during the week span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Alert {
    /// Deterministic identifier (see [`alert_id`]); dedup key for
    /// exactly-once-effective delivery.
    pub id: u64,
    /// The vulnerability report that triggered the scan.
    pub cve_id: String,
    /// Affected library slug.
    pub library: String,
    /// The exposed domain.
    pub domain: String,
    /// First week (0-based) the exposure was observed.
    pub first_week: u32,
    /// Last week the exposure was observed.
    pub last_week: u32,
    /// Number of weeks with an observed exposure (≤ the span when the
    /// domain dropped the library in between).
    pub weeks_exposed: u32,
    /// Scan coverage when this alert was produced.
    pub coverage: Coverage,
}

/// Deterministic alert identifier: FNV-1a over the identifying fields.
///
/// A re-run of the same retro-scan — after a crash, a re-delivered CVE
/// delta, or a supervisor restart — produces byte-identical IDs, which is
/// what lets at-least-once journaling collapse to exactly-once delivery.
/// The week span is part of the identity: a *longer* exposure discovered
/// after more weeks arrive is a new alert, not a duplicate.
pub fn alert_id(cve_id: &str, domain: &str, first_week: u32, last_week: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in cve_id
        .bytes()
        .chain([0u8])
        .chain(domain.bytes())
        .chain([0u8])
    {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    for part in [first_week, last_week] {
        for b in part.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

impl Alert {
    /// Builds an alert, deriving its deterministic ID.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cve_id: &str,
        library: &str,
        domain: &str,
        first_week: u32,
        last_week: u32,
        weeks_exposed: u32,
        coverage: Coverage,
    ) -> Alert {
        Alert {
            id: alert_id(cve_id, domain, first_week, last_week),
            cve_id: cve_id.to_string(),
            library: library.to_string(),
            domain: domain.to_string(),
            first_week,
            last_week,
            weeks_exposed,
            coverage,
        }
    }

    /// Encodes the alert into the outbox's frame payload format.
    pub fn encode(&self, out: &mut Vec<u8>) {
        write_u64(out, self.id);
        write_str(out, &self.cve_id);
        write_str(out, &self.library);
        write_str(out, &self.domain);
        write_u64(out, u64::from(self.first_week));
        write_u64(out, u64::from(self.last_week));
        write_u64(out, u64::from(self.weeks_exposed));
        write_u64(out, u64::from(self.coverage.shards_scanned));
        write_u64(out, u64::from(self.coverage.shards_total));
    }

    /// Decodes an alert encoded by [`Alert::encode`].
    pub fn decode(cur: &mut Cursor<'_>) -> Option<Alert> {
        Some(Alert {
            id: cur.u64()?,
            cve_id: cur.str()?,
            library: cur.str()?,
            domain: cur.str()?,
            first_week: u32::try_from(cur.u64()?).ok()?,
            last_week: u32::try_from(cur.u64()?).ok()?,
            weeks_exposed: u32::try_from(cur.u64()?).ok()?,
            coverage: Coverage {
                shards_scanned: u32::try_from(cur.u64()?).ok()?,
                shards_total: u32::try_from(cur.u64()?).ok()?,
            },
        })
    }

    /// The delivered-log line for this alert. The ID leads the line so a
    /// reopened outbox can recover the delivered set with a prefix scan.
    pub fn log_line(&self) -> String {
        format!(
            "{:016x} {} {} {} weeks {}-{} exposed {} coverage {}/{}",
            self.id,
            self.cve_id,
            self.library,
            self.domain,
            self.first_week,
            self.last_week,
            self.weeks_exposed,
            self.coverage.shards_scanned,
            self.coverage.shards_total,
        )
    }

    /// Parses the leading ID of a delivered-log line; `None` for torn or
    /// foreign lines.
    pub fn log_line_id(line: &str) -> Option<u64> {
        let token = line.split_whitespace().next()?;
        if token.len() != 16 {
            return None;
        }
        u64::from_str_radix(token, 16).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Alert {
        Alert::new(
            "CVE-2020-11022",
            "jquery",
            "site001.example",
            3,
            9,
            5,
            Coverage {
                shards_scanned: 3,
                shards_total: 4,
            },
        )
    }

    #[test]
    fn ids_are_deterministic_and_identity_sensitive() {
        let a = sample();
        let b = sample();
        assert_eq!(a.id, b.id);
        assert_ne!(
            alert_id("CVE-2020-11022", "site001.example", 3, 9),
            alert_id("CVE-2020-11023", "site001.example", 3, 9)
        );
        assert_ne!(
            alert_id("CVE-2020-11022", "site001.example", 3, 9),
            alert_id("CVE-2020-11022", "site002.example", 3, 9)
        );
        assert_ne!(
            alert_id("CVE-2020-11022", "site001.example", 3, 9),
            alert_id("CVE-2020-11022", "site001.example", 3, 10),
            "a longer exposure is a new alert"
        );
        // Field boundaries matter: moving a byte across the separator
        // must change the hash.
        assert_ne!(
            alert_id("CVE-1a", "b.example", 0, 0),
            alert_id("CVE-1", "ab.example", 0, 0)
        );
    }

    #[test]
    fn encode_decode_round_trips() {
        let alert = sample();
        let mut buf = Vec::new();
        alert.encode(&mut buf);
        let mut cur = Cursor::new(&buf);
        assert_eq!(Alert::decode(&mut cur), Some(alert));
        assert!(cur.is_empty());
    }

    #[test]
    fn log_lines_lead_with_the_id() {
        let alert = sample();
        let line = alert.log_line();
        assert_eq!(Alert::log_line_id(&line), Some(alert.id));
        assert!(line.contains("coverage 3/4"));
        assert_eq!(Alert::log_line_id("torn garbag"), None);
        assert_eq!(Alert::log_line_id(""), None);
    }
}
