//! The store's record model and its varint codec.
//!
//! `webvuln-store` is dependency-free, so it cannot name the analysis
//! crate's types; instead it defines a plain-string mirror of everything a
//! weekly snapshot holds. The integration layer (`webvuln-analysis`) maps
//! its `WeekSnapshot`/`PageAnalysis` structures into this model and back.
//!
//! Encoding is canonical: the same logical record always produces the same
//! bytes (strings resolve to stable symbols, fields are written in a fixed
//! order). Week-over-week delta detection relies on this — two encoded
//! bodies are compared byte-for-byte.
//!
//! Every record type is generic over how it holds a string. Writers take
//! the owned form (`S = String`, the default). The one decoder,
//! [`decode_body`], yields either: the borrowed form (`S = Sym<'_>`: the
//! reader's symbol and the text it resolves to, no allocation per field)
//! that a fold absorbs in place, or — the same walk, each [`Sym`] copied
//! out as it is met ([`FromSym`]) — the owned form a point read returns.
//! [`DomainRecord::to_owned`] maps the first to the second.

use crate::error::StoreError;
use crate::intern::Interner;
use crate::varint::{write_u64, Cursor};

/// One weekly snapshot, ready to commit. The writers only read the
/// records, so a shard's slice of a group week is a
/// `WeekData<&DomainRecord>` borrowing from it, not a clone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeekData<R = DomainRecord> {
    /// Zero-based snapshot index.
    pub week: usize,
    /// Snapshot date as days since the Unix epoch.
    pub date_days: i64,
    /// Per-domain outcomes, sorted by host name.
    pub records: Vec<R>,
}

/// An interned string as a decoded record holds it. A symbol means
/// something only within the table of the reader that decoded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sym<'a> {
    /// The symbol in the decoding reader's string table.
    pub id: u32,
    /// The string it resolves to.
    pub text: &'a str,
}

/// How a decoded record holds a string: as the [`Sym`] it was stored as,
/// or copied out of the table.
pub trait FromSym<'a> {
    /// Takes `sym` as decoded.
    fn from_sym(sym: Sym<'a>) -> Self;
}

impl<'a> FromSym<'a> for Sym<'a> {
    fn from_sym(sym: Sym<'a>) -> Self {
        sym
    }
}

impl FromSym<'_> for String {
    fn from_sym(sym: Sym<'_>) -> String {
        sym.text.to_string()
    }
}

/// The outcome of fetching one domain in one week.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainRecord<S = String> {
    /// Domain name.
    pub host: S,
    /// HTTP status, `None` for transport failures.
    pub status: Option<u16>,
    /// Response body size in bytes.
    pub body_len: u64,
    /// Fingerprint results; `None` when the page was unusable.
    pub page: Option<PageRecord<S>>,
}

/// Everything fingerprinting extracted from one usable page.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageRecord<S = String> {
    /// Detected library deployments.
    pub detections: Vec<DetectionRecord<S>>,
    /// WordPress detection state.
    pub wordpress: WordPressRecord<S>,
    /// Flash findings: `(swf URL, AllowScriptAccess value)`.
    pub flash: Vec<FlashRecord<S>>,
    /// Resource-class tags (opaque small integers defined by the caller).
    pub resource_types: Vec<u8>,
    /// External scripts served from GitHub hosts.
    pub github_scripts: Vec<ScriptRecord<S>>,
    /// Count of external scripts on the page.
    pub external_scripts: u64,
    /// Count of external scripts lacking `integrity`.
    pub external_scripts_without_integrity: u64,
    /// `crossorigin` values seen on integrity-carrying scripts.
    pub crossorigin_values: Vec<S>,
}

/// One detected library deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectionRecord<S = String> {
    /// Library identifier (a stable slug).
    pub library: S,
    /// Extracted version string, when observable.
    pub version: Option<S>,
    /// Serving host for cross-origin inclusions; `None` = same-origin.
    pub external_host: Option<S>,
    /// Whether the tag carried `integrity`.
    pub integrity: bool,
    /// The `crossorigin` attribute value, if present.
    pub crossorigin: Option<S>,
    /// The URL the detection came from (empty for inline detections).
    pub url: S,
}

/// WordPress detection state (three-valued).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum WordPressRecord<S = String> {
    /// Not detected.
    #[default]
    Absent,
    /// Detected, version not observable.
    DetectedUnknownVersion,
    /// Detected with a version string.
    Detected(S),
}

/// One Flash embed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlashRecord<S = String> {
    /// `.swf` URL.
    pub swf_url: S,
    /// Lower-cased `AllowScriptAccess` value, if specified.
    pub allow_script_access: Option<S>,
}

/// One external script reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptRecord<S = String> {
    /// Serving host.
    pub host: S,
    /// Full URL.
    pub url: S,
    /// Whether the tag carried `integrity`.
    pub integrity: bool,
    /// `crossorigin` value, if present.
    pub crossorigin: Option<S>,
}

fn write_opt_sym(out: &mut Vec<u8>, table: &mut Interner, value: Option<&str>) {
    match value {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            write_u64(out, u64::from(table.intern(s)));
        }
    }
}

fn write_sym(out: &mut Vec<u8>, table: &mut Interner, value: &str) {
    write_u64(out, u64::from(table.intern(value)));
}

/// Encodes the body of a domain record (everything except the host symbol
/// and the full/back-reference tag, which belong to the segment layer).
pub fn encode_body(record: &DomainRecord, table: &mut Interner, out: &mut Vec<u8>) {
    match record.status {
        None => out.push(0),
        Some(status) => {
            out.push(1);
            write_u64(out, u64::from(status));
        }
    }
    write_u64(out, record.body_len);
    match &record.page {
        None => out.push(0),
        Some(page) => {
            out.push(1);
            encode_page(page, table, out);
        }
    }
}

fn encode_page(page: &PageRecord, table: &mut Interner, out: &mut Vec<u8>) {
    write_u64(out, page.detections.len() as u64);
    for det in &page.detections {
        write_sym(out, table, &det.library);
        write_opt_sym(out, table, det.version.as_deref());
        write_opt_sym(out, table, det.external_host.as_deref());
        out.push(u8::from(det.integrity));
        write_opt_sym(out, table, det.crossorigin.as_deref());
        write_sym(out, table, &det.url);
    }
    match &page.wordpress {
        WordPressRecord::Absent => out.push(0),
        WordPressRecord::DetectedUnknownVersion => out.push(1),
        WordPressRecord::Detected(version) => {
            out.push(2);
            write_sym(out, table, version);
        }
    }
    write_u64(out, page.flash.len() as u64);
    for flash in &page.flash {
        write_sym(out, table, &flash.swf_url);
        write_opt_sym(out, table, flash.allow_script_access.as_deref());
    }
    write_u64(out, page.resource_types.len() as u64);
    out.extend_from_slice(&page.resource_types);
    write_u64(out, page.github_scripts.len() as u64);
    for script in &page.github_scripts {
        write_sym(out, table, &script.host);
        write_sym(out, table, &script.url);
        out.push(u8::from(script.integrity));
        write_opt_sym(out, table, script.crossorigin.as_deref());
    }
    write_u64(out, page.external_scripts);
    write_u64(out, page.external_scripts_without_integrity);
    write_u64(out, page.crossorigin_values.len() as u64);
    for value in &page.crossorigin_values {
        write_sym(out, table, value);
    }
}

struct BodyReader<'a, 'b> {
    cur: &'b mut Cursor<'a>,
    table: &'a Interner,
    base_offset: u64,
}

impl<'a> BodyReader<'a, '_> {
    fn corrupt(&self, detail: &str) -> StoreError {
        StoreError::corrupt(self.base_offset + self.cur.pos() as u64, detail)
    }

    fn u8(&mut self, what: &str) -> Result<u8, StoreError> {
        self.cur.u8().ok_or_else(|| self.corrupt(what))
    }

    fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        self.cur.u64().ok_or_else(|| self.corrupt(what))
    }

    fn count(&mut self, what: &str) -> Result<usize, StoreError> {
        let n = self.u64(what)?;
        // A record cannot hold more entries than bytes remain: rejects
        // absurd counts before they become giant allocations.
        if n > self.cur.remaining() as u64 {
            return Err(self.corrupt(what));
        }
        Ok(n as usize)
    }

    fn sym<S: FromSym<'a>>(&mut self, what: &str) -> Result<S, StoreError> {
        let raw = self.u64(what)?;
        let id = u32::try_from(raw).map_err(|_| self.corrupt(what))?;
        match self.table.sym(id) {
            Some(sym) => Ok(S::from_sym(sym)),
            None => Err(self.corrupt(&format!("{what}: unknown symbol {id}"))),
        }
    }

    fn opt_sym<S: FromSym<'a>>(&mut self, what: &str) -> Result<Option<S>, StoreError> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.sym(what)?)),
            _ => Err(self.corrupt(what)),
        }
    }

    fn bool(&mut self, what: &str) -> Result<bool, StoreError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.corrupt(what)),
        }
    }
}

/// Decodes a domain-record body previously written by [`encode_body`] —
/// the store's one record decoder. Every string comes back as `S` takes
/// it: its symbol and a borrow of `table`'s text (`Sym`), or a copy
/// (`String`).
///
/// `base_offset` is the body's absolute file offset, used to position
/// corruption errors.
pub fn decode_body<'a, S: FromSym<'a>>(
    cur: &mut Cursor<'a>,
    table: &'a Interner,
    host: Sym<'a>,
    base_offset: u64,
) -> Result<DomainRecord<S>, StoreError> {
    let mut r = BodyReader {
        cur,
        table,
        base_offset,
    };
    let status = match r.u8("status tag")? {
        0 => None,
        1 => {
            let raw = r.u64("status")?;
            Some(u16::try_from(raw).map_err(|_| r.corrupt("status out of range"))?)
        }
        _ => return Err(r.corrupt("status tag")),
    };
    let body_len = r.u64("body length")?;
    let page = match r.u8("page tag")? {
        0 => None,
        1 => Some(decode_page(&mut r)?),
        _ => return Err(r.corrupt("page tag")),
    };
    Ok(DomainRecord {
        host: S::from_sym(host),
        status,
        body_len,
        page,
    })
}

fn decode_page<'a, S: FromSym<'a>>(
    r: &mut BodyReader<'a, '_>,
) -> Result<PageRecord<S>, StoreError> {
    let n_detections = r.count("detection count")?;
    let mut detections = Vec::with_capacity(n_detections);
    for _ in 0..n_detections {
        detections.push(DetectionRecord {
            library: r.sym("library")?,
            version: r.opt_sym("version")?,
            external_host: r.opt_sym("external host")?,
            integrity: r.bool("integrity")?,
            crossorigin: r.opt_sym("crossorigin")?,
            url: r.sym("detection url")?,
        });
    }
    let wordpress = match r.u8("wordpress tag")? {
        0 => WordPressRecord::Absent,
        1 => WordPressRecord::DetectedUnknownVersion,
        2 => WordPressRecord::Detected(r.sym("wordpress version")?),
        _ => return Err(r.corrupt("wordpress tag")),
    };
    let n_flash = r.count("flash count")?;
    let mut flash = Vec::with_capacity(n_flash);
    for _ in 0..n_flash {
        flash.push(FlashRecord {
            swf_url: r.sym("swf url")?,
            allow_script_access: r.opt_sym("allow_script_access")?,
        });
    }
    let n_types = r.count("resource-type count")?;
    let resource_types = match r.cur.bytes(n_types) {
        Some(types) => types.to_vec(),
        None => return Err(r.corrupt("resource types")),
    };
    let n_github = r.count("github script count")?;
    let mut github_scripts = Vec::with_capacity(n_github);
    for _ in 0..n_github {
        github_scripts.push(ScriptRecord {
            host: r.sym("script host")?,
            url: r.sym("script url")?,
            integrity: r.bool("script integrity")?,
            crossorigin: r.opt_sym("script crossorigin")?,
        });
    }
    let external_scripts = r.u64("external script count")?;
    let external_scripts_without_integrity = r.u64("unprotected script count")?;
    let n_crossorigin = r.count("crossorigin value count")?;
    let mut crossorigin_values = Vec::with_capacity(n_crossorigin);
    for _ in 0..n_crossorigin {
        crossorigin_values.push(r.sym("crossorigin value")?);
    }
    Ok(PageRecord {
        detections,
        wordpress,
        flash,
        resource_types,
        github_scripts,
        external_scripts,
        external_scripts_without_integrity,
        crossorigin_values,
    })
}

impl DomainRecord<Sym<'_>> {
    /// The owned record: every borrowed string copied out of the table.
    pub fn to_owned(&self) -> DomainRecord {
        let own = |sym: &Sym<'_>| sym.text.to_string();
        DomainRecord {
            host: own(&self.host),
            status: self.status,
            body_len: self.body_len,
            page: self.page.as_ref().map(|page| PageRecord {
                detections: page
                    .detections
                    .iter()
                    .map(|det| DetectionRecord {
                        library: own(&det.library),
                        version: det.version.as_ref().map(own),
                        external_host: det.external_host.as_ref().map(own),
                        integrity: det.integrity,
                        crossorigin: det.crossorigin.as_ref().map(own),
                        url: own(&det.url),
                    })
                    .collect(),
                wordpress: match &page.wordpress {
                    WordPressRecord::Absent => WordPressRecord::Absent,
                    WordPressRecord::DetectedUnknownVersion => {
                        WordPressRecord::DetectedUnknownVersion
                    }
                    WordPressRecord::Detected(version) => WordPressRecord::Detected(own(version)),
                },
                flash: page
                    .flash
                    .iter()
                    .map(|flash| FlashRecord {
                        swf_url: own(&flash.swf_url),
                        allow_script_access: flash.allow_script_access.as_ref().map(own),
                    })
                    .collect(),
                resource_types: page.resource_types.clone(),
                github_scripts: page
                    .github_scripts
                    .iter()
                    .map(|script| ScriptRecord {
                        host: own(&script.host),
                        url: own(&script.url),
                        integrity: script.integrity,
                        crossorigin: script.crossorigin.as_ref().map(own),
                    })
                    .collect(),
                external_scripts: page.external_scripts,
                external_scripts_without_integrity: page.external_scripts_without_integrity,
                crossorigin_values: page.crossorigin_values.iter().map(own).collect(),
            }),
        }
    }
}

impl WeekData<DomainRecord<Sym<'_>>> {
    /// The owned week: [`DomainRecord::to_owned`] of every record.
    pub fn to_owned(&self) -> WeekData {
        WeekData {
            week: self.week,
            date_days: self.date_days,
            records: self.records.iter().map(DomainRecord::to_owned).collect(),
        }
    }
}

#[cfg(test)]
pub(crate) mod testkit {
    //! Record fixtures shared by the codec, writer, and corruption tests.

    use super::*;

    /// A fully populated page: every field class exercised.
    pub fn rich_page() -> PageRecord {
        PageRecord {
            detections: vec![
                DetectionRecord {
                    library: "jquery".into(),
                    version: Some("1.12.4".into()),
                    external_host: Some("cdn.example".into()),
                    integrity: true,
                    crossorigin: Some("anonymous".into()),
                    url: "https://cdn.example/jquery-1.12.4.min.js".into(),
                },
                DetectionRecord {
                    library: "bootstrap".into(),
                    version: None,
                    external_host: None,
                    integrity: false,
                    crossorigin: None,
                    url: String::new(),
                },
            ],
            wordpress: WordPressRecord::Detected("5.5.1".into()),
            flash: vec![FlashRecord {
                swf_url: "/banner.swf".into(),
                allow_script_access: Some("always".into()),
            }],
            resource_types: vec![0, 1, 6],
            github_scripts: vec![ScriptRecord {
                host: "widgets.github.io".into(),
                url: "https://widgets.github.io/w.js".into(),
                integrity: false,
                crossorigin: None,
            }],
            external_scripts: 4,
            external_scripts_without_integrity: 3,
            crossorigin_values: vec!["anonymous".into()],
        }
    }

    /// A usable-page record for `host`.
    pub fn page_record(host: &str) -> DomainRecord {
        DomainRecord {
            host: host.into(),
            status: Some(200),
            body_len: 5_432,
            page: Some(rich_page()),
        }
    }

    /// A dead-domain record for `host`.
    pub fn dead_record(host: &str) -> DomainRecord {
        DomainRecord {
            host: host.into(),
            status: None,
            body_len: 0,
            page: None,
        }
    }

    /// A small week with `n` domains; content varies by `week` so delta
    /// tests can control what changes.
    pub fn week(week: usize, n: usize) -> WeekData {
        let records = (0..n)
            .map(|i| {
                let host = format!("site{i:03}.example");
                if i % 7 == 3 {
                    dead_record(&host)
                } else {
                    let mut rec = page_record(&host);
                    rec.body_len += week as u64; // perturb per week
                    rec
                }
            })
            .collect();
        WeekData {
            week,
            date_days: 17_600 + 7 * week as i64,
            records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;
    use super::*;

    fn round_trip(record: &DomainRecord) -> DomainRecord {
        let mut table = Interner::new();
        let mut buf = Vec::new();
        encode_body(record, &mut table, &mut buf);
        let mut cur = Cursor::new(&buf);
        let back: DomainRecord =
            decode_body(&mut cur, &table, host(&record.host), 0).expect("decode");
        assert!(cur.is_empty(), "trailing bytes after decode");
        // Borrowed, then owned, is the same record.
        let borrowed: DomainRecord<Sym<'_>> =
            decode_body(&mut Cursor::new(&buf), &table, host(&record.host), 0).expect("decode");
        assert_eq!(borrowed.to_owned(), back);
        back
    }

    /// A host as the segment layer hands it to the body decoder.
    fn host(text: &str) -> Sym<'_> {
        Sym { id: 0, text }
    }

    #[test]
    fn rich_record_round_trips() {
        let record = page_record("site.example");
        assert_eq!(round_trip(&record), record);
    }

    #[test]
    fn degenerate_records_round_trip() {
        assert_eq!(
            round_trip(&dead_record("gone.example")),
            dead_record("gone.example")
        );
        let empty_page = DomainRecord {
            host: "empty.example".into(),
            status: Some(404),
            body_len: 120,
            page: Some(PageRecord::default()),
        };
        assert_eq!(round_trip(&empty_page), empty_page);
    }

    #[test]
    fn wordpress_three_states_are_distinct() {
        for wp in [
            WordPressRecord::Absent,
            WordPressRecord::DetectedUnknownVersion,
            WordPressRecord::Detected("6.0".into()),
        ] {
            let record = DomainRecord {
                host: "wp.example".into(),
                status: Some(200),
                body_len: 900,
                page: Some(PageRecord {
                    wordpress: wp.clone(),
                    ..PageRecord::default()
                }),
            };
            let back = round_trip(&record);
            assert_eq!(back.page.expect("page").wordpress, wp);
        }
    }

    #[test]
    fn encoding_is_canonical() {
        // Identical logical records encode to identical bytes even when
        // interleaved with other interning activity — the property the
        // delta layer depends on.
        let record = page_record("site.example");
        let mut table = Interner::new();
        let mut first = Vec::new();
        encode_body(&record, &mut table, &mut first);
        table.intern("unrelated-noise.example");
        let mut second = Vec::new();
        encode_body(&record, &mut table, &mut second);
        assert_eq!(first, second);
    }

    #[test]
    fn corrupt_tags_are_typed_errors() {
        let record = page_record("site.example");
        let mut table = Interner::new();
        let mut buf = Vec::new();
        encode_body(&record, &mut table, &mut buf);
        // Status tag 9 is invalid.
        let mut evil = buf.clone();
        evil[0] = 9;
        let err = decode_body::<String>(&mut Cursor::new(&evil), &table, host("site.example"), 0)
            .expect_err("invalid tag");
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err}");
        // Truncation anywhere must error, never panic.
        for cut in 0..buf.len() {
            let mut cur = Cursor::new(&buf[..cut]);
            assert!(
                decode_body::<Sym<'_>>(&mut cur, &table, host("site.example"), 0).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn unknown_symbols_are_rejected() {
        let record = page_record("site.example");
        let mut table = Interner::new();
        let mut buf = Vec::new();
        encode_body(&record, &mut table, &mut buf);
        let empty = Interner::new();
        let err = decode_body::<String>(&mut Cursor::new(&buf), &empty, host("site.example"), 0)
            .expect_err("symbols unresolvable");
        assert!(err.to_string().contains("unknown symbol"), "{err}");
    }
}
