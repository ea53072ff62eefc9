//! On-disk format: file header, segment envelopes, footer, and the
//! recovery scan.
//!
//! ```text
//! file    := header segment* footer?
//! header  := "WVSTORE\0" u32le version u32le reserved        (16 bytes)
//! segment := u8 kind  u32le payload_len  payload  u32le crc
//!            crc = CRC-32 over (kind ‖ payload_len ‖ payload)
//! footer  := segment(kind=0xFF)  u32le envelope_len  "WVSFOOT\0"
//! ```
//!
//! Real segments come in three kinds, always in this file order:
//! one *genesis* (timeline + rank list), then one *week* segment per
//! committed snapshot (strictly sequential), then at most one *finalize*
//! segment (the inaccessibility-filter verdict). The footer lists every
//! segment and is rewritten in place after each commit, but nothing
//! decodes that list: every open walks the file front to back
//! ([`scan`]), and random access comes from the index inside each week
//! segment. What the footer is for is the commit — its rewrite is the
//! writer's `sync_data` point — and a tail marker telling a cleanly
//! closed file from one whose last commit was cut short. When a crash
//! tears it (or any trailing segment), the scan recovers the longest
//! valid prefix and reports the torn byte count.
//!
//! Every payload begins with a string block — the strings first
//! interned by that segment — so symbols are assigned in file order and
//! any sequential reader reconstructs the writer's exact table.
//!
//! A *standalone segment file* is `header ‖ segment` and nothing else:
//! one week with a fresh string table and no delta state
//! ([`encode_week_file`]), or one genesis ([`encode_genesis_file`] —
//! the first bytes of every store). The watch spool ships weeks in it.

use crate::crc32::crc32;
use crate::error::StoreError;
use crate::intern::Interner;
use crate::record::{decode_body, encode_body, DomainRecord, FromSym, Sym, WeekData};
use crate::varint::{write_i64, write_str, write_u64, Cursor};
use std::borrow::Borrow;
use std::collections::HashMap;

/// File magic: identifies a webvuln snapshot store.
pub(crate) const MAGIC: [u8; 8] = *b"WVSTORE\0";
/// Trailing footer magic, read backwards from the file tail.
pub(crate) const FOOTER_MAGIC: [u8; 8] = *b"WVSFOOT\0";
/// Current (and only) format version.
pub const FORMAT_VERSION: u32 = 1;
/// Byte length of the fixed file header.
pub(crate) const HEADER_LEN: u64 = 16;
/// Byte length of a segment envelope around its payload (kind + len + crc).
pub(crate) const ENVELOPE_OVERHEAD: u64 = 9;

/// Segment kind tags.
pub(crate) mod kind {
    /// Timeline + rank list; always the first segment.
    pub(crate) const GENESIS: u8 = 0;
    /// One committed weekly snapshot.
    pub(crate) const WEEK: u8 = 1;
    /// The inaccessibility-filter verdict; closes the store.
    pub(crate) const FINALIZE: u8 = 2;
    /// The rewritten tail index (not a data segment).
    pub(crate) const FOOTER: u8 = 0xFF;
}

/// The 16-byte file header.
pub(crate) fn encode_header() -> [u8; 16] {
    let mut header = [0u8; 16];
    header[..8].copy_from_slice(&MAGIC);
    header[8..12].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    header
}

/// Wraps `payload` in a segment envelope.
pub(crate) fn encode_segment(kind: u8, payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("segment payload under 4 GiB");
    let mut out = Vec::with_capacity(payload.len() + ENVELOPE_OVERHEAD as usize);
    out.push(kind);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(&out).to_le_bytes());
    out
}

/// Index entry for one data segment, as carried by the footer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SegmentMeta {
    /// Segment kind ([`kind`]).
    pub(crate) kind: u8,
    /// Week index for week segments, 0 otherwise.
    pub(crate) week: usize,
    /// Absolute file offset of the envelope.
    pub(crate) offset: u64,
    /// Total envelope length in bytes.
    pub(crate) env_len: u64,
}

/// Encodes the footer (envelope + tail trailer) for `segments`.
pub(crate) fn encode_footer(segments: &[SegmentMeta]) -> Vec<u8> {
    let mut body = Vec::new();
    write_u64(&mut body, segments.len() as u64);
    for meta in segments {
        body.push(meta.kind);
        write_u64(&mut body, meta.week as u64);
        write_u64(&mut body, meta.offset);
        write_u64(&mut body, meta.env_len);
    }
    let mut out = encode_segment(kind::FOOTER, &body);
    let env_len = u32::try_from(out.len()).expect("footer under 4 GiB");
    out.extend_from_slice(&env_len.to_le_bytes());
    out.extend_from_slice(&FOOTER_MAGIC);
    out
}

/// One validated segment as found on disk.
pub(crate) struct RawSegment {
    /// Segment kind.
    pub(crate) kind: u8,
    /// Absolute file offset of the envelope.
    pub(crate) offset: u64,
    /// Total envelope length.
    pub(crate) env_len: u64,
    /// The payload bytes (CRC already verified).
    pub(crate) payload: Vec<u8>,
    /// The stored CRC: a reader following the file checks it is still
    /// where the segment ends before it reads on.
    pub(crate) crc: u32,
}

impl RawSegment {
    /// Absolute file offset of the first payload byte.
    pub(crate) fn payload_offset(&self) -> u64 {
        self.offset + 5
    }

    /// This segment's footer entry. `week` must be supplied by the
    /// structural layer (the envelope does not repeat it).
    pub(crate) fn meta(&self, week: usize) -> SegmentMeta {
        SegmentMeta {
            kind: self.kind,
            week,
            offset: self.offset,
            env_len: self.env_len,
        }
    }
}

/// Result of walking a store file front to back.
pub(crate) struct Scan {
    /// Every structurally valid data segment, in file order.
    pub(crate) segments: Vec<RawSegment>,
    /// Offset one past the last valid data segment — where the next
    /// commit must write, and where recovery truncates.
    pub(crate) data_end: u64,
    /// Bytes of torn/corrupt tail dropped by the scan (including any
    /// stale footer).
    pub(crate) torn_bytes: u64,
    /// Whether a valid footer was found after the last data segment.
    pub(crate) had_footer: bool,
}

/// Checks the 16-byte file header: magic and format version.
fn check_header(bytes: &[u8]) -> Result<(), StoreError> {
    if (bytes.len() as u64) < HEADER_LEN || bytes[..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    Ok(())
}

/// Walks a store's bytes, validating envelopes, CRCs, and the order of
/// segment kinds (genesis first, then weeks, finalize last). That the
/// weeks count 0, 1, 2, … is checked by [`index`], which decodes their
/// headers. Stops at the first invalid byte: everything before it is the
/// recovered store, everything after is the torn tail.
pub(crate) fn scan(bytes: &[u8]) -> Result<Scan, StoreError> {
    check_header(bytes)?;
    let scanned = scan_from(&bytes[HEADER_LEN as usize..], HEADER_LEN, None);
    if scanned.segments.is_empty() {
        return Err(StoreError::MissingGenesis);
    }
    Ok(scanned)
}

/// [`scan`] from byte `base` on — `tail` holds the file from there — after
/// a segment of kind `last` (`None`: right after the header).
pub(crate) fn scan_from(tail: &[u8], base: u64, mut last: Option<u8>) -> Scan {
    let mut segments = Vec::new();
    let (mut pos, mut data_end, mut valid_end, mut had_footer) = (0, 0, 0, false);
    while let Some(mut segment) = read_envelope(tail, pos) {
        if segment.kind == kind::FOOTER {
            // A footer is index data, not a segment; note it and keep
            // scanning (a well-formed file ends here). The 12-byte trailer
            // (length + magic) must follow.
            pos += segment.env_len;
            if tail.get(pos as usize + 4..pos as usize + 12) != Some(&FOOTER_MAGIC[..]) {
                break;
            }
            (pos, valid_end, had_footer) = (pos + 12, pos + 12, true);
            continue;
        }
        let in_order = match segment.kind {
            kind::GENESIS => last.is_none(),
            kind::WEEK | kind::FINALIZE => matches!(last, Some(kind::GENESIS | kind::WEEK)),
            _ => false,
        };
        if !in_order {
            break;
        }
        pos += segment.env_len;
        // Data after a footer supersedes it.
        (data_end, valid_end, had_footer) = (pos, pos, false);
        last = Some(segment.kind);
        segment.offset += base;
        segments.push(segment);
    }
    Scan {
        segments,
        data_end: base + data_end,
        torn_bytes: tail.len() as u64 - valid_end,
        had_footer,
    }
}

/// Parses one envelope at `offset`, verifying bounds and CRC.
fn read_envelope(bytes: &[u8], offset: u64) -> Option<RawSegment> {
    let start = usize::try_from(offset).ok()?;
    let head = bytes.get(start..start + 5)?;
    let seg_kind = head[0];
    let payload_len = u32::from_le_bytes(head[1..5].try_into().ok()?) as usize;
    let payload_start = start + 5;
    let payload_end = payload_start.checked_add(payload_len)?;
    let crc_end = payload_end.checked_add(4)?;
    if crc_end > bytes.len() {
        return None;
    }
    let stored = u32::from_le_bytes(bytes[payload_end..crc_end].try_into().ok()?);
    if crc32(&bytes[start..payload_end]) != stored {
        return None;
    }
    Some(RawSegment {
        kind: seg_kind,
        offset,
        env_len: (crc_end - start) as u64,
        payload: bytes[payload_start..payload_end].to_vec(),
        crc: stored,
    })
}

// ---------------------------------------------------------------------------
// Payload codecs
// ---------------------------------------------------------------------------

/// Store-wide study metadata, written once at creation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Genesis {
    /// Date of week 0's snapshot, days since the Unix epoch.
    pub start_days: i64,
    /// Total weeks the study will commit.
    pub weeks_total: usize,
    /// `(domain, rank)` pairs, rank 1-based.
    pub ranks: Vec<(String, u64)>,
}

fn encode_string_block(table: &Interner, out: &mut Vec<u8>) {
    let new = table.new_strings();
    write_u64(out, new.len() as u64);
    for s in new {
        write_str(out, s);
    }
}

/// Decodes a segment's string block into `table`, extending the symbol
/// space in writer order.
pub(crate) fn decode_string_block(
    cur: &mut Cursor<'_>,
    table: &mut Interner,
    base_offset: u64,
) -> Result<(), StoreError> {
    let bad =
        |cur: &Cursor<'_>, what: &str| StoreError::corrupt(base_offset + cur.pos() as u64, what);
    let count = cur.len().ok_or_else(|| bad(cur, "string block count"))?;
    for _ in 0..count {
        table.push_decoded(cur.str().ok_or_else(|| bad(cur, "string block entry"))?);
    }
    Ok(())
}

/// Encodes the genesis payload, interning every domain name.
pub(crate) fn encode_genesis(genesis: &Genesis, table: &mut Interner) -> Vec<u8> {
    table.set_mark();
    let mut body = Vec::new();
    write_i64(&mut body, genesis.start_days);
    write_u64(&mut body, genesis.weeks_total as u64);
    write_u64(&mut body, genesis.ranks.len() as u64);
    for (host, rank) in &genesis.ranks {
        write_u64(&mut body, u64::from(table.intern(host)));
        write_u64(&mut body, *rank);
    }
    let mut payload = Vec::new();
    encode_string_block(table, &mut payload);
    payload.extend_from_slice(&body);
    payload
}

/// Decodes a genesis payload (string block included).
pub(crate) fn decode_genesis(
    payload: &[u8],
    table: &mut Interner,
    base_offset: u64,
) -> Result<Genesis, StoreError> {
    let mut cur = Cursor::new(payload);
    decode_string_block(&mut cur, table, base_offset)?;
    let bad =
        |cur: &Cursor<'_>, what: &str| StoreError::corrupt(base_offset + cur.pos() as u64, what);
    let start_days = cur.i64().ok_or_else(|| bad(&cur, "genesis start date"))?;
    let weeks_total = cur.len().ok_or_else(|| bad(&cur, "genesis week count"))?;
    let count = cur.len().ok_or_else(|| bad(&cur, "genesis rank count"))?;
    let mut ranks = Vec::with_capacity(count.min(payload.len()));
    for _ in 0..count {
        let sym_raw = cur.u64().ok_or_else(|| bad(&cur, "rank host symbol"))?;
        let sym = u32::try_from(sym_raw).map_err(|_| bad(&cur, "rank host symbol"))?;
        let host = table
            .resolve(sym)
            .ok_or_else(|| bad(&cur, "rank host symbol unknown"))?
            .to_string();
        let rank = cur.u64().ok_or_else(|| bad(&cur, "rank value"))?;
        ranks.push((host, rank));
    }
    if !cur.is_empty() {
        return Err(bad(&cur, "trailing bytes after ranks"));
    }
    Ok(Genesis {
        start_days,
        weeks_total,
        ranks,
    })
}

/// 128-bit FNV-1a over a record body. Deterministic across processes
/// (unlike `DefaultHasher`), and wide enough that a collision between
/// *different* bodies of equal length is not a practical concern; the
/// delta encoder treats equal `(len, hash)` as equal bytes.
pub(crate) fn body_hash(body: &[u8]) -> u128 {
    const BASIS: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;
    let mut hash = BASIS;
    for &byte in body {
        hash ^= u128::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Per-host delta state carried from the previous committed week: where
/// the canonical (full) body lives and a fingerprint of its bytes. The
/// bytes themselves are *not* retained — at paper scale the previous
/// week's bodies are the single largest resident allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PrevBody {
    /// Absolute file offset of the canonical body.
    pub(crate) offset: u64,
    /// Exact encoded length of the body.
    pub(crate) len: usize,
    /// [`body_hash`] of the body bytes.
    pub(crate) hash: u128,
}

impl PrevBody {
    /// Fingerprints `body` as it sits at `offset`.
    pub(crate) fn of(offset: u64, body: &[u8]) -> PrevBody {
        PrevBody {
            offset,
            len: body.len(),
            hash: body_hash(body),
        }
    }
}

/// Per-host state the delta encoder carries from the previous committed
/// week.
pub(crate) type PrevWeek = HashMap<u32, PrevBody>;

/// Everything [`encode_week`] produces.
pub(crate) struct EncodedWeek {
    /// The segment payload, ready for [`encode_segment`].
    pub(crate) payload: Vec<u8>,
    /// Delta state to carry into the next week's encode.
    pub(crate) next_prev: PrevWeek,
    /// Records whose body was identical to the previous week.
    pub(crate) delta_hits: usize,
    /// Total bytes of all bodies before delta substitution.
    pub(crate) raw_bytes: u64,
    /// Bytes of the records region actually written.
    pub(crate) encoded_bytes: u64,
}

/// One record as staged by [`encode_week`] before the segment's string
/// block — and with it every absolute offset — is known.
struct EncEntry {
    host_sym: u32,
    /// Canonical body offset when delta-hit against the previous week.
    backref: Option<u64>,
    /// Offset of the full body *within the staged region* (count varint
    /// excluded); meaningless for back-references.
    rel: u64,
    /// Encoded body length.
    len: usize,
    /// [`body_hash`] of the body.
    hash: u128,
}

/// Encodes a week segment at file offset `seg_offset`, delta-compressing
/// against `prev` (the previous committed week's body map).
///
/// Records must be sorted by host name; the canonical encoding (and the
/// byte-identical comparison underlying delta hits) depends on it.
pub(crate) fn encode_week<S: AsRef<str>, R: Borrow<DomainRecord<S>>>(
    week: &WeekData<R>,
    table: &mut Interner,
    prev: &PrevWeek,
    seg_offset: u64,
) -> EncodedWeek {
    // Mark the interner so the string block captures exactly the strings
    // this segment introduces.
    table.set_mark();
    // The records region *without* its leading count varint.
    let mut body = Vec::new();
    let mut entries = Vec::with_capacity(week.records.len());
    let mut delta_hits = 0;
    let mut raw_bytes = 0u64;
    // One body buffer for the whole week: most bodies are back-references
    // and never leave it.
    let mut encoded = Vec::new();
    for record in &week.records {
        let record = record.borrow();
        let host_sym = table.intern(record.host.as_ref());
        encoded.clear();
        encode_body(record, table, &mut encoded);
        raw_bytes += encoded.len() as u64;
        let hash = body_hash(&encoded);
        let backref = match prev.get(&host_sym) {
            Some(p) if p.len == encoded.len() && p.hash == hash => Some(p.offset),
            _ => None,
        };
        write_u64(&mut body, u64::from(host_sym));
        let mut rel = 0u64;
        match backref {
            Some(target) => {
                delta_hits += 1;
                body.push(1);
                write_u64(&mut body, target);
            }
            None => {
                body.push(0);
                rel = body.len() as u64;
                body.extend_from_slice(&encoded);
            }
        }
        entries.push(EncEntry {
            host_sym,
            backref,
            rel,
            len: encoded.len(),
            hash,
        });
    }

    // Seal the segment: prepend the record count, resolve absolute body
    // offsets against `seg_offset`, and assemble the payload.
    let mut records = Vec::with_capacity(body.len() + 9);
    write_u64(&mut records, entries.len() as u64);
    let count_len = records.len() as u64;
    records.extend_from_slice(&body);

    let mut prefix = Vec::new();
    encode_string_block(table, &mut prefix);
    write_u64(&mut prefix, week.week as u64);
    write_i64(&mut prefix, week.date_days);
    write_u64(&mut prefix, records.len() as u64);
    let records_abs = seg_offset + 5 + prefix.len() as u64;

    let mut payload = prefix;
    let encoded_bytes = records.len() as u64;
    payload.extend_from_slice(&records);
    write_u64(&mut payload, entries.len() as u64);
    let mut next_prev = PrevWeek::with_capacity(entries.len());
    for entry in &entries {
        let body_abs = match entry.backref {
            Some(target) => target,
            None => records_abs + count_len + entry.rel,
        };
        write_u64(&mut payload, u64::from(entry.host_sym));
        write_u64(&mut payload, body_abs);
        next_prev.insert(
            entry.host_sym,
            PrevBody {
                offset: body_abs,
                len: entry.len,
                hash: entry.hash,
            },
        );
    }

    EncodedWeek {
        payload,
        next_prev,
        delta_hits,
        raw_bytes,
        encoded_bytes,
    }
}

/// The cheaply-decoded part of a week segment: header fields and the
/// random-access index, with record bodies left untouched.
pub(crate) struct WeekPrefix {
    /// Week index.
    pub(crate) week: usize,
    /// Snapshot date, days since epoch.
    pub(crate) date_days: i64,
    /// Offset of the records region *within the payload*.
    pub(crate) records_pos: usize,
    /// Byte length of the records region.
    pub(crate) records_len: usize,
    /// `(host_sym, absolute body offset)` pairs in record order.
    pub(crate) index: Vec<(u32, u64)>,
}

/// Decodes a week payload's string block, header, and index — skipping
/// the records region entirely.
pub(crate) fn decode_week_prefix(
    payload: &[u8],
    table: &mut Interner,
    base_offset: u64,
) -> Result<WeekPrefix, StoreError> {
    let mut cur = Cursor::new(payload);
    decode_string_block(&mut cur, table, base_offset)?;
    let bad =
        |cur: &Cursor<'_>, what: &str| StoreError::corrupt(base_offset + cur.pos() as u64, what);
    let week = cur.len().ok_or_else(|| bad(&cur, "week index"))?;
    let date_days = cur.i64().ok_or_else(|| bad(&cur, "week date"))?;
    let records_len = cur.len().ok_or_else(|| bad(&cur, "records length"))?;
    let records_pos = cur.pos();
    cur.skip(records_len)
        .ok_or_else(|| bad(&cur, "records region"))?;
    let count = cur.len().ok_or_else(|| bad(&cur, "index count"))?;
    let mut index = Vec::with_capacity(count.min(payload.len()));
    for _ in 0..count {
        let sym_raw = cur.u64().ok_or_else(|| bad(&cur, "index host symbol"))?;
        let sym = u32::try_from(sym_raw).map_err(|_| bad(&cur, "index host symbol"))?;
        let offset = cur.u64().ok_or_else(|| bad(&cur, "index body offset"))?;
        index.push((sym, offset));
    }
    if !cur.is_empty() {
        return Err(bad(&cur, "trailing bytes after index"));
    }
    Ok(WeekPrefix {
        week,
        date_days,
        records_pos,
        records_len,
        index,
    })
}

/// One record of a fully decoded week, its strings held as `S`.
pub(crate) struct DecodedRecord<'a, S> {
    /// The host's symbol in the file-global table.
    pub(crate) host_sym: u32,
    /// Absolute file offset of the canonical (full) body — for
    /// back-referenced records this points into an earlier week.
    pub(crate) body_offset: u64,
    /// Whether this record was stored as a back-reference.
    pub(crate) backref: bool,
    /// The decoded record.
    pub(crate) record: DomainRecord<S>,
    /// The canonical body bytes (delta state for the next week).
    pub(crate) body: &'a [u8],
}

/// Finds the scanned segment containing absolute payload offset `abs` and
/// returns it with the offset translated into its payload.
pub(crate) fn locate(segments: &[RawSegment], abs: u64) -> Option<(&RawSegment, usize)> {
    let idx = segments.partition_point(|seg| seg.payload_offset() <= abs);
    let seg = segments.get(idx.checked_sub(1)?)?;
    let rel = usize::try_from(abs.checked_sub(seg.payload_offset())?).ok()?;
    if rel >= seg.payload.len() {
        return None;
    }
    Some((seg, rel))
}

/// Decodes the record body stored at absolute file offset `abs`, returning
/// the record and its exact encoded bytes.
pub(crate) fn decode_body_at<'a, S: FromSym<'a>>(
    segments: &'a [RawSegment],
    table: &'a Interner,
    host: Sym<'a>,
    abs: u64,
) -> Result<(DomainRecord<S>, &'a [u8]), StoreError> {
    let (seg, rel) = locate(segments, abs)
        .ok_or_else(|| StoreError::corrupt(abs, "body offset outside any segment"))?;
    let mut cur = Cursor::new(&seg.payload[rel..]);
    let record = decode_body(&mut cur, table, host, abs)?;
    Ok((record, &seg.payload[rel..rel + cur.pos()]))
}

/// Fully decodes the records region of the week segment at
/// `segments[seg_index]`, resolving back-references through earlier
/// segments, and cross-checks the region against the on-disk index.
pub(crate) fn decode_week_full<'a, S: FromSym<'a>>(
    segments: &'a [RawSegment],
    seg_index: usize,
    prefix: &WeekPrefix,
    table: &'a Interner,
) -> Result<Vec<DecodedRecord<'a, S>>, StoreError> {
    let seg = &segments[seg_index];
    let region = &seg.payload[prefix.records_pos..prefix.records_pos + prefix.records_len];
    let region_abs = seg.payload_offset() + prefix.records_pos as u64;
    let mut cur = Cursor::new(region);
    let bad =
        |cur: &Cursor<'_>, what: &str| StoreError::corrupt(region_abs + cur.pos() as u64, what);
    let count = cur.len().ok_or_else(|| bad(&cur, "record count"))?;
    if count != prefix.index.len() {
        return Err(bad(&cur, "record count disagrees with index"));
    }
    let mut records = Vec::with_capacity(count.min(region.len()));
    for &(index_sym, index_off) in &prefix.index {
        let sym_raw = cur.u64().ok_or_else(|| bad(&cur, "record host symbol"))?;
        let host_sym = u32::try_from(sym_raw).map_err(|_| bad(&cur, "record host symbol"))?;
        if host_sym != index_sym {
            return Err(bad(&cur, "record host disagrees with index"));
        }
        let host = table
            .sym(host_sym)
            .ok_or_else(|| bad(&cur, "record host symbol unknown"))?;
        let decoded = match cur.u8().ok_or_else(|| bad(&cur, "record tag"))? {
            0 => {
                let body_abs = region_abs + cur.pos() as u64;
                if body_abs != index_off {
                    return Err(bad(&cur, "body offset disagrees with index"));
                }
                let body_start = cur.pos();
                let record = decode_body(&mut cur, table, host, body_abs)?;
                DecodedRecord {
                    host_sym,
                    body_offset: body_abs,
                    backref: false,
                    record,
                    body: &region[body_start..cur.pos()],
                }
            }
            1 => {
                let target = cur.u64().ok_or_else(|| bad(&cur, "backref offset"))?;
                if target != index_off {
                    return Err(bad(&cur, "backref offset disagrees with index"));
                }
                // A back-reference names a body in an earlier segment —
                // never this one, whose prefix would decode as garbage.
                if target >= seg.offset {
                    return Err(bad(&cur, "backref does not point into an earlier segment"));
                }
                let (record, body) = decode_body_at(segments, table, host, target)?;
                DecodedRecord {
                    host_sym,
                    body_offset: target,
                    backref: true,
                    record,
                    body,
                }
            }
            _ => return Err(bad(&cur, "record tag")),
        };
        records.push(decoded);
    }
    if !cur.is_empty() {
        return Err(bad(&cur, "trailing bytes after records"));
    }
    Ok(records)
}

/// Encodes the finalize payload: the filtered-out domain list.
pub(crate) fn encode_finalize(filtered_out: &[String], table: &mut Interner) -> Vec<u8> {
    table.set_mark();
    let mut body = Vec::new();
    write_u64(&mut body, filtered_out.len() as u64);
    for host in filtered_out {
        write_u64(&mut body, u64::from(table.intern(host)));
    }
    let mut payload = Vec::new();
    encode_string_block(table, &mut payload);
    payload.extend_from_slice(&body);
    payload
}

/// Decodes a finalize payload.
pub(crate) fn decode_finalize(
    payload: &[u8],
    table: &mut Interner,
    base_offset: u64,
) -> Result<Vec<String>, StoreError> {
    let mut cur = Cursor::new(payload);
    decode_string_block(&mut cur, table, base_offset)?;
    let bad =
        |cur: &Cursor<'_>, what: &str| StoreError::corrupt(base_offset + cur.pos() as u64, what);
    let count = cur.len().ok_or_else(|| bad(&cur, "filtered-out count"))?;
    let mut hosts = Vec::with_capacity(count.min(payload.len()));
    for _ in 0..count {
        let sym_raw = cur.u64().ok_or_else(|| bad(&cur, "filtered-out symbol"))?;
        let sym = u32::try_from(sym_raw).map_err(|_| bad(&cur, "filtered-out symbol"))?;
        hosts.push(
            table
                .resolve(sym)
                .ok_or_else(|| bad(&cur, "filtered-out symbol unknown"))?
                .to_string(),
        );
    }
    Ok(hosts)
}

/// What a scanned file's segments say, record bodies left encoded: the
/// one structural walk under both `StoreReader::open` and
/// `StoreWriter::resume`.
#[derive(Default)]
pub(crate) struct Index {
    /// The file's string table, in writer symbol order.
    pub(crate) table: Interner,
    /// The study metadata.
    pub(crate) genesis: Genesis,
    /// Per committed week, checked to count 0, 1, 2, …: the segment's
    /// place in [`Scan::segments`] and its decoded prefix.
    pub(crate) weeks: Vec<(usize, WeekPrefix)>,
    /// The stored filter verdict; `Some` only when finalized.
    pub(crate) filtered_out: Option<Vec<String>>,
}

/// Decodes every segment's string block and structural part, in file
/// order, so the table ends up exactly the writer's. A [`scan`] always
/// begins with the genesis.
pub(crate) fn index(segments: &[RawSegment]) -> Result<Index, StoreError> {
    let mut index = Index::default();
    index.extend(segments, 0)?;
    Ok(index)
}

impl Index {
    /// Indexes `segments[from..]` after what `self` already holds: the
    /// segments a file gained since it was indexed.
    pub(crate) fn extend(
        &mut self,
        segments: &[RawSegment],
        from: usize,
    ) -> Result<(), StoreError> {
        for (i, seg) in segments.iter().enumerate().skip(from) {
            let (payload, base, table) = (&seg.payload, seg.payload_offset(), &mut self.table);
            match seg.kind {
                kind::GENESIS => self.genesis = decode_genesis(payload, table, base)?,
                kind::WEEK => {
                    let prefix = decode_week_prefix(payload, table, base)?;
                    if prefix.week != self.weeks.len() {
                        return Err(StoreError::WeekOutOfOrder {
                            expected: self.weeks.len(),
                            got: prefix.week,
                        });
                    }
                    self.weeks.push((i, prefix));
                }
                kind::FINALIZE => self.filtered_out = Some(decode_finalize(payload, table, base)?),
                _ => return Err(StoreError::corrupt(seg.offset, "unexpected segment kind")),
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Standalone segment files
// ---------------------------------------------------------------------------

fn segment_file(seg_kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = encode_header().to_vec();
    out.extend_from_slice(&encode_segment(seg_kind, payload));
    out
}

/// Parses `header ‖ segment` where the segment is of kind `want` and the
/// last thing in `bytes`.
fn read_segment_file(bytes: &[u8], want: u8) -> Result<RawSegment, StoreError> {
    check_header(bytes)?;
    let seg = read_envelope(bytes, HEADER_LEN)
        .ok_or_else(|| StoreError::corrupt(HEADER_LEN, "segment envelope (length or CRC)"))?;
    if seg.kind != want {
        return Err(StoreError::corrupt(
            HEADER_LEN,
            format!("segment kind {}, expected {want}", seg.kind),
        ));
    }
    let end = HEADER_LEN + seg.env_len;
    if end != bytes.len() as u64 {
        return Err(StoreError::corrupt(end, "trailing bytes after the segment"));
    }
    Ok(seg)
}

/// Encodes `week` as a standalone file: the header and one week segment
/// with its own string table and every body in full.
pub fn encode_week_file(week: &WeekData) -> Vec<u8> {
    let encoded =
        encode_week::<String, _>(week, &mut Interner::new(), &PrevWeek::new(), HEADER_LEN);
    segment_file(kind::WEEK, &encoded.payload)
}

/// A parsed standalone week file: its one segment and the string table
/// the records borrow from.
pub struct WeekFile {
    segments: [RawSegment; 1],
    table: Interner,
    prefix: WeekPrefix,
}

impl WeekFile {
    /// Parses a file written by [`encode_week_file`].
    pub fn parse(bytes: &[u8]) -> Result<WeekFile, StoreError> {
        let segments = [read_segment_file(bytes, kind::WEEK)?];
        let mut table = Interner::new();
        let base = segments[0].payload_offset();
        let prefix = decode_week_prefix(&segments[0].payload, &mut table, base)?;
        Ok(WeekFile {
            segments,
            table,
            prefix,
        })
    }

    /// Decodes the week. With no earlier segment to point into, a
    /// back-reference is refused as corrupt.
    pub fn week(&self) -> Result<WeekData<DomainRecord<Sym<'_>>>, StoreError> {
        let decoded = decode_week_full(&self.segments, 0, &self.prefix, &self.table)?;
        Ok(WeekData {
            week: self.prefix.week,
            date_days: self.prefix.date_days,
            records: decoded.into_iter().map(|d| d.record).collect(),
        })
    }
}

/// Encodes `genesis` as a standalone file — byte for byte what
/// `StoreWriter::create` writes first.
pub fn encode_genesis_file(genesis: &Genesis) -> Vec<u8> {
    segment_file(
        kind::GENESIS,
        &encode_genesis(genesis, &mut Interner::new()),
    )
}

/// Decodes a file written by [`encode_genesis_file`].
pub fn decode_genesis_file(bytes: &[u8]) -> Result<Genesis, StoreError> {
    let seg = read_segment_file(bytes, kind::GENESIS)?;
    decode_genesis(&seg.payload, &mut Interner::new(), seg.payload_offset())
}
