//! Never-panic / never-hang / no-unbounded-allocation suite for the
//! decoders of outside input that the codec and store corruption suites
//! do not cover: CVE delta text, pattern source, the sharded-store
//! manifest, the watch frame log and the store's varint cursor under it,
//! the spool's week and genesis files, a whole store — single file and
//! one shard of a group — behind `AnyReader`, the HTTP server's
//! per-connection loop, and the fingerprint engine's page front end.
//!
//! One table, one driver: every row names a decoder and a corpus of
//! valid encodings; the driver feeds the decoder arbitrary bytes and
//! mutilated copies of the corpus (bit flips, truncations, splices).
//! A panic fails the case, a hang shows as the suite never finishing
//! (CI caps the step), and a counting allocator bounds the largest
//! single allocation a decode may request by the size of its input —
//! so a length field read from the input can never size a buffer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
use std::cell::Cell;
use std::path::Path;
use std::sync::Arc;
use webvuln::analysis::apply_filter;
use webvuln::analysis::dataset::{collect, CollectConfig};
use webvuln::analysis::store_io::{snapshot_to_week, week_into_snapshot};
use webvuln::cvedb::parse_delta;
use webvuln::failpoint::check::{self, Gen};
use webvuln::fingerprint::Engine;
use webvuln::html::{extract_resources, PageResources, Token, Tokenizer};
use webvuln::net::codec::{encode_request, MessageReader, MAX_BODY, MAX_HEAD};
use webvuln::net::{serve_stream, Request, Response, Status};
use webvuln::pattern::Pattern;
use webvuln::store::codec::{crc32, write_i64, write_str, write_u64, Cursor, WeekFile};
use webvuln::store::{shard_path, AnyReader, AnyWriter, Genesis, Manifest, StoreWriter, WeekData};
use webvuln::watch::wal::{read_frames, write_frame};
use webvuln::watch::{read_genesis_file, read_week_file, write_genesis_file, write_week_file};
use webvuln::webgen::{Ecosystem, EcosystemConfig, PageOutcome, Timeline};

/// Forwards to the system allocator, recording the largest request the
/// current thread has made since the last [`take_largest`].
struct Counting;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; `note` only updates a `Cell<usize>` that
// has no destructor and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn take_largest() -> usize {
    LARGEST.with(|largest| largest.replace(0))
}

/// Cases per table row.
const CASES: u32 = 1024;
/// Largest arbitrary input, in bytes.
const MAX_INPUT: usize = 2048;
/// Allocation allowed regardless of input: small fixed tables.
const ALLOC_FLOOR: usize = 64 << 10;
/// Allocation allowed per input byte: a decoder may reserve one record
/// per byte of payload, and the widest record is a few hundred bytes.
const ALLOC_PER_BYTE: usize = 512;

/// Runs a decoder on one input; returns whether it accepted it.
type Decode = Box<dyn Fn(&[u8]) -> bool>;

/// One decoder under test.
struct Row {
    name: &'static str,
    /// Allocation allowed regardless of input size.
    alloc_floor: usize,
    /// Valid encodings; each must decode, and each is mutilated.
    corpus: Vec<Vec<u8>>,
    decode: Decode,
}

fn row(
    name: &'static str,
    alloc_floor: usize,
    corpus: Vec<Vec<u8>>,
    decode: impl Fn(&[u8]) -> bool + 'static,
) -> Row {
    Row {
        name,
        alloc_floor,
        corpus,
        decode: Box::new(decode),
    }
}

/// Arbitrary bytes, or a corpus entry with bits flipped, a tail cut off,
/// or a run of arbitrary bytes spliced in.
fn mutant(g: &mut Gen, corpus: &[Vec<u8>]) -> Vec<u8> {
    let strategy = g.range(0..=3);
    if strategy == 0 {
        return g.bytes(0..=MAX_INPUT);
    }
    let mut bytes = g.pick(corpus).clone();
    match strategy {
        1 => {
            for _ in 0..g.range(1..=4) {
                let bit = g.range(0..=bytes.len() as u64 * 8 - 1) as usize;
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
        }
        2 => bytes.truncate(g.range(0..=bytes.len() as u64 - 1) as usize),
        _ => {
            let at = g.range(0..=bytes.len() as u64) as usize;
            let noise = g.bytes(1..=16);
            bytes.splice(at..(at + noise.len()).min(bytes.len()), noise);
        }
    }
    bytes
}

/// Bytes of a store file's header, and of a segment envelope around its
/// payload: kind, `u32` length in front, CRC behind.
const HEADER: usize = 16;
const ENVELOPE: usize = 9;

/// A segment envelope of `kind` around `payload`, CRC included.
fn seal(kind: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = vec![kind];
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(&out).to_le_bytes());
    out
}

/// Rewrites a spool file — header, one segment — so the envelope carries
/// the length and CRC its payload actually has, and damage to the
/// payload reaches the decoders behind the checksum.
fn reseal(file: &[u8]) -> Vec<u8> {
    if file.len() < HEADER + ENVELOPE {
        return file.to_vec();
    }
    let mut out = file[..HEADER].to_vec();
    out.extend(seal(file[HEADER], &file[HEADER + 5..file.len() - 4]));
    out
}

/// Rewrites the CRC of every segment of a store file whose declared
/// length still fits (the footer's 12-byte trailer is stepped over), so
/// the scan accepts the damaged payloads and hands them on.
fn reseal_segments(file: &[u8]) -> Vec<u8> {
    let mut out = file.to_vec();
    let mut pos = HEADER;
    while let Some(head) = file.get(pos..pos + 5) {
        let len = u32::from_le_bytes(head[1..5].try_into().expect("4 bytes")) as usize;
        let Some(end) = (pos + 5)
            .checked_add(len)
            .filter(|end| end + 4 <= file.len())
        else {
            break;
        };
        out.splice(pos..end + 4, seal(head[0], &file[pos + 5..end]));
        pos = end + 4 + if head[0] == 0xFF { 12 } else { 0 };
    }
    out
}

/// A row for a reader of a file at a fixed path: each input is written
/// there and read back twice, as mutilated and as resealed.
fn file_row(
    name: &'static str,
    target: std::path::PathBuf,
    reseal: fn(&[u8]) -> Vec<u8>,
    read: impl Fn() -> bool + 'static,
) -> Row {
    let corpus = vec![std::fs::read(&target).expect("read valid file")];
    row(name, ALLOC_FLOOR, corpus, move |bytes| {
        [bytes.to_vec(), reseal(bytes)].iter().all(|candidate| {
            std::fs::write(&target, candidate).expect("write scratch file");
            read()
        })
    })
}

/// Opens the store at `path` tolerantly and drives every read path over
/// whatever it serves; accepted when it verifies. All of them end in the
/// store's one record decoder, which yields borrowed records: wherever
/// the sequential walk of a week decodes, the indexed walk must too, and
/// its records, owned, must be the same.
fn drive_store(path: &Path) -> bool {
    let Ok(reader) = AnyReader::open_degraded(path) else {
        return false;
    };
    let verified = reader.verify().is_ok();
    for week in 0..reader.weeks_committed() {
        for shard in reader.healthy() {
            let _ = shard.week_records(week, |host| host.len() % 2 == 0);
            let borrowed = shard.week_records(week, |_| true);
            if let Ok(owned) = shard.week(week) {
                assert_eq!(borrowed.expect("indexed walk").owned(), owned);
            }
        }
        for (host, _) in &reader.genesis().ranks {
            let _ = reader.get(host, week);
        }
    }
    verified
}

/// A connection whose peer already sent `input` and then closed its
/// writing half; what the server writes back collects in `output`.
struct Connection {
    input: std::io::Cursor<Vec<u8>>,
    output: Vec<u8>,
}

impl std::io::Read for Connection {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.input.read(buf)
    }
}

impl std::io::Write for Connection {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.output.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs the server's per-connection loop over `bytes`. Whatever they
/// are, what it writes back is zero or more well-formed responses, one
/// per request it answered, of which only the last may be the `400`
/// that ends a connection. Accepted when no `400` was needed.
fn drive_connection(bytes: &[u8]) -> bool {
    let mut conn = Connection {
        input: std::io::Cursor::new(bytes.to_vec()),
        output: Vec::new(),
    };
    let echo = |req: &Request| Response::html(format!("{} +{}", req.target, req.body.len()));
    let (draining, killed) = (false.into(), Default::default());
    let served = serve_stream(&mut conn, &echo, &draining, &killed);
    let mut reader = MessageReader::new(std::io::Cursor::new(conn.output));
    let mut statuses = Vec::new();
    while !reader.at_eof() {
        let response = reader.read_response(false).expect("a well-formed response");
        statuses.push(response.status);
    }
    let refused = statuses.last() == Some(&Status::BAD_REQUEST);
    assert_eq!(statuses.len(), served + usize::from(refused));
    assert!(statuses[..served]
        .iter()
        .all(|&status| status == Status::OK));
    !refused
}

/// Requests for [`drive_connection`]: the framings the codec reads, which
/// end without a `400`, and the over-limit shapes it must refuse without
/// buffering what a length field promises.
fn requests() -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let get = |target: &str| {
        let mut wire = Vec::new();
        encode_request(&Request::get("a.example", target), &mut wire);
        wire
    };
    let post = |framing: &str| {
        format!("POST /submit HTTP/1.1\r\nHost: a.example\r\n{framing}").into_bytes()
    };
    let padded = format!("X-Pad: {}\r\n\r\n", "y".repeat(MAX_HEAD + (16 << 10)));
    let clean = vec![
        get("/"),
        [get("/first"), get("/second?x=1"), get("/third")].concat(),
        post("Content-Length: 5\r\n\r\nhello"),
        post("Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n3;x=1\r\nabc\r\n0\r\nT: t\r\n\r\n"),
        // Cut off mid-head, and a body that never arrives: the peer is
        // gone, so there is nobody to answer.
        get("/cut-off")[..20].to_vec(),
        post(&format!("Content-Length: {}\r\n\r\nhello", MAX_BODY - 1)),
        post("Transfer-Encoding: chunked\r\n\r\n7fffff\r\nhello"),
    ];
    let refused = vec![
        post(&padded),
        post(&format!("Content-Length: {}\r\n\r\nhello", MAX_BODY + 1)),
        post("Transfer-Encoding: chunked\r\n\r\n7fffffff\r\nhello"),
        [
            get("/answered"),
            b"NONSENSE\r\n\r\n".to_vec(),
            get("/never-read"),
        ]
        .concat(),
    ];
    (clean, refused)
}

/// Bytes of every string the page front end extracted.
fn resource_bytes(res: &PageResources<'_>) -> usize {
    let len = |value: &Option<Cow<'_, str>>| value.as_ref().map_or(0, |v| v.len());
    let scripts = res
        .scripts
        .iter()
        .map(|s| len(&s.src) + s.inline.len() + len(&s.integrity) + len(&s.crossorigin));
    let links = res
        .links
        .iter()
        .map(|l| l.rel.len() + l.href.len() + len(&l.integrity));
    let flash = res
        .flash
        .iter()
        .map(|f| f.swf_url.len() + len(&f.allow_script_access));
    let lists = [&res.generators, &res.comments, &res.images];
    let values = lists.into_iter().flatten().map(|v| v.len());
    scripts.chain(links).chain(flash).chain(values).sum()
}

/// Pages for the front-end row: rendered ones, hand-written Flash and
/// inline-banner ones, and the two shapes whose resources once outgrew
/// the page — script closers a tag name continues, and one `<param>`
/// inside many `<object>`s.
fn pages(ecosystem: &Ecosystem) -> Vec<Vec<u8>> {
    let rendered = ecosystem.models().iter().take(4).filter_map(|model| {
        match ecosystem.page(&model.name, 0) {
            PageOutcome::Page(html) => Some(html),
            _ => None,
        }
    });
    let written = [
        r#"<object classid="clsid:D27CDB6E"><param name="movie" value="/banner.swf?v=2">
           <param name="AllowScriptAccess" value="always"><embed src="/banner.swf"
           allowscriptaccess="always"></object><embed src="/ad.SWF" quality=high>"#
            .to_string(),
        "<html><head><script>/*! jQuery v3.5.1 | (c) OpenJS */ core();</script>         <!-- Bootstrap v4.3.1 --><script>// Underscore.js 1.8.3
</script></head></html>"
            .to_string(),
        format!("{}{}", "<script></script-x>".repeat(8), "t".repeat(1000)),
        format!("{}<param name=movie value={}.swf>", "<object>".repeat(8), "v".repeat(1000)),
    ];
    rendered.chain(written).map(String::into_bytes).collect()
}

/// Tags for the tokenizer row: quoted, unquoted and valueless
/// attributes, a self-closing tag, raw text and its closers, a comment, a
/// doctype and an end tag with junk in it.
const TAGS: [&str; 5] = [
    r#"<script src="/a.js" integrity='sha384-x' async>x</script-x></script >"#,
    "<p a=b c = d e/><br/><img src=/i.svg alt>",
    "<!DOCTYPE html><!-- c --><meta name=generator content=\"WordPress 5.6\">",
    "<object data=\"m.swf\"><param name=movie value=m.swf></object junk>",
    "t &amp; u < v <a href='x'>y</a><?x?><!x>",
];

/// Asserts that every slice `token` holds lies within `page`.
fn assert_within(page: &str, token: Token<'_>) {
    let range = page.as_bytes().as_ptr_range();
    let within = |part: &str| part.is_empty() || range.contains(&part.as_ptr());
    let parts: Vec<&str> = match &token {
        Token::StartTag { name, attrs, .. } => {
            let attrs = attrs.iter().flat_map(|(name, value)| [name, value]);
            [*name].into_iter().chain(attrs).collect()
        }
        Token::EndTag { name } => vec![*name],
        Token::Text(Cow::Borrowed(text)) | Token::Comment(text) | Token::Doctype(text) => {
            vec![*text]
        }
        Token::Text(Cow::Owned(_)) => vec![],
    };
    for part in parts {
        assert!(within(part), "{part:?} is not a slice of {page:?}");
    }
}

const DELTA: &str = "# webvuln cve delta v1\n\
    id: CVE-2099-0001\nlibrary: jquery\nclaimed: < 3.5.0\ntvv: <= 3.5.1\nattack: xss\n\
    disclosed: 2022-04-10\npatched-version: 3.5.0\npatched-date: 2022-04-10\npoc: yes\n\
    \n\
    id: CVE-2099-0002\nlibrary: bootstrap\nclaimed: >= 3.0.0, < 3.4.1\nattack: xss\n\
    disclosed: 2023-01-02\n";

const PATTERNS: [&str; 5] = [
    r"jquery[.-]([0-9]+(?:\.[0-9]+)*)(?:\.min)?\.js",
    r"(?:^|/)bootstrap(?:\.bundle)?(?:\.min)?\.js\?ver=(\d+\.\d+\.\d+)",
    r"/\*!? jQuery v([0-9.]+)",
    r"[^a-z]+\x41{2,5}(a|b|[c-e])*?$",
    r"wp-(?:content|includes)/.{0,40}[?&]ver=([\w.]+)",
];

fn rows(dir: &Path) -> Vec<Row> {
    let ecosystem = Arc::new(Ecosystem::generate(EcosystemConfig {
        seed: 11,
        domain_count: 12,
        timeline: Timeline::truncated(1),
    }));
    let telemetry = webvuln::telemetry::Telemetry::new();
    let outcome = collect(
        &ecosystem,
        &CollectConfig::default(),
        &telemetry,
        None,
        false,
    )
    .expect("collection");
    let filtered = outcome.dataset.filtered_out.iter().cloned().collect();
    let stored = outcome.reader.week(0).expect("week 0");
    let mut snapshot = week_into_snapshot(stored).expect("snapshot");
    apply_filter(&mut snapshot, &filtered);
    let week = snapshot_to_week(&snapshot);
    let genesis = Genesis {
        start_days: 17_595,
        weeks_total: 12,
        ranks: vec![("a.example".to_string(), 1), ("b.example".to_string(), 2)],
    };
    // The same week three times over: full bodies, then back-references,
    // then one changed record; finalized with one domain filtered out.
    let store_genesis = Genesis {
        start_days: week.date_days,
        weeks_total: 3,
        ranks: (1..)
            .zip(&week.records)
            .map(|(rank, r)| (r.host.clone(), rank))
            .collect(),
    };
    let mut store_weeks: Vec<WeekData> = (0..3)
        .map(|w| WeekData {
            week: w,
            ..week.clone()
        })
        .collect();
    store_weeks[2].records[0].body_len += 1;
    let filtered = [week.records[1].host.clone()];
    let single = dir.join("single.wvstore");
    let group = dir.join("group");
    let mut writer = StoreWriter::create(&single, store_genesis.clone()).expect("create store");
    let mut sharded = AnyWriter::create(&group, store_genesis, 2).expect("create group");
    for store_week in &store_weeks {
        writer.commit_week(store_week).expect("commit");
        sharded.commit_week(store_week).expect("commit shards");
    }
    writer.finalize(&filtered).expect("finalize");
    sharded.finalize(&filtered).expect("finalize shards");
    let mut frames = Vec::new();
    for payload in [&b"first"[..], b"", DELTA.as_bytes()] {
        write_frame(&mut frames, payload);
    }
    let mut fields = Vec::new();
    for (byte, unsigned, signed, text) in [(7, 300, -5, "héllo"), (0, u64::MAX, i64::MIN, "")] {
        fields.push(byte);
        write_u64(&mut fields, unsigned);
        write_i64(&mut fields, signed);
        write_str(&mut fields, text);
    }
    let manifests = [(1, 1, 0, false), (u64::MAX, 16, 201, true)]
        .map(|(epoch, shards, weeks, finalized)| {
            Manifest {
                epoch,
                shards,
                weeks,
                finalized,
            }
            .encode()
        })
        .to_vec();
    let front_end = pages(&ecosystem);
    let engine = Engine::new();
    vec![
        // Never rejects: every input is some page. What it extracts is
        // slices of the page, so it stays within twice the page's size.
        row(
            "fingerprint::Engine::analyze",
            ALLOC_FLOOR,
            front_end,
            move |bytes| {
                let html = String::from_utf8_lossy(bytes);
                let _ = engine.analyze(&html, "robust.example");
                let extracted = resource_bytes(&extract_resources(&html));
                assert!(
                    extracted <= 2 * html.len(),
                    "{extracted} bytes of resources from a {}-byte page",
                    html.len()
                );
                true
            },
        ),
        // The tokenizer scans bytes and decodes a character only where a
        // byte is not ASCII: a multibyte character put at every position
        // of a tag (its name, between and inside attributes, in a quote,
        // at its end) must leave every token a slice of the page, each cut
        // on a character boundary (a slip off one panics the slice).
        row(
            "html::Tokenizer (a multibyte character at every position)",
            ALLOC_FLOOR,
            TAGS.iter().map(|tag| tag.as_bytes().to_vec()).collect(),
            |bytes| {
                let html = String::from_utf8_lossy(bytes);
                let mut end = html.len().min(160);
                while !html.is_char_boundary(end) {
                    end -= 1;
                }
                let html = &html[..end];
                let positions = html.char_indices().map(|(at, _)| at).chain([html.len()]);
                for (at, c) in
                    positions.flat_map(|at| ['é', '\u{a0}', '\u{3000}', '日'].map(|c| (at, c)))
                {
                    let page = format!("{}{c}{}", &html[..at], &html[at..]);
                    for token in Tokenizer::new(&page) {
                        assert_within(&page, token);
                    }
                }
                true
            },
        ),
        row(
            "cvedb::parse_delta",
            ALLOC_FLOOR,
            vec![DELTA.as_bytes().to_vec()],
            |bytes| parse_delta(&String::from_utf8_lossy(bytes)).is_ok(),
        ),
        // A key given twice is refused at its second line, whichever key
        // of whichever stanza it is: keeping either value would apply a
        // record the file does not state.
        row(
            "cvedb::parse_delta (a key line given twice)",
            ALLOC_FLOOR,
            vec![DELTA.as_bytes().to_vec()],
            |bytes| {
                let text = String::from_utf8_lossy(bytes);
                let parsed = parse_delta(&text).is_ok();
                let mut end = 0;
                for (index, line) in text.split_inclusive('\n').enumerate() {
                    end += line.len();
                    let key = line.trim();
                    if !parsed || key.is_empty() || key.starts_with('#') || !line.ends_with('\n') {
                        continue;
                    }
                    let doubled = [&text[..end], line, &text[end..]].concat();
                    let e = parse_delta(&doubled).expect_err("a repeated key parses");
                    assert_eq!(e.line, index + 2, "{e}");
                    assert!(e.detail.starts_with("repeated key"), "{e}");
                }
                parsed
            },
        ),
        // A range with two upper bounds in one conjunction is refused at
        // its line: read as the first bound alone, `< 3.4.1, < 4.3.1`
        // would lose the 4.x branch that only the ` or ` form keeps.
        row(
            "cvedb::parse_delta (two upper bounds in one range)",
            ALLOC_FLOOR,
            vec![DELTA.as_bytes().to_vec()],
            |bytes| {
                let text = String::from_utf8_lossy(bytes);
                let parsed = parse_delta(&text).is_ok();
                let mut start = 0;
                for (index, line) in text.split_inclusive('\n').enumerate() {
                    let end = start + line.len();
                    if parsed && line.starts_with("claimed:") {
                        let narrowed =
                            [&text[..start], "claimed: < 3.4.1, < 4.3.1\n", &text[end..]];
                        let e =
                            parse_delta(&narrowed.concat()).expect_err("two upper bounds parse");
                        assert_eq!(e.line, index + 1, "{e}");
                        assert!(e.detail.starts_with("claimed range"), "{e}");
                    }
                    start = end;
                }
                parsed
            },
        ),
        // The compiler caps a program at 100 000 instructions and the VM
        // keeps per-instruction thread lists: megabytes, but fixed.
        row(
            "Pattern::new + find",
            8 << 20,
            PATTERNS.iter().map(|p| p.as_bytes().to_vec()).collect(),
            |bytes| {
                let source = String::from_utf8_lossy(bytes);
                Pattern::new(&source).is_ok_and(|pattern| {
                    let _ = pattern.find("/wp-includes/js/jquery/jquery-1.12.4.min.js?ver=1.12.4");
                    let _ = pattern.find(&source);
                    true
                })
            },
        ),
        row("store::Manifest::decode", ALLOC_FLOOR, manifests, |bytes| {
            Manifest::decode(bytes).is_ok()
        }),
        row(
            "watch::wal::read_frames",
            ALLOC_FLOOR,
            vec![frames],
            |bytes| {
                let frames = read_frames(bytes);
                let total: usize = frames.payloads.iter().map(Vec::len).sum();
                assert!(total <= bytes.len(), "payloads exceed their log");
                assert!(frames.clean_len <= bytes.len() as u64);
                frames.clean_len == bytes.len() as u64
            },
        ),
        // Reads `u8, u64, i64, str` records until the bytes run out.
        row("store::codec::Cursor", ALLOC_FLOOR, vec![fields], |bytes| {
            let mut cur = Cursor::new(bytes);
            for step in 0.. {
                if cur.is_empty() {
                    break;
                }
                let before = cur.pos();
                let advanced = match step % 4 {
                    0 => cur.u8().is_some(),
                    1 => cur.u64().is_some(),
                    2 => cur.i64().is_some(),
                    _ => cur.str().is_some_and(|s| s.len() <= bytes.len()),
                };
                assert!(cur.pos() <= bytes.len());
                if !advanced || cur.pos() == before {
                    return false;
                }
            }
            true
        }),
        {
            let path = write_week_file(dir, &week).expect("week file");
            let read = path.clone();
            file_row("watch::read_week_file", path, reseal, move || {
                // The owned week is `owned` of the file's borrowed one.
                let owned = read_week_file(&read).ok();
                let file = std::fs::read(&read).ok();
                let file = file.and_then(|bytes| WeekFile::parse(&bytes).ok());
                let borrowed = file.as_ref().and_then(|file| file.week().ok());
                assert_eq!(borrowed.map(|week| week.owned()), owned);
                owned.is_some()
            })
        },
        {
            let path = write_genesis_file(dir, &genesis).expect("genesis file");
            let read = path.clone();
            file_row("watch::read_genesis_file", path, reseal, move || {
                read_genesis_file(&read).is_ok()
            })
        },
        {
            // Which requests end in a `400` is settled here; the driver
            // then holds every mutant of either kind to the assertions
            // `drive_connection` makes. A response echoes its request's
            // target, so it is input-sized.
            let (clean, refused) = requests();
            assert!(clean.iter().all(|request| drive_connection(request)));
            assert!(!refused.iter().any(|request| drive_connection(request)));
            let corpus = [clean, refused].concat();
            row("net::serve_stream", ALLOC_FLOOR, corpus, |bytes| {
                drive_connection(bytes);
                true
            })
        },
        file_row(
            "store::AnyReader over a single file",
            single.clone(),
            reseal_segments,
            move || drive_store(&single),
        ),
        file_row(
            "store::AnyReader over a damaged shard",
            shard_path(&group, 0),
            reseal_segments,
            move || drive_store(&group),
        ),
    ]
}

#[test]
fn decoders_survive_arbitrary_and_mutilated_input() {
    let dir = std::env::temp_dir().join(format!("webvuln-decoders-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    for row in rows(&dir) {
        for valid in &row.corpus {
            assert!((row.decode)(valid), "{}: corpus entry rejected", row.name);
        }
        check::run(row.name, CASES, |g| {
            let input = mutant(g, &row.corpus);
            take_largest();
            let _ = (row.decode)(&input);
            let largest = take_largest();
            let allowed = row.alloc_floor + ALLOC_PER_BYTE * input.len();
            assert!(
                largest <= allowed,
                "{}: one allocation of {largest} bytes for {} input bytes (allowed {allowed})",
                row.name,
                input.len()
            );
        });
    }
    let _ = std::fs::remove_dir_all(&dir);
}
