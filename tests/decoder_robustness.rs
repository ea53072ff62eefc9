//! Never-panic / never-hang / no-unbounded-allocation suite for the
//! decoders of outside input that the codec, tokeniser and store
//! corruption suites do not cover: CVE delta text, pattern source, the
//! sharded-store manifest, the watch frame log and its varint cursor,
//! and the spool's week and genesis files.
//!
//! One table, one driver: every row names a decoder and a corpus of
//! valid encodings; the driver feeds the decoder arbitrary bytes and
//! mutilated copies of the corpus (bit flips, truncations, splices).
//! A panic fails the case, a hang shows as the suite never finishing
//! (CI caps the step), and a counting allocator bounds the largest
//! single allocation a decode may request by the size of its input —
//! so a length field read from the input can never size a buffer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use std::sync::Arc;
use webvuln::analysis::dataset::{CollectConfig, Collector};
use webvuln::analysis::store_io::snapshot_to_week;
use webvuln::cvedb::parse_delta;
use webvuln::failpoint::check::{self, Gen};
use webvuln::pattern::Pattern;
use webvuln::store::{Genesis, Manifest};
use webvuln::watch::wal::{
    crc32, read_frames, write_frame, write_i64, write_str, write_u64, Cursor,
};
use webvuln::watch::{read_genesis_file, read_week_file, write_genesis_file, write_week_file};
use webvuln::webgen::{Ecosystem, EcosystemConfig, Timeline};

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

/// Rewrites a spool file's envelope (magic, length, CRC, payload) with
/// the length and CRC its payload actually has, so damage to the payload
/// reaches the decoder behind the checksum.
fn reseal(file: &[u8]) -> Vec<u8> {
    let (magic, rest) = file.split_at(file.len().min(8));
    let mut cur = Cursor::new(rest);
    let _ = (cur.u64(), cur.u64());
    let payload = &rest[cur.pos()..];
    let mut out = magic.to_vec();
    write_u64(&mut out, payload.len() as u64);
    write_u64(&mut out, u64::from(crc32(payload)));
    out.extend_from_slice(payload);
    out
}

/// A row for a spool file reader: each input is read back from a scratch
/// file twice, as mutilated and resealed.
fn file_row<T: 'static, E: 'static>(
    name: &'static str,
    scratch: &Path,
    valid: &Path,
    read: fn(&Path) -> Result<T, E>,
) -> Row {
    let scratch = scratch.join(name);
    let corpus = vec![std::fs::read(valid).expect("read valid file")];
    row(name, ALLOC_FLOOR, corpus, move |bytes| {
        [bytes.to_vec(), reseal(bytes)].iter().all(|candidate| {
            std::fs::write(&scratch, candidate).expect("write scratch file");
            read(&scratch).is_ok()
        })
    })
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
    let dataset = Collector::from_config(CollectConfig::default())
        .run(&ecosystem)
        .expect("collection")
        .dataset;
    let week = snapshot_to_week(&dataset.weeks[0]);
    let genesis = Genesis {
        start_days: 17_595,
        weeks_total: 12,
        ranks: vec![("a.example".to_string(), 1), ("b.example".to_string(), 2)],
    };
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
    vec![
        row(
            "cvedb::parse_delta",
            ALLOC_FLOOR,
            vec![DELTA.as_bytes().to_vec()],
            |bytes| parse_delta(&String::from_utf8_lossy(bytes)).is_ok(),
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
        row("watch::wal::Cursor", ALLOC_FLOOR, vec![fields], |bytes| {
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
        file_row(
            "watch::read_week_file",
            dir,
            &write_week_file(dir, &week).expect("week file"),
            read_week_file,
        ),
        file_row(
            "watch::read_genesis_file",
            dir,
            &write_genesis_file(dir, &genesis).expect("genesis file"),
            read_genesis_file,
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
