//! The host-speed reference: a fixed piece of work that uses nothing of
//! the program under test, timed in slices between the units of every
//! timed section.
//!
//! Why it exists: on the shared two-core hosts this benchmark runs on,
//! the same binary over the same inputs runs up to 1.4× slower for tens
//! of seconds at a time, so two sets of runs of one commit can disagree
//! by more than any useful bound. The slowdown hits this kernel and the
//! workloads alike, so every time-based end-to-end metric is reported at
//! reference speed: each unit's measured time × [`NOMINAL_SLICE_MS`] ÷ the
//! mean of the slices run just before and just after that unit. Over ten
//! runs in which the host's slice time ranged from 33 to 63 ms, a
//! study's median unit read 1336–2433 ms as measured and 1124–1379 ms
//! adjusted; a fold's spread fell to 0.034. The cancellation is not
//! exact: work made of thread wake-ups and socket round trips (the
//! serving workload) slows more than this kernel does. Counts, bytes and
//! memory are never adjusted, and the per-layer metrics of a traced run
//! are as measured, with the slice time itself reported beside them as
//! `host.reference_slice_ms`.
//!
//! The kernel mixes what the pipeline does: it formats page-like
//! strings, searches them for substrings, counts tokens in an ordered
//! map and hashes the bytes — allocation, byte scanning, pointer
//! chasing, integer arithmetic. It must never change: a different kernel
//! is a different unit for every adjusted metric.

use crate::sys::median;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// What one slice takes on the host the first numbers were measured on
/// (2 cores, quiet). Adjusted times read as times on that host.
pub const NOMINAL_SLICE_MS: f64 = 32.0;

const PAGES: u64 = 600;
const ROUNDS: u64 = 8;

fn round(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut pages: Vec<String> = Vec::new();
    for i in 0..PAGES {
        let mut page = String::with_capacity(1200);
        page.push_str("<html><head>");
        for j in 0..12 {
            let v = next();
            page.push_str(&format!(
                "<script src=\"https://cdn{}.example/lib-{}.{}.{}/x{}.min.js\"></script>",
                v % 7,
                v % 13,
                (v >> 8) % 10,
                (v >> 16) % 20,
                i + j
            ));
        }
        page.push_str("</head></html>");
        pages.push(page);
    }
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for page in &pages {
        for needle in ["lib-3.", "lib-7.", "jquery", ".min.js", "cdn4"] {
            let mut at = 0;
            while let Some(k) = page[at..].find(needle) {
                at += k + 1;
                hash = hash.wrapping_add(at as u64);
            }
        }
        for url in page.split('"').filter(|t| t.starts_with("https")) {
            *counts.entry(url[8..20.min(url.len())].to_string()).or_default() += 1;
        }
        for byte in page.bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash ^ counts.len() as u64
}

/// One slice on the calling thread; returns its time in ms.
pub fn slice_ms(lane: u64) -> f64 {
    let start = Instant::now();
    let mut acc = 0;
    for r in 0..ROUNDS {
        acc ^= round(lane * 977 + r);
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// The slices of one timed section.
#[derive(Default)]
pub struct HostSpeed {
    pub slice_ms: Vec<f64>,
}

impl HostSpeed {
    /// Runs `rounds` slices on each of `threads` threads at once, as the
    /// workloads' pools do, and returns their mean time in ms.
    pub fn sample(&mut self, threads: usize, rounds: usize) -> f64 {
        let times: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads as u64)
                .map(|lane| scope.spawn(move || (0..rounds).map(|_| slice_ms(lane)).collect::<Vec<_>>()))
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("reference thread")).collect()
        });
        let mean = times.iter().sum::<f64>() / times.len().max(1) as f64;
        self.slice_ms.extend(times);
        mean
    }

    pub fn median_slice_ms(&self) -> f64 {
        median(&self.slice_ms)
    }
}

/// What a time measured between two samples is multiplied by to read at
/// reference speed: each unit of work is adjusted by the host's speed
/// just before and just after it, so a slowdown that covers part of a
/// run adjusts only the units it covered.
pub fn factor(before_ms: f64, after_ms: f64) -> f64 {
    NOMINAL_SLICE_MS / ((before_ms + after_ms) / 2.0).max(1e-9)
}
