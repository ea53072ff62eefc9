//! Harness-side spans: name, start, end and parent, recorded in memory
//! around each call into a layer and written as Chrome trace JSON when
//! the run ends. A disabled recorder costs one branch per call.

use crate::sys::{json_number, json_string};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Spans kept per recorder; further ones are only counted, so a long
/// request loop cannot grow the trace file without bound.
const SPAN_CAP: usize = 20_000;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    thread: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    dropped: u64,
}

/// Handle returned by [`Recorder::begin`]; pass it back to `end`.
pub struct Open(Option<usize>);

impl Recorder {
    /// A recorder whose timestamps count from `origin`, so recorders of
    /// several threads share one time axis.
    pub fn new(enabled: bool, origin: Instant, thread: u32) -> Recorder {
        Recorder {
            enabled,
            origin,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return Open(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        Open(Some(index))
    }

    pub fn end(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        self.spans[index].end_ns = self.origin.elapsed().as_nanos() as u64;
        // Spans close in stack order; anything opened after this one and
        // left open is closed with it.
        while let Some(top) = self.open.pop() {
            if top == index {
                break;
            }
        }
    }

    /// Times `f` under a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let open = self.begin(name);
        let value = f(self);
        self.end(open);
        value
    }

    /// Records a child span that was not timed here but read from the
    /// program's own phase totals: it is laid out from `start_ns` for
    /// `dur_ns` under the innermost open span.
    pub fn aggregate(&mut self, name: &'static str, start_ns: u64, dur_ns: u64) {
        if !self.enabled || self.spans.len() >= SPAN_CAP {
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: self.open.last().copied(),
        });
    }

    /// Nanoseconds since the shared origin.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Writes every recorder's spans as one Chrome trace document, with each
/// span name's total and self time (duration minus the part its child
/// spans cover) in a `webvuln` section.
pub fn write_chrome_trace(
    path: &Path,
    workload: &str,
    run_id: u64,
    recorders: &[Recorder],
) -> std::io::Result<()> {
    let mut events = Vec::new();
    let mut totals: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    let mut dropped = 0;
    for rec in recorders {
        dropped += rec.dropped;
        let mut child_ns = vec![0u64; rec.spans.len()];
        for span in &rec.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns.saturating_sub(span.start_ns);
            }
        }
        for (index, span) in rec.spans.iter().enumerate() {
            let dur = span.end_ns.saturating_sub(span.start_ns);
            let entry = totals.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += dur;
            entry.2 += dur.saturating_sub(child_ns[index]);
            let parent = span
                .parent
                .map_or("null".to_string(), |p| format!("\"{}.{p}\"", rec.thread));
            events.push(format!(
                "{{\"name\": {}, \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}, \
                 \"args\": {{\"id\": \"{}.{index}\", \"parent\": {parent}, \"run\": {run_id}}}}}",
                json_string(span.name),
                json_number(span.start_ns as f64 / 1e3),
                json_number(dur as f64 / 1e3),
                rec.thread,
                rec.thread,
            ));
        }
    }
    let by_name: Vec<String> = totals
        .iter()
        .map(|(name, (count, total, own))| {
            format!(
                "{}: {{\"count\": {count}, \"total_us\": {}, \"self_us\": {}}}",
                json_string(name),
                json_number(*total as f64 / 1e3),
                json_number(*own as f64 / 1e3)
            )
        })
        .collect();
    let doc = format!(
        "{{\"webvuln\": {{\"workload\": {}, \"run\": {run_id}, \"spans_dropped\": {dropped}, \
         \"by_name\": {{{}}}}},\n\"traceEvents\": [\n{}\n]}}\n",
        json_string(workload),
        by_name.join(", "),
        events.join(",\n")
    );
    std::fs::write(path, doc)
}
