//! The metric registry: names metrics, hands out cheap handles, and
//! snapshots everything at once.
//!
//! Registration (`counter("name")`) takes a short mutex hold; the returned
//! handle then records lock-free forever after. Hot paths register once
//! and keep the handle — never look up a metric per event.

use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::{HistogramSnapshot, Snapshot, SpanSnapshot};
use crate::span::Span;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

#[derive(Clone, Copy)]
struct SpanStat {
    /// Order of first entry — keeps the phase table in pipeline order.
    seq: usize,
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

/// A named collection of metrics. Create one per run for exact, isolated
/// accounting.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    spans: Mutex<BTreeMap<String, SpanStat>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Gets or creates the counter `name` and returns a recording handle.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.counters.lock().expect("registry lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Gets or creates the gauge `name` and returns a recording handle.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.gauges.lock().expect("registry lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Gets or creates the histogram `name` and returns a recording handle.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self.histograms.lock().expect("registry lock");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Opens a top-level span named `name`; its wall time is recorded here
    /// when the returned guard drops.
    pub fn span(&self, name: &str) -> Span<'_> {
        Span::new(self, name.to_string())
    }

    /// Records one `nanos`-long run of the span `path`, for a span whose
    /// time is not one guard's lifetime.
    pub fn record_span(&self, path: &str, nanos: u64) {
        let mut map = self.spans.lock().expect("registry lock");
        let next_seq = map.len();
        let stat = map.entry(path.to_string()).or_insert(SpanStat {
            seq: next_seq,
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
        });
        stat.count += 1;
        stat.total_ns = stat.total_ns.saturating_add(nanos);
        stat.min_ns = stat.min_ns.min(nanos);
        stat.max_ns = stat.max_ns.max(nanos);
    }

    /// A point-in-time copy of every metric. Counters/histograms written
    /// concurrently with the snapshot land in it or in the next one —
    /// never lost.
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(name, c)| (name.clone(), c.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(name, g)| (name.clone(), g.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(name, h)| HistogramSnapshot {
                name: name.clone(),
                count: h.count(),
                sum: h.sum(),
                mean: h.mean(),
                p50: h.quantile(0.50),
                p90: h.quantile(0.90),
                p99: h.quantile(0.99),
                max: h.max(),
                buckets: h.buckets(),
            })
            .collect();
        let mut spans: Vec<(usize, SpanSnapshot)> = self
            .spans
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(path, stat)| {
                (
                    stat.seq,
                    SpanSnapshot {
                        path: path.clone(),
                        count: stat.count,
                        total: Duration::from_nanos(stat.total_ns),
                        mean: Duration::from_nanos(stat.total_ns / stat.count.max(1)),
                        min: Duration::from_nanos(if stat.count == 0 { 0 } else { stat.min_ns }),
                        max: Duration::from_nanos(stat.max_ns),
                    },
                )
            })
            .collect();
        spans.sort_by_key(|(seq, _)| *seq);
        Snapshot {
            counters,
            gauges,
            histograms,
            spans: spans.into_iter().map(|(_, s)| s).collect(),
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_returns_shared_handle() {
        let registry = Registry::new();
        let a = registry.counter("hits");
        let b = registry.counter("hits");
        a.add(2);
        b.add(3);
        assert_eq!(registry.snapshot().counter("hits"), Some(5));
    }

    #[test]
    fn distinct_names_are_independent() {
        let registry = Registry::new();
        registry.counter("a").inc();
        registry.counter("b").add(7);
        registry.gauge("depth").set(-4);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("a"), Some(1));
        assert_eq!(snap.counter("b"), Some(7));
        assert_eq!(snap.gauge("depth"), Some(-4));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn concurrent_registration_and_recording() {
        let registry = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let registry = &registry;
                scope.spawn(move || {
                    // Deliberately re-register every iteration: the handle
                    // must always alias the same underlying atomic.
                    for _ in 0..1_000 {
                        registry.counter("contended").inc();
                        registry.histogram("lat").record(42);
                    }
                });
            }
        });
        let snap = registry.snapshot();
        assert_eq!(snap.counter("contended"), Some(8_000));
        let lat = snap.histogram("lat").expect("histogram exists");
        assert_eq!(lat.count, 8_000);
        assert_eq!(lat.mean, 42);
    }

    #[test]
    fn snapshot_summarizes_histograms() {
        let registry = Registry::new();
        let h = registry.histogram("bytes");
        for v in [100, 200, 400, 800] {
            h.record(v);
        }
        let snap = registry.snapshot();
        let bytes = snap.histogram("bytes").expect("exists");
        assert_eq!(bytes.count, 4);
        assert_eq!(bytes.sum, 1500);
        assert_eq!(bytes.max, 800);
        assert!(bytes.p50 >= 200 && bytes.p99 <= 800);
    }
}
