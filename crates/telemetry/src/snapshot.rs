//! Point-in-time metric snapshots with text and JSON rendering (stable
//! key order, integer nanoseconds).

use crate::json::JsonWriter;
use std::fmt::Write as _;
use std::time::Duration;

/// Summary of one histogram at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Mean observation (0 when empty).
    pub mean: u64,
    /// Estimated 50th percentile.
    pub p50: u64,
    /// Estimated 90th percentile.
    pub p90: u64,
    /// Estimated 99th percentile.
    pub p99: u64,
    /// Largest observation.
    pub max: u64,
    /// Non-empty buckets as `(upper_bound, count)` pairs, sorted by
    /// bound (see [`Histogram::buckets`](crate::Histogram::buckets)).
    /// Empty buckets are implied by the fixed power-of-two boundaries,
    /// so these pairs carry the full distribution at bucket resolution.
    pub buckets: Vec<(u64, u64)>,
}

/// Aggregated timings of one span path at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// `/`-separated span path (`collect/crawl`).
    pub path: String,
    /// Times the span was entered.
    pub count: u64,
    /// Total wall time across entries.
    pub total: Duration,
    /// Mean wall time per entry.
    pub mean: Duration,
    /// Shortest entry.
    pub min: Duration,
    /// Longest entry.
    pub max: Duration,
}

/// Everything a [`Registry`](crate::Registry) held at snapshot time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram summaries, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Span timings, in order of first entry (pipeline order).
    pub spans: Vec<SpanSnapshot>,
}

impl Snapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Looks up a span by full path.
    pub fn span(&self, path: &str) -> Option<&SpanSnapshot> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// True when nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.spans.is_empty()
    }

    /// Renders the snapshot as a human-readable report section: the
    /// phase-timing table first, then counters, gauges, and histograms.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.spans.is_empty() {
            let _ = writeln!(out, "Phase timings");
            let _ = writeln!(
                out,
                "  {:<34} {:>7} {:>12} {:>12} {:>12}",
                "span", "calls", "total", "mean", "max"
            );
            for span in &self.spans {
                let _ = writeln!(
                    out,
                    "  {:<34} {:>7} {:>12} {:>12} {:>12}",
                    span.path,
                    span.count,
                    fmt_nanos(span.total.as_nanos() as u64),
                    fmt_nanos(span.mean.as_nanos() as u64),
                    fmt_nanos(span.max.as_nanos() as u64),
                );
            }
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "Counters");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<44} {value:>14}");
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "Gauges");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "  {name:<44} {value:>14}");
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "Histograms");
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {:<34} count={} mean={} p50={} p90={} p99={} max={}",
                    h.name,
                    h.count,
                    fmt_nanos(h.mean),
                    fmt_nanos(h.p50),
                    fmt_nanos(h.p90),
                    fmt_nanos(h.p99),
                    fmt_nanos(h.max),
                );
            }
        }
        out
    }

    /// Serializes the snapshot as one JSON object with stable key order.
    /// Durations are integer nanoseconds.
    pub fn to_json(&self) -> String {
        let mut j = JsonWriter::new();
        j.begin_obj().obj("counters");
        for (name, value) in &self.counters {
            j.u64(name, *value);
        }
        j.end_obj().obj("gauges");
        for (name, value) in &self.gauges {
            j.i64(name, *value);
        }
        j.end_obj().arr("histograms");
        for h in &self.histograms {
            j.begin_obj().str("name", &h.name).u64("count", h.count);
            j.u64("sum", h.sum).u64("mean", h.mean).u64("p50", h.p50);
            j.u64("p90", h.p90).u64("p99", h.p99).u64("max", h.max);
            j.arr("buckets");
            for &(le, count) in &h.buckets {
                j.begin_obj().u64("le", le).u64("count", count).end_obj();
            }
            j.end_arr().end_obj();
        }
        j.end_arr().arr("spans");
        for s in &self.spans {
            let [total, mean, min, max] = [s.total, s.mean, s.min, s.max].map(nanos);
            j.begin_obj().str("path", &s.path).u64("count", s.count);
            j.u64("total_ns", total).u64("mean_ns", mean);
            j.u64("min_ns", min).u64("max_ns", max).end_obj();
        }
        j.end_arr().end_obj();
        j.finish()
    }
}

/// A duration as whole nanoseconds (saturating: 2^64 ns is 584 years).
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Formats a nanosecond quantity with a human-friendly unit
/// (`421ns`, `3.2µs`, `15.4ms`, `2.41s`).
pub fn fmt_nanos(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.2}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.1}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.1}µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn populated() -> Snapshot {
        let registry = Registry::new();
        registry.counter("net.fetches_total").add(120);
        registry.counter("fp.hits_url_total").add(88);
        registry.gauge("net.inflight").set(3);
        let h = registry.histogram("net.fetch_latency_ns");
        for v in [1_000, 2_000, 4_000, 1_000_000] {
            h.record(v);
        }
        {
            let gen = registry.span("generate");
            let _child = gen.child("render");
        }
        let _ = registry.span("crawl");
        registry.snapshot()
    }

    #[test]
    fn render_contains_all_sections() {
        let text = populated().render();
        assert!(text.contains("Phase timings"), "{text}");
        assert!(text.contains("generate"), "{text}");
        assert!(text.contains("generate/render"), "{text}");
        assert!(text.contains("Counters"), "{text}");
        assert!(text.contains("net.fetches_total"), "{text}");
        assert!(text.contains("120"), "{text}");
        assert!(text.contains("Histograms"), "{text}");
        assert!(text.contains("p99="), "{text}");
        // Raw buckets are JSON-only; the text renderer keeps its shape.
        assert!(!text.contains("buckets"), "{text}");
    }

    #[test]
    fn json_shape_is_stable_and_escaped() {
        let json = populated().to_json();
        assert!(json.starts_with("{\"counters\":{"), "{json}");
        assert!(json.contains("\"net.fetches_total\":120"), "{json}");
        assert!(json.contains("\"gauges\":{\"net.inflight\":3}"), "{json}");
        assert!(json.contains("\"histograms\":[{\"name\":"), "{json}");
        // Raw bucket boundaries and counts ride along with the summary:
        // 1000/2000/4000/1000000 land in four distinct power-of-two
        // buckets, one observation each.
        assert!(
            json.contains(
                "\"buckets\":[{\"le\":1023,\"count\":1},{\"le\":2047,\"count\":1},\
                 {\"le\":4095,\"count\":1},{\"le\":1048575,\"count\":1}]"
            ),
            "{json}"
        );
        assert!(json.contains("\"spans\":["), "{json}");
        assert!(json.contains("\"path\":\"generate/render\""), "{json}");
        assert!(json.ends_with("]}"), "{json}");
    }

    #[test]
    fn empty_snapshot_renders_empty() {
        let snap = Snapshot::default();
        assert!(snap.is_empty());
        assert_eq!(snap.render(), "");
        assert_eq!(
            snap.to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":[],\"spans\":[]}"
        );
    }

    #[test]
    fn fmt_nanos_units() {
        assert_eq!(fmt_nanos(421), "421ns");
        assert_eq!(fmt_nanos(3_200), "3.2µs");
        assert_eq!(fmt_nanos(15_400_000), "15.4ms");
        assert_eq!(fmt_nanos(2_410_000_000), "2.41s");
    }
}
