//! Hierarchical wall-clock span timers.
//!
//! A [`Span`] measures the time from creation to drop and records it into
//! its [`Registry`](crate::Registry) under a `/`-separated path, so a
//! phase entered once per week aggregates into one row with `count = 201`.

use crate::registry::Registry;
use std::time::Instant;

/// A running timer; records its elapsed wall time into the registry when
/// dropped.
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span<'r> {
    registry: &'r Registry,
    path: String,
    start: Instant,
}

impl<'r> Span<'r> {
    pub(crate) fn new(registry: &'r Registry, path: String) -> Span<'r> {
        Span {
            registry,
            path,
            start: Instant::now(),
        }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let nanos = self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        self.registry.record_span(&self.path, nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    impl<'r> Span<'r> {
        /// Opens a child span `self.path + "/" + name`.
        pub(crate) fn child(&self, name: &str) -> Span<'r> {
            Span::new(self.registry, format!("{}/{}", self.path, name))
        }

        /// Ends the span now and returns its duration.
        pub(crate) fn finish(self) -> Duration {
            let elapsed = self.start.elapsed();
            drop(self);
            elapsed
        }
    }

    #[test]
    fn span_records_on_drop() {
        let registry = Registry::new();
        {
            let _span = registry.span("phase");
        }
        let snap = registry.snapshot();
        let phase = snap.span("phase").expect("recorded");
        assert_eq!(phase.count, 1);
    }

    #[test]
    fn finish_records_exactly_once() {
        let registry = Registry::new();
        let span = registry.span("once");
        let elapsed = span.finish();
        let snap = registry.snapshot();
        let once = snap.span("once").expect("recorded");
        assert_eq!(once.count, 1);
        assert!(once.total <= elapsed.max(once.total));
    }

    #[test]
    fn children_extend_the_path() {
        let registry = Registry::new();
        {
            let outer = registry.span("collect");
            for _ in 0..3 {
                let _inner = outer.child("crawl");
            }
        }
        let snap = registry.snapshot();
        assert_eq!(snap.span("collect").expect("outer").count, 1);
        assert_eq!(snap.span("collect/crawl").expect("inner").count, 3);
    }

    #[test]
    fn repeated_entries_aggregate() {
        let registry = Registry::new();
        for _ in 0..5 {
            let _span = registry.span("weekly");
        }
        let snap = registry.snapshot();
        let weekly = snap.span("weekly").expect("recorded");
        assert_eq!(weekly.count, 5);
        assert!(weekly.min <= weekly.max);
        assert!(weekly.total >= weekly.max);
    }

    #[test]
    fn spans_record_from_many_threads() {
        let registry = Registry::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let registry = &registry;
                scope.spawn(move || {
                    for _ in 0..100 {
                        let _span = registry.span("parallel");
                    }
                });
            }
        });
        assert_eq!(
            registry.snapshot().span("parallel").expect("rows").count,
            800
        );
    }

    #[test]
    fn snapshot_orders_spans_by_first_entry() {
        let registry = Registry::new();
        for name in ["generate", "crawl", "fingerprint", "join", "analyze"] {
            let _span = registry.span(name);
        }
        let snap = registry.snapshot();
        let order: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(
            order,
            vec!["generate", "crawl", "fingerprint", "join", "analyze"]
        );
    }
}
