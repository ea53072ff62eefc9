//! Lock-free metric primitives: [`Counter`], [`Gauge`], [`Histogram`].
//!
//! All three are thin `Arc`s over atomics, so handles are cheap to clone
//! into worker threads and every operation is a single relaxed atomic
//! instruction — recording must cost less than the work it measures.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A monotonically increasing event count.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can move both ways (e.g. in-flight requests).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative).
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i` holds values whose bit length
/// is `i`, i.e. `[2^(i-1), 2^i)` (bucket 0 holds exactly zero).
pub(crate) const HISTOGRAM_BUCKETS: usize = 64;

struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A fixed-bucket (power-of-two) histogram with lock-free recording.
///
/// Quantiles are estimated as the upper bound of the bucket containing the
/// requested rank — at most 2x off, which is plenty for latency triage —
/// and clamped to the true observed maximum.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// A new empty histogram, not attached to any registry.
    pub(crate) fn new() -> Histogram {
        Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        let inner = &*self.0;
        inner.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum.fetch_add(value, Ordering::Relaxed);
        inner.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Number of observations.
    pub(crate) fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations.
    pub(crate) fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Largest observation (0 when empty).
    pub(crate) fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Mean observation (0 when empty).
    pub(crate) fn mean(&self) -> u64 {
        self.sum().checked_div(self.count()).unwrap_or(0)
    }

    /// The non-empty buckets as `(upper_bound, count)` pairs, sorted by
    /// bound. Bucket `i` covers `[2^(i-1), 2^i)` (bucket 0 holds exactly
    /// zero; the top bucket's bound is `u64::MAX`), so the pairs fully
    /// reconstruct the recorded distribution at bucket resolution —
    /// empty buckets are implied by the fixed power-of-two boundaries.
    pub(crate) fn buckets(&self) -> Vec<(u64, u64)> {
        self.0
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, bucket)| {
                let count = bucket.load(Ordering::Relaxed);
                (count > 0).then(|| (bucket_upper_bound(i), count))
            })
            .collect()
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`): the upper bound of the
    /// bucket containing the `ceil(q * count)`-th smallest observation,
    /// clamped to the observed maximum.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.0.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max());
            }
        }
        self.max()
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .field("max", &self.max())
            .finish()
    }
}

fn bucket_index(value: u64) -> usize {
    // Bit length 0..=64; the top bucket absorbs the (rare) 64-bit values.
    ((u64::BITS - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let clone = c.clone();
        clone.inc();
        assert_eq!(c.get(), 6, "clones share state");
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::default();
        g.add(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
        g.set(-2);
        assert_eq!(g.get(), -2);
    }

    #[test]
    fn multi_thread_counter_sums_exactly() {
        let c = Counter::default();
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), threads * per_thread);
    }

    #[test]
    fn multi_thread_histogram_counts_exactly() {
        let h = Histogram::new();
        let threads = 8u64;
        let per_thread = 5_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..per_thread {
                        h.record(t * per_thread + i);
                    }
                });
            }
        });
        assert_eq!(h.count(), threads * per_thread);
        let n = threads * per_thread;
        assert_eq!(h.sum(), n * (n - 1) / 2);
        assert_eq!(h.max(), n - 1);
    }

    #[test]
    fn bucket_indexing() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn buckets_expose_the_raw_distribution() {
        let h = Histogram::new();
        for v in [0, 0, 1, 2, 3, 1024, u64::MAX] {
            h.record(v);
        }
        let buckets = h.buckets();
        // (bound, count): zeros, exactly-one, [2,4), [1024,2048), top.
        assert_eq!(
            buckets,
            vec![(0, 2), (1, 1), (3, 2), (2047, 1), (u64::MAX, 1)]
        );
        // Counts reconcile with the summary statistics.
        assert_eq!(buckets.iter().map(|&(_, c)| c).sum::<u64>(), h.count());
        assert!(Histogram::new().buckets().is_empty());
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        // Power-of-two buckets: estimates are within 2x of the true rank.
        assert!((500..=1000).contains(&p50), "p50 estimate {p50}");
        assert!((990..=1000).contains(&p99), "p99 estimate {p99}");
        assert!(p50 <= p99);
        assert_eq!(h.quantile(1.0), 1000);
        assert_eq!(h.mean(), 500);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn duration_recording() {
        let h = Histogram::new();
        h.record_duration(Duration::from_micros(3));
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 3_000);
    }
}
