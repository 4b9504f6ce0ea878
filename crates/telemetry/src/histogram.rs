//! Log2-bucketed latency histograms with percentile extraction.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log2 buckets: bucket `i` holds samples whose nanosecond value
/// has `i` significant bits, i.e. values in `[2^(i-1), 2^i)`. 64 buckets
/// cover the full `u64` nanosecond range (bucket 63 ≈ 292 years).
const BUCKETS: usize = 64;

/// A lock-free latency histogram.
///
/// Samples are recorded as nanoseconds into log2 buckets, so `record` is a
/// single relaxed `fetch_add` — cheap enough to sit on the invocation hot
/// path. Percentiles are reconstructed from the bucket counts; the error
/// is bounded by the bucket width (< 2x, and in practice the geometric
/// mid-point estimate is much closer).
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }
}

impl LatencyHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn bucket_for(nanos: u64) -> usize {
        (64 - nanos.leading_zeros() as usize).min(BUCKETS - 1)
    }

    /// Record one latency sample.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.record_nanos(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Record one latency sample given directly in nanoseconds.
    #[inline]
    pub fn record_nanos(&self, nanos: u64) {
        self.buckets[Self::bucket_for(nanos)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough view of the histogram (concurrent recorders may
    /// race individual cells; fine for reporting).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; BUCKETS];
        for (i, b) in self.buckets.iter().enumerate() {
            buckets[i] = b.load(Ordering::Relaxed);
        }
        let count: u64 = buckets.iter().sum();
        let sum = self.sum_nanos.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            mean_nanos: sum.checked_div(count).unwrap_or(0),
            p50_nanos: percentile(&buckets, count, 0.50),
            p95_nanos: percentile(&buckets, count, 0.95),
            p99_nanos: percentile(&buckets, count, 0.99),
            max_nanos: self.max_nanos.load(Ordering::Relaxed),
        }
    }
}

/// Estimate a percentile from bucket counts: find the bucket containing the
/// target rank and return its geometric mid-point.
fn percentile(buckets: &[u64; BUCKETS], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let rank = ((count as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            // Bucket i spans [2^(i-1), 2^i); use the geometric mid-point.
            if i == 0 {
                return 0;
            }
            let lo = 1u64 << (i - 1);
            let hi = if i >= 64 { u64::MAX } else { (1u128 << i) as u64 };
            return lo + (hi - lo) / 2;
        }
    }
    buckets.len() as u64 // unreachable: seen reaches count
}

/// Point-in-time view of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Mean latency in nanoseconds.
    pub mean_nanos: u64,
    /// Median estimate (nanoseconds).
    pub p50_nanos: u64,
    /// 95th percentile estimate (nanoseconds).
    pub p95_nanos: u64,
    /// 99th percentile estimate (nanoseconds).
    pub p99_nanos: u64,
    /// Largest sample seen (exact).
    pub max_nanos: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_is_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn percentiles_are_order_of_magnitude_correct() {
        let h = LatencyHistogram::new();
        // 90 fast samples (~1us), 10 slow (~1ms).
        for _ in 0..90 {
            h.record(Duration::from_micros(1));
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(1));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        // p50 lands in the ~1us bucket, p99 in the ~1ms bucket; log2
        // buckets bound the error to < 2x.
        assert!(s.p50_nanos >= 512 && s.p50_nanos < 2_048, "p50={}", s.p50_nanos);
        assert!(s.p99_nanos >= 524_288 && s.p99_nanos < 2_097_152, "p99={}", s.p99_nanos);
        assert_eq!(s.max_nanos, 1_000_000);
        assert!(s.p50_nanos <= s.p95_nanos && s.p95_nanos <= s.p99_nanos);
    }

    #[test]
    fn bucket_for_boundaries() {
        assert_eq!(LatencyHistogram::bucket_for(0), 0);
        assert_eq!(LatencyHistogram::bucket_for(1), 1);
        assert_eq!(LatencyHistogram::bucket_for(2), 2);
        assert_eq!(LatencyHistogram::bucket_for(3), 2);
        assert_eq!(LatencyHistogram::bucket_for(4), 3);
        assert_eq!(LatencyHistogram::bucket_for(u64::MAX), 63);
    }
}
