//! Fixed-bucket latency histogram with exact nearest-rank percentile
//! extraction.
//!
//! Buckets follow a 1–2–5 logarithmic series in microseconds from 1 µs
//! to 100 s, plus one overflow bucket. Recording is lock-free (one
//! relaxed `fetch_add` per sample plus min/max maintenance) so worker
//! threads of the tree-sharded pool can share a histogram, and two
//! histograms merge bucket-wise — the per-worker → global aggregation
//! path.
//!
//! Percentiles use the **nearest-rank** rule: for `N` recorded samples
//! the `q`-quantile is the value at rank `⌈q·N⌉` (1-based, clamped to
//! `[1, N]`). Rank selection is exact; the reported *value* is the
//! upper edge of the bucket holding that rank, clamped to the true
//! recorded `[min, max]` so degenerate distributions (all samples
//! equal) come back exact. [`nearest_rank`] applies the same rule to a
//! raw sorted sample slice — every percentile in the workspace routes
//! through one of these two entry points.

use std::sync::atomic::{AtomicU64, Ordering};

/// Upper (inclusive) bucket edges in microseconds: a 1–2–5 series over
/// eight decades, 1 µs ..= 100 s.
pub const BUCKET_EDGES_US: [u64; 25] = [
    1,
    2,
    5,
    10,
    20,
    50,
    100,
    200,
    500,
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
];

/// Number of buckets (the edges plus one overflow bucket).
pub const BUCKET_COUNT: usize = BUCKET_EDGES_US.len() + 1;

/// Exact nearest-rank quantile of an already **sorted** slice: the
/// value at 1-based rank `⌈q·N⌉`, clamped to `[1, N]`. Returns 0.0 for
/// an empty slice.
///
/// NaN samples have no rank: one NaN in the input silently corrupts
/// whatever comparator sorted it, and with it the reported p99. Debug
/// builds reject NaN outright; release builds skip NaN samples and
/// rank the remaining values (`total_cmp`-style sorts place NaN last,
/// so those still form a sorted prefix). Callers feeding raw
/// wall-clock deltas (e.g. `rp-experiments::failures`) get a sane
/// percentile either way.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(
        sorted.iter().all(|v| !v.is_nan()),
        "nearest_rank: NaN sample in quantile input"
    );
    let n = sorted.iter().filter(|v| !v.is_nan()).count();
    if n == 0 {
        return 0.0;
    }
    let rank = (q * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    let mut seen = 0usize;
    for &v in sorted {
        if !v.is_nan() {
            seen += 1;
            if seen == rank {
                return v;
            }
        }
    }
    unreachable!("rank {rank} <= non-NaN count {n}")
}

/// A thread-safe fixed-bucket histogram of microsecond latencies.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Index of the bucket holding `value_us` (last bucket = overflow).
    fn bucket_index(value_us: u64) -> usize {
        BUCKET_EDGES_US
            .iter()
            .position(|&edge| value_us <= edge)
            .unwrap_or(BUCKET_EDGES_US.len())
    }

    /// Records one sample, in microseconds.
    pub fn record_us(&self, value_us: u64) {
        self.buckets[Self::bucket_index(value_us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value_us, Ordering::Relaxed);
        self.min.fetch_min(value_us, Ordering::Relaxed);
        self.max.fetch_max(value_us, Ordering::Relaxed);
    }

    /// Records a duration given in (fractional) seconds.
    pub fn record_seconds(&self, seconds: f64) {
        self.record_us((seconds * 1e6).round().max(0.0) as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples, µs.
    pub fn sum_us(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample, µs (0 when empty).
    pub fn min_us(&self) -> u64 {
        let min = self.min.load(Ordering::Relaxed);
        if min == u64::MAX {
            0
        } else {
            min
        }
    }

    /// Largest recorded sample, µs (0 when empty).
    pub fn max_us(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Arithmetic mean of the recorded samples, µs (exact — derived
    /// from the running sum, not the buckets). 0.0 when empty.
    pub fn mean_us(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum_us() as f64 / count as f64
        }
    }

    /// Nearest-rank `q`-quantile, µs. The rank `⌈q·N⌉` (clamped to
    /// `[1, N]`) is exact; the reported value is the upper edge of the
    /// bucket containing that rank, clamped to the recorded
    /// `[min, max]`. Returns 0 when empty.
    pub fn percentile_us(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                let edge = BUCKET_EDGES_US.get(i).copied().unwrap_or(u64::MAX);
                return edge.clamp(self.min_us(), self.max_us());
            }
        }
        self.max_us()
    }

    /// Median (nearest-rank p50), µs.
    pub fn p50_us(&self) -> u64 {
        self.percentile_us(0.50)
    }

    /// Nearest-rank p99, µs.
    pub fn p99_us(&self) -> u64 {
        self.percentile_us(0.99)
    }

    /// Raw bucket counts (edges first, overflow last).
    pub fn bucket_counts(&self) -> [u64; BUCKET_COUNT] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Adds every sample of `other` into `self` (bucket-wise; min/max
    /// and the exact sum merge too). The per-worker → global path.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        let count = other.count.load(Ordering::Relaxed);
        if count == 0 {
            return;
        }
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Zeroes the histogram.
    pub fn reset(&self) {
        for bucket in &self.buckets {
            bucket.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::disallowed_methods)] // tests may unwrap freely

    use super::*;

    #[test]
    fn bucket_edges_are_strictly_increasing_one_two_five() {
        for pair in BUCKET_EDGES_US.windows(2) {
            assert!(pair[0] < pair[1]);
            let ratio = pair[1] as f64 / pair[0] as f64;
            assert!((2.0..=2.5).contains(&ratio), "ratio {ratio}");
        }
        assert_eq!(BUCKET_EDGES_US[0], 1);
        assert_eq!(*BUCKET_EDGES_US.last().unwrap(), 100_000_000);
    }

    #[test]
    fn samples_land_in_the_right_buckets() {
        let h = Histogram::new();
        h.record_us(1); // bucket 0 (≤ 1)
        h.record_us(2); // bucket 1 (≤ 2)
        h.record_us(3); // bucket 2 (≤ 5)
        h.record_us(5); // bucket 2
        h.record_us(6); // bucket 3 (≤ 10)
        h.record_us(200_000_001); // overflow
        let counts = h.bucket_counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[1], 1);
        assert_eq!(counts[2], 2);
        assert_eq!(counts[3], 1);
        assert_eq!(counts[BUCKET_COUNT - 1], 1);
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn nearest_rank_matches_the_textbook_rule() {
        // N = 5: p50 → rank ⌈2.5⌉ = 3; p99 → rank ⌈4.95⌉ = 5.
        let sorted = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&sorted, 0.50), 30.0);
        assert_eq!(nearest_rank(&sorted, 0.99), 50.0);
        assert_eq!(nearest_rank(&sorted, 0.0), 10.0); // clamps to rank 1
        assert_eq!(nearest_rank(&sorted, 1.0), 50.0);
        assert_eq!(nearest_rank(&[], 0.5), 0.0);
    }

    #[test]
    fn nan_samples_are_rejected_or_filtered() {
        // A raw wall-clock delta can come in NaN; it must never poison
        // the reported percentile. Debug builds trip the assertion;
        // release builds rank the remaining (still sorted) values.
        let with_nan = [1.0, 2.0, 3.0, f64::NAN];
        if cfg!(debug_assertions) {
            let caught = std::panic::catch_unwind(|| nearest_rank(&with_nan, 0.99));
            assert!(caught.is_err(), "debug build must reject NaN samples");
        } else {
            assert_eq!(nearest_rank(&with_nan, 0.99), 3.0);
            assert_eq!(nearest_rank(&with_nan, 0.50), 2.0);
            assert_eq!(nearest_rank(&[f64::NAN, f64::NAN], 0.99), 0.0);
        }
    }

    #[test]
    fn histogram_percentiles_use_the_same_rank_rule() {
        // Samples sit exactly on bucket edges so the bucket upper edge
        // IS the sample value — the histogram must then agree exactly
        // with the raw nearest-rank rule.
        let samples = [10u64, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000];
        let h = Histogram::new();
        for &s in &samples {
            h.record_us(s);
        }
        let sorted: Vec<f64> = samples.iter().map(|&s| s as f64).collect();
        for q in [0.10, 0.25, 0.50, 0.90, 0.99, 1.0] {
            assert_eq!(
                h.percentile_us(q),
                nearest_rank(&sorted, q) as u64,
                "q = {q}"
            );
        }
    }

    #[test]
    fn degenerate_distributions_report_exact_values() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record_us(7); // inside the (5, 10] bucket
        }
        // The bucket edge is 10 but min == max == 7 clamps it back.
        assert_eq!(h.p50_us(), 7);
        assert_eq!(h.p99_us(), 7);
        assert_eq!(h.min_us(), 7);
        assert_eq!(h.max_us(), 7);
        assert_eq!(h.mean_us(), 7.0);
    }

    #[test]
    fn exact_max_is_not_quantised_to_a_bucket_edge() {
        // A long-tail apply latency must come back as observed, not
        // rounded up to the 1-2-5 edge of its bucket: the tables in
        // `reproduce churn` / failures report this max verbatim.
        let h = Histogram::new();
        for _ in 0..10 {
            h.record_us(80); // inside the (50, 100] bucket
        }
        h.record_us(987_654); // inside the (500_000, 1_000_000] bucket
        assert_eq!(h.max_us(), 987_654);
        // N = 11: the p99 rank (11) lands in the tail bucket, whose
        // edge is 1_000_000 — the exact max clamps the report back to
        // the observed value.
        assert_eq!(h.p99_us(), 987_654);
    }

    #[test]
    fn overflow_bucket_reports_the_recorded_max() {
        let h = Histogram::new();
        h.record_us(1);
        h.record_us(300_000_000);
        assert_eq!(h.p99_us(), 300_000_000);
    }

    #[test]
    fn merge_preserves_counts_sum_and_extrema() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record_us(10);
        a.record_us(100);
        b.record_us(1);
        b.record_us(1_000);
        a.merge_from(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum_us(), 1111);
        assert_eq!(a.min_us(), 1);
        assert_eq!(a.max_us(), 1_000);
        // Merging an empty histogram is a no-op (min stays intact).
        a.merge_from(&Histogram::new());
        assert_eq!(a.count(), 4);
        assert_eq!(a.min_us(), 1);
    }

    #[test]
    fn record_seconds_rounds_to_microseconds() {
        let h = Histogram::new();
        h.record_seconds(0.0031);
        assert_eq!(h.sum_us(), 3100);
        h.record_seconds(-1.0); // clamped, never panics
        assert_eq!(h.min_us(), 0);
    }
}
