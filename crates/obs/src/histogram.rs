//! Fixed-size log₂-bucket histograms.
//!
//! The bucket layout follows the operation-count analyses the counters
//! exist to check (proposal counts spread over orders of magnitude, solve
//! times likewise): bucket `0` holds the value `0`, bucket `i ≥ 1` holds
//! values in `[2^{i−1}, 2^i − 1]`, so `observe` is a `leading_zeros` plus
//! one array increment — no allocation, no branches beyond the zero test.
//! Exact `min`/`max`/`sum` ride along so reports can bound the bucket
//! approximation.

use serde::Value;

/// Number of buckets: the zero bucket plus one per bit of a `u64`.
pub const BUCKETS: usize = 65;

/// A log₂-bucket histogram of `u64` samples.
///
/// ```
/// use kmatch_obs::Log2Histogram;
///
/// let mut h = Log2Histogram::new();
/// for v in [0, 1, 2, 3, 4, 1000] {
///     h.observe(v);
/// }
/// assert_eq!(h.count(), 6);
/// assert_eq!(h.sum(), 1010);
/// assert_eq!(h.max(), 1000);
/// assert!(h.value_at_quantile(0.5) <= 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    /// `counts[0]` = zeros; `counts[i]` = samples in `[2^{i−1}, 2^i − 1]`.
    counts: [u64; BUCKETS],
    /// Total samples.
    count: u64,
    /// Sum of all samples (saturating).
    sum: u64,
    /// Smallest sample seen (`u64::MAX` while empty).
    min: u64,
    /// Largest sample seen (`0` while empty).
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Bucket index of `v`: `0` for zero, else `ilog2(v) + 1`.
#[inline(always)]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`2^i − 1`, saturating at the top).
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Log2Histogram::default()
    }

    /// Record one sample.
    #[inline(always)]
    pub fn observe(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `0` if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or `0` if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or `0.0` if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Per-bucket counts (`counts[0]` = zeros, `counts[i]` covers
    /// `[2^{i−1}, 2^i − 1]`).
    pub fn bucket_counts(&self) -> &[u64; BUCKETS] {
        &self.counts
    }

    /// Upper bound of the value at quantile `q ∈ [0, 1]`: the inclusive
    /// upper edge of the bucket holding the `⌈q·count⌉`-th smallest
    /// sample, clamped by the exact maximum. Returns `0` for an empty
    /// histogram.
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Element-wise merge of `other` into `self` (the shard-merge
    /// operation of [`crate::BatchRegistry`]).
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Index of the highest non-empty bucket, or `None` if empty — lets
    /// serializers stop at the observed range.
    pub fn highest_bucket(&self) -> Option<usize> {
        self.counts.iter().rposition(|&c| c > 0)
    }

    /// The histogram of samples recorded *since* `earlier`, where
    /// `earlier` is a previous snapshot of this same cumulative
    /// histogram — the delta operation behind rolling-window queries.
    ///
    /// Bucket counts, `count`, and `sum` subtract exactly (saturating,
    /// so a non-ancestor `earlier` degrades to empty rather than
    /// wrapping). The delta's `min`/`max` are not recoverable from two
    /// cumulative envelopes, so they are re-derived at bucket
    /// resolution: `min` is the lower bound of the delta's lowest
    /// non-empty bucket, `max` the upper bound of its highest, clamped
    /// by the cumulative exact max. Quantile queries on the delta stay
    /// bucket-exact, which is all the window layer promises.
    pub fn diff_since(&self, earlier: &Log2Histogram) -> Log2Histogram {
        let mut out = Log2Histogram::new();
        for (i, slot) in out.counts.iter_mut().enumerate() {
            *slot = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.sum = self.sum.saturating_sub(earlier.sum);
        if out.count == 0 {
            return Log2Histogram::new();
        }
        let lowest = out
            .counts
            .iter()
            .position(|&c| c > 0)
            .expect("count > 0 implies a non-empty bucket");
        let highest = out.highest_bucket().expect("count > 0");
        // Lower bound of bucket i: 0 for the zero bucket, else 2^{i-1}.
        out.min = if lowest == 0 { 0 } else { 1u64 << (lowest - 1) };
        out.max = bucket_upper_bound(highest).min(self.max);
        out
    }

    /// JSON form: exact scalars plus the non-empty prefix of buckets as
    /// `[upper_bound, count]` pairs.
    pub fn to_json(&self) -> Value {
        let end = self.highest_bucket().map_or(0, |i| i + 1);
        let buckets: Vec<Value> = (0..end)
            .map(|i| {
                Value::Array(vec![
                    Value::Number(bucket_upper_bound(i) as f64),
                    Value::Number(self.counts[i] as f64),
                ])
            })
            .collect();
        Value::Object(vec![
            ("count".into(), Value::Number(self.count as f64)),
            ("sum".into(), Value::Number(self.sum as f64)),
            ("min".into(), Value::Number(self.min() as f64)),
            ("max".into(), Value::Number(self.max as f64)),
            (
                "p50".into(),
                Value::Number(self.value_at_quantile(0.50) as f64),
            ),
            (
                "p90".into(),
                Value::Number(self.value_at_quantile(0.90) as f64),
            ),
            (
                "p99".into(),
                Value::Number(self.value_at_quantile(0.99) as f64),
            ),
            ("buckets".into(), Value::Array(buckets)),
        ])
    }

    /// Append the Prometheus text-exposition form of this histogram under
    /// `name` (with optional `labels`, e.g. `kind="gs"`): a `# HELP` /
    /// `# TYPE` header, cumulative `_bucket{le=…}` lines over the
    /// observed range, then `+Inf`, `_sum` and `_count`. `labels` is a
    /// pre-rendered pair list — build pairs from untrusted values with
    /// [`crate::prom::label_pair`].
    pub fn render_prometheus(&self, name: &str, help: &str, labels: &str, out: &mut String) {
        use std::fmt::Write;
        let sep = if labels.is_empty() { "" } else { "," };
        crate::prom::write_family_header(out, name, "histogram", help);
        let mut cumulative = 0u64;
        let end = self.highest_bucket().map_or(0, |i| i + 1);
        for i in 0..end {
            cumulative += self.counts[i];
            let _ = writeln!(
                out,
                "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cumulative}",
                bucket_upper_bound(i)
            );
        }
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
            self.count
        );
        let braces = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{labels}}}")
        };
        let _ = writeln!(out, "{name}_sum{braces} {}", self.sum);
        let _ = writeln!(out, "{name}_count{braces} {}", self.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn scalars_are_exact() {
        let mut h = Log2Histogram::new();
        for v in [5u64, 0, 17, 2] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 24);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 17);
        assert!((h.mean() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_quiet() {
        let h = Log2Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.value_at_quantile(0.99), 0);
        assert_eq!(h.highest_bucket(), None);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn quantiles_walk_cumulative_buckets() {
        let mut h = Log2Histogram::new();
        // 90 small samples, 10 large ones.
        for _ in 0..90 {
            h.observe(3);
        }
        for _ in 0..10 {
            h.observe(1000);
        }
        assert_eq!(h.value_at_quantile(0.5), 3);
        assert_eq!(h.value_at_quantile(0.9), 3);
        // p99 lands in the 1000 bucket; clamped by the exact max.
        assert_eq!(h.value_at_quantile(0.99), 1000);
        assert_eq!(h.value_at_quantile(1.0), 1000);
    }

    #[test]
    fn merge_is_elementwise() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        a.observe(1);
        a.observe(100);
        b.observe(7);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 108);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 100);
        let empty = Log2Histogram::new();
        a.merge(&empty);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero_for_any_q() {
        let h = Log2Histogram::new();
        for q in [-1.0, 0.0, 0.25, 0.5, 0.99, 1.0, 2.0] {
            assert_eq!(h.value_at_quantile(q), 0, "q = {q}");
        }
    }

    #[test]
    fn single_sample_pins_every_quantile_to_it() {
        let mut h = Log2Histogram::new();
        h.observe(777);
        assert_eq!(h.min(), h.max());
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            // The bucket bound (1023) is clamped by the exact max.
            assert_eq!(h.value_at_quantile(q), 777, "q = {q}");
        }
    }

    #[test]
    fn top_bucket_saturates_at_u64_max() {
        let mut h = Log2Histogram::new();
        h.observe(u64::MAX);
        h.observe(u64::MAX - 1);
        h.observe(1);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.min(), 1);
        // The sum saturates instead of wrapping.
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.bucket_counts()[BUCKETS - 1], 2);
        assert_eq!(h.highest_bucket(), Some(BUCKETS - 1));
        assert_eq!(h.value_at_quantile(1.0), u64::MAX);
        // JSON renders the top bucket with its saturated bound.
        let v = h.to_json();
        match v.get("buckets") {
            Some(Value::Array(items)) => {
                assert_eq!(items.len(), BUCKETS);
                match items.last() {
                    Some(Value::Array(pair)) => {
                        assert_eq!(pair[0], Value::Number(u64::MAX as f64));
                        assert_eq!(pair[1], Value::Number(2.0));
                    }
                    other => panic!("expected [bound, count], got {other:?}"),
                }
            }
            other => panic!("expected bucket array, got {other:?}"),
        }
    }

    #[test]
    fn disjoint_merge_keeps_the_exact_envelope() {
        let mut a = Log2Histogram::new();
        for v in [1u64, 2, 3] {
            a.observe(v);
        }
        let mut b = Log2Histogram::new();
        b.observe(1 << 40);
        b.observe(1 << 41);
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 1 << 41);
        assert_eq!(a.sum(), 6 + (1u64 << 40) + (1u64 << 41));
        // Bucket ranges stay disjoint: nothing lands between them.
        assert_eq!(a.bucket_counts()[10..41].iter().sum::<u64>(), 0);
        assert_eq!(a.value_at_quantile(0.5), 3);
        assert_eq!(a.value_at_quantile(1.0), 1 << 41);
        // Merging into an empty histogram reproduces the source exactly.
        let mut fresh = Log2Histogram::new();
        fresh.merge(&b);
        assert_eq!(fresh, b);
        assert_eq!(fresh.min(), 1 << 40);
    }

    #[test]
    fn diff_since_recovers_the_window_delta() {
        let mut earlier = Log2Histogram::new();
        for v in [1u64, 2, 3] {
            earlier.observe(v);
        }
        let mut later = earlier.clone();
        for v in [100u64, 200, 0] {
            later.observe(v);
        }
        let delta = later.diff_since(&earlier);
        assert_eq!(delta.count(), 3);
        assert_eq!(delta.sum(), 300);
        // min/max are bucket-resolution: the zero sample pins min exactly,
        // max is the 200-bucket's upper bound clamped by the exact max.
        assert_eq!(delta.min(), 0);
        assert_eq!(delta.max(), 200);
        assert_eq!(delta.value_at_quantile(1.0), 200);
        // Identical snapshots diff to empty; so does a non-ancestor
        // (saturating, never wrapping).
        assert_eq!(later.diff_since(&later).count(), 0);
        assert_eq!(earlier.diff_since(&later).count(), 0);
    }

    #[test]
    fn prometheus_rendering_is_cumulative() {
        let mut h = Log2Histogram::new();
        h.observe(1);
        h.observe(2);
        h.observe(2);
        let mut out = String::new();
        h.render_prometheus("test_ns", "test timings", "kind=\"gs\"", &mut out);
        assert!(out.contains("# HELP test_ns test timings"));
        assert!(out.contains("# TYPE test_ns histogram"));
        assert!(out.contains("test_ns_bucket{kind=\"gs\",le=\"1\"} 1"));
        assert!(out.contains("test_ns_bucket{kind=\"gs\",le=\"3\"} 3"));
        assert!(out.contains("test_ns_bucket{kind=\"gs\",le=\"+Inf\"} 3"));
        assert!(out.contains("test_ns_sum{kind=\"gs\"} 5"));
        assert!(out.contains("test_ns_count{kind=\"gs\"} 3"));
    }

    #[test]
    fn json_form_has_percentiles_and_buckets() {
        let mut h = Log2Histogram::new();
        h.observe(4);
        let v = h.to_json();
        assert_eq!(v.get("count"), Some(&Value::Number(1.0)));
        assert_eq!(v.get("p50"), Some(&Value::Number(4.0)));
        match v.get("buckets") {
            Some(Value::Array(items)) => assert_eq!(items.len(), 4),
            other => panic!("expected bucket array, got {other:?}"),
        }
    }
}
