//! Fixed-bucket histograms.
//!
//! Used for distributions the paper reports in aggregate form: store-queue
//! lifetime (§7.1), queue occupancy, and slack between redundant threads.

use std::fmt;

/// A histogram over `u64` samples with uniform bucket width and an overflow
/// bucket.
///
/// # Examples
///
/// ```
/// use rmt_stats::Histogram;
///
/// let mut h = Histogram::new("store_lifetime", 10, 8);
/// h.record(3);
/// h.record(25);
/// h.record(1_000_000); // lands in the overflow bucket
/// assert_eq!(h.count(), 3);
/// assert!((h.mean() - 333342.666).abs() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    name: String,
    bucket_width: u64,
    /// `log2(bucket_width)` when the width is a power of two, so
    /// [`Histogram::record`] buckets by shift instead of dividing.
    shift: Option<u32>,
    buckets: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram with `num_buckets` buckets of
    /// `bucket_width` each, plus an implicit overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `bucket_width == 0` or `num_buckets == 0`.
    pub fn new(name: impl Into<String>, bucket_width: u64, num_buckets: usize) -> Self {
        assert!(bucket_width > 0, "bucket_width must be non-zero");
        assert!(num_buckets > 0, "num_buckets must be non-zero");
        Histogram {
            name: name.into(),
            bucket_width,
            shift: bucket_width
                .is_power_of_two()
                .then(|| bucket_width.trailing_zeros()),
            buckets: vec![0; num_buckets],
            overflow: 0,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The histogram's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records one sample. Inlinable across crates: a simulated core
    /// records five samples per cycle.
    #[inline]
    pub fn record(&mut self, sample: u64) {
        let idx = match self.shift {
            Some(shift) => sample >> shift,
            None => sample / self.bucket_width,
        } as usize;
        if idx < self.buckets.len() {
            self.buckets[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.count += 1;
        self.sum += sample as u128;
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Number of samples in the overflow bucket.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Count in bucket `idx` (`[idx*width, (idx+1)*width)`).
    pub fn bucket(&self, idx: usize) -> u64 {
        self.buckets.get(idx).copied().unwrap_or(0)
    }

    /// Number of regular (non-overflow) buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// The `p`-th percentile (`p` in `[0, 100]`) at bucket granularity, or
    /// `None` when empty.
    ///
    /// Returns the upper bound of the bucket containing the rank-`⌈p/100·n⌉`
    /// sample, clamped to the recorded `max` (so it is exact for samples in
    /// the overflow bucket and never exceeds an observed value).
    ///
    /// # Examples
    ///
    /// ```
    /// use rmt_stats::Histogram;
    ///
    /// let mut h = Histogram::new("lat", 1, 128);
    /// for v in 1..=100 {
    ///     h.record(v);
    /// }
    /// assert_eq!(h.percentile(50.0), Some(50));
    /// assert_eq!(h.percentile(95.0), Some(95));
    /// assert_eq!(h.percentile(99.0), Some(99));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0 * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let bucket_hi = (i as u64 + 1) * self.bucket_width - 1;
                return Some(bucket_hi.min(self.max).max(self.min));
            }
        }
        // The rank falls in the overflow bucket.
        Some(self.max)
    }

    /// Clears all recorded samples.
    pub fn reset(&mut self) {
        for b in &mut self.buckets {
            *b = 0;
        }
        self.overflow = 0;
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: n={} mean={:.2} min={:?} max={:?}",
            self.name,
            self.count,
            self.mean(),
            self.min(),
            self.max()
        )?;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c > 0 {
                let lo = i as u64 * self.bucket_width;
                let hi = lo + self.bucket_width - 1;
                writeln!(f, "  [{lo:>8}..{hi:>8}] {c}")?;
            }
        }
        if self.overflow > 0 {
            writeln!(f, "  [overflow       ] {}", self.overflow)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_bucket() {
        let mut h = Histogram::new("t", 10, 4);
        h.record(0);
        h.record(9);
        h.record(10);
        h.record(39);
        h.record(40); // overflow
        assert_eq!(h.bucket(0), 2);
        assert_eq!(h.bucket(1), 1);
        assert_eq!(h.bucket(3), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 5);
    }

    #[test]
    fn power_of_two_width_buckets_on_its_edges() {
        let mut h = Histogram::new("t", 8, 3);
        for v in [0, 7, 8, 15, 16, 23, 24, u64::MAX] {
            h.record(v);
        }
        assert_eq!((h.bucket(0), h.bucket(1), h.bucket(2)), (2, 2, 2));
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.percentile(50.0), Some(15));
    }

    #[test]
    fn mean_min_max() {
        let mut h = Histogram::new("t", 1, 100);
        for v in [2u64, 4, 6] {
            h.record(v);
        }
        assert!((h.mean() - 4.0).abs() < 1e-12);
        assert_eq!(h.min(), Some(2));
        assert_eq!(h.max(), Some(6));
    }

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new("t", 5, 2);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn reset_clears_everything() {
        let mut h = Histogram::new("t", 5, 2);
        h.record(1);
        h.record(100);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.overflow(), 0);
        assert_eq!(h.bucket(0), 0);
    }

    #[test]
    fn percentiles_at_bucket_granularity() {
        let mut h = Histogram::new("t", 1, 256);
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), Some(1));
        assert_eq!(h.percentile(50.0), Some(50));
        assert_eq!(h.percentile(95.0), Some(95));
        assert_eq!(h.percentile(99.0), Some(99));
        assert_eq!(h.percentile(100.0), Some(100));
    }

    #[test]
    fn percentile_with_wide_buckets_and_overflow() {
        let mut h = Histogram::new("t", 10, 4); // covers 0..39
        for v in [1u64, 2, 3, 4, 5, 6, 7, 8] {
            h.record(v);
        }
        h.record(35);
        h.record(500); // overflow
                       // 8 of 10 samples are in bucket 0 (upper bound 9, clamped to max).
        assert_eq!(h.percentile(50.0), Some(9));
        // Rank 10 lands in the overflow bucket -> exact max.
        assert_eq!(h.percentile(99.0), Some(500));
    }

    #[test]
    fn percentile_of_empty_and_singleton() {
        let h = Histogram::new("t", 5, 4);
        assert_eq!(h.percentile(50.0), None);
        let mut h = Histogram::new("t", 10, 4);
        h.record(7);
        // Bucket upper bound (9) clamps to the only observed sample.
        assert_eq!(h.percentile(50.0), Some(7));
        assert_eq!(h.percentile(99.0), Some(7));
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_out_of_range_panics() {
        let h = Histogram::new("t", 1, 1);
        let _ = h.percentile(101.0);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_negative_panics() {
        let h = Histogram::new("t", 1, 1);
        let _ = h.percentile(-0.5);
    }

    #[test]
    fn percentile_extremes_on_empty_are_none() {
        let h = Histogram::new("t", 1, 8);
        assert_eq!(h.percentile(0.0), None);
        assert_eq!(h.percentile(1.0), None);
        assert_eq!(h.percentile(100.0), None);
    }

    #[test]
    fn percentile_low_tail_hits_min() {
        let mut h = Histogram::new("t", 1, 256);
        for v in 10..=100u64 {
            h.record(v);
        }
        // p=0 and p=1 both resolve to rank 1, clamped up to the min.
        assert_eq!(h.percentile(0.0), Some(10));
        assert_eq!(h.percentile(1.0), Some(10));
    }

    #[test]
    fn percentile_singleton_all_p_agree() {
        let mut h = Histogram::new("t", 100, 4);
        h.record(42);
        for p in [0.0, 1.0, 50.0, 95.0, 100.0] {
            assert_eq!(h.percentile(p), Some(42), "p={p}");
        }
    }

    #[test]
    #[should_panic(expected = "bucket_width")]
    fn zero_width_panics() {
        Histogram::new("t", 0, 1);
    }

    #[test]
    fn display_mentions_counts() {
        let mut h = Histogram::new("occupancy", 10, 2);
        h.record(5);
        let text = format!("{h}");
        assert!(text.contains("occupancy"));
        assert!(text.contains("n=1"));
    }
}
