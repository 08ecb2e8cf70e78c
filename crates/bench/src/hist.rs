//! A fixed-bucket log-scale histogram for latency observability: constant
//! memory, constant-time recording, lossless merge, and quantile
//! extraction with a bounded relative error.
//!
//! The bucketing is the classic "floating point" scheme (HdrHistogram's
//! coarse cousin): `SUB_BITS` sub-buckets per power of two, so every
//! bucket spans at most a `1 + 2^-SUB_BITS` ratio and any reported
//! quantile is within 12.5% of the true value — plenty for p50/p99/p999
//! tail tracking, with the whole `u64` range covered by
//! [`NUM_BUCKETS`] counters and no allocation after construction.
//!
//! The service harness records one value per completed operation
//! (nanoseconds from ingress-queue submission to response) into a
//! per-worker histogram and merges them at drain barriers; merge is
//! counter addition, so `merge(h(a), h(b)) == h(a ++ b)` exactly.

/// Sub-bucket resolution: `2^SUB_BITS` buckets per octave, bounding the
/// relative quantile error at `2^-SUB_BITS` = 12.5%.
const SUB_BITS: u32 = 3;

/// Buckets per octave.
const SUB: usize = 1 << SUB_BITS;

/// Total bucket count covering all of `u64`: values below `2 * SUB` map to
/// themselves (exact), every further octave contributes `SUB` buckets.
pub const NUM_BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// The bucket index of `v`.
fn bucket_of(v: u64) -> usize {
    let h = 64 - v.leading_zeros(); // bit length of v
    let s = h.saturating_sub(SUB_BITS + 1);
    (s as usize * SUB) + (v >> s) as usize
}

/// The inclusive upper bound of bucket `i` — the value a quantile falling
/// in the bucket reports (conservative: never under-reports a latency).
fn bucket_high(i: usize) -> u64 {
    if i < 2 * SUB {
        return i as u64;
    }
    let s = (i / SUB - 1) as u32;
    let rem = (i - s as usize * SUB) as u128; // in [SUB, 2*SUB)
                                              // u128: the top bucket's bound is exactly 2^64 - 1.
    (((rem + 1) << s) - 1) as u64
}

/// A mergeable log-scale histogram of `u64` samples (typically latency in
/// nanoseconds).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    max: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; NUM_BUCKETS],
            count: 0,
            max: 0,
            sum: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
        self.sum += v as u128;
    }

    /// Adds every sample of `other` into `self`. Exact: recording two
    /// streams into one histogram and merging two per-stream histograms
    /// produce identical counters.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The exact maximum sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The exact mean of all samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` (clamped to `[0, 1]`): the inclusive
    /// upper bound of the bucket holding the `ceil(q * count)`-th smallest
    /// sample, clamped to the exact maximum. 0 if the histogram is empty.
    ///
    /// Monotone in `q` by construction, and within 12.5% above the true
    /// order statistic.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// The p50/p90/p99/p999 + max summary the service bench reports.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            p999: self.quantile(0.999),
            max: self.max,
            mean: self.mean(),
        }
    }
}

/// The quantile digest of one histogram, in the histogram's sample unit
/// (nanoseconds throughout the service harness).
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LatencySummary {
    /// Samples digested.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Exact maximum.
    pub max: u64,
    /// Exact mean.
    pub mean: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hi_core::SplitMix64;

    #[test]
    fn buckets_partition_the_u64_range() {
        // Exhaustive over the exact region and the first octave boundaries,
        // then spot checks across the range: bucket_of lands in range and
        // bucket_high bounds its own bucket.
        for v in 0..4096u64 {
            let b = bucket_of(v);
            assert!(b < NUM_BUCKETS);
            assert!(bucket_high(b) >= v, "v={v} above its bucket bound");
            assert!(
                v == 0 || bucket_of(v - 1) <= b,
                "bucketing not monotone at {v}"
            );
        }
        for shift in 0..64 {
            let v = 1u64 << shift;
            for v in [v, v + 1, v.wrapping_sub(1), u64::MAX >> (63 - shift)] {
                let b = bucket_of(v);
                assert!(b < NUM_BUCKETS, "v={v} maps past the table");
                assert!(bucket_high(b) >= v);
            }
        }
        assert_eq!(bucket_of(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn exact_region_is_exact_and_error_is_bounded() {
        for v in 0..(2 * SUB as u64) {
            assert_eq!(bucket_high(bucket_of(v)), v, "small values are exact");
        }
        let mut rng = SplitMix64::new(42);
        for _ in 0..10_000 {
            let v = rng.next_u64() >> (rng.next_u64() % 60);
            let high = bucket_high(bucket_of(v));
            assert!(high >= v);
            assert!(
                (high - v) as f64 <= v as f64 / SUB as f64 + 1.0,
                "bucket bound {high} is more than 12.5% above {v}"
            );
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bracketed_by_max() {
        let mut rng = SplitMix64::new(0xbeef);
        for case in 0..50 {
            let mut h = Histogram::new();
            let n = 1 + (case * 97) % 2000;
            for _ in 0..n {
                h.record(rng.next_u64() >> (16 + rng.next_u64() % 40));
            }
            let qs: Vec<u64> = [0.0, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0]
                .iter()
                .map(|&q| h.quantile(q))
                .collect();
            for w in qs.windows(2) {
                assert!(w[0] <= w[1], "quantiles not monotone: {qs:?}");
            }
            assert_eq!(h.quantile(1.0), h.max(), "q=1 is the exact max");
            assert!(h.summary().p999 <= h.max());
        }
    }

    #[test]
    fn quantile_tracks_the_true_order_statistic_within_bucket_error() {
        let mut rng = SplitMix64::new(3);
        let mut h = Histogram::new();
        let mut samples: Vec<u64> = (0..5000).map(|_| rng.next_u64() % 1_000_000).collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for &q in &[0.5, 0.9, 0.99] {
            let true_v = samples[((q * samples.len() as f64).ceil() as usize - 1).min(4999)];
            let got = h.quantile(q);
            assert!(got >= true_v, "quantile must not under-report");
            assert!(
                got as f64 <= true_v as f64 * 1.130 + 1.0,
                "q={q}: reported {got} vs true {true_v} exceeds the 12.5% bound"
            );
        }
    }

    #[test]
    fn merge_equals_concat() {
        let mut rng = SplitMix64::new(17);
        let all: Vec<u64> = (0..4000).map(|_| rng.next_u64() % 10_000_000).collect();
        let (a, b) = all.split_at(1500);
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hc = Histogram::new();
        for &v in a {
            ha.record(v);
        }
        for &v in b {
            hb.record(v);
        }
        for &v in &all {
            hc.record(v);
        }
        ha.merge(&hb);
        assert_eq!(ha, hc, "merge must equal recording the concatenation");
        // Merging an empty histogram is the identity.
        let before = hc.clone();
        hc.merge(&Histogram::new());
        assert_eq!(hc, before);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
