//! Order statistics: medians over repetitions, exact percentiles of raw
//! samples, and bucket-interpolated quantiles of the harness histograms.

use hi_bench::hist::Histogram;

/// The median of `values` (mean of the middle pair for an even count);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The median of `f` over `runs`.
pub fn median_of<T>(runs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&runs.iter().map(f).collect::<Vec<_>>())
}

/// Minimum, quartiles and maximum of `values`, rendered for a note line.
pub fn five_numbers(values: &[f64]) -> String {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        v.get((q * (v.len().max(1) - 1) as f64).round() as usize)
            .copied()
    };
    let q: Vec<String> = [0.0, 0.25, 0.5, 0.75, 1.0]
        .iter()
        .map(|&x| at(x).map_or("-".into(), |x| format!("{x:.4e}")))
        .collect();
    format!(
        "min {} q1 {} median {} q3 {} max {}",
        q[0], q[1], q[2], q[3], q[4]
    )
}

/// The `q`-quantile of raw samples, linearly interpolated between the two
/// nearest order statistics; 0 for no samples. Sorts `samples` in place.
pub fn percentile(samples: &mut [u64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let pos = q.clamp(0.0, 1.0) * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    samples[lo] as f64 + (samples[hi] as f64 - samples[lo] as f64) * frac
}

/// The `q`-quantile of `h`, interpolated inside its bucket.
///
/// [`Histogram::quantile`] reports the upper bound of the bucket holding
/// the target rank, and buckets are up to 12.5% wide: wider than the
/// benchmark's bounds. This recovers, through the public API alone, the
/// value range of that bucket and the rank range of the samples in it, and
/// places the target rank linearly between them, as if the bucket's
/// samples were spread evenly over its range.
pub fn hist_quantile(h: &Histogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let k = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
    let v = at_rank(h, k);
    // Ranks sharing `v` are exactly the samples of its bucket; ranks are
    // monotone in value, so both ends bisect.
    let first = first_true(1, k, |r| at_rank(h, r) == v);
    let last = first_true(k, n + 1, |r| r > n || at_rank(h, r) != v) - 1;
    let high = bucket_high(v);
    let low = first_true(0, v, |x| bucket_high(x) == high);
    let top = high.min(h.max());
    let within = (k - first) as f64 + 0.5;
    low as f64 + (top - low) as f64 * within / (last - first + 1) as f64
}

/// The value the histogram reports for its `k`-th smallest sample
/// (1-based). Asks for the midpoint of the rank's quantile interval so
/// float rounding cannot move the target rank.
fn at_rank(h: &Histogram, k: u64) -> u64 {
    h.quantile((k as f64 - 0.5) / h.count() as f64)
}

/// The inclusive upper bound of the bucket holding `v`: a probe histogram
/// whose maximum sits in the top bucket reports it unclamped.
fn bucket_high(v: u64) -> u64 {
    let mut probe = Histogram::new();
    probe.record(v);
    probe.record(u64::MAX);
    probe.quantile(0.0)
}

/// The least `x` in `lo..=hi` with `pred(x)`, for a predicate that is
/// monotone (false then true) and true at `hi`.
fn first_true(mut lo: u64, mut hi: u64, pred: impl Fn(u64) -> bool) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let mut s = vec![40, 10, 30, 20];
        assert_eq!(percentile(&mut s, 0.0), 10.0);
        assert_eq!(percentile(&mut s, 0.5), 25.0);
        assert_eq!(percentile(&mut s, 1.0), 40.0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 1..=9 {
            h.record(v);
        }
        // Values below 16 have one bucket each; the median sample is 5.
        assert_eq!(hist_quantile(&h, 0.5), 5.0);
    }

    #[test]
    fn interpolation_tracks_a_uniform_spread_within_two_percent() {
        let mut h = Histogram::new();
        let mut raw: Vec<u64> = (0..100_000u64).map(|i| 10_000 + i * 7 % 90_001).collect();
        for &v in &raw {
            h.record(v);
        }
        for q in [0.5, 0.9, 0.99] {
            let exact = percentile(&mut raw, q);
            let read = h.quantile(q) as f64;
            let est = hist_quantile(&h, q);
            assert!(
                (est - exact).abs() / exact < 0.02,
                "q={q}: {est} vs {exact}"
            );
            assert!(
                est <= read,
                "never above the bucket bound the histogram reports"
            );
        }
    }
}
