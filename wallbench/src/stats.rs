//! Percentiles and ratios.

use rmem_obs::HistogramSnapshot;

/// The `q`-quantile (`0.0..=1.0`) of ascending `sorted` by nearest rank:
/// the smallest sample with at least `q·n` samples at or below it. `None`
/// when empty.
pub fn percentile<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(sorted[rank - 1])
}

/// The median of `values` (nearest rank; the lower middle for an even
/// count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A histogram's change between two snapshots of it.
pub fn hist_delta(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let mut d = after.clone();
    d.count -= before.count;
    d.sum -= before.sum;
    for (a, b) in d.buckets.iter_mut().zip(before.buckets.iter()) {
        *a -= b;
    }
    d
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmem_obs::Histogram;

    #[test]
    fn nearest_rank_matches_hand_computed_cases() {
        let ten: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&ten, 0.5), Some(5));
        assert_eq!(percentile(&ten, 0.9), Some(9));
        assert_eq!(percentile(&ten, 0.91), Some(10));
        assert_eq!(percentile(&ten, 0.99), Some(10));
        assert_eq!(percentile(&ten, 0.0), Some(1));
        assert_eq!(percentile(&ten, 1.0), Some(10));
        let hundred: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&hundred, 0.5), Some(50));
        assert_eq!(percentile(&hundred, 0.9), Some(90));
        assert_eq!(percentile(&hundred, 0.99), Some(99));
        assert_eq!(percentile(&[42u64], 0.99), Some(42));
        assert_eq!(percentile::<u64>(&[], 0.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn histogram_delta_and_ratio() {
        let h = Histogram::new();
        for v in [4, 5, 6, 7] {
            h.record(v);
        }
        let before = h.snapshot();
        h.record(100);
        let d = hist_delta(&h.snapshot(), &before);
        assert_eq!((d.count, d.sum), (1, 100));
        assert_eq!(d.buckets.iter().sum::<u64>(), 1);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
