//! The benchmark's arithmetic: percentiles, medians, quartile spread and
//! the choice of the windows the host stole least from.

/// Nearest-rank percentile of an ascending slice: the smallest element with
/// at least `p` of the samples at or below it. 0 for an empty slice.
pub fn percentile<T: Copy + Default>(sorted: &[T], p: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    sorted[percentile_index(sorted.len(), p)]
}

/// Index of the nearest-rank percentile among `n >= 1` ascending samples.
pub fn percentile_index(n: usize, p: f64) -> usize {
    let rank = (p * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Median of the values (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) gives them; needs two values or more.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// (Q3 - Q1) / median: the run-to-run spread the acceptance rule bounds.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// How many of a run's `n` windows are kept at the least: a third, rounded
/// up.
pub fn kept_count(n: usize) -> usize {
    n.div_ceil(3)
}

/// Indices, ascending, of the `keep` windows the host stole least from, and
/// of every window that ties with the last of them. `/proc/stat` counts in
/// ticks of 10 ms, so on a calm host most windows read 0 and cannot be told
/// apart: keeping all that tie uses everything the run measured, where
/// breaking ties by position would report the first third of every calm run
/// and discard the rest. The choice is a function of the measurements alone.
pub fn calmest(steal_ticks: &[u64], keep: usize) -> Vec<usize> {
    let mut sorted = steal_ticks.to_vec();
    sorted.sort_unstable();
    let Some(&limit) = sorted.get(keep.clamp(1, sorted.len().max(1)) - 1) else {
        return Vec::new();
    };
    (0..steal_ticks.len()).filter(|&i| steal_ticks[i] <= limit).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_index_is_nearest_rank() {
        assert_eq!(percentile_index(1, 0.5), 0);
        assert_eq!(percentile_index(2, 0.5), 0);
        assert_eq!(percentile_index(3, 0.5), 1);
        assert_eq!(percentile_index(100, 0.5), 49);
        assert_eq!(percentile_index(100, 0.95), 94);
        assert_eq!(percentile_index(100, 0.99), 98);
        assert_eq!(percentile_index(100, 1.0), 99);
        assert_eq!(percentile_index(100, 0.0), 0);
        // post-fanout offers 300 requests to a window, the fewest of the
        // four workloads: its p95 has 15 samples beyond it.
        assert_eq!(300 - 1 - percentile_index(300, 0.95), 15);
    }

    #[test]
    fn percentile_of_samples() {
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&v, 0.5), 5);
        assert_eq!(percentile(&v, 0.95), 10);
        assert_eq!(percentile::<u64>(&[], 0.5), 0);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn calmest_prefers_low_steal() {
        let steal = [9, 0, 3, 0, 7, 1];
        assert_eq!(kept_count(steal.len()), 2);
        assert_eq!(calmest(&steal, 2), vec![1, 3]);
        assert_eq!(calmest(&steal, 3), vec![1, 3, 5]);
        assert_eq!(calmest(&steal, 9), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(calmest(&[], 2), Vec::<usize>::new());
    }

    #[test]
    fn calmest_keeps_every_window_that_ties_with_the_last_kept() {
        // The third calmest reads 1 tick; so do three others.
        assert_eq!(calmest(&[2, 1, 1, 5, 1, 1], 3), vec![1, 2, 4, 5]);
        // A burst over the first half of a run: the calm half is kept whole.
        assert_eq!(calmest(&[40, 55, 38, 0, 0, 0], 2), vec![3, 4, 5]);
        // A host that reports no steal at all: every window.
        assert_eq!(calmest(&[0; 7], kept_count(7)), vec![0, 1, 2, 3, 4, 5, 6]);
        // No ties: exactly the calmest third.
        assert_eq!(calmest(&[6, 5, 4, 3, 2, 1], 2), vec![4, 5]);
    }

    #[test]
    fn kept_count_rounds_up() {
        assert_eq!(kept_count(30), 10);
        assert_eq!(kept_count(20), 7);
        assert_eq!(kept_count(1), 1);
    }
}
