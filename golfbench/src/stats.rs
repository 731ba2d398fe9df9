//! Order statistics over measured samples.

/// A percentile is only reported when at least this many samples lie
/// beyond it, so a tail figure never rests on a handful of outliers.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `0..=100`) of `samples`: the smallest
/// sample with at least `p` percent of all samples at or below it.
///
/// Returns `None` when fewer than [`MIN_BEYOND`] samples lie beyond the
/// rank, e.g. p95 of fewer than 200 samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(0.0..=100.0).contains(&p) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The median (mean of the two middle samples for an even count); 0 for no
/// samples.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Folds `sample` into `best`, keeping the smaller value at each index.
///
/// Over repeats of identical work this keeps the least-disturbed time of
/// each step: interference from other tenants of a shared machine only ever
/// adds time, so the minimum is the steadiest estimate of the step's own
/// cost. Returns `false`, leaving `best` unchanged, when `sample` has
/// another length than an earlier one, i.e. the work was not identical.
pub fn fold_min(best: &mut Vec<f64>, sample: &[f64]) -> bool {
    if best.is_empty() {
        best.extend_from_slice(sample);
        return true;
    }
    if best.len() != sample.len() {
        return false;
    }
    for (b, &s) in best.iter_mut().zip(sample) {
        *b = b.min(s);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(199), 95.0), None);
        assert_eq!(percentile(&ramp(200), 95.0), Some(190.0));
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(400);
        v.reverse();
        assert_eq!(percentile(&v, 50.0), Some(200.0));
        assert_eq!(percentile(&v, 95.0), Some(380.0));
    }

    #[test]
    fn fold_min_keeps_each_index_minimum() {
        let mut best = Vec::new();
        assert!(fold_min(&mut best, &[3.0, 1.0, 5.0]));
        assert!(fold_min(&mut best, &[2.0, 4.0, 5.0]));
        assert_eq!(best, [2.0, 1.0, 5.0]);
        assert!(!fold_min(&mut best, &[0.0, 0.0]));
        assert_eq!(best, [2.0, 1.0, 5.0]);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
