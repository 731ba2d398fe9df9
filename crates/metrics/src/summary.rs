//! Percentiles, box plots, and mean ± standard deviation.

use serde::{Deserialize, Serialize};

/// Estimates the `q`-th percentile (`0.0..=100.0`) of `samples` using the
/// nearest-rank method on a sorted copy.
///
/// Returns `None` for an empty slice.
///
/// # Example
///
/// ```
/// use golf_metrics::percentile;
/// let lat = vec![10.0, 20.0, 30.0, 40.0, 50.0];
/// assert_eq!(percentile(&lat, 50.0), Some(30.0));
/// assert_eq!(percentile(&lat, 99.0), Some(50.0));
/// assert_eq!(percentile(&[], 50.0), None);
/// ```
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let q = q.clamp(0.0, 100.0);
    let rank = ((q / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
}

/// Mean and (population) standard deviation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MeanStd {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std: f64,
    /// Sample count.
    pub n: usize,
}

impl std::fmt::Display for MeanStd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} ± {:.2}", self.mean, self.std)
    }
}

/// Computes mean ± population standard deviation. Returns `None` for an
/// empty slice.
///
/// # Example
///
/// ```
/// use golf_metrics::mean_std;
/// let ms = mean_std(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
/// assert_eq!(ms.mean, 5.0);
/// assert_eq!(ms.std, 2.0);
/// ```
pub fn mean_std(samples: &[f64]) -> Option<MeanStd> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    Some(MeanStd { mean, std: var.sqrt(), n: samples.len() })
}

/// A five-number summary (plus mean), the data behind one box in the
/// paper's Figure 4 box plots.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoxPlot {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample count.
    pub n: usize,
}

impl BoxPlot {
    /// Summarizes `samples`. Returns `None` for an empty slice.
    ///
    /// # Example
    ///
    /// ```
    /// use golf_metrics::BoxPlot;
    /// let b = BoxPlot::of(&[0.5, 0.9, 1.0, 1.1, 4.8]).unwrap();
    /// assert_eq!(b.min, 0.5);
    /// assert_eq!(b.median, 1.0);
    /// assert_eq!(b.max, 4.8);
    /// ```
    pub fn of(samples: &[f64]) -> Option<BoxPlot> {
        if samples.is_empty() {
            return None;
        }
        Some(BoxPlot {
            min: percentile(samples, 0.0)?,
            q1: percentile(samples, 25.0)?,
            median: percentile(samples, 50.0)?,
            q3: percentile(samples, 75.0)?,
            max: percentile(samples, 100.0)?,
            mean: samples.iter().sum::<f64>() / samples.len() as f64,
            n: samples.len(),
        })
    }
}

impl std::fmt::Display for BoxPlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "min {:.2} | q1 {:.2} | med {:.2} | q3 {:.2} | max {:.2} (n={})",
            self.min, self.q1, self.median, self.q3, self.max, self.n
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_edges() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 100.0), Some(4.0));
        assert_eq!(percentile(&xs, 25.0), Some(1.0));
        assert_eq!(percentile(&xs, 50.0), Some(2.0));
        assert_eq!(percentile(&xs, 75.0), Some(3.0));
        // Out-of-range quantiles clamp.
        assert_eq!(percentile(&xs, 150.0), Some(4.0));
        assert_eq!(percentile(&xs, -5.0), Some(1.0));
    }

    #[test]
    fn percentile_single_sample() {
        assert_eq!(percentile(&[7.0], 1.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
    }

    #[test]
    fn percentile_unsorted_input() {
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 50.0), Some(3.0));
    }

    #[test]
    fn mean_std_constant_series() {
        let ms = mean_std(&[3.0, 3.0, 3.0]).unwrap();
        assert_eq!(ms.mean, 3.0);
        assert_eq!(ms.std, 0.0);
        assert_eq!(ms.to_string(), "3.00 ± 0.00");
    }

    #[test]
    fn empty_inputs_are_none() {
        assert!(mean_std(&[]).is_none());
        assert!(BoxPlot::of(&[]).is_none());
    }

    #[test]
    fn boxplot_orders() {
        let b = BoxPlot::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert!(b.min <= b.q1 && b.q1 <= b.median && b.median <= b.q3 && b.q3 <= b.max);
        assert_eq!(b.n, 5);
        assert_eq!(b.mean, 3.0);
    }
}
