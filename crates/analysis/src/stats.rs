//! Small statistics helpers shared by the table/figure builders.

/// Arithmetic mean; 0 for empty input.
pub(crate) fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median; 0 for empty input.
pub(crate) fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in analysis data"));
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// An empirical CDF: sorted `(value, cumulative fraction)` support points.
#[derive(Debug, Clone, PartialEq)]
pub struct Cdf {
    /// `(x, F(x))` pairs at each distinct observed value.
    pub points: Vec<(f64, f64)>,
    /// Sample count.
    pub(crate) n: usize,
}

impl Cdf {
    /// Builds the empirical CDF of `values`.
    pub(crate) fn of(values: &[f64]) -> Cdf {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in analysis data"));
        let n = sorted.len();
        let mut points = Vec::new();
        let mut i = 0;
        while i < n {
            let x = sorted[i];
            let mut j = i;
            while j < n && sorted[j] == x {
                j += 1;
            }
            points.push((x, j as f64 / n as f64));
            i = j;
        }
        Cdf { points, n }
    }
}

/// Percentage formatting helper (one decimal).
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Cdf {
        /// `F(x)` — fraction of samples ≤ `x`.
        pub(crate) fn at(&self, x: f64) -> f64 {
            let mut f = 0.0;
            for &(v, cum) in &self.points {
                if v <= x {
                    f = cum;
                } else {
                    break;
                }
            }
            f
        }

        /// Smallest value with `F(value) ≥ q` (quantile).
        fn quantile(&self, q: f64) -> Option<f64> {
            self.points
                .iter()
                .find(|&&(_, cum)| cum >= q)
                .map(|&(v, _)| v)
        }
    }

    #[test]
    fn mean_and_median() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn cdf_basics() {
        let cdf = Cdf::of(&[0.0, 1.0, 1.0, 2.0]);
        assert_eq!(cdf.n, 4);
        assert_eq!(cdf.at(-1.0), 0.0);
        assert_eq!(cdf.at(0.0), 0.25);
        assert_eq!(cdf.at(1.0), 0.75);
        assert_eq!(cdf.at(5.0), 1.0);
        assert_eq!(cdf.quantile(0.5), Some(1.0));
        assert_eq!(cdf.quantile(1.0), Some(2.0));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.412), "41.2%");
        assert_eq!(pct(0.0), "0.0%");
    }
}
