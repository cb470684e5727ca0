//! Statistics: moments, percentiles, box-plot summaries, and the
//! distribution fits used in Fig. 5.

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64).sqrt()
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation on sorted data.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (pos - lo as f64) * (sorted[hi] - sorted[lo])
    }
}

/// Median.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Five-number box-plot summary (min, q1, median, q3, max).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxSummary {
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
    /// Sample count.
    pub n: usize,
}

impl BoxSummary {
    /// Computes the summary (NaNs for an empty slice).
    pub fn of(xs: &[f64]) -> BoxSummary {
        BoxSummary {
            min: percentile(xs, 0.0),
            q1: percentile(xs, 0.25),
            median: percentile(xs, 0.5),
            q3: percentile(xs, 0.75),
            max: percentile(xs, 1.0),
            n: xs.len(),
        }
    }
}

impl std::fmt::Display for BoxSummary {
    /// Renders each statistic to 0.1, or `n/a` for an empty sample (whose
    /// statistics are undefined).
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let v = |x: f64| {
            if self.n == 0 {
                "n/a".to_string()
            } else {
                format!("{x:.1}")
            }
        };
        write!(
            f,
            "min {} | q1 {} | med {} | q3 {} | max {} (n={})",
            v(self.min),
            v(self.q1),
            v(self.median),
            v(self.q3),
            v(self.max),
            self.n
        )
    }
}

/// Fitted shifted exponential `Exp(loc, λ)` (Fig. 5 a–b).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialFit {
    /// Location (minimum observed value).
    pub loc: f64,
    /// Maximum-likelihood rate λ = 1/(mean − loc).
    pub lambda: f64,
    /// Empirical 99th percentile.
    pub p99: f64,
    /// Sample count.
    pub n: usize,
}

/// Fits a shifted exponential by maximum likelihood.
pub fn fit_exponential(xs: &[f64]) -> Option<ExponentialFit> {
    if xs.len() < 2 {
        return None;
    }
    let loc = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let m = mean(xs);
    let spread = (m - loc).max(1e-9);
    Some(ExponentialFit {
        loc,
        lambda: 1.0 / spread,
        p99: percentile(xs, 0.99),
        n: xs.len(),
    })
}

/// Fitted Gaussian (Fig. 5 c–f).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormalFit {
    /// Mean µ.
    pub mean: f64,
    /// Standard deviation σ.
    pub std_dev: f64,
    /// Empirical 99th percentile.
    pub p99: f64,
    /// Sample count.
    pub n: usize,
}

/// Fits a Gaussian by moments.
pub fn fit_normal(xs: &[f64]) -> Option<NormalFit> {
    if xs.len() < 2 {
        return None;
    }
    Some(NormalFit {
        mean: mean(xs),
        std_dev: std_dev(xs),
        p99: percentile(xs, 0.99),
        n: xs.len(),
    })
}

/// A simple fixed-width histogram (for log-count plots like Fig. 5 a–b).
pub fn histogram(xs: &[f64], bin_width: f64, max_bins: usize) -> Vec<(f64, usize)> {
    if xs.is_empty() || bin_width <= 0.0 {
        return Vec::new();
    }
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let mut bins = vec![0usize; max_bins];
    let mut top = 0usize;
    for &x in xs {
        let idx = (((x - lo) / bin_width) as usize).min(max_bins - 1);
        bins[idx] += 1;
        top = top.max(idx);
    }
    (0..=top)
        .map(|i| (lo + bin_width * i as f64, bins[i]))
        .collect()
}

/// Fraction of `xs` that satisfies `pred`, as a percentage.
pub fn rate_pct<T, F: Fn(&T) -> bool>(xs: &[T], pred: F) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    100.0 * xs.iter().filter(|x| pred(x)).count() as f64 / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn box_summary_ordering() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        let b = BoxSummary::of(&xs);
        assert_eq!((b.min, b.median, b.max), (1.0, 3.0, 5.0));
        assert!(b.q1 <= b.median && b.median <= b.q3);
        assert_eq!(b.n, 5);
        assert_eq!(
            b.to_string(),
            "min 1.0 | q1 2.0 | med 3.0 | q3 4.0 | max 5.0 (n=5)"
        );
    }

    #[test]
    fn box_summary_of_nothing_renders_n_a() {
        assert_eq!(
            BoxSummary::of(&[]).to_string(),
            "min n/a | q1 n/a | med n/a | q3 n/a | max n/a (n=0)"
        );
    }

    #[test]
    fn exponential_fit_recovers_lambda() {
        // Deterministic inverse-CDF samples of Exp(loc=1, λ=0.5).
        let n = 10_000;
        let xs: Vec<f64> = (1..=n)
            .map(|i| {
                let u = i as f64 / (n + 1) as f64;
                1.0 - (1.0 - u).ln() / 0.5
            })
            .collect();
        let fit = fit_exponential(&xs).unwrap();
        assert!((fit.loc - 1.0).abs() < 0.01, "loc {}", fit.loc);
        assert!((fit.lambda - 0.5).abs() < 0.02, "lambda {}", fit.lambda);
        assert!(fit.p99 > 9.0, "p99 {}", fit.p99);
    }

    #[test]
    fn normal_fit_recovers_moments() {
        let xs: Vec<f64> = (0..1000).map(|i| 3.0 + (i % 7) as f64 - 3.0).collect();
        let fit = fit_normal(&xs).unwrap();
        assert!((fit.mean - 3.0).abs() < 0.01);
        assert!(fit.std_dev > 1.5);
    }

    #[test]
    fn histogram_counts() {
        let xs = [1.0, 1.2, 2.1, 5.0];
        let h = histogram(&xs, 1.0, 64);
        assert_eq!(h[0], (1.0, 2));
        assert_eq!(h[1], (2.0, 1));
        assert_eq!(h[4], (5.0, 1));
        assert!(histogram(&[], 1.0, 8).is_empty());
    }

    #[test]
    fn rate_pct_basic() {
        let xs = [1, 2, 3, 4];
        assert_eq!(rate_pct(&xs, |x| *x > 2), 50.0);
        assert_eq!(rate_pct::<i32, _>(&[], |_| true), 0.0);
    }
}
