//! Point estimates with confidence intervals for sampled simulation.
//!
//! SMARTS-style sampling measures a handful of short detailed windows and
//! reports their mean as the estimate of the full run's IPC. The windows
//! are (approximately) independent draws, so the normal-approximation
//! confidence interval `mean ± z * s / sqrt(n)` quantifies the sampling
//! error — the number the validation harness checks against the full-run
//! truth.

/// A sample-mean estimate with its 95% confidence half-width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The sample mean.
    pub mean: f64,
    /// Half-width of the 95% confidence interval (`1.96 * s / sqrt(n)`);
    /// zero when fewer than two samples exist.
    pub half_width: f64,
    /// Number of samples.
    pub n: usize,
}

/// Estimates the mean of `samples` with a 95% normal-approximation
/// confidence interval.
///
/// Returns a zero estimate for an empty slice. The sample standard
/// deviation uses the `n - 1` (Bessel) denominator.
pub fn mean_ci95(samples: &[f64]) -> Estimate {
    let n = samples.len();
    if n == 0 {
        return Estimate {
            mean: 0.0,
            half_width: 0.0,
            n: 0,
        };
    }
    let mean = samples.iter().sum::<f64>() / n as f64;
    if n < 2 {
        return Estimate {
            mean,
            half_width: 0.0,
            n,
        };
    }
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
    Estimate {
        mean,
        half_width: 1.96 * (var / n as f64).sqrt(),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_singleton() {
        let e = mean_ci95(&[]);
        assert_eq!(e.mean, 0.0);
        assert_eq!(e.n, 0);
        let e = mean_ci95(&[2.5]);
        assert_eq!(e.mean, 2.5);
        assert_eq!(e.half_width, 0.0);
    }

    #[test]
    fn constant_samples_have_zero_width() {
        let e = mean_ci95(&[1.5, 1.5, 1.5, 1.5]);
        assert_eq!(e.mean, 1.5);
        assert_eq!(e.half_width, 0.0);
    }

    #[test]
    fn known_interval() {
        // Samples 1..=4: mean 2.5, sample sd = sqrt(5/3).
        let e = mean_ci95(&[1.0, 2.0, 3.0, 4.0]);
        assert!((e.mean - 2.5).abs() < 1e-12);
        let expect = 1.96 * (5.0f64 / 3.0).sqrt() / 2.0;
        assert!((e.half_width - expect).abs() < 1e-12, "{}", e.half_width);
    }

    #[test]
    fn tighter_with_more_samples() {
        let few = mean_ci95(&[1.0, 3.0]);
        let many = mean_ci95(&[1.0, 3.0, 1.0, 3.0, 1.0, 3.0, 1.0, 3.0]);
        assert!(many.half_width < few.half_width);
    }
}
