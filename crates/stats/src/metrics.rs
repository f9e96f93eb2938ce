//! Performance metrics: IPC and SMT-efficiency (weighted speedup).
//!
//! The paper argues (§6.4) that raw IPC is misleading for SMT machines: an
//! SMT policy can inflate aggregate IPC by favouring easy threads. The
//! evaluation metric is therefore *SMT-efficiency*: per thread, the IPC
//! achieved in SMT mode divided by the IPC the same thread achieves running
//! alone on the same machine; per configuration, the arithmetic mean over
//! threads (Snavely & Tullsen's weighted speedup).

/// Outcome of running one thread for a measured interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadRun {
    /// Instructions committed by this thread during the interval.
    pub committed: u64,
    /// Cycles in the measured interval.
    pub cycles: u64,
}

impl ThreadRun {
    /// Instructions per cycle for the interval (0.0 for an empty interval).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

/// Computes SMT-efficiency from `(smt_ipc, single_thread_ipc)` pairs, one
/// per logical thread: the arithmetic mean of the per-thread ratios.
///
/// Threads whose single-thread IPC is zero are skipped (they carry no
/// information); if every thread is skipped the result is 0.0.
///
/// # Examples
///
/// ```
/// use rmt_stats::metrics::smt_efficiency;
///
/// // Two threads each running at half their solo speed:
/// let eff = smt_efficiency(&[(0.5, 1.0), (1.0, 2.0)]);
/// assert!((eff - 0.5).abs() < 1e-12);
/// ```
pub fn smt_efficiency(pairs: &[(f64, f64)]) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for &(smt, solo) in pairs {
        if solo > 0.0 {
            sum += smt / solo;
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Arithmetic mean of a slice (0.0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Percentage degradation of `new` relative to `baseline`
/// (positive = slower than baseline).
///
/// Returns 0.0 if `baseline` is not positive.
pub fn degradation_pct(baseline: f64, new: f64) -> f64 {
    if baseline <= 0.0 {
        0.0
    } else {
        (baseline - new) / baseline * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_computation() {
        let r = ThreadRun {
            committed: 150,
            cycles: 100,
        };
        assert!((r.ipc() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn ipc_zero_cycles() {
        let r = ThreadRun {
            committed: 5,
            cycles: 0,
        };
        assert_eq!(r.ipc(), 0.0);
    }

    #[test]
    fn efficiency_single_pair() {
        assert!((smt_efficiency(&[(0.9, 1.2)]) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn efficiency_is_arithmetic_mean() {
        let eff = smt_efficiency(&[(1.0, 1.0), (0.5, 1.0)]);
        assert!((eff - 0.75).abs() < 1e-12);
    }

    #[test]
    fn efficiency_skips_zero_solo() {
        let eff = smt_efficiency(&[(1.0, 0.0), (0.5, 1.0)]);
        assert!((eff - 0.5).abs() < 1e-12);
    }

    #[test]
    fn efficiency_all_zero() {
        assert_eq!(smt_efficiency(&[(1.0, 0.0)]), 0.0);
        assert_eq!(smt_efficiency(&[]), 0.0);
    }

    #[test]
    fn arithmetic_mean() {
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn degradation() {
        assert!((degradation_pct(2.0, 1.0) - 50.0).abs() < 1e-12);
        assert!((degradation_pct(1.0, 1.2) + 20.0).abs() < 1e-9);
        assert_eq!(degradation_pct(0.0, 1.0), 0.0);
    }
}
