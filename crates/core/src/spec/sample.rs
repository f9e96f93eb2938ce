//! The sampling plan: where a sampled run's detailed windows go and how
//! long they run. It is the `sample` section of a [`MachineSpec`]
//! (`rmt-sample` re-exports both types).
//!
//! [`MachineSpec`]: super::MachineSpec

use rmt_stats::Xoshiro256;

/// How window positions are chosen within the measured interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleMode {
    /// Evenly spaced windows (SMARTS' systematic sampling).
    Periodic,
    /// Seeded uniform-random positions, sorted ascending. Deterministic
    /// for a given seed.
    Random {
        /// Seed for the position stream.
        seed: u64,
    },
}

/// Configuration of one sampled run.
///
/// Each window fast-forwards to `position - warmup`, replays the warming
/// log, runs `warmup` committed instructions of detailed simulation to
/// settle pipeline state, then measures IPC over the `measure` committed
/// instructions starting exactly at its position. The estimator
/// aggregates the per-window IPCs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplePlan {
    /// Number of detailed windows.
    pub windows: usize,
    /// Detailed (unmeasured) warmup instructions per window.
    pub warmup: u64,
    /// Detailed measured instructions per window.
    pub measure: u64,
    /// Functional warming-log depth (events replayed at window entry).
    pub warm_window: usize,
    /// Window placement policy.
    pub mode: SampleMode,
}

impl Default for SamplePlan {
    /// The validated default: 8 periodic windows of 600 warmup + 2k
    /// measured instructions with a 128k-event warming log. With draining
    /// checkpoints the deep log costs one replay of the whole fast-forward
    /// stream per run, and buys absolute cache/predictor warmth — the
    /// efficiency ratios are biased without it (see
    /// `results/sampling_validation.json` for the measured error).
    fn default() -> Self {
        SamplePlan {
            windows: 8,
            warmup: 600,
            measure: 2_000,
            warm_window: 131_072,
            mode: SampleMode::Periodic,
        }
    }
}

impl SamplePlan {
    /// Detailed instructions simulated per window.
    pub fn window_len(&self) -> u64 {
        self.warmup + self.measure
    }

    /// The absolute committed-instruction positions at which each window's
    /// *measured* portion begins, within the sampled interval
    /// `[start, start + span)`, sorted ascending. Each window's detailed
    /// warmup runs over the `warmup` instructions *preceding* its
    /// position (clamped at instruction 0), so the measured instructions
    /// always lie inside the interval — and a one-window plan positioned
    /// at `start == warmup` measures exactly the interval a full run
    /// measures.
    ///
    /// # Panics
    ///
    /// Panics if the plan has no windows or the measured portion does not
    /// fit `span`.
    pub fn positions(&self, start: u64, span: u64) -> Vec<u64> {
        assert!(self.windows > 0, "a plan needs at least one window");
        assert!(
            self.measure <= span,
            "measured window ({}) longer than the sampled interval ({span})",
            self.measure
        );
        let slack = span - self.measure;
        let mut out: Vec<u64> = match self.mode {
            // Window i starts at the beginning of the i-th of `windows`
            // equal strides, so coverage spans the whole interval and the
            // last window still fits.
            SampleMode::Periodic => (0..self.windows)
                .map(|i| start + (slack * i as u64) / self.windows.max(1) as u64)
                .collect(),
            SampleMode::Random { seed } => {
                let mut rng = Xoshiro256::seed_from(seed);
                (0..self.windows)
                    .map(|_| start + rng.below(slack + 1))
                    .collect()
            }
        };
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_positions_are_sorted_and_fit() {
        let plan = SamplePlan::default();
        let ps = plan.positions(40_000, 80_000);
        assert_eq!(ps.len(), plan.windows);
        assert!(ps.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(ps[0], 40_000);
        assert!(*ps.last().unwrap() + plan.measure <= 120_000);
    }

    #[test]
    fn random_positions_are_deterministic_per_seed() {
        let plan = SamplePlan {
            mode: SampleMode::Random { seed: 7 },
            ..SamplePlan::default()
        };
        let a = plan.positions(1_000, 50_000);
        let b = plan.positions(1_000, 50_000);
        assert_eq!(a, b);
        let other = SamplePlan {
            mode: SampleMode::Random { seed: 8 },
            ..plan
        };
        assert_ne!(a, other.positions(1_000, 50_000));
        for &p in &a {
            assert!(p >= 1_000 && p + plan.measure <= 51_000);
        }
    }

    #[test]
    #[should_panic(expected = "longer than the sampled interval")]
    fn oversized_window_panics() {
        SamplePlan::default().positions(0, 100);
    }
}
