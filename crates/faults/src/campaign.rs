//! Injection campaigns: plant faults in running devices and classify the
//! outcomes against the golden model.
//!
//! The per-cycle observation engine lives in [`crate::observe`] and the
//! one injection routine in [`crate::arrangements`] (re-exported here);
//! this module owns the campaign-level API — configuration and the
//! aggregate [`CampaignReport`]. Every injection produces a full
//! [`crate::FaultForensics`] record whose `outcome` is the classified
//! result the report aggregates.

use crate::model::{FaultKind, FaultOutcome};
use rmt_stats::Histogram;

pub use crate::arrangements::{injection_forensic, run_campaign};

/// Campaign parameters.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Number of independent injections.
    pub injections: usize,
    /// Leading-thread instructions to commit before injecting.
    pub warmup_commits: u64,
    /// Instructions to observe after injection before declaring
    /// "not detected".
    pub window_commits: u64,
    /// RNG seed for fault-site selection.
    pub seed: u64,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            injections: 20,
            warmup_commits: 3_000,
            window_commits: 15_000,
            seed: 0xfau64,
        }
    }
}

/// Aggregated campaign results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignReport {
    /// The fault model used.
    pub kind: FaultKind,
    /// Injections performed.
    pub injections: usize,
    /// Faults detected by an RMT mechanism.
    pub detected: usize,
    /// Faults with no architectural effect.
    pub masked: usize,
    /// Silent data corruptions (escaped undetected).
    pub silent: usize,
    /// Detection-latency distribution (cycles).
    pub latencies: Histogram,
}

impl CampaignReport {
    fn new(kind: FaultKind) -> Self {
        CampaignReport {
            kind,
            injections: 0,
            detected: 0,
            masked: 0,
            silent: 0,
            latencies: Histogram::new("detection_latency", 50, 100),
        }
    }

    /// Builds a report from per-injection outcomes in index order.
    ///
    /// This is how parallel campaigns aggregate: each injection's outcome
    /// is computed independently (seeded from its index via
    /// [`rmt_stats::rng::split_seed`]), gathered by index, and folded here
    /// — so the report is identical however the injections were scheduled.
    pub fn from_outcomes(
        kind: FaultKind,
        outcomes: impl IntoIterator<Item = FaultOutcome>,
    ) -> Self {
        let mut report = CampaignReport::new(kind);
        for o in outcomes {
            report.record(o);
        }
        report
    }

    fn record(&mut self, outcome: FaultOutcome) {
        self.injections += 1;
        match outcome {
            FaultOutcome::Detected { latency } => {
                self.detected += 1;
                self.latencies.record(latency);
            }
            FaultOutcome::Masked => self.masked += 1,
            FaultOutcome::Silent => self.silent += 1,
        }
    }

    /// Fraction of unmasked faults that were detected (1.0 when no fault
    /// had an architectural effect).
    pub fn coverage(&self) -> f64 {
        let unmasked = self.detected + self.silent;
        if unmasked == 0 {
            1.0
        } else {
            self.detected as f64 / unmasked as f64
        }
    }

    /// Fraction of all injections that ended in silent corruption.
    pub fn silent_rate(&self) -> f64 {
        if self.injections == 0 {
            0.0
        } else {
            self.silent as f64 / self.injections as f64
        }
    }

    /// Mean detection latency in cycles.
    pub fn mean_latency(&self) -> f64 {
        self.latencies.mean()
    }

    /// Median detection latency in cycles (bucket-granular; `None` when
    /// nothing was detected).
    pub fn p50_latency(&self) -> Option<u64> {
        self.latencies.percentile(50.0)
    }

    /// 95th-percentile detection latency in cycles (bucket-granular;
    /// `None` when nothing was detected).
    pub fn p95_latency(&self) -> Option<u64> {
        self.latencies.percentile(95.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_core::{DeviceKind, MachineSpec};
    use rmt_workloads::{Benchmark, Workload};

    fn spec(kind: DeviceKind) -> MachineSpec {
        MachineSpec::for_kind(kind)
    }

    fn quick_cfg(n: usize, seed: u64) -> CampaignConfig {
        CampaignConfig {
            injections: n,
            warmup_commits: 800,
            window_commits: 6_000,
            seed,
        }
    }

    #[test]
    fn srt_detects_sq_corruption() {
        let w = Workload::generate(Benchmark::Compress, 1);
        let r = run_campaign(
            &spec(DeviceKind::SrtNoPsr),
            &w,
            FaultKind::TransientSq,
            quick_cfg(3, 7),
        );
        assert_eq!(r.injections, 3);
        // A corrupted store-queue value must either be detected by the
        // comparator or the entry was already verified (rare); silent
        // corruption means the comparator failed its one job.
        assert_eq!(r.silent, 0, "comparator missed a corrupted store");
        assert!(r.detected >= 2, "detected only {} of 3", r.detected);
        assert!(r.coverage() > 0.6);
    }

    #[test]
    fn srt_handles_register_strikes() {
        let w = Workload::generate(Benchmark::M88ksim, 2);
        let r = run_campaign(
            &spec(DeviceKind::SrtNoPsr),
            &w,
            FaultKind::TransientReg,
            quick_cfg(6, 11),
        );
        assert_eq!(r.injections, 6);
        // Register strikes may be masked (dead values), but nothing should
        // escape silently.
        assert_eq!(r.silent, 0, "SRT let a register fault escape");
    }

    #[test]
    fn crt_detects_across_the_inter_core_path() {
        let w = Workload::generate(Benchmark::Compress, 3);
        let mut crt = spec(DeviceKind::Crt);
        crt.core.preferential_space_redundancy = false;
        let r = run_campaign(&crt, &w, FaultKind::TransientSq, quick_cfg(3, 17));
        assert_eq!(r.injections, 3);
        assert_eq!(r.silent, 0, "CRT comparator missed a corrupted store");
        assert!(r.detected >= 2, "detected only {} of 3", r.detected);
    }

    #[test]
    fn base_processor_cannot_detect() {
        // A stream-heavy workload: corrupted stores persist to the next
        // sweep instead of being overwritten by read-modify-write slots.
        let w = Workload::generate(Benchmark::Swim, 1);
        let r = run_campaign(
            &spec(DeviceKind::Base),
            &w,
            FaultKind::TransientSq,
            quick_cfg(6, 5),
        );
        assert_eq!(r.detected, 0, "the base machine has nothing to detect with");
        // Store-queue corruption lands in memory as silent data corruption.
        assert!(r.silent >= 4, "expected SDC on the base machine: {r:?}");
        assert!(r.silent_rate() > 0.5);
    }

    #[test]
    fn base_reg_strikes_are_oracle_ground_truthed() {
        // Register strikes never touch post-commit store data, so the
        // memory-digest backstop alone would only see them once a
        // corrupted value reaches a released store; the commit-stream
        // oracle classifies them at the first wrong commit. The base
        // machine still detects nothing — corruption is silent or masked.
        let w = Workload::generate(Benchmark::M88ksim, 1);
        let r = run_campaign(
            &spec(DeviceKind::Base),
            &w,
            FaultKind::TransientReg,
            quick_cfg(6, 13),
        );
        assert_eq!(r.detected, 0, "the base machine has nothing to detect with");
        assert_eq!(r.masked + r.silent, 6);
        assert!(
            r.silent >= 1,
            "live-register strikes must show up as SDC: {r:?}"
        );
    }

    #[test]
    fn lockstep_detects_fu_fault() {
        let w = Workload::generate(Benchmark::Compress, 2);
        let r = run_campaign(
            &spec(DeviceKind::Lock0),
            &w,
            FaultKind::PermanentFu,
            quick_cfg(2, 3),
        );
        assert!(r.detected >= 1);
        assert_eq!(r.silent, 0);
    }

    #[test]
    fn campaign_is_deterministic() {
        let w = Workload::generate(Benchmark::M88ksim, 3);
        let run = || {
            let r = run_campaign(
                &spec(DeviceKind::SrtNoPsr),
                &w,
                FaultKind::TransientReg,
                quick_cfg(3, 9),
            );
            (r.detected, r.masked, r.silent)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn forensic_record_narrates_a_detection() {
        let w = Workload::generate(Benchmark::Compress, 1);
        let f = injection_forensic(
            &spec(DeviceKind::SrtNoPsr),
            &w,
            FaultKind::TransientSq,
            quick_cfg(1, 7),
            0,
        );
        assert_eq!(f.arrangement, "srt");
        assert_eq!(f.kind, FaultKind::TransientSq);
        let site = f.site.expect("SQ strikes always find a site");
        assert_eq!(site.structure, "store-queue");
        // The chain starts with the injection and ends with a terminal
        // classification stamp.
        assert!(f.events.len() >= 2, "events: {:?}", f.events);
        assert_eq!(f.events[0].kind, "inject");
        let last = f.events.last().unwrap().kind;
        assert!(
            matches!(last, "detect" | "watchdog" | "sdc" | "masked"),
            "unexpected terminal event {last}"
        );
        assert_eq!(f.dropped_events, 0);
        if f.outcome.is_detected() {
            assert!(f.mechanism.is_some());
            assert!(f.latency().unwrap() > 0);
        }
        // Forensics agree with the aggregate path bit-for-bit.
        let r = run_campaign(
            &spec(DeviceKind::SrtNoPsr),
            &w,
            FaultKind::TransientSq,
            quick_cfg(1, 7),
        );
        assert_eq!(r, CampaignReport::from_outcomes(f.kind, [f.outcome]));
    }

    #[test]
    fn report_percentiles_and_arithmetic() {
        let mut r = CampaignReport::new(FaultKind::TransientReg);
        r.record(FaultOutcome::Detected { latency: 100 });
        r.record(FaultOutcome::Masked);
        r.record(FaultOutcome::Silent);
        assert_eq!(r.injections, 3);
        assert!((r.coverage() - 0.5).abs() < 1e-12);
        assert!((r.silent_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!((r.mean_latency() - 100.0).abs() < 1e-12);
        assert_eq!(r.p50_latency(), Some(100));
        assert_eq!(r.p95_latency(), Some(100));
        // Percentiles of an empty latency histogram are absent, not zero.
        let empty = CampaignReport::new(FaultKind::TransientReg);
        assert_eq!(empty.p50_latency(), None);
        assert_eq!(empty.p95_latency(), None);
    }
}
