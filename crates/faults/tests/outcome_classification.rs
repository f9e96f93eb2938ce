//! Outcome classification across the three architectures: every injection
//! is classified exactly once, and the detection guarantees of each
//! sphere of replication hold (§2.1, §7.1.1 of the paper).

use rmt_core::{DeviceKind, MachineSpec};
use rmt_faults::{run_campaign, CampaignConfig, CampaignReport, FaultKind};
use rmt_workloads::{Benchmark, Workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arch {
    Base,
    Srt,
    Lockstep,
}

fn run(arch: Arch, kind: FaultKind, seed: u64) -> CampaignReport {
    let w = Workload::generate(Benchmark::Compress, 1);
    let cfg = CampaignConfig {
        injections: 3,
        warmup_commits: 800,
        window_commits: 5_000,
        seed,
    };
    let machine = match arch {
        Arch::Base => DeviceKind::Base,
        // PSR on: the configuration under which SRT claims permanent
        // faults (§4.5) in addition to the transient models.
        Arch::Srt => DeviceKind::Srt,
        Arch::Lockstep => DeviceKind::Lock0,
    };
    run_campaign(&MachineSpec::for_kind(machine), &w, kind, cfg)
}

/// Every `(architecture, fault kind)` combination the models support, with
/// whether a strike of that kind lands *inside* the architecture's sphere
/// of replication — in which case silent escape is a detection-mechanism
/// bug, not a statistic.
const CASES: &[(Arch, FaultKind, bool)] = &[
    // The base machine has no sphere: nothing is "in" it.
    (Arch::Base, FaultKind::TransientReg, false),
    (Arch::Base, FaultKind::TransientSq, false),
    (Arch::Base, FaultKind::PermanentFu, false),
    // SRT (with PSR): registers, store queue and FUs are replicated;
    // the LVQ sits outside the sphere and relies on ECC (off here).
    (Arch::Srt, FaultKind::TransientReg, true),
    (Arch::Srt, FaultKind::TransientSq, true),
    (Arch::Srt, FaultKind::PermanentFu, true),
    (Arch::Srt, FaultKind::TransientLvq, false),
    // Lockstep replicates the whole core (no LVQ exists to strike).
    (Arch::Lockstep, FaultKind::TransientReg, true),
    (Arch::Lockstep, FaultKind::TransientSq, true),
    (Arch::Lockstep, FaultKind::PermanentFu, true),
];

#[test]
fn outcomes_partition_the_injections() {
    for (i, &(arch, kind, _)) in CASES.iter().enumerate() {
        let r = run(arch, kind, 0x51e0 + i as u64);
        assert_eq!(r.kind, kind);
        assert_eq!(
            r.detected + r.masked + r.silent,
            r.injections,
            "{arch:?}/{} outcomes do not partition the campaign: {r:?}",
            kind.name(),
        );
        assert_eq!(r.injections, 3, "{arch:?}/{} lost injections", kind.name());
    }
}

#[test]
fn in_sphere_strikes_never_escape_silently() {
    for (i, &(arch, kind, in_sphere)) in CASES.iter().enumerate() {
        if !in_sphere {
            continue;
        }
        let r = run(arch, kind, 0xd00d + i as u64);
        assert_eq!(
            r.silent,
            0,
            "{arch:?} let an in-sphere {} strike escape silently: {r:?}",
            kind.name(),
        );
    }
}

#[test]
fn base_machine_detects_nothing() {
    for (i, &(arch, kind, _)) in CASES.iter().enumerate() {
        if arch != Arch::Base {
            continue;
        }
        let r = run(arch, kind, 0xba5e + i as u64);
        assert_eq!(
            r.detected, 0,
            "the base machine has no detection mechanism: {r:?}"
        );
    }
}
