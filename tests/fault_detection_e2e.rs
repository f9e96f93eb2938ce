//! End-to-end fault-detection scenarios across the three architectures.

use rmt::core::{Device, DeviceKind, LogicalThread, Machine, MachineSpec};
use rmt::faults::{run_campaign, CampaignConfig, FaultKind};
use rmt::workloads::{Benchmark, Workload};

fn spec(kind: DeviceKind) -> MachineSpec {
    MachineSpec::for_kind(kind)
}

fn cfg(n: usize) -> CampaignConfig {
    CampaignConfig {
        injections: n,
        warmup_commits: 1_000,
        window_commits: 8_000,
        seed: 0xabcd,
    }
}

#[test]
fn the_problem_base_machines_corrupt_silently() {
    // Stream-heavy workloads carry a corrupted store to the next sweep;
    // RMW-heavy ones can overwrite it within a few hundred instructions.
    let w = Workload::generate(Benchmark::Swim, 1);
    let r = run_campaign(&spec(DeviceKind::Base), &w, FaultKind::TransientSq, cfg(5));
    assert_eq!(r.detected, 0);
    assert!(
        r.silent >= 4,
        "committed store corruption must reach memory: {r:?}"
    );
}

#[test]
fn the_fix_srt_detects_the_same_faults() {
    let w = Workload::generate(Benchmark::Swim, 1);
    let r = run_campaign(
        &spec(DeviceKind::SrtNoPsr),
        &w,
        FaultKind::TransientSq,
        cfg(5),
    );
    assert!(r.detected >= 4, "detected only {} of 5", r.detected);
    assert_eq!(r.silent, 0, "SRT must not leak corrupted stores");
    assert!(r.mean_latency() < 5_000.0, "detection should be prompt");
}

#[test]
fn srt_register_strikes_never_escape() {
    let w = Workload::generate(Benchmark::Gcc, 4);
    let r = run_campaign(
        &spec(DeviceKind::SrtNoPsr),
        &w,
        FaultKind::TransientReg,
        cfg(8),
    );
    assert_eq!(r.silent, 0, "register strike escaped the sphere");
    // Many strikes hit dead values (masking) — that is expected and
    // mirrors architectural vulnerability derating.
    assert_eq!(r.detected + r.masked, 8);
}

#[test]
fn lvq_corruption_is_caught_downstream() {
    // The paper requires ECC on the LVQ (§2.1); without it, a corrupted
    // entry sends the trailing thread down a divergent data path, which
    // the store comparator then flags.
    let w = Workload::generate(Benchmark::Swim, 2);
    let r = run_campaign(
        &spec(DeviceKind::SrtNoPsr),
        &w,
        FaultKind::TransientLvq,
        cfg(5),
    );
    assert_eq!(r.silent, 0);
    assert!(
        r.detected >= 1,
        "at least some LVQ corruption must propagate to a store"
    );
}

#[test]
fn permanent_fault_detected_quickly_with_psr() {
    let w = Workload::generate(Benchmark::M88ksim, 1);
    let r = run_campaign(&spec(DeviceKind::Srt), &w, FaultKind::PermanentFu, cfg(6));
    assert!(r.detected >= 3, "PSR should detect stuck-at FUs: {r:?}");
    assert_eq!(r.silent, 0);
}

#[test]
fn crt_detects_cross_core_divergence() {
    let w = Workload::generate(Benchmark::Ijpeg, 3);
    let mut crt = spec(DeviceKind::Crt);
    crt.core.preferential_space_redundancy = false;
    let mut dev = Machine::redundant(&crt, vec![LogicalThread::from(&w)]);
    assert!(dev.run_until_committed(2_000, 5_000_000));
    dev.drain_detected_faults();
    // Stuck-at fault on the *leading* core only: the trailing core's
    // computation diverges and the comparator flags it.
    let p = dev.scheme().placement(0);
    dev.substrate_mut()
        .core_mut(p.lead_core)
        .set_fu_stuck(2, 4, true);
    let target = dev.committed(0) + 20_000;
    let mut detected = false;
    while dev.committed(0) < target {
        dev.tick();
        if !dev.drain_detected_faults().is_empty() {
            detected = true;
            break;
        }
    }
    assert!(detected, "CRT missed a permanent cross-core divergence");
}

#[test]
fn lockstep_checker_catches_single_core_upsets() {
    let w = Workload::generate(Benchmark::Compress, 5);
    let mut dev = Machine::lockstep(&spec(DeviceKind::Lock0), vec![LogicalThread::from(&w)]);
    assert!(dev.run_until_committed(2_000, 5_000_000));
    dev.drain_detected_faults();
    dev.substrate_mut().core_mut(1).arm_sq_strike(0, 1 << 9);
    let target = dev.committed(0) + 20_000;
    let mut detected = false;
    while dev.committed(0) < target {
        dev.tick();
        if !dev.drain_detected_faults().is_empty() {
            detected = true;
            break;
        }
    }
    assert!(detected, "lockstep checker missed a store corruption");
}

#[test]
fn lvq_ecc_absorbs_strikes_entirely() {
    // With the paper-mandated ECC on the LVQ (§2.1), the same strikes that
    // otherwise propagate to the store comparator are corrected in place:
    // every injection masks and the machine never even raises a detection.
    let w = Workload::generate(Benchmark::Swim, 2);
    let mut ecc = spec(DeviceKind::SrtNoPsr);
    ecc.env.lvq_ecc = true;
    let r = run_campaign(&ecc, &w, FaultKind::TransientLvq, cfg(5));
    assert_eq!(r.detected, 0, "ECC should leave nothing to detect");
    assert_eq!(r.silent, 0);
    assert_eq!(r.masked, 5);
}
