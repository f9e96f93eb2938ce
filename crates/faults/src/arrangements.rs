//! Injection functions for every arrangement: redundant pairs (SRT and
//! CRT), the base processor and lockstepped cores.
//!
//! [`injection_forensic`] is a pure function of `(spec, workload, kind,
//! config, index)` producing the injection's full [`FaultForensics`]
//! record; it dispatches on `spec.scheme.kind` to the arrangement's
//! injection site and observation policy. [`run_campaign`] is the
//! sequential aggregator. The seeding contract (one RNG stream per index)
//! makes every campaign order-independent and parallelizable.

use crate::campaign::{CampaignConfig, CampaignReport};
use crate::forensics::FaultForensics;
use crate::model::{FaultKind, FaultOutcome};
use crate::observe::{
    inject_into_core, inject_with_retry, observe_window, thread, ObservePolicy, Probe,
};
use rmt_core::{Device, DeviceKind, Machine, MachineSpec};
use rmt_stats::{FlightRecorder, Xoshiro256};
use rmt_verify::Oracle;
use rmt_workloads::Workload;

/// Flight-recorder capacity per injection: the engine stamps at most a
/// handful of first-occurrence events per chain, so this never drops in
/// practice while still bounding a pathological run.
const FLIGHT_CAPACITY: usize = 64;

/// Assembles a [`FaultForensics`] record from one finished injection.
#[allow(clippy::too_many_arguments)]
fn forensics(
    arrangement: &'static str,
    kind: FaultKind,
    index: usize,
    site: Option<crate::forensics::FaultSite>,
    inject_cycle: u64,
    outcome: FaultOutcome,
    mechanism: Option<&'static str>,
    rec: FlightRecorder,
    chain: u32,
) -> FaultForensics {
    let events: Vec<_> = rec.chain_events(chain).copied().collect();
    // Propagation hops: chain events strictly between the injection stamp
    // and the terminal classification stamp.
    let hops = events.len().saturating_sub(2) as u64;
    FaultForensics {
        arrangement,
        kind,
        index,
        site,
        inject_cycle,
        outcome,
        mechanism,
        hops,
        events,
        dropped_events: rec.dropped(),
    }
}

/// Runs a fault-injection campaign on the machine `spec` describes,
/// running `workload`.
///
/// # Examples
///
/// ```
/// use rmt_core::{DeviceKind, MachineSpec};
/// use rmt_faults::{run_campaign, CampaignConfig, FaultKind};
/// use rmt_workloads::{Benchmark, Workload};
///
/// let w = Workload::generate(Benchmark::M88ksim, 1);
/// let cfg = CampaignConfig { injections: 2, warmup_commits: 500, window_commits: 3_000, seed: 1 };
/// let spec = MachineSpec::for_kind(DeviceKind::SrtNoPsr);
/// let report = run_campaign(&spec, &w, FaultKind::TransientSq, cfg);
/// assert_eq!(report.injections, 2);
/// ```
pub fn run_campaign(
    spec: &MachineSpec,
    workload: &Workload,
    kind: FaultKind,
    cfg: CampaignConfig,
) -> CampaignReport {
    CampaignReport::from_outcomes(
        kind,
        (0..cfg.injections).map(|i| injection_forensic(spec, workload, kind, cfg, i).outcome),
    )
}

/// One injection — number `index` of the campaign described by `cfg` —
/// with its full forensic record, on the machine `spec` describes:
///
/// * redundant pairs (the SRT and CRT kinds): the fault lands on the
///   leading thread's core (or an LVQ entry), and detection may cross the
///   inter-core datapath to the trailing core's checkers;
/// * the base processor (`Base`, `Base2` — one copy either way): nothing
///   detects, so every unmasked fault is silent data corruption;
/// * lockstep: the fault lands on core 1 only (a single-event upset hits
///   one die location) and the output checker compares every store.
///
/// Pure function of its arguments: the fault site is drawn from a stream
/// seeded by `split_seed(cfg.seed, index)`, so campaigns may execute their
/// injections in any order (or in parallel) and aggregate with
/// [`CampaignReport::from_outcomes`] without changing a single bit of the
/// report.
pub fn injection_forensic(
    spec: &MachineSpec,
    workload: &Workload,
    kind: FaultKind,
    cfg: CampaignConfig,
    index: usize,
) -> FaultForensics {
    match spec.scheme.kind {
        DeviceKind::Base | DeviceKind::Base2 => base_injection(spec, workload, kind, cfg, index),
        DeviceKind::Lock0 | DeviceKind::Lock8 => {
            lockstep_injection(spec, workload, kind, cfg, index)
        }
        DeviceKind::Srt
        | DeviceKind::SrtPtsq
        | DeviceKind::SrtNosc
        | DeviceKind::SrtNoPsr
        | DeviceKind::Crt
        | DeviceKind::CrtRing4 => rmt_injection(spec, workload, kind, cfg, index),
    }
}

/// A redundant-pair injection: SRT and CRT both build a
/// `Machine<RmtScheme>` and differ only in where the pair is placed.
fn rmt_injection(
    spec: &MachineSpec,
    workload: &Workload,
    kind: FaultKind,
    cfg: CampaignConfig,
    index: usize,
) -> FaultForensics {
    let arrangement = match spec.scheme.kind {
        DeviceKind::Crt | DeviceKind::CrtRing4 => "crt",
        _ => "srt",
    };
    let mut rng = Xoshiro256::for_job(cfg.seed, index as u64);
    let mut rec = FlightRecorder::new(FLIGHT_CAPACITY);
    let chain = rec.begin_chain();
    let mut dev = Machine::redundant(spec, vec![thread(workload)]);
    if !dev.run_until_committed(cfg.warmup_commits, 50_000_000) {
        panic!("warmup did not complete");
    }
    dev.drain_detected_faults();
    let p = dev.scheme().placement(0);
    let site = inject_with_retry(&mut dev, &mut rng, |dev, rng| match kind {
        FaultKind::TransientLvq => {
            let lvq = &mut dev.scheme_mut().env_mut().pair_mut(0).lvq;
            let occ = lvq.len();
            if occ == 0 {
                None
            } else {
                let idx = rng.below(occ.max(1) as u64) as usize;
                let bit = rng.below(64);
                lvq.corrupt_nth(idx, 1 << bit)
                    .map(|_| crate::forensics::FaultSite {
                        structure: "lvq",
                        index: idx as u64,
                        bit: bit as u8,
                    })
            }
        }
        _ => inject_into_core(
            dev.substrate_mut().core_mut(p.lead_core),
            p.lead_tid,
            kind,
            rng,
        ),
    });
    let inject_cycle = dev.cycle();
    let Some(site) = site else {
        return forensics(
            arrangement,
            kind,
            index,
            None,
            inject_cycle,
            FaultOutcome::Masked,
            None,
            rec,
            chain,
        );
    };
    rec.record(inject_cycle, chain, "inject", site.bit as u64);
    let (outcome, mechanism) = observe_window(
        &mut dev,
        workload,
        cfg,
        inject_cycle,
        |dev| {
            let core = dev.substrate().core(p.lead_core);
            Probe {
                released: core.stats().get("stores_released"),
                squashes: core.thread_stats(p.lead_tid).squashes,
                strikes: core.stats().get("sq_strikes_landed"),
            }
        },
        ObservePolicy {
            poll_detection: true,
            hang_is_detection: true,
            golden_compare: true,
        },
        None,
        &mut rec,
        chain,
    );
    forensics(
        arrangement,
        kind,
        index,
        Some(site),
        inject_cycle,
        outcome,
        mechanism,
        rec,
        chain,
    )
}

/// A base-processor injection.
fn base_injection(
    spec: &MachineSpec,
    workload: &Workload,
    kind: FaultKind,
    cfg: CampaignConfig,
    index: usize,
) -> FaultForensics {
    assert!(
        !matches!(kind, FaultKind::TransientLvq),
        "the base processor has no LVQ"
    );
    let mut rng = Xoshiro256::for_job(cfg.seed, index as u64);
    let mut rec = FlightRecorder::new(FLIGHT_CAPACITY);
    let chain = rec.begin_chain();
    let mut dev = Machine::independent(spec, vec![thread(workload)]);
    // The base machine's commit stream is its architectural output, so
    // the co-simulation oracle is SDC ground truth: attach it before
    // warmup and validate the fault-free prefix, then any divergence in
    // the observation window is the injected fault escaping.
    let mut oracle = Oracle::new(vec![(
        workload.program.clone().into(),
        workload.memory.clone(),
    )]);
    oracle.attach(&mut dev);
    if !dev.run_until_committed(cfg.warmup_commits, 50_000_000) {
        panic!("warmup did not complete");
    }
    let site = inject_with_retry(&mut dev, &mut rng, |dev, rng| {
        inject_into_core(dev.substrate_mut().core_mut(0), 0, kind, rng)
    });
    let inject_cycle = dev.cycle();
    let Some(site) = site else {
        return forensics(
            "base",
            kind,
            index,
            None,
            inject_cycle,
            FaultOutcome::Masked,
            None,
            rec,
            chain,
        );
    };
    rec.record(inject_cycle, chain, "inject", site.bit as u64);
    let (outcome, mechanism) = observe_window(
        &mut dev,
        workload,
        cfg,
        inject_cycle,
        |dev| {
            let core = dev.substrate().core(0);
            Probe {
                released: core.stats().get("stores_released"),
                squashes: core.thread_stats(0).squashes,
                strikes: core.stats().get("sq_strikes_landed"),
            }
        },
        ObservePolicy {
            poll_detection: false,
            hang_is_detection: false,
            golden_compare: true,
        },
        Some(&mut oracle),
        &mut rec,
        chain,
    );
    forensics(
        "base",
        kind,
        index,
        Some(site),
        inject_cycle,
        outcome,
        mechanism,
        rec,
        chain,
    )
}

/// A lockstep injection, into core 1 only.
fn lockstep_injection(
    spec: &MachineSpec,
    workload: &Workload,
    kind: FaultKind,
    cfg: CampaignConfig,
    index: usize,
) -> FaultForensics {
    assert!(
        !matches!(kind, FaultKind::TransientLvq),
        "lockstepped machines have no LVQ"
    );
    let mut rng = Xoshiro256::for_job(cfg.seed, index as u64);
    let mut rec = FlightRecorder::new(FLIGHT_CAPACITY);
    let chain = rec.begin_chain();
    let mut dev = Machine::lockstep(spec, vec![thread(workload)]);
    if !dev.run_until_committed(cfg.warmup_commits, 50_000_000) {
        panic!("warmup did not complete");
    }
    dev.drain_detected_faults();
    let site = inject_with_retry(&mut dev, &mut rng, |dev, rng| {
        inject_into_core(dev.substrate_mut().core_mut(1), 0, kind, rng)
    });
    let inject_cycle = dev.cycle();
    let Some(site) = site else {
        return forensics(
            "lockstep",
            kind,
            index,
            None,
            inject_cycle,
            FaultOutcome::Masked,
            None,
            rec,
            chain,
        );
    };
    rec.record(inject_cycle, chain, "inject", site.bit as u64);
    let (outcome, mechanism) = observe_window(
        &mut dev,
        workload,
        cfg,
        inject_cycle,
        // The checker compares every released store, so no golden model
        // runs and the released count only feeds the forensic
        // sphere-crossing stamp (from the struck core).
        |dev| {
            let core = dev.substrate().core(1);
            Probe {
                released: core.stats().get("stores_released"),
                squashes: core.thread_stats(0).squashes,
                strikes: core.stats().get("sq_strikes_landed"),
            }
        },
        ObservePolicy {
            poll_detection: true,
            hang_is_detection: true,
            golden_compare: false,
        },
        None,
        &mut rec,
        chain,
    );
    forensics(
        "lockstep",
        kind,
        index,
        Some(site),
        inject_cycle,
        outcome,
        mechanism,
        rec,
        chain,
    )
}
