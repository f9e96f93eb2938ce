//! One injection routine for every arrangement: redundant pairs (SRT and
//! CRT), the base processor and lockstepped cores.
//!
//! [`injection_forensic`] is a pure function of `(spec, workload, kind,
//! config, index)` producing the injection's full [`FaultForensics`]
//! record. Every arrangement runs the same steps in one generic routine,
//! `inject`: seed the fault-site stream and the flight recorder, warm
//! up, strike, then observe the window and classify it. The arrangements
//! differ only in the parameters they pass: the machine, the struck
//! thread (the leading thread of pair 0, the base machine's only thread,
//! or core 1 of a lockstepped pair), the `ObservePolicy`, the base
//! machine's co-simulation oracle and SRT/CRT's LVQ strike.
//! [`run_campaign`] is the sequential aggregator. The seeding contract
//! (one RNG stream per index) makes every campaign order-independent and
//! parallelizable.

use crate::campaign::{CampaignConfig, CampaignReport};
use crate::forensics::{FaultForensics, FaultSite};
use crate::model::{FaultKind, FaultOutcome};
use crate::observe::{inject_into_core, inject_with_retry, observe_window, ObservePolicy, Probe};
use rmt_core::{
    Device, DeviceKind, LogicalThread, Machine, MachineSpec, RedundancyScheme, RmtScheme,
};
use rmt_stats::{FlightRecorder, Xoshiro256};
use rmt_verify::Oracle;
use rmt_workloads::Workload;

/// Flight-recorder capacity per injection: the engine stamps at most a
/// handful of first-occurrence events per chain, so this never drops in
/// practice while still bounding a pathological run.
const FLIGHT_CAPACITY: usize = 64;

/// What names one injection: its campaign and its index in it.
#[derive(Clone, Copy)]
struct Job<'w> {
    workload: &'w Workload,
    kind: FaultKind,
    cfg: CampaignConfig,
    index: usize,
}

/// A strike on a structure outside the cores (SRT/CRT's LVQ).
type Strike<S> = fn(&mut Machine<S>, &mut Xoshiro256) -> Option<FaultSite>;

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
    let job = Job {
        workload,
        kind,
        cfg,
        index,
    };
    let threads = vec![LogicalThread::from(workload)];
    match spec.scheme.kind {
        DeviceKind::Base | DeviceKind::Base2 => {
            // The base machine's commit stream is its architectural
            // output, so the co-simulation oracle is SDC ground truth:
            // attached before warmup it validates the fault-free prefix,
            // and any divergence in the observation window is the
            // injected fault escaping.
            let oracle = Oracle::for_threads(&threads);
            let policy = ObservePolicy {
                poll_detection: false,
                hang_is_detection: false,
                golden_compare: true,
            };
            let dev = Machine::independent(spec, threads);
            inject(dev, "base", (0, 0), policy, Some(oracle), job, None)
        }
        DeviceKind::Lock0 | DeviceKind::Lock8 => {
            // The checker compares every released store, so no golden
            // model runs and the released count only feeds the forensic
            // sphere-crossing stamp (from the struck core).
            let policy = ObservePolicy {
                poll_detection: true,
                hang_is_detection: true,
                golden_compare: false,
            };
            let dev = Machine::lockstep(spec, threads);
            inject(dev, "lockstep", (1, 0), policy, None, job, None)
        }
        DeviceKind::Srt
        | DeviceKind::SrtPtsq
        | DeviceKind::SrtNosc
        | DeviceKind::SrtNoPsr
        | DeviceKind::Crt
        | DeviceKind::CrtRing4 => {
            let arrangement = match spec.scheme.kind {
                DeviceKind::Crt | DeviceKind::CrtRing4 => "crt",
                _ => "srt",
            };
            let policy = ObservePolicy {
                poll_detection: true,
                hang_is_detection: true,
                golden_compare: true,
            };
            let dev = Machine::redundant(spec, threads);
            let p = dev.scheme().placement(0);
            let lead = (p.lead_core, p.lead_tid);
            inject(dev, arrangement, lead, policy, None, job, Some(lvq_strike))
        }
    }
}

/// Flips one bit of a random occupied LVQ entry of pair 0 (`None` while
/// the queue is empty).
fn lvq_strike(dev: &mut Machine<RmtScheme>, rng: &mut Xoshiro256) -> Option<FaultSite> {
    let lvq = &mut dev.scheme_mut().env_mut().pair_mut(0).lvq;
    let occ = lvq.len();
    if occ == 0 {
        return None;
    }
    let idx = rng.below(occ as u64) as usize;
    let bit = rng.below(64);
    lvq.corrupt_nth(idx, 1 << bit).map(|_| FaultSite {
        structure: "lvq",
        index: idx as u64,
        bit: bit as u8,
    })
}

/// One injection on `dev`, the same steps on every arrangement: warm up,
/// drain the warmup's detections, strike thread `struck` (`(core, tid)`;
/// an LVQ fault goes through `lvq` instead), then observe the window
/// under `policy` with the optional commit-stream `oracle` (attached
/// before warmup) and assemble the forensic record.
fn inject<S: RedundancyScheme>(
    mut dev: Machine<S>,
    arrangement: &'static str,
    (core, tid): (usize, usize),
    policy: ObservePolicy,
    mut oracle: Option<Oracle>,
    job: Job,
    lvq: Option<Strike<S>>,
) -> FaultForensics {
    let Job {
        workload,
        kind,
        cfg,
        index,
    } = job;
    let lvq = (kind == FaultKind::TransientLvq)
        .then(|| lvq.unwrap_or_else(|| panic!("the {arrangement} machine has no LVQ")));
    let mut rng = Xoshiro256::for_job(cfg.seed, index as u64);
    let mut rec = FlightRecorder::new(FLIGHT_CAPACITY);
    let chain = rec.begin_chain();
    if let Some(o) = &oracle {
        o.attach(&mut dev);
    }
    if !dev.run_until_committed(cfg.warmup_commits, 50_000_000) {
        panic!("warmup did not complete");
    }
    dev.drain_detected_faults();
    let site = inject_with_retry(&mut dev, &mut rng, |dev, rng| match lvq {
        Some(strike) => strike(dev, rng),
        None => inject_into_core(dev.substrate_mut().core_mut(core), tid, kind, rng),
    });
    let inject_cycle = dev.cycle();
    let (outcome, mechanism) = match site {
        None => (FaultOutcome::Masked, None),
        Some(site) => {
            rec.record(inject_cycle, chain, "inject", site.bit as u64);
            let probe = |dev: &Machine<S>| {
                let c = dev.substrate().core(core);
                Probe {
                    released: c.stat("stores_released"),
                    squashes: c.thread_stats(tid).squashes,
                    strikes: c.stat("sq_strikes_landed"),
                }
            };
            observe_window(
                &mut dev,
                workload,
                cfg,
                inject_cycle,
                probe,
                policy,
                oracle.as_mut(),
                &mut rec,
                chain,
            )
        }
    };
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
