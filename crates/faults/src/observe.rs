//! The unified injection/observation engine shared by every campaign.
//!
//! One injection runs in three acts: pick a viable fault site (retrying
//! while the machine ticks), plant the fault, then watch the machine for a
//! bounded window and classify what happened. The engine narrates the
//! window into a [`FlightRecorder`] — injection, first corrupted value,
//! sphere-boundary crossings, squashes, the detector (or watchdog)
//! trigger — so campaigns can emit per-injection [`crate::FaultForensics`]
//! records alongside the aggregate counts.

use crate::campaign::CampaignConfig;
use crate::forensics::FaultSite;
use crate::model::{FaultKind, FaultOutcome};
use rmt_core::device::Device;
use rmt_isa::interp::Interpreter;
use rmt_pipeline::core::FaultDetector;
use rmt_stats::{FlightRecorder, Xoshiro256};
use rmt_verify::Oracle;
use rmt_workloads::Workload;

/// Forward-progress watchdog: a fault can stop the machine from ever
/// committing again (a corrupted branch target steers the committed path
/// into a halt or off the program, or deadlocks the redundant pair on a
/// queue dependency). Fault-free commit gaps are bounded by a couple of
/// memory round-trips, so a window this long without a single commit means
/// the machine is dead, not slow. On the redundant machines the hang is a
/// *detection* (real fail-stop designs time out the checker exactly this
/// way); on the base machine nothing observes it, so it counts with the
/// silent failures.
pub(crate) const WATCHDOG_CYCLES: u64 = 50_000;

/// Rolling golden model: advances the reference interpreter to any
/// monotonically increasing released-store count and reports its memory
/// digest there, so campaigns can compare at checkpoints *during* the
/// observation window (a corrupted store that is later overwritten is
/// still silent data corruption — it escaped the sphere).
struct GoldenTracker<'w> {
    interp: Interpreter<'w>,
    stores: u64,
}

impl<'w> GoldenTracker<'w> {
    fn new(workload: &'w Workload) -> Self {
        GoldenTracker {
            interp: Interpreter::new(&workload.program, workload.memory.clone()),
            stores: 0,
        }
    }

    /// Digest after exactly `released` golden stores.
    ///
    /// # Panics
    ///
    /// Panics if asked to rewind (released counts are monotone).
    fn digest_at(&mut self, released: u64) -> u64 {
        assert!(released >= self.stores, "golden tracker cannot rewind");
        while self.stores < released {
            let c = self.interp.step().expect("workloads never halt");
            if c.store.is_some() {
                self.stores += 1;
            }
        }
        self.interp.mem().digest()
    }
}

/// What the unified observation engine checks each cycle and how it
/// classifies the endings the architectures disagree on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ObservePolicy {
    /// Poll the device's detection hardware every cycle (the redundant
    /// machines); the base processor has none to poll.
    pub poll_detection: bool,
    /// Whether a forward-progress hang is a fail-stop *detection* (the
    /// redundant machines time out their checkers) or an unsignaled
    /// failure counted with the silent corruptions (the base machine).
    pub hang_is_detection: bool,
    /// Run the rolling golden model against released stores; without it an
    /// uneventful window classifies as masked (lockstep: the checker
    /// already compared every released store).
    pub golden_compare: bool,
}

/// Per-cycle counter readings the engine watches for forensic
/// transitions, read from the struck thread's core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Probe {
    /// Stores released past the sphere of replication (also drives the
    /// rolling golden model).
    pub released: u64,
    /// Squashes of the thread the fault was injected into.
    pub squashes: u64,
    /// Armed store-queue strikes that have landed (the cycle the
    /// corrupted value was actually written).
    pub strikes: u64,
}

/// Stable mechanism label of a hardware detector.
pub(crate) fn mechanism_name(d: FaultDetector) -> &'static str {
    match d {
        FaultDetector::LvqAddressMismatch => "lvq-address",
        FaultDetector::StoreMismatch => "store-comparator",
        FaultDetector::ControlDivergence => "control-divergence",
    }
}

/// Injects one fault of `kind` into an SRT/CRT-style core via the generic
/// hooks. Returns the struck site, or `None` if no suitable site existed
/// (e.g. empty queue).
pub(crate) fn inject_into_core(
    core: &mut rmt_pipeline::Core,
    lead_tid: usize,
    kind: FaultKind,
    rng: &mut Xoshiro256,
) -> Option<FaultSite> {
    let bit = rng.below(64) as u8;
    match kind {
        FaultKind::TransientReg => {
            let live = core.live_phys_regs();
            if live.is_empty() {
                return None;
            }
            let reg = live[rng.below(live.len() as u64) as usize];
            core.corrupt_phys_reg(reg, 1 << bit);
            Some(FaultSite {
                structure: "phys-reg",
                index: reg as u64,
                bit,
            })
        }
        FaultKind::TransientSq => {
            // Arm a strike on the next store to pass the commit point:
            // speculative entries shed faults by squash-and-refill, so the
            // meaningful strike window is post-retirement, pre-release.
            core.arm_sq_strike(lead_tid, 1 << bit);
            Some(FaultSite {
                structure: "store-queue",
                index: lead_tid as u64,
                bit,
            })
        }
        FaultKind::PermanentFu => {
            let fu = rng.below(core.config().total_fus() as u64) as usize;
            // Bias to low-order bits so the corruption is architecturally
            // active on small values.
            let bit = (bit % 8) + 1;
            core.set_fu_stuck(fu, bit, true);
            Some(FaultSite {
                structure: "fu",
                index: fu as u64,
                bit,
            })
        }
        FaultKind::TransientLvq => None, // handled at the env level
    }
}

/// Keeps injecting until a suitable fault site exists, ticking between
/// attempts: a strike site (an occupied queue entry, a live register) may
/// not exist at the exact injection cycle.
pub(crate) fn inject_with_retry<D: Device + ?Sized>(
    dev: &mut D,
    rng: &mut Xoshiro256,
    mut inject: impl FnMut(&mut D, &mut Xoshiro256) -> Option<FaultSite>,
) -> Option<FaultSite> {
    for _ in 0..2_000 {
        if let Some(site) = inject(dev, rng) {
            return Some(site);
        }
        dev.tick();
    }
    None
}

/// The one observation/classification engine every campaign runs after
/// its injection landed: tick until `window_commits` more instructions
/// commit, checking (in this order, each cycle) the detection hardware,
/// the commit-stream oracle, the forward-progress watchdog, and the
/// golden model at released-store checkpoints — then classify the
/// uneventful remainder.
///
/// The window is narrated into `rec` under cause chain `chain`: the first
/// landed strike (`"corrupt"`), the first sphere-boundary crossing
/// (`"sphere-cross"`), the first squash (`"squash"`), and the terminal
/// event (`"detect"` / `"watchdog"` / `"sdc"` / `"masked"`). Returns the
/// classified outcome plus the detecting mechanism's label, if any.
///
/// `oracle` is the precise SDC detector for machines whose commit stream
/// *is* the architectural output (the base processor): the first commit
/// that disagrees with the reference interpreter is silent corruption,
/// caught at the exact instruction instead of at the next 200-commit
/// memory-digest checkpoint. Redundant machines must not pass one — their
/// leading thread commits unverified state *inside* the sphere of
/// replication, so a post-injection divergence there is expected and is
/// precisely what the comparators exist to catch at store release. The
/// golden digest stays on as the backstop for corruption the commit
/// stream cannot see (a store-queue strike after the commit point).
#[allow(clippy::too_many_arguments)]
pub(crate) fn observe_window<D: Device + ?Sized>(
    dev: &mut D,
    workload: &Workload,
    cfg: CampaignConfig,
    inject_cycle: u64,
    probe: impl Fn(&D) -> Probe,
    policy: ObservePolicy,
    mut oracle: Option<&mut Oracle>,
    rec: &mut FlightRecorder,
    chain: u32,
) -> (FaultOutcome, Option<&'static str>) {
    let target = dev.committed(0) + cfg.window_commits;
    let mut golden = policy.golden_compare.then(|| GoldenTracker::new(workload));
    let mut outcome = None;
    let mut mechanism = None;
    let mut next_checkpoint = dev.committed(0) + 200;
    let mut progress = (dev.committed(0), dev.cycle());
    let baseline = probe(dev);
    let mut seen = Probe::default();
    while dev.committed(0) < target {
        dev.tick();
        // Forensic transitions: the first time each propagation step
        // happens after the injection, stamp it on the cause chain.
        let now = probe(dev);
        if seen.strikes == 0 && now.strikes > baseline.strikes {
            rec.record(
                dev.cycle(),
                chain,
                "corrupt",
                now.strikes - baseline.strikes,
            );
            seen.strikes = 1;
        }
        if seen.released == 0 && now.released > baseline.released {
            rec.record(
                dev.cycle(),
                chain,
                "sphere-cross",
                now.released - baseline.released,
            );
            seen.released = 1;
        }
        if seen.squashes == 0 && now.squashes > baseline.squashes {
            rec.record(
                dev.cycle(),
                chain,
                "squash",
                now.squashes - baseline.squashes,
            );
            seen.squashes = 1;
        }
        if policy.poll_detection {
            let faults = dev.drain_detected_faults();
            if let Some(first) = faults.first() {
                let latency = dev.cycle() - inject_cycle;
                mechanism = Some(mechanism_name(first.kind));
                rec.record(dev.cycle(), chain, "detect", latency);
                outcome = Some(FaultOutcome::Detected { latency });
                break;
            }
        }
        if let Some(o) = oracle.as_deref_mut() {
            if o.observe(dev).is_err() {
                // The committed stream left the reference execution on a
                // machine with no detection hardware: architecturally
                // visible corruption, i.e. silent data corruption —
                // whether or not the memory digest later masks it.
                rec.record(dev.cycle(), chain, "sdc", dev.cycle() - inject_cycle);
                outcome = Some(FaultOutcome::Silent);
                break;
            }
        }
        match dev.committed(0) {
            c if c != progress.0 => progress = (c, dev.cycle()),
            _ if dev.cycle() - progress.1 > WATCHDOG_CYCLES => {
                let latency = dev.cycle() - inject_cycle;
                outcome = Some(if policy.hang_is_detection {
                    // The machine stopped committing: fail-stop watchdog.
                    mechanism = Some("watchdog");
                    rec.record(dev.cycle(), chain, "watchdog", latency);
                    FaultOutcome::Detected { latency }
                } else {
                    // Hung with no detection hardware to notice: an
                    // unsignaled failure, bucketed with the silent ones.
                    rec.record(dev.cycle(), chain, "sdc", latency);
                    FaultOutcome::Silent
                });
                break;
            }
            _ => {}
        }
        if let Some(golden) = &mut golden {
            if dev.committed(0) >= next_checkpoint {
                next_checkpoint += 200;
                if golden.digest_at(probe(dev).released) != dev.image(0).digest() {
                    rec.record(dev.cycle(), chain, "sdc", dev.cycle() - inject_cycle);
                    outcome = Some(FaultOutcome::Silent);
                    break;
                }
            }
        }
    }
    if !policy.poll_detection {
        debug_assert!(dev.drain_detected_faults().is_empty());
    }
    let outcome = outcome.unwrap_or_else(|| match &mut golden {
        Some(golden) => {
            if golden.digest_at(probe(dev).released) == dev.image(0).digest() {
                rec.record(dev.cycle(), chain, "masked", 0);
                FaultOutcome::Masked
            } else {
                rec.record(dev.cycle(), chain, "sdc", dev.cycle() - inject_cycle);
                FaultOutcome::Silent
            }
        }
        None => {
            rec.record(dev.cycle(), chain, "masked", 0);
            FaultOutcome::Masked
        }
    });
    (outcome, mechanism)
}
