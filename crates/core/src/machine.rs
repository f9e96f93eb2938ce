//! The redundancy fabric: one generic [`Machine`] — N cores, memory
//! hierarchies and shared metric/fault plumbing — composed with a
//! pluggable [`RedundancyScheme`] that owns only what actually differs
//! between the paper's arrangements.
//!
//! The split follows the sphere-of-replication argument (§2): the base
//! pipeline and memory system are identical across Base, SRT, CRT,
//! lockstep and recoverable-SRT machines; an arrangement is defined by
//! *where* redundant threads are placed, *which* structures carry values
//! across the sphere boundary (LVQ/LPQ/store comparator vs a lockstep
//! output checker), and *what* happens on a detection. Those concerns —
//! and only those — live in the scheme:
//!
//! * [`Substrate`] — the cores, the (shared or per-core) memory
//!   hierarchies and the cycle counter, with per-component tick
//!   primitives the scheme sequences.
//! * [`RedundancyScheme`] — placement, sphere coupling, per-cycle tick
//!   order, fault-detection draining, metric export.
//! * [`Machine`] — the composition; it implements [`Device`] so every
//!   arrangement is driven uniformly by the experiment harness.
//!
//! The concrete schemes live in [`crate::schemes`] (plus the recovery
//! policy in [`crate::recovery`]); each has a typed constructor on its
//! `Machine` instantiation taking a [`crate::MachineSpec`], and
//! [`crate::device::build_device`] dispatches on the spec's kind.

use crate::device::Device;
use rmt_isa::inst::NUM_ARCH_REGS;
use rmt_mem::{HierarchyConfig, MemoryHierarchy};
use rmt_pipeline::core::DetectedFault;
use rmt_pipeline::env::CoreEnv;
use rmt_pipeline::Core;
use rmt_stats::{MetricsRegistry, MetricsSnapshot, TimeSeries};

/// One functional-warming event: a record of something the workload did
/// between detailed windows that left residue in a timing structure.
///
/// Sampled simulation (SMARTS-style) fast-forwards a workload with the
/// functional interpreter and replays the most recent of these events into
/// the caches and predictors before opening a detailed window, so the
/// window does not start against pathologically cold structures. A replay
/// applies the timed path's own cache and predictor updates but bypasses
/// the core, so no event count moves — see the `warm_*` methods on
/// [`rmt_mem::MemoryHierarchy`] and [`Core`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmEvent {
    /// An instruction fetch touched the block containing `addr`.
    IFetch {
        /// Fetched instruction address.
        addr: u64,
    },
    /// A load read `addr`.
    Load {
        /// Effective address.
        addr: u64,
    },
    /// A retired store wrote `addr`.
    Store {
        /// Effective address.
        addr: u64,
    },
    /// A conditional branch at `pc` resolved `taken`.
    Branch {
        /// Branch PC.
        pc: u64,
        /// Resolved direction.
        taken: bool,
    },
    /// An indirect jump at `pc` resolved to `target`.
    Jump {
        /// Jump PC.
        pc: u64,
        /// Resolved target.
        target: u64,
    },
}

/// The arrangement-independent hardware: cores, memory hierarchies and
/// the global cycle counter.
///
/// A substrate owns either one hierarchy shared by every core (SMT and
/// CMP devices over a common L2) or one private hierarchy per core
/// (lockstepped cores, whose identical request streams make private
/// hierarchies equivalent and bit-deterministic — see DESIGN.md). The
/// scheme decides the per-cycle sequencing by calling the tick
/// primitives; the substrate only guards indexing.
pub struct Substrate {
    cores: Vec<Core>,
    hiers: Vec<MemoryHierarchy>,
    cycle: u64,
}

impl Substrate {
    /// A substrate whose cores share one memory hierarchy.
    pub fn shared(cores: Vec<Core>, hier_cfg: HierarchyConfig) -> Self {
        let n = cores.len();
        assert!(n >= 1, "a substrate needs at least one core");
        Substrate {
            cores,
            hiers: vec![MemoryHierarchy::new(hier_cfg, n)],
            cycle: 0,
        }
    }

    /// A substrate with one private single-port hierarchy per core.
    pub fn private(cores: Vec<Core>, hier_cfg: HierarchyConfig) -> Self {
        let n = cores.len();
        assert!(n >= 1, "a substrate needs at least one core");
        Substrate {
            hiers: (0..n).map(|_| MemoryHierarchy::new(hier_cfg, 1)).collect(),
            cores,
            cycle: 0,
        }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Core `i`.
    pub fn core(&self, i: usize) -> &Core {
        &self.cores[i]
    }

    /// Mutable core `i` (fault injection, checkpoint restore).
    pub fn core_mut(&mut self, i: usize) -> &mut Core {
        &mut self.cores[i]
    }

    /// Ticks core `i` against its hierarchy within the current cycle.
    pub fn tick_core(&mut self, i: usize, env: &mut dyn CoreEnv) {
        let hier = if self.hiers.len() == 1 {
            &mut self.hiers[0]
        } else {
            &mut self.hiers[i]
        };
        self.cores[i].tick(self.cycle, hier, env);
    }

    /// Ticks hierarchy `i` (index 0 when shared).
    pub fn tick_hier(&mut self, i: usize) {
        self.hiers[i].tick(self.cycle);
    }

    /// Ends the cycle.
    pub fn advance(&mut self) {
        self.cycle += 1;
    }

    /// The hierarchy serving `core` plus the core index to address it with
    /// (global for a shared hierarchy, 0 for a private one).
    fn warm_hier(&mut self, core: usize) -> (&mut MemoryHierarchy, usize) {
        if self.hiers.len() == 1 {
            (&mut self.hiers[0], core)
        } else {
            (&mut self.hiers[core], 0)
        }
    }

    /// Functionally warms core `core`'s instruction-fetch path (resolves
    /// shared-vs-private hierarchy indexing).
    pub fn warm_ifetch(&mut self, core: usize, addr: u64) {
        let (h, c) = self.warm_hier(core);
        h.warm_ifetch(c, addr);
    }

    /// Functionally warms core `core`'s data-load path.
    pub fn warm_dload(&mut self, core: usize, addr: u64) {
        let (h, c) = self.warm_hier(core);
        h.warm_dload(c, addr);
    }

    /// Functionally warms a retired store on core `core`.
    pub fn warm_store(&mut self, core: usize, addr: u64) {
        let (h, c) = self.warm_hier(core);
        h.warm_store(c, addr);
    }

    /// Drains core-detected faults, cores in index order.
    pub fn drain_detected_faults(&mut self) -> Vec<DetectedFault> {
        let mut out = Vec::new();
        for core in &mut self.cores {
            out.extend(core.drain_detected_faults());
        }
        out
    }

    /// Exports `device/cycles` plus every core's metric tree under
    /// `core{i}` — the shared prefix layout of all arrangements.
    pub fn export_cores(&self, reg: &mut MetricsRegistry) {
        reg.counter("device/cycles", self.cycle);
        for (i, core) in self.cores.iter().enumerate() {
            core.export_metrics(reg, &format!("core{i}"));
        }
    }
}

/// What differs between redundancy arrangements: thread placement, the
/// sphere-of-replication structures, per-cycle coupling, fault hooks and
/// recovery policy.
///
/// The scheme *drives* the substrate each cycle — it receives `&mut
/// Substrate` and sequences the tick primitives itself (ending with
/// [`Substrate::advance`]). This inversion is what lets a recovery
/// scheme re-enter the per-cycle tick while draining a pair to a
/// quiescent checkpoint.
pub trait RedundancyScheme {
    /// Advances the machine by one cycle: tick cores/hierarchies in the
    /// arrangement's order, couple the sphere structures, and call
    /// [`Substrate::advance`].
    fn tick(&mut self, s: &mut Substrate);

    /// Number of logical (program-level) threads.
    fn num_logical(&self, s: &Substrate) -> usize;

    /// Instructions committed by logical thread `i` (the leading copy's
    /// count on redundant arrangements).
    fn committed(&self, s: &Substrate, logical: usize) -> u64;

    /// Faults detected since the last call; the default drains every
    /// core in index order.
    fn drain_detected_faults(&mut self, s: &mut Substrate) -> Vec<DetectedFault> {
        s.drain_detected_faults()
    }

    /// Exports the arrangement's full metric tree (stable names).
    fn export_metrics(&self, s: &Substrate, reg: &mut MetricsRegistry);

    /// The architectural memory image of logical thread `i`.
    fn image<'a>(&'a self, s: &'a Substrate, logical: usize) -> &'a rmt_isa::MemImage;

    /// Restores logical thread `logical`'s committed architectural
    /// register state and PC on *every* hardware copy the arrangement runs
    /// (both threads of a redundant pair, both lockstepped cores). Used to
    /// seed detailed state from a sampling checkpoint; the memory image is
    /// supplied at machine construction.
    fn restore_arch(
        &mut self,
        s: &mut Substrate,
        logical: usize,
        regs: &[u64; NUM_ARCH_REGS],
        pc: u64,
    );

    /// Replaces logical thread `logical`'s architectural memory with
    /// `image` on every hardware copy, discarding sphere-crossing state
    /// (forwarding queues, comparators, checker logs) built against the
    /// old memory. Timing structures deliberately stay warm — sampled
    /// simulation relies on state accumulating across detailed windows.
    fn install_image(&mut self, s: &mut Substrate, logical: usize, image: &rmt_isa::MemImage);

    /// Replays one functional-warming event for logical thread `logical`
    /// into the arrangement's timing structures (caches on every core the
    /// thread touches, the leading copy's predictors). Never moves
    /// measured counters.
    fn warm(&mut self, s: &mut Substrate, logical: usize, ev: WarmEvent);

    /// `(core index, hardware thread id)` of the copy whose commit stream
    /// defines logical thread `logical`'s architectural execution: the
    /// leading thread of a redundant pair, core 0 of a lockstep machine,
    /// the thread itself on an independent machine. Differential
    /// verification attaches its commit log here.
    fn lead_location(&self, logical: usize) -> (usize, usize);
}

/// Epoch-boundary state for time-series sampling: the previous boundary
/// snapshot to delta against, and the series being accumulated.
struct EpochSampler {
    every: u64,
    prev: MetricsSnapshot,
    series: TimeSeries,
}

/// A complete machine: an arrangement-independent [`Substrate`] driven
/// by one [`RedundancyScheme`].
pub struct Machine<S: RedundancyScheme> {
    substrate: Substrate,
    scheme: S,
    epochs: Option<EpochSampler>,
}

impl<S: RedundancyScheme> Machine<S> {
    /// Composes a substrate with a scheme.
    pub fn assemble(substrate: Substrate, scheme: S) -> Self {
        Machine {
            substrate,
            scheme,
            epochs: None,
        }
    }

    /// Snapshots the full metric tree right now (epoch sampling helper).
    fn metrics_now(&self) -> MetricsSnapshot {
        let mut reg = MetricsRegistry::new();
        self.scheme.export_metrics(&self.substrate, &mut reg);
        reg.snapshot()
    }

    /// The substrate (cores, hierarchies, cycle).
    pub fn substrate(&self) -> &Substrate {
        &self.substrate
    }

    /// Mutable substrate access (fault injection).
    pub fn substrate_mut(&mut self) -> &mut Substrate {
        &mut self.substrate
    }

    /// The scheme.
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// Mutable scheme access (sphere-structure fault injection).
    pub fn scheme_mut(&mut self) -> &mut S {
        &mut self.scheme
    }
}

impl<S: RedundancyScheme> Device for Machine<S> {
    fn tick(&mut self) {
        self.scheme.tick(&mut self.substrate);
        // Sample at epoch boundaries, keyed to the simulated cycle so the
        // series is bitwise identical regardless of how the host schedules
        // the run.
        let due = self
            .epochs
            .as_ref()
            .is_some_and(|e| self.substrate.cycle.is_multiple_of(e.every));
        if due {
            let now = self.metrics_now();
            let e = self.epochs.as_mut().expect("due implies a sampler");
            e.series.push(now.delta(&e.prev));
            e.prev = now;
        }
    }

    fn enable_epoch_sampling(&mut self, every: u64) {
        assert!(every > 0, "epoch width must be non-zero");
        let prev = self.metrics_now();
        self.epochs = Some(EpochSampler {
            every,
            prev,
            series: TimeSeries::new(every),
        });
    }

    fn take_timeseries(&mut self) -> TimeSeries {
        match self.epochs.take() {
            Some(e) => e.series,
            None => TimeSeries::new(0),
        }
    }

    fn cycle(&self) -> u64 {
        self.substrate.cycle
    }

    fn num_logical(&self) -> usize {
        self.scheme.num_logical(&self.substrate)
    }

    fn committed(&self, logical: usize) -> u64 {
        self.scheme.committed(&self.substrate, logical)
    }

    fn drain_detected_faults(&mut self) -> Vec<DetectedFault> {
        self.scheme.drain_detected_faults(&mut self.substrate)
    }

    fn export_metrics(&self, reg: &mut MetricsRegistry) {
        self.scheme.export_metrics(&self.substrate, reg);
    }

    fn image(&self, logical: usize) -> &rmt_isa::MemImage {
        self.scheme.image(&self.substrate, logical)
    }

    fn restore_arch(&mut self, logical: usize, regs: &[u64; NUM_ARCH_REGS], pc: u64) {
        self.scheme
            .restore_arch(&mut self.substrate, logical, regs, pc);
    }

    fn install_image(&mut self, logical: usize, image: &rmt_isa::MemImage) {
        self.scheme
            .install_image(&mut self.substrate, logical, image);
    }

    fn warm(&mut self, logical: usize, ev: WarmEvent) {
        self.scheme.warm(&mut self.substrate, logical, ev);
    }

    fn enable_commit_log(&mut self, logical: usize) {
        let (core, tid) = self.scheme.lead_location(logical);
        self.substrate.core_mut(core).enable_commit_log(tid);
    }

    fn drain_commits(&mut self, logical: usize) -> Vec<rmt_pipeline::CommitRecord> {
        let (core, tid) = self.scheme.lead_location(logical);
        self.substrate.core_mut(core).drain_commits(tid)
    }
}
