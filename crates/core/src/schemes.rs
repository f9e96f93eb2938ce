//! Concrete [`RedundancyScheme`]s: the paper's arrangements expressed as
//! plugins over the shared [`Substrate`].
//!
//! * [`IndependentScheme`] — no redundancy; the base processor (also the
//!   paper's Base2 when handed two copies of a program).
//! * [`RmtScheme`] — loosely-coupled redundant pairs through the
//!   LVQ/LPQ/store-comparator sphere crossing, with placement as *data*:
//!   [`Topology::Smt`] is SRT (§4), [`Topology::CrossCoupled`] is the
//!   paper's two-core CRT (§5), and [`Topology::Ring`] generalises CRT to
//!   k cores, each leading one program and trailing its neighbour's.
//! * [`LockstepScheme`] — two cycle-synchronised cores behind an output
//!   checker (Lock0/Lock8).
//!
//! Every scheme drives the substrate with the exact per-cycle sequence of
//! the historical device it replaces, so machines assembled from these
//! schemes are bitwise-identical to the pre-fabric devices
//! (`tests/refactor_guard.rs` pins this).

use crate::crt::PairPlacement;
use crate::device::LogicalThread;
use crate::machine::{Machine, RedundancyScheme, Substrate, WarmEvent};
use crate::rmt_env::RmtEnv;
use crate::spec::{DeviceKind, MachineSpec};
use rmt_isa::inst::NUM_ARCH_REGS;
use rmt_isa::mem_image::MemImage;
use rmt_pipeline::core::{DetectedFault, FaultDetector};
use rmt_pipeline::env::{CoreEnv, IndependentEnv};
use rmt_pipeline::{Core, ThreadId, ThreadRole};
use rmt_stats::MetricsRegistry;
use std::collections::VecDeque;

// ====================================================================
// Independent (no redundancy)
// ====================================================================

/// The base processor's scheme: independent logical threads on one core,
/// no replication, no sphere crossing.
pub struct IndependentScheme {
    env: IndependentEnv,
}

impl Machine<IndependentScheme> {
    /// Assembles the base machine: one SMT core, independent threads.
    ///
    /// # Panics
    ///
    /// Panics if more threads are supplied than hardware contexts exist.
    pub fn independent(spec: &MachineSpec, threads: Vec<LogicalThread>) -> Self {
        assert!(
            threads.len() <= spec.max_programs() * spec.kind().copies(),
            "too many logical threads for one core"
        );
        let mut env = IndependentEnv::new(threads.iter().map(|t| t.memory.clone()).collect());
        let mut core = Core::new(spec.core.clone(), 0);
        for (i, t) in threads.iter().enumerate() {
            let tid = core.attach_thread(t.program.clone(), 0);
            env.assign(0, tid, i);
        }
        core.finalize_partitions();
        Machine::assemble(
            Substrate::shared(vec![core], spec.hierarchy),
            IndependentScheme { env },
        )
    }
}

impl RedundancyScheme for IndependentScheme {
    fn tick(&mut self, s: &mut Substrate) {
        s.tick_core(0, &mut self.env);
        s.tick_hier(0);
        s.advance();
    }

    fn num_logical(&self, s: &Substrate) -> usize {
        s.core(0).active_threads()
    }

    fn committed(&self, s: &Substrate, logical: usize) -> u64 {
        s.core(0).thread_stats(logical).committed
    }

    fn export_metrics(&self, s: &Substrate, reg: &mut MetricsRegistry) {
        s.export_cores(reg);
    }

    fn image<'a>(&'a self, _s: &'a Substrate, logical: usize) -> &'a MemImage {
        self.env.image(0, logical)
    }

    fn restore_arch(
        &mut self,
        s: &mut Substrate,
        logical: usize,
        regs: &[u64; NUM_ARCH_REGS],
        pc: u64,
    ) {
        let now = s.cycle();
        s.core_mut(0).restore_thread(logical, regs, pc, now);
    }

    fn install_image(&mut self, _s: &mut Substrate, logical: usize, image: &MemImage) {
        *self.env.image_mut(0, logical) = image.clone();
    }

    fn warm(&mut self, s: &mut Substrate, _logical: usize, ev: WarmEvent) {
        match ev {
            WarmEvent::IFetch { addr } => s.warm_ifetch(0, addr),
            WarmEvent::Load { addr } => s.warm_dload(0, addr),
            WarmEvent::Store { addr } => s.warm_store(0, addr),
            WarmEvent::Branch { pc, taken } => s.core_mut(0).warm_direction(pc, taken),
            WarmEvent::Jump { pc, target } => s.core_mut(0).warm_jump_target(pc, target),
        }
    }

    fn lead_location(&self, logical: usize) -> (usize, usize) {
        (0, logical)
    }
}

// ====================================================================
// Loosely-coupled redundant multithreading (SRT / CRT / ring)
// ====================================================================

/// Where a redundant pair's two copies run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// Both copies share one SMT core — the paper's SRT (§4).
    Smt,
    /// Two cores; the leading threads of the first half of the programs
    /// run opposite the trailing threads of the second half (Figure 5) —
    /// the paper's CRT (§5).
    CrossCoupled,
    /// `k` cores in a ring: program `i` leads on core `i % k` and trails
    /// on core `(i + 1) % k`, so every core runs one leading and one
    /// trailing thread of *different* programs — CRT's cross-coupling
    /// argument scaled beyond two cores.
    Ring(usize),
}

impl Topology {
    /// The placement `spec`'s kind calls for (see [`Machine::redundant`]).
    fn for_spec(spec: &MachineSpec) -> Self {
        match spec.scheme.kind {
            DeviceKind::Srt | DeviceKind::SrtPtsq | DeviceKind::SrtNosc | DeviceKind::SrtNoPsr => {
                Topology::Smt
            }
            DeviceKind::Crt => Topology::CrossCoupled,
            DeviceKind::CrtRing4 => Topology::Ring(spec.scheme.ring),
            kind => panic!("{kind} does not run redundant thread pairs"),
        }
    }

    /// Number of cores the topology occupies.
    pub fn num_cores(self) -> usize {
        match self {
            Topology::Smt => 1,
            Topology::CrossCoupled => 2,
            Topology::Ring(k) => k,
        }
    }

    /// `(lead_core, trail_core)` for logical thread `i` of `n`.
    fn place(self, i: usize, n: usize) -> (usize, usize) {
        match self {
            Topology::Smt => (0, 0),
            Topology::CrossCoupled => {
                // Leading threads: first half on core 0, second on core 1.
                let lead = usize::from(i >= n.div_ceil(2));
                (lead, 1 - lead)
            }
            Topology::Ring(k) => (i % k, (i + 1) % k),
        }
    }
}

/// The SRT/CRT mechanism set: redundant leading/trailing pairs coupled
/// through an [`RmtEnv`] (LVQ, LPQ, store comparator, PSR), with thread
/// placement decided by a [`Topology`].
pub struct RmtScheme {
    pub(crate) env: RmtEnv,
    pub(crate) placement: Vec<PairPlacement>,
}

impl RmtScheme {
    /// Builds the cores and scheme for `topo`. The caller wraps the cores
    /// in a shared-hierarchy [`Substrate`].
    pub(crate) fn build(
        spec: &MachineSpec,
        threads: &[LogicalThread],
        topo: Topology,
    ) -> (Vec<Core>, RmtScheme) {
        let n = threads.len();
        assert!(
            n <= spec.max_programs(),
            "each redundant pair needs two hardware contexts"
        );
        match topo {
            Topology::Smt => {}
            Topology::CrossCoupled => assert!(n >= 1, "need at least one logical thread"),
            Topology::Ring(k) => assert!(k >= 2, "a ring needs at least two cores"),
        }
        let mut env = RmtEnv::new(spec.env, threads.iter().map(|t| t.memory.clone()).collect());
        let mut cores: Vec<Core> = (0..topo.num_cores())
            .map(|c| Core::new(spec.core.clone(), c))
            .collect();
        let mut placement = Vec::new();
        for (i, t) in threads.iter().enumerate() {
            let (lead_core, trail_core) = topo.place(i, n);
            let lead_tid = cores[lead_core].attach_thread_with_role(
                t.program.clone(),
                0,
                ThreadRole::Leading(i),
            );
            let trail_tid = cores[trail_core].attach_thread_with_role(
                t.program.clone(),
                0,
                ThreadRole::Trailing(i),
            );
            env.map_thread(lead_core, lead_tid, i);
            env.map_thread(trail_core, trail_tid, i);
            placement.push(PairPlacement {
                lead_core,
                lead_tid,
                trail_core,
                trail_tid,
            });
        }
        for core in &mut cores {
            core.finalize_partitions();
        }
        (cores, RmtScheme { env, placement })
    }

    /// The RMT environment (queues, comparator, PSR statistics).
    pub fn env(&self) -> &RmtEnv {
        &self.env
    }

    /// Mutable environment access (LVQ fault injection).
    pub fn env_mut(&mut self) -> &mut RmtEnv {
        &mut self.env
    }

    /// Placement of logical thread `i`.
    pub fn placement(&self, i: usize) -> PairPlacement {
        self.placement[i]
    }
}

impl Machine<RmtScheme> {
    /// Assembles a redundant machine over a shared memory hierarchy. The
    /// spec's kind decides the thread placement: [`Topology::Smt`] for the
    /// SRT kinds, [`Topology::CrossCoupled`] for CRT, and a
    /// `spec.scheme.ring`-core [`Topology::Ring`] for the CRT ring.
    ///
    /// # Panics
    ///
    /// Panics if the kind does not run redundant pairs or the threads do
    /// not fit the topology's hardware contexts.
    pub fn redundant(spec: &MachineSpec, threads: Vec<LogicalThread>) -> Self {
        let (cores, scheme) = RmtScheme::build(spec, &threads, Topology::for_spec(spec));
        Machine::assemble(Substrate::shared(cores, spec.hierarchy), scheme)
    }
}

impl RedundancyScheme for RmtScheme {
    fn tick(&mut self, s: &mut Substrate) {
        for c in 0..s.num_cores() {
            s.tick_core(c, &mut self.env);
        }
        s.tick_hier(0);
        self.env.sample_occupancy();
        s.advance();
    }

    fn num_logical(&self, _s: &Substrate) -> usize {
        self.placement.len()
    }

    fn committed(&self, s: &Substrate, logical: usize) -> u64 {
        let p = self.placement[logical];
        s.core(p.lead_core).thread_stats(p.lead_tid).committed
    }

    fn export_metrics(&self, s: &Substrate, reg: &mut MetricsRegistry) {
        s.export_cores(reg);
        self.env.export_metrics(reg, "rmt");
    }

    fn image<'a>(&'a self, _s: &'a Substrate, logical: usize) -> &'a MemImage {
        &self.env.pair(logical).image
    }

    fn restore_arch(
        &mut self,
        s: &mut Substrate,
        logical: usize,
        regs: &[u64; NUM_ARCH_REGS],
        pc: u64,
    ) {
        let p = self.placement[logical];
        let now = s.cycle();
        s.core_mut(p.lead_core)
            .restore_thread(p.lead_tid, regs, pc, now);
        s.core_mut(p.trail_core)
            .restore_thread(p.trail_tid, regs, pc, now);
    }

    fn install_image(&mut self, _s: &mut Substrate, logical: usize, image: &MemImage) {
        // A pristine pair around the new memory: the LVQ/LPQ/comparator
        // entries were produced against the discarded epoch.
        self.env.reset_pair(logical, image.clone());
    }

    fn warm(&mut self, s: &mut Substrate, logical: usize, ev: WarmEvent) {
        let p = self.placement[logical];
        match ev {
            // Both copies fetch instructions; data and control residue only
            // matters on the leading copy (the trailing thread loads via
            // the LVQ and fetches down the LPQ-predicted committed path).
            WarmEvent::IFetch { addr } => {
                s.warm_ifetch(p.lead_core, addr);
                if p.trail_core != p.lead_core {
                    s.warm_ifetch(p.trail_core, addr);
                }
            }
            WarmEvent::Load { addr } => s.warm_dload(p.lead_core, addr),
            WarmEvent::Store { addr } => s.warm_store(p.lead_core, addr),
            WarmEvent::Branch { pc, taken } => s.core_mut(p.lead_core).warm_direction(pc, taken),
            WarmEvent::Jump { pc, target } => s.core_mut(p.lead_core).warm_jump_target(pc, target),
        }
    }

    fn lead_location(&self, logical: usize) -> (usize, usize) {
        let p = self.placement[logical];
        (p.lead_core, p.lead_tid)
    }
}

// ====================================================================
// Lockstep
// ====================================================================

/// One record in a lockstepped core's outbound store stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StoreRec {
    cycle: u64,
    tid: ThreadId,
    addr: u64,
    value: u64,
    bytes: u64,
}

/// Environment for one lockstepped core: private images plus store logging
/// for the checker.
struct LockstepEnv {
    images: Vec<MemImage>,
    log: VecDeque<StoreRec>,
    now: u64,
}

impl CoreEnv for LockstepEnv {
    fn read_mem(&mut self, _core: usize, tid: ThreadId, addr: u64, bytes: u64) -> u64 {
        self.images[tid].read(addr, bytes)
    }

    fn write_mem(&mut self, _core: usize, tid: ThreadId, addr: u64, value: u64, bytes: u64) {
        self.images[tid].write(addr, value, bytes);
        self.log.push_back(StoreRec {
            cycle: self.now,
            tid,
            addr,
            value,
            bytes,
        });
    }
}

/// The lockstep scheme: two cycle-synchronised cores whose released store
/// streams an output checker compares per-thread and in order. A content
/// difference is a detected fault; a stream stalling beyond the slack
/// window is a desynchronization (also a detection).
pub struct LockstepScheme {
    envs: [LockstepEnv; 2],
    num_logical: usize,
    desync_window: u64,
    checker_faults: Vec<DetectedFault>,
    compared_stores: u64,
    desynced: bool,
}

impl LockstepScheme {
    /// Stores compared (and matched or flagged) so far.
    pub fn compared_stores(&self) -> u64 {
        self.compared_stores
    }

    /// Whether the cores have desynchronized.
    pub fn desynced(&self) -> bool {
        self.desynced
    }

    /// The memory image of logical thread `logical` as seen by `core`.
    pub fn image_on(&self, core: usize, logical: usize) -> &MemImage {
        &self.envs[core].images[logical]
    }

    fn check_outputs(&mut self, cycle: u64) {
        // Compare matching heads of the two store streams.
        loop {
            let (a, b) = (self.envs[0].log.front(), self.envs[1].log.front());
            match (a, b) {
                (Some(x), Some(y)) => {
                    if x.tid != y.tid
                        || x.addr != y.addr
                        || x.value != y.value
                        || x.bytes != y.bytes
                    {
                        self.checker_faults.push(DetectedFault {
                            cycle,
                            tid: x.tid,
                            kind: FaultDetector::StoreMismatch,
                        });
                    }
                    self.compared_stores += 1;
                    self.envs[0].log.pop_front();
                    self.envs[1].log.pop_front();
                }
                (Some(x), None) | (None, Some(x)) => {
                    // One stream is ahead; tolerate brief skew (the paper
                    // notes checkers absorb minor synchronization slips),
                    // flag a desync beyond the window.
                    if cycle.saturating_sub(x.cycle) > self.desync_window && !self.desynced {
                        self.desynced = true;
                        self.checker_faults.push(DetectedFault {
                            cycle,
                            tid: x.tid,
                            kind: FaultDetector::StoreMismatch,
                        });
                    }
                    break;
                }
                (None, None) => break,
            }
        }
    }
}

impl Machine<LockstepScheme> {
    /// Assembles a lockstepped machine running the given logical threads
    /// on both cores, behind a checker with `spec.scheme`'s latency (0 =
    /// the paper's Lock0, 8 = Lock8) and desynchronization window. The
    /// checker latency overrides the hierarchy's `checker_penalty` and the
    /// core's `store_release_delay`.
    ///
    /// # Panics
    ///
    /// Panics if more threads are supplied than one core's contexts.
    pub fn lockstep(spec: &MachineSpec, threads: Vec<LogicalThread>) -> Self {
        assert!(
            threads.len() <= spec.max_programs(),
            "too many logical threads for one core"
        );
        let checker_latency = spec.scheme.checker_latency;
        let mut hier_cfg = spec.hierarchy;
        hier_cfg.checker_penalty = checker_latency;
        let mut core_cfg = spec.core.clone();
        // Every output signal crosses the checker — stores included (§5).
        core_cfg.store_release_delay = checker_latency;
        let build_env = || LockstepEnv {
            images: threads.iter().map(|t| t.memory.clone()).collect(),
            log: VecDeque::new(),
            now: 0,
        };
        // Each core owns a private single-core hierarchy, so both use local
        // core index 0 for cache accesses.
        let mut cores = vec![Core::new(core_cfg.clone(), 0), Core::new(core_cfg, 0)];
        for core in &mut cores {
            for t in &threads {
                core.attach_thread(t.program.clone(), 0);
            }
            core.finalize_partitions();
        }
        Machine::assemble(
            Substrate::private(cores, hier_cfg),
            LockstepScheme {
                envs: [build_env(), build_env()],
                num_logical: threads.len(),
                desync_window: spec.scheme.desync_window,
                checker_faults: Vec::new(),
                compared_stores: 0,
                desynced: false,
            },
        )
    }
}

impl RedundancyScheme for LockstepScheme {
    fn tick(&mut self, s: &mut Substrate) {
        for i in 0..2 {
            self.envs[i].now = s.cycle();
            s.tick_core(i, &mut self.envs[i]);
            s.tick_hier(i);
        }
        self.check_outputs(s.cycle());
        s.advance();
    }

    fn num_logical(&self, _s: &Substrate) -> usize {
        self.num_logical
    }

    fn committed(&self, s: &Substrate, logical: usize) -> u64 {
        s.core(0).thread_stats(logical).committed
    }

    fn drain_detected_faults(&mut self, s: &mut Substrate) -> Vec<DetectedFault> {
        let mut out = std::mem::take(&mut self.checker_faults);
        out.extend(s.drain_detected_faults());
        out
    }

    fn export_metrics(&self, s: &Substrate, reg: &mut MetricsRegistry) {
        s.export_cores(reg);
        reg.counter("checker/compared_stores", self.compared_stores);
        reg.counter("checker/desynced", u64::from(self.desynced));
    }

    fn image<'a>(&'a self, _s: &'a Substrate, logical: usize) -> &'a MemImage {
        &self.envs[0].images[logical]
    }

    fn restore_arch(
        &mut self,
        s: &mut Substrate,
        logical: usize,
        regs: &[u64; NUM_ARCH_REGS],
        pc: u64,
    ) {
        let now = s.cycle();
        s.core_mut(0).restore_thread(logical, regs, pc, now);
        s.core_mut(1).restore_thread(logical, regs, pc, now);
    }

    fn install_image(&mut self, _s: &mut Substrate, logical: usize, image: &MemImage) {
        // Both private copies move to the new memory together; in-flight
        // checker comparisons belong to the discarded epoch.
        for env in &mut self.envs {
            env.images[logical] = image.clone();
            env.log.clear();
        }
    }

    fn warm(&mut self, s: &mut Substrate, _logical: usize, ev: WarmEvent) {
        // Lockstepped cores see identical request streams: warm both.
        for c in 0..2 {
            match ev {
                WarmEvent::IFetch { addr } => s.warm_ifetch(c, addr),
                WarmEvent::Load { addr } => s.warm_dload(c, addr),
                WarmEvent::Store { addr } => s.warm_store(c, addr),
                WarmEvent::Branch { pc, taken } => s.core_mut(c).warm_direction(pc, taken),
                WarmEvent::Jump { pc, target } => s.core_mut(c).warm_jump_target(pc, target),
            }
        }
    }

    fn lead_location(&self, logical: usize) -> (usize, usize) {
        // Commits are measured on core 0; core 1 mirrors it in lockstep.
        (0, logical)
    }
}
