//! Transient-fault **recovery** on top of SRT detection — the "recovery
//! sequence" the paper's introduction points to (§1: "the checker flags an
//! error and initiates a hardware or software recovery sequence").
//!
//! [`RecoveringScheme`] layers periodic *quiesced checkpoints* and
//! detection-triggered rollback-and-replay over an [`RmtScheme`]:
//!
//! 1. Every `checkpoint_interval` leading commits, fetch for the pair is
//!    paused and the machine drains: no in-flight instructions, store
//!    queues empty, comparator idle. At that instant the architectural
//!    state outside and inside the sphere is *verified* — every store that
//!    reached memory was compared — so the committed registers + memory
//!    image form a provably clean checkpoint.
//! 2. When any RMT mechanism detects a fault, both threads are squashed,
//!    their architectural registers and PC restored from the checkpoint,
//!    the pair's queues (LVQ/LPQ/comparator) reset, memory restored, and
//!    execution replays.
//!
//! The recovery policy is a [`RedundancyScheme`] in its own right: its
//! per-cycle `tick` re-enters the inner scheme's tick while draining a
//! pair to a quiescent point, which is exactly the composition the
//! scheme-drives-substrate inversion exists for.
//!
//! Coverage note (also in DESIGN.md): a corrupted register value that
//! crosses a checkpoint *before* influencing any store is baked into the
//! checkpoint; full pre-commit checking (SRTR, Vijaykumar et al. 2002)
//! closes that window. Within an epoch — the overwhelmingly common case
//! for the paper's detection latencies of tens-to-hundreds of cycles
//! against epochs of thousands of instructions — recovery is exact, which
//! the integration tests verify against the golden model.

use crate::device::LogicalThread;
use crate::machine::{Machine, RedundancyScheme, Substrate};
use crate::schemes::{RmtScheme, Topology};
use crate::spec::MachineSpec;
use rmt_isa::inst::NUM_ARCH_REGS;
use rmt_isa::mem_image::MemImage;
use rmt_pipeline::core::DetectedFault;
use rmt_pipeline::env::CoreEnv as _;

/// A clean, verified snapshot of one redundant pair.
#[derive(Clone)]
struct Checkpoint {
    regs: [u64; NUM_ARCH_REGS],
    pc: u64,
    memory: MemImage,
    /// Stores released up to this checkpoint (the leading thread's
    /// store-lifetime histogram count).
    releases: u64,
}

/// Checkpoint/rollback recovery layered over an inner [`RmtScheme`].
pub struct RecoveringScheme {
    inner: RmtScheme,
    interval: u64,
    /// Last clean checkpoint per pair.
    checkpoints: Vec<Checkpoint>,
    next_checkpoint_at: Vec<u64>,
    recoveries: u64,
    checkpoints_taken: u64,
    /// Released-store counter values rolled back by recoveries, per pair.
    discarded_releases: Vec<u64>,
    /// Cap on cycles spent draining for one checkpoint.
    quiesce_budget: u64,
}

impl RecoveringScheme {
    /// Drains pair `i` to a quiescent point and snapshots it.
    fn take_checkpoint(&mut self, s: &mut Substrate, i: usize) {
        let p = self.inner.placement(i);
        // Pause only the leading thread: the trailing thread must keep
        // consuming the line prediction queue to drain the pair.
        s.core_mut(p.lead_core).set_fetch_paused(p.lead_tid, true);
        let start = s.cycle();
        loop {
            let quiesced = s.core(p.lead_core).is_quiesced(p.lead_tid)
                && s.core(p.trail_core).is_quiesced(p.trail_tid)
                && self.inner.env().pair(i).comparator.pending() == 0
                && self.inner.env().pair(i).lvq.is_empty();
            if quiesced {
                break;
            }
            // The leading thread's final instructions may sit in the line
            // prediction queue's *open* chunk; flush it so the trailing
            // thread can finish consuming the stream.
            let now = s.cycle();
            self.inner
                .env_mut()
                .lead_retire_blocked(p.lead_core, p.lead_tid, now, i);
            self.inner.tick(s);
            assert!(
                s.cycle() - start < self.quiesce_budget,
                "pair {i} failed to quiesce for a checkpoint"
            );
        }
        let (regs, pc) = s.core(p.lead_core).snapshot_arch(p.lead_tid);
        // Sanity: once the trailing thread has consumed the whole line
        // prediction stream, a quiesced fault-free pair has identical
        // committed state. The trail may instead still hold unfetched LPQ
        // chunks — a store-free stretch the lead already retired (the lead
        // SQ is empty and the comparator idle, so every released store was
        // verified) — in which case only the lead state is snapshotted and
        // recovery restores both threads to it.
        debug_assert!(
            !self.inner.env().pair(i).lpq.is_empty()
                || pc == s.core(p.trail_core).snapshot_arch(p.trail_tid).1,
            "quiesced pair {i} with drained LPQ has diverged committed PCs"
        );
        self.checkpoints[i] = Checkpoint {
            regs,
            pc,
            memory: self.inner.env().pair(i).image.clone(),
            releases: s.core(p.lead_core).store_lifetime(p.lead_tid).count(),
        };
        self.checkpoints_taken += 1;
        s.core_mut(p.lead_core).set_fetch_paused(p.lead_tid, false);
        self.next_checkpoint_at[i] = self.inner.committed(s, i) + self.interval;
    }

    /// Rolls pair `i` back to its last checkpoint and replays.
    fn recover(&mut self, s: &mut Substrate, i: usize) {
        let p = self.inner.placement(i);
        let cp = self.checkpoints[i].clone();
        let now = s.cycle();
        // Releases since the checkpoint are undone by restoring its memory.
        self.discarded_releases[i] += s
            .core(p.lead_core)
            .store_lifetime(p.lead_tid)
            .count()
            .saturating_sub(cp.releases);
        // Clear any permanent-fault configuration the campaign may have
        // armed is the *caller's* business; recovery only restores state.
        self.inner.env_mut().reset_pair(i, cp.memory);
        s.core_mut(p.lead_core)
            .restore_thread(p.lead_tid, &cp.regs, cp.pc, now);
        s.core_mut(p.trail_core)
            .restore_thread(p.trail_tid, &cp.regs, cp.pc, now);
        self.recoveries += 1;
        // Replay will re-reach (and re-pass) the next checkpoint mark.
        self.next_checkpoint_at[i] = self.inner.committed(s, i) + self.interval;
    }
}

impl RedundancyScheme for RecoveringScheme {
    fn tick(&mut self, s: &mut Substrate) {
        self.inner.tick(s);
        // Detection triggers recovery for the affected pair(s).
        let faults = self.inner.drain_detected_faults(s);
        if !faults.is_empty() {
            let n = self.inner.num_logical(s);
            let mut hit: Vec<usize> = faults
                .iter()
                .filter_map(|f| {
                    (0..n).find(|&i| {
                        let p = self.inner.placement(i);
                        f.tid == p.lead_tid || f.tid == p.trail_tid
                    })
                })
                .collect();
            hit.sort_unstable();
            hit.dedup();
            for i in hit {
                self.recover(s, i);
            }
            return;
        }
        // Periodic checkpoints.
        for i in 0..self.inner.num_logical(s) {
            if self.inner.committed(s, i) >= self.next_checkpoint_at[i] {
                self.take_checkpoint(s, i);
            }
        }
    }

    fn num_logical(&self, s: &Substrate) -> usize {
        self.inner.num_logical(s)
    }

    fn committed(&self, s: &Substrate, logical: usize) -> u64 {
        self.inner.committed(s, logical)
    }

    fn drain_detected_faults(&mut self, _s: &mut Substrate) -> Vec<DetectedFault> {
        // Detections are consumed internally by recovery; report none.
        Vec::new()
    }

    fn export_metrics(&self, s: &Substrate, reg: &mut rmt_stats::MetricsRegistry) {
        self.inner.export_metrics(s, reg);
        reg.counter("recovery/checkpoints_taken", self.checkpoints_taken);
        reg.counter("recovery/recoveries", self.recoveries);
    }

    fn image<'a>(&'a self, s: &'a Substrate, logical: usize) -> &'a MemImage {
        self.inner.image(s, logical)
    }

    fn restore_arch(
        &mut self,
        s: &mut Substrate,
        logical: usize,
        regs: &[u64; NUM_ARCH_REGS],
        pc: u64,
    ) {
        self.inner.restore_arch(s, logical, regs, pc);
    }

    fn install_image(&mut self, s: &mut Substrate, logical: usize, image: &MemImage) {
        self.inner.install_image(s, logical, image);
    }

    fn warm(&mut self, s: &mut Substrate, logical: usize, ev: crate::machine::WarmEvent) {
        self.inner.warm(s, logical, ev);
    }

    fn lead_location(&self, logical: usize) -> (usize, usize) {
        self.inner.lead_location(logical)
    }
}

impl Machine<RecoveringScheme> {
    /// Assembles an SRT machine (SMT placement, whatever `spec`'s kind)
    /// with transient-fault recovery, checkpointing every
    /// `checkpoint_interval` leading commits.
    ///
    /// See `examples/fault_recovery.rs` and the integration tests in
    /// `tests/recovery_e2e.rs`.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoint_interval` is zero.
    pub fn recoverable(
        spec: &MachineSpec,
        threads: Vec<LogicalThread>,
        checkpoint_interval: u64,
    ) -> Self {
        assert!(
            checkpoint_interval > 0,
            "checkpoint interval must be non-zero"
        );
        let n = threads.len();
        // The initial state is trivially clean: checkpoint 0 is the entry
        // state with the initial memory image.
        let checkpoints = threads
            .iter()
            .map(|t| Checkpoint {
                regs: [0; NUM_ARCH_REGS],
                pc: 0,
                memory: t.memory.clone(),
                releases: 0,
            })
            .collect();
        let (cores, inner) = RmtScheme::build(spec, &threads, Topology::Smt);
        Machine::assemble(
            Substrate::shared(cores, spec.hierarchy),
            RecoveringScheme {
                inner,
                interval: checkpoint_interval,
                checkpoints,
                next_checkpoint_at: vec![checkpoint_interval; n],
                recoveries: 0,
                checkpoints_taken: 0,
                discarded_releases: vec![0; n],
                quiesce_budget: 200_000,
            },
        )
    }

    /// Recoveries performed so far.
    pub fn recoveries(&self) -> u64 {
        self.scheme().recoveries
    }

    /// Checkpoints taken so far (excluding the initial one).
    pub fn checkpoints_taken(&self) -> u64 {
        self.scheme().checkpoints_taken
    }

    /// Stores currently reflected in pair `i`'s memory image: total
    /// releases minus those undone by recoveries. This is the index to
    /// compare against the golden model's store stream.
    pub fn effective_releases(&self, i: usize) -> u64 {
        let p = self.scheme().inner.placement(i);
        self.substrate()
            .core(p.lead_core)
            .store_lifetime(p.lead_tid)
            .count()
            - self.scheme().discarded_releases[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::spec::DeviceKind;
    use rmt_workloads::{Benchmark, Workload};

    fn recoverable(threads: Vec<LogicalThread>, interval: u64) -> Machine<RecoveringScheme> {
        Machine::recoverable(
            &MachineSpec::for_kind(DeviceKind::SrtNoPsr),
            threads,
            interval,
        )
    }

    #[test]
    fn checkpoints_are_taken_fault_free() {
        let w = Workload::generate(Benchmark::M88ksim, 1);
        let mut dev = recoverable(vec![LogicalThread::from(&w)], 5_000);
        assert!(dev.run_until_committed(20_000, 20_000_000));
        assert!(dev.checkpoints_taken() >= 3, "{}", dev.checkpoints_taken());
        assert_eq!(dev.recoveries(), 0);
    }

    #[test]
    fn recovery_restores_forward_progress_after_corruption() {
        let w = Workload::generate(Benchmark::Compress, 1);
        let mut dev = recoverable(vec![LogicalThread::from(&w)], 4_000);
        assert!(dev.run_until_committed(6_000, 20_000_000));
        // Strike the store path: detection then recovery.
        dev.substrate_mut().core_mut(0).arm_sq_strike(0, 1 << 13);
        assert!(dev.run_until_committed(30_000, 60_000_000));
        assert_eq!(dev.recoveries(), 1);
    }

    #[test]
    #[should_panic(expected = "interval must be non-zero")]
    fn zero_interval_panics() {
        let w = Workload::generate(Benchmark::Li, 1);
        recoverable(vec![LogicalThread::from(&w)], 0);
    }
}
