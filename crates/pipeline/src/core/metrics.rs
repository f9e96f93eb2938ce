//! Observation surface of the core: statistics and configuration
//! accessors, metric-registry export, predictor warmup, and event
//! tracing.

use crate::config::{CoreConfig, ThreadId, ThreadRole};
use crate::core::{Core, IssueSlots, ThreadStats};
use crate::trace::{TraceKind, Tracer};
use rmt_predict::{BranchPredictor, LinePredictor};
use rmt_stats::{CounterSet, Histogram, MetricsRegistry};

impl Core {
    /// The core's id within its device.
    pub fn core_id(&self) -> usize {
        self.core_id
    }

    /// The configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Number of active threads.
    pub fn active_threads(&self) -> usize {
        self.threads.iter().filter(|t| t.active).count()
    }

    /// The role of thread `tid`.
    pub fn thread_role(&self, tid: ThreadId) -> ThreadRole {
        self.threads[tid].role
    }

    /// Whether every active thread has halted.
    pub fn all_halted(&self) -> bool {
        self.threads.iter().filter(|t| t.active).all(|t| t.halted)
    }

    /// Summary statistics of thread `tid`.
    pub fn thread_stats(&self, tid: ThreadId) -> ThreadStats {
        let t = &self.threads[tid];
        ThreadStats {
            committed: t.committed,
            squashes: t.squashes,
            loads: t.loads_committed,
            stores: t.stores_committed,
        }
    }

    /// Core-wide event counters: every event that happened, by name.
    pub fn stats(&self) -> CounterSet {
        CounterSet::nonzero(self.stats.nonzero())
    }

    /// One core-wide event count, by its [`Core::stats`] name (0 if the
    /// event never happened), read without building the counter set.
    pub fn stat(&self, name: &str) -> u64 {
        self.stats.get(name)
    }

    /// Issue-slot accounting totals (see [`IssueSlots`]).
    pub fn issue_slots(&self) -> IssueSlots {
        self.slots
    }

    /// Cycles this core has been ticked.
    pub fn cycles(&self) -> u64 {
        self.slots.cycles
    }

    /// Exports the core's counters, issue-slot accounting, occupancy
    /// distributions, and per-thread statistics into `reg` under
    /// `prefix` (e.g. `core0/slots/issued`, `core0/thread1/committed`).
    pub fn export_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        reg.counter(&format!("{prefix}/cycles"), self.slots.cycles);
        let s = self.slots;
        for (name, v) in [
            ("issued", s.issued),
            ("window_empty", s.window_empty),
            ("data_wait", s.data_wait),
            ("structural_fu", s.structural_fu),
            ("structural_iq_half", s.structural_iq_half),
            ("squash_recovery", s.squash_recovery),
            ("sphere_wait", s.sphere_wait),
        ] {
            reg.counter(&format!("{prefix}/slots/{name}"), v);
        }
        for (name, v) in self.stats.nonzero() {
            reg.counter(&format!("{prefix}/events/{name}"), v);
        }
        // Only present when tracing is on, so untraced runs (and their
        // goldens) keep an unchanged metric-name schema.
        if let Some(t) = &self.tracer {
            reg.counter(&format!("{prefix}/trace/dropped"), t.dropped());
        }
        reg.histogram(&format!("{prefix}/occupancy/iq_half0"), &self.occ_iq[0]);
        reg.histogram(&format!("{prefix}/occupancy/iq_half1"), &self.occ_iq[1]);
        reg.histogram(&format!("{prefix}/occupancy/lq"), &self.occ_lq);
        reg.histogram(&format!("{prefix}/occupancy/sq"), &self.occ_sq);
        reg.histogram(&format!("{prefix}/occupancy/rmb"), &self.occ_rmb);
        for (tid, t) in self.threads.iter().enumerate().filter(|(_, t)| t.active) {
            let p = format!("{prefix}/thread{tid}");
            reg.counter(&format!("{p}/committed"), t.committed);
            reg.counter(&format!("{p}/squashes"), t.squashes);
            reg.counter(&format!("{p}/loads"), t.loads_committed);
            reg.counter(&format!("{p}/stores"), t.stores_committed);
            reg.counter(&format!("{p}/lead_retire_nacks"), t.lead_retire_nacks);
            reg.histogram(&format!("{p}/sq_lifetime"), &t.sq_lifetime);
        }
    }

    /// The line predictor (misfetch-rate statistics).
    pub fn line_predictor(&self) -> &LinePredictor {
        &self.line_pred
    }

    /// The branch predictor (misprediction-rate statistics).
    pub fn branch_predictor(&self) -> &BranchPredictor {
        &self.branch_pred
    }

    /// Functionally warms the direction predictor with a resolved branch
    /// outcome (sampled-simulation warmup; no counters move).
    pub fn warm_direction(&mut self, pc: u64, taken: bool) {
        self.branch_pred.warm_direction(pc, taken);
    }

    /// Functionally warms the jump-target table (sampled-simulation
    /// warmup; no counters move).
    pub fn warm_jump_target(&mut self, pc: u64, target: u64) {
        self.branch_pred.warm_jump_target(pc, target);
    }

    /// The store-lifetime histogram of thread `tid` (§7.1's store-queue
    /// occupancy analysis).
    pub fn store_lifetime(&self, tid: ThreadId) -> &Histogram {
        &self.threads[tid].sq_lifetime
    }

    /// Store-queue occupancy of thread `tid` right now.
    pub fn sq_occupancy(&self, tid: ThreadId) -> usize {
        self.threads[tid].sq.len()
    }

    /// Times leading-thread retirement was NACKed by a full LVQ/LPQ.
    pub fn lead_retire_nacks(&self, tid: ThreadId) -> u64 {
        self.threads[tid].lead_retire_nacks
    }

    /// Enables pipeline event tracing with a ring of `capacity` events
    /// (see [`crate::trace`]).
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.tracer = Some(Tracer::new(capacity));
    }

    /// The tracer, if tracing is enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Mutable access to the tracer (e.g. [`Tracer::clear`] between
    /// measurement windows).
    pub fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        self.tracer.as_mut()
    }

    /// Records a trace event when tracing is enabled (internal hook).
    pub(crate) fn trace(&mut self, cycle: u64, tid: ThreadId, pc: u64, kind: TraceKind) {
        if let Some(t) = &mut self.tracer {
            t.record(cycle, tid, pc, kind);
        }
    }
}
