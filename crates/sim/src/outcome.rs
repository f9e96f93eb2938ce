//! Experiment outcomes: run results, per-thread outcomes and the error
//! types of [`Experiment`](crate::experiment::Experiment) runs.

use crate::experiment::DeviceKind;
use rmt_stats::{Json, MetricsSnapshot, TimeSeries};
use rmt_workloads::Benchmark;
use std::fmt;

/// Errors from [`Experiment::run`](crate::experiment::Experiment::run).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The measurement did not finish within the cycle budget.
    Timeout {
        /// Cycles simulated before giving up.
        cycles: u64,
    },
    /// No benchmarks were supplied.
    NoBenchmarks,
    /// `(warmup + measure) * max_cycle_factor` does not fit in a `u64`.
    BudgetOverflow,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Timeout { cycles } => {
                write!(f, "simulation exceeded its cycle budget ({cycles})")
            }
            SimError::NoBenchmarks => write!(f, "experiment has no benchmarks"),
            SimError::BudgetOverflow => {
                write!(
                    f,
                    "(warmup + measure) * max_cycle_factor overflows the cycle budget"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Errors from
/// [`Experiment::run_verified`](crate::experiment::Experiment::run_verified):
/// either the simulation itself failed, or the device's commit stream
/// disagreed with the reference interpreter.
#[derive(Debug)]
pub enum VerifyError {
    /// The underlying simulation failed.
    Sim(SimError),
    /// The device committed state the ISA reference model disagrees with.
    Divergence(Box<rmt_verify::Divergence>),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Sim(e) => e.fmt(f),
            VerifyError::Divergence(d) => d.fmt(f),
        }
    }
}

impl std::error::Error for VerifyError {}

/// A [`RunResult`] whose every commit was cross-checked by the
/// co-simulation oracle.
#[derive(Debug, Clone)]
pub struct VerifiedRun {
    /// The ordinary run result.
    pub result: RunResult,
    /// Commits the oracle cross-checked (warmup included — the oracle is
    /// attached from cycle 0).
    pub commits_checked: u64,
}

/// Per-logical-thread outcome of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadOutcome {
    /// The benchmark this thread ran.
    pub benchmark: Benchmark,
    /// Instructions committed in the measured interval.
    pub committed: u64,
    /// Cycles in the measured interval (shared across threads).
    pub cycles: u64,
}

impl ThreadOutcome {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }
}

/// The result of one experiment run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Machine kind.
    pub kind: DeviceKind,
    /// Cycles in the measured interval.
    pub cycles: u64,
    /// Per-logical-thread outcomes.
    pub per_thread: Vec<ThreadOutcome>,
    /// Faults detected during measurement (0 in fault-free runs).
    pub faults_detected: usize,
    /// Whole-run metric snapshot exported by the device at the end of the
    /// run (cycle accounting, occupancy, RMT queue statistics).
    pub metrics: MetricsSnapshot,
    /// Per-epoch metric deltas sampled every
    /// [`Experiment::epoch`](crate::experiment::Experiment::epoch) cycles
    /// (empty unless the builder enabled sampling). Cycle-aligned, so it
    /// is bitwise identical at any `--jobs` level.
    pub timeseries: TimeSeries,
    /// The resolved [`MachineSpec`](rmt_core::spec::MachineSpec) this run
    /// was built from, as its six-section JSON document — every result
    /// carries the full machine description needed to reproduce it.
    pub config: Json,
}

impl RunResult {
    /// IPC of logical thread `i` over the measured interval.
    pub fn ipc(&self, i: usize) -> f64 {
        self.per_thread[i].ipc()
    }

    /// Total committed instructions across threads.
    pub fn total_committed(&self) -> u64 {
        self.per_thread.iter().map(|t| t.committed).sum()
    }

    /// Faults detected during the measured interval.
    pub fn faults_detected(&self) -> usize {
        self.faults_detected
    }
}
