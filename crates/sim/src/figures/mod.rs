//! One driver per reproduced table/figure.
//!
//! Every function returns a [`FigureResult`]: a printable table whose rows
//! mirror the paper's artifact, plus a machine-readable summary used by
//! tests and EXPERIMENTS.md. The `rmt-bench` binaries are thin wrappers
//! that print these.
//!
//! Each driver takes a [`FigureCtx`] and submits its independent data
//! points to the context's [`Runner`]: efficiency tables as
//! [`ClusterPlan`](crate::service::ClusterPlan) grids through the
//! executor the sweeps use (each Base denominator simulated once per
//! plan), other tables as lists of run cells whose
//! [`RunResult`](crate::RunResult)s they fold, and fault figures as one
//! job per injection. No driver builds a machine itself. Results are
//! gathered by job index, so a figure is **bitwise identical** at any
//! `--jobs` level (the determinism tests assert this).
//!
//! The module is organised by topic, with every driver re-exported flat
//! so callers keep writing `figures::fig6_srt_single`:
//!
//! * `grid` — efficiency tables as plans: benchmark-mix rows × device
//!   `Variant` columns (a labelled `MachineSpec`), one job per cell; and
//!   `run_cells`, the run requests of the tables that read other metrics.
//! * `machine` — Table 1 and Figure 2, read back from the live config.
//! * `sampling` — the sampled Figure 6 grid (SMARTS-style windows with
//!   paired Base denominators) and the sampled-vs-full error validation.
//! * `srt` — Figures 6–9: one-thread SRT, PSR, multi-thread SRT, stores.
//! * `crt` — Figures 10–12 (lockstep vs CRT) and the four-core CRT ring.
//! * `ablations` — sizing and policy sweeps.
//! * `workloads` — slack profiles and workload characterization.
//! * `faults` — fault-injection coverage and forensics.
//! * `suite` — the aggregate JSON artifact.
//!
//! The paper's runs are 15M instructions per program on a hardware-grade
//! simulator; ours default to smaller intervals (see [`SimScale`]) — the
//! *shape* of each result is the reproduction target, not absolute
//! magnitudes (DESIGN.md §5).

mod ablations;
mod crt;
mod faults;
mod grid;
mod machine;
mod sampling;
mod srt;
mod suite;
mod workloads;

pub use ablations::{
    abl_crt_delay, abl_fetch_policy, abl_lvq_size, abl_prefetch, abl_slack, abl_sq_size,
};
pub use crt::{fig10_crt_single, fig11_crt_two, fig12_crt_four, fig_ring4};
pub use faults::{fault_coverage, fault_forensics};
pub use machine::{fig2_pipeline, table1};
pub use sampling::{
    fig6_full_grid, fig6_sampled_grid, fig6_srt_single_sampled, sampling_validation, SampledGrid,
};
pub use srt::{fig6_srt_single, fig7_psr, fig8_srt_multi, fig9_storeq};
pub use suite::suite_summary;
pub use workloads::{slack_profile, workload_chars};

use crate::experiment::DeviceKind;
use crate::runner::Runner;
use crate::service::plan::replay;
use rmt_core::MachineSpec;
use rmt_stats::{Json, MetricsSnapshot, Table, TimeSeries};
use std::collections::BTreeMap;

/// How much simulation to spend per data point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimScale {
    /// Instructions committed per logical thread before measurement.
    pub warmup: u64,
    /// Instructions committed per logical thread in the measured interval.
    pub measure: u64,
    /// Workload seed.
    pub seed: u64,
}

impl SimScale {
    /// Small runs for CI (~seconds per figure). Caches and predictors are
    /// still partially cold at this scale; use it for shape checks, not
    /// recorded numbers.
    pub fn quick() -> Self {
        SimScale {
            warmup: 2_000,
            measure: 10_000,
            seed: 1,
        }
    }

    /// The default scale used by the figure binaries: long enough for the
    /// pointer-chase rings, predictors and caches to reach steady state.
    pub fn standard() -> Self {
        SimScale {
            warmup: 40_000,
            measure: 80_000,
            seed: 1,
        }
    }

    /// Long runs for the recorded EXPERIMENTS.md numbers.
    pub fn full() -> Self {
        SimScale {
            warmup: 60_000,
            measure: 150_000,
            seed: 1,
        }
    }

    /// The scale `name` (`quick`, `standard` or `full`) denotes.
    pub fn named(name: &str) -> Option<Self> {
        match name {
            "quick" => Some(Self::quick()),
            "standard" => Some(Self::standard()),
            "full" => Some(Self::full()),
            _ => None,
        }
    }
}

/// Shared execution context for a figure suite: the parallel [`Runner`]
/// plus the CLI's epoch and machine settings every driver honours.
#[derive(Debug, Default)]
pub struct FigureCtx {
    /// The job pool figures fan their data points across.
    pub runner: Runner,
    /// When set, every grid experiment samples its metric registry into
    /// per-epoch deltas at this cycle interval (the `--epoch` flag), and
    /// the figure's [`FigureResult::timeseries`] carries them.
    pub epoch: Option<u64>,
    /// Machine-spec key-path overrides (the `--set`/`--config` flags),
    /// replayed onto **every** machine a figure driver builds — grid
    /// cells, run cells, fault injections and the Base denominators —
    /// after the driver's own spec edits, so the CLI always has the last
    /// word. The `scheme.kind` path is skipped: the figure's columns own
    /// the device kind.
    pub overrides: Vec<(String, Json)>,
}

impl FigureCtx {
    /// A context with `jobs` worker threads.
    pub fn new(jobs: usize) -> Self {
        FigureCtx {
            runner: Runner::new(jobs),
            epoch: None,
            overrides: Vec::new(),
        }
    }

    /// Enables per-epoch time-series sampling on every grid experiment.
    pub fn with_epoch(mut self, every: u64) -> Self {
        self.epoch = Some(every);
        self
    }

    /// Installs machine-spec overrides to replay onto every experiment.
    pub fn with_overrides(mut self, overrides: Vec<(String, Json)>) -> Self {
        self.overrides = overrides;
        self
    }

    /// Replays this context's overrides onto one machine spec (after the
    /// driver's own edits — the CLI has the last word). Every machine a
    /// figure builds comes from a spec that went through here.
    ///
    /// # Panics
    ///
    /// On an unknown key path or ill-typed value (CLI layers validate
    /// overrides before installing them).
    pub fn apply(&self, spec: &mut MachineSpec) {
        replay(spec, &self.overrides);
    }

    /// `kind`'s default spec with this context's overrides applied.
    pub fn spec(&self, kind: DeviceKind) -> MachineSpec {
        let mut spec = MachineSpec::for_kind(kind);
        self.apply(&mut spec);
        spec
    }
}

/// A printable artifact plus machine-readable summary values.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureResult {
    /// The paper-style rows.
    pub table: Table,
    /// Named scalar results (averages, deltas) for tests and reports.
    pub summary: BTreeMap<String, f64>,
    /// Whole-run metric snapshots for the figure's experiments, keyed
    /// `"mix/variant"` (empty for drivers that do not run full
    /// [`Experiment`](crate::experiment::Experiment)s). Deterministic:
    /// part of the `--jobs` invariance the determinism tests assert.
    pub metrics: BTreeMap<String, MetricsSnapshot>,
    /// Per-epoch metric time series, keyed like [`FigureResult::metrics`].
    /// Empty unless the context enables [`FigureCtx::epoch`] (cycle-aligned
    /// sampling, so `--jobs`-invariant like everything else here).
    pub timeseries: BTreeMap<String, TimeSeries>,
}

impl FigureResult {
    /// A summary value by name.
    ///
    /// # Panics
    ///
    /// Panics if the key is absent (a test programming error).
    pub fn value(&self, key: &str) -> f64 {
        *self
            .summary
            .get(key)
            .unwrap_or_else(|| panic!("missing summary key `{key}`"))
    }
}
