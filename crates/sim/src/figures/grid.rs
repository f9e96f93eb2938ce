//! The declarative experiment grid.
//!
//! Every efficiency figure is the same shape: a grid of benchmark-mix
//! rows × device-variant columns, one [`Experiment`] per cell, each
//! cell's SMT efficiency taken against the shared baseline cache. A
//! [`Variant`] names the column: a labelled [`MachineSpec`] (sweeps
//! express their parameter axis as one edited spec per value).
//!
//! [`eff_grid`] fans the cells across the runner row-major with the
//! variant index innermost — the job-index order every `--jobs`
//! invariance golden was recorded under, so it must not change.

use super::{FigureCtx, FigureResult, SimScale};
use crate::experiment::{DeviceKind, Experiment};
use rmt_core::MachineSpec;
use rmt_stats::metrics::{mean, smt_efficiency};
use rmt_stats::table::fmt3;
use rmt_stats::{MetricsSnapshot, Table, TimeSeries};
use rmt_workloads::mix::mix_name;
use rmt_workloads::Benchmark;
use std::collections::BTreeMap;

/// One column of an efficiency grid: which machine to build and how to
/// label the cell's metric snapshot.
pub(crate) struct Variant {
    /// The machine the cell's experiment constructs (before the
    /// context's CLI overrides).
    pub spec: MachineSpec,
    /// Metric-snapshot key suffix (`"mix/label"`).
    pub label: String,
    /// Cycle-budget multiplier override for slow configurations.
    pub max_cycle_factor: Option<u64>,
}

impl Variant {
    /// A plain column: the kind's default spec, labelled by the kind's
    /// name.
    pub fn plain(kind: DeviceKind) -> Self {
        Variant {
            spec: MachineSpec::for_kind(kind),
            label: kind.name().to_string(),
            max_cycle_factor: None,
        }
    }
}

/// One grid cell: run `variant` on `benches` and return the SMT
/// efficiency against the shared baselines plus the run's metrics.
fn eff_cell(
    ctx: &FigureCtx,
    variant: &Variant,
    benches: &[Benchmark],
    scale: SimScale,
) -> (f64, MetricsSnapshot, TimeSeries) {
    // CLI overrides land after the variant's own edits: the CLI wins.
    let mut spec = variant.spec.clone();
    ctx.apply(&mut spec);
    let kind = spec.kind();
    let mut e = Experiment::from_spec(spec)
        .benchmarks(benches)
        .seed(scale.seed)
        .warmup(scale.warmup)
        .measure(scale.measure);
    if let Some(factor) = variant.max_cycle_factor {
        e = e.max_cycle_factor(factor);
    }
    if let Some(every) = ctx.epoch {
        e = e.epoch(every);
    }
    let r = e
        .run()
        .unwrap_or_else(|e| panic!("{kind} on {benches:?} failed: {e}"));
    ctx.runner.add_sim_cycles(r.cycles);
    let pairs: Vec<(f64, f64)> = benches
        .iter()
        .enumerate()
        .map(|(i, &b)| (r.ipc(i), ctx.base_ipc(b, scale)))
        .collect();
    (smt_efficiency(&pairs), r.metrics, r.timeseries)
}

/// The gathered output of a grid fan-out: efficiencies grouped per row
/// (variant-major within a row) plus each cell's metric snapshot and —
/// when the context enables epoch sampling — its time series, both keyed
/// `"mix/label"`.
pub(crate) struct GridOut {
    /// SMT efficiencies, `effs[row][variant]`.
    pub effs: Vec<Vec<f64>>,
    /// Whole-run metric snapshot per cell.
    pub metrics: BTreeMap<String, MetricsSnapshot>,
    /// Per-epoch metric deltas per cell (empty when sampling is off).
    pub timeseries: BTreeMap<String, TimeSeries>,
}

/// Fans `rows × variants` efficiency cells across the runner — the access
/// pattern every per-benchmark figure table uses.
pub(crate) fn eff_grid(
    ctx: &FigureCtx,
    scale: SimScale,
    rows: &[Vec<Benchmark>],
    variants: &[Variant],
) -> GridOut {
    let k = variants.len();
    let flat = ctx.runner.run(rows.len() * k, |i| {
        eff_cell(ctx, &variants[i % k], &rows[i / k], scale)
    });
    let mut effs: Vec<Vec<f64>> = vec![Vec::with_capacity(k); rows.len()];
    let mut metrics = BTreeMap::new();
    let mut timeseries = BTreeMap::new();
    for (i, (eff, snap, series)) in flat.into_iter().enumerate() {
        let (r, c) = (i / k, i % k);
        effs[r].push(eff);
        let key = format!("{}/{}", mix_name(&rows[r]), variants[c].label);
        if !series.is_empty() {
            timeseries.insert(key.clone(), series);
        }
        metrics.insert(key, snap);
    }
    GridOut {
        effs,
        metrics,
        timeseries,
    }
}

/// A single efficiency point — [`eff_grid`] with one plain cell, for
/// drivers that interleave grid points with hand-rolled runs.
pub(crate) fn run_eff(
    ctx: &FigureCtx,
    kind: DeviceKind,
    benches: &[Benchmark],
    scale: SimScale,
) -> (f64, MetricsSnapshot, TimeSeries) {
    eff_cell(ctx, &Variant::plain(kind), benches, scale)
}

/// [`eff_grid`] over plain kind columns: `benches-mix rows × kinds`.
pub(crate) fn grid_eff(
    ctx: &FigureCtx,
    scale: SimScale,
    rows: &[Vec<Benchmark>],
    kinds: &[DeviceKind],
) -> GridOut {
    let variants: Vec<Variant> = kinds.iter().map(|&k| Variant::plain(k)).collect();
    eff_grid(ctx, scale, rows, &variants)
}

/// [`eff_grid`] over a parameter axis: single-benchmark rows × one
/// variant per parameter value (`kind`'s default spec edited by `edit`),
/// metric snapshots keyed `"bench/label=param"`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_eff<P: Copy + std::fmt::Display>(
    ctx: &FigureCtx,
    scale: SimScale,
    benches: &[Benchmark],
    kind: DeviceKind,
    params: &[P],
    param_label: &str,
    max_cycle_factor: u64,
    edit: impl Fn(&mut MachineSpec, P),
) -> GridOut {
    let rows: Vec<Vec<Benchmark>> = benches.iter().map(|&b| vec![b]).collect();
    let variants: Vec<Variant> = params
        .iter()
        .map(|&p| {
            let mut spec = MachineSpec::for_kind(kind);
            edit(&mut spec, p);
            Variant {
                spec,
                label: format!("{param_label}={p}"),
                max_cycle_factor: Some(max_cycle_factor),
            }
        })
        .collect();
    eff_grid(ctx, scale, &rows, &variants)
}

/// Renders a sweep's per-benchmark points as a table with one column per
/// parameter value and per-column means in the summary.
pub(crate) fn sweep_table<P: Copy + std::fmt::Display>(
    benches: &[Benchmark],
    params: &[P],
    param_label: &str,
    summary_prefix: &str,
    grid: GridOut,
) -> FigureResult {
    let per_bench = &grid.effs;
    let mut cols: Vec<String> = vec!["benchmark".into()];
    cols.extend(params.iter().map(|p| format!("{param_label}={p}")));
    let mut t = Table::new(cols);
    for (b, row) in benches.iter().zip(per_bench) {
        let mut cells = vec![b.name().to_string()];
        cells.extend(row.iter().map(|&e| fmt3(e)));
        t.row(cells);
    }
    let mut summary = BTreeMap::new();
    for (i, p) in params.iter().enumerate() {
        let col: Vec<f64> = per_bench.iter().map(|row| row[i]).collect();
        summary.insert(format!("{summary_prefix}{p}"), mean(&col));
    }
    FigureResult {
        table: t,
        summary,
        metrics: grid.metrics,
        timeseries: grid.timeseries,
    }
}
