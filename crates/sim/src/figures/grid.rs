//! Efficiency tables as plans: benchmark-mix rows × [`Variant`] columns
//! (a labelled [`MachineSpec`] with a cycle budget), run by [`eff_grid`]
//! as a [`ClusterPlan::grid`] — row-major with the variant innermost, the
//! job order every `--jobs` golden was recorded under — through
//! [`run_grid`], the executor and efficiency fold the sweeps use.
//! Figures that read other metrics than an efficiency run a list of
//! single-benchmark cells through [`run_cells`] and fold their
//! [`RunResult`]s.

use super::{FigureCtx, FigureResult, SimScale};
use crate::experiment::{DeviceKind, RunResult};
use crate::service::{run_grid, ClusterPlan, GridColumn, RunRequest, RUN_MAX_CYCLE_FACTOR};
use rmt_core::MachineSpec;
use rmt_stats::metrics::mean;
use rmt_stats::table::fmt3;
use rmt_stats::{Json, MetricsSnapshot, Table, TimeSeries};
use rmt_workloads::mix::mix_name;
use rmt_workloads::Benchmark;
use std::collections::{BTreeMap, HashMap};

/// One column of an efficiency grid: which machine to build and how to
/// label the cell's metric snapshot.
pub(crate) struct Variant {
    /// The machine the cell's experiment constructs (before the
    /// context's CLI overrides).
    pub spec: MachineSpec,
    /// Metric-snapshot key suffix (`"mix/label"`).
    pub label: String,
    /// Cycle-budget multiplier (slow configurations get more).
    pub max_cycle_factor: u64,
}

impl Variant {
    /// A plain column: the kind's default spec at the default cycle
    /// budget, labelled by the kind's name.
    pub fn plain(kind: DeviceKind) -> Self {
        Variant {
            spec: MachineSpec::for_kind(kind),
            label: kind.name().to_string(),
            max_cycle_factor: RUN_MAX_CYCLE_FACTOR,
        }
    }
}

/// A grid's output: efficiencies per row, the Base IPCs they divide by,
/// and each cell's metric snapshot and time series keyed `"mix/label"`.
pub(crate) struct GridOut {
    /// SMT efficiencies, `effs[row][variant]`.
    pub effs: Vec<Vec<f64>>,
    /// The single-thread Base IPC of each benchmark in the grid.
    pub base_ipc: HashMap<Benchmark, f64>,
    /// Whole-run metric snapshot per cell.
    pub metrics: BTreeMap<String, MetricsSnapshot>,
    /// Per-epoch metric deltas per cell (empty when sampling is off).
    pub timeseries: BTreeMap<String, TimeSeries>,
}

/// Runs `rows × variants` as one plan on the context's runner, the
/// context's overrides replayed onto every machine, denominators included.
///
/// # Panics
///
/// If a cell's simulation fails (it exceeds its cycle budget).
pub(crate) fn eff_grid(
    ctx: &FigureCtx,
    scale: SimScale,
    rows: &[Vec<Benchmark>],
    variants: &[Variant],
) -> GridOut {
    // CLI overrides land after the variant's own edits: the CLI wins.
    let cols: Vec<GridColumn> = variants
        .iter()
        .map(|v| {
            let mut spec = v.spec.clone();
            ctx.apply(&mut spec);
            GridColumn {
                spec,
                max_cycle_factor: v.max_cycle_factor,
            }
        })
        .collect();
    let plan = ClusterPlan::grid(rows, &cols, &ctx.overrides, scale, ctx.epoch.unwrap_or(0));
    let run = run_grid(&plan, &ctx.runner).unwrap_or_else(|e| panic!("{e}"));
    let k = variants.len();
    let mut effs: Vec<Vec<f64>> = vec![Vec::with_capacity(k); rows.len()];
    let mut metrics = BTreeMap::new();
    let mut timeseries = BTreeMap::new();
    for (i, (eff, snap, series)) in run.cells.into_iter().enumerate() {
        let (row, col) = (i / k, i % k);
        effs[row].push(eff);
        let key = format!("{}/{}", mix_name(&rows[row]), variants[col].label);
        if !series.is_empty() {
            timeseries.insert(key.clone(), series);
        }
        metrics.insert(key, snap);
    }
    GridOut {
        effs,
        base_ipc: run.base_ipc,
        metrics,
        timeseries,
    }
}

/// Runs one [`RunRequest`] per `(spec, benchmark)` cell at `scale` and
/// `max_cycle_factor` on the context's runner, one job per cell, the
/// context's overrides replayed onto every spec and epoch sampling off.
/// Each cell's cycles are credited to the runner, as [`run_grid`] does.
/// Results come back in cell order.
///
/// # Panics
///
/// If a cell's simulation fails (it exceeds its cycle budget).
pub(crate) fn run_cells(
    ctx: &FigureCtx,
    scale: SimScale,
    cells: &[(MachineSpec, Benchmark)],
    max_cycle_factor: u64,
) -> Vec<RunResult> {
    ctx.runner.run(cells.len(), |i| {
        let (spec, bench) = &cells[i];
        let mut spec = spec.clone();
        ctx.apply(&mut spec);
        let request = RunRequest {
            spec,
            benches: vec![*bench],
            scale,
            epoch: 0,
            max_cycle_factor,
        };
        let r = request.run(None).unwrap_or_else(|e| panic!("{bench}: {e}"));
        ctx.runner.add_sim_cycles(r.cycles);
        r
    })
}

/// A one-axis sweep figure: single-benchmark rows × one variant per
/// value of key `path` (`kind`'s default spec with the key set, at
/// `max_cycle_factor`), tabulated one column per value with the column
/// means in the summary as `eff_{label}{value}` (label lowercased) and
/// metric snapshots keyed `"bench/label=value"`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_figure(
    ctx: &FigureCtx,
    scale: SimScale,
    benches: &[Benchmark],
    kind: DeviceKind,
    path: &str,
    label: &str,
    values: &[u64],
    max_cycle_factor: u64,
) -> FigureResult {
    let rows: Vec<Vec<Benchmark>> = benches.iter().map(|&b| vec![b]).collect();
    let variants: Vec<Variant> = values
        .iter()
        .map(|&v| {
            let mut spec = MachineSpec::for_kind(kind);
            spec.set(path, Json::U64(v)).expect("a sweepable key path");
            Variant {
                spec,
                label: format!("{label}={v}"),
                max_cycle_factor,
            }
        })
        .collect();
    let grid = eff_grid(ctx, scale, &rows, &variants);
    let mut cols: Vec<String> = vec!["benchmark".into()];
    cols.extend(variants.iter().map(|v| v.label.clone()));
    let mut t = Table::new(cols);
    for (b, row) in benches.iter().zip(&grid.effs) {
        t.row(eff_row(b.name().into(), row));
    }
    let prefix = format!("eff_{}", label.to_lowercase());
    let summary = values
        .iter()
        .zip(grid.means())
        .map(|(v, m)| (format!("{prefix}{v}"), m))
        .collect();
    FigureResult {
        table: t,
        summary,
        metrics: grid.metrics,
        timeseries: grid.timeseries,
    }
}

/// A table row: `name`, then each value with three decimals.
pub(crate) fn eff_row(name: String, values: &[f64]) -> Vec<String> {
    std::iter::once(name)
        .chain(values.iter().map(|&v| fmt3(v)))
        .collect()
}

impl GridOut {
    /// Each column's mean over the rows, in row order.
    pub fn means(&self) -> Vec<f64> {
        let k = self.effs.first().map_or(0, Vec::len);
        (0..k)
            .map(|c| mean(&self.effs.iter().map(|row| row[c]).collect::<Vec<_>>()))
            .collect()
    }
}
