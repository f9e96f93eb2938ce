//! The aggregate JSON artifact: the cross-suite summary table.

use super::grid::grid_eff;
use super::{FigureCtx, FigureResult, SimScale};
use crate::experiment::DeviceKind;
use rmt_stats::metrics::mean;
use rmt_stats::table::fmt3;
use rmt_stats::Table;
use rmt_workloads::Benchmark;
use std::collections::BTreeMap;

/// Cross-suite summary for the aggregate JSON report: per-benchmark base
/// IPC next to the single-thread SRT and CRT efficiencies, with every
/// run's metric snapshot attached.
pub fn suite_summary(ctx: &FigureCtx, scale: SimScale, benches: &[Benchmark]) -> FigureResult {
    let kinds = [DeviceKind::Srt, DeviceKind::Crt];
    let rows: Vec<Vec<Benchmark>> = benches.iter().map(|&b| vec![b]).collect();
    let grid = grid_eff(ctx, scale, &rows, &kinds);

    let mut t = Table::with_columns(&["benchmark", "base IPC", "SRT eff", "CRT eff"]);
    let mut srt_col = Vec::new();
    let mut crt_col = Vec::new();
    let mut summary = BTreeMap::new();
    for (b, row) in benches.iter().zip(&grid.effs) {
        let ipc = ctx.base_ipc(*b, scale);
        srt_col.push(row[0]);
        crt_col.push(row[1]);
        summary.insert(format!("{}_base_ipc", b.name()), ipc);
        t.row(vec![b.name().into(), fmt3(ipc), fmt3(row[0]), fmt3(row[1])]);
    }
    t.row(vec![
        "average".into(),
        String::new(),
        fmt3(mean(&srt_col)),
        fmt3(mean(&crt_col)),
    ]);
    summary.insert("srt_mean_efficiency".into(), mean(&srt_col));
    summary.insert("crt_mean_efficiency".into(), mean(&crt_col));
    FigureResult {
        table: t,
        summary,
        metrics: grid.metrics,
        timeseries: grid.timeseries,
    }
}
