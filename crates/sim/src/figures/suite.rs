//! The aggregate JSON artifact: the cross-suite summary table.

use super::grid::{eff_grid, Variant};
use super::{FigureCtx, FigureResult, SimScale};
use crate::experiment::DeviceKind;
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
    let grid = eff_grid(ctx, scale, &rows, &kinds.map(Variant::plain));

    let mut t = Table::with_columns(&["benchmark", "base IPC", "SRT eff", "CRT eff"]);
    let mut summary = BTreeMap::new();
    for (b, row) in benches.iter().zip(&grid.effs) {
        let ipc = grid.base_ipc[b];
        summary.insert(format!("{}_base_ipc", b.name()), ipc);
        t.row(vec![b.name().into(), fmt3(ipc), fmt3(row[0]), fmt3(row[1])]);
    }
    let m = grid.means();
    t.row(vec![
        "average".into(),
        String::new(),
        fmt3(m[0]),
        fmt3(m[1]),
    ]);
    summary.insert("srt_mean_efficiency".into(), m[0]);
    summary.insert("crt_mean_efficiency".into(), m[1]);
    FigureResult {
        table: t,
        summary,
        metrics: grid.metrics,
        timeseries: grid.timeseries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ProgressSink;
    use crate::service::plan::BASELINE_RUNS;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn one_job_per_cell_and_one_simulation_per_denominator() {
        // The job shape the benchmark harness times: two jobs per row
        // (SRT, CRT), the row's Base denominator simulated once inside
        // its first job and never as a job of its own.
        let benches = [Benchmark::M88ksim, Benchmark::Ijpeg, Benchmark::Li];
        let mut ctx = FigureCtx::new(1);
        let jobs = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&jobs);
        ctx.runner.set_hook(Some(ProgressSink::new(move |_, _| {
            counted.fetch_add(1, Ordering::Relaxed);
        })));
        let before = BASELINE_RUNS.with(|n| n.get());
        suite_summary(&ctx, SimScale::quick(), &benches);
        assert_eq!(jobs.load(Ordering::Relaxed), 2 * benches.len());
        // One worker runs every job on this thread.
        assert_eq!(BASELINE_RUNS.with(|n| n.get()) - before, benches.len());
    }
}
