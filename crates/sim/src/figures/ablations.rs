//! Sizing and policy ablations: store-queue and LVQ capacity sweeps,
//! trailing-fetch policy and priority, CRT cross-core delay, and the
//! next-line prefetch extension.

use super::grid::{eff_grid, eff_row, run_cells, sweep_figure, Variant};
use super::{FigureCtx, FigureResult, SimScale};
use crate::experiment::DeviceKind;
use rmt_core::MachineSpec;
use rmt_stats::metrics::mean;
use rmt_stats::table::fmt3;
use rmt_stats::Table;
use rmt_workloads::Benchmark;
use std::collections::BTreeMap;

/// Store-queue size sweep (the motivation for per-thread store queues,
/// §4.2): SRT efficiency as the shared store queue grows.
pub fn abl_sq_size(ctx: &FigureCtx, scale: SimScale, benches: &[Benchmark]) -> FigureResult {
    let sizes = [16, 32, 64, 128, 256];
    sweep_figure(
        ctx,
        scale,
        benches,
        DeviceKind::Srt,
        "core.sq_entries",
        "SQ",
        &sizes,
        120,
    )
}

/// Trailing-fetch policy ablation (§4.4): the line prediction queue vs
/// fetching the trailing thread through the shared line predictor.
pub fn abl_fetch_policy(ctx: &FigureCtx, scale: SimScale, benches: &[Benchmark]) -> FigureResult {
    // Shared-line-predictor trailing fetch: trailing threads misspeculate,
    // so comparison must move to retirement.
    let mut shared = MachineSpec::for_kind(DeviceKind::Srt);
    shared.core.trailing_uses_lpq = false;
    shared.env.compare_at_retire = true;
    shared.env.lpq_enabled = false;
    // The Base column is every row's denominator run itself, so it costs
    // no extra simulation.
    let variants = [
        Variant::plain(DeviceKind::Base),
        Variant::plain(DeviceKind::Srt),
        Variant {
            spec: shared,
            label: "shared".into(),
            max_cycle_factor: 200,
        },
    ];
    let rows: Vec<Vec<Benchmark>> = benches.iter().map(|&b| vec![b]).collect();
    let grid = eff_grid(ctx, scale, &rows, &variants);
    let mut t = Table::with_columns(&[
        "benchmark",
        "SRT (LPQ)",
        "SRT (shared line pred)",
        "trailing squashes (shared)",
    ]);
    let mut shared_effs = Vec::new();
    for (b, row) in benches.iter().zip(&grid.effs) {
        let counter = |label: &str, name: &str| {
            grid.metrics[&format!("{}/{label}", b.name())]
                .counter(name)
                .unwrap_or_else(|| panic!("{b}: the {label} run exports no `{name}`"))
        };
        // Whole-run IPCs of two identically measured runs: the leading
        // thread's commits over the device's cycles.
        let ipc = |label: &str| {
            counter(label, "core0/thread0/committed") as f64
                / counter(label, "device/cycles") as f64
        };
        let eff = ipc("shared") / ipc("Base");
        shared_effs.push(eff);
        let mut cells = eff_row(b.name().into(), &[row[1], eff]);
        cells.push(counter("shared", "core0/thread1/squashes").to_string());
        t.row(cells);
    }
    let mut summary = BTreeMap::new();
    summary.insert("lpq_mean".into(), grid.means()[1]);
    summary.insert("shared_mean".into(), mean(&shared_effs));
    FigureResult {
        table: t,
        summary,
        metrics: BTreeMap::new(),
        timeseries: grid.timeseries,
    }
}

/// Trailing-fetch priority ablation (§4.4's "best performance was achieved
/// by giving the trailing thread priority").
pub fn abl_slack(ctx: &FigureCtx, scale: SimScale, benches: &[Benchmark]) -> FigureResult {
    let mut icount = MachineSpec::for_kind(DeviceKind::Srt);
    icount.core.trailing_fetch_priority = false;
    let variants = [
        Variant::plain(DeviceKind::Srt),
        Variant {
            spec: icount,
            label: "ICOUNT".into(),
            max_cycle_factor: 120,
        },
    ];
    let rows: Vec<Vec<Benchmark>> = benches.iter().map(|&b| vec![b]).collect();
    let grid = eff_grid(ctx, scale, &rows, &variants);
    let mut t = Table::with_columns(&["benchmark", "trailing priority", "ICOUNT only"]);
    for (b, row) in benches.iter().zip(&grid.effs) {
        t.row(eff_row(b.name().into(), row));
    }
    let m = grid.means();
    let mut summary = BTreeMap::new();
    summary.insert("priority_mean".into(), m[0]);
    summary.insert("icount_mean".into(), m[1]);
    FigureResult {
        table: t,
        summary,
        metrics: BTreeMap::new(),
        timeseries: grid.timeseries,
    }
}

/// LVQ size sweep: the load value queue bounds the slack between the
/// redundant threads; too small and the leading thread stalls at
/// retirement, too large buys nothing.
pub fn abl_lvq_size(ctx: &FigureCtx, scale: SimScale, benches: &[Benchmark]) -> FigureResult {
    let sizes = [8, 16, 32, 64, 128];
    sweep_figure(
        ctx,
        scale,
        benches,
        DeviceKind::Srt,
        "env.lvq_entries",
        "LVQ",
        &sizes,
        150,
    )
}

/// CRT inter-core forwarding-delay sweep: the paper argues the forwarding
/// queues decouple the threads, so CRT tolerates cross-core latency (§5).
pub fn abl_crt_delay(ctx: &FigureCtx, scale: SimScale, benches: &[Benchmark]) -> FigureResult {
    let delays = [0, 2, 4, 8, 16, 32];
    sweep_figure(
        ctx,
        scale,
        benches,
        DeviceKind::Crt,
        "env.cross_core_delay",
        "delay",
        &delays,
        150,
    )
}

/// Next-line L1D prefetch ablation (extension; the paper's machine has no
/// prefetcher): base-machine IPC with and without it, per benchmark.
pub fn abl_prefetch(ctx: &FigureCtx, scale: SimScale, benches: &[Benchmark]) -> FigureResult {
    // Two cells per benchmark: prefetch off (even) and on (odd).
    let cells: Vec<(MachineSpec, Benchmark)> = benches
        .iter()
        .flat_map(|&b| {
            [false, true].map(|on| {
                let mut spec = MachineSpec::for_kind(DeviceKind::Base);
                spec.hierarchy.l1d_next_line_prefetch = on;
                (spec, b)
            })
        })
        .collect();
    let runs = run_cells(ctx, scale, &cells, 150);
    let mut t = Table::with_columns(&["benchmark", "no prefetch", "next-line prefetch", "speedup"]);
    let mut speedups = Vec::new();
    let mut summary = BTreeMap::new();
    for (b, pair) in benches.iter().zip(runs.chunks(2)) {
        let (off, on) = (pair[0].ipc(0), pair[1].ipc(0));
        let speedup = on / off;
        speedups.push(speedup);
        t.row(vec![b.name().into(), fmt3(off), fmt3(on), fmt3(speedup)]);
    }
    summary.insert("mean_speedup".into(), mean(&speedups));
    FigureResult {
        table: t,
        summary,
        metrics: BTreeMap::new(),
        timeseries: BTreeMap::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::plan::BASELINE_RUNS;

    #[test]
    fn fetch_policy_reads_its_denominators_from_the_base_column() {
        let benches = [Benchmark::M88ksim, Benchmark::Ijpeg];
        let ctx = FigureCtx::new(1);
        let runs = || BASELINE_RUNS.with(|n| n.get());
        let before = runs();
        let r = abl_fetch_policy(&ctx, SimScale::quick(), &benches);
        // Base, SRT and shared-fetch SRT per benchmark, and no Base run
        // simulated twice: the Base cell is the denominator.
        assert_eq!(ctx.runner.jobs_executed(), 3 * benches.len());
        assert_eq!(runs(), before);
        assert_eq!(r.table.num_rows(), benches.len());
        assert!(r.value("shared_mean") > 0.0);
    }
}
