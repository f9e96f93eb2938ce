//! Sizing and policy ablations: store-queue and LVQ capacity sweeps,
//! trailing-fetch policy and priority, CRT cross-core delay, and the
//! next-line prefetch extension.

use super::grid::{eff_grid, eff_row, sweep_figure, Variant};
use super::{FigureCtx, FigureResult, SimScale};
use crate::experiment::{DeviceKind, Experiment};
use rmt_core::{Device, LogicalThread, Machine, MachineSpec};
use rmt_stats::metrics::mean;
use rmt_stats::table::fmt3;
use rmt_stats::Table;
use rmt_workloads::{Benchmark, Workload};
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
    let rows: Vec<Vec<Benchmark>> = benches.iter().map(|&b| vec![b]).collect();
    let lpq = eff_grid(ctx, scale, &rows, &[Variant::plain(DeviceKind::Srt)]);
    let shared = ctx.runner.run(benches.len(), |i| {
        let b = benches[i];
        // Shared-line-predictor trailing fetch: trailing threads
        // misspeculate, so comparison must move to retirement.
        let w = Workload::generate(b, scale.seed);
        let mut spec = MachineSpec::for_kind(DeviceKind::Srt);
        spec.core.trailing_uses_lpq = false;
        spec.env.compare_at_retire = true;
        spec.env.lpq_enabled = false;
        ctx.apply(&mut spec);
        let mut dev = Machine::redundant(&spec, vec![LogicalThread::from(&w)]);
        let target = scale.warmup + scale.measure;
        assert!(
            dev.run_until_committed(target, target * 200),
            "{b} shared-fetch run timed out"
        );
        let p = dev.scheme().placement(0);
        let core = dev.substrate().core(0);
        let eff = {
            let ipc = core.thread_stats(p.lead_tid).committed as f64 / dev.cycle() as f64;
            // Compare whole-run IPC against a whole-run base IPC for the
            // same instruction count (no warmup split needed for a ratio of
            // identically-measured runs).
            let mut base =
                Machine::independent(&ctx.spec(DeviceKind::Base), vec![LogicalThread::from(&w)]);
            assert!(base.run_until_committed(target, target * 100));
            let base_ipc = base.committed(0) as f64 / base.cycle() as f64;
            ipc / base_ipc
        };
        (eff, core.thread_stats(p.trail_tid).squashes)
    });

    let mut t = Table::with_columns(&[
        "benchmark",
        "SRT (LPQ)",
        "SRT (shared line pred)",
        "trailing squashes (shared)",
    ]);
    for ((b, row), &(eff, trail_squashes)) in benches.iter().zip(&lpq.effs).zip(&shared) {
        let mut cells = eff_row(b.name().into(), &[row[0], eff]);
        cells.push(trail_squashes.to_string());
        t.row(cells);
    }
    let shared_effs: Vec<f64> = shared.iter().map(|p| p.0).collect();
    let mut summary = BTreeMap::new();
    summary.insert("lpq_mean".into(), lpq.means()[0]);
    summary.insert("shared_mean".into(), mean(&shared_effs));
    FigureResult {
        table: t,
        summary,
        metrics: BTreeMap::new(),
        timeseries: BTreeMap::new(),
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
        timeseries: BTreeMap::new(),
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
    // Two jobs per benchmark: prefetch off (even) and on (odd).
    let ipcs = ctx.runner.run(benches.len() * 2, |i| {
        let mut spec = MachineSpec::for_kind(DeviceKind::Base);
        spec.hierarchy.l1d_next_line_prefetch = i % 2 == 1;
        ctx.apply(&mut spec);
        let r = Experiment::from_spec(spec)
            .benchmark(benches[i / 2])
            .seed(scale.seed)
            .warmup(scale.warmup)
            .measure(scale.measure)
            .max_cycle_factor(150)
            .run()
            .expect("prefetch run");
        ctx.runner.add_sim_cycles(r.cycles);
        r.ipc(0)
    });
    let mut t = Table::with_columns(&["benchmark", "no prefetch", "next-line prefetch", "speedup"]);
    let mut speedups = Vec::new();
    let mut summary = BTreeMap::new();
    for (b, pair) in benches.iter().zip(ipcs.chunks(2)) {
        let (off, on) = (pair[0], pair[1]);
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
