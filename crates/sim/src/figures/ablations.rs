//! Sizing and policy ablations: store-queue and LVQ capacity sweeps,
//! trailing-fetch policy and priority, CRT cross-core delay, and the
//! next-line prefetch extension.

use super::grid::{run_eff, sweep_eff, sweep_table};
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
    let sizes = [16usize, 32, 64, 128, 256];
    let grid = sweep_eff(
        ctx,
        scale,
        benches,
        DeviceKind::Srt,
        &sizes,
        "SQ",
        120,
        |o, s| {
            o.core.sq_entries = s;
        },
    );
    sweep_table(benches, &sizes, "SQ", "eff_sq", grid)
}

/// Trailing-fetch policy ablation (§4.4): the line prediction queue vs
/// fetching the trailing thread through the shared line predictor.
pub fn abl_fetch_policy(ctx: &FigureCtx, scale: SimScale, benches: &[Benchmark]) -> FigureResult {
    let points = ctx.runner.run(benches.len(), |i| {
        let b = benches[i];
        let lpq = run_eff(ctx, DeviceKind::Srt, &[b], scale).0;
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
        let trail_squashes = core.thread_stats(p.trail_tid).squashes;
        (lpq, eff, trail_squashes)
    });

    let mut t = Table::with_columns(&[
        "benchmark",
        "SRT (LPQ)",
        "SRT (shared line pred)",
        "trailing squashes (shared)",
    ]);
    let mut lpq_col = Vec::new();
    let mut shared_col = Vec::new();
    for (b, &(lpq, eff, trail_squashes)) in benches.iter().zip(&points) {
        lpq_col.push(lpq);
        shared_col.push(eff);
        t.row(vec![
            b.name().into(),
            fmt3(lpq),
            fmt3(eff),
            trail_squashes.to_string(),
        ]);
    }
    let mut summary = BTreeMap::new();
    summary.insert("lpq_mean".into(), mean(&lpq_col));
    summary.insert("shared_mean".into(), mean(&shared_col));
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
    // Two jobs per benchmark: trailing priority (even) and ICOUNT (odd).
    let points = ctx.runner.run(benches.len() * 2, |i| {
        let b = benches[i / 2];
        if i % 2 == 0 {
            run_eff(ctx, DeviceKind::Srt, &[b], scale).0
        } else {
            let mut spec = MachineSpec::for_kind(DeviceKind::Srt);
            spec.core.trailing_fetch_priority = false;
            ctx.apply(&mut spec);
            let r = Experiment::from_spec(spec)
                .benchmark(b)
                .seed(scale.seed)
                .warmup(scale.warmup)
                .measure(scale.measure)
                .max_cycle_factor(120)
                .run()
                .expect("icount run");
            r.ipc(0) / ctx.base_ipc(b, scale)
        }
    });
    let mut t = Table::with_columns(&["benchmark", "trailing priority", "ICOUNT only"]);
    let mut pri = Vec::new();
    let mut icount = Vec::new();
    for (b, pair) in benches.iter().zip(points.chunks(2)) {
        pri.push(pair[0]);
        icount.push(pair[1]);
        t.row(vec![b.name().into(), fmt3(pair[0]), fmt3(pair[1])]);
    }
    let mut summary = BTreeMap::new();
    summary.insert("priority_mean".into(), mean(&pri));
    summary.insert("icount_mean".into(), mean(&icount));
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
    let sizes = [8usize, 16, 32, 64, 128];
    let grid = sweep_eff(
        ctx,
        scale,
        benches,
        DeviceKind::Srt,
        &sizes,
        "LVQ",
        150,
        |o, sz| {
            o.env.lvq_entries = sz;
        },
    );
    sweep_table(benches, &sizes, "LVQ", "eff_lvq", grid)
}

/// CRT inter-core forwarding-delay sweep: the paper argues the forwarding
/// queues decouple the threads, so CRT tolerates cross-core latency (§5).
pub fn abl_crt_delay(ctx: &FigureCtx, scale: SimScale, benches: &[Benchmark]) -> FigureResult {
    let delays = [0u64, 2, 4, 8, 16, 32];
    let grid = sweep_eff(
        ctx,
        scale,
        benches,
        DeviceKind::Crt,
        &delays,
        "delay",
        150,
        |o, d| {
            o.env.cross_core_delay = d;
        },
    );
    sweep_table(benches, &delays, "delay", "eff_delay", grid)
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
