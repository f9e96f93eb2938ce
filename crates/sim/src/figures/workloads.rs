//! Workload-facing figures: the redundant-thread slack profile and the
//! workload characterization table.

use super::grid::{eff_grid, run_cells, Variant};
use super::{FigureCtx, FigureResult, SimScale};
use crate::experiment::DeviceKind;
use rmt_core::MachineSpec;
use rmt_stats::metrics::mean;
use rmt_stats::table::{fmt3, fmt_pct};
use rmt_stats::Table;
use rmt_workloads::{Benchmark, Workload};
use std::collections::BTreeMap;

/// Redundant-thread slack distribution under SRT: mean and maximum of
/// (leading − trailing) committed instructions, the quantity slack fetch
/// controlled explicitly in the original SRT design and that the LVQ/LPQ
/// capacity bounds implicitly here (§4.4).
pub fn slack_profile(ctx: &FigureCtx, scale: SimScale, benches: &[Benchmark]) -> FigureResult {
    let cells: Vec<(MachineSpec, Benchmark)> = benches
        .iter()
        .map(|&b| (MachineSpec::for_kind(DeviceKind::SrtNoPsr), b))
        .collect();
    let runs = run_cells(ctx, scale, &cells, 120);
    let mut t = Table::with_columns(&[
        "benchmark",
        "mean slack",
        "p95 slack",
        "max slack",
        "lvq peak",
        "lpq peak",
    ]);
    let mut means = Vec::new();
    let mut p95s = Vec::new();
    for (b, r) in benches.iter().zip(&runs) {
        let slack = r
            .metrics
            .histogram("rmt/pair0/slack")
            .unwrap_or_else(|| panic!("{b}: the SRT run exports no slack histogram"));
        let peak = |queue: &str| {
            r.metrics
                .counter(&format!("rmt/pair0/{queue}/peak"))
                .unwrap_or_else(|| panic!("{b}: the SRT run exports no {queue} peak"))
        };
        means.push(slack.mean);
        p95s.push(slack.p95 as f64);
        t.row(vec![
            b.name().into(),
            fmt3(slack.mean),
            slack.p95.to_string(),
            slack.max.to_string(),
            peak("lvq").to_string(),
            peak("lpq").to_string(),
        ]);
    }
    let mut summary = BTreeMap::new();
    summary.insert("mean_slack".into(), mean(&means));
    summary.insert("p95_slack_mean".into(), mean(&p95s));
    FigureResult {
        table: t,
        summary,
        metrics: BTreeMap::new(),
        timeseries: BTreeMap::new(),
    }
}

/// Workload characterization: instruction mix and machine behaviour per
/// synthetic benchmark, next to the base-processor IPC (the credibility
/// table for the SPEC95 substitution in DESIGN.md §1).
pub fn workload_chars(ctx: &FigureCtx, scale: SimScale, benches: &[Benchmark]) -> FigureResult {
    // Dynamic behaviour from one Base-machine grid cell per benchmark —
    // the very run every SMT-efficiency in this suite divides by: IPC
    // over the warm measurement window, squash rate over the whole run.
    let rows: Vec<Vec<Benchmark>> = benches.iter().map(|&b| vec![b]).collect();
    let grid = eff_grid(ctx, scale, &rows, &[Variant::plain(DeviceKind::Base)]);
    let mut t = Table::with_columns(&[
        "benchmark",
        "IPC",
        "branch%",
        "load%",
        "store%",
        "fp%",
        "squash/1k",
        "working set",
    ]);
    let mut summary = BTreeMap::new();
    for &b in benches {
        // Static instruction mix over the program text.
        let w = Workload::generate(b, scale.seed);
        let insts = w.program.insts();
        let total = insts.len() as f64;
        let frac = |pred: &dyn Fn(&rmt_isa::Inst) -> bool| {
            insts.iter().filter(|i| pred(i)).count() as f64 / total * 100.0
        };
        let snap = &grid.metrics[&format!("{}/{}", b.name(), DeviceKind::Base.name())];
        let thread0 = |name: &str| {
            snap.counter(&format!("core0/thread0/{name}"))
                .unwrap_or_else(|| panic!("{b}: the Base run exports no `{name}`"))
                as f64
        };
        let squash_rate = thread0("squashes") / thread0("committed") * 1_000.0;
        let ipc = grid.base_ipc[&b];
        summary.insert(format!("{}_ipc", b.name()), ipc);
        t.row(vec![
            b.name().into(),
            fmt3(ipc),
            fmt_pct(frac(&|i| i.op.is_cond_branch())),
            fmt_pct(frac(&|i| i.op.is_load())),
            fmt_pct(frac(&|i| i.op.is_store())),
            fmt_pct(frac(&|i| matches!(i.op.fu_class(), rmt_isa::FuClass::Fp))),
            fmt3(squash_rate),
            format!("{} KB", b.profile().working_set / 1024),
        ]);
    }
    FigureResult {
        table: t,
        summary,
        metrics: BTreeMap::new(),
        timeseries: grid.timeseries,
    }
}
