//! Workload-facing figures: the redundant-thread slack profile and the
//! workload characterization table.

use super::{FigureCtx, FigureResult, SimScale};
use crate::experiment::DeviceKind;
use rmt_core::{Device, LogicalThread, Machine};
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
    let points = ctx.runner.run(benches.len(), |i| {
        let b = benches[i];
        let w = Workload::generate(b, scale.seed);
        let mut dev = Machine::redundant(
            &ctx.spec(DeviceKind::SrtNoPsr),
            vec![LogicalThread::from(&w)],
        );
        let target = scale.warmup + scale.measure;
        assert!(
            dev.run_until_committed(target, target * 120),
            "{b} timed out"
        );
        let pair = dev.scheme().env().pair(0);
        (
            pair.slack.mean(),
            pair.slack.percentile(95.0).unwrap_or(0),
            pair.slack.max().unwrap_or(0),
            pair.lvq.peak(),
            pair.lpq.peak(),
        )
    });
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
    for (b, &(slack_mean, slack_p95, slack_max, lvq_peak, lpq_peak)) in benches.iter().zip(&points)
    {
        means.push(slack_mean);
        p95s.push(slack_p95 as f64);
        t.row(vec![
            b.name().into(),
            fmt3(slack_mean),
            slack_p95.to_string(),
            slack_max.to_string(),
            lvq_peak.to_string(),
            lpq_peak.to_string(),
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
    struct Chars {
        ipc: f64,
        branches: f64,
        loads: f64,
        stores: f64,
        fp: f64,
        squash_rate: f64,
        working_set: u64,
    }
    let points = ctx.runner.run(benches.len(), |i| {
        let b = benches[i];
        let w = Workload::generate(b, scale.seed);
        // Static instruction mix over the program text.
        let insts = w.program.insts();
        let total = insts.len() as f64;
        let frac = |pred: &dyn Fn(&rmt_isa::Inst) -> bool| {
            insts.iter().filter(|i| pred(i)).count() as f64 / total * 100.0
        };
        // Dynamic behaviour on the base machine: IPC from the warm
        // measurement window (the same number every SMT-efficiency in this
        // suite divides by); squash rate over the whole run.
        let ipc = ctx.base_ipc(b, scale);
        let mut dev =
            Machine::independent(&ctx.spec(DeviceKind::Base), vec![LogicalThread::from(&w)]);
        let target = scale.warmup + scale.measure;
        assert!(
            dev.run_until_committed(target, target * 120),
            "{b} timed out"
        );
        let committed = dev.committed(0) as f64;
        Chars {
            ipc,
            branches: frac(&|i| i.op.is_cond_branch()),
            loads: frac(&|i| i.op.is_load()),
            stores: frac(&|i| i.op.is_store()),
            fp: frac(&|i| matches!(i.op.fu_class(), rmt_isa::FuClass::Fp)),
            squash_rate: dev.substrate().core(0).thread_stats(0).squashes as f64 / committed
                * 1_000.0,
            working_set: b.profile().working_set,
        }
    });

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
    for (b, c) in benches.iter().zip(&points) {
        summary.insert(format!("{}_ipc", b.name()), c.ipc);
        t.row(vec![
            b.name().into(),
            fmt3(c.ipc),
            fmt_pct(c.branches),
            fmt_pct(c.loads),
            fmt_pct(c.stores),
            fmt_pct(c.fp),
            fmt3(c.squash_rate),
            format!("{} KB", c.working_set / 1024),
        ]);
    }
    FigureResult {
        table: t,
        summary,
        metrics: BTreeMap::new(),
        timeseries: BTreeMap::new(),
    }
}
