//! Sampled figures and the sampled-vs-full accuracy validation.
//!
//! The sampled figure reproduces Figure 6's shape from a handful of
//! detailed windows per cell instead of one long interval. Efficiency is
//! estimated *paired*: the sampled kind-IPC of every window is divided by
//! the sampled Base-IPC of the **same window positions**, so positional
//! variance (which windows happened to land on cache-miss bursts) cancels
//! out of the ratio — the key to single-digit relative error from a few
//! thousand detailed instructions per cell.
//!
//! Everything fans across the context's [`Runner`](crate::Runner) and is
//! bitwise identical at any `--jobs` level.

use super::grid::{eff_grid, Variant};
use super::{FigureCtx, FigureResult, SimScale};
use crate::experiment::{DeviceKind, Experiment};
use rmt_sample::SamplePlan;
use rmt_stats::table::fmt3;
use rmt_stats::{mean_ci95, Estimate, Table};
use rmt_workloads::Benchmark;
use std::collections::BTreeMap;

/// The device kinds of Figure 6, in column order.
pub(crate) const FIG6_KINDS: [DeviceKind; 4] = [
    DeviceKind::Base2,
    DeviceKind::SrtNosc,
    DeviceKind::Srt,
    DeviceKind::SrtPtsq,
];

/// A sampled efficiency grid: paired per-window estimates per
/// `[benchmark][kind]`, plus the work accounting the validation harness
/// reports.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledGrid {
    /// Paired SMT-efficiency estimate per benchmark row and kind column.
    pub effs: Vec<Vec<Estimate>>,
    /// Detailed instructions simulated across every sampled run.
    pub detailed_instructions: u64,
    /// Functional fast-forward instructions across every sampled run.
    pub fastforward_instructions: u64,
}

fn exp(ctx: &FigureCtx, kind: DeviceKind, bench: Benchmark, scale: SimScale) -> Experiment {
    Experiment::from_spec(ctx.spec(kind))
        .benchmark(bench)
        .seed(scale.seed)
        .warmup(scale.warmup)
        .measure(scale.measure)
}

/// Runs the sampled efficiency grid for Figure 6's kinds: one checkpoint
/// ladder per benchmark (checkpoints are kind-independent), then one
/// sampled Base run plus one sampled run per kind against the shared
/// ladder, each fanned across the runner, paired per window position.
pub fn fig6_sampled_grid(
    ctx: &FigureCtx,
    scale: SimScale,
    plan: &SamplePlan,
    benches: &[Benchmark],
) -> SampledGrid {
    let kinds = FIG6_KINDS;
    let cols = kinds.len() + 1; // column 0: the sampled Base denominator
    let ladders = ctx.runner.run(benches.len(), |b| {
        exp(ctx, DeviceKind::Base, benches[b], scale)
            .sample_checkpoints(plan)
            .unwrap_or_else(|e| panic!("checkpointing {} failed: {e}", benches[b]))
    });
    let flat = ctx.runner.run(benches.len() * cols, |i| {
        let kind = match i % cols {
            0 => DeviceKind::Base,
            c => kinds[c - 1],
        };
        let bench = benches[i / cols];
        let r = exp(ctx, kind, bench, scale)
            .run_sampled_with(plan, &ladders[i / cols])
            .unwrap_or_else(|e| panic!("sampled {kind} on {bench} failed: {e}"));
        ctx.runner.add_sim_cycles(r.cycles);
        r
    });
    let mut effs = Vec::with_capacity(benches.len());
    let mut detailed = 0u64;
    let mut ff = 0u64;
    for (b, _) in benches.iter().enumerate() {
        let base = &flat[b * cols].window_ipc[0];
        let row: Vec<Estimate> = (0..kinds.len())
            .map(|c| {
                let kind_w = &flat[b * cols + c + 1].window_ipc[0];
                // Ratio of summed window cycles (each window measures the
                // same instruction count, so cycles = measure / IPC) —
                // the same aggregation the full run performs over its one
                // long interval, unlike a mean of per-window ratios which
                // overweights fast windows. The CI still comes from the
                // per-window ratio spread.
                let kind_cycles: f64 = kind_w.iter().map(|i| 1.0 / i).sum();
                let base_cycles: f64 = base.iter().map(|i| 1.0 / i).sum();
                let ratios: Vec<f64> = kind_w.iter().zip(base).map(|(k, b)| k / b).collect();
                Estimate {
                    mean: base_cycles / kind_cycles,
                    ..mean_ci95(&ratios)
                }
            })
            .collect();
        effs.push(row);
    }
    for r in &flat {
        detailed += r.detailed_instructions;
    }
    // Fast-forward work is per-ladder: every kind column shares it.
    for l in &ladders {
        ff += l.fastforward_instructions;
    }
    SampledGrid {
        effs,
        detailed_instructions: detailed,
        fastforward_instructions: ff,
    }
}

/// Figure 6, sampled: the same benchmark × kind grid as
/// [`fig6_srt_single`](super::fig6_srt_single), estimated from `plan`'s
/// detailed windows instead of one long interval. Summary carries each
/// kind's mean efficiency (same keys as the full figure, so the two are
/// directly comparable), the mean 95% CI half-width, the plan knobs and
/// the work accounting.
pub fn fig6_srt_single_sampled(
    ctx: &FigureCtx,
    scale: SimScale,
    plan: &SamplePlan,
    benches: &[Benchmark],
) -> FigureResult {
    let grid = fig6_sampled_grid(ctx, scale, plan, benches);
    let mut t = Table::with_columns(&["benchmark", "Base2", "SRT+nosc", "SRT", "SRT+ptsq"]);
    let mut cols: Vec<Vec<f64>> = vec![Vec::new(); FIG6_KINDS.len()];
    let mut widths: Vec<Vec<f64>> = vec![Vec::new(); FIG6_KINDS.len()];
    for (b, row) in benches.iter().zip(&grid.effs) {
        let mut cells = vec![b.name().to_string()];
        for (k, est) in row.iter().enumerate() {
            cols[k].push(est.mean);
            widths[k].push(est.half_width);
            cells.push(fmt3(est.mean));
        }
        t.row(cells);
    }
    let mut avg_cells = vec!["average".to_string()];
    let mut summary = BTreeMap::new();
    for (k, &kind) in FIG6_KINDS.iter().enumerate() {
        let m = rmt_stats::metrics::mean(&cols[k]);
        avg_cells.push(fmt3(m));
        summary.insert(format!("{}_mean_efficiency", kind.name()), m);
        summary.insert(
            format!("{}_mean_ci95_half_width", kind.name()),
            rmt_stats::metrics::mean(&widths[k]),
        );
    }
    t.row(avg_cells);
    summary.insert("plan_windows".into(), plan.windows as f64);
    summary.insert("plan_warmup".into(), plan.warmup as f64);
    summary.insert("plan_measure".into(), plan.measure as f64);
    summary.insert("plan_warm_window".into(), plan.warm_window as f64);
    summary.insert(
        "detailed_instructions".into(),
        grid.detailed_instructions as f64,
    );
    summary.insert(
        "fastforward_instructions".into(),
        grid.fastforward_instructions as f64,
    );
    FigureResult {
        table: t,
        summary,
        metrics: BTreeMap::new(),
        timeseries: BTreeMap::new(),
    }
}

/// The full-run reference for the validation harness: raw (unformatted)
/// Figure 6 efficiencies per `[benchmark][kind]`, through the shared
/// baseline cache.
pub fn fig6_full_grid(ctx: &FigureCtx, scale: SimScale, benches: &[Benchmark]) -> Vec<Vec<f64>> {
    let rows: Vec<Vec<Benchmark>> = benches.iter().map(|&b| vec![b]).collect();
    eff_grid(ctx, scale, &rows, &FIG6_KINDS.map(Variant::plain)).effs
}

/// The sampled-vs-full validation table: one row per benchmark × kind
/// with the full-run efficiency, the sampled estimate and its 95% CI,
/// and the relative error. Summary carries per-kind mean/max relative
/// error, the overall maximum, and the detailed-instruction speedup.
///
/// # Panics
///
/// Panics if `full` and `sampled` do not cover the same grid.
pub fn sampling_validation(
    benches: &[Benchmark],
    full: &[Vec<f64>],
    sampled: &SampledGrid,
) -> FigureResult {
    assert_eq!(full.len(), benches.len(), "full grid shape");
    assert_eq!(sampled.effs.len(), benches.len(), "sampled grid shape");
    let mut t = Table::with_columns(&[
        "benchmark",
        "variant",
        "full",
        "sampled",
        "ci95",
        "rel err %",
    ]);
    let mut summary = BTreeMap::new();
    let mut all_errs = Vec::new();
    for (k, &kind) in FIG6_KINDS.iter().enumerate() {
        let mut errs = Vec::new();
        for (b, bench) in benches.iter().enumerate() {
            let reference = full[b][k];
            let est = &sampled.effs[b][k];
            let err_pct = 100.0 * (est.mean - reference).abs() / reference;
            errs.push(err_pct);
            t.row(vec![
                bench.name().into(),
                kind.name().into(),
                fmt3(reference),
                fmt3(est.mean),
                fmt3(est.half_width),
                fmt3(err_pct),
            ]);
        }
        let mean_err = rmt_stats::metrics::mean(&errs);
        let max_err = errs.iter().cloned().fold(0.0f64, f64::max);
        summary.insert(format!("{}_mean_rel_err_pct", kind.name()), mean_err);
        summary.insert(format!("{}_max_rel_err_pct", kind.name()), max_err);
        all_errs.extend(errs);
    }
    summary.insert(
        "mean_rel_err_pct".into(),
        rmt_stats::metrics::mean(&all_errs),
    );
    summary.insert(
        "max_rel_err_pct".into(),
        all_errs.iter().cloned().fold(0.0f64, f64::max),
    );
    // Detailed work the full grid spends per benchmark: one cell per kind
    // plus the shared Base baseline, each over warmup + measure committed
    // instructions. (Wall-clock speedup is measured by the binary; this
    // ratio is its machine-independent, deterministic counterpart.)
    summary.insert(
        "sampled_detailed_instructions".into(),
        sampled.detailed_instructions as f64,
    );
    summary.insert(
        "sampled_fastforward_instructions".into(),
        sampled.fastforward_instructions as f64,
    );
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

    const QUICK_BENCHES: &[Benchmark] = &[Benchmark::M88ksim, Benchmark::Ijpeg];

    fn quick_plan() -> SamplePlan {
        SamplePlan {
            windows: 4,
            warmup: 500,
            measure: 1_200,
            warm_window: 2_048,
            ..SamplePlan::default()
        }
    }

    #[test]
    fn sampled_fig6_matches_full_shape() {
        let ctx = FigureCtx::new(2);
        let scale = SimScale::quick();
        let r = fig6_srt_single_sampled(&ctx, scale, &quick_plan(), QUICK_BENCHES);
        let srt = r.value("SRT_mean_efficiency");
        let base2 = r.value("Base2_mean_efficiency");
        assert!(srt < 1.0 && srt > 0.3, "implausible sampled SRT: {srt}");
        assert!(base2 < 1.0, "Base2 must degrade: {base2}");
        assert!(r.value("SRT_mean_ci95_half_width") >= 0.0);
        assert_eq!(r.value("plan_windows"), 4.0);
        // Table: one row per benchmark plus the average row.
        assert_eq!(r.table.num_rows(), QUICK_BENCHES.len() + 1);
    }

    #[test]
    fn validation_reports_small_error_at_quick_scale() {
        let ctx = FigureCtx::new(2);
        let scale = SimScale::quick();
        let full = fig6_full_grid(&ctx, scale, QUICK_BENCHES);
        let sampled = fig6_sampled_grid(&ctx, scale, &quick_plan(), QUICK_BENCHES);
        let r = sampling_validation(QUICK_BENCHES, &full, &sampled);
        assert!(
            r.value("max_rel_err_pct") < 25.0,
            "sampled grid wildly off at quick scale: {}",
            r.value("max_rel_err_pct")
        );
        assert!(r.value("mean_rel_err_pct") <= r.value("max_rel_err_pct"));
        assert_eq!(
            r.table.num_rows(),
            QUICK_BENCHES.len() * FIG6_KINDS.len(),
            "one row per benchmark x kind"
        );
    }
}
