//! Figures 10–12: chip-level redundant threading against lockstepping,
//! plus the fabric extension figure — CRT's cross-coupling generalised to
//! a four-core ring.

use super::grid::{eff_grid, eff_row, Variant};
use super::{FigureCtx, FigureResult, SimScale};
use crate::experiment::DeviceKind;
use rmt_stats::table::fmt_pct;
use rmt_stats::Table;
use rmt_workloads::mix::{four_program_mixes, mix_name, two_program_mixes};
use rmt_workloads::Benchmark;
use std::collections::BTreeMap;

fn crt_vs_lockstep(
    ctx: &FigureCtx,
    scale: SimScale,
    mixes: &[Vec<Benchmark>],
    label: &str,
) -> FigureResult {
    let kinds = [DeviceKind::Lock0, DeviceKind::Lock8, DeviceKind::Crt];
    let grid = eff_grid(ctx, scale, mixes, &kinds.map(Variant::plain));

    let mut t = Table::with_columns(&[label, "Lock0", "Lock8", "CRT", "CRT vs Lock8"]);
    let gain = |row: &[f64]| (row[2] / row[1] - 1.0) * 100.0;
    for (mix, row) in mixes.iter().zip(&grid.effs) {
        let mut cells = eff_row(mix_name(mix), row);
        cells.push(fmt_pct(gain(row)));
        t.row(cells);
    }
    let m = grid.means();
    let max_gain = grid.effs.iter().map(|r| gain(r)).fold(f64::MIN, f64::max);
    let mut cells = eff_row("average".into(), &m);
    cells.push(fmt_pct(gain(&m)));
    t.row(cells);
    let mut summary = BTreeMap::new();
    summary.insert("lock0_mean".into(), m[0]);
    summary.insert("lock8_mean".into(), m[1]);
    summary.insert("crt_mean".into(), m[2]);
    summary.insert("crt_vs_lock8_pct".into(), gain(&m));
    summary.insert("crt_vs_lock8_max_pct".into(), max_gain);
    FigureResult {
        table: t,
        summary,
        metrics: grid.metrics,
        timeseries: grid.timeseries,
    }
}

/// §7.2 single-thread comparison: CRT performs like lockstepping when only
/// one logical thread runs.
pub fn fig10_crt_single(ctx: &FigureCtx, scale: SimScale, benches: &[Benchmark]) -> FigureResult {
    let mixes: Vec<Vec<Benchmark>> = benches.iter().map(|&b| vec![b]).collect();
    crt_vs_lockstep(ctx, scale, &mixes, "benchmark")
}

/// §7.2 two-program comparison: CRT's cross-coupling beats lockstepping.
pub fn fig11_crt_two(ctx: &FigureCtx, scale: SimScale) -> FigureResult {
    let mixes: Vec<Vec<Benchmark>> = two_program_mixes().iter().map(|m| m.to_vec()).collect();
    crt_vs_lockstep(ctx, scale, &mixes, "pair")
}

/// §7.2 four-program comparison (the paper's 15 combinations; see
/// `rmt_workloads::mix` for the reconstruction).
pub fn fig12_crt_four(ctx: &FigureCtx, scale: SimScale) -> FigureResult {
    let mixes: Vec<Vec<Benchmark>> = four_program_mixes().iter().map(|m| m.to_vec()).collect();
    crt_vs_lockstep(ctx, scale, &mixes, "mix")
}

/// Fabric extension: the two-core cross-coupled CRT against the same
/// four-program mixes spread around a four-core ring (core *i* leads pair
/// *i*, core *i*+1 mod 4 trails it) — one redundant pair per core instead
/// of two, an arrangement the pre-fabric device layer could not express.
/// Pass [`four_program_mixes`] for the paper-style run, or a subset for
/// quick checks.
pub fn fig_ring4(ctx: &FigureCtx, scale: SimScale, mixes: &[Vec<Benchmark>]) -> FigureResult {
    let kinds = [DeviceKind::Crt, DeviceKind::CrtRing4];
    let grid = eff_grid(ctx, scale, mixes, &kinds.map(Variant::plain));

    let mut t = Table::with_columns(&["mix", "CRT (2 cores)", "CRT ring-4", "ring vs CRT"]);
    let gain = |row: &[f64]| (row[1] / row[0] - 1.0) * 100.0;
    for (mix, row) in mixes.iter().zip(&grid.effs) {
        let mut cells = eff_row(mix_name(mix), row);
        cells.push(fmt_pct(gain(row)));
        t.row(cells);
    }
    let m = grid.means();
    let mut cells = eff_row("average".into(), &m);
    cells.push(fmt_pct(gain(&m)));
    t.row(cells);
    let mut summary = BTreeMap::new();
    summary.insert("crt_mean".into(), m[0]);
    summary.insert("ring4_mean".into(), m[1]);
    summary.insert("ring4_vs_crt_pct".into(), gain(&m));
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

    #[test]
    fn ring4_runs_and_relieves_the_two_core_crt() {
        let mixes: Vec<Vec<Benchmark>> = four_program_mixes()[..2]
            .iter()
            .map(|m| m.to_vec())
            .collect();
        let r = fig_ring4(&FigureCtx::new(2), SimScale::quick(), &mixes);
        let crt = r.value("crt_mean");
        let ring = r.value("ring4_mean");
        assert!(crt > 0.0 && crt < 1.0, "CRT efficiency implausible: {crt}");
        assert!(ring > 0.0, "ring efficiency implausible: {ring}");
        // Four pairs on four cores contend less than four pairs crammed
        // onto two cross-coupled cores.
        assert!(
            ring > crt,
            "ring-4 {ring} should beat the 2-core CRT {crt} on 4-program mixes"
        );
        // One snapshot per (mix, variant) cell.
        assert_eq!(r.metrics.len(), mixes.len() * 2);
    }
}
