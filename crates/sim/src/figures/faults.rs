//! Fault-injection coverage across architectures and fault models, and
//! the per-injection forensic timeline driver behind
//! `results/fault_forensics.json`.

use super::{FigureCtx, FigureResult, SimScale};
use crate::experiment::DeviceKind;
use rmt_core::MachineSpec;
use rmt_faults::{injection_forensic, CampaignConfig, CampaignReport, FaultForensics, FaultKind};
use rmt_stats::table::fmt3;
use rmt_stats::Table;
use rmt_workloads::{Benchmark, Workload};
use std::collections::BTreeMap;

/// The paper's CRT machine without preferential space redundancy — the
/// configuration every committed CRT fault golden was recorded on — with
/// the context's overrides applied.
fn crt_spec(ctx: &FigureCtx) -> MachineSpec {
    let mut spec = MachineSpec::for_kind(DeviceKind::Crt);
    spec.core.preferential_space_redundancy = false;
    ctx.apply(&mut spec);
    spec
}

/// Runs every injection of every `(spec, kind)` campaign on `workload` as
/// one runner job, campaign-major: campaign `c`'s records are
/// `cfg.injections` long, starting at `c * cfg.injections`. Each injection
/// is a pure function of its index, so the records are bitwise identical
/// at any `--jobs` level.
fn injections(
    ctx: &FigureCtx,
    workload: &Workload,
    campaigns: &[(&MachineSpec, FaultKind)],
    cfg: CampaignConfig,
) -> Vec<FaultForensics> {
    let n = cfg.injections;
    ctx.runner.run(campaigns.len() * n, |i| {
        let (spec, kind) = campaigns[i / n];
        injection_forensic(spec, workload, kind, cfg, i % n)
    })
}

/// Renders a bucket-granular latency percentile, `"-"` when nothing was
/// detected.
fn fmt_latency(p: Option<u64>) -> String {
    p.map_or_else(|| "-".to_string(), |v| v.to_string())
}

/// Fault-detection coverage across architectures and fault models,
/// including PSR's effect on permanent-fault coverage (§4.5) and the
/// detection-latency tail (p50/p95 of the campaign histogram). The
/// injections of all twelve campaigns are fanned across the runner at
/// once, and each campaign's chunk folds into its report.
pub fn fault_coverage(ctx: &FigureCtx, scale: SimScale, bench: Benchmark) -> FigureResult {
    let w = Workload::generate(bench, scale.seed);
    let cfg = CampaignConfig {
        injections: 12,
        warmup_commits: scale.warmup.min(3_000),
        window_commits: scale.measure.min(20_000),
        seed: 0xc0ffee,
    };
    let mut t = Table::with_columns(&[
        "machine",
        "fault",
        "detected",
        "masked",
        "silent",
        "coverage",
        "mean latency",
        "p50",
        "p95",
    ]);
    let (base, srt, nopsr) = (
        ctx.spec(DeviceKind::Base),
        ctx.spec(DeviceKind::Srt),
        ctx.spec(DeviceKind::SrtNoPsr),
    );
    // SRT with the ECC the paper mandates for the LVQ (§2.1): strikes on
    // LVQ entries are corrected before they can diverge the threads.
    let mut ecc = MachineSpec::for_kind(DeviceKind::Srt);
    ecc.env.lvq_ecc = true;
    ctx.apply(&mut ecc);
    let (crt, lockstep) = (crt_spec(ctx), ctx.spec(DeviceKind::Lock8));
    let campaigns = [
        // Base machine: no detection at all.
        ("base", &base, FaultKind::TransientReg),
        ("base", &base, FaultKind::TransientSq),
        // SRT with PSR: all models.
        ("srt", &srt, FaultKind::TransientReg),
        ("srt", &srt, FaultKind::TransientSq),
        ("srt", &srt, FaultKind::TransientLvq),
        ("srt", &srt, FaultKind::PermanentFu),
        // SRT without PSR: permanent faults (the coverage PSR exists to
        // fix).
        ("srt-nopsr", &nopsr, FaultKind::PermanentFu),
        ("srt-ecc", &ecc, FaultKind::TransientLvq),
        // CRT: the same strikes detected across the inter-core datapath —
        // latency includes the cross-core forwarding delay.
        ("crt", &crt, FaultKind::TransientReg),
        ("crt", &crt, FaultKind::TransientSq),
        // Lockstep: permanent + register faults.
        ("lockstep", &lockstep, FaultKind::TransientReg),
        ("lockstep", &lockstep, FaultKind::PermanentFu),
    ];
    let records = injections(ctx, &w, &campaigns.map(|(_, spec, kind)| (spec, kind)), cfg);
    let mut summary = BTreeMap::new();
    for (&(machine, _, kind), chunk) in campaigns.iter().zip(records.chunks(cfg.injections)) {
        let r = CampaignReport::from_outcomes(kind, chunk.iter().map(|f| f.outcome));
        t.row(vec![
            machine.into(),
            r.kind.name().into(),
            r.detected.to_string(),
            r.masked.to_string(),
            r.silent.to_string(),
            fmt3(r.coverage()),
            fmt3(r.mean_latency()),
            fmt_latency(r.p50_latency()),
            fmt_latency(r.p95_latency()),
        ]);
        let key = format!("{machine}_{}", r.kind.name());
        summary.insert(format!("{key}_coverage"), r.coverage());
        summary.insert(format!("{key}_silent"), r.silent as f64);
        if let (Some(p50), Some(p95)) = (r.p50_latency(), r.p95_latency()) {
            summary.insert(format!("{key}_p50"), p50 as f64);
            summary.insert(format!("{key}_p95"), p95 as f64);
        }
    }
    FigureResult {
        table: t,
        summary,
        metrics: BTreeMap::new(),
        timeseries: BTreeMap::new(),
    }
}

/// The forensic campaigns: one representative fault model per
/// arrangement, every injection producing a full [`FaultForensics`]
/// causal record. Returns the records (in arrangement-then-index order,
/// deterministic at any `--jobs` level) alongside a figure summarizing
/// them — the driver behind `results/fault_forensics.json`.
pub fn fault_forensics(
    ctx: &FigureCtx,
    scale: SimScale,
    bench: Benchmark,
) -> (FigureResult, Vec<FaultForensics>) {
    let w = Workload::generate(bench, scale.seed);
    let cfg = CampaignConfig {
        injections: 6,
        warmup_commits: scale.warmup.min(3_000),
        window_commits: scale.measure.min(15_000),
        seed: 0xdecaf,
    };
    // Arrangement-major fan-out: the store-queue strike is the fault the
    // sphere-of-replication story is about, so SRT/CRT/base all take it;
    // lockstep takes the permanent FU fault its checker exists to catch.
    let arrangements = [
        (&ctx.spec(DeviceKind::Srt), FaultKind::TransientSq),
        (&crt_spec(ctx), FaultKind::TransientSq),
        (&ctx.spec(DeviceKind::Lock8), FaultKind::PermanentFu),
        (&ctx.spec(DeviceKind::Base), FaultKind::TransientSq),
    ];
    let records = injections(ctx, &w, &arrangements, cfg);

    let mut t = Table::with_columns(&[
        "arrangement",
        "fault",
        "#",
        "outcome",
        "mechanism",
        "latency",
        "hops",
        "events",
    ]);
    let mut summary: BTreeMap<String, f64> = BTreeMap::new();
    for f in &records {
        t.row(vec![
            f.arrangement.into(),
            f.kind.name().into(),
            f.index.to_string(),
            f.outcome_name().into(),
            f.mechanism.unwrap_or("-").into(),
            fmt_latency(f.latency()),
            f.hops.to_string(),
            f.events.len().to_string(),
        ]);
        *summary
            .entry(format!("{}_{}", f.arrangement, f.outcome_name()))
            .or_default() += 1.0;
    }
    summary.insert("injections_per_arrangement".into(), cfg.injections as f64);
    (
        FigureResult {
            table: t,
            summary,
            metrics: BTreeMap::new(),
            timeseries: BTreeMap::new(),
        },
        records,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_coverage_shape() {
        let r = fault_coverage(&FigureCtx::new(2), SimScale::quick(), Benchmark::Swim);
        // The base machine detects nothing; unmasked store corruption is
        // silent.
        assert_eq!(r.value("base_transient-sq_coverage"), 0.0);
        assert!(r.value("base_transient-sq_silent") >= 1.0);
        // SRT catches store-queue corruption.
        assert!(r.value("srt_transient-sq_coverage") > 0.6);
        // SRT never lets a register strike escape silently.
        assert_eq!(r.value("srt_transient-reg_silent"), 0.0);
        // CRT catches the same strikes across the inter-core path, and
        // its detections carry latency percentiles.
        assert!(r.value("crt_transient-sq_coverage") > 0.6);
        assert!(r.value("crt_transient-sq_p95") >= r.value("crt_transient-sq_p50"));
        // Detection-latency tails never invert anywhere they exist.
        for (k, &p50) in r.summary.iter().filter(|(k, _)| k.ends_with("_p50")) {
            let p95 = r.summary[&k.replace("_p50", "_p95")];
            assert!(p95 >= p50, "{k}: p95 {p95} < p50 {p50}");
        }
    }

    #[test]
    fn forensics_cover_every_arrangement() {
        let (r, records) =
            fault_forensics(&FigureCtx::new(2), SimScale::quick(), Benchmark::Compress);
        assert_eq!(records.len(), 24);
        for arr in ["srt", "crt", "lockstep", "base"] {
            assert_eq!(
                records.iter().filter(|f| f.arrangement == arr).count(),
                6,
                "missing records for {arr}"
            );
        }
        // The redundant arrangements catch store corruption; the base
        // machine never detects anything.
        assert!(r.summary.contains_key("srt_detected"));
        assert!(!r.summary.contains_key("base_detected"));
        // Every detected record names its mechanism and a causal chain
        // ending in a terminal stamp.
        for f in records.iter().filter(|f| f.outcome.is_detected()) {
            assert!(f.mechanism.is_some(), "{f:?}");
            assert!(!f.events.is_empty(), "{f:?}");
        }
        assert_eq!(r.table.num_rows(), 24);
    }
}
