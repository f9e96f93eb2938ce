//! The determinism contract of `rmt_sim::runner`: `--jobs N` must not
//! change a single result bit. Whole figures and whole fault campaigns are
//! compared between a sequential context and an oversubscribed parallel
//! one (more workers than this host has cores, so stealing actually
//! happens).

use rmt_core::{DeviceKind, MachineSpec};
use rmt_faults::{injection_forensic, run_campaign, CampaignConfig, CampaignReport, FaultKind};
use rmt_sample::SamplePlan;
use rmt_sim::figures::{self, FigureCtx};
use rmt_sim::{Runner, SimScale};
use rmt_workloads::{Benchmark, Workload};

#[test]
fn fig6_is_identical_at_any_job_count() {
    let benches = [Benchmark::M88ksim, Benchmark::Ijpeg];
    let scale = SimScale::quick();
    let seq = figures::fig6_srt_single(&FigureCtx::new(1), scale, &benches);
    let par = figures::fig6_srt_single(&FigureCtx::new(8), scale, &benches);
    // Tables compare cell-by-cell (formatted strings), so even a
    // last-digit wobble in any efficiency fails here.
    assert_eq!(seq.table, par.table, "fig6 table differs across --jobs");
    assert_eq!(seq.summary.len(), par.summary.len());
    for (k, v) in &seq.summary {
        assert_eq!(
            v.to_bits(),
            par.summary[k].to_bits(),
            "summary `{k}` differs bitwise across --jobs"
        );
    }
    // The embedded metric snapshots — every counter, gauge and histogram
    // summary of every run — must also be bitwise identical. Structural
    // equality first, then the rendered JSON (which is what `--json`
    // persists) character-for-character.
    assert_eq!(seq.metrics, par.metrics, "metrics differ across --jobs");
    assert!(!seq.metrics.is_empty(), "fig6 must embed metric snapshots");
    for (key, snap) in &seq.metrics {
        assert_eq!(
            snap.to_json().encode(),
            par.metrics[key].to_json().encode(),
            "metrics JSON for `{key}` differs across --jobs"
        );
    }
}

#[test]
fn sampled_fig6_is_identical_at_any_job_count() {
    // The sampled figure fans checkpoint ladders and window runs across
    // the runner in two phases; both must honour the same bitwise
    // `--jobs` contract as the full figure.
    let benches = [Benchmark::M88ksim, Benchmark::Ijpeg];
    let scale = SimScale::quick();
    let plan = SamplePlan {
        windows: 3,
        warmup: 300,
        measure: 800,
        warm_window: 1_024,
        ..SamplePlan::default()
    };
    let seq = figures::fig6_srt_single_sampled(&FigureCtx::new(1), scale, &plan, &benches);
    let par = figures::fig6_srt_single_sampled(&FigureCtx::new(8), scale, &plan, &benches);
    assert_eq!(
        seq.table, par.table,
        "sampled fig6 table differs across --jobs"
    );
    assert_eq!(seq.summary.len(), par.summary.len());
    for (k, v) in &seq.summary {
        assert_eq!(
            v.to_bits(),
            par.summary[k].to_bits(),
            "sampled summary `{k}` differs bitwise across --jobs"
        );
    }
}

#[test]
fn srt_campaign_is_identical_sequential_and_parallel() {
    let w = Workload::generate(Benchmark::M88ksim, 2);
    let cfg = CampaignConfig {
        injections: 6,
        warmup_commits: 800,
        window_commits: 5_000,
        seed: 11,
    };
    let kind = FaultKind::TransientReg;
    let spec = MachineSpec::for_kind(DeviceKind::SrtNoPsr);
    let seq = run_campaign(&spec, &w, kind, cfg);
    let outcomes = Runner::new(8).run(cfg.injections, |i| {
        injection_forensic(&spec, &w, kind, cfg, i).outcome
    });
    let par = CampaignReport::from_outcomes(kind, outcomes);
    // `CampaignReport` equality covers the outcome counts *and* the
    // detection-latency histogram bin-by-bin.
    assert_eq!(seq, par, "campaign report differs across worker counts");
}

#[test]
fn epoch_timeseries_is_identical_at_any_job_count() {
    // `RunResult::timeseries` is cycle-aligned, so the per-epoch deltas a
    // figure embeds must be bitwise identical at `--jobs 1` and `--jobs 8`
    // — every counter of every epoch of every cell.
    let benches = [Benchmark::M88ksim, Benchmark::Ijpeg];
    let scale = SimScale::quick();
    let seq = figures::fig6_srt_single(&FigureCtx::new(1).with_epoch(1_024), scale, &benches);
    let par = figures::fig6_srt_single(&FigureCtx::new(8).with_epoch(1_024), scale, &benches);
    assert!(
        !seq.timeseries.is_empty(),
        "epoch sampling must populate the figure's time series"
    );
    assert_eq!(
        seq.timeseries.keys().collect::<Vec<_>>(),
        par.timeseries.keys().collect::<Vec<_>>(),
        "time-series keys differ across --jobs"
    );
    for (key, series) in &seq.timeseries {
        assert_eq!(
            series.to_json().encode(),
            par.timeseries[key].to_json().encode(),
            "time series for `{key}` differs across --jobs"
        );
    }
    // Sampling must not perturb the figure itself.
    let plain = figures::fig6_srt_single(&FigureCtx::new(8), scale, &benches);
    assert_eq!(seq.table, plain.table, "epoch sampling perturbed the run");
    assert!(plain.timeseries.is_empty());
}

#[test]
fn forensic_campaign_is_identical_sequential_and_parallel() {
    let w = Workload::generate(Benchmark::Compress, 2);
    let cfg = CampaignConfig {
        injections: 4,
        warmup_commits: 800,
        window_commits: 5_000,
        seed: 21,
    };
    let kind = FaultKind::TransientSq;
    let spec = MachineSpec::for_kind(DeviceKind::SrtNoPsr);
    let forensics = |runner: Runner| {
        runner.run(cfg.injections, |i| {
            injection_forensic(&spec, &w, kind, cfg, i)
        })
    };
    let (seq, par) = (forensics(Runner::new(1)), forensics(Runner::new(8)));
    assert_eq!(seq.len(), par.len());
    for (a, b) in seq.iter().zip(&par) {
        // Structural equality plus the serialized record — the bytes that
        // land in results/fault_forensics.json.
        assert_eq!(a, b, "forensic record differs across worker counts");
        assert_eq!(a.to_json().encode(), b.to_json().encode());
    }
}
