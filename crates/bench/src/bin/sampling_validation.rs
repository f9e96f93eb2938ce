//! Sampled-vs-full accuracy validation (the sampling analogue of the
//! golden gates): runs Figure 6's benchmark x kind grid twice — full
//! detailed intervals, then SMARTS-style sampled windows with paired
//! sampled-Base denominators — and reports the per-cell relative error
//! plus the wall-clock speedup sampling bought.
//!
//! `results/sampling_validation.json` is the committed artifact of a
//! `--standard` run over the whole suite. Everything in the document
//! except `host` is bitwise reproducible at any `--jobs` level; the
//! wall-clock split (and the speedup derived from it) lives under `host`
//! alongside the other machine-varying timings.

use rmt_bench::{
    figure_json, print_figure, write_json, BenchInput, FigureArgs, HostStats, FIGURE_FLAGS,
};

use rmt_sim::figures;
use rmt_stats::{cli, Json};
use std::time::Instant;

const TITLE: &str = "Sampling validation: sampled vs full Figure 6";
const PAPER: &str = "SMARTS-style sampling (PAPERS.md); accuracy target: <2% mean error";

fn main() {
    let usage = format!("usage: sampling_validation {FIGURE_FLAGS}");
    let args = cli::run(&usage, |argv| {
        FigureArgs::parse(argv, BenchInput::List, false)
            .and_then(FigureArgs::refuse_epoch)
            .and_then(FigureArgs::fit_sample)
    });
    if args.print_config {
        println!("{}", args.spec.to_json().encode_pretty());
        return;
    }
    let plan = &args.spec.sample;
    let ctx = args.ctx();

    let t_full = Instant::now();
    let full = figures::fig6_full_grid(&ctx, args.scale, &args.benches);
    let full_secs = t_full.elapsed().as_secs_f64();

    let t_sampled = Instant::now();
    let sampled = figures::fig6_sampled_grid(&ctx, args.scale, plan, &args.benches);
    let sampled_secs = t_sampled.elapsed().as_secs_f64();

    let r = figures::sampling_validation(&args.benches, &full, &sampled);
    print_figure(TITLE, PAPER, &r);
    let speedup = full_secs / sampled_secs.max(1e-9);
    println!();
    println!(
        "  [full {full_secs:.2}s vs sampled {sampled_secs:.2}s -> {speedup:.1}x wall-clock \
         speedup on {} worker(s), {} simulation jobs]",
        ctx.runner.jobs(),
        ctx.runner.jobs_executed(),
    );
    if let Some(path) = &args.json {
        let host = HostStats {
            wall_seconds: full_secs + sampled_secs,
            sim_cycles: ctx.runner.sim_cycles(),
            jobs: ctx.runner.jobs(),
            jobs_executed: ctx.runner.jobs_executed(),
        };
        let mut doc = figure_json(TITLE, PAPER, &args, &r, &host);
        let mut h = doc
            .get("host")
            .expect("figure_json always emits host")
            .clone();
        h.set("full_wall_seconds", Json::F64(full_secs));
        h.set("sampled_wall_seconds", Json::F64(sampled_secs));
        h.set("wall_speedup", Json::F64(speedup));
        doc.set("host", h);
        write_json(path, &doc);
        println!("  [json written to {path}]");
    }
}
