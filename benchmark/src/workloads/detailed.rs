//! `detailed_suite`: the aggregate suite at `--jobs 1` — every benchmark
//! on the Base, SRT and CRT machines at standard scale through
//! `figures::suite_summary`, the path the paper's figure grid takes.
//!
//! Why: the cycle loop (pipeline, memory, predictors and the redundancy
//! schemes) does nearly all of the work and no serving layer runs, so a
//! simulator speed-up shows here first. One operation is one benchmark's
//! row of the grid: its Base denominator, SRT cell and CRT cell.
//!
//! The simulated programs are the suite's standard ones, workload seed
//! one, on every run. `--seed` shuffles the order in which the benchmarks
//! are submitted. Changing the programs changed the suite's work by
//! several per cent (the IQR of pass time over program seeds 1–5 was 7%),
//! more than the host noise a regression has to stand out from. Fixed
//! programs also give every seed the same output: the `metrics` section
//! of the standard-scale aggregate document committed at the repository
//! root.
//!
//! Set-up runs one cell of the grid directly through `Experiment::run`:
//! the reference the suite's snapshot of that cell must equal bitwise.
//! The traced run makes the same `suite_summary` calls; its per-layer
//! numbers come from the runner's per-job timestamps and counters, and
//! from separate generation and construction calls after the timed
//! region.

use super::{
    experiment, repeat_setups, secs, shuffled, sim_layers, timed_jobs, timed_setup, Ctx, Outcome,
    SimTiming, SETUPS,
};
use rmt_sim::figures::suite_summary;
use rmt_sim::{DeviceKind, SimScale};
use rmt_stats::{Json, MetricsSnapshot};
use rmt_workloads::profile::ALL_BENCHMARKS;
use rmt_workloads::Benchmark;
use std::collections::BTreeMap;
use std::time::Instant;

/// The suite's columns, in its grid order. The SRT job of a row also
/// computes the row's Base denominator.
const SUITE_KINDS: [DeviceKind; 2] = [DeviceKind::Srt, DeviceKind::Crt];

/// The cell set-up runs on its own.
const REFERENCE: (Benchmark, DeviceKind) = (Benchmark::M88ksim, DeviceKind::Srt);

fn scale(ctx: &Ctx) -> SimScale {
    if ctx.tiny {
        SimScale {
            warmup: 500,
            measure: 2_000,
            seed: 1,
        }
    } else {
        SimScale::standard()
    }
}

/// Digest of the per-cell metric snapshots: the `metrics` section of an
/// `aggregate --json` document.
fn metrics_digest(metrics: &BTreeMap<String, MetricsSnapshot>) -> String {
    let mut doc = Json::obj();
    for (key, snap) in metrics {
        doc.set(key, snap.to_json());
    }
    rmt_stats::digest::digest(&doc)
}

/// The reference cell, run directly: its metric snapshot as JSON text.
fn reference_cell(scale: SimScale) -> Result<String, String> {
    let (b, kind) = REFERENCE;
    match experiment(kind, b, scale).run() {
        Ok(r) if r.faults_detected() > 0 => Err("a fault-free run detected faults".into()),
        Ok(r) => Ok(r.metrics.to_json().encode()),
        Err(e) => Err(e.to_string()),
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let scale = scale(ctx);
    let all = if ctx.tiny {
        &[Benchmark::M88ksim]
    } else {
        ALL_BENCHMARKS
    };
    let benches = shuffled(all, ctx.seed);
    let reference = timed_setup(&mut out, || reference_cell(scale));

    let start = Instant::now();
    let mut cells = BTreeMap::new();
    let mut timing = SimTiming::default();
    let mut jobs = 0;
    for pass in 1.. {
        let (r, j) = timed_jobs(
            ctx.tracer,
            "figures.suite_summary",
            pass,
            |i| ["sim.srt_cell", "sim.crt_cell"][i % SUITE_KINDS.len()],
            |fctx| suite_summary(fctx, scale, &benches),
        );
        // Jobs run row-major, one per kind column.
        out.op_ms.extend(
            j.ms.chunks(SUITE_KINDS.len())
                .map(|row| row.iter().sum::<f64>()),
        );
        out.attempted += benches.len() as u64;
        jobs += j.ms.len();
        timing.run_ms += j.ms.iter().sum::<f64>();
        timing.run_cycles += j.sim_cycles;
        let digest = metrics_digest(&r.metrics);
        if out.digest.is_empty() {
            out.digest = digest;
            cells = r.metrics;
        } else {
            let first = out.digest.clone();
            out.expect_eq("repeated suite pass", &digest, &first);
        }
        if secs(start) >= ctx.seconds {
            break;
        }
    }
    out.end_timed(start);

    // Cross-path check: the reference cell run on its own must equal the
    // suite's snapshot of it bitwise.
    let key = format!("{}/{}", REFERENCE.0.name(), REFERENCE.1.name());
    out.attempted += 1;
    match reference {
        Ok(want) if cells.get(&key).map(|s| s.to_json().encode()).as_ref() == Some(&want) => {}
        Ok(_) => out.fail(format!("{key}: a direct run differs from the suite's cell")),
        Err(e) => out.fail(format!("{key}: {e}")),
    }
    if ctx.tracer.on() {
        timing.construct_each(ctx.tracer, REFERENCE.1, &benches, scale);
        sim_layers(&mut out.layers, jobs, timing.run_cycles, &timing);
    }
    repeat_setups(ctx, &mut out, SETUPS, |_| reference_cell(scale));
    out
}
