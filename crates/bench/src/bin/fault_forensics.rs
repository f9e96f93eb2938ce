//! Per-injection fault forensics: one causal record per injection across
//! SRT / CRT / lockstep / base, reconstructed from the flight recorder,
//! on one benchmark (`--benches NAME`, default swim).
//!
//! Prints the forensic summary table; with `--json`, writes the standard
//! figure document plus a `forensics` array of full
//! `rmt_faults::FaultForensics` records — the generator behind the
//! committed `results/fault_forensics.json` golden, which
//! `scripts/ci.sh` regenerates and compares bitwise (sans `host`).

use rmt_bench::{run_and_print, BenchInput, FigureArgs, FIGURE_FLAGS};
use rmt_stats::{cli, Json};

fn main() {
    let usage = format!("usage: fault_forensics {FIGURE_FLAGS}");
    let args = cli::run(&usage, |argv| {
        FigureArgs::parse(argv, BenchInput::One, false).and_then(FigureArgs::refuse_epoch)
    });
    run_and_print(
        "Fault forensics: per-injection causal records",
        "Sections 4.5 / 7.1.1 (extension: detection-latency timelines)",
        &args,
        |ctx| {
            let (r, records) = rmt_sim::figures::fault_forensics(ctx, args.scale, args.benches[0]);
            let records = records.iter().map(|f| f.to_json()).collect();
            (r, vec![("forensics", Json::Arr(records))])
        },
    );
}
