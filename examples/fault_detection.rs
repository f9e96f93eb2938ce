//! Fault detection in action: strike the same structures on the base
//! processor and on an SRT processor and watch who notices.
//!
//! ```text
//! cargo run --release --example fault_detection
//! ```

use rmt::core::{DeviceKind, MachineSpec};
use rmt::faults::{run_campaign, CampaignConfig, FaultKind};
use rmt::workloads::{Benchmark, Workload};

fn main() {
    let w = Workload::generate(Benchmark::Compress, 1);
    let cfg = CampaignConfig {
        injections: 10,
        warmup_commits: 2_000,
        window_commits: 10_000,
        seed: 42,
    };

    println!(
        "injecting {} store-queue bit flips into each machine...\n",
        cfg.injections
    );

    let base_spec = MachineSpec::for_kind(DeviceKind::Base);
    let base = run_campaign(&base_spec, &w, FaultKind::TransientSq, cfg);
    println!("base processor (no detection mechanism):");
    println!(
        "  detected {} | masked {} | SILENT DATA CORRUPTION {}",
        base.detected, base.masked, base.silent
    );

    let srt_spec = MachineSpec::for_kind(DeviceKind::SrtNoPsr);
    let srt = run_campaign(&srt_spec, &w, FaultKind::TransientSq, cfg);
    println!("\nSRT processor (store comparator at the sphere boundary):");
    println!(
        "  detected {} | masked {} | silent {}",
        srt.detected, srt.masked, srt.silent
    );
    println!(
        "  coverage of unmasked faults: {:.0}%  mean detection latency: {:.0} cycles",
        srt.coverage() * 100.0,
        srt.mean_latency()
    );

    // Permanent faults: why preferential space redundancy exists (§4.5).
    let psr_spec = MachineSpec::for_kind(DeviceKind::Srt);
    let perm = run_campaign(&psr_spec, &w, FaultKind::PermanentFu, cfg);
    println!("\nSRT + preferential space redundancy vs a stuck-at functional unit:");
    println!(
        "  detected {} of {} injections, mean latency {:.0} cycles",
        perm.detected,
        perm.injections,
        perm.mean_latency()
    );
}
