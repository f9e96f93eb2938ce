//! The paper's headline: on multithreaded workloads, chip-level redundant
//! threading (CRT) outperforms lockstepping the two cores, because each
//! core spends the resources freed by one program's (cheap) trailing
//! thread on another program's (hungry) leading thread.
//!
//! ```text
//! cargo run --release --example crt_vs_lockstep
//! ```

use rmt::core::MachineSpec;
use rmt::sim::service::{run_grid, ClusterPlan, GridColumn, RUN_MAX_CYCLE_FACTOR};
use rmt::sim::{DeviceKind, Runner, SimScale};
use rmt::workloads::Benchmark;

fn main() {
    let mix = [Benchmark::Fpppp, Benchmark::Swim];
    // One grid row (the mix) on two machines; each program's Base
    // denominator is simulated once and shared by both cells.
    let cols = [DeviceKind::Lock8, DeviceKind::Crt].map(|kind| GridColumn {
        spec: MachineSpec::for_kind(kind),
        max_cycle_factor: RUN_MAX_CYCLE_FACTOR,
    });
    let scale = SimScale {
        warmup: 5_000,
        measure: 25_000,
        seed: 1,
    };
    let plan = ClusterPlan::grid(&[mix.to_vec()], &cols, &[], scale, 0);
    let run = run_grid(&plan, &Runner::new(2)).expect("grid runs");
    let (lock8, crt) = (run.cells[0].0, run.cells[1].0);
    println!(
        "two programs ({} + {}), each run redundantly on a two-core chip:\n",
        mix[0], mix[1]
    );

    println!("lockstepped cores (8-cycle checker): SMT-efficiency {lock8:.3}");
    println!("  both cores execute both programs in lockstep; every cache miss");
    println!("  crosses the checker; misspeculation is duplicated.\n");

    println!("CRT (cross-coupled redundant threads): SMT-efficiency {crt:.3}");
    println!(
        "  core 0 runs lead({}) + trail({}), core 1 the reverse;",
        mix[0], mix[1]
    );
    println!("  trailing threads never misspeculate and skip the data cache.\n");

    println!(
        "CRT outperforms lockstepping by {:.1}% on this mix",
        (crt / lock8 - 1.0) * 100.0
    );
}
