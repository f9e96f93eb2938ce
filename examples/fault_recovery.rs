//! Detection *and* recovery: strike the machine, watch SRT catch the fault,
//! roll back to the last verified checkpoint, replay — and prove that the
//! final architectural state is bit-identical to a fault-free execution.
//!
//! ```text
//! cargo run --release --example fault_recovery
//! ```

use rmt::core::{Device, DeviceKind, LogicalThread, Machine, MachineSpec};
use rmt::isa::interp::Interpreter;
use rmt::workloads::{Benchmark, Workload};

fn main() {
    let w = Workload::generate(Benchmark::Swim, 1);
    let mut dev = Machine::recoverable(
        &MachineSpec::for_kind(DeviceKind::SrtNoPsr),
        vec![LogicalThread::from(&w)],
        4_000, // checkpoint every 4k committed instructions
    );

    println!("running `swim` on a recoverable SRT processor...");
    dev.run_until_committed(6_000, 50_000_000);
    println!(
        "  warm: {} instructions committed, {} checkpoints taken",
        dev.committed(0),
        dev.checkpoints_taken()
    );

    println!("\nstriking bit 11 of the next store to pass the commit point...");
    dev.substrate_mut().core_mut(0).arm_sq_strike(0, 1 << 11);
    dev.run_until_committed(40_000, 200_000_000);
    println!(
        "  detection+rollback happened {} time(s); execution continued to {} commits",
        dev.recoveries(),
        dev.committed(0)
    );

    // Prove the recovery left no trace: replay the golden model to the same
    // number of stores-in-memory and compare digests.
    let mut interp = Interpreter::new(&w.program, w.memory.clone());
    let mut stores = 0;
    let target = dev.effective_releases(0);
    while stores < target {
        if interp.step().unwrap().store.is_some() {
            stores += 1;
        }
    }
    let equal = interp.mem().digest() == dev.image(0).digest();
    println!(
        "\narchitectural state vs fault-free golden model: {}",
        if equal {
            "IDENTICAL"
        } else {
            "DIVERGED (bug!)"
        }
    );
    assert!(equal);
}
