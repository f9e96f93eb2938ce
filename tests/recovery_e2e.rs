//! End-to-end recovery: after a detected fault triggers rollback-and-
//! replay, the machine's architectural history must be *indistinguishable*
//! from a fault-free run — the golden model's store stream, exactly.

use rmt::core::{Device, DeviceKind, LogicalThread, Machine, MachineSpec, RecoveringScheme};
use rmt::isa::interp::Interpreter;
use rmt::workloads::{Benchmark, Workload};

fn golden_digest_at_stores(w: &Workload, stores: u64) -> u64 {
    let mut interp = Interpreter::new(&w.program, w.memory.clone());
    let mut n = 0;
    while n < stores {
        if interp.step().unwrap().store.is_some() {
            n += 1;
        }
    }
    interp.mem().digest()
}

fn recoverable(
    bench: Benchmark,
    seed: u64,
    interval: u64,
) -> (Workload, Machine<RecoveringScheme>) {
    let w = Workload::generate(bench, seed);
    let dev = Machine::recoverable(
        &MachineSpec::for_kind(DeviceKind::SrtNoPsr),
        vec![LogicalThread::from(&w)],
        interval,
    );
    (w, dev)
}

/// Stores reflected in pair 0's memory (releases minus those undone by
/// recovery rollbacks).
fn released(dev: &Machine<RecoveringScheme>) -> u64 {
    dev.effective_releases(0)
}

#[test]
fn store_strike_is_recovered_exactly() {
    let (w, mut dev) = recoverable(Benchmark::Swim, 3, 4_000);
    assert!(dev.run_until_committed(6_000, 30_000_000));
    dev.substrate_mut().core_mut(0).arm_sq_strike(0, 1 << 11);
    assert!(dev.run_until_committed(40_000, 120_000_000));
    assert_eq!(
        dev.recoveries(),
        1,
        "the strike must be detected and recovered"
    );
    // The acid test: memory equals the golden prefix as if nothing happened.
    assert_eq!(
        dev.image(0).digest(),
        golden_digest_at_stores(&w, released(&dev)),
        "recovery left an architectural trace"
    );
}

#[test]
fn register_strikes_are_recovered_exactly() {
    use rmt::stats::Xoshiro256;
    let (w, mut dev) = recoverable(Benchmark::M88ksim, 5, 4_000);
    assert!(dev.run_until_committed(5_000, 30_000_000));
    let mut rng = Xoshiro256::seed_from(99);
    let mut recovered = 0;
    for round in 0..4 {
        // Strike a live register each round.
        let live = dev.substrate().core(0).live_phys_regs();
        let reg = live[rng.below(live.len() as u64) as usize];
        dev.substrate_mut()
            .core_mut(0)
            .corrupt_phys_reg(reg, 1 << rng.below(64));
        let target = dev.committed(0) + 10_000;
        assert!(
            dev.run_until_committed(target, 200_000_000),
            "round {round} stalled"
        );
        recovered = dev.recoveries();
    }
    // Some strikes mask; any that were detected must have recovered with
    // golden-equivalent state.
    assert_eq!(
        dev.image(0).digest(),
        golden_digest_at_stores(&w, released(&dev)),
        "after {recovered} recoveries the state diverged"
    );
}

#[test]
fn repeated_strikes_keep_recovering() {
    let (w, mut dev) = recoverable(Benchmark::Compress, 7, 3_000);
    assert!(dev.run_until_committed(4_000, 30_000_000));
    for _ in 0..3 {
        dev.substrate_mut().core_mut(0).arm_sq_strike(0, 1 << 21);
        let target = dev.committed(0) + 8_000;
        assert!(dev.run_until_committed(target, 200_000_000));
    }
    assert_eq!(dev.recoveries(), 3);
    assert_eq!(
        dev.image(0).digest(),
        golden_digest_at_stores(&w, released(&dev))
    );
}

#[test]
fn fault_free_recoverable_srt_matches_plain_srt_architecturally() {
    let (w, mut dev) = recoverable(Benchmark::Gcc, 11, 5_000);
    assert!(dev.run_until_committed(25_000, 60_000_000));
    assert_eq!(dev.recoveries(), 0);
    assert!(dev.checkpoints_taken() >= 3);
    assert_eq!(
        dev.image(0).digest(),
        golden_digest_at_stores(&w, released(&dev))
    );
}
