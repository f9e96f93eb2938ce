//! Cross-crate integration tests: the architectural invariants redundant
//! multithreading must uphold, checked end-to-end through the whole stack
//! (workload generator → pipeline → RMT device → golden model).

use rmt::core::{
    Device, DeviceKind, IndependentScheme, LogicalThread, Machine, MachineSpec, RmtScheme,
};
use rmt::isa::interp::Interpreter;
use rmt::workloads::{Benchmark, Workload};

fn base(threads: Vec<LogicalThread>) -> Machine<IndependentScheme> {
    Machine::independent(&MachineSpec::for_kind(DeviceKind::Base), threads)
}

fn srt(threads: Vec<LogicalThread>) -> Machine<RmtScheme> {
    Machine::redundant(&MachineSpec::for_kind(DeviceKind::SrtNoPsr), threads)
}

/// The paper's CRT machine without preferential space redundancy.
fn crt(threads: Vec<LogicalThread>) -> Machine<RmtScheme> {
    let mut spec = MachineSpec::for_kind(DeviceKind::Crt);
    spec.core.preferential_space_redundancy = false;
    Machine::redundant(&spec, threads)
}

/// Runs the golden interpreter until it has committed exactly `stores`
/// stores; returns its memory digest.
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

#[test]
fn srt_released_stores_equal_golden_prefix() {
    // The strongest redundancy invariant: everything SRT lets out of the
    // sphere of replication is exactly the golden store stream.
    for &b in &[Benchmark::Compress, Benchmark::Gcc, Benchmark::Swim] {
        let w = Workload::generate(b, 21);
        let mut dev = srt(vec![LogicalThread::from(&w)]);
        assert!(dev.run_until_committed(20_000, 10_000_000), "{b} timed out");
        let released = dev.substrate().core(0).stat("stores_released");
        assert!(released > 100, "{b}: too few stores to be meaningful");
        assert_eq!(
            dev.image(0).digest(),
            golden_digest_at_stores(&w, released),
            "{b}: SRT memory diverged from the golden model"
        );
        assert!(dev.drain_detected_faults().is_empty(), "{b}: phantom fault");
    }
}

#[test]
fn crt_released_stores_equal_golden_prefix() {
    let a = Workload::generate(Benchmark::Ijpeg, 5);
    let b = Workload::generate(Benchmark::Fpppp, 5);
    let mut dev = crt(vec![LogicalThread::from(&a), LogicalThread::from(&b)]);
    assert!(dev.run_until_committed(15_000, 20_000_000));
    for (i, w) in [&a, &b].into_iter().enumerate() {
        let p = dev.scheme().placement(i);
        let released: u64 = dev
            .substrate()
            .core(p.lead_core)
            .store_lifetime(p.lead_tid)
            .count();
        assert!(released > 50, "pair {i}: too few stores");
        assert_eq!(
            dev.image(i).digest(),
            golden_digest_at_stores(w, released),
            "pair {i}: CRT memory diverged from golden"
        );
    }
    assert!(dev.drain_detected_faults().is_empty());
}

#[test]
fn base_and_srt_memories_agree_at_equal_store_counts() {
    // Redundant execution must be architecturally invisible: base and SRT
    // runs of the same program produce identical store prefixes.
    let w = Workload::generate(Benchmark::Vortex, 13);
    let mut base = base(vec![LogicalThread::from(&w)]);
    assert!(base.run_until_committed(15_000, 10_000_000));
    let mut srt = srt(vec![LogicalThread::from(&w)]);
    assert!(srt.run_until_committed(15_000, 10_000_000));
    let base_released = base.substrate().core(0).stat("stores_released");
    let srt_released = srt.substrate().core(0).stat("stores_released");
    let common = base_released.min(srt_released);
    assert_eq!(
        golden_digest_at_stores(&w, common),
        golden_digest_at_stores(&w, common)
    );
    // Both equal the same golden prefix at their own release counts.
    assert_eq!(
        base.image(0).digest(),
        golden_digest_at_stores(&w, base_released)
    );
    assert_eq!(
        srt.image(0).digest(),
        golden_digest_at_stores(&w, srt_released)
    );
}

#[test]
fn trailing_thread_is_sheltered() {
    // §4/§5: the trailing thread never misspeculates (LPQ), never touches
    // the data cache, and never misses the LVQ address check.
    let w = Workload::generate(Benchmark::Go, 17);
    let mut dev = srt(vec![LogicalThread::from(&w)]);
    assert!(dev.run_until_committed(15_000, 10_000_000));
    let p = dev.scheme().placement(0);
    let core = dev.substrate().core(0);
    assert_eq!(core.thread_stats(p.trail_tid).squashes, 0);
    assert!(
        core.thread_stats(p.lead_tid).squashes > 0,
        "go must mispredict"
    );
    // Trailing commits track leading commits.
    let lead_n = core.thread_stats(p.lead_tid).committed;
    let trail_n = core.thread_stats(p.trail_tid).committed;
    assert!(trail_n <= lead_n);
    assert!(
        lead_n - trail_n < 2_000,
        "slack unbounded: {lead_n} vs {trail_n}"
    );
}

#[test]
fn lockstep_cores_stay_bit_identical() {
    let w = Workload::generate(Benchmark::Perl, 3);
    let mut dev = Machine::lockstep(
        &MachineSpec::for_kind(DeviceKind::Lock8),
        vec![LogicalThread::from(&w)],
    );
    assert!(dev.run_until_committed(15_000, 10_000_000));
    assert!(!dev.scheme().desynced());
    assert!(dev.drain_detected_faults().is_empty());
    let (c0, c1) = (dev.substrate().core(0), dev.substrate().core(1));
    assert_eq!(c0.thread_stats(0).committed, c1.thread_stats(0).committed);
    assert_eq!(c0.stat("squashes"), c1.stat("squashes"));
}

#[test]
fn srt_handles_all_eighteen_benchmarks() {
    // Smoke: every benchmark runs redundantly without deadlock, divergence
    // or phantom detections.
    for &b in rmt::workloads::profile::ALL_BENCHMARKS {
        let w = Workload::generate(b, 2);
        let mut dev = srt(vec![LogicalThread::from(&w)]);
        assert!(dev.run_until_committed(4_000, 10_000_000), "{b} timed out");
        assert!(dev.drain_detected_faults().is_empty(), "{b}: phantom fault");
        assert_eq!(dev.scheme().env().pair(0).comparator.mismatches(), 0, "{b}");
    }
}

#[test]
fn per_thread_store_queues_never_hurt() {
    for &b in &[Benchmark::Swim, Benchmark::Compress] {
        let w = Workload::generate(b, 7);
        let mut plain = srt(vec![LogicalThread::from(&w)]);
        assert!(plain.run_until_committed(10_000, 10_000_000));
        let mut ptsq_spec = MachineSpec::for_kind(DeviceKind::SrtNoPsr);
        ptsq_spec.core.per_thread_store_queues = true;
        let mut ptsq = Machine::redundant(&ptsq_spec, vec![LogicalThread::from(&w)]);
        assert!(ptsq.run_until_committed(10_000, 10_000_000));
        assert!(
            ptsq.cycle() <= plain.cycle() + plain.cycle() / 20,
            "{b}: ptsq should not slow SRT down: {} vs {}",
            ptsq.cycle(),
            plain.cycle()
        );
    }
}

#[test]
fn four_context_srt_runs_two_programs() {
    // §7.1's multithreaded SRT configuration: two logical programs as two
    // redundant pairs filling all four hardware contexts.
    let a = Workload::generate(Benchmark::Gcc, 9);
    let b = Workload::generate(Benchmark::Swim, 9);
    let mut dev = srt(vec![LogicalThread::from(&a), LogicalThread::from(&b)]);
    assert!(dev.run_until_committed(8_000, 20_000_000));
    assert!(dev.drain_detected_faults().is_empty());
    for i in 0..2 {
        let comparator = &dev.scheme().env().pair(i).comparator;
        assert_eq!(comparator.mismatches(), 0);
        assert!(comparator.matches() > 50);
    }
}

#[test]
fn four_independent_threads_stay_isolated() {
    // Full SMT occupancy on the base machine: every thread's memory image
    // must match its own single-thread golden model exactly — no cross-
    // thread leakage through any shared structure.
    let benches = [
        Benchmark::Gcc,
        Benchmark::Ijpeg,
        Benchmark::Fpppp,
        Benchmark::Swim,
    ];
    let ws: Vec<Workload> = benches.iter().map(|&b| Workload::generate(b, 31)).collect();
    let mut dev = base(ws.iter().map(LogicalThread::from).collect());
    assert!(dev.run_until_committed(10_000, 30_000_000));
    for (i, w) in ws.iter().enumerate() {
        let committed = dev.committed(i);
        let mut interp = Interpreter::new(&w.program, w.memory.clone());
        interp.run(committed).unwrap();
        assert_eq!(
            dev.image(i).digest(),
            interp.mem().digest(),
            "{}: leaked state across hardware threads",
            benches[i]
        );
    }
}

#[test]
fn crt_slack_is_bounded_by_queue_capacities() {
    let w = Workload::generate(Benchmark::Swim, 8);
    let mut dev = crt(vec![LogicalThread::from(&w)]);
    assert!(dev.run_until_committed(20_000, 20_000_000));
    let pair = dev.scheme().env().pair(0);
    // The LVQ (64 loads) bounds slack: with ~27% loads the ceiling is a few
    // hundred instructions.
    assert!(
        pair.slack.max().unwrap_or(0) < 1_000,
        "slack {:?}",
        pair.slack.max()
    );
    assert!(pair.lvq.peak() <= 64);
    assert!(pair.slack.mean() > 1.0, "threads suspiciously lock-stepped");
}
