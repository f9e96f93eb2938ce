//! Microarchitectural behaviour tests: each exercises one mechanism of the
//! base processor with a purpose-built instruction sequence.

use rmt_isa::inst::{Inst, Reg};
use rmt_isa::mem_image::MemImage;
use rmt_isa::program::{Program, ProgramBuilder};
use rmt_mem::{HierarchyConfig, MemoryHierarchy};
use rmt_pipeline::env::IndependentEnv;
use rmt_pipeline::{Core, CoreConfig};
use rmt_stats::MetricsRegistry;
use std::rc::Rc;

fn r(i: u8) -> Reg {
    Reg::new(i)
}

struct Rig {
    core: Core,
    hier: MemoryHierarchy,
    env: IndependentEnv,
    cycle: u64,
}

impl Rig {
    fn new(cfg: CoreConfig, programs: Vec<Program>) -> Self {
        let mut env = IndependentEnv::new(programs.iter().map(|_| MemImage::new()).collect());
        let mut core = Core::new(cfg, 0);
        for (i, p) in programs.into_iter().enumerate() {
            let tid = core.attach_thread(Rc::new(p), 0);
            env.assign(0, tid, i);
        }
        core.finalize_partitions();
        Rig {
            core,
            hier: MemoryHierarchy::new(HierarchyConfig::default(), 1),
            env,
            cycle: 0,
        }
    }

    fn run_until_committed(&mut self, tid: usize, n: u64, max: u64) {
        while self.core.thread_stats(tid).committed < n {
            self.core.tick(self.cycle, &mut self.hier, &mut self.env);
            self.hier.tick(self.cycle);
            self.cycle += 1;
            assert!(
                self.cycle < max,
                "stuck at {} commits",
                self.core.thread_stats(tid).committed
            );
        }
    }
}

fn spin_loop(body: Vec<Inst>) -> Program {
    let mut b = ProgramBuilder::new();
    b.label("top");
    for i in body {
        b.push(i);
    }
    b.push_branch(Inst::j(0), "top");
    b.build().unwrap()
}

#[test]
fn back_to_back_dependent_adds_sustain_one_per_cycle() {
    // A pure dependency chain: IPC must approach 1 (bypass network), not
    // 1/rbox_latency (which would mean the bypass is broken).
    let p = spin_loop(vec![Inst::addi(r(1), r(1), 1); 30]);
    let mut rig = Rig::new(CoreConfig::base(), vec![p]);
    rig.run_until_committed(0, 30_000, 200_000);
    let ipc = 30_000.0 / rig.cycle as f64;
    assert!(ipc > 0.85, "dependency chain IPC {ipc} — bypass broken?");
    assert!(
        ipc < 1.3,
        "dependency chain IPC {ipc} — serial chain too fast"
    );
}

#[test]
fn independent_adds_saturate_the_machine() {
    let body: Vec<Inst> = (0..30)
        .map(|i| Inst::addi(r(1 + i % 24), r(1 + i % 24), 1))
        .collect();
    let p = spin_loop(body);
    let mut rig = Rig::new(CoreConfig::base(), vec![p]);
    rig.run_until_committed(0, 80_000, 200_000);
    let ipc = 80_000.0 / rig.cycle as f64;
    assert!(ipc > 6.0, "independent-op IPC only {ipc}");
}

#[test]
fn mul_latency_shows_in_dependent_chain() {
    let fast = spin_loop(vec![Inst::addi(r(1), r(1), 1); 16]);
    let slow = spin_loop(vec![Inst::mul(r(1), r(1), r(1)); 16]);
    let mut a = Rig::new(CoreConfig::base(), vec![fast]);
    a.run_until_committed(0, 10_000, 500_000);
    let mut b = Rig::new(CoreConfig::base(), vec![slow]);
    b.run_until_committed(0, 10_000, 800_000);
    assert!(
        b.cycle as f64 > a.cycle as f64 * 3.0,
        "mul chain ({}) should be several times slower than add chain ({})",
        b.cycle,
        a.cycle
    );
}

#[test]
fn load_use_latency_is_short_on_hits() {
    // Pointer-increment loop: lw; addi; sw; — load-to-use on an L1 hit is
    // the MBOX latency (2), so ~5 cycles per iteration worst case.
    let mut b = ProgramBuilder::new();
    b.push(Inst::lui(r(1), 16));
    b.push(Inst::sw(Reg::ZERO, r(1), 0));
    b.label("top");
    b.push(Inst::lw(r(2), r(1), 0));
    b.push(Inst::addi(r(2), r(2), 1));
    b.push(Inst::sw(r(2), r(1), 0));
    b.push_branch(Inst::j(0), "top");
    let p = b.build().unwrap();
    let mut rig = Rig::new(CoreConfig::base(), vec![p]);
    rig.run_until_committed(0, 20_000, 400_000);
    let cycles_per_iter = rig.cycle as f64 / (20_000.0 / 4.0);
    assert!(
        cycles_per_iter < 16.0,
        "serial load-store loop too slow: {cycles_per_iter} cycles/iter"
    );
    // And the final value must be exact (forwarding correctness).
    let iters = rig.core.thread_stats(0).committed / 4;
    let _ = iters;
}

#[test]
fn ras_makes_call_return_cheap() {
    // Call/return ping-pong: the RAS should predict every return; disabling
    // it (ras_entries = 0) must cost squashes.
    let build = || {
        let mut b = ProgramBuilder::new();
        b.label("top");
        b.push_branch(Inst::jal(Reg::RA, 0), "f");
        b.push_branch(Inst::jal(Reg::RA, 0), "g");
        b.push_branch(Inst::j(0), "top");
        b.label("f");
        b.push(Inst::addi(r(1), r(1), 1));
        b.push(Inst::jalr(Reg::ZERO, Reg::RA));
        b.label("g");
        b.push(Inst::addi(r(2), r(2), 1));
        b.push(Inst::jalr(Reg::ZERO, Reg::RA));
        b.build().unwrap()
    };
    let mut with_ras = Rig::new(CoreConfig::base(), vec![build()]);
    with_ras.run_until_committed(0, 20_000, 400_000);
    let mut cfg = CoreConfig::base();
    cfg.ras_entries = 0;
    let mut without = Rig::new(cfg, vec![build()]);
    without.run_until_committed(0, 20_000, 2_000_000);
    let s_with = with_ras.core.thread_stats(0).squashes;
    let s_without = without.core.thread_stats(0).squashes;
    assert!(
        s_with * 4 < s_without.max(1),
        "RAS should remove most return mispredictions: {s_with} vs {s_without}"
    );
}

#[test]
fn static_partitioning_shrinks_per_thread_queues() {
    let p1 = spin_loop(vec![Inst::addi(r(1), r(1), 1); 8]);
    let p2 = spin_loop(vec![Inst::addi(r(1), r(1), 1); 8]);
    let rig1 = Rig::new(CoreConfig::base(), vec![p1.clone()]);
    assert_eq!(rig1.core.config().sq_per_thread(1), 64);
    let rig2 = Rig::new(CoreConfig::base(), vec![p1, p2]);
    assert_eq!(rig2.core.config().sq_per_thread(2), 32);
    drop(rig1);
    drop(rig2);
}

#[test]
fn icount_keeps_two_equal_threads_fair() {
    let mk = || spin_loop(vec![Inst::addi(r(1), r(1), 1); 24]);
    let mut rig = Rig::new(CoreConfig::base(), vec![mk(), mk()]);
    rig.run_until_committed(0, 40_000, 400_000);
    let a = rig.core.thread_stats(0).committed as f64;
    let b = rig.core.thread_stats(1).committed as f64;
    let ratio = a.max(b) / a.min(b);
    assert!(ratio < 1.1, "unfair thread chooser: {a} vs {b}");
}

#[test]
fn halt_quiesces_the_thread() {
    let p = Program::from_insts(vec![
        Inst::addi(r(1), Reg::ZERO, 7),
        Inst::halt(),
        // Unreachable garbage after the halt.
        Inst::addi(r(1), Reg::ZERO, 99),
    ]);
    let mut rig = Rig::new(CoreConfig::base(), vec![p]);
    for _ in 0..5_000 {
        rig.core.tick(rig.cycle, &mut rig.hier, &mut rig.env);
        rig.cycle += 1;
    }
    assert!(rig.core.all_halted());
    assert_eq!(rig.core.thread_stats(0).committed, 2);
    assert_eq!(rig.core.arch_reg(0, r(1)), 7);
    assert_eq!(rig.core.in_flight(0), 0);
}

#[test]
fn fu_stuck_fault_corrupts_architectural_results() {
    let p = Program::from_insts(vec![
        Inst::addi(r(1), Reg::ZERO, 0), // computes 0
        Inst::addi(r(2), Reg::ZERO, 0),
        Inst::addi(r(3), Reg::ZERO, 0),
        Inst::halt(),
    ]);
    let mut rig = Rig::new(CoreConfig::base(), vec![p]);
    // Stick bit 7 high on every integer unit: all three adds corrupt.
    for fu in 0..8 {
        rig.core.set_fu_stuck(fu, 7, true);
    }
    for _ in 0..5_000 {
        rig.core.tick(rig.cycle, &mut rig.hier, &mut rig.env);
        rig.cycle += 1;
        if rig.core.all_halted() {
            break;
        }
    }
    assert_eq!(rig.core.arch_reg(0, r(1)), 1 << 7);
    assert_eq!(rig.core.arch_reg(0, r(2)), 1 << 7);
    rig.core.clear_fu_faults();
}

#[test]
fn store_release_delay_lengthens_store_lifetime() {
    let body = vec![
        Inst::lui(r(1), 16),
        Inst::sw(r(2), r(1), 0),
        Inst::addi(r(2), r(2), 1),
    ];
    let mk = |delay: u64| {
        let mut cfg = CoreConfig::base();
        cfg.store_release_delay = delay;
        let mut rig = Rig::new(cfg, vec![spin_loop(body.clone())]);
        rig.run_until_committed(0, 20_000, 400_000);
        rig.core.store_lifetime(0).mean()
    };
    let fast = mk(0);
    let slow = mk(16);
    assert!(
        slow >= fast + 10.0,
        "a 16-cycle checker must lengthen store lifetimes: {fast:.1} vs {slow:.1}"
    );
}

#[test]
fn wrong_path_instructions_never_commit_architecturally() {
    // A never-taken branch guards a poison write; the predictor will trip
    // on it early (cold counters), but the poison must never commit.
    let mut b = ProgramBuilder::new();
    b.push(Inst::addi(r(5), Reg::ZERO, 1)); // r5 = 1
    b.push(Inst::addi(r(6), Reg::ZERO, 2)); // r6 = 2
    b.label("top");
    b.push_branch(Inst::beq(r(5), r(6), 0), "poison"); // never taken
    b.push(Inst::addi(r(1), r(1), 1));
    b.push_branch(Inst::j(0), "top");
    b.label("poison");
    b.push(Inst::addi(r(7), Reg::ZERO, 0x666));
    b.push_branch(Inst::j(0), "top");
    let p = b.build().unwrap();
    let mut rig = Rig::new(CoreConfig::base(), vec![p]);
    rig.run_until_committed(0, 30_000, 400_000);
    assert_eq!(rig.core.arch_reg(0, r(7)), 0, "wrong-path write committed!");
}

#[test]
fn core_events_name_exactly_what_happened() {
    // A store the next load forwards from, then a taken branch the cold
    // predictor calls not taken: its wrong-path `addi` and `halt` are
    // renamed and issued, then squashed, and the `halt` is fetched again.
    let mut b = ProgramBuilder::new();
    b.push(Inst::lui(r(1), 16));
    b.push(Inst::addi(r(2), Reg::ZERO, 5));
    b.push(Inst::sw(r(2), r(1), 0));
    b.push(Inst::lw(r(3), r(1), 0));
    b.push_branch(Inst::beq(r(3), r(2), 0), "done");
    b.push(Inst::addi(r(4), Reg::ZERO, 0x666));
    b.label("done");
    b.push(Inst::halt());
    let mut rig = Rig::new(CoreConfig::base(), vec![b.build().unwrap()]);
    while !rig.core.all_halted() || rig.core.sq_occupancy(0) > 0 {
        rig.core.tick(rig.cycle, &mut rig.hier, &mut rig.env);
        rig.hier.tick(rig.cycle);
        rig.cycle += 1;
        assert!(rig.cycle < 5_000, "the program never drained");
    }
    // Every event that happened, in name order, and no other; the halt's
    // retirement squashes too.
    let want = [
        ("branch_mispredicts", 1),
        ("chunks_fetched", 2),
        ("committed", 6),
        ("icache_miss_stalls", 1),
        ("issued", 8),
        ("renamed", 8),
        ("squashes", 2),
        ("store_forwards", 1),
        ("stores_released", 1),
    ];
    let mut reg = MetricsRegistry::new();
    rig.core.export_metrics(&mut reg, "core0");
    let snap = reg.snapshot();
    let exported: Vec<(&str, u64)> = snap
        .iter()
        .filter_map(|(name, _)| {
            let event = name.strip_prefix("core0/events/")?;
            Some((event, snap.counter(name).expect("events are counters")))
        })
        .collect();
    assert_eq!(exported, want);
}
