//! Differential and behavioural tests of the base SMT pipeline.
//!
//! The strongest check here is differential: the pipeline, with all its
//! speculation, out-of-order issue and squashing, must produce *exactly*
//! the architectural state of the reference interpreter.

use rmt_isa::inst::{Inst, Reg};
use rmt_isa::interp::Interpreter;
use rmt_isa::mem_image::MemImage;
use rmt_isa::program::{Program, ProgramBuilder};
use rmt_mem::{HierarchyConfig, MemoryHierarchy};
use rmt_pipeline::env::IndependentEnv;
use rmt_pipeline::{Core, CoreConfig};
use rmt_workloads::{Benchmark, Workload};
use std::rc::Rc;

fn r(i: u8) -> Reg {
    Reg::new(i)
}

/// Runs `program` to completion on the pipeline; returns (core, env, cycles).
fn run_to_halt(program: &Program, mem: MemImage, max_cycles: u64) -> (Core, IndependentEnv, u64) {
    let mut env = IndependentEnv::new(vec![mem]);
    let mut core = Core::new(CoreConfig::base(), 0);
    core.attach_thread(Rc::new(program.clone()), 0);
    core.finalize_partitions();
    let mut hier = MemoryHierarchy::new(HierarchyConfig::default(), 1);
    for cycle in 0..max_cycles {
        core.tick(cycle, &mut hier, &mut env);
        hier.tick(cycle);
        if core.all_halted() && core.in_flight(0) == 0 {
            // Drain store release.
            for c in cycle + 1..cycle + 2_000 {
                core.tick(c, &mut hier, &mut env);
            }
            return (core, env, cycle);
        }
    }
    panic!("program did not halt in {max_cycles} cycles");
}

#[test]
fn straight_line_program_matches_interpreter() {
    let p = Program::from_insts(vec![
        Inst::addi(r(1), Reg::ZERO, 6),
        Inst::addi(r(2), Reg::ZERO, 7),
        Inst::mul(r(3), r(1), r(2)),
        Inst::sw(r(3), Reg::ZERO, 0x20000),
        Inst::lw(r(4), Reg::ZERO, 0x20000),
        Inst::halt(),
    ]);
    let (core, env, _) = run_to_halt(&p, MemImage::new(), 20_000);
    assert_eq!(core.arch_reg(0, r(3)), 42);
    assert_eq!(core.arch_reg(0, r(4)), 42);
    assert_eq!(env.image(0, 0).read_u64(0x20000), 42);
    assert_eq!(core.thread_stats(0).committed, 6);
}

#[test]
fn loop_with_data_dependent_branches_matches_interpreter() {
    // Sum of i*i for i in 0..50, with a branch on parity.
    let mut b = ProgramBuilder::new();
    b.push(Inst::addi(r(1), Reg::ZERO, 0)); // i
    b.push(Inst::addi(r(2), Reg::ZERO, 50)); // n
    b.push(Inst::addi(r(3), Reg::ZERO, 0)); // sum
    b.label("loop");
    b.push(Inst::mul(r(4), r(1), r(1)));
    b.push(Inst::andi(r(5), r(1), 1));
    b.push_branch(Inst::beq(r(5), Reg::ZERO, 0), "even");
    b.push(Inst::add(r(3), r(3), r(4)));
    b.push_branch(Inst::j(0), "next");
    b.label("even");
    b.push(Inst::sub(r(3), r(3), r(4)));
    b.label("next");
    b.push(Inst::addi(r(1), r(1), 1));
    b.push_branch(Inst::blt(r(1), r(2), 0), "loop");
    b.push(Inst::sw(r(3), Reg::ZERO, 0x20000));
    b.push(Inst::halt());
    let p = b.build().unwrap();

    let mut interp = Interpreter::new(&p, MemImage::new());
    interp.run(1_000_000).unwrap();

    let (core, env, _) = run_to_halt(&p, MemImage::new(), 100_000);
    assert_eq!(core.arch_reg(0, r(3)), interp.state().reg(r(3)));
    assert_eq!(
        env.image(0, 0).read_u64(0x20000),
        interp.mem().read_u64(0x20000)
    );
    assert_eq!(core.thread_stats(0).committed, interp.committed());
}

#[test]
fn store_load_forwarding_and_partial_overlap_match_interpreter() {
    // Word store, byte store into it, word load back (partial forward).
    let p = Program::from_insts(vec![
        Inst::lui(r(1), 2), // 0x20000: cached data space
        Inst::lui(r(2), 0x1234),
        Inst::ori(r(2), r(2), 0x5678),
        Inst::sw(r(2), r(1), 0),
        Inst::addi(r(3), Reg::ZERO, 0xEE),
        Inst::sb(r(3), r(1), 1),
        Inst::lw(r(4), r(1), 0),
        Inst::lb(r(5), r(1), 1),
        Inst::halt(),
    ]);
    let mut interp = Interpreter::new(&p, MemImage::new());
    interp.run(100).unwrap();
    let (core, _, _) = run_to_halt(&p, MemImage::new(), 50_000);
    assert_eq!(core.arch_reg(0, r(4)), interp.state().reg(r(4)));
    assert_eq!(core.arch_reg(0, r(5)), 0xEE);
}

#[test]
fn calls_and_returns_match_interpreter() {
    let mut b = ProgramBuilder::new();
    b.push(Inst::addi(r(10), Reg::ZERO, 0));
    b.push(Inst::addi(r(11), Reg::ZERO, 20)); // 20 calls
    b.label("loop");
    b.push_branch(Inst::jal(Reg::RA, 0), "double");
    b.push(Inst::addi(r(10), r(10), 1));
    b.push_branch(Inst::blt(r(10), r(11), 0), "loop");
    b.push(Inst::halt());
    b.label("double");
    b.push(Inst::slli(r(12), r(10), 1));
    b.push(Inst::jalr(Reg::ZERO, Reg::RA));
    let p = b.build().unwrap();
    let mut interp = Interpreter::new(&p, MemImage::new());
    interp.run(10_000).unwrap();
    let (core, _, _) = run_to_halt(&p, MemImage::new(), 100_000);
    assert_eq!(core.arch_reg(0, r(12)), interp.state().reg(r(12)));
    assert_eq!(core.thread_stats(0).committed, interp.committed());
}

#[test]
fn membar_orders_retirement() {
    let p = Program::from_insts(vec![
        Inst::addi(r(1), Reg::ZERO, 1),
        Inst::sw(r(1), Reg::ZERO, 0x20000),
        Inst::membar(),
        Inst::addi(r(2), Reg::ZERO, 2),
        Inst::halt(),
    ]);
    let (core, env, _) = run_to_halt(&p, MemImage::new(), 50_000);
    assert_eq!(env.image(0, 0).read_u64(0x20000), 1);
    assert_eq!(core.arch_reg(0, r(2)), 2);
    assert!(core.stat("committed") >= 5);
}

#[test]
fn synthetic_benchmark_matches_interpreter_exactly() {
    // The acid test: a full synthetic benchmark (branches, calls, memory,
    // partial forwards) must match the golden model after tens of
    // thousands of committed instructions.
    for &bench in &[Benchmark::Gcc, Benchmark::Swim, Benchmark::Compress] {
        let w = Workload::generate(bench, 11);
        let budget = 30_000u64;

        let mut interp = Interpreter::new(&w.program, w.memory.clone());

        let mut env = IndependentEnv::new(vec![w.memory.clone()]);
        let mut core = Core::new(CoreConfig::base(), 0);
        core.attach_thread(Rc::new(w.program.clone()), 0);
        core.finalize_partitions();
        let mut hier = MemoryHierarchy::new(HierarchyConfig::default(), 1);
        let mut cycle = 0u64;
        while core.thread_stats(0).committed < budget {
            core.tick(cycle, &mut hier, &mut env);
            hier.tick(cycle);
            cycle += 1;
            assert!(cycle < 10_000_000, "{bench}: simulation too slow / stuck");
        }
        // The pipeline may overshoot the interpreter by a few instructions
        // in the same cycle; match the interpreter to the exact committed
        // count.
        let committed = core.thread_stats(0).committed;
        interp.run(committed).unwrap();

        // Compare memory images at the same committed count: stores leave
        // the store queue only once retired and released, so in-flight
        // stores beyond `committed` have not reached memory, and the
        // pipeline's image must equal the interpreter's exactly.
        assert_eq!(
            env.image(0, 0).digest(),
            interp.mem().digest(),
            "{bench}: memory diverged from the golden model after {committed} instructions"
        );
        let ipc = committed as f64 / cycle as f64;
        assert!(ipc > 0.15, "{bench}: implausibly low IPC {ipc}");
        assert!(ipc < 8.0, "{bench}: impossible IPC {ipc}");
    }
}

#[test]
fn smt_two_threads_make_progress_and_stay_isolated() {
    let w1 = Workload::generate(Benchmark::Gcc, 3);
    let w2 = Workload::generate(Benchmark::Swim, 4);
    let mut env = IndependentEnv::new(vec![w1.memory.clone(), w2.memory.clone()]);
    let mut core = Core::new(CoreConfig::base(), 0);
    core.attach_thread(Rc::new(w1.program.clone()), 0);
    core.attach_thread(Rc::new(w2.program.clone()), 0);
    core.finalize_partitions();
    let mut hier = MemoryHierarchy::new(HierarchyConfig::default(), 1);
    for cycle in 0..60_000 {
        core.tick(cycle, &mut hier, &mut env);
        hier.tick(cycle);
    }
    let s0 = core.thread_stats(0);
    let s1 = core.thread_stats(1);
    assert!(s0.committed > 5_000, "thread 0 starved: {}", s0.committed);
    assert!(s1.committed > 5_000, "thread 1 starved: {}", s1.committed);

    // Isolation: each image must match its own single-thread interpreter
    // at the committed count.
    let mut i1 = Interpreter::new(&w1.program, w1.memory.clone());
    i1.run(s0.committed).unwrap();
    assert_eq!(env.image(0, 0).digest(), i1.mem().digest());
    let mut i2 = Interpreter::new(&w2.program, w2.memory.clone());
    i2.run(s1.committed).unwrap();
    assert_eq!(env.image(0, 1).digest(), i2.mem().digest());
}

#[test]
fn identical_cores_are_deterministic() {
    // Two cores with identical inputs must produce identical statistics —
    // the property lockstepping depends on.
    let w = Workload::generate(Benchmark::Go, 9);
    let run = || {
        let mut env = IndependentEnv::new(vec![w.memory.clone()]);
        let mut core = Core::new(CoreConfig::base(), 0);
        core.attach_thread(Rc::new(w.program.clone()), 0);
        core.finalize_partitions();
        let mut hier = MemoryHierarchy::new(HierarchyConfig::default(), 1);
        for cycle in 0..20_000 {
            core.tick(cycle, &mut hier, &mut env);
            hier.tick(cycle);
        }
        (
            core.thread_stats(0),
            env.image(0, 0).digest(),
            core.stat("squashes"),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn branch_mispredictions_cost_cycles() {
    // A predictable loop must run much faster than an unpredictable one.
    let build = |bias_reg_setup: Vec<Inst>| {
        let mut b = ProgramBuilder::new();
        for i in bias_reg_setup {
            b.push(i);
        }
        b.push(Inst::addi(r(1), Reg::ZERO, 0));
        b.push(Inst::addi(r(2), Reg::ZERO, 2000));
        b.label("loop");
        // Branch on a pseudo-random bit from a xorshift-ish sequence in
        // r(6); predictable variant keeps r(6) at zero.
        b.push(Inst::srli(r(7), r(6), 13));
        b.push(Inst::xor(r(6), r(6), r(7)));
        b.push(Inst::slli(r(7), r(6), 7));
        b.push(Inst::xor(r(6), r(6), r(7)));
        b.push(Inst::andi(r(8), r(6), 1));
        b.push_branch(Inst::beq(r(8), Reg::ZERO, 0), "skip");
        b.push(Inst::addi(r(9), r(9), 1));
        b.label("skip");
        b.push(Inst::addi(r(1), r(1), 1));
        b.push_branch(Inst::blt(r(1), r(2), 0), "loop");
        b.push(Inst::halt());
        b.build().unwrap()
    };
    let predictable = build(vec![Inst::addi(r(6), Reg::ZERO, 0)]);
    let unpredictable = build(vec![Inst::addi(r(6), Reg::ZERO, 0x1a2b)]);
    let (_, _, cycles_pred) = run_to_halt(&predictable, MemImage::new(), 1_000_000);
    let (_, _, cycles_unpred) = run_to_halt(&unpredictable, MemImage::new(), 1_000_000);
    assert!(
        cycles_unpred as f64 > cycles_pred as f64 * 1.3,
        "mispredictions should cost cycles: {cycles_pred} vs {cycles_unpred}"
    );
}

#[test]
fn store_queue_pressure_throttles_but_preserves_correctness() {
    // A store-dense program with a tiny store queue must still be correct.
    let mut cfg = CoreConfig::base();
    cfg.sq_entries = 4;
    let mut b = ProgramBuilder::new();
    b.push(Inst::addi(r(1), Reg::ZERO, 0));
    b.push(Inst::addi(r(2), Reg::ZERO, 200));
    b.label("loop");
    b.push(Inst::slli(r(3), r(1), 3));
    b.push(Inst::sw(r(1), r(3), 0x20000));
    b.push(Inst::addi(r(1), r(1), 1));
    b.push_branch(Inst::blt(r(1), r(2), 0), "loop");
    b.push(Inst::halt());
    let p = b.build().unwrap();

    let mut env = IndependentEnv::new(vec![MemImage::new()]);
    let mut core = Core::new(cfg, 0);
    core.attach_thread(Rc::new(p.clone()), 0);
    core.finalize_partitions();
    let mut hier = MemoryHierarchy::new(HierarchyConfig::default(), 1);
    let mut cycle = 0;
    while !(core.all_halted() && core.in_flight(0) == 0) {
        core.tick(cycle, &mut hier, &mut env);
        hier.tick(cycle);
        cycle += 1;
        assert!(cycle < 1_000_000, "stuck");
    }
    for c in cycle..cycle + 2_000 {
        core.tick(c, &mut hier, &mut env);
        hier.tick(c);
    }
    for i in 0..200u64 {
        assert_eq!(env.image(0, 0).read_u64(0x20000 + i * 8), i);
    }
    assert!(core.stat("stall_sq_full") > 0);
}

#[test]
fn store_lifetime_histogram_is_populated() {
    let w = Workload::generate(Benchmark::Compress, 2);
    let mut env = IndependentEnv::new(vec![w.memory.clone()]);
    let mut core = Core::new(CoreConfig::base(), 0);
    core.attach_thread(Rc::new(w.program.clone()), 0);
    core.finalize_partitions();
    let mut hier = MemoryHierarchy::new(HierarchyConfig::default(), 1);
    for cycle in 0..20_000 {
        core.tick(cycle, &mut hier, &mut env);
        hier.tick(cycle);
    }
    let h = core.store_lifetime(0);
    assert!(h.count() > 100);
    assert!(h.mean() > 0.0);
}
