//! Targeted tests for the paper's §4.3/§4.4.2 deadlock cases.
//!
//! The SRT design deadlocks without two chunk-termination rules: a memory
//! barrier cannot retire until older stores drain, but an unverified store
//! cannot drain until its trailing copy executes, and the trailing copy
//! cannot fetch until the line prediction queue's open chunk terminates.
//! The same loop exists through a partial-forwarding load. These tests
//! build the exact pathological instruction sequences; the core's
//! no-retirement watchdog turns any regression into a panic.

use rmt::core::{Device, DeviceKind, LogicalThread, Machine, MachineSpec, RmtScheme};
use rmt::isa::inst::{Inst, Reg};
use rmt::isa::program::ProgramBuilder;
use rmt::isa::MemImage;
use std::rc::Rc;

fn r(i: u8) -> Reg {
    Reg::new(i)
}

/// store → membar, packed into one fetch chunk, forever.
fn membar_heavy_program() -> ProgramBuilder {
    let mut b = ProgramBuilder::new();
    b.push(Inst::lui(r(1), 16)); // base = 1 MB
    b.push(Inst::addi(r(2), Reg::ZERO, 0));
    b.label("loop");
    // Store and barrier in the same chunk: without forced termination the
    // open LPQ chunk never closes and the machine wedges (§4.4.2).
    b.push(Inst::sw(r(2), r(1), 0));
    b.push(Inst::membar());
    b.push(Inst::addi(r(2), r(2), 1));
    b.push_branch(Inst::j(0), "loop");
    b
}

/// byte store → word load of the same location in the same chunk, forever.
fn partial_forward_program() -> ProgramBuilder {
    let mut b = ProgramBuilder::new();
    b.push(Inst::lui(r(1), 16));
    b.push(Inst::addi(r(2), Reg::ZERO, 0x5a));
    b.label("loop");
    b.push(Inst::sb(r(2), r(1), 0));
    // The word load partially overlaps the byte store: the base processor
    // stalls the load until the store drains; in SRT the store cannot
    // drain until the trailing copy is fetched (§4.4.2's second rule).
    b.push(Inst::lw(r(3), r(1), 0));
    b.push(Inst::addi(r(2), r(2), 1));
    b.push(Inst::andi(r(2), r(2), 0xff));
    b.push_branch(Inst::j(0), "loop");
    b
}

fn srt(threads: Vec<LogicalThread>) -> Machine<RmtScheme> {
    Machine::redundant(&MachineSpec::for_kind(DeviceKind::SrtNoPsr), threads)
}

fn run_srt(b: ProgramBuilder, commits: u64) -> Machine<RmtScheme> {
    let program = Rc::new(b.build().unwrap());
    let mut dev = srt(vec![LogicalThread::new(program, MemImage::new())]);
    // The watchdog inside the core panics on 100k retire-free cycles, so
    // reaching the commit target proves liveness.
    assert!(
        dev.run_until_committed(commits, 50_000_000),
        "SRT did not reach {commits} commits"
    );
    dev
}

#[test]
fn membar_in_chunk_does_not_deadlock_srt() {
    let dev = run_srt(membar_heavy_program(), 20_000);
    assert!(
        dev.substrate().core(0).stat("membar_waits") > 0,
        "barrier never waited"
    );
    assert_eq!(dev.scheme().env().pair(0).comparator.mismatches(), 0);
}

#[test]
fn partial_forward_in_chunk_does_not_deadlock_srt() {
    let dev = run_srt(partial_forward_program(), 20_000);
    assert!(
        dev.substrate().core(0).stat("partial_forward_stalls") > 0,
        "the pathological pattern never exercised partial forwarding"
    );
    assert_eq!(dev.scheme().env().pair(0).comparator.mismatches(), 0);
}

#[test]
fn combined_pathologies_under_four_contexts() {
    // Both deadlock-prone programs as two redundant pairs at once: the
    // §4.3 per-thread reservations must keep all four contexts live.
    let a = Rc::new(membar_heavy_program().build().unwrap());
    let b = Rc::new(partial_forward_program().build().unwrap());
    let mut dev = srt(vec![
        LogicalThread::new(a, MemImage::new()),
        LogicalThread::new(b, MemImage::new()),
    ]);
    assert!(dev.run_until_committed(10_000, 50_000_000));
    for i in 0..2 {
        assert_eq!(
            dev.scheme().env().pair(i).comparator.mismatches(),
            0,
            "pair {i}"
        );
    }
}

#[test]
fn store_release_delay_throttles_but_preserves_liveness() {
    // The lockstep checker's store-path delay must never wedge the machine,
    // even combined with memory barriers.
    let program = Rc::new(membar_heavy_program().build().unwrap());
    let mut spec = MachineSpec::for_kind(DeviceKind::Lock8);
    spec.scheme.checker_latency = 32; // far worse than Lock8
    let mut dev = Machine::lockstep(&spec, vec![LogicalThread::new(program, MemImage::new())]);
    assert!(dev.run_until_committed(10_000, 50_000_000));
    assert!(!dev.scheme().desynced());
}

#[test]
fn uncached_polling_does_not_deadlock_srt() {
    // Device-register polling: store + uncached load of the same location
    // in one chunk. Uncached loads wait for the store queue to drain; in
    // SRT the drain needs the trailing copy, closing the same loop as the
    // partial-forwarding case.
    let mut b = ProgramBuilder::new();
    b.push(Inst::addi(r(1), Reg::ZERO, 0x100)); // device address (uncached)
    b.push(Inst::addi(r(2), Reg::ZERO, 0));
    b.label("loop");
    b.push(Inst::sw(r(2), r(1), 0));
    b.push(Inst::lw(r(3), r(1), 0)); // uncached, non-speculative
    b.push(Inst::addi(r(2), r(3), 1));
    b.push_branch(Inst::j(0), "loop");
    let dev = run_srt(b, 5_000);
    assert!(dev.substrate().core(0).stat("uncached_loads") > 100);
    assert!(dev.substrate().core(0).stat("uncached_load_waits") > 0);
    assert_eq!(dev.scheme().env().pair(0).comparator.mismatches(), 0);
}

#[test]
fn uncached_loads_see_drained_stores_exactly() {
    // Correctness: the polled value must round-trip exactly (the load
    // bypasses store-queue forwarding, so ordering discipline is the only
    // thing keeping it right).
    let mut b = ProgramBuilder::new();
    b.push(Inst::addi(r(1), Reg::ZERO, 0x100));
    b.push(Inst::addi(r(2), Reg::ZERO, 0));
    b.push(Inst::addi(r(4), Reg::ZERO, 200));
    b.label("loop");
    b.push(Inst::sw(r(2), r(1), 0));
    b.push(Inst::lw(r(3), r(1), 0));
    b.push(Inst::addi(r(2), r(3), 1));
    b.push_branch(Inst::blt(r(2), r(4), 0), "loop");
    b.push(Inst::halt());
    let program = Rc::new(b.build().unwrap());
    let mut dev = Machine::independent(
        &MachineSpec::default(),
        vec![LogicalThread::new(program, MemImage::new())],
    );
    let mut guard = 0;
    while !(dev.substrate().core(0).all_halted() && dev.substrate().core(0).in_flight(0) == 0) {
        dev.tick();
        guard += 1;
        assert!(guard < 2_000_000, "stuck");
    }
    assert_eq!(dev.substrate().core(0).arch_reg(0, r(2)), 200);
}
