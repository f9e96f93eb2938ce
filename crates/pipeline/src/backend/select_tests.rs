//! Select's settled state under the events that must unsettle it: a
//! trailing load's sphere wait is retried every cycle, and a load held by
//! its store set is evaluated again once its store's address fills or a
//! fault strikes its address register.

use crate::config::{CoreConfig, PairId, ThreadId, ThreadRole};
use crate::core::Core;
use crate::env::{CoreEnv, LvqResult};
use rmt_isa::inst::{Inst, Reg};
use rmt_isa::mem_image::MemImage;
use rmt_isa::program::{Program, ProgramBuilder};
use rmt_mem::MemoryHierarchy;
use std::rc::Rc;

/// The address every test program loads from (cached: above
/// `uncached_below`).
const ADDR: u64 = 0x2_0000;

fn r(i: u8) -> Reg {
    Reg::new(i)
}

/// One thread's memory, and a load value queue whose entry for `ADDR`
/// lands at cycle `lvq_ready_at`; it logs the cycle of every lookup.
struct TestEnv {
    mem: MemImage,
    lvq_ready_at: u64,
    lookups: Vec<u64>,
}

impl CoreEnv for TestEnv {
    fn read_mem(&mut self, _core: usize, _tid: ThreadId, addr: u64, bytes: u64) -> u64 {
        self.mem.read(addr, bytes)
    }

    fn write_mem(&mut self, _core: usize, _tid: ThreadId, addr: u64, value: u64, bytes: u64) {
        self.mem.write(addr, value, bytes);
    }

    fn lvq_lookup(
        &mut self,
        _core: usize,
        _tid: ThreadId,
        now: u64,
        _pair: PairId,
        _tag: u64,
    ) -> LvqResult {
        self.lookups.push(now);
        if now < self.lvq_ready_at {
            LvqResult::NotReady
        } else {
            LvqResult::Entry {
                addr: ADDR,
                value: 7,
            }
        }
    }
}

struct Rig {
    core: Core,
    hier: MemoryHierarchy,
    env: TestEnv,
    now: u64,
}

impl Rig {
    fn new(cfg: CoreConfig, program: Program, role: ThreadRole) -> Self {
        let mut core = Core::new(cfg, 0);
        core.attach_thread_with_role(Rc::new(program), 0, role);
        core.finalize_partitions();
        Rig {
            core,
            hier: MemoryHierarchy::new(Default::default(), 1),
            env: TestEnv {
                mem: MemImage::new(),
                lvq_ready_at: u64::MAX,
                lookups: Vec::new(),
            },
            now: 0,
        }
    }

    fn tick(&mut self) {
        self.core.tick(self.now, &mut self.hier, &mut self.env);
        self.hier.tick(self.now);
        self.now += 1;
    }

    /// Sequence numbers of the loads held at the current epoch.
    fn held_loads(&self) -> Vec<u64> {
        let epoch = self.core.store_set_epoch;
        self.core
            .iq
            .entries()
            .iter()
            .filter(|e| e.held.is_some_and(|(at, _)| at == epoch))
            .map(|e| e.seq)
            .collect()
    }

    /// Sequence numbers of thread 0's stores whose address is unknown.
    fn unknown_stores(&self) -> Vec<u64> {
        let sq = &self.core.threads[0].sq;
        sq.iter().filter(|e| !e.addr_known).map(|e| e.seq).collect()
    }

    fn in_queue(&self, seq: u64) -> bool {
        self.core.iq.entries().iter().any(|e| e.seq == seq)
    }
}

/// A loop whose store address waits on two divides while the younger
/// load of the same address is ready at once, with a one-entry store
/// queue: the first pass trains the store set through an order
/// violation, after which every pass holds the load until its store's
/// address fills, and nothing else moves the epoch meanwhile.
fn held_load_rig() -> Rig {
    let mut b = ProgramBuilder::new();
    b.push(Inst::addi(r(9), Reg::ZERO, 1));
    b.push(Inst::addi(r(1), Reg::ZERO, ADDR as i64));
    b.label("top");
    b.push(Inst::div(r(3), r(1), r(9)));
    b.push(Inst::div(r(3), r(3), r(9)));
    b.push(Inst::sw(r(4), r(3), 0));
    b.push(Inst::lw(r(5), r(1), 0));
    b.push(Inst::addi(r(4), r(4), 1));
    b.push_branch(Inst::j(0), "top");
    let mut cfg = CoreConfig::base();
    cfg.sq_entries = 1;
    Rig::new(cfg, b.build().unwrap(), ThreadRole::Independent)
}

#[test]
fn a_sphere_wait_is_retried_every_cycle_and_issues_when_the_entry_lands() {
    const READY_AT: u64 = 200;
    let mut b = ProgramBuilder::new();
    b.push(Inst::addi(r(1), Reg::ZERO, ADDR as i64));
    b.push(Inst::lw(r(2), r(1), 0));
    b.push(Inst::addi(r(3), r(2), 1));
    b.push(Inst::halt());
    // The trailing thread fetches on its own (the §4.4 ablation), so the
    // test needs no line prediction queue.
    let mut cfg = CoreConfig::base();
    cfg.trailing_uses_lpq = false;
    let width = cfg.issue_width as u64;
    let mut rig = Rig::new(cfg, b.build().unwrap(), ThreadRole::Trailing(0));
    rig.env.lvq_ready_at = READY_AT;
    while !rig.core.all_halted() {
        rig.tick();
        assert!(rig.now < 5_000, "the trailing thread never halted");
    }

    let slots = rig.core.issue_slots();
    assert!(slots.sphere_wait > 0, "{slots:?}");
    assert_eq!(slots.total(), width * slots.cycles, "{slots:?}");
    // Tried on every cycle from the first one its operands allowed, and
    // issued on the first cycle its entry was there.
    let first = rig.env.lookups[0];
    assert!(first < READY_AT);
    assert_eq!(rig.env.lookups, (first..=READY_AT).collect::<Vec<_>>());
    assert_eq!(rig.core.arch_reg(0, r(3)), 8);
}

#[test]
fn a_held_load_issues_once_its_store_address_fills() {
    let mut rig = held_load_rig();
    let mut checked = 0;
    while checked < 10 {
        assert!(rig.now < 20_000, "only {checked} held loads checked");
        let held = rig.held_loads();
        let unknown = rig.unknown_stores();
        rig.tick();
        let filled = unknown.iter().any(|s| !rig.unknown_stores().contains(s));
        if held.is_empty() || !filled {
            continue;
        }
        // The fill moved the epoch, so select evaluates the load again
        // in the same scan, or at the latest in the next one, and it
        // forwards from the store.
        if held.iter().any(|&s| rig.in_queue(s)) {
            rig.tick();
        }
        for &s in &held {
            assert!(!rig.in_queue(s), "load {s} still held at {}", rig.now);
        }
        checked += 1;
    }
    assert!(rig.core.stat("store_set_waits") > 0);
    assert!(rig.core.stat("store_forwards") >= 10);
}

#[test]
fn a_struck_address_register_unsettles_a_held_load() {
    let mut rig = held_load_rig();
    // Wait until a load's verdict is replayed: held at the same epoch,
    // on the same unit, across a whole cycle.
    let (seq, stamp) = loop {
        assert!(rig.now < 20_000, "no load was replayed");
        let before: Vec<_> = rig
            .core
            .iq
            .entries()
            .iter()
            .map(|e| (e.seq, e.held))
            .collect();
        let epoch = rig.core.store_set_epoch;
        rig.tick();
        let replayed = rig.core.iq.entries().iter().find(|e| {
            e.held.is_some_and(|(at, _)| at == epoch) && before.contains(&(e.seq, e.held))
        });
        if let (Some(e), true) = (replayed, rig.core.store_set_epoch == epoch) {
            break (e.seq, e.held);
        }
    };
    // Flip the address into uncached space: evaluated again, the load
    // must now take the uncached path instead of replaying its wait.
    let prs1 = rig
        .core
        .iq
        .entries()
        .iter()
        .find(|e| e.seq == seq)
        .unwrap()
        .prs1;
    let uncached = rig.core.stat("uncached_load_waits") + rig.core.stat("uncached_loads");
    rig.core.corrupt_phys_reg(prs1, ADDR);
    rig.tick();
    assert_eq!(
        rig.core.stat("uncached_load_waits") + rig.core.stat("uncached_loads"),
        uncached + 1,
        "load {seq} (stamp {stamp:?}) was not evaluated again"
    );
}
