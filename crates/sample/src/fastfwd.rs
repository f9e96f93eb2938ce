//! Functional fast-forward between detailed windows.
//!
//! Drives the `rmt-isa` reference interpreter — the golden model the
//! detailed pipeline is differentially tested against — to a target
//! committed-instruction count, recording the most recent instruction,
//! data and control activity as [`WarmEvent`]s. A [`Checkpoint`] taken at
//! any point re-enters the workload with warm-ish caches and predictors
//! instead of pathologically cold ones.

use crate::checkpoint::Checkpoint;
use rmt_core::WarmEvent;
use rmt_isa::interp::{Interpreter, StopReason};
use rmt_isa::{MemImage, Op, Program};
use std::collections::VecDeque;

/// The functional fast-forward engine for one logical thread.
pub struct FastForward<'p> {
    interp: Interpreter<'p>,
    warm: VecDeque<WarmEvent>,
    warm_window: usize,
}

impl<'p> FastForward<'p> {
    /// Starts fast-forwarding `program` from its entry point over
    /// `memory`, keeping the most recent `warm_window` warming events.
    /// The log grows as events arrive, so a window longer than any gap
    /// costs nothing up front.
    pub fn new(program: &'p Program, memory: MemImage, warm_window: usize) -> Self {
        FastForward {
            interp: Interpreter::new(program, memory),
            warm: VecDeque::new(),
            warm_window,
        }
    }

    /// Absolute committed-instruction count.
    pub fn committed(&self) -> u64 {
        self.interp.committed()
    }

    /// Whether the program has halted.
    pub fn is_halted(&self) -> bool {
        self.interp.is_halted()
    }

    fn push(&mut self, ev: WarmEvent) {
        if self.warm_window == 0 {
            return;
        }
        if self.warm.len() == self.warm_window {
            self.warm.pop_front();
        }
        self.warm.push_back(ev);
    }

    fn step_once(&mut self) -> Result<(), StopReason> {
        let c = self.interp.step()?;
        let next = self.interp.state().pc();
        self.push(WarmEvent::IFetch { addr: c.pc });
        if let Some((addr, _, _)) = c.load {
            self.push(WarmEvent::Load { addr });
        }
        if let Some((addr, _, _)) = c.store {
            self.push(WarmEvent::Store { addr });
        }
        if c.inst.op.is_cond_branch() {
            self.push(WarmEvent::Branch {
                pc: c.pc,
                taken: next != c.pc.wrapping_add(4),
            });
        } else if c.inst.op == Op::Jalr {
            self.push(WarmEvent::Jump {
                pc: c.pc,
                target: next,
            });
        }
        Ok(())
    }

    /// Fast-forwards until the absolute committed count reaches `target`.
    ///
    /// # Errors
    ///
    /// Returns [`StopReason::Halted`] if the program halts first (a sample
    /// position beyond the program's run length), or propagates
    /// [`StopReason::PcOutOfRange`].
    pub fn run_to(&mut self, target: u64) -> Result<(), StopReason> {
        while self.interp.committed() < target {
            if self.interp.is_halted() {
                return Err(StopReason::Halted);
            }
            self.step_once()?;
        }
        Ok(())
    }

    /// Snapshots the current architectural state and drains the warming
    /// log: the checkpoint carries the events recorded since the previous
    /// drain (bounded by `warm_window`), packed, and the log restarts
    /// empty. The checkpoint's image shares its pages with the
    /// interpreter's until the interpreter next writes them. A
    /// sampled run taking consecutive draining checkpoints replays the
    /// whole fast-forward stream exactly once across its windows —
    /// cumulative warming without re-replaying shared history at every
    /// window.
    pub fn take_checkpoint(&mut self) -> Checkpoint {
        Checkpoint {
            regs: *self.interp.state().regs(),
            pc: self.interp.state().pc(),
            committed: self.interp.committed(),
            memory: self.interp.mem().clone(),
            warm: self.warm.drain(..).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_isa::inst::{Inst, Reg};
    use rmt_isa::ProgramBuilder;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    /// A loop that loads, stores, branches and calls, to exercise every
    /// warm-event kind.
    fn busy_program() -> Program {
        let mut b = ProgramBuilder::new();
        b.push(Inst::addi(r(1), Reg::ZERO, 0)); // i = 0
        b.push(Inst::addi(r(2), Reg::ZERO, 1_000_000)); // n
        b.label("loop");
        b.push(Inst::sw(r(1), r(1), 0x4000)); // store to a moving address
        b.push(Inst::lw(r(3), r(1), 0x4000)); // load it back
        b.push_branch(Inst::jal(Reg::RA, 0), "sub"); // call
        b.label("cont");
        b.push(Inst::addi(r(1), r(1), 8));
        b.push_branch(Inst::blt(r(1), r(2), 0), "loop");
        b.push(Inst::halt());
        b.label("sub");
        b.push(Inst::addi(r(4), r(4), 1));
        b.push(Inst::jalr(Reg::ZERO, Reg::RA)); // indirect return
        b.build().unwrap()
    }

    #[test]
    fn run_to_reaches_exact_count() {
        let p = busy_program();
        let mut ff = FastForward::new(&p, MemImage::new(), 128);
        ff.run_to(500).unwrap();
        assert_eq!(ff.committed(), 500);
        ff.run_to(777).unwrap();
        assert_eq!(ff.committed(), 777);
    }

    #[test]
    fn warm_log_is_bounded_and_covers_all_kinds() {
        let p = busy_program();
        let mut ff = FastForward::new(&p, MemImage::new(), 64);
        ff.run_to(1_000).unwrap();
        let cp = ff.take_checkpoint();
        assert_eq!(cp.warm.len(), 64);
        let has = |f: fn(WarmEvent) -> bool| cp.warm.iter().any(f);
        assert!(has(|e| matches!(e, WarmEvent::IFetch { .. })));
        assert!(has(|e| matches!(e, WarmEvent::Load { .. })));
        assert!(has(|e| matches!(e, WarmEvent::Store { .. })));
        assert!(has(|e| matches!(e, WarmEvent::Branch { .. })));
        assert!(has(|e| matches!(e, WarmEvent::Jump { .. })));
        // The checkpoint drained the log.
        assert!(ff.take_checkpoint().warm.is_empty());
    }

    #[test]
    fn an_unbounded_window_keeps_every_event() {
        let p = busy_program();
        let mut ff = FastForward::new(&p, MemImage::new(), usize::MAX);
        ff.run_to(1_000).unwrap();
        let all: Vec<WarmEvent> = ff.take_checkpoint().warm.iter().collect();
        let fetches = all
            .iter()
            .filter(|e| matches!(e, WarmEvent::IFetch { .. }))
            .count();
        assert_eq!(fetches, 1_000);
        assert_eq!(all[0], WarmEvent::IFetch { addr: 0 });
        // A bounded window keeps the stream's tail, whatever event kind
        // it starts at.
        for window in 1..=8 {
            let mut ff = FastForward::new(&p, MemImage::new(), window);
            ff.run_to(1_000).unwrap();
            let kept: Vec<WarmEvent> = ff.take_checkpoint().warm.iter().collect();
            assert_eq!(kept, all[all.len() - window..], "window {window}");
        }
    }

    #[test]
    fn a_checkpoint_image_is_frozen_while_the_fast_forward_writes() {
        let p = busy_program();
        let mut ff = FastForward::new(&p, MemImage::new(), 8);
        ff.run_to(500).unwrap();
        let cp = ff.take_checkpoint();
        let digest = cp.memory.digest();
        // Iteration 200 stores 1600 at 0x4000 + 1600, on the page the
        // loop has been writing since iteration 0.
        let addr = 0x4000 + 1_600;
        ff.run_to(2_000).unwrap();
        assert_eq!(ff.interp.mem().read_u64(addr), 1_600);
        assert_eq!(cp.memory.read_u64(addr), 0);
        assert_eq!(cp.memory.digest(), digest);
        assert_ne!(ff.take_checkpoint().memory, cp.memory);
    }

    #[test]
    fn halting_before_target_is_an_error() {
        let p = Program::from_insts(vec![Inst::nop(), Inst::halt()]);
        let mut ff = FastForward::new(&p, MemImage::new(), 8);
        assert_eq!(ff.run_to(100), Err(StopReason::Halted));
        assert!(ff.is_halted());
    }
}
