//! Reference interpreter — the golden model.
//!
//! Executes a [`Program`] one instruction at a time with no timing model.
//! The pipeline simulator must produce exactly this architectural state for
//! the same committed instruction count; the integration tests in `/tests`
//! check that invariant differentially.

use crate::exec::{execute, ExecOutcome};
use crate::inst::{Inst, Reg, NUM_ARCH_REGS};
use crate::mem_image::MemImage;
use crate::program::Program;
use std::fmt;

/// Architectural register + PC state of one thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchState {
    regs: [u64; NUM_ARCH_REGS],
    pc: u64,
}

impl Default for ArchState {
    fn default() -> Self {
        ArchState {
            regs: [0; NUM_ARCH_REGS],
            pc: 0,
        }
    }
}

impl ArchState {
    /// Fresh state: all registers zero, PC = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads a register (`r0` always reads zero).
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index() as usize]
        }
    }

    /// Writes a register (writes to `r0` are discarded).
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.regs[r.index() as usize] = value;
        }
    }

    /// Current program counter.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Sets the program counter.
    pub fn set_pc(&mut self, pc: u64) {
        self.pc = pc;
    }

    /// The raw register file (index 0 is the hardwired zero register).
    pub fn regs(&self) -> &[u64; NUM_ARCH_REGS] {
        &self.regs
    }

    /// Rebuilds a state from a raw register file and PC (checkpoint
    /// restore). Register 0 is forced back to zero.
    pub fn from_parts(regs: [u64; NUM_ARCH_REGS], pc: u64) -> Self {
        let mut s = ArchState { regs, pc };
        s.regs[0] = 0;
        s
    }
}

/// Why the interpreter stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// A `Halt` instruction was executed.
    Halted,
    /// The step budget was exhausted before halting.
    BudgetExhausted,
    /// The PC left the program (fell off the end or jumped to a hole).
    PcOutOfRange(u64),
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StopReason::Halted => write!(f, "halted"),
            StopReason::BudgetExhausted => write!(f, "step budget exhausted"),
            StopReason::PcOutOfRange(pc) => write!(f, "pc {pc:#x} out of range"),
        }
    }
}

/// A record of one committed instruction, used by tests and by the LVQ/
/// store-comparator oracles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Commit {
    /// PC of the committed instruction.
    pub pc: u64,
    /// The instruction itself.
    pub inst: Inst,
    /// For stores: `(addr, value, bytes)`.
    pub store: Option<(u64, u64, u64)>,
    /// For loads: `(addr, value, bytes)`.
    pub load: Option<(u64, u64, u64)>,
}

/// The reference interpreter.
///
/// # Examples
///
/// See the crate-level example.
pub struct Interpreter<'p> {
    program: &'p Program,
    state: ArchState,
    mem: MemImage,
    committed: u64,
    halted: bool,
}

impl<'p> Interpreter<'p> {
    /// Creates an interpreter over `program` with the given initial memory.
    pub fn new(program: &'p Program, mem: MemImage) -> Self {
        Interpreter {
            program,
            state: ArchState::new(),
            mem,
            committed: 0,
            halted: false,
        }
    }

    /// Re-enters a program at a previously captured architectural state
    /// (checkpoint restore): registers/PC from `state`, memory from `mem`,
    /// and the committed-instruction counter continued at `committed` so
    /// sample-point positions stay absolute across restores.
    pub fn resume(program: &'p Program, mem: MemImage, state: ArchState, committed: u64) -> Self {
        Interpreter {
            program,
            state,
            mem,
            committed,
            halted: false,
        }
    }

    /// The architectural register/PC state.
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// The memory image.
    pub fn mem(&self) -> &MemImage {
        &self.mem
    }

    /// Consumes the interpreter, returning its memory image.
    pub fn into_mem(self) -> MemImage {
        self.mem
    }

    /// Instructions committed so far.
    pub fn committed(&self) -> u64 {
        self.committed
    }

    /// Whether a `Halt` has been executed.
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Executes one instruction and returns its commit record.
    ///
    /// # Errors
    ///
    /// Returns [`StopReason::PcOutOfRange`] if the PC does not map to an
    /// instruction, or [`StopReason::Halted`] if the thread already halted.
    pub fn step(&mut self) -> Result<Commit, StopReason> {
        if self.halted {
            return Err(StopReason::Halted);
        }
        let pc = self.state.pc();
        let inst = *self.program.fetch(pc).ok_or(StopReason::PcOutOfRange(pc))?;
        let a = self.state.reg(inst.rs1);
        let b = self.state.reg(inst.rs2);
        let mut commit = Commit {
            pc,
            inst,
            store: None,
            load: None,
        };
        let mut next_pc = pc.wrapping_add(4);
        match execute(&inst, pc, a, b) {
            ExecOutcome::Value(v) => self.state.set_reg(inst.rd, v),
            ExecOutcome::Load { addr, bytes } => {
                let v = self.mem.read(addr, bytes);
                self.state.set_reg(inst.rd, v);
                commit.load = Some((addr, v, bytes));
            }
            ExecOutcome::Store { addr, value, bytes } => {
                self.mem.write(addr, value, bytes);
                commit.store = Some((addr, value, bytes));
            }
            ExecOutcome::Control {
                next_pc: t, link, ..
            } => {
                if let Some(l) = link {
                    self.state.set_reg(inst.rd, l);
                }
                next_pc = t;
            }
            ExecOutcome::MemBar | ExecOutcome::Nop => {}
            ExecOutcome::Halt => {
                self.halted = true;
            }
        }
        self.state.set_pc(next_pc);
        self.committed += 1;
        Ok(commit)
    }

    /// Runs up to `max_steps` instructions.
    ///
    /// Returns the stop reason: [`StopReason::Halted`] on `Halt`,
    /// [`StopReason::BudgetExhausted`] otherwise.
    ///
    /// # Errors
    ///
    /// Propagates [`StopReason::PcOutOfRange`] as an error.
    pub fn run(&mut self, max_steps: u64) -> Result<StopReason, StopReason> {
        for _ in 0..max_steps {
            if self.halted {
                return Ok(StopReason::Halted);
            }
            match self.step() {
                Ok(_) => {}
                Err(StopReason::Halted) => return Ok(StopReason::Halted),
                Err(e) => return Err(e),
            }
        }
        Ok(if self.halted {
            StopReason::Halted
        } else {
            StopReason::BudgetExhausted
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Inst;
    use crate::program::ProgramBuilder;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn straight_line_arithmetic() {
        let p = Program::from_insts(vec![
            Inst::addi(r(1), Reg::ZERO, 6),
            Inst::addi(r(2), Reg::ZERO, 7),
            Inst::mul(r(3), r(1), r(2)),
            Inst::halt(),
        ]);
        let mut i = Interpreter::new(&p, MemImage::new());
        let stop = i.run(100).unwrap();
        assert_eq!(stop, StopReason::Halted);
        assert_eq!(i.state().reg(r(3)), 42);
        assert_eq!(i.committed(), 4);
    }

    #[test]
    fn loads_and_stores_roundtrip() {
        let p = Program::from_insts(vec![
            Inst::addi(r(1), Reg::ZERO, 0x100),
            Inst::addi(r(2), Reg::ZERO, 77),
            Inst::sw(r(2), r(1), 0),
            Inst::lw(r(3), r(1), 0),
            Inst::halt(),
        ]);
        let mut i = Interpreter::new(&p, MemImage::new());
        i.run(100).unwrap();
        assert_eq!(i.state().reg(r(3)), 77);
        assert_eq!(i.mem().read_u64(0x100), 77);
    }

    #[test]
    fn commit_records_loads_and_stores() {
        let p = Program::from_insts(vec![
            Inst::addi(r(1), Reg::ZERO, 8),
            Inst::sw(r(1), Reg::ZERO, 64),
            Inst::lw(r(2), Reg::ZERO, 64),
        ]);
        let mut i = Interpreter::new(&p, MemImage::new());
        i.step().unwrap();
        let s = i.step().unwrap();
        assert_eq!(s.store, Some((64, 8, 8)));
        let l = i.step().unwrap();
        assert_eq!(l.load, Some((64, 8, 8)));
    }

    #[test]
    fn loop_with_branches() {
        let mut b = ProgramBuilder::new();
        b.push(Inst::addi(r(1), Reg::ZERO, 0)); // i = 0
        b.push(Inst::addi(r(2), Reg::ZERO, 5)); // n = 5
        b.label("loop");
        b.push(Inst::addi(r(1), r(1), 1));
        b.push_branch(Inst::blt(r(1), r(2), 0), "loop");
        b.push(Inst::halt());
        let p = b.build().unwrap();
        let mut i = Interpreter::new(&p, MemImage::new());
        i.run(1000).unwrap();
        assert_eq!(i.state().reg(r(1)), 5);
    }

    #[test]
    fn call_and_return_via_jalr() {
        let mut b = ProgramBuilder::new();
        b.push_branch(Inst::jal(Reg::RA, 0), "func"); // pc 0
        b.push(Inst::halt()); // pc 4 (return target)
        b.label("func");
        b.push(Inst::addi(r(5), Reg::ZERO, 99)); // pc 8
        b.push(Inst::jalr(Reg::ZERO, Reg::RA)); // pc 12 -> return to 4
        let p = b.build().unwrap();
        let mut i = Interpreter::new(&p, MemImage::new());
        let stop = i.run(100).unwrap();
        assert_eq!(stop, StopReason::Halted);
        assert_eq!(i.state().reg(r(5)), 99);
    }

    #[test]
    fn pc_out_of_range_detected() {
        let p = Program::from_insts(vec![Inst::nop()]);
        let mut i = Interpreter::new(&p, MemImage::new());
        i.step().unwrap();
        assert_eq!(i.step(), Err(StopReason::PcOutOfRange(4)));
    }

    #[test]
    fn budget_exhaustion() {
        let mut b = ProgramBuilder::new();
        b.label("spin");
        b.push_branch(Inst::j(0), "spin");
        let p = b.build().unwrap();
        let mut i = Interpreter::new(&p, MemImage::new());
        assert_eq!(i.run(10).unwrap(), StopReason::BudgetExhausted);
        assert_eq!(i.committed(), 10);
    }

    #[test]
    fn halted_interpreter_stays_halted() {
        let p = Program::from_insts(vec![Inst::halt()]);
        let mut i = Interpreter::new(&p, MemImage::new());
        i.step().unwrap();
        assert!(i.is_halted());
        assert_eq!(i.step(), Err(StopReason::Halted));
        assert_eq!(i.run(5).unwrap(), StopReason::Halted);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let p = Program::from_insts(vec![
            Inst::addi(Reg::ZERO, Reg::ZERO, 55),
            Inst::add(r(1), Reg::ZERO, Reg::ZERO),
            Inst::halt(),
        ]);
        let mut i = Interpreter::new(&p, MemImage::new());
        i.run(10).unwrap();
        assert_eq!(i.state().reg(Reg::ZERO), 0);
        assert_eq!(i.state().reg(r(1)), 0);
    }
}
