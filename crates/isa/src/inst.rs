//! Instruction format, opcodes and encode/decode.
//!
//! The ISA is a 64-bit, fixed-width (4-byte) RISC:
//!
//! * 64 architectural general-purpose registers per thread (the paper's base
//!   processor, Table 1); `r0` is hardwired to zero.
//! * Integer, logic, memory and floating-point opcode classes mapping onto
//!   the base processor's four functional-unit pools.
//! * Word (8-byte) and byte memory accesses — the byte store / word load pair
//!   exercises the partial-forwarding path the paper's §4.4.2 chunk
//!   termination rule exists for.
//! * A `MemBar` memory barrier, the other §4.4.2 deadlock case.
//!
//! "Floating point" opcodes are executed as integer bit-ops with FP-like
//! latencies: the pipeline only cares about latency, FU class and the fact
//! that values are deterministic (DESIGN.md §1).

use std::fmt;

/// An architectural register index in `0..64`. `r0` reads as zero and
/// ignores writes.
///
/// # Examples
///
/// ```
/// use rmt_isa::Reg;
/// let r = Reg::new(5);
/// assert_eq!(r.index(), 5);
/// assert!(Reg::ZERO.is_zero());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(u8);

/// Number of architectural registers per thread.
pub const NUM_ARCH_REGS: usize = 64;

impl Reg {
    /// The hardwired-zero register.
    pub const ZERO: Reg = Reg(0);
    /// Conventional return-address register (used by `jal`).
    pub const RA: Reg = Reg(63);

    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `index >= 64`.
    pub const fn new(index: u8) -> Self {
        assert!(
            (index as usize) < NUM_ARCH_REGS,
            "register index out of range"
        );
        Reg(index)
    }

    /// The register's index in `0..64`.
    pub fn index(self) -> u8 {
        self.0
    }

    /// Whether this is the hardwired-zero register.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Opcodes. Grouped by functional-unit class (see [`FuClass`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // variant names are the documentation
pub enum Op {
    // Integer units.
    Add,
    Sub,
    Mul,
    Div,
    Slt,
    Addi,
    Slti,
    Lui,
    // Logic units.
    And,
    Or,
    Xor,
    Sll,
    Srl,
    Andi,
    Ori,
    Xori,
    Slli,
    Srli,
    // Memory units.
    /// Load 8-byte word: `rd = mem[rs1 + imm]`.
    Lw,
    /// Load byte (zero-extended).
    Lb,
    /// Store 8-byte word: `mem[rs1 + imm] = rs2`.
    Sw,
    /// Store byte (low 8 bits of rs2).
    Sb,
    /// Memory barrier: retires only once the thread's store queue drained.
    MemBar,
    // Control (executes on integer units).
    Beq,
    Bne,
    Blt,
    Bge,
    /// Unconditional jump to `imm` (byte target).
    J,
    /// Jump and link: `rd = pc + 4; pc = imm`.
    Jal,
    /// Jump register: `rd = pc + 4; pc = rs1`.
    Jalr,
    // Floating point (bit-deterministic stand-ins).
    Fadd,
    Fsub,
    Fmul,
    Fdiv,
    // Misc.
    Nop,
    /// Stops the thread.
    Halt,
}

/// The functional-unit pool an instruction issues to (Table 1: 8 integer,
/// 8 logic, 4 memory, 4 floating-point units).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuClass {
    /// Integer ALU (also executes branches and jumps).
    Int,
    /// Logic/shift units.
    Logic,
    /// Memory (address generation + cache port).
    Mem,
    /// Floating point.
    Fp,
}

impl Op {
    /// The functional-unit class this opcode issues to.
    pub fn fu_class(self) -> FuClass {
        use Op::*;
        match self {
            Add | Sub | Mul | Div | Slt | Addi | Slti | Lui | Beq | Bne | Blt | Bge | J | Jal
            | Jalr | Nop | Halt => FuClass::Int,
            And | Or | Xor | Sll | Srl | Andi | Ori | Xori | Slli | Srli => FuClass::Logic,
            Lw | Lb | Sw | Sb | MemBar => FuClass::Mem,
            Fadd | Fsub | Fmul | Fdiv => FuClass::Fp,
        }
    }

    /// Execution latency in cycles once operands are read (EBOX/FBOX).
    /// Simple ALU ops take 1 cycle (Figure 2's `E = 1`); multiplies,
    /// divides and FP ops take longer, as on the Alpha 21264/21464.
    pub fn latency(self) -> u32 {
        use Op::*;
        match self {
            Mul => 7,
            Div => 20,
            Fadd | Fsub => 4,
            Fmul => 4,
            Fdiv => 16,
            _ => 1,
        }
    }

    /// Whether this is a conditional branch.
    pub fn is_cond_branch(self) -> bool {
        matches!(self, Op::Beq | Op::Bne | Op::Blt | Op::Bge)
    }

    /// Whether this is any control transfer (branch or jump).
    pub fn is_control(self) -> bool {
        self.is_cond_branch() || matches!(self, Op::J | Op::Jal | Op::Jalr)
    }

    /// Whether this is a load.
    pub fn is_load(self) -> bool {
        matches!(self, Op::Lw | Op::Lb)
    }

    /// Whether this is a store.
    pub fn is_store(self) -> bool {
        matches!(self, Op::Sw | Op::Sb)
    }
}

/// One decoded instruction.
///
/// All fields are public in the C-struct spirit: an `Inst` is passive data
/// with no invariants beyond the register range enforced by [`Reg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Inst {
    /// Opcode.
    pub op: Op,
    /// Destination register (ignored by ops without a destination).
    pub rd: Reg,
    /// First source register.
    pub rs1: Reg,
    /// Second source register.
    pub rs2: Reg,
    /// Immediate / branch or jump target (byte address for control ops).
    pub imm: i64,
}

impl Inst {
    /// Creates an instruction from raw parts.
    pub fn new(op: Op, rd: Reg, rs1: Reg, rs2: Reg, imm: i64) -> Self {
        Inst {
            op,
            rd,
            rs1,
            rs2,
            imm,
        }
    }

    /// `rd = rs1 + rs2`
    pub fn add(rd: Reg, rs1: Reg, rs2: Reg) -> Self {
        Self::new(Op::Add, rd, rs1, rs2, 0)
    }
    /// `rd = rs1 - rs2`
    pub fn sub(rd: Reg, rs1: Reg, rs2: Reg) -> Self {
        Self::new(Op::Sub, rd, rs1, rs2, 0)
    }
    /// `rd = rs1 * rs2`
    pub fn mul(rd: Reg, rs1: Reg, rs2: Reg) -> Self {
        Self::new(Op::Mul, rd, rs1, rs2, 0)
    }
    /// `rd = rs1 / max(rs2,1)`
    pub fn div(rd: Reg, rs1: Reg, rs2: Reg) -> Self {
        Self::new(Op::Div, rd, rs1, rs2, 0)
    }
    /// `rd = (rs1 < rs2) as u64` (unsigned)
    pub fn slt(rd: Reg, rs1: Reg, rs2: Reg) -> Self {
        Self::new(Op::Slt, rd, rs1, rs2, 0)
    }
    /// `rd = rs1 + imm`
    pub fn addi(rd: Reg, rs1: Reg, imm: i64) -> Self {
        Self::new(Op::Addi, rd, rs1, Reg::ZERO, imm)
    }
    /// `rd = (rs1 < imm) as u64` (unsigned)
    pub fn slti(rd: Reg, rs1: Reg, imm: i64) -> Self {
        Self::new(Op::Slti, rd, rs1, Reg::ZERO, imm)
    }
    /// `rd = imm << 16`
    pub fn lui(rd: Reg, imm: i64) -> Self {
        Self::new(Op::Lui, rd, Reg::ZERO, Reg::ZERO, imm)
    }
    /// `rd = rs1 & rs2`
    pub fn and(rd: Reg, rs1: Reg, rs2: Reg) -> Self {
        Self::new(Op::And, rd, rs1, rs2, 0)
    }
    /// `rd = rs1 | rs2`
    pub fn or(rd: Reg, rs1: Reg, rs2: Reg) -> Self {
        Self::new(Op::Or, rd, rs1, rs2, 0)
    }
    /// `rd = rs1 ^ rs2`
    pub fn xor(rd: Reg, rs1: Reg, rs2: Reg) -> Self {
        Self::new(Op::Xor, rd, rs1, rs2, 0)
    }
    /// `rd = rs1 << (rs2 & 63)`
    pub fn sll(rd: Reg, rs1: Reg, rs2: Reg) -> Self {
        Self::new(Op::Sll, rd, rs1, rs2, 0)
    }
    /// `rd = rs1 >> (rs2 & 63)`
    pub fn srl(rd: Reg, rs1: Reg, rs2: Reg) -> Self {
        Self::new(Op::Srl, rd, rs1, rs2, 0)
    }
    /// `rd = rs1 & imm`
    pub fn andi(rd: Reg, rs1: Reg, imm: i64) -> Self {
        Self::new(Op::Andi, rd, rs1, Reg::ZERO, imm)
    }
    /// `rd = rs1 | imm`
    pub fn ori(rd: Reg, rs1: Reg, imm: i64) -> Self {
        Self::new(Op::Ori, rd, rs1, Reg::ZERO, imm)
    }
    /// `rd = rs1 ^ imm`
    pub fn xori(rd: Reg, rs1: Reg, imm: i64) -> Self {
        Self::new(Op::Xori, rd, rs1, Reg::ZERO, imm)
    }
    /// `rd = rs1 << (imm & 63)`
    pub fn slli(rd: Reg, rs1: Reg, imm: i64) -> Self {
        Self::new(Op::Slli, rd, rs1, Reg::ZERO, imm)
    }
    /// `rd = rs1 >> (imm & 63)`
    pub fn srli(rd: Reg, rs1: Reg, imm: i64) -> Self {
        Self::new(Op::Srli, rd, rs1, Reg::ZERO, imm)
    }
    /// `rd = mem64[rs1 + imm]`
    pub fn lw(rd: Reg, rs1: Reg, imm: i64) -> Self {
        Self::new(Op::Lw, rd, rs1, Reg::ZERO, imm)
    }
    /// `rd = mem8[rs1 + imm]` (zero-extended)
    pub fn lb(rd: Reg, rs1: Reg, imm: i64) -> Self {
        Self::new(Op::Lb, rd, rs1, Reg::ZERO, imm)
    }
    /// `mem64[rs1 + imm] = rs2`
    pub fn sw(rs2: Reg, rs1: Reg, imm: i64) -> Self {
        Self::new(Op::Sw, Reg::ZERO, rs1, rs2, imm)
    }
    /// `mem8[rs1 + imm] = rs2 & 0xff`
    pub fn sb(rs2: Reg, rs1: Reg, imm: i64) -> Self {
        Self::new(Op::Sb, Reg::ZERO, rs1, rs2, imm)
    }
    /// Memory barrier.
    pub fn membar() -> Self {
        Self::new(Op::MemBar, Reg::ZERO, Reg::ZERO, Reg::ZERO, 0)
    }
    /// `if rs1 == rs2 goto target`
    pub fn beq(rs1: Reg, rs2: Reg, target: i64) -> Self {
        Self::new(Op::Beq, Reg::ZERO, rs1, rs2, target)
    }
    /// `if rs1 != rs2 goto target`
    pub fn bne(rs1: Reg, rs2: Reg, target: i64) -> Self {
        Self::new(Op::Bne, Reg::ZERO, rs1, rs2, target)
    }
    /// `if rs1 < rs2 goto target` (unsigned)
    pub fn blt(rs1: Reg, rs2: Reg, target: i64) -> Self {
        Self::new(Op::Blt, Reg::ZERO, rs1, rs2, target)
    }
    /// `if rs1 >= rs2 goto target` (unsigned)
    pub fn bge(rs1: Reg, rs2: Reg, target: i64) -> Self {
        Self::new(Op::Bge, Reg::ZERO, rs1, rs2, target)
    }
    /// `goto target`
    pub fn j(target: i64) -> Self {
        Self::new(Op::J, Reg::ZERO, Reg::ZERO, Reg::ZERO, target)
    }
    /// `rd = pc + 4; goto target`
    pub fn jal(rd: Reg, target: i64) -> Self {
        Self::new(Op::Jal, rd, Reg::ZERO, Reg::ZERO, target)
    }
    /// `rd = pc + 4; goto rs1`
    pub fn jalr(rd: Reg, rs1: Reg) -> Self {
        Self::new(Op::Jalr, rd, rs1, Reg::ZERO, 0)
    }
    /// FP add stand-in.
    pub fn fadd(rd: Reg, rs1: Reg, rs2: Reg) -> Self {
        Self::new(Op::Fadd, rd, rs1, rs2, 0)
    }
    /// FP sub stand-in.
    pub fn fsub(rd: Reg, rs1: Reg, rs2: Reg) -> Self {
        Self::new(Op::Fsub, rd, rs1, rs2, 0)
    }
    /// FP mul stand-in.
    pub fn fmul(rd: Reg, rs1: Reg, rs2: Reg) -> Self {
        Self::new(Op::Fmul, rd, rs1, rs2, 0)
    }
    /// FP div stand-in.
    pub fn fdiv(rd: Reg, rs1: Reg, rs2: Reg) -> Self {
        Self::new(Op::Fdiv, rd, rs1, rs2, 0)
    }
    /// No-operation.
    pub fn nop() -> Self {
        Self::new(Op::Nop, Reg::ZERO, Reg::ZERO, Reg::ZERO, 0)
    }
    /// Thread stop.
    pub fn halt() -> Self {
        Self::new(Op::Halt, Reg::ZERO, Reg::ZERO, Reg::ZERO, 0)
    }

    /// Whether the instruction writes an architectural register.
    pub fn writes_reg(&self) -> bool {
        use Op::*;
        !self.rd.is_zero()
            && !matches!(
                self.op,
                Sw | Sb | MemBar | Beq | Bne | Blt | Bge | J | Nop | Halt
            )
    }

    /// The source registers actually read by this instruction.
    pub fn sources(&self) -> (Option<Reg>, Option<Reg>) {
        use Op::*;
        match self.op {
            Add | Sub | Mul | Div | Slt | And | Or | Xor | Sll | Srl | Fadd | Fsub | Fmul
            | Fdiv | Beq | Bne | Blt | Bge => (Some(self.rs1), Some(self.rs2)),
            Addi | Slti | Andi | Ori | Xori | Slli | Srli | Lw | Lb | Jalr => {
                (Some(self.rs1), None)
            }
            Sw | Sb => (Some(self.rs1), Some(self.rs2)),
            Lui | J | Jal | MemBar | Nop | Halt => (None, None),
        }
    }

    /// FU class shortcut.
    pub fn fu_class(&self) -> FuClass {
        self.op.fu_class()
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} rd={} rs1={} rs2={} imm={}",
            self.op, self.rd, self.rs1, self.rs2, self.imm
        )
    }
}

/// All opcodes, in encoding order. Public so property tests can sweep the
/// full ISA.
pub const ALL_OPS: &[Op] = &[
    Op::Add,
    Op::Sub,
    Op::Mul,
    Op::Div,
    Op::Slt,
    Op::Addi,
    Op::Slti,
    Op::Lui,
    Op::And,
    Op::Or,
    Op::Xor,
    Op::Sll,
    Op::Srl,
    Op::Andi,
    Op::Ori,
    Op::Xori,
    Op::Slli,
    Op::Srli,
    Op::Lw,
    Op::Lb,
    Op::Sw,
    Op::Sb,
    Op::MemBar,
    Op::Beq,
    Op::Bne,
    Op::Blt,
    Op::Bge,
    Op::J,
    Op::Jal,
    Op::Jalr,
    Op::Fadd,
    Op::Fsub,
    Op::Fmul,
    Op::Fdiv,
    Op::Nop,
    Op::Halt,
];

/// Error returned by [`Inst::decode`] for malformed words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The opcode field that failed to decode.
    pub opcode: u8,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid opcode field {:#x}", self.opcode)
    }
}

impl std::error::Error for DecodeError {}

impl Inst {
    /// Encodes the instruction into a 64-bit word:
    /// `[63:32] imm (i32), [31:24] opcode, [23:18] rd, [17:12] rs1, [11:6] rs2`.
    ///
    /// The immediate is truncated to 32 bits, which is sufficient for all
    /// generated programs (addresses fit in 32 bits).
    pub fn encode(&self) -> u64 {
        let opcode = ALL_OPS
            .iter()
            .position(|o| *o == self.op)
            .expect("op in table") as u64;
        ((self.imm as i32 as u32 as u64) << 32)
            | (opcode << 24)
            | ((self.rd.index() as u64) << 18)
            | ((self.rs1.index() as u64) << 12)
            | ((self.rs2.index() as u64) << 6)
    }

    /// Decodes a word produced by [`Inst::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError`] if the opcode field is out of range.
    pub fn decode(word: u64) -> Result<Inst, DecodeError> {
        let opcode = ((word >> 24) & 0xff) as u8;
        let op = *ALL_OPS.get(opcode as usize).ok_or(DecodeError { opcode })?;
        Ok(Inst {
            op,
            rd: Reg::new(((word >> 18) & 0x3f) as u8),
            rs1: Reg::new(((word >> 12) & 0x3f) as u8),
            rs2: Reg::new(((word >> 6) & 0x3f) as u8),
            imm: ((word >> 32) as u32 as i32) as i64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_bounds() {
        assert_eq!(Reg::new(63).index(), 63);
        assert!(Reg::ZERO.is_zero());
        assert!(!Reg::new(1).is_zero());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_out_of_range_panics() {
        Reg::new(64);
    }

    #[test]
    fn fu_classes_partition_ops() {
        for &op in ALL_OPS {
            // Every op maps to exactly one class without panicking.
            let _ = op.fu_class();
        }
        assert_eq!(Op::Add.fu_class(), FuClass::Int);
        assert_eq!(Op::Xor.fu_class(), FuClass::Logic);
        assert_eq!(Op::Lw.fu_class(), FuClass::Mem);
        assert_eq!(Op::Fmul.fu_class(), FuClass::Fp);
        assert_eq!(Op::Beq.fu_class(), FuClass::Int);
    }

    #[test]
    fn latencies_are_positive_and_ordered() {
        for &op in ALL_OPS {
            assert!(op.latency() >= 1);
        }
        assert!(Op::Mul.latency() > Op::Add.latency());
        assert!(Op::Div.latency() > Op::Mul.latency());
        assert!(Op::Fdiv.latency() > Op::Fadd.latency());
    }

    #[test]
    fn writes_reg_excludes_stores_branches_and_r0() {
        assert!(Inst::add(Reg::new(1), Reg::ZERO, Reg::ZERO).writes_reg());
        assert!(!Inst::add(Reg::ZERO, Reg::new(1), Reg::new(2)).writes_reg());
        assert!(!Inst::sw(Reg::new(1), Reg::new(2), 0).writes_reg());
        assert!(!Inst::beq(Reg::new(1), Reg::new(2), 0).writes_reg());
        assert!(Inst::jal(Reg::RA, 0).writes_reg());
        assert!(Inst::lw(Reg::new(3), Reg::new(2), 8).writes_reg());
    }

    #[test]
    fn sources_match_semantics() {
        let add = Inst::add(Reg::new(1), Reg::new(2), Reg::new(3));
        assert_eq!(add.sources(), (Some(Reg::new(2)), Some(Reg::new(3))));
        let addi = Inst::addi(Reg::new(1), Reg::new(2), 5);
        assert_eq!(addi.sources(), (Some(Reg::new(2)), None));
        let sw = Inst::sw(Reg::new(4), Reg::new(5), 0);
        assert_eq!(sw.sources(), (Some(Reg::new(5)), Some(Reg::new(4))));
        let j = Inst::j(16);
        assert_eq!(j.sources(), (None, None));
    }

    #[test]
    fn control_and_memory_predicates() {
        assert!(Op::Beq.is_cond_branch());
        assert!(!Op::J.is_cond_branch());
        assert!(Op::J.is_control());
        assert!(Op::Jalr.is_control());
        assert!(Op::Lw.is_load());
        assert!(Op::Sb.is_store());
    }

    #[test]
    fn encode_decode_roundtrip_all_ops() {
        for &op in ALL_OPS {
            let inst = Inst::new(op, Reg::new(7), Reg::new(13), Reg::new(63), -12345);
            let decoded = Inst::decode(inst.encode()).unwrap();
            assert_eq!(inst, decoded, "op {op:?}");
        }
    }

    #[test]
    fn decode_rejects_bad_opcode() {
        let bad = (200u64) << 24;
        assert!(Inst::decode(bad).is_err());
        let err = Inst::decode(bad).unwrap_err();
        assert_eq!(err.opcode, 200);
        assert!(err.to_string().contains("invalid opcode"));
    }

    #[test]
    fn display_is_nonempty() {
        let text = Inst::add(Reg::new(1), Reg::new(2), Reg::new(3)).to_string();
        assert!(text.contains("Add"));
    }
}
