//! Functional semantics.
//!
//! [`execute`] computes an instruction's result from its operand values.
//! Both the reference interpreter and the pipeline's execute stage call this
//! single implementation, which is what makes differential testing between
//! them meaningful: any divergence is a *pipeline* bug, not a semantics
//! disagreement.

use crate::inst::{Inst, Op};

/// The effect of executing one instruction, before memory is touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecOutcome {
    /// Writes `value` to the destination register (if any).
    Value(u64),
    /// A load from `addr` of `bytes` bytes; the memory system supplies the
    /// register value.
    Load {
        /// Effective address.
        addr: u64,
        /// Access size in bytes (1 or 8).
        bytes: u64,
    },
    /// A store of `value` (low `bytes` bytes) to `addr`.
    Store {
        /// Effective address.
        addr: u64,
        /// Value to store (only the low `bytes` bytes are used).
        value: u64,
        /// Access size in bytes (1 or 8).
        bytes: u64,
    },
    /// A resolved control transfer.
    Control {
        /// Whether the branch is taken (always true for jumps).
        taken: bool,
        /// The next PC (target if taken, fall-through otherwise).
        next_pc: u64,
        /// Link value to write to `rd` (for `jal`/`jalr`).
        link: Option<u64>,
    },
    /// A memory barrier (no value, special retirement rules).
    MemBar,
    /// No architectural effect.
    Nop,
    /// Thread stop.
    Halt,
}

/// "Floating point" stand-in arithmetic: deterministic 64-bit integer ops
/// with FP latencies (see `rmt_isa::inst`). Mixed with a rotate so that
/// fadd/fsub/fmul produce well-distributed bits, which keeps synthetic FP
/// workloads' values from collapsing to small integers.
fn fp_mix(a: u64, b: u64, salt: u64) -> u64 {
    a.wrapping_add(b.rotate_left(17) ^ salt)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15 | 1)
}

/// Executes `inst` at `pc` with operand values `a` (rs1) and `b` (rs2).
///
/// Returns what should happen architecturally; memory is not accessed here.
///
/// # Examples
///
/// ```
/// use rmt_isa::{execute, ExecOutcome, Inst, Reg};
///
/// let inst = Inst::addi(Reg::new(1), Reg::ZERO, 41);
/// assert_eq!(execute(&inst, 0, 0, 0), ExecOutcome::Value(41));
/// ```
pub fn execute(inst: &Inst, pc: u64, a: u64, b: u64) -> ExecOutcome {
    use Op::*;
    let imm = inst.imm;
    let immu = imm as u64;
    match inst.op {
        Add => ExecOutcome::Value(a.wrapping_add(b)),
        Sub => ExecOutcome::Value(a.wrapping_sub(b)),
        Mul => ExecOutcome::Value(a.wrapping_mul(b)),
        Div => ExecOutcome::Value(if b == 0 { 0 } else { a.wrapping_div(b) }),
        Slt => ExecOutcome::Value((a < b) as u64),
        Addi => ExecOutcome::Value(a.wrapping_add(immu)),
        Slti => ExecOutcome::Value((a < immu) as u64),
        Lui => ExecOutcome::Value(immu << 16),
        And => ExecOutcome::Value(a & b),
        Or => ExecOutcome::Value(a | b),
        Xor => ExecOutcome::Value(a ^ b),
        Sll => ExecOutcome::Value(a << (b & 63)),
        Srl => ExecOutcome::Value(a >> (b & 63)),
        Andi => ExecOutcome::Value(a & immu),
        Ori => ExecOutcome::Value(a | immu),
        Xori => ExecOutcome::Value(a ^ immu),
        Slli => ExecOutcome::Value(a << (immu & 63)),
        Srli => ExecOutcome::Value(a >> (immu & 63)),
        Lw => ExecOutcome::Load {
            addr: a.wrapping_add(immu),
            bytes: 8,
        },
        Lb => ExecOutcome::Load {
            addr: a.wrapping_add(immu),
            bytes: 1,
        },
        Sw => ExecOutcome::Store {
            addr: a.wrapping_add(immu),
            value: b,
            bytes: 8,
        },
        Sb => ExecOutcome::Store {
            addr: a.wrapping_add(immu),
            value: b & 0xff,
            bytes: 1,
        },
        MemBar => ExecOutcome::MemBar,
        Beq | Bne | Blt | Bge => {
            let taken = match inst.op {
                Beq => a == b,
                Bne => a != b,
                Blt => a < b,
                Bge => a >= b,
                _ => unreachable!(),
            };
            ExecOutcome::Control {
                taken,
                next_pc: if taken { immu } else { pc.wrapping_add(4) },
                link: None,
            }
        }
        J => ExecOutcome::Control {
            taken: true,
            next_pc: immu,
            link: None,
        },
        Jal => ExecOutcome::Control {
            taken: true,
            next_pc: immu,
            link: Some(pc.wrapping_add(4)),
        },
        Jalr => ExecOutcome::Control {
            taken: true,
            next_pc: a & !3, // force 4-byte alignment
            link: Some(pc.wrapping_add(4)),
        },
        Fadd => ExecOutcome::Value(fp_mix(a, b, 0x1111)),
        Fsub => ExecOutcome::Value(fp_mix(a, !b, 0x2222)),
        Fmul => ExecOutcome::Value(fp_mix(a.rotate_left(13), b, 0x3333)),
        Fdiv => ExecOutcome::Value(fp_mix(a, b.rotate_right(7), 0x4444)),
        Nop => ExecOutcome::Nop,
        Halt => ExecOutcome::Halt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::Reg;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn alu_basics() {
        assert_eq!(
            execute(&Inst::add(r(1), r(2), r(3)), 0, 5, 7),
            ExecOutcome::Value(12)
        );
        assert_eq!(
            execute(&Inst::sub(r(1), r(2), r(3)), 0, 5, 7),
            ExecOutcome::Value(u64::MAX - 1)
        );
        assert_eq!(
            execute(&Inst::mul(r(1), r(2), r(3)), 0, 3, 4),
            ExecOutcome::Value(12)
        );
        assert_eq!(
            execute(&Inst::div(r(1), r(2), r(3)), 0, 12, 4),
            ExecOutcome::Value(3)
        );
        assert_eq!(
            execute(&Inst::div(r(1), r(2), r(3)), 0, 12, 0),
            ExecOutcome::Value(0)
        );
        assert_eq!(
            execute(&Inst::slt(r(1), r(2), r(3)), 0, 1, 2),
            ExecOutcome::Value(1)
        );
    }

    #[test]
    fn logic_and_shifts() {
        assert_eq!(
            execute(&Inst::and(r(1), r(2), r(3)), 0, 0b1100, 0b1010),
            ExecOutcome::Value(0b1000)
        );
        assert_eq!(
            execute(&Inst::or(r(1), r(2), r(3)), 0, 0b1100, 0b1010),
            ExecOutcome::Value(0b1110)
        );
        assert_eq!(
            execute(&Inst::xor(r(1), r(2), r(3)), 0, 0b1100, 0b1010),
            ExecOutcome::Value(0b0110)
        );
        assert_eq!(
            execute(&Inst::sll(r(1), r(2), r(3)), 0, 1, 65),
            ExecOutcome::Value(2)
        );
        assert_eq!(
            execute(&Inst::srli(r(1), r(2), 3), 0, 16, 0),
            ExecOutcome::Value(2)
        );
    }

    #[test]
    fn immediates() {
        assert_eq!(
            execute(&Inst::addi(r(1), r(2), -1), 0, 5, 0),
            ExecOutcome::Value(4)
        );
        assert_eq!(
            execute(&Inst::lui(r(1), 3), 0, 0, 0),
            ExecOutcome::Value(3 << 16)
        );
        assert_eq!(
            execute(&Inst::slti(r(1), r(2), 10), 0, 5, 0),
            ExecOutcome::Value(1)
        );
    }

    #[test]
    fn loads_and_stores_compute_addresses() {
        match execute(&Inst::lw(r(1), r(2), 16), 0, 100, 0) {
            ExecOutcome::Load { addr, bytes } => {
                assert_eq!(addr, 116);
                assert_eq!(bytes, 8);
            }
            other => panic!("unexpected {other:?}"),
        }
        match execute(&Inst::sb(r(3), r(2), -4), 0, 100, 0xabcd) {
            ExecOutcome::Store { addr, value, bytes } => {
                assert_eq!(addr, 96);
                assert_eq!(value, 0xcd);
                assert_eq!(bytes, 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn branches_resolve_both_ways() {
        let b = Inst::beq(r(1), r(2), 100);
        assert_eq!(
            execute(&b, 20, 5, 5),
            ExecOutcome::Control {
                taken: true,
                next_pc: 100,
                link: None
            }
        );
        assert_eq!(
            execute(&b, 20, 5, 6),
            ExecOutcome::Control {
                taken: false,
                next_pc: 24,
                link: None
            }
        );
        let blt = Inst::blt(r(1), r(2), 8);
        assert_eq!(
            execute(&blt, 0, 1, 2),
            ExecOutcome::Control {
                taken: true,
                next_pc: 8,
                link: None
            }
        );
        let bge = Inst::bge(r(1), r(2), 8);
        assert_eq!(
            execute(&bge, 0, 2, 2),
            ExecOutcome::Control {
                taken: true,
                next_pc: 8,
                link: None
            }
        );
    }

    #[test]
    fn jumps_link() {
        assert_eq!(
            execute(&Inst::jal(Reg::RA, 40), 8, 0, 0),
            ExecOutcome::Control {
                taken: true,
                next_pc: 40,
                link: Some(12)
            }
        );
        assert_eq!(
            execute(&Inst::jalr(Reg::RA, r(5)), 8, 103, 0),
            ExecOutcome::Control {
                taken: true,
                next_pc: 100,
                link: Some(12)
            }
        );
        assert_eq!(
            execute(&Inst::j(32), 8, 0, 0),
            ExecOutcome::Control {
                taken: true,
                next_pc: 32,
                link: None
            }
        );
    }

    #[test]
    fn fp_is_deterministic_and_spread() {
        let x = execute(&Inst::fadd(r(1), r(2), r(3)), 0, 1, 2);
        let y = execute(&Inst::fadd(r(1), r(2), r(3)), 0, 1, 2);
        assert_eq!(x, y);
        // Different ops with the same inputs differ:
        let z = execute(&Inst::fmul(r(1), r(2), r(3)), 0, 1, 2);
        assert_ne!(x, z);
    }

    #[test]
    fn special_outcomes() {
        assert_eq!(execute(&Inst::membar(), 0, 0, 0), ExecOutcome::MemBar);
        assert_eq!(execute(&Inst::nop(), 0, 0, 0), ExecOutcome::Nop);
        assert_eq!(execute(&Inst::halt(), 0, 0, 0), ExecOutcome::Halt);
    }
}
