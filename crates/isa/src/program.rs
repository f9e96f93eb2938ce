//! Programs and the label-resolving program builder.
//!
//! A [`Program`] is the read-only instruction space of one logical thread.
//! As in the paper (§2.1), the instruction space is assumed read-only, so
//! both threads of a redundant pair fetch identical instruction values given
//! identical PCs, and no input replication is needed for fetch.

use crate::inst::Inst;
use std::collections::HashMap;
use std::fmt;

/// An immutable program: instructions at 4-byte PCs starting from 0.
///
/// # Examples
///
/// ```
/// use rmt_isa::{Program, Inst, Reg};
///
/// let p = Program::from_insts(vec![Inst::addi(Reg::new(1), Reg::ZERO, 7), Inst::halt()]);
/// assert_eq!(p.len(), 2);
/// assert_eq!(p.fetch(4).unwrap().op, rmt_isa::Op::Halt);
/// assert!(p.fetch(8).is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    insts: Vec<Inst>,
}

impl Program {
    /// Wraps a vector of instructions as a program.
    pub fn from_insts(insts: Vec<Inst>) -> Self {
        Program { insts }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Fetches the instruction at byte address `pc` (must be 4-aligned).
    /// Returns `None` past the end of the program or for unaligned PCs.
    pub fn fetch(&self, pc: u64) -> Option<&Inst> {
        if !pc.is_multiple_of(4) {
            return None;
        }
        self.insts.get((pc / 4) as usize)
    }

    /// All instructions, in order.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// The byte address one past the last instruction.
    pub fn end_pc(&self) -> u64 {
        self.insts.len() as u64 * 4
    }
}

/// Errors from [`ProgramBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A branch referenced a label that was never defined.
    UndefinedLabel(String),
    /// The same label was defined twice.
    DuplicateLabel(String),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            BuildError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Builds a [`Program`] with symbolic branch targets.
///
/// # Examples
///
/// ```
/// use rmt_isa::{ProgramBuilder, Inst, Reg};
///
/// let mut b = ProgramBuilder::new();
/// b.label("top");
/// b.push(Inst::addi(Reg::new(1), Reg::new(1), 1));
/// b.push_branch(Inst::j(0), "top"); // infinite loop
/// let p = b.build().unwrap();
/// assert_eq!(p.fetch(4).unwrap().imm, 0); // `top` is PC 0
/// ```
#[derive(Debug, Clone, Default)]
pub struct ProgramBuilder {
    insts: Vec<Inst>,
    labels: HashMap<String, u64>,
    fixups: Vec<(usize, String)>,
    duplicate: Option<String>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The PC the next pushed instruction will occupy.
    pub fn here(&self) -> u64 {
        self.insts.len() as u64 * 4
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether no instructions have been emitted.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Defines `name` at the current PC.
    pub fn label(&mut self, name: impl Into<String>) {
        let name = name.into();
        if self.labels.insert(name.clone(), self.here()).is_some() {
            self.duplicate.get_or_insert(name);
        }
    }

    /// Appends an instruction.
    pub fn push(&mut self, inst: Inst) {
        self.insts.push(inst);
    }

    /// Appends a control instruction whose `imm` will be patched to the
    /// address of `target` at build time.
    pub fn push_branch(&mut self, inst: Inst, target: impl Into<String>) {
        debug_assert!(inst.op.is_control(), "push_branch requires a control op");
        self.fixups.push((self.insts.len(), target.into()));
        self.insts.push(inst);
    }

    /// Resolves labels and produces the program.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if a referenced label is undefined or a label
    /// was defined twice.
    pub fn build(mut self) -> Result<Program, BuildError> {
        if let Some(dup) = self.duplicate {
            return Err(BuildError::DuplicateLabel(dup));
        }
        for (idx, label) in &self.fixups {
            let addr = *self
                .labels
                .get(label)
                .ok_or_else(|| BuildError::UndefinedLabel(label.clone()))?;
            self.insts[*idx].imm = addr as i64;
        }
        Ok(Program::from_insts(self.insts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Op, Reg};

    #[test]
    fn fetch_by_pc() {
        let p = Program::from_insts(vec![Inst::nop(), Inst::halt()]);
        assert_eq!(p.fetch(0).unwrap().op, Op::Nop);
        assert_eq!(p.fetch(4).unwrap().op, Op::Halt);
        assert!(p.fetch(8).is_none());
        assert!(p.fetch(2).is_none());
        assert_eq!(p.end_pc(), 8);
        assert!(!p.is_empty());
    }

    #[test]
    fn builder_resolves_forward_and_backward_labels() {
        let mut b = ProgramBuilder::new();
        b.label("start");
        b.push(Inst::nop()); // pc 0
        b.push_branch(Inst::j(0), "end"); // pc 4 -> 12
        b.push_branch(Inst::j(0), "start"); // pc 8 -> 0
        b.label("end");
        b.push(Inst::halt()); // pc 12
        let p = b.build().unwrap();
        assert_eq!(p.fetch(4).unwrap().imm, 12);
        assert_eq!(p.fetch(8).unwrap().imm, 0);
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.push_branch(Inst::j(0), "nowhere");
        let err = b.build().unwrap_err();
        assert_eq!(err, BuildError::UndefinedLabel("nowhere".into()));
        assert!(err.to_string().contains("nowhere"));
    }

    #[test]
    fn duplicate_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.label("x");
        b.push(Inst::nop());
        b.label("x");
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::DuplicateLabel("x".into())
        );
    }

    #[test]
    fn here_advances_with_pushes() {
        let mut b = ProgramBuilder::new();
        assert_eq!(b.here(), 0);
        assert!(b.is_empty());
        b.push(Inst::nop());
        assert_eq!(b.here(), 4);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn branch_fixup_preserves_other_fields() {
        let mut b = ProgramBuilder::new();
        b.label("t");
        b.push_branch(Inst::beq(Reg::new(3), Reg::new(4), 999), "t");
        let p = b.build().unwrap();
        let i = p.fetch(0).unwrap();
        assert_eq!(i.rs1, Reg::new(3));
        assert_eq!(i.rs2, Reg::new(4));
        assert_eq!(i.imm, 0);
    }
}
