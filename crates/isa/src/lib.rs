//! The instruction set executed by the simulated RMT machines.
//!
//! The paper's machines run Alpha binaries; we substitute a small 64-bit
//! RISC ISA with full functional semantics so that redundant execution,
//! output comparison and fault injection operate on *real values* rather
//! than scripted traces (see DESIGN.md §1).
//!
//! Contents:
//!
//! * [`inst`] — opcodes, instruction format, encode/decode.
//! * [`exec`] — functional semantics of each opcode.
//! * [`disasm`] — conventional assembly rendering for tools and debugging.
//! * [`asm`] — the matching assembler (text with labels → [`Program`]).
//! * [`mem_image`] — a sparse, paged architectural memory image.
//! * [`program`] — programs and a label-resolving [`program::ProgramBuilder`].
//! * [`interp`] — a reference interpreter, the golden model the pipeline is
//!   differentially tested against.
//!
//! # Examples
//!
//! Build and run a small program that sums 0..10:
//!
//! ```
//! use rmt_isa::program::ProgramBuilder;
//! use rmt_isa::inst::{Inst, Reg};
//! use rmt_isa::interp::Interpreter;
//! use rmt_isa::mem_image::MemImage;
//!
//! let mut b = ProgramBuilder::new();
//! let (sum, i, limit) = (Reg::new(1), Reg::new(2), Reg::new(3));
//! b.push(Inst::addi(sum, Reg::ZERO, 0));
//! b.push(Inst::addi(i, Reg::ZERO, 0));
//! b.push(Inst::addi(limit, Reg::ZERO, 10));
//! b.label("loop");
//! b.push(Inst::add(sum, sum, i));
//! b.push(Inst::addi(i, i, 1));
//! b.push_branch(Inst::blt(i, limit, 0), "loop");
//! b.push(Inst::halt());
//! let program = b.build().unwrap();
//!
//! let mut interp = Interpreter::new(&program, MemImage::new());
//! interp.run(1_000).unwrap();
//! assert_eq!(interp.state().reg(sum), 45);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod disasm;
pub mod exec;
pub mod inst;
pub mod interp;
pub mod mem_image;
pub mod program;

pub use exec::{execute, ExecOutcome};
pub use inst::{FuClass, Inst, Op, Reg};
pub use mem_image::{MemDelta, MemImage};
pub use program::{Program, ProgramBuilder};
