//! SMARTS-style sampled simulation over the redundancy fabric.
//!
//! Full cycle-accurate runs of every figure grow linearly with each new
//! arrangement the fabric makes cheap to add. Classic sampled-simulation
//! methodology (SMARTS: Wunderlich, Wenisch, Falsafi and Hoe, "SMARTS:
//! Accelerating Microarchitecture Simulation via Rigorous Statistical
//! Sampling", ISCA 2003) cuts that cost by an order of magnitude:
//! fast-forward the workload *functionally*, open a handful of short
//! *detailed windows* at planned positions, and report the window mean
//! with an explicit confidence interval.
//!
//! This crate supplies the functional half of sampling; the experiment
//! harness in `rmt-sim` composes it with the detailed `Machine` fabric:
//!
//! * [`checkpoint::Checkpoint`] — an architectural snapshot (registers +
//!   PC + memory + a bounded functional-warming log), so a workload is
//!   fast-forwarded once and re-entered at any sample point by any
//!   device kind. Checkpoints stay in memory: `rmt-sim` hands a run its
//!   ladder of them directly. As with live-points (Wenisch et al.,
//!   ISPASS 2006), a checkpoint stores only what its window needs,
//!   compactly. A ladder's first checkpoint holds its memory image whole;
//!   every later one holds only the words the fast-forward changed since
//!   the one before it ([`rmt_isa::MemDelta`]), and a run walks the
//!   ladder in order with [`Checkpoint::advance`]. Each log is a
//!   [`WarmLog`]: straight-line fetches folded into the next event's
//!   tag byte, and addresses stored as varint deltas.
//! * [`fastfwd::FastForward`] — the functional fast-forward engine: it
//!   drives the `rmt-isa` reference interpreter between detailed windows
//!   while recording the recent instruction/data/branch activity that
//!   warms caches and predictors at window entry.
//! * [`SamplePlan`] — the sampling controller's configuration (periodic
//!   or seeded-random window positions, detailed warmup and measure
//!   lengths, the warming-log depth), re-exported from `rmt_core::spec`,
//!   where it is the `sample` section of every `MachineSpec`.
//!
//! # Examples
//!
//! ```
//! use rmt_sample::{FastForward, SamplePlan};
//! use rmt_isa::{MemImage, Program, ProgramBuilder};
//! use rmt_isa::inst::{Inst, Reg};
//!
//! let mut b = ProgramBuilder::new();
//! b.label("spin");
//! b.push(Inst::addi(Reg::new(1), Reg::new(1), 1));
//! b.push_branch(Inst::j(0), "spin");
//! let p = b.build().unwrap();
//!
//! let mut ff = FastForward::new(&p, MemImage::new(), 64);
//! ff.run_to(100).unwrap();
//! let cp = ff.take_checkpoint();
//! assert_eq!(cp.committed, 100);
//! assert_eq!(cp.warm.len(), 64);
//!
//! let plan = SamplePlan::default();
//! let positions = plan.positions(1_000, 8_000);
//! assert_eq!(positions.len(), plan.windows);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod fastfwd;
pub mod warm;

pub use checkpoint::Checkpoint;
pub use fastfwd::FastForward;
pub use rmt_core::{SampleMode, SamplePlan};
pub use warm::WarmLog;
