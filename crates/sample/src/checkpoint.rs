//! Architectural checkpoints.
//!
//! A checkpoint captures everything a detailed window needs to re-enter a
//! fast-forwarded workload: the committed registers and PC, the absolute
//! committed-instruction count (so sample positions stay comparable
//! across restores), the architectural memory image, and a bounded log of
//! recent [`WarmEvent`]s for functional cache/predictor warming.

use rmt_core::WarmEvent;
use rmt_isa::inst::NUM_ARCH_REGS;
use rmt_isa::MemImage;

/// An architectural snapshot of one logical thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Committed architectural registers.
    pub regs: [u64; NUM_ARCH_REGS],
    /// Next PC to execute.
    pub pc: u64,
    /// Absolute committed-instruction count at the snapshot.
    pub committed: u64,
    /// Architectural memory at the snapshot.
    pub memory: MemImage,
    /// Recent warming events, oldest first.
    pub warm: Vec<WarmEvent>,
}
