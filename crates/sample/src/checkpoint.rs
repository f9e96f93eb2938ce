//! Architectural checkpoints.
//!
//! A checkpoint captures everything a detailed window needs to re-enter a
//! fast-forwarded workload: the committed registers and PC, the absolute
//! committed-instruction count (so sample positions stay comparable
//! across restores), the architectural memory image, and a bounded log of
//! recent warming events for functional cache/predictor warming.
//!
//! A ladder of checkpoints holds each byte once: the memory image shares
//! every page the fast-forward did not write since the previous
//! checkpoint (see [`MemImage`]), and the warming log is packed
//! ([`WarmLog`]).

use crate::warm::WarmLog;
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
    /// Architectural memory at the snapshot, sharing unchanged pages
    /// with the fast-forward's image and the ladder's other checkpoints.
    pub memory: MemImage,
    /// Recent warming events, oldest first.
    pub warm: WarmLog,
}
