//! Architectural checkpoints.
//!
//! A checkpoint captures everything a detailed window needs to re-enter a
//! fast-forwarded workload: the committed registers and PC, the absolute
//! committed-instruction count (so sample positions stay comparable
//! across restores), the architectural memory, and a bounded log of
//! recent warming events for functional cache/predictor warming.
//!
//! A ladder of checkpoints keeps what each window changed, not copies:
//! the first checkpoint holds its memory image whole (sharing pages with
//! the workload's), every later one only the words the fast-forward
//! changed since the one before it ([`MemDelta`]), and each warming log
//! is packed ([`WarmLog`]). A consumer walks the ladder in order with one
//! image per thread, moving it forward with [`Checkpoint::advance`].

use crate::warm::WarmLog;
use rmt_isa::inst::NUM_ARCH_REGS;
use rmt_isa::{MemDelta, MemImage};

/// An architectural snapshot of one logical thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Committed architectural registers.
    pub regs: [u64; NUM_ARCH_REGS],
    /// Next PC to execute.
    pub pc: u64,
    /// Absolute committed-instruction count at the snapshot.
    pub committed: u64,
    /// Architectural memory at the snapshot: whole in a ladder's first
    /// checkpoint, the change since the previous one in the others.
    pub(crate) memory: Memory,
    /// Recent warming events, oldest first.
    pub warm: WarmLog,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Memory {
    Image(MemImage),
    Delta(MemDelta),
}

impl Checkpoint {
    /// Moves `image` forward to this checkpoint's memory. `image` must
    /// hold the previous checkpoint's memory, except before a ladder's
    /// first checkpoint, whose whole image replaces it. Only the pages
    /// the gap wrote are touched, each copied once if `image` shares it.
    pub fn advance(&self, image: &mut MemImage) {
        match &self.memory {
            Memory::Image(m) => image.clone_from(m),
            Memory::Delta(d) => image.patch(d),
        }
    }
}
