//! Physical register file, free list and per-thread rename maps.
//!
//! The base processor has 512 physical registers backing 64 architectural
//! registers per thread (Table 1). Misprediction recovery restores rename
//! maps by walking the squashed instructions youngest-first and undoing
//! each mapping (the PBOX's checkpoint mechanism is modelled by this exact
//! rollback, which has the same architectural effect).

use rmt_isa::inst::{Reg, NUM_ARCH_REGS};

/// Index of a physical register.
pub type PhysReg = u16;

/// The shared physical register file: values, ready times and a free list.
#[derive(Debug, Clone)]
pub struct RegFile {
    values: Vec<u64>,
    /// Cycle at which each register's value becomes readable;
    /// `u64::MAX` = not in flight/ready never (allocated but unwritten).
    ready_at: Vec<u64>,
    free: Vec<PhysReg>,
}

impl RegFile {
    /// Creates a register file with `phys_regs` registers, all free except
    /// the permanently-zero register 0.
    ///
    /// # Panics
    ///
    /// Panics if `phys_regs < 2` or `phys_regs > 65535`.
    pub fn new(phys_regs: usize) -> Self {
        assert!((2..=65_535).contains(&phys_regs), "bad register count");
        RegFile {
            values: vec![0; phys_regs],
            ready_at: vec![0; phys_regs],
            // Register 0 is reserved as the hardwired zero.
            free: (1..phys_regs as PhysReg).rev().collect(),
        }
    }

    /// The hardwired-zero physical register.
    pub const ZERO: PhysReg = 0;

    /// Allocates a physical register, or `None` if the free list is empty.
    pub fn alloc(&mut self) -> Option<PhysReg> {
        let r = self.free.pop()?;
        self.values[r as usize] = 0;
        self.ready_at[r as usize] = u64::MAX;
        Some(r)
    }

    /// Returns a register to the free list.
    ///
    /// # Panics
    ///
    /// Panics (debug) if asked to free the zero register.
    pub fn release(&mut self, r: PhysReg) {
        debug_assert_ne!(r, Self::ZERO, "cannot free the zero register");
        self.free.push(r);
    }

    /// Free registers remaining.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Writes `value` into `r`, readable from cycle `ready_at`.
    pub fn write(&mut self, r: PhysReg, value: u64, ready_at: u64) {
        if r != Self::ZERO {
            self.values[r as usize] = value;
            self.ready_at[r as usize] = ready_at;
        }
    }

    /// The value of `r` (zero for the zero register).
    pub fn value(&self, r: PhysReg) -> u64 {
        if r == Self::ZERO {
            0
        } else {
            self.values[r as usize]
        }
    }

    /// XORs `mask` into the raw bits of `r` (fault injection).
    pub fn corrupt(&mut self, r: PhysReg, mask: u64) {
        if r != Self::ZERO {
            self.values[r as usize] ^= mask;
        }
    }

    /// The first cycle a consumer of `r` may issue given `bypass` cycles
    /// of forward slack (operands are read `rbox_latency` after issue, so
    /// a consumer may issue before the producer's value lands), or `None`
    /// while `r`'s producer has not executed. Once `Some`, the answer
    /// holds until `r` is freed: a register's ready time is written once.
    pub fn issue_ready(&self, r: PhysReg, bypass: u64) -> Option<u64> {
        let t = self.ready_at[r as usize];
        (t != u64::MAX).then(|| t.saturating_sub(bypass))
    }

    /// The raw ready time of `r`.
    pub fn ready_at(&self, r: PhysReg) -> u64 {
        self.ready_at[r as usize]
    }
}

/// One thread's architectural→physical mapping.
#[derive(Debug, Clone)]
pub struct RenameMap {
    map: [PhysReg; NUM_ARCH_REGS],
}

impl RenameMap {
    /// Creates a map with every architectural register pointing at the
    /// zero physical register (so uninitialized reads are zero, matching
    /// the reference interpreter).
    pub fn new() -> Self {
        RenameMap {
            map: [RegFile::ZERO; NUM_ARCH_REGS],
        }
    }

    /// The physical register currently holding `r`.
    pub fn get(&self, r: Reg) -> PhysReg {
        if r.is_zero() {
            RegFile::ZERO
        } else {
            self.map[r.index() as usize]
        }
    }

    /// Points `r` at physical register `p`, returning the previous mapping
    /// (to be freed at retire, or restored on squash).
    pub fn set(&mut self, r: Reg, p: PhysReg) -> PhysReg {
        let old = self.map[r.index() as usize];
        self.map[r.index() as usize] = p;
        old
    }
}

impl Default for RenameMap {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_release_roundtrip() {
        let mut rf = RegFile::new(4);
        assert_eq!(rf.free_count(), 3);
        let a = rf.alloc().unwrap();
        let b = rf.alloc().unwrap();
        let c = rf.alloc().unwrap();
        assert!(rf.alloc().is_none());
        assert_ne!(a, b);
        assert_ne!(b, c);
        rf.release(b);
        assert_eq!(rf.alloc(), Some(b));
    }

    #[test]
    fn zero_register_is_never_allocated() {
        let mut rf = RegFile::new(8);
        for _ in 0..7 {
            assert_ne!(rf.alloc().unwrap(), RegFile::ZERO);
        }
        assert!(rf.alloc().is_none());
    }

    #[test]
    fn write_and_read_value() {
        let mut rf = RegFile::new(8);
        let r = rf.alloc().unwrap();
        assert_eq!(rf.issue_ready(r, 0), None, "freshly allocated is not ready");
        rf.write(r, 42, 10);
        assert_eq!(rf.value(r), 42);
        assert_eq!(rf.issue_ready(r, 0), Some(10));
        assert_eq!(rf.issue_ready(r, 4), Some(6), "bypass slack counts");
        assert_eq!(rf.issue_ready(r, 20), Some(0));
    }

    #[test]
    fn zero_register_reads_zero_and_ignores_writes() {
        let mut rf = RegFile::new(8);
        rf.write(RegFile::ZERO, 99, 0);
        assert_eq!(rf.value(RegFile::ZERO), 0);
        assert_eq!(rf.issue_ready(RegFile::ZERO, 0), Some(0));
    }

    #[test]
    fn corrupt_flips_bits() {
        let mut rf = RegFile::new(8);
        let r = rf.alloc().unwrap();
        rf.write(r, 0b1010, 0);
        rf.corrupt(r, 0b0110);
        assert_eq!(rf.value(r), 0b1100);
        rf.corrupt(RegFile::ZERO, u64::MAX); // no-op
        assert_eq!(rf.value(RegFile::ZERO), 0);
    }

    #[test]
    fn rename_map_set_returns_old() {
        let mut m = RenameMap::new();
        let r5 = Reg::new(5);
        assert_eq!(m.get(r5), RegFile::ZERO);
        let old = m.set(r5, 7);
        assert_eq!(old, RegFile::ZERO);
        assert_eq!(m.get(r5), 7);
        let old2 = m.set(r5, 9);
        assert_eq!(old2, 7);
    }

    #[test]
    fn rename_map_zero_reg_fixed() {
        let m = RenameMap::new();
        assert_eq!(m.get(Reg::ZERO), RegFile::ZERO);
    }
}
