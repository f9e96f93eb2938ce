//! Fault-injection hooks used by `rmt-faults`: fault-site enumeration
//! (live physical registers), transient strikes, armed store-queue
//! strikes, and permanent stuck-at faults on functional units. Every hook that can change a load's address or the
//! store queue it is checked against moves the store-set epoch.

use crate::config::ThreadId;
use crate::core::{Core, DetectedFault};
use crate::regs::{PhysReg, RegFile};

impl Core {
    /// Faults detected by in-core RMT mechanisms since the last drain.
    pub fn drain_detected_faults(&mut self) -> Vec<DetectedFault> {
        std::mem::take(&mut self.detected_faults)
    }

    /// Physical registers currently holding live state (architecturally
    /// mapped or in flight) — the meaningful fault sites for a particle
    /// strike on the register file.
    pub fn live_phys_regs(&self) -> Vec<PhysReg> {
        let mut live: Vec<PhysReg> = Vec::new();
        for t in self.threads.iter().filter(|t| t.active) {
            for r in 0..rmt_isa::inst::NUM_ARCH_REGS {
                let p = t.rename_map.get(rmt_isa::Reg::new(r as u8));
                if p != RegFile::ZERO {
                    live.push(p);
                }
            }
            for d in &t.rob {
                if let Some(p) = d.prd {
                    live.push(p);
                }
            }
        }
        live.sort_unstable();
        live.dedup();
        live
    }

    /// XORs `mask` into physical register `r` (transient fault).
    pub fn corrupt_phys_reg(&mut self, r: PhysReg, mask: u64) {
        self.regfile.corrupt(r, mask);
        self.store_set_epoch += 1;
    }

    /// Arms a strike on thread `tid`'s store queue: the next store to
    /// retire has `mask` XORed into its data the moment it passes the
    /// commit point — past squash-and-refill (which would shed the fault)
    /// but before output comparison / release.
    pub fn arm_sq_strike(&mut self, tid: ThreadId, mask: u64) {
        self.sq_strike[tid] = Some(mask);
    }

    /// Configures a permanent stuck-at fault on functional unit `fu`.
    ///
    /// # Panics
    ///
    /// Panics if `fu` is out of range.
    pub fn set_fu_stuck(&mut self, fu: usize, bit: u8, value: bool) {
        assert!(fu < self.cfg.total_fus(), "functional unit out of range");
        self.fault_state.fu_stuck[fu] = Some((bit, value));
        self.store_set_epoch += 1;
    }

    /// Removes all configured permanent faults.
    pub fn clear_fu_faults(&mut self) {
        for f in &mut self.fault_state.fu_stuck {
            *f = None;
        }
        self.store_set_epoch += 1;
    }
}
