//! Fault-injection hooks used by `rmt-faults`: fault-site enumeration
//! (live physical registers, filled store-queue entries), transient
//! strikes, armed store-queue strikes, and permanent stuck-at faults on
//! functional units. Every hook that can change a load's address or the
//! store queue it is checked against moves the store-set epoch.

use crate::config::ThreadId;
use crate::core::{Core, DetectedFault};
use crate::regs::{PhysReg, RegFile};

impl Core {
    /// Faults detected by in-core RMT mechanisms since the last drain.
    pub fn drain_detected_faults(&mut self) -> Vec<DetectedFault> {
        std::mem::take(&mut self.detected_faults)
    }

    /// Number of physical registers (for fault-site selection).
    pub fn phys_reg_count(&self) -> usize {
        self.cfg.phys_regs
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

    /// XORs `mask` into the data of the `idx`-th store-queue entry of
    /// thread `tid`; returns whether an entry was present.
    pub fn corrupt_sq_entry(&mut self, tid: ThreadId, idx: usize, mask: u64) -> bool {
        self.store_set_epoch += 1;
        let t = &mut self.threads[tid];
        let seq = t.sq.iter().nth(idx).map(|e| e.seq);
        match seq {
            Some(s) => t.sq.corrupt(s, mask),
            None => false,
        }
    }

    /// Snapshot of thread `tid`'s store queue as `(addr, value, retired)`
    /// tuples (debugging and fault-site inspection).
    pub fn sq_snapshot(&self, tid: ThreadId) -> Vec<(u64, u64, bool)> {
        self.threads[tid]
            .sq
            .iter()
            .map(|e| (e.addr, e.value, e.retired))
            .collect()
    }

    /// Indices of store-queue entries of `tid` whose data is present (and,
    /// optionally, not yet verified) — the meaningful strike sites for a
    /// store-queue fault.
    pub fn sq_filled_entries(&self, tid: ThreadId, unverified_only: bool) -> Vec<usize> {
        self.threads[tid]
            .sq
            .iter()
            .enumerate()
            .filter(|(_, e)| e.addr_known && (!unverified_only || !e.verified))
            .map(|(i, _)| i)
            .collect()
    }

    /// Arms a strike on thread `tid`'s store queue: the next store to
    /// retire has `mask` XORed into its data the moment it passes the
    /// commit point — past squash-and-refill (which would shed the fault)
    /// but before output comparison / release.
    pub fn arm_sq_strike(&mut self, tid: ThreadId, mask: u64) {
        self.sq_strike[tid] = Some(mask);
    }

    /// Indices of *retired* store-queue entries of `tid`: stores past the
    /// commit point that can no longer be squashed (and so cannot shed an
    /// injected fault by re-execution), but have not yet left the sphere.
    pub fn sq_retired_entries(&self, tid: ThreadId) -> Vec<usize> {
        self.threads[tid]
            .sq
            .iter()
            .enumerate()
            .filter(|(_, e)| e.addr_known && e.retired)
            .map(|(i, _)| i)
            .collect()
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
