//! Architectural checkpoint/restore and thread quiesce: the surface the
//! device layer uses for functional fast-forward and warm-window
//! re-entry in sampled simulation.

use crate::config::ThreadId;
use crate::core::{Core, Event};
use crate::regs::RegFile;

impl Core {
    /// Suspends or resumes instruction fetch for `tid` (used by device-
    /// level checkpointing to quiesce a thread).
    pub fn set_fetch_paused(&mut self, tid: ThreadId, paused: bool) {
        self.threads[tid].fetch_paused = paused;
    }

    /// Whether `tid` is fully quiesced: nothing in flight, nothing buffered,
    /// and its store queue drained.
    pub fn is_quiesced(&self, tid: ThreadId) -> bool {
        let t = &self.threads[tid];
        t.rob.is_empty() && t.rmb.is_empty() && t.sq.is_empty()
    }

    /// Snapshot of `tid`'s committed architectural state:
    /// `(registers, next_pc)`. Exact regardless of in-flight work — it is
    /// maintained at retirement.
    pub fn snapshot_arch(&self, tid: ThreadId) -> ([u64; rmt_isa::inst::NUM_ARCH_REGS], u64) {
        let t = &self.threads[tid];
        (*t.committed_regs, t.committed_pc)
    }

    /// Restores `tid` to the given architectural state: squashes all
    /// in-flight work, rewrites the committed registers, redirects fetch to
    /// `pc`, and resets the redundant-pair tag counters (the device resets
    /// the pair's queues to match).
    pub fn restore_thread(
        &mut self,
        tid: ThreadId,
        regs: &[u64; rmt_isa::inst::NUM_ARCH_REGS],
        pc: u64,
        now: u64,
    ) {
        // Drop every in-flight instruction (rename-map rollback included).
        let from = self.threads[tid].rob_base;
        self.squash(tid, from, pc, now);
        // Retired-but-unreleased stores (and any load-queue residue) belong
        // to the discarded epoch: the checkpoint was taken with the queues
        // drained, so the replay regenerates them.
        self.threads[tid].sq.squash_from(0);
        self.threads[tid].lq.squash_from(0);
        self.sq_strike[tid] = None;
        // Write the checkpointed values into the committed mapping,
        // allocating physical registers for architecturals still mapped to
        // the zero register.
        for (i, &val) in regs.iter().enumerate().skip(1) {
            let arch = rmt_isa::Reg::new(i as u8);
            let mut p = self.threads[tid].rename_map.get(arch);
            if p == RegFile::ZERO {
                if val == 0 {
                    continue; // zero value, zero mapping: already correct
                }
                p = self
                    .regfile
                    .alloc()
                    .expect("free physical registers after a full squash");
                self.threads[tid].rename_map.set(arch, p);
            }
            self.regfile.write(p, val, now);
        }
        let t = &mut self.threads[tid];
        *t.committed_regs = *regs;
        t.committed_pc = pc;
        t.fetch_pc = pc;
        t.fetch_stalled_until = now + 1;
        t.fetch_halted = false;
        t.halted = false;
        t.next_load_tag = 0;
        t.next_store_tag = 0;
        self.stats.inc(Event::ThreadRestores);
    }

    /// Reads the architectural value of register `r` in thread `tid`.
    ///
    /// Exact only when the thread has no in-flight instructions (e.g. after
    /// it halted); otherwise it reflects the latest speculative mapping.
    pub fn arch_reg(&self, tid: ThreadId, r: rmt_isa::Reg) -> u64 {
        self.regfile.value(self.threads[tid].rename_map.get(r))
    }

    /// In-flight instruction count of thread `tid` (0 = quiesced).
    pub fn in_flight(&self, tid: ThreadId) -> usize {
        self.threads[tid].rob.len()
    }
}
