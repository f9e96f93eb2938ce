//! The instruction queue. It holds only live entries, in rename order,
//! and keeps their counts per queue half and per thread, which rename's
//! admission rules and the occupancy sampling read instead of scanning.
//! Entries enter at rename and leave when they issue or are squashed.

use crate::config::ThreadId;
use crate::regs::PhysReg;
use rmt_isa::inst::Inst;

/// An instruction-queue slot. It carries the select inputs, copied from
/// the instruction at rename, so issue reads the reorder buffer only for
/// the instruction it issues.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IqEntry {
    pub tid: ThreadId,
    pub seq: u64,
    pub uid: u64,
    pub half: u8,
    pub min_issue: u64,
    pub pc: u64,
    pub inst: Inst,
    pub prs1: PhysReg,
    pub prs2: PhysReg,
    /// Program-order tag (load tag for loads, store tag for stores).
    pub tag: u64,
    /// Issued during the current select scan, which removes it when it
    /// ends; `false` everywhere else.
    pub issued: bool,
}

/// The live entries and their kept counts.
#[derive(Debug, Clone)]
pub(crate) struct IssueQueue {
    entries: Vec<IqEntry>,
    half_live: [usize; 2],
    thread_live: Vec<usize>,
}

impl IssueQueue {
    /// An empty queue for `threads` hardware contexts.
    pub(crate) fn new(capacity: usize, threads: usize) -> Self {
        IssueQueue {
            entries: Vec::with_capacity(capacity),
            half_live: [0; 2],
            thread_live: vec![0; threads],
        }
    }

    /// Live entries (outside the select scan, every entry).
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Live entries in queue half `half`.
    pub(crate) fn half_live(&self, half: u8) -> usize {
        self.half_live[half as usize]
    }

    /// Live entries of thread `tid`.
    pub(crate) fn thread_live(&self, tid: ThreadId) -> usize {
        self.thread_live[tid]
    }

    /// The entries in rename order.
    pub(crate) fn entries(&self) -> &[IqEntry] {
        &self.entries
    }

    /// Inserts a renamed instruction.
    pub(crate) fn push(&mut self, entry: IqEntry) {
        self.half_live[entry.half as usize] += 1;
        self.thread_live[entry.tid] += 1;
        self.entries.push(entry);
    }

    /// Marks entry `i` issued: it stops counting at once and leaves the
    /// queue at [`Self::remove_issued`].
    pub(crate) fn mark_issued(&mut self, i: usize) {
        let e = &mut self.entries[i];
        debug_assert!(!e.issued, "an entry issues once");
        e.issued = true;
        self.half_live[e.half as usize] -= 1;
        self.thread_live[e.tid] -= 1;
    }

    /// Ends a select scan: removes the entries it issued.
    pub(crate) fn remove_issued(&mut self) {
        self.entries.retain(|e| !e.issued);
    }

    /// Removes every entry of `tid` with `seq >= from_seq`.
    pub(crate) fn squash(&mut self, tid: ThreadId, from_seq: u64) {
        let (half_live, thread_live) = (&mut self.half_live, &mut self.thread_live);
        self.entries.retain(|e| {
            let killed = e.tid == tid && e.seq >= from_seq;
            if killed {
                half_live[e.half as usize] -= 1;
                thread_live[e.tid] -= 1;
            }
            !killed
        });
    }

    /// Whether the kept counts equal a recount of the entries and no
    /// entry is left marked issued.
    pub(crate) fn counts_match(&self) -> bool {
        let mut half = [0usize; 2];
        let mut thread = vec![0usize; self.thread_live.len()];
        for e in &self.entries {
            half[e.half as usize] += 1;
            thread[e.tid] += 1;
        }
        half == self.half_live
            && thread == self.thread_live
            && self.entries.iter().all(|e| !e.issued)
    }
}

#[cfg(test)]
mod tests {
    use crate::env::IndependentEnv;
    use crate::{Core, CoreConfig};
    use rmt_mem::MemoryHierarchy;
    use rmt_workloads::{Benchmark, Workload};
    use std::rc::Rc;

    /// Two independent threads on one core, so a squash of one leaves the
    /// other's entries in the queue.
    struct Rig {
        core: Core,
        hier: MemoryHierarchy,
        env: IndependentEnv,
        now: u64,
    }

    impl Rig {
        fn new() -> Self {
            let ws = [Benchmark::Gcc, Benchmark::Li].map(|b| Workload::generate(b, 1));
            let mut env = IndependentEnv::new(ws.iter().map(|w| w.memory.clone()).collect());
            let mut core = Core::new(CoreConfig::base(), 0);
            for (i, w) in ws.iter().enumerate() {
                let tid = core.attach_thread(Rc::new(w.program.clone()), 0);
                env.assign(0, tid, i);
            }
            core.finalize_partitions();
            let hier = MemoryHierarchy::new(Default::default(), 1);
            Rig {
                core,
                hier,
                env,
                now: 0,
            }
        }

        /// Ticks `n` cycles, checking the kept counts after each.
        fn tick(&mut self, n: u64) {
            for _ in 0..n {
                self.core.tick(self.now, &mut self.hier, &mut self.env);
                self.hier.tick(self.now);
                self.now += 1;
                assert!(self.core.iq_consistent(), "cycle {}", self.now);
            }
        }
    }

    #[test]
    fn kept_counts_match_a_recount_through_squash_and_restore() {
        let mut rig = Rig::new();
        rig.tick(3_000);
        assert!(rig.core.iq.thread_live(0) > 0 && rig.core.iq.thread_live(1) > 0);

        // Squash the younger half of thread 0's window, as a replay from
        // its middle instruction would.
        let t = &rig.core.threads[0];
        let mid = &t.rob[t.rob.len() / 2];
        let (from_seq, pc) = (mid.seq, mid.pc);
        let other = rig.core.iq.thread_live(1);
        rig.core.squash(0, from_seq, pc, rig.now);
        assert!(rig.core.iq_consistent());
        assert!(rig
            .core
            .iq
            .entries()
            .iter()
            .all(|e| e.tid != 0 || e.seq < from_seq));
        assert_eq!(rig.core.iq.thread_live(1), other);
        rig.tick(2_000);

        // Sampled re-entry: restore thread 0 from its committed state
        // between ticks, which squashes everything it has in flight.
        let (regs, pc) = rig.core.snapshot_arch(0);
        let other = rig.core.iq.thread_live(1);
        rig.core.restore_thread(0, &regs, pc, rig.now);
        assert!(rig.core.iq_consistent());
        assert_eq!(rig.core.iq.thread_live(0), 0);
        assert_eq!(rig.core.iq.thread_live(1), other);
        assert_eq!(rig.core.iq.len(), other);
        let committed = rig.core.thread_stats(0).committed;
        rig.tick(2_000);
        assert!(rig.core.thread_stats(0).committed > committed);
    }
}
