//! The instruction queue. It holds only live entries, in rename order,
//! and keeps their counts per queue half and per thread, which rename's
//! admission rules and the occupancy sampling read instead of scanning.
//! Entries enter at rename and leave when they issue or are squashed.

use crate::config::ThreadId;
use crate::regs::{PhysReg, RegFile};
use rmt_isa::inst::Inst;

/// [`IqEntry::ready`] while a producer the entry reads has not executed.
pub(crate) const NOT_READY: u64 = u64::MAX;

/// An instruction-queue slot. It carries the select inputs, copied from
/// the instruction at rename, so issue reads the reorder buffer only for
/// the instruction it issues, and what select has already settled about
/// it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IqEntry {
    pub tid: ThreadId,
    pub seq: u64,
    pub uid: u64,
    pub half: u8,
    /// Rename cycle plus the PBOX and QBOX latencies. Entries enter in
    /// rename order and leave by order-preserving removal, so this never
    /// decreases along the queue.
    pub min_issue: u64,
    pub pc: u64,
    pub inst: Inst,
    pub prs1: PhysReg,
    pub prs2: PhysReg,
    /// Program-order tag (load tag for loads, store tag for stores).
    pub tag: u64,
    /// The first cycle the data checks pass ([`IqEntry::operand_ready`]),
    /// cached once every producer it reads has executed; [`NOT_READY`]
    /// until then. The registers cannot change under it: each ready time
    /// is written once, and a register is not freed while a consumer
    /// waits.
    pub ready: u64,
    /// `(epoch, fu_id)` of the store-set verdict that last held this
    /// load: while both still match, select replays the verdict instead
    /// of trying the load.
    pub held: Option<(u64, u8)>,
}

impl IqEntry {
    /// The first cycle the entry's data checks pass, or [`NOT_READY`]
    /// while a producer it reads has not executed. A store issues on its
    /// address operand once its data operand's producer has executed
    /// (§3.4: the data reaches the store queue a couple of cycles after
    /// the address); everything else waits for both operands.
    pub(crate) fn operand_ready(&self, regs: &RegFile, bypass: u64) -> u64 {
        let Some(a) = regs.issue_ready(self.prs1, bypass) else {
            return NOT_READY;
        };
        let Some(b) = regs.issue_ready(self.prs2, bypass) else {
            return NOT_READY;
        };
        if self.inst.op.is_store() {
            a
        } else {
            a.max(b)
        }
    }
}

/// The live entries and their kept counts.
#[derive(Debug, Clone)]
pub(crate) struct IssueQueue {
    entries: Vec<IqEntry>,
    half_live: [usize; 2],
    thread_live: Vec<usize>,
    /// Positions issued during the current select scan, ascending; they
    /// leave at [`Self::remove_issued`].
    issued: Vec<usize>,
}

impl IssueQueue {
    /// An empty queue for `threads` hardware contexts.
    pub(crate) fn new(capacity: usize, threads: usize) -> Self {
        IssueQueue {
            entries: Vec::with_capacity(capacity),
            half_live: [0; 2],
            thread_live: vec![0; threads],
            issued: Vec::new(),
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

    /// The entries in rename order, for select to record what it settled.
    pub(crate) fn entries_mut(&mut self) -> &mut [IqEntry] {
        &mut self.entries
    }

    /// Inserts a renamed instruction.
    pub(crate) fn push(&mut self, entry: IqEntry) {
        self.half_live[entry.half as usize] += 1;
        self.thread_live[entry.tid] += 1;
        self.entries.push(entry);
    }

    /// Marks entry `i` issued: it stops counting at once and leaves the
    /// queue at [`Self::remove_issued`]. Select marks in ascending order.
    pub(crate) fn mark_issued(&mut self, i: usize) {
        debug_assert!(
            self.issued.last().is_none_or(|&j| j < i),
            "select issues each entry once, in queue order"
        );
        self.issued.push(i);
        let e = &self.entries[i];
        self.half_live[e.half as usize] -= 1;
        self.thread_live[e.tid] -= 1;
    }

    /// Ends a select scan: removes the entries it issued, moving each run
    /// of entries between them once.
    pub(crate) fn remove_issued(&mut self) {
        let Some(&first) = self.issued.first() else {
            return;
        };
        let mut to = first;
        for (k, &at) in self.issued.iter().enumerate() {
            let end = self
                .issued
                .get(k + 1)
                .copied()
                .unwrap_or(self.entries.len());
            self.entries.copy_within(at + 1..end, to);
            to += end - at - 1;
        }
        self.entries.truncate(to);
        self.issued.clear();
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
    /// issued position is left to remove.
    pub(crate) fn counts_match(&self) -> bool {
        let mut half = [0usize; 2];
        let mut thread = vec![0usize; self.thread_live.len()];
        for e in &self.entries {
            half[e.half as usize] += 1;
            thread[e.tid] += 1;
        }
        half == self.half_live && thread == self.thread_live && self.issued.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::{IqEntry, IssueQueue, NOT_READY};
    use crate::env::IndependentEnv;
    use crate::{Core, CoreConfig};
    use rmt_isa::inst::Inst;
    use rmt_mem::MemoryHierarchy;
    use rmt_workloads::{Benchmark, Workload};
    use std::rc::Rc;

    #[test]
    fn issued_entries_leave_and_the_rest_keep_their_order() {
        let mut q = IssueQueue::new(8, 1);
        for seq in 0..7 {
            q.push(IqEntry {
                tid: 0,
                seq,
                uid: seq,
                half: (seq % 2) as u8,
                min_issue: 0,
                pc: 4 * seq,
                inst: Inst::nop(),
                prs1: 0,
                prs2: 0,
                tag: 0,
                ready: NOT_READY,
                held: None,
            });
        }
        for i in [0, 2, 3, 6] {
            q.mark_issued(i);
        }
        assert_eq!(
            (q.half_live(0), q.half_live(1), q.thread_live(0)),
            (1, 2, 3)
        );
        q.remove_issued();
        let left: Vec<u64> = q.entries().iter().map(|e| e.seq).collect();
        assert_eq!(left, [1, 4, 5]);
        assert!(q.counts_match());
        q.remove_issued();
        assert_eq!(q.len(), 3);
    }

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
