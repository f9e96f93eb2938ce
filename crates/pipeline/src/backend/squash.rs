//! Deferred squash events (branch mispredictions, memory-order
//! violations) and the recovery walk that unwinds the ROB, rename map
//! and LSQs.

use crate::config::ThreadId;
use crate::core::{Core, Event, SquashEvent};
use crate::trace::TraceKind;

impl Core {
    pub(crate) fn process_events(&mut self, now: u64) {
        if self.events.is_empty() {
            return;
        }
        let mut due: Vec<SquashEvent> = Vec::new();
        self.events.retain(|e| {
            if e.at <= now {
                due.push(*e);
                false
            } else {
                true
            }
        });
        // Deterministic order: oldest cause first.
        due.sort_by_key(|e| (e.at, e.tid, e.cause_seq));
        for ev in due {
            let alive = self.threads[ev.tid]
                .rob_get_ref(ev.cause_seq)
                .map(|d| d.uid == ev.cause_uid)
                .unwrap_or(false);
            if !alive {
                continue; // an older squash already removed the cause
            }
            self.squash(ev.tid, ev.from_seq, ev.new_pc, now);
        }
    }

    /// Removes all instructions of `tid` with `seq >= from_seq`, restores
    /// the rename map, and redirects fetch to `new_pc`.
    pub(crate) fn squash(&mut self, tid: ThreadId, from_seq: u64, new_pc: u64, now: u64) {
        let trailing = self.threads[tid].role.is_trailing();
        {
            let t = &mut self.threads[tid];
            while matches!(t.rob.back(), Some(d) if d.seq >= from_seq) {
                let d = t.rob.pop_back().expect("checked");
                if let Some(prd) = d.prd {
                    t.rename_map.set(d.inst.rd, d.old_prd);
                    self.regfile.release(prd);
                }
                if d.inst.op.is_load() {
                    t.next_load_tag = d.tag;
                }
                if d.inst.op.is_store() {
                    t.next_store_tag = d.tag;
                }
                t.next_seq = d.seq;
            }
            t.lq.squash_from(from_seq);
            t.sq.squash_from(from_seq);
            t.rmb.clear();
            if !t.halted {
                t.fetch_pc = new_pc;
                t.fetch_stalled_until = t.fetch_stalled_until.max(now + 1);
                t.fetch_halted = false;
            }
            t.squashes += 1;
        }
        debug_assert!(trailing == self.threads[tid].role.is_trailing());
        self.iq.squash(tid, from_seq);
        self.store_set_epoch += 1;
        self.events
            .retain(|e| !(e.tid == tid && e.cause_seq >= from_seq));
        // Idle issue slots until the frontend refills (fetch resumes next
        // cycle, then IBOX/PBOX/QBOX latencies) are squash recovery, not an
        // empty window.
        self.squash_recovery_until = self
            .squash_recovery_until
            .max(now + 1 + self.cfg.ibox_latency + self.cfg.pbox_latency + self.cfg.qbox_latency);
        self.stats.inc(Event::Squashes);
        self.trace(now, tid, new_pc, TraceKind::Squash { new_pc });
    }
}
