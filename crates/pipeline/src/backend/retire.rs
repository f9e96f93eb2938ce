//! The completion unit — in-order retirement with the sphere-crossing
//! checks (LVQ fills, LPQ pushes, control-divergence detection) — and
//! store release: SQ head through the store comparator and merge buffer
//! to memory outside the sphere of replication.

use crate::config::{ThreadId, ThreadRole};
use crate::core::{Core, DetectedFault, Event, FaultDetector, InstState};
use crate::env::{CoreEnv, RetireInfo, RetireKind, StoreRelease};
use crate::regs::RegFile;
use crate::trace::TraceKind;
use rmt_isa::inst::Op;
use rmt_mem::MemoryHierarchy;

impl Core {
    pub(crate) fn retire(&mut self, now: u64, _hier: &mut MemoryHierarchy, env: &mut dyn CoreEnv) {
        let n = self.threads.len();
        let mut budget = self.cfg.retire_width;
        for off in 0..n {
            let tid = (self.retire_rr + off) % n;
            while budget > 0 {
                if !self.retire_one(now, tid, env) {
                    break;
                }
                budget -= 1;
                self.last_retire_cycle = now;
            }
            if budget == 0 {
                break;
            }
        }
        self.retire_rr = (self.retire_rr + 1) % n;
    }

    /// Tries to retire the oldest instruction of `tid`; returns whether an
    /// instruction retired.
    fn retire_one(&mut self, now: u64, tid: ThreadId, env: &mut dyn CoreEnv) -> bool {
        let role = self.threads[tid].role;
        let (seq, op) = {
            let t = &self.threads[tid];
            let Some(d) = t.rob.front() else {
                return false;
            };
            if d.state != InstState::Issued || d.done_at > now {
                return false;
            }
            (d.seq, d.inst.op)
        };
        // Memory barriers retire only once every older store drained
        // (§4.4.2).
        if op == Op::MemBar && self.threads[tid].sq.has_older_than(seq) {
            if let ThreadRole::Leading(pair) = role {
                env.lead_retire_blocked(self.core_id, tid, now, pair);
            }
            self.stats.inc(Event::MembarWaits);
            return false;
        }
        // Build the retirement record.
        let info = {
            let t = &self.threads[tid];
            let d = t.rob.front().expect("checked");
            let kind = if op.is_load() {
                RetireKind::Load {
                    tag: d.tag,
                    addr: d.mem_addr,
                    value: d.mem_value,
                    bytes: d.mem_bytes,
                }
            } else if op.is_store() {
                RetireKind::Store {
                    tag: d.tag,
                    addr: d.mem_addr,
                    value: d.mem_value,
                    bytes: d.mem_bytes,
                }
            } else if op == Op::MemBar {
                RetireKind::MemBar
            } else {
                RetireKind::Other
            };
            RetireInfo {
                pair: role.pair().unwrap_or(0),
                pc: d.pc,
                next_pc: d.actual_next,
                iq_half: d.half,
                fu_id: d.fu_id,
                commit_index: t.committed,
                kind,
            }
        };
        match role {
            ThreadRole::Leading(_) => {
                if !env.lead_retired(self.core_id, tid, now, &info) {
                    self.threads[tid].lead_retire_nacks += 1;
                    self.stats.inc(Event::LeadRetireNacks);
                    return false;
                }
                if matches!(info.kind, RetireKind::Load { .. }) {
                    // The committed load's value just entered the LVQ.
                    self.trace(now, tid, info.pc, TraceKind::LvqFill);
                }
                if info.next_pc != info.pc + 4 {
                    // A taken control transfer closes the leading chunk and
                    // pushes a line prediction for the trailing thread.
                    self.trace(now, tid, info.pc, TraceKind::LpqPush);
                }
            }
            ThreadRole::Trailing(_) => {
                // An LPQ-driven trailing thread retires exactly the leading
                // thread's committed path, never its own speculation, so
                // every retired instruction must sit where the previous
                // one's *computed* outcome pointed. A broken chain means a
                // control outcome crossed the sphere of replication corrupt
                // — e.g. a strike on a register that only feeds a branch,
                // which steers both threads down the same wrong committed
                // path and is invisible to the store comparator. This is
                // the branch-outcome check at the LPQ boundary; fault-free
                // runs never trip it (trailing computes from the same
                // committed values the leading thread retired).
                if self.cfg.trailing_uses_lpq
                    && self.threads[tid].committed > 0
                    && self.threads[tid].committed_pc != info.pc
                {
                    self.detected_faults.push(DetectedFault {
                        cycle: now,
                        tid,
                        kind: FaultDetector::ControlDivergence,
                    });
                    self.stats.inc(Event::ControlDivergences);
                    self.trace(now, tid, info.pc, TraceKind::FaultDetect);
                }
                env.trailing_retired(self.core_id, tid, now, &info);
            }
            ThreadRole::Independent => {}
        }
        // Commit.
        let d = self.threads[tid].rob.pop_front().expect("checked");
        self.threads[tid].rob_base = d.seq + 1;
        if let Some(prd) = d.prd {
            // Maintain the committed architectural image (checkpointing).
            self.threads[tid].committed_regs[d.inst.rd.index() as usize] = self.regfile.value(prd);
        }
        self.threads[tid].committed_pc = d.actual_next;
        if self.threads[tid].commit_log.is_some() {
            let rec = crate::commit::CommitRecord {
                cycle: now,
                pc: d.pc,
                next_pc: d.actual_next,
                inst: d.inst,
                commit_index: self.threads[tid].committed,
                write: d.prd.map(|prd| (d.inst.rd, self.regfile.value(prd))),
                store: if op.is_store() {
                    Some((d.mem_addr, d.mem_value, d.mem_bytes))
                } else {
                    None
                },
                load: if op.is_load() {
                    Some((d.mem_addr, d.mem_value, d.mem_bytes))
                } else {
                    None
                },
            };
            self.threads[tid]
                .commit_log
                .as_mut()
                .expect("checked")
                .push(rec);
        }
        if d.prd.is_some() && d.old_prd != RegFile::ZERO {
            self.regfile.release(d.old_prd);
        }
        if op.is_load() {
            if !role.is_trailing() {
                self.threads[tid].lq.release(d.seq);
            }
            self.threads[tid].loads_committed += 1;
        }
        if op.is_store() {
            self.threads[tid].stores_committed += 1;
            if role.is_trailing() {
                // Trailing stores never leave the sphere: the comparison
                // already happened when they executed. Free the entry.
                debug_assert_eq!(
                    self.threads[tid].sq.head().map(|e| e.seq),
                    Some(d.seq),
                    "trailing stores release in order"
                );
                self.threads[tid].sq.release_head();
            } else {
                self.threads[tid].sq.mark_retired_at(d.seq, now);
                if let Some(mask) = self.sq_strike[tid].take() {
                    // An armed store-queue strike lands the instant the
                    // store passes the commit point (fault injection).
                    self.threads[tid].sq.corrupt(d.seq, mask);
                    self.stats.inc(Event::SqStrikesLanded);
                }
                if role == ThreadRole::Independent {
                    self.threads[tid].sq.mark_verified(d.seq);
                }
            }
        }
        if op == Op::Halt {
            self.threads[tid].halted = true;
            self.squash(tid, d.seq + 1, d.pc + 4, now);
        }
        // Train the line predictor with actual chunk boundaries (not for
        // trailing threads, which bypass it).
        if !role.is_trailing() {
            let mut scratch = std::mem::take(&mut self.threads[tid].chunk_scratch);
            scratch.clear();
            self.threads[tid]
                .line_agg
                .push(d.pc, d.actual_next, d.half, &mut scratch);
            for c in &scratch {
                if let Some(prev) = self.threads[tid].last_chunk_start {
                    self.line_pred.train(prev, c.start_pc);
                }
                self.threads[tid].last_chunk_start = Some(c.start_pc);
            }
            self.threads[tid].chunk_scratch = scratch;
        }
        self.threads[tid].committed += 1;
        self.stats.inc(Event::Committed);
        self.trace(now, tid, d.pc, TraceKind::Retire);
        true
    }

    // ==================================================================
    // Store release: SQ head -> merge buffer -> outside the sphere
    // ==================================================================

    pub(crate) fn release_stores(
        &mut self,
        now: u64,
        hier: &mut MemoryHierarchy,
        env: &mut dyn CoreEnv,
    ) {
        for tid in 0..self.threads.len() {
            let role = self.threads[tid].role;
            if role.is_trailing() {
                continue;
            }
            let mut released = 0;
            while released < self.cfg.max_stores_per_cycle {
                let Some(head) = self.threads[tid].sq.head().copied() else {
                    break;
                };
                if !head.addr_known || !head.retired {
                    break;
                }
                if now < head.retired_at + self.cfg.store_release_delay {
                    // The checker has not yet passed this store (lockstep).
                    break;
                }
                if !head.verified {
                    let ThreadRole::Leading(pair) = role else {
                        break; // independent stores verify at retire
                    };
                    match env.store_release(
                        self.core_id,
                        tid,
                        now,
                        pair,
                        head.tag,
                        head.addr,
                        head.value,
                        head.bytes,
                    ) {
                        StoreRelease::Wait => {
                            self.stats.inc(Event::StoreVerifyWaits);
                            break;
                        }
                        StoreRelease::Release => {
                            self.trace(now, tid, head.pc, TraceKind::StoreCompare);
                            self.threads[tid].sq.mark_verified(head.seq);
                        }
                        StoreRelease::Mismatch => {
                            self.trace(now, tid, head.pc, TraceKind::StoreCompare);
                            self.trace(now, tid, head.pc, TraceKind::FaultDetect);
                            self.detected_faults.push(DetectedFault {
                                cycle: now,
                                tid,
                                kind: FaultDetector::StoreMismatch,
                            });
                            // Count the detection and release so the
                            // machine keeps running (a real system would
                            // start recovery here).
                            self.threads[tid].sq.mark_verified(head.seq);
                        }
                    }
                }
                if !hier.store_retire(self.core_id, head.addr, now) {
                    self.stats.inc(Event::MergeBufferStalls);
                    break;
                }
                env.write_mem(self.core_id, tid, head.addr, head.value, head.bytes);
                self.trace(now, tid, 0, TraceKind::StoreRelease);
                self.threads[tid].sq_lifetime.record(now - head.alloc_cycle);
                self.threads[tid].sq.release_head();
                released += 1;
                self.stats.inc(Event::StoresReleased);
            }
        }
    }
}
