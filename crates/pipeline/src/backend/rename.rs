//! PBOX: rename/dispatch from the register map buffer into the issue
//! queue, bounded by the ROB/IQ/physical-register/LSQ capacity rules and
//! the preferential-space-redundancy half choice.

use crate::config::ThreadId;
use crate::core::{Core, DynInst, Event, InstState, IqEntry, NOT_READY};
use crate::regs::RegFile;
use crate::trace::TraceKind;

impl Core {
    pub(crate) fn rename(&mut self, now: u64) {
        let n = self.threads.len();
        let Some(tid) = (0..n)
            .map(|off| (self.map_rr + off) % n)
            .find(|&tid| {
                let t = &self.threads[tid];
                t.active
                    && !t.halted
                    && matches!(t.rmb.front(), Some((c, consumed)) if c.ready_at <= now && *consumed < c.len)
            })
        else {
            return;
        };
        self.map_rr = (tid + 1) % n;
        self.rename_thread(now, tid);
    }

    /// IQ capacity available to `tid` under the per-thread reservation rule
    /// (§4.3): a thread may not squeeze other threads below their reserved
    /// slots.
    fn iq_admission(&self, tid: ThreadId) -> bool {
        let total_live = self.iq.len();
        if total_live >= self.cfg.iq_size {
            return false;
        }
        let reserved_for_others: usize = self
            .threads
            .iter()
            .enumerate()
            .filter(|(i, t)| *i != tid && t.active && !t.halted)
            .map(|(i, _)| {
                self.cfg
                    .iq_reserve_per_thread
                    .saturating_sub(self.iq.thread_live(i))
            })
            .sum();
        total_live < self.cfg.iq_size - reserved_for_others.min(self.cfg.iq_size - 1)
            || self.iq.thread_live(tid) < self.cfg.iq_reserve_per_thread
    }

    fn rename_thread(&mut self, now: u64, tid: ThreadId) {
        let program = self.threads[tid]
            .program
            .as_ref()
            .expect("active thread has a program")
            .clone();
        let role = self.threads[tid].role;
        let trailing = role.is_trailing();
        let mut mapped = 0usize;
        loop {
            if mapped >= self.cfg.chunk_size {
                break;
            }
            let (chunk, consumed) = match self.threads[tid].rmb.front() {
                Some((c, k)) if *k < c.len => (c.clone(), *k),
                _ => break,
            };
            let pc = chunk.start_pc + 4 * consumed as u64;
            let Some(&inst) = program.fetch(pc) else {
                // Wrong-path chunk ran past the program; drop the remainder.
                self.threads[tid].rmb.pop_front();
                break;
            };
            // ---- resource checks ----
            if self.threads[tid].rob.len() >= self.cfg.rob_per_thread {
                self.stats.inc(Event::StallRobFull);
                break;
            }
            if !self.iq_admission(tid) {
                self.stats.inc(Event::StallIqFull);
                break;
            }
            if inst.writes_reg() && self.regfile.free_count() == 0 {
                self.stats.inc(Event::StallNoPhysRegs);
                break;
            }
            if inst.op.is_load() && !trailing && !self.threads[tid].lq.has_space() {
                self.stats.inc(Event::StallLqFull);
                break;
            }
            if inst.op.is_store() && !self.threads[tid].sq.has_space() {
                self.stats.inc(Event::StallSqFull);
                break;
            }
            // ---- queue-half selection ----
            let pos_half = (consumed & 1) as u8;
            let mut half = if trailing {
                match chunk.half_hints {
                    Some(hints) if self.cfg.preferential_space_redundancy => {
                        1 - (hints[consumed.min(7)] & 1)
                    }
                    _ => pos_half,
                }
            } else {
                pos_half
            };
            let half_cap = self.cfg.iq_size / 2;
            if self.iq.half_live(half) >= half_cap {
                let other = 1 - half;
                if self.iq.half_live(other) >= half_cap {
                    self.stats.inc(Event::StallIqHalfFull);
                    break;
                }
                if trailing && self.cfg.preferential_space_redundancy {
                    self.stats.inc(Event::PsrFallbackSameHalf);
                }
                half = other;
            }
            // ---- allocate ----
            let t = &mut self.threads[tid];
            let seq = t.next_seq;
            t.next_seq += 1;
            let uid = self.uid_counter;
            self.uid_counter += 1;
            let (s1, s2) = inst.sources();
            let prs1 = s1.map_or(RegFile::ZERO, |r| t.rename_map.get(r));
            let prs2 = s2.map_or(RegFile::ZERO, |r| t.rename_map.get(r));
            let (prd, old_prd) = if inst.writes_reg() {
                let p = self.regfile.alloc().expect("checked free list");
                let old = t.rename_map.set(inst.rd, p);
                (Some(p), old)
            } else {
                (None, RegFile::ZERO)
            };
            let tag = if inst.op.is_load() {
                let tag = t.next_load_tag;
                t.next_load_tag += 1;
                if !trailing {
                    t.lq.alloc(seq, pc);
                }
                tag
            } else if inst.op.is_store() {
                let tag = t.next_store_tag;
                t.next_store_tag += 1;
                t.sq.alloc(seq, tag, pc, now);
                tag
            } else {
                0
            };
            let pred_next = if consumed == chunk.len - 1 {
                chunk.pred_next
            } else {
                pc + 4
            };
            t.rob.push_back(DynInst {
                seq,
                uid,
                pc,
                inst,
                pred_next,
                actual_next: pc + 4,
                prd,
                old_prd,
                half,
                fu_id: 0,
                state: InstState::InQ,
                done_at: u64::MAX,
                mem_addr: 0,
                mem_bytes: 0,
                mem_value: 0,
                tag,
            });
            self.iq.push(IqEntry {
                tid,
                seq,
                uid,
                half,
                min_issue: now + self.cfg.pbox_latency + self.cfg.qbox_latency,
                pc,
                inst,
                prs1,
                prs2,
                tag,
                ready: NOT_READY,
                held: None,
            });
            // consume from the chunk
            if let Some((c, k)) = self.threads[tid].rmb.front_mut() {
                *k += 1;
                if *k >= c.len {
                    self.threads[tid].rmb.pop_front();
                }
            }
            mapped += 1;
            self.stats.inc(Event::Renamed);
            self.trace(now, tid, pc, TraceKind::Rename);
        }
    }
}
