//! IBOX: thread choice, line-prediction-driven fetch, and the trailing
//! thread's line-prediction-queue-driven fetch.
//!
//! The base processor fetches up to two 8-instruction chunks per cycle from
//! a single thread (§3.1). Chunk boundaries and next-chunk addresses come
//! from the branch-prediction structures; the line predictor's guess for
//! the next chunk is checked against them, and a disagreement is a
//! *misfetch*: the line predictor is retrained and fetch stalls for the
//! redirect penalty. The trailing thread of a redundant pair instead
//! consumes perfect predictions from the line prediction queue (§4.4) using
//! the ack / fetch-done / rollback protocol of Figure 4.

use crate::chunk::FetchChunk;
use crate::config::{ThreadId, ThreadRole};
use crate::core::{Core, Event};
use crate::env::CoreEnv;
use crate::trace::TraceKind;
use rmt_isa::inst::Op;
use rmt_mem::MemoryHierarchy;

/// What the branch-prediction structures say a chunk looks like.
pub(crate) struct ScannedChunk {
    pub len: usize,
    /// Predicted address of the next chunk.
    pub next_pc: u64,
}

impl Core {
    pub(crate) fn fetch(&mut self, now: u64, hier: &mut MemoryHierarchy, env: &mut dyn CoreEnv) {
        let Some(tid) = self.choose_fetch_thread(now, env) else {
            return;
        };
        self.fetch_rr = (tid + 1) % self.threads.len();
        match self.threads[tid].role {
            ThreadRole::Trailing(pair) if self.cfg.trailing_uses_lpq => {
                self.fetch_trailing(now, tid, pair, hier, env)
            }
            _ => self.fetch_predicted(now, tid, hier),
        }
    }

    /// ICOUNT-approximating thread chooser (§3.1): the eligible thread with
    /// the fewest instructions in its rate-matching buffer wins; trailing
    /// threads with line predictions available take priority when
    /// configured (§4.4).
    fn choose_fetch_thread(&mut self, now: u64, env: &mut dyn CoreEnv) -> Option<ThreadId> {
        let n = self.threads.len();
        let mut best: Option<(u64, usize, ThreadId)> = None;
        for off in 0..n {
            let tid = (self.fetch_rr + off) % n;
            let t = &self.threads[tid];
            if !t.active || t.halted || t.fetch_halted || t.fetch_paused {
                continue;
            }
            if t.fetch_stalled_until > now {
                continue;
            }
            if t.rmb.len() + 1 > self.cfg.rmb_chunks {
                continue;
            }
            let trailing_ready = match t.role {
                ThreadRole::Trailing(pair) if self.cfg.trailing_uses_lpq => {
                    if env.lpq_peek(self.core_id, tid, now, pair).is_none() {
                        continue; // nothing to fetch for a trailing thread
                    }
                    true
                }
                _ => false,
            };
            let priority = if trailing_ready && self.cfg.trailing_fetch_priority {
                0
            } else {
                1
            };
            let key = (priority, self.threads[tid].rmb_insts());
            match best {
                Some((p, insts, _)) if (p, insts) <= (key.0, key.1) => {}
                _ => best = Some((key.0, key.1, tid)),
            }
        }
        best.map(|(_, _, tid)| tid)
    }

    /// Normal (line-predictor-driven) fetch for base and leading threads.
    fn fetch_predicted(&mut self, now: u64, tid: ThreadId, hier: &mut MemoryHierarchy) {
        let mut pc = self.threads[tid].fetch_pc;
        for _ in 0..self.cfg.fetch_chunks {
            let scanned = self.scan_chunk(tid, pc);
            let Some(scanned) = scanned else {
                // PC points outside the program (wrong-path fetch): wait for
                // the inevitable squash to redirect us.
                self.threads[tid].fetch_stalled_until = now + 1;
                break;
            };
            let chunk_bytes = 4 * scanned.len as u64;
            let line_next = self.line_pred.predict(pc, chunk_bytes);
            let timing = hier.ifetch(self.core_id, pc, now);
            let ready_at = timing.ready_at.max(now) + self.cfg.ibox_latency;
            self.threads[tid].rmb.push_back((
                FetchChunk {
                    start_pc: pc,
                    len: scanned.len,
                    ready_at,
                    pred_next: scanned.next_pc,
                    half_hints: None,
                },
                0,
            ));
            self.stats.inc(Event::ChunksFetched);
            self.trace(now, tid, pc, TraceKind::FetchChunk { len: scanned.len });
            let mut stop = false;
            if line_next != scanned.next_pc {
                // Misfetch: the line predictor disagreed with the (checked)
                // branch predictors. Retrain and pay the redirect penalty.
                self.line_pred.train(pc, scanned.next_pc);
                self.threads[tid].fetch_stalled_until = now + self.cfg.misfetch_penalty;
                self.stats.inc(Event::Misfetches);
                stop = true;
            }
            if !timing.l1_hit {
                // I-cache miss: fetch for this thread stalls until the fill.
                self.threads[tid].fetch_stalled_until =
                    self.threads[tid].fetch_stalled_until.max(timing.ready_at);
                self.stats.inc(Event::IcacheMissStalls);
                stop = true;
            }
            pc = scanned.next_pc;
            if self.threads[tid].fetch_halted || stop {
                break;
            }
            if self.threads[tid].rmb.len() + 1 > self.cfg.rmb_chunks {
                break;
            }
        }
        self.threads[tid].fetch_pc = pc;
    }

    /// Trailing-thread fetch: consume the line prediction queue.
    fn fetch_trailing(
        &mut self,
        now: u64,
        tid: ThreadId,
        pair: usize,
        hier: &mut MemoryHierarchy,
        env: &mut dyn CoreEnv,
    ) {
        for _ in 0..self.cfg.fetch_chunks {
            let Some(entry) = env.lpq_peek(self.core_id, tid, now, pair) else {
                break;
            };
            // The address driver accepts the prediction.
            env.lpq_ack(self.core_id, tid, pair);
            let timing = hier.ifetch(self.core_id, entry.start_pc, now);
            if !timing.l1_hit {
                // I-cache miss: the accepted prediction cannot be used this
                // cycle — roll the active head back to the recovery head
                // and retry once the fill completes (Figure 4).
                env.lpq_rollback(self.core_id, tid, pair);
                self.threads[tid].fetch_stalled_until = timing.ready_at;
                self.stats.inc(Event::TrailingIcacheRollbacks);
                break;
            }
            env.lpq_fetch_done(self.core_id, tid, pair);
            self.trace(now, tid, entry.start_pc, TraceKind::LpqPop);
            self.threads[tid].rmb.push_back((
                FetchChunk {
                    start_pc: entry.start_pc,
                    len: entry.len,
                    ready_at: timing.ready_at.max(now) + self.cfg.ibox_latency,
                    pred_next: u64::MAX,
                    half_hints: Some(entry.halves),
                },
                0,
            ));
            self.stats.inc(Event::TrailingChunksFetched);
            self.trace(
                now,
                tid,
                entry.start_pc,
                TraceKind::FetchChunk { len: entry.len },
            );
            if self.threads[tid].rmb.len() + 1 > self.cfg.rmb_chunks {
                break;
            }
        }
    }

    /// Scans up to `chunk_size` sequential instructions starting at `pc`,
    /// consulting the branch predictor / RAS / jump table to find where the
    /// chunk ends and what comes next. Returns `None` when `pc` maps to no
    /// instruction at all.
    pub(crate) fn scan_chunk(&mut self, tid: ThreadId, pc: u64) -> Option<ScannedChunk> {
        let program = self.threads[tid].program.as_ref()?.clone();
        let mut len = 0usize;
        let mut cur = pc;
        let mut next_pc = pc;
        while len < self.cfg.chunk_size {
            let Some(inst) = program.fetch(cur) else {
                break;
            };
            len += 1;
            next_pc = cur + 4;
            match inst.op {
                Op::Beq | Op::Bne | Op::Blt | Op::Bge
                    if self.branch_pred.predict_direction(cur) =>
                {
                    next_pc = inst.imm as u64;
                    break;
                }
                Op::J => {
                    next_pc = inst.imm as u64;
                    break;
                }
                Op::Jal => {
                    if !inst.rd.is_zero() {
                        self.threads[tid].ras.push(cur + 4);
                    }
                    next_pc = inst.imm as u64;
                    break;
                }
                Op::Jalr => {
                    let ras_target = self.threads[tid].ras.pop();
                    next_pc = ras_target
                        .or_else(|| self.branch_pred.predict_jump_target(cur))
                        .unwrap_or(cur + 4);
                    break;
                }
                Op::Halt => {
                    self.threads[tid].fetch_halted = true;
                    break;
                }
                _ => {}
            }
            cur += 4;
        }
        if len == 0 {
            return None;
        }
        Some(ScannedChunk { len, next_pc })
    }
}
