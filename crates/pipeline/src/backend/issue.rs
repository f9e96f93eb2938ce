//! QBOX: wakeup/select and execute-at-issue, including the
//! sphere-crossing load path (LVQ lookups, uncached loads, store-queue
//! forwarding) and the per-cycle issue-slot attribution.

use crate::config::ThreadId;
use crate::core::{
    Core, DetectedFault, Event, FaultDetector, InstState, IqEntry, SquashEvent, NOT_READY,
};
use crate::env::{CoreEnv, LvqResult};
use crate::lsq::ForwardResult;
use crate::trace::TraceKind;
use rmt_isa::exec::{execute, ExecOutcome};
use rmt_isa::inst::{FuClass, Op};
use rmt_mem::MemoryHierarchy;

/// `(done_at, result, actual_next_pc, mem-op payload)` computed when an
/// instruction issues; the payload is `(addr, value, bytes)` for stores.
type IssueEffects = (u64, Option<u64>, u64, Option<(u64, u64, u64)>);

/// Functional-unit class index for per-cycle accounting.
fn class_idx(c: FuClass) -> usize {
    match c {
        FuClass::Int => 0,
        FuClass::Logic => 1,
        FuClass::Mem => 2,
        FuClass::Fp => 3,
    }
}

/// Why an issue attempt did or did not take a slot (feeds the
/// [`crate::core::IssueSlots`] attribution).
enum IssueOutcome {
    /// The instruction issued.
    Issued,
    /// Blocked on a data/memory dependence (partial forward, uncached
    /// ordering).
    DataWait,
    /// A load held by its store set: a data wait that select replays
    /// until the store-set epoch or the unit changes.
    StoreSetWait,
    /// Blocked waiting on sphere-crossing state (LVQ entry not ready).
    SphereWait,
}

/// Where a load gets its value, decided without side effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoadSource {
    /// A trailing thread reads the load value queue.
    Lvq,
    /// A device load below `uncached_below`: non-speculative.
    Uncached,
    /// Partially overlapped by the older store `store_seq`.
    Partial { store_seq: u64 },
    /// Fully covered by an older store: its value.
    Forward(u64),
    /// An older store of the load's store set has no address yet.
    StoreSetWait,
    /// The cache hierarchy.
    Cache,
}

impl Core {
    pub(crate) fn issue(&mut self, now: u64, hier: &mut MemoryHierarchy, env: &mut dyn CoreEnv) {
        let per_half_limit = [
            self.cfg.fu_int / 2,
            self.cfg.fu_logic / 2,
            self.cfg.fu_mem / 2,
            self.cfg.fu_fp / 2,
        ];
        let mut used = [[0usize; 4]; 2];
        let mut loads_issued = 0usize;
        let mut stores_issued = 0usize;
        let mut total = 0usize;
        let per_half_issue = self.cfg.issue_width / 2;
        let mut half_issued = [0usize; 2];
        // Until a half, class or port limit is reached, every check before
        // the operand check passes, so an unready entry is a data wait and
        // one compare decides it. A zero limit is reached from the start.
        let mut limited = per_half_issue == 0
            || per_half_limit.contains(&0)
            || self.cfg.max_loads_per_cycle == 0
            || self.cfg.max_stores_per_cycle == 0;
        let bypass = self.cfg.rbox_latency;
        // Blocked-candidate tallies for slot attribution: each live, ripe
        // candidate scanned this cycle counts once, at its first failing
        // check (half, unit class, load port, store port, operands).
        let mut blocked_data = 0u64;
        let mut blocked_sphere = 0u64;
        let mut blocked_fu = 0u64;
        let mut blocked_half = 0u64;

        for i in 0..self.iq.len() {
            if total >= self.cfg.issue_width {
                break;
            }
            let e = &mut self.iq.entries_mut()[i];
            // The unripe entries are a suffix of the queue.
            if e.min_issue > now {
                break;
            }
            if e.ready == NOT_READY {
                e.ready = e.operand_ready(&self.regfile, bypass);
            }
            let data_ready = e.ready <= now;
            if !data_ready && !limited {
                blocked_data += 1;
                continue;
            }
            let (h, op, held) = (e.half as usize, e.inst.op, e.held);
            let ci = class_idx(op.fu_class());
            if limited {
                if half_issued[h] >= per_half_issue {
                    blocked_half += 1;
                    continue;
                }
                if used[h][ci] >= per_half_limit[ci]
                    || (op.is_load() && loads_issued >= self.cfg.max_loads_per_cycle)
                    || (op.is_store() && stores_issued >= self.cfg.max_stores_per_cycle)
                {
                    blocked_fu += 1;
                    continue;
                }
                if !data_ready {
                    blocked_data += 1;
                    continue;
                }
            }
            // Functional-unit id (for PSR statistics and permanent faults).
            let class_total = [
                self.cfg.fu_int,
                self.cfg.fu_logic,
                self.cfg.fu_mem,
                self.cfg.fu_fp,
            ];
            let class_base: usize = class_total[..ci].iter().sum();
            let fu_id = (class_base + h * (class_total[ci] / 2) + used[h][ci]) as u8;
            // Nothing the store-set verdict reads has changed: replay it.
            if held == Some((self.store_set_epoch, fu_id)) {
                self.stats.inc(Event::StoreSetWaits);
                blocked_data += 1;
                continue;
            }

            let entry = self.iq.entries()[i];
            match self.try_issue_one(now, &entry, fu_id, hier, env) {
                IssueOutcome::Issued => {
                    used[h][ci] += 1;
                    half_issued[h] += 1;
                    total += 1;
                    if op.is_load() {
                        loads_issued += 1;
                    }
                    if op.is_store() {
                        stores_issued += 1;
                    }
                    limited |= half_issued[h] >= per_half_issue
                        || used[h][ci] >= per_half_limit[ci]
                        || loads_issued >= self.cfg.max_loads_per_cycle
                        || stores_issued >= self.cfg.max_stores_per_cycle;
                    self.iq.mark_issued(i);
                    self.issued_total += 1;
                }
                IssueOutcome::DataWait => blocked_data += 1,
                IssueOutcome::StoreSetWait => {
                    self.iq.entries_mut()[i].held = Some((self.store_set_epoch, fu_id));
                    blocked_data += 1;
                }
                IssueOutcome::SphereWait => blocked_sphere += 1,
            }
        }
        self.iq.remove_issued();

        // ---- issue-slot attribution ----
        // Every slot of every cycle lands in exactly one category, so the
        // categories always sum to `issue_width × cycles`. Idle slots are
        // charged to blocked candidates first (waits beat emptiness), in a
        // fixed priority order so attribution is deterministic.
        self.slots.cycles += 1;
        self.slots.issued += total as u64;
        let mut idle = (self.cfg.issue_width - total) as u64;
        for (bucket, blocked) in [
            (&mut self.slots.data_wait, blocked_data),
            (&mut self.slots.sphere_wait, blocked_sphere),
            (&mut self.slots.structural_fu, blocked_fu),
            (&mut self.slots.structural_iq_half, blocked_half),
        ] {
            let take = blocked.min(idle);
            *bucket += take;
            idle -= take;
        }
        if idle > 0 {
            if now < self.squash_recovery_until {
                self.slots.squash_recovery += idle;
            } else {
                self.slots.window_empty += idle;
            }
        }
    }

    /// Whether what select settled still holds: every cached ready cycle
    /// equals a recomputation from the register file, every load held at
    /// the current epoch would still be held if tried again on the same
    /// unit, and `min_issue` never decreases along the queue (so select
    /// may stop at the first unripe entry).
    pub(crate) fn select_consistent(&self) -> bool {
        let bypass = self.cfg.rbox_latency;
        let entries = self.iq.entries();
        entries.windows(2).all(|w| w[0].min_issue <= w[1].min_issue)
            && entries.iter().all(|e| {
                (e.ready == NOT_READY || e.ready == e.operand_ready(&self.regfile, bypass))
                    && match e.held {
                        Some((epoch, fu_id)) if epoch == self.store_set_epoch => {
                            let a = self.regfile.value(e.prs1);
                            let b = self.regfile.value(e.prs2);
                            matches!(
                                execute(&e.inst, e.pc, a, b),
                                ExecOutcome::Load { addr, bytes } if self.load_source(
                                    e.tid,
                                    e.seq,
                                    e.pc,
                                    self.fault_state.apply(fu_id, addr),
                                    bytes,
                                ) == LoadSource::StoreSetWait
                            )
                        }
                        _ => true,
                    }
            })
    }

    /// Where the load of thread `tid` at `seq`/`pc`, reading `bytes` at
    /// `addr`, gets its value. Reads only the thread's role, the store
    /// queue and the store-set predictor, so a store-set verdict holds
    /// until one of them changes.
    fn load_source(&self, tid: ThreadId, seq: u64, pc: u64, addr: u64, bytes: u64) -> LoadSource {
        let t = &self.threads[tid];
        if t.role.is_trailing() {
            return LoadSource::Lvq;
        }
        if addr < self.cfg.uncached_below {
            return LoadSource::Uncached;
        }
        match t.sq.forward(addr, bytes, seq) {
            ForwardResult::Partial { store_seq } => LoadSource::Partial { store_seq },
            ForwardResult::Full(v) => LoadSource::Forward(v),
            ForwardResult::None => {
                // A load with no store set waits for no store.
                let held = self.store_sets.set_of(pc).is_some_and(|set| {
                    t.sq.unknown_addr_older(seq)
                        .any(|e| self.store_sets.set_of(e.pc) == Some(set))
                });
                if held {
                    LoadSource::StoreSetWait
                } else {
                    LoadSource::Cache
                }
            }
        }
    }

    /// Attempts to issue the instruction of `entry`; reports whether it
    /// issued or why it could not.
    fn try_issue_one(
        &mut self,
        now: u64,
        entry: &IqEntry,
        fu_id: u8,
        hier: &mut MemoryHierarchy,
        env: &mut dyn CoreEnv,
    ) -> IssueOutcome {
        let IqEntry {
            tid,
            seq,
            uid,
            pc,
            inst,
            prs1,
            prs2,
            tag,
            ..
        } = *entry;
        // Squash removes what it kills and issue what it issues, so every
        // queue entry's instruction still waits in its ROB.
        debug_assert!(self.threads[tid]
            .rob_get_ref(seq)
            .is_some_and(|d| d.uid == uid && d.state == InstState::InQ));
        let role = self.threads[tid].role;
        let trailing = role.is_trailing();
        let a = self.regfile.value(prs1);
        let b = self.regfile.value(prs2);
        let outcome = execute(&inst, pc, a, b);
        let rbox = self.cfg.rbox_latency;
        let mbox = self.cfg.mbox_latency;

        let (done_at, result, actual_next, mem): IssueEffects = match outcome {
            ExecOutcome::Value(v) => {
                let v = self.fault_state.apply(fu_id, v);
                (now + rbox + inst.op.latency() as u64, Some(v), pc + 4, None)
            }
            ExecOutcome::Control { next_pc, link, .. } => (now + rbox + 1, link, next_pc, None),
            ExecOutcome::Nop | ExecOutcome::MemBar | ExecOutcome::Halt => {
                (now + rbox + 1, None, pc + 4, None)
            }
            ExecOutcome::Load { addr, bytes } => {
                let addr = self.fault_state.apply(fu_id, addr);
                match self.load_source(tid, seq, pc, addr, bytes) {
                    LoadSource::Lvq => {
                        match env.lvq_lookup(self.core_id, tid, now, role.pair().unwrap(), tag) {
                            LvqResult::NotReady => {
                                self.stats.inc(Event::LvqNotReady);
                                return IssueOutcome::SphereWait;
                            }
                            LvqResult::Entry {
                                addr: lead_addr,
                                value,
                            } => {
                                if lead_addr != addr {
                                    self.detected_faults.push(DetectedFault {
                                        cycle: now,
                                        tid,
                                        kind: FaultDetector::LvqAddressMismatch,
                                    });
                                    self.trace(now, tid, pc, TraceKind::FaultDetect);
                                }
                                self.trace(now, tid, pc, TraceKind::LvqDrain);
                                // The entry is consumed by the environment
                                // when this load retires (so squashed
                                // wrong-path lookups, possible in the non-
                                // LPQ ablation, never lose entries).
                                (
                                    now + rbox + mbox,
                                    Some(value),
                                    pc + 4,
                                    Some((addr, bytes, value)),
                                )
                            }
                        }
                    }
                    LoadSource::Uncached => {
                        // Uncached (device) load: non-speculative — issues
                        // only from the head of the reorder buffer with the
                        // store queue drained — and bypasses the cache
                        // hierarchy entirely.
                        if self.threads[tid].rob_base != seq
                            || self.threads[tid].sq.has_older_than(seq)
                        {
                            self.stats.inc(Event::UncachedLoadWaits);
                            // The §4.4.2 deadlock shape again: a leading
                            // store that cannot drain before verification
                            // blocks the uncached load forever unless the
                            // open LPQ chunk is forced shut.
                            if role.is_leading() {
                                let blocked = self.threads[tid]
                                    .sq
                                    .head()
                                    .map(|e| e.seq < seq && e.retired && !e.verified)
                                    .unwrap_or(false);
                                if blocked {
                                    env.lead_retire_blocked(
                                        self.core_id,
                                        tid,
                                        now,
                                        role.pair().unwrap(),
                                    );
                                }
                            }
                            return IssueOutcome::DataWait;
                        }
                        let v = env.read_mem(self.core_id, tid, addr, bytes);
                        self.threads[tid].lq.fill(seq, addr, bytes);
                        self.stats.inc(Event::UncachedLoads);
                        let lat = hier.config().mem_latency;
                        (
                            now + rbox + mbox + lat,
                            Some(v),
                            pc + 4,
                            Some((addr, bytes, v)),
                        )
                    }
                    LoadSource::Partial { store_seq } => {
                        self.stats.inc(Event::PartialForwardStalls);
                        // §4.4.2: if the blocking store already retired but
                        // cannot drain before its trailing copy is fetched,
                        // force the open LPQ chunk to terminate.
                        if role.is_leading() {
                            let blocked = self.threads[tid]
                                .sq
                                .iter()
                                .find(|e| e.seq == store_seq)
                                .map(|e| e.retired && !e.verified)
                                .unwrap_or(false);
                            if blocked {
                                env.lead_retire_blocked(
                                    self.core_id,
                                    tid,
                                    now,
                                    role.pair().unwrap(),
                                );
                            }
                        }
                        return IssueOutcome::DataWait;
                    }
                    LoadSource::Forward(v) => {
                        self.stats.inc(Event::StoreForwards);
                        self.threads[tid].lq.fill(seq, addr, bytes);
                        (now + rbox + mbox, Some(v), pc + 4, Some((addr, bytes, v)))
                    }
                    LoadSource::StoreSetWait => {
                        self.stats.inc(Event::StoreSetWaits);
                        return IssueOutcome::StoreSetWait;
                    }
                    LoadSource::Cache => {
                        let v = env.read_mem(
                            self.core_id,
                            tid,
                            addr,
                            self.load_read_bytes(inst.op, bytes),
                        );
                        let timing = hier.dload(self.core_id, addr, now);
                        let extra = timing.ready_at.saturating_sub(now);
                        if !timing.l1_hit {
                            self.stats.inc(Event::DcacheMisses);
                        }
                        self.threads[tid].lq.fill(seq, addr, bytes);
                        (
                            now + rbox + mbox + extra,
                            Some(v),
                            pc + 4,
                            Some((addr, bytes, v)),
                        )
                    }
                }
            }
            ExecOutcome::Store { addr, value, bytes } => {
                let addr = self.fault_state.apply(fu_id, addr);
                let value = self.fault_state.apply(fu_id, value);
                let done = now + rbox + 1;
                self.threads[tid].sq.fill(seq, addr, value, bytes);
                self.store_set_epoch += 1;
                if trailing {
                    env.trailing_store_executed(
                        self.core_id,
                        tid,
                        done,
                        role.pair().unwrap(),
                        tag,
                        addr,
                        value,
                        bytes,
                    );
                } else if let Some(v) = self.threads[tid].lq.violation(seq, addr, bytes) {
                    // Memory-order violation: the load read stale data.
                    let (lseq, lpc) = (v.seq, v.pc);
                    let load_uid = self.threads[tid].rob_get_ref(lseq).map(|l| l.uid);
                    self.store_sets.record_violation(lpc, pc);
                    self.store_set_epoch += 1;
                    self.stats.inc(Event::OrderViolations);
                    if let Some(load_uid) = load_uid {
                        // The *load* is the cause: if an older squash
                        // removes it before this event fires, the replay
                        // is moot and the event must die with it.
                        // Tying the event to the store instead would let
                        // several same-window violations each redirect
                        // fetch to their own (ever younger) load pc; the
                        // first squash already discards everything past
                        // the oldest load, so the later redirects would
                        // skip the instructions in between and commit a
                        // wrong-path stream.
                        self.events.push(SquashEvent {
                            at: done,
                            tid,
                            cause_seq: lseq,
                            cause_uid: load_uid,
                            from_seq: lseq,
                            new_pc: lpc,
                        });
                    }
                }
                (done, None, pc + 4, Some((addr, bytes, value)))
            }
        };

        // Branch resolution: verify prediction (not for LPQ-driven trailing
        // threads, whose fetch stream is the leading thread's commit path).
        let verify_control = !trailing || !self.cfg.trailing_uses_lpq;
        if inst.op.is_control() && verify_control {
            if inst.op.is_cond_branch() {
                let pred_taken = {
                    let d = self.threads[tid].rob_get_ref(seq).expect("inst live");
                    d.pred_next != pc + 4
                };
                let taken = actual_next != pc + 4;
                self.branch_pred.train_direction(pc, taken);
                if pred_taken != taken {
                    self.stats.inc(Event::BranchMispredicts);
                }
            }
            if inst.op == Op::Jalr {
                self.branch_pred.train_jump_target(pc, actual_next);
            }
            let pred_next = self.threads[tid].rob_get_ref(seq).expect("live").pred_next;
            if pred_next != actual_next {
                self.events.push(SquashEvent {
                    at: done_at,
                    tid,
                    cause_seq: seq,
                    cause_uid: uid,
                    from_seq: seq + 1,
                    new_pc: actual_next,
                });
            }
        }

        // Write back.
        let d = self.threads[tid].rob_get(seq).expect("inst live");
        d.state = InstState::Issued;
        d.done_at = done_at;
        d.fu_id = fu_id;
        d.actual_next = actual_next;
        if let Some((addr, bytes, value)) = mem {
            d.mem_addr = addr;
            d.mem_bytes = bytes;
            d.mem_value = value;
        }
        if let Some(v) = result {
            if let Some(prd) = d.prd {
                self.regfile.write(prd, v, done_at);
            }
        }
        self.stats.inc(Event::Issued);
        self.trace(now, tid, pc, TraceKind::Issue { fu: fu_id });
        IssueOutcome::Issued
    }

    /// Access size used for the architectural read of a cached load.
    ///
    /// With the `chaos` feature's [`CoreConfig::chaos_lb_unmasked`] knob a
    /// byte load reads a full word — a deliberately planted partial-masking
    /// bug. Both copies of a redundant pair load the same wrong value, so
    /// the hardware comparators are blind to it; it exists to prove the
    /// differential oracle catches real architectural defects.
    #[cfg(feature = "chaos")]
    fn load_read_bytes(&self, op: Op, bytes: u64) -> u64 {
        if self.cfg.chaos_lb_unmasked && op == Op::Lb {
            8
        } else {
            bytes
        }
    }

    #[cfg(not(feature = "chaos"))]
    fn load_read_bytes(&self, _op: Op, bytes: u64) -> u64 {
        bytes
    }
}
