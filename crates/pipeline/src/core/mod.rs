//! The core: structures, per-cycle orchestration, statistics and fault
//! hooks. Stage logic lives in [`crate::frontend`] (IBOX) and
//! [`crate::backend`] (PBOX/QBOX/retire).
//!
//! Orchestration (construction, [`Core::tick`], watchdog) lives here;
//! the observation and injection surfaces are split out:
//!
//! * `counts` — the event counters, indexed by event.
//! * `iq` — the instruction queue and its kept live counts.
//! * `metrics` — statistics accessors, metric export, event tracing.
//! * `state` — checkpoint/restore and quiesce (sampled simulation).
//! * `faults` — fault-injection hooks used by `rmt-faults`.

mod counts;
mod faults;
mod iq;
mod metrics;
mod state;

pub(crate) use counts::{Event, EventCounts};
pub(crate) use iq::{IqEntry, IssueQueue, NOT_READY};

use crate::chunk::{ChunkAggregator, FetchChunk};
use crate::config::{CoreConfig, ThreadId, ThreadRole};
use crate::env::CoreEnv;
use crate::lsq::{LoadQueue, StoreQueue};
use crate::regs::{PhysReg, RegFile, RenameMap};
use crate::trace::Tracer;
use rmt_isa::inst::Inst;
use rmt_isa::program::Program;
use rmt_mem::MemoryHierarchy;
use rmt_predict::{BranchPredictor, LinePredictor, ReturnAddressStack, StoreSets};
use rmt_stats::Histogram;
use std::collections::VecDeque;
use std::rc::Rc;

/// Execution state of an in-flight instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum InstState {
    /// Waiting in the instruction queue.
    InQ,
    /// Issued; completes at `done_at`.
    Issued,
}

/// One in-flight (renamed) instruction.
#[derive(Debug, Clone)]
pub(crate) struct DynInst {
    pub seq: u64,
    pub uid: u64,
    pub pc: u64,
    pub inst: Inst,
    /// Predicted next PC (`u64::MAX` = control flow is not verified —
    /// trailing threads trust the line prediction queue).
    pub pred_next: u64,
    pub actual_next: u64,
    pub prd: Option<PhysReg>,
    pub old_prd: PhysReg,
    pub half: u8,
    pub fu_id: u8,
    pub state: InstState,
    pub done_at: u64,
    pub mem_addr: u64,
    pub mem_bytes: u64,
    pub mem_value: u64,
    /// Program-order tag (load tag for loads, store tag for stores).
    pub tag: u64,
}

/// A pending squash scheduled for a future cycle (branch resolution or a
/// memory-order violation).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SquashEvent {
    pub at: u64,
    pub tid: ThreadId,
    /// The instruction that caused the squash; the event is stale if it is
    /// no longer in flight.
    pub cause_seq: u64,
    pub cause_uid: u64,
    /// First sequence number to remove.
    pub from_seq: u64,
    /// Where fetch resumes.
    pub new_pc: u64,
}

/// A fault detected by an RMT mechanism inside the core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DetectedFault {
    /// Cycle of detection.
    pub cycle: u64,
    /// The thread that observed the mismatch.
    pub tid: ThreadId,
    /// What detected it.
    pub kind: FaultDetector,
}

/// Which RMT mechanism detected a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultDetector {
    /// Trailing-thread load address disagreed with the load value queue.
    LvqAddressMismatch,
    /// The store comparator saw different address/data from the two
    /// redundant stores.
    StoreMismatch,
    /// An LPQ-driven trailing thread executed a control instruction whose
    /// computed outcome disagreed with the leading thread's committed path
    /// (the direction its own fetch followed). Branch outcomes cross the
    /// sphere of replication through the line prediction queue, so the
    /// disagreement is a redundancy mismatch, not a misprediction — the
    /// trailing thread never misspeculates.
    ControlDivergence,
}

/// Per-cycle issue-slot accounting in the style of top-down analysis:
/// every one of the `issue_width` slots of every accounted cycle is
/// attributed to exactly one cause, so the categories always sum to
/// `issue_width × cycles` (a standing conservation invariant).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IssueSlots {
    /// Cycles accounted (one per [`Core::tick`]).
    pub cycles: u64,
    /// Slots that issued an instruction.
    pub issued: u64,
    /// Idle slots with no candidate in the window at all (fetch/rename
    /// starvation outside any squash-recovery window).
    pub window_empty: u64,
    /// Idle slots whose best candidates waited on unready source operands
    /// or memory dependences (store-set waits, partial forwards, uncached
    /// ordering).
    pub data_wait: u64,
    /// Idle slots whose candidates were blocked by functional-unit class
    /// limits or load/store port limits.
    pub structural_fu: u64,
    /// Idle slots whose candidates were blocked by the per-IQ-half issue
    /// limit (`issue_width / 2` per half, §3.3).
    pub structural_iq_half: u64,
    /// Idle slots in the frontend-refill shadow of a squash.
    pub squash_recovery: u64,
    /// Idle slots of trailing threads waiting on sphere-crossing state
    /// (load value queue entries not yet filled by the leading thread).
    pub sphere_wait: u64,
}

impl IssueSlots {
    /// Sum of every attributed category; equals `issue_width × cycles` by
    /// construction.
    pub fn total(&self) -> u64 {
        self.issued
            + self.window_empty
            + self.data_wait
            + self.structural_fu
            + self.structural_iq_half
            + self.squash_recovery
            + self.sphere_wait
    }
}

/// Per-thread summary statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadStats {
    /// Instructions committed.
    pub committed: u64,
    /// Pipeline squashes (mispredictions + order violations).
    pub squashes: u64,
    /// Loads committed.
    pub loads: u64,
    /// Stores committed.
    pub stores: u64,
}

/// One hardware thread context.
pub(crate) struct Thread {
    pub role: ThreadRole,
    pub program: Option<Rc<Program>>,
    pub active: bool,
    pub halted: bool,
    /// Fetch stopped because a `Halt` was fetched (cleared on squash).
    pub fetch_halted: bool,
    pub fetch_pc: u64,
    pub fetch_stalled_until: u64,
    pub rmb: VecDeque<(FetchChunk, usize)>, // (chunk, consumed)
    pub rename_map: RenameMap,
    pub rob: VecDeque<DynInst>,
    pub rob_base: u64,
    pub next_seq: u64,
    pub lq: LoadQueue,
    pub sq: StoreQueue,
    pub next_load_tag: u64,
    pub next_store_tag: u64,
    pub ras: ReturnAddressStack,
    pub committed: u64,
    pub squashes: u64,
    pub loads_committed: u64,
    pub stores_committed: u64,
    /// Aggregates the committed stream into chunks to train the line
    /// predictor.
    pub line_agg: ChunkAggregator,
    pub last_chunk_start: Option<u64>,
    pub chunk_scratch: Vec<crate::chunk::RetiredChunk>,
    /// Store lifetime from SQ allocation to release (§7.1).
    pub sq_lifetime: Histogram,
    /// Retirement is stalled waiting for LVQ space (backpressure stat).
    pub lead_retire_nacks: u64,
    /// Architectural register values at the commit point (updated at
    /// retirement; the basis for checkpoint/recovery).
    pub committed_regs: Box<[u64; rmt_isa::inst::NUM_ARCH_REGS]>,
    /// The PC the next committed instruction will have.
    pub committed_pc: u64,
    /// Fetch suspended by the device (checkpoint quiesce).
    pub fetch_paused: bool,
    /// Opt-in commit log for differential verification (see
    /// [`crate::commit`]); `None` keeps retirement free of logging cost.
    pub commit_log: Option<Vec<crate::commit::CommitRecord>>,
}

impl Thread {
    pub(crate) fn rob_get(&mut self, seq: u64) -> Option<&mut DynInst> {
        if seq < self.rob_base {
            return None;
        }
        let idx = (seq - self.rob_base) as usize;
        self.rob.get_mut(idx)
    }

    pub(crate) fn rob_get_ref(&self, seq: u64) -> Option<&DynInst> {
        if seq < self.rob_base {
            return None;
        }
        let idx = (seq - self.rob_base) as usize;
        self.rob.get(idx)
    }

    pub(crate) fn rmb_insts(&self) -> usize {
        self.rmb.iter().map(|(c, consumed)| c.len - consumed).sum()
    }
}

/// Per-FU permanent fault state (stuck-at on one output bit).
#[derive(Debug, Clone, Default)]
pub struct FaultState {
    /// `fu_stuck[fu_id] = Some((bit, value))`.
    pub fu_stuck: Vec<Option<(u8, bool)>>,
}

impl FaultState {
    /// Applies the stuck-at fault of `fu` (if any) to `value`.
    pub fn apply(&self, fu: u8, value: u64) -> u64 {
        match self.fu_stuck.get(fu as usize).copied().flatten() {
            Some((bit, true)) => value | (1 << bit),
            Some((bit, false)) => value & !(1 << bit),
            None => value,
        }
    }

    /// Whether any fault is configured.
    pub fn any(&self) -> bool {
        self.fu_stuck.iter().any(Option::is_some)
    }
}

/// The cycle-level SMT core.
///
/// See the crate-level example for typical use. Drive it by calling
/// [`Core::tick`] once per cycle with monotonically increasing cycle
/// numbers.
pub struct Core {
    pub(crate) cfg: CoreConfig,
    pub(crate) core_id: usize,
    pub(crate) threads: Vec<Thread>,
    pub(crate) regfile: RegFile,
    pub(crate) line_pred: LinePredictor,
    pub(crate) branch_pred: BranchPredictor,
    pub(crate) store_sets: StoreSets,
    /// Moves whenever a load's store-set verdict could change: a store
    /// fills its address, the predictor learns a violation, a squash, or
    /// a fault hook. A load held by its store set at the current epoch,
    /// on the same unit, is still held.
    pub(crate) store_set_epoch: u64,
    pub(crate) iq: IssueQueue,
    pub(crate) events: Vec<SquashEvent>,
    pub(crate) stats: EventCounts,
    pub(crate) fetch_rr: usize,
    pub(crate) map_rr: usize,
    pub(crate) retire_rr: usize,
    pub(crate) uid_counter: u64,
    pub(crate) fault_state: FaultState,
    pub(crate) tracer: Option<Tracer>,
    pub(crate) sq_strike: Vec<Option<u64>>,
    pub(crate) detected_faults: Vec<DetectedFault>,
    pub(crate) last_retire_cycle: u64,
    /// Same-FU statistic support: `(commit_index % WINDOW)` ring of leading
    /// FU ids, maintained by the device layer via `RetireInfo`.
    pub(crate) issued_total: u64,
    /// Issue-slot accounting (see [`IssueSlots`]).
    pub(crate) slots: IssueSlots,
    /// Idle issue slots before this cycle are attributed to squash
    /// recovery rather than an empty window.
    pub(crate) squash_recovery_until: u64,
    /// Per-cycle occupancy of the two IQ halves.
    pub(crate) occ_iq: [Histogram; 2],
    /// Per-cycle total load-queue occupancy across threads.
    pub(crate) occ_lq: Histogram,
    /// Per-cycle total store-queue occupancy across threads.
    pub(crate) occ_sq: Histogram,
    /// Per-cycle total rate-matching-buffer chunks across threads.
    pub(crate) occ_rmb: Histogram,
}

impl Core {
    /// Creates a core with no threads attached.
    pub fn new(cfg: CoreConfig, core_id: usize) -> Self {
        let threads = (0..cfg.max_threads)
            .map(|_| Thread {
                role: ThreadRole::Independent,
                program: None,
                active: false,
                halted: false,
                fetch_halted: false,
                fetch_pc: 0,
                fetch_stalled_until: 0,
                rmb: VecDeque::new(),
                rename_map: RenameMap::new(),
                rob: VecDeque::new(),
                rob_base: 0,
                next_seq: 0,
                lq: LoadQueue::new(cfg.lq_entries),
                sq: StoreQueue::new(cfg.sq_entries),
                next_load_tag: 0,
                next_store_tag: 0,
                ras: ReturnAddressStack::new(cfg.ras_entries),
                committed: 0,
                squashes: 0,
                loads_committed: 0,
                stores_committed: 0,
                line_agg: ChunkAggregator::new(cfg.chunk_size),
                last_chunk_start: None,
                chunk_scratch: Vec::new(),
                sq_lifetime: Histogram::new("sq_lifetime", 8, 64),
                lead_retire_nacks: 0,
                committed_regs: Box::new([0; rmt_isa::inst::NUM_ARCH_REGS]),
                committed_pc: 0,
                fetch_paused: false,
                commit_log: None,
            })
            .collect();
        let mut fault_state = FaultState::default();
        fault_state.fu_stuck.resize(cfg.total_fus(), None);
        let sq_strike = vec![None; cfg.max_threads];
        Core {
            regfile: RegFile::new(cfg.phys_regs),
            line_pred: LinePredictor::new(cfg.line_predictor_entries),
            branch_pred: BranchPredictor::new(cfg.predictor),
            store_sets: StoreSets::new(cfg.store_sets_entries),
            store_set_epoch: 0,
            iq: IssueQueue::new(cfg.iq_size, cfg.max_threads),
            events: Vec::new(),
            stats: EventCounts::default(),
            fetch_rr: 0,
            map_rr: 0,
            retire_rr: 0,
            uid_counter: 0,
            fault_state,
            tracer: None,
            sq_strike,
            detected_faults: Vec::new(),
            last_retire_cycle: 0,
            issued_total: 0,
            slots: IssueSlots::default(),
            squash_recovery_until: 0,
            occ_iq: [
                Histogram::new("iq_half0_occupancy", 2, 40),
                Histogram::new("iq_half1_occupancy", 2, 40),
            ],
            occ_lq: Histogram::new("lq_occupancy", 4, 64),
            occ_sq: Histogram::new("sq_occupancy", 4, 64),
            occ_rmb: Histogram::new("rmb_occupancy", 1, 33),
            threads,
            cfg,
            core_id,
        }
    }

    /// Attaches a program to the next free hardware thread context as an
    /// independent thread; returns its thread id.
    ///
    /// # Panics
    ///
    /// Panics if all contexts are in use.
    pub fn attach_thread(&mut self, program: Rc<Program>, entry_pc: u64) -> ThreadId {
        self.attach_thread_with_role(program, entry_pc, ThreadRole::Independent)
    }

    /// Attaches a program with an explicit redundancy role.
    ///
    /// # Panics
    ///
    /// Panics if all contexts are in use.
    pub fn attach_thread_with_role(
        &mut self,
        program: Rc<Program>,
        entry_pc: u64,
        role: ThreadRole,
    ) -> ThreadId {
        let tid = self
            .threads
            .iter()
            .position(|t| !t.active)
            .expect("no free hardware thread context");
        let t = &mut self.threads[tid];
        t.active = true;
        t.role = role;
        t.program = Some(program);
        t.fetch_pc = entry_pc;
        tid
    }

    /// Recomputes per-thread queue partitions once all threads are
    /// attached (static partitioning, §3.4). Must be called before the
    /// first tick.
    pub fn finalize_partitions(&mut self) {
        let active = self.threads.iter().filter(|t| t.active).count().max(1);
        // Trailing threads do not use the load queue (§4.1): leading/
        // independent threads split it among themselves.
        let lq_users = self
            .threads
            .iter()
            .filter(|t| t.active && !t.role.is_trailing())
            .count()
            .max(1);
        let sq_cap = self.cfg.sq_per_thread(active);
        let lq_cap = self.cfg.lq_per_thread(lq_users);
        for t in &mut self.threads {
            t.sq = StoreQueue::new(sq_cap);
            t.lq = LoadQueue::new(lq_cap);
        }
    }

    /// Advances the core by one cycle. `now` must increase by exactly one
    /// per call.
    pub fn tick(&mut self, now: u64, hier: &mut MemoryHierarchy, env: &mut dyn CoreEnv) {
        self.process_events(now);
        self.retire(now, hier, env);
        self.release_stores(now, hier, env);
        self.issue(now, hier, env);
        self.rename(now);
        self.fetch(now, hier, env);
        self.watchdog(now);
        self.sample_occupancy();
        debug_assert!(self.iq_consistent(), "instruction queue out of step");
        debug_assert!(self.select_consistent(), "select kept a stale verdict");
    }

    /// Whether the instruction queue's kept counts equal a recount and
    /// every entry's instruction still waits in its thread's ROB (the
    /// invariants that let rename, issue and sampling skip IQ scans).
    pub(crate) fn iq_consistent(&self) -> bool {
        self.iq.counts_match()
            && self.iq.entries().iter().all(|e| {
                self.threads[e.tid]
                    .rob_get_ref(e.seq)
                    .is_some_and(|d| d.uid == e.uid && d.state == InstState::InQ)
            })
    }

    /// Records per-cycle occupancy of the IQ halves, load/store queues and
    /// rate-matching buffers (per-box distributions for the metrics layer).
    fn sample_occupancy(&mut self) {
        self.occ_iq[0].record(self.iq.half_live(0) as u64);
        self.occ_iq[1].record(self.iq.half_live(1) as u64);
        let (mut lq, mut sq, mut rmb) = (0u64, 0u64, 0u64);
        for t in self.threads.iter().filter(|t| t.active) {
            lq += t.lq.len() as u64;
            sq += t.sq.len() as u64;
            rmb += t.rmb.len() as u64;
        }
        self.occ_lq.record(lq);
        self.occ_sq.record(sq);
        self.occ_rmb.record(rmb);
    }

    fn watchdog(&mut self, now: u64) {
        // A correctly configured machine always makes forward progress.
        // 100k cycles without a retirement while work is in flight means a
        // deadlock (the exact failure §4.3/§4.4.2 guard against).
        let in_flight: usize = self.threads.iter().map(|t| t.rob.len()).sum();
        if in_flight > 0 && now.saturating_sub(self.last_retire_cycle) > 100_000 {
            let heads: Vec<String> = self
                .threads
                .iter()
                .enumerate()
                .filter_map(|(i, t)| {
                    t.rob.front().map(|d| {
                        let in_iq = self
                            .iq
                            .entries()
                            .iter()
                            .any(|e| e.tid == i && e.seq == d.seq && e.uid == d.uid);
                        format!(
                            "t{i}: pc={:#x} op={:?} state={:?} done_at={} seq={} in_iq={in_iq}",
                            d.pc, d.inst.op, d.state, d.done_at, d.seq
                        )
                    })
                })
                .collect();
            panic!(
                "deadlock: no retirement since cycle {} (now {now}, {in_flight} in flight, \
                 sq occupancies {:?}, heads: {heads:?})",
                self.last_retire_cycle,
                self.threads.iter().map(|t| t.sq.len()).collect::<Vec<_>>()
            );
        }
    }
}
