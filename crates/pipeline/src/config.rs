//! Core configuration (the paper's Table 1 and Figure 2).

use rmt_predict::BranchPredictorConfig;

/// Index of a hardware thread context within one core (0..4).
pub type ThreadId = usize;

/// Identifier of a logical redundant pair, global across a device.
pub type PairId = usize;

/// What role a hardware thread plays in a redundant-multithreading device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadRole {
    /// An ordinary thread: fetches via the line predictor, loads from
    /// memory, stores leave the sphere at retirement unconditionally.
    Independent,
    /// The leading thread of redundant pair `PairId`: executes like an
    /// independent thread, but its retired control flow feeds the pair's
    /// line prediction queue, its retired loads feed the load value queue,
    /// and its stores wait in the store queue until verified.
    Leading(PairId),
    /// The trailing thread of redundant pair `PairId`: fetch is driven by
    /// the line prediction queue (never misspeculates), loads read the load
    /// value queue (no data-cache or load-queue use), stores are compared
    /// and discarded.
    Trailing(PairId),
}

impl ThreadRole {
    /// The pair this thread belongs to, if it is redundant.
    pub fn pair(self) -> Option<PairId> {
        match self {
            ThreadRole::Independent => None,
            ThreadRole::Leading(p) | ThreadRole::Trailing(p) => Some(p),
        }
    }

    /// Whether this is a trailing thread.
    pub fn is_trailing(self) -> bool {
        matches!(self, ThreadRole::Trailing(_))
    }

    /// Whether this is a leading thread.
    pub fn is_leading(self) -> bool {
        matches!(self, ThreadRole::Leading(_))
    }
}

/// Full configuration of one core (defaults follow the paper's Table 1 and
/// Figure 2 latencies: I=4, P=2, Q=4, R=4, E=1, M=2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreConfig {
    /// Hardware thread contexts (the base processor has 4).
    pub max_threads: usize,
    /// Fetch chunks per cycle (2), all from the same thread.
    pub fetch_chunks: usize,
    /// Instructions per fetch chunk (8).
    pub chunk_size: usize,
    /// IBOX depth in cycles (4).
    pub ibox_latency: u64,
    /// PBOX depth in cycles (2).
    pub pbox_latency: u64,
    /// Cycles after dispatch before an IQ entry may issue (QBOX, 4).
    pub qbox_latency: u64,
    /// Register-read stages between issue and execute (RBOX, 4).
    pub rbox_latency: u64,
    /// Data-cache access cycles on a hit (MBOX, 2).
    pub mbox_latency: u64,
    /// Extra cycles when a line prediction is found wrong at the end of the
    /// IBOX (misfetch redirect).
    pub misfetch_penalty: u64,
    /// Instruction-queue capacity (128, split into two halves).
    pub iq_size: usize,
    /// Issue width (8; at most half per queue half).
    pub issue_width: usize,
    /// Retire width (8, shared across threads).
    pub retire_width: usize,
    /// Physical registers (512).
    pub phys_regs: usize,
    /// Reorder-buffer entries per thread.
    pub rob_per_thread: usize,
    /// Rate-matching-buffer capacity per thread, in chunks.
    pub rmb_chunks: usize,
    /// Load-queue entries, statically partitioned among threads (64).
    pub lq_entries: usize,
    /// Store-queue entries (64). Statically partitioned among threads
    /// unless [`CoreConfig::per_thread_store_queues`] is set.
    pub sq_entries: usize,
    /// The paper's per-thread store queue optimization (§4.2): every thread
    /// gets a private queue of `sq_entries` entries.
    pub per_thread_store_queues: bool,
    /// Integer units (8).
    pub fu_int: usize,
    /// Logic units (8).
    pub fu_logic: usize,
    /// Memory units (4).
    pub fu_mem: usize,
    /// Floating-point units (4).
    pub fu_fp: usize,
    /// Max loads issued per cycle (3: the L1D has 3 load ports).
    pub max_loads_per_cycle: usize,
    /// Max stores issued per cycle (2).
    pub max_stores_per_cycle: usize,
    /// Line-predictor entries (28K).
    pub line_predictor_entries: usize,
    /// Store-sets SSIT entries (4K).
    pub store_sets_entries: usize,
    /// Return-address-stack entries per thread.
    pub ras_entries: usize,
    /// IQ slots reserved per thread (deadlock avoidance, §4.3).
    pub iq_reserve_per_thread: usize,
    /// Preferential space redundancy (§4.5): steer trailing-thread
    /// instructions to the opposite queue half from their leading
    /// counterparts.
    pub preferential_space_redundancy: bool,
    /// Give trailing threads fetch priority whenever their line prediction
    /// queue is non-empty (§4.4: best performance).
    pub trailing_fetch_priority: bool,
    /// Extra cycles between a store's retirement and its eligibility to
    /// leave the sphere (a lockstep checker interposes on the store path
    /// too; 0 everywhere else).
    pub store_release_delay: u64,
    /// Addresses below this bound are *uncached* (memory-mapped device
    /// space): accesses bypass the caches, take the full memory latency,
    /// and loads issue only from the head of the reorder buffer
    /// (non-speculatively). The paper defers uncached-input replication to
    /// future work (§2.1); here the trailing thread receives uncached load
    /// values through the same load value queue as cached ones.
    pub uncached_below: u64,
    /// Whether trailing threads fetch through the line prediction queue
    /// (the paper's design). When false — the §4.4 ablation — trailing
    /// threads fetch through the shared line predictor like any other
    /// thread, misspeculate, and verify their own branches.
    pub trailing_uses_lpq: bool,
    /// Geometry of the core's tournament branch predictor (21264-style,
    /// Table 1). Surfaced as the `predictor` section of a machine spec.
    pub predictor: BranchPredictorConfig,
    /// Deliberately planted architectural bug (compiled in only under the
    /// `chaos` feature, default off): cached `Lb` loads read a full 8-byte
    /// word, skipping the byte mask. Exists solely to validate that the
    /// differential oracle catches pipeline defects the redundant-pair
    /// comparators cannot see (both copies load the same wrong value).
    #[cfg(feature = "chaos")]
    pub chaos_lb_unmasked: bool,
}

impl CoreConfig {
    /// The paper's base processor configuration.
    pub fn base() -> Self {
        CoreConfig {
            max_threads: 4,
            fetch_chunks: 2,
            chunk_size: 8,
            ibox_latency: 4,
            pbox_latency: 2,
            qbox_latency: 4,
            rbox_latency: 4,
            mbox_latency: 2,
            misfetch_penalty: 3,
            iq_size: 128,
            issue_width: 8,
            retire_width: 8,
            phys_regs: 512,
            rob_per_thread: 128,
            rmb_chunks: 8,
            lq_entries: 64,
            sq_entries: 64,
            per_thread_store_queues: false,
            fu_int: 8,
            fu_logic: 8,
            fu_mem: 4,
            fu_fp: 4,
            max_loads_per_cycle: 3,
            max_stores_per_cycle: 2,
            line_predictor_entries: 28 * 1024,
            store_sets_entries: 4096,
            ras_entries: 32,
            iq_reserve_per_thread: 8,
            preferential_space_redundancy: false,
            store_release_delay: 0,
            uncached_below: 0x1_0000,
            trailing_fetch_priority: true,
            trailing_uses_lpq: true,
            predictor: BranchPredictorConfig::default(),
            #[cfg(feature = "chaos")]
            chaos_lb_unmasked: false,
        }
    }

    /// Total functional units.
    pub fn total_fus(&self) -> usize {
        self.fu_int + self.fu_logic + self.fu_mem + self.fu_fp
    }

    /// Store-queue entries available to one thread when `active_threads`
    /// contexts are in use (static partitioning, §3.4), or the full size
    /// with per-thread store queues.
    pub fn sq_per_thread(&self, active_threads: usize) -> usize {
        if self.per_thread_store_queues {
            self.sq_entries
        } else {
            self.sq_entries / active_threads.max(1)
        }
    }

    /// Load-queue entries per *load-queue-using* thread (trailing threads
    /// do not use the load queue, §4.1).
    pub fn lq_per_thread(&self, lq_threads: usize) -> usize {
        self.lq_entries / lq_threads.max(1)
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self::base()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_matches_table1() {
        let c = CoreConfig::base();
        assert_eq!(c.iq_size, 128);
        assert_eq!(c.issue_width, 8);
        assert_eq!(c.phys_regs, 512);
        assert_eq!(c.lq_entries, 64);
        assert_eq!(c.sq_entries, 64);
        assert_eq!(c.fu_int, 8);
        assert_eq!(c.fu_logic, 8);
        assert_eq!(c.fu_mem, 4);
        assert_eq!(c.fu_fp, 4);
        assert_eq!(c.total_fus(), 24);
        assert_eq!(c.ibox_latency, 4);
        assert_eq!(c.pbox_latency, 2);
        assert_eq!(c.qbox_latency, 4);
        assert_eq!(c.rbox_latency, 4);
        assert_eq!(c.mbox_latency, 2);
    }

    #[test]
    fn static_partitioning() {
        let c = CoreConfig::base();
        assert_eq!(c.sq_per_thread(1), 64);
        assert_eq!(c.sq_per_thread(2), 32);
        assert_eq!(c.sq_per_thread(4), 16);
        assert_eq!(c.lq_per_thread(2), 32);
    }

    #[test]
    fn ptsq_gives_full_queue_per_thread() {
        let c = CoreConfig {
            per_thread_store_queues: true,
            ..CoreConfig::base()
        };
        assert_eq!(c.sq_per_thread(4), 64);
    }

    #[test]
    fn roles() {
        assert_eq!(ThreadRole::Independent.pair(), None);
        assert_eq!(ThreadRole::Leading(3).pair(), Some(3));
        assert!(ThreadRole::Trailing(1).is_trailing());
        assert!(ThreadRole::Leading(1).is_leading());
        assert!(!ThreadRole::Leading(1).is_trailing());
    }
}
