//! The redundant-multithreading environment: wires the LVQ, LPQ, store
//! comparator and PSR tracker of every redundant pair into the base
//! pipeline's [`CoreEnv`] attachment points.
//!
//! One [`RmtEnv`] serves a whole device — the single core of an SRT
//! processor or both cores of a CRT processor. Cross-core forwarding
//! latency (CRT, §5/§6.3) is modelled by pushing queue entries with a
//! `visible_at` in the future.

use crate::comparator::{CompareOutcome, StoreComparator};
use crate::lpq::LinePredictionQueue;
use crate::lvq::LoadValueQueue;
use crate::psr::PsrTracker;
use rmt_isa::mem_image::MemImage;
use rmt_pipeline::chunk::{ChunkAggregator, RetiredChunk};
use rmt_pipeline::config::{PairId, ThreadId};
use rmt_pipeline::env::{CoreEnv, LvqResult, RetireInfo, RetireKind, StoreRelease};
use rmt_stats::{Histogram, MetricsRegistry};

/// Configuration of the forwarding structures (defaults follow §6.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RmtEnvConfig {
    /// Load value queue entries per pair (sized like the store queue: 64).
    pub lvq_entries: usize,
    /// Line prediction queue entries (chunks) per pair.
    pub lpq_chunks: usize,
    /// Cycles to forward line predictions from the QBOX to the IBOX (4).
    pub lpq_delay: u64,
    /// Cycles to forward load values from the QBOX to the MBOX (2).
    pub lvq_delay: u64,
    /// Cycles for a trailing store to reach the comparator (0 on-core).
    pub comparator_delay: u64,
    /// Extra delay on all three paths when the pair's threads run on
    /// different cores (4 for CRT, 0 for SRT).
    pub cross_core_delay: u64,
    /// Whether leading stores wait for output comparison. Disabling this is
    /// the paper's "SRT + nosc" configuration (Figure 6), which isolates
    /// the store-queue-pressure component of SRT's slowdown.
    pub store_comparison: bool,
    /// Record trailing stores for comparison at *retirement* instead of
    /// execution. Required for the non-LPQ trailing-fetch ablation, where
    /// trailing threads misspeculate.
    pub compare_at_retire: bool,
    /// ECC protection on the load value queue (§2.1: "the load value queue
    /// contents must be protected by some other means, e.g., ECC"). On by
    /// default in campaigns that model a production design; the
    /// `fault_coverage` experiment runs with it off to show what it buys.
    pub lvq_ecc: bool,
    /// Whether the line prediction queue is in use. The non-LPQ trailing-
    /// fetch ablation disables it: trailing threads fetch through the
    /// shared line predictor, nothing drains the LPQ, and filling it would
    /// wedge leading retirement.
    pub lpq_enabled: bool,
}

impl Default for RmtEnvConfig {
    fn default() -> Self {
        RmtEnvConfig {
            lvq_entries: 64,
            lpq_chunks: 64,
            lpq_delay: 4,
            lvq_delay: 2,
            comparator_delay: 0,
            cross_core_delay: 0,
            store_comparison: true,
            compare_at_retire: false,
            lvq_ecc: false,
            lpq_enabled: true,
        }
    }
}

/// Per-pair RMT state.
pub struct PairState {
    /// The pair's load value queue.
    pub lvq: LoadValueQueue,
    /// The pair's line prediction queue.
    pub lpq: LinePredictionQueue,
    /// Aggregates the leading commit stream into LPQ chunks.
    agg: ChunkAggregator,
    /// The pair's store comparator.
    pub comparator: StoreComparator,
    /// Same-FU / same-half statistics.
    pub psr: PsrTracker,
    /// The pair's architectural memory (outside the sphere).
    pub image: MemImage,
    /// Leading-thread instructions committed.
    pub lead_commits: u64,
    /// Trailing-thread instructions committed.
    pub trail_commits: u64,
    /// Distribution of the slack (leading minus trailing committed
    /// instructions) sampled at every trailing retirement — the quantity
    /// the original SRT paper's slack fetch controlled explicitly and the
    /// LVQ/LPQ bound implicitly here.
    pub slack: Histogram,
    /// Per-cycle LVQ occupancy (sampled by the owning device's tick).
    pub lvq_occupancy: Histogram,
    /// Per-cycle LPQ occupancy (chunks).
    pub lpq_occupancy: Histogram,
    /// Per-cycle comparator backlog (trailing stores awaiting their
    /// leading counterpart).
    pub comparator_pending: Histogram,
    scratch: Vec<RetiredChunk>,
}

impl PairState {
    fn new(cfg: &RmtEnvConfig, image: MemImage) -> PairState {
        PairState {
            lvq: if cfg.lvq_ecc {
                LoadValueQueue::new(cfg.lvq_entries).with_ecc()
            } else {
                LoadValueQueue::new(cfg.lvq_entries)
            },
            lpq: LinePredictionQueue::new(cfg.lpq_chunks),
            agg: ChunkAggregator::new(8),
            comparator: StoreComparator::new(),
            psr: PsrTracker::new(),
            image,
            lead_commits: 0,
            trail_commits: 0,
            slack: Histogram::new("slack_instructions", 16, 64),
            lvq_occupancy: Histogram::new("lvq_occupancy", 2, 40),
            lpq_occupancy: Histogram::new("lpq_occupancy", 2, 40),
            comparator_pending: Histogram::new("comparator_pending", 2, 40),
            scratch: Vec::new(),
        }
    }
}

/// The RMT environment: per-pair queues plus thread-to-pair routing.
pub struct RmtEnv {
    cfg: RmtEnvConfig,
    pairs: Vec<PairState>,
    /// `route[core][tid] = pair` for threads registered to this env.
    route: Vec<Vec<Option<PairId>>>,
}

impl RmtEnv {
    /// Creates an environment for `images.len()` redundant pairs; pair `i`
    /// owns `images[i]`.
    pub fn new(cfg: RmtEnvConfig, images: Vec<MemImage>) -> Self {
        let pairs = images
            .into_iter()
            .map(|image| PairState::new(&cfg, image))
            .collect();
        RmtEnv {
            cfg,
            pairs,
            route: Vec::new(),
        }
    }

    /// Registers `(core, tid)` as belonging to `pair` (both the leading and
    /// trailing thread must be registered).
    ///
    /// # Panics
    ///
    /// Panics if `pair` does not exist.
    pub fn map_thread(&mut self, core: usize, tid: ThreadId, pair: PairId) {
        assert!(pair < self.pairs.len(), "pair out of range");
        while self.route.len() <= core {
            self.route.push(Vec::new());
        }
        let row = &mut self.route[core];
        while row.len() <= tid {
            row.push(None);
        }
        row[tid] = Some(pair);
    }

    fn pair_of(&self, core: usize, tid: ThreadId) -> PairId {
        self.route
            .get(core)
            .and_then(|r| r.get(tid))
            .copied()
            .flatten()
            .expect("thread not registered with RmtEnv")
    }

    /// The state of pair `p`.
    pub fn pair(&self, p: PairId) -> &PairState {
        &self.pairs[p]
    }

    /// Mutable state of pair `p` (fault injection into the LVQ, etc.).
    pub fn pair_mut(&mut self, p: PairId) -> &mut PairState {
        &mut self.pairs[p]
    }

    /// Resets pair `p` to a pristine state around `image` (recovery):
    /// fresh queues, comparator and statistics, zeroed commit counters.
    pub fn reset_pair(&mut self, p: PairId, image: MemImage) {
        self.pairs[p] = PairState::new(&self.cfg, image);
    }

    /// The configuration.
    pub fn config(&self) -> &RmtEnvConfig {
        &self.cfg
    }

    /// Records one per-cycle occupancy sample for every pair's
    /// sphere-crossing queues. Devices call this once per tick.
    pub fn sample_occupancy(&mut self) {
        for p in &mut self.pairs {
            p.lvq_occupancy.record(p.lvq.len() as u64);
            p.lpq_occupancy.record(p.lpq.len() as u64);
            p.comparator_pending.record(p.comparator.pending() as u64);
        }
    }

    /// Exports per-pair RMT metrics into `reg` under `prefix` (e.g.
    /// `rmt/pair0/lvq/occupancy`, `rmt/pair0/comparator/mismatches`).
    pub fn export_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        for (i, p) in self.pairs.iter().enumerate() {
            let pp = format!("{prefix}/pair{i}");
            reg.counter(&format!("{pp}/lead_commits"), p.lead_commits);
            reg.counter(&format!("{pp}/trail_commits"), p.trail_commits);
            reg.histogram(&format!("{pp}/slack"), &p.slack);
            reg.histogram(&format!("{pp}/lvq/occupancy"), &p.lvq_occupancy);
            reg.counter(&format!("{pp}/lvq/peak"), p.lvq.peak() as u64);
            reg.counter(&format!("{pp}/lvq/ecc_corrected"), p.lvq.ecc_corrected());
            reg.histogram(&format!("{pp}/lpq/occupancy"), &p.lpq_occupancy);
            reg.counter(&format!("{pp}/lpq/peak"), p.lpq.peak() as u64);
            reg.histogram(&format!("{pp}/comparator/pending"), &p.comparator_pending);
            reg.counter(&format!("{pp}/comparator/matches"), p.comparator.matches());
            reg.counter(
                &format!("{pp}/comparator/mismatches"),
                p.comparator.mismatches(),
            );
            reg.counter(&format!("{pp}/psr/compared"), p.psr.compared());
            reg.gauge(
                &format!("{pp}/psr/same_fu_fraction"),
                p.psr.same_fu_fraction(),
            );
            reg.gauge(
                &format!("{pp}/psr/same_half_fraction"),
                p.psr.same_half_fraction(),
            );
        }
    }

    fn lvq_visible(&self, now: u64) -> u64 {
        now + self.cfg.lvq_delay + self.cfg.cross_core_delay
    }

    fn lpq_visible(&self, now: u64) -> u64 {
        now + self.cfg.lpq_delay + self.cfg.cross_core_delay
    }

    fn cmp_visible(&self, now: u64) -> u64 {
        now + self.cfg.comparator_delay + self.cfg.cross_core_delay
    }
}

impl CoreEnv for RmtEnv {
    fn read_mem(&mut self, core: usize, tid: ThreadId, addr: u64, bytes: u64) -> u64 {
        let p = self.pair_of(core, tid);
        self.pairs[p].image.read(addr, bytes)
    }

    fn write_mem(&mut self, core: usize, tid: ThreadId, addr: u64, value: u64, bytes: u64) {
        let p = self.pair_of(core, tid);
        self.pairs[p].image.write(addr, value, bytes);
    }

    fn lead_retired(&mut self, _core: usize, _tid: ThreadId, now: u64, info: &RetireInfo) -> bool {
        let visible_lvq = self.lvq_visible(now);
        let visible_lpq = self.lpq_visible(now);
        let lpq_enabled = self.cfg.lpq_enabled;
        let pair = &mut self.pairs[info.pair];
        // Capacity checks first so a NACK has no side effects: the commit
        // stream may emit up to two chunks per instruction.
        if lpq_enabled && !pair.lpq.has_space_for(2) {
            return false;
        }
        if matches!(info.kind, RetireKind::Load { .. }) && !pair.lvq.has_space() {
            return false;
        }
        if let RetireKind::Load {
            tag,
            addr,
            value,
            bytes,
        } = info.kind
        {
            let ok = pair.lvq.push(tag, addr, value, bytes, visible_lvq);
            debug_assert!(ok, "LVQ space was checked");
        }
        if lpq_enabled {
            let mut scratch = std::mem::take(&mut pair.scratch);
            scratch.clear();
            pair.agg
                .push(info.pc, info.next_pc, info.iq_half, &mut scratch);
            for c in &scratch {
                let ok = pair.lpq.push(*c, visible_lpq);
                debug_assert!(ok, "LPQ space was checked");
            }
            pair.scratch = scratch;
        }
        // Index PSR pairing by the pair-local commit counters (rather than
        // the thread's lifetime counter) so it survives recovery resets.
        pair.psr
            .record_leading(pair.lead_commits, info.fu_id, info.iq_half);
        pair.lead_commits += 1;
        true
    }

    fn lead_retire_blocked(&mut self, _core: usize, _tid: ThreadId, now: u64, pair: PairId) {
        let visible = self.lpq_visible(now);
        let p = &mut self.pairs[pair];
        if p.agg.open_len() == 0 || !p.lpq.has_space_for(1) {
            return;
        }
        let mut scratch = std::mem::take(&mut p.scratch);
        scratch.clear();
        p.agg.force_terminate(&mut scratch);
        for c in &scratch {
            let ok = p.lpq.push(*c, visible);
            debug_assert!(ok, "LPQ space was checked");
        }
        p.scratch = scratch;
    }

    fn store_release(
        &mut self,
        _core: usize,
        _tid: ThreadId,
        now: u64,
        pair: PairId,
        tag: u64,
        addr: u64,
        value: u64,
        bytes: u64,
    ) -> StoreRelease {
        if !self.cfg.store_comparison {
            return StoreRelease::Release;
        }
        match self.pairs[pair]
            .comparator
            .check(tag, addr, value, bytes, now)
        {
            CompareOutcome::NotYet => StoreRelease::Wait,
            CompareOutcome::Match => StoreRelease::Release,
            CompareOutcome::Mismatch => StoreRelease::Mismatch,
        }
    }

    fn lpq_peek(
        &mut self,
        _core: usize,
        _tid: ThreadId,
        now: u64,
        pair: PairId,
    ) -> Option<RetiredChunk> {
        self.pairs[pair].lpq.peek(now)
    }

    fn lpq_ack(&mut self, _core: usize, _tid: ThreadId, pair: PairId) {
        self.pairs[pair].lpq.ack();
    }

    fn lpq_fetch_done(&mut self, _core: usize, _tid: ThreadId, pair: PairId) {
        self.pairs[pair].lpq.fetch_done();
    }

    fn lpq_rollback(&mut self, _core: usize, _tid: ThreadId, pair: PairId) {
        self.pairs[pair].lpq.rollback();
    }

    fn lvq_lookup(
        &mut self,
        _core: usize,
        _tid: ThreadId,
        now: u64,
        pair: PairId,
        tag: u64,
    ) -> LvqResult {
        match self.pairs[pair].lvq.lookup(tag, now) {
            Some(e) => LvqResult::Entry {
                addr: e.addr,
                value: e.value,
            },
            None => LvqResult::NotReady,
        }
    }

    fn trailing_store_executed(
        &mut self,
        _core: usize,
        _tid: ThreadId,
        now: u64,
        pair: PairId,
        tag: u64,
        addr: u64,
        value: u64,
        bytes: u64,
    ) {
        if self.cfg.compare_at_retire {
            return; // recorded at retirement instead
        }
        let visible = self.cmp_visible(now);
        self.pairs[pair]
            .comparator
            .record_trailing(tag, addr, value, bytes, visible);
    }

    fn trailing_retired(&mut self, _core: usize, _tid: ThreadId, now: u64, info: &RetireInfo) {
        let visible = self.cmp_visible(now);
        let pair = &mut self.pairs[info.pair];
        pair.psr
            .record_trailing(pair.trail_commits, info.fu_id, info.iq_half);
        pair.trail_commits += 1;
        pair.slack
            .record(pair.lead_commits.saturating_sub(pair.trail_commits));
        match info.kind {
            RetireKind::Load { tag, .. } => pair.lvq.consume(tag),
            RetireKind::Store {
                tag,
                addr,
                value,
                bytes,
            } if self.cfg.compare_at_retire => {
                pair.comparator
                    .record_trailing(tag, addr, value, bytes, visible);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_with_one_pair(cfg: RmtEnvConfig) -> RmtEnv {
        let mut env = RmtEnv::new(cfg, vec![MemImage::new()]);
        env.map_thread(0, 0, 0); // leading
        env.map_thread(0, 1, 0); // trailing
        env
    }

    fn load_info(tag: u64, addr: u64, value: u64) -> RetireInfo {
        RetireInfo {
            pair: 0,
            pc: 0,
            next_pc: 4,
            iq_half: 0,
            fu_id: 16,
            commit_index: tag,
            kind: RetireKind::Load {
                tag,
                addr,
                value,
                bytes: 8,
            },
        }
    }

    #[test]
    fn lead_load_retire_fills_lvq_with_delay() {
        let mut env = env_with_one_pair(RmtEnvConfig::default());
        assert!(env.lead_retired(0, 0, 100, &load_info(0, 0x40, 7)));
        // Visible after lvq_delay (2).
        assert_eq!(env.lvq_lookup(0, 1, 100, 0, 0), LvqResult::NotReady);
        assert_eq!(
            env.lvq_lookup(0, 1, 102, 0, 0),
            LvqResult::Entry {
                addr: 0x40,
                value: 7
            }
        );
    }

    #[test]
    fn full_lvq_nacks_lead_retirement_without_side_effects() {
        let cfg = RmtEnvConfig {
            lvq_entries: 1,
            ..Default::default()
        };
        let mut env = env_with_one_pair(cfg);
        assert!(env.lead_retired(0, 0, 0, &load_info(0, 0, 1)));
        let lpq_before = env.pair(0).lpq.len();
        assert!(!env.lead_retired(0, 0, 1, &load_info(1, 8, 2)));
        // NACK left the LPQ untouched (no partial chunk pushed).
        assert_eq!(env.pair(0).lpq.len(), lpq_before);
        // Trailing consumes the first entry; retry succeeds.
        env.trailing_retired(0, 1, 10, &load_info(0, 0, 1));
        assert!(env.lead_retired(0, 0, 11, &load_info(1, 8, 2)));
    }

    #[test]
    fn chunks_flow_lead_to_lpq() {
        let mut env = env_with_one_pair(RmtEnvConfig::default());
        // Three sequential instructions then a taken branch.
        for (pc, next) in [(0u64, 4u64), (4, 8), (8, 100)] {
            let info = RetireInfo {
                pair: 0,
                pc,
                next_pc: next,
                iq_half: (pc / 4 % 2) as u8,
                fu_id: 0,
                commit_index: pc / 4,
                kind: RetireKind::Other,
            };
            assert!(env.lead_retired(0, 0, 10, &info));
        }
        // The taken branch terminated a 3-instruction chunk.
        let c = env
            .lpq_peek(0, 1, 14, 0)
            .expect("chunk visible after delay");
        assert_eq!(c.start_pc, 0);
        assert_eq!(c.len, 3);
        assert_eq!(&c.halves[..3], &[0, 1, 0]);
    }

    #[test]
    fn forced_termination_flushes_open_chunk() {
        let mut env = env_with_one_pair(RmtEnvConfig::default());
        let info = RetireInfo {
            pair: 0,
            pc: 0,
            next_pc: 4,
            iq_half: 0,
            fu_id: 0,
            commit_index: 0,
            kind: RetireKind::Other,
        };
        assert!(env.lead_retired(0, 0, 0, &info));
        assert!(env.lpq_peek(0, 1, 100, 0).is_none(), "chunk still open");
        env.lead_retire_blocked(0, 0, 0, 0);
        assert!(env.lpq_peek(0, 1, 100, 0).is_some());
        // Idempotent when nothing is open.
        env.lead_retire_blocked(0, 0, 0, 0);
        assert_eq!(env.pair(0).lpq.len(), 1);
    }

    #[test]
    fn store_comparison_roundtrip() {
        let mut env = env_with_one_pair(RmtEnvConfig::default());
        assert_eq!(
            env.store_release(0, 0, 0, 0, 0, 0x40, 5, 8),
            StoreRelease::Wait
        );
        env.trailing_store_executed(0, 1, 10, 0, 0, 0x40, 5, 8);
        assert_eq!(
            env.store_release(0, 0, 10, 0, 0, 0x40, 5, 8),
            StoreRelease::Release
        );
    }

    #[test]
    fn store_mismatch_detected() {
        let mut env = env_with_one_pair(RmtEnvConfig::default());
        env.trailing_store_executed(0, 1, 0, 0, 0, 0x40, 5, 8);
        assert_eq!(
            env.store_release(0, 0, 5, 0, 0, 0x40, 6, 8),
            StoreRelease::Mismatch
        );
        assert_eq!(env.pair(0).comparator.mismatches(), 1);
    }

    #[test]
    fn nosc_releases_immediately() {
        let cfg = RmtEnvConfig {
            store_comparison: false,
            ..Default::default()
        };
        let mut env = env_with_one_pair(cfg);
        assert_eq!(
            env.store_release(0, 0, 0, 0, 0, 0x40, 5, 8),
            StoreRelease::Release
        );
    }

    #[test]
    fn cross_core_delay_defers_everything() {
        let cfg = RmtEnvConfig {
            cross_core_delay: 4,
            ..Default::default()
        };
        let mut env = env_with_one_pair(cfg);
        assert!(env.lead_retired(0, 0, 0, &load_info(0, 0, 1)));
        // lvq_delay (2) + cross (4) = 6.
        assert_eq!(env.lvq_lookup(1, 0, 5, 0, 0), LvqResult::NotReady);
        assert!(matches!(
            env.lvq_lookup(1, 0, 6, 0, 0),
            LvqResult::Entry { .. }
        ));
        env.trailing_store_executed(1, 0, 0, 0, 0, 0x40, 5, 8);
        assert_eq!(
            env.store_release(0, 0, 3, 0, 0, 0x40, 5, 8),
            StoreRelease::Wait
        );
        assert_eq!(
            env.store_release(0, 0, 4, 0, 0, 0x40, 5, 8),
            StoreRelease::Release
        );
    }

    #[test]
    fn compare_at_retire_mode_records_from_retirement() {
        let cfg = RmtEnvConfig {
            compare_at_retire: true,
            ..Default::default()
        };
        let mut env = env_with_one_pair(cfg);
        env.trailing_store_executed(0, 1, 0, 0, 0, 0x40, 5, 8);
        assert_eq!(
            env.store_release(0, 0, 100, 0, 0, 0x40, 5, 8),
            StoreRelease::Wait,
            "execute-time records are ignored in this mode"
        );
        let info = RetireInfo {
            pair: 0,
            pc: 0,
            next_pc: 4,
            iq_half: 0,
            fu_id: 0,
            commit_index: 0,
            kind: RetireKind::Store {
                tag: 0,
                addr: 0x40,
                value: 5,
                bytes: 8,
            },
        };
        env.trailing_retired(0, 1, 100, &info);
        assert_eq!(
            env.store_release(0, 0, 100, 0, 0, 0x40, 5, 8),
            StoreRelease::Release
        );
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_thread_panics() {
        let mut env = RmtEnv::new(RmtEnvConfig::default(), vec![MemImage::new()]);
        env.read_mem(0, 3, 0, 8);
    }
}
