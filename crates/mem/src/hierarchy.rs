//! The composed L1 → L2 → DRAM latency model.
//!
//! One [`MemoryHierarchy`] exists per *chip*: each core on the chip has its
//! own L1 instruction and data caches; the L2 and the memory interface are
//! shared (as in the two-way CMP devices of §5). All methods take the
//! current cycle and return the cycle at which the access's data is
//! available, so the pipeline can schedule around misses.
//!
//! For lockstepped devices, the checker interposes on every signal leaving
//! the processors — including L1 miss requests (§5). That is modelled by
//! [`HierarchyConfig::checker_penalty`], added to every L1 miss.

use crate::cache::{Cache, CacheConfig};
use crate::merge::MergeBuffer;
use crate::mshr::MissTracker;

/// Configuration of a chip's memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Per-core L1 instruction cache geometry.
    pub l1i: CacheConfig,
    /// Per-core L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Shared L2 geometry.
    pub l2: CacheConfig,
    /// L1-to-L2 fill latency in cycles.
    pub l2_latency: u64,
    /// L2-to-memory fill latency in cycles.
    pub mem_latency: u64,
    /// Outstanding-miss entries per core (per L1) and for the L2.
    pub mshrs: usize,
    /// Merge-buffer entries per core.
    pub merge_entries: usize,
    /// Cycles between merge-buffer drains (write-port bandwidth).
    pub merge_drain_interval: u64,
    /// Extra cycles a lockstep checker adds to every L1 miss (0 for
    /// non-lockstepped devices; 8 for the paper's Lock8).
    pub checker_penalty: u64,
    /// Next-line prefetch into the L1 data cache on every L1D miss
    /// (extension; the paper's machine has none, so it defaults off).
    pub l1d_next_line_prefetch: bool,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            l1i: CacheConfig::l1i(),
            l1d: CacheConfig::l1d(),
            l2: CacheConfig::l2(),
            l2_latency: 12,
            mem_latency: 100,
            mshrs: 16,
            merge_entries: 16,
            merge_drain_interval: 2,
            checker_penalty: 0,
            l1d_next_line_prefetch: false,
        }
    }
}

/// The outcome of a timed access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessTiming {
    /// Cycle at which the data is available.
    pub ready_at: u64,
    /// Whether the L1 hit.
    pub l1_hit: bool,
}

struct CoreCaches {
    l1i: Cache,
    l1d: Cache,
    i_mshr: MissTracker,
    d_mshr: MissTracker,
    merge: MergeBuffer,
}

/// A chip's memory system: per-core L1s over a shared L2 and DRAM.
///
/// # Examples
///
/// ```
/// use rmt_mem::{HierarchyConfig, MemoryHierarchy};
///
/// let mut m = MemoryHierarchy::new(HierarchyConfig::default(), 1);
/// let cold = m.ifetch(0, 0x1000, 0);
/// assert!(!cold.l1_hit);
/// let warm = m.ifetch(0, 0x1000, cold.ready_at);
/// assert!(warm.l1_hit);
/// ```
pub struct MemoryHierarchy {
    cfg: HierarchyConfig,
    cores: Vec<CoreCaches>,
    l2: Cache,
    l2_mshr: MissTracker,
}

impl MemoryHierarchy {
    /// Creates the memory system for a chip with `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero.
    pub fn new(cfg: HierarchyConfig, num_cores: usize) -> Self {
        assert!(num_cores > 0, "a chip needs at least one core");
        let cores = (0..num_cores)
            .map(|_| CoreCaches {
                l1i: Cache::new(cfg.l1i),
                l1d: Cache::new(cfg.l1d),
                i_mshr: MissTracker::new(cfg.mshrs, cfg.l1i.block_bytes),
                d_mshr: MissTracker::new(cfg.mshrs, cfg.l1d.block_bytes),
                merge: MergeBuffer::new(
                    cfg.merge_entries,
                    cfg.l1d.block_bytes,
                    cfg.merge_drain_interval,
                ),
            })
            .collect();
        MemoryHierarchy {
            cores,
            l2: Cache::new(cfg.l2),
            l2_mshr: MissTracker::new(cfg.mshrs * 2, cfg.l2.block_bytes),
            cfg,
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Number of cores sharing this hierarchy.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Latency of the L2-and-below portion of a fill starting at `now`.
    fn l2_fill(&mut self, addr: u64, now: u64) -> u64 {
        if self.l2.access(addr).hit {
            now + self.cfg.l2_latency
        } else {
            let ready = self.l2_mshr.start_fill(addr, now, self.cfg.mem_latency);
            ready + self.cfg.l2_latency
        }
    }

    /// Times an instruction fetch of the block containing `addr` by `core`.
    pub fn ifetch(&mut self, core: usize, addr: u64, now: u64) -> AccessTiming {
        let probe = self.cores[core].l1i.access(addr);
        if probe.hit {
            // Check whether the block is still being filled (a previous miss
            // allocated the tag before the data arrived).
            if let Some(ready) = self.cores[core].i_mshr.pending_fill(addr, now) {
                return AccessTiming {
                    ready_at: ready,
                    l1_hit: false,
                };
            }
            return AccessTiming {
                ready_at: now + probe.way_penalty as u64,
                l1_hit: true,
            };
        }
        let below = self.l2_fill(addr, now) - now + self.cfg.checker_penalty;
        let ready = self.cores[core].i_mshr.start_fill(addr, now, below);
        AccessTiming {
            ready_at: ready,
            l1_hit: false,
        }
    }

    /// Times a data load from `addr` by `core`.
    pub fn dload(&mut self, core: usize, addr: u64, now: u64) -> AccessTiming {
        let probe = self.cores[core].l1d.access(addr);
        if probe.hit {
            if let Some(ready) = self.cores[core].d_mshr.pending_fill(addr, now) {
                return AccessTiming {
                    ready_at: ready,
                    l1_hit: false,
                };
            }
            return AccessTiming {
                ready_at: now,
                l1_hit: true,
            };
        }
        let below = self.l2_fill(addr, now) - now + self.cfg.checker_penalty;
        let ready = self.cores[core].d_mshr.start_fill(addr, now, below);
        if self.cfg.l1d_next_line_prefetch {
            // Fetch the next block alongside the demand miss so a unit-
            // stride sweep finds it resident.
            let next = (addr / self.cfg.l1d.block_bytes + 1) * self.cfg.l1d.block_bytes;
            if !self.cores[core].l1d.peek(next)
                && self.cores[core].d_mshr.pending_fill(next, now).is_none()
            {
                let below = self.l2_fill(next, now) - now + self.cfg.checker_penalty;
                self.cores[core].d_mshr.start_fill(next, now, below);
                self.cores[core].l1d.access(next); // allocate the tag
            }
        }
        AccessTiming {
            ready_at: ready,
            l1_hit: false,
        }
    }

    /// Attempts to retire a store into `core`'s merge buffer at `now`.
    ///
    /// Returns `false` when the merge buffer is full (the store queue must
    /// hold the store and retry).
    pub fn store_retire(&mut self, core: usize, addr: u64, now: u64) -> bool {
        let accepted = self.cores[core].merge.try_insert(addr, now);
        if accepted {
            // Write-allocate into L1D so subsequent loads hit.
            self.cores[core].l1d.access(addr);
        }
        accepted
    }

    /// Functionally warms the instruction-fetch path for `core`: the L1I
    /// block is touched/allocated through the same [`Cache::access`] as
    /// [`Self::ifetch`], and on an L1I miss the L2 as well. No MSHRs are
    /// reserved — warming replays an address trace into the tags, with no
    /// fill timing.
    pub fn warm_ifetch(&mut self, core: usize, addr: u64) {
        if !self.cores[core].l1i.access(addr).hit {
            self.l2.access(addr);
        }
    }

    /// Functionally warms the data-load path for `core` (L1D, then L2 on
    /// an L1D miss); see [`Self::warm_ifetch`]. No next-line prefetch is
    /// issued.
    pub fn warm_dload(&mut self, core: usize, addr: u64) {
        if !self.cores[core].l1d.access(addr).hit {
            self.l2.access(addr);
        }
    }

    /// Functionally warms a retired store for `core`: write-allocates into
    /// the L1D (as [`Self::store_retire`] does), filling the L2 on a miss.
    /// The merge buffer carries no state worth warming across a window.
    pub fn warm_store(&mut self, core: usize, addr: u64) {
        self.warm_dload(core, addr);
    }

    /// Per-cycle background work (merge-buffer trickle drain).
    pub fn tick(&mut self, now: u64) {
        for c in &mut self.cores {
            c.merge.tick(now);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> HierarchyConfig {
        HierarchyConfig {
            l1i: CacheConfig {
                size_bytes: 1024,
                assoc: 2,
                block_bytes: 64,
                way_prediction: false,
            },
            l1d: CacheConfig {
                size_bytes: 1024,
                assoc: 2,
                block_bytes: 64,
                way_prediction: false,
            },
            l2: CacheConfig {
                size_bytes: 4096,
                assoc: 4,
                block_bytes: 64,
                way_prediction: false,
            },
            l2_latency: 10,
            mem_latency: 100,
            mshrs: 4,
            merge_entries: 4,
            merge_drain_interval: 2,
            checker_penalty: 0,
            l1d_next_line_prefetch: false,
        }
    }

    #[test]
    fn cold_fetch_goes_to_memory() {
        let mut m = MemoryHierarchy::new(small_cfg(), 1);
        let t = m.ifetch(0, 0, 0);
        assert!(!t.l1_hit);
        // L2 miss: mem (100) + l2 (10).
        assert_eq!(t.ready_at, 110);
    }

    #[test]
    fn l2_hit_is_cheaper() {
        let mut m = MemoryHierarchy::new(small_cfg(), 1);
        m.ifetch(0, 0, 0); // fills L2 and L1I
                           // Evict nothing from L2; invalidate only L1 by thrashing its set:
                           // L1I is 1KB/2-way/64B = 8 sets; blocks 0, 8, 16 map to set 0.
        m.ifetch(0, 8 * 64, 200);
        m.ifetch(0, 16 * 64, 400);
        // Block 0 now out of L1I but in L2.
        let t = m.ifetch(0, 0, 600);
        assert!(!t.l1_hit);
        assert_eq!(t.ready_at, 610);
    }

    #[test]
    fn pending_fill_covers_second_access() {
        let mut m = MemoryHierarchy::new(small_cfg(), 1);
        let t1 = m.ifetch(0, 0, 0);
        // Second fetch of same block while fill is in flight: no new miss,
        // ready at the same fill time.
        let t2 = m.ifetch(0, 32, 5);
        assert_eq!(t2.ready_at, t1.ready_at);
        assert!(!t2.l1_hit);
    }

    #[test]
    fn hit_after_fill_completes() {
        let mut m = MemoryHierarchy::new(small_cfg(), 1);
        let t = m.dload(0, 0x40, 0);
        let warm = m.dload(0, 0x40, t.ready_at + 1);
        assert!(warm.l1_hit);
        assert_eq!(warm.ready_at, t.ready_at + 1);
    }

    #[test]
    fn checker_penalty_applies_to_misses_only() {
        let mut cfg = small_cfg();
        cfg.checker_penalty = 8;
        let mut m = MemoryHierarchy::new(cfg, 1);
        let t = m.dload(0, 0, 0);
        assert_eq!(t.ready_at, 118); // 100 + 10 + 8
        let warm = m.dload(0, 0, t.ready_at);
        assert!(warm.l1_hit);
        assert_eq!(warm.ready_at, t.ready_at); // no penalty on hits
    }

    #[test]
    fn cores_have_private_l1_shared_l2() {
        let mut m = MemoryHierarchy::new(small_cfg(), 2);
        let t0 = m.ifetch(0, 0, 0);
        assert_eq!(t0.ready_at, 110);
        // Core 1 misses its own L1I but hits the shared L2.
        let t1 = m.ifetch(1, 0, 200);
        assert!(!t1.l1_hit);
        assert_eq!(t1.ready_at, 210);
    }

    #[test]
    fn store_retire_allocates_l1d() {
        let mut m = MemoryHierarchy::new(small_cfg(), 1);
        assert!(m.store_retire(0, 0x80, 0));
        let t = m.dload(0, 0x80, 1);
        assert!(t.l1_hit);
    }

    #[test]
    fn merge_buffer_backpressure() {
        let mut cfg = small_cfg();
        cfg.merge_entries = 2;
        cfg.merge_drain_interval = 1000;
        let mut m = MemoryHierarchy::new(cfg, 1);
        assert!(m.store_retire(0, 0, 0));
        assert!(m.store_retire(0, 64, 0));
        assert!(m.store_retire(0, 128, 1)); // free drain
        assert!(!m.store_retire(0, 192, 2)); // stalled
    }

    /// Warming a hierarchy leaves its caches where timed accesses to the
    /// same addresses would: every follow-up access, including one to a
    /// block the L1 lost and only the L2 still holds, times the same.
    #[test]
    fn warming_leaves_the_caches_as_timed_accesses_do() {
        let cfg = HierarchyConfig::default();
        // Blocks 32 KiB apart share an L1 set (512 sets of 64 B), so the
        // third of each group evicts the first from the 2-way L1 while
        // the L2 keeps all three.
        let set_stride = cfg.l1i.num_sets() as u64 * cfg.l1i.block_bytes;
        let group = |base: u64| (0..3).map(move |k| base + k * set_stride);
        let fetches: Vec<u64> = group(0x1000).chain([0x1000, 0x1040]).collect();
        let loads: Vec<u64> = group(0x40_0000).chain([0x40_0008, 0x40_8000]).collect();
        let mut timed = MemoryHierarchy::new(cfg, 1);
        let mut warmed = MemoryHierarchy::new(cfg, 1);
        // Far enough apart that every fill completes before the next access.
        let gap = 10 * (cfg.mem_latency + cfg.l2_latency);
        let mut now = 0;
        for (&f, &l) in fetches.iter().zip(&loads) {
            timed.ifetch(0, f, now);
            warmed.warm_ifetch(0, f);
            timed.dload(0, l, now + gap / 2);
            warmed.warm_dload(0, l);
            now += gap;
        }
        let mut l2_only = 0;
        for (&f, &l) in fetches.iter().zip(&loads) {
            let (a, b) = (timed.ifetch(0, f, now), warmed.ifetch(0, f, now));
            assert_eq!(a, b, "ifetch {f:#x}");
            let (a, b) = (timed.dload(0, l, now + 1), warmed.dload(0, l, now + 1));
            assert_eq!(a, b, "dload {l:#x}");
            l2_only += usize::from(!a.l1_hit && a.ready_at == now + 1 + cfg.l2_latency);
            now += gap;
        }
        assert!(l2_only > 0, "no follow-up reached a block only the L2 held");
    }

    #[test]
    fn warm_store_allocates_l1d_like_store_retire() {
        let mut retired = MemoryHierarchy::new(HierarchyConfig::default(), 1);
        let mut warmed = MemoryHierarchy::new(HierarchyConfig::default(), 1);
        assert!(retired.store_retire(0, 0x80, 0));
        warmed.warm_store(0, 0x80);
        assert!(retired.dload(0, 0x88, 1).l1_hit);
        assert!(warmed.dload(0, 0x88, 1).l1_hit);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        MemoryHierarchy::new(small_cfg(), 0);
    }

    #[test]
    fn next_line_prefetch_covers_unit_stride() {
        let mut cfg = small_cfg();
        cfg.l1d_next_line_prefetch = true;
        let mut m = MemoryHierarchy::new(cfg, 1);
        let t0 = m.dload(0, 0, 0);
        assert!(!t0.l1_hit);
        // The next block is in flight: its fill completes around the same
        // time, not a full miss later.
        let t1 = m.dload(0, 64, 1);
        assert!(
            t1.ready_at <= t0.ready_at + 20,
            "{} vs {}",
            t1.ready_at,
            t0.ready_at
        );
        // Without prefetch the second access pays a fresh full miss.
        let mut plain = MemoryHierarchy::new(small_cfg(), 1);
        let p0 = plain.dload(0, 0, 0);
        let p1 = plain.dload(0, 64, p0.ready_at);
        assert!(p1.ready_at > p0.ready_at + 50);
    }
}
