//! Set-associative caches with LRU replacement and optional way prediction.
//!
//! Timing-only: a cache holds tags, not data. The L1 instruction cache uses
//! way prediction as in the paper's base processor (Table 1): a correct way
//! prediction gives the fast hit path; a way mispredict on a hit costs one
//! extra cycle.

/// Geometry of a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Block (line) size in bytes; must be a power of two.
    pub block_bytes: u64,
    /// Whether to model way prediction (L1I in the base processor).
    pub way_prediction: bool,
}

impl CacheConfig {
    /// The paper's 64 KB, 2-way, 64-byte-block L1 instruction cache.
    pub fn l1i() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            assoc: 2,
            block_bytes: 64,
            way_prediction: true,
        }
    }

    /// The paper's 64 KB, 2-way, 64-byte-block L1 data cache.
    pub fn l1d() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            assoc: 2,
            block_bytes: 64,
            way_prediction: false,
        }
    }

    /// The paper's 3 MB, 8-way, 64-byte-block L2 cache.
    pub fn l2() -> Self {
        CacheConfig {
            size_bytes: 3 * 1024 * 1024,
            assoc: 8,
            block_bytes: 64,
            way_prediction: false,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        (self.size_bytes / self.block_bytes) as usize / self.assoc
    }
}

/// The result of probing a cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeResult {
    /// Whether the block was present.
    pub hit: bool,
    /// Extra cycles from a way misprediction (0 or 1; only for
    /// way-predicted caches on hits).
    pub way_penalty: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    lru: u64, // larger = more recently used
}

/// A set-associative, LRU, tag-only cache.
///
/// # Examples
///
/// ```
/// use rmt_mem::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::l1d());
/// assert!(!c.access(0x1000).hit);   // cold miss (access allocates)
/// assert!(c.access(0x1000).hit);    // now resident
/// assert!(c.access(0x1008).hit);    // same 64-byte block
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    way_pred: Vec<usize>,
    use_clock: u64,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets/ways, or a
    /// non-power-of-two block size).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.assoc > 0, "associativity must be non-zero");
        assert!(
            cfg.block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        let sets = cfg.num_sets();
        assert!(sets > 0, "cache must have at least one set");
        Cache {
            cfg,
            sets: vec![
                vec![
                    Line {
                        tag: 0,
                        valid: false,
                        lru: 0
                    };
                    cfg.assoc
                ];
                sets
            ],
            way_pred: vec![0; sets],
            use_clock: 0,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    fn index_tag(&self, addr: u64) -> (usize, u64) {
        let block = addr / self.cfg.block_bytes;
        let set = (block as usize) % self.sets.len();
        let tag = block / self.sets.len() as u64;
        (set, tag)
    }

    /// Probes and updates the cache for an access to `addr`.
    ///
    /// On a miss the block is allocated immediately (fill timing is the
    /// caller's concern, tracked by [`crate::MissTracker`]).
    pub fn access(&mut self, addr: u64) -> ProbeResult {
        self.use_clock += 1;
        let (set_idx, tag) = self.index_tag(addr);
        let predicted_way = self.way_pred[set_idx];
        let set = &mut self.sets[set_idx];
        if let Some(way) = set.iter().position(|l| l.valid && l.tag == tag) {
            set[way].lru = self.use_clock;
            self.way_pred[set_idx] = way;
            return ProbeResult {
                hit: true,
                way_penalty: u32::from(self.cfg.way_prediction && way != predicted_way),
            };
        }
        // Miss: allocate via LRU.
        let victim = (0..set.len())
            .min_by_key(|&w| if set[w].valid { set[w].lru } else { 0 })
            .expect("non-empty set");
        set[victim] = Line {
            tag,
            valid: true,
            lru: self.use_clock,
        };
        self.way_pred[set_idx] = victim;
        ProbeResult {
            hit: false,
            way_penalty: 0,
        }
    }

    /// Probes without updating replacement state or allocating.
    pub fn peek(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.index_tag(addr);
        self.sets[set_idx].iter().any(|l| l.valid && l.tag == tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64B = 256 B.
        Cache::new(CacheConfig {
            size_bytes: 256,
            assoc: 2,
            block_bytes: 64,
            way_prediction: false,
        })
    }

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::l1i().num_sets(), 512);
        assert_eq!(CacheConfig::l2().num_sets(), 6144);
        assert_eq!(tiny().config().num_sets(), 2);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0).hit);
        assert!(c.access(0).hit);
        assert!(c.access(63).hit); // same block
        assert!(!c.access(64).hit); // next block, other set
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds blocks with even block index: 0, 128, 256...
        c.access(0); // A
        c.access(128); // B -> set full
        c.access(0); // touch A
        c.access(256); // C evicts B (LRU)
        assert!(c.peek(0));
        assert!(!c.peek(128));
        assert!(c.peek(256));
    }

    #[test]
    fn peek_does_not_allocate() {
        let mut c = tiny();
        assert!(!c.peek(0));
        assert!(!c.access(0).hit);
        assert!(c.peek(0));
    }

    #[test]
    fn way_prediction_penalty() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 256,
            assoc: 2,
            block_bytes: 64,
            way_prediction: true,
        });
        // Two blocks in the same set (set 0): block 0 and block 2 (addr 128).
        c.access(0); // miss, fills way 0, pred[0] = 0
        c.access(128); // miss, fills way 1, pred[0] = 1
        let r = c.access(0); // hit in way 0, predicted way 1 -> penalty
        assert!(r.hit);
        assert_eq!(r.way_penalty, 1);
        let r2 = c.access(0); // predictor retrained
        assert_eq!(r2.way_penalty, 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_block_size_panics() {
        Cache::new(CacheConfig {
            size_bytes: 256,
            assoc: 2,
            block_bytes: 48,
            way_prediction: false,
        });
    }

    #[test]
    fn distinct_tags_same_set_coexist_up_to_assoc() {
        let mut c = tiny();
        c.access(0);
        c.access(128);
        assert!(c.peek(0));
        assert!(c.peek(128));
    }
}
