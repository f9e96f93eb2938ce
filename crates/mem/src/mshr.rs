//! Outstanding-miss tracking (MSHR-like).
//!
//! When a cache access misses, the fill takes many cycles. The
//! [`MissTracker`] remembers in-flight fills so that:
//!
//! * a second access to the same block *merges* with the in-flight fill
//!   (it completes when the fill completes, not a full miss later), and
//! * the number of concurrently outstanding fills is bounded; when all
//!   entries are busy a new miss is delayed until one frees up.
//!
//! This is what gives the simulated machine memory-level parallelism, which
//! in turn is what makes the SRT trailing thread's "misses never stall me"
//! property (§2.3) measurable.

/// Tracks outstanding block fills.
#[derive(Debug, Clone)]
pub struct MissTracker {
    /// `(block_addr, ready_at_cycle)` for fills still in flight.
    inflight: Vec<(u64, u64)>,
    capacity: usize,
    block_bytes: u64,
}

impl MissTracker {
    /// Creates a tracker with `capacity` MSHR entries for `block_bytes`
    /// blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `block_bytes` is not a power of two.
    pub fn new(capacity: usize, block_bytes: u64) -> Self {
        assert!(capacity > 0, "MSHR capacity must be non-zero");
        assert!(
            block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        MissTracker {
            inflight: Vec::with_capacity(capacity),
            capacity,
            block_bytes,
        }
    }

    fn block(&self, addr: u64) -> u64 {
        addr / self.block_bytes
    }

    /// Drops entries whose fills completed by `now`.
    pub fn expire(&mut self, now: u64) {
        self.inflight.retain(|&(_, ready)| ready > now);
    }

    /// Returns the completion time of an in-flight fill covering `addr`,
    /// if any.
    pub fn pending_fill(&self, addr: u64, now: u64) -> Option<u64> {
        let b = self.block(addr);
        self.inflight
            .iter()
            .find(|&&(blk, ready)| blk == b && ready > now)
            .map(|&(_, ready)| ready)
    }

    /// Registers a miss to `addr` at `now` whose fill takes `fill_latency`
    /// cycles, returning the cycle at which the data is available.
    ///
    /// If the block is already in flight, merges with it. If all MSHRs are
    /// busy, the new fill is serialized behind the earliest-completing one.
    pub fn start_fill(&mut self, addr: u64, now: u64, fill_latency: u64) -> u64 {
        self.expire(now);
        if let Some(ready) = self.pending_fill(addr, now) {
            return ready;
        }
        let start = if self.inflight.len() >= self.capacity {
            // All entries busy: wait for the earliest to complete.
            let earliest = self
                .inflight
                .iter()
                .map(|&(_, ready)| ready)
                .min()
                .expect("inflight non-empty");
            // Free that entry (its fill completes) and start after it.
            let pos = self
                .inflight
                .iter()
                .position(|&(_, ready)| ready == earliest)
                .expect("entry present");
            self.inflight.swap_remove(pos);
            earliest.max(now)
        } else {
            now
        };
        let ready = start + fill_latency;
        self.inflight.push((self.block(addr), ready));
        ready
    }

    /// Number of fills currently in flight (after expiring at `now`).
    pub fn outstanding(&mut self, now: u64) -> usize {
        self.expire(now);
        self.inflight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_completes_after_latency() {
        let mut m = MissTracker::new(4, 64);
        assert_eq!(m.start_fill(0x100, 10, 100), 110);
    }

    #[test]
    fn same_block_merges() {
        let mut m = MissTracker::new(4, 64);
        let r1 = m.start_fill(0x100, 10, 100);
        let r2 = m.start_fill(0x108, 20, 100); // same 64B block
        assert_eq!(r1, r2);
    }

    #[test]
    fn different_blocks_overlap() {
        let mut m = MissTracker::new(4, 64);
        let r1 = m.start_fill(0, 0, 100);
        let r2 = m.start_fill(64, 0, 100);
        assert_eq!(r1, 100);
        assert_eq!(r2, 100); // fully overlapped
    }

    #[test]
    fn capacity_serializes() {
        let mut m = MissTracker::new(2, 64);
        let a = m.start_fill(0, 0, 100);
        let b = m.start_fill(64, 0, 100);
        let c = m.start_fill(128, 0, 100); // must wait for a slot
        assert_eq!(a, 100);
        assert_eq!(b, 100);
        assert_eq!(c, 200);
    }

    #[test]
    fn entries_expire() {
        let mut m = MissTracker::new(1, 64);
        m.start_fill(0, 0, 50);
        assert_eq!(m.outstanding(10), 1);
        assert_eq!(m.outstanding(50), 0);
        // Slot free again -> no serialization.
        assert_eq!(m.start_fill(64, 60, 50), 110);
    }

    #[test]
    fn expired_fill_does_not_merge() {
        let mut m = MissTracker::new(4, 64);
        m.start_fill(0, 0, 10);
        // At cycle 20 the fill is done; a new access is a fresh fill.
        assert_eq!(m.start_fill(0, 20, 10), 30);
    }

    #[test]
    fn pending_fill_lookup() {
        let mut m = MissTracker::new(4, 64);
        m.start_fill(0, 0, 100);
        assert_eq!(m.pending_fill(32, 50), Some(100));
        assert_eq!(m.pending_fill(64, 50), None);
        assert_eq!(m.pending_fill(0, 100), None);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        MissTracker::new(0, 64);
    }
}
